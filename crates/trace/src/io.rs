//! Trace serialization: a compact binary format and a human-readable
//! text format.
//!
//! The 1995 study had to build its own trace tooling (Spa + Sage++
//! instrumentation); this module is our equivalent, so traces can be
//! generated once and replayed across simulator configurations or shared
//! between machines.
//!
//! # Binary format (`SACT` v1)
//!
//! ```text
//! magic   4 bytes  b"SACT"
//! version u32 LE   1
//! namelen u32 LE   n
//! name    n bytes  UTF-8
//! count   u64 LE   number of entries
//! entries count × 16 bytes: addr u64 LE, instr u32 LE, gap u16 LE,
//!                           flags u8 (bit0 write, bit1 temporal,
//!                           bit2 spatial), pad u8 = 0
//! ```
//!
//! # Compact binary format (`SAC2` v1)
//!
//! Real address traces are deeply redundant — nearby addresses, tiny
//! issue gaps, long stretches of identical hint flags — so the delta
//! format stores runs of same-flag entries with varint-coded deltas:
//!
//! ```text
//! magic   4 bytes  b"SAC2"
//! version u32 LE   1
//! namelen u32 LE   n
//! name    n bytes  UTF-8
//! count   u64 LE   number of entries
//! runs    until count entries have been coded:
//!   op     1 byte   the flag byte shared by every entry of the run
//!                   (bit0 write, bit1 temporal, bit2 spatial,
//!                    bits 3-4 spatial level; bits 5-7 must be 0)
//!   runlen varint   entries in this run (1 ..= 65536)
//!   entry  runlen × (addr zigzag-varint delta from the previous
//!                    entry's address (first entry deltas from 0),
//!                    gap varint (≤ 65535),
//!                    instr zigzag-varint delta from the previous
//!                    entry's instr (first entry deltas from 0))
//! ```
//!
//! Varints are LEB128 (7 data bits per byte, high bit = continue, at
//! most 10 bytes); zigzag maps signed deltas to unsigned as
//! `(v << 1) ^ (v >> 63)`. Deltas use wrapping arithmetic, so every
//! `u64` address round-trips. Decoders reject varints past 10 bytes,
//! flag bytes with the reserved bits set, gaps above `u16::MAX`,
//! instr deltas outside `i32`, zero-length runs, and runs overflowing
//! the announced entry count — malformed input yields a [`ReadError`],
//! never a panic or a silent wrap.
//!
//! # Text format
//!
//! One entry per line: `R|W <hex addr> <t> <s> <gap> <instr>`, with `#`
//! comments and a `# trace: <name>` header. Round-trips losslessly.

use crate::{Access, AccessKind, Trace};
use std::io::{self, BufRead, BufReader, Read, Write};

const MAGIC: &[u8; 4] = b"SACT";
const MAGIC2: &[u8; 4] = b"SAC2";
const VERSION: u32 = 1;

/// Longest header name field (padding included) readers accept, and so
/// writers produce.
const MAX_NAME: usize = 1 << 20;

/// Longest run one `SAC2` op byte may cover: bounds the writer's pending
/// run buffer without measurably costing density (one extra op byte and
/// length varint per 64 Ki entries).
const MAX_RUN: u64 = 1 << 16;

/// Errors raised while reading a serialized trace.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Missing or wrong magic bytes / version.
    BadHeader(String),
    /// A malformed entry (with its index or line number).
    BadEntry(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::BadHeader(m) => write!(f, "bad trace header: {m}"),
            ReadError::BadEntry(m) => write!(f, "bad trace entry: {m}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Writes a trace in the binary `SACT` format.
///
/// A `&mut` reference may be passed for `w` (any `Write` works).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_binary<W: Write>(trace: &Trace, w: W) -> io::Result<()> {
    let mut w = SactWriter::new(w, trace.name(), trace.len() as u64)?;
    for chunk in trace.as_slice().chunks(DEFAULT_CHUNK) {
        w.push_chunk(chunk)?;
    }
    w.finish().map(|_| ())
}

/// Capacity of an encoder's output buffer: the encoders write to their
/// inner writer in blocks of about this size, and in `finish`.
const OUT_BYTES: usize = 64 << 10;

/// The output side both encoders share: the announced entry count and
/// the reused byte buffer in front of the inner writer.
struct Out<W: Write> {
    w: W,
    buf: Vec<u8>,
    announced: u64,
    pushed: u64,
}

impl<W: Write> Out<W> {
    /// Buffers the header for a stream of exactly `count` entries.
    fn new(w: W, magic: &[u8; 4], name: &str, count: u64, align: bool) -> io::Result<Self> {
        let mut buf = Vec::with_capacity(OUT_BYTES);
        write_header(&mut buf, magic, name, count, align)?;
        Ok(Out {
            w,
            buf,
            announced: count,
            pushed: 0,
        })
    }

    /// Counts `n` more entries, refusing any past the announced count.
    fn admit(&mut self, n: usize) -> io::Result<()> {
        if n as u64 > self.announced - self.pushed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("more than the announced {} entries", self.announced),
            ));
        }
        self.pushed += n as u64;
        Ok(())
    }

    /// Drains the buffer first when `n` more bytes would overfill it.
    #[inline]
    fn make_room(&mut self, n: usize) -> io::Result<()> {
        if self.buf.len() + n > OUT_BYTES {
            self.drain()?;
        }
        Ok(())
    }

    /// Writes the buffered bytes to the inner writer.
    fn drain(&mut self) -> io::Result<()> {
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Checks the announced count was met.
    fn check_count(&self) -> io::Result<()> {
        if self.pushed != self.announced {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} entries pushed, {} announced",
                    self.pushed, self.announced
                ),
            ));
        }
        Ok(())
    }

    /// Writes what is buffered and returns the inner writer.
    fn finish(mut self) -> io::Result<W> {
        self.drain()?;
        Ok(self.w)
    }
}

/// The `SACT` encoder — the fixed-width sibling of [`Sact2Writer`], and
/// with it the only code that writes either wire format.
///
/// Entries are encoded into one reused 64 KiB buffer that goes to the
/// inner writer when it fills and in [`SactWriter::finish`]; so a write
/// error may surface from either, and an encoder dropped unfinished
/// writes nothing past its last full buffer.
pub struct SactWriter<W: Write> {
    out: Out<W>,
}

impl<W: Write> SactWriter<W> {
    /// Buffers the header and readies the encoder for exactly `count`
    /// accesses.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for a name longer than readers accept.
    pub fn new(w: W, name: &str, count: u64) -> io::Result<Self> {
        Ok(SactWriter {
            out: Out::new(w, MAGIC, name, count, true)?,
        })
    }

    /// Encodes one access as a fixed 16-byte entry: a one-entry
    /// [`SactWriter::push_chunk`].
    ///
    /// # Errors
    ///
    /// As for [`SactWriter::push_chunk`].
    pub fn push(&mut self, a: &Access) -> io::Result<()> {
        self.push_chunk(std::slice::from_ref(a))
    }

    /// Encodes a chunk of accesses, 16 bytes each.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput`, encoding none of the chunk, when it would
    /// pass the announced count; propagates I/O errors.
    pub fn push_chunk(&mut self, chunk: &[Access]) -> io::Result<()> {
        self.out.admit(chunk.len())?;
        for a in chunk {
            self.out.make_room(ENTRY_BYTES)?;
            self.out.buf.extend_from_slice(&sact_entry(a));
        }
        Ok(())
    }

    /// Writes the buffered entries and returns the writer, after
    /// checking the announced count was met.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when fewer accesses than announced were
    /// pushed; propagates I/O errors.
    pub fn finish(self) -> io::Result<W> {
        self.out.check_count()?;
        self.out.finish()
    }
}

/// One access as its 16-byte `SACT` entry.
#[inline]
fn sact_entry(a: &Access) -> [u8; ENTRY_BYTES] {
    let mut e = [0u8; ENTRY_BYTES];
    e[0..8].copy_from_slice(&a.addr().to_le_bytes());
    e[8..12].copy_from_slice(&a.instr().to_le_bytes());
    e[12..14].copy_from_slice(&(a.gap() as u16).to_le_bytes());
    e[14] = a.wire_flags();
    e
}

/// Appends the common `magic/version/namelen/name/count` header shared
/// by both binary formats to an encoder's buffer; a name longer than
/// readers accept is an `InvalidInput` error.
///
/// For `SACT` (`align` true) the name field is NUL-padded so the entry
/// section starts 8-byte aligned in the file: the header is `magic(4) +
/// version(4) + namelen(4) + name + count(8)`, so the payload offset is
/// `20 + namelen`, and padding `namelen` to `4 (mod 8)` lands the first
/// entry on an 8-byte boundary. A page-aligned memory mapping then lets
/// the zero-copy reader borrow the `SACT` payload as `&[Access]`
/// directly. Readers strip the trailing NULs (see [`read_header`]);
/// unpadded pre-existing files stay readable and merely take the
/// copying path. `SAC2` is a byte stream with nothing to align, so its
/// header is written unpadded — the committed golden fixture freezes
/// those wire bytes.
fn write_header(
    buf: &mut Vec<u8>,
    magic: &[u8; 4],
    name: &str,
    count: u64,
    align: bool,
) -> io::Result<()> {
    let name = name.as_bytes();
    let pad = if align {
        (8 - (20 + name.len()) % 8) % 8
    } else {
        0
    };
    let namelen = name.len() + pad;
    if namelen > MAX_NAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("trace name of {} bytes exceeds {MAX_NAME}", name.len()),
        ));
    }
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(namelen as u32).to_le_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&[0u8; 7][..pad]);
    buf.extend_from_slice(&count.to_le_bytes());
    Ok(())
}

/// Rebuilds an [`Access`] from its on-disk parts.
#[inline]
pub(crate) fn access_from_parts(addr: u64, instr: u32, gap: u16, flags: u8) -> Access {
    let kind = if flags & 1 != 0 {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    Access::new(addr, kind)
        .with_temporal(flags & 2 != 0)
        .with_spatial(flags & 4 != 0)
        .with_spatial_level((flags >> 3) & 0b11)
        .with_cpu((flags >> 5) & 0b11)
        .with_gap(gap as u32)
        .with_instr(instr)
}

/// Zigzag encoding: maps small-magnitude signed values to small
/// unsigned varints.
#[inline]
const fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
const fn zigzag_decode(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends a LEB128 varint.
#[inline]
fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Writes a LEB128 varint into `e` at `at`; returns the offset past it.
#[inline]
fn put_varint(e: &mut [u8; MAX_SAC2_ENTRY], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        e[at] = (v as u8) | 0x80;
        v >>= 7;
        at += 1;
    }
    e[at] = v as u8;
    at + 1
}

/// Size of one SACT entry on disk, in bytes.
const ENTRY_BYTES: usize = 16;

/// Default number of entries a [`TraceReader`] yields per chunk.
///
/// 4096 entries = 64 KB of decoded [`Access`]es — small enough to stay
/// resident in L1/L2 while a replay batch drives several engines over
/// the chunk, large enough to amortize the per-chunk bookkeeping.
pub const DEFAULT_CHUNK: usize = 4096;

/// Decodes one on-disk SACT entry.
#[inline]
fn decode_entry(buf: &[u8]) -> Access {
    let addr = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
    let instr = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    let gap = u16::from_le_bytes(buf[12..14].try_into().expect("2 bytes"));
    access_from_parts(addr, instr, gap, buf[14])
}

/// Reads a trace in the binary `SACT` format, fully materialized.
///
/// A `&mut` reference may be passed for `r` (any `Read` works). The
/// input is read to its end, then decoded by [`TraceReader`]; `SAC2`
/// input is rejected with [`ReadError::BadHeader`].
///
/// # Errors
///
/// Returns [`ReadError`] on I/O failure, bad magic/version, or a
/// truncated entry section.
pub fn read_binary<R: Read>(r: R) -> Result<Trace, ReadError> {
    drain_to_trace(&mut TraceReader::read_whole(r, Some("SACT"))?)
}

/// Drives any [`ChunkSource`] to completion into a materialized trace.
///
/// # Errors
///
/// Propagates the source's [`ReadError`] on I/O failure or malformed
/// input.
pub fn drain_to_trace<S: ChunkSource>(reader: &mut S) -> Result<Trace, ReadError> {
    let mut trace = Trace::with_capacity(reader.name(), reader.total().min(1 << 24) as usize);
    while let Some(chunk) = reader.next_chunk()? {
        trace.extend(chunk.iter().copied());
    }
    Ok(trace)
}

/// The `SAC2` encoder: announce the entry count up front,
/// [`Sact2Writer::push_chunk`] the accesses, then
/// [`Sact2Writer::finish`].
///
/// The open run (at most [`MAX_RUN`] entries) is encoded into a reused
/// run buffer; when it ends, its flag byte, length and entries go into
/// the 64 KiB output buffer, which reaches the inner writer when it
/// fills and in `finish`. Converting a trace therefore never
/// materializes it, and as for [`SactWriter`], write errors surface
/// from `push_chunk` or `finish`.
pub struct Sact2Writer<W: Write> {
    out: Out<W>,
    prev_addr: u64,
    prev_instr: u32,
    run_flags: u8,
    run_len: u64,
    run: Vec<u8>,
}

/// Most bytes one `SAC2` entry encodes to: an address delta (10), a
/// gap (3) and an instr delta (5).
const MAX_SAC2_ENTRY: usize = 18;

impl<W: Write> Sact2Writer<W> {
    /// Buffers the header and readies the encoder for exactly `count`
    /// accesses.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for a name longer than readers accept.
    pub fn new(w: W, name: &str, count: u64) -> io::Result<Self> {
        Ok(Sact2Writer {
            out: Out::new(w, MAGIC2, name, count, false)?,
            prev_addr: 0,
            prev_instr: 0,
            run_flags: 0,
            run_len: 0,
            run: Vec::new(),
        })
    }

    /// Encodes one access: a one-entry [`Sact2Writer::push_chunk`].
    ///
    /// # Errors
    ///
    /// As for [`Sact2Writer::push_chunk`].
    pub fn push(&mut self, a: &Access) -> io::Result<()> {
        self.push_chunk(std::slice::from_ref(a))
    }

    /// Encodes a chunk of accesses. Runs carry across chunks: the
    /// bytes do not depend on how a trace is split.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput`, encoding none of the chunk, when it would
    /// pass the announced count; propagates I/O errors.
    pub fn push_chunk(&mut self, chunk: &[Access]) -> io::Result<()> {
        self.out.admit(chunk.len())?;
        for a in chunk {
            let flags = a.wire_flags();
            if flags != self.run_flags || self.run_len == MAX_RUN {
                self.end_run()?;
                self.run_flags = flags;
            }
            self.run_len += 1;
            let (addr, instr) = (a.addr(), a.instr());
            let mut e = [0u8; MAX_SAC2_ENTRY];
            let n = put_varint(
                &mut e,
                0,
                zigzag_encode(addr.wrapping_sub(self.prev_addr) as i64),
            );
            let n = put_varint(&mut e, n, u64::from(a.gap()));
            let n = put_varint(
                &mut e,
                n,
                zigzag_encode(i64::from(instr.wrapping_sub(self.prev_instr) as i32)),
            );
            self.run.extend_from_slice(&e[..n]);
            self.prev_addr = addr;
            self.prev_instr = instr;
        }
        Ok(())
    }

    /// Moves the open run, behind its flag byte and length, into the
    /// output buffer; a run longer than the buffer goes straight to the
    /// inner writer.
    fn end_run(&mut self) -> io::Result<()> {
        if self.run_len == 0 {
            return Ok(());
        }
        // Flag byte plus a length varint of at most 3 bytes (MAX_RUN).
        const HEAD: usize = 4;
        let out = &mut self.out;
        out.make_room(HEAD + self.run.len())?;
        out.buf.push(self.run_flags);
        push_varint(&mut out.buf, self.run_len);
        if self.run.len() > OUT_BYTES - HEAD {
            out.drain()?;
            out.w.write_all(&self.run)?;
        } else {
            out.buf.extend_from_slice(&self.run);
        }
        self.run.clear();
        self.run_len = 0;
        Ok(())
    }

    /// Ends the open run, writes the buffered bytes and returns the
    /// writer, after checking the announced count was met.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when fewer accesses than announced were
    /// pushed (the stream would be undecodable); propagates I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.check_count()?;
        self.end_run()?;
        self.out.finish()
    }
}

/// Writes a trace in the compact `SAC2` delta format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_binary2<W: Write>(trace: &Trace, w: W) -> io::Result<()> {
    let mut w = Sact2Writer::new(w, trace.name(), trace.len() as u64)?;
    for chunk in trace.as_slice().chunks(DEFAULT_CHUNK) {
        w.push_chunk(chunk)?;
    }
    w.finish().map(|_| ())
}

/// Reads a trace in the compact `SAC2` format, fully materialized; as
/// [`read_binary`], `SACT` input is rejected with
/// [`ReadError::BadHeader`].
///
/// # Errors
///
/// Returns [`ReadError`] on I/O failure, a bad header, or a malformed
/// entry section.
pub fn read_binary2<R: Read>(r: R) -> Result<Trace, ReadError> {
    drain_to_trace(&mut TraceReader::read_whole(r, Some("SAC2"))?)
}

/// The binary wire format `head` starts with — `"SACT"` or `"SAC2"` —
/// or `None` for anything else, text traces included.
pub fn sniff_format(head: &[u8]) -> Option<&'static str> {
    match head.get(..4)? {
        m if m == MAGIC => Some("SACT"),
        m if m == MAGIC2 => Some("SAC2"),
        _ => None,
    }
}

/// Where a [`TraceReader`]'s input lives. Only the storage differs; the
/// same decoder runs over both.
enum Bytes {
    /// A read-only memory mapping of a trace file.
    Mapped(crate::mmap::Mapping),
    /// An input read whole into memory: a `Read` stream, or a file the
    /// platform cannot map.
    Owned(Vec<u8>),
}

impl Bytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Mapped(map) => map.bytes(),
            Bytes::Owned(vec) => vec,
        }
    }
}

/// `SAC2` decode state that persists across chunk boundaries.
#[derive(Default)]
struct RunState {
    /// Entries left in the currently open run (0 = at a run boundary).
    left: u64,
    flags: u8,
    prev_addr: u64,
    prev_instr: u32,
}

/// The chunked trace reader: sniffs the magic bytes and decodes either
/// wire format from a byte slice, so every consumer of [`ChunkSource`]
/// accepts `SACT` and `SAC2` transparently.
///
/// [`TraceReader::open`] memory-maps a file where the platform allows
/// and reads it whole otherwise; [`TraceReader::new`] reads a `Read`
/// input to its end. `SACT` chunks whose payload is 8-byte aligned
/// (every mapped trace written since the header started padding for
/// alignment) and whose flag bytes carry no reserved bits are **borrowed
/// straight from the input** — no per-entry decode, no copy. Other
/// `SACT` chunks and all `SAC2` input (delta coding cannot be viewed in
/// place) are decoded into one reused buffer, so steady-state decoding
/// allocates nothing.
///
/// ```
/// use sac_trace::io::{self, ChunkSource};
/// use sac_trace::{Access, Trace};
///
/// let trace: Trace = (0..10_000u64).map(|i| Access::read(i * 8)).collect();
/// let mut bytes = Vec::new();
/// io::write_binary2(&trace, &mut bytes).unwrap();
///
/// let mut reader = io::TraceReader::new(&bytes[..]).unwrap();
/// assert_eq!((reader.format(), reader.total()), ("SAC2", 10_000));
/// let mut seen = 0;
/// while let Some(chunk) = reader.next_chunk().unwrap() {
///     assert!(chunk.len() <= io::DEFAULT_CHUNK);
///     seen += chunk.len() as u64;
/// }
/// assert_eq!(seen, 10_000);
/// ```
pub struct TraceReader {
    bytes: Bytes,
    /// Byte offset of the next undecoded entry (`SACT`) or byte (`SAC2`).
    pos: usize,
    name: String,
    total: u64,
    remaining: u64,
    chunk_entries: usize,
    decoded: Vec<Access>,
    /// `None` for `SACT`, whose entries need no state between chunks.
    sac2: Option<RunState>,
    borrowed_chunks: u64,
}

/// [`TraceReader`] under the name path-based callers use:
/// `FileSource::open(path)`.
pub type FileSource = TraceReader;

impl TraceReader {
    /// Reads `r` to its end and parses the header, with the default
    /// chunk size ([`DEFAULT_CHUNK`] entries).
    ///
    /// # Errors
    ///
    /// Returns [`ReadError`] on I/O failure, a magic that is neither
    /// `SACT` nor `SAC2`, a bad version, an oversized name, or a `SACT`
    /// entry count whose byte size overflows `u64` (a malformed or
    /// adversarial header — nothing is sized from it).
    pub fn new<R: Read>(r: R) -> Result<Self, ReadError> {
        TraceReader::read_whole(r, None)
    }

    /// Opens the trace file at `path`: memory-mapped where the platform
    /// allows, read whole when mapping fails (an empty file, a platform
    /// without the mapping shim).
    ///
    /// # Errors
    ///
    /// As for [`TraceReader::new`]; an open failure names the path.
    pub fn open<P: AsRef<std::path::Path>>(path: P) -> Result<Self, ReadError> {
        let file = open_input(path.as_ref())?;
        match crate::mmap::Mapping::open(&file) {
            Ok(map) => TraceReader::from_bytes(Bytes::Mapped(map), None),
            Err(_) => TraceReader::read_whole(file, None),
        }
    }

    /// Reads `r` to its end and parses the header, accepting only the
    /// `expect` format when one is named.
    fn read_whole<R: Read>(mut r: R, expect: Option<&str>) -> Result<Self, ReadError> {
        let mut vec = Vec::new();
        r.read_to_end(&mut vec)?;
        TraceReader::from_bytes(Bytes::Owned(vec), expect)
    }

    fn from_bytes(bytes: Bytes, expect: Option<&str>) -> Result<Self, ReadError> {
        let data = bytes.as_slice();
        let Some(format) = sniff_format(data).filter(|f| expect.is_none_or(|e| e == *f)) else {
            return Err(ReadError::BadHeader(format!(
                "magic {:?} is not {}",
                &data[..data.len().min(4)],
                expect.unwrap_or("SACT or SAC2")
            )));
        };
        let mut cur = &data[4..];
        let (name, count) = read_header(&mut cur)?;
        let sac2 = (format == "SAC2").then(RunState::default);
        // A count whose byte size cannot be represented is malformed by
        // construction; reject it before any size computation can wrap.
        if sac2.is_none() && count.checked_mul(ENTRY_BYTES as u64).is_none() {
            return Err(ReadError::BadHeader(format!(
                "entry count {count} overflows the entry section size"
            )));
        }
        let pos = data.len() - cur.len();
        Ok(TraceReader {
            bytes,
            pos,
            name,
            total: count,
            remaining: count,
            chunk_entries: DEFAULT_CHUNK,
            decoded: Vec::new(),
            sac2,
            borrowed_chunks: 0,
        })
    }

    /// Yields at most `chunk_entries` entries per chunk from now on —
    /// small values split `SAC2` runs across chunk boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_entries` is zero.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_entries: usize) -> Self {
        assert!(chunk_entries > 0, "chunk size must be positive");
        self.chunk_entries = chunk_entries;
        self
    }

    /// The wire format behind this reader, for display.
    pub fn format(&self) -> &'static str {
        if self.sac2.is_some() {
            "SAC2"
        } else {
            "SACT"
        }
    }

    /// How many chunks so far were borrowed straight from the input (as
    /// opposed to decoded into the buffer) — diagnostics for tests
    /// asserting the zero-copy path actually engages.
    pub fn borrowed_chunks(&self) -> u64 {
        self.borrowed_chunks
    }
}

/// Opens `path` for reading with the path named in the error — the
/// input-side twin of [`create_output`].
fn open_input(path: &std::path::Path) -> Result<std::fs::File, ReadError> {
    std::fs::File::open(path).map_err(|e| {
        ReadError::Io(io::Error::new(
            e.kind(),
            format!("cannot read {}: {e}", path.display()),
        ))
    })
}

/// Reads a trace in either binary format (sniffed), fully materialized.
///
/// # Errors
///
/// Returns [`ReadError`] on I/O failure, an unrecognized or bad header,
/// or a malformed entry section.
pub fn read_any<R: Read>(r: R) -> Result<Trace, ReadError> {
    drain_to_trace(&mut TraceReader::new(r)?)
}

/// Reads a binary trace from `path`, fully materialized — memory-mapped
/// where the platform allows, read whole otherwise.
///
/// # Errors
///
/// As for [`TraceReader::open`].
pub fn read_path<P: AsRef<std::path::Path>>(path: P) -> Result<Trace, ReadError> {
    drain_to_trace(&mut TraceReader::open(path)?)
}

/// Opens `path` for writing, creating or truncating it — the one place
/// every tool validates its output destination. Callers that do
/// expensive work before the final write (`figures --bench-json`,
/// `sact-convert`, `sac trace`) call this up front, so a typo'd
/// directory fails immediately instead of after minutes of simulation.
/// The binary encoders buffer their own output, so only text writers
/// need a `BufWriter` on top.
///
/// # Errors
///
/// Returns the underlying I/O error re-wrapped so the message names the
/// offending path.
pub fn create_output<P: AsRef<std::path::Path>>(path: P) -> io::Result<std::fs::File> {
    let path = path.as_ref();
    std::fs::File::create(path)
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))
}

/// A source of decoded trace chunks — what the replay layer consumes,
/// independent of the wire format behind it.
pub trait ChunkSource {
    /// The trace name from the header.
    fn name(&self) -> &str;
    /// Total number of entries announced by the header.
    fn total(&self) -> u64;
    /// Entries not yet yielded.
    fn remaining(&self) -> u64;
    /// Decodes and returns the next chunk, or `None` when done. The
    /// slice borrows an internal buffer overwritten by the next call.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError`] on I/O failure or malformed input.
    fn next_chunk(&mut self) -> Result<Option<&[Access]>, ReadError>;
}

impl ChunkSource for TraceReader {
    fn name(&self) -> &str {
        &self.name
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes (or borrows) the next chunk. A truncated input or any
    /// malformed run or entry is a [`ReadError::BadEntry`] naming the
    /// entry index (`SAC2`) or the chunk's entry range (`SACT`).
    fn next_chunk(&mut self) -> Result<Option<&[Access]>, ReadError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let n = self.remaining.min(self.chunk_entries as u64) as usize;
        let start = self.total - self.remaining;
        let bytes = self.bytes.as_slice();
        self.decoded.clear();
        let Some(run) = &mut self.sac2 else {
            let need = n * ENTRY_BYTES;
            if bytes.len() - self.pos < need {
                return Err(ReadError::BadEntry(format!(
                    "entries {start}..{}: input truncated",
                    start + n as u64
                )));
            }
            let payload = &bytes[self.pos..self.pos + need];
            self.pos += need;
            self.remaining -= n as u64;
            if sact_flags_clean(payload) {
                if let Some(view) = crate::mmap::cast_accesses(payload) {
                    self.borrowed_chunks += 1;
                    return Ok(Some(view));
                }
            }
            self.decoded
                .extend(payload.chunks_exact(ENTRY_BYTES).map(decode_entry));
            return Ok(Some(&self.decoded));
        };
        let pos = &mut self.pos;
        while self.decoded.len() < n {
            let at = start + self.decoded.len() as u64;
            let ctx = |e: ReadError| match e {
                ReadError::BadEntry(m) => ReadError::BadEntry(format!("entry {at}: {m}")),
                other => other,
            };
            if run.left == 0 {
                let flags = slice_byte(bytes, pos).map_err(ctx)?;
                if flags & 0x80 != 0 {
                    return Err(ReadError::BadEntry(format!(
                        "entry {at}: reserved flag bit set ({flags:#04x})"
                    )));
                }
                let len = slice_varint(bytes, pos).map_err(ctx)?;
                let left = self.remaining - self.decoded.len() as u64;
                if len == 0 || len > left {
                    return Err(ReadError::BadEntry(format!(
                        "entry {at}: run of {len} overflows the {left} announced entries left"
                    )));
                }
                run.flags = flags;
                run.left = len;
            }
            let d = zigzag_decode(slice_varint(bytes, pos).map_err(ctx)?);
            run.prev_addr = run.prev_addr.wrapping_add(d as u64);
            let gap = slice_varint(bytes, pos).map_err(ctx)?;
            if gap > u16::MAX as u64 {
                return Err(ReadError::BadEntry(format!(
                    "entry {at}: gap {gap} > 65535"
                )));
            }
            let di = zigzag_decode(slice_varint(bytes, pos).map_err(ctx)?);
            if di < i32::MIN as i64 || di > i32::MAX as i64 {
                return Err(ReadError::BadEntry(format!(
                    "entry {at}: instr delta {di} outside i32"
                )));
            }
            run.prev_instr = run.prev_instr.wrapping_add(di as u32);
            self.decoded.push(access_from_parts(
                run.prev_addr,
                run.prev_instr,
                gap as u16,
                run.flags,
            ));
            run.left -= 1;
        }
        self.remaining -= n as u64;
        Ok(Some(&self.decoded))
    }
}

/// Whether every entry's flag byte in a raw `SACT` payload has the
/// reserved bit (7) clear. The decoding path masks that bit away
/// ([`access_from_parts`] rebuilds the flag byte from bits 0-6 only —
/// tags, level and the multi-core cpu id), so a zero-copy
/// reinterpretation of the payload is observably identical to decoding
/// exactly when it is already zero. [`SactWriter`] never sets it; a
/// foreign or corrupted file that does simply takes the decoding path
/// and has the bit masked away.
fn sact_flags_clean(payload: &[u8]) -> bool {
    payload.chunks_exact(ENTRY_BYTES).all(|e| e[14] & 0x80 == 0)
}

/// Reads one byte from a slice cursor.
#[inline]
fn slice_byte(bytes: &[u8], pos: &mut usize) -> Result<u8, ReadError> {
    let b = *bytes
        .get(*pos)
        .ok_or_else(|| ReadError::BadEntry("input truncated".into()))?;
    *pos += 1;
    Ok(b)
}

/// Decodes a LEB128 varint from a slice cursor with a hard 10-byte /
/// 64-bit cap. A byte below 0x80 is a whole varint, and most SAC2 fields
/// are one (gaps, instruction deltas, short runs, unit-stride deltas), so
/// that case is inlined into the entry loop; everything else, errors
/// included, takes [`slice_varint_long`].
#[inline(always)]
fn slice_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, ReadError> {
    if let Some(&b) = bytes.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
    }
    slice_varint_long(bytes, pos)
}

/// [`slice_varint`]'s general loop, out of line.
#[inline(never)]
fn slice_varint_long(bytes: &[u8], pos: &mut usize) -> Result<u64, ReadError> {
    let mut val = 0u64;
    let mut shift = 0u32;
    loop {
        let b = slice_byte(bytes, pos)?;
        if shift == 63 && (b & 0x7f) > 1 {
            return Err(ReadError::BadEntry("varint overflows u64".into()));
        }
        val |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(val);
        }
        shift += 7;
        if shift > 63 {
            return Err(ReadError::BadEntry("varint longer than 10 bytes".into()));
        }
    }
}

/// Writes a trace in the human-readable text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_text<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    writeln!(w, "# trace: {}", trace.name())?;
    writeln!(w, "# kind addr temporal spatial gap instr level cpu")?;
    for a in trace {
        writeln!(
            w,
            "{} {:#x} {} {} {} {} {} {}",
            a.kind(),
            a.addr(),
            u8::from(a.temporal()),
            u8::from(a.spatial()),
            a.gap(),
            a.instr(),
            a.spatial_level(),
            a.cpu()
        )?;
    }
    Ok(())
}

/// Reads a trace in the text format.
///
/// # Errors
///
/// Returns [`ReadError::BadEntry`] with the line number on malformed
/// lines.
pub fn read_text<R: Read>(r: R) -> Result<Trace, ReadError> {
    let r = BufReader::new(r);
    let mut trace = Trace::new("anonymous");
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("# trace:") {
            trace = trace.with_name(rest.trim());
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |m: &str| ReadError::BadEntry(format!("line {}: {m}", lineno + 1));
        let kind = match parts.next() {
            Some("R") => AccessKind::Read,
            Some("W") => AccessKind::Write,
            other => return Err(err(&format!("bad kind {other:?}"))),
        };
        let addr_s = parts.next().ok_or_else(|| err("missing address"))?;
        let addr = parse_u64(addr_s).ok_or_else(|| err("bad address"))?;
        let mut bit = |what: &str| match parts.next() {
            Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(err(&format!("bad {what} bit {other:?}"))),
            None => Err(err(&format!("missing {what} bit"))),
        };
        let temporal = bit("temporal")?;
        let spatial = bit("spatial")?;
        let gap: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("bad gap"))?;
        if gap > u32::from(u16::MAX) {
            return Err(err(&format!("gap {gap} > 65535")));
        }
        let instr: u32 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("bad instr"))?;
        // Optional trailing spatial level and cpu id (older traces omit
        // them).
        let level: u8 = match parts.next() {
            None => 0,
            Some(s) => s.parse().map_err(|_| err("bad level"))?,
        };
        if level > 3 {
            return Err(err("level out of range"));
        }
        let cpu: u8 = match parts.next() {
            None => 0,
            Some(s) => s.parse().map_err(|_| err("bad cpu"))?,
        };
        if cpu as usize >= crate::MAX_CPUS {
            return Err(err("cpu out of range"));
        }
        trace.push(
            Access::new(addr, kind)
                .with_temporal(temporal)
                .with_spatial(spatial)
                .with_spatial_level(level)
                .with_cpu(cpu)
                .with_gap(gap)
                .with_instr(instr),
        );
    }
    Ok(trace)
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parses and validates the `version/namelen/name/count` header shared
/// by both binary formats, from just past the magic bytes.
fn read_header(r: &mut &[u8]) -> Result<(String, u64), ReadError> {
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(ReadError::BadHeader(format!(
            "unsupported version {version}"
        )));
    }
    let namelen = read_u32(r)? as usize;
    if namelen > MAX_NAME {
        return Err(ReadError::BadHeader(format!("name length {namelen}")));
    }
    let mut name = vec![0u8; namelen];
    r.read_exact(&mut name)?;
    let mut name = String::from_utf8(name)
        .map_err(|e| ReadError::BadHeader(format!("name not UTF-8: {e}")))?;
    // The writer NUL-pads the name for payload alignment; the padding is
    // not part of the name.
    name.truncate(name.trim_end_matches('\0').len());
    let count = read_u64(r)?;
    Ok((name, count))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, ReadError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, ReadError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GapModel;

    fn sample_trace() -> Trace {
        let mut gaps = GapModel::seeded(3);
        let mut t = Trace::new("sample");
        for i in 0..500u64 {
            let a = if i % 3 == 0 {
                Access::write(i * 24 + 5)
            } else {
                Access::read(i * 8)
            };
            t.push(
                a.with_temporal(i % 2 == 0)
                    .with_spatial(i % 5 == 0)
                    .with_spatial_level((i % 4) as u8)
                    // Exercise the multi-core cpu bits in every wire
                    // round-trip that uses this sample.
                    .with_cpu((i % 2) as u8)
                    .with_gap(gaps.sample())
                    .with_instr((i % 7) as u32),
            );
        }
        t
    }

    #[test]
    fn binary_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn text_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn binary_size_is_compact() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        // 16 bytes per entry plus a small header.
        assert!(buf.len() < 16 * t.len() + 64);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_binary(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadHeader(_)));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        write_binary(&Trace::new("x"), &mut buf).unwrap();
        buf[4] = 99;
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadHeader(_)));
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn truncated_entries_rejected() {
        let mut buf = Vec::new();
        write_binary(&sample_trace(), &mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadEntry(_)));
    }

    /// Fuzz seed: a syntactically valid header whose entry count
    /// (`u64::MAX`) would overflow the entry-section size computation.
    /// The reader must reject it at header-parse time, before any
    /// count-derived allocation.
    #[test]
    fn overflowing_count_rejected_at_header() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SACT");
        buf.extend_from_slice(&1u32.to_le_bytes()); // version
        buf.extend_from_slice(&0u32.to_le_bytes()); // namelen
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // count
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadHeader(_)));
        assert!(err.to_string().contains("overflow"));
        let err = TraceReader::new(&buf[..]).map(|_| ()).unwrap_err();
        assert!(matches!(err, ReadError::BadHeader(_)));
    }

    #[test]
    fn huge_count_with_no_entries_is_a_bad_entry_not_an_allocation() {
        // count = 2^40: fits in u64 bytes, but the stream holds no
        // entries. The chunked reader must fail on the first chunk read
        // without ever allocating the announced size.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SACT");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let err = read_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadEntry(_)));
    }

    #[test]
    fn chunked_reader_streams_all_entries_in_order() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        // A chunk size that does not divide 500 exercises the tail chunk.
        let mut reader = TraceReader::new(&buf[..]).unwrap().with_chunk_size(64);
        assert_eq!(reader.name(), "sample");
        assert_eq!(reader.total(), 500);
        let mut streamed = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            assert!(chunk.len() <= 64);
            streamed.extend_from_slice(chunk);
        }
        assert_eq!(reader.remaining(), 0);
        assert_eq!(streamed, t.as_slice());
        // Exhausted readers keep returning None.
        assert!(reader.next_chunk().unwrap().is_none());
    }

    #[test]
    fn chunked_reader_reports_truncation_with_entry_range() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 7);
        let mut reader = TraceReader::new(&buf[..]).unwrap().with_chunk_size(128);
        let err = loop {
            match reader.next_chunk() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncated stream decoded fully"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, ReadError::BadEntry(_)));
        assert!(err.to_string().contains("384..500"), "{err}");
    }

    #[test]
    fn text_tolerates_comments_and_blank_lines() {
        let text = "# trace: demo\n\n# a comment\nR 0x40 1 0 3 9\nW 16 0 1 1 2\n";
        let t = read_text(text.as_bytes()).unwrap();
        assert_eq!(t.name(), "demo");
        assert_eq!(t.len(), 2);
        assert_eq!(t.as_slice()[0].addr(), 0x40);
        assert!(t.as_slice()[0].temporal());
        assert_eq!(t.as_slice()[1].kind(), AccessKind::Write);
        assert_eq!(t.as_slice()[1].addr(), 16);
    }

    #[test]
    fn malformed_text_lines_report_line_numbers() {
        let err = read_text(&b"R zzz 1 0 3 9"[..]).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = read_text(&b"R 0x40 1 0 3\n"[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadEntry(_)));
    }

    #[test]
    fn text_gap_above_u16_is_rejected_not_clamped() {
        let ok = read_text(&b"R 0x10 0 0 65535 3\n"[..]).unwrap();
        assert_eq!(ok.as_slice()[0].gap(), 65535);
        let err = read_text(&b"# c\nR 0x10 0 0 65535 3\nR 0x10 0 0 70000 3\n"[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadEntry(_)));
        let msg = err.to_string();
        assert!(
            msg.contains("line 3") && msg.contains("gap 70000 > 65535"),
            "{msg}"
        );
    }

    #[test]
    fn text_tag_bits_other_than_0_or_1_are_rejected() {
        for (line, what) in [
            ("R 0x10 banana 7 1 3", "bad temporal bit"),
            ("R 0x10 2 0 1 3", "bad temporal bit"),
            ("W 0x10 1 7 1 3", "bad spatial bit"),
            ("W 0x10 0 yes 1 3", "bad spatial bit"),
            ("R 0x10", "missing temporal bit"),
            ("R 0x10 1", "missing spatial bit"),
        ] {
            let err = read_text(format!("R 0x8 1 1 0 0\n{line}\n").as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("line 2") && msg.contains(what),
                "{line}: {msg}"
            );
        }
        let t = read_text(&b"R 0x10 0 1 1 3\nW 0x18 1 0 1 3\n"[..]).unwrap();
        let tags: Vec<_> = t.iter().map(|a| (a.temporal(), a.spatial())).collect();
        assert_eq!(tags, [(false, true), (true, false)]);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new("empty");
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), t);
    }

    // ---- SAC2 delta format ----

    #[test]
    fn sact2_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary2(&t, &mut buf).unwrap();
        assert_eq!(read_binary2(&buf[..]).unwrap(), t);
    }

    #[test]
    fn sact2_empty_trace_round_trips() {
        let t = Trace::new("empty");
        let mut buf = Vec::new();
        write_binary2(&t, &mut buf).unwrap();
        assert_eq!(read_binary2(&buf[..]).unwrap(), t);
    }

    #[test]
    fn sact2_is_smaller_than_sact() {
        let t = sample_trace();
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        write_binary(&t, &mut v1).unwrap();
        write_binary2(&t, &mut v2).unwrap();
        // Small strided deltas should encode in a fraction of the fixed
        // 16-byte SACT entry.
        assert!(
            v2.len() * 2 < v1.len(),
            "SAC2 {} bytes vs SACT {} bytes",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn sact2_round_trips_extreme_deltas() {
        // Wrapping zigzag deltas must survive full-range address jumps
        // and instruction-counter wraparound.
        let mut t = Trace::new("extremes");
        for addr in [0, u64::MAX, 1, u64::MAX - 1, 0, 1 << 63] {
            t.push(
                Access::read(addr)
                    .with_instr(u32::MAX)
                    .with_gap(u32::from(u16::MAX)),
            );
            t.push(Access::write(addr).with_instr(0));
        }
        let mut buf = Vec::new();
        write_binary2(&t, &mut buf).unwrap();
        assert_eq!(read_binary2(&buf[..]).unwrap(), t);
    }

    #[test]
    fn sact2_streaming_decoder_carries_run_state_across_chunks() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary2(&t, &mut buf).unwrap();
        // A tiny chunk size forces every run to straddle chunk
        // boundaries; the decoder's delta/run state must persist.
        let mut r = TraceReader::new(&buf[..]).unwrap().with_chunk_size(7);
        assert_eq!(r.name(), t.name());
        assert_eq!(r.total(), t.len() as u64);
        let mut got = Vec::new();
        while let Some(chunk) = r.next_chunk().unwrap() {
            assert!(chunk.len() <= 7);
            got.extend_from_slice(chunk);
        }
        assert_eq!(got, t.iter().copied().collect::<Vec<_>>());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn trace_reader_sniffs_both_formats() {
        let t = sample_trace();
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        write_binary(&t, &mut v1).unwrap();
        write_binary2(&t, &mut v2).unwrap();

        let r = TraceReader::new(&v1[..]).unwrap();
        assert_eq!(r.format(), "SACT");
        assert_eq!(read_any(&v1[..]).unwrap(), t);

        let r = TraceReader::new(&v2[..]).unwrap();
        assert_eq!(r.format(), "SAC2");
        assert_eq!(read_any(&v2[..]).unwrap(), t);

        match TraceReader::new(&b"NOPE\x00\x00\x00\x00"[..]) {
            Err(ReadError::BadHeader(_)) => {}
            Err(e) => panic!("expected BadHeader, got {e}"),
            Ok(_) => panic!("unknown magic accepted"),
        }
    }

    #[test]
    fn sact2_writer_enforces_announced_count() {
        // One more than announced: rejected at push time.
        let mut w = Sact2Writer::new(Vec::new(), "x", 1).unwrap();
        w.push(&Access::read(0)).unwrap();
        assert!(w.push(&Access::read(8)).is_err());

        // Fewer than announced: rejected at finish time.
        let w = Sact2Writer::new(Vec::new(), "x", 2).unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn sact2_reserved_flag_bits_rejected() {
        let mut buf = Vec::new();
        write_binary2(&sample_trace(), &mut buf).unwrap();
        // Body starts right after the header (magic + version + namelen +
        // "sample" + count; SAC2 names are unpadded). Corrupt the first
        // op byte.
        let body = 4 + 4 + 4 + "sample".len() + 8;
        buf[body] |= 0x80;
        let err = read_binary2(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadEntry(_)));
        assert!(err.to_string().contains("entry 0"));
    }

    #[test]
    fn sact2_run_longer_than_announced_count_rejected() {
        // Header announces one entry, body claims a run of two.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC2);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(0); // flags
        buf.push(2); // run length 2 > 1 remaining
        let err = read_binary2(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadEntry(_)));
    }

    #[test]
    fn sact2_truncation_rejected_at_any_cut() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary2(&t, &mut buf).unwrap();
        // Every possible truncation of the body must produce a clean
        // error (never a panic, never a silently short trace).
        for cut in 21..buf.len() {
            let err = read_binary2(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, ReadError::BadEntry(_) | ReadError::Io(_)),
                "cut {cut}: {err}"
            );
        }

        // A multi-chunk file of one-entry runs, every entry five bytes
        // (flag, length 1, and one-byte address, gap and instr deltas),
        // cut at every offset in its last 32 bytes: the error names the
        // entry the cut falls in.
        let n = 3 * DEFAULT_CHUNK as u64 + 5;
        let t: Trace = (0..n)
            .map(|i| Access::read(i * 8).with_temporal(i % 2 == 0))
            .collect::<Trace>()
            .with_name("");
        let mut buf = Vec::new();
        write_binary2(&t, &mut buf).unwrap();
        let body = buf.len() - 5 * n as usize;
        assert_eq!(body, 4 + 4 + 4 + 8, "unnamed SAC2 header");
        for cut in buf.len() - 32..buf.len() {
            let err = read_binary2(&buf[..cut]).unwrap_err().to_string();
            let entry = (cut - body) / 5;
            assert_eq!(
                err,
                format!("bad trace entry: entry {entry}: input truncated"),
                "cut {cut}"
            );
        }
        assert_eq!(read_binary2(&buf[..]).unwrap(), t);
    }

    /// An over-long and an overflowing varint, as the last entry's
    /// address delta, at every distance from the end of the input up to
    /// 16 trailing bytes: the errors read as they always have, wherever
    /// the varint sits.
    #[test]
    fn sact2_bad_varints_near_the_end_keep_their_errors() {
        let longer = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81];
        let overflows = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        for (varint, text) in [
            (longer, "varint longer than 10 bytes"),
            (overflows, "varint overflows u64"),
        ] {
            for trailing in 0..=16 {
                let mut buf = Vec::new();
                buf.extend_from_slice(MAGIC2);
                buf.extend_from_slice(&VERSION.to_le_bytes());
                buf.extend_from_slice(&0u32.to_le_bytes());
                buf.extend_from_slice(&3u64.to_le_bytes());
                buf.extend_from_slice(&[0, 3]); // flags 0, a run of 3
                buf.extend_from_slice(&[16, 1, 0, 16, 1, 0]); // two entries
                buf.extend_from_slice(&varint);
                buf.extend(std::iter::repeat_n(0u8, trailing));
                let err = read_binary2(&buf[..]).unwrap_err().to_string();
                assert_eq!(
                    err,
                    format!("bad trace entry: entry 2: {text}"),
                    "{trailing} trailing bytes"
                );
                let mut reader = TraceReader::new(&buf[..]).unwrap().with_chunk_size(2);
                assert_eq!(reader.next_chunk().unwrap().unwrap().len(), 2);
                let err = reader.next_chunk().unwrap_err().to_string();
                assert_eq!(err, format!("bad trace entry: entry 2: {text}"));
            }
        }
    }

    #[test]
    fn sact2_oversized_varint_rejected() {
        // An 11-byte varint (all continuation bits) can encode nothing.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC2);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.push(0); // flags
        buf.push(1); // run of 1
        buf.extend_from_slice(&[0xFF; 11]); // addr delta varint: too long
        let err = read_binary2(&buf[..]).unwrap_err();
        assert!(matches!(err, ReadError::BadEntry(_)));
    }

    #[test]
    fn create_output_names_the_unwritable_path() {
        let bad = std::path::Path::new("/nonexistent-dir-sact/out.json");
        let err = create_output(bad).unwrap_err();
        assert!(err.to_string().contains("/nonexistent-dir-sact/out.json"));

        let ok = std::env::temp_dir().join("sact_create_output_test.tmp");
        create_output(&ok).unwrap();
        std::fs::remove_file(&ok).unwrap();
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes map to small codes (the point of zigzag).
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    /// Writes `bytes` to a fresh file in a per-test temp directory.
    fn tmp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sac-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn header_pads_name_for_aligned_payload() {
        for name in ["", "a", "ab", "sample", "exact4__", "MV"] {
            let t: Trace = sample_trace().with_name(name);
            let mut buf = Vec::new();
            write_binary(&t, &mut buf).unwrap();
            let namelen = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
            assert_eq!((20 + namelen) % 8, 0, "payload misaligned for {name:?}");
            let back = read_binary(&buf[..]).unwrap();
            assert_eq!(back.name(), name, "padding must not leak into the name");
            assert_eq!(back.as_slice(), t.as_slice());
        }
    }

    /// Whether `src` reads through a memory mapping; every file opens
    /// mapped on the platforms with the mapping shim.
    fn maps_file(src: &TraceReader) -> bool {
        let mapped = matches!(src.bytes, Bytes::Mapped(_));
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        assert!(mapped, "mapping must engage on supported platforms");
        mapped
    }

    #[test]
    fn mapped_sact_matches_streaming_and_borrows_chunks() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let path = tmp_file("mapped_sact.sact", &buf);

        let mut src = FileSource::open(&path).unwrap();
        assert_eq!(src.format(), "SACT");
        let mapped = drain_to_trace(&mut src).unwrap();
        assert_eq!(mapped.name(), t.name());
        assert_eq!(mapped.as_slice(), t.as_slice());
        if maps_file(&src) {
            assert!(
                src.borrowed_chunks() > 0,
                "aligned clean SACT chunks must be borrowed, not copied"
            );
        }

        let mut owned = TraceReader::new(&buf[..]).unwrap();
        let s = drain_to_trace(&mut owned).unwrap();
        assert_eq!(s.as_slice(), mapped.as_slice());
        assert_eq!(s.name(), mapped.name());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mapped_sact2_matches_streaming() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary2(&t, &mut buf).unwrap();
        let path = tmp_file("mapped_sact2.sact2", &buf);

        let mut src = FileSource::open(&path).unwrap();
        assert_eq!(src.format(), "SAC2");
        maps_file(&src);
        let mapped = drain_to_trace(&mut src).unwrap();
        let s = read_any(&buf[..]).unwrap();
        assert_eq!(mapped.as_slice(), t.as_slice());
        assert_eq!(s.as_slice(), mapped.as_slice());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mapped_sact_misaligned_payload_falls_back_to_decoding() {
        // Hand-write an unpadded header, as files written before the
        // name field was alignment-padded: payload offset 20 + 5 = 25.
        let t = sample_trace();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        let name = b"sampl";
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name);
        buf.extend_from_slice(&(t.len() as u64).to_le_bytes());
        for a in &t {
            buf.extend_from_slice(&sact_entry(a));
        }
        let path = tmp_file("mapped_unpadded.sact", &buf);

        let mut src = FileSource::open(&path).unwrap();
        let back = drain_to_trace(&mut src).unwrap();
        assert_eq!(back.name(), "sampl");
        assert_eq!(back.as_slice(), t.as_slice());
        // A page-aligned mapping puts the payload at an odd offset.
        if maps_file(&src) {
            assert_eq!(
                src.borrowed_chunks(),
                0,
                "misaligned payload cannot be borrowed"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mapped_sact_reserved_flag_bits_take_the_masking_path() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let namelen = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        // Set a reserved bit in the first entry's flag byte; both stores
        // must mask it away identically.
        buf[20 + namelen + 14] |= 0x80;
        let path = tmp_file("mapped_dirty_flags.sact", &buf);

        let mut mapped = FileSource::open(&path).unwrap();
        let m = drain_to_trace(&mut mapped).unwrap();
        let s = read_binary(&buf[..]).unwrap();
        assert_eq!(m.as_slice(), s.as_slice());
        assert_eq!(m.as_slice()[0], t.as_slice()[0], "reserved bits masked");
        assert_eq!(mapped.borrowed_chunks(), 0, "dirty flags disable borrowing");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mapped_sact_truncated_payload_reports_the_entry_range() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 24); // drop 1.5 entries
        let path = tmp_file("mapped_truncated.sact", &buf);
        let mut src = FileSource::open(&path).unwrap();
        let err = drain_to_trace(&mut src).unwrap_err();
        assert!(matches!(err, ReadError::BadEntry(_)), "{err}");
        assert!(err.to_string().contains("0..500"), "{err}");
        let owned = read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.to_string(), owned.to_string());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_path_round_trips_both_formats() {
        let t = sample_trace();
        for (ext, sact2) in [("sact", false), ("sact2", true)] {
            let mut buf = Vec::new();
            if sact2 {
                write_binary2(&t, &mut buf).unwrap();
            } else {
                write_binary(&t, &mut buf).unwrap();
            }
            let path = tmp_file(&format!("read_path_rt.{ext}"), &buf);
            let back = read_path(&path).unwrap();
            assert_eq!(back.as_slice(), t.as_slice());
            assert_eq!(back.name(), t.name());
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn open_input_errors_name_the_path() {
        let err = match FileSource::open("/nonexistent-dir-sact/in.sact") {
            Ok(_) => panic!("open of a nonexistent path must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("/nonexistent-dir-sact/in.sact"));
    }
}
