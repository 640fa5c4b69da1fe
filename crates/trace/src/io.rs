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
//!                           bit2 spatial, bits 3-4 spatial level,
//!                           bits 5-6 cpu id, bit7 reserved),
//!                           pad u8 = 0
//! ```
//!
//! Writers leave the reserved flag bit 0. A `SACT` reader masks it off,
//! so an entry with bit 7 set decodes as if it were clear; a `SAC2`
//! reader rejects a flag byte with bit 7 set (see below).
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
//!   op     1 byte   the flag byte shared by every entry of the run,
//!                   laid out as in SACT (bit0 write, bit1 temporal,
//!                   bit2 spatial, bits 3-4 spatial level, bits 5-6
//!                   cpu id; bit7 reserved, must be 0)
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
//! never a panic or a silent wrap. One entry therefore spans at most 41
//! input bytes: a flag byte, then a run-length varint and three field
//! varints of up to 10 bytes each (overlong but valid encodings
//! included).
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
/// For `SACT` (`align` true) the name field is NUL-padded to `4 (mod
/// 8)` bytes, so the entry section starts 8-byte aligned in the file
/// (the payload offset is `20 + namelen`). The reader does not need the
/// alignment; the padding stays so that `SACT` wire bytes, and every
/// file and golden written so far, stay identical. Readers strip the
/// trailing NULs (see [`read_header`]) and accept unpadded headers
/// alike. `SAC2` is written unpadded — the committed golden fixture
/// freezes those wire bytes.
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
    Access::from_wire(addr, instr, gap, buf[14])
}

/// Reads a trace in the binary `SACT` format, fully materialized.
///
/// A `&mut` reference may be passed for `r` (any `Read` works). The
/// input is decoded chunk by chunk through [`TraceReader`]'s bounded
/// window; `SAC2` input is rejected with [`ReadError::BadHeader`].
///
/// # Errors
///
/// Returns [`ReadError`] on I/O failure, bad magic/version, or a
/// truncated entry section.
pub fn read_binary<R: Read>(r: R) -> Result<Trace, ReadError> {
    drain_to_trace(&mut TraceReader::start(r, Some("SACT"))?)
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
/// A run that closes inside a pushed chunk is written header first,
/// straight into the 64 KiB output buffer, which reaches the inner
/// writer when it fills and in `finish`. Only the run still open at a
/// chunk's end (at most [`MAX_RUN`] entries) is encoded into a reused
/// carry buffer until it closes. Converting a trace therefore never
/// materializes it, and as for [`SactWriter`], write errors surface
/// from `push_chunk` or `finish`.
pub struct Sact2Writer<W: Write> {
    out: Out<W>,
    prev: Prev,
    run_flags: u8,
    run_len: u64,
    run: Vec<u8>,
}

/// Most bytes one `SAC2` entry encodes to: an address delta (10), a
/// gap (3) and an instr delta (5).
const MAX_SAC2_ENTRY: usize = 18;

/// Most bytes a run header encodes to: the flag byte plus a length
/// varint of at most 3 bytes ([`MAX_RUN`]).
const MAX_RUN_HEAD: usize = 4;

/// The entry every `SAC2` delta is taken from (the first entry deltas
/// from 0).
#[derive(Default)]
struct Prev {
    addr: u64,
    instr: u32,
}

impl Prev {
    /// Appends `a`'s entry to `buf` and makes it the previous entry.
    #[inline]
    fn put(&mut self, a: &Access, buf: &mut Vec<u8>) {
        let (addr, instr) = (a.addr(), a.instr());
        let mut e = [0u8; MAX_SAC2_ENTRY];
        let n = put_varint(
            &mut e,
            0,
            zigzag_encode(addr.wrapping_sub(self.addr) as i64),
        );
        let n = put_varint(&mut e, n, u64::from(a.gap()));
        let n = put_varint(
            &mut e,
            n,
            zigzag_encode(i64::from(instr.wrapping_sub(self.instr) as i32)),
        );
        buf.extend_from_slice(&e[..n]);
        self.addr = addr;
        self.instr = instr;
    }
}

/// Length of the run `chunk` starts with, `room` entries at most.
#[inline]
fn run_length(chunk: &[Access], flags: u8, room: u64) -> usize {
    chunk
        .iter()
        .take(room as usize)
        .take_while(|a| a.wire_flags() == flags)
        .count()
}

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
            prev: Prev::default(),
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
        let mut rest = chunk;
        if self.run_len > 0 {
            // The run carried from the last chunk goes on while the
            // flags match and it has room.
            let len = run_length(rest, self.run_flags, MAX_RUN - self.run_len);
            for a in &rest[..len] {
                self.prev.put(a, &mut self.run);
            }
            self.run_len += len as u64;
            rest = &rest[len..];
            if rest.is_empty() {
                return Ok(());
            }
            self.end_run()?;
        }
        while let Some(first) = rest.first() {
            let flags = first.wire_flags();
            let len = run_length(rest, flags, MAX_RUN);
            let (run, tail) = rest.split_at(len);
            if tail.is_empty() && len < MAX_RUN as usize {
                // Still open at the chunk's end: carry it.
                for a in run {
                    self.prev.put(a, &mut self.run);
                }
                self.run_flags = flags;
                self.run_len = len as u64;
                return Ok(());
            }
            let out = &mut self.out;
            out.make_room(MAX_RUN_HEAD)?;
            out.buf.push(flags);
            push_varint(&mut out.buf, len as u64);
            for a in run {
                out.make_room(MAX_SAC2_ENTRY)?;
                self.prev.put(a, &mut out.buf);
            }
            rest = tail;
        }
        Ok(())
    }

    /// Moves the carried run, behind its flag byte and length, into the
    /// output buffer; a run longer than the buffer goes straight to the
    /// inner writer.
    fn end_run(&mut self) -> io::Result<()> {
        if self.run_len == 0 {
            return Ok(());
        }
        let out = &mut self.out;
        out.make_room(MAX_RUN_HEAD + self.run.len())?;
        out.buf.push(self.run_flags);
        push_varint(&mut out.buf, self.run_len);
        if self.run.len() > OUT_BYTES - MAX_RUN_HEAD {
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
    drain_to_trace(&mut TraceReader::start(r, Some("SAC2"))?)
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
/// wire format from a bounded window over any [`Read`] input, so every
/// consumer of [`ChunkSource`] accepts `SACT` and `SAC2` transparently.
///
/// [`TraceReader::open`] reads a file and [`TraceReader::new`] any other
/// input (a slice, a pipe, a chained reader) through the same window.
/// Before each chunk of `n` entries the window is refilled until it
/// holds the chunk's worst case — `n × 16` bytes for `SACT`, `n × 41`
/// for `SAC2` — or all that is left of the input, and the chunk is then
/// decoded from that one slice. The reader holds that window, never the
/// whole input; the window grows only with bytes read, never from the
/// header's entry count. Each chunk is decoded into one reused buffer,
/// so steady-state decoding allocates nothing.
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
pub struct TraceReader<R> {
    input: Window<R>,
    name: String,
    total: u64,
    remaining: u64,
    chunk_entries: usize,
    decoded: Vec<Access>,
    /// `None` for `SACT`, whose entries need no state between chunks.
    sac2: Option<RunState>,
}

/// [`TraceReader`] over a file, under the name path-based callers use:
/// `FileSource::open(path)`.
pub type FileSource = TraceReader<std::fs::File>;

/// Longest varint the decoder reads: 10 bytes carry 64 bits.
const MAX_VARINT: usize = 10;

/// Most input bytes one `SAC2` entry spans: a flag byte, then a
/// run-length varint and three field varints (address, gap, instr) of
/// at most [`MAX_VARINT`] bytes each. Every decode step, failing ones
/// included, reads no further.
const MAX_SAC2_INPUT: usize = 1 + 4 * MAX_VARINT;

/// How many bytes a [`Window`] reads past those it was asked to hold.
const READ_AHEAD: usize = 64 << 10;

/// The bounded input a [`TraceReader`] decodes from: `buf[start..end]`
/// holds the bytes read from `r` and not yet decoded.
struct Window<R> {
    r: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
}

impl<R: Read> Window<R> {
    fn new(r: R) -> Self {
        Window {
            r,
            buf: Vec::new(),
            start: 0,
            end: 0,
            eof: false,
        }
    }

    /// The bytes read and not yet decoded.
    fn unread(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Reads until at least `need` undecoded bytes are held or the input
    /// has ended, holding at most [`READ_AHEAD`] bytes more; interrupted
    /// reads are retried.
    ///
    /// The buffer grows only when it is full of bytes read, to at most
    /// twice those, so an input announcing more than it holds allocates
    /// no more than it delivered. Once the decoded prefix is as long as
    /// a span (`need` plus [`READ_AHEAD`]), the undecoded bytes (fewer
    /// than `need`) move to the front: the buffer stays within two spans,
    /// and moving costs less than one byte copied per byte decoded.
    fn fill(&mut self, need: usize) -> io::Result<()> {
        if self.end - self.start >= need || self.eof {
            return Ok(());
        }
        let span = need.saturating_add(READ_AHEAD);
        if self.start >= span {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let limit = self.start.saturating_add(span);
        while self.end - self.start < need && !self.eof {
            if self.end == self.buf.len() {
                let len = self.end.saturating_mul(2).max(READ_AHEAD).min(limit);
                self.buf.resize(len, 0);
            }
            let stop = self.buf.len().min(limit);
            match self.r.read(&mut self.buf[self.end..stop]) {
                Ok(0) => self.eof = true,
                Ok(k) => self.end += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl<R: Read> TraceReader<R> {
    /// Reads and parses the header of `r`, with the default chunk size
    /// ([`DEFAULT_CHUNK`] entries); the entries are read chunk by chunk.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError`] on I/O failure, a magic that is neither
    /// `SACT` nor `SAC2`, a bad version, an oversized name, a header cut
    /// short, or a `SACT` entry count whose byte size overflows `u64` (a
    /// malformed or adversarial header — nothing is sized from it).
    pub fn new(r: R) -> Result<Self, ReadError> {
        TraceReader::start(r, None)
    }

    /// Reads and parses the header of `r`, accepting only the `expect`
    /// format when one is named.
    fn start(r: R, expect: Option<&str>) -> Result<Self, ReadError> {
        let mut input = Window::new(r);
        input.fill(MAGIC.len())?;
        let head = input.unread();
        let Some(format) = sniff_format(head).filter(|f| expect.is_none_or(|e| e == *f)) else {
            return Err(ReadError::BadHeader(format!(
                "magic {:?} is not {}",
                &head[..head.len().min(4)],
                expect.unwrap_or("SACT or SAC2")
            )));
        };
        // Hold the whole header (magic, version, namelen, name, count),
        // or all of a shorter input, so `read_header` meets the header
        // errors in their order. An oversized name length is rejected
        // before the name is read.
        input.fill(12)?;
        let namelen = input.unread().get(8..12).map_or(0, |b| {
            u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize
        });
        input.fill(20 + if namelen <= MAX_NAME { namelen } else { 0 })?;
        let mut cur = &input.unread()[4..];
        let (name, count) = read_header(&mut cur)?;
        let rest = cur.len();
        input.start = input.end - rest;
        let sac2 = (format == "SAC2").then(RunState::default);
        // A count whose byte size cannot be represented is malformed by
        // construction; reject it before any size computation can wrap.
        if sac2.is_none() && count.checked_mul(ENTRY_BYTES as u64).is_none() {
            return Err(ReadError::BadHeader(format!(
                "entry count {count} overflows the entry section size"
            )));
        }
        Ok(TraceReader {
            input,
            name,
            total: count,
            remaining: count,
            chunk_entries: DEFAULT_CHUNK,
            decoded: Vec::new(),
            sac2,
        })
    }
}

impl FileSource {
    /// Opens the trace file at `path` and reads its header.
    ///
    /// # Errors
    ///
    /// As for [`TraceReader::new`]; an open failure names the path.
    pub fn open<P: AsRef<std::path::Path>>(path: P) -> Result<Self, ReadError> {
        TraceReader::new(open_input(path.as_ref())?)
    }
}

impl<R> TraceReader<R> {
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

    /// The input the reader pulls bytes from.
    pub fn get_ref(&self) -> &R {
        &self.input.r
    }

    /// The wire format behind this reader, for display.
    pub fn format(&self) -> &'static str {
        if self.sac2.is_some() {
            "SAC2"
        } else {
            "SACT"
        }
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

/// Reads a binary trace from `path`, fully materialized.
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

impl<R: Read> ChunkSource for TraceReader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes the next chunk. A truncated input or any malformed run or
    /// entry is a [`ReadError::BadEntry`] naming the entry index (`SAC2`)
    /// or the chunk's entry range (`SACT`).
    fn next_chunk(&mut self) -> Result<Option<&[Access]>, ReadError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let n = self.remaining.min(self.chunk_entries as u64) as usize;
        let start = self.total - self.remaining;
        // Once the window holds the chunk's worst case, or all that is
        // left of the input, the chunk decodes from the window alone.
        let need = n.saturating_mul(if self.sac2.is_some() {
            MAX_SAC2_INPUT
        } else {
            ENTRY_BYTES
        });
        self.input.fill(need)?;
        let bytes = &self.input.buf[..self.input.end];
        self.decoded.clear();
        let Some(run) = &mut self.sac2 else {
            if bytes.len() - self.input.start < need {
                return Err(ReadError::BadEntry(format!(
                    "entries {start}..{}: input truncated",
                    start + n as u64
                )));
            }
            let payload = &bytes[self.input.start..self.input.start + need];
            self.input.start += need;
            self.remaining -= n as u64;
            self.decoded
                .extend(payload.chunks_exact(ENTRY_BYTES).map(decode_entry));
            return Ok(Some(&self.decoded));
        };
        let pos = &mut self.input.start;
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
            self.decoded.push(Access::from_wire(
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
/// by both binary formats, from just past the magic bytes. A header cut
/// short is a [`ReadError::BadHeader`].
fn read_header(r: &mut &[u8]) -> Result<(String, u64), ReadError> {
    let version = u32::from_le_bytes(header_bytes(r)?);
    if version != VERSION {
        return Err(ReadError::BadHeader(format!(
            "unsupported version {version}"
        )));
    }
    let namelen = u32::from_le_bytes(header_bytes(r)?) as usize;
    if namelen > MAX_NAME {
        return Err(ReadError::BadHeader(format!("name length {namelen}")));
    }
    let Some((name, rest)) = r.split_at_checked(namelen) else {
        return Err(header_truncated());
    };
    *r = rest;
    let name = std::str::from_utf8(name)
        .map_err(|e| ReadError::BadHeader(format!("name not UTF-8: {e}")))?;
    // The writer NUL-pads the name (see [`write_header`]); the padding
    // is not part of the name.
    let name = name.trim_end_matches('\0').to_string();
    let count = u64::from_le_bytes(header_bytes(r)?);
    Ok((name, count))
}

/// Takes the next `N` header bytes off the cursor.
fn header_bytes<const N: usize>(r: &mut &[u8]) -> Result<[u8; N], ReadError> {
    let Some((head, rest)) = r.split_first_chunk::<N>() else {
        return Err(header_truncated());
    };
    *r = rest;
    Ok(*head)
}

fn header_truncated() -> ReadError {
    ReadError::BadHeader("input truncated".into())
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
                matches!(err, ReadError::BadHeader(_) | ReadError::BadEntry(_)),
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

    // File and memory parity: each `file_and_memory_*` test requires a
    // file and the same bytes in memory to decode alike through the one
    // reader.

    #[test]
    fn file_and_memory_decode_sact_alike() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let path = tmp_file("parity_sact.sact", &buf);

        let mut src = FileSource::open(&path).unwrap();
        assert_eq!(src.format(), "SACT");
        let from_file = drain_to_trace(&mut src).unwrap();
        assert_eq!(from_file.name(), t.name());
        assert_eq!(from_file.as_slice(), t.as_slice());

        let mut in_memory = TraceReader::new(&buf[..]).unwrap();
        let s = drain_to_trace(&mut in_memory).unwrap();
        assert_eq!(s.as_slice(), from_file.as_slice());
        assert_eq!(s.name(), from_file.name());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_and_memory_decode_sac2_alike() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary2(&t, &mut buf).unwrap();
        let path = tmp_file("parity_sact2.sact2", &buf);

        let mut src = FileSource::open(&path).unwrap();
        assert_eq!(src.format(), "SAC2");
        let from_file = drain_to_trace(&mut src).unwrap();
        let s = read_any(&buf[..]).unwrap();
        assert_eq!(from_file.as_slice(), t.as_slice());
        assert_eq!(s.as_slice(), from_file.as_slice());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_and_memory_decode_an_unpadded_sact_header_alike() {
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
        let path = tmp_file("parity_unpadded.sact", &buf);

        let mut src = FileSource::open(&path).unwrap();
        let back = drain_to_trace(&mut src).unwrap();
        assert_eq!(back.name(), "sampl");
        assert_eq!(back.as_slice(), t.as_slice());
        assert_eq!(read_binary(&buf[..]).unwrap(), back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_and_memory_mask_a_reserved_sact_flag_bit_alike() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let namelen = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        // Set a reserved bit in the first entry's flag byte; file and
        // memory must mask it away identically.
        buf[20 + namelen + 14] |= 0x80;
        let path = tmp_file("parity_dirty_flags.sact", &buf);

        let mut src = FileSource::open(&path).unwrap();
        let m = drain_to_trace(&mut src).unwrap();
        let s = read_binary(&buf[..]).unwrap();
        assert_eq!(m.as_slice(), s.as_slice());
        assert_eq!(m.as_slice()[0], t.as_slice()[0], "reserved bits masked");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_and_memory_report_a_truncated_sact_payload_alike() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 24); // drop 1.5 entries
        let path = tmp_file("parity_truncated.sact", &buf);
        let mut src = FileSource::open(&path).unwrap();
        let err = drain_to_trace(&mut src).unwrap_err();
        assert!(matches!(err, ReadError::BadEntry(_)), "{err}");
        assert!(err.to_string().contains("0..500"), "{err}");
        let in_memory = read_binary(&buf[..]).unwrap_err();
        assert_eq!(err.to_string(), in_memory.to_string());
        std::fs::remove_file(path).ok();
    }

    /// A header cut at any byte, in either format, in memory or in a
    /// file: a cut inside the magic names the bytes read, any later cut
    /// is `input truncated`, and both are header errors.
    #[test]
    fn header_cut_short_is_a_header_error() {
        let t = sample_trace();
        // Header sizes: 20 bytes plus the name, NUL-padded for SACT.
        for (sact2, header) in [(false, 32), (true, 26)] {
            let mut buf = Vec::new();
            if sact2 {
                write_binary2(&t, &mut buf).unwrap();
            } else {
                write_binary(&t, &mut buf).unwrap();
            }
            // The header ends where the entries start: a cut there reads
            // as a truncated entry section instead.
            let err = TraceReader::new(&buf[..header]).map(|_| ()).err();
            assert!(err.is_none(), "{:?}", err.map(|e| e.to_string()));
            for cut in 0..header {
                let bytes = &buf[..cut];
                let want = if cut < 4 {
                    format!("bad trace header: magic {bytes:?} is not SACT or SAC2")
                } else {
                    "bad trace header: input truncated".to_string()
                };
                let path = tmp_file(&format!("header_cut_{header}_{cut}.bin"), bytes);
                for got in [
                    TraceReader::new(bytes).map(|_| ()),
                    FileSource::open(&path).map(|_| ()),
                    read_any(bytes).map(|_| ()),
                    read_path(&path).map(|_| ()),
                ] {
                    let err = got.unwrap_err();
                    assert!(matches!(err, ReadError::BadHeader(_)), "cut {cut}: {err}");
                    assert_eq!(err.to_string(), want, "cut {cut}");
                }
                std::fs::remove_file(path).ok();
            }
        }
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
    // ---- The refill window ----

    /// `count = 2^40` with no entries, read in chunks of 2^30: the first
    /// chunk's worst case is 16 GiB (`SACT`) or 41 GiB (`SAC2`), yet the
    /// window holds only what the input delivered.
    #[test]
    fn a_huge_chunk_over_a_huge_count_allocates_only_what_was_read() {
        for (magic, want) in [
            (
                MAGIC,
                "bad trace entry: entries 0..1073741824: input truncated",
            ),
            (MAGIC2, "bad trace entry: entry 0: input truncated"),
        ] {
            let mut buf = Vec::new();
            buf.extend_from_slice(magic);
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
            let mut r = TraceReader::new(&buf[..]).unwrap().with_chunk_size(1 << 30);
            let err = r.next_chunk().map(|_| ()).unwrap_err();
            assert!(matches!(err, ReadError::BadEntry(_)), "{err}");
            assert_eq!(err.to_string(), want);
            assert!(r.input.buf.len() <= READ_AHEAD, "{}", r.input.buf.len());
            assert_eq!(r.decoded.capacity(), 0);
        }
    }

    /// A `Read` over `bytes` that counts the bytes it hands out.
    struct Counting<'a> {
        bytes: &'a [u8],
        pulled: &'a std::cell::Cell<usize>,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.bytes.read(out)?;
            self.pulled.set(self.pulled.get() + n);
            Ok(n)
        }
    }

    /// Multi-MB inputs in both formats: after the header and after each
    /// chunk, the reader has pulled at most the bytes decoded so far plus
    /// one chunk's worst case plus 64 KiB.
    #[test]
    fn read_ahead_is_bounded_by_one_chunk() {
        // SACT entries are 16 bytes; these SAC2 entries are one-entry
        // runs of 5 bytes (flag, length 1, one-byte address, gap and
        // instr deltas), so the bytes decoded follow from the entries.
        let n = 256 * DEFAULT_CHUNK as u64 + 5;
        let sact: Trace = (0..n).map(|i| Access::read(i * 8)).collect();
        let sac2: Trace = (0..n)
            .map(|i| Access::read(i * 8).with_temporal(i % 2 == 0))
            .collect();
        for (t, entry, worst) in [
            (&sact, ENTRY_BYTES, ENTRY_BYTES),
            (&sac2, 5, MAX_SAC2_INPUT),
        ] {
            let mut buf = Vec::new();
            if entry == ENTRY_BYTES {
                write_binary(t, &mut buf).unwrap();
            } else {
                write_binary2(t, &mut buf).unwrap();
            }
            let header = buf.len() - entry * t.len();
            assert!(buf.len() > 4 << 20, "{} bytes", buf.len());
            let pulled = std::cell::Cell::new(0);
            let input = Counting {
                bytes: &buf,
                pulled: &pulled,
            };
            let mut r = TraceReader::new(input).unwrap();
            let bound =
                |decoded: usize| header + entry * decoded + DEFAULT_CHUNK * worst + (64 << 10);
            assert!(
                pulled.get() <= bound(0),
                "{} after the header",
                pulled.get()
            );
            let mut decoded = 0;
            while let Some(c) = r.next_chunk().unwrap() {
                decoded += c.len();
                assert!(
                    pulled.get() <= bound(decoded),
                    "{} pulled after {decoded} entries",
                    pulled.get()
                );
            }
            assert_eq!((decoded, pulled.get()), (t.len(), buf.len()));
        }
    }
}
