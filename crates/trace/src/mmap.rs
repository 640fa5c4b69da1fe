//! Read-only memory mapping of trace files — the zero-copy substrate of
//! [`crate::io::TraceReader::open`].
//!
//! This is the one corner of the crate that uses `unsafe`, and it is kept
//! deliberately small. The safety argument:
//!
//! * The mapping is `PROT_READ` + `MAP_PRIVATE`: the process can never
//!   write through it, and writes by other processes to the underlying
//!   file are not an aliasing violation *we* can commit — we only ever
//!   read integers out of the region (every byte pattern is a valid
//!   [`Access`]), so a concurrently-truncated or rewritten trace yields
//!   garbage metrics, not undefined behaviour at the language level.
//!   (Truncation below the mapped length can still raise `SIGBUS`, the
//!   same contract every mmap consumer on Linux lives with; trace files
//!   are treated as immutable inputs.)
//! * The region outlives every borrow: [`Mapping::bytes`] ties the slice
//!   lifetime to the `Mapping`, and `munmap` runs only in `Drop`.
//! * No `libc` dependency is available in this workspace, so the Linux
//!   implementation issues the two raw syscalls (`mmap`, `munmap`)
//!   directly via inline assembly on x86_64/aarch64. Every other platform
//!   reports `Unsupported` and callers read the file whole instead.
//!
//! [`Access`]: crate::Access

#![allow(unsafe_code)]

use crate::Access;
use std::fs::File;
use std::io;
use std::mem::{align_of, size_of};

/// A read-only, private memory mapping of an entire file.
pub(crate) struct Mapping {
    inner: imp::Mmap,
}

impl Mapping {
    /// Maps `file` read-only.
    ///
    /// # Errors
    ///
    /// Returns `Unsupported` on platforms without the raw-syscall shim,
    /// for zero-length files (the kernel rejects empty mappings), and
    /// propagates the kernel's error when `mmap` itself fails.
    pub(crate) fn open(file: &File) -> io::Result<Mapping> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::Unsupported, "file too large to map"))?;
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "empty file cannot be mapped",
            ));
        }
        Ok(Mapping {
            inner: imp::Mmap::map(file, len)?,
        })
    }

    /// The mapped bytes. The borrow is tied to the mapping's lifetime.
    pub(crate) fn bytes(&self) -> &[u8] {
        self.inner.as_slice()
    }
}

// The zero-copy reinterpretation below is only sound because `Access` has
// exactly the SACT wire layout. Size and alignment are pinned here; the
// field offsets are pinned next to the struct definition in `access.rs`
// (where the private fields are visible to `offset_of!`).
const _: () = {
    assert!(size_of::<Access>() == 16);
    assert!(align_of::<Access>() == 8);
};

/// Reinterprets a little-endian SACT entry section as `&[Access]` without
/// copying. Returns `None` when the layout does not allow it: big-endian
/// targets (the wire format is little-endian), a byte length that is not
/// a whole number of 16-byte entries, or a payload that is not 8-byte
/// aligned within the mapping.
///
/// This checks *memory* validity only. Semantic parity with the decoding
/// path (reserved flag bits masked to zero) is the caller's check — see
/// `io::sact_flags_clean`.
pub(crate) fn cast_accesses(bytes: &[u8]) -> Option<&[Access]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    if !bytes.len().is_multiple_of(size_of::<Access>()) {
        return None;
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(align_of::<Access>()) {
        return None;
    }
    // SAFETY: `Access` is `repr(C)` with only integer fields, so every bit
    // pattern is a valid value; the compile-time asserts above pin its
    // size, alignment, and field offsets to the 16-byte wire entry; the
    // pointer is checked aligned and the element count exact; the returned
    // slice borrows `bytes`, so it cannot outlive the mapping.
    Some(unsafe {
        std::slice::from_raw_parts(
            bytes.as_ptr().cast::<Access>(),
            bytes.len() / size_of::<Access>(),
        )
    })
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// An owned `mmap(2)` region, unmapped on drop.
    pub(super) struct Mmap {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the region is immutable (PROT_READ) for its whole lifetime
    // and `munmap` runs exactly once in `Drop`, so sharing references or
    // moving the owner across threads cannot race.
    unsafe impl Send for Mmap {}
    // SAFETY: as above — concurrent `&Mmap` readers only load from
    // read-only memory.
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` starting at offset 0.
        pub(super) fn map(file: &File, len: usize) -> io::Result<Mmap> {
            let fd = file.as_raw_fd();
            // SAFETY: a fresh anonymous address (addr = 0) read-only
            // private mapping of a file descriptor we own; the kernel
            // validates every argument and reports failure as -errno.
            let ret =
                unsafe { syscall6(sys::MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0) };
            let signed = ret as isize;
            if (-4095..0).contains(&signed) {
                return Err(io::Error::from_raw_os_error(-signed as i32));
            }
            Ok(Mmap {
                ptr: ret as *const u8,
                len,
            })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is the page-aligned base of a live mapping of
            // exactly `len` readable bytes; it is unmapped only in `Drop`,
            // so the borrow (tied to `&self`) cannot outlive it.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region returned by `mmap`; the
            // result is ignored because there is no recovery from a failed
            // unmap at drop time.
            unsafe {
                syscall2(sys::MUNMAP, self.ptr as usize, self.len);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod sys {
        pub(super) const MMAP: usize = 9;
        pub(super) const MUNMAP: usize = 11;
    }

    #[cfg(target_arch = "aarch64")]
    mod sys {
        pub(super) const MMAP: usize = 222;
        pub(super) const MUNMAP: usize = 215;
    }

    /// Raw six-argument Linux syscall.
    ///
    /// # Safety
    ///
    /// The caller must pass arguments valid for the requested syscall.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        nr: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> usize {
        let ret;
        // SAFETY: the x86_64 Linux syscall ABI — number in rax, arguments
        // in rdi/rsi/rdx/r10/r8/r9, return in rax, rcx/r11 clobbered.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a0,
                in("rsi") a1,
                in("rdx") a2,
                in("r10") a3,
                in("r8") a4,
                in("r9") a5,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// Raw two-argument Linux syscall (see [`syscall6`]).
    ///
    /// # Safety
    ///
    /// As for [`syscall6`].
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall2(nr: usize, a0: usize, a1: usize) -> usize {
        // SAFETY: forwarded to `syscall6` with unused argument registers
        // zeroed, which the kernel ignores for two-argument syscalls.
        unsafe { syscall6(nr, a0, a1, 0, 0, 0, 0) }
    }

    /// Raw six-argument Linux syscall.
    ///
    /// # Safety
    ///
    /// The caller must pass arguments valid for the requested syscall.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        nr: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> usize {
        let ret;
        // SAFETY: the aarch64 Linux syscall ABI — number in x8, arguments
        // in x0..x5, return in x0.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a0 => ret,
                in("x1") a1,
                in("x2") a2,
                in("x3") a3,
                in("x4") a4,
                in("x5") a5,
                options(nostack),
            );
        }
        ret
    }

    /// Raw two-argument Linux syscall (see [`syscall6`]).
    ///
    /// # Safety
    ///
    /// As for [`syscall6`].
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall2(nr: usize, a0: usize, a1: usize) -> usize {
        // SAFETY: forwarded to `syscall6` with unused argument registers
        // zeroed, which the kernel ignores for two-argument syscalls.
        unsafe { syscall6(nr, a0, a1, 0, 0, 0, 0) }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use std::fs::File;
    use std::io;

    /// Stub on platforms without the raw-syscall shim: mapping always
    /// reports `Unsupported`, so callers read the file whole.
    pub(super) struct Mmap;

    impl Mmap {
        pub(super) fn map(_file: &File, _len: usize) -> io::Result<Mmap> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "memory mapping is not supported on this platform",
            ))
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            &[]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_a_real_file_or_reports_unsupported() {
        let dir = std::env::temp_dir().join("sac-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("maps_a_real_file.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(8192).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let file = File::open(&path).unwrap();
        match Mapping::open(&file) {
            Ok(map) => assert_eq!(map.bytes(), &payload[..]),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::Unsupported),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_files_are_unsupported() {
        let dir = std::env::temp_dir().join("sac-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::File::create(&path).unwrap();
        let file = File::open(&path).unwrap();
        let err = match Mapping::open(&file) {
            Ok(_) => panic!("empty file must not map"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cast_accesses_requires_alignment_and_exact_length() {
        // 3 entries worth of zero bytes, with headroom to carve out both
        // an 8-aligned and a misaligned view.
        let backing = [0u8; 16 * 3 + 8];
        let base = backing.as_ptr() as usize;
        let aligned_at = (8 - base % 8) % 8;
        let aligned = &backing[aligned_at..aligned_at + 48];
        let cast = cast_accesses(aligned).expect("aligned little-endian cast");
        assert_eq!(cast.len(), 3);
        assert_eq!(cast[0], Access::read(0).with_gap(0));
        assert!(cast_accesses(&aligned[1..17]).is_none(), "misaligned");
        assert!(cast_accesses(&aligned[..15]).is_none(), "partial entry");
    }
}
