//! The single trace entry: one tagged load or store.

use std::fmt;

/// Size in bytes of one data word (a double-precision float, as in the
/// paper's numerical codes).
pub const WORD_BYTES: u64 = 8;

/// Whether a reference is a load or a store.
///
/// ```
/// use sac_trace::AccessKind;
/// assert!(AccessKind::Read.is_read());
/// assert!(AccessKind::Write.is_write());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessKind {
    /// A load instruction.
    Read,
    /// A store instruction.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// Returns `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("R"),
            AccessKind::Write => f.write_str("W"),
        }
    }
}

const FLAG_WRITE: u8 = 1 << 0;
const FLAG_TEMPORAL: u8 = 1 << 1;
const FLAG_SPATIAL: u8 = 1 << 2;
/// Bits 3-4: the spatial *level* for variable-length virtual lines.
const LEVEL_SHIFT: u8 = 3;
const LEVEL_MASK: u8 = 0b11 << LEVEL_SHIFT;
/// Bits 5-6: the issuing CPU of a multi-core interleaved trace.
const CPU_SHIFT: u8 = 5;
const CPU_MASK: u8 = 0b11 << CPU_SHIFT;
/// Bit 7 stays reserved: decoding drops it.
const RESERVED_MASK: u8 = 1 << 7;

/// Maximum number of CPUs a multi-core trace can name: the cpu id lives
/// in two flag bits of the 16-byte wire entry (single-CPU traces carry
/// cpu 0 everywhere, so every pre-coherence trace reads back unchanged).
pub const MAX_CPUS: usize = 4;

/// One tagged memory reference.
///
/// An `Access` mirrors a trace entry of the paper's source-level tracer:
/// the referenced byte address, the read/write direction, the two software
/// locality hints (the per-load/store *temporal tag* and *spatial tag* of
/// §2.2/§2.1), the issue-time gap in cycles since the previous reference
/// (drawn from the Figure 4b distribution when the trace is generated), and
/// the id of the static load/store instruction that issued it (used by the
/// vector-length analysis of Figure 1b).
///
/// The struct is deliberately compact (16 bytes) because traces run into the
/// millions of entries.
///
/// ```
/// use sac_trace::{Access, AccessKind};
///
/// let a = Access::read(0x2000)
///     .with_temporal(true)
///     .with_gap(3)
///     .with_instr(7);
/// assert_eq!(a.addr(), 0x2000);
/// assert_eq!(a.kind(), AccessKind::Read);
/// assert!(a.temporal() && !a.spatial());
/// assert_eq!(a.gap(), 3);
/// assert_eq!(a.instr(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    // The SACT wire order (addr, instr, gap, flags); `flags` holds the
    // packed flag byte both wire formats store.
    addr: u64,
    instr: u32,
    gap: u16,
    flags: u8,
}

// Pin the 16 bytes the doc above promises.
const _: () = assert!(std::mem::size_of::<Access>() == 16);

impl Access {
    /// Creates a load of the word at `addr` with no tags and a 1-cycle gap.
    pub fn read(addr: u64) -> Self {
        Access {
            addr,
            instr: 0,
            gap: 1,
            flags: 0,
        }
    }

    /// Creates a store to the word at `addr` with no tags and a 1-cycle gap.
    pub fn write(addr: u64) -> Self {
        Access {
            addr,
            instr: 0,
            gap: 1,
            flags: FLAG_WRITE,
        }
    }

    /// Creates an access of the given kind; convenience for generic callers.
    pub fn new(addr: u64, kind: AccessKind) -> Self {
        match kind {
            AccessKind::Read => Access::read(addr),
            AccessKind::Write => Access::write(addr),
        }
    }

    /// The packed flag byte both wire formats store: bit 0 write, bit 1
    /// temporal, bit 2 spatial, bits 3-4 spatial level, bits 5-6 cpu.
    #[inline]
    pub(crate) fn wire_flags(&self) -> u8 {
        self.flags
    }

    /// Builds an access from its wire fields, the inverse of
    /// [`Access::wire_flags`] and the getters: `flags` is the packed
    /// wire byte, whose reserved bit 7 is dropped.
    #[inline]
    pub(crate) fn from_wire(addr: u64, instr: u32, gap: u16, flags: u8) -> Self {
        Access {
            addr,
            instr,
            gap,
            flags: flags & !RESERVED_MASK,
        }
    }

    /// Sets the temporal tag (builder style).
    pub fn with_temporal(mut self, temporal: bool) -> Self {
        if temporal {
            self.flags |= FLAG_TEMPORAL;
        } else {
            self.flags &= !FLAG_TEMPORAL;
        }
        self
    }

    /// Sets the spatial tag (builder style).
    pub fn with_spatial(mut self, spatial: bool) -> Self {
        if spatial {
            self.flags |= FLAG_SPATIAL;
        } else {
            self.flags &= !FLAG_SPATIAL;
        }
        self
    }

    /// Sets the spatial *level* for variable-length virtual lines
    /// (§3.2's "virtual lines of different lengths" extension): level `L`
    /// asks for a virtual line of `2^L` physical lines. Level 0 leaves
    /// the choice to the cache's configured default.
    ///
    /// # Panics
    ///
    /// Panics if `level > 3` (two instruction bits are reserved).
    pub fn with_spatial_level(mut self, level: u8) -> Self {
        assert!(level <= 3, "spatial level is a 2-bit field");
        self.flags = (self.flags & !LEVEL_MASK) | (level << LEVEL_SHIFT);
        self
    }

    /// Sets the issuing CPU id for a multi-core interleaved trace
    /// (builder style). Single-CPU traces leave this at 0.
    ///
    /// # Panics
    ///
    /// Panics if `cpu >= MAX_CPUS` (two flag bits).
    pub fn with_cpu(mut self, cpu: u8) -> Self {
        assert!((cpu as usize) < MAX_CPUS, "cpu id is a 2-bit field");
        self.flags = (self.flags & !CPU_MASK) | (cpu << CPU_SHIFT);
        self
    }

    /// Sets the issue gap in cycles since the previous reference.
    ///
    /// Gaps above `u16::MAX` are clamped; the Figure 4b distribution never
    /// produces values anywhere near that bound.
    pub fn with_gap(mut self, gap: u32) -> Self {
        self.gap = gap.min(u16::MAX as u32) as u16;
        self
    }

    /// Sets the referenced byte address, keeping every other field
    /// (builder style; stamps a pre-tagged template with an address).
    #[inline]
    pub fn with_addr(mut self, addr: u64) -> Self {
        self.addr = addr;
        self
    }

    /// Sets the static instruction id that issued this reference.
    pub fn with_instr(mut self, instr: u32) -> Self {
        self.instr = instr;
        self
    }

    /// The referenced byte address.
    #[inline]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The word-aligned address (addresses are classified at word
    /// granularity by the reuse statistics).
    #[inline]
    pub fn word(&self) -> u64 {
        self.addr / WORD_BYTES
    }

    /// Load or store.
    #[inline]
    pub fn kind(&self) -> AccessKind {
        if self.flags & FLAG_WRITE != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    /// Whether the issuing load/store carries the temporal tag.
    #[inline]
    pub fn temporal(&self) -> bool {
        self.flags & FLAG_TEMPORAL != 0
    }

    /// Whether the issuing load/store carries the spatial tag.
    #[inline]
    pub fn spatial(&self) -> bool {
        self.flags & FLAG_SPATIAL != 0
    }

    /// The spatial level (0 = use the cache's default virtual line).
    #[inline]
    pub fn spatial_level(&self) -> u8 {
        (self.flags & LEVEL_MASK) >> LEVEL_SHIFT
    }

    /// The issuing CPU id (0 for single-CPU traces).
    #[inline]
    pub fn cpu(&self) -> u8 {
        (self.flags & CPU_MASK) >> CPU_SHIFT
    }

    /// Issue-time gap in cycles since the previous reference.
    #[inline]
    pub fn gap(&self) -> u32 {
        self.gap as u32
    }

    /// Static instruction id.
    #[inline]
    pub fn instr(&self) -> u32 {
        self.instr
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:#x} t={} s={} gap={} i={}",
            self.kind(),
            self.addr,
            u8::from(self.temporal()),
            u8::from(self.spatial()),
            self.gap,
            self.instr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_direction() {
        assert_eq!(Access::read(8).kind(), AccessKind::Read);
        assert_eq!(Access::write(8).kind(), AccessKind::Write);
        assert_eq!(Access::new(8, AccessKind::Write).kind(), AccessKind::Write);
    }

    #[test]
    fn tags_default_off_and_toggle() {
        let a = Access::read(0);
        assert!(!a.temporal() && !a.spatial());
        let a = a.with_temporal(true).with_spatial(true);
        assert!(a.temporal() && a.spatial());
        let a = a.with_temporal(false);
        assert!(!a.temporal() && a.spatial());
    }

    #[test]
    fn word_granularity() {
        assert_eq!(Access::read(0).word(), 0);
        assert_eq!(Access::read(7).word(), 0);
        assert_eq!(Access::read(8).word(), 1);
        assert_eq!(Access::read(800).word(), 100);
    }

    #[test]
    fn gap_clamps() {
        assert_eq!(Access::read(0).with_gap(1_000_000).gap(), u16::MAX as u32);
        assert_eq!(Access::read(0).with_gap(5).gap(), 5);
    }

    #[test]
    fn spatial_level_round_trips() {
        for level in 0..=3u8 {
            let a = Access::read(0).with_spatial(true).with_spatial_level(level);
            assert_eq!(a.spatial_level(), level);
            assert!(a.spatial());
        }
        // Level does not disturb the other flags.
        let a = Access::write(0).with_temporal(true).with_spatial_level(2);
        assert!(a.temporal() && a.kind().is_write());
        assert_eq!(a.spatial_level(), 2);
    }

    #[test]
    #[should_panic(expected = "2-bit")]
    fn oversized_level_panics() {
        let _ = Access::read(0).with_spatial_level(4);
    }

    #[test]
    fn cpu_round_trips_and_defaults_to_zero() {
        assert_eq!(Access::read(0).cpu(), 0);
        for cpu in 0..MAX_CPUS as u8 {
            let a = Access::write(64)
                .with_temporal(true)
                .with_spatial_level(3)
                .with_cpu(cpu);
            assert_eq!(a.cpu(), cpu);
            // The cpu bits disturb no neighbor field.
            assert!(a.kind().is_write() && a.temporal());
            assert_eq!(a.spatial_level(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "2-bit")]
    fn oversized_cpu_panics() {
        let _ = Access::read(0).with_cpu(MAX_CPUS as u8);
    }

    #[test]
    fn compact_layout() {
        assert_eq!(std::mem::size_of::<Access>(), 16);
    }

    /// `from_wire` equals the builder chain the decoders used before it,
    /// kept here as the oracle: every flag byte, random fields.
    #[test]
    fn from_wire_equals_the_builder_chain() {
        fn chain(addr: u64, instr: u32, gap: u16, flags: u8) -> Access {
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
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0xF0E1);
        for flags in 0..=u8::MAX {
            for _ in 0..64 {
                let (addr, instr, gap) =
                    (rng.next_u64(), rng.next_u64() as u32, rng.next_u64() as u16);
                let a = Access::from_wire(addr, instr, gap, flags);
                assert_eq!(a, chain(addr, instr, gap, flags), "flags {flags:#04x}");
                assert_eq!(a.wire_flags(), flags & 0x7f);
            }
        }
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", Access::write(64).with_spatial(true));
        assert!(s.contains('W') && s.contains("s=1"));
    }
}
