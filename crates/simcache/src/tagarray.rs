//! Set-associative tag store with LRU state and per-line hint bits.

use crate::CacheGeometry;

/// State of one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The line number (byte address / line size) held by this entry.
    pub line: u64,
    /// Whether the entry holds valid data.
    pub valid: bool,
    /// Whether the line has been written since it was filled.
    pub dirty: bool,
    /// The per-line *temporal bit* of §2.2: set when the line is
    /// referenced by a temporal-tagged load/store, reset when the line is
    /// bounced back.
    pub temporal: bool,
    /// Whether the line arrived via a prefetch and has not been demanded
    /// yet (§4.4).
    pub prefetched: bool,
    /// LRU stamp (larger = more recently used).
    pub lru: u64,
}

impl Entry {
    /// An invalid entry.
    pub const INVALID: Entry = Entry {
        line: 0,
        valid: false,
        dirty: false,
        temporal: false,
        prefetched: false,
        lru: 0,
    };
}

impl Default for Entry {
    fn default() -> Self {
        Entry::INVALID
    }
}

/// Which valid way a set gives up first on a fill.
///
/// Every choice is one pass over the set for the minimum of a `u64` key:
/// an invalid way keys 0 and a valid way keys `class << 62 | lru` with
/// `class ≥ 1`, ties falling to the lowest way. This is the tuple order
/// `(invalid first, class, lru)` packed into one word: stamps stay far
/// below 2^62 (one per array access), so the packing is exact, and since
/// valid stamps are unique (the array clock advances before every stamp)
/// the only ties are between invalid ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evict {
    /// Plain LRU.
    Lru,
    /// The *software-controlled* LRU of §3.2 ("Set-Associativity"):
    /// non-temporal lines first, plain LRU among them, falling back to
    /// plain LRU when every valid way is temporal.
    NonTemporalFirst,
    /// Prefetched lines first (§4.4: an arriving prefetch above the
    /// residency cap replaces another prefetched line), then plain LRU.
    PrefetchedFirst,
}

impl Evict {
    /// The replacement key of one entry: smaller goes first.
    #[inline]
    fn key(self, e: &Entry) -> u64 {
        let class = match self {
            Evict::Lru => 1,
            Evict::NonTemporalFirst => 1 + e.temporal as u64,
            Evict::PrefetchedFirst => 2 - e.prefetched as u64,
        };
        // All ones for a valid entry, zero for an invalid one.
        let valid = 0u64.wrapping_sub(e.valid as u64);
        (class << 62 | e.lru) & valid
    }
}

/// The result of one pass over a set: the first way holding the line
/// sought, and the way [`Evict`] would replace.
#[derive(Debug, Clone, Copy)]
struct SetScan {
    hit: Option<usize>,
    victim: usize,
}

/// Scans `set` once, last way first, with selects instead of early
/// exits: a later-visited (lower) way overwrites an earlier match, and
/// `<=` hands key ties to the lower way, so both answers are the
/// first-way ones.
#[inline]
fn scan_set(set: &[Entry], line: u64, evict: Evict) -> SetScan {
    const NONE: usize = usize::MAX;
    let mut hit = NONE;
    let mut victim = 0;
    let mut best = u64::MAX;
    let mut way = set.len();
    while way > 0 {
        way -= 1;
        let e = &set[way];
        hit = if e.valid & (e.line == line) { way } else { hit };
        let key = evict.key(e);
        let better = key <= best;
        best = if better { key } else { best };
        victim = if better { way } else { victim };
    }
    SetScan {
        hit: (hit != NONE).then_some(hit),
        victim,
    }
}

/// The tag store of one cache: `sets × ways` entries with LRU tracking.
///
/// Every lookup and victim choice is one fixed-trip pass over the set
/// (see [`Evict`]); a miss that needs both "is the line here" and "which
/// way goes" gets them from the same pass ([`TagArray::lookup`],
/// [`TagArray::take_or_victim`]).
///
/// ```
/// use sac_simcache::{CacheGeometry, TagArray};
///
/// let mut tags = TagArray::new(CacheGeometry::new(1024, 32, 2));
/// assert!(tags.probe(0).is_none());
/// let way = tags.victim_way(0);
/// tags.fill(0, way, false);
/// assert!(tags.probe(0).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TagArray {
    geom: CacheGeometry,
    entries: Vec<Entry>,
    clock: u64,
}

impl TagArray {
    /// Creates an empty (all-invalid) tag array.
    pub fn new(geom: CacheGeometry) -> Self {
        TagArray {
            geom,
            entries: vec![Entry::INVALID; geom.lines() as usize],
            clock: 0,
        }
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The global index of way 0 of `line`'s set.
    #[inline]
    fn set_base(&self, line: u64) -> usize {
        self.geom.set_of_line(line) as usize * self.geom.ways() as usize
    }

    /// One pass over the set `slot_line` maps to, looking for `tag_line`;
    /// returns the set's base index with the scan.
    #[inline]
    fn scan(&self, slot_line: u64, tag_line: u64, evict: Evict) -> (usize, SetScan) {
        let base = self.set_base(slot_line);
        let set = &self.entries[base..base + self.geom.ways() as usize];
        (base, scan_set(set, tag_line, evict))
    }

    /// Looks up a line, updating LRU on hit. Returns the entry's global
    /// index.
    ///
    /// This is the per-reference hit path of every organization, and it
    /// keeps its early exit: most references hit, usually in a one-way
    /// set. The miss-path lookups below are fixed-trip passes.
    #[inline]
    pub fn probe(&mut self, line: u64) -> Option<usize> {
        let base = self.set_base(line);
        self.clock += 1;
        let clock = self.clock;
        for i in base..base + self.geom.ways() as usize {
            let e = &mut self.entries[i];
            if e.valid && e.line == line {
                e.lru = clock;
                return Some(i);
            }
        }
        None
    }

    /// Looks up a line without touching LRU (coherence checks).
    #[inline]
    pub fn peek(&self, line: u64) -> Option<usize> {
        self.peek_as(line, line)
    }

    /// One pass over `line`'s set: `Ok(index)` of the entry holding it
    /// (as [`TagArray::peek`]), or `Err(way)`, the way `evict` would
    /// replace (as [`TagArray::victim`]).
    #[inline]
    pub fn lookup(&self, line: u64, evict: Evict) -> Result<usize, usize> {
        let (base, s) = self.scan(line, line, evict);
        s.hit.map(|way| base + way).ok_or(s.victim)
    }

    /// The way index (within the line's set) that `evict` replaces.
    #[inline]
    pub fn victim(&self, line: u64, evict: Evict) -> usize {
        self.scan(line, line, evict).1.victim
    }

    /// The way index (within the line's set) that plain LRU would replace:
    /// an invalid way if any, otherwise the least recently used.
    #[inline]
    pub fn victim_way(&self, line: u64) -> usize {
        self.victim(line, Evict::Lru)
    }

    /// Reads the entry at `set_of(line)`/`way`.
    pub fn entry(&self, line: u64, way: usize) -> &Entry {
        &self.entries[self.set_base(line) + way]
    }

    /// Mutable access to the entry at `set_of(line)`/`way`, for the hint
    /// bits only (see [`TagArray::entry_at_mut`]).
    #[inline]
    pub fn entry_mut(&mut self, line: u64, way: usize) -> &mut Entry {
        let idx = self.set_base(line) + way;
        &mut self.entries[idx]
    }

    /// Mutable access by global index (as returned by [`TagArray::probe`]).
    ///
    /// For the hint bits only: identity changes (`line`, `valid`) go
    /// through fill/install/take/invalidate.
    #[inline]
    pub fn entry_at_mut(&mut self, index: usize) -> &mut Entry {
        &mut self.entries[index]
    }

    /// Read access by global index.
    #[inline]
    pub fn entry_at(&self, index: usize) -> &Entry {
        &self.entries[index]
    }

    /// Every entry, set by set (whole-array passes over small
    /// fully-associative buffers).
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Installs `line` at the given way of its set, returning the evicted
    /// entry (valid if real data was displaced).
    #[inline]
    pub fn fill(&mut self, line: u64, way: usize, dirty: bool) -> Entry {
        self.install(
            line,
            way,
            Entry {
                dirty,
                ..Entry::INVALID
            },
        )
    }

    /// Installs a fully-specified entry (used by swaps and bounce-backs),
    /// returning the displaced entry. The LRU stamp is refreshed.
    #[inline]
    pub fn install(&mut self, line: u64, way: usize, entry: Entry) -> Entry {
        self.install_as(line, line, way, entry)
    }

    /// Looks for `tag_line` in the set that `slot_line` maps to, without
    /// touching LRU — column-associative caches store a line in its
    /// *rehash* set, so slot and tag differ.
    #[inline]
    pub fn peek_as(&self, slot_line: u64, tag_line: u64) -> Option<usize> {
        // The victim half of the pass is unused here and compiles away.
        let (base, s) = self.scan(slot_line, tag_line, Evict::Lru);
        s.hit.map(|way| base + way)
    }

    /// Removes `tag_line` from the set `slot_line` maps to (see
    /// [`TagArray::peek_as`]).
    pub fn take_as(&mut self, slot_line: u64, tag_line: u64) -> Option<(usize, Entry)> {
        let (base, s) = self.scan(slot_line, tag_line, Evict::Lru);
        let way = s.hit?;
        Some((way, self.remove(base + way)))
    }

    /// Invalidates the entry at global index `idx`, returning it.
    #[inline]
    fn remove(&mut self, idx: usize) -> Entry {
        std::mem::replace(&mut self.entries[idx], Entry::INVALID)
    }

    /// Installs an entry tagged `tag_line` into the set `slot_line` maps
    /// to, returning the displaced entry (see [`TagArray::peek_as`]).
    #[inline]
    pub fn install_as(
        &mut self,
        slot_line: u64,
        tag_line: u64,
        way: usize,
        mut entry: Entry,
    ) -> Entry {
        self.clock += 1;
        entry.line = tag_line;
        entry.valid = true;
        entry.lru = self.clock;
        let idx = self.set_base(slot_line) + way;
        std::mem::replace(&mut self.entries[idx], entry)
    }

    /// Removes the entry holding `line`, returning its way index and
    /// contents (used by swaps, which must refill the freed way).
    pub fn take(&mut self, line: u64) -> Option<(usize, Entry)> {
        self.take_as(line, line)
    }

    /// One pass over `line`'s set: removes the entry holding `line` and
    /// returns `Ok((way, entry))` as [`TagArray::take`], or returns
    /// `Err(way)`, the way `evict` would replace, leaving the set as it
    /// was.
    #[inline]
    pub fn take_or_victim(&mut self, line: u64, evict: Evict) -> Result<(usize, Entry), usize> {
        let (base, s) = self.scan(line, line, evict);
        match s.hit {
            Some(way) => Ok((way, self.remove(base + way))),
            None => Err(s.victim),
        }
    }

    /// Invalidates the entry holding `line`, returning it if it was valid.
    pub fn invalidate(&mut self, line: u64) -> Option<Entry> {
        self.take(line).map(|(_, e)| e)
    }

    /// Number of valid entries (test/debug helper).
    pub fn valid_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Invalidates every entry, returning the dirty lines that were lost
    /// (a context switch or external invalidation must write them back).
    pub fn invalidate_all(&mut self) -> u64 {
        let mut dirty = 0;
        for e in &mut self.entries {
            if e.valid && e.dirty {
                dirty += 1;
            }
            *e = Entry::INVALID;
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom2way() -> CacheGeometry {
        // 4 sets × 2 ways × 32 B.
        CacheGeometry::new(256, 32, 2)
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut t = TagArray::new(geom2way());
        assert!(t.probe(5).is_none());
        let way = t.victim_way(5);
        t.fill(5, way, false);
        assert!(t.probe(5).is_some());
        assert_eq!(t.valid_count(), 1);
    }

    #[test]
    fn lru_replacement_order() {
        let mut t = TagArray::new(geom2way());
        // Lines 0, 4, 8 share set 0 (4 sets).
        t.fill(0, t.victim_way(0), false);
        t.fill(4, t.victim_way(4), false);
        // Touch line 0 so line 4 becomes LRU.
        assert!(t.probe(0).is_some());
        let way = t.victim_way(8);
        assert_eq!(t.entry(8, way).line, 4);
    }

    #[test]
    fn invalid_way_chosen_first() {
        let mut t = TagArray::new(geom2way());
        t.fill(0, t.victim_way(0), false);
        let way = t.victim_way(4);
        assert!(!t.entry(4, way).valid);
    }

    #[test]
    fn prefer_nontemporal_victim() {
        let mut t = TagArray::new(geom2way());
        t.fill(0, 0, false);
        t.fill(4, 1, false);
        // Mark line 0 temporal without refreshing its LRU stamp: line 0 is
        // the LRU line, yet the software-controlled policy must spare it.
        let idx0 = t.peek(0).unwrap();
        t.entry_at_mut(idx0).temporal = true;
        assert_eq!(t.entry(8, t.victim_way(8)).line, 0, "plain LRU evicts 0");
        let way = t.victim(8, Evict::NonTemporalFirst);
        assert_eq!(t.entry(8, way).line, 4, "non-temporal line preferred");
    }

    #[test]
    fn prefer_nontemporal_falls_back_to_lru() {
        let mut t = TagArray::new(geom2way());
        t.fill(0, 0, false);
        t.fill(4, 1, false);
        for line in [0u64, 4] {
            let idx = t.probe(line).unwrap();
            t.entry_at_mut(idx).temporal = true;
        }
        // All temporal: plain LRU picks line 0 (probed first → older).
        let way = t.victim(8, Evict::NonTemporalFirst);
        assert_eq!(t.entry(8, way).line, 0);
    }

    #[test]
    fn fill_returns_displaced_entry() {
        let mut t = TagArray::new(geom2way());
        t.fill(0, 0, true);
        let old = t.fill(8, 0, false);
        assert!(old.valid && old.dirty && old.line == 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut t = TagArray::new(geom2way());
        t.fill(3, t.victim_way(3), false);
        assert!(t.invalidate(3).is_some());
        assert!(t.probe(3).is_none());
        assert!(t.invalidate(3).is_none());
    }

    #[test]
    fn install_preserves_flags() {
        let mut t = TagArray::new(geom2way());
        let e = Entry {
            line: 12,
            valid: true,
            dirty: true,
            temporal: true,
            prefetched: true,
            lru: 0,
        };
        t.install(12, 0, e);
        let idx = t.peek(12).unwrap();
        let got = t.entry_at(idx);
        assert!(got.dirty && got.temporal && got.prefetched);
    }
}
