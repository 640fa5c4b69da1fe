//! Scan oracle: every tag-set scan of [`TagArray`] against the naive
//! early-exit and tuple-key loops it replaced.
//!
//! The scans are fixed-trip select loops over `u64` keys whose exactness
//! rests on two orderings: the first matching way wins a lookup, and the
//! lowest way wins a replacement tie. The oracles below are the original
//! bodies, written against the public `entry(line, way)` accessor. Random
//! sets come from [`SplitMix64`] in the 1-, 2-, 4- and 8-way shapes, with
//! invalid ways that keep a stale tag and stamp, duplicate tags within a
//! set, and random dirty/temporal/prefetched mixes.

use sac_simcache::{CacheGeometry, Entry, Evict, TagArray};
use sac_trace::rng::SplitMix64;

const SETS: u64 = 4;
const CASES: u64 = 1500;

fn base_of(t: &TagArray, line: u64) -> usize {
    let g = t.geometry();
    g.set_of_line(line) as usize * g.ways() as usize
}

fn ways(t: &TagArray) -> usize {
    t.geometry().ways() as usize
}

/// Every entry, in index order.
fn entries(t: &TagArray) -> Vec<Entry> {
    (0..t.geometry().lines() as usize)
        .map(|i| *t.entry_at(i))
        .collect()
}

/// The original `peek_as`: first valid way of `slot_line`'s set holding
/// `tag_line`, early exit.
fn oracle_peek_as(t: &TagArray, slot_line: u64, tag_line: u64) -> Option<usize> {
    (0..ways(t))
        .find(|&w| {
            let e = t.entry(slot_line, w);
            e.valid && e.line == tag_line
        })
        .map(|w| base_of(t, slot_line) + w)
}

/// The original `victim_way`: invalid ways first, then least recently
/// used; ties to the first way.
fn oracle_victim_way(t: &TagArray, line: u64) -> usize {
    let mut best = 0;
    let mut best_key = (u64::MAX, u64::MAX);
    for w in 0..ways(t) {
        let e = t.entry(line, w);
        let key = if e.valid { (1, e.lru) } else { (0, 0) };
        if key < best_key {
            best_key = key;
            best = w;
        }
    }
    best
}

/// The original `victim_way_prefer_nontemporal`.
fn oracle_victim_nontemporal(t: &TagArray, line: u64) -> usize {
    let mut best = 0;
    let mut best_key = (u64::MAX, u64::MAX);
    for w in 0..ways(t) {
        let e = t.entry(line, w);
        let key = if !e.valid {
            (0, 0)
        } else if !e.temporal {
            (1, e.lru)
        } else {
            (2, e.lru)
        };
        if key < best_key {
            best_key = key;
            best = w;
        }
    }
    best
}

/// The original bounce-back victim choice of the software-assisted
/// cache: a prefetched insertion above the residency cap prefers other
/// prefetched lines; everything else is plain LRU.
fn oracle_bounce_victim(t: &TagArray, line: u64, prefetched: bool, over_cap: bool) -> usize {
    let mut best = 0;
    let mut best_key = (u64::MAX, u64::MAX);
    for w in 0..ways(t) {
        let e = t.entry(line, w);
        let key = if !e.valid {
            (0, 0)
        } else if prefetched && over_cap && e.prefetched {
            (1, e.lru)
        } else {
            (2, e.lru)
        };
        if key < best_key {
            best_key = key;
            best = w;
        }
    }
    best
}

/// A tag from a pool of four per set, so sets of 8 ways hold duplicates.
fn pool_line(rng: &mut SplitMix64, set: u64) -> u64 {
    set + SETS * rng.below(4)
}

/// A random array: every way installed once in a random order (unique
/// stamps, as the array's own clock hands out), then about a quarter of
/// them invalidated in place, keeping their stale tag and stamp.
fn random_array(rng: &mut SplitMix64, ways: u32) -> TagArray {
    let mut t = TagArray::new(CacheGeometry::new(SETS * ways as u64 * 32, 32, ways));
    let mut slots: Vec<(u64, usize)> = (0..SETS)
        .flat_map(|s| (0..ways as usize).map(move |w| (s, w)))
        .collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.index(i + 1));
    }
    for (set, way) in slots {
        let line = pool_line(rng, set);
        let entry = Entry {
            dirty: rng.chance(0.3),
            temporal: rng.chance(0.5),
            prefetched: rng.chance(0.3),
            ..Entry::INVALID
        };
        t.install(line, way, entry);
        if rng.chance(0.25) {
            let idx = base_of(&t, line) + way;
            t.entry_at_mut(idx).valid = false;
        }
    }
    t
}

/// A query line: usually from the set's pool (hits and misses on a
/// resident tag), sometimes one that is never installed.
fn query(rng: &mut SplitMix64) -> u64 {
    let set = rng.below(SETS);
    if rng.chance(0.8) {
        pool_line(rng, set)
    } else {
        set + SETS * (100 + rng.below(4))
    }
}

fn for_each_case(mut f: impl FnMut(&mut SplitMix64, TagArray)) {
    for ways in [1u32, 2, 4, 8] {
        for case in 0..CASES {
            let mut rng = SplitMix64::seed_from_u64(0x5CA7_0000 + ways as u64 * 0x1_0000 + case);
            let t = random_array(&mut rng, ways);
            f(&mut rng, t);
        }
    }
}

#[test]
fn lookups_find_the_first_matching_way() {
    for_each_case(|rng, t| {
        for _ in 0..4 {
            let line = query(rng);
            assert_eq!(t.peek(line), oracle_peek_as(&t, line, line), "peek {line}");
            let tag = query(rng);
            assert_eq!(
                t.peek_as(line, tag),
                oracle_peek_as(&t, line, tag),
                "peek_as"
            );
        }
    });
}

#[test]
fn probe_finds_the_first_way_and_stamps_only_it() {
    for_each_case(|rng, t| {
        let line = query(rng);
        let want = oracle_peek_as(&t, line, line);
        let mut after = t.clone();
        assert_eq!(after.probe(line), want, "probe {line}");
        let newest = entries(&t).iter().map(|e| e.lru).max().unwrap_or(0);
        for (i, (old, new)) in entries(&t).iter().zip(&entries(&after)).enumerate() {
            if Some(i) == want {
                assert!(new.lru > newest, "hit is stamped most recent");
                assert_eq!(Entry { lru: 0, ..*new }, Entry { lru: 0, ..*old });
            } else {
                assert_eq!(new, old, "probe touches only the hit");
            }
        }
    });
}

#[test]
fn take_and_invalidate_remove_the_first_matching_way() {
    for_each_case(|rng, t| {
        let line = query(rng);
        let want = oracle_peek_as(&t, line, line);
        let base = base_of(&t, line);

        let mut taken = t.clone();
        let got = taken.take(line);
        assert_eq!(got, want.map(|i| (i - base, *t.entry_at(i))), "take {line}");
        let mut invalidated = t.clone();
        let gone = invalidated.invalidate(line);
        assert_eq!(gone, want.map(|i| *t.entry_at(i)), "invalidate {line}");
        let mut taken_as = t.clone();
        assert_eq!(taken_as.take_as(line, line), got, "take_as");

        for after in [&taken, &invalidated, &taken_as] {
            for (i, (old, new)) in entries(&t).iter().zip(&entries(after)).enumerate() {
                let expect = if Some(i) == want {
                    Entry::INVALID
                } else {
                    *old
                };
                assert_eq!(*new, expect, "slot {i}");
            }
        }
    });
}

#[test]
fn victim_choices_match_the_tuple_key_oracles() {
    for_each_case(|rng, t| {
        let line = query(rng);
        assert_eq!(t.victim_way(line), oracle_victim_way(&t, line), "LRU");
        assert_eq!(
            t.victim(line, Evict::NonTemporalFirst),
            oracle_victim_nontemporal(&t, line),
            "non-temporal first"
        );
        // The bounce-back choice: `PrefetchedFirst` for a prefetched
        // arrival over the cap, plain LRU otherwise.
        for (prefetched, over_cap) in [(false, false), (true, false), (true, true)] {
            let evict = if prefetched && over_cap {
                Evict::PrefetchedFirst
            } else {
                Evict::Lru
            };
            assert_eq!(
                t.victim(line, evict),
                oracle_bounce_victim(&t, line, prefetched, over_cap),
                "bounce-back victim, prefetched {prefetched}, over cap {over_cap}"
            );
        }
    });
}

#[test]
fn single_pass_answers_match_the_separate_scans() {
    for_each_case(|rng, t| {
        let line = query(rng);
        for evict in [Evict::Lru, Evict::NonTemporalFirst, Evict::PrefetchedFirst] {
            let want = match oracle_peek_as(&t, line, line) {
                Some(idx) => Ok(idx),
                None => Err(t.victim(line, evict)),
            };
            assert_eq!(t.lookup(line, evict), want, "lookup {evict:?}");
            let mut after = t.clone();
            let got = after.take_or_victim(line, evict);
            let mut taken = t.clone();
            match (got, want) {
                (Ok(hit), Ok(_)) => assert_eq!(Some(hit), taken.take(line)),
                (Err(way), Err(w)) => assert_eq!(way, w),
                (got, want) => panic!("take_or_victim {got:?}, want {want:?}"),
            }
            assert_eq!(entries(&after), entries(&taken), "same removal");
        }
    });
}

#[test]
fn random_sets_cover_the_interesting_states() {
    // Without duplicates, invalid ways and mixed classes the properties
    // above could not tell first-match from last-match or `<` from `<=`.
    let (mut dup, mut invalid_pairs, mut mixed) = (false, false, false);
    for_each_case(|_, t| {
        let w = ways(&t);
        for set in entries(&t).chunks(w) {
            let valid: Vec<&Entry> = set.iter().filter(|e| e.valid).collect();
            dup |= valid
                .iter()
                .enumerate()
                .any(|(i, a)| valid[..i].iter().any(|b| b.line == a.line));
            invalid_pairs |= set.iter().filter(|e| !e.valid).count() >= 2;
            mixed |= valid.iter().any(|e| e.temporal) && valid.iter().any(|e| !e.temporal);
        }
    });
    assert!(dup && invalid_pairs && mixed);
}
