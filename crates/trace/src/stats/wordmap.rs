//! A minimal open-addressing `u64 → u64` map for trace analysis passes.
//!
//! The reuse pass's sparse fallback inserts one entry per distinct data
//! word and performs one lookup-or-insert per reference — millions of
//! operations on a large external trace — and the vector-length pass maps
//! each reference's instruction id to its stream slot.
//! `std::collections::HashMap`'s DoS-resistant SipHash dominates such
//! loops; word addresses and instruction ids are not adversarial, so a
//! multiply-shift (Fibonacci) hash with linear probing is both sufficient
//! and several times faster.

/// Lookup-or-insert map from `u64` keys to `u64` values, open addressing
/// with linear probing and power-of-two capacity.
pub(crate) struct WordMap {
    /// Slot keys, offset by +1 so 0 marks an empty slot.
    keys: Vec<u64>,
    values: Vec<u64>,
    len: usize,
    mask: usize,
}

impl WordMap {
    /// Creates a map sized for roughly `expected` distinct keys.
    pub(crate) fn with_capacity(expected: usize) -> Self {
        // Keep load factor at or below 0.5.
        let cap = (expected.max(8) * 2).next_power_of_two();
        WordMap {
            keys: vec![0; cap],
            values: vec![0; cap],
            len: 0,
            mask: cap - 1,
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and keep the high bits.
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) as usize & self.mask
    }

    /// The slot holding `key` (`Ok`), or the empty slot where it would
    /// go (`Err`).
    #[inline]
    fn find(&self, key: u64) -> Result<usize, usize> {
        let stored = key.wrapping_add(1);
        debug_assert_ne!(stored, 0, "key u64::MAX unsupported");
        let mut slot = self.slot_of(key);
        loop {
            match self.keys[slot] {
                k if k == stored => return Ok(slot),
                0 => return Err(slot),
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    /// Stores a new key in the empty slot [`WordMap::find`] returned.
    #[inline]
    fn fill(&mut self, slot: usize, key: u64, value: u64) {
        self.keys[slot] = key.wrapping_add(1);
        self.values[slot] = value;
        self.len += 1;
        if self.len * 2 > self.keys.len() {
            self.grow();
        }
    }

    /// Inserts `value` under `key`, returning the previous value if the
    /// key was present (the same contract as `HashMap::insert`).
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        match self.find(key) {
            Ok(slot) => Some(std::mem::replace(&mut self.values[slot], value)),
            Err(slot) => {
                self.fill(slot, key, value);
                None
            }
        }
    }

    /// The value under `key`, inserting `value` first if the key is
    /// absent (`*HashMap::entry(key).or_insert(value)`).
    #[inline]
    pub(crate) fn get_or_insert(&mut self, key: u64, value: u64) -> u64 {
        match self.find(key) {
            Ok(slot) => self.values[slot],
            Err(slot) => {
                self.fill(slot, key, value);
                value
            }
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_values = std::mem::take(&mut self.values);
        let cap = old_keys.len() * 2;
        self.keys = vec![0; cap];
        self.values = vec![0; cap];
        self.mask = cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_values) {
            if k == 0 {
                continue;
            }
            let mut slot = self.slot_of(k.wrapping_sub(1));
            while self.keys[slot] != 0 {
                slot = (slot + 1) & self.mask;
            }
            self.keys[slot] = k;
            self.values[slot] = v;
        }
    }

    /// Number of distinct keys stored.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_returns_previous_value() {
        let mut m = WordMap::with_capacity(4);
        assert_eq!(m.insert(10, 1), None);
        assert_eq!(m.insert(10, 2), Some(1));
        assert_eq!(m.insert(10, 3), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = WordMap::with_capacity(4);
        for k in 0..10_000u64 {
            assert_eq!(m.insert(k * 8, k), None);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.insert(k * 8, 0), Some(k));
        }
    }

    #[test]
    fn get_or_insert_keeps_the_first_value() {
        let mut m = WordMap::with_capacity(4);
        for k in 0..100u64 {
            assert_eq!(m.get_or_insert(k << 40, k), k);
        }
        for k in 0..100u64 {
            assert_eq!(m.get_or_insert(k << 40, 999), k);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.insert(0, 7), Some(0));
        assert_eq!(m.get_or_insert(0, 8), 7);
    }

    #[test]
    fn colliding_keys_coexist() {
        let mut m = WordMap::with_capacity(8);
        // Keys a power-of-two capacity apart often share a slot.
        for k in [0u64, 16, 32, 48, 64] {
            m.insert(k, k + 1);
        }
        for k in [0u64, 16, 32, 48, 64] {
            assert_eq!(m.insert(k, 0), Some(k + 1));
        }
    }

    #[test]
    fn matches_std_hashmap_on_random_keys() {
        use std::collections::HashMap;
        let mut rng = crate::rng::SplitMix64::seed_from_u64(7);
        let mut ours = WordMap::with_capacity(16);
        let mut std_map = HashMap::new();
        for _ in 0..50_000 {
            let k = rng.next_u64() % 5_000;
            let v = rng.next_u64();
            assert_eq!(ours.insert(k, v), std_map.insert(k, v));
        }
    }
}
