//! An independent oracle for the coherent multi-core memory system.
//!
//! [`oracle::Model`] is a deliberately naive per-access model in the
//! style of a textbook MESI/Dragon simulator: per CPU a `HashMap` from
//! line to protocol state plus one LRU `Vec` per set, the protocol
//! tables written out as `match` arms, and every price a literal of the
//! paper's arithmetic (a hit costs 1, a memory fill `t_lat + LS/w_b`, a
//! cache-to-cache fill `SNOOP_CYCLES + LS/w_b`, a BusUpgr or word update
//! `SNOOP_CYCLES`). It shares no code with the simulator's protocol
//! tables, tag array or write buffer; only the counter structs it is
//! compared through (`Metrics`, `CpuCoherence`) and `Access` come from
//! the crate.
//!
//! Seeded SplitMix64 traces at 2–4 CPUs drive both, and after *every*
//! access each CPU's `Metrics` and `CpuCoherence` and the bus totals
//! must agree, on the standard geometry, an 8-set direct-mapped one and
//! a 2-way one. Every gap between accesses is at least 20 cycles, so
//! write buffers have always drained by the next access: no write-buffer
//! stall and no write-buffer forward can occur (the forward race is
//! pinned by family 4 of `coherence_invariants.rs`).

use software_assisted_caches::simcache::{
    CacheGeometry, CoherenceProtocol, CoherentSystem, Dragon, MemoryModel, Mesi,
};
use software_assisted_caches::trace::rng::SplitMix64;
use software_assisted_caches::trace::{Access, Trace};

mod oracle {
    use software_assisted_caches::simcache::{CpuCoherence, Metrics};
    use software_assisted_caches::trace::Access;
    use std::collections::HashMap;

    /// The paper's memory model: 20-cycle latency, 16-byte bus.
    const T_LAT: u64 = 20;
    const BUS_BYTES: u64 = 16;
    /// Address phase plus wired-OR snoop answer.
    const SNOOP: u64 = 2;
    const WORD: u64 = 8;

    /// A valid copy's state (an absent line is Invalid).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum St {
        Modified,
        Exclusive,
        Shared,
        /// Dragon's Sm: dirty, other copies may exist.
        SharedModified,
    }

    impl St {
        fn dirty(self) -> bool {
            matches!(self, St::Modified | St::SharedModified)
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Protocol {
        Mesi,
        Dragon,
    }

    struct Cpu {
        state: HashMap<u64, St>,
        /// Words touched since the fill, per cached line.
        words: HashMap<u64, u64>,
        /// Per set, the cached lines from least to most recently used.
        lru: Vec<Vec<u64>>,
        metrics: Metrics,
        coh: CpuCoherence,
    }

    pub struct Model {
        proto: Protocol,
        line_bytes: u64,
        sets: u64,
        ways: usize,
        cpus: Vec<Cpu>,
        pub bus_transactions: u64,
        pub bus_occupancy: u64,
    }

    impl Model {
        pub fn new(proto: Protocol, size: u64, line_bytes: u64, ways: u64, cpus: usize) -> Self {
            let sets = size / line_bytes / ways;
            Model {
                proto,
                line_bytes,
                sets,
                ways: ways as usize,
                cpus: (0..cpus)
                    .map(|_| Cpu {
                        state: HashMap::new(),
                        words: HashMap::new(),
                        lru: vec![Vec::new(); sets as usize],
                        metrics: Metrics::new(),
                        coh: CpuCoherence::default(),
                    })
                    .collect(),
                bus_transactions: 0,
                bus_occupancy: 0,
            }
        }

        pub fn metrics(&self, cpu: usize) -> &Metrics {
            &self.cpus[cpu].metrics
        }

        pub fn coherence(&self, cpu: usize) -> &CpuCoherence {
            &self.cpus[cpu].coh
        }

        fn transfer(&self) -> u64 {
            self.line_bytes / BUS_BYTES
        }

        fn set(&self, line: u64) -> usize {
            (line % self.sets) as usize
        }

        fn touch(&mut self, cpu: usize, line: u64) {
            let set = self.set(line);
            let lru = &mut self.cpus[cpu].lru[set];
            lru.retain(|&l| l != line);
            lru.push(line);
        }

        fn drop_copy(&mut self, cpu: usize, line: u64) -> u64 {
            let set = self.set(line);
            let c = &mut self.cpus[cpu];
            c.state.remove(&line);
            c.lru[set].retain(|&l| l != line);
            c.words.remove(&line).unwrap_or(0)
        }

        fn bus(&mut self, occupancy: u64) {
            self.bus_transactions += 1;
            self.bus_occupancy += occupancy;
        }

        pub fn access(&mut self, a: &Access) {
            let cpu = a.cpu() as usize;
            let write = a.kind().is_write();
            let line = a.addr() / self.line_bytes;
            let bit = ((a.addr() % self.line_bytes) / WORD).min(63);
            let m = &mut self.cpus[cpu].metrics;
            m.refs += 1;
            if write {
                m.writes += 1;
            } else {
                m.reads += 1;
            }
            let cost = match self.cpus[cpu].state.get(&line).copied() {
                Some(st) => self.hit(cpu, line, bit, st, write),
                None => self.miss(cpu, line, bit, write),
            };
            self.cpus[cpu].metrics.mem_cycles += cost;
        }

        fn others_holding(&self, cpu: usize, line: u64) -> Vec<usize> {
            (0..self.cpus.len())
                .filter(|&c| c != cpu && self.cpus[c].state.contains_key(&line))
                .collect()
        }

        fn hit(&mut self, cpu: usize, line: u64, bit: u64, st: St, write: bool) -> u64 {
            self.cpus[cpu].metrics.main_hits += 1;
            self.touch(cpu, line);
            *self.cpus[cpu].words.entry(line).or_default() |= 1 << bit;
            let mut cost = 1;
            if !write {
                return cost;
            }
            let sharers = self.others_holding(cpu, line);
            let next = match (self.proto, st) {
                (_, St::Modified | St::Exclusive) => St::Modified,
                (Protocol::Mesi, _) => {
                    // BusUpgr: every other copy is invalidated.
                    cost += SNOOP;
                    self.bus(SNOOP);
                    self.cpus[cpu].coh.upgrades += 1;
                    for c in sharers {
                        self.invalidate(c, cpu, line, bit);
                    }
                    St::Modified
                }
                (Protocol::Dragon, _) if sharers.is_empty() => St::Modified,
                (Protocol::Dragon, _) => {
                    // BusUpd: the written word goes to every other copy.
                    cost += SNOOP;
                    self.bus(SNOOP);
                    self.update(cpu, line, &sharers);
                    St::SharedModified
                }
            };
            self.cpus[cpu].state.insert(line, next);
            cost
        }

        fn invalidate(&mut self, victim: usize, writer: usize, line: u64, bit: u64) {
            let words = self.drop_copy(victim, line);
            let v = &mut self.cpus[victim].coh;
            v.invalidations_received += 1;
            if words >> bit & 1 == 0 {
                v.false_sharing_invalidations += 1;
            }
            self.cpus[writer].coh.invalidations_sent += 1;
        }

        fn update(&mut self, writer: usize, line: u64, sharers: &[usize]) {
            for &c in sharers {
                self.cpus[c].state.insert(line, St::Shared);
            }
            self.cpus[writer].coh.updates += 1;
        }

        fn miss(&mut self, cpu: usize, line: u64, bit: u64, write: bool) -> u64 {
            self.cpus[cpu].metrics.misses += 1;
            let mut supplied = false;
            let mut left = Vec::new();
            for c in self.others_holding(cpu, line) {
                let st = self.cpus[c].state[&line];
                match (self.proto, write, st) {
                    // MESI BusRd: M flushes and supplies, E/S supply; all
                    // end Shared.
                    (Protocol::Mesi, false, _) => {
                        if st == St::Modified {
                            self.flush(c);
                        }
                        supplied = true;
                        self.cpus[c].state.insert(line, St::Shared);
                        left.push(c);
                    }
                    // MESI BusRdX: M flushes and supplies, E supplies, S
                    // does not; every copy is invalidated.
                    (Protocol::Mesi, true, _) => {
                        if st == St::Modified {
                            self.flush(c);
                        }
                        supplied |= st != St::Shared;
                        self.invalidate(c, cpu, line, bit);
                    }
                    // Dragon BusRd (a write miss reads, then updates):
                    // every copy supplies; a dirty owner stays the owner
                    // without touching memory.
                    (Protocol::Dragon, _, _) => {
                        supplied = true;
                        let next = if st.dirty() {
                            St::SharedModified
                        } else {
                            St::Shared
                        };
                        self.cpus[c].state.insert(line, next);
                        left.push(c);
                    }
                }
            }
            let transfer = self.transfer();
            let mut cost = if supplied {
                self.cpus[cpu].coh.c2c_fills += 1;
                SNOOP + transfer
            } else {
                T_LAT + transfer
            };
            self.bus(transfer);
            let words_per_line = self.line_bytes / WORD;
            let m = &mut self.cpus[cpu].metrics;
            m.lines_fetched += 1;
            m.words_fetched += words_per_line;
            // LRU replacement in the line's set.
            let set = self.set(line);
            if self.cpus[cpu].lru[set].len() == self.ways {
                let old = self.cpus[cpu].lru[set][0];
                let old_state = self.cpus[cpu].state[&old];
                self.drop_copy(cpu, old);
                if old_state.dirty() {
                    self.cpus[cpu].metrics.writebacks += 1;
                }
            }
            let shared = !left.is_empty();
            let st = match (self.proto, write, shared) {
                (_, false, false) => St::Exclusive,
                (_, false, true) => St::Shared,
                (Protocol::Mesi, true, _) | (Protocol::Dragon, true, false) => St::Modified,
                (Protocol::Dragon, true, true) => St::SharedModified,
            };
            let c = &mut self.cpus[cpu];
            c.state.insert(line, st);
            c.words.insert(line, 1 << bit);
            c.lru[set].push(line);
            if self.proto == Protocol::Dragon && write && shared {
                cost += SNOOP;
                self.bus(SNOOP);
                self.update(cpu, line, &left);
            }
            cost
        }

        /// A dirty owner's flush: one line of bus beats and a write-back,
        /// hidden behind the requester's transaction.
        fn flush(&mut self, owner: usize) {
            let transfer = self.transfer();
            self.bus(transfer);
            self.cpus[owner].metrics.writebacks += 1;
        }
    }
}

use oracle::{Model, Protocol};

/// `len` references spread at random over `cpus` CPUs: half go to eight
/// hot lines every CPU shares, half to a pool four times the cache's
/// size (so sets conflict), at a random word of the line, 40% writes,
/// every gap 20–27 cycles.
fn random_trace(seed: u64, cpus: usize, len: usize, geom: CacheGeometry) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut t = Trace::new("oracle");
    let words = geom.line_bytes() / 8;
    for _ in 0..len {
        let line = if rng.chance(0.5) {
            rng.below(8)
        } else {
            rng.below(4 * geom.lines())
        };
        let addr = line * geom.line_bytes() + rng.below(words) * 8;
        let a = if rng.chance(0.4) {
            Access::write(addr)
        } else {
            Access::read(addr)
        };
        t.push(
            a.with_cpu(rng.below(cpus as u64) as u8)
                .with_gap(20 + rng.below(8) as u32),
        );
    }
    t
}

fn check<Proto: CoherenceProtocol>(proto: Protocol, geom: CacheGeometry) {
    for case in 0..6u64 {
        let cpus = 2 + (case % 3) as usize;
        let seed = 0xAC1E_0000 + case * 7919 + geom.lines();
        let trace = random_trace(seed, cpus, 3_000, geom);
        let mut sys: CoherentSystem<Proto> =
            CoherentSystem::new(geom, MemoryModel::default(), cpus);
        let mut model = Model::new(
            proto,
            geom.lines() * geom.line_bytes(),
            geom.line_bytes(),
            geom.ways() as u64,
            cpus,
        );
        for (i, a) in trace.iter().enumerate() {
            sys.access(a);
            model.access(a);
            let at = format!("{proto:?} {geom} case {case} ({cpus} CPUs), access {i}");
            for c in 0..cpus {
                assert_eq!(
                    sys.core_metrics(c),
                    model.metrics(c),
                    "{at}: cpu {c} metrics"
                );
                assert_eq!(
                    &sys.stats().per_cpu()[c],
                    model.coherence(c),
                    "{at}: cpu {c} coherence"
                );
            }
            assert_eq!(
                [sys.bus().transactions(), sys.bus().occupancy_cycles()],
                [model.bus_transactions, model.bus_occupancy],
                "{at}: bus totals"
            );
        }
        // The traces must exercise what the oracle models.
        let t = sys.stats().totals();
        let m = sys.metrics();
        assert!(
            m.writebacks > 0 && m.misses > 0,
            "{proto:?} {geom}: no misses"
        );
        assert!(t.c2c_fills > 0, "{proto:?} {geom}: no sharing");
        match proto {
            Protocol::Mesi => assert!(
                t.upgrades > 0 && t.false_sharing_invalidations > 0,
                "{proto:?} {geom}: {t:?}"
            ),
            Protocol::Dragon => assert!(t.updates > 0, "{proto:?} {geom}: {t:?}"),
        }
    }
}

fn geometries() -> [CacheGeometry; 3] {
    [
        CacheGeometry::standard(),
        // 8 sets, direct-mapped.
        CacheGeometry::new(256, 32, 1),
        // 4 sets, 2-way.
        CacheGeometry::new(256, 32, 2),
    ]
}

#[test]
fn mesi_matches_the_naive_model_after_every_access() {
    for geom in geometries() {
        check::<Mesi>(Protocol::Mesi, geom);
    }
}

#[test]
fn dragon_matches_the_naive_model_after_every_access() {
    for geom in geometries() {
        check::<Dragon>(Protocol::Dragon, geom);
    }
}
