//! The benchmark suite: named, pre-generated traces.

use crate::store::ResultStore;
use crate::{runner, Config};
use sac_loopir::TraceOptions;
use sac_simcache::Metrics;
use sac_trace::Trace;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A set of named benchmark traces, generated once and reused across
/// figures (trace generation is deterministic, so every figure sees the
/// identical reference streams — as in the paper, where the time
/// information is recorded in the trace itself).
///
/// Traces are held behind [`Arc`] so the parallel sweep runner can hand
/// the same parsed trace to every worker without copying it per cell,
/// and generation itself is sharded across workers (one benchmark per
/// cell; the order of `entries` is always the workload order, never the
/// completion order).
#[derive(Debug, Clone)]
pub struct Suite {
    entries: Vec<(String, Arc<Trace>)>,
    // Completed (benchmark, config) cells. Suite traces are generated
    // once and never mutated, so the same cell names the same
    // deterministic simulation wherever it appears; figures that share
    // columns (Stand., Soft., ...) reuse the result instead of
    // replaying. Shared across clones, like the traces themselves.
    results: Arc<Mutex<HashMap<(String, String), Metrics>>>,
    // The optional on-disk tier behind `results`: content-addressed by
    // trace hash + config + engine version, so it survives across
    // processes (warm sweeps skip replay entirely).
    store: Option<Arc<StoreHandle>>,
}

/// An attached [`ResultStore`] plus the per-benchmark trace content
/// hashes, computed once at attach time so lookups are O(1).
#[derive(Debug)]
struct StoreHandle {
    store: ResultStore,
    hashes: HashMap<String, u64>,
}

impl Suite {
    /// The nine paper benchmarks at paper scale. Generation takes a few
    /// seconds; intended for `--release` harness runs.
    pub fn paper() -> Self {
        Suite::from_programs(sac_workloads::benchset())
    }

    /// Scaled-down versions of the nine benchmarks, for tests, examples
    /// and debug builds.
    pub fn small() -> Self {
        Suite::from_programs(sac_workloads::benchset_small())
    }

    /// The paper-scale suite with the variable-virtual-line level
    /// analysis enabled (§3.2 extension experiments).
    pub fn paper_leveled() -> Self {
        Suite::from_programs_with(sac_workloads::benchset(), true)
    }

    /// The scaled-down suite with spatial levels enabled.
    pub fn small_leveled() -> Self {
        Suite::from_programs_with(sac_workloads::benchset_small(), true)
    }

    fn from_programs(programs: Vec<sac_loopir::Program>) -> Self {
        Suite::from_programs_with(programs, false)
    }

    fn from_programs_with(programs: Vec<sac_loopir::Program>, levels: bool) -> Self {
        let entries = runner::par_map(&programs, |i, p| {
            let opts = trace_options(i, levels);
            let label = format!("suite/{}/trace", p.name());
            let trace = runner::cell(
                label,
                || {
                    p.trace(&opts)
                        .unwrap_or_else(|e| panic!("workload {} failed to trace: {e}", p.name()))
                },
                |_| None,
            );
            (p.name().to_string(), Arc::new(trace))
        });
        Suite {
            entries,
            results: Arc::new(Mutex::new(HashMap::new())),
            store: None,
        }
    }

    /// Attaches a content-addressed on-disk result store behind the
    /// in-memory cell memo: lookups fall through memo → disk, and fresh
    /// results are written to both, so a later process over the same
    /// traces (a *warm sweep*) skips replay entirely. Each trace's
    /// content hash is computed once here, not per lookup.
    pub fn attach_store(&mut self, store: ResultStore) {
        let hashes = self
            .entries
            .iter()
            .map(|(name, trace)| (name.clone(), trace.content_hash()))
            .collect();
        self.store = Some(Arc::new(StoreHandle { store, hashes }));
    }

    /// The cached metrics of an earlier `(benchmark, config)` cell over
    /// this suite — from the in-process memo, or from the attached
    /// on-disk store (written by any earlier process over the same
    /// trace content). Store hits are promoted into the memo; the
    /// `store.hits` / `store.misses` counters track disk outcomes only.
    ///
    /// Both tiers key on [`Config::canonical`], so configurations that
    /// behave identically share one cell.
    pub(crate) fn cached(&self, bench: &str, config: &Config) -> Option<Metrics> {
        let config = &config.canonical();
        let key = (bench.to_string(), format!("{config:?}"));
        if let Some(m) = self.results.lock().expect("suite cache").get(&key).copied() {
            return Some(m);
        }
        let handle = self.store.as_ref()?;
        let hash = *handle.hashes.get(bench)?;
        match handle.store.load(hash, config) {
            Some(m) => {
                runner::counter_add("store.hits", 1);
                self.results.lock().expect("suite cache").insert(key, m);
                Some(m)
            }
            None => {
                runner::counter_add("store.misses", 1);
                None
            }
        }
    }

    /// Records a completed `(benchmark, config)` cell for reuse by later
    /// figures over this suite, and persists it to the attached store
    /// (if any) for later processes. A store write failure is reported
    /// but not fatal — the store is a cache, never the source of truth.
    pub(crate) fn store(&self, bench: &str, config: &Config, metrics: Metrics) {
        let config = &config.canonical();
        let key = (bench.to_string(), format!("{config:?}"));
        self.results
            .lock()
            .expect("suite cache")
            .insert(key, metrics);
        if let Some(handle) = &self.store {
            if let Some(&hash) = handle.hashes.get(bench) {
                if let Err(e) = handle.store.save(hash, config, &metrics) {
                    eprintln!("warning: result store write failed: {e}");
                }
            }
        }
    }

    /// The `(name, trace)` pairs in figure order.
    pub fn entries(&self) -> &[(String, Arc<Trace>)] {
        &self.entries
    }

    /// Benchmark names in figure order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Looks up one trace by benchmark name.
    pub fn trace(&self, name: &str) -> Option<&Trace> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| &**t)
    }

    /// Total references across the suite.
    pub fn total_refs(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.len()).sum()
    }
}

/// The trace options of the `index`-th program of a benchmark set: each
/// program gets its own gap-model seed, so every figure that traces the
/// same set (held in a [`Suite`] or streamed) sees the same references.
pub(crate) fn trace_options(index: usize, levels: bool) -> TraceOptions {
    TraceOptions {
        seed: 0x5AC0 + index as u64,
        gaps: true,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_has_the_nine_benchmarks() {
        let s = Suite::small();
        assert_eq!(s.entries().len(), 9);
        assert!(s.trace("MV").is_some());
        assert!(s.trace("nope").is_none());
        assert!(s.total_refs() > 50_000);
    }

    #[test]
    fn leveled_suite_attaches_levels() {
        let s = Suite::small_leveled();
        let mv = s.trace("MV").unwrap();
        assert!(mv.iter().any(|a| a.spatial_level() > 0));
        let plain = Suite::small();
        assert!(plain
            .trace("MV")
            .unwrap()
            .iter()
            .all(|a| a.spatial_level() == 0));
    }

    #[test]
    fn suites_are_deterministic() {
        let a = Suite::small();
        let b = Suite::small();
        assert_eq!(a.trace("MV"), b.trace("MV"));
    }

    #[test]
    fn attached_store_feeds_a_fresh_suite() {
        let dir = std::env::temp_dir()
            .join("sac-store-tests")
            .join(format!("suite-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let mut cold = Suite::small();
        cold.attach_store(ResultStore::open(&dir).unwrap());
        let cfg = Config::standard();
        assert!(cold.cached("MV", &cfg).is_none());
        let m = Metrics {
            refs: 42,
            ..Metrics::default()
        };
        cold.store("MV", &cfg, m);

        // A brand-new suite over the same deterministic traces sees the
        // cell without replaying, via the shared directory.
        let mut warm = Suite::small();
        assert!(warm.cached("MV", &cfg).is_none(), "no store attached yet");
        warm.attach_store(ResultStore::open(&dir).unwrap());
        assert_eq!(warm.cached("MV", &cfg), Some(m));
        // But a different config is still a miss.
        assert!(warm.cached("MV", &Config::standard_victim()).is_none());
    }
}
