//! Content-addressed on-disk result store: warm sweeps skip replay.
//!
//! A simulation cell is a pure function of three inputs — the reference
//! stream, the cache configuration, and the replay engine itself — so
//! its [`Metrics`] can be memoized on disk under a key derived from
//! exactly those three:
//!
//! * **trace**: [`sac_trace::Trace::content_hash`] over every access's
//!   fields (name excluded). Regenerating a benchmark deterministically
//!   reuses stored results; any change to a workload generator changes
//!   the hash and silently invalidates them.
//! * **config**: the `Debug` rendering of [`Config`], which spells out
//!   every geometry/memory/policy parameter ([`Config`] carries no `Hash`
//!   impl, and the string doubles as a human-readable echo in the file).
//! * **engine**: [`ENGINE_VERSION`], bumped whenever a replay-semantics
//!   change alters any counter — the invalidation lever for "same inputs,
//!   different simulator".
//!
//! Entries are small plain-text files (one `name = value` line per
//! counter, key echoed in full) written via write-temp-then-rename, so
//! concurrent sweep workers — or concurrent `figures` processes sharing
//! a store directory — never observe a torn entry: `rename(2)` is atomic
//! on POSIX, and the last writer of an identical result wins harmlessly.
//! Any unreadable, mismatched, or truncated entry is treated as a miss
//! and replaced by a fresh replay; the store can be deleted at any time.

use crate::Config;
use sac_simcache::Metrics;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Version of the replay engine's observable semantics. Bump this when a
/// change alters any [`Metrics`] counter for some trace/config pair —
/// every stored result keyed to the old version then misses and is
/// recomputed, instead of silently serving stale numbers.
pub const ENGINE_VERSION: u32 = 1;

/// The store's on-disk format version: the file layout and the trace key
/// construction, not simulation semantics. v2 keys traces with the
/// word-wise [`sac_trace::Trace::content_hash`]; v1 entries, keyed with
/// its older byte-wise FNV-1a, are refused even if the two hashes of
/// different traces happen to collide.
const FORMAT_HEADER: &str = "# sac result store v2";

/// FNV-1a-64 over a byte string, used to fold the config's `Debug`
/// rendering into a fixed-width filename component (the line is a few
/// hundred bytes, so byte-wise hashing costs nothing here).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The named counters of a [`Metrics`] — one table drives both
/// serialization and parsing, so the two cannot drift apart.
fn fields(m: &Metrics) -> [(&'static str, u64); 16] {
    [
        ("refs", m.refs),
        ("reads", m.reads),
        ("writes", m.writes),
        ("main_hits", m.main_hits),
        ("aux_hits", m.aux_hits),
        ("misses", m.misses),
        ("bypasses", m.bypasses),
        ("mem_cycles", m.mem_cycles),
        ("lines_fetched", m.lines_fetched),
        ("words_fetched", m.words_fetched),
        ("writebacks", m.writebacks),
        ("bounces", m.bounces),
        ("swaps", m.swaps),
        ("prefetches", m.prefetches),
        ("useful_prefetches", m.useful_prefetches),
        ("stall_cycles", m.stall_cycles),
    ]
}

/// Assigns one named counter; `false` for an unknown name (a future
/// counter this build does not know — the entry is rejected as a miss).
fn set_field(m: &mut Metrics, name: &str, v: u64) -> bool {
    let slot = match name {
        "refs" => &mut m.refs,
        "reads" => &mut m.reads,
        "writes" => &mut m.writes,
        "main_hits" => &mut m.main_hits,
        "aux_hits" => &mut m.aux_hits,
        "misses" => &mut m.misses,
        "bypasses" => &mut m.bypasses,
        "mem_cycles" => &mut m.mem_cycles,
        "lines_fetched" => &mut m.lines_fetched,
        "words_fetched" => &mut m.words_fetched,
        "writebacks" => &mut m.writebacks,
        "bounces" => &mut m.bounces,
        "swaps" => &mut m.swaps,
        "prefetches" => &mut m.prefetches,
        "useful_prefetches" => &mut m.useful_prefetches,
        "stall_cycles" => &mut m.stall_cycles,
        _ => return false,
    };
    *slot = v;
    true
}

/// A directory of memoized simulation results, keyed by
/// `(trace content, config, engine version)`.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// An empty path is [`io::ErrorKind::InvalidInput`]: the store would
    /// otherwise write its entries into the current directory. Otherwise
    /// propagates the I/O error when the directory cannot be created,
    /// with the path named.
    pub fn open<P: AsRef<Path>>(dir: P) -> io::Result<ResultStore> {
        let dir = dir.as_ref().to_path_buf();
        if dir.as_os_str().is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot open store \"\": the store path is empty",
            ));
        }
        std::fs::create_dir_all(&dir).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot create store {}: {e}", dir.display()),
            )
        })?;
        Ok(ResultStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filename for one `(trace, config)` cell under the current
    /// engine version.
    fn entry_path(&self, trace_hash: u64, config: &Config) -> PathBuf {
        let cfg = format!("{config:?}");
        self.dir.join(format!(
            "{trace_hash:016x}-{:016x}-v{ENGINE_VERSION}.metrics",
            fnv64(cfg.as_bytes())
        ))
    }

    /// Looks up the stored metrics for a cell, verifying the echoed key.
    /// Any missing, unreadable, or inconsistent entry is a miss.
    pub fn load(&self, trace_hash: u64, config: &Config) -> Option<Metrics> {
        let text = std::fs::read_to_string(self.entry_path(trace_hash, config)).ok()?;
        parse_entry(&text, trace_hash, &format!("{config:?}"))
    }

    /// Stores the metrics for a cell via write-temp-then-rename.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming the entry.
    pub fn save(&self, trace_hash: u64, config: &Config, m: &Metrics) -> io::Result<()> {
        let path = self.entry_path(trace_hash, config);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let mut text = String::new();
        text.push_str(FORMAT_HEADER);
        text.push('\n');
        text.push_str(&format!("trace = {trace_hash:016x}\n"));
        text.push_str(&format!("config = {config:?}\n"));
        text.push_str(&format!("engine = {ENGINE_VERSION}\n"));
        for (name, value) in fields(m) {
            text.push_str(&format!("{name} = {value}\n"));
        }
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)
    }

    /// Number of entries currently in the store (diagnostics).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|d| {
                d.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "metrics"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Parses one store entry, verifying the echoed key against the lookup
/// key; `None` on any mismatch or malformed line.
fn parse_entry(text: &str, trace_hash: u64, config_debug: &str) -> Option<Metrics> {
    let mut lines = text.lines();
    if lines.next()? != FORMAT_HEADER {
        return None;
    }
    let mut m = Metrics::default();
    let mut seen = 0usize;
    for line in lines {
        let (name, value) = line.split_once(" = ")?;
        match name {
            "trace" => {
                if u64::from_str_radix(value, 16).ok()? != trace_hash {
                    return None;
                }
            }
            "config" => {
                if value != config_debug {
                    return None;
                }
            }
            "engine" => {
                if value.parse::<u32>().ok()? != ENGINE_VERSION {
                    return None;
                }
            }
            _ => {
                if !set_field(&mut m, name, value.parse().ok()?) {
                    return None;
                }
                seen += 1;
            }
        }
    }
    // Every counter must be present — a short entry (older layout) would
    // otherwise silently read as zeros.
    (seen == fields(&m).len()).then_some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_in(name: &str) -> ResultStore {
        let dir = std::env::temp_dir()
            .join("sac-store-tests")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ResultStore::open(&dir).unwrap()
    }

    fn sample_metrics() -> Metrics {
        Metrics {
            refs: 1000,
            reads: 700,
            writes: 300,
            main_hits: 900,
            misses: 100,
            mem_cycles: 2900,
            lines_fetched: 100,
            words_fetched: 400,
            stall_cycles: 7,
            ..Metrics::default()
        }
    }

    #[test]
    fn round_trips_a_cell() {
        let store = store_in("round_trip");
        let m = sample_metrics();
        assert!(store.load(0xAB, &Config::standard()).is_none());
        store.save(0xAB, &Config::standard(), &m).unwrap();
        assert_eq!(store.load(0xAB, &Config::standard()), Some(m));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let store = store_in("distinct");
        let m = sample_metrics();
        store.save(1, &Config::standard(), &m).unwrap();
        assert!(store.load(2, &Config::standard()).is_none(), "other trace");
        assert!(
            store.load(1, &Config::standard_victim()).is_none(),
            "other config"
        );
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let store = store_in("corrupt");
        let m = sample_metrics();
        store.save(9, &Config::soft(), &m).unwrap();
        let path = store.entry_path(9, &Config::soft());

        // Truncated: a counter line missing.
        let full = std::fs::read_to_string(&path).unwrap();
        let shorter: Vec<&str> = full.lines().take(10).collect();
        std::fs::write(&path, shorter.join("\n")).unwrap();
        assert!(store.load(9, &Config::soft()).is_none());

        // Garbage.
        std::fs::write(&path, "not a store entry").unwrap();
        assert!(store.load(9, &Config::soft()).is_none());

        // A different engine version.
        let stale = full.replace(
            &format!("engine = {ENGINE_VERSION}"),
            &format!("engine = {}", ENGINE_VERSION + 1),
        );
        std::fs::write(&path, stale).unwrap();
        assert!(store.load(9, &Config::soft()).is_none());

        // Restoring the original text restores the hit.
        std::fs::write(&path, full).unwrap();
        assert_eq!(store.load(9, &Config::soft()), Some(m));
    }

    #[test]
    fn older_format_entries_read_as_misses() {
        let store = store_in("older_format");
        let m = sample_metrics();
        store.save(3, &Config::standard(), &m).unwrap();
        let path = store.entry_path(3, &Config::standard());
        let full = std::fs::read_to_string(&path).unwrap();
        assert!(full.starts_with("# sac result store v2\n"), "{full}");
        // A v1 entry (byte-wise trace key) at the looked-up path, say a
        // 64-bit collision between the two keys, is refused.
        let v1 = full.replacen("# sac result store v2", "# sac result store v1", 1);
        std::fs::write(&path, v1).unwrap();
        assert!(store.load(3, &Config::standard()).is_none());
        std::fs::write(&path, full).unwrap();
        assert_eq!(store.load(3, &Config::standard()), Some(m));
    }

    #[test]
    fn empty_path_is_refused() {
        let err = ResultStore::open("").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(
            err.to_string(),
            "cannot open store \"\": the store path is empty"
        );
    }

    #[test]
    fn save_is_atomic_rename() {
        let store = store_in("atomic");
        store
            .save(5, &Config::standard(), &sample_metrics())
            .unwrap();
        // No temp file left behind.
        let leftovers: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x != "metrics"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }
}
