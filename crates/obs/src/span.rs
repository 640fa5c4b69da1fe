//! Pipeline span tracing with Chrome-trace (Perfetto) export.
//!
//! The sweep pipeline is a tree: a *run* contains *figure*-level
//! stages, a figure contains *cells* (one grid item each — a
//! benchmark×config batch or a generated trace), and a cell replays
//! *chunks*. Each completed stage is a [`Span`] value; the sweep runner
//! collects a run's spans, and at the end of the run they are exported
//! as Chrome trace-event JSON that Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing` loads directly. This module holds only the values
//! and the pure exporters: it keeps no state of its own.
//!
//! Two export modes ([`TraceMode`]):
//!
//! * [`TraceMode::Wall`] — real microsecond offsets from run start,
//!   one track per worker thread, queue-wait and throughput args, RSS
//!   counter samples. What actually happened, for humans.
//! * [`TraceMode::Logical`] — timestamps are *synthesized from the
//!   span keys*: chunks get unit duration, cells span their chunks,
//!   figures span their cells, laid out in `(figure, item, slot,
//!   chunk)` order on a single track. Two runs of the same suite
//!   produce byte-identical logical traces at any `--jobs N`, so CI
//!   can `diff` parallel against sequential runs.
//!
//! Export order is always the deterministic key order — never
//! completion order — and wall timestamps are monotonic offsets from
//! the run's start, per the determinism contract in DESIGN.md §13. [`check_nesting`] verifies the laminar-nesting invariant (any
//! two spans on a track are disjoint or contained) that Chrome's `"X"`
//! events require; the figure suite validates its own trace before
//! writing it.

/// Where in the pipeline tree a span sits. The level decides how the
/// logical layout nests it; it is also exported as the Chrome `cat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanLevel {
    /// The whole process run (exactly one expected).
    Run,
    /// A figure or the suite-generation stage: a direct child of the
    /// run.
    Figure,
    /// One grid cell: a benchmark×config batch, a generated trace, or
    /// any other unit a pool worker executes contiguously.
    Cell,
    /// One replay chunk within a cell.
    Chunk,
}

impl SpanLevel {
    /// The Chrome `cat` string.
    pub fn cat(self) -> &'static str {
        match self {
            SpanLevel::Run => "run",
            SpanLevel::Figure => "figure",
            SpanLevel::Cell => "cell",
            SpanLevel::Chunk => "chunk",
        }
    }
}

/// The deterministic position of a span in the pipeline tree:
/// `figure` is the figure sequence number (0 = suite generation),
/// `item` the parallel-map item index within the figure, `slot` the
/// per-item sequence number of the cell, `chunk` the chunk index
/// within the cell. Export sorts on this key, so artifact order is
/// independent of completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SpanKey {
    /// Figure sequence number (0 = suite generation).
    pub figure: u32,
    /// Item index within the figure's parallel map.
    pub item: u32,
    /// Cell sequence number within the item.
    pub slot: u32,
    /// Chunk index within the cell (0 for non-chunk spans).
    pub chunk: u32,
}

/// One completed pipeline stage.
#[derive(Debug, Clone)]
pub struct Span {
    /// Display name (figure id, cell label, `chunk7`, ...).
    pub name: String,
    /// Tree level (also the Chrome `cat`).
    pub level: SpanLevel,
    /// Deterministic tree position.
    pub key: SpanKey,
    /// Recording track: 0 = main thread, `w + 1` = pool worker `w`.
    pub worker: u32,
    /// Start, µs since the run started.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Deterministic args (chunk/ref counts): exported in both modes.
    pub args: Vec<(&'static str, u64)>,
    /// Timing-dependent args (queue-wait, refs/sec): wall mode only.
    pub wall_args: Vec<(&'static str, u64)>,
}

impl Span {
    /// A span with empty arg lists.
    pub fn new(
        name: impl Into<String>,
        level: SpanLevel,
        key: SpanKey,
        worker: u32,
        start_us: u64,
        dur_us: u64,
    ) -> Self {
        Span {
            name: name.into(),
            level,
            key,
            worker,
            start_us,
            dur_us,
            args: Vec::new(),
            wall_args: Vec::new(),
        }
    }

    /// Adds a deterministic arg (builder style).
    pub fn arg(mut self, name: &'static str, value: u64) -> Self {
        self.args.push((name, value));
        self
    }

    /// Adds a wall-mode-only arg (builder style).
    pub fn wall_arg(mut self, name: &'static str, value: u64) -> Self {
        self.wall_args.push((name, value));
        self
    }
}

/// Timestamp synthesis for [`chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Real wall-clock offsets, per-worker tracks, all args, RSS
    /// counters.
    Wall,
    /// Deterministic synthetic timestamps from the span keys; only
    /// deterministic args; single track. Byte-identical across runs.
    Logical,
}

/// A span laid out on a track: the export-ready `(tid, ts, dur)` of
/// `spans[index]` under some [`TraceMode`].
#[derive(Debug, Clone, Copy)]
struct Laid {
    index: usize,
    tid: u32,
    ts: u64,
    dur: u64,
}

/// Deterministic export order: key, then level (outer first), then
/// wall start, then name.
fn sorted_indices(spans: &[Span]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..spans.len()).collect();
    idx.sort_by(|&a, &b| {
        let (sa, sb) = (&spans[a], &spans[b]);
        sa.key
            .cmp(&sb.key)
            .then(sa.level.cmp(&sb.level))
            .then(sa.start_us.cmp(&sb.start_us))
            .then(sa.name.cmp(&sb.name))
    });
    idx
}

/// Lays spans out on tracks per the mode. Wall mode copies recorded
/// timestamps onto per-worker tracks. Logical mode synthesizes
/// timestamps purely from the sorted key order: each chunk takes one
/// time unit, a cell spans its chunks (or one unit when chunkless), a
/// figure spans its cells, the run spans everything — all on track 0.
fn layout(spans: &[Span], mode: TraceMode) -> Vec<Laid> {
    let order = sorted_indices(spans);
    match mode {
        TraceMode::Wall => order
            .iter()
            .map(|&i| Laid {
                index: i,
                tid: spans[i].worker,
                ts: spans[i].start_us,
                dur: spans[i].dur_us,
            })
            .collect(),
        TraceMode::Logical => {
            let mut laid: Vec<Laid> = Vec::with_capacity(order.len());
            let mut cursor: u64 = 0;
            let mut runs: Vec<usize> = Vec::new();
            let mut i = 0;
            while i < order.len() {
                let s = &spans[order[i]];
                match s.level {
                    SpanLevel::Run => {
                        runs.push(order[i]);
                        i += 1;
                    }
                    SpanLevel::Figure => {
                        // All figure-level spans of this figure group,
                        // then the group's cells, share one extent.
                        let fig = s.key.figure;
                        let fig_start = cursor;
                        let mut fig_spans: Vec<usize> = Vec::new();
                        while i < order.len()
                            && spans[order[i]].level == SpanLevel::Figure
                            && spans[order[i]].key.figure == fig
                        {
                            fig_spans.push(order[i]);
                            i += 1;
                        }
                        while i < order.len()
                            && spans[order[i]].level > SpanLevel::Figure
                            && spans[order[i]].key.figure == fig
                        {
                            i = lay_cell(spans, &order, i, &mut cursor, &mut laid);
                        }
                        let dur = (cursor - fig_start).max(1);
                        cursor = fig_start + dur;
                        for fi in fig_spans {
                            laid.push(Laid {
                                index: fi,
                                tid: 0,
                                ts: fig_start,
                                dur,
                            });
                        }
                    }
                    SpanLevel::Cell | SpanLevel::Chunk => {
                        // Cell group without a figure-level parent.
                        i = lay_cell(spans, &order, i, &mut cursor, &mut laid);
                    }
                }
            }
            let total = cursor.max(1);
            for ri in runs {
                laid.push(Laid {
                    index: ri,
                    tid: 0,
                    ts: 0,
                    dur: total,
                });
            }
            laid.sort_by_key(|l| {
                let s = &spans[l.index];
                (s.key, s.level, s.name.clone())
            });
            laid
        }
    }
}

/// Lays out one cell group — the consecutive sorted spans sharing
/// `(figure, item, slot)` — starting at `order[i]`; returns the index
/// past the group.
fn lay_cell(
    spans: &[Span],
    order: &[usize],
    mut i: usize,
    cursor: &mut u64,
    laid: &mut Vec<Laid>,
) -> usize {
    let k = spans[order[i]].key;
    let cell_start = *cursor;
    let mut cell_spans: Vec<usize> = Vec::new();
    let mut chunks = 0u64;
    while i < order.len() {
        let s = &spans[order[i]];
        if s.level < SpanLevel::Cell
            || (s.key.figure, s.key.item, s.key.slot) != (k.figure, k.item, k.slot)
        {
            break;
        }
        if s.level == SpanLevel::Chunk {
            laid.push(Laid {
                index: order[i],
                tid: 0,
                ts: *cursor,
                dur: 1,
            });
            *cursor += 1;
            chunks += 1;
        } else {
            cell_spans.push(order[i]);
        }
        i += 1;
    }
    if chunks == 0 {
        *cursor += 1;
    }
    for ci in cell_spans {
        laid.push(Laid {
            index: ci,
            tid: 0,
            ts: cell_start,
            dur: *cursor - cell_start,
        });
    }
    i
}

/// Verifies the laminar-nesting invariant the Chrome `"X"` events
/// rely on: on every track, any two spans are either disjoint or one
/// contains the other. Returns the first violation as an error.
pub fn check_nesting(spans: &[Span], mode: TraceMode) -> Result<(), String> {
    let mut laid = layout(spans, mode);
    laid.sort_by(|a, b| {
        a.tid
            .cmp(&b.tid)
            .then(a.ts.cmp(&b.ts))
            .then(b.dur.cmp(&a.dur))
    });
    // (tid, end) stack of currently open spans.
    let mut stack: Vec<(u32, u64, usize)> = Vec::new();
    for l in &laid {
        while let Some(&(tid, end, _)) = stack.last() {
            if tid != l.tid || end <= l.ts {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(tid, end, top)) = stack.last() {
            if tid == l.tid && l.ts + l.dur > end {
                return Err(format!(
                    "span '{}' [{}, {}) on track {} overlaps '{}' ending at {}",
                    spans[l.index].name,
                    l.ts,
                    l.ts + l.dur,
                    l.tid,
                    spans[top].name,
                    end
                ));
            }
        }
        stack.push((l.tid, l.ts + l.dur, l.index));
    }
    Ok(())
}

/// Escapes a string for the body of a JSON string literal (the caller
/// adds the quotes): the workspace's one JSON string escaper.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes spans (and, in wall mode, RSS counter samples) as a
/// Chrome trace-event JSON document, in deterministic key order.
pub fn chrome_trace(spans: &[Span], rss: &[(u64, u64)], mode: TraceMode) -> String {
    let laid = layout(spans, mode);
    let mut events: Vec<String> = Vec::with_capacity(laid.len() + rss.len() + 8);
    // Track-name metadata, wall mode only (logical is single-track).
    if mode == TraceMode::Wall {
        let mut tids: Vec<u32> = laid.iter().map(|l| l.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let name = if tid == 0 {
                "main".to_string()
            } else {
                format!("worker{:02}", tid - 1)
            };
            events.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{name}\"}}}}"
            ));
        }
    }
    for l in &laid {
        let s = &spans[l.index];
        let mut args: Vec<String> = s
            .args
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        if mode == TraceMode::Wall {
            args.extend(s.wall_args.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        }
        args.push(format!(
            "\"key\": \"{}.{}.{}.{}\"",
            s.key.figure, s.key.item, s.key.slot, s.key.chunk
        ));
        events.push(format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{{}}}}}",
            json_escape(&s.name),
            s.level.cat(),
            l.ts,
            l.dur,
            l.tid,
            args.join(", ")
        ));
    }
    if mode == TraceMode::Wall {
        for &(ts, bytes) in rss {
            events.push(format!(
                "{{\"name\": \"rss_bytes\", \"ph\": \"C\", \"ts\": {ts}, \"pid\": 1, \
                 \"tid\": 0, \"args\": {{\"bytes\": {bytes}}}}}"
            ));
        }
    }
    let mut out = String::from("{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(figure: u32, item: u32, slot: u32, chunk: u32) -> SpanKey {
        SpanKey {
            figure,
            item,
            slot,
            chunk,
        }
    }

    fn sample_spans() -> Vec<Span> {
        vec![
            Span::new("run", SpanLevel::Run, key(0, 0, 0, 0), 0, 0, 500),
            Span::new("suite", SpanLevel::Figure, key(0, 0, 0, 0), 0, 0, 90),
            Span::new("gen:MV", SpanLevel::Cell, key(0, 0, 0, 0), 1, 5, 40),
            Span::new("gen:SOR", SpanLevel::Cell, key(0, 1, 0, 0), 2, 6, 70),
            Span::new("fig06a", SpanLevel::Figure, key(1, 0, 0, 0), 0, 100, 300),
            Span::new("MV row", SpanLevel::Cell, key(1, 0, 0, 0), 1, 110, 120)
                .arg("chunks", 2)
                .wall_arg("queue_wait_us", 3),
            Span::new("chunk0", SpanLevel::Chunk, key(1, 0, 0, 0), 1, 110, 50),
            Span::new("chunk1", SpanLevel::Chunk, key(1, 0, 0, 1), 1, 165, 60),
            Span::new("SOR row", SpanLevel::Cell, key(1, 1, 0, 0), 2, 120, 100),
        ]
    }

    #[test]
    fn wall_and_logical_layouts_nest() {
        let spans = sample_spans();
        check_nesting(&spans, TraceMode::Wall).unwrap();
        check_nesting(&spans, TraceMode::Logical).unwrap();
    }

    #[test]
    fn overlap_on_one_track_is_rejected() {
        let spans = vec![
            Span::new("a", SpanLevel::Cell, key(1, 0, 0, 0), 1, 0, 100),
            Span::new("b", SpanLevel::Cell, key(1, 1, 0, 0), 1, 50, 100),
        ];
        let err = check_nesting(&spans, TraceMode::Wall).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
        // Logical layout serializes them, so it nests fine.
        check_nesting(&spans, TraceMode::Logical).unwrap();
    }

    #[test]
    fn logical_layout_is_deterministic_and_ignores_wall_fields() {
        let mut a = sample_spans();
        let t1 = chrome_trace(&a, &[(1, 100)], TraceMode::Logical);
        // Permute recording order, perturb wall data: logical output
        // must not move.
        a.reverse();
        for s in &mut a {
            s.start_us += 991;
            s.worker = 7;
        }
        let t2 = chrome_trace(&a, &[], TraceMode::Logical);
        assert_eq!(t1, t2);
        assert!(!t1.contains("queue_wait_us"), "wall args excluded");
        assert!(!t1.contains("rss_bytes"), "no RSS counters in logical");
    }

    #[test]
    fn logical_layout_nests_chunks_in_cells_in_figures() {
        let spans = sample_spans();
        let laid = layout(&spans, TraceMode::Logical);
        let find = |name: &str| {
            let l = laid
                .iter()
                .find(|l| spans[l.index].name == name)
                .unwrap_or_else(|| panic!("span {name}"));
            (l.ts, l.ts + l.dur)
        };
        let (rs, re) = find("run");
        let (fs, fe) = find("fig06a");
        let (cs, ce) = find("MV row");
        let (k0s, k0e) = find("chunk0");
        let (k1s, k1e) = find("chunk1");
        assert!(rs <= fs && fe <= re, "figure inside run");
        assert!(fs <= cs && ce <= fe, "cell inside figure");
        assert!(cs <= k0s && k0e <= ce, "chunk0 inside cell");
        assert!(cs <= k1s && k1e <= ce, "chunk1 inside cell");
        assert_eq!(k0e, k1s, "chunks laid end to end");
        assert_eq!(k1e - k0s, 2, "unit duration per chunk");
    }

    #[test]
    fn wall_trace_carries_workers_args_and_rss() {
        let spans = sample_spans();
        let t = chrome_trace(&spans, &[(42, 1 << 20)], TraceMode::Wall);
        assert!(t.contains("\"queue_wait_us\": 3"));
        assert!(t.contains("\"chunks\": 2"));
        assert!(t.contains("\"rss_bytes\""));
        assert!(t.contains("\"worker01\""));
        assert!(t.contains("\"key\": \"1.0.0.0\""));
        assert_eq!(t.matches("\"ph\": \"X\"").count(), spans.len());
    }

    #[test]
    fn export_orders_by_key_not_completion() {
        let mut spans = sample_spans();
        spans.reverse(); // recording order is completion order
        let t = chrome_trace(&spans, &[], TraceMode::Wall);
        let gen = t.find("gen:MV").unwrap();
        let mv = t.find("MV row").unwrap();
        let sor = t.find("SOR row").unwrap();
        assert!(gen < mv && mv < sor, "key order, not recording order");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("\t\r"), "\\t\\r");
    }
}
