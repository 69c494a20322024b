//! Benchmark-side tracing: one span around each call into a layer's public
//! API. Spans stay in memory (one [`Tracer`] per generator thread) and are
//! written out when the run ends; per-layer self time is derived from them.
//! A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::Samples;

/// Nanoseconds since the first call, on one process-wide clock shared by
/// every thread's tracer.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `core.push_rows`.
    pub name: &'static str,
    /// Start, ns on the process clock.
    pub start: u64,
    /// End, ns on the process clock.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one batch.
    pub req: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    /// Trace a pseudo-random half of the batches: traced and untraced
    /// batches interleave, so their cost difference (the tracing overhead)
    /// is not confounded by drift over the run, and no periodic pattern in
    /// the work (a window firing every eighth batch) lines up with them.
    alternate: bool,
    ticks: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records only while `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            alternate: false,
            ticks: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Trace a pseudo-random half of the batches from now on (or stop).
    pub fn set_alternating(&mut self, on: bool) {
        self.alternate = on;
    }

    /// A new batch starts: with alternation on, decide whether to record it.
    pub fn tick(&mut self) {
        if self.alternate {
            self.ticks += 1;
            let mut z = self.ticks.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            self.enabled = (z >> 40) & 1 == 1;
        }
    }

    /// Turn recording on or off (spans already recorded stay).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name` for request `req`, nested in the innermost
    /// open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = now_ns();
            if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
                self.stack.truncate(pos);
            }
        }
    }

    /// Record an already measured interval as a closed span (used where the
    /// interval is known only after the fact, e.g. a chunk's wait).
    pub fn record(&mut self, name: &'static str, req: u64, start: u64, end: u64) {
        if self.enabled {
            let parent = self.stack.last().copied();
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                req,
            });
        }
    }

    /// The clock [`Tracer::record`] expects.
    pub fn clock() -> u64 {
        now_ns()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name aggregate of a span set.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus time covered by child spans), ns.
    pub self_ns: u64,
    /// Individual durations, µs.
    pub durations_us: Samples,
}

/// Aggregate spans by name. `spans` are one tracer's spans: parents refer
/// to indices in the same slice.
pub fn summarize(spans: &[Span], into: &mut BTreeMap<&'static str, SpanStats>) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end.saturating_sub(s.start);
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end.saturating_sub(s.start);
        let e = into.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(child_ns[i]);
        e.durations_us.push(dur as f64 / 1000.0);
    }
}

/// Write `spans` (one thread's, tagged `thread`) as JSON lines, appending.
pub fn write_spans(path: &Path, thread: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = std::io::BufWriter::new(file);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"thread\":\"{thread}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start, s.end, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "batch",
                start: 0,
                end: 100,
                parent: None,
                req: 1,
            },
            Span {
                name: "core.push_rows",
                start: 10,
                end: 30,
                parent: Some(0),
                req: 1,
            },
            Span {
                name: "core.run_until_idle",
                start: 30,
                end: 90,
                parent: Some(0),
                req: 1,
            },
        ];
        let mut m = BTreeMap::new();
        summarize(&spans, &mut m);
        assert_eq!(m["batch"].self_ns, 20);
        assert_eq!(m["batch"].total_ns, 100);
        assert_eq!(m["core.push_rows"].self_ns, 20);
        assert_eq!(m["core.run_until_idle"].count, 1);
    }

    #[test]
    fn nesting_and_disabled_tracer() {
        let mut t = Tracer::new(true);
        let a = t.begin("outer", 7);
        let b = t.begin("inner", 7);
        t.end(b);
        t.end(a);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[0].end >= s[1].end && s[0].start <= s[1].start);

        let mut alt = Tracer::new(false);
        alt.set_alternating(true);
        let on: Vec<bool> = (0..8000)
            .map(|_| {
                alt.tick();
                alt.enabled()
            })
            .collect();
        let traced = on.iter().filter(|&&x| x).count();
        assert!((3600..4400).contains(&traced), "{traced}");
        // Not in step with a period of eight.
        let every8th = on.iter().step_by(8).filter(|&&x| x).count();
        assert!((400..600).contains(&every8th), "{every8th}");

        let mut off = Tracer::new(false);
        let o = off.begin("x", 1);
        off.end(o);
        off.record("y", 1, 0, 5);
        assert!(off.spans().is_empty());
    }
}
