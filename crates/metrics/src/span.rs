//! Hierarchical wall-clock timing spans.
//!
//! A [`Recorder`] collects a flat, pre-order list of [`SpanRecord`]s; the
//! tree shape is carried by each record's depth, so serialization and
//! comparison need no pointer chasing. Nesting is positional: a span
//! opened while another is unfinished becomes its child.
//!
//! Every flow entry point that accepts a recorder also has a plain wrapper
//! passing [`Recorder::disabled`], which records nothing and allocates
//! nothing, so instrumented code paths cost nothing when unobserved.
//!
//! Recorders carry a telemetry [`Level`]. [`Recorder::new`] records at
//! [`Level::Full`] (timing, and allocation deltas when a probe is
//! installed); [`Level::Counters`] stores only the deterministic
//! name/depth skeleton; [`Level::Off`] is [`Recorder::disabled`].

use std::time::{Duration, Instant};

use crate::alloc::{alloc_probe, AllocStats};
use crate::json::Json;
use crate::level::Level;

/// One timed region: name, nesting depth, elapsed wall time, and (at
/// [`Level::Full`] with an allocation probe installed) heap deltas.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    name: String,
    depth: usize,
    started: Instant,
    elapsed: Duration,
    alloc: AllocStats,
}

impl SpanRecord {
    /// The span's name, as passed to [`Recorder::span`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nesting depth; `0` is a root span.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Elapsed wall time ([`Duration::ZERO`] until the span finishes).
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Heap deltas attributed to this span (children included):
    /// `alloc_bytes`/`alloc_count` are totals allocated while the span
    /// was open, `peak_live_bytes` is the high-water mark of live bytes
    /// *above the level at span entry*. All zero unless the recorder ran
    /// at [`Level::Full`] with an [`crate::AllocProbe`] installed.
    pub fn alloc(&self) -> AllocStats {
        self.alloc
    }
}

/// Handle to an open span, returned by [`Recorder::span`] and closed by
/// [`Recorder::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

const NOOP: SpanId = SpanId(usize::MAX);

/// Stack entry for an open span: record index plus the allocation
/// snapshot taken at entry (so the defensive multi-pop in
/// [`Recorder::finish`] attributes deltas correctly per level).
#[derive(Debug, Clone)]
struct OpenSpan {
    idx: usize,
    at_open: AllocStats,
}

/// Collects hierarchical timing spans in start order.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    level: Level,
    records: Vec<SpanRecord>,
    stack: Vec<OpenSpan>,
}

impl Recorder {
    /// An enabled recorder at [`Level::Full`].
    pub fn new() -> Recorder {
        Recorder::with_level(Level::Full)
    }

    /// A no-op recorder: spans are free and nothing is stored. This is
    /// what the un-instrumented wrappers (`run_flow_guarded`, `cluster_max`, …)
    /// pass internally.
    pub fn disabled() -> Recorder {
        Recorder::with_level(Level::Off)
    }

    /// A recorder at an explicit telemetry level.
    pub fn with_level(level: Level) -> Recorder {
        Recorder { level, records: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being stored.
    pub fn is_enabled(&self) -> bool {
        self.level != Level::Off
    }

    /// The telemetry level this recorder runs at.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Opens a span nested under the innermost unfinished span.
    pub fn span(&mut self, name: impl Into<String>) -> SpanId {
        if self.level == Level::Off {
            return NOOP;
        }
        let idx = self.records.len();
        self.records.push(SpanRecord {
            name: name.into(),
            depth: self.stack.len(),
            started: Instant::now(),
            elapsed: Duration::ZERO,
            alloc: AllocStats::default(),
        });
        let at_open = if self.level == Level::Full {
            match alloc_probe() {
                Some(probe) => {
                    let s = probe.stats();
                    // Reset the watermark so this span measures its own
                    // peak above the live level at entry.
                    probe.set_peak(s.live_bytes);
                    s
                }
                None => AllocStats::default(),
            }
        } else {
            AllocStats::default()
        };
        self.stack.push(OpenSpan { idx, at_open });
        SpanId(idx)
    }

    /// Closes a span, fixing its elapsed time. Also closes any child spans
    /// left open (defensive; balanced callers never hit that path).
    pub fn finish(&mut self, id: SpanId) {
        if self.level == Level::Off || id == NOOP {
            return;
        }
        while let Some(open) = self.stack.pop() {
            let r = &mut self.records[open.idx];
            r.elapsed = r.started.elapsed();
            if self.level == Level::Full {
                if let Some(probe) = alloc_probe() {
                    let now = probe.stats();
                    r.alloc = AllocStats {
                        alloc_bytes: now.alloc_bytes.saturating_sub(open.at_open.alloc_bytes),
                        alloc_count: now.alloc_count.saturating_sub(open.at_open.alloc_count),
                        live_bytes: now.live_bytes,
                        peak_live_bytes: now
                            .peak_live_bytes
                            .saturating_sub(open.at_open.live_bytes),
                    };
                    // Fold this span's absolute peak back into the
                    // parent's watermark (which our open had reset).
                    probe.set_peak(open.at_open.peak_live_bytes.max(now.peak_live_bytes));
                }
            }
            if open.idx == id.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`; the closure gets the recorder
    /// back for nested spans.
    pub fn scope<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.span(name);
        let out = f(self);
        self.finish(id);
        out
    }

    /// All finished and unfinished spans, in start (pre-)order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// The spans as a JSON array of `{"name", "depth", …}` objects.
    ///
    /// `us` (elapsed microseconds) is the **only** timing field the
    /// reporter emits anywhere; stripping every `"us"` key from two runs
    /// of the same flow must leave byte-identical documents. It is
    /// emitted at [`Level::Full`] only, together with the allocation
    /// fields `alloc_bytes`/`alloc_count`/`peak_live_bytes` when a probe
    /// is installed (a fixed per-process property, so presence is
    /// deterministic). At [`Level::Counters`] the array carries the
    /// byte-deterministic name/depth skeleton alone.
    pub fn to_json(&self) -> Json {
        let full = self.level == Level::Full;
        let with_alloc = full && alloc_probe().is_some();
        Json::Array(
            self.records
                .iter()
                .map(|r| {
                    let mut o = Json::obj().field("name", r.name.as_str()).field("depth", r.depth);
                    if full {
                        o = o.field("us", r.elapsed.as_micros());
                    }
                    if with_alloc {
                        o = o
                            .field("alloc_bytes", r.alloc.alloc_bytes)
                            .field("alloc_count", r.alloc.alloc_count)
                            .field("peak_live_bytes", r.alloc.peak_live_bytes);
                    }
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The (name, depth) skeleton — everything except timing.
    fn shape(rec: &Recorder) -> Vec<(String, usize)> {
        rec.records().iter().map(|r| (r.name().to_string(), r.depth())).collect()
    }

    #[test]
    fn nesting_and_ordering_are_deterministic() {
        let run = || {
            let mut rec = Recorder::new();
            rec.scope("flow", |rec| {
                for round in 1..=2 {
                    rec.scope(format!("round {round}"), |rec| {
                        rec.scope("rp", |_| {});
                        rec.scope("ic", |_| {});
                    });
                }
            });
            rec
        };
        let a = run();
        assert_eq!(
            shape(&a),
            vec![
                ("flow".to_string(), 0),
                ("round 1".to_string(), 1),
                ("rp".to_string(), 2),
                ("ic".to_string(), 2),
                ("round 2".to_string(), 1),
                ("rp".to_string(), 2),
                ("ic".to_string(), 2),
            ]
        );
        // Two runs produce the same skeleton even though wall times differ.
        assert_eq!(shape(&a), shape(&run()));
    }

    #[test]
    fn parents_subsume_children_in_elapsed_time() {
        let mut rec = Recorder::new();
        rec.scope("parent", |rec| {
            rec.scope("child", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let parent = &rec.records()[0];
        let child = &rec.records()[1];
        assert!(parent.elapsed() >= child.elapsed());
        assert!(child.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Recorder::disabled();
        let id = rec.span("ignored");
        rec.scope("also ignored", |_| {});
        rec.finish(id);
        assert!(rec.records().is_empty());
        assert_eq!(rec.to_json().render(), "[]");
        assert_eq!(rec.level(), Level::Off);
        assert!(!rec.is_enabled());
    }

    #[test]
    fn unbalanced_children_are_closed_by_the_parent() {
        let mut rec = Recorder::new();
        let p = rec.span("p");
        let _leaked = rec.span("leaked child");
        rec.finish(p);
        assert!(rec.records().iter().all(|r| r.elapsed() > Duration::ZERO || r.name() == "p"));
        // Stack is empty again: a new span is a root.
        let r = rec.span("root again");
        rec.finish(r);
        assert_eq!(rec.records().last().unwrap().depth(), 0);
    }

    #[test]
    fn json_has_only_us_as_timing_field() {
        let mut rec = Recorder::new();
        rec.scope("a", |_| {});
        let s = rec.to_json().render();
        assert!(s.contains("\"name\":\"a\""));
        assert!(s.contains("\"depth\":0"));
        assert!(s.contains("\"us\":"));
    }

    #[test]
    fn counters_level_json_is_byte_deterministic() {
        let run = || {
            let mut rec = Recorder::with_level(Level::Counters);
            rec.scope("flow", |rec| {
                rec.scope("analysis", |_| std::thread::sleep(Duration::from_micros(50)));
            });
            rec.to_json().render()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.contains("\"us\""), "counters level must not emit timing: {a}");
        assert_eq!(a, r#"[{"name":"flow","depth":0},{"name":"analysis","depth":1}]"#);
    }

    #[test]
    fn new_is_full_level() {
        assert_eq!(Recorder::new().level(), Level::Full);
        assert_eq!(Recorder::with_level(Level::Counters).level(), Level::Counters);
    }
}
