//! The traced run: the benchmark's own spans around every public call,
//! the program's existing spans (dp-metrics `Recorder`), and the fold of
//! both into per-layer metrics.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use datapath_merge::metrics::{Json, Recorder};

use crate::report::{median, Report};

/// One span of the benchmark's own: name, start and end (ns since the
/// tracer started), parent span, and the operation it belongs to
/// (`u64::MAX`, written as `null`, for spans outside any operation).
#[derive(Debug, Clone)]
pub struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Spans kept in memory for the whole run and written out at its end. A
/// disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Program spans folded under one of ours: `(our span, name, depth, µs)`.
    program: Vec<(usize, String, usize, u64)>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

impl Tracer {
    /// A tracer; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            program: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh program recorder: enabled with allocation accounting when
    /// tracing, disabled otherwise.
    pub fn recorder(&self) -> Recorder {
        if self.enabled {
            Recorder::new()
        } else {
            Recorder::disabled()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: impl Into<String>, op: u64) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        id
    }

    /// Closes a span and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        if !self.enabled || id == usize::MAX {
            return Duration::ZERO;
        }
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
        let s = &self.spans[id];
        Duration::from_nanos(s.end_ns - s.start_ns)
    }

    /// Keeps the program's spans from `rec` under our span `under`.
    pub fn adopt(&mut self, under: SpanId, rec: &Recorder) {
        if !self.enabled {
            return;
        }
        for r in rec.records() {
            let us = u64::try_from(r.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.program.push((under, r.name().to_string(), r.depth(), us));
        }
    }

    /// Writes every span as JSON lines: ours with start/end/parent/op,
    /// then the program's with their enclosing span of ours.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, Json::from);
            let op = if s.op == u64::MAX { Json::Null } else { Json::from(s.op) };
            let line = Json::obj()
                .field("span", i)
                .field("name", s.name.as_str())
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("parent", parent)
                .field("op", op);
            writeln!(out, "{}", line.render())?;
        }
        for (under, name, depth, us) in &self.program {
            let line = Json::obj()
                .field("program_span", name.as_str())
                .field("under", *under)
                .field("depth", *depth)
                .field("us", *us);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every record in a pre-order span list: its duration
/// minus the durations of its direct children.
pub fn self_times(rec: &Recorder) -> Vec<Duration> {
    let recs = rec.records();
    let mut out: Vec<Duration> = recs.iter().map(|r| r.elapsed()).collect();
    let mut stack: Vec<usize> = Vec::new();
    for (i, r) in recs.iter().enumerate() {
        while stack.len() > r.depth() {
            stack.pop();
        }
        if let Some(&p) = stack.last() {
            out[p] = out[p].saturating_sub(r.elapsed());
        }
        stack.push(i);
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

const MB: f64 = 1024.0 * 1024.0;

/// Per-layer totals over the traced rounds. Times are summed; the report
/// divides by the number of rounds, so every figure is "per round of the
/// workload's operation list".
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub dsl_parse_ms: f64,
    pub dsl_nodes: f64,
    pub analysis_ms: f64,
    pub analysis_rounds: f64,
    pub analysis_pushes: f64,
    pub ports_visited: f64,
    pub ports_skipped: f64,
    pub analysis_alloc: f64,
    pub merge_ms: f64,
    pub merge_clusters: f64,
    pub merge_alloc: f64,
    pub synth_ms: f64,
    pub synth_gates: f64,
    pub synth_alloc: f64,
    pub guard_ms: f64,
    pub guard_fallbacks: f64,
    pub fold_ms: f64,
    pub sweep_ms: f64,
    pub sta_ms: f64,
    pub gates_swept: f64,
    pub optimize_ms: f64,
    pub opt_iterations: f64,
    pub opt_gates_sized: f64,
    pub opt_buffers: f64,
    pub opt_met: f64,
    pub opt_attempted: f64,
    pub store_open_ms: Vec<f64>,
    pub store_mb: f64,
    pub miss_ms: Vec<f64>,
    pub netlist_hit_ms: Vec<f64>,
    pub cluster_hit_ms: Vec<f64>,
    pub analysis_hit_ms: Vec<f64>,
    pub hits_netlist: f64,
    pub hits_cluster: f64,
    pub hits_analysis: f64,
    pub misses: f64,
    pub store_writes: f64,
    pub store_reads: f64,
    pub store_quarantined: f64,
}

impl Layers {
    /// Folds one guarded flow's program spans. `wrapper` is the duration
    /// of our span around the `run_flow_guarded_with` call: what it spent
    /// outside the program's root span (input validation, the audit
    /// oracle) counts as guard time, with the self time of the guarded
    /// flow and width-stage spans (the audits).
    pub fn fold_flow(&mut self, rec: &Recorder, wrapper: Duration) {
        let selfs = self_times(rec);
        let mut root = Duration::ZERO;
        for (r, own) in rec.records().iter().zip(&selfs) {
            let name = r.name();
            let alloc = r.alloc().alloc_bytes as f64;
            if r.depth() == 0 {
                root += r.elapsed();
            }
            if name.starts_with("guarded flow") || name == "guarded widths" {
                self.guard_ms += ms(*own);
            } else if name == "optimize_widths" {
                self.analysis_ms += ms(r.elapsed());
                self.analysis_alloc += alloc;
            } else if name == "guarded clustering" {
                self.merge_ms += ms(r.elapsed());
                self.merge_alloc += alloc;
            } else if name == "synthesize" {
                self.synth_ms += ms(r.elapsed());
                self.synth_alloc += alloc;
            }
        }
        self.guard_ms += ms(wrapper.saturating_sub(root));
    }

    /// Adds every per-layer metric to `report`, per round.
    pub fn emit(&self, rounds: u64, report: &mut Report) {
        let n = rounds.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let p50 = |v: &Vec<f64>| median(v);
        let metrics: [(&str, f64, &'static str); 38] = [
            ("dsl.parse_ms", self.dsl_parse_ms / n, "ms"),
            ("dsl.nodes", self.dsl_nodes / n, "count"),
            ("analysis.ms", self.analysis_ms / n, "ms"),
            ("analysis.rounds", self.analysis_rounds / n, "count"),
            ("analysis.worklist_pushes", self.analysis_pushes / n, "count"),
            ("analysis.skip_ratio", ratio(self.ports_skipped, self.ports_visited), "ratio"),
            ("analysis.alloc_mb", self.analysis_alloc / MB / n, "MB"),
            ("merge.ms", self.merge_ms / n, "ms"),
            ("merge.clusters", self.merge_clusters / n, "count"),
            ("merge.alloc_mb", self.merge_alloc / MB / n, "MB"),
            ("synth.ms", self.synth_ms / n, "ms"),
            ("synth.gates", self.synth_gates / n, "count"),
            ("synth.alloc_mb", self.synth_alloc / MB / n, "MB"),
            ("guard.audit_ms", self.guard_ms / n, "ms"),
            ("guard.fallbacks", self.guard_fallbacks / n, "count"),
            ("opt.fold_ms", self.fold_ms / n, "ms"),
            ("netlist.sweep_ms", self.sweep_ms / n, "ms"),
            ("netlist.sta_ms", self.sta_ms / n, "ms"),
            ("netlist.gates_swept", self.gates_swept / n, "count"),
            ("opt.optimize_ms", self.optimize_ms / n, "ms"),
            ("opt.iterations", self.opt_iterations / n, "count"),
            ("opt.gates_sized", self.opt_gates_sized / n, "count"),
            ("opt.buffers_inserted", self.opt_buffers / n, "count"),
            ("opt.targets_met", ratio(self.opt_met, self.opt_attempted), "ratio"),
            ("store.open_ms", p50(&self.store_open_ms), "ms"),
            ("store.mb", self.store_mb, "MB"),
            ("serve.miss_ms_p50", p50(&self.miss_ms), "ms"),
            ("serve.netlist_hit_ms_p50", p50(&self.netlist_hit_ms), "ms"),
            ("serve.cluster_hit_ms_p50", p50(&self.cluster_hit_ms), "ms"),
            ("serve.analysis_hit_ms_p50", p50(&self.analysis_hit_ms), "ms"),
            ("serve.hits_netlist", self.hits_netlist / n, "count"),
            ("serve.hits_cluster", self.hits_cluster / n, "count"),
            ("serve.hits_analysis", self.hits_analysis / n, "count"),
            ("serve.misses", self.misses / n, "count"),
            (
                "serve.hit_rate",
                ratio(
                    self.hits_netlist + self.hits_cluster + self.hits_analysis,
                    self.hits_netlist + self.hits_cluster + self.hits_analysis + self.misses,
                ),
                "ratio",
            ),
            ("store.writes", self.store_writes / n, "count"),
            ("store.reads", self.store_reads / n, "count"),
            ("store.quarantined", self.store_quarantined / n, "count"),
        ];
        for (name, value, unit) in metrics {
            report.metric(name, value, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::new();
        let a = rec.span("a");
        let b = rec.span("b");
        let c = rec.span("c");
        std::thread::sleep(Duration::from_millis(2));
        rec.finish(c);
        rec.finish(b);
        rec.finish(a);
        let s = self_times(&rec);
        let e: Vec<Duration> = rec.records().iter().map(|r| r.elapsed()).collect();
        assert_eq!(s[0], e[0] - e[1]);
        assert_eq!(s[1], e[1] - e[2]);
        assert_eq!(s[2], e[2]);
    }

    #[test]
    fn tracer_nests_spans_and_is_free_when_off() {
        let mut t = Tracer::new(true);
        let a = t.open("op", 1);
        let b = t.open("flow", 1);
        t.close(b);
        t.close(a);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let mut off = Tracer::new(false);
        let x = off.open("op", 1);
        assert_eq!(off.close(x), Duration::ZERO);
        assert!(off.spans.is_empty());
    }
}
