//! Shared flow-driving machinery behind `dpmc bench`, `dpmc profile` and
//! `dpmc lint`: the per-design bench building block, the self-profile
//! runner, the post-flow stage ([`finish_flow`]: `dp_opt::finish`, then
//! the dp-verify audit), and the telemetry-overhead measurement that gates
//! the observability layer's cost. All of them run the guarded flow
//! ([`run_flow_guarded_with`]) — the same driver as `dpmc run` and `dpmc
//! serve` — and bench and profile add the absint layer.
//! Designs are farmed out on the service's slot-ordered worker pool
//! ([`dp_serve::pool::run_slots`]).
//!
//! Everything here is deterministic by construction: workers write only
//! their own result slot (so `--jobs N` output is byte-identical for any
//! job count), event streams are collected per design on the worker that
//! ran it, and the telemetry [`Level`] governs what gets *recorded*, never
//! what the flow *does*.

use std::time::{Duration, Instant};

use dp_analysis::TransformReport;
use dp_obs::{
    degrade_event, kind_events, round_events, span_events, trace_events, DesignEvents, Event,
    Profile,
};
pub use dp_serve::pool::WorkerError;
use dp_synth::SynthError;

use crate::error::FlowError;
use crate::prelude::*;

/// Classifies a flow failure for the pool: the message keeps the
/// driver's `"{design}: ..."` prefix convention, while the family and
/// exit code come from the [`FlowError`] taxonomy — so a design that
/// fails inside `dpmc bench --jobs N` reports exactly the taxonomy a
/// standalone `dpmc run` of that design would have exited with.
fn classify_flow(prefix: &str, e: SynthError) -> WorkerError {
    let fe = FlowError::from(e);
    WorkerError::new(fe.family(), fe.exit_code(), format!("{prefix}: {fe}"))
}

/// One design's bench outcome: the `designs[]` row of the dpmc-bench
/// document plus the design's ordered telemetry events, both built on
/// whichever worker thread ran the design.
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// The bench report row (`{"design": ..., "flows": [...]}`).
    pub row: Json,
    /// The design's event stream, ready for slot-ordered merging.
    pub events: DesignEvents,
}

/// Per-round counters as the bench schema's `rounds` array. The field
/// names are exactly the [`FlowMetrics`] totals each column sums to —
/// `worklist_pushes`, `ports_visited`, `ports_skipped` — so rounds, flow
/// metrics and the event stream share one naming scheme (and one
/// invariant: each metrics total equals the sum of its round column).
pub fn rounds_json(report: &TransformReport) -> Json {
    Json::Array(
        report
            .history
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Json::obj()
                    .field("round", i + 1)
                    .field("width_delta_bits", r.width_delta_bits)
                    .field("worklist_pushes", r.worklist_pushes)
                    .field("ports_visited", r.ports_visited)
                    .field("ports_skipped", r.ports_skipped)
            })
            .collect(),
    )
}

/// Everything one flow contributes to the event stream, borrowed from
/// wherever the flow ran (the bench driver, `dpmc run`, tests).
pub struct FlowSources<'a> {
    /// Which merge strategy produced the artifacts below.
    pub strategy: MergeStrategy,
    /// The flow's span recorder (stage tree + alloc columns).
    pub rec: &'a Recorder,
    /// The width-pipeline report, when the strategy ran one.
    pub transform: Option<&'a TransformReport>,
    /// The rendered `FlowMetrics` QoR object.
    pub metrics: &'a Json,
    /// Guard retreats, when the flow degraded.
    pub degradation: Option<&'a DegradationReport>,
    /// The flow's decision-provenance log.
    pub tr: &'a TraceLog,
}

/// Appends one flow's event sequence to a design's stream, in the
/// stream's canonical order: flow begin, spans, rounds, op-kind costs,
/// QoR, degradations, trace decisions.
pub fn push_flow_events(out: &mut DesignEvents, src: FlowSources<'_>, level: Level) {
    out.events.push(Event::Flow { strategy: src.strategy.to_string() });
    out.events.extend(span_events(src.rec, level));
    if let Some(t) = src.transform {
        out.events.extend(round_events(t));
        out.events.extend(kind_events(t, level));
    }
    out.events.push(Event::Qor { metrics: src.metrics.clone() });
    if let Some(d) = src.degradation {
        for s in &d.steps {
            out.events.push(degrade_event(s.stage, &s.reason, s.fallback.tag()));
        }
    }
    out.events.extend(trace_events(src.tr));
}

/// Runs the guarded flow at its default budget, then the static absint
/// layer over its result: the one flow every reporting surface (bench,
/// profile, the overhead gate) measures. `prefix` leads a failure's
/// message.
fn run_reported(
    prefix: &str,
    g: &Dfg,
    strategy: MergeStrategy,
    config: &SynthConfig,
    rec: &mut Recorder,
    tr: &mut TraceLog,
) -> Result<GuardedFlow, WorkerError> {
    let mut guarded = run_flow_guarded_with(g, strategy, config, &FlowBudget::default(), rec, tr)
        .map_err(|e| classify_flow(prefix, e))?;
    guarded.flow.absint(rec, tr);
    Ok(guarded)
}

/// The stages after the flow: [`finish`] (constant folding and the
/// dead-gate sweep under `fold_sweep`, static timing and area under
/// `sta`), then the dp-verify audit of the final artifacts against the
/// input design `g`. As in the guard's own audits, the strict
/// post-fixpoint checks are armed only for a new-merge flow that did not
/// degrade. `dpmc bench`, `dpmc profile` and `dpmc lint` run it.
///
/// # Errors
///
/// None in practice: the finish runs unwatched, and a trip would surface
/// as [`SynthError::Budget`].
pub fn finish_flow(
    g: &Dfg,
    guarded: &GuardedFlow,
    lib: &Library,
    rec: &mut Recorder,
) -> Result<(Finished, VerifyReport), SynthError> {
    let flow = &guarded.flow;
    let done = finish(flow.netlist.clone(), lib, rec, &Watchdog::disabled())
        .map_err(|trip| SynthError::Budget(trip.to_string()))?;
    let mut cx = Context::new(&flow.graph)
        .baseline(g)
        .clustering(&flow.clustering)
        .netlist(&done.netlist)
        .optimized(flow.strategy == MergeStrategy::New && guarded.degradation.is_none());
    if let Some(m) = &flow.merge {
        cx = cx.transform(&m.transform);
    }
    let report = Verifier::default().run_with(&cx, rec);
    Ok((done, report))
}

/// Benchmarks one design through both flows; the building block the
/// parallel driver farms out. Pure function of the design and config
/// (modulo the wall-times inside `spans` and the events' `us`/`ns`
/// fields), so designs can run on any worker in any order.
///
/// Recording always runs at full telemetry — the bench report's spans
/// keep their wall times for `--compare` — while `level` gates what
/// reaches the event stream. A flow the guard degraded reports the
/// fallback artifacts it actually built, `degraded: true` with its
/// `FALLBACK-*` tags in the metrics, and one `degrade` event per retreat.
pub fn bench_design(
    name: &str,
    g: &Dfg,
    config: &SynthConfig,
    lib: &Library,
    level: Level,
) -> Result<BenchOutcome, WorkerError> {
    let mut flows = Vec::new();
    let mut events = DesignEvents::new(name);
    for strategy in [MergeStrategy::Old, MergeStrategy::New] {
        let mut rec = Recorder::new();
        let mut tr = TraceLog::new();
        let prefix = format!("{name} [{strategy}]");
        let guarded = run_reported(&prefix, g, strategy, config, &mut rec, &mut tr)?;
        let (done, report) =
            finish_flow(g, &guarded, lib, &mut rec).map_err(|e| classify_flow(&prefix, e))?;
        let flow = &guarded.flow;

        // QoR on the final (folded + swept) netlist, not the raw one.
        let mut metrics = flow.metrics.clone();
        done.fill(&mut metrics);
        metrics.verify_errors = report.count(Severity::Error);
        metrics.verify_warnings = report.count(Severity::Warn);
        metrics.verify_infos = report.count(Severity::Info);
        let metrics_json = metrics.to_json();

        let mut row = Json::obj()
            .field("strategy", strategy.to_string())
            .field("metrics", metrics_json.clone());
        if let Some(m) = &flow.merge {
            row = row.field("rounds", rounds_json(&m.transform));
        }
        flows.push(row.field("trace_events", tr.len() as i64).field("spans", rec.to_json()));

        let src = FlowSources {
            strategy,
            rec: &rec,
            transform: flow.merge.as_ref().map(|m| &m.transform),
            metrics: &metrics_json,
            degradation: guarded.degradation.as_ref(),
            tr: &tr,
        };
        push_flow_events(&mut events, src, level);
    }
    Ok(BenchOutcome { row: Json::obj().field("design", name).field("flows", flows), events })
}

/// Runs the new-merge flow (plus constant folding, STA and verification)
/// under a full-telemetry recorder and folds the result into a per-phase
/// [`Profile`] — the engine behind `dpmc profile`. The guard's stages and
/// audits show up as their own phases (`guarded widths`, `guarded
/// clustering`, and the netlist audit as self time of `guarded flow`).
pub fn profile_design(
    name: &str,
    g: &Dfg,
    config: &SynthConfig,
    lib: &Library,
) -> Result<Profile, WorkerError> {
    let mut rec = Recorder::new();
    let mut tr = TraceLog::new();
    let guarded = run_reported(name, g, MergeStrategy::New, config, &mut rec, &mut tr)?;
    finish_flow(g, &guarded, lib, &mut rec).map_err(|e| classify_flow(name, e))?;
    let kinds = guarded.flow.merge.as_ref().map(|m| m.transform.kind_counts()).unwrap_or_default();
    Ok(Profile::build(&rec, &kinds))
}

/// The result of one telemetry-overhead measurement (`dpmc profile
/// --overhead-gate PCT`).
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    /// Best-of-`trials` flow wall time with telemetry off, microseconds.
    pub off_us: u128,
    /// Best-of-`trials` flow wall time at full telemetry, microseconds.
    pub full_us: u128,
    /// Full-telemetry overhead in percent of the `off` time.
    pub overhead_pct: f64,
    /// Whether QoR metrics and trace decisions were identical at every
    /// [`Level`] — the level must govern recording, never behavior.
    pub invariant: bool,
    /// Whether the measurement passed: invariant, and overhead within
    /// the gate (with a small absolute slack for sub-millisecond flows).
    pub passed: bool,
}

impl OverheadReport {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "telemetry overhead: off {} us, full {} us ({:+.2}%); levels {}: {}",
            self.off_us,
            self.full_us,
            self.overhead_pct,
            if self.invariant { "invariant" } else { "NOT invariant" },
            if self.passed { "PASS" } else { "FAIL" }
        )
    }
}

/// Measures the observability layer's cost on one design and proves its
/// level-invariance: the new-merge flow is run at every [`Level`]
/// (identical QoR documents and trace sequences required), then timed
/// best-of-`trials` at `off` and `full`, the two levels' trials
/// interleaved. Passes when the flow is invariant and full telemetry
/// costs at most `max_pct` percent over `off` (plus a 2 ms absolute slack
/// so sub-millisecond flows cannot fail on scheduling noise).
pub fn telemetry_overhead(
    name: &str,
    g: &Dfg,
    config: &SynthConfig,
    max_pct: f64,
    trials: usize,
) -> Result<OverheadReport, WorkerError> {
    let run_at = |level: Level| -> Result<(String, Vec<Event>), WorkerError> {
        let mut rec = Recorder::with_level(level);
        let mut tr = TraceLog::new();
        let prefix = format!("{name} [{}]", level.name());
        let guarded = run_reported(&prefix, g, MergeStrategy::New, config, &mut rec, &mut tr)?;
        Ok((guarded.flow.metrics.to_json().render(), trace_events(&tr)))
    };
    let (qor_off, trace_off) = run_at(Level::Off)?;
    let mut invariant = true;
    for level in [Level::Counters, Level::Full] {
        let (qor, trace) = run_at(level)?;
        invariant &= qor == qor_off && trace == trace_off;
    }

    // The two levels' trials alternate, and so does which level runs
    // first in a pair, so a slow spell of the host lands on both sides.
    let time = |level: Level| -> Result<Duration, WorkerError> {
        let mut rec = Recorder::with_level(level);
        let mut tr = TraceLog::new();
        let prefix = format!("{name} [{}]", level.name());
        let started = Instant::now();
        run_reported(&prefix, g, MergeStrategy::New, config, &mut rec, &mut tr)?;
        Ok(started.elapsed())
    };
    let (mut off, mut full) = (Duration::MAX, Duration::MAX);
    for trial in 0..trials.max(1) {
        if trial % 2 == 0 {
            off = off.min(time(Level::Off)?);
            full = full.min(time(Level::Full)?);
        } else {
            full = full.min(time(Level::Full)?);
            off = off.min(time(Level::Off)?);
        }
    }
    let (off_us, full_us) = (off.as_micros(), full.as_micros());
    let overhead_pct =
        if off_us == 0 { 0.0 } else { (full_us as f64 - off_us as f64) / off_us as f64 * 100.0 };
    let budget = off.mul_f64(1.0 + max_pct / 100.0) + Duration::from_millis(2);
    let passed = invariant && full <= budget;
    Ok(OverheadReport { off_us, full_us, overhead_pct, invariant, passed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_dfg::gen::{random_dfg, GenConfig};
    use dp_testcases::figures;

    fn fig3() -> Dfg {
        figures::fig3().g
    }

    #[test]
    fn bench_rounds_sum_to_flow_metrics_totals() {
        let g = fig3();
        let lib = Library::synthetic_025um();
        let out = bench_design("fig3", &g, &SynthConfig::default(), &lib, Level::Counters)
            .expect("fig3 benches");
        let flows = out.row.get("flows").and_then(Json::as_array).expect("flows");
        let new = &flows[1];
        let metrics = new.get("metrics").expect("metrics");
        let rounds = new.get("rounds").and_then(Json::as_array).expect("rounds on new-merge");
        assert!(!rounds.is_empty());
        // Satellite invariant: one naming scheme, totals = round sums.
        for key in ["worklist_pushes", "ports_visited", "ports_skipped"] {
            let total = metrics.get(key).and_then(Json::as_i64).expect("total");
            let sum: i64 =
                rounds.iter().map(|r| r.get(key).and_then(Json::as_i64).unwrap_or(0)).sum();
            assert_eq!(total, sum, "{key} total equals its per-round sum");
        }
        // Old-merge runs no width pipeline: no rounds array.
        assert!(flows[0].get("rounds").is_none());
    }

    #[test]
    fn bench_events_cover_the_taxonomy_in_order() {
        let g = fig3();
        let lib = Library::synthetic_025um();
        let out = bench_design("fig3", &g, &SynthConfig::default(), &lib, Level::Counters)
            .expect("fig3 benches");
        let tags: Vec<&str> = out.events.events.iter().map(Event::tag).collect();
        assert_eq!(tags[0], "flow");
        for tag in ["span", "round", "op_kind", "qor", "trace"] {
            assert!(tags.contains(&tag), "stream carries {tag} events: {tags:?}");
        }
        let first_round = tags.iter().position(|&t| t == "round").expect("rounds present");
        let last_span = tags.iter().rposition(|&t| t == "span").expect("spans present");
        assert!(first_round > tags.iter().position(|&t| t == "span").expect("spans"));
        let _ = last_span;
    }

    #[test]
    fn flow_failures_classify_with_the_process_taxonomy() {
        // An adder with no drivers fails structural validation inside the
        // flow; the bench row must carry the same family/exit-code a
        // standalone run would have exited with (graph = 5).
        let mut g = Dfg::new();
        let n = g.op_unconnected(OpKind::Add, 5);
        g.output("o", 5, n, Signedness::Unsigned);
        let lib = Library::synthetic_025um();
        let err = bench_design("empty", &g, &SynthConfig::default(), &lib, Level::Off)
            .expect_err("an empty design cannot synthesize");
        assert_eq!(err.family, "graph");
        assert_eq!(err.exit_code, 5);
        assert!(err.message.starts_with("empty [old-merge]:"), "{}", err.message);
    }

    #[test]
    fn profile_yields_flow_phases_and_kind_costs() {
        let g = fig3();
        let lib = Library::synthetic_025um();
        let p = profile_design("fig3", &g, &SynthConfig::default(), &lib).expect("profiles");
        let paths: Vec<&str> = p.rows.iter().map(|r| r.path.as_str()).collect();
        assert!(paths.iter().any(|p| p.starts_with("guarded flow new-merge")), "{paths:?}");
        // The guard's stages (and the audits inside them) are layers too.
        assert!(paths.contains(&"guarded flow new-merge;guarded widths"), "{paths:?}");
        assert!(paths.contains(&"guarded flow new-merge;guarded clustering"), "{paths:?}");
        assert!(paths.contains(&"fold_sweep"));
        assert!(paths.contains(&"fold_sweep;fold_constants"), "{paths:?}");
        assert!(paths.contains(&"fold_sweep;sweep"), "{paths:?}");
        assert!(paths.contains(&"sta"));
        assert!(!p.kinds.is_empty(), "fig3's adds/muls were visited");
        assert!(!p.collapsed_stacks().is_empty());
    }

    /// A new-merge flow whose merged netlist the guard rejects: bench
    /// reports the singleton-cluster fallback it really built, and that
    /// netlist is right.
    #[test]
    fn bench_reports_the_guards_degradation() {
        use rand::{rngs::StdRng, SeedableRng};
        let cfg = GenConfig {
            num_ops: 40,
            num_inputs: 6,
            max_width: 48,
            mul_weight: 0.15,
            ..GenConfig::default()
        };
        let g = random_dfg(&mut StdRng::seed_from_u64(1072), &cfg);
        let lib = Library::synthetic_025um();
        let config = SynthConfig::default();
        let out = bench_design("seed1072", &g, &config, &lib, Level::Counters).expect("benches");
        let flows = out.row.get("flows").and_then(Json::as_array).expect("flows");
        // Healthy rows carry no degradation fields at all.
        let old = flows[0].get("metrics").expect("metrics");
        assert_eq!(old.get("degraded"), None, "{}", old.render());
        let new = flows[1].get("metrics").expect("metrics");
        assert_eq!(new.get("degraded"), Some(&Json::Bool(true)), "{}", new.render());
        let fallbacks = new.get("fallbacks").and_then(Json::as_array).expect("fallbacks");
        assert_eq!(fallbacks, &[Json::from("FALLBACK-SINGLETON")]);
        assert!(out.events.events.iter().any(|e| e.tag() == "degrade"));

        let mut rec = Recorder::new();
        let mut tr = TraceLog::new();
        let guarded =
            run_reported("seed1072", &g, MergeStrategy::New, &config, &mut rec, &mut tr).unwrap();
        let (done, _) = finish_flow(&g, &guarded, &lib, &mut rec).unwrap();
        let oracle = Equiv::new(&g, 0x5EED, 256).expect("the design evaluates");
        assert_eq!(oracle.netlist_mismatch(&done.netlist), None);
    }

    #[test]
    fn telemetry_levels_do_not_change_qor_or_trace() {
        let g = fig3();
        let rep =
            telemetry_overhead("fig3", &g, &SynthConfig::default(), 1e9, 1).expect("measures");
        assert!(rep.invariant, "{rep:?}");
        assert!(rep.passed, "an effectively unbounded gate passes: {rep:?}");
    }
}
