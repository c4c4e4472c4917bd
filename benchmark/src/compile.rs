//! The compile workloads, `paper-kernels` and `scale`: each operation
//! puts one design through what `dpmc run` does.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use datapath_merge::bitvec::BitVec;
use datapath_merge::dfg::Dfg;
use datapath_merge::dsl::parse_design;
use datapath_merge::netlist::{Library, Netlist};
use datapath_merge::opt::{fold_constants, optimize, OptConfig};
use datapath_merge::synth::{run_flow_guarded_with, FlowBudget, MergeStrategy, SynthConfig};
use datapath_merge::testcases::named_design;
use datapath_merge::trace::TraceLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{self, sub_seed, DesignSrc};
use crate::refeval::{same_value, RefEval};
use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::trace::{Layers, Tracer};
use crate::Args;

/// Vectors per correctness check: one 64-lane simulation batch.
pub const CHECK_VECTORS: usize = 64;

/// One compile operation: a design and the flows it goes through.
#[derive(Debug, Clone)]
pub struct CompileOp {
    /// The design as DSL text.
    pub src: DesignSrc,
    /// Merge strategies run, in order.
    pub flows: Vec<MergeStrategy>,
    /// Whether the old- and new-merge netlists are then optimized to the
    /// Table 2 target.
    pub optimize: bool,
}

/// The operation list of a compile workload.
pub fn ops(workload: &str, seed: u64) -> Vec<CompileOp> {
    use MergeStrategy::{New, None, Old};
    match workload {
        "paper-kernels" => inputs::paper_kernels(seed)
            .into_iter()
            .map(|src| CompileOp { src, flows: vec![None, Old, New], optimize: true })
            .collect(),
        _ => {
            // The fixed scaling members run under both merges; S10k's
            // new-merge flow degrades on every run (a known fault), so it
            // is the one operation that fails. The seeded draws run under
            // old-merge only: new-merge fails on some draws and not on
            // others, which no fixed failure share can describe.
            let mut list: Vec<CompileOp> = ["S1000", "S10k"]
                .iter()
                .map(|&name| {
                    let g = named_design(name).expect("scaling members are built in");
                    CompileOp {
                        src: render(name.to_string(), &g),
                        flows: vec![Old, New],
                        optimize: false,
                    }
                })
                .collect();
            for ops in inputs::SCALE_DRAW_OPS {
                let g = inputs::scale_draw(seed, ops);
                list.push(CompileOp {
                    src: render(format!("draw{ops}"), &g),
                    flows: vec![Old],
                    optimize: false,
                });
            }
            list
        }
    }
}

fn render(id: String, g: &Dfg) -> DesignSrc {
    DesignSrc {
        id,
        dsl: inputs::render(g, "", None).expect("generated designs have no extension nodes"),
    }
}

/// QoR of one operation, summed over its flows' final netlists.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Qor {
    pub area: f64,
    pub delay_ns: f64,
    pub cpa_count: f64,
}

impl Qor {
    fn add(&mut self, o: Qor) {
        self.area += o.area;
        self.delay_ns += o.delay_ns;
        self.cpa_count += o.cpa_count;
    }
}

/// Seeded check vectors for `g`, fixed per operation so every round sees
/// the same ones.
pub fn check_vectors(g: &Dfg, seed: u64) -> Vec<Vec<BitVec>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..CHECK_VECTORS)
        .map(|_| {
            g.inputs()
                .iter()
                .map(|&n| BitVec::from_fn(g.node(n).width(), |_| rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// Reference outputs of `g` on `lanes`.
pub fn reference(g: &Dfg, lanes: &[Vec<BitVec>]) -> Result<Vec<Vec<Vec<u64>>>, String> {
    let mut ev = RefEval::new(g).map_err(|e| e.to_string())?;
    lanes.iter().map(|l| ev.eval(l).map_err(|e| e.to_string())).collect()
}

/// Checks a netlist against reference outputs; `None` when it agrees.
pub fn check_netlist(
    g: &Dfg,
    nl: &Netlist,
    lanes: &[Vec<BitVec>],
    want: &[Vec<Vec<u64>>],
) -> Option<String> {
    let got = match nl.simulate_batch(lanes) {
        Ok(v) => v,
        Err(e) => return Some(format!("netlist does not simulate: {e}")),
    };
    let widths: Vec<usize> = g.outputs().iter().map(|&o| g.node(o).width()).collect();
    let mut bad = 0;
    for (got, want) in got.iter().zip(want) {
        if got.len() != want.len()
            || got.iter().zip(want).zip(&widths).any(|((g, w), &width)| !same_value(g, w, width))
        {
            bad += 1;
        }
    }
    (bad > 0).then(|| format!("netlist wrong on {bad} of {} vectors", lanes.len()))
}

/// Checks a transformed graph against reference outputs of the design.
pub fn check_graph(graph: &Dfg, lanes: &[Vec<BitVec>], want: &[Vec<Vec<u64>>]) -> Option<String> {
    let got = match reference(graph, lanes) {
        Ok(v) => v,
        Err(e) => return Some(format!("transformed graph does not evaluate: {e}")),
    };
    let bad = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (bad > 0).then(|| format!("transformed graph wrong on {bad} of {} vectors", lanes.len()))
}

/// A stopwatch that can be paused around untimed work.
struct Stopwatch {
    total: Duration,
    since: Option<Instant>,
}

impl Stopwatch {
    fn start() -> Stopwatch {
        Stopwatch { total: Duration::ZERO, since: Some(Instant::now()) }
    }
    fn pause(&mut self) {
        if let Some(t) = self.since.take() {
            self.total += t.elapsed();
        }
    }
    fn resume(&mut self) {
        self.since = Some(Instant::now());
    }
    fn stop(mut self) -> Duration {
        self.pause();
        self.total
    }
}

/// What one compile returned.
struct Outcome {
    elapsed: Duration,
    qor: Qor,
    failure: Option<String>,
}

/// One netlist to check after the timed work.
struct ToCheck {
    what: String,
    netlist: Netlist,
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs one compile, then checks every netlist it produced.
#[allow(clippy::too_many_arguments)]
fn compile_one(
    op: &CompileOp,
    g: &Dfg,
    lib: &Library,
    lanes: &[Vec<BitVec>],
    want: &[Vec<Vec<u64>>],
    index: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Outcome {
    let config = SynthConfig::default();
    let budget = FlowBudget::default();
    let mut failures: Vec<String> = Vec::new();
    let mut checks: Vec<ToCheck> = Vec::new();
    let mut graphs: Vec<Dfg> = Vec::new();
    let mut qor = Qor::default();
    let mut for_opt: Vec<(MergeStrategy, Netlist, f64)> = Vec::new();
    let op_span = tracer.open("compile", index);
    let mut sw = Stopwatch::start();
    for &strategy in &op.flows {
        let mut rec = tracer.recorder();
        let span = tracer.open(format!("run_flow_guarded_with {strategy}"), index);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_flow_guarded_with(
                g,
                strategy,
                &config,
                &budget,
                &mut rec,
                &mut TraceLog::disabled(),
            )
        }));
        let wrapper = tracer.close(span);
        if tracer.enabled() {
            tracer.adopt(span, &rec);
            layers.fold_flow(&rec, wrapper);
        }
        let guarded = match result {
            Ok(Ok(g)) => g,
            Ok(Err(e)) => {
                failures.push(format!("{strategy}: error: {e}"));
                continue;
            }
            Err(p) => {
                failures.push(format!("{strategy}: panic: {}", panic_text(p.as_ref())));
                continue;
            }
        };
        if let Some(d) = &guarded.degradation {
            failures.push(format!("{strategy}: degraded {}", d.tags().join(",")));
            layers.guard_fallbacks += d.steps.len() as f64;
        }
        let flow = guarded.flow;
        let gates_before = flow.netlist.num_gates();
        let mut nl = flow.netlist;
        let s = tracer.open("fold_constants", index);
        fold_constants(&mut nl);
        layers.fold_ms += ms(tracer.close(s));
        let s = tracer.open("sweep", index);
        let nl = nl.sweep();
        layers.sweep_ms += ms(tracer.close(s));
        let s = tracer.open("sta", index);
        let delay = nl.longest_path(lib).delay_ns;
        let area = nl.area(lib);
        layers.sta_ms += ms(tracer.close(s));
        let cpa = flow.metrics.cpa_count as f64;
        if tracer.enabled() {
            layers.gates_swept += gates_before.saturating_sub(nl.num_gates()) as f64;
            layers.synth_gates += gates_before as f64;
            layers.merge_clusters += flow.metrics.clusters as f64;
            layers.analysis_rounds += flow.metrics.transform_rounds as f64;
            layers.analysis_pushes += flow.metrics.worklist_pushes as f64;
            layers.ports_visited += flow.metrics.ports_visited as f64;
            layers.ports_skipped += flow.metrics.ports_skipped as f64;
        }
        if strategy == MergeStrategy::New {
            graphs.push(flow.graph);
        }
        if op.optimize && strategy != MergeStrategy::None {
            // The QoR of an optimized flow is counted after optimization.
            qor.cpa_count += cpa;
            for_opt.push((strategy, nl, delay));
        } else {
            qor.add(Qor { area, delay_ns: delay, cpa_count: cpa });
            checks.push(ToCheck { what: format!("{strategy}"), netlist: nl });
        }
    }
    if op.optimize && !for_opt.is_empty() {
        // Table 2: both netlists to the same target, halfway between the
        // new- and old-merge post-synthesis delays.
        let delay_of = |s: MergeStrategy| for_opt.iter().find(|f| f.0 == s).map(|f| f.2);
        let target = match (delay_of(MergeStrategy::Old), delay_of(MergeStrategy::New)) {
            (Some(old), Some(new)) => new + 0.5 * (old - new).max(0.0),
            (Some(d), None) | (None, Some(d)) => d,
            (None, None) => 0.0,
        };
        let cfg = OptConfig { target_delay_ns: target, ..OptConfig::default() };
        for (strategy, mut nl, _) in for_opt {
            sw.pause();
            checks
                .push(ToCheck { what: format!("{strategy} before optimize"), netlist: nl.clone() });
            sw.resume();
            let s = tracer.open(format!("optimize {strategy}"), index);
            let r = optimize(&mut nl, lib, &cfg);
            layers.optimize_ms += ms(tracer.close(s));
            if tracer.enabled() {
                layers.opt_iterations += r.iterations as f64;
                layers.opt_gates_sized += r.gates_sized as f64;
                layers.opt_buffers += r.buffers_inserted as f64;
                layers.opt_met += f64::from(u8::from(r.met));
                layers.opt_attempted += 1.0;
            }
            qor.area += r.end_area;
            qor.delay_ns += r.end_delay_ns;
            checks.push(ToCheck { what: format!("{strategy} after optimize"), netlist: nl });
        }
    }
    let elapsed = sw.stop();
    tracer.close(op_span);

    let s = tracer.open("check", index);
    for c in &checks {
        if let Some(e) = check_netlist(g, &c.netlist, lanes, want) {
            failures.push(format!("{}: {e}", c.what));
        }
    }
    for graph in &graphs {
        if let Some(e) = check_graph(graph, lanes, want) {
            failures.push(format!("new-merge: {e}"));
        }
    }
    tracer.close(s);
    let failure = (!failures.is_empty()).then(|| failures.join("; "));
    Outcome { elapsed, qor, failure }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Parses every design (validating it) and builds the cell library.
fn setup(op_list: &[CompileOp]) -> Result<(Vec<Dfg>, Library, Duration), String> {
    let t = Instant::now();
    let mut designs = Vec::with_capacity(op_list.len());
    for op in op_list {
        let g = parse_design(&op.src.dsl)
            .map_err(|e| format!("{}: generated DSL does not parse: {e}", op.src.id))?;
        designs.push(g);
    }
    let lib = Library::synthetic_025um();
    Ok((designs, lib, t.elapsed()))
}

/// Runs a compile workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let op_list = ops(&args.workload, args.seed);
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    let mut layers = Layers::default();

    let (designs, lib, _) = setup(&op_list)?;

    // Reference outputs are computed once, outside the timed phase.
    let mut checks = Vec::with_capacity(designs.len());
    for (i, (op, g)) in op_list.iter().zip(&designs).enumerate() {
        let lanes = check_vectors(g, sub_seed(args.seed, &format!("check-{i}")));
        let want = reference(g, &lanes)
            .map_err(|e| format!("{}: reference evaluation failed: {e}", op.src.id))?;
        checks.push((lanes, want));
    }

    // The set-up is repeated before every round (untimed otherwise), so
    // its median spans the whole run: the host's speed drifts by tens of
    // percent over seconds.
    let mut setup_times = Vec::new();
    let mut latencies = Vec::new();
    let mut round_rates = Vec::new();
    let mut rounds = 0u64;
    let mut first_round: Option<(Qor, u64)> = None;
    let mut peak_rss = 0.0;
    let started = Instant::now();
    loop {
        let s = tracer.open("setup", u64::MAX);
        let (parsed, _, took) = setup(&op_list)?;
        tracer.close(s);
        setup_times.push(took.as_secs_f64());
        layers.dsl_parse_ms += took.as_secs_f64() * 1e3;
        layers.dsl_nodes += parsed.iter().map(Dfg::num_nodes).sum::<usize>() as f64;
        let mut round_qor = Qor::default();
        let mut busy = Duration::ZERO;
        let mut round_failed = 0;
        for (i, (op, g)) in op_list.iter().zip(&designs).enumerate() {
            let (lanes, want) = &checks[i];
            let out = compile_one(op, g, &lib, lanes, want, i as u64, &mut tracer, &mut layers);
            report.attempted += 1;
            latencies.push(ms(out.elapsed));
            busy += out.elapsed;
            round_qor.add(out.qor);
            if let Some(reason) = out.failure {
                report.fail(&op.src.id, reason);
                round_failed += 1;
            }
        }
        rounds += 1;
        round_rates.push(op_list.len() as f64 / busy.as_secs_f64());
        match first_round {
            None => {
                first_round = Some((round_qor, round_failed));
                // Later rounds repeat the first one's work, so the peak
                // after it does not depend on how many rounds fit.
                peak_rss = peak_rss_mb();
            }
            Some(first) if first != (round_qor, round_failed) => {
                report
                    .problems
                    .push(format!("round {rounds} differs from round 1 in QoR or failures"));
            }
            Some(_) => {}
        }
        if started.elapsed() >= args.seconds {
            break;
        }
    }
    let (qor, _) = first_round.expect("at least one round");
    // Operations per second of operation wall time, per round; the median
    // over rounds keeps a slow spell of the host from moving it.
    let throughput = median(&round_rates);
    let p50 = median(&latencies);
    if args.trace {
        layers.emit(rounds, &mut report);
        report.metric("traced.throughput_per_s", throughput, "1/s");
        report.metric("traced.latency_ms_p50", p50, "ms");
        report.metric("traced.qor_area", qor.area, "area");
        report.metric("traced.qor_delay_ns", qor.delay_ns, "ns");
        report.metric("traced.qor_cpa_count", qor.cpa_count, "count");
        let path = std::path::PathBuf::from(".bench_scratch")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        report.metric("setup_s", median(&setup_times), "s");
        report.metric("throughput_per_s", throughput, "1/s");
        report.metric("latency_ms_p50", p50, "ms");
        report.metric("peak_rss_mb", peak_rss, "MB");
        report.metric("qor_area", qor.area, "area");
        report.metric("qor_delay_ns", qor.delay_ns, "ns");
        report.metric("qor_cpa_count", qor.cpa_count, "count");
    }
    eprintln!(
        "{}: seed {}, {rounds} round(s) of {} operation(s), {} failed; latency p90 {:.3} ms \
         over {} samples (reference only)",
        args.workload,
        args.seed,
        op_list.len(),
        report.failed,
        quantile(&latencies, 0.9),
        latencies.len()
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, seed: u64, trace: bool) -> Args {
        // A zero budget runs exactly one round.
        Args { workload: workload.into(), seed, seconds: Duration::ZERO, trace, fill_store: None }
    }

    fn metric(r: &Report, name: &str) -> f64 {
        r.metrics.iter().find(|m| m.0 == name).map(|m| m.1).unwrap_or_else(|| panic!("no {name}"))
    }

    #[test]
    fn grid_members_compile_undegraded_and_correct() {
        // Every design a paper-kernels seed can draw, through all three
        // flows and the Table 2 optimization, checked on 64 vectors.
        let lib = Library::synthetic_025um();
        let mut tracer = Tracer::new(false);
        let mut layers = Layers::default();
        for (i, (id, g)) in inputs::grid().into_iter().enumerate() {
            let src = DesignSrc { id: id.clone(), dsl: inputs::render(&g, "", None).unwrap() };
            let op = CompileOp {
                src,
                flows: vec![MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New],
                optimize: true,
            };
            let g = parse_design(&op.src.dsl).unwrap();
            let lanes = check_vectors(&g, i as u64);
            let want = reference(&g, &lanes).unwrap();
            let out = compile_one(&op, &g, &lib, &lanes, &want, 0, &mut tracer, &mut layers);
            assert_eq!(out.failure, None, "{id}");
        }
    }

    #[test]
    fn back_to_back_runs_agree_and_the_traced_run_reproduces_them() {
        for workload in ["paper-kernels", "scale"] {
            let a = run(&args(workload, 5, false)).unwrap();
            let b = run(&args(workload, 5, false)).unwrap();
            let t = run(&args(workload, 5, true)).unwrap();
            for r in [&a, &b, &t] {
                assert!(r.correct(), "{workload}: {:?}", r.problems);
            }
            assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{workload}");
            assert_eq!((a.attempted, a.failed), (t.attempted, t.failed), "{workload}");
            assert_eq!(
                a.failures.keys().collect::<Vec<_>>(),
                t.failures.keys().collect::<Vec<_>>()
            );
            for q in ["qor_area", "qor_delay_ns", "qor_cpa_count"] {
                assert_eq!(metric(&a, q), metric(&b, q), "{workload} {q}");
                assert_eq!(metric(&a, q), metric(&t, &format!("traced.{q}")), "{workload} {q}");
            }
        }
        // The one operation that fails is S10k, on its new-merge flow.
        let s = run(&args("scale", 5, false)).unwrap();
        assert_eq!(s.failed, 1);
        assert!(s.failures["S10k"].1.contains("new-merge: degraded"), "{:?}", s.failures);
    }
}
