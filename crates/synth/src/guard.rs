//! Fault-tolerant flow driving: resource budgets, staged audits, and
//! graceful degradation.
//!
//! A flow that trusted every stage of the pipeline would let a bug in the
//! width analysis, the clustering, or the synthesizer either panic or —
//! worse — silently emit a wrong netlist. [`run_flow_guarded`], the one
//! flow driver, runs the stages under a [`FlowBudget`] and audits each
//! stage's artifact before building on it:
//!
//! 1. **Widths** — the budgeted pipeline
//!    ([`optimize_widths_budgeted_with`]) must finish within budget, keep
//!    the graph structurally valid, pass the `dp_verify` RP/IC audits,
//!    and stay functionally equivalent to the input design under
//!    differential evaluation. On failure the flow rolls back to the
//!    provably-legal **Theorem 4.2 widths only**
//!    ([`optimize_widths_rp_only_with`]), and to the untransformed design
//!    if even those fail.
//! 2. **Clustering** — must pass [`Clustering::validate`] and the
//!    cluster-legality audit. On failure the flow retreats to **singleton
//!    clusters** (one carry-propagate adder per operator — always legal).
//! 3. **Netlist** — must pass [`dp_netlist::Netlist::check`] and
//!    differential simulation against the input design. On failure the
//!    flow descends the same ladder: singleton clusters first, then the
//!    raw design.
//!
//! Both differential audits share one [`Equiv`] oracle.
//!
//! Every retreat is recorded as a [`Degradation`] step in a
//! [`DegradationReport`], mirrored into
//! [`FlowMetrics`](dp_metrics::FlowMetrics) and the trace log as
//! `FALLBACK-*` events, so a degraded answer is never mistaken for a
//! healthy one. Only a design the flow cannot synthesize *at all* —
//! invalid input, or a failure that survives the full ladder — produces an
//! error, and it is always a typed [`SynthError`], never a panic.
//!
//! With the `fault-inject` feature, [`FlowFault`] hooks expose the stage
//! boundaries so the `dp-fault` harness can corrupt intermediate artifacts
//! and assert the guards catch them.

use dp_analysis::{
    optimize_widths_budgeted_with, optimize_widths_rp_only_with, IntrinsicOverrides,
    PipelineBudget, TransformReport,
};
use dp_dfg::Dfg;
use dp_merge::{cluster_leakage, cluster_none, refine_clusters_with, Clustering, MergeReport};
use dp_metrics::{FlowMetrics, Recorder, Watchdog};
use dp_trace::{Rule, Subject, TraceLog};

use crate::equiv::Equiv;
use crate::flow::{synthesize_watched, widths, FlowResult, MergeStrategy, SynthError};
use crate::SynthConfig;

/// Resource and audit configuration for [`run_flow_guarded`].
///
/// The embedded [`PipelineBudget`] carries the supervision limits too:
/// [`PipelineBudget::deadline`] and [`PipelineBudget::max_live_bytes`] are
/// enforced cooperatively inside the analysis, clustering, and synthesis
/// loops of the guarded flow (not just at stage boundaries), and a breach
/// surfaces as the typed [`SynthError::Budget`] instead of descending the
/// degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowBudget {
    /// Caps on the width-optimization pipeline (rounds, worklist pushes,
    /// node count) plus the per-request supervision limits (wall-clock
    /// deadline, live-heap ceiling).
    pub pipeline: PipelineBudget,
    /// Random vectors per differential-evaluation audit; `0` disables the
    /// functional audits (the structural and `dp_verify` audits still
    /// run).
    pub check_vectors: usize,
    /// Seed for the audit vectors (fixed, so guarded flows stay
    /// deterministic).
    pub check_seed: u64,
}

impl Default for FlowBudget {
    fn default() -> Self {
        FlowBudget { pipeline: PipelineBudget::default(), check_vectors: 8, check_seed: 0xD1FF }
    }
}

impl FlowBudget {
    /// This budget with a wall-clock deadline armed.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.pipeline.deadline = Some(deadline);
        self
    }

    /// This budget with a live-heap ceiling (bytes) armed.
    pub fn with_memory_ceiling(mut self, max_live_bytes: u64) -> Self {
        self.pipeline.max_live_bytes = Some(max_live_bytes);
        self
    }

    /// A fresh watchdog over this budget's supervision limits.
    pub fn watchdog(&self) -> Watchdog {
        Watchdog::new(self.pipeline.deadline, self.pipeline.max_live_bytes)
    }
}

/// Which provably-safe artifact a degradation step retreated to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// Required-precision (Theorem 4.2) widths only; the
    /// information-content half of the pipeline was rolled back.
    RpOnly,
    /// Singleton clusters: one carry-propagate adder per operator.
    Singleton,
    /// The untransformed input design.
    Raw,
}

impl Fallback {
    /// The stable `FALLBACK-*` tag, matching the trace rule vocabulary.
    pub fn tag(self) -> &'static str {
        self.rule().tag()
    }

    /// The trace rule recorded when this fallback is taken.
    pub fn rule(self) -> Rule {
        match self {
            Fallback::RpOnly => Rule::FallbackRpOnly,
            Fallback::Singleton => Rule::FallbackSingleton,
            Fallback::Raw => Rule::FallbackRaw,
        }
    }
}

/// One recorded retreat: which stage failed its audit, why, and what the
/// flow fell back to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The stage whose audit failed (`"widths"`, `"clustering"`,
    /// `"netlist"`).
    pub stage: &'static str,
    /// Human-readable audit finding.
    pub reason: String,
    /// What the flow retreated to.
    pub fallback: Fallback,
}

/// Every degradation step one guarded flow took, in order.
///
/// Besides the CLI's `dpmc explain`-style rendering, the report is
/// mirrored into the bench row (the `FlowMetrics` `degradations`
/// counter block) and streamed as `degrade` events in the dp-obs
/// `dpmc-events/1` document, so a degraded flow is visible in every
/// telemetry surface without a re-run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// The retreats, in the order they were taken.
    pub steps: Vec<Degradation>,
}

impl DegradationReport {
    /// The `FALLBACK-*` tags of the steps, in order (as mirrored into
    /// [`FlowMetrics::fallbacks`]).
    pub fn tags(&self) -> Vec<String> {
        self.steps.iter().map(|s| s.fallback.tag().to_string()).collect()
    }

    /// One line per step: `stage: reason -> FALLBACK-TAG`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for step in &self.steps {
            s.push_str(&format!("{}: {} -> {}\n", step.stage, step.reason, step.fallback.tag()));
        }
        s
    }
}

/// The outcome of [`run_flow_guarded`]: a flow result that is either
/// healthy (`degradation` is `None`) or degraded-but-correct, with the
/// retreats on record.
#[derive(Debug, Clone)]
pub struct GuardedFlow {
    /// The synthesized flow (netlist, clustering, graph, metrics). For a
    /// degraded run this reflects the fallback artifacts actually used.
    pub flow: FlowResult,
    /// The retreats taken, or `None` for a fully healthy run.
    pub degradation: Option<DegradationReport>,
}

/// Stage-boundary hooks for deterministic fault injection (the `dp-fault`
/// harness). Each hook may corrupt the artifact it is handed; the guarded
/// flow must then either detect-and-degrade or fail with a typed error —
/// never panic, never emit a functionally wrong netlist.
#[cfg(feature = "fault-inject")]
pub trait FlowFault {
    /// Called after the width pipeline, before the width audit.
    fn after_widths(&mut self, _g: &mut Dfg) {}

    /// Called before clustering; may plant lies in the intrinsic
    /// information-content bounds the refinement consults.
    fn tamper_ic(&mut self, _overrides: &mut IntrinsicOverrides) {}

    /// Called after clustering, before the cluster audit.
    fn after_clustering(&mut self, _g: &Dfg, _clustering: &mut Clustering) {}
}

/// Internal hook carrier so the driver is written once, with or without
/// the `fault-inject` feature compiled in.
struct Hook<'h> {
    #[cfg(feature = "fault-inject")]
    inner: Option<&'h mut dyn FlowFault>,
    #[cfg(not(feature = "fault-inject"))]
    inner: std::marker::PhantomData<&'h mut ()>,
}

impl Hook<'_> {
    fn none() -> Self {
        Hook {
            #[cfg(feature = "fault-inject")]
            inner: None,
            #[cfg(not(feature = "fault-inject"))]
            inner: std::marker::PhantomData,
        }
    }

    fn after_widths(&mut self, _g: &mut Dfg) {
        #[cfg(feature = "fault-inject")]
        if let Some(h) = self.inner.as_mut() {
            h.after_widths(_g);
        }
    }

    fn tamper_ic(&mut self, _overrides: &mut IntrinsicOverrides) {
        #[cfg(feature = "fault-inject")]
        if let Some(h) = self.inner.as_mut() {
            h.tamper_ic(_overrides);
        }
    }

    fn after_clustering(&mut self, _g: &Dfg, _clustering: &mut Clustering) {
        #[cfg(feature = "fault-inject")]
        if let Some(h) = self.inner.as_mut() {
            h.after_clustering(_g, _clustering);
        }
    }
}

/// Runs one end-to-end synthesis flow on a copy of `g` — width pipeline
/// (new-merge only), clustering with the chosen strategy, CSA-tree
/// synthesis — with budgets, staged audits and graceful degradation.
///
/// # Errors
///
/// Returns [`SynthError`] only when the input design itself is invalid or
/// a failure survives the entire fallback ladder; every recoverable
/// failure degrades instead (see the module docs atop `guard.rs`).
pub fn run_flow_guarded(
    g: &Dfg,
    strategy: MergeStrategy,
    config: &SynthConfig,
    budget: &FlowBudget,
) -> Result<GuardedFlow, SynthError> {
    run_flow_guarded_with(
        g,
        strategy,
        config,
        budget,
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    )
}

/// [`run_flow_guarded`] with timing spans and decision provenance.
/// Degradations are recorded as `FALLBACK-*` trace events on the design's
/// first primary output.
///
/// # Errors
///
/// See [`run_flow_guarded`].
pub fn run_flow_guarded_with(
    g: &Dfg,
    strategy: MergeStrategy,
    config: &SynthConfig,
    budget: &FlowBudget,
    rec: &mut Recorder,
    tr: &mut TraceLog,
) -> Result<GuardedFlow, SynthError> {
    drive(g, strategy, config, budget, Hook::none(), rec, tr)
}

/// [`run_flow_guarded_with`] with fault-injection hooks — the entry point
/// of the `dpmc faultcheck` harness.
///
/// # Errors
///
/// See [`run_flow_guarded`].
#[cfg(feature = "fault-inject")]
pub fn run_flow_guarded_hooked(
    g: &Dfg,
    strategy: MergeStrategy,
    config: &SynthConfig,
    budget: &FlowBudget,
    hook: &mut dyn FlowFault,
    rec: &mut Recorder,
    tr: &mut TraceLog,
) -> Result<GuardedFlow, SynthError> {
    drive(g, strategy, config, budget, Hook { inner: Some(hook) }, rec, tr)
}

/// The staged driver behind every guarded entry point.
fn drive(
    g: &Dfg,
    strategy: MergeStrategy,
    config: &SynthConfig,
    budget: &FlowBudget,
    mut hook: Hook<'_>,
    rec: &mut Recorder,
    tr: &mut TraceLog,
) -> Result<GuardedFlow, SynthError> {
    g.validate()?;
    // One oracle serves every differential audit of this flow: the width
    // and netlist audits draw the same vectors, so the design is evaluated
    // once up front. Building it can only fail on a design whose reference
    // evaluation fails — nothing the fallback ladder could repair.
    let oracle = Equiv::new(g, budget.check_seed, budget.check_vectors)
        .map_err(|e| SynthError::Audit(format!("reference evaluation failed: {e}")))?;
    let whole = rec.span(format!("guarded flow {strategy}"));
    let mut report = DegradationReport::default();
    let subject = Subject::Node(g.outputs().first().map_or(0, |n| n.index()));
    let (node_width_before, edge_width_before) = widths(g);

    // Stage 1: widths. Only the new-merge strategy transforms the graph.
    // `raw` tracks whether `graph` is still the untransformed design —
    // the bottom rung of the ladder.
    let wd = budget.watchdog();
    let mut graph = g.clone();
    let mut transform = TransformReport { converged: true, ..TransformReport::default() };
    let mut raw = true;
    if strategy == MergeStrategy::New {
        let span = rec.span("guarded widths");
        transform = optimize_widths_budgeted_with(&mut graph, &budget.pipeline, rec, tr);
        hook.after_widths(&mut graph);
        raw = false;
        // A supervision breach (deadline / memory ceiling) aborts the
        // flow outright rather than descending the ladder: the RP-only
        // rollback would re-run analysis against a budget that is
        // already spent.
        if let Some(b) = transform.budget_breach.filter(|b| b.is_supervision()) {
            return Err(SynthError::Budget(b.to_string()));
        }
        if let Some(reason) = audit_widths(g, &graph, &transform, &oracle, true) {
            let abandoned = graph.total_op_width();
            report.steps.push(Degradation { stage: "widths", reason, fallback: Fallback::RpOnly });
            graph = g.clone();
            transform = optimize_widths_rp_only_with(&mut graph, tr);
            tr.emit(Rule::FallbackRpOnly, subject, abandoned, graph.total_op_width());
            if let Some(reason) = audit_widths(g, &graph, &transform, &oracle, false) {
                let abandoned = graph.total_op_width();
                report.steps.push(Degradation { stage: "widths", reason, fallback: Fallback::Raw });
                graph = g.clone();
                transform = TransformReport { converged: true, ..TransformReport::default() };
                raw = true;
                tr.emit(Rule::FallbackRaw, subject, abandoned, graph.total_op_width());
            }
        }
        rec.finish(span);
    }

    // Stage 2: clustering on the settled graph. The legality audit only
    // assumes width fixpoints for a graph the width stage fully optimized.
    if wd.poll() {
        return Err(SynthError::Budget(supervision_limit(&wd)));
    }
    let at_fixpoint = strategy == MergeStrategy::New && report.steps.is_empty();
    let span = rec.span("guarded clustering");
    let (mut clustering, mut merge) = match strategy {
        MergeStrategy::None => (cluster_none(&graph), None),
        MergeStrategy::Old => (cluster_leakage(&graph), None),
        MergeStrategy::New => {
            let mut overrides = IntrinsicOverrides::new();
            hook.tamper_ic(&mut overrides);
            let (c, mut r) = refine_clusters_with(&graph, &mut overrides, rec, tr);
            r.transform = transform.clone();
            (c, Some(r))
        }
    };
    hook.after_clustering(&graph, &mut clustering);
    if let Some(reason) = audit_clustering(&graph, &clustering, at_fixpoint) {
        let abandoned = clustering.len();
        clustering = cluster_none(&graph);
        tr.emit(Rule::FallbackSingleton, subject, abandoned, clustering.len());
        report.steps.push(Degradation {
            stage: "clustering",
            reason,
            fallback: Fallback::Singleton,
        });
        if let Some(m) = merge.as_mut() {
            m.break_nodes = 0;
        }
    }
    rec.finish(span);

    // Stage 3: synthesis plus netlist audit, descending the remaining
    // ladder on failure: singleton clusters first, then the raw design.
    // A supervision breach short-circuits the ladder the same way it does
    // in stage 1.
    let outcome = loop {
        if wd.poll() {
            break Err(SynthError::Budget(supervision_limit(&wd)));
        }
        // The netlist is audited against the *input* design, not the
        // transformed graph, so a width-stage escape is still caught here.
        let attempt =
            synthesize_watched(&graph, &clustering, config, rec, &wd).and_then(|(nl, csa)| {
                match oracle.netlist_mismatch(&nl) {
                    None => Ok((nl, csa)),
                    Some(m) => Err(SynthError::Audit(m.describe("netlist", g))),
                }
            });
        match attempt {
            Ok(ok) => break Ok(ok),
            Err(e @ SynthError::Budget(_)) => break Err(e),
            Err(e) => {
                let reason = e.to_string();
                let singleton = clustering.clusters.iter().all(|c| c.len() == 1);
                if !singleton {
                    let abandoned = clustering.len();
                    clustering = cluster_none(&graph);
                    tr.emit(Rule::FallbackSingleton, subject, abandoned, clustering.len());
                    report.steps.push(Degradation {
                        stage: "netlist",
                        reason,
                        fallback: Fallback::Singleton,
                    });
                    if let Some(m) = merge.as_mut() {
                        m.break_nodes = 0;
                    }
                } else if !raw {
                    let abandoned = graph.total_op_width();
                    graph = g.clone();
                    transform = TransformReport { converged: true, ..TransformReport::default() };
                    clustering = cluster_none(&graph);
                    raw = true;
                    tr.emit(Rule::FallbackRaw, subject, abandoned, graph.total_op_width());
                    report.steps.push(Degradation {
                        stage: "netlist",
                        reason,
                        fallback: Fallback::Raw,
                    });
                    if let Some(m) = merge.as_mut() {
                        *m = MergeReport { transform: transform.clone(), ..MergeReport::default() };
                    }
                } else {
                    break Err(e);
                }
            }
        }
    };
    rec.finish(whole);
    let (netlist, csa) = outcome?;

    let (node_width_after, edge_width_after) = widths(&graph);
    let mut metrics = FlowMetrics {
        strategy: strategy.to_string(),
        node_width_before,
        node_width_after,
        edge_width_before,
        edge_width_after,
        clusters: clustering.len(),
        csa_depth: csa.csa_depth,
        cpa_count: csa.cpa_count,
        gates: netlist.num_gates(),
        degraded: !report.steps.is_empty(),
        fallbacks: report.tags(),
        ..FlowMetrics::default()
    };
    if let Some(r) = &merge {
        metrics.transform_rounds = r.transform.rounds;
        metrics.transform_converged = r.transform.converged;
        metrics.worklist_pushes = r.transform.worklist_pushes();
        metrics.ports_visited = r.transform.ports_visited();
        metrics.ports_skipped = r.transform.ports_skipped();
        metrics.break_nodes = r.break_nodes;
    } else {
        metrics.transform_converged = true;
    }
    let flow = FlowResult { netlist, clustering, graph, strategy, merge, metrics };
    let degradation = if report.steps.is_empty() { None } else { Some(report) };
    Ok(GuardedFlow { flow, degradation })
}

/// Audits a width-transformed graph against the input design. Returns the
/// first failure, or `None` when the artifact is safe to build on.
/// `at_fixpoint` arms the strict post-fixpoint `dp_verify` invariants —
/// only valid for the full RP+IC pipeline, not the RP-only rollback.
fn audit_widths(
    base: &Dfg,
    graph: &Dfg,
    transform: &TransformReport,
    oracle: &Equiv,
    at_fixpoint: bool,
) -> Option<String> {
    if let Some(b) = transform.budget_breach {
        return Some(format!("width pipeline stopped early: {b} budget hit"));
    }
    if !transform.converged {
        return Some("width pipeline did not converge".to_string());
    }
    if let Err(e) = graph.validate() {
        return Some(format!("transformed graph invalid: {e}"));
    }
    let cx =
        dp_verify::Context::new(graph).baseline(base).transform(transform).optimized(at_fixpoint);
    let diags = dp_verify::Verifier::default().run(&cx);
    if diags.has_errors() {
        return Some(format!("verifier rejected widths: {}", first_error(&diags, graph)));
    }
    oracle.graph_mismatch(graph).map(|m| m.describe("transformed graph", base))
}

/// Audits a clustering for structural fit and break-node legality.
fn audit_clustering(graph: &Dfg, clustering: &Clustering, at_fixpoint: bool) -> Option<String> {
    if let Err(e) = clustering.validate(graph) {
        return Some(format!("clustering invalid: {e}"));
    }
    let cx = dp_verify::Context::new(graph).clustering(clustering).optimized(at_fixpoint);
    let mut v = dp_verify::Verifier::new();
    v.register(Box::new(dp_verify::ClusterLegality));
    let diags = v.run(&cx);
    if diags.has_errors() {
        return Some(format!("verifier rejected clustering: {}", first_error(&diags, graph)));
    }
    None
}

/// Renders the limit a tripped watchdog hit (for [`SynthError::Budget`]).
fn supervision_limit(wd: &Watchdog) -> String {
    wd.trip().map_or_else(|| "supervision".to_string(), |t| t.to_string())
}

/// Renders the worst diagnostic of a verify report (reports are sorted
/// worst-first, so the first entry is an error whenever any exists).
fn first_error(diags: &dp_verify::VerifyReport, g: &Dfg) -> String {
    diags.diagnostics().first().map_or_else(|| "unknown".to_string(), |d| d.render(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bitvec::Signedness::*;
    use dp_dfg::gen::{random_dfg, GenConfig};
    use dp_dfg::OpKind;
    use rand::{rngs::StdRng, SeedableRng};

    fn sum_of_products() -> Dfg {
        let mut g = Dfg::new();
        let ins: Vec<_> = ["a", "b", "c", "d"].iter().map(|n| g.input(*n, 6)).collect();
        let m1 = g.op(OpKind::Mul, 12, &[(ins[0], Unsigned), (ins[1], Unsigned)]);
        let m2 = g.op(OpKind::Mul, 12, &[(ins[2], Unsigned), (ins[3], Unsigned)]);
        let s = g.op(OpKind::Add, 13, &[(m1, Unsigned), (m2, Unsigned)]);
        g.output("r", 13, s, Unsigned);
        g
    }

    /// A healthy guarded flow reports no degradation and builds exactly
    /// what its stages composed by hand, with no audit in between, build.
    #[test]
    fn healthy_flow_matches_the_composed_stages_and_reports_no_degradation() {
        let g = sum_of_products();
        let budget = FlowBudget::default();
        for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
            let guarded = run_flow_guarded(&g, strategy, &SynthConfig::default(), &budget)
                .unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert!(guarded.degradation.is_none(), "{strategy} degraded unexpectedly");
            assert!(!guarded.flow.metrics.degraded);
            assert!(guarded.flow.metrics.fallbacks.is_empty());

            let mut graph = g.clone();
            let (clustering, merge) = match strategy {
                MergeStrategy::None => (cluster_none(&graph), None),
                MergeStrategy::Old => (cluster_leakage(&graph), None),
                MergeStrategy::New => {
                    let (c, r) = dp_merge::cluster_max(&mut graph);
                    (c, Some(r))
                }
            };
            let (netlist, csa) = synthesize_watched(
                &graph,
                &clustering,
                &SynthConfig::default(),
                &mut Recorder::disabled(),
                &Watchdog::disabled(),
            )
            .unwrap();
            let m = &guarded.flow.metrics;
            assert_eq!(m.clusters, clustering.len(), "{strategy} clusters drifted");
            assert_eq!((m.csa_depth, m.cpa_count), (csa.csa_depth, csa.cpa_count), "{strategy}");
            assert_eq!(m.gates, netlist.num_gates(), "{strategy} gates drifted");
            assert_eq!(widths(&guarded.flow.graph), widths(&graph), "{strategy} widths drifted");
            // Round wall times differ between runs; everything else must not.
            let counts = |r: &MergeReport| {
                let t = &r.transform;
                (r.rounds, r.refinements, r.break_nodes, t.rounds, t.node_width_changes)
            };
            assert_eq!(
                guarded.flow.merge.as_ref().map(counts),
                merge.as_ref().map(counts),
                "{strategy} merge report drifted"
            );
        }
    }

    #[test]
    fn healthy_random_designs_never_degrade() {
        let mut rng = StdRng::seed_from_u64(0x6A1);
        let budget = FlowBudget::default();
        for case in 0..10 {
            let g = random_dfg(&mut rng, &GenConfig { num_ops: 7, ..GenConfig::default() });
            let guarded =
                run_flow_guarded(&g, MergeStrategy::New, &SynthConfig::default(), &budget)
                    .unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert!(guarded.degradation.is_none(), "case {case} degraded");
        }
    }

    /// Figure-2 style slack: a 5-bit output makes the wide intermediates
    /// superfluous, so the width pipeline needs a change round plus a
    /// confirming round — more than a one-round budget allows.
    fn slack_design() -> Dfg {
        let mut g = Dfg::new();
        let a = g.input("a", 8);
        let b = g.input("b", 8);
        let c = g.input("c", 8);
        let n1 = g.op(OpKind::Add, 9, &[(a, Signed), (b, Signed)]);
        let n2 = g.op(OpKind::Add, 10, &[(n1, Signed), (c, Signed)]);
        g.output("r", 5, n2, Signed);
        g
    }

    #[test]
    fn round_budget_exhaustion_degrades_to_rp_only() {
        let g = slack_design();
        let budget = FlowBudget {
            pipeline: PipelineBudget { max_rounds: 1, ..PipelineBudget::default() },
            ..FlowBudget::default()
        };
        // One round cannot reach the fixpoint on this design, so the
        // guarded flow must retreat — and still synthesize correctly.
        let guarded =
            run_flow_guarded(&g, MergeStrategy::New, &SynthConfig::default(), &budget).unwrap();
        let report = guarded.degradation.expect("budget breach must degrade");
        assert_eq!(report.steps[0].fallback, Fallback::RpOnly);
        assert!(guarded.flow.metrics.degraded);
        assert_eq!(guarded.flow.metrics.fallbacks[0], "FALLBACK-RP-ONLY");
        let defaults = FlowBudget::default();
        let oracle = Equiv::new(&g, defaults.check_seed, defaults.check_vectors).unwrap();
        assert_eq!(oracle.netlist_mismatch(&guarded.flow.netlist), None);
    }

    #[test]
    fn degradations_emit_fallback_trace_events() {
        let g = slack_design();
        let budget = FlowBudget {
            pipeline: PipelineBudget { max_rounds: 1, ..PipelineBudget::default() },
            ..FlowBudget::default()
        };
        let mut tr = TraceLog::new();
        let guarded = run_flow_guarded_with(
            &g,
            MergeStrategy::New,
            &SynthConfig::default(),
            &budget,
            &mut Recorder::disabled(),
            &mut tr,
        )
        .unwrap();
        assert!(guarded.degradation.is_some());
        assert!(
            tr.events().iter().any(|e| e.rule == Rule::FallbackRpOnly),
            "FALLBACK-RP-ONLY event missing from trace"
        );
    }

    #[test]
    fn invalid_input_is_a_typed_error() {
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        // An output wired to a dangling width mismatch is caught by
        // validate; an empty graph with an op missing operands also works.
        let n = g.op(OpKind::Add, 5, &[(a, Unsigned), (a, Unsigned)]);
        g.output("o", 5, n, Unsigned);
        let mut ok = true;
        if let Err(e) = run_flow_guarded(
            &g,
            MergeStrategy::New,
            &SynthConfig::default(),
            &FlowBudget::default(),
        ) {
            ok = matches!(e, SynthError::InvalidGraph(_));
        }
        assert!(ok);
    }

    #[test]
    fn expired_deadline_is_a_typed_budget_error_not_a_degradation() {
        let g = slack_design();
        let budget = FlowBudget::default()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = run_flow_guarded(&g, MergeStrategy::New, &SynthConfig::default(), &budget)
            .expect_err("expired deadline must abort the flow");
        match err {
            SynthError::Budget(limit) => assert_eq!(limit, "wall-clock deadline"),
            other => panic!("expected SynthError::Budget, got {other}"),
        }
    }

    #[test]
    fn generous_deadline_leaves_flow_healthy() {
        let g = sum_of_products();
        let budget = FlowBudget::default()
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        let guarded =
            run_flow_guarded(&g, MergeStrategy::New, &SynthConfig::default(), &budget).unwrap();
        assert!(guarded.degradation.is_none());
        let plain = run_flow_guarded(
            &g,
            MergeStrategy::New,
            &SynthConfig::default(),
            &FlowBudget::default(),
        )
        .unwrap();
        assert_eq!(guarded.flow.metrics, plain.flow.metrics);
    }

    #[test]
    fn zero_vector_budget_disables_functional_audits_only() {
        let g = sum_of_products();
        let budget = FlowBudget { check_vectors: 0, ..FlowBudget::default() };
        let guarded =
            run_flow_guarded(&g, MergeStrategy::New, &SynthConfig::default(), &budget).unwrap();
        assert!(guarded.degradation.is_none());
    }
}
