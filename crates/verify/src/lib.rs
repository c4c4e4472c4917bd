//! Semantic verifier and diagnostics for the datapath-merge flow.
//!
//! The transformations this workspace performs — required-precision
//! clamping (Theorem 4.2), information-content pruning with extension-node
//! insertion (Lemmas 5.6/5.7), break-node clustering (Section 6) and
//! CSA-tree synthesis — each rest on invariants the paper proves. This
//! crate re-derives those invariants *independently* on the produced
//! artifacts and reports violations as structured [`Diagnostic`]s, so a bug
//! in any transformation surfaces as a named, located finding instead of a
//! silent mis-synthesis.
//!
//! Each audit covers one artifact of a [`Context`], which holds the graph
//! under scrutiny plus whatever optional artifacts exist: the
//! pre-transformation baseline, the [`Clustering`], the synthesized
//! [`Netlist`], and the width pipeline's [`TransformReport`]. The checks
//! fall into six families:
//!
//! | family | audit | checks |
//! |--------|-------|--------|
//! | `V0xx` | graph | DFG validity (cycles, arity, ports, fanout) |
//! | `R0xx` | graph | RP recomputation vs widths, fixpoint |
//! | `I0xx` | graph | bound well-formedness, extension nodes |
//! | `C0xx` | clustering | break-node audit, synthesizability |
//! | `N0xx` | netlist | drivers, interface, dangling gates, fanout bookkeeping |
//! | `A0xx` | graph | demand ⊆ RP, IC entailment, static diagnostics |
//!
//! [`verify_graph`] and [`verify_clustering`] audit one artifact each; the
//! guarded flow calls them on the widths and the clustering it builds on.
//! [`verify_with`] audits what earlier [`Verdicts`] do not cover — the
//! netlist always — and folds those verdicts in, so a flow audits each
//! artifact once. [`verify`] audits everything.
//!
//! Strictness: checks that only hold *after* [`optimize_widths`] has run to
//! a fixpoint (e.g. `r(p) <= w(n)`, "no edge wider than its source") are
//! gated behind [`Context::assume_optimized`] — on a raw design those
//! conditions are routinely and legitimately false.
//!
//! ```
//! use dp_bitvec::Signedness::Unsigned;
//! use dp_verify::{verify, Context};
//! use dp_analysis::optimize_widths;
//!
//! let mut g = dp_dfg::Dfg::new();
//! let a = g.input("a", 4);
//! let b = g.input("b", 4);
//! let s = g.op(dp_dfg::OpKind::Add, 16, &[(a, Unsigned), (b, Unsigned)]);
//! g.output("o", 5, s, Unsigned);
//! let baseline = g.clone();
//! let report = optimize_widths(&mut g);
//! let diags =
//!     verify(&Context::new(&g).baseline(&baseline).transform(&report).optimized(true));
//! assert!(!diags.has_errors(), "{}", diags.render(&g));
//! ```
//!
//! [`optimize_widths`]: dp_analysis::optimize_widths

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod passes;

use dp_analysis::TransformReport;
use dp_dfg::Dfg;
use dp_merge::Clustering;
use dp_metrics::Recorder;
use dp_netlist::Netlist;

pub use diag::{Code, Diagnostic, Location, Severity};
pub use passes::absint::finding_code;

/// Everything a verification run can look at.
///
/// Only [`Context::graph`] is mandatory; checks whose inputs are absent
/// report nothing. Build with [`Context::new`] and the chained setters.
#[derive(Clone, Copy)]
pub struct Context<'a> {
    /// The graph under scrutiny (usually post-transformation).
    pub graph: &'a Dfg,
    /// The design as parsed, before any width transformation. Enables the
    /// pairwise checks (`R002`): node ids are stable across the pipeline's
    /// transformations, so nodes correspond by id.
    pub baseline: Option<&'a Dfg>,
    /// The clustering to audit (`C0xx`).
    pub clustering: Option<&'a Clustering>,
    /// The synthesized netlist to audit (`N0xx`).
    pub netlist: Option<&'a Netlist>,
    /// The width pipeline's report (`R004` convergence check).
    pub transform: Option<&'a TransformReport>,
    /// Intrinsic information-content overrides the flow applied (Huffman
    /// rebalancing — or a fault injection). When set, the `A0xx` check
    /// audits the IC analysis *under these overrides* instead of a clean
    /// recomputation, so a planted lie is checked rather than discarded.
    pub ic_overrides: Option<&'a dp_analysis::IntrinsicOverrides>,
    /// Whether `graph` is claimed to be at the width-optimization fixpoint.
    /// Turns on the strict post-fixpoint invariants (`R001`, `R003`,
    /// `I002`–`I005`).
    pub assume_optimized: bool,
}

impl<'a> Context<'a> {
    /// A context with only the graph; everything else absent, lenient mode.
    pub fn new(graph: &'a Dfg) -> Self {
        Context {
            graph,
            baseline: None,
            clustering: None,
            netlist: None,
            transform: None,
            ic_overrides: None,
            assume_optimized: false,
        }
    }

    /// Attaches the pre-transformation design for pairwise checks.
    pub fn baseline(mut self, baseline: &'a Dfg) -> Self {
        self.baseline = Some(baseline);
        self
    }

    /// Attaches a clustering to audit.
    pub fn clustering(mut self, clustering: &'a Clustering) -> Self {
        self.clustering = Some(clustering);
        self
    }

    /// Attaches a netlist to audit.
    pub fn netlist(mut self, netlist: &'a Netlist) -> Self {
        self.netlist = Some(netlist);
        self
    }

    /// Attaches the width pipeline's transform report.
    pub fn transform(mut self, transform: &'a TransformReport) -> Self {
        self.transform = Some(transform);
        self
    }

    /// Attaches the intrinsic IC overrides the flow ran under, so the
    /// `A0xx` check audits the bounds actually used.
    pub fn ic_overrides(mut self, overrides: &'a dp_analysis::IntrinsicOverrides) -> Self {
        self.ic_overrides = Some(overrides);
        self
    }

    /// Sets whether the graph is claimed to be width-optimized.
    pub fn optimized(mut self, yes: bool) -> Self {
        self.assume_optimized = yes;
        self
    }
}

/// The artifact a check audits.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Artifact {
    Graph,
    Clustering,
    Netlist,
}

/// A check: examines the context and appends diagnostics.
type Check = fn(&Context<'_>, &mut Vec<Diagnostic>);

/// Every check after the structural one, in run order, with its span name
/// and the artifact it audits. Each family comes from one check, so a
/// report lists a severity's findings family by family.
const CHECKS: [(&str, Artifact, Check); 5] = [
    ("rp-soundness", Artifact::Graph, passes::rp::check),
    ("ic-soundness", Artifact::Graph, passes::ic::check),
    ("cluster-legality", Artifact::Clustering, passes::cluster::check),
    ("netlist", Artifact::Netlist, passes::netlist::check),
    ("absint-checks", Artifact::Graph, passes::absint::check),
];

/// Runs the checks of the artifacts `audit` selects, in run order, with
/// one span per check. On a structurally invalid graph only the
/// structural check runs: analysis on a cyclic or mis-ported graph would
/// panic, and the `V0xx` diagnostics already tell the story.
fn run(cx: &Context<'_>, audit: impl Fn(Artifact) -> bool, rec: &mut Recorder) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let valid = if audit(Artifact::Graph) {
        rec.scope("structural", |_| passes::structural::check(cx, &mut out))
    } else {
        cx.graph.validate().is_ok()
    };
    if valid {
        for (name, artifact, check) in CHECKS {
            if audit(artifact) {
                rec.scope(name, |_| check(cx, &mut out));
            }
        }
    }
    out
}

/// Audits the graph: structural validity, required-precision and
/// information-content soundness, and the abstract-interpretation
/// cross-checks.
pub fn verify_graph(cx: &Context<'_>) -> VerifyReport {
    VerifyReport::new(run(cx, |a| a == Artifact::Graph, &mut Recorder::disabled()))
}

/// Audits the clustering (`C0xx`); reports nothing for a context without
/// one.
pub fn verify_clustering(cx: &Context<'_>) -> VerifyReport {
    VerifyReport::new(run(cx, |a| a == Artifact::Clustering, &mut Recorder::disabled()))
}

/// The reports of audits already run on a context's graph and clustering,
/// for [`verify_with`] to take instead of re-running those checks.
#[derive(Debug, Clone, Default)]
pub struct Verdicts {
    /// A [`verify_graph`] report, if the graph was audited.
    pub graph: Option<VerifyReport>,
    /// A [`verify_clustering`] report, if the clustering was audited.
    pub clustering: Option<VerifyReport>,
}

/// Audits every artifact of `cx` that `verdicts` holds no report for — the
/// netlist always — under one `verify` span with a child span per check
/// run, and folds the verdicts in. When each verdict is its artifact's
/// audit under the same context, the result equals [`verify`]'s.
pub fn verify_with(cx: &Context<'_>, verdicts: &Verdicts, rec: &mut Recorder) -> VerifyReport {
    let whole = rec.span("verify");
    let mut diagnostics = run(
        cx,
        |a| match a {
            Artifact::Graph => verdicts.graph.is_none(),
            Artifact::Clustering => verdicts.clustering.is_none(),
            Artifact::Netlist => true,
        },
        rec,
    );
    rec.finish(whole);
    for verdict in verdicts.graph.iter().chain(&verdicts.clustering) {
        diagnostics.extend_from_slice(verdict.diagnostics());
    }
    VerifyReport::new(diagnostics)
}

/// Audits every artifact of `cx` — the one-call entry point.
pub fn verify(cx: &Context<'_>) -> VerifyReport {
    verify_with(cx, &Verdicts::default(), &mut Recorder::disabled())
}

/// The findings of one audit, worst first.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// Sorts worst first, and within a severity family by family in run
    /// order; stable, so a check's findings keep their order.
    fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by_key(|d| (std::cmp::Reverse(d.severity()), d.code.family()));
        VerifyReport { diagnostics }
    }

    /// All findings, sorted worst-first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of findings at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity() == severity).count()
    }

    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether any finding carries the given code.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// `"E error(s), W warning(s), I info(s)"`.
    pub fn summary(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} info(s)",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        )
    }

    /// Renders every finding, one per line, naming nodes via `g`.
    pub fn render(&self, g: &Dfg) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            s.push_str(&d.render(g));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bitvec::{BitVec, Signedness::Unsigned};
    use dp_dfg::OpKind;
    use dp_merge::{cluster_none, Cluster};
    use dp_netlist::CellKind;

    /// Verdicts fold in where a full audit lists them: findings of every
    /// artifact at the same severity, a netlist checked between the graph's
    /// RP and absint checks, and only the netlist check re-run.
    #[test]
    fn verdicts_fold_in_where_a_full_audit_lists_them() {
        // A dead operator (R005 info) and a constant output (A003 warning).
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let s = g.op(OpKind::Add, 5, &[(a, Unsigned), (a, Unsigned)]);
        let m = g.op(OpKind::Mul, 9, &[(s, Unsigned), (a, Unsigned)]);
        g.output("o", 9, m, Unsigned);
        g.op(OpKind::Neg, 5, &[(a, Unsigned)]);
        let k = g.constant(BitVec::from_u64(2, 3));
        g.output("k", 2, k, Unsigned);
        // The adder feeds a multiplier operand inside one cluster (C002).
        let mut clustering = cluster_none(&g);
        clustering.clusters.retain(|c| c.output != s && c.output != m);
        let input_edges =
            g.edge_ids().filter(|&e| [s, m].contains(&g.edge(e).dst()) && g.edge(e).src() != s);
        clustering.clusters.push(Cluster {
            members: vec![s, m],
            output: m,
            input_edges: input_edges.collect(),
        });
        // A wrong interface (N003 error) and a dangling gate (N004 warning).
        let mut nl = Netlist::new();
        let bits = nl.input("a", 4);
        let x = nl.gate(CellKind::Inv, &[bits[0]]);
        nl.gate(CellKind::Inv, &[bits[1]]);
        nl.output("o", vec![x]);

        let cx = Context::new(&g).clustering(&clustering).netlist(&nl);
        let full = verify(&cx);
        let codes: Vec<Code> = full.diagnostics().iter().map(|d| d.code).collect();
        for code in [Code::C002, Code::N003, Code::N004, Code::A003, Code::R005] {
            assert!(codes.contains(&code), "{codes:?}");
        }
        let verdicts =
            Verdicts { graph: Some(verify_graph(&cx)), clustering: Some(verify_clustering(&cx)) };
        let mut rec = Recorder::new();
        assert_eq!(verify_with(&cx, &verdicts, &mut rec).diagnostics(), full.diagnostics());
        let spans: Vec<&str> = rec.records().iter().map(|r| r.name()).collect();
        assert_eq!(spans, ["verify", "netlist"]);
    }
}
