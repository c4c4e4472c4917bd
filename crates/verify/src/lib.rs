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
//! A [`Verifier`] runs an ordered set of [`Pass`]es over a [`Context`]
//! holding the graph under scrutiny plus whatever optional artifacts exist:
//! the pre-transformation baseline, the [`Clustering`], the synthesized
//! [`Netlist`], and the width pipeline's [`TransformReport`]. The bundled
//! passes cover five families of checks:
//!
//! | family | pass | checks |
//! |--------|------|--------|
//! | `V0xx` | structural | DFG validity (cycles, arity, ports, fanout) |
//! | `R0xx` | required precision | RP recomputation vs widths, fixpoint |
//! | `I0xx` | information content | bound well-formedness, extension nodes |
//! | `C0xx` | cluster legality | break-node audit, synthesizability |
//! | `N0xx` | netlist | drivers, interface, dangling gates, fanout bookkeeping |
//! | `A0xx` | abstract interpretation | demand ⊆ RP, IC entailment, static diagnostics |
//!
//! Strictness: checks that only hold *after* [`optimize_widths`] has run to
//! a fixpoint (e.g. `r(p) <= w(n)`, "no edge wider than its source") are
//! gated behind [`Context::assume_optimized`] — on a raw design those
//! conditions are routinely and legitimately false.
//!
//! ```
//! use dp_bitvec::Signedness::Unsigned;
//! use dp_verify::{Context, Verifier};
//! use dp_analysis::optimize_widths;
//!
//! let mut g = dp_dfg::Dfg::new();
//! let a = g.input("a", 4);
//! let b = g.input("b", 4);
//! let s = g.op(dp_dfg::OpKind::Add, 16, &[(a, Unsigned), (b, Unsigned)]);
//! g.output("o", 5, s, Unsigned);
//! let baseline = g.clone();
//! let report = optimize_widths(&mut g);
//! let diags = Verifier::default().run(
//!     &Context::new(&g).baseline(&baseline).transform(&report).optimized(true),
//! );
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
pub use passes::{
    AbsintChecks, ClusterLegality, IcSoundness, NetlistChecks, RpSoundness, StructuralValidity,
};

/// Everything a verification run can look at.
///
/// Only [`Context::graph`] is mandatory; passes skip checks whose inputs
/// are absent. Build with [`Context::new`] and the chained setters.
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
    /// rebalancing — or a fault injection). When set, the `A0xx` pass
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
    /// `A0xx` pass audits the bounds actually used.
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

/// One checker: examines the context and appends diagnostics.
pub trait Pass {
    /// Short stable name, for logs and pass selection.
    fn name(&self) -> &'static str;

    /// Whether this pass requires a structurally valid graph. The verifier
    /// skips such passes when validation failed — analysis on a cyclic or
    /// mis-ported graph would panic, and the `V0xx` diagnostics already
    /// tell the story.
    fn needs_valid_graph(&self) -> bool {
        true
    }

    /// Runs the checks, pushing findings onto `out`.
    fn run(&self, cx: &Context<'_>, out: &mut Vec<Diagnostic>);
}

/// An ordered registry of [`Pass`]es.
///
/// [`Verifier::default`] installs the five bundled passes; [`Verifier::new`]
/// starts empty for custom pipelines.
pub struct Verifier {
    passes: Vec<Box<dyn Pass>>,
}

impl Default for Verifier {
    fn default() -> Self {
        let mut v = Verifier::new();
        v.register(Box::new(StructuralValidity));
        v.register(Box::new(RpSoundness));
        v.register(Box::new(IcSoundness));
        v.register(Box::new(ClusterLegality));
        v.register(Box::new(NetlistChecks));
        v.register(Box::new(AbsintChecks));
        v
    }
}

impl Verifier {
    /// An empty verifier with no passes.
    pub fn new() -> Self {
        Verifier { passes: Vec::new() }
    }

    /// Appends a pass; passes run in registration order.
    pub fn register(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// The registered pass names, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every applicable pass and collects the findings.
    ///
    /// Passes that need a valid graph are skipped when structural
    /// validation fails, so a broken graph yields its `V0xx` diagnostics
    /// instead of a panic inside an analysis.
    pub fn run(&self, cx: &Context<'_>) -> VerifyReport {
        self.run_with(cx, &mut Recorder::disabled())
    }

    /// [`Verifier::run`] with timing spans: one `verify` root containing
    /// one child span per executed pass, named after [`Pass::name`].
    /// Skipped passes record no span.
    pub fn run_with(&self, cx: &Context<'_>, rec: &mut Recorder) -> VerifyReport {
        let whole = rec.span("verify");
        let graph_ok = cx.graph.validate().is_ok();
        let mut diagnostics = Vec::new();
        for pass in &self.passes {
            if pass.needs_valid_graph() && !graph_ok {
                continue;
            }
            rec.scope(pass.name(), |_| pass.run(cx, &mut diagnostics));
        }
        rec.finish(whole);
        // Worst first; stable within a severity so pass order is kept.
        diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity()));
        VerifyReport { diagnostics }
    }
}

/// The findings of one [`Verifier::run`], worst first.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
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

    /// The findings carrying the given code.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
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

/// Runs the default verifier over a context — the one-call entry point.
pub fn verify(cx: &Context<'_>) -> VerifyReport {
    Verifier::default().run(cx)
}
