//! `R0xx`: required-precision soundness (Definition 4.1 / Theorem 4.2).
//!
//! The check recomputes required precision from scratch on the graph under
//! scrutiny and compares it against the declared widths:
//!
//! - **R001** (error, optimized only): `r(p) > w(n)` on an operator or
//!   extension node. Theorem 4.2's clamp guarantees `r <= w` at the width
//!   fixpoint, so on an optimized graph this means some width was shrunk
//!   *below* what consumers require — the classic corruption this verifier
//!   exists to catch.
//! - **R002** (error, needs baseline): a node is narrower than
//!   `min(w_baseline, max(r, 1), max(i, 1))`. Neither the RP clamp nor
//!   information-content pruning ever narrows below that floor, so going
//!   under it loses functionality relative to the parsed design.
//! - **R003** (warning, optimized only): a node or edge is *wider* than
//!   the clamp allows — the pipeline did not reach its fixpoint.
//! - **R004** (warning): the attached [`TransformReport`] says the round
//!   cap was hit before convergence.
//! - **R005** (info): an operator with `r = 0` — dead code no output
//!   observes.
//!
//! [`TransformReport`]: dp_analysis::TransformReport

use dp_analysis::{info_content, required_precision};
use dp_dfg::NodeKind;

use crate::{Code, Context, Diagnostic, Location};

/// Required-precision checker (see the module docs for the code list).
pub(crate) fn check(cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let g = cx.graph;
    let rp = required_precision(g);
    let ic = info_content(g);

    if let Some(t) = cx.transform {
        if !t.converged {
            out.push(Diagnostic::new(
                Code::R004,
                Location::Global,
                format!(
                    "width pipeline stopped after {} round(s) while still making \
                     changes; further width reductions remain",
                    t.rounds
                ),
            ));
        }
    }

    for n in g.node_ids() {
        let node = g.node(n);
        let clampable = matches!(node.kind(), NodeKind::Op(_) | NodeKind::Extension(_));
        if !clampable {
            continue;
        }
        let r = rp.output_port(n);
        let w = node.width();
        if cx.assume_optimized {
            if r > w {
                out.push(Diagnostic::new(
                    Code::R001,
                    Location::Node(n),
                    format!(
                        "consumers require {r} low bit(s) but the node is only \
                         {w} bit(s) wide"
                    ),
                ));
            } else if r.max(1) < w {
                out.push(Diagnostic::new(
                    Code::R003,
                    Location::Node(n),
                    format!(
                        "width {w} exceeds required precision {r}; the Theorem 4.2 \
                         clamp would narrow this node"
                    ),
                ));
            }
        }
        if node.kind().is_op() && r == 0 {
            out.push(Diagnostic::new(
                Code::R005,
                Location::Node(n),
                "no primary output observes this operator",
            ));
        }
        if let Some(base) = cx.baseline {
            if node.kind().is_op() && n.index() < base.num_nodes() {
                let w_before = base.node(n).width();
                let i = ic.intrinsic(n).map_or(usize::MAX, |x| x.i);
                let floor = w_before.min(r.max(1)).min(i.max(1));
                if w < floor {
                    out.push(Diagnostic::new(
                        Code::R002,
                        Location::Node(n),
                        format!(
                            "width {w} is below the justified floor {floor} \
                             (baseline {w_before}, required precision {r}, \
                             information content {i})"
                        ),
                    ));
                }
            }
        }
    }

    if cx.assume_optimized {
        for e in g.edge_ids() {
            let edge = g.edge(e);
            let r = rp.input_port(edge.dst()).max(1);
            if edge.width() > r {
                out.push(Diagnostic::new(
                    Code::R003,
                    Location::Edge(e),
                    format!(
                        "edge width {} exceeds the destination's required \
                         precision {r}; the Theorem 4.2 clamp would narrow it",
                        edge.width()
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_analysis::optimize_widths;
    use dp_bitvec::Signedness::*;
    use dp_dfg::{Dfg, OpKind};

    /// The paper's Figure 3 graph (8-bit adders over 3-bit inputs).
    fn figure3() -> Dfg {
        let mut g = Dfg::new();
        let a = g.input("A", 3);
        let b = g.input("B", 3);
        let c = g.input("C", 3);
        let d = g.input("D", 3);
        let e = g.input("E", 9);
        let n1 = g.op(OpKind::Add, 8, &[(a, Signed), (b, Signed)]);
        let n2 = g.op(OpKind::Add, 8, &[(c, Signed), (d, Signed)]);
        let n3 = g.op(OpKind::Add, 8, &[(n1, Signed), (n2, Signed)]);
        let n4 = g.op_with_edges(OpKind::Add, 9, &[(n3, 9, Signed), (e, 9, Signed)]);
        g.output("R", 10, n4, Signed);
        g
    }

    #[test]
    fn optimized_figure3_is_error_free() {
        let base = figure3();
        let mut g = base.clone();
        let t = optimize_widths(&mut g);
        let report = crate::verify(&Context::new(&g).baseline(&base).transform(&t).optimized(true));
        assert!(!report.has_errors(), "{}", report.render(&g));
        assert_eq!(report.count(crate::Severity::Warn), 0, "{}", report.render(&g));
    }

    #[test]
    fn raw_figure3_in_lenient_mode_is_error_free() {
        let g = figure3();
        // Unoptimized: r > w at n1 (consumers read 9 bits of an 8-bit
        // adder). That is the *design's* truncation — lenient mode must
        // not flag it.
        let report = crate::verify(&Context::new(&g));
        assert!(!report.has_errors(), "{}", report.render(&g));
    }

    #[test]
    fn shrinking_below_rp_raises_r001_and_r002() {
        let base = figure3();
        let mut g = base.clone();
        optimize_widths(&mut g);
        // Corrupt: shrink the final adder below its required precision.
        let n4 = g.op_nodes().max_by_key(|n| n.index()).expect("figure 3 has operators");
        assert!(g.node(n4).width() > 2);
        g.set_node_width(n4, 2);
        let report = crate::verify(&Context::new(&g).baseline(&base).optimized(true));
        assert!(report.has_code(Code::R001), "{}", report.render(&g));
        assert!(report.has_code(Code::R002), "{}", report.render(&g));
        assert!(report.has_errors());
    }

    #[test]
    fn unconverged_transform_report_raises_r004() {
        let g = figure3();
        let t = dp_analysis::TransformReport {
            rounds: 9,
            node_width_changes: 3,
            converged: false,
            ..Default::default()
        };
        let report = crate::verify(&Context::new(&g).transform(&t));
        assert!(report.has_code(Code::R004), "{}", report.render(&g));
        assert!(!report.has_errors());
    }

    #[test]
    fn dead_operator_raises_r005() {
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let live = g.op(OpKind::Neg, 5, &[(a, Signed)]);
        let _dead = g.op(OpKind::Add, 6, &[(a, Unsigned), (a, Unsigned)]);
        g.output("o", 5, live, Signed);
        let report = crate::verify(&Context::new(&g));
        assert!(report.has_code(Code::R005), "{}", report.render(&g));
        assert!(!report.has_errors());
    }
}
