//! `I0xx`: information-content soundness (Definition 5.1, Lemmas 5.4–5.7).
//!
//! The check recomputes the ⟨i, t⟩ analysis from scratch and audits:
//!
//! - **I001** (error): a bound is malformed — it claims more bits than the
//!   signal has. The Lemma 5.4 transfer functions keep every claim within
//!   its signal's width, so this indicates analysis or graph corruption.
//! - **I002** (error, optimized only): an edge is wider than its source
//!   node. At the pruning fixpoint every extending edge has been narrowed
//!   (its signal is provably a `t`-extension of the source's bits), so a
//!   wide edge out of a narrow node means the Lemma 5.6 extension node
//!   that should sit between them is missing.
//! - **I003/I004** (warning, optimized only): a node (edge) that Lemma
//!   5.6 (5.7) would still narrow — the claimed fixpoint is not one.
//! - **I005** (info, optimized only): an extension node that neither
//!   extends nor truncates — a pure wire left behind.

use dp_analysis::info_content;
use dp_bitvec::Signedness;
use dp_dfg::NodeKind;

use crate::{Code, Context, Diagnostic, Location};

/// Information-content checker (see the module docs for the code list).
pub(crate) fn check(cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let g = cx.graph;
    let ic = info_content(g);

    for n in g.node_ids() {
        let node = g.node(n);
        let w = node.width();
        let claim = ic.output(n);
        if claim.i > w {
            out.push(Diagnostic::new(
                Code::I001,
                Location::Node(n),
                format!("output claim ⟨{},{}⟩ exceeds the node width {w}", claim.i, claim.t),
            ));
        }
        if cx.assume_optimized && node.kind().is_op() {
            if let Some(intrinsic) = ic.intrinsic(n) {
                if intrinsic.i.max(1) < w {
                    out.push(Diagnostic::new(
                        Code::I003,
                        Location::Node(n),
                        format!(
                            "width {w} exceeds intrinsic information content {}; \
                             Lemma 5.6 pruning would narrow this node",
                            intrinsic.i
                        ),
                    ));
                }
            }
        }
        if cx.assume_optimized {
            if let NodeKind::Extension(_) = node.kind() {
                let feed = node.in_edges().first().copied();
                if let Some(feed) = feed {
                    if g.edge(feed).width() == w {
                        out.push(Diagnostic::new(
                            Code::I005,
                            Location::Node(n),
                            format!("extension node is a pure {w}-bit wire"),
                        ));
                    }
                }
            }
        }
    }

    for e in g.edge_ids() {
        let edge = g.edge(e);
        let w_e = edge.width();
        let claim = ic.edge_signal(e);
        if claim.i > w_e {
            out.push(Diagnostic::new(
                Code::I001,
                Location::Edge(e),
                format!("signal claim ⟨{},{}⟩ exceeds the edge width {w_e}", claim.i, claim.t),
            ));
        }
        if !cx.assume_optimized {
            continue;
        }
        let w_src = g.node(edge.src()).width();
        if w_e > w_src {
            out.push(Diagnostic::new(
                Code::I002,
                Location::Edge(e),
                format!(
                    "edge width {w_e} exceeds its source's width {w_src}: the \
                     Lemma 5.6 extension node between them is missing"
                ),
            ));
            continue; // the prunability warning below would be noise
        }
        // Mirror of `prune_edge_widths`, including its signed-claim
        // safety guard: if this narrowing would apply, the fixpoint
        // claim is false.
        if claim.i < w_e {
            let dst_w = g.node(edge.dst()).width();
            let safe = match claim.t {
                Signedness::Unsigned => true,
                Signedness::Signed => edge.signedness() == Signedness::Signed || dst_w <= w_e,
            };
            if safe && claim.i.max(1) < w_e {
                out.push(Diagnostic::new(
                    Code::I004,
                    Location::Edge(e),
                    format!(
                        "edge carries only ⟨{},{}⟩ of its {w_e} bit(s); Lemma 5.7 \
                         pruning would narrow it",
                        claim.i, claim.t
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

    /// A design whose optimization inserts an extension node: a sum with a
    /// *signed* claim read through an *unsigned* edge by a wider consumer.
    /// Lemma 5.7's safety guard forbids narrowing that edge, so pruning
    /// the node must materialize the Definition 5.5 extension instead.
    fn with_extension() -> Dfg {
        let mut g = Dfg::new();
        let a = g.input("a", 3);
        let b = g.input("b", 3);
        let e = g.input("e", 12);
        let s = g.op(OpKind::Add, 12, &[(a, Signed), (b, Signed)]);
        let t = g.op_with_edges(OpKind::Add, 13, &[(s, 12, Unsigned), (e, 12, Signed)]);
        g.output("o", 13, t, Signed);
        g
    }

    #[test]
    fn optimized_graph_with_extension_nodes_is_clean() {
        let mut g = with_extension();
        optimize_widths(&mut g);
        let has_ext =
            g.node_ids().any(|n| matches!(g.node(n).kind(), dp_dfg::NodeKind::Extension(_)));
        assert!(has_ext, "scenario should force an extension node");
        let report = crate::verify(&Context::new(&g).optimized(true));
        assert!(!report.has_errors(), "{}", report.render(&g));
        assert!(!report.has_code(Code::I002), "{}", report.render(&g));
    }

    #[test]
    fn dropping_an_extension_node_raises_i002() {
        let mut g = with_extension();
        optimize_widths(&mut g);
        // Corrupt: bypass every extension node by rewiring its fanout back
        // to the narrowed source — exactly what a buggy transform that
        // "forgets" Lemma 5.6 would produce.
        let exts: Vec<_> = g
            .node_ids()
            .filter(|&n| matches!(g.node(n).kind(), dp_dfg::NodeKind::Extension(_)))
            .collect();
        assert!(!exts.is_empty());
        for ext in exts {
            let src = g.edge(g.node(ext).in_edges()[0]).src();
            for e in g.node(ext).out_edges().to_vec() {
                g.rewire_edge_src(e, src);
            }
        }
        let report = crate::verify(&Context::new(&g).optimized(true));
        assert!(report.has_code(Code::I002), "{}", report.render(&g));
        assert!(report.has_errors());
    }

    #[test]
    fn lenient_mode_accepts_raw_designs() {
        let g = with_extension();
        let report = crate::verify(&Context::new(&g));
        assert!(!report.has_errors(), "{}", report.render(&g));
    }
}
