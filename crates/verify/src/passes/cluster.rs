//! `C0xx`: cluster legality (Section 6's safety and synthesizability
//! conditions, re-audited on the *output* of the merge).
//!
//! - **C001** (error): the clustering is structurally malformed
//!   ([`Clustering::validate`] failed). The remaining checks are skipped —
//!   membership queries are meaningless on a malformed partition.
//! - **C002** (error): an operator inside a cluster feeds a multiplier
//!   operand in the same cluster. Synthesizability Condition 1: partial
//!   products are CSA-tree *leaves*; a multiplier operand must arrive on a
//!   cluster input.
//! - **C003** (error, optimized only): a member other than the cluster
//!   output is a **break node** under an independent re-run of the
//!   Section 6 analysis (including the Huffman rebalancing iteration,
//!   reproduced on a scratch copy of the graph). Break nodes must
//!   terminate clusters; merging across one is unsafe.
//! - **C004** (error, optimized only): a cluster-internal edge truncates
//!   real information (the signal claim is trivial, yet the source had
//!   more bits) and the consumer then re-extends it — the classic
//!   truncate-then-extend bottleneck a single sum cannot express.
//!
//! [`Clustering::validate`]: dp_merge::Clustering::validate

use std::collections::HashSet;

use dp_analysis::{info_content, IntrinsicOverrides};
use dp_dfg::{NodeId, OpKind};
use dp_merge::{refine_clusters_with, ClusterError};
use dp_metrics::Recorder;
use dp_trace::TraceLog;

use crate::{Code, Context, Diagnostic, Location};

/// Cluster-legality checker (see the module docs for the code list).
pub(crate) fn check(cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let Some(clustering) = cx.clustering else {
        return;
    };
    let g = cx.graph;

    if let Err(e) = clustering.validate(g) {
        let location = match &e {
            ClusterError::Overlap { node } | ClusterError::Unassigned { node } => {
                Location::Node(*node)
            }
            ClusterError::OutputNotMember { output } | ClusterError::Disconnected { output } => {
                Location::Node(*output)
            }
            ClusterError::MultipleOutputs { cluster_output, .. } => Location::Node(*cluster_output),
            ClusterError::BadInputEdge { edge } => Location::Edge(*edge),
        };
        out.push(Diagnostic::new(Code::C001, location, e.to_string()));
        return;
    }

    let ic = info_content(g);

    // C003: independently recompute the break set. The final break
    // decision depends on the Huffman-refined bounds, so the honest
    // reference is a re-run of the break/cluster/Huffman refinement
    // loop. The width pipeline is skipped: `assume_optimized` promises
    // the graph is already width-optimized, which makes that pass a
    // no-op — and skipping it lets the refinement borrow the graph
    // directly instead of re-optimizing a scratch clone.
    let reference_breaks: Option<HashSet<NodeId>> = cx.assume_optimized.then(|| {
        let mut overrides = IntrinsicOverrides::new();
        let (reference, _) = refine_clusters_with(
            g,
            &mut overrides,
            &mut Recorder::disabled(),
            &mut TraceLog::disabled(),
        );
        reference.break_nodes.iter().copied().collect()
    });

    for (k, c) in clustering.clusters.iter().enumerate() {
        if let Some(breaks) = &reference_breaks {
            for &m in &c.members {
                if m != c.output && breaks.contains(&m) {
                    out.push(Diagnostic::new(
                        Code::C003,
                        Location::Node(m),
                        format!(
                            "break node merged into the interior of cluster {k}: \
                             the Section 6 audit requires it to terminate a cluster"
                        ),
                    ));
                }
            }
        }
        for &m in &c.members {
            for &e in g.node(m).out_edges() {
                let edge = g.edge(e);
                let dst = edge.dst();
                if !c.contains(dst) {
                    continue;
                }
                if g.node(dst).kind().op() == Some(OpKind::Mul) {
                    out.push(Diagnostic::new(
                        Code::C002,
                        Location::Edge(e),
                        format!(
                            "operator {m} feeds a multiplier operand inside \
                             cluster {k}; multiplier operands must be cluster inputs"
                        ),
                    ));
                }
                if cx.assume_optimized {
                    let w_e = edge.width();
                    let w_src = g.node(m).width();
                    let w_dst = g.node(dst).width();
                    if w_e < w_src
                        && w_dst > w_e
                        && ic.output(m).i > w_e
                        && ic.edge_signal(e).is_trivial_at(w_e)
                    {
                        out.push(Diagnostic::new(
                            Code::C004,
                            Location::Edge(e),
                            format!(
                                "edge truncates {} informative bit(s) to {w_e} and \
                                 the consumer re-extends to {w_dst} inside \
                                 cluster {k}: a single sum cannot express this",
                                ic.output(m).i
                            ),
                        ));
                    }
                }
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
    use dp_merge::{cluster_none, Cluster, Clustering};

    /// Figure 1's scenario: an intentionally truncating adder whose result
    /// a consumer re-extends — `n1` must be a break node.
    fn figure1_like() -> Dfg {
        let mut g = Dfg::new();
        let a = g.input("a", 8);
        let b = g.input("b", 8);
        let c = g.input("c", 9);
        let n1 = g.op(OpKind::Add, 7, &[(a, Signed), (b, Signed)]);
        let n3 = g.op_with_edges(OpKind::Add, 10, &[(n1, 9, Signed), (c, 9, Signed)]);
        g.output("r", 10, n3, Signed);
        g
    }

    #[test]
    fn genuine_clustering_passes_the_audit() {
        let mut g = figure1_like();
        let (clustering, report) = dp_merge::cluster_max(&mut g);
        let cx =
            Context::new(&g).clustering(&clustering).transform(&report.transform).optimized(true);
        let report = crate::verify(&cx);
        assert!(!report.has_errors(), "{}", report.render(&g));
    }

    /// Flatten a genuine clustering into one big forged cluster whose
    /// output is the member with no internal fanout.
    fn flatten(g: &Dfg, genuine: &Clustering) -> Clustering {
        let mut members: Vec<_> =
            genuine.clusters.iter().flat_map(|c| c.members.iter().copied()).collect();
        members.sort();
        let output = *members
            .iter()
            .find(|&&m| {
                g.node(m)
                    .out_edges()
                    .iter()
                    .all(|&e| members.binary_search(&g.edge(e).dst()).is_err())
            })
            .expect("some member has only external fanout");
        let mut input_edges: Vec<_> = g
            .edge_ids()
            .filter(|&e| {
                members.binary_search(&g.edge(e).dst()).is_ok()
                    && members.binary_search(&g.edge(e).src()).is_err()
            })
            .collect();
        input_edges.sort();
        Clustering {
            clusters: vec![Cluster { members, output, input_edges }],
            break_nodes: vec![output],
        }
    }

    #[test]
    fn merging_across_a_break_node_raises_c003() {
        let mut g = figure1_like();
        let (genuine, _) = dp_merge::cluster_max(&mut g);
        assert!(genuine.clusters.len() >= 2, "n1 must break into its own cluster");
        // Corrupt: force everything into one cluster, ignoring the break.
        let forged = flatten(&g, &genuine);
        forged.validate(&g).expect("forged clustering is structurally fine");
        let report = crate::verify(&Context::new(&g).clustering(&forged).optimized(true));
        assert!(report.has_code(Code::C003), "{}", report.render(&g));
        assert!(report.has_errors());
    }

    #[test]
    fn internal_multiplier_operand_raises_c002() {
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let b = g.input("b", 4);
        let s = g.op(OpKind::Add, 5, &[(a, Unsigned), (b, Unsigned)]);
        let m = g.op(OpKind::Mul, 9, &[(s, Unsigned), (a, Unsigned)]);
        g.output("o", 9, m, Unsigned);
        let mut members = vec![s, m];
        members.sort();
        let mut input_edges: Vec<_> = g
            .edge_ids()
            .filter(|&e| {
                let edge = g.edge(e);
                (edge.dst() == s || edge.dst() == m) && edge.src() != s
            })
            .collect();
        input_edges.sort();
        let forged = Clustering {
            clusters: vec![Cluster { members, output: m, input_edges }],
            break_nodes: vec![m],
        };
        forged.validate(&g).expect("structurally fine");
        let report = crate::verify(&Context::new(&g).clustering(&forged));
        assert!(report.has_code(Code::C002), "{}", report.render(&g));
    }

    #[test]
    fn truncate_then_extend_inside_a_cluster_raises_c004() {
        // A 9-bit sum squeezed through a 4-bit edge and re-read at 10 bits:
        // the edge drops informative bits, so one flat sum can't express
        // the pair. Forge both adders into a single cluster.
        let mut g = Dfg::new();
        let a = g.input("a", 8);
        let b = g.input("b", 8);
        let c = g.input("c", 9);
        let s1 = g.op(OpKind::Add, 9, &[(a, Unsigned), (b, Unsigned)]);
        let s2 = g.op_with_edges(OpKind::Add, 10, &[(s1, 4, Unsigned), (c, 9, Unsigned)]);
        g.output("r", 10, s2, Unsigned);
        let genuine = cluster_none(&g);
        let forged = flatten(&g, &genuine);
        forged.validate(&g).expect("forged clustering is structurally fine");
        let report = crate::verify(&Context::new(&g).clustering(&forged).optimized(true));
        assert!(report.has_code(Code::C004), "{}", report.render(&g));
    }

    #[test]
    fn singleton_clustering_is_always_legal() {
        let mut g = figure1_like();
        optimize_widths(&mut g);
        let clustering = cluster_none(&g);
        let report = crate::verify(&Context::new(&g).clustering(&clustering).optimized(true));
        assert!(!report.has_code(Code::C002));
        assert!(!report.has_code(Code::C003), "{}", report.render(&g));
        assert!(!report.has_code(Code::C004));
    }
}
