//! The three clustering strategies compared in the paper's evaluation.

use dp_analysis::{
    huffman_bound, info_content_with, optimize_widths, IntrinsicOverrides, TransformReport,
};
use dp_dfg::Dfg;
use dp_metrics::Recorder;
use dp_trace::{Rule, Subject, TraceLog};

use crate::addends::linearize_member;
use crate::breaks::{find_breaks_leakage, find_breaks_new, find_breaks_new_with, is_mergeable};
use crate::cluster::{extract_clusters, Clustering};

/// Statistics from [`cluster_max`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// What the width-optimization pipeline changed beforehand.
    pub transform: TransformReport,
    /// Clustering iterations executed (Section 6's outer loop).
    pub rounds: usize,
    /// Cluster outputs whose information content was tightened by Huffman
    /// rebalancing across all rounds.
    pub refinements: usize,
    /// Break nodes in the final iteration's break analysis — the cluster
    /// boundaries that survived every refinement.
    pub break_nodes: usize,
}

/// The "no merging" baseline: every operator (and extension node) is its
/// own cluster. Synthesis then instantiates one carry-propagate adder per
/// operator — traditional operator-at-a-time synthesis.
pub fn cluster_none(g: &Dfg) -> Clustering {
    let breaks: Vec<bool> = g.node_ids().map(|n| is_mergeable(g, n)).collect();
    extract_clusters(g, &breaks)
}

/// The *old* merging algorithm: leakage-of-bits mergeability in the style
/// of Kim/Jao/Tjiang (DAC 1998). The graph is **not** transformed.
pub fn cluster_leakage(g: &Dfg) -> Clustering {
    let breaks = find_breaks_leakage(g);
    extract_clusters(g, &breaks)
}

/// The paper's **new** iterative maximal-clustering algorithm (Section 6):
///
/// 1. width-optimize the graph in place (required precision + information
///    content, [`optimize_widths`](dp_analysis::optimize_widths));
/// 2. identify break nodes and form clusters;
/// 3. linearize each cluster to a sum of constant multiples of inputs and
///    recompute its output's information content with the optimal
///    (Huffman) association order (Theorem 5.10);
/// 4. if any bound tightened, rerun from step 2 with the refined bounds —
///    smaller information content can defuse break conditions and merge
///    clusters created by the previous iteration.
///
/// Returns the final clustering and a report. The graph is mutated (width
/// transformations), which is why this takes `&mut Dfg`; functional
/// equivalence is preserved throughout.
pub fn cluster_max(g: &mut Dfg) -> (Clustering, MergeReport) {
    let transform = optimize_widths(g);
    let mut overrides = IntrinsicOverrides::new();
    let (clustering, mut report) = refine_clusters_with(
        g,
        &mut overrides,
        &mut Recorder::disabled(),
        &mut TraceLog::disabled(),
    );
    report.transform = transform;
    (clustering, report)
}

/// Steps 2–4 of [`cluster_max`] alone: the iterative break/cluster/Huffman
/// refinement loop over an **already width-optimized** graph. The width
/// pipeline (step 1) is not run — callers that need it compose it
/// themselves, which is how the fault-tolerant flow driver re-clusters
/// after a width-stage rollback without re-entering the failed analysis.
///
/// `overrides` seeds the intrinsic information-content bounds consulted by
/// the refinement (normally empty; the fault-injection harness plants lies
/// here) and holds the Huffman-refined bounds on return. The returned
/// [`MergeReport::transform`] is empty.
///
/// `rec` gets one span per clustering iteration, with children for the
/// information-content sweep, break-node detection, cluster extraction
/// and Huffman rebalancing. `tr` gets each `HUFFMAN-COMBINE` intrinsic
/// refinement and — once the iteration has settled — the *final* break
/// classifications (`BREAK-*`) and cluster assignments (`CLUSTER-MERGE`).
/// Intermediate rounds' break decisions are deliberately not logged: they
/// are superseded by later refinements and would read as contradictions.
pub fn refine_clusters_with(
    g: &Dfg,
    overrides: &mut IntrinsicOverrides,
    rec: &mut Recorder,
    tr: &mut TraceLog,
) -> (Clustering, MergeReport) {
    let mut report = MergeReport::default();
    let clustering = loop {
        report.rounds += 1;
        let round = rec.span(format!("merge round {}", report.rounds));
        let ic = rec.scope("info_content", |_| info_content_with(g, overrides));
        let breaks = rec.scope("find_breaks", |_| find_breaks_new(g, &ic));
        let clustering = rec.scope("extract_clusters", |_| extract_clusters(g, &breaks));
        report.break_nodes = breaks.iter().filter(|&&b| b).count();
        let rebalance = rec.span("huffman_rebalance");
        let mut changed = false;
        for c in &clustering.clusters {
            if c.len() < 2 {
                continue;
            }
            // Rebalance the sub-expression rooted at every member: the
            // interior nodes of a skewed chain carry the same loose
            // first-pass bounds as the output, and all of them feed the
            // trust-boundary (transitive damage) analysis.
            for &m in &c.members {
                if !g.node(m).kind().is_op() {
                    continue;
                }
                let Ok(saf) = linearize_member(g, c, &ic, m) else {
                    continue;
                };
                let refined = huffman_bound(&saf.huffman_terms());
                let current = ic.intrinsic(m).map(|x| x.i).unwrap_or(usize::MAX);
                if refined.i < current {
                    overrides.insert(m, refined);
                    report.refinements += 1;
                    changed = true;
                    tr.emit(Rule::HuffmanCombine, Subject::Node(m.index()), current, refined.i);
                }
            }
        }
        rec.finish(rebalance);
        rec.finish(round);
        if !changed || report.rounds >= 16 {
            break clustering;
        }
    };
    if tr.is_enabled() {
        trace_final_decisions(g, overrides, &clustering, tr);
    }
    (clustering, report)
}

/// Records the settled break classifications and cluster assignments into
/// the trace. Break events re-run the final break analysis with the log
/// attached (cheap relative to the iteration that just finished); cluster
/// events link each member to its cluster's output event, and the output
/// to the latest decision among the members — so walking any member's
/// ancestry reaches the width/break decisions that shaped the cluster.
fn trace_final_decisions(
    g: &Dfg,
    overrides: &IntrinsicOverrides,
    clustering: &Clustering,
    tr: &mut TraceLog,
) {
    let ic = info_content_with(g, overrides);
    let _ = find_breaks_new_with(g, &ic, tr);
    for (k, c) in clustering.clusters.iter().enumerate() {
        let latest = c.members.iter().filter_map(|&m| tr.last_node(m.index())).max();
        let out_event =
            tr.emit_caused(Rule::ClusterMerge, Subject::Node(c.output.index()), c.len(), k, latest);
        for &m in &c.members {
            if m != c.output {
                tr.emit_caused(Rule::ClusterMerge, Subject::Node(m.index()), c.len(), k, out_event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bitvec::Signedness::*;
    use dp_dfg::gen::{random_dfg, random_inputs, GenConfig};
    use dp_dfg::{NodeId, OpKind};
    use rand::{rngs::StdRng, SeedableRng};

    /// A skewed 8-input adder chain whose final node is sized for the
    /// balanced (Huffman) bound, not the skewed one — the D1/D2 scenario:
    /// the first information-content pass breaks at the final node, and
    /// only the rebalancing iteration proves the whole chain mergeable.
    fn skewed_chain() -> (Dfg, NodeId) {
        let mut g = Dfg::new();
        let inputs: Vec<NodeId> = (0..8).map(|k| g.input(format!("i{k}"), 3)).collect();
        let mut acc = inputs[0];
        let mut w = 3;
        for (k, &i) in inputs.iter().enumerate().skip(1) {
            w = if k == 7 { 6 } else { w + 1 };
            acc = g.op(OpKind::Add, w, &[(acc, Unsigned), (i, Unsigned)]);
        }
        let e = g.input("e", 12);
        let f = g.op(OpKind::Add, 12, &[(acc, Unsigned), (e, Unsigned)]);
        g.output("o", 12, f, Unsigned);
        (g, acc)
    }

    #[test]
    fn huffman_iteration_merges_skewed_chain() {
        let (g, last) = skewed_chain();
        // One-shot (leakage) clustering: the final 6-bit adder looks like a
        // truncate-then-extend boundary.
        let old = cluster_leakage(&g);
        assert_eq!(old.len(), 2, "old algorithm splits at {last}");

        let mut g2 = g.clone();
        let (new, report) = cluster_max(&mut g2);
        new.validate(&g2).unwrap();
        assert_eq!(new.len(), 1, "rebalancing proves the chain fits 6 bits");
        assert!(report.rounds >= 2, "needs an actual iteration");
        assert!(report.refinements >= 1);
    }

    #[test]
    fn cluster_none_is_all_singletons() {
        let mut rng = StdRng::seed_from_u64(0xA0);
        let g = random_dfg(&mut rng, &GenConfig::default());
        let c = cluster_none(&g);
        c.validate(&g).unwrap();
        assert!(c.clusters.iter().all(|c| c.len() == 1));
        assert_eq!(c.len(), g.node_ids().filter(|&n| is_mergeable(&g, n)).count());
    }

    #[test]
    fn new_never_more_clusters_than_none() {
        let mut rng = StdRng::seed_from_u64(0xB1);
        for _ in 0..25 {
            let g = random_dfg(&mut rng, &GenConfig::default());
            let none = cluster_none(&g).len();
            let old = cluster_leakage(&g).len();
            let mut g2 = g.clone();
            let (new, _) = cluster_max(&mut g2);
            assert!(old <= none);
            // The transformed graph may contain extra extension nodes, so
            // compare against its own operator count.
            let none2 = cluster_none(&g2).len();
            assert!(new.len() <= none2);
        }
    }

    #[test]
    fn all_strategies_validate_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0xC2);
        for case in 0..40 {
            let g = random_dfg(&mut rng, &GenConfig::default());
            cluster_none(&g).validate(&g).unwrap_or_else(|e| panic!("case {case} none: {e}"));
            cluster_leakage(&g).validate(&g).unwrap_or_else(|e| panic!("case {case} old: {e}"));
            let mut g2 = g.clone();
            let (new, _) = cluster_max(&mut g2);
            new.validate(&g2).unwrap_or_else(|e| panic!("case {case} new: {e}"));
            // cluster_max preserves functionality.
            for _ in 0..10 {
                let inputs = random_inputs(&g, &mut rng);
                assert_eq!(
                    g.evaluate(&inputs).unwrap(),
                    g2.evaluate(&inputs).unwrap(),
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn report_is_stable_on_second_run() {
        let (g, _) = skewed_chain();
        let mut g1 = g.clone();
        let (c1, _) = cluster_max(&mut g1);
        // Re-clustering the already-transformed graph gives the same result.
        let mut g2 = g1.clone();
        let (c2, r2) = cluster_max(&mut g2);
        assert_eq!(c1.len(), c2.len());
        assert_eq!(r2.transform.node_width_changes, 0);
    }
}
