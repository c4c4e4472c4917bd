//! The [`Dfg::structure_version`] staleness contract, pinned by property
//! tests: width and signedness edits must *not* bump the version — a
//! [`DfgView`] built before such edits stays fresh, its adjacency and
//! topology are bit-identical to a rebuild, and the incremental RP/IC
//! pipeline (which reuses its view across width-mutating rounds on the
//! strength of this contract) matches a fresh full sweep exactly.
//! Structural edits must bump the version and flip the view stale.

use dp_analysis::{optimize_widths_budgeted_with, optimize_widths_full_with, PipelineBudget};
use dp_dfg::gen::{random_dfg, GenConfig};
use dp_dfg::{Dfg, DfgView, NodeKind};
use dp_metrics::Recorder;
use dp_trace::TraceLog;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything the width pipeline can observe or change: node kinds and
/// widths, edge endpoints, widths, and disciplines.
fn fingerprint(g: &Dfg) -> Vec<String> {
    let mut out = Vec::with_capacity(g.num_nodes() + g.num_edges());
    for n in g.node_ids() {
        let node = g.node(n);
        out.push(format!("n{} {:?} w={}", n.index(), node.kind(), node.width()));
    }
    for e in g.edge_ids() {
        let edge = g.edge(e);
        out.push(format!(
            "e{} {}->{} w={} {:?}",
            e.index(),
            edge.src().index(),
            edge.dst().index(),
            edge.width(),
            edge.signedness()
        ));
    }
    out
}

/// Applies seed-driven width-only edits: widens a random subset of
/// operator/extension/output nodes and edges by a few bits. Constant
/// nodes are left alone (their width is tied to their value).
fn widen_randomly(g: &mut Dfg, rng: &mut StdRng) {
    for n in g.node_ids().collect::<Vec<_>>() {
        let widen = match g.node(n).kind() {
            NodeKind::Const(_) => false,
            _ => rng.gen_range(0..3) == 0,
        };
        if widen {
            let w = g.node(n).width();
            g.set_node_width(n, w + rng.gen_range(1..4));
        }
    }
    for e in g.edge_ids().collect::<Vec<_>>() {
        if rng.gen_range(0..3) == 0 {
            let w = g.edge(e).width();
            g.set_edge_width(e, w + rng.gen_range(1..4));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Width-only edits keep the version, keep a pre-edit view fresh and
    /// bit-identical to a rebuild, and keep the incremental pipeline
    /// exactly equal to the full-sweep reference on the edited graph.
    #[test]
    fn width_edits_never_stale_a_view(seed in any::<u64>(), ops in 3usize..40) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57A1E);
        let mut g = random_dfg(&mut rng, &GenConfig { num_ops: ops, ..GenConfig::default() });
        let v0 = g.structure_version();
        let mut view = DfgView::new(&g);

        widen_randomly(&mut g, &mut rng);

        // The contract: width edits are invisible to the version stamp.
        prop_assert_eq!(g.structure_version(), v0);
        prop_assert!(view.is_fresh(&g));
        prop_assert!(!view.refresh(&g), "refresh must be a no-op on a fresh view");

        // The stale-but-fresh view is bit-identical to a rebuild.
        let rebuilt = DfgView::new(&g);
        prop_assert_eq!(view.topo(), rebuilt.topo());
        for n in g.node_ids() {
            prop_assert_eq!(view.fanin(n), rebuilt.fanin(n), "fanin {}", n);
            prop_assert_eq!(view.fanout(n), rebuilt.fanout(n), "fanout {}", n);
            prop_assert_eq!(view.topo_pos(n), rebuilt.topo_pos(n), "topo_pos {}", n);
        }

        // The incremental RP/IC pipeline leans on exactly this contract to
        // reuse its view across width-mutating rounds; on the edited graph
        // it must still match the fresh-full-sweep reference bit for bit.
        let mut g_inc = g.clone();
        let mut tr_inc = TraceLog::new();
        optimize_widths_budgeted_with(
        &mut g_inc,
        &PipelineBudget::default(),
        &mut Recorder::disabled(),
        &mut tr_inc,
    );
        let mut g_full = g.clone();
        let mut tr_full = TraceLog::new();
        optimize_widths_full_with(&mut g_full, &mut Recorder::disabled(), &mut tr_full);
        prop_assert_eq!(fingerprint(&g_inc), fingerprint(&g_full));
        prop_assert_eq!(tr_inc.events(), tr_full.events());
    }

    /// Structural edits bump the version and stale the view; one refresh
    /// restores freshness and exact adjacency.
    #[test]
    fn structural_edits_stale_a_view(seed in any::<u64>(), ops in 3usize..40) {
        use dp_bitvec::Signedness::Unsigned;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB1D5);
        let mut g = random_dfg(&mut rng, &GenConfig { num_ops: ops, ..GenConfig::default() });
        let mut view = DfgView::new(&g);
        let v0 = g.structure_version();

        // Splice an extension over some existing node (two structural
        // mutations: node creation + edge creation).
        let src = g
            .node_ids()
            .find(|&n| !matches!(g.node(n).kind(), NodeKind::Output))
            .expect("generator always emits a non-output node");
        let w = g.node(src).width();
        let ext = g.extension(w + 1, Unsigned, src, w, Unsigned);

        prop_assert!(g.structure_version() > v0);
        prop_assert!(!view.is_fresh(&g));
        prop_assert!(view.refresh(&g));
        prop_assert!(view.is_fresh(&g));
        prop_assert_eq!(view.num_nodes(), g.num_nodes());
        prop_assert_eq!(view.fanin(ext), g.node(ext).in_edges());
        prop_assert_eq!(view.fanout(src), g.node(src).out_edges());
    }
}
