//! `Equiv::graph_mismatch` compares a candidate graph's outputs by
//! position. The guarded flow used to look the design's output ids up in
//! the candidate's evaluation instead; width transforms never renumber
//! nodes, so on width-transformed graphs the two must agree exactly —
//! on healthy graphs and on every one-bit narrowing of an operator.

use datapath_merge::dfg::gen::random_inputs;
use datapath_merge::dfg::NodeKind;
use datapath_merge::prelude::*;
use datapath_merge::testcases::{named_design, BUILTIN_NAMES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The guard's former by-id audit: the first `(vector, output)` at which
/// `cand`, evaluated on the guard's vectors, departs from `base`.
fn by_id(base: &Dfg, cand: &Dfg, budget: &FlowBudget) -> Option<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(budget.check_seed);
    for k in 0..budget.check_vectors {
        let inputs = random_inputs(base, &mut rng);
        let want = base.evaluate(&inputs).expect("design evaluates");
        let got = cand.evaluate(&inputs).expect("candidate evaluates");
        if let Some(i) = base.outputs().iter().position(|o| got[o] != want[o]) {
            return Some((k, i));
        }
    }
    None
}

#[test]
fn positional_graph_comparison_equals_by_id_lookup_on_transformed_builtins() {
    let budget = FlowBudget::default();
    let (mut narrowings, mut detected) = (0, 0);
    for name in BUILTIN_NAMES {
        let base = named_design(name).expect("builtin");
        let oracle = Equiv::new(&base, budget.check_seed, budget.check_vectors).unwrap();
        let mut opt = base.clone();
        optimize_widths(&mut opt);
        assert_eq!(opt.outputs(), base.outputs(), "{name}: width transform renumbered outputs");
        assert_eq!(oracle.graph_mismatch(&opt), None, "{name}");
        assert_eq!(by_id(&base, &opt, &budget), None, "{name}");

        // Narrow up to eight operators (spread over the graph) by one bit.
        let ops: Vec<_> = opt
            .node_ids()
            .filter(|&n| matches!(opt.node(n).kind(), NodeKind::Op(_)) && opt.node(n).width() >= 2)
            .collect();
        for &n in ops.iter().step_by(ops.len().div_ceil(8).max(1)) {
            let mut cand = opt.clone();
            cand.set_node_width(n, opt.node(n).width() - 1);
            if cand.validate().is_err() {
                continue;
            }
            narrowings += 1;
            let positional = oracle.graph_mismatch(&cand).map(|m| match m {
                Mismatch::Value { vector, output } => (vector, output),
                other => panic!("{name} node {n}: unexpected {other:?}"),
            });
            assert_eq!(positional, by_id(&base, &cand, &budget), "{name} node {n}");
            detected += usize::from(positional.is_some());
        }
    }
    assert!(narrowings >= 50, "only {narrowings} narrowed graphs were compared");
    assert!(detected >= narrowings / 2, "only {detected} of {narrowings} narrowings differ");
}
