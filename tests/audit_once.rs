//! The post-flow report of `finish_flow` is one full dp-verify audit of
//! what the flow shipped: the graph, the clustering and the finished
//! netlist, at the strictness the flow shipped them at (strict only for
//! an undegraded new-merge flow). Same codes, locations and messages, in
//! the same order — whichever audits the guard already ran.

use std::collections::BTreeSet;

use datapath_merge::dfg::gen::{random_dfg, GenConfig};
use datapath_merge::driver::finish_flow;
use datapath_merge::fault::{FaultClass, FaultInjector};
use datapath_merge::prelude::*;
use datapath_merge::synth::run_flow_guarded_hooked;
use datapath_merge::testcases::{named_design, BUILTIN_NAMES};
use datapath_merge::verify::verify;
use rand::{rngs::StdRng, SeedableRng};

/// Finishes `guarded` and checks its report against one full audit of the
/// shipped artifacts. Returns the flow's `FALLBACK-*` tags.
fn assert_audited_once(label: &str, g: &Dfg, guarded: &GuardedFlow) -> Vec<String> {
    let lib = Library::synthetic_025um();
    let (done, report) = finish_flow(g, guarded, &lib, &mut Recorder::new())
        .unwrap_or_else(|e| panic!("{label}: finish failed: {e}"));
    let flow = &guarded.flow;
    let strict = flow.strategy == MergeStrategy::New && guarded.degradation.is_none();
    let mut cx = Context::new(&flow.graph)
        .baseline(g)
        .clustering(&flow.clustering)
        .netlist(&done.netlist)
        .optimized(strict);
    if let Some(m) = &flow.merge {
        cx = cx.transform(&m.transform);
    }
    let full = verify(&cx);
    assert_eq!(
        report.diagnostics(),
        full.diagnostics(),
        "{label}: finish_flow's report differs from one full audit\n--- finish_flow:\n{}--- verify:\n{}",
        report.render(&flow.graph),
        full.render(&flow.graph)
    );
    guarded.degradation.as_ref().map(|d| d.tags()).unwrap_or_default()
}

#[test]
fn builtins_are_audited_once_under_every_strategy() {
    for name in BUILTIN_NAMES {
        let g = named_design(name).expect("built-in resolves");
        for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
            let guarded =
                run_flow_guarded(&g, strategy, &SynthConfig::default(), &FlowBudget::default())
                    .unwrap_or_else(|e| panic!("{name} [{strategy}]: {e}"));
            assert_audited_once(&format!("{name} [{strategy}]"), &g, &guarded);
        }
    }
}

/// Random draws of the soundness sweep's three generator configs whose
/// merged new-merge netlist the guard rejected, falling back to singleton
/// clusters, when this test was written.
#[test]
fn degraded_random_draws_are_audited_once() {
    let configs = [
        (
            GenConfig {
                num_ops: 40,
                num_inputs: 6,
                max_width: 48,
                mul_weight: 0.15,
                ..GenConfig::default()
            },
            &[410u64, 435, 860, 1072, 1109][..],
        ),
        (
            GenConfig {
                num_ops: 200,
                num_inputs: 33,
                max_width: 24,
                mul_weight: 0.05,
                ..GenConfig::default()
            },
            &[89, 121, 232, 282, 502, 662][..],
        ),
        (GenConfig::default(), &[176][..]),
    ];
    for (k, (cfg, seeds)) in configs.iter().enumerate() {
        for &seed in *seeds {
            let g = random_dfg(&mut StdRng::seed_from_u64(seed), cfg);
            for strategy in [MergeStrategy::Old, MergeStrategy::New] {
                let guarded =
                    run_flow_guarded(&g, strategy, &SynthConfig::default(), &FlowBudget::default())
                        .unwrap_or_else(|e| panic!("config {k} seed {seed} [{strategy}]: {e}"));
                let label = format!("config {k} seed {seed} [{strategy}]");
                assert_audited_once(&label, &g, &guarded);
            }
        }
    }
}

/// Fault injections drive the guard down its ladder: a corrupted width
/// graph is replaced by the RP-only widths, a truncated cluster or a
/// lying IC bound by singleton clusters. (The raw-design rung is not
/// reachable this way: each injection is caught at the width or the
/// clustering stage, and a singleton netlist of an audited graph agrees
/// with it on the audit's own vectors.)
#[test]
fn fault_injected_flows_are_audited_once() {
    let mut tags = BTreeSet::new();
    for name in ["fig1", "fig2", "fig3", "fig4", "D1", "D2", "D3", "D4", "D5", "S64"] {
        let g = named_design(name).expect("built-in resolves");
        for class in FaultClass::ALL {
            for seed in 0..8 {
                let mut injector = FaultInjector::new(class, seed);
                let guarded = run_flow_guarded_hooked(
                    &g,
                    MergeStrategy::New,
                    &SynthConfig::default(),
                    &FlowBudget::default(),
                    &mut injector,
                    &mut Recorder::disabled(),
                    &mut TraceLog::disabled(),
                );
                let label = format!("{name} {class} seed {seed}");
                let Ok(guarded) = guarded else { continue };
                tags.extend(assert_audited_once(&label, &g, &guarded));
            }
        }
    }
    for rung in ["FALLBACK-RP-ONLY", "FALLBACK-SINGLETON"] {
        assert!(tags.contains(rung), "no injection reached {rung}: {tags:?}");
    }
}
