//! The differential oracle for netlist emission: the final netlist
//! (`finish`: `fold_constants` → `sweep`; then `to_bytes()`) of every
//! built-in design under every merge strategy, final adder and reduction
//! discipline, plus seeded random designs at the default configuration,
//! pinned by a 64-bit FNV-1a hash in `tests/golden/final_netlists.txt`.
//!
//! Synthesis may emit fewer gates than it used to, but whatever the fold
//! and sweep keep must stay byte-identical: every QoR figure downstream is
//! measured on that netlist. On a mismatch the test writes the fresh file
//! next to the build artifacts and names it.

use datapath_merge::dfg::gen::{random_dfg, GenConfig};
use datapath_merge::prelude::*;
use datapath_merge::testcases::named::{named_design, BUILTIN_NAMES};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GOLDEN: &str = include_str!("golden/final_netlists.txt");

/// 64-bit FNV-1a: stable across platforms and releases, unlike the
/// standard library's hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn finished(nl: Netlist) -> Netlist {
    let lib = Library::synthetic_025um();
    finish(nl, &lib, &mut Recorder::disabled(), &Watchdog::disabled())
        .expect("an unarmed watchdog never trips")
        .netlist
}

fn final_netlist(case: &str, g: &Dfg, strategy: MergeStrategy, config: &SynthConfig) -> Netlist {
    let guarded = run_flow_guarded(g, strategy, config, &FlowBudget::default())
        .unwrap_or_else(|e| panic!("{case}: {e}"));
    finished(guarded.flow.netlist)
}

fn final_line(case: &str, g: &Dfg, strategy: MergeStrategy, config: &SynthConfig) -> String {
    let nl = final_netlist(case, g, strategy, config);
    format!("{case} gates={} fnv1a={:016x}", nl.num_gates(), fnv1a(&nl.to_bytes()))
}

fn strategy_tag(s: MergeStrategy) -> &'static str {
    match s {
        MergeStrategy::None => "none",
        MergeStrategy::Old => "old",
        MergeStrategy::New => "new",
    }
}

const STRATEGIES: [MergeStrategy; 3] =
    [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New];

/// Every case's line, in golden-file order: the built-ins in registry
/// order, then the random draws.
fn final_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for name in BUILTIN_NAMES {
        let g = named_design(name).expect("built-in design resolves");
        for strategy in STRATEGIES {
            for (adder_tag, adder) in [
                ("ks", AdderKind::KoggeStone),
                ("ripple", AdderKind::Ripple),
                ("csel", AdderKind::CarrySelect),
            ] {
                for (red_tag, reduction) in
                    [("dadda", ReductionKind::Dadda), ("wallace", ReductionKind::Wallace)]
                {
                    let config = SynthConfig { adder, reduction, ..SynthConfig::default() };
                    let case = format!("{name} {} {adder_tag} {red_tag}", strategy_tag(strategy));
                    lines.push(final_line(&case, &g, strategy, &config));
                }
            }
        }
    }
    for seed in 0..32u64 {
        let g = random_dfg(&mut StdRng::seed_from_u64(seed), &GenConfig::default());
        for strategy in STRATEGIES {
            let case = format!("random-{seed} {} default", strategy_tag(strategy));
            lines.push(final_line(&case, &g, strategy, &SynthConfig::default()));
        }
    }
    lines
}

#[test]
fn final_netlists_match_the_golden_hashes() {
    let fresh = final_lines().join("\n") + "\n";
    if fresh != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("final_netlists.txt");
        std::fs::write(&path, &fresh).expect("write the fresh hashes");
        let diff: Vec<String> = GOLDEN
            .lines()
            .zip(fresh.lines())
            .filter(|(want, got)| want != got)
            .take(10)
            .map(|(want, got)| format!("  golden {want}\n  fresh  {got}"))
            .collect();
        panic!(
            "final netlists drifted from tests/golden/final_netlists.txt \
             ({} golden / {} fresh lines); fresh file at {}\n{}",
            GOLDEN.lines().count(),
            fresh.lines().count(),
            path.display(),
            diff.join("\n")
        );
    }
}

/// A final netlist is a fixed point of `finish`: nothing in it folds, every
/// gate is live, and the sweep keeps its creation order.
#[test]
fn finish_is_idempotent() {
    for name in BUILTIN_NAMES {
        let g = named_design(name).expect("built-in design resolves");
        for strategy in STRATEGIES {
            let case = format!("{name} {}", strategy_tag(strategy));
            let once = final_netlist(&case, &g, strategy, &SynthConfig::default());
            let bytes = once.to_bytes();
            assert!(
                finished(once).to_bytes() == bytes,
                "{case}: a second finish changed the netlist"
            );
        }
    }
}
