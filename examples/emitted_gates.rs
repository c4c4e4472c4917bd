//! Emitted versus final gates: how much of what synthesis builds survives
//! constant folding and the dead-gate sweep.
//!
//! Prints S1000 and S10k under each strategy (Kogge-Stone, Dadda), then
//! totals over a sweep of 888 netlists: the 13 built-ins, S10k and 60
//! seeded `random_dfg` draws, each under {Kogge-Stone/Dadda, ripple/Dadda,
//! carry-select/Dadda, Kogge-Stone/Wallace} × {none, old, new}. The
//! `final` column is what every QoR figure is measured on.
//!
//! Run with `cargo run --release --example emitted_gates` (about 15 s).

use datapath_merge::dfg::gen::{random_dfg, GenConfig};
use datapath_merge::prelude::*;
use datapath_merge::testcases::named::{named_design, BUILTIN_NAMES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(emitted, final)` gate counts of one flow.
fn gates(g: &Dfg, strategy: MergeStrategy, config: &SynthConfig) -> (usize, usize) {
    let nl = run_flow_guarded(g, strategy, config, &FlowBudget::default())
        .expect("guarded flow")
        .flow
        .netlist;
    let emitted = nl.num_gates();
    let lib = Library::synthetic_025um();
    let done = finish(nl, &lib, &mut Recorder::disabled(), &Watchdog::disabled())
        .expect("an unarmed watchdog never trips");
    (emitted, done.netlist.num_gates())
}

const STRATEGIES: [MergeStrategy; 3] =
    [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New];

fn main() {
    let config = SynthConfig::default();
    let s10k = named_design("S10k").expect("S10k resolves");
    println!("{:<6} {:<10} {:>10} {:>10} {:>7}", "design", "strategy", "emitted", "final", "kept");
    for (name, g) in [("S1000", named_design("S1000").expect("S1000 resolves")), ("S10k", s10k)] {
        for strategy in STRATEGIES {
            let (emitted, kept) = gates(&g, strategy, &config);
            let share = 100.0 * kept as f64 / emitted as f64;
            println!(
                "{name:<6} {:<10} {emitted:>10} {kept:>10} {share:>6.1}%",
                strategy.to_string()
            );
        }
    }

    let mut designs: Vec<Dfg> = BUILTIN_NAMES
        .iter()
        .chain(["S10k"].iter())
        .map(|n| named_design(n).expect("built-in design resolves"))
        .collect();
    for seed in 0..60usize {
        let cfg = GenConfig {
            num_ops: 10 + (seed * 7) % 120,
            num_inputs: 3 + seed % 6,
            ..GenConfig::default()
        };
        designs.push(random_dfg(&mut StdRng::seed_from_u64(7000 + seed as u64), &cfg));
    }
    let configs = [
        (AdderKind::KoggeStone, ReductionKind::Dadda),
        (AdderKind::Ripple, ReductionKind::Dadda),
        (AdderKind::CarrySelect, ReductionKind::Dadda),
        (AdderKind::KoggeStone, ReductionKind::Wallace),
    ];
    let (mut netlists, mut emitted, mut kept) = (0usize, 0usize, 0usize);
    for g in &designs {
        for &(adder, reduction) in &configs {
            let config = SynthConfig { adder, reduction, ..SynthConfig::default() };
            for strategy in STRATEGIES {
                let (e, k) = gates(g, strategy, &config);
                netlists += 1;
                emitted += e;
                kept += k;
            }
        }
    }
    println!(
        "sweep: {netlists} netlists, {emitted} emitted, {kept} final ({:.1}% kept)",
        100.0 * kept as f64 / emitted as f64
    );
}
