//! Netlist constant-fold + sweep hot path (`dp_opt::fold_constants` +
//! `Netlist::sweep`), on synthesized scaling-family netlists.
//!
//! This pins the PR 9 overhaul: the old fold was a full-netlist fixpoint
//! (re-scanning every gate until quiescence — minutes at S1000 scale);
//! the current one is a single topological pass over a union-find of net
//! replacements. The S1000 member is the check.sh smoke gate; a
//! regression back to super-linear behavior shows up here as a
//! hundreds-of-times slowdown, far outside criterion noise.
//!
//! Synthesis emits its carry-save trees and final adders already folded,
//! so a synthesized netlist leaves the fold little to do. The
//! `fold_constants_tied` member therefore ties a seeded 10 % of the S1000
//! netlist's input-bit pins to constants first: the constants cascade
//! through the partial products, trees and adders behind those pins, so
//! the fold replaces about 5.6k of the 42.8k gates instead of 4.5k (the
//! untied netlist's partial products, negations and adder sum bits).
//!
//! `audit_fold_sweep_sta` runs the whole gate-level back end of a guarded
//! flow on the S1000 netlist: the audit's `check` + `simulate_batch`,
//! then `fold_constants`, `sweep` and `longest_path`. Every pass walks
//! gate-id order, which is topological by construction, so none of those
//! five calls builds an order.
//!
//! `sweep` times the sweep alone on the folded S10k netlist: one reverse
//! liveness pass and one in-order rebuild.
//!
//! `optimize_buffered` times `dp_opt::optimize` on the finished D1
//! carry-select new-merge netlist to 0.8 × its delay, a run that inserts
//! a buffer, so the optimizer's buffer insertion (`insert_buffer`, which
//! shifts later gate ids) and the tracker rebuild after it stay measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_bench::measure_flow;
use dp_bitvec::BitVec;
use dp_netlist::{Library, Netlist};
use dp_opt::{fold_constants, optimize, OptConfig};
use dp_synth::{run_flow_guarded, AdderKind, FlowBudget, MergeStrategy, SynthConfig};
use dp_testcases::designs::d1;
use dp_testcases::scaling::scaling_design;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synthesized(ops: usize) -> Netlist {
    let g = scaling_design(ops);
    run_flow_guarded(&g, MergeStrategy::New, &SynthConfig::default(), &FlowBudget::default())
        .expect("synthesis")
        .flow
        .netlist
}

/// A copy of `nl` with a seeded `percent` % of the gate pins that read a
/// primary input bit rewired to constant 0 or 1.
fn tie_input_pins(nl: &Netlist, percent: u32, seed: u64) -> Netlist {
    let mut tied = nl.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let (zero, one) = (tied.const0(), tied.const1());
    for g in nl.gate_ids() {
        for (pin, &net) in nl.gate_inputs(g).iter().enumerate() {
            if nl.is_input_net(net) && rng.gen_range(0..100) < percent {
                tied.rewire_gate_input(g, pin, if rng.gen_bool(0.5) { one } else { zero });
            }
        }
    }
    tied
}

fn bench_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("fold");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for ops in [160usize, 400, 1000] {
        let nl = synthesized(ops);
        group.bench_with_input(BenchmarkId::new("fold_constants", ops), &nl, |b, nl| {
            b.iter(|| {
                let mut nl = nl.clone();
                fold_constants(&mut nl);
                nl.num_gates()
            })
        });
        group.bench_with_input(BenchmarkId::new("fold_sweep", ops), &nl, |b, nl| {
            b.iter(|| {
                let mut nl = nl.clone();
                fold_constants(&mut nl);
                nl.sweep().num_gates()
            })
        });
    }
    let nl = synthesized(1000);
    let tied = tie_input_pins(&nl, 10, 1);
    // Gates the fold itself replaces (their output loses every reader).
    let folded_away = |nl: &Netlist| {
        let unread =
            |nl: &Netlist| nl.gate_ids().filter(|&g| nl.fanout_of(nl.gate_output(g)) == 0).count();
        let mut folded = nl.clone();
        fold_constants(&mut folded);
        unread(&folded) - unread(nl)
    };
    let (before, after) = (folded_away(&nl), folded_away(&tied));
    assert!(after > before, "tied pins fold {after} gates, untied {before}");
    group.bench_with_input(BenchmarkId::new("fold_constants_tied", 1000), &tied, |b, nl| {
        b.iter(|| {
            let mut nl = nl.clone();
            fold_constants(&mut nl);
            nl.num_gates()
        })
    });
    let lib = Library::synthetic_025um();
    let mut rng = StdRng::seed_from_u64(1);
    let lanes: Vec<Vec<BitVec>> = (0..8)
        .map(|_| {
            nl.inputs()
                .iter()
                .map(|(_, bits)| BitVec::from_fn(bits.len(), |_| rng.gen_bool(0.5)))
                .collect()
        })
        .collect();
    let back_end = |nl: &Netlist| {
        let mut nl = nl.clone();
        nl.check().expect("synthesized netlist is well formed");
        let outputs = nl.simulate_batch(&lanes).expect("simulates");
        fold_constants(&mut nl);
        let swept = nl.sweep();
        (outputs.len(), swept.longest_path(&lib).delay_ns)
    };
    group.bench_with_input(BenchmarkId::new("audit_fold_sweep_sta", 1000), &nl, |b, nl| {
        b.iter(|| back_end(nl))
    });
    let mut folded = synthesized(10_000);
    fold_constants(&mut folded);
    group.bench_with_input(BenchmarkId::new("sweep", 10_000), &folded, |b, nl| {
        b.iter(|| nl.sweep().num_gates())
    });
    let config = SynthConfig { adder: AdderKind::CarrySelect, ..SynthConfig::default() };
    let (m, d1_new) = measure_flow(&d1(), MergeStrategy::New, &config, &lib);
    let target = OptConfig { target_delay_ns: 0.8 * m.delay_ns, ..OptConfig::default() };
    let buffers = optimize(&mut d1_new.clone(), &lib, &target).buffers_inserted;
    assert!(buffers > 0, "the D1 carry-select run inserts a buffer");
    group.bench_with_input(BenchmarkId::new("optimize_buffered", "D1"), &d1_new, |b, nl| {
        b.iter(|| optimize(&mut nl.clone(), &lib, &target).end_delay_ns)
    });
    group.finish();
}

criterion_group!(benches, bench_fold);
criterion_main!(benches);
