//! A 16-tap FIR filter — the DSP workload class the paper's introduction
//! motivates — synthesized with and without merging, then driven through
//! the timing-driven optimizer.
//!
//! Run with `cargo run --example fir_filter`.

use datapath_merge::prelude::*;
use datapath_merge::testcases::families;

fn main() {
    let g = families::fir_filter(16, 10, 5, 0xDAC2001);
    println!(
        "16-tap FIR, 10-bit samples, 5-bit constant coefficients: {} operators\n",
        g.op_nodes().count()
    );

    let lib = Library::synthetic_025um();
    let config = SynthConfig::default();

    // Width analysis alone (before any clustering decisions).
    let mut analyzed = g.clone();
    let report = optimize_widths(&mut analyzed);
    println!(
        "width analysis: {} node and {} edge widths reduced, total operator width {} -> {}",
        report.node_width_changes,
        report.edge_width_changes,
        g.total_op_width(),
        analyzed.total_op_width()
    );

    let mut results = Vec::new();
    for strategy in [MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New] {
        let flow = run_flow_guarded(&g, strategy, &config, &FlowBudget::default())
            .expect("synthesis")
            .flow;
        let done = finish(flow.netlist, &lib, &mut Recorder::disabled(), &Watchdog::disabled())
            .expect("an unarmed watchdog never trips");
        println!(
            "{:<10} clusters {:>3}  delay {:>7.3} ns  area {:>8.1}",
            strategy.to_string(),
            flow.clustering.len(),
            done.delay_ns,
            done.area
        );
        results.push((strategy, done.netlist, done.delay_ns));
    }

    // Push both merged netlists to the best flow's delay minus 10 %.
    let best = results.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
    let target = best * 0.9;
    println!("\ntiming-driven optimization to {target:.3} ns:");
    for (strategy, mut nl, _) in results.into_iter().skip(1) {
        let report =
            optimize(&mut nl, &lib, &OptConfig { target_delay_ns: target, ..OptConfig::default() });
        println!(
            "{:<10} {:>4} iterations, {:>8.4} s, end delay {:>7.3} ns ({}), end area {:>8.1}",
            strategy.to_string(),
            report.iterations,
            report.runtime.as_secs_f64(),
            report.end_delay_ns,
            if report.met { "met" } else { "not met" },
            report.end_area
        );
        // The optimizer never breaks functionality.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        for _ in 0..10 {
            let inputs = datapath_merge::dfg::gen::random_inputs(&g, &mut rng);
            let expect = g.evaluate(&inputs).expect("evaluates");
            let got = nl.simulate(&inputs).expect("simulates");
            for (k, o) in g.outputs().iter().enumerate() {
                assert_eq!(got[k], expect[o], "optimized netlist must stay equivalent");
            }
        }
    }
    println!("\n(all netlists verified against the bit-accurate DFG evaluator)");
}
