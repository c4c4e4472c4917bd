//! The optimizer's buffering move on real designs: it inserts a buffer,
//! keeps the function, keeps every gate reading only earlier nets, and
//! leaves the incremental timing tracker bit-identical to a full pass.

mod common;

use common::healthy;
use datapath_merge::netlist::IncrementalSta;
use datapath_merge::prelude::*;
use datapath_merge::testcases::designs::{d1, d3};

/// Finishes `g` under `strategy` and `config`, optimizes it to 0.8 × its
/// finished delay and checks the result.
fn buffers_and_stays_sound(g: &Dfg, strategy: MergeStrategy, config: &SynthConfig) {
    let lib = Library::synthetic_025um();
    let flow = healthy(run_flow_guarded(g, strategy, config, &FlowBudget::default()).unwrap());
    let done = finish(flow.netlist, &lib, &mut Recorder::disabled(), &Watchdog::disabled())
        .expect("an unarmed watchdog never trips");
    let mut nl = done.netlist;
    let target = OptConfig { target_delay_ns: 0.8 * done.delay_ns, ..OptConfig::default() };
    let report = optimize(&mut nl, &lib, &target);
    assert!(report.buffers_inserted >= 1, "{strategy}: {report:?}");

    let oracle = Equiv::new(g, 0xB0FF, 256).expect("the design evaluates");
    assert_eq!(oracle.netlist_mismatch(&nl), None, "{strategy}");
    for gate in nl.gate_ids() {
        for &net in nl.gate_inputs(gate) {
            let reads_earlier = nl.driver_gate(net).is_none_or(|src| src < gate);
            assert!(reads_earlier, "{strategy}: {gate} reads {net}");
        }
    }
    let sta = IncrementalSta::new(&nl, &lib);
    assert_eq!(sta.delay_ns(&nl).to_bits(), nl.longest_path(&lib).delay_ns.to_bits());
    assert_eq!(report.end_delay_ns.to_bits(), nl.longest_path(&lib).delay_ns.to_bits());
}

#[test]
fn d1_carry_select_new_merge_buffers_soundly() {
    let config = SynthConfig {
        adder: AdderKind::CarrySelect,
        reduction: ReductionKind::Dadda,
        ..SynthConfig::default()
    };
    buffers_and_stays_sound(&d1(), MergeStrategy::New, &config);
}

#[test]
fn d3_kogge_stone_wallace_no_merge_buffers_soundly() {
    let config = SynthConfig {
        adder: AdderKind::KoggeStone,
        reduction: ReductionKind::Wallace,
        ..SynthConfig::default()
    };
    buffers_and_stays_sound(&d3(), MergeStrategy::None, &config);
}
