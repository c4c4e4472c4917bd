//! Full-loop integration of the abstract-interpretation static layer:
//! the dp-fault injector plants the same lying information-content bound
//! the Huffman-rebalancing channel carries, and the `A`-family checker —
//! both through `dp_absint::analyze_with` directly and through the
//! dp-verify pass registry — must flag it as an error, while every
//! untampered builtin design proves clean. Also pins the flow-level
//! wiring: `FlowResult::absint` after the guarded flow fills the
//! `absint_*` QoR counters and emits `ABSINT-*` provenance events.

mod common;

use common::healthy;
use datapath_merge::absint::{analyze, analyze_with, FindingKind};
use datapath_merge::analysis::IntrinsicOverrides;
use datapath_merge::fault::{FaultClass, FaultInjector};
use datapath_merge::prelude::*;
use datapath_merge::synth::FlowFault;
use datapath_merge::testcases::all_designs;

/// Plants the LieIcBound fault and returns the tampered overrides.
fn lying_overrides(g: &Dfg, seed: u64) -> (IntrinsicOverrides, String) {
    let mut inj = FaultInjector::new(FaultClass::LieIcBound, seed);
    let mut scratch = g.clone();
    inj.after_widths(&mut scratch);
    let mut overrides = IntrinsicOverrides::new();
    inj.tamper_ic(&mut overrides);
    let what = inj.injected.expect("LieIcBound must report what it planted");
    (overrides, what)
}

/// The checker's IC cross-proof catches the planted lie on every builtin
/// design, across several seeds, while the untampered run proves clean.
#[test]
fn lying_ic_bound_is_flagged_for_every_design_and_seed() {
    for t in all_designs() {
        let (_, _, clean) = analyze(&t.dfg);
        assert!(!clean.has_violations(), "{}: untampered design must prove clean", t.name);

        for seed in [1, 7, 1234] {
            let (overrides, what) = lying_overrides(&t.dfg, seed);
            assert!(!overrides.is_empty(), "{}: injector must tamper something", t.name);
            let (_, _, report) = analyze_with(&t.dfg, &overrides);
            assert!(
                report.has_violations(),
                "{}: planted lie `{what}` (seed {seed}) must fail the cross-proof",
                t.name
            );
            assert!(
                report.of_kind(FindingKind::IcNotEntailed).next().is_some(),
                "{}: the violation must be an IC-entailment failure",
                t.name
            );
        }
    }
}

/// The same catch through the dp-verify pass registry: a `Context` with
/// tampered `ic_overrides` yields an `A002` error from the default
/// verifier, and the report turns red.
#[test]
fn verifier_reports_a002_for_a_corrupted_ic_bound() {
    let t = &all_designs()[0];
    let (overrides, _) = lying_overrides(&t.dfg, 42);

    let clean_report = Verifier::default().run(&Context::new(&t.dfg));
    assert!(
        !clean_report.diagnostics().iter().any(|d| d.code == Code::A002),
        "untampered context must not raise A002"
    );

    let cx = Context::new(&t.dfg).ic_overrides(&overrides);
    let report = Verifier::default().run(&cx);
    assert!(report.has_errors(), "{}", report.summary());
    assert!(
        report.diagnostics().iter().any(|d| d.code == Code::A002),
        "expected an A002 diagnostic, got: {}",
        report.summary()
    );
}

/// The absint layer after a new-merge guarded flow fills the `absint_*`
/// QoR counters and emits `ABSINT-*` provenance events into the trace.
#[test]
fn flow_fills_absint_counters_and_trace_events() {
    let fig = datapath_merge::testcases::figures::fig3();
    let mut rec = Recorder::new();
    let mut tr = TraceLog::new();
    let budget = FlowBudget::default();
    let mut result = healthy(
        run_flow_guarded_with(
            &fig.g,
            MergeStrategy::New,
            &SynthConfig::default(),
            &budget,
            &mut rec,
            &mut tr,
        )
        .expect("flow runs"),
    );
    assert!(
        !tr.events().iter().any(|e| e.rule.tag().starts_with("ABSINT-")),
        "the guarded flow itself runs no absint"
    );
    result.absint(&mut rec, &mut tr);
    let m = &result.metrics;
    assert!(
        m.absint_dead_bits > 0 || m.absint_known_bits > 0 || m.absint_no_overflow_ops > 0,
        "the static layer must prove something on fig3"
    );
    assert!(
        tr.events().iter().any(|e| e.rule.tag().starts_with("ABSINT-")),
        "flow must emit ABSINT-* provenance events"
    );
}
