//! Provenance-log invariants, pinned on the paper's figures.
//!
//! Two properties make dp-trace usable as a regression gate and an
//! explanation source: the log is **deterministic** (two runs over the
//! same design emit identical event streams) and it **matches the paper**
//! (the recorded widths on Figures 2 and 3 are the ones the prose
//! derives).

mod common;

use common::healthy;
use datapath_merge::prelude::*;
use datapath_merge::testcases::figures;

fn trace_of(g: &Dfg) -> Vec<TraceEvent> {
    let mut tr = TraceLog::new();
    guarded(g, MergeStrategy::New, &mut tr);
    tr.events().to_vec()
}

/// The guarded flow at its default budget with a fresh recorder, asserted
/// undegraded.
fn guarded(g: &Dfg, strategy: MergeStrategy, tr: &mut TraceLog) -> FlowResult {
    let (config, budget) = (SynthConfig::default(), FlowBudget::default());
    let mut rec = Recorder::new();
    healthy(run_flow_guarded_with(g, strategy, &config, &budget, &mut rec, tr).unwrap())
}

/// Same design, two independent runs: byte-identical event streams.
/// Every pass iterates nodes and edges in index order, so the log order
/// is a pure function of the design.
#[test]
fn trace_is_deterministic_across_runs() {
    for g in [figures::fig1().g, figures::fig2().g, figures::fig3().g, figures::fig4_graph()] {
        let (a, b) = (trace_of(&g), trace_of(&g));
        assert_eq!(a, b);
        assert!(!a.is_empty(), "the width pipeline must record decisions");
    }
}

/// Figure 3, hand-derived. The pipeline narrows edges before nodes each
/// round, so round 1 records exactly three IC edge prunes (the two 8-bit
/// adder outputs carry 4-bit sums, the combining adder's 9-bit edge a
/// 5-bit sum) and three IC node prunes — and *no* RP events, because the
/// 10-bit output R is wider than every operator. The final adder n4 stays
/// 9 bits wide, and the whole graph merges into one cluster.
#[test]
fn fig3_trace_matches_hand_derived_chain() {
    let fig = figures::fig3();
    let events = trace_of(&fig.g);

    let by_rule = |rule: Rule| -> Vec<(Subject, usize, usize)> {
        events.iter().filter(|e| e.rule == rule).map(|e| (e.subject, e.before, e.after)).collect()
    };
    assert_eq!(by_rule(Rule::RpClamp), vec![], "RP must not fire on fig3");
    assert_eq!(by_rule(Rule::RpClampEdge), vec![]);
    assert_eq!(by_rule(Rule::ExtInsert), vec![], "edge prune preempts the extension node");

    let edge_prunes = by_rule(Rule::IcPruneEdge);
    let widths: Vec<(usize, usize)> = edge_prunes.iter().map(|&(_, b, a)| (b, a)).collect();
    assert_eq!(widths, vec![(8, 4), (8, 4), (9, 5)], "{edge_prunes:?}");

    let node_prunes = by_rule(Rule::IcPrune);
    assert_eq!(
        node_prunes,
        vec![
            (Subject::Node(fig.n1.index()), 8, 4),
            (Subject::Node(fig.n2.index()), 8, 4),
            (Subject::Node(fig.n3.index()), 8, 5),
        ]
    );

    // Causality: n3's prune is caused by an earlier edge prune.
    let n3_prune = events
        .iter()
        .find(|e| e.rule == Rule::IcPrune && e.subject == Subject::Node(fig.n3.index()))
        .expect("n3 pruned");
    let cause = n3_prune.parent.expect("node prune has an edge-prune cause");
    assert!(cause < n3_prune.id);
    assert_eq!(events[cause.index()].rule, Rule::IcPruneEdge);

    // One merged cluster: a CLUSTER-MERGE event per operator, each
    // recording 4 members in cluster #0.
    let merges = by_rule(Rule::ClusterMerge);
    assert_eq!(merges.len(), 4);
    assert!(merges.iter().all(|&(_, members, ordinal)| members == 4 && ordinal == 0));
}

/// Figure 2, hand-derived: pure required precision. The 5-bit output
/// clamps n1 from 7 to 5 and n3 from 9 to 5 (Thm 4.2), the edges follow,
/// and information content has nothing left to prune.
#[test]
fn fig2_trace_matches_hand_derived_chain() {
    let fig = figures::fig2();
    let events = trace_of(&fig.g);

    let clamps: Vec<(Subject, usize, usize)> = events
        .iter()
        .filter(|e| e.rule == Rule::RpClamp)
        .map(|e| (e.subject, e.before, e.after))
        .collect();
    assert_eq!(
        clamps,
        vec![(Subject::Node(fig.n1.index()), 7, 5), (Subject::Node(fig.n3.index()), 9, 5),]
    );
    assert!(events.iter().any(|e| e.rule == Rule::RpClampEdge));
    assert!(
        !events.iter().any(|e| e.rule == Rule::IcPrune || e.rule == Rule::IcPruneEdge),
        "fig2 is the RP design; IC must have nothing to prune: {events:?}"
    );
}

/// The trace rides along the full flow entry point too, and the disabled
/// log stays empty — the zero-cost default path.
#[test]
fn run_flow_threads_the_trace_and_disabled_stays_empty() {
    let fig = figures::fig3();
    let mut tr = TraceLog::new();
    let flow = guarded(&fig.g, MergeStrategy::New, &mut tr);
    assert!(!tr.is_empty());
    assert_eq!(flow.clustering.len(), 1);

    let mut off = TraceLog::disabled();
    guarded(&fig.g, MergeStrategy::New, &mut off);
    assert!(off.is_empty());

    // Old-merge flows never consult the analysis passes that trace.
    let mut tr = TraceLog::new();
    guarded(&fig.g, MergeStrategy::Old, &mut tr);
    assert!(tr.is_empty());
}

/// Round-by-round attribution (satellite of the provenance layer): the
/// report knows which analysis made the last change, per figure.
#[test]
fn transform_report_names_the_converging_pass() {
    let mut g3 = figures::fig3().g;
    let (_, report) = cluster_max(&mut g3);
    assert_eq!(report.transform.converging_pass(), Some(Pass::Ic));
    assert!(report.transform.summary().contains("converged by IC"));

    let mut g2 = figures::fig2().g;
    let (_, report) = cluster_max(&mut g2);
    assert_eq!(report.transform.converging_pass(), Some(Pass::Rp));
    assert!(report.transform.summary().contains("converged by RP"));
}
