//! Decision provenance for `dpmc explain` and `dpmc dot --annotate`.
//!
//! The width pipeline and clusterer record every decision they make into a
//! [`dp_trace::TraceLog`]. This module turns that log into the two
//! user-facing artifacts:
//!
//! * [`explain_node`] / [`explain_node_json`] — the causal chain behind
//!   one node's final width and cluster assignment, cross-checked against
//!   a fresh required-precision / information-content analysis;
//! * [`annotations`] — [`DotAnnotations`] coloring break nodes and
//!   labelling nodes/edges with `r`, `⟨i,t⟩` and the rule that last
//!   changed them, for annotated DOT export.

use std::collections::HashMap;

use dp_analysis::{info_content, required_precision, InfoAnalysis, PrecisionAnalysis};
use dp_dfg::{Dfg, DotAnnotations, NodeId, NodeKind};
use dp_merge::{Clustering, MergeReport};
use dp_metrics::{Json, Recorder};
use dp_synth::{
    run_flow_guarded_with, DegradationReport, FlowBudget, FlowResult, GuardedFlow, MergeStrategy,
    SynthConfig, SynthError,
};
use dp_trace::{Rule, Subject, TraceEvent, TraceLog};

/// Everything `dpmc explain`/`dpmc dot --annotate` need about one design:
/// the optimized graph, the clustering, any guard retreats, the full
/// decision log, and fresh RP/IC analyses of both the input and the
/// optimized graph.
#[derive(Debug)]
pub struct Explained {
    /// The optimized graph (after width pruning and extension insertion).
    pub graph: Dfg,
    /// The final clustering of the optimized graph.
    pub clustering: Clustering,
    /// Clustering statistics (width pipeline rounds, refinements, breaks).
    pub report: MergeReport,
    /// The guard's retreats, when the flow degraded; the graph and
    /// clustering are then the fallback artifacts it built.
    pub degradation: Option<DegradationReport>,
    /// Every decision the pipeline made, in causal topological order.
    pub trace: TraceLog,
    /// Required precision of the *input* design — the facts RP clamping
    /// acted (or declined to act) on in round 1.
    pub rp_before: PrecisionAnalysis,
    /// Required precision of the optimized graph.
    pub rp: PrecisionAnalysis,
    /// Information content of the optimized graph.
    pub ic: InfoAnalysis,
}

/// Runs the new-merge flow (the guarded driver at its default budget)
/// over a copy of `g` with provenance recording enabled, then the absint
/// layer, and gathers the analyses [`explain_node`] reads.
///
/// # Errors
///
/// Returns [`SynthError`] when the guarded flow cannot synthesize `g`.
pub fn run_traced(g: &Dfg) -> Result<Explained, SynthError> {
    let rp_before = required_precision(g);
    let mut rec = Recorder::disabled();
    let mut trace = TraceLog::new();
    let budget = FlowBudget::default();
    let GuardedFlow { mut flow, degradation } = run_flow_guarded_with(
        g,
        MergeStrategy::New,
        &SynthConfig::default(),
        &budget,
        &mut rec,
        &mut trace,
    )?;
    // Static abstract-interpretation facts over the optimized graph, so an
    // explanation also names what the fine lattices proved about the node.
    flow.absint(&mut rec, &mut trace);
    let rp = required_precision(&flow.graph);
    let ic = info_content(&flow.graph);
    let FlowResult { graph, clustering, merge, .. } = flow;
    let report = merge.unwrap_or_default();
    Ok(Explained { graph, clustering, report, degradation, trace, rp_before, rp, ic })
}

/// Resolves a `--node`/`--port` spec to a node id: a DSL name from
/// `names`, a node's own name (design inputs and outputs), the display
/// form `nK`, or a bare index.
pub fn resolve_node(
    g: &Dfg,
    names: &HashMap<String, NodeId>,
    spec: &str,
) -> Result<NodeId, String> {
    if let Some(&n) = names.get(spec) {
        return Ok(n);
    }
    if let Some(n) = g.node_ids().find(|&n| g.node(n).name() == Some(spec)) {
        return Ok(n);
    }
    let digits = spec.strip_prefix('n').unwrap_or(spec);
    if let Ok(i) = digits.parse::<usize>() {
        if let Some(n) = g.node_ids().nth(i) {
            return Ok(n);
        }
        return Err(format!("node index {i} out of range (design has {} nodes)", g.num_nodes()));
    }
    let mut known: Vec<&str> = names.keys().map(String::as_str).collect();
    known.sort_unstable();
    Err(format!("unknown node `{spec}` (names: {}; or nK / a bare index)", known.join(", ")))
}

/// How a node participates in the final clustering, as one display line.
fn cluster_role(ex: &Explained, n: NodeId) -> String {
    if ex.clustering.break_nodes.contains(&n) {
        return "break node (own cluster boundary)".to_string();
    }
    for (k, c) in ex.clustering.clusters.iter().enumerate() {
        if c.contains(n) {
            let role = if c.output == n { "output of" } else { "member of" };
            return format!("{role} cluster #{k} ({} nodes, output {})", c.len(), c.output);
        }
    }
    "not clustered (input/output/constant)".to_string()
}

/// The RP verdict line: did Theorem 4.2 have anything to clamp here?
///
/// Printed even when no `RP-CLAMP` event exists, so the explanation names
/// the analysis that *declined* as well as the ones that fired — on
/// Figure 3 the interesting fact is precisely that required precision is
/// not the binding constraint.
fn rp_verdict(orig: &Dfg, rp_before: &PrecisionAnalysis, n: NodeId) -> Option<String> {
    if n.index() >= orig.num_nodes() {
        // Extension nodes inserted by the pipeline have no pre-transform
        // required precision; their EXT-INSERT event tells the story.
        return None;
    }
    let node = orig.node(n);
    if !node.kind().is_op() && !matches!(node.kind(), NodeKind::Extension(_)) {
        return None;
    }
    let w = node.width();
    let r = rp_before.output_port(n);
    Some(if r < w {
        format!("r({n}) = {r} < w = {w} on the input design -> RP-CLAMP applies (Thm 4.2)")
    } else {
        format!("r({n}) = {r} >= w = {w} on the input design -> RP-CLAMP not triggered")
    })
}

fn event_line(e: &TraceEvent) -> String {
    format!("{e}  [{}]", e.rule.describe())
}

/// Events recorded *on* `n` (its decision list), in emission order.
fn decisions_for(ex: &Explained, n: NodeId) -> Vec<TraceEvent> {
    ex.trace.events_for(Subject::Node(n.index())).copied().collect()
}

/// Events on the edges touching `n`, in emission order — the interesting
/// provenance for inputs and outputs, which never carry node events
/// themselves.
fn adjacent_edge_events(ex: &Explained, n: NodeId) -> Vec<TraceEvent> {
    let node = ex.graph.node(n);
    let mut edges: Vec<usize> =
        node.in_edges().iter().chain(node.out_edges()).map(|e| e.index()).collect();
    edges.sort_unstable();
    let mut events: Vec<TraceEvent> = edges
        .into_iter()
        .flat_map(|e| ex.trace.events_for(Subject::Edge(e)).copied().collect::<Vec<_>>())
        .collect();
    events.sort_unstable_by_key(|e| e.id);
    events
}

/// Events on other subjects that causally descend from a decision on `n`.
fn consequences_of(ex: &Explained, n: NodeId, decisions: &[TraceEvent]) -> Vec<TraceEvent> {
    ex.trace
        .events()
        .iter()
        .filter(|e| e.subject != Subject::Node(n.index()))
        .filter(|e| decisions.iter().any(|d| ex.trace.descends_from(e.id, d.id)))
        .copied()
        .collect()
}

/// Renders the causal explanation of `node`'s final width and cluster
/// assignment as plain text (the default `dpmc explain` output).
///
/// `orig` is the graph as parsed (pre-optimization); `label` is the
/// user-facing name for the node (a DSL name or display id).
pub fn explain_node(orig: &Dfg, ex: &Explained, node: NodeId, label: &str) -> String {
    let mut s = String::new();
    let final_node = ex.graph.node(node);
    let after_w = final_node.width();
    let before_w = if node.index() < orig.num_nodes() {
        orig.node(node).width()
    } else {
        after_w // pipeline-inserted extension node: no pre-transform width
    };
    let kind = match final_node.kind() {
        NodeKind::Input => "input".to_string(),
        NodeKind::Output => "output".to_string(),
        NodeKind::Const(_) => "const".to_string(),
        NodeKind::Op(op) => format!("{op}"),
        NodeKind::Extension(t) => format!("ext[{t}]"),
    };
    s.push_str(&format!("node {node} `{label}` ({kind})\n"));
    if after_w == before_w {
        s.push_str(&format!("  final width {after_w} (unchanged)"));
    } else {
        s.push_str(&format!("  final width {after_w} (was {before_w})"));
    }
    s.push_str(&format!(
        ", r = {}, IC = {}\n  {}\n",
        ex.rp.output_port(node),
        ex.ic.output(node),
        cluster_role(ex, node)
    ));

    if let Some(v) = rp_verdict(orig, &ex.rp_before, node) {
        s.push_str(&format!("\nrequired precision (Def 4.1):\n  {v}\n"));
    }

    let decisions = decisions_for(ex, node);
    s.push_str("\ndecisions on this node:\n");
    if decisions.is_empty() {
        s.push_str("  (none - no rule changed this node)\n");
        let adjacent = adjacent_edge_events(ex, node);
        if !adjacent.is_empty() {
            s.push_str("\ndecisions on its edges:\n");
            for e in &adjacent {
                s.push_str(&format!("  {}\n", event_line(e)));
            }
        }
    }
    for d in &decisions {
        s.push_str(&format!("  {}\n", event_line(d)));
        for (depth, a) in ex.trace.ancestors(d.id).into_iter().enumerate() {
            let e = ex.trace.event(a);
            s.push_str(&format!("  {}<- {}\n", "  ".repeat(depth + 1), event_line(e)));
        }
    }

    let consequences = consequences_of(ex, node, &decisions);
    if !consequences.is_empty() {
        s.push_str("\ndownstream consequences:\n");
        for e in &consequences {
            s.push_str(&format!("  {}\n", event_line(e)));
        }
    }
    s
}

fn event_json(e: &TraceEvent) -> Json {
    let base = Json::obj()
        .field("id", e.id.index() as i64)
        .field("rule", e.rule.tag())
        .field("subject", e.subject.to_string())
        .field("before", e.before as i64)
        .field("after", e.after as i64);
    match e.parent {
        Some(p) => base.field("cause", p.index() as i64),
        None => base.field("cause", Json::Null),
    }
}

/// [`explain_node`], as a machine-readable JSON document
/// (`dpmc explain --json`).
pub fn explain_node_json(orig: &Dfg, ex: &Explained, node: NodeId, label: &str) -> Json {
    let decisions = decisions_for(ex, node);
    let consequences = consequences_of(ex, node, &decisions);
    let ic = ex.ic.output(node);
    let width_before = if node.index() < orig.num_nodes() {
        orig.node(node).width()
    } else {
        ex.graph.node(node).width()
    };
    Json::obj()
        .field("node", node.to_string())
        .field("label", label)
        .field("width_before", width_before as i64)
        .field("width_after", ex.graph.node(node).width() as i64)
        .field("required_precision", ex.rp.output_port(node) as i64)
        .field("information_content", ic.to_string())
        .field("cluster", cluster_role(ex, node))
        .field(
            "rp_verdict",
            match rp_verdict(orig, &ex.rp_before, node) {
                Some(v) => Json::Str(v),
                None => Json::Null,
            },
        )
        .field("decisions", Json::Array(decisions.iter().map(event_json).collect()))
        .field("consequences", Json::Array(consequences.iter().map(event_json).collect()))
}

/// Builds the `dpmc dot --annotate` annotations for the optimized graph:
/// break nodes filled red, operator nodes labelled `r=.. IC=⟨i,t⟩` plus
/// the tag of the rule that last changed them, and edges labelled with
/// their reader's required precision, signal IC and last rule.
pub fn annotations(ex: &Explained) -> DotAnnotations {
    let g = &ex.graph;
    let mut ann = DotAnnotations::for_graph(g);
    for n in g.node_ids() {
        let node = g.node(n);
        if !node.kind().is_op() && !matches!(node.kind(), NodeKind::Extension(_)) {
            continue;
        }
        let mut note = format!("r={} {}", ex.rp.output_port(n), ex.ic.output(n));
        if let Some(rule) = last_width_rule(ex, Subject::Node(n.index())) {
            note.push_str(&format!("\\n{}", rule.tag()));
        }
        ann.node_notes[n.index()] = Some(note);
        if ex.clustering.break_nodes.contains(&n) {
            ann.node_fill[n.index()] = Some("#f4cccc".to_string());
        }
    }
    for (k, c) in ex.clustering.clusters.iter().enumerate() {
        if c.len() < 2 {
            continue;
        }
        for &m in &c.members {
            ann.node_fill[m.index()] = Some(cluster_color(k).to_string());
        }
    }
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let mut note = format!("r={} {}", ex.rp.input_port(edge.dst()), ex.ic.edge_signal(e));
        if let Some(rule) = last_width_rule(ex, Subject::Edge(e.index())) {
            note.push_str(&format!("\\n{}", rule.tag()));
        }
        ann.edge_notes[e.index()] = Some(note);
    }
    ann
}

/// The rule that last *changed the width* of a subject — break and
/// cluster bookkeeping events don't count, so a DOT label reads
/// `IC-PRUNE` rather than the cluster assignment that came after it.
fn last_width_rule(ex: &Explained, subject: Subject) -> Option<Rule> {
    ex.trace
        .events_for(subject)
        .filter(|e| {
            matches!(
                e.rule,
                Rule::RpClamp
                    | Rule::RpClampEdge
                    | Rule::IcPrune
                    | Rule::IcPruneEdge
                    | Rule::ExtInsert
            )
        })
        .map(|e| e.rule)
        .last()
}

/// A small qualitative palette for merged clusters (break nodes keep the
/// red fill assigned before this is consulted).
fn cluster_color(k: usize) -> &'static str {
    const PALETTE: [&str; 6] = ["#d9ead3", "#cfe2f3", "#fff2cc", "#d9d2e9", "#fce5cd", "#d0e0e3"];
    PALETTE[k % PALETTE.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_testcases::figures;

    #[test]
    fn fig3_explanation_names_the_ic_chain() {
        let fig = figures::fig3();
        let ex = run_traced(&fig.g).expect("the figure synthesizes");
        assert!(ex.degradation.is_none(), "{:?}", ex.degradation);
        let text = explain_node(&fig.g, &ex, fig.n3, "n3");
        assert!(text.contains("IC-PRUNE"), "{text}");
        assert!(text.contains("8 -> 5"), "{text}");
        assert!(text.contains("RP-CLAMP not triggered"), "{text}");
        assert!(text.contains("cluster #0"), "{text}");
    }

    #[test]
    fn fig2_explanation_names_the_rp_clamp() {
        let fig = figures::fig2();
        let ex = run_traced(&fig.g).expect("the figure synthesizes");
        assert!(ex.degradation.is_none(), "{:?}", ex.degradation);
        let text = explain_node(&fig.g, &ex, fig.n1, "n1");
        assert!(text.contains("RP-CLAMP applies"), "{text}");
        assert!(text.contains("RP-CLAMP n"), "{text}");
        assert!(text.contains("7 -> 5"), "{text}");
    }

    #[test]
    fn resolve_accepts_names_display_ids_and_indices() {
        let fig = figures::fig3();
        let mut names = HashMap::new();
        names.insert("sum".to_string(), fig.n3);
        assert_eq!(resolve_node(&fig.g, &names, "sum").unwrap(), fig.n3);
        assert_eq!(resolve_node(&fig.g, &names, "A").unwrap(), fig.g.inputs()[0]);
        let display = fig.n3.to_string();
        assert_eq!(resolve_node(&fig.g, &names, &display).unwrap(), fig.n3);
        assert!(resolve_node(&fig.g, &names, "bogus").is_err());
        assert!(resolve_node(&fig.g, &names, "n999").is_err());
    }

    #[test]
    fn annotations_mark_rules_and_clusters() {
        let fig = figures::fig3();
        let ex = run_traced(&fig.g).expect("the figure synthesizes");
        assert!(ex.degradation.is_none(), "{:?}", ex.degradation);
        let ann = annotations(&ex);
        let n3 = ann.node_notes[fig.n3.index()].as_deref().unwrap();
        assert!(n3.contains("r="), "{n3}");
        assert!(n3.contains("IC-PRUNE"), "{n3}");
        // fig3 fully merges: every operator shares one cluster fill.
        assert!(ann.node_fill[fig.n1.index()].is_some());
        assert_eq!(ann.node_fill[fig.n1.index()], ann.node_fill[fig.n4.index()]);
        let dot = ex.graph.to_dot_annotated(&ann);
        assert!(dot.contains("IC-PRUNE"), "{dot}");
    }
}
