//! Quality-of-results counters for one synthesis flow.

use crate::json::Json;

/// QoR counters for one end-to-end flow over one design.
///
/// Structural fields are filled by `dp_synth::run_flow_guarded_with`; the
/// timing-dependent fields (`delay_ns`, `area`) and the verifier counts
/// are filled by whoever runs STA / `dp_verify` — the crate boundaries
/// point the other way, so those layers write into this struct rather
/// than this crate calling them.
///
/// Every field is a pure function of the design and the flow
/// configuration — **no wall-clock times** — so [`FlowMetrics::to_json`]
/// output is byte-identical across repeated runs of the same flow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowMetrics {
    /// The merge strategy that produced this flow (`"no-merge"`,
    /// `"old-merge"`, `"new-merge"`).
    pub strategy: String,
    /// Total operator/extension node width before width optimization.
    pub node_width_before: usize,
    /// Total operator/extension node width after (equal to `before` for
    /// flows that do not transform the graph).
    pub node_width_after: usize,
    /// Total edge width before width optimization.
    pub edge_width_before: usize,
    /// Total edge width after.
    pub edge_width_after: usize,
    /// Fixpoint rounds the width pipeline ran (0 when it did not run).
    pub transform_rounds: usize,
    /// Whether the width pipeline reached its fixpoint (vacuously `true`
    /// when it did not run).
    pub transform_converged: bool,
    /// Worklist insertions made by the incremental fixpoint engine across
    /// all rounds (0 when the pipeline did not run).
    pub worklist_pushes: usize,
    /// Node analysis recomputations across all rounds and passes. A full
    /// sweep costs `3 * num_nodes` per round; the incremental engine only
    /// pays for ports whose inputs changed.
    pub ports_visited: usize,
    /// Recomputations the worklist avoided relative to full sweeps
    /// (`3 * num_nodes - ports_visited`, summed per round).
    pub ports_skipped: usize,
    /// Clusters in the final clustering (one carry-propagate adder each).
    pub clusters: usize,
    /// Break nodes in the final break analysis (new-merge only; 0 for
    /// strategies that have no break-node concept).
    pub break_nodes: usize,
    /// Deepest carry-save reduction (full/half-adder stages) across all
    /// clusters.
    pub csa_depth: usize,
    /// Final carry-propagate adders actually instantiated (degenerate
    /// wiring-only clusters pay none).
    pub cpa_count: usize,
    /// Gate count of the netlist being measured. The guarded flow fills in
    /// the *emitted* count: what synthesis built, before constant folding
    /// and the dead-gate sweep. Synthesis emits its carry-save trees and
    /// final adders already folded and without dead cells, so this is
    /// close to, but not, the final count; `dp_opt::Finished::fill`
    /// overwrites it with the final (folded and swept) netlist's count.
    pub gates: usize,
    /// Longest-path delay (ns) under the measuring library; 0 until STA
    /// runs.
    pub delay_ns: f64,
    /// Area (library units); 0 until measured.
    pub area: f64,
    /// Output-port bits the abstract interpreter proved constant across
    /// the final design (dp-absint forward analysis); 0 for flows that do
    /// not run it.
    pub absint_known_bits: usize,
    /// Output-port bits the abstract interpreter proved dead (backward
    /// demanded-bits analysis).
    pub absint_dead_bits: usize,
    /// Operator nodes the interval analysis proved can never wrap at their
    /// final width.
    pub absint_no_overflow_ops: usize,
    /// Error-level diagnostics from the semantic verifier; 0 until it runs.
    pub verify_errors: usize,
    /// Warning-level diagnostics.
    pub verify_warnings: usize,
    /// Info-level diagnostics.
    pub verify_infos: usize,
    /// Whether the fault-tolerant flow driver had to degrade this flow to
    /// a fallback stage (see `dp_synth`'s `DegradationReport`). Healthy
    /// flows leave this `false` and serialize no degradation fields at
    /// all, so baselines recorded before degradation existed still compare
    /// exactly.
    pub degraded: bool,
    /// The `FALLBACK-*` rule tags of the degradation steps taken, in
    /// order. Empty for healthy flows.
    pub fallbacks: Vec<String>,
}

impl FlowMetrics {
    /// Per-tag counts of the degradation steps taken, keyed by
    /// `FALLBACK-*` rule tag in first-occurrence order. Empty for healthy
    /// flows. This is the `degradations` counter block of the bench
    /// schema: it makes fallbacks visible in metrics rows without
    /// re-running `dpmc explain` over the trace.
    pub fn degradation_counts(&self) -> Vec<(&str, usize)> {
        let mut counts: Vec<(&str, usize)> = Vec::new();
        for tag in &self.fallbacks {
            match counts.iter_mut().find(|(t, _)| t == tag) {
                Some((_, n)) => *n += 1,
                None => counts.push((tag.as_str(), 1)),
            }
        }
        counts
    }

    /// Serializes every counter, in declaration order. Contains no timing
    /// fields by construction.
    ///
    /// The degradation fields (`degraded`, `fallbacks`, `degradations`)
    /// are emitted only when the flow actually degraded: the bench
    /// comparison gate rejects fresh keys absent from the baseline, and
    /// healthy runs must stay byte-compatible with pre-degradation
    /// baselines.
    pub fn to_json(&self) -> Json {
        let doc = Json::obj()
            .field("strategy", self.strategy.as_str())
            .field("node_width_before", self.node_width_before)
            .field("node_width_after", self.node_width_after)
            .field("edge_width_before", self.edge_width_before)
            .field("edge_width_after", self.edge_width_after)
            .field("transform_rounds", self.transform_rounds)
            .field("transform_converged", self.transform_converged)
            .field("worklist_pushes", self.worklist_pushes)
            .field("ports_visited", self.ports_visited)
            .field("ports_skipped", self.ports_skipped)
            .field("clusters", self.clusters)
            .field("break_nodes", self.break_nodes)
            .field("csa_depth", self.csa_depth)
            .field("cpa_count", self.cpa_count)
            .field("gates", self.gates)
            .field("delay_ns", self.delay_ns)
            .field("area", self.area)
            .field("absint_known_bits", self.absint_known_bits)
            .field("absint_dead_bits", self.absint_dead_bits)
            .field("absint_no_overflow_ops", self.absint_no_overflow_ops)
            .field("verify_errors", self.verify_errors)
            .field("verify_warnings", self.verify_warnings)
            .field("verify_infos", self.verify_infos);
        if !self.degraded {
            return doc;
        }
        let mut degradations = Json::obj();
        for (tag, count) in self.degradation_counts() {
            degradations = degradations.field(tag, count);
        }
        doc.field("degraded", true)
            .field(
                "fallbacks",
                Json::Array(self.fallbacks.iter().map(|t| Json::from(t.as_str())).collect()),
            )
            .field("degradations", degradations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_byte_identically() {
        let build = || FlowMetrics {
            strategy: "new-merge".to_string(),
            node_width_before: 33,
            node_width_after: 22,
            clusters: 1,
            delay_ns: 3.25,
            area: 417.5,
            transform_converged: true,
            ..FlowMetrics::default()
        };
        let a = build().to_json().render_pretty();
        let b = build().to_json().render_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"strategy\": \"new-merge\""));
        assert!(a.contains("\"delay_ns\": 3.25"));
        assert!(!a.contains("\"us\""), "QoR carries no timing fields");
        assert!(!a.contains("degradations"), "healthy flows emit no degradation block");
    }

    #[test]
    fn degradation_counts_group_by_tag_in_first_seen_order() {
        let m = FlowMetrics {
            degraded: true,
            fallbacks: vec![
                "FALLBACK-RP-ONLY".to_string(),
                "FALLBACK-SINGLETON".to_string(),
                "FALLBACK-RP-ONLY".to_string(),
            ],
            ..FlowMetrics::default()
        };
        assert_eq!(
            m.degradation_counts(),
            vec![("FALLBACK-RP-ONLY", 2), ("FALLBACK-SINGLETON", 1)]
        );
        let doc = m.to_json().render();
        assert!(
            doc.contains(r#""degradations":{"FALLBACK-RP-ONLY":2,"FALLBACK-SINGLETON":1}"#),
            "degradations block missing: {doc}"
        );
    }
}
