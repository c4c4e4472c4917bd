//! The differential-equivalence oracle behind every functional audit.
//!
//! The RP/IC transforms (Theorem 4.2, Lemmas 5.6/5.7) are sound only if
//! the width-transformed graph and the merged netlist still compute the
//! design's outputs. [`Equiv`] is the one place that checks this: it is
//! built once from a design with a caller-given `(seed, n)`, draws `n`
//! input vectors from `StdRng::seed_from_u64(seed)`, evaluates the
//! design on each, and then compares any number of candidates — netlists
//! by one word-parallel [`Netlist::simulate_batch`] pass, graphs by the
//! DFG evaluator — against those reference outputs. The guarded flow,
//! the service's cache hits, the fault harness, the table harness and
//! `dpmc --check` all use it, each with its own fixed seed, so each
//! draws exactly the vector stream it always did.

use std::fmt;

use dp_bitvec::BitVec;
use dp_dfg::gen::random_inputs;
use dp_dfg::{Dfg, EvalError, NodeId};
use dp_netlist::Netlist;
use rand::{rngs::StdRng, SeedableRng};

/// Vectors per oracle in [`Equiv::stream_netlist_mismatch`]: one word of
/// [`Netlist::simulate_batch`] lanes.
const STREAM_LANES: usize = 64;

/// Fixed random vectors and a design's reference outputs on them.
#[derive(Debug)]
pub struct Equiv {
    /// Input port widths, in [`Dfg::inputs`] order.
    inputs: Vec<usize>,
    /// Output port widths, in [`Dfg::outputs`] order.
    outputs: Vec<usize>,
    /// One input vector per lane.
    lanes: Vec<Vec<BitVec>>,
    /// Per lane: the design's outputs, in [`Dfg::outputs`] order.
    expect: Vec<Vec<BitVec>>,
}

/// The first way a candidate departs from the design. Ports are
/// positions: `output` indexes [`Dfg::outputs`] of the design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// The netlist failed [`Netlist::check`].
    Check(String),
    /// The netlist could not be simulated on the vectors.
    Simulate(String),
    /// The graph could not be evaluated on the vectors.
    Evaluate(String),
    /// The candidate has a different number of ports.
    PortCount,
    /// Input `k` has a different width.
    InputWidth(usize),
    /// Output `k` has a different width.
    OutputWidth(usize),
    /// Output `output` differs from the design's on vector `vector`.
    Value {
        /// The vector (lane) index.
        vector: usize,
        /// The output position.
        output: usize,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::Check(e) => write!(f, "check failed: {e}"),
            Mismatch::Simulate(e) => write!(f, "simulation failed: {e}"),
            Mismatch::Evaluate(e) => write!(f, "evaluation failed: {e}"),
            Mismatch::PortCount => write!(f, "port counts differ"),
            Mismatch::InputWidth(k) => write!(f, "input {k} width"),
            Mismatch::OutputWidth(k) => write!(f, "output {k} width"),
            Mismatch::Value { vector, output } => {
                write!(f, "differs from design on vector {vector} at output {output}")
            }
        }
    }
}

impl Mismatch {
    /// Renders the finding about `subject` (`"netlist"`, `"transformed
    /// graph"`), naming a differing output by `design`'s port name.
    pub fn describe(&self, subject: &str, design: &Dfg) -> String {
        match self {
            Mismatch::Value { vector, output } => format!(
                "{subject} differs from design on vector {vector} at output {}",
                design.outputs().get(*output).and_then(|&o| design.node(o).name()).unwrap_or("?")
            ),
            other => format!("{subject} {other}"),
        }
    }
}

impl Equiv {
    /// Draws `vectors` input vectors from `StdRng::seed_from_u64(seed)`
    /// and evaluates `design` on each. `design` must already have passed
    /// [`Dfg::validate`].
    ///
    /// # Errors
    ///
    /// Returns the evaluator's error if the design cannot be evaluated.
    pub fn new(design: &Dfg, seed: u64, vectors: usize) -> Result<Equiv, EvalError> {
        Equiv::draw(design, &mut StdRng::seed_from_u64(seed), vectors)
    }

    /// [`Equiv::new`]'s verdict on `nl` for any number of vectors, with
    /// at most 64 of them in memory at a time: the vectors
    /// are drawn from the one seeded stream chunk by chunk, so they are
    /// exactly those of `Equiv::new(design, seed, vectors)`, and a
    /// [`Mismatch::Value`] names its vector's position in that stream.
    ///
    /// # Errors
    ///
    /// Returns the evaluator's error if the design cannot be evaluated.
    pub fn stream_netlist_mismatch(
        design: &Dfg,
        nl: &Netlist,
        seed: u64,
        vectors: usize,
    ) -> Result<Option<Mismatch>, EvalError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut done = 0;
        while done < vectors {
            let lanes = (vectors - done).min(STREAM_LANES);
            let found = Equiv::draw(design, &mut rng, lanes)?.netlist_mismatch(nl);
            if let Some(m) = found {
                return Ok(Some(match m {
                    Mismatch::Value { vector, output } => {
                        Mismatch::Value { vector: done + vector, output }
                    }
                    other => other,
                }));
            }
            done += lanes;
        }
        Ok(None)
    }

    /// Draws the next `vectors` input vectors from `rng` and evaluates
    /// `design` on each.
    fn draw(design: &Dfg, rng: &mut StdRng, vectors: usize) -> Result<Equiv, EvalError> {
        let lanes: Vec<Vec<BitVec>> = (0..vectors).map(|_| random_inputs(design, rng)).collect();
        let mut expect = Vec::with_capacity(lanes.len());
        for inputs in &lanes {
            let eval = design.evaluate_full_prevalidated(inputs)?;
            expect.push(design.outputs().iter().map(|&o| eval.result(o).clone()).collect());
        }
        let widths = |ports: &[NodeId]| ports.iter().map(|&n| design.node(n).width()).collect();
        Ok(Equiv {
            inputs: widths(design.inputs()),
            outputs: widths(design.outputs()),
            lanes,
            expect,
        })
    }

    /// Positional interface check of a candidate graph: port counts, then
    /// input widths, then output widths.
    pub fn interface_mismatch(&self, cand: &Dfg) -> Option<Mismatch> {
        if cand.inputs().len() != self.inputs.len() || cand.outputs().len() != self.outputs.len() {
            return Some(Mismatch::PortCount);
        }
        let differs = |ports: &[NodeId], widths: &[usize]| {
            ports.iter().zip(widths).position(|(&n, &w)| cand.node(n).width() != w)
        };
        differs(cand.inputs(), &self.inputs)
            .map(Mismatch::InputWidth)
            .or_else(|| differs(cand.outputs(), &self.outputs).map(Mismatch::OutputWidth))
    }

    /// Evaluates a validated candidate graph on every vector and compares
    /// its outputs with the design's, position by position.
    pub fn graph_mismatch(&self, cand: &Dfg) -> Option<Mismatch> {
        if cand.outputs().len() != self.outputs.len() {
            return Some(Mismatch::PortCount);
        }
        for (vector, (inputs, expect)) in self.lanes.iter().zip(&self.expect).enumerate() {
            let got = match cand.evaluate_full_prevalidated(inputs) {
                Ok(v) => v,
                Err(e) => return Some(Mismatch::Evaluate(e.to_string())),
            };
            let output =
                cand.outputs().iter().zip(expect).position(|(&o, want)| got.result(o) != want);
            if let Some(output) = output {
                return Some(Mismatch::Value { vector, output });
            }
        }
        None
    }

    /// Runs [`Netlist::check`], then simulates every vector in one batch
    /// and compares the netlist's output buses with the design's.
    pub fn netlist_mismatch(&self, nl: &Netlist) -> Option<Mismatch> {
        if let Err(e) = nl.check() {
            return Some(Mismatch::Check(e.to_string()));
        }
        let batch = match nl.simulate_batch(&self.lanes) {
            Ok(v) => v,
            Err(e) => return Some(Mismatch::Simulate(e.to_string())),
        };
        for (vector, (expect, got)) in self.expect.iter().zip(&batch).enumerate() {
            if got.len() != expect.len() {
                return Some(Mismatch::PortCount);
            }
            if let Some(output) = expect.iter().zip(got).position(|(want, have)| want != have) {
                return Some(Mismatch::Value { vector, output });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_flow_guarded, FlowBudget, MergeStrategy, SynthConfig};
    use dp_bitvec::Signedness::Unsigned;
    use dp_dfg::OpKind;

    /// `a*b + c*d` on 5-bit operands; returns the graph and its first
    /// multiplier.
    fn sum_of_products() -> (Dfg, NodeId) {
        let mut g = Dfg::new();
        let ins: Vec<_> = ["a", "b", "c", "d"].iter().map(|n| g.input(*n, 5)).collect();
        let m1 = g.op(OpKind::Mul, 10, &[(ins[0], Unsigned), (ins[1], Unsigned)]);
        let m2 = g.op(OpKind::Mul, 10, &[(ins[2], Unsigned), (ins[3], Unsigned)]);
        let s = g.op(OpKind::Add, 11, &[(m1, Unsigned), (m2, Unsigned)]);
        g.output("r", 11, s, Unsigned);
        (g, m1)
    }

    /// The new-merge netlist of `g` from an undegraded guarded flow.
    fn new_merge_netlist(g: &Dfg) -> Netlist {
        let guarded = run_flow_guarded(
            g,
            MergeStrategy::New,
            &SynthConfig::default(),
            &FlowBudget::default(),
        )
        .unwrap();
        assert!(guarded.degradation.is_none(), "{:?}", guarded.degradation);
        guarded.flow.netlist
    }

    #[test]
    fn vectors_equal_each_callers_own_draw() {
        let (g, _) = sum_of_products();
        let budget = FlowBudget::default();
        let callers = [
            ("guard", budget.check_seed, budget.check_vectors),
            ("serve", budget.check_seed, budget.check_vectors.max(1)),
            ("faultcheck", 3 ^ 0xFA57_C0DE, 16),
            ("table harness", 0x5EED, 20),
            ("bench", 0x5EED, 16),
            ("dpmc --check", 0xD93C, 10),
        ];
        for (caller, seed, n) in callers {
            let oracle = Equiv::new(&g, seed, n).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let draw: Vec<_> = (0..n).map(|_| random_inputs(&g, &mut rng)).collect();
            assert_eq!(oracle.lanes, draw, "{caller}: vectors drifted");
            for (inputs, expect) in draw.iter().zip(&oracle.expect) {
                let eval = g.evaluate(inputs).unwrap();
                let want: Vec<_> = g.outputs().iter().map(|o| eval[o].clone()).collect();
                assert_eq!(*expect, want, "{caller}: reference outputs drifted");
            }
        }
    }

    #[test]
    fn one_gate_rewire_in_a_netlist_is_reported() {
        let (g, _) = sum_of_products();
        let oracle = Equiv::new(&g, 0x5EED, 16).unwrap();
        let mut nl = new_merge_netlist(&g);
        assert_eq!(oracle.netlist_mismatch(&nl), None);

        // Tie one input pin of the gate driving the result's LSB high.
        let lsb = nl.outputs()[0].1[0];
        let gate = nl.driver_gate(lsb).expect("the LSB is driven by a gate");
        let one = nl.const1();
        nl.rewire_gate_input(gate, 0, one);
        let first_wrong = oracle
            .lanes
            .iter()
            .zip(&oracle.expect)
            .position(|(inputs, want)| nl.simulate(inputs).unwrap() != *want)
            .expect("the rewire changes the function on some vector");
        assert_eq!(
            oracle.netlist_mismatch(&nl),
            Some(Mismatch::Value { vector: first_wrong, output: 0 })
        );
    }

    #[test]
    fn streamed_checks_keep_the_vector_stream_and_the_verdict() {
        let (g, _) = sum_of_products();
        let n = 3 * STREAM_LANES + 9;
        let whole = Equiv::new(&g, 0xD93C, n).unwrap();
        let mut rng = StdRng::seed_from_u64(0xD93C);
        let chunked: Vec<_> = [STREAM_LANES, STREAM_LANES, STREAM_LANES, 9]
            .into_iter()
            .flat_map(|lanes| Equiv::draw(&g, &mut rng, lanes).unwrap().lanes)
            .collect();
        assert_eq!(chunked, whole.lanes);

        // Every single-pin tie of every gate in the fan-in of the result:
        // the streamed check reports exactly what one oracle over all
        // vectors reports, including wrong vectors past the first chunk.
        let nl = new_merge_netlist(&g);
        let mut gates: Vec<_> =
            nl.outputs()[0].1.iter().filter_map(|&net| nl.driver_gate(net)).collect();
        let mut next = 0;
        while next < gates.len() {
            for &net in nl.gate_inputs(gates[next]) {
                if let Some(d) = nl.driver_gate(net).filter(|d| !gates.contains(d)) {
                    gates.push(d);
                }
            }
            next += 1;
        }
        let mut late = 0;
        for &gate in &gates {
            for pin in 0..nl.gate_inputs(gate).len() {
                for high in [false, true] {
                    let mut bad = nl.clone();
                    let tie = if high { bad.const1() } else { bad.const0() };
                    bad.rewire_gate_input(gate, pin, tie);
                    let want = whole.netlist_mismatch(&bad);
                    let got = Equiv::stream_netlist_mismatch(&g, &bad, 0xD93C, n).unwrap();
                    assert_eq!(got, want, "gate {gate:?} pin {pin} tied {high}");
                    late += usize::from(
                        matches!(want, Some(Mismatch::Value { vector, .. }) if vector >= STREAM_LANES),
                    );
                }
            }
        }
        assert!(late > 0, "no tie is first wrong past the first chunk");
    }

    #[test]
    fn one_bit_width_change_in_a_graph_is_reported() {
        let (g, m1) = sum_of_products();
        let oracle = Equiv::new(&g, 0x5EED, 16).unwrap();
        assert_eq!(oracle.interface_mismatch(&g), None);
        assert_eq!(oracle.graph_mismatch(&g), None);

        // A 9-bit product of two 5-bit operands wraps whenever a*b >= 512.
        let mut narrowed = g.clone();
        narrowed.set_node_width(m1, 9);
        narrowed.validate().unwrap();
        assert_eq!(oracle.interface_mismatch(&narrowed), None);
        assert!(
            matches!(oracle.graph_mismatch(&narrowed), Some(Mismatch::Value { output: 0, .. })),
            "{:?}",
            oracle.graph_mismatch(&narrowed)
        );

        // The same one-bit change on a port is an interface mismatch.
        let mut port = g.clone();
        port.set_node_width(g.inputs()[2], 4);
        assert_eq!(oracle.interface_mismatch(&port), Some(Mismatch::InputWidth(2)));
    }

    #[test]
    fn findings_render_in_each_audit_vocabulary() {
        let (g, _) = sum_of_products();
        let value = Mismatch::Value { vector: 3, output: 0 };
        assert_eq!(
            value.describe("netlist", &g),
            "netlist differs from design on vector 3 at output r"
        );
        assert_eq!(
            format!("stored netlist {value}"),
            "stored netlist differs from design on vector 3 at output 0"
        );
        let sim = Mismatch::Simulate("boom".into());
        assert_eq!(sim.describe("netlist", &g), "netlist simulation failed: boom");
        let eval = Mismatch::Evaluate("boom".into());
        assert_eq!(
            eval.describe("transformed graph", &g),
            "transformed graph evaluation failed: boom"
        );
    }
}
