//! Static timing analysis with the linear-load delay model.

use crate::netlist::NetDriver;
use crate::{Library, NetId, Netlist, NetlistError};

/// Arrival time (ns) at every net, assuming all primary inputs arrive at
/// t = 0 — the setup used for the paper's Tables 1 and 2.
#[derive(Debug, Clone)]
pub struct ArrivalTimes {
    at: Vec<f64>,
}

impl ArrivalTimes {
    /// The arrival time at `net` in nanoseconds.
    pub fn at(&self, net: NetId) -> f64 {
        self.at[net.index()]
    }
}

/// Summary of a longest-path analysis.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// The longest input-to-output path delay, nanoseconds.
    pub delay_ns: f64,
    /// The most critical primary output bus and bit.
    pub critical_output: Option<(String, usize)>,
    /// Per-output-bus worst arrival, `(name, ns)`.
    pub per_output: Vec<(String, f64)>,
}

impl Netlist {
    /// Computes arrival times at every net.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational cycle; run
    /// [`Netlist::check`] first for a graceful error.
    pub fn arrival_times(&self, lib: &Library) -> ArrivalTimes {
        let mut at = vec![0.0f64; self.num_nets()];
        for g in self.eval_order().expect("timing needs an acyclic netlist") {
            let gate = &self.gates[g.index()];
            let input_at = gate.inputs().iter().map(|&n| at[n.index()]).fold(0.0f64, f64::max);
            let d = lib.delay_ns(gate.kind, gate.drive, self.fanout_of(gate.output));
            at[gate.output.index()] = input_at + d;
        }
        ArrivalTimes { at }
    }

    /// Longest input-to-output path delay and per-output summary.
    pub fn longest_path(&self, lib: &Library) -> TimingReport {
        self.timing_report(&self.arrival_times(lib))
    }

    /// The [`TimingReport`] of already computed arrival times.
    fn timing_report(&self, at: &ArrivalTimes) -> TimingReport {
        let mut report =
            TimingReport { delay_ns: 0.0, critical_output: None, per_output: Vec::new() };
        for (name, bits) in self.outputs() {
            let mut worst = 0.0f64;
            for (k, &b) in bits.iter().enumerate() {
                let t = at.at(b);
                if t > worst {
                    worst = t;
                }
                if t > report.delay_ns {
                    report.delay_ns = t;
                    report.critical_output = Some((name.clone(), k));
                }
            }
            report.per_output.push((name.clone(), worst));
        }
        report
    }

    /// The single worst input-to-output path, as the ordered list of gates
    /// from the path's first gate to the critical output's driver. Empty
    /// for gateless netlists.
    pub fn critical_path(&self, lib: &Library) -> Vec<crate::GateId> {
        let at = self.arrival_times(lib);
        // Start at the worst output bit's driver and walk backwards,
        // always following the latest-arriving input.
        let report = self.timing_report(&at);
        let Some((name, bit)) = report.critical_output else {
            return Vec::new();
        };
        let (_, bits) =
            self.outputs().iter().find(|(n, _)| *n == name).expect("critical output exists");
        let mut path = Vec::new();
        let mut net = bits[bit];
        while let Some(g) = self.driver_gate(net) {
            path.push(g);
            let gate_inputs = self.gate_inputs(g);
            let worst = gate_inputs
                .iter()
                .copied()
                .max_by(|&x, &y| at.at(x).partial_cmp(&at.at(y)).expect("finite arrival times"))
                .expect("gates have inputs");
            net = worst;
        }
        path.reverse();
        path
    }

    /// The set of gates on (near-)critical paths: every gate whose output
    /// arrival is within `slack_ns` of the worst path *and* which lies on
    /// a path reaching the critical output. Used by the optimizer to focus
    /// sizing.
    pub fn critical_gates(&self, lib: &Library, slack_ns: f64) -> Vec<crate::GateId> {
        let at = self.arrival_times(lib);
        let worst = self.timing_report(&at).delay_ns;
        // Backward required-time sweep: required(net) = worst at outputs.
        let mut required = vec![f64::INFINITY; self.num_nets()];
        for (_, bits) in self.outputs() {
            for &b in bits {
                required[b.index()] = worst;
            }
        }
        let order = self.topo_order().expect("arrival times above proved the netlist acyclic");
        for &g in order.iter().rev() {
            let gate = &self.gates[g.index()];
            let d = lib.delay_ns(gate.kind, gate.drive, self.fanout_of(gate.output));
            let req_in = required[gate.output.index()] - d;
            for &i in gate.inputs() {
                if matches!(self.drivers[i.index()], NetDriver::Gate(_) | NetDriver::Input) {
                    let r = &mut required[i.index()];
                    if req_in < *r {
                        *r = req_in;
                    }
                }
            }
        }
        order
            .iter()
            .copied()
            .filter(|&g| {
                let out = self.gates[g.index()].output;
                let slack = required[out.index()] - at.at(out);
                slack.is_finite() && slack <= slack_ns + 1e-12
            })
            .collect()
    }
}

/// Incremental levelized arrival-time tracker for the optimizer's inner
/// loop.
///
/// A full [`Netlist::arrival_times`] pass costs O(gates) and the sizing
/// loop evaluates one candidate drive change at a time; this structure
/// keeps the arrival array live and, on [`IncrementalSta::update_gate`],
/// recomputes only the fanout cone of the changed gate in topological
/// order, stopping wherever an arrival is unchanged.
///
/// Arrivals are **bit-identical** to a fresh full pass: each recomputed
/// gate folds its input arrivals in the same pin order with the same
/// `f64::max`, and untouched gates keep values that equal what the full
/// pass would compute (their inputs are unchanged).
///
/// The tracker is keyed to one netlist structure; after a structural edit
/// (gate/net creation, rewiring) build a fresh one.
#[derive(Debug, Clone)]
pub struct IncrementalSta {
    /// `rank[g.index()]` = topological position of `g`; `None` when
    /// creation order is topological and the gate id is the position.
    rank: Option<Vec<u32>>,
    /// CSR consumer index: `coff[g]..coff[g + 1]` slices `cons`.
    coff: Vec<u32>,
    cons: Vec<crate::GateId>,
    /// Arrival time per net.
    at: Vec<f64>,
    /// Scratch: gates queued in the current cone walk.
    queued: Vec<bool>,
    /// Scratch: pending cone worklist ordered by topological position.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, crate::GateId)>>,
}

impl IncrementalSta {
    /// Builds the tracker with a full arrival pass.
    ///
    /// On a netlist whose creation order is topological the gate id is the
    /// position and no order is built. Otherwise the consumer CSR is built
    /// once and serves both the Kahn pass (whose order is memoized in the
    /// netlist for [`Netlist::critical_gates`]) and the tracker.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cyclic`] on a combinational loop.
    pub fn new(nl: &Netlist, lib: &Library) -> Result<IncrementalSta, NetlistError> {
        let (coff, cons) = nl.gate_consumers(|_| true);
        let mut sta = IncrementalSta {
            rank: None,
            coff,
            cons,
            at: vec![0.0f64; nl.num_nets()],
            queued: vec![false; nl.num_gates()],
            heap: std::collections::BinaryHeap::new(),
        };
        if nl.creation_order_is_topological() {
            for g in nl.gate_ids() {
                sta.at[nl.gate_output(g).index()] = sta.eval_gate(nl, lib, g);
            }
        } else {
            let order = nl
                .topo
                .get_or_init(|| nl.kahn(|_| true, &sta.coff, &sta.cons))
                .as_deref()
                .ok_or(NetlistError::Cyclic)?;
            let mut rank = vec![0u32; nl.num_gates()];
            for (i, &g) in order.iter().enumerate() {
                rank[g.index()] = i as u32;
                sta.at[nl.gate_output(g).index()] = sta.eval_gate(nl, lib, g);
            }
            sta.rank = Some(rank);
        }
        Ok(sta)
    }

    /// Topological position of `g`, the cone worklist's key.
    fn position(&self, g: crate::GateId) -> u32 {
        self.rank.as_ref().map_or(g.index() as u32, |rank| rank[g.index()])
    }

    /// Arrival of one gate's output from the current `at` array: max input
    /// arrival (pin order, `f64::max` fold — identical to the full pass)
    /// plus the cell delay under the net's current fanout.
    fn eval_gate(&self, nl: &Netlist, lib: &Library, g: crate::GateId) -> f64 {
        let gate = &nl.gates[g.index()];
        let input_at = gate.inputs().iter().map(|&n| self.at[n.index()]).fold(0.0f64, f64::max);
        input_at + lib.delay_ns(gate.kind, gate.drive, nl.fanout_of(gate.output))
    }

    /// The arrival time at `net` in nanoseconds.
    pub fn arrival(&self, net: NetId) -> f64 {
        self.at[net.index()]
    }

    /// Re-propagates arrivals through the fanout cone of `g` after its
    /// delay changed (a sizing move). Gates are visited in topological
    /// order; propagation stops at gates whose arrival is unchanged.
    pub fn update_gate(&mut self, nl: &Netlist, lib: &Library, g: crate::GateId) {
        self.heap.push(std::cmp::Reverse((self.position(g), g)));
        self.queued[g.index()] = true;
        while let Some(std::cmp::Reverse((_, g))) = self.heap.pop() {
            self.queued[g.index()] = false;
            let out = nl.gate_output(g).index();
            let new_at = self.eval_gate(nl, lib, g);
            // Exact comparison: equal bits mean the downstream cone cannot
            // observe any difference from a full recompute.
            if new_at.to_bits() == self.at[out].to_bits() {
                continue;
            }
            self.at[out] = new_at;
            let lo = self.coff[g.index()] as usize;
            let hi = self.coff[g.index() + 1] as usize;
            for &c in &self.cons[lo..hi] {
                if !self.queued[c.index()] {
                    self.queued[c.index()] = true;
                    self.heap.push(std::cmp::Reverse((self.position(c), c)));
                }
            }
        }
    }

    /// Longest input-to-output delay over the current arrivals — the same
    /// scan order and comparison [`Netlist::longest_path`] uses, so the
    /// result is bit-identical to a fresh full analysis.
    pub fn delay_ns(&self, nl: &Netlist) -> f64 {
        let mut worst = 0.0f64;
        for (_, bits) in nl.outputs() {
            for &b in bits {
                let t = self.at[b.index()];
                if t > worst {
                    worst = t;
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellKind, Drive};

    fn chain(n_stages: usize) -> Netlist {
        let mut n = Netlist::new();
        let mut w = n.input("a", 1)[0];
        for _ in 0..n_stages {
            w = n.gate(CellKind::Inv, &[w]);
        }
        n.output("o", vec![w]);
        n
    }

    #[test]
    fn chain_delay_scales_linearly() {
        let lib = Library::synthetic_025um();
        let d1 = chain(1).longest_path(&lib).delay_ns;
        let d10 = chain(10).longest_path(&lib).delay_ns;
        assert!((d10 - 10.0 * d1).abs() < 1e-9, "{d10} vs {}", 10.0 * d1);
    }

    #[test]
    fn parallel_paths_take_max() {
        let lib = Library::synthetic_025um();
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let fast = n.gate(CellKind::Inv, &[a]);
        let s1 = n.gate(CellKind::Xor2, &[a, fast]);
        let s2 = n.gate(CellKind::Xor2, &[s1, a]);
        let merged = n.gate(CellKind::And2, &[fast, s2]);
        n.output("o", vec![merged]);
        let report = n.longest_path(&lib);
        // Path through the two XORs dominates.
        assert!(report.delay_ns > lib.delay_ns(CellKind::Xor2, Drive::X1, 1) * 2.0);
        assert_eq!(report.critical_output.as_ref().unwrap().0, "o");
    }

    #[test]
    fn upsizing_critical_gate_reduces_delay() {
        let lib = Library::synthetic_025um();
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let x = n.gate(CellKind::Xor2, &[a, a]);
        // Heavy fanout on x.
        let mut sinks = Vec::new();
        for _ in 0..12 {
            sinks.push(n.gate(CellKind::Inv, &[x]));
        }
        n.output("o", sinks);
        let before = n.longest_path(&lib).delay_ns;
        let g = n.driver_gate(x).unwrap();
        n.set_drive(g, Drive::X4);
        let after = n.longest_path(&lib).delay_ns;
        assert!(after < before);
    }

    #[test]
    fn critical_gates_found_on_the_long_path() {
        let lib = Library::synthetic_025um();
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        // Long path: 5 XORs; short path: 1 INV.
        let mut w = a;
        for _ in 0..5 {
            w = n.gate(CellKind::Xor2, &[w, a]);
        }
        let short = n.gate(CellKind::Inv, &[a]);
        n.output("long", vec![w]);
        n.output("short", vec![short]);
        let crit = n.critical_gates(&lib, 1e-9);
        assert_eq!(crit.len(), 5, "only the XOR chain is critical");
        for g in crit {
            assert_eq!(n.gate_info(g).0, CellKind::Xor2);
        }
    }

    #[test]
    fn critical_path_walks_the_long_chain() {
        let lib = Library::synthetic_025um();
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let mut w = a;
        let mut chain = Vec::new();
        for _ in 0..4 {
            w = n.gate(CellKind::Xor2, &[w, a]);
            chain.push(n.driver_gate(w).unwrap());
        }
        let short = n.gate(CellKind::Inv, &[a]);
        n.output("long", vec![w]);
        n.output("short", vec![short]);
        let path = n.critical_path(&lib);
        assert_eq!(path, chain, "path follows the XOR chain in order");
    }

    #[test]
    fn incremental_sta_matches_full_pass_bit_for_bit() {
        let lib = Library::synthetic_025um();
        let mut n = Netlist::new();
        let a = n.input("a", 2);
        let x = n.gate(CellKind::Xor2, &[a[0], a[1]]);
        let mut w = x;
        let mut gates = vec![n.driver_gate(x).unwrap()];
        for _ in 0..10 {
            w = n.gate(CellKind::Nand2, &[w, a[0]]);
            gates.push(n.driver_gate(w).unwrap());
        }
        let side = n.gate(CellKind::Inv, &[x]);
        n.output("o", vec![w, side]);
        // Size a few gates up and down; the tracker must stay bit-identical
        // to a fresh full pass after every move.
        let size_and_compare = |n: &mut Netlist, gates: &[crate::GateId]| {
            let mut sta = IncrementalSta::new(n, &lib).unwrap();
            assert_eq!(sta.delay_ns(n).to_bits(), n.longest_path(&lib).delay_ns.to_bits());
            for (i, &g) in gates.iter().enumerate() {
                let drive = if i % 2 == 0 { Drive::X4 } else { Drive::X2 };
                n.set_drive(g, drive);
                sta.update_gate(n, &lib, g);
                let full = n.arrival_times(&lib);
                for net in 0..n.num_nets() {
                    let id = NetId(net as u32);
                    assert_eq!(sta.arrival(id).to_bits(), full.at(id).to_bits(), "net {id}");
                }
                assert_eq!(sta.delay_ns(n).to_bits(), n.longest_path(&lib).delay_ns.to_bits());
            }
        };
        assert!(n.creation_order_is_topological());
        size_and_compare(&mut n, &gates);
        assert!(n.topo.get().is_none(), "creation order needs no Kahn pass");
        // Buffer `x` the way the optimizer does: the new, highest-id buffer
        // feeds the chain head and the side load, so gate ids are no longer
        // a topological order and the tracker ranks gates by Kahn position.
        let buf = n.gate(CellKind::Buf, &[x]);
        assert_eq!(n.gate_inputs(gates[1])[0], x);
        n.rewire_gate_input(gates[1], 0, buf);
        n.rewire_gate_input(n.driver_gate(side).unwrap(), 0, buf);
        assert!(!n.creation_order_is_topological());
        gates.push(n.driver_gate(buf).unwrap());
        gates.reverse();
        size_and_compare(&mut n, &gates);
        assert!(n.topo.get().is_some(), "the tracker's Kahn pass is memoized for reuse");
    }

    #[test]
    fn empty_netlist_reports_zero() {
        let n = Netlist::new();
        let lib = Library::synthetic_025um();
        let report = n.longest_path(&lib);
        assert_eq!(report.delay_ns, 0.0);
        assert!(report.critical_output.is_none());
    }
}
