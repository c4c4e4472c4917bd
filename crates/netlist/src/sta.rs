//! Static timing analysis with the linear-load delay model.

use crate::netlist::NetDriver;
use crate::{GateId, Library, NetId, Netlist};

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
    /// Computes arrival times at every net, in one pass in gate-id order.
    pub fn arrival_times(&self, lib: &Library) -> ArrivalTimes {
        let mut at = vec![0.0f64; self.num_nets()];
        for gate in &self.gates {
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
    pub fn critical_path(&self, lib: &Library) -> Vec<GateId> {
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
    /// a path reaching the critical output, in gate-id order. Used by the
    /// optimizer to focus sizing.
    pub fn critical_gates(&self, lib: &Library, slack_ns: f64) -> Vec<GateId> {
        let at = self.arrival_times(lib);
        let worst = self.timing_report(&at).delay_ns;
        // Backward required-time sweep: required(net) = worst at outputs.
        let mut required = vec![f64::INFINITY; self.num_nets()];
        for (_, bits) in self.outputs() {
            for &b in bits {
                required[b.index()] = worst;
            }
        }
        for gate in self.gates.iter().rev() {
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
        self.gate_ids()
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
    /// CSR consumer index: `coff[g]..coff[g + 1]` slices `cons`.
    coff: Vec<u32>,
    cons: Vec<GateId>,
    /// Arrival time per net.
    at: Vec<f64>,
    /// Scratch: gates queued in the current cone walk.
    queued: Vec<bool>,
    /// Scratch: pending cone worklist, lowest gate id (a topological
    /// position) first.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<GateId>>,
}

impl IncrementalSta {
    /// Builds the tracker with a full arrival pass in gate-id order.
    pub fn new(nl: &Netlist, lib: &Library) -> IncrementalSta {
        let (coff, cons) = nl.gate_consumers();
        let mut sta = IncrementalSta {
            coff,
            cons,
            at: vec![0.0f64; nl.num_nets()],
            queued: vec![false; nl.num_gates()],
            heap: std::collections::BinaryHeap::new(),
        };
        for g in nl.gate_ids() {
            sta.at[nl.gate_output(g).index()] = sta.eval_gate(nl, lib, g);
        }
        sta
    }

    /// Arrival of one gate's output from the current `at` array: max input
    /// arrival (pin order, `f64::max` fold — identical to the full pass)
    /// plus the cell delay under the net's current fanout.
    fn eval_gate(&self, nl: &Netlist, lib: &Library, g: GateId) -> f64 {
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
    pub fn update_gate(&mut self, nl: &Netlist, lib: &Library, g: GateId) {
        self.heap.push(std::cmp::Reverse(g));
        self.queued[g.index()] = true;
        while let Some(std::cmp::Reverse(g)) = self.heap.pop() {
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
                    self.heap.push(std::cmp::Reverse(c));
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
        let mut nets = vec![x];
        for _ in 0..10 {
            w = n.gate(CellKind::Nand2, &[w, a[0]]);
            nets.push(w);
        }
        let side = n.gate(CellKind::Inv, &[x]);
        n.output("o", vec![w, side]);
        // Size a few gates up and down; the tracker must stay bit-identical
        // to a fresh full pass after every move.
        let size_and_compare = |n: &mut Netlist, nets: &[NetId]| {
            let mut sta = IncrementalSta::new(n, &lib);
            assert_eq!(sta.delay_ns(n).to_bits(), n.longest_path(&lib).delay_ns.to_bits());
            for (i, &net) in nets.iter().enumerate() {
                let g = n.driver_gate(net).unwrap();
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
        size_and_compare(&mut n, &nets);
        // Buffer `x` the way the optimizer does: the buffer takes the id
        // after `x`'s driver and feeds the chain head and the side load, so
        // every later gate id moves up by one.
        let readers = [n.driver_gate(nets[1]).unwrap(), n.driver_gate(side).unwrap()];
        let buf = n.insert_buffer(x, &readers.map(|g| (g, 0)));
        assert_eq!(n.driver_gate(buf).unwrap().index(), n.driver_gate(x).unwrap().index() + 1);
        nets.push(buf);
        nets.reverse();
        size_and_compare(&mut n, &nets);
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
