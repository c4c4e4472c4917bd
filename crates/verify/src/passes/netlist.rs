//! `N0xx`: gate-level netlist checks.
//!
//! - **N001** (error): an undriven net ([`Netlist::check`]).
//! - **N003** (error): the netlist's port interface (bus names, widths,
//!   order) disagrees with the DFG it claims to implement.
//! - **N004** (warning): a gate whose output drives nothing — dead logic
//!   the synthesizer should have swept.
//! - **N005** (error): a cached fanout count disagrees with a recount
//!   from the gate pins and output buses; downstream timing and drive
//!   sizing read those counts.
//!
//! [`Netlist::check`]: dp_netlist::Netlist::check

use dp_netlist::{NetId, NetlistError};

use crate::{Code, Context, Diagnostic, Location};

/// Netlist checker (see the module docs for the code list).
pub(crate) fn check(cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let Some(nl) = cx.netlist else { return };

    if let Err(NetlistError::Undriven { net }) = nl.check() {
        out.push(Diagnostic::new(Code::N001, Location::Net(net), "net has no driver"));
    }

    // N003: the netlist must present the same interface as the graph.
    let g = cx.graph;
    let graph_buses = |nodes: &[dp_dfg::NodeId]| -> Vec<(String, usize)> {
        nodes
            .iter()
            .map(|&n| {
                let node = g.node(n);
                (node.name().unwrap_or("?").to_string(), node.width())
            })
            .collect()
    };
    let netlist_buses = |buses: &[(String, Vec<NetId>)]| -> Vec<(String, usize)> {
        buses.iter().map(|(name, bits)| (name.clone(), bits.len())).collect()
    };
    for (side, want, got) in [
        ("input", graph_buses(g.inputs()), netlist_buses(nl.inputs())),
        ("output", graph_buses(g.outputs()), netlist_buses(nl.outputs())),
    ] {
        if want != got {
            out.push(Diagnostic::new(
                Code::N003,
                Location::Global,
                format!(
                    "{side} interface mismatch: graph declares {want:?}, \
                     netlist implements {got:?}"
                ),
            ));
        }
    }

    // N004/N005: recount fanout from first principles. A net's fanout
    // is the number of gate pins plus output-bus bits that read it.
    // Net ids are dense, so the tallies live in arrays indexed by net —
    // the recount streams through the pin arena without hashing.
    let mut recount = vec![0usize; nl.num_nets()];
    let mut known = vec![false; nl.num_nets()];
    for gid in nl.gate_ids() {
        for &net in nl.gate_inputs(gid) {
            recount[net.index()] += 1;
            known[net.index()] = true;
        }
        known[nl.gate_output(gid).index()] = true;
    }
    for (_, bits) in nl.inputs() {
        for &net in bits {
            known[net.index()] = true;
        }
    }
    for (_, bits) in nl.outputs() {
        for &net in bits {
            recount[net.index()] += 1;
            known[net.index()] = true;
        }
    }
    for (i, &is_known) in known.iter().enumerate() {
        if !is_known {
            continue;
        }
        let net = NetId::from_index(i);
        let (expected, cached) = (recount[i], nl.fanout_of(net));
        if cached != expected {
            out.push(Diagnostic::new(
                Code::N005,
                Location::Net(net),
                format!("cached fanout {cached} but {expected} sink(s) actually read the net"),
            ));
        }
    }
    for gid in nl.gate_ids() {
        if recount[nl.gate_output(gid).index()] == 0 {
            out.push(Diagnostic::new(
                Code::N004,
                Location::Gate(gid),
                "gate output drives no gate pin or output bit",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bitvec::Signedness::Unsigned;
    use dp_dfg::{Dfg, OpKind};
    use dp_netlist::{CellKind, Netlist};

    fn tiny_design() -> Dfg {
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let b = g.input("b", 4);
        let s = g.op(OpKind::Add, 5, &[(a, Unsigned), (b, Unsigned)]);
        g.output("o", 5, s, Unsigned);
        g
    }

    fn synthesized() -> (Dfg, Netlist) {
        let g = tiny_design();
        let clustering = dp_merge::cluster_none(&g);
        let nl = dp_synth::synthesize(&g, &clustering, &dp_synth::SynthConfig::default())
            .expect("synth");
        (g, nl)
    }

    #[test]
    fn synthesized_netlist_is_clean() {
        let (g, nl) = synthesized();
        let report = crate::verify(&Context::new(&g).netlist(&nl));
        assert!(!report.has_errors(), "{}", report.render(&g));
    }

    #[test]
    fn undriven_net_raises_n001() {
        let g = tiny_design();
        let mut nl = Netlist::new();
        let a = nl.input("a", 1);
        let w = nl.fresh_net(); // never driven
        let x = nl.gate(CellKind::And2, &[a[0], w]);
        nl.output("o", vec![x]);
        let report = crate::verify(&Context::new(&g).netlist(&nl));
        assert!(report.has_code(Code::N001), "{}", report.render(&g));
    }

    #[test]
    fn interface_mismatch_raises_n003() {
        let (g, _) = synthesized();
        let mut nl = Netlist::new();
        let a = nl.input("a", 4);
        // Missing bus "b", wrong output width.
        let x = nl.gate(CellKind::Inv, &[a[0]]);
        nl.output("o", vec![x]);
        let report = crate::verify(&Context::new(&g).netlist(&nl));
        assert!(report.has_code(Code::N003), "{}", report.render(&g));
    }

    #[test]
    fn dangling_gate_raises_n004_not_an_error() {
        let g = tiny_design();
        let mut nl = Netlist::new();
        let a = nl.input("a", 1);
        let kept = nl.gate(CellKind::Inv, &[a[0]]);
        let _dangling = nl.gate(CellKind::Inv, &[a[0]]);
        nl.output("o", vec![kept]);
        let report = crate::verify(&Context::new(&g).netlist(&nl));
        assert!(report.has_code(Code::N004), "{}", report.render(&g));
        // N003 fires (interface mismatch with tiny_design) but N004 itself
        // is only a warning.
        let mut n004 = report.diagnostics().iter().filter(|d| d.code == Code::N004);
        assert!(n004.all(|d| d.severity() == crate::Severity::Warn));
    }
}
