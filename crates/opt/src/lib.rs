//! Timing-driven gate-level optimization, and the post-flow stage every
//! reporting surface shares.
//!
//! The paper's Table 2 measures the **runtime of timing-driven logic
//! optimization** needed to bring each synthesized netlist to a target
//! delay — the better the synthesis (merging) result, the less work is
//! left. This crate provides the stages after synthesis:
//!
//! * [`finish`] — the one post-flow stage: **constant folding** (gates
//!   with constant inputs are replaced by constants or wires under the
//!   per-gate rule [`Netlist::folded`]; synthesis already emits its
//!   carry-save trees and final adders folded, while partial products,
//!   negations and adder sum outputs still leave constant bits behind),
//!   then the **dead-gate sweep** (logic unreachable from any output is
//!   removed), then static timing and area. Every QoR figure is measured
//!   on the netlist it returns;
//! * [`optimize`] on a finished netlist — **critical-path gate sizing**
//!   (gates on (near-)critical paths are upsized X1 → X2 → X4 where that
//!   improves the worst path) and **fanout buffering** (heavily loaded
//!   nets on the critical path get their non-critical consumers moved
//!   behind a buffer).
//!
//! The optimizer iterates sizing/buffering until the target delay is met,
//! no move helps, or the iteration cap is reached. Its wall-clock runtime
//! scales with netlist size and the magnitude of the timing violation,
//! which is exactly the proxy the paper's Table 2 reports.
//!
//! # Example
//!
//! ```
//! use dp_metrics::{Recorder, Watchdog};
//! use dp_netlist::{CellKind, Library, Netlist};
//! use dp_opt::{finish, optimize, OptConfig};
//!
//! let mut n = Netlist::new();
//! let a = n.input("a", 1)[0];
//! let one = n.const1();
//! let mut w = n.gate(CellKind::And2, &[a, one]); // folds to `a`
//! for _ in 0..16 {
//!     w = n.gate(CellKind::Xor2, &[w, a]);
//! }
//! n.output("o", vec![w]);
//!
//! let lib = Library::synthetic_025um();
//! let done = finish(n, &lib, &mut Recorder::disabled(), &Watchdog::disabled()).unwrap();
//! assert_eq!(done.netlist.num_gates(), 16, "the folded And2 was swept");
//! let target = OptConfig { target_delay_ns: done.delay_ns * 0.9, ..OptConfig::default() };
//! let mut n = done.netlist;
//! let report = optimize(&mut n, &lib, &target);
//! assert!(report.end_delay_ns <= done.delay_ns);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::time::{Duration, Instant};

use dp_metrics::{FlowMetrics, Recorder, Watchdog, WatchdogTrip};
use dp_netlist::{GateId, IncrementalSta, Library, NetId, Netlist};

/// Configuration for [`optimize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptConfig {
    /// The delay the optimizer tries to reach (ns).
    pub target_delay_ns: f64,
    /// Hard cap on sizing/buffering iterations.
    pub max_iterations: usize,
    /// Slack window (ns) within which a gate counts as near-critical.
    pub critical_window_ns: f64,
    /// Fanout above which a critical net is considered for buffering.
    pub buffer_fanout_threshold: usize,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            target_delay_ns: 0.0,
            max_iterations: 2000,
            critical_window_ns: 0.02,
            buffer_fanout_threshold: 6,
        }
    }
}

/// What [`optimize`] did.
#[derive(Debug, Clone)]
pub struct OptReport {
    /// Wall-clock optimization time (the paper's Table 2 "Opt time").
    pub runtime: Duration,
    /// Sizing/buffering iterations executed.
    pub iterations: usize,
    /// Longest path before optimization (ns).
    pub start_delay_ns: f64,
    /// Longest path after optimization (ns).
    pub end_delay_ns: f64,
    /// Area before optimization.
    pub start_area: f64,
    /// Area after optimization.
    pub end_area: f64,
    /// Whether the target delay was met.
    pub met: bool,
    /// Gates upsized.
    pub gates_sized: usize,
    /// Buffers inserted.
    pub buffers_inserted: usize,
}

/// A flow's final netlist — constants folded, dead gates swept — with its
/// longest-path delay and area under the measuring library.
#[derive(Debug, Clone)]
pub struct Finished {
    /// The final netlist.
    pub netlist: Netlist,
    /// Longest-path delay (ns).
    pub delay_ns: f64,
    /// Area (library units).
    pub area: f64,
}

impl Finished {
    /// Times a netlist that is already final (a stored one, say) under
    /// the `sta` span, without folding or sweeping it again.
    pub fn measure(netlist: Netlist, lib: &Library, rec: &mut Recorder) -> Finished {
        let sta = rec.span("sta");
        let delay_ns = netlist.longest_path(lib).delay_ns;
        let area = netlist.area(lib);
        rec.finish(sta);
        Finished { netlist, delay_ns, area }
    }

    /// Writes the final netlist's gate count, delay and area into a flow's
    /// QoR counters.
    pub fn fill(&self, metrics: &mut FlowMetrics) {
        metrics.gates = self.netlist.num_gates();
        metrics.delay_ns = self.delay_ns;
        metrics.area = self.area;
    }
}

/// The one post-flow stage: folds constants ([`fold_constants_watched`],
/// polling `wd`), sweeps dead gates and times the result. Records the
/// spans `fold_sweep` { `fold_constants`, `sweep` } and `sta`.
///
/// # Errors
///
/// Returns the limit `wd` hit when it trips during the fold.
pub fn finish(
    mut netlist: Netlist,
    lib: &Library,
    rec: &mut Recorder,
    wd: &Watchdog,
) -> Result<Finished, WatchdogTrip> {
    let outer = rec.span("fold_sweep");
    if !rec.scope("fold_constants", |_| fold_constants_watched(&mut netlist, wd)) {
        rec.finish(outer);
        // The fold only aborts on a trip, so `trip()` is set.
        return Err(wd.trip().unwrap_or(WatchdogTrip::Deadline));
    }
    let netlist = rec.scope("sweep", |_| netlist.sweep());
    rec.finish(outer);
    Ok(Finished::measure(netlist, lib, rec))
}

/// Iterative critical-path sizing and buffering in place, until the
/// target delay is met or no move improves the worst path.
///
/// `nl` must be a finished netlist ([`finish`]): the optimizer neither
/// folds constants nor sweeps dead gates, so a netlist that already meets
/// its target comes back unchanged.
pub fn optimize(nl: &mut Netlist, lib: &Library, config: &OptConfig) -> OptReport {
    let start = Instant::now();
    let start_delay_ns = nl.longest_path(lib).delay_ns;
    let start_area = nl.area(lib);

    let mut iterations = 0;
    let mut gates_sized = 0;
    let mut buffers_inserted = 0;
    // Incremental arrival tracker: a sizing candidate is scored by
    // re-propagating only the changed gate's fanout cone instead of a full
    // timing pass per candidate.
    let mut sta = IncrementalSta::new(nl, lib);
    let mut best = sta.delay_ns(nl);
    // Effort escalation: when no move helps inside the tight critical
    // window, progressively widen the window (scanning ever more of the
    // netlist) before giving up — the farther a netlist is from its
    // target, the more work the optimizer burns, as in production tools.
    let windows = [
        config.critical_window_ns,
        config.critical_window_ns * 4.0,
        config.critical_window_ns * 10.0,
        config.critical_window_ns * 25.0,
    ];
    let mut level = 0;
    while best > config.target_delay_ns && iterations < config.max_iterations {
        iterations += 1;
        let mut improved = false;
        let window = windows[level];

        // Move 1: upsize the most loaded near-critical gates.
        let critical = nl.critical_gates(lib, window);
        let mut candidates: Vec<GateId> =
            critical.iter().copied().filter(|&g| nl.gate_info(g).1.upsize().is_some()).collect();
        // Most-loaded first: the load term is what sizing shrinks.
        candidates.sort_by_key(|&g| std::cmp::Reverse(nl.fanout_of(nl.gate_output(g))));
        for g in candidates.into_iter().take(8) {
            let (_, drive) = nl.gate_info(g);
            let up = drive.upsize().expect("filtered");
            nl.set_drive(g, up);
            // Sizing changes only this gate's own delay (the load model
            // keys on the *output* fanout, which sizing leaves alone), so
            // one cone update re-establishes exact arrivals.
            sta.update_gate(nl, lib, g);
            let now = sta.delay_ns(nl);
            if now < best - 1e-12 {
                best = now;
                gates_sized += 1;
                improved = true;
            } else {
                nl.set_drive(g, drive); // revert a useless upsize
                sta.update_gate(nl, lib, g);
            }
        }

        // Move 2: buffer one heavily loaded critical net.
        if !improved {
            if let Some((g, critical)) = pick_buffer_candidate(nl, lib, window, config) {
                let before = sta.delay_ns(nl);
                buffer_noncritical_fanout(nl, g, &critical);
                // Buffer insertion is structural (new gate, rewired pins);
                // rebuild the tracker. At most one rebuild per iteration.
                sta = IncrementalSta::new(nl, lib);
                let now = sta.delay_ns(nl);
                if now < before - 1e-12 {
                    best = now;
                    buffers_inserted += 1;
                    improved = true;
                } else {
                    // Leave the buffer in (harmless) but record no gain.
                    best = now.min(before);
                }
            }
        }

        if improved {
            level = 0;
        } else {
            level += 1;
            if level >= windows.len() {
                break;
            }
        }
    }

    let end_delay_ns = nl.longest_path(lib).delay_ns;
    OptReport {
        runtime: start.elapsed(),
        iterations,
        start_delay_ns,
        end_delay_ns,
        start_area,
        end_area: nl.area(lib),
        met: end_delay_ns <= config.target_delay_ns,
        gates_sized,
        buffers_inserted,
    }
}

/// Replaces gates whose output is a constant (or a wire) by rewiring their
/// consumers. The gates themselves become dead and are removed by the
/// following sweep.
///
/// One pass in gate-id order, which is topological, reaches the fixpoint:
/// folding is a forward dataflow problem, so by the time a gate is visited
/// every replacement affecting its inputs is already recorded.
/// Replacements live in a dense union-find table (`repl[n]` = what to read
/// instead of `n`, with path compression), and consumers are rewired once
/// at the end — no per-candidate netlist scans, no fixpoint iteration.
/// A consumer is only ever rewired to an upstream root, so gates keep
/// reading earlier nets.
pub fn fold_constants(nl: &mut Netlist) {
    let _ = fold_constants_watched(nl, &Watchdog::disabled());
}

/// Cooperative variant of [`fold_constants`]: polls the watchdog once per
/// gate and aborts when it trips, returning `false`.
///
/// An aborted call never rewires a consumer — the replacement table is
/// discarded before the apply phase — so the netlist stays functionally
/// identical to its input. At most some fanout-free constant nets created
/// during the scan are left behind, and [`Netlist::sweep`] drops them.
pub fn fold_constants_watched(nl: &mut Netlist, wd: &Watchdog) -> bool {
    let mut repl: Vec<NetId> = (0..nl.num_nets()).map(NetId::from_index).collect();
    for g in (0..nl.num_gates()).map(GateId::from_index) {
        if wd.check() {
            return false;
        }
        let (kind, _) = nl.gate_info(g);
        let pins = nl.gate_inputs(g);
        let pin0 = pins[0];
        let pin1 = pins[pins.len() - 1];
        let a = resolve(&mut repl, pin0);
        let b = resolve(&mut repl, pin1);
        if let Some(n) = nl.folded(kind, a, b) {
            // Resolving here also extends the table with an identity entry
            // when `n` is a constant net created moments ago.
            let n = resolve(&mut repl, n);
            let out = nl.gate_output(g);
            if n != out {
                // `n` is a root and the producers of everything resolvable
                // were visited earlier in gate-id order, so this is final.
                repl[out.index()] = n;
            }
        }
    }
    // Apply: point every consumer pin and output bit at its root. The
    // folded producers go dead and the sweep drops them.
    for i in 0..nl.num_gates() {
        let g = GateId::from_index(i);
        for pin in 0..nl.gate_inputs(g).len() {
            let old = nl.gate_inputs(g)[pin];
            let root = resolve(&mut repl, old);
            if root != old {
                nl.rewire_gate_input(g, pin, root);
            }
        }
    }
    for bus in 0..nl.outputs().len() {
        for bit in 0..nl.outputs()[bus].1.len() {
            let old = nl.outputs()[bus].1[bit];
            let root = resolve(&mut repl, old);
            if root != old {
                nl.rewire_output_bit(bus, bit, root);
            }
        }
    }
    true
}

/// Follows `repl` chains to the final replacement of `n`, compressing the
/// path. The table is extended with identity entries on demand so nets
/// created mid-pass (fresh constants) resolve to themselves.
fn resolve(repl: &mut Vec<NetId>, n: NetId) -> NetId {
    if n.index() >= repl.len() {
        let len = repl.len();
        repl.extend((len..=n.index()).map(NetId::from_index));
    }
    let mut root = repl[n.index()];
    while repl[root.index()] != root {
        root = repl[root.index()];
    }
    let mut cur = n;
    while repl[cur.index()] != root {
        let next = repl[cur.index()];
        repl[cur.index()] = root;
        cur = next;
    }
    root
}

/// Finds a critical gate whose output fanout exceeds the buffering
/// threshold, returned with the critical set it was picked from.
fn pick_buffer_candidate(
    nl: &Netlist,
    lib: &Library,
    window_ns: f64,
    config: &OptConfig,
) -> Option<(GateId, Vec<GateId>)> {
    let critical = nl.critical_gates(lib, window_ns);
    let g = critical
        .iter()
        .copied()
        .filter(|&g| nl.fanout_of(nl.gate_output(g)) > config.buffer_fanout_threshold)
        .max_by_key(|&g| nl.fanout_of(nl.gate_output(g)))?;
    Some((g, critical))
}

/// Moves the consumers of `g`'s output that are not in `critical` (the
/// netlist's current critical set) behind a buffer, reducing the load the
/// critical path sees. The buffer takes the gate id after `g`
/// ([`Netlist::insert_buffer`]), so gate-id order stays topological.
fn buffer_noncritical_fanout(nl: &mut Netlist, g: GateId, critical: &[GateId]) {
    let net = nl.gate_output(g);
    let mut is_critical = vec![false; nl.num_gates()];
    for &c in critical {
        is_critical[c.index()] = true;
    }
    // Collect non-critical consumer pins of `net`.
    let mut movable: Vec<(GateId, usize)> = Vec::new();
    for c in nl.gate_ids() {
        if is_critical[c.index()] {
            continue;
        }
        for pin in 0..nl.gate_inputs(c).len() {
            if nl.gate_inputs(c)[pin] == net {
                movable.push((c, pin));
            }
        }
    }
    if movable.len() < 2 {
        return; // nothing worth a buffer
    }
    nl.insert_buffer(net, &movable);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bitvec::BitVec;
    use dp_netlist::CellKind;

    fn lib() -> Library {
        Library::synthetic_025um()
    }

    #[test]
    fn constant_folding_removes_dead_logic() {
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let zero = n.const0();
        let one = n.const1();
        let x = n.gate(CellKind::And2, &[a, zero]); // = 0
        let y = n.gate(CellKind::Or2, &[x, one]); // = 1
        let z = n.gate(CellKind::Xor2, &[y, a]); // = !a? (1 ^ a) not foldable by rule
        let w = n.gate(CellKind::And2, &[z, one]); // = z
        n.output("o", vec![w]);
        let before = n.num_gates();
        fold_constants(&mut n);
        let swept = n.sweep();
        assert!(swept.num_gates() < before, "{} -> {}", before, swept.num_gates());
        // Functionality is preserved: o = 1 ^ a = !a.
        for v in [0u64, 1] {
            let out = swept.simulate(&[BitVec::from_u64(1, v)]).unwrap();
            assert_eq!(out[0].to_u64(), Some(1 - v));
        }
    }

    #[test]
    fn fold_handles_every_cell_kind() {
        // Exhaustive: each kind with each constant pattern must stay
        // functionally equivalent after folding + sweep.
        for kind in CellKind::ALL {
            for pattern in 0..3u8 {
                let mut n = Netlist::new();
                let a = n.input("a", 1)[0];
                let c0 = n.const0();
                let c1 = n.const1();
                let (x, y) = match pattern {
                    0 => (a, c0),
                    1 => (a, c1),
                    _ => (c1, c0),
                };
                let out =
                    if kind.arity() == 1 { n.gate(kind, &[y]) } else { n.gate(kind, &[x, y]) };
                n.output("o", vec![out]);
                let reference = n.clone();
                fold_constants(&mut n);
                let swept = n.sweep();
                for v in [0u64, 1] {
                    let i = [BitVec::from_u64(1, v)];
                    assert_eq!(
                        swept.simulate(&i).unwrap(),
                        reference.simulate(&i).unwrap(),
                        "{kind} pattern {pattern} v {v}"
                    );
                }
            }
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// A random acyclic netlist over 4 input bits with constants sprinkled
    /// in so folding has real work to do.
    fn random_netlist(seed: u64, num_gates: usize) -> Netlist {
        let mut s = seed | 1;
        let mut n = Netlist::new();
        let mut nets = n.input("a", 4);
        nets.push(n.const0());
        nets.push(n.const1());
        for _ in 0..num_gates {
            let kind = CellKind::ALL[(xorshift(&mut s) as usize) % CellKind::ALL.len()];
            let a = nets[(xorshift(&mut s) as usize) % nets.len()];
            let out = if kind.arity() == 1 {
                n.gate(kind, &[a])
            } else {
                let b = nets[(xorshift(&mut s) as usize) % nets.len()];
                n.gate(kind, &[a, b])
            };
            nets.push(out);
        }
        let bits: Vec<NetId> = nets.iter().rev().take(6).copied().collect();
        n.output("o", bits);
        n
    }

    /// The original fixpoint formulation of [`fold_constants`]: repeated
    /// full scans, rewiring after each round until no gate folds.
    /// Quadratic in the worst case, but it needs no order: the
    /// differential oracle for the one-pass fold.
    fn fold_constants_sweeping(nl: &mut Netlist) {
        loop {
            let mut replace: Vec<(NetId, NetId)> = Vec::new();
            for g in nl.gate_ids().collect::<Vec<_>>() {
                let out = nl.gate_output(g);
                if nl.fanout_of(out) == 0 {
                    continue; // already folded away; the sweep will drop it
                }
                let (kind, _) = nl.gate_info(g);
                let pins = nl.gate_inputs(g);
                let (a, b) = (pins[0], pins[pins.len() - 1]);
                if let Some(n) = nl.folded(kind, a, b) {
                    if n != out {
                        replace.push((out, n));
                    }
                }
            }
            if replace.is_empty() {
                return;
            }
            for (old, new) in replace {
                rewire_all(nl, old, new);
            }
        }
    }

    /// Rewires every consumer (gate pins and output bits) of `old` to `new`.
    fn rewire_all(nl: &mut Netlist, old: NetId, new: NetId) {
        for g in nl.gate_ids().collect::<Vec<_>>() {
            for pin in 0..nl.gate_inputs(g).len() {
                if nl.gate_inputs(g)[pin] == old {
                    nl.rewire_gate_input(g, pin, new);
                }
            }
        }
        let buses: Vec<(usize, usize)> = nl
            .outputs()
            .iter()
            .enumerate()
            .flat_map(|(i, (_, bits))| {
                bits.iter()
                    .enumerate()
                    .filter(|(_, &b)| b == old)
                    .map(|(k, _)| (i, k))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (bus, bit) in buses {
            nl.rewire_output_bit(bus, bit, new);
        }
    }

    #[test]
    fn topological_fold_matches_sweeping_oracle() {
        // The single topological pass must land on the exact same swept
        // netlist as the original fixpoint scanner — same gates, same ids,
        // same wiring — across a spread of random designs.
        for seed in 1..=20u64 {
            let base = random_netlist(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), 40);
            let mut fast = base.clone();
            let mut slow = base.clone();
            fold_constants(&mut fast);
            fold_constants_sweeping(&mut slow);
            let fast = fast.sweep();
            let slow = slow.sweep();
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "seed {seed}");
            for v in 0..16u64 {
                let i = [BitVec::from_u64(4, v)];
                assert_eq!(
                    fast.simulate(&i).unwrap(),
                    base.simulate(&i).unwrap(),
                    "seed {seed} v {v}"
                );
            }
        }
    }

    #[test]
    fn watched_fold_aborts_without_touching_the_netlist() {
        let base = random_netlist(0xABCD, 60);
        let mut n = base.clone();
        let wd = Watchdog::new(Some(Instant::now()), None);
        assert!(!fold_constants_watched(&mut n, &wd), "expired deadline must abort the fold");
        // The replacement table is discarded before the apply phase, so the
        // aborted netlist is bit-for-bit the input.
        assert_eq!(format!("{n:?}"), format!("{base:?}"), "abort must not rewire anything");
        for v in 0..16u64 {
            let i = [BitVec::from_u64(4, v)];
            assert_eq!(n.simulate(&i).unwrap(), base.simulate(&i).unwrap());
        }
    }

    #[test]
    fn watched_fold_with_disabled_watchdog_matches_plain_fold() {
        for seed in 1..=8u64 {
            let base = random_netlist(seed.wrapping_mul(0x517C_C1B7_2722_0A95), 40);
            let mut watched = base.clone();
            let mut plain = base.clone();
            assert!(fold_constants_watched(&mut watched, &Watchdog::disabled()), "seed {seed}");
            fold_constants(&mut plain);
            assert_eq!(format!("{watched:?}"), format!("{plain:?}"), "seed {seed}");
        }
    }

    #[test]
    fn fold_wires_through_replacement_chains() {
        // Buf -> Buf -> Buf chains must resolve to the original net in one
        // pass, exercising the union-find path compression.
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let b1 = n.gate(CellKind::Buf, &[a]);
        let b2 = n.gate(CellKind::Buf, &[b1]);
        let b3 = n.gate(CellKind::Buf, &[b2]);
        let x = n.gate(CellKind::Xor2, &[b3, a]); // = 0, but not by rule
        n.output("o", vec![x, b3]);
        fold_constants(&mut n);
        // Both the gate pin and the output bit must point straight at `a`.
        let g = n.driver_gate(x).expect("xor survives");
        assert_eq!(n.gate_inputs(g), &[a, a]);
        assert_eq!(n.outputs()[0].1[1], a);
        let swept = n.sweep();
        assert_eq!(swept.num_gates(), 1, "only the xor remains");
    }

    #[test]
    fn optimizer_meets_reachable_target() {
        let lib = lib();
        let mut n = Netlist::new();
        let a = n.input("a", 4);
        let b = n.input("b", 4);
        // A 4-bit ripple adder (real carry-in so folding cannot shortcut).
        let mut carry = n.input("cin", 1)[0];
        let mut sum = Vec::new();
        for k in 0..4 {
            let t = n.gate(CellKind::Xor2, &[a[k], b[k]]);
            let s = n.gate(CellKind::Xor2, &[t, carry]);
            let u = n.gate(CellKind::And2, &[a[k], b[k]]);
            let v = n.gate(CellKind::And2, &[t, carry]);
            carry = n.gate(CellKind::Or2, &[u, v]);
            sum.push(s);
        }
        sum.push(carry);
        n.output("s", sum);
        let before = n.longest_path(&lib).delay_ns;
        let reference = n.clone();
        let report = optimize(
            &mut n,
            &lib,
            &OptConfig { target_delay_ns: before * 0.85, ..OptConfig::default() },
        );
        assert!(report.end_delay_ns < before, "sizing should help a ripple chain");
        assert!(report.gates_sized > 0);
        // Still a correct adder.
        for x in 0..16u64 {
            for y in 0..16u64 {
                for cin in 0..2u64 {
                    let i =
                        [BitVec::from_u64(4, x), BitVec::from_u64(4, y), BitVec::from_u64(1, cin)];
                    assert_eq!(n.simulate(&i).unwrap(), reference.simulate(&i).unwrap());
                }
            }
        }
    }

    #[test]
    fn optimizer_runtime_scales_with_work() {
        // A netlist already at target finishes immediately.
        let lib = lib();
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let x = n.gate(CellKind::Inv, &[a]);
        n.output("o", vec![x]);
        let report =
            optimize(&mut n, &lib, &OptConfig { target_delay_ns: 10.0, ..OptConfig::default() });
        assert!(report.met);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn buffering_splits_heavy_fanout() {
        let lib = lib();
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let b = n.input("b", 1)[0];
        // One driver, one critical consumer chain, many passive loads.
        let hot = n.gate(CellKind::Xor2, &[a, b]);
        let mut w = hot;
        for _ in 0..6 {
            w = n.gate(CellKind::Xor2, &[w, a]);
        }
        let mut loads = vec![w];
        for _ in 0..20 {
            loads.push(n.gate(CellKind::Inv, &[hot]));
        }
        n.output("o", loads);
        let before = n.longest_path(&lib).delay_ns;
        let reference = n.clone();
        let report = optimize(
            &mut n,
            &lib,
            &OptConfig { target_delay_ns: 0.0, max_iterations: 50, ..OptConfig::default() },
        );
        assert!(report.end_delay_ns < before);
        for x in 0..2u64 {
            for y in 0..2u64 {
                let i = [BitVec::from_u64(1, x), BitVec::from_u64(1, y)];
                assert_eq!(n.simulate(&i).unwrap(), reference.simulate(&i).unwrap());
            }
        }
    }

    /// A finished netlist that already meets its target comes out of
    /// `optimize` byte for byte as it went in: nothing is folded or swept
    /// a second time.
    #[test]
    fn optimize_leaves_a_finished_netlist_at_target_unchanged() {
        use dp_dfg::gen::{random_dfg, GenConfig};
        use dp_synth::{run_flow_guarded, FlowBudget, MergeStrategy, SynthConfig};
        use rand::{rngs::StdRng, SeedableRng};
        let lib = lib();
        let mut rng = StdRng::seed_from_u64(0x0F1E);
        for case in 0..4 {
            let g = random_dfg(&mut rng, &GenConfig { num_ops: 12, ..GenConfig::default() });
            let budget = FlowBudget::default();
            let flow = run_flow_guarded(&g, MergeStrategy::New, &SynthConfig::default(), &budget)
                .expect("synthesizes")
                .flow;
            let done = finish(flow.netlist, &lib, &mut Recorder::disabled(), &Watchdog::disabled())
                .expect("an unarmed watchdog never trips");
            let mut nl = done.netlist.clone();
            let met = OptConfig { target_delay_ns: done.delay_ns, ..OptConfig::default() };
            let report = optimize(&mut nl, &lib, &met);
            assert!(report.met && report.iterations == 0, "case {case}: {report:?}");
            assert!(nl.to_bytes() == done.netlist.to_bytes(), "case {case}: optimize changed it");
        }
    }

    #[test]
    fn finish_records_the_post_flow_spans_and_stops_on_a_trip() {
        let base = random_netlist(0x5EED, 60);
        let mut rec = Recorder::new();
        let done = finish(base.clone(), &lib(), &mut rec, &Watchdog::disabled()).expect("unarmed");
        let names: Vec<(&str, usize)> =
            rec.records().iter().map(|r| (r.name(), r.depth())).collect();
        assert_eq!(
            names,
            [("fold_sweep", 0), ("fold_constants", 1), ("sweep", 1), ("sta", 0)],
            "the span names `dpmc bench` and `dpmc profile` report"
        );
        let mut m = FlowMetrics::default();
        done.fill(&mut m);
        assert_eq!(m.gates, done.netlist.num_gates());
        assert_eq!((m.delay_ns, m.area), (done.delay_ns, done.area));
        assert_eq!(done.delay_ns, done.netlist.longest_path(&lib()).delay_ns);

        let wd = Watchdog::new(Some(Instant::now()), None);
        let trip = finish(base, &lib(), &mut Recorder::new(), &wd).expect_err("expired deadline");
        assert_eq!(trip, WatchdogTrip::Deadline);
    }

    #[test]
    fn report_fields_are_consistent() {
        let lib = lib();
        let mut n = Netlist::new();
        let a = n.input("a", 2);
        let x = n.gate(CellKind::And2, &[a[0], a[1]]);
        n.output("o", vec![x]);
        let report =
            optimize(&mut n, &lib, &OptConfig { target_delay_ns: 0.0, ..OptConfig::default() });
        assert!(!report.met); // can't reach zero delay
        assert!(report.end_delay_ns <= report.start_delay_ns + 1e-12);
        assert!(report.runtime.as_nanos() > 0);
    }
}
