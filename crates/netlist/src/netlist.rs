//! The flat gate-level netlist container.

use std::error::Error;
use std::fmt;

use crate::{CellKind, Drive, Library};

/// Identifier of a net (a single-bit wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

/// Identifier of a gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl NetId {
    /// Dense index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a [`NetId`] from a dense index previously obtained
    /// via [`NetId::index`]. Passes (like constant folding) use this to
    /// key per-net side tables by plain `Vec` instead of hash maps.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn from_index(index: usize) -> Self {
        NetId(u32::try_from(index).expect("net index fits u32"))
    }
}

impl GateId {
    /// Dense index of this gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a [`GateId`] from a dense index previously obtained
    /// via [`GateId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn from_index(index: usize) -> Self {
        GateId(u32::try_from(index).expect("gate index fits u32"))
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NetDriver {
    /// Driven by a gate output.
    Gate(GateId),
    /// A primary input bit.
    Input,
    /// Constant zero or one.
    Const(bool),
    /// Not driven (an error caught by [`Netlist::check`]).
    Undriven,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Gate {
    pub kind: CellKind,
    pub drive: Drive,
    /// Input nets, inline (no cell takes more than 2 pins). For arity-1
    /// cells the second slot duplicates the first; use [`Gate::inputs`]
    /// for the arity-bounded view.
    pub ins: [NetId; 2],
    pub output: NetId,
}

impl Gate {
    /// The input nets in pin order, bounded by the cell's arity.
    pub fn inputs(&self) -> &[NetId] {
        &self.ins[..self.kind.arity()]
    }
}

/// A flat combinational gate-level netlist with named multi-bit ports.
///
/// Every gate reads only nets that exist before it: primary inputs,
/// constants, or the outputs of gates with lower ids. Gate-id (creation)
/// order is therefore a topological order, and every pass walks it.
/// [`Netlist::gate`] keeps the invariant by construction,
/// [`Netlist::insert_buffer`] by placing the buffer before its readers,
/// [`Netlist::rewire_gate_input`] by asserting it, and the DPN1 decoder
/// by rejecting a gate that breaks it. Combinational cycles cannot be
/// represented.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    pub(crate) drivers: Vec<NetDriver>,
    pub(crate) fanout: Vec<u32>,
    pub(crate) gates: Vec<Gate>,
    pub(crate) inputs: Vec<(String, Vec<NetId>)>,
    pub(crate) outputs: Vec<(String, Vec<NetId>)>,
    /// Cached [const0, const1] net ids so constant lookups are O(1)
    /// instead of a scan over every driver.
    pub(crate) const_nets: [Option<NetId>; 2],
}

/// Structural defects reported by [`Netlist::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net has no driver.
    Undriven {
        /// The floating net.
        net: NetId,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Undriven { net } => write!(f, "net {net} has no driver"),
        }
    }
}

impl Error for NetlistError {}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// An empty netlist with arenas pre-sized for `nets` nets and `gates`
    /// gates, so bulk construction (synthesis, [`Netlist::sweep`]) grows
    /// without reallocation.
    pub fn with_capacity(nets: usize, gates: usize) -> Self {
        Netlist {
            drivers: Vec::with_capacity(nets),
            fanout: Vec::with_capacity(nets),
            gates: Vec::with_capacity(gates),
            ..Netlist::default()
        }
    }

    /// Creates a fresh, undriven net. Mostly internal; synthesis uses
    /// [`Netlist::gate`], [`Netlist::input`] and the constant nets.
    pub fn fresh_net(&mut self) -> NetId {
        let id = NetId(u32::try_from(self.drivers.len()).expect("net count fits u32"));
        self.drivers.push(NetDriver::Undriven);
        self.fanout.push(0);
        id
    }

    /// The constant-zero net (created on first use).
    pub fn const0(&mut self) -> NetId {
        self.const_net(false)
    }

    /// The constant-one net (created on first use).
    pub fn const1(&mut self) -> NetId {
        self.const_net(true)
    }

    fn const_net(&mut self, value: bool) -> NetId {
        // Reuse the existing constant net if present.
        if let Some(id) = self.const_nets[usize::from(value)] {
            return id;
        }
        let id = self.fresh_net();
        self.drivers[id.index()] = NetDriver::Const(value);
        self.const_nets[usize::from(value)] = Some(id);
        id
    }

    /// Declares a primary input bus of the given width; returns its bit
    /// nets, least significant first.
    pub fn input(&mut self, name: impl Into<String>, width: usize) -> Vec<NetId> {
        let bits: Vec<NetId> = (0..width)
            .map(|_| {
                let id = self.fresh_net();
                self.drivers[id.index()] = NetDriver::Input;
                id
            })
            .collect();
        self.inputs.push((name.into(), bits.clone()));
        bits
    }

    /// Declares a primary output bus driven by the given bit nets (least
    /// significant first). Each bit contributes one unit of load to its
    /// driver.
    pub fn output(&mut self, name: impl Into<String>, bits: Vec<NetId>) {
        for &b in &bits {
            self.fanout[b.index()] += 1;
        }
        self.outputs.push((name.into(), bits));
    }

    /// Instantiates a unit-drive gate and returns its output net.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the cell's arity.
    pub fn gate(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        self.gate_with_drive(kind, Drive::X1, inputs)
    }

    /// Instantiates a gate with an explicit drive strength.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the cell's arity.
    pub fn gate_with_drive(&mut self, kind: CellKind, drive: Drive, inputs: &[NetId]) -> NetId {
        assert_eq!(inputs.len(), kind.arity(), "{kind} takes {} input(s)", kind.arity());
        let output = self.fresh_net();
        let gid = GateId(u32::try_from(self.gates.len()).expect("gate count fits u32"));
        self.drivers[output.index()] = NetDriver::Gate(gid);
        for &i in inputs {
            self.fanout[i.index()] += 1;
        }
        let ins = [inputs[0], inputs[inputs.len() - 1]];
        self.gates.push(Gate { kind, drive, ins, output });
        output
    }

    /// The constant-folding rule for one gate: the net that a `kind` gate
    /// reading `a` and `b` can be replaced by, or `None` if the gate must
    /// stay. One-input cells read only `a` (pass it twice).
    ///
    /// A gate folds to a constant when all its inputs are constant or one
    /// input is its absorbing value (0 for AND/NAND, 1 for OR/NOR). It
    /// folds to its other input when one input is the identity of a
    /// non-inverting gate (1 for AND, 0 for OR and XOR). A buffer always
    /// folds. Nothing else folds: an inverting gate or an XOR with a
    /// constant one would need an inverter in the gate's place.
    ///
    /// `dp_opt::fold_constants` applies this rule to every gate, and
    /// [`Netlist::gate_folded`] applies it while emitting. It may create
    /// the constant net it returns.
    pub fn folded(&mut self, kind: CellKind, a: NetId, b: NetId) -> Option<NetId> {
        let (ca, cb) = (self.const_value(a), self.const_value(b));
        match kind {
            CellKind::Inv => ca.map(|v| self.const_net(!v)),
            CellKind::Buf => Some(ca.map_or(a, |v| self.const_net(v))),
            CellKind::And2 | CellKind::Nand2 | CellKind::Or2 | CellKind::Nor2 => {
                let absorb = matches!(kind, CellKind::Or2 | CellKind::Nor2);
                let inverted = matches!(kind, CellKind::Nand2 | CellKind::Nor2);
                match (ca, cb) {
                    (Some(x), Some(y)) => {
                        let v = if absorb { x || y } else { x && y };
                        Some(self.const_net(v ^ inverted))
                    }
                    (Some(v), None) | (None, Some(v)) if v == absorb => {
                        Some(self.const_net(absorb ^ inverted))
                    }
                    (Some(_), None) if !inverted => Some(b),
                    (None, Some(_)) if !inverted => Some(a),
                    _ => None,
                }
            }
            CellKind::Xor2 | CellKind::Xnor2 => {
                let inverted = kind == CellKind::Xnor2;
                match (ca, cb) {
                    (Some(x), Some(y)) => Some(self.const_net(x ^ y ^ inverted)),
                    (Some(false), None) if !inverted => Some(b),
                    (None, Some(false)) if !inverted => Some(a),
                    _ => None,
                }
            }
        }
    }

    /// Instantiates a unit-drive gate unless [`Netlist::folded`] replaces
    /// it, in which case no gate is created and the replacement net is
    /// returned. Synthesis emits with this wherever no later step tells
    /// nets apart by identity (see `DESIGN.md`, "emission contract").
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the cell's arity.
    pub fn gate_folded(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        assert_eq!(inputs.len(), kind.arity(), "{kind} takes {} input(s)", kind.arity());
        match self.folded(kind, inputs[0], inputs[inputs.len() - 1]) {
            Some(net) => net,
            None => self.gate(kind, inputs),
        }
    }

    /// Number of gate instances.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.drivers.len()
    }

    /// Primary input buses `(name, bits)` in declaration order.
    pub fn inputs(&self) -> &[(String, Vec<NetId>)] {
        &self.inputs
    }

    /// Primary output buses `(name, bits)` in declaration order.
    pub fn outputs(&self) -> &[(String, Vec<NetId>)] {
        &self.outputs
    }

    /// Fanout (consumer count) of a net.
    pub fn fanout_of(&self, net: NetId) -> usize {
        self.fanout[net.index()] as usize
    }

    /// The cell kind and drive of a gate.
    pub fn gate_info(&self, gate: GateId) -> (CellKind, Drive) {
        let g = &self.gates[gate.index()];
        (g.kind, g.drive)
    }

    /// The gate driving `net`, if any.
    pub fn driver_gate(&self, net: NetId) -> Option<GateId> {
        match self.drivers[net.index()] {
            NetDriver::Gate(g) => Some(g),
            _ => None,
        }
    }

    /// Changes a gate's drive strength (the optimizer's sizing move).
    pub fn set_drive(&mut self, gate: GateId, drive: Drive) {
        self.gates[gate.index()].drive = drive;
    }

    /// The input nets of a gate, in pin order.
    pub fn gate_inputs(&self, gate: GateId) -> &[NetId] {
        self.gates[gate.index()].inputs()
    }

    /// The output net of a gate.
    pub fn gate_output(&self, gate: GateId) -> NetId {
        self.gates[gate.index()].output
    }

    /// Rewires one input pin of a gate to a different net, keeping fanout
    /// counts consistent (the constant fold's move).
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range, or if `new_net` is driven by
    /// `gate` itself or a later gate: gates read only earlier nets.
    pub fn rewire_gate_input(&mut self, gate: GateId, pin: usize, new_net: NetId) {
        assert!(
            !matches!(self.drivers[new_net.index()], NetDriver::Gate(src) if src >= gate),
            "{gate} may read only nets that exist before it, not {new_net}"
        );
        let g = &mut self.gates[gate.index()];
        assert!(pin < g.kind.arity(), "pin out of range");
        let old = g.ins[pin];
        if old == new_net {
            return;
        }
        g.ins[pin] = new_net;
        if g.kind.arity() == 1 {
            // Keep the duplicate second slot in sync for arity-1 cells.
            g.ins[1] = new_net;
        }
        self.fanout[old.index()] -= 1;
        self.fanout[new_net.index()] += 1;
    }

    /// Puts a unit-drive buffer in front of some readers of `net` (the
    /// optimizer's buffering move) and returns the buffer's output net.
    ///
    /// The buffer takes the gate id right after `net`'s driver (id 0 for
    /// an input or constant net), every later gate's id goes up by one,
    /// and each `(gate, pin)` of `readers` is rewired to read the buffer.
    /// Reader ids are given as they were before the insertion. Gates
    /// still read only earlier nets, so creation order stays topological.
    /// O(gates).
    ///
    /// # Panics
    ///
    /// Panics if a reader pin is out of range or does not read `net`.
    pub fn insert_buffer(&mut self, net: NetId, readers: &[(GateId, usize)]) -> NetId {
        let at = match self.drivers[net.index()] {
            NetDriver::Gate(g) => g.index() + 1,
            _ => 0,
        };
        let output = self.fresh_net();
        let buf = Gate { kind: CellKind::Buf, drive: Drive::X1, ins: [net; 2], output };
        self.gates.insert(at, buf);
        for (i, g) in self.gates.iter().enumerate().skip(at) {
            self.drivers[g.output.index()] = NetDriver::Gate(GateId::from_index(i));
        }
        self.fanout[net.index()] += 1;
        for &(reader, pin) in readers {
            let shifted = if reader.index() >= at { GateId(reader.0 + 1) } else { reader };
            assert_eq!(self.gate_inputs(shifted).get(pin), Some(&net), "{reader} pin {pin}");
            self.rewire_gate_input(shifted, pin, output);
        }
        output
    }

    /// Rewires one bit of a primary output bus to a different net.
    ///
    /// # Panics
    ///
    /// Panics if the bus or bit index is out of range.
    pub fn rewire_output_bit(&mut self, bus: usize, bit: usize, new_net: NetId) {
        let old = self.outputs[bus].1[bit];
        if old == new_net {
            return;
        }
        self.fanout[old.index()] -= 1;
        self.fanout[new_net.index()] += 1;
        self.outputs[bus].1[bit] = new_net;
    }

    /// The constant value of a net, if it is a constant net.
    pub fn const_value(&self, net: NetId) -> Option<bool> {
        match self.drivers[net.index()] {
            NetDriver::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` if the net is a primary input bit.
    pub fn is_input_net(&self, net: NetId) -> bool {
        matches!(self.drivers[net.index()], NetDriver::Input)
    }

    /// All gate ids in creation order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Rebuilds the netlist keeping only gates reachable from the primary
    /// outputs (dead-code elimination). Port names, widths and order are
    /// preserved; net and gate ids are renumbered: the inputs first, then
    /// the live gates in creation order, each constant net where it is
    /// first read.
    ///
    /// One reverse pass over the gate ids marks the live gates, and one
    /// forward pass rebuilds them: no consumer index and no order is
    /// built. The result depends only on the structure, and a swept
    /// netlist sweeps to itself byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if a live gate or an output bit reads an undriven net.
    pub fn sweep(&self) -> Netlist {
        const UNMAPPED: NetId = NetId(u32::MAX);
        let (live, count) = self.live_gates();
        // Each live gate drives one net; ports and constants add a handful.
        let mut out = Netlist::with_capacity(count + self.drivers.len() - self.gates.len(), count);
        let mut net_map = vec![UNMAPPED; self.drivers.len()];
        for (name, bits) in &self.inputs {
            let new_bits = out.input(name.clone(), bits.len());
            for (&b, &m) in bits.iter().zip(&new_bits) {
                net_map[b.index()] = m;
            }
        }
        let map_net = |out: &mut Netlist, net_map: &mut [NetId], n: NetId| {
            let m = net_map[n.index()];
            if m != UNMAPPED {
                return m;
            }
            let value = self
                .const_value(n)
                .expect("gate-id order maps every non-constant net before its first reader");
            let m = out.const_net(value);
            net_map[n.index()] = m;
            m
        };
        for (gate, _) in self.gates.iter().zip(&live).filter(|(_, &l)| l) {
            // Fixed-size scratch: rebuilding a million-gate netlist must
            // not allocate per gate.
            let mut inputs = [NetId(0); 2];
            let arity = gate.kind.arity();
            for (slot, &n) in inputs.iter_mut().zip(gate.inputs()) {
                *slot = map_net(&mut out, &mut net_map, n);
            }
            net_map[gate.output.index()] =
                out.gate_with_drive(gate.kind, gate.drive, &inputs[..arity]);
        }
        for (name, bits) in &self.outputs {
            let new_bits: Vec<NetId> =
                bits.iter().map(|&b| map_net(&mut out, &mut net_map, b)).collect();
            out.output(name.clone(), new_bits);
        }
        out
    }

    /// `live[g]`: gate `g` lies in the fanin cone of a primary output;
    /// with the number of live gates. One reverse pass over the gate ids
    /// suffices: every live gate's producers have lower ids, so they are
    /// marked before the walk reaches them.
    pub(crate) fn live_gates(&self) -> (Vec<bool>, usize) {
        let mut live = vec![false; self.gates.len()];
        for (_, bits) in &self.outputs {
            for &b in bits {
                if let NetDriver::Gate(g) = self.drivers[b.index()] {
                    live[g.index()] = true;
                }
            }
        }
        let mut count = 0;
        for i in (0..self.gates.len()).rev() {
            if !live[i] {
                continue;
            }
            count += 1;
            for &n in self.gates[i].inputs() {
                if let NetDriver::Gate(src) = self.drivers[n.index()] {
                    live[src.index()] = true;
                }
            }
        }
        (live, count)
    }

    /// Total cell area in normalized library units: the gate count of each
    /// (kind, drive) pair times its cell area, summed in [`CellKind::ALL`]
    /// × [`Drive::ALL`] order, so renumbering the gates leaves every bit
    /// of the figure in place.
    pub fn area(&self, lib: &Library) -> f64 {
        let mut counts = [[0u32; Drive::ALL.len()]; CellKind::ALL.len()];
        for g in &self.gates {
            counts[g.kind as usize][g.drive as usize] += 1;
        }
        let mut area = 0.0;
        for (kind, per_drive) in CellKind::ALL.into_iter().zip(counts) {
            for (drive, count) in Drive::ALL.into_iter().zip(per_drive) {
                area += f64::from(count) * lib.area(kind, drive);
            }
        }
        area
    }

    /// Gate count per cell kind, in [`CellKind::ALL`] order.
    pub fn gate_histogram(&self) -> Vec<(CellKind, usize)> {
        CellKind::ALL
            .iter()
            .map(|&k| (k, self.gates.iter().filter(|g| g.kind == k).count()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// CSR gate-consumer index: `off[g]..off[g + 1]` slices `consumers`
    /// into the gates reading `g`'s output, in gate-id order (one
    /// structure, no per-gate `Vec`s).
    pub(crate) fn gate_consumers(&self) -> (Vec<u32>, Vec<GateId>) {
        let n = self.gates.len();
        let mut off = vec![0u32; n + 1];
        for g in &self.gates {
            for &input in g.inputs() {
                if let NetDriver::Gate(src) = self.drivers[input.index()] {
                    off[src.index() + 1] += 1;
                }
            }
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        // Fill using `off[src]` itself as the write cursor: afterwards
        // `off[g]` holds the end of `g`'s run, i.e. the start of `g + 1`,
        // so one shift right restores the offsets without a cursor copy.
        let mut consumers = vec![GateId(0); off[n] as usize];
        for (i, g) in self.gates.iter().enumerate() {
            for &input in g.inputs() {
                if let NetDriver::Gate(src) = self.drivers[input.index()] {
                    consumers[off[src.index()] as usize] = GateId(i as u32);
                    off[src.index()] += 1;
                }
            }
        }
        off.copy_within(0..n, 1);
        off[0] = 0;
        (off, consumers)
    }

    /// Checks that every net is driven.
    ///
    /// # Errors
    ///
    /// Returns the first undriven net.
    pub fn check(&self) -> Result<(), NetlistError> {
        match self.drivers.iter().position(|d| *d == NetDriver::Undriven) {
            Some(i) => Err(NetlistError::Undriven { net: NetId(i as u32) }),
            None => Ok(()),
        }
    }
}
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn build_and_check() {
        let mut n = Netlist::new();
        let a = n.input("a", 2);
        let x = n.gate(CellKind::Xor2, &[a[0], a[1]]);
        let y = n.gate(CellKind::Inv, &[x]);
        n.output("o", vec![y]);
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.check(), Ok(()));
        assert_eq!(n.fanout_of(x), 1);
        assert_eq!(n.fanout_of(y), 1);
        assert_eq!(n.gate_histogram(), vec![(CellKind::Inv, 1), (CellKind::Xor2, 1)]);
    }

    #[test]
    fn constants_are_shared() {
        let mut n = Netlist::new();
        let z1 = n.const0();
        let z2 = n.const0();
        let o1 = n.const1();
        assert_eq!(z1, z2);
        assert_ne!(z1, o1);
    }

    #[test]
    fn folded_gates_keep_their_function() {
        // Every cell over every pin mix of a free bit and the two
        // constants: where the rule folds, the replacement computes the
        // gate's function on both values of the free bit; `gate_folded`
        // emits a gate exactly where the rule does not fold.
        for kind in CellKind::ALL {
            for pins in 0..9 {
                let mut n = Netlist::new();
                let x = n.input("x", 1)[0];
                let pick = |n: &mut Netlist, p: usize| match p {
                    0 => x,
                    1 => n.const0(),
                    _ => n.const1(),
                };
                let (a, b) = (pick(&mut n, pins % 3), pick(&mut n, pins / 3));
                let ins = &[a, b][..kind.arity()];
                let gate = n.gate(kind, ins);
                let replacement = n.folded(kind, a, b);
                let emitted = n.gate_folded(kind, ins);
                if let Some(r) = replacement {
                    assert_eq!(emitted, r, "{kind}");
                }
                assert_eq!(n.num_gates(), 1 + usize::from(replacement.is_none()), "{kind}");
                n.output("gate", vec![gate]);
                n.output("emitted", vec![emitted]);
                for v in 0..2 {
                    let out = n.simulate(&[dp_bitvec::BitVec::from_u64(1, v)]).unwrap();
                    assert_eq!(out[0], out[1], "{kind} pins {pins} x={v}");
                }
            }
        }
    }

    #[test]
    fn undriven_net_detected() {
        let mut n = Netlist::new();
        let w = n.fresh_net();
        n.output("o", vec![w]);
        assert_eq!(n.check(), Err(NetlistError::Undriven { net: w }));
    }

    #[test]
    fn area_accumulates() {
        let lib = Library::synthetic_025um();
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let x = n.gate(CellKind::Inv, &[a]);
        n.output("o", vec![x]);
        let base = n.area(&lib);
        let g = n.driver_gate(x).unwrap();
        n.set_drive(g, Drive::X4);
        assert!(n.area(&lib) > base);
    }

    #[test]
    fn insert_buffer_places_the_buffer_before_its_readers() {
        let mut n = Netlist::new();
        let a = n.input("a", 2);
        let x = n.gate(CellKind::Xor2, &[a[0], a[1]]);
        let y = n.gate(CellKind::Nand2, &[x, a[0]]);
        let z = n.gate(CellKind::Or2, &[a[1], x]);
        n.output("o", vec![y, z, x]);
        let before = n.clone();
        // Reader ids as they were before the insertion: y is g1, z is g2.
        let buf = n.insert_buffer(x, &[(GateId(1), 0), (GateId(2), 1)]);
        assert_eq!(n.driver_gate(buf), Some(GateId(1)), "right after x's driver");
        assert_eq!([y, z].map(|w| n.driver_gate(w)), [Some(GateId(2)), Some(GateId(3))]);
        assert_eq!(n.gate_inputs(GateId(2)), &[buf, a[0]]);
        assert_eq!(n.gate_inputs(GateId(3)), &[a[1], buf]);
        assert_eq!((n.fanout_of(x), n.fanout_of(buf)), (2, 2), "the buffer and the output bit");
        assert_invariants(&n);
        // A buffer on a primary input goes first.
        let b = n.insert_buffer(a[0], &[(GateId(0), 0)]);
        assert_eq!(n.driver_gate(b), Some(GateId(0)));
        assert_invariants(&n);
        for v in 0..4 {
            let lanes = [dp_bitvec::BitVec::from_u64(2, v)];
            assert_eq!(n.simulate(&lanes), before.simulate(&lanes), "a={v}");
        }
    }

    #[test]
    fn a_rewire_onto_a_later_driver_panics() {
        let mut n = Netlist::new();
        let a = n.input("a", 2);
        let x = n.gate(CellKind::And2, &[a[0], a[1]]);
        let y = n.gate(CellKind::Inv, &[x]);
        let z = n.gate(CellKind::Or2, &[x, a[0]]);
        n.output("o", vec![y, z]);
        let [gx, gy, gz] = [x, y, z].map(|net| n.driver_gate(net).unwrap());
        // Onto an input, a constant or an earlier gate's output: allowed.
        n.rewire_gate_input(gz, 1, a[1]);
        let one = n.const1();
        n.rewire_gate_input(gz, 1, one);
        n.rewire_gate_input(gz, 1, x);
        assert_invariants(&n);
        // Onto the gate's own output or a later gate's: refused.
        for (gate, net) in [(gy, z), (gx, x)] {
            let mut edited = n.clone();
            let refused = std::panic::catch_unwind(move || edited.rewire_gate_input(gate, 0, net));
            let message = refused.expect_err("the rewire must panic");
            let text = message.downcast_ref::<String>().expect("a formatted message");
            assert!(text.contains("may read only nets that exist before it"), "{text}");
        }
    }

    /// Panics unless `n` keeps the netlist invariants: every gate reads
    /// only inputs, constants, undriven nets and outputs of earlier gates;
    /// every gate's output net names it as driver; the fanout counts equal
    /// a recount from the gate pins and output bits.
    pub(crate) fn assert_invariants(n: &Netlist) {
        let mut fanout = vec![0u32; n.num_nets()];
        for (i, g) in n.gates.iter().enumerate() {
            assert_eq!(n.drivers[g.output.index()], NetDriver::Gate(GateId(i as u32)), "g{i}");
            for &p in g.inputs() {
                assert!(n.driver_gate(p).is_none_or(|src| src.index() < i), "g{i} reads {p}");
                fanout[p.index()] += 1;
            }
        }
        for &b in n.outputs.iter().flat_map(|(_, bits)| bits) {
            fanout[b.index()] += 1;
        }
        assert_eq!(fanout, n.fanout, "fanout counts");
    }

    /// One random edit: a new gate, a rewire onto a net that exists before
    /// the gate, a drive change, an output rewire, a constant or a fresh
    /// net.
    fn random_edit(rng: &mut StdRng, n: &mut Netlist, nets: &mut Vec<NetId>) {
        match rng.gen_range(0..6) {
            0 => {
                let kind = CellKind::ALL[rng.gen_range(0..CellKind::ALL.len())];
                let ins: Vec<NetId> =
                    (0..kind.arity()).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
                nets.push(n.gate(kind, &ins));
            }
            1 if n.num_gates() > 0 => {
                let g = GateId(rng.gen_range(0..n.num_gates() as u32));
                let pin = rng.gen_range(0..n.gate_info(g).0.arity());
                // The gate's current inputs are among them, so never empty.
                let earlier: Vec<NetId> = (0..n.num_nets())
                    .map(NetId::from_index)
                    .filter(|&w| n.driver_gate(w).is_none_or(|src| src < g))
                    .collect();
                n.rewire_gate_input(g, pin, earlier[rng.gen_range(0..earlier.len())]);
            }
            2 if n.num_gates() > 0 => {
                let g = GateId(rng.gen_range(0..n.num_gates() as u32));
                n.set_drive(g, [Drive::X1, Drive::X2, Drive::X4][rng.gen_range(0..3)]);
            }
            3 => {
                let bit = rng.gen_range(0..n.outputs()[0].1.len());
                n.rewire_output_bit(0, bit, nets[rng.gen_range(0..nets.len())]);
            }
            4 => nets.push(if rng.gen_bool(0.5) { n.const0() } else { n.const1() }),
            _ => nets.push(n.fresh_net()),
        }
    }

    /// Buffers a random net in front of a random subset of its gate
    /// readers, the optimizer's buffering move.
    fn random_buffer(rng: &mut StdRng, n: &mut Netlist) {
        let net = NetId::from_index(rng.gen_range(0..n.num_nets()));
        let mut readers = Vec::new();
        for g in n.gate_ids() {
            for (pin, &p) in n.gate_inputs(g).iter().enumerate() {
                if p == net && rng.gen_bool(0.5) {
                    readers.push((g, pin));
                }
            }
        }
        n.insert_buffer(net, &readers);
    }

    /// A random netlist: every gate reads nets created before it,
    /// constants included.
    pub(crate) fn random_netlist(rng: &mut StdRng, gates: usize) -> (Netlist, Vec<NetId>) {
        let mut n = Netlist::new();
        let mut nets = n.input("a", 3);
        nets.push(n.const0());
        for _ in 0..gates {
            let kind = CellKind::ALL[rng.gen_range(0..CellKind::ALL.len())];
            let ins: Vec<NetId> =
                (0..kind.arity()).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
            nets.push(n.gate(kind, &ins));
        }
        let outs = nets.iter().rev().take(4).copied().collect();
        n.output("o", outs);
        (n, nets)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Under random edits, buffer insertions and DPN1 round trips,
        /// every gate reads only earlier nets, drivers and fanout counts
        /// stay exact, and a buffer never changes the function.
        #[test]
        fn gates_read_only_earlier_nets_under_every_edit(seed in any::<u64>(), gates in 0usize..40, steps in 1usize..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut n, mut nets) = random_netlist(&mut rng, gates);
            for step in 0..steps {
                match rng.gen_range(0..10) {
                    0 => {
                        let back = Netlist::from_bytes(&n.to_bytes()).expect("round trip");
                        prop_assert_eq!(format!("{back:?}"), format!("{n:?}"), "step {}", step);
                        n = back;
                    }
                    1 | 2 => {
                        let before = n.clone();
                        random_buffer(&mut rng, &mut n);
                        for v in 0..8 {
                            let lanes = [dp_bitvec::BitVec::from_u64(3, v)];
                            if let Ok(want) = before.simulate(&lanes) {
                                prop_assert_eq!(n.simulate(&lanes), Ok(want), "step {}", step);
                            }
                        }
                    }
                    _ => random_edit(&mut rng, &mut n, &mut nets),
                }
                assert_invariants(&n);
            }
        }

        /// A swept netlist sweeps to itself byte for byte.
        #[test]
        fn sweep_is_idempotent(seed in any::<u64>(), gates in 0usize..80) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, _) = random_netlist(&mut rng, gates);
            let once = n.sweep();
            prop_assert_eq!(once.sweep().to_bytes(), once.to_bytes());
        }

        /// Under random edits, and in half the cases a buffer put in front
        /// of one reader pin as the optimizer's buffering move does, the
        /// sweep keeps the function, leaves no dead gate and keeps the
        /// invariants.
        #[test]
        fn sweep_keeps_the_function(seed in any::<u64>(), gates in 1usize..40, steps in 0usize..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut n, mut nets) = random_netlist(&mut rng, gates);
            for _ in 0..steps {
                random_edit(&mut rng, &mut n, &mut nets);
            }
            if rng.gen_bool(0.5) {
                let g = GateId(rng.gen_range(0..n.num_gates() as u32));
                n.insert_buffer(n.gate_inputs(g)[0], &[(g, 0)]);
            }
            // The sweep's contract: no live undriven net.
            let (live, count) = n.live_gates();
            let driven = |i: &NetId| n.drivers[i.index()] != NetDriver::Undriven;
            let live_reads = n.gates.iter().zip(&live).filter(|(_, &l)| l);
            prop_assume!(live_reads.flat_map(|(g, _)| g.inputs()).all(driven));
            prop_assume!(n.outputs.iter().flat_map(|(_, bits)| bits).all(driven));
            let swept = n.sweep();
            assert_invariants(&swept);
            prop_assert_eq!(swept.num_gates(), count);
            // Acyclic, so a dead gate would leave one without readers.
            prop_assert!(swept.gate_ids().all(|g| swept.fanout_of(swept.gate_output(g)) > 0));
            prop_assert_eq!(swept.check(), Ok(()));
            // A dead undriven net stops the input simulating.
            for v in 0..8 {
                let lanes = [dp_bitvec::BitVec::from_u64(3, v)];
                if let Ok(want) = n.simulate(&lanes) {
                    prop_assert_eq!(swept.simulate(&lanes), Ok(want));
                }
            }
        }
    }
}
