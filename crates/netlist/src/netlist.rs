//! The flat gate-level netlist container.

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

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
/// See the [crate documentation](crate) for an example.
#[derive(Clone, Default)]
pub struct Netlist {
    pub(crate) drivers: Vec<NetDriver>,
    pub(crate) fanout: Vec<u32>,
    pub(crate) gates: Vec<Gate>,
    pub(crate) inputs: Vec<(String, Vec<NetId>)>,
    pub(crate) outputs: Vec<(String, Vec<NetId>)>,
    /// Cached [const0, const1] net ids so constant lookups are O(1)
    /// instead of a scan over every driver.
    pub(crate) const_nets: [Option<NetId>; 2],
    /// Memoized Kahn order (`None` = cyclic), filled on first use by
    /// [`Netlist::topo_order`] and cleared by the structural edits: gate
    /// creation and [`Netlist::rewire_gate_input`].
    pub(crate) topo: OnceLock<Option<Vec<GateId>>>,
    /// Set once a rewire may have pointed a gate input at a net driven by
    /// the same or a later gate. While clear, gate-id (creation) order is
    /// a topological order: a new gate can only read nets that already
    /// exist. Conservative: only the DPN1 decoder's scan clears it.
    pub(crate) back_edge: bool,
}

/// The gates in an evaluation order (every gate after the producers of
/// its inputs), as returned by [`Netlist::eval_order`].
#[derive(Clone)]
pub(crate) enum EvalOrder<'a> {
    /// Gate-id order, topological while no back edge was wired in.
    Creation(std::ops::Range<u32>),
    /// The memoized Kahn order.
    Kahn(std::slice::Iter<'a, GateId>),
}

impl Iterator for EvalOrder<'_> {
    type Item = GateId;

    #[inline]
    fn next(&mut self) -> Option<GateId> {
        match self {
            EvalOrder::Creation(ids) => ids.next().map(GateId),
            EvalOrder::Kahn(order) => order.next().copied(),
        }
    }
}

/// Derived state stays out of the rendering: two netlists with the same
/// structure print the same whether or not either has its order cached.
impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Netlist")
            .field("drivers", &self.drivers)
            .field("fanout", &self.fanout)
            .field("gates", &self.gates)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("const_nets", &self.const_nets)
            .finish()
    }
}

/// Structural defects reported by [`Netlist::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net has no driver.
    Undriven {
        /// The floating net.
        net: NetId,
    },
    /// The gate network contains a combinational cycle.
    Cyclic,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Undriven { net } => write!(f, "net {net} has no driver"),
            NetlistError::Cyclic => f.write_str("netlist has a combinational cycle"),
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
        self.topo.take();
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

    /// Changes a gate's drive strength (the optimizer's sizing move). The
    /// structure is untouched, so a cached topological order survives.
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
    /// counts consistent (the optimizer's buffering/folding move). A net
    /// driven by this gate or a later one makes gate-id order no longer
    /// topological, so the order-free passes fall back to the Kahn order.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    pub fn rewire_gate_input(&mut self, gate: GateId, pin: usize, new_net: NetId) {
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
        if matches!(self.drivers[new_net.index()], NetDriver::Gate(src) if src >= gate) {
            self.back_edge = true;
        }
        self.topo.take();
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
    /// preserved; net and gate ids are renumbered.
    ///
    /// Live gates are renumbered in the Kahn order of the live gates alone,
    /// which is exactly the full Kahn order with the dead gates left out:
    /// dead gates only ever enable other dead gates, so they never reorder
    /// live ones, and the dead majority of a synthesized netlist is never
    /// ordered at all.
    ///
    /// # Panics
    ///
    /// Panics if the live gates form a combinational cycle.
    pub fn sweep(&self) -> Netlist {
        let live = self.live_gates();
        let order = self.live_kahn_order(&live).expect("sweep requires an acyclic netlist");
        let live_gates = order.len();
        // Each live gate drives one net; ports and constants add a handful.
        let mut out =
            Netlist::with_capacity(live_gates + self.drivers.len() - self.gates.len(), live_gates);
        let mut net_map: Vec<Option<NetId>> = vec![None; self.drivers.len()];
        for (name, bits) in &self.inputs {
            let new_bits = out.input(name.clone(), bits.len());
            for (k, &b) in bits.iter().enumerate() {
                net_map[b.index()] = Some(new_bits[k]);
            }
        }
        // Constants on demand.
        let map_net = |out: &mut Netlist, net_map: &mut Vec<Option<NetId>>, n: NetId| {
            if let Some(m) = net_map[n.index()] {
                return m;
            }
            let m = match self.drivers[n.index()] {
                NetDriver::Const(true) => Some(out.const1()),
                NetDriver::Const(false) => Some(out.const0()),
                _ => None,
            };
            let m =
                m.expect("topological order maps every non-constant net before its first reader");
            net_map[n.index()] = Some(m);
            m
        };
        for g in order {
            let gate = self.gates[g.index()];
            // Fixed-size scratch: rebuilding a million-gate netlist must
            // not allocate per gate.
            let mut inputs = [NetId(0); 2];
            let arity = gate.kind.arity();
            for (slot, &n) in inputs.iter_mut().zip(gate.inputs()) {
                *slot = map_net(&mut out, &mut net_map, n);
            }
            let new_out = out.gate_with_drive(gate.kind, gate.drive, &inputs[..arity]);
            net_map[gate.output.index()] = Some(new_out);
        }
        for (name, bits) in &self.outputs {
            let new_bits: Vec<NetId> =
                bits.iter().map(|&b| map_net(&mut out, &mut net_map, b)).collect();
            out.output(name.clone(), new_bits);
        }
        out
    }

    /// `live[g]`: gate `g` lies in the fanin cone of a primary output.
    pub(crate) fn live_gates(&self) -> Vec<bool> {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<GateId> = Vec::new();
        for (_, bits) in &self.outputs {
            for &b in bits {
                if let NetDriver::Gate(g) = self.drivers[b.index()] {
                    if !live[g.index()] {
                        live[g.index()] = true;
                        stack.push(g);
                    }
                }
            }
        }
        while let Some(g) = stack.pop() {
            for &i in self.gates[g.index()].inputs() {
                if let NetDriver::Gate(src) = self.drivers[i.index()] {
                    if !live[src.index()] {
                        live[src.index()] = true;
                        stack.push(src);
                    }
                }
            }
        }
        live
    }

    /// Kahn's algorithm over the gates `live` marks; `None` on a cycle
    /// among them. A live gate's producers are live, so this is
    /// [`Netlist::kahn_order`] with the dead gates filtered out.
    pub(crate) fn live_kahn_order(&self, live: &[bool]) -> Option<Vec<GateId>> {
        let keep = |i: usize| live[i];
        let (off, consumers) = self.gate_consumers(keep);
        self.kahn(keep, &off, &consumers)
    }

    /// Total cell area in normalized library units.
    pub fn area(&self, lib: &Library) -> f64 {
        self.gates.iter().map(|g| lib.area(g.kind, g.drive)).sum()
    }

    /// Gate count per cell kind, in [`CellKind::ALL`] order.
    pub fn gate_histogram(&self) -> Vec<(CellKind, usize)> {
        CellKind::ALL
            .iter()
            .map(|&k| (k, self.gates.iter().filter(|g| g.kind == k).count()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Whether gate-id (creation) order is known to be a topological
    /// order. It is unless [`Netlist::rewire_gate_input`] pointed a pin at
    /// a net driven by the same or a later gate; passes whose result does
    /// not depend on which topological order they walk use creation order
    /// while this holds and [`Netlist::topo_order`] otherwise.
    pub fn creation_order_is_topological(&self) -> bool {
        !self.back_edge
    }

    /// The gates in an order that visits every gate after the producers of
    /// its inputs: creation order when that is topological (no Kahn pass,
    /// no allocation), the memoized Kahn order otherwise.
    pub(crate) fn eval_order(&self) -> Result<EvalOrder<'_>, NetlistError> {
        if self.back_edge {
            self.topo_order().map(|order| EvalOrder::Kahn(order.iter()))
        } else {
            Ok(EvalOrder::Creation(0..self.gates.len() as u32))
        }
    }

    /// Gates in the Kahn topological order (inputs to outputs).
    ///
    /// The order is computed once and memoized: later calls borrow the
    /// same slice until a gate is created or a gate input is rewired.
    /// Drive changes, output rewiring and new input, constant or fresh
    /// nets leave it in place. Passes whose output order matters
    /// ([`Netlist::critical_gates`]) read it; the order-free ones walk
    /// creation order instead whenever
    /// [`Netlist::creation_order_is_topological`] holds.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cyclic`] on a combinational loop.
    pub fn topo_order(&self) -> Result<&[GateId], NetlistError> {
        self.topo.get_or_init(|| self.kahn_order()).as_deref().ok_or(NetlistError::Cyclic)
    }

    /// Kahn's algorithm over every gate; `None` on a cycle.
    pub(crate) fn kahn_order(&self) -> Option<Vec<GateId>> {
        let (off, consumers) = self.gate_consumers(|_| true);
        self.kahn(|_| true, &off, &consumers)
    }

    /// Kahn's algorithm over the gates `keep` admits, given their consumer
    /// CSR from [`Netlist::gate_consumers`]; `None` on a cycle. Every
    /// producer of an admitted gate must be admitted too. Enumeration
    /// order is load-bearing (`DESIGN.md` §15): the ready stack is seeded
    /// in gate-id order and popped LIFO.
    pub(crate) fn kahn(
        &self,
        keep: impl Fn(usize) -> bool,
        off: &[u32],
        consumers: &[GateId],
    ) -> Option<Vec<GateId>> {
        // No cell has more than two inputs, so a byte holds any indegree.
        let mut indegree = vec![0u8; self.gates.len()];
        let mut ready: Vec<GateId> = Vec::new();
        let mut kept = 0;
        for (i, g) in self.gates.iter().enumerate() {
            if !keep(i) {
                continue;
            }
            kept += 1;
            indegree[i] = g
                .inputs()
                .iter()
                .filter(|&&n| matches!(self.drivers[n.index()], NetDriver::Gate(_)))
                .count() as u8;
            if indegree[i] == 0 {
                ready.push(GateId(i as u32));
            }
        }
        let mut order = Vec::with_capacity(kept);
        while let Some(g) = ready.pop() {
            order.push(g);
            for &c in &consumers[off[g.index()] as usize..off[g.index() + 1] as usize] {
                indegree[c.index()] -= 1;
                if indegree[c.index()] == 0 {
                    ready.push(c);
                }
            }
        }
        (order.len() == kept).then_some(order)
    }

    /// CSR gate-consumer index over the gates `keep` admits:
    /// `off[g]..off[g + 1]` slices `consumers` into the admitted gates
    /// reading `g`'s output, in gate-id order (one structure, no per-gate
    /// `Vec`s).
    pub(crate) fn gate_consumers(&self, keep: impl Fn(usize) -> bool) -> (Vec<u32>, Vec<GateId>) {
        let n = self.gates.len();
        let mut off = vec![0u32; n + 1];
        for (i, g) in self.gates.iter().enumerate() {
            if !keep(i) {
                continue;
            }
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
            if !keep(i) {
                continue;
            }
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

    /// Checks that every net is driven and the network is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first defect found.
    pub fn check(&self) -> Result<(), NetlistError> {
        for (i, d) in self.drivers.iter().enumerate() {
            if *d == NetDriver::Undriven {
                return Err(NetlistError::Undriven { net: NetId(i as u32) });
            }
        }
        self.eval_order().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
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
    fn topo_orders_respect_dependencies() {
        let mut n = Netlist::new();
        let a = n.input("a", 1)[0];
        let x = n.gate(CellKind::Inv, &[a]);
        let y = n.gate(CellKind::And2, &[x, a]);
        n.output("o", vec![y]);
        let order = n.topo_order().unwrap();
        let gx = n.driver_gate(x).unwrap();
        let gy = n.driver_gate(y).unwrap();
        let pos = |g: GateId| order.iter().position(|&o| o == g).unwrap();
        assert!(pos(gx) < pos(gy));
    }

    #[test]
    fn debug_leaves_out_the_cached_order() {
        let mut n = Netlist::new();
        let a = n.input("a", 2);
        let x = n.gate(CellKind::Nand2, &[a[0], a[1]]);
        n.output("o", vec![x]);
        let uncached = format!("{n:?}");
        n.check().unwrap();
        n.topo_order().unwrap();
        assert!(n.topo.get().is_some());
        assert_eq!(format!("{n:?}"), uncached);
        assert_eq!(format!("{:?}", n.clone()), uncached);
    }

    #[test]
    fn check_and_simulate_batch_leave_the_order_cache_empty() {
        let mut rng = StdRng::seed_from_u64(7);
        let (n, _) = random_netlist(&mut rng, 200);
        assert!(n.creation_order_is_topological());
        n.check().unwrap();
        let lane = vec![dp_bitvec::BitVec::from_u64(3, 5)];
        n.simulate_batch(std::slice::from_ref(&lane)).unwrap();
        n.simulate(&lane).unwrap();
        n.longest_path(&Library::synthetic_025um());
        assert!(n.topo.get().is_none(), "order-free passes must not build a Kahn order");
        n.sweep();
        assert!(n.topo.get().is_none(), "sweep orders only the live gates, uncached");
    }

    #[test]
    fn only_a_rewire_onto_a_later_driver_breaks_creation_order() {
        let mut n = Netlist::new();
        let a = n.input("a", 2);
        let x = n.gate(CellKind::And2, &[a[0], a[1]]);
        let y = n.gate(CellKind::Inv, &[x]);
        let z = n.gate(CellKind::Or2, &[x, a[0]]);
        n.output("o", vec![y, z]);
        let [gx, gy, gz] = [x, y, z].map(|net| n.driver_gate(net).unwrap());
        // Onto an input or an earlier gate's output: still topological.
        n.rewire_gate_input(gz, 1, a[1]);
        n.rewire_gate_input(gz, 1, x);
        assert!(n.creation_order_is_topological());
        // Onto a later gate's output: acyclic, but no longer in id order.
        n.rewire_gate_input(gy, 0, z);
        assert!(!n.creation_order_is_topological());
        assert_eq!(n.check(), Ok(()));
        // Conservative: rewiring back does not restore the flag, but the
        // DPN1 decoder's scan does.
        n.rewire_gate_input(gy, 0, x);
        assert!(!n.creation_order_is_topological());
        let decoded = Netlist::from_bytes(&n.to_bytes()).unwrap();
        assert!(decoded.creation_order_is_topological());
        // A gate reading its own output is a back edge (and a cycle).
        n.rewire_gate_input(gx, 0, x);
        assert_eq!(n.check(), Err(NetlistError::Cyclic));
        let decoded = Netlist::from_bytes(&n.to_bytes()).unwrap();
        assert!(!decoded.creation_order_is_topological());
        assert_eq!(decoded.check(), Err(NetlistError::Cyclic));
    }

    /// Exact truth of the flag: every gate-driven input has a lower id.
    fn creation_order_is_exactly_topological(n: &Netlist) -> bool {
        n.gates.iter().enumerate().all(|(i, g)| {
            g.inputs().iter().all(|p| n.driver_gate(*p).is_none_or(|src| src.index() < i))
        })
    }

    /// A copy whose order-free passes take the Kahn fallback: one rewire
    /// onto the gate's own output sets the back-edge flag, and rewiring
    /// back restores the structure but (conservatively) not the flag.
    fn forced_kahn(n: &Netlist) -> Netlist {
        let mut forced = n.clone();
        if forced.num_gates() > 0 {
            let g = GateId(0);
            let pin0 = forced.gate_inputs(g)[0];
            forced.rewire_gate_input(g, 0, forced.gate_output(g));
            forced.rewire_gate_input(g, 0, pin0);
            assert!(!forced.creation_order_is_topological());
            assert_eq!(format!("{forced:?}"), format!("{n:?}"));
        }
        forced
    }

    /// One random edit; returns whether it changed the gate structure.
    fn random_edit(rng: &mut StdRng, n: &mut Netlist, nets: &mut Vec<NetId>) -> bool {
        match rng.gen_range(0..6) {
            0 => {
                let kind = CellKind::ALL[rng.gen_range(0..CellKind::ALL.len())];
                let ins: Vec<NetId> =
                    (0..kind.arity()).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
                nets.push(n.gate(kind, &ins));
                true
            }
            1 if n.num_gates() > 0 => {
                let g = GateId(rng.gen_range(0..n.num_gates() as u32));
                let pin = rng.gen_range(0..n.gate_info(g).0.arity());
                // Mostly an earlier net (keeps the netlist acyclic),
                // sometimes any net (a back edge, which may close a loop).
                let bound = if rng.gen_bool(0.8) { n.gate_output(g).index() } else { n.num_nets() };
                let net = NetId(rng.gen_range(0..bound.max(1)) as u32);
                let changed = n.gate_inputs(g)[pin] != net;
                n.rewire_gate_input(g, pin, net);
                changed
            }
            2 if n.num_gates() > 0 => {
                let g = GateId(rng.gen_range(0..n.num_gates() as u32));
                n.set_drive(g, [Drive::X1, Drive::X2, Drive::X4][rng.gen_range(0..3)]);
                false
            }
            3 => {
                let bit = rng.gen_range(0..n.outputs()[0].1.len());
                n.rewire_output_bit(0, bit, nets[rng.gen_range(0..nets.len())]);
                false
            }
            4 => {
                nets.push(if rng.gen_bool(0.5) { n.const0() } else { n.const1() });
                false
            }
            _ => {
                nets.push(n.fresh_net());
                false
            }
        }
    }

    /// A random acyclic netlist: every gate reads nets created before it,
    /// constants included.
    fn random_netlist(rng: &mut StdRng, gates: usize) -> (Netlist, Vec<NetId>) {
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

        /// Under random edit sequences the memoized order always equals a
        /// fresh Kahn pass; structural edits (gate creation, input
        /// rewiring) clear the cache and every other edit keeps it.
        #[test]
        fn memoized_order_tracks_every_edit(seed in any::<u64>(), gates in 0usize..40, steps in 1usize..60) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut n, mut nets) = random_netlist(&mut rng, gates);
            for step in 0..steps {
                let cached = n.topo.get().is_some();
                let structural = random_edit(&mut rng, &mut n, &mut nets);
                prop_assert_eq!(
                    n.topo.get().is_some(),
                    cached && !structural,
                    "step {} structural {}", step, structural
                );
                if rng.gen_bool(0.7) {
                    let fresh = n.kahn_order();
                    prop_assert_eq!(n.topo_order().ok().map(<[GateId]>::to_vec), fresh);
                }
            }
            let order = n.topo_order().ok().map(<[GateId]>::to_vec);
            prop_assert_eq!(&order, &n.kahn_order());
            let copy = n.clone();
            prop_assert_eq!(copy.topo.get().cloned(), Some(order));
        }

        /// Closing a loop after the order was cached must surface as
        /// `Cyclic` from every entry point, not serve the stale order.
        #[test]
        fn cycle_closed_after_caching_is_reported(seed in any::<u64>(), gates in 1usize..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut n, _) = random_netlist(&mut rng, gates);
            prop_assert_eq!(n.check(), Ok(()));
            prop_assert!(n.topo_order().is_ok());
            prop_assert!(n.topo.get().is_some());
            // Feed a gate from its own output or from a gate downstream of
            // it: gates only read earlier nets, so one forward scan in id
            // order finds the whole fanout cone.
            let g = rng.gen_range(0..n.num_gates());
            let mut cone = vec![false; n.num_nets()];
            cone[n.gates[g].output.index()] = true;
            let mut sinks = vec![n.gates[g].output];
            for gate in &n.gates[g + 1..] {
                if gate.inputs().iter().any(|i| cone[i.index()]) {
                    cone[gate.output.index()] = true;
                    sinks.push(gate.output);
                }
            }
            let gid = GateId(g as u32);
            let pin = rng.gen_range(0..n.gate_info(gid).0.arity());
            n.rewire_gate_input(gid, pin, sinks[rng.gen_range(0..sinks.len())]);
            prop_assert_eq!(n.topo_order(), Err(NetlistError::Cyclic));
            prop_assert_eq!(n.check(), Err(NetlistError::Cyclic));
            let lane = vec![dp_bitvec::BitVec::zero(3)];
            prop_assert_eq!(
                n.simulate_batch(&[lane]),
                Err(crate::SimError::Invalid(NetlistError::Cyclic))
            );
        }

        /// Under random edits (gate creation, rewires including back edges
        /// and loops, drive changes, DPN1 round-trips) the creation-order
        /// flag stays sound, and every order-free pass gives bit for bit
        /// what it gives when forced onto the Kahn order.
        #[test]
        fn creation_order_fast_paths_match_the_kahn_order(seed in any::<u64>(), gates in 0usize..40, steps in 1usize..30) {
            let mut rng = StdRng::seed_from_u64(seed);
            let lib = Library::synthetic_025um();
            let (mut n, mut nets) = random_netlist(&mut rng, gates);
            for step in 0..steps {
                if rng.gen_bool(0.1) {
                    n = Netlist::from_bytes(&n.to_bytes()).expect("round trip");
                    prop_assert_eq!(
                        n.creation_order_is_topological(),
                        creation_order_is_exactly_topological(&n)
                    );
                } else {
                    random_edit(&mut rng, &mut n, &mut nets);
                }
                if n.creation_order_is_topological() {
                    prop_assert!(creation_order_is_exactly_topological(&n), "step {}", step);
                }
                let forced = forced_kahn(&n);
                prop_assert_eq!(n.check(), forced.check(), "step {}", step);
                if n.check().is_err() {
                    continue;
                }
                let lanes: Vec<Vec<dp_bitvec::BitVec>> = (0..70)
                    .map(|_| vec![dp_bitvec::BitVec::from_u64(3, rng.gen_range(0..8))])
                    .collect();
                prop_assert_eq!(n.simulate(&lanes[0]), forced.simulate(&lanes[0]));
                prop_assert_eq!(n.simulate_batch(&lanes), forced.simulate_batch(&lanes));
                let (at, forced_at) = (n.arrival_times(&lib), forced.arrival_times(&lib));
                for net in 0..n.num_nets() {
                    let id = NetId(net as u32);
                    prop_assert_eq!(at.at(id).to_bits(), forced_at.at(id).to_bits());
                }
                prop_assert_eq!(
                    n.longest_path(&lib).delay_ns.to_bits(),
                    forced.longest_path(&lib).delay_ns.to_bits()
                );
                prop_assert_eq!(n.critical_gates(&lib, 0.05), forced.critical_gates(&lib, 0.05));
                prop_assert_eq!(format!("{:?}", n.sweep()), format!("{:?}", forced.sweep()));
            }
        }

        /// Kahn over the live gates alone visits them in exactly the order
        /// the full Kahn pass does; only the dead gates drop out.
        #[test]
        fn live_sweep_order_is_the_filtered_full_order(seed in any::<u64>(), gates in 0usize..60, steps in 0usize..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut n, mut nets) = random_netlist(&mut rng, gates);
            for _ in 0..steps {
                random_edit(&mut rng, &mut n, &mut nets);
            }
            let live = n.live_gates();
            let filtered = n
                .kahn_order()
                .map(|order| order.into_iter().filter(|g| live[g.index()]).collect::<Vec<_>>());
            match (n.live_kahn_order(&live), filtered) {
                (Some(live_order), Some(full)) => prop_assert_eq!(live_order, full),
                // A loop among dead gates blocks only the full order.
                (Some(_), None) => {}
                (None, full) => prop_assert!(full.is_none(), "a live loop is a loop"),
            }
        }
    }
}
