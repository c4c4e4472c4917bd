//! An independent reference evaluator of the DFG semantics (paper
//! Section 2.2 and Definition 5.5).
//!
//! It shares no code with `dp_dfg::eval` or `dp_bitvec` arithmetic: it
//! reads the graph through its accessors only, orders the nodes itself,
//! and computes on its own little-endian `u64` limbs. `BitVec` appears
//! only as the container the netlist simulator takes and returns, read
//! bit by bit.
//!
//! Semantics:
//! - an operand entering a port is the source value adapted to the edge
//!   width, then to the destination node width, both with the edge's
//!   signedness (truncate when narrower, sign- or zero-extend when wider);
//! - operators compute modulo 2^(node width);
//! - an extension node adapts its edge signal to its own width, extending
//!   with the node's signedness when wider and truncating otherwise;
//! - an output observes its operand adapted to the output width.

use datapath_merge::bitvec::{BitVec, Signedness};
use datapath_merge::dfg::{Dfg, NodeId, NodeKind, OpKind};

fn limbs_for(width: usize) -> usize {
    width.div_ceil(64)
}

/// Clears the bits at and above `width` in `v`.
fn mask_top(v: &mut [u64], width: usize) {
    let full = width / 64;
    let rem = width % 64;
    if rem != 0 {
        v[full] &= (1u64 << rem) - 1;
    }
    let first_clear = if rem == 0 { full } else { full + 1 };
    for limb in v.iter_mut().skip(first_clear) {
        *limb = 0;
    }
}

fn bit_of(v: &[u64], i: usize) -> bool {
    (v[i / 64] >> (i % 64)) & 1 == 1
}

/// Writes `src` (a `src_w`-bit value) adapted to `dst_w` bits into `dst`:
/// truncation when narrower, extension with `signed` when wider.
fn adapt(dst: &mut [u64], dst_w: usize, src: &[u64], src_w: usize, signed: bool) {
    let fill = if dst_w > src_w && signed && bit_of(src, src_w - 1) { u64::MAX } else { 0 };
    for (k, d) in dst.iter_mut().enumerate() {
        let lo = k * 64;
        *d = if lo + 64 <= src_w {
            src[k]
        } else if lo < src_w {
            let keep = src_w - lo;
            (src[k] & ((1u64 << keep) - 1)) | (fill << keep)
        } else {
            fill
        };
    }
    mask_top(dst, dst_w);
}

fn add_into(dst: &mut [u64], a: &[u64], b: &[u64], width: usize) {
    let mut carry = 0u64;
    for k in 0..dst.len() {
        let (s1, c1) = a[k].overflowing_add(b[k]);
        let (s2, c2) = s1.overflowing_add(carry);
        dst[k] = s2;
        carry = u64::from(c1) + u64::from(c2);
    }
    mask_top(dst, width);
}

fn sub_into(dst: &mut [u64], a: &[u64], b: &[u64], width: usize) {
    let mut borrow = 0u64;
    for k in 0..dst.len() {
        let (d1, b1) = a[k].overflowing_sub(b[k]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        dst[k] = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
    mask_top(dst, width);
}

fn mul_into(dst: &mut [u64], a: &[u64], b: &[u64], width: usize) {
    let n = dst.len();
    dst.fill(0);
    for i in 0..n {
        let mut carry = 0u128;
        for j in 0..n - i {
            let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(dst[i + j]) + carry;
            dst[i + j] = t as u64;
            carry = t >> 64;
        }
    }
    mask_top(dst, width);
}

fn shl_into(dst: &mut [u64], a: &[u64], k: usize, width: usize) {
    let n = dst.len();
    let (limb_shift, bit_shift) = (k / 64, k % 64);
    for i in (0..n).rev() {
        let hi = if i >= limb_shift { a[i - limb_shift] << bit_shift } else { 0 };
        let lo = if bit_shift != 0 && i > limb_shift {
            a[i - limb_shift - 1] >> (64 - bit_shift)
        } else {
            0
        };
        dst[i] = hi | lo;
    }
    mask_top(dst, width);
}

/// A graph prepared for repeated evaluation: its own topological order
/// and one flat limb arena holding every node's value.
pub struct RefEval<'g> {
    g: &'g Dfg,
    order: Vec<NodeId>,
    offset: Vec<usize>,
    arena: Vec<u64>,
}

/// Why a graph cannot be evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefEvalError(pub String);

impl std::fmt::Display for RefEvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl<'g> RefEval<'g> {
    /// Prepares `g`: orders its nodes (Kahn's algorithm over the in-edges)
    /// and sizes the value arena.
    pub fn new(g: &'g Dfg) -> Result<RefEval<'g>, RefEvalError> {
        let n = g.num_nodes();
        let mut pending: Vec<usize> = g.node_ids().map(|id| g.node(id).in_edges().len()).collect();
        let mut ready: Vec<NodeId> = g.node_ids().filter(|id| pending[id.index()] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = ready.pop() {
            order.push(id);
            for &e in g.node(id).out_edges() {
                let dst = g.edge(e).dst();
                pending[dst.index()] -= 1;
                if pending[dst.index()] == 0 {
                    ready.push(dst);
                }
            }
        }
        if order.len() != n {
            return Err(RefEvalError("graph has a cycle".into()));
        }
        let mut offset = Vec::with_capacity(n + 1);
        let mut total = 0;
        for id in g.node_ids() {
            offset.push(total);
            total += limbs_for(g.node(id).width()).max(1);
        }
        offset.push(total);
        Ok(RefEval { g, order, offset, arena: vec![0; total] })
    }

    fn slot(&self, id: NodeId) -> std::ops::Range<usize> {
        self.offset[id.index()]..self.offset[id.index() + 1]
    }

    /// The operand on `port` of `node`, adapted to the edge and then to
    /// the node width (Section 2.2), written into `out`.
    fn operand(
        &self,
        node: NodeId,
        port: usize,
        on_edge: &mut Vec<u64>,
        out: &mut Vec<u64>,
    ) -> Result<(), RefEvalError> {
        let g = self.g;
        let e = g
            .node(node)
            .in_edges()
            .iter()
            .copied()
            .find(|&e| g.edge(e).dst_port() == port)
            .ok_or_else(|| RefEvalError(format!("node {node} has no edge on port {port}")))?;
        let edge = g.edge(e);
        let signed = edge.signedness() == Signedness::Signed;
        let src_w = g.node(edge.src()).width();
        on_edge.clear();
        on_edge.resize(limbs_for(edge.width()), 0);
        adapt(on_edge, edge.width(), &self.arena[self.slot(edge.src())], src_w, signed);
        let w = g.node(node).width();
        out.clear();
        out.resize(limbs_for(w), 0);
        adapt(out, w, on_edge, edge.width(), signed);
        Ok(())
    }

    /// Evaluates one input assignment (in `Dfg::inputs` order) and returns
    /// each primary output's value as limbs, in `Dfg::outputs` order.
    pub fn eval(&mut self, inputs: &[BitVec]) -> Result<Vec<Vec<u64>>, RefEvalError> {
        let g = self.g;
        if inputs.len() != g.inputs().len() {
            return Err(RefEvalError(format!(
                "{} input values for {} inputs",
                inputs.len(),
                g.inputs().len()
            )));
        }
        for (&id, value) in g.inputs().iter().zip(inputs) {
            let w = g.node(id).width();
            if value.width() != w {
                return Err(RefEvalError(format!(
                    "input {id} is {w} bits, value has {}",
                    value.width()
                )));
            }
            let r = self.slot(id);
            let dst = &mut self.arena[r];
            dst.fill(0);
            for i in 0..w {
                if value.bit(i) {
                    dst[i / 64] |= 1 << (i % 64);
                }
            }
        }
        let (mut a, mut b, mut r, mut t) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for k in 0..self.order.len() {
            let id = self.order[k];
            let node = g.node(id);
            let w = node.width();
            r.clear();
            r.resize(limbs_for(w).max(1), 0);
            match node.kind() {
                NodeKind::Input => continue,
                NodeKind::Const(v) => {
                    for i in 0..w {
                        if v.bit(i) {
                            r[i / 64] |= 1 << (i % 64);
                        }
                    }
                }
                NodeKind::Output => {
                    self.operand(id, 0, &mut t, &mut a)?;
                    r.copy_from_slice(&a);
                }
                NodeKind::Extension(t) => {
                    let e = *node.in_edges().first().ok_or_else(|| {
                        RefEvalError(format!("extension node {id} has no operand"))
                    })?;
                    let edge = g.edge(e);
                    let src_w = g.node(edge.src()).width();
                    a.clear();
                    a.resize(limbs_for(edge.width()), 0);
                    let edge_signed = edge.signedness() == Signedness::Signed;
                    adapt(
                        &mut a,
                        edge.width(),
                        &self.arena[self.slot(edge.src())],
                        src_w,
                        edge_signed,
                    );
                    adapt(&mut r, w, &a, edge.width(), *t == Signedness::Signed);
                }
                NodeKind::Op(op) => match op {
                    OpKind::Add | OpKind::Sub | OpKind::Mul => {
                        self.operand(id, 0, &mut t, &mut a)?;
                        self.operand(id, 1, &mut t, &mut b)?;
                        match op {
                            OpKind::Add => add_into(&mut r, &a, &b, w),
                            OpKind::Sub => sub_into(&mut r, &a, &b, w),
                            _ => mul_into(&mut r, &a, &b, w),
                        }
                    }
                    OpKind::Neg => {
                        self.operand(id, 0, &mut t, &mut a)?;
                        b.clear();
                        b.resize(a.len(), 0);
                        sub_into(&mut r, &b, &a, w);
                    }
                    OpKind::Shl(s) => {
                        self.operand(id, 0, &mut t, &mut a)?;
                        shl_into(&mut r, &a, usize::from(*s), w);
                    }
                },
            }
            let slot = self.slot(id);
            self.arena[slot].copy_from_slice(&r);
        }
        Ok(g.outputs().iter().map(|&o| self.arena[self.slot(o)].to_vec()).collect())
    }
}

/// Whether a simulator's output value equals the reference limbs.
pub fn same_value(got: &BitVec, want: &[u64], width: usize) -> bool {
    got.width() == width && (0..width).all(|i| got.bit(i) == bit_of(want, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datapath_merge::bitvec::Signedness::{Signed, Unsigned};
    use datapath_merge::testcases::figures;

    fn to_i64(v: &[u64], width: usize) -> i64 {
        let raw = v[0];
        if width < 64 && (raw >> (width - 1)) & 1 == 1 {
            (raw | (u64::MAX << width)) as i64
        } else {
            raw as i64
        }
    }

    fn run(g: &Dfg, inputs: &[(usize, i64)]) -> Vec<i64> {
        let vals: Vec<BitVec> = inputs.iter().map(|&(w, v)| BitVec::from_i64(w, v)).collect();
        let out = RefEval::new(g).unwrap().eval(&vals).unwrap();
        g.outputs().iter().zip(&out).map(|(&o, v)| to_i64(v, g.node(o).width())).collect()
    }

    #[test]
    fn fig1_truncates_at_n1_then_sign_extends() {
        // A + B = 100 + 50 = 150 does not fit N1's 7 bits: 150 mod 128 =
        // 22 (positive), so R = 22 + (C + D) = 22 + (3 + 4) = 29.
        let g = figures::fig1().g;
        assert_eq!(run(&g, &[(8, 100), (8, 50), (8, 3), (8, 4)]), vec![29]);
        // 60 + 40 = 100 = 0b1100100 in 7 bits is -28 when sign-extended:
        // R = -28 + (-1 + -2) = -31.
        assert_eq!(run(&g, &[(8, 60), (8, 40), (8, -1), (8, -2)]), vec![-31]);
    }

    #[test]
    fn fig2_keeps_five_output_bits() {
        // (7 + 9) + 20 = 36; the 5-bit signed output sees 36 - 32 = 4.
        let g = figures::fig2().g;
        assert_eq!(run(&g, &[(8, 7), (8, 9), (8, 20)]), vec![4]);
        // (-128 + -128) wraps to 0 in 7 bits; 0 + (-1) = -1.
        assert_eq!(run(&g, &[(8, -128), (8, -128), (8, -1)]), vec![-1]);
    }

    #[test]
    fn fig3_sign_extending_edge_preserves_the_sum() {
        // (-4 + -4) + (3 + 3) = -2 on every 8-bit intermediate, extended
        // to 9 bits: -2 + -1 = -3, sign-extended to the 10-bit output.
        let g = figures::fig3().g;
        assert_eq!(run(&g, &[(3, -4), (3, -4), (3, 3), (3, 3), (9, -1)]), vec![-3]);
        // 12 + 255 = 267 overflows N4's 9 signed bits: 267 - 512 = -245.
        assert_eq!(run(&g, &[(3, 3), (3, 3), (3, 3), (3, 3), (9, 255)]), vec![-245]);
    }

    #[test]
    fn fig4_chain_sums_five_unsigned_inputs() {
        let g = figures::fig4_graph();
        let out = RefEval::new(&g)
            .unwrap()
            .eval(&[7, 7, 7, 7, 7].map(|v| BitVec::from_u64(3, v)))
            .unwrap();
        assert_eq!(out, vec![vec![35]]);
    }

    #[test]
    fn edge_truncation_and_extension_corners() {
        // A 6-bit value -1 (0b111111) carried on a 3-bit signed edge is
        // -1 again; on a 3-bit unsigned edge it is 7; on a 9-bit unsigned
        // edge it is 63 (zero-extension of the 6-bit source).
        for (ew, t, expect) in
            [(3, Signed, -1), (3, Unsigned, 7), (9, Unsigned, 63), (9, Signed, -1)]
        {
            let mut g = Dfg::new();
            let a = g.input("a", 6);
            let z = g.constant(BitVec::zero(1));
            let s = g.op_with_edges(OpKind::Add, 12, &[(a, ew, t), (z, 1, Unsigned)]);
            g.output("o", 12, s, Signed);
            assert_eq!(run(&g, &[(6, -1)]), vec![expect], "edge width {ew}, {t}");
        }
    }

    #[test]
    fn extension_node_uses_its_own_signedness_when_widening() {
        // The edge carries -3 in 4 bits (0b1101); a signed extension node
        // to 8 bits gives -3, an unsigned one 13; a narrowing one keeps
        // the low 2 bits (0b01).
        for (w, t, expect) in [(8, Signed, -3i64), (8, Unsigned, 13), (2, Signed, 1)] {
            let mut g = Dfg::new();
            let a = g.input("a", 4);
            let x = g.extension(w, t, a, 4, Signed);
            g.output("o", w, x, Signed);
            assert_eq!(run(&g, &[(4, -3)]), vec![expect], "width {w}, {t}");
        }
    }

    #[test]
    fn wide_arithmetic_crosses_limbs() {
        // 2^70 - 1 times itself modulo 2^140, subtraction and negation at
        // 130 bits, and a shift across the 64-bit boundary.
        let mut g = Dfg::new();
        let a = g.input("a", 70);
        let m = g.op(OpKind::Mul, 140, &[(a, Unsigned), (a, Unsigned)]);
        let n = g.op(OpKind::Neg, 130, &[(a, Unsigned)]);
        let s = g.op(OpKind::Shl(60), 130, &[(a, Unsigned)]);
        g.output("m", 140, m, Unsigned);
        g.output("n", 130, n, Unsigned);
        g.output("s", 130, s, Unsigned);
        let ones = BitVec::from_fn(70, |_| true);
        let out = RefEval::new(&g).unwrap().eval(&[ones]).unwrap();
        // (2^70 - 1)^2 = 2^140 - 2^71 + 1 ≡ -2^71 + 1 (mod 2^140).
        let want_m = BitVec::from_fn(140, |i| i == 0 || (71..140).contains(&i));
        assert!(same_value(&want_m, &out[0], 140));
        // -(2^70 - 1) mod 2^130 = 2^130 - 2^70 + 1.
        let want_n = BitVec::from_fn(130, |i| i == 0 || (70..130).contains(&i));
        assert!(same_value(&want_n, &out[1], 130));
        // (2^70 - 1) << 60 keeps bits 60..130.
        let want_s = BitVec::from_fn(130, |i| (60..130).contains(&i));
        assert!(same_value(&want_s, &out[2], 130));
    }

    #[test]
    fn agrees_with_the_program_evaluator_on_random_designs() {
        // Two implementations that share no code: a disagreement points
        // at a bug in one of them.
        use datapath_merge::dfg::gen::{random_dfg, random_inputs, GenConfig};
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let config =
                GenConfig { num_ops: 30, num_inputs: 5, max_width: 90, ..GenConfig::default() };
            let g = random_dfg(&mut rng, &config);
            let mut ev = RefEval::new(&g).unwrap();
            for _ in 0..16 {
                let inputs = random_inputs(&g, &mut rng);
                let want = g.evaluate(&inputs).unwrap();
                let got = ev.eval(&inputs).unwrap();
                for (&o, v) in g.outputs().iter().zip(&got) {
                    assert!(same_value(&want[&o], v, g.node(o).width()), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn sub_and_signed_multiply_wrap_at_the_node_width() {
        let mut g = Dfg::new();
        let a = g.input("a", 5);
        let b = g.input("b", 5);
        let d = g.op(OpKind::Sub, 6, &[(a, Signed), (b, Signed)]);
        let p = g.op(OpKind::Mul, 4, &[(a, Signed), (b, Signed)]);
        g.output("d", 6, d, Signed);
        g.output("p", 4, p, Signed);
        // 7 - (-4) = 11; 7 * -4 = -28 ≡ 4 (mod 16).
        assert_eq!(run(&g, &[(5, 7), (5, -4)]), vec![11, 4]);
    }
}
