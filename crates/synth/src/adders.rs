//! Bit-level adder construction: full-adder cells, ripple-carry,
//! carry-select and Kogge-Stone carry-propagate adders, and the
//! carry-save reduction tree.
//!
//! Emission contract (`DESIGN.md`, "emission contract"): every gate
//! inside a carry-save tree or a carry-propagate adder is emitted through
//! [`Netlist::gate_folded`], and cells whose output nothing reads (carries
//! out of the top column, prefix cells outside the carries' cone) are not
//! emitted at all. The sum bits a carry-propagate adder returns are the
//! exception: each is a fresh, unfolded gate, because later clusters tell
//! their input bits apart by net identity.

use dp_netlist::{CellKind, NetId, Netlist};

use crate::{Columns, ReductionKind};

/// How a cell's output gate is emitted: [`Netlist::gate_folded`] inside a
/// tree, [`Netlist::gate`] for a carry-propagate adder's sum bits.
type Emit = fn(&mut Netlist, CellKind, &[NetId]) -> NetId;

/// The sum half of a full adder: `t = a ^ b` (folded), then the sum
/// `t ^ cin` through `emit`. Returns `(t, sum)`; `t` feeds
/// [`full_adder_carry`].
fn full_adder_sum(nl: &mut Netlist, a: NetId, b: NetId, cin: NetId, emit: Emit) -> (NetId, NetId) {
    let t = nl.gate_folded(CellKind::Xor2, &[a, b]);
    (t, emit(nl, CellKind::Xor2, &[t, cin]))
}

/// The carry half of a full adder whose half-sum is `t`:
/// `(a & b) | (t & cin)`, folded. Skipped where the carry is discarded.
fn full_adder_carry(nl: &mut Netlist, a: NetId, b: NetId, t: NetId, cin: NetId) -> NetId {
    let u = nl.gate_folded(CellKind::And2, &[a, b]);
    let v = nl.gate_folded(CellKind::And2, &[t, cin]);
    nl.gate_folded(CellKind::Or2, &[u, v])
}

/// Ripple-carry addition of two equal-width rows (modulo `2^n`; the final
/// carry is dropped). `cin` seeds the carry chain.
///
/// # Panics
///
/// Panics if the rows have different widths or are empty.
pub fn ripple_carry_add(nl: &mut Netlist, a: &[NetId], b: &[NetId], cin: NetId) -> Vec<NetId> {
    assert_eq!(a.len(), b.len(), "adder rows must have equal width");
    assert!(!a.is_empty(), "adder width must be at least 1");
    let n = a.len();
    let mut carry = cin;
    let mut sum = Vec::with_capacity(n);
    for k in 0..n {
        let (t, s) = full_adder_sum(nl, a[k], b[k], carry, Netlist::gate);
        sum.push(s);
        if k + 1 < n {
            carry = full_adder_carry(nl, a[k], b[k], t, carry);
        }
    }
    sum
}

/// Kogge-Stone parallel-prefix addition of two equal-width rows (modulo
/// `2^n`). Logarithmic depth, the "fast" final adder of the synthesis flow.
///
/// Only the prefix cells in the cone of the carries `G[0]..G[n-2]` are
/// emitted (the carry out of the top bit is overflow): a backward pass
/// over the levels first marks which generate and propagate terms some
/// sum bit reads.
///
/// # Panics
///
/// Panics if the rows have different widths or are empty.
pub fn kogge_stone_add(nl: &mut Netlist, a: &[NetId], b: &[NetId], cin: NetId) -> Vec<NetId> {
    assert_eq!(a.len(), b.len(), "adder rows must have equal width");
    assert!(!a.is_empty(), "adder width must be at least 1");
    let n = a.len();
    let zero = nl.const0();
    // Level `l` (0 = bit level) combines spans at distance `dists[l-1]`.
    let dists: Vec<usize> =
        std::iter::successors(Some(1usize), |d| Some(d * 2)).take_while(|&d| d < n).collect();
    // Liveness, backwards from the sum bits: sum[k] reads G[k-1] of the
    // last level, so G[n-1] (the overflow carry) is dead. Row `l` of
    // `need_g`/`need_p` marks the level-`l` terms some later cell reads.
    let levels = dists.len() + 1;
    let mut need_g = vec![false; levels * n];
    let mut need_p = vec![false; levels * n];
    need_g[(levels - 1) * n..levels * n - 1].fill(true);
    for (l, &d) in dists.iter().enumerate().rev() {
        let (lower, upper) = (l * n, (l + 1) * n);
        for k in 0..n {
            // A term at `k < d` passes through unchanged; at `k >= d`, G
            // reads G[k], P[k] and G[k-d] below and P reads P[k], P[k-d].
            let (g_live, p_live) = (need_g[upper + k], need_p[upper + k]);
            need_g[lower + k] |= g_live;
            need_p[lower + k] |= p_live || (k >= d && g_live);
            if k >= d {
                need_g[lower + k - d] |= g_live;
                need_p[lower + k - d] |= p_live;
            }
        }
    }
    // Bit-level propagate / generate. With no carry-in, p[0] is sum bit 0
    // and stays a fresh gate.
    let mut p: Vec<NetId> = Vec::with_capacity(n);
    let mut g: Vec<NetId> = Vec::with_capacity(n);
    for k in 0..n {
        let emit: Emit = if k == 0 && cin == zero { Netlist::gate } else { Netlist::gate_folded };
        p.push(emit(nl, CellKind::Xor2, &[a[k], b[k]]));
        g.push(if need_g[k] { nl.gate_folded(CellKind::And2, &[a[k], b[k]]) } else { zero });
    }
    // Fold the carry-in into bit 0's generate: g0' = g0 | (p0 & cin).
    if cin != zero && need_g[0] {
        let t = nl.gate_folded(CellKind::And2, &[p[0], cin]);
        g[0] = nl.gate_folded(CellKind::Or2, &[g[0], t]);
    }
    // Prefix tree: after the last level, G[k] = carry out of bit k. Dead
    // terms keep a placeholder that no live cell reads.
    let mut gg = g;
    let mut pp = p.clone();
    for (l, &d) in dists.iter().enumerate() {
        let row = (l + 1) * n;
        let (prev_g, prev_p) = (gg.clone(), pp.clone());
        for k in d..n {
            if need_g[row + k] {
                let t = nl.gate_folded(CellKind::And2, &[prev_p[k], prev_g[k - d]]);
                gg[k] = nl.gate_folded(CellKind::Or2, &[prev_g[k], t]);
            }
            if need_p[row + k] {
                pp[k] = nl.gate_folded(CellKind::And2, &[prev_p[k], prev_p[k - d]]);
            }
        }
    }
    // sum[k] = p[k] ^ carry_in(k), carry_in(0) = cin, carry_in(k) = G[k-1].
    let mut sum = Vec::with_capacity(n);
    sum.push(if cin == zero { p[0] } else { nl.gate(CellKind::Xor2, &[p[0], cin]) });
    for k in 1..n {
        sum.push(nl.gate(CellKind::Xor2, &[p[k], gg[k - 1]]));
    }
    sum
}

/// Carry-select addition: the rows are split into blocks; each block
/// (except the first) is computed twice — once assuming carry-in 0, once
/// assuming 1 — and the real block carry selects between the two with a
/// 2:1 mux built from gates. Depth is dominated by the carry chain over
/// blocks, a √n-ish compromise between ripple and Kogge-Stone.
///
/// # Panics
///
/// Panics if the rows have different widths or are empty.
pub fn carry_select_add(nl: &mut Netlist, a: &[NetId], b: &[NetId], cin: NetId) -> Vec<NetId> {
    assert_eq!(a.len(), b.len(), "adder rows must have equal width");
    assert!(!a.is_empty(), "adder width must be at least 1");
    let n = a.len();
    // Block size ~ sqrt(n), at least 2.
    let block = ((n as f64).sqrt().ceil() as usize).max(2);
    let mut sum = Vec::with_capacity(n);
    let mut carry = cin;
    // Select with a block carry: out = sel ? x1 : x0, the final OR
    // emitted through `emit`.
    let mux = |nl: &mut Netlist, sel: NetId, x0: NetId, x1: NetId, emit: Emit| -> NetId {
        let nsel = nl.gate_folded(CellKind::Inv, &[sel]);
        let t0 = nl.gate_folded(CellKind::And2, &[nsel, x0]);
        let t1 = nl.gate_folded(CellKind::And2, &[sel, x1]);
        emit(nl, CellKind::Or2, &[t0, t1])
    };
    let mut lo = 0;
    while lo < n {
        let hi = (lo + block).min(n);
        if lo == 0 {
            // First block: plain ripple with the real carry-in.
            for k in lo..hi {
                let (t, s) = full_adder_sum(nl, a[k], b[k], carry, Netlist::gate);
                sum.push(s);
                if k + 1 < n {
                    carry = full_adder_carry(nl, a[k], b[k], t, carry);
                }
            }
        } else {
            // Speculative block: compute with carry 0 and with carry 1.
            let zero = nl.const0();
            let one = nl.const1();
            let mut s0 = Vec::new();
            let mut s1 = Vec::new();
            let (mut c0, mut c1) = (zero, one);
            for k in lo..hi {
                let (t, s) = full_adder_sum(nl, a[k], b[k], c0, Netlist::gate_folded);
                s0.push(s);
                if k + 1 < n {
                    c0 = full_adder_carry(nl, a[k], b[k], t, c0);
                }
                let (t, s) = full_adder_sum(nl, a[k], b[k], c1, Netlist::gate_folded);
                s1.push(s);
                if k + 1 < n {
                    c1 = full_adder_carry(nl, a[k], b[k], t, c1);
                }
            }
            for k in 0..(hi - lo) {
                sum.push(mux(nl, carry, s0[k], s1[k], Netlist::gate));
            }
            if hi < n {
                carry = mux(nl, carry, c0, c1, Netlist::gate_folded);
            }
        }
        lo = hi;
    }
    sum
}

/// Dadda's height sequence: 2, 3, 4, 6, 9, 13, 19, …
fn dadda_heights(max: usize) -> Vec<usize> {
    let mut h = vec![2usize];
    while *h.last().expect("non-empty") < max {
        let last = *h.last().expect("non-empty");
        h.push(last * 3 / 2);
    }
    h
}

/// Reduces the columns to height ≤ 2 with full/half adders, using the
/// requested discipline. Returns the two final rows plus the number of
/// reduction stages performed (the CSA-tree depth, a QoR counter).
pub(crate) fn reduce_to_two_rows(
    nl: &mut Netlist,
    mut cols: Columns,
    kind: ReductionKind,
) -> (Vec<NetId>, Vec<NetId>, usize) {
    cols.materialize_consts(nl);
    let width = cols.width();
    let mut stages = 0usize;
    match kind {
        ReductionKind::Wallace => {
            while cols.max_height() > 2 {
                stages += 1;
                let mut next: Vec<Vec<NetId>> = vec![Vec::new(); width];
                for k in 0..width {
                    let bits = cols.col(k).to_vec();
                    let mut it = bits.chunks_exact(3);
                    for chunk in it.by_ref() {
                        let (a, b, c) = (chunk[0], chunk[1], chunk[2]);
                        let (t, s) = full_adder_sum(nl, a, b, c, Netlist::gate_folded);
                        next[k].push(s);
                        if k + 1 < width {
                            next[k + 1].push(full_adder_carry(nl, a, b, t, c));
                        }
                    }
                    let rest = it.remainder();
                    if rest.len() == 2 && bits.len() > 2 {
                        next[k].push(nl.gate_folded(CellKind::Xor2, rest));
                        if k + 1 < width {
                            next[k + 1].push(nl.gate_folded(CellKind::And2, rest));
                        }
                    } else {
                        next[k].extend_from_slice(rest);
                    }
                }
                for (k, bits) in next.into_iter().enumerate() {
                    cols.set_col(k, bits);
                }
            }
        }
        ReductionKind::Dadda => {
            let mut targets = dadda_heights(cols.max_height().max(2));
            targets.pop(); // the last entry >= current height; start below it
            while cols.max_height() > 2 {
                let target = targets.pop().unwrap_or(2);
                if cols.max_height() <= target {
                    continue;
                }
                stages += 1;
                // One Dadda stage: adders consume only *current* bits;
                // their sums stay in place and their carries join the next
                // column of the **next** stage matrix. (Consuming same-
                // stage carries would ripple linearly across the columns.)
                let mut incoming: Vec<NetId> = Vec::new();
                for k in 0..width {
                    let mut avail = cols.col(k).to_vec();
                    let mut next: Vec<NetId> = Vec::new();
                    let mut outgoing: Vec<NetId> = Vec::new();
                    // Carries past the top column are modular overflow and
                    // are not emitted.
                    let top = k + 1 == width;
                    // Reduce minimally: just enough that this column's
                    // next-stage height (kept + sums + incoming carries)
                    // meets the target.
                    while avail.len() + next.len() + incoming.len() > target && avail.len() >= 2 {
                        if avail.len() >= 3 {
                            let c3 = avail.pop().expect("len >= 3");
                            let c2 = avail.pop().expect("len >= 2");
                            let c1 = avail.pop().expect("len >= 1");
                            let (t, s) = full_adder_sum(nl, c1, c2, c3, Netlist::gate_folded);
                            next.push(s);
                            if !top {
                                outgoing.push(full_adder_carry(nl, c1, c2, t, c3));
                            }
                        } else {
                            // Exactly two bits left: a half adder.
                            let pair = [avail[0], avail[1]];
                            avail.clear();
                            next.push(nl.gate_folded(CellKind::Xor2, &pair));
                            if !top {
                                outgoing.push(nl.gate_folded(CellKind::And2, &pair));
                            }
                        }
                    }
                    next.extend(avail);
                    next.append(&mut incoming);
                    cols.set_col(k, next);
                    incoming = outgoing;
                }
            }
        }
    }
    let (ra, rb) = cols.into_two_rows(nl);
    (ra, rb, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bitvec::BitVec;

    type Adder = fn(&mut Netlist, &[NetId], &[NetId], NetId) -> Vec<NetId>;
    const ADDERS: [Adder; 3] = [ripple_carry_add, kogge_stone_add, carry_select_add];

    /// Checks `build` exhaustively for w ≤ 5 and carry-in 0 and 1, on two
    /// free rows and on constant-padded rows: each bit of either row free,
    /// constant zero or constant one, which is what `into_two_rows` hands
    /// the final adder (tree outputs, zero padding, materialized ones).
    fn exhaustive_add(build: Adder) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for w in 1..=5usize {
            for cin_one in [false, true] {
                for pattern in 0..32 {
                    // Per row: (mask of free bits, value of the constant bits).
                    let mut row = || -> (u64, u64) {
                        if pattern == 0 {
                            return ((1 << w) - 1, 0);
                        }
                        (0..w).fold((0, 0), |(free, ones), k| match rng.gen_range(0..4) {
                            0 | 1 => (free | 1 << k, ones),
                            2 => (free, ones),
                            _ => (free, ones | 1 << k),
                        })
                    };
                    let (ra, rb) = (row(), row());
                    let mut nl = Netlist::new();
                    let zero = nl.const0();
                    let one = nl.const1();
                    let mut bits = |name: &str, (free, ones): (u64, u64)| -> Vec<NetId> {
                        let ins = nl.input(name, w);
                        (0..w)
                            .map(|k| match (free >> k & 1, ones >> k & 1) {
                                (1, _) => ins[k],
                                (_, 0) => zero,
                                _ => one,
                            })
                            .collect()
                    };
                    let (a, b) = (bits("a", ra), bits("b", rb));
                    let s = build(&mut nl, &a, &b, if cin_one { one } else { zero });
                    nl.output("s", s);
                    nl.check().unwrap();
                    for x in 0..(1u64 << w) {
                        for y in 0..(1u64 << w) {
                            let out = nl
                                .simulate(&[BitVec::from_u64(w, x), BitVec::from_u64(w, y)])
                                .unwrap();
                            let (xa, yb) = (x & ra.0 | ra.1, y & rb.0 | rb.1);
                            let expected = (xa + yb + u64::from(cin_one)) & ((1 << w) - 1);
                            assert_eq!(
                                out[0].to_u64(),
                                Some(expected),
                                "w={w} cin={cin_one} rows {ra:?} {rb:?}: {xa}+{yb}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn adders_emit_no_dead_gate() {
        // Every gate of a final adder on free rows reaches a sum bit: no
        // overflow carry, no prefix cell outside the carries' cone.
        for (name, build) in ["ripple", "kogge-stone", "carry-select"].into_iter().zip(ADDERS) {
            for w in 1..=64usize {
                for cin_one in [false, true] {
                    let mut nl = Netlist::new();
                    let a = nl.input("a", w);
                    let b = nl.input("b", w);
                    let cin = if cin_one { nl.const1() } else { nl.const0() };
                    let s = build(&mut nl, &a, &b, cin);
                    nl.output("s", s);
                    let emitted = nl.num_gates();
                    assert_eq!(nl.sweep().num_gates(), emitted, "{name} w={w} cin={cin_one}");
                }
            }
        }
    }

    #[test]
    fn reduction_emits_only_surviving_gates() {
        // Random column matrices with materialized constant ones: every
        // emitted gate reaches a final row and none is one that constant
        // folding would replace. (An XOR with a constant one stays: the
        // fold rule has no inverter to put in its place.)
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for kind in [ReductionKind::Wallace, ReductionKind::Dadda] {
            for trial in 0..60 {
                let width = rng.gen_range(1..=24);
                let mut nl = Netlist::new();
                let mut cols = Columns::new(width);
                for r in 0..rng.gen_range(1..=12) {
                    let row = nl.input(format!("r{r}"), rng.gen_range(1..=width));
                    cols.push_row(&mut nl, rng.gen_range(0..width), &row);
                }
                for _ in 0..rng.gen_range(0..=4) {
                    cols.add_const(rng.gen_range(0..width));
                }
                let (ra, rb, _) = reduce_to_two_rows(&mut nl, cols, kind);
                nl.output("a", ra);
                nl.output("b", rb);
                let emitted = nl.num_gates();
                assert_eq!(nl.sweep().num_gates(), emitted, "{kind:?} trial {trial}: dead gates");
                for g in nl.gate_ids().collect::<Vec<_>>() {
                    let (cell, _) = nl.gate_info(g);
                    let pins = nl.gate_inputs(g).to_vec();
                    let folds = nl.folded(cell, pins[0], pins[pins.len() - 1]);
                    assert_eq!(folds, None, "{kind:?} trial {trial}: {cell} {pins:?} folds");
                }
            }
        }
    }

    #[test]
    fn ripple_carry_exhaustive() {
        exhaustive_add(ripple_carry_add);
    }

    #[test]
    fn kogge_stone_exhaustive() {
        exhaustive_add(kogge_stone_add);
    }

    #[test]
    fn carry_select_exhaustive() {
        exhaustive_add(carry_select_add);
    }

    #[test]
    fn carry_in_works() {
        for builder in ADDERS {
            let mut nl = Netlist::new();
            let a = nl.input("a", 4);
            let b = nl.input("b", 4);
            let one = nl.const1();
            let s = builder(&mut nl, &a, &b, one);
            nl.output("s", s);
            let out = nl.simulate(&[BitVec::from_u64(4, 6), BitVec::from_u64(4, 8)]).unwrap();
            assert_eq!(out[0].to_u64(), Some(15)); // 6 + 8 + 1
        }
    }

    #[test]
    fn kogge_stone_is_shallower_for_wide_adders() {
        use dp_netlist::Library;
        let lib = Library::synthetic_025um();
        let delay = |builder: fn(&mut Netlist, &[NetId], &[NetId], NetId) -> Vec<NetId>| {
            let mut nl = Netlist::new();
            let a = nl.input("a", 24);
            let b = nl.input("b", 24);
            let zero = nl.const0();
            let s = builder(&mut nl, &a, &b, zero);
            nl.output("s", s);
            nl.longest_path(&lib).delay_ns
        };
        let (rca, csel, ks) =
            (delay(ripple_carry_add), delay(carry_select_add), delay(kogge_stone_add));
        assert!(ks < rca * 0.6, "ks {ks} rca {rca}");
        // Carry-select sits between ripple and Kogge-Stone at this width.
        assert!(csel < rca, "csel {csel} rca {rca}");
        assert!(ks < csel, "ks {ks} csel {csel}");
    }

    #[test]
    fn reduction_sums_many_rows() {
        for kind in [ReductionKind::Wallace, ReductionKind::Dadda] {
            let w = 8;
            let mut nl = Netlist::new();
            let rows: Vec<Vec<NetId>> = (0..6).map(|k| nl.input(format!("r{k}"), 5)).collect();
            let mut cols = Columns::new(w);
            for r in &rows {
                cols.push_row(&mut nl, 0, r);
            }
            let (ra, rb, _) = reduce_to_two_rows(&mut nl, cols, kind);
            let zero = nl.const0();
            let s = ripple_carry_add(&mut nl, &ra, &rb, zero);
            nl.output("s", s);
            nl.check().unwrap();
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..200 {
                let vals: Vec<u64> = (0..6).map(|_| rng.gen_range(0..32)).collect();
                let inputs: Vec<BitVec> = vals.iter().map(|&v| BitVec::from_u64(5, v)).collect();
                let out = nl.simulate(&inputs).unwrap();
                let expected = vals.iter().sum::<u64>() & 0xFF;
                assert_eq!(out[0].to_u64(), Some(expected), "{kind:?} {vals:?}");
            }
        }
    }

    #[test]
    fn dadda_uses_no_more_adders_than_wallace() {
        let count_gates = |kind: ReductionKind| {
            let mut nl = Netlist::new();
            let rows: Vec<Vec<NetId>> = (0..9).map(|k| nl.input(format!("r{k}"), 8)).collect();
            let mut cols = Columns::new(10);
            for r in &rows {
                cols.push_row(&mut nl, 0, r);
            }
            let _ = reduce_to_two_rows(&mut nl, cols, kind);
            nl.num_gates()
        };
        assert!(count_gates(ReductionKind::Dadda) <= count_gates(ReductionKind::Wallace));
    }

    #[test]
    fn dadda_height_sequence() {
        assert_eq!(dadda_heights(13), vec![2, 3, 4, 6, 9, 13]);
        assert_eq!(dadda_heights(2), vec![2]);
    }
}
