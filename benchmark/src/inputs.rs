//! Seeded workload inputs: designs rendered as DSL text.
//!
//! The program receives only DSL text (the `dpmc` input format), so
//! parsing is part of what the benchmark measures. Rendering is done here
//! rather than with `dsl::to_dsl`, because the benchmark needs control of
//! two things that function does not give: input and output declaration
//! order is kept (it is the positional interface), and a *renamed*
//! variant can list the interior nodes in another topological order with
//! other names, which leaves the canonical hash unchanged.

use datapath_merge::dfg::gen::{random_dfg, GenConfig};
use datapath_merge::dfg::{Dfg, EdgeId, NodeId, NodeKind, OpKind};
use datapath_merge::testcases::{csd, families, named_design};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One design as the program receives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSrc {
    /// Stable identifier, used to name failed operations.
    pub id: String,
    /// The design in the DSL.
    pub dsl: String,
}

/// A generator seed derived from the run seed and a slot label, so each
/// draw has its own independent stream.
pub fn sub_seed(seed: u64, label: &str) -> u64 {
    // FNV-1a over the label, mixed with the seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Renders `g` as DSL text. Inputs come first and outputs last, each in
/// declaration order. With `shuffle`, the interior nodes are listed in a
/// random topological order and every name gets the given prefix;
/// without it they are listed in node-id order.
pub fn render(g: &Dfg, prefix: &str, shuffle: Option<&mut StdRng>) -> Result<String, String> {
    let name = |n: NodeId| -> String {
        match g.node(n).kind() {
            NodeKind::Input => {
                let k = g.inputs().iter().position(|&i| i == n).unwrap_or(0);
                format!("{prefix}i{k}")
            }
            NodeKind::Output => {
                let k = g.outputs().iter().position(|&o| o == n).unwrap_or(0);
                format!("{prefix}o{k}")
            }
            _ => format!("{prefix}v{}", n.index()),
        }
    };
    let operand = |e: EdgeId| -> String {
        let edge = g.edge(e);
        let t = if edge.signedness().is_signed() { "s" } else { "u" };
        format!("{}:{t}/{}", name(edge.src()), edge.width())
    };
    let interior: Vec<NodeId> = g
        .node_ids()
        .filter(|&n| !matches!(g.node(n).kind(), NodeKind::Input | NodeKind::Output))
        .collect();
    let order = match shuffle {
        None => interior,
        Some(rng) => random_topo_order(g, &interior, rng),
    };
    let mut s = String::new();
    for &n in g.inputs() {
        s.push_str(&format!("input {} {}\n", name(n), g.node(n).width()));
    }
    for n in order {
        let node = g.node(n);
        match node.kind() {
            NodeKind::Const(v) => s.push_str(&format!("const {} = {v}\n", name(n))),
            NodeKind::Op(op) => {
                let opname = match op {
                    OpKind::Add => "add".to_string(),
                    OpKind::Sub => "sub".to_string(),
                    OpKind::Neg => "neg".to_string(),
                    OpKind::Mul => "mul".to_string(),
                    OpKind::Shl(k) => format!("shl{k}"),
                };
                let mut edges = node.in_edges().to_vec();
                edges.sort_by_key(|&e| g.edge(e).dst_port());
                let ops: Vec<String> = edges.into_iter().map(operand).collect();
                s.push_str(&format!("{} = {opname} {} {}\n", name(n), node.width(), ops.join(" ")));
            }
            NodeKind::Extension(_) => return Err("extension nodes have no DSL form".into()),
            NodeKind::Input | NodeKind::Output => {}
        }
    }
    for &o in g.outputs() {
        let e = g.node(o).in_edges()[0];
        s.push_str(&format!("output {} {} {}\n", name(o), g.node(o).width(), operand(e)));
    }
    Ok(s)
}

/// A random topological order of `nodes` (every source outside the set
/// counts as already placed).
fn random_topo_order(g: &Dfg, nodes: &[NodeId], rng: &mut StdRng) -> Vec<NodeId> {
    let mut in_set = vec![false; g.num_nodes()];
    for &n in nodes {
        in_set[n.index()] = true;
    }
    let mut pending = vec![0usize; g.num_nodes()];
    for &n in nodes {
        pending[n.index()] =
            g.node(n).in_edges().iter().filter(|&&e| in_set[g.edge(e).src().index()]).count();
    }
    let mut ready: Vec<NodeId> =
        nodes.iter().copied().filter(|n| pending[n.index()] == 0).collect();
    let mut order = Vec::with_capacity(nodes.len());
    while !ready.is_empty() {
        let pick = ready.swap_remove(rng.gen_range(0..ready.len()));
        order.push(pick);
        for &e in g.node(pick).out_edges() {
            let d = g.edge(e).dst();
            if in_set[d.index()] {
                pending[d.index()] -= 1;
                if pending[d.index()] == 0 {
                    ready.push(d);
                }
            }
        }
    }
    order
}

/// A family member of the paper-kernels grid: its id and its graph.
pub type Member = (String, Dfg);

/// The datapath families and their size slots. Each slot has a fixed
/// size; the seed draws the operand width (the slot's base width −1, +0
/// or +1) and, for the two FIR families, one of 16 coefficient sets. The
/// sizes are fixed so that the per-round QoR sums stay comparable across
/// seeds; the whole grid is checked by the `grid_members_*` self-test.
pub const FAMILIES: [&str; 7] =
    ["adder_chain", "adder_tree", "dot_product", "fir", "redundant_dot", "csd_fir", "complex_mul"];

/// Size slots per family: `(size, base width)`.
fn slots(family: &str) -> [(usize, usize); 3] {
    match family {
        "adder_chain" => [(6, 8), (12, 12), (24, 16)],
        "adder_tree" => [(8, 8), (16, 12), (32, 16)],
        "dot_product" => [(4, 6), (8, 8), (16, 12)],
        "fir" => [(4, 8), (8, 10), (16, 12)],
        "redundant_dot" => [(4, 6), (8, 8), (12, 10)],
        "csd_fir" => [(4, 8), (8, 10), (12, 12)],
        _ => [(1, 6), (1, 10), (1, 16)],
    }
}

/// Coefficient sets per FIR slot.
pub const COEFF_SETS: u64 = 16;

/// Builds one grid member.
pub fn member(family: &str, slot: usize, dw: i64, coeffs: u64) -> Member {
    let (n, base) = slots(family)[slot];
    let w = (base as i64 + dw) as usize;
    let g = match family {
        "adder_chain" => families::adder_chain(n, w),
        "adder_tree" => families::adder_tree(n, w),
        "dot_product" => families::dot_product(n, w),
        "fir" => families::fir_filter(n, w, 6, coeffs),
        "redundant_dot" => families::redundant_dot_product(n, w, 2 * w + 8),
        "csd_fir" => csd::multiplierless_fir(n, w, 8, coeffs),
        _ => families::complex_multiplier(w),
    };
    let id = match family {
        "fir" | "csd_fir" => format!("{family}/n{n}/w{w}/c{coeffs}"),
        "complex_mul" => format!("{family}/w{w}"),
        _ => format!("{family}/n{n}/w{w}"),
    };
    (id, g)
}

/// Every member of the grid (for the self-test).
#[cfg(test)]
pub fn grid() -> Vec<Member> {
    let mut all = Vec::new();
    for family in FAMILIES {
        let coeffs = if matches!(family, "fir" | "csd_fir") { COEFF_SETS } else { 1 };
        for slot in 0..3 {
            for dw in -1..=1 {
                for c in 0..coeffs {
                    all.push(member(family, slot, dw, c));
                }
            }
        }
    }
    all
}

/// `per_slot` seeded draws for every size slot of every family.
pub fn grid_draws(seed: u64, label: &str, per_slot: usize) -> Vec<Member> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, label));
    let mut out = Vec::new();
    for family in FAMILIES {
        for slot in 0..3 {
            for _ in 0..per_slot {
                let dw = rng.gen_range(-1i64..=1);
                let c = rng.gen_range(0..COEFF_SETS);
                let c = if matches!(family, "fir" | "csd_fir") { c } else { 0 };
                out.push(member(family, slot, dw, c));
            }
        }
    }
    out
}

/// Renders named graphs in node-id order with plain names.
pub fn render_all(members: Vec<Member>) -> Vec<DesignSrc> {
    members
        .into_iter()
        .map(|(id, g)| {
            let dsl = render(&g, "", None).expect("generated designs have no extension nodes");
            DesignSrc { id, dsl }
        })
        .collect()
}

/// The paper's figures and its five evaluation designs.
pub const PAPER_DESIGNS: [&str; 9] = ["fig1", "fig2", "fig3", "fig4", "D1", "D2", "D3", "D4", "D5"];

/// The paper-kernels designs: the nine fixed paper designs, then three
/// seeded draws per family size slot (63). Three per slot keep the
/// per-round QoR sums and the latency median steady across seeds.
pub fn paper_kernels(seed: u64) -> Vec<DesignSrc> {
    let mut members: Vec<Member> = PAPER_DESIGNS
        .iter()
        .map(|&n| (n.to_string(), named_design(n).expect("paper designs are built in")))
        .collect();
    members.extend(grid_draws(seed, "paper-kernels", 3));
    render_all(members)
}

/// Operator counts of the seeded scale draws. With S1000 and S10k a
/// round is seven operations: an odd count puts the latency median on
/// one operation (the 4000-operator draw) instead of between two.
pub const SCALE_DRAW_OPS: [usize; 5] = [1000, 2000, 4000, 6000, 8000];

/// One seeded `random_dfg` draw with the scaling family's settings (24-bit
/// width cap, 5 % multipliers, one input per ten operators).
pub fn scale_draw(seed: u64, ops: usize) -> Dfg {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, &format!("scale-{ops}")));
    let config = GenConfig {
        num_ops: ops,
        num_inputs: (ops / 10).max(4),
        max_width: 24,
        mul_weight: 0.05,
        ..GenConfig::default()
    };
    random_dfg(&mut rng, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datapath_merge::dfg::canonical_form;
    use datapath_merge::dsl::parse_design;

    #[test]
    fn a_seed_always_yields_the_same_inputs() {
        assert_eq!(paper_kernels(7), paper_kernels(7));
        assert_ne!(paper_kernels(7), paper_kernels(8));
        let a = render(&scale_draw(3, 1000), "", None).unwrap();
        let b = render(&scale_draw(3, 1000), "", None).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, render(&scale_draw(4, 1000), "", None).unwrap());
    }

    #[test]
    fn rendering_round_trips_and_renaming_keeps_the_canonical_hash() {
        let mut rng = StdRng::seed_from_u64(5);
        for (id, g) in
            grid_draws(11, "t", 1).into_iter().chain([("S64".into(), named_design("S64").unwrap())])
        {
            let plain = parse_design(&render(&g, "", None).unwrap()).unwrap();
            let renamed = render(&g, "zq", Some(&mut rng)).unwrap();
            let other = parse_design(&renamed).unwrap();
            let h = canonical_form(&g).hash;
            assert_eq!(canonical_form(&plain).hash, h, "{id}");
            assert_eq!(canonical_form(&other).hash, h, "{id}");
        }
    }
}
