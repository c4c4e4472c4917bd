//! The diagnostic model: codes, severities, locations, rendering.

use std::fmt;

use dp_dfg::{Dfg, EdgeId, NodeId, NodeKind};
use dp_netlist::{GateId, NetId};

/// How serious a diagnostic is.
///
/// Ordering is by increasing severity (`Info < Warn < Error`), so reports
/// can be sorted worst-first with `sort_by_key(|d| Reverse(d.severity))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: nothing wrong, but worth knowing.
    Info,
    /// Suspicious but functionally safe (e.g. an optimization fixpoint not
    /// reached).
    Warn,
    /// A soundness or legality violation: the artifact does not satisfy the
    /// paper's invariants.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("info"),
            Severity::Warn => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Every diagnostic code the bundled passes can emit.
///
/// Families: `V` structural validity, `R` required precision, `I`
/// information content, `C` cluster legality, `N` netlist consistency,
/// `A` abstract-interpretation cross-checks.
/// Each code has a fixed [`Severity`] so tooling can rely on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(clippy::upper_case_acronyms)]
pub enum Code {
    /// The graph contains a directed cycle.
    V001,
    /// A node has the wrong number of incoming edges for its kind.
    V002,
    /// Two incoming edges drive the same port.
    V003,
    /// An edge targets a port beyond the node's arity.
    V004,
    /// An output node has outgoing edges.
    V005,
    /// A constant node's width differs from its value's width.
    V006,
    /// Required precision exceeds the node's width: some output needs low
    /// bits the node cannot produce (only sound on optimized graphs, where
    /// Theorem 4.2's clamp guarantees `r(p) <= w(n)`).
    R001,
    /// A node was narrowed below its justified floor
    /// `min(w_baseline, r, i)` — functionality lost relative to the
    /// baseline design.
    R002,
    /// The required-precision clamp is not at a fixpoint: a node or edge is
    /// wider than Theorem 4.2 allows.
    R003,
    /// The width-optimization pipeline hit its round cap before reaching a
    /// fixpoint.
    R004,
    /// Dead operator: no primary output observes any of its bits.
    R005,
    /// An information-content bound is malformed (claims more bits than the
    /// signal has).
    I001,
    /// An edge is wider than its source node: the extension node Lemma 5.6
    /// places between a narrowed operator and its wide consumers is
    /// missing.
    I002,
    /// A node is wider than its intrinsic information content: Lemma 5.6
    /// pruning is not at a fixpoint.
    I003,
    /// An edge is wider than the information it carries and could be safely
    /// narrowed: Lemma 5.7 pruning is not at a fixpoint.
    I004,
    /// An extension node that neither extends nor truncates — a pure wire.
    I005,
    /// The clustering is structurally malformed (overlap, orphan, bad
    /// output, disconnected, bad input edge).
    C001,
    /// A cluster-internal operator feeds a multiplier operand
    /// (Synthesizability Condition 1).
    C002,
    /// A cluster merges across a break node: the break-node audit says the
    /// source of an internal edge must terminate a cluster.
    C003,
    /// A cluster-internal edge truncates real information that a wider
    /// consumer then re-extends (truncate-then-extend inside one sum).
    C004,
    /// A net has no driver.
    N001,
    /// The netlist's port interface differs from the DFG's.
    N003,
    /// A gate drives nothing: not a primary output and no consumers.
    N004,
    /// Cached fanout bookkeeping disagrees with a recount.
    N005,
    /// A demanded bit lies outside the required-precision window: the
    /// backward liveness analysis proves a bit observable that RP claims
    /// dead — one of the two analyses is corrupt.
    A001,
    /// An information-content bound is not entailed by the independently
    /// computed known-bits / interval facts: the ⟨i, t⟩ claim asserts a
    /// value range the forward abstraction refutes.
    A002,
    /// A primary output is provably constant: the design always produces
    /// the same word on that port.
    A003,
    /// Bits inside the required-precision window are provably dead — the
    /// finer per-bit lattice sees slack the contiguous RP window cannot
    /// express.
    A004,
    /// An extension node's fill bits are never demanded downstream: the
    /// extension is statically redundant.
    A005,
    /// A truncation drops observable bits that are not provably redundant —
    /// the narrowing may lose information a primary output can see.
    A006,
    /// An operator provably never wraps (interval proof) although the
    /// information-content analysis could not certify it.
    A007,
}

impl Code {
    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        use Code::*;
        match self {
            V001 | V002 | V003 | V004 | V005 | V006 => Severity::Error,
            R001 | R002 => Severity::Error,
            R003 | R004 => Severity::Warn,
            R005 => Severity::Info,
            I001 | I002 => Severity::Error,
            I003 | I004 => Severity::Warn,
            I005 => Severity::Info,
            C001 | C002 | C003 | C004 => Severity::Error,
            N001 | N003 | N005 => Severity::Error,
            N004 => Severity::Warn,
            A001 | A002 => Severity::Error,
            A003 => Severity::Warn,
            A004 | A005 | A006 | A007 => Severity::Info,
        }
    }

    /// One-line description, as used in the README's code table.
    pub fn describe(self) -> &'static str {
        use Code::*;
        match self {
            V001 => "graph contains a cycle",
            V002 => "wrong operand count for node kind",
            V003 => "port driven more than once",
            V004 => "edge on out-of-range port",
            V005 => "output node has fanout",
            V006 => "constant width mismatch",
            R001 => "required precision exceeds node width",
            R002 => "node narrowed below its justified floor",
            R003 => "required-precision clamp not at fixpoint",
            R004 => "width pipeline hit round cap before fixpoint",
            R005 => "dead operator (required precision 0)",
            I001 => "malformed information-content bound",
            I002 => "edge wider than its source (missing extension node)",
            I003 => "node prunable by information content",
            I004 => "edge prunable by information content",
            I005 => "superfluous extension node",
            C001 => "malformed clustering",
            C002 => "operator feeds a multiplier inside a cluster",
            C003 => "cluster merges across a break node",
            C004 => "truncate-then-extend inside a cluster",
            N001 => "undriven net",
            N003 => "netlist interface differs from the design",
            N004 => "dangling gate",
            N005 => "fanout bookkeeping mismatch",
            A001 => "demanded bit outside the required-precision window",
            A002 => "information-content bound not entailed by forward facts",
            A003 => "primary output is provably constant",
            A004 => "provably dead bits inside the required-precision window",
            A005 => "extension fill bits never demanded (redundant extension)",
            A006 => "truncation drops bits not provably redundant",
            A007 => "operator provably never wraps (interval proof)",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// What a diagnostic is anchored to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// A DFG node.
    Node(NodeId),
    /// A DFG edge.
    Edge(EdgeId),
    /// A cluster, by index into `Clustering::clusters`.
    Cluster(usize),
    /// A netlist net.
    Net(NetId),
    /// A netlist gate.
    Gate(GateId),
    /// The whole artifact.
    Global,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Node(n) => write!(f, "{n}"),
            Location::Edge(e) => write!(f, "{e}"),
            Location::Cluster(k) => write!(f, "cluster {k}"),
            Location::Net(n) => write!(f, "net {n}"),
            Location::Gate(g) => write!(f, "gate {g}"),
            Location::Global => f.write_str("design"),
        }
    }
}

/// One finding from a verifier pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code (fixes the severity).
    pub code: Code,
    /// Where the problem is.
    pub location: Location,
    /// Human-readable explanation with the concrete numbers.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic; the severity comes from the code.
    pub fn new(code: Code, location: Location, message: impl Into<String>) -> Self {
        Diagnostic { code, location, message: message.into() }
    }

    /// The severity of this diagnostic (fixed per code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders `severity[code] location: message`, naming the node when the
    /// graph knows a name for it.
    pub fn render(&self, g: &Dfg) -> String {
        let loc = match self.location {
            Location::Node(n) if n.index() < g.num_nodes() => {
                let node = g.node(n);
                match node.name() {
                    Some(name) => format!("{n} `{name}`"),
                    None => match node.kind() {
                        NodeKind::Op(op) => format!("{n} ({op})"),
                        NodeKind::Extension(_) => format!("{n} (extension)"),
                        _ => format!("{n}"),
                    },
                }
            }
            other => other.to_string(),
        };
        format!("{}[{}] {loc}: {}", self.severity(), self.code, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_worst_last() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn codes_render_and_describe() {
        assert_eq!(Code::R001.to_string(), "R001");
        assert_eq!(Code::R001.severity(), Severity::Error);
        assert_eq!(Code::R004.severity(), Severity::Warn);
        assert_eq!(Code::R005.severity(), Severity::Info);
        assert!(!Code::C003.describe().is_empty());
    }

    #[test]
    fn diagnostic_renders_with_node_name() {
        let mut g = Dfg::new();
        let a = g.input("acc", 4);
        let d = Diagnostic::new(Code::R001, Location::Node(a), "test message");
        let s = d.render(&g);
        assert!(s.contains("error[R001]"), "{s}");
        assert!(s.contains("`acc`"), "{s}");
        assert!(s.contains("test message"), "{s}");
    }
}
