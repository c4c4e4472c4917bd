//! The synthetic standard-cell library.

use std::fmt;

/// Combinational cell types available to synthesis.
///
/// Half/full adders are deliberately *not* primitive cells: the
/// synthesizer composes them from these gates, which gives static timing
/// and the optimizer a realistic per-gate granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer (used by the optimizer to split heavy fanout).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
}

impl CellKind {
    /// Number of input pins.
    pub fn arity(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf => 1,
            _ => 2,
        }
    }

    /// All cell kinds.
    pub const ALL: [CellKind; 8] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
    ];

    /// The boolean function of the cell.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            CellKind::Inv => !a,
            CellKind::Buf => a,
            CellKind::Nand2 => !(a && b),
            CellKind::Nor2 => !(a || b),
            CellKind::And2 => a && b,
            CellKind::Or2 => a || b,
            CellKind::Xor2 => a ^ b,
            CellKind::Xnor2 => !(a ^ b),
        }
    }

    /// The boolean function of the cell applied to 64 lanes at once: bit
    /// `l` of each word is the value of that pin in simulation lane `l`,
    /// so one call evaluates the gate under 64 independent input vectors
    /// (the word-parallel encoding of `DESIGN.md` §13).
    ///
    /// ```
    /// use dp_netlist::CellKind;
    /// // Lane 0: 1 NAND 1 = 0; lane 1: 1 NAND 0 = 1.
    /// assert_eq!(CellKind::Nand2.eval_word(0b11, 0b01) & 0b11, 0b10);
    /// ```
    #[inline]
    pub fn eval_word(self, a: u64, b: u64) -> u64 {
        match self {
            CellKind::Inv => !a,
            CellKind::Buf => a,
            CellKind::Nand2 => !(a & b),
            CellKind::Nor2 => !(a | b),
            CellKind::And2 => a & b,
            CellKind::Or2 => a | b,
            CellKind::Xor2 => a ^ b,
            CellKind::Xnor2 => !(a ^ b),
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
        };
        f.write_str(s)
    }
}

/// Drive strength of a gate instance. Larger drives push load faster at an
/// area premium — the lever the timing-driven optimizer pulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Drive {
    /// Unit drive.
    X1,
    /// Double drive.
    X2,
    /// Quadruple drive.
    X4,
}

impl Drive {
    /// All drive strengths, weakest first.
    pub const ALL: [Drive; 3] = [Drive::X1, Drive::X2, Drive::X4];

    /// The numeric drive factor.
    pub fn factor(self) -> f64 {
        match self {
            Drive::X1 => 1.0,
            Drive::X2 => 2.0,
            Drive::X4 => 4.0,
        }
    }

    /// Area multiplier relative to X1.
    pub fn area_factor(self) -> f64 {
        match self {
            Drive::X1 => 1.0,
            Drive::X2 => 1.4,
            Drive::X4 => 2.0,
        }
    }

    /// The next stronger drive, if any.
    pub fn upsize(self) -> Option<Drive> {
        match self {
            Drive::X1 => Some(Drive::X2),
            Drive::X2 => Some(Drive::X4),
            Drive::X4 => None,
        }
    }
}

impl fmt::Display for Drive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drive::X1 => f.write_str("X1"),
            Drive::X2 => f.write_str("X2"),
            Drive::X4 => f.write_str("X4"),
        }
    }
}

/// Timing/area characterization of one cell kind at unit drive.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellSpec {
    /// Intrinsic delay, nanoseconds.
    intrinsic_ns: f64,
    /// Extra delay per unit of fanout load at X1 drive, nanoseconds.
    load_ns_per_fanout: f64,
    /// Area, normalized units.
    area: f64,
}

/// A characterized cell library.
///
/// Delay model: `delay = intrinsic + load_slope * fanout / drive`, a
/// standard linear-load approximation. Area:
/// `area = base_area * drive_area_factor`.
#[derive(Debug, Clone)]
pub struct Library {
    specs: [CellSpec; 8],
    name: String,
}

impl Library {
    /// The default synthetic library with 0.25 µm-plausible numbers.
    ///
    /// ```
    /// use dp_netlist::{CellKind, Drive, Library};
    /// let lib = Library::synthetic_025um();
    /// // An XOR is slower and bigger than a NAND.
    /// assert!(lib.delay_ns(CellKind::Xor2, Drive::X1, 1) > lib.delay_ns(CellKind::Nand2, Drive::X1, 1));
    /// assert!(lib.area(CellKind::Xor2, Drive::X1) > lib.area(CellKind::Nand2, Drive::X1));
    /// ```
    pub fn synthetic_025um() -> Self {
        // Order matches CellKind::ALL.
        let specs = [
            CellSpec { intrinsic_ns: 0.040, load_ns_per_fanout: 0.012, area: 1.0 }, // INV
            CellSpec { intrinsic_ns: 0.080, load_ns_per_fanout: 0.008, area: 1.5 }, // BUF
            CellSpec { intrinsic_ns: 0.060, load_ns_per_fanout: 0.014, area: 1.3 }, // NAND2
            CellSpec { intrinsic_ns: 0.070, load_ns_per_fanout: 0.016, area: 1.3 }, // NOR2
            CellSpec { intrinsic_ns: 0.095, load_ns_per_fanout: 0.014, area: 1.8 }, // AND2
            CellSpec { intrinsic_ns: 0.100, load_ns_per_fanout: 0.015, area: 1.8 }, // OR2
            CellSpec { intrinsic_ns: 0.140, load_ns_per_fanout: 0.018, area: 2.7 }, // XOR2
            CellSpec { intrinsic_ns: 0.145, load_ns_per_fanout: 0.018, area: 2.7 }, // XNOR2
        ];
        Library { specs, name: "synthetic-0.25um".to_string() }
    }

    /// The library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn spec(&self, kind: CellKind) -> CellSpec {
        let idx = CellKind::ALL.iter().position(|&k| k == kind).expect("all kinds listed");
        self.specs[idx]
    }

    /// Gate delay in nanoseconds for a given drive and output fanout.
    /// A dangling output still drives one unit of load.
    pub fn delay_ns(&self, kind: CellKind, drive: Drive, fanout: usize) -> f64 {
        let spec = self.spec(kind);
        spec.intrinsic_ns + spec.load_ns_per_fanout * (fanout.max(1) as f64) / drive.factor()
    }

    /// Cell area in normalized units.
    pub fn area(&self, kind: CellKind, drive: Drive) -> f64 {
        self.spec(kind).area * drive.area_factor()
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::synthetic_025um()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_truth_tables() {
        use CellKind::*;
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(Nand2.eval(a, b), !(a & b));
            assert_eq!(Nor2.eval(a, b), !(a | b));
            assert_eq!(And2.eval(a, b), a & b);
            assert_eq!(Or2.eval(a, b), a | b);
            assert_eq!(Xor2.eval(a, b), a ^ b);
            assert_eq!(Xnor2.eval(a, b), !(a ^ b));
        }
        assert!(Inv.eval(false, false));
        assert!(Buf.eval(true, false));
    }

    #[test]
    fn upsizing_reduces_loaded_delay_and_increases_area() {
        let lib = Library::synthetic_025um();
        for kind in CellKind::ALL {
            let d1 = lib.delay_ns(kind, Drive::X1, 8);
            let d2 = lib.delay_ns(kind, Drive::X2, 8);
            let d4 = lib.delay_ns(kind, Drive::X4, 8);
            assert!(d1 > d2 && d2 > d4, "{kind}");
            let a1 = lib.area(kind, Drive::X1);
            let a4 = lib.area(kind, Drive::X4);
            assert!(a4 > a1, "{kind}");
        }
    }

    #[test]
    fn fanout_increases_delay() {
        let lib = Library::synthetic_025um();
        assert!(
            lib.delay_ns(CellKind::Nand2, Drive::X1, 10)
                > lib.delay_ns(CellKind::Nand2, Drive::X1, 1)
        );
        // Dangling outputs count as one load.
        assert_eq!(
            lib.delay_ns(CellKind::Nand2, Drive::X1, 0),
            lib.delay_ns(CellKind::Nand2, Drive::X1, 1)
        );
    }

    #[test]
    fn drive_ladder() {
        assert_eq!(Drive::X1.upsize(), Some(Drive::X2));
        assert_eq!(Drive::X2.upsize(), Some(Drive::X4));
        assert_eq!(Drive::X4.upsize(), None);
        assert_eq!(Drive::X2.to_string(), "X2");
    }

    #[test]
    fn arity() {
        assert_eq!(CellKind::Inv.arity(), 1);
        assert_eq!(CellKind::Xor2.arity(), 2);
    }
}
