//! `A0xx`: abstract-interpretation cross-checks (dp-absint).
//!
//! The check recomputes the forward known-bits/interval and backward
//! demanded-bits analyses from scratch and audits the RP/IC flow against
//! them:
//!
//! - **A001** (error): a demanded bit lies outside the required-precision
//!   window — the per-bit liveness proof contradicts Theorem 4.2's
//!   contiguous window.
//! - **A002** (error): an information-content bound ⟨i, t⟩ is not entailed
//!   by the forward abstract value of the same signal — the claim admits
//!   values the signal cannot take (e.g. a tampered bound).
//! - **A003** (warning): a primary output is provably constant.
//! - **A004** (info): bits inside the RP window are provably dead — slack
//!   the contiguous window cannot express.
//! - **A005** (info): an extension node's fill bits are never demanded.
//! - **A006** (info): a truncation drops observed bits that are not
//!   provably redundant.
//! - **A007** (info): interval analysis proves an operator never wraps
//!   where the IC intrinsic bound alone could not.
//!
//! When [`Context::ic_overrides`] is set, the audited IC analysis is the
//! one computed *under those overrides* — this is how a Huffman-refined
//! (or fault-injected) bound gets checked rather than silently replaced by
//! a recomputation.

use dp_absint::{analyze, analyze_with, FindingKind, Place};

use crate::{Code, Context, Diagnostic, Location};

/// The `A0xx` code (and so the severity) of each dp-absint finding kind.
pub fn finding_code(kind: FindingKind) -> Code {
    match kind {
        FindingKind::DemandOutsideRp => Code::A001,
        FindingKind::IcNotEntailed => Code::A002,
        FindingKind::ConstantOutput => Code::A003,
        FindingKind::HiddenDeadBits => Code::A004,
        FindingKind::RedundantExtension => Code::A005,
        FindingKind::LossyTruncation => Code::A006,
        FindingKind::NoOverflow => Code::A007,
    }
}

/// Abstract-interpretation cross-checker (see the module docs for the code
/// list).
pub(crate) fn check(cx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let g = cx.graph;
    let (_, _, report) = match cx.ic_overrides {
        Some(overrides) => analyze_with(g, overrides),
        None => analyze(g),
    };
    for f in report.findings {
        let code = finding_code(f.kind);
        let location = match f.place {
            Place::Node(n) => Location::Node(n),
            Place::Edge(e) => Location::Edge(e),
        };
        out.push(Diagnostic::new(code, location, f.message));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_analysis::{Ic, IntrinsicOverrides};
    use dp_bitvec::Signedness::Unsigned;
    use dp_dfg::{Dfg, OpKind};

    fn sample() -> Dfg {
        let mut g = Dfg::new();
        let a = g.input("a", 8);
        let b = g.input("b", 8);
        let m = g.op(OpKind::Mul, 16, &[(a, Unsigned), (b, Unsigned)]);
        g.output("o", 16, m, Unsigned);
        g
    }

    #[test]
    fn sound_design_has_no_a_family_errors() {
        let g = sample();
        let report = crate::verify(&Context::new(&g));
        assert!(!report.has_code(Code::A001), "{}", report.render(&g));
        assert!(!report.has_code(Code::A002), "{}", report.render(&g));
    }

    #[test]
    fn lying_override_raises_a002() {
        let g = sample();
        let target = g.op_nodes().next().expect("has an op");
        let mut overrides = IntrinsicOverrides::new();
        overrides.insert(target, Ic::new(1, Unsigned));
        let report = crate::verify(&Context::new(&g).ic_overrides(&overrides));
        assert!(report.has_code(Code::A002), "{}", report.render(&g));
        assert!(report.has_errors());
    }
}
