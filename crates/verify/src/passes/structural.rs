//! `V0xx`: structural validity of the DFG, mapped from [`Dfg::validate`].
//!
//! [`Dfg::validate`]: dp_dfg::Dfg::validate

use dp_dfg::ValidateError;

use crate::{Code, Context, Diagnostic, Location};

/// Reports every defect [`dp_dfg::Dfg::validate`] finds as a `V0xx`
/// diagnostic and returns whether the graph is valid. This is the only
/// check that runs on an *invalid* graph — the others are skipped so they
/// never panic inside an analysis.
pub(crate) fn check(cx: &Context<'_>, out: &mut Vec<Diagnostic>) -> bool {
    let Err(errors) = cx.graph.validate() else {
        return true;
    };
    for e in &errors {
        let code = match e {
            ValidateError::Cyclic => Code::V001,
            ValidateError::BadInDegree { .. } => Code::V002,
            ValidateError::DuplicatePort { .. } => Code::V003,
            ValidateError::PortOutOfRange { .. } => Code::V004,
            ValidateError::OutputHasFanout { .. } => Code::V005,
            ValidateError::ConstWidthMismatch { .. } => Code::V006,
        };
        let location = match e.node_id() {
            Some(n) => Location::Node(n),
            None => Location::Global,
        };
        out.push(Diagnostic::new(code, location, e.to_string()));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_bitvec::Signedness::Unsigned;
    use dp_dfg::{Dfg, OpKind};

    #[test]
    fn broken_graph_yields_v_codes_and_skips_analyses() {
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let n = g.op(OpKind::Add, 4, &[(a, Unsigned), (a, Unsigned)]);
        g.connect(n, n, 0, 4, Unsigned); // cycle + arity defect
        let report = crate::verify(&Context::new(&g).optimized(true));
        assert!(report.has_code(Code::V001), "{report:?}");
        assert!(report.has_code(Code::V002), "{report:?}");
        assert!(report.has_errors());
        // No R/I diagnostics: those checks must have been skipped.
        assert!(report.diagnostics().iter().all(|d| format!("{}", d.code).starts_with('V')));
    }

    #[test]
    fn valid_graph_is_silent() {
        let mut g = Dfg::new();
        let a = g.input("a", 4);
        let n = g.op(OpKind::Neg, 5, &[(a, Unsigned)]);
        g.output("o", 5, n, Unsigned);
        let mut out = Vec::new();
        assert!(check(&Context::new(&g), &mut out));
        assert!(out.is_empty());
    }
}
