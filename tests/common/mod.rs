//! Helpers shared by the integration tests.

use datapath_merge::prelude::*;

/// The flow of a guarded run that must not have degraded. A test that
/// checks the netlist against the design would otherwise pass silently on
/// a broken stage whose artifact the guard replaced with a fallback.
pub fn healthy(guarded: GuardedFlow) -> FlowResult {
    if let Some(d) = &guarded.degradation {
        panic!("the {} flow degraded:\n{}", guarded.flow.strategy, d.render());
    }
    guarded.flow
}
