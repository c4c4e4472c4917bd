//! Flow observability for the datapath-merge workspace.
//!
//! The paper's evaluation (Tables 1–2) is a quality-of-results reporting
//! exercise: every claimed improvement is a measured delay/area/runtime
//! delta. This crate provides the measurement substrate the rest of the
//! workspace records into, with three deliberately small pieces:
//!
//! * [`Recorder`]/[`SpanRecord`] — hierarchical wall-clock timing spans.
//!   Instrumented entry points (`optimize_widths_budgeted_with`,
//!   `refine_clusters_with`, `run_flow_guarded_with`, `dp_verify::verify_with`)
//!   accept a recorder and tag each phase: width-pipeline rounds and passes,
//!   clustering rounds, CSA-tree synthesis, verifier checks. The plain
//!   wrappers pass [`Recorder::disabled`], which costs nothing.
//! * [`FlowMetrics`] — QoR counters for one flow over one design: widths
//!   before/after, cluster/break-node counts, CSA depth, CPA count, gate
//!   count, delay/area, verifier diagnostic counts.
//! * [`Json`] — a hand-rolled, dependency-free, *deterministic* JSON
//!   serializer, so `dpmc bench` reports (`BENCH_*.json`) are diffable
//!   across PRs: object keys keep insertion order, and the only
//!   nondeterministic fields are the span wall-times (`"us"` keys).
//!
//! # Example
//!
//! ```
//! use dp_metrics::{Json, Recorder};
//!
//! let mut rec = Recorder::new();
//! rec.scope("flow", |rec| {
//!     rec.scope("analysis", |_| { /* timed work */ });
//!     rec.scope("synthesis", |_| { /* timed work */ });
//! });
//! let spans = rec.records();
//! assert_eq!(spans.len(), 3);
//! assert_eq!(spans[0].name(), "flow");
//! assert_eq!(spans[1].depth(), 1);
//!
//! // Reports are plain deterministic JSON documents.
//! let doc = Json::obj().field("schema", "example").field("spans", rec.to_json());
//! assert!(doc.render().starts_with("{\"schema\":\"example\""));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod alloc;
mod flow;
mod json;
mod level;
mod span;
mod watchdog;

pub use alloc::{alloc_probe, install_alloc_probe, AllocProbe, AllocStats};
pub use flow::FlowMetrics;
pub use json::Json;
pub use level::Level;
pub use span::{Recorder, SpanId, SpanRecord};
pub use watchdog::{Watchdog, WatchdogTrip};
