//! # datapath-merge
//!
//! A complete, from-scratch reproduction of the DAC 2001 paper
//! *Improved Merging of Datapath Operators using Information Content and
//! Required Precision Analysis* (Anmol Mathur and Sanjeev Saluja, Cadence
//! Design Systems).
//!
//! The paper improves **operator merging** for datapath synthesis:
//! clustering `+`, `-`, unary `-` and `×` operators so each cluster is
//! implemented as a single carry-save reduction tree with one final
//! carry-propagate adder. Its contributions — **required precision**
//! (which low bits of a signal downstream outputs can observe),
//! **information content** (how many low bits determine a signal under
//! sign/zero extension), width-pruning transformations, **Huffman
//! rebalancing** of bound computations, and an iterative maximal
//! clustering algorithm — are all implemented here, together with every
//! substrate the evaluation needs: a bit-accurate DFG model, a CSA-tree
//! synthesizer, a synthetic standard-cell library with static timing, and
//! a timing-driven gate optimizer.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bitvec`] | `dp-bitvec` | arbitrary-precision two's-complement bit vectors |
//! | [`dfg`] | `dp-dfg` | data-flow-graph model + bit-accurate evaluator |
//! | [`analysis`] | `dp-analysis` | required precision, information content, pruning, Huffman |
//! | [`absint`] | `dp-absint` | known-bits/interval + demanded-bits abstract interpretation (`dpmc analyze`) |
//! | [`merge`] | `dp-merge` | break nodes, clustering (new/old/none), sum-of-addends |
//! | [`netlist`] | `dp-netlist` | gate-level netlists, cell library, STA, simulation |
//! | [`synth`] | `dp-synth` | partial products, CSA trees, final adders, flows |
//! | [`opt`] | `dp-opt` | timing-driven sizing/buffering/folding optimizer |
//! | [`testcases`] | `dp-testcases` | the D1–D5 designs, paper figures, workload families |
//! | [`verify`] | `dp-verify` | pass-based semantic verifier and diagnostics (`dpmc lint`) |
//! | [`metrics`] | `dp-metrics` | timing spans, QoR counters, deterministic JSON (`dpmc bench`) |
//! | [`trace`] | `dp-trace` | decision-provenance event log (`dpmc explain`, `dpmc dot --annotate`) |
//! | [`fault`] | `dp-fault` | deterministic fault injection and detect-or-degrade checking (`dpmc faultcheck`) |
//! | [`obs`] | `dp-obs` | streaming telemetry events, counting allocator, self-profiling (`dpmc profile`, `--events`) |
//! | [`serve`] | `dp-serve` | supervised synthesis service, worker pool, content-addressed artifact store (`dpmc serve`) |
//!
//! # Quickstart
//!
//! ```
//! use datapath_merge::prelude::*;
//!
//! // The paper's flagship example: a*b + c*d in one cluster, one CPA.
//! let mut g = Dfg::new();
//! let a = g.input("a", 8);
//! let b = g.input("b", 8);
//! let c = g.input("c", 8);
//! let d = g.input("d", 8);
//! let m1 = g.op(OpKind::Mul, 16, &[(a, Signedness::Signed), (b, Signedness::Signed)]);
//! let m2 = g.op(OpKind::Mul, 16, &[(c, Signedness::Signed), (d, Signedness::Signed)]);
//! let s = g.op(OpKind::Add, 17, &[(m1, Signedness::Signed), (m2, Signedness::Signed)]);
//! g.output("r", 17, s, Signedness::Signed);
//!
//! // The one flow driver: widths, clustering and synthesis, each stage
//! // audited before the next builds on it.
//! let guarded = run_flow_guarded(
//!     &g,
//!     MergeStrategy::New,
//!     &SynthConfig::default(),
//!     &FlowBudget::default(),
//! )?;
//! assert!(guarded.degradation.is_none());
//! assert_eq!(guarded.flow.clustering.len(), 1);
//!
//! // The one post-flow stage: fold constants, sweep dead gates, time the
//! // final netlist. Every QoR figure is measured on what it returns.
//! let lib = Library::synthetic_025um();
//! let done = finish(guarded.flow.netlist, &lib, &mut Recorder::disabled(), &Watchdog::disabled())
//!     .expect("an unarmed watchdog never trips");
//! println!("delay {:.2} ns, area {:.1}", done.delay_ns, done.area);
//! # Ok::<(), dp_synth::SynthError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod driver;
pub mod dsl;
pub mod error;
pub mod explain;

pub use dp_fault as fault;

pub use dp_absint as absint;
pub use dp_analysis as analysis;
pub use dp_bitvec as bitvec;
pub use dp_dfg as dfg;
pub use dp_merge as merge;
pub use dp_metrics as metrics;
pub use dp_netlist as netlist;
pub use dp_obs as obs;
pub use dp_opt as opt;
pub use dp_serve as serve;
pub use dp_synth as synth;
pub use dp_testcases as testcases;
pub use dp_trace as trace;
pub use dp_verify as verify;

/// The most commonly used items in one import.
pub mod prelude {
    pub use dp_absint::{AbsVal, AbsintReport, DemandAnalysis, ForwardAnalysis, KnownBits};
    pub use dp_analysis::{
        huffman_bound, info_content, optimize_widths, required_precision, Ic, Pass, Term,
    };
    pub use dp_bitvec::{BitVec, Signedness};
    pub use dp_dfg::{Dfg, EdgeId, NodeId, OpKind};
    pub use dp_merge::{
        cluster_leakage, cluster_max, cluster_none, linearize_cluster, Cluster, Clustering,
    };
    pub use dp_metrics::{FlowMetrics, Json, Level, Recorder, Watchdog};
    pub use dp_netlist::{CellKind, Drive, Library, Netlist};
    pub use dp_opt::{finish, optimize, Finished, OptConfig};
    pub use dp_synth::{
        run_flow_guarded, run_flow_guarded_with, synthesize, AdderKind, DegradationReport, Equiv,
        FlowBudget, FlowResult, GuardedFlow, MergeStrategy, Mismatch, ReductionKind, SynthConfig,
    };
    pub use dp_trace::{EventId, Rule, Subject, TraceEvent, TraceLog};
    pub use dp_verify::{verify, Code, Context, Diagnostic, Severity, VerifyReport};
}
