//! `dpmc` — the datapath merge compiler.
//!
//! Reads a design in the [`datapath_merge::dsl`] text format, runs the
//! requested merging flow, and reports clusters, delay and area; can also
//! emit structural Verilog and Graphviz DOT, run the timing-driven
//! optimizer, and self-check the netlist against the design.
//!
//! ```text
//! dpmc design.dp [--flow new|old|none|all] [--adder ks|csel|ripple]
//!      [--reduction dadda|wallace] [--no-compress]
//!      [--optimize TARGET_NS] [--emit-verilog FILE] [--emit-dot FILE]
//!      [--check N]
//! dpmc lint design.dp [--deny-warnings] [--json]
//! dpmc analyze [<design.dp>] [--designs all|NAME,...] [--json]
//!      [--corrupt-ic SEED]
//! dpmc explain design.dp [--node N | --port P] [--json]
//! dpmc dot design.dp [--annotate] [--out FILE]
//! dpmc bench [--designs all|NAME,NAME,...] [--jobs N] [--out FILE]
//!      [--compare BASELINE.json] [--max-regress-pct N]
//!      [--events FILE] [--telemetry off|counters|full]
//! dpmc profile <design> [--json] [--top N] [--stacks FILE]
//!      [--overhead-gate PCT]
//! dpmc faultcheck [<design.dp>] [--designs all|NAME,...] [--seeds N]
//!      [--classes c1,c2,...] [--json] [--events FILE]
//! dpmc faultcheck --serve [NAME] [--designs NAME,...] [--json]
//! dpmc serve [--store DIR] [--tcp ADDR [--connections N]] [--jobs N]
//!      [--retries N] [--deadline-ms N] [--max-live-mb N]
//! ```
//!
//! `dpmc lint` runs the new-merge flow and then audits the optimized
//! graph, clustering and netlist with the [`datapath_merge::verify`]
//! checker passes, printing one diagnostic per line (or, with `--json`, a
//! stable machine-readable document, schema `dpmc-lint/1`). The exit code
//! is non-zero if any error-level diagnostic fires (or any warning under
//! `--deny-warnings`).
//!
//! `dpmc analyze` runs the [`datapath_merge::absint`] static layer — the
//! forward known-bits/interval and backward demanded-bits abstract
//! interpretations — over each requested design and reports the `A`-family
//! findings: the two cross-proofs (demand ⊆ RP window, IC bounds entailed
//! by forward facts) plus static diagnostics (provably-constant outputs,
//! dead bits RP cannot see, redundant extensions, lossy truncations,
//! proven-no-overflow operators). Output is deterministic; `--json` emits
//! schema `dpmc-analyze/1`. `--corrupt-ic SEED` plants the same lying
//! information-content bound the fault harness injects, to demonstrate
//! the checker catches it (exit code turns non-zero). Exit is non-zero
//! whenever an `A001`/`A002` error fires.
//!
//! `dpmc explain` runs the new-merge flow with provenance recording
//! enabled and prints the causal chain of RP/IC/clustering decisions
//! behind a node's final width and cluster assignment (see
//! [`datapath_merge::explain`]). `--node` accepts a DSL name, `nK`, or a
//! bare index; `--port` accepts a design input/output name. With neither,
//! every operator is explained.
//!
//! `dpmc dot` renders the design as Graphviz DOT; with `--annotate` it
//! renders the *optimized* graph instead, coloring merged clusters and
//! break nodes and labelling nodes/edges with required precision,
//! information content and the provenance rule that last changed them.
//!
//! `dpmc bench` runs a set of designs (the paper figures `fig1`–`fig4`,
//! evaluation designs `D1`–`D5`, and the generated scaling family
//! `S64`–`S1000` by default; `.dp` files also accepted in `--designs`)
//! through the old-merge and new-merge flows and emits a deterministic
//! JSON report of per-stage wall-times, QoR counters and provenance event
//! counts — see EXPERIMENTS.md for the schema. Designs run on a pool of
//! `--jobs` worker threads (default: available parallelism); the report
//! is assembled in design order, so the output is byte-identical for any
//! job count. Without `--out` the JSON goes to stdout. `--compare` diffs
//! the run against a committed baseline: counters must match exactly,
//! per-flow wall times may regress at most `--max-regress-pct` percent
//! (default 50); any violation makes the exit code non-zero. A design
//! that fails or panics mid-bench becomes an `"error"` row instead of
//! aborting the whole report.
//!
//! `dpmc profile` runs the new-merge flow (plus constant folding, STA and
//! verification) under full telemetry and prints a per-phase self-profile:
//! calls, total/self time, heap traffic from the counting allocator, and
//! per-op-kind analysis costs. `--stacks FILE` writes a collapsed-stack
//! file consumable by flamegraph tooling; `--top N` appends the hottest
//! phases by self time; `--json` emits the profile as a document instead.
//! `--overhead-gate PCT` instead measures the telemetry overhead itself:
//! the flow is proven level-invariant (identical QoR and trace decisions
//! at `off`/`counters`/`full`) and full telemetry must cost at most `PCT`
//! percent over `off` (exit 1 otherwise).
//!
//! `dpmc faultcheck` runs the fault-injection harness: every requested
//! design is synthesized through the *guarded* flow while a seeded
//! [`datapath_merge::fault`] injector corrupts one intermediate artifact
//! per run (operator width, extension node, information-content bound, or
//! cluster membership). Every `(class, seed)` case must end in detection:
//! a correct netlist (benign or degraded-with-`FALLBACK-*`-provenance) or
//! a typed error — a panic or a silently wrong netlist fails the gate.
//!
//! `dpmc serve` turns the flow into a supervised service: JSON-lines
//! requests (`{"id": ..., "design": NAME}` or `{"id": ..., "source":
//! DSL}`, plus optional `strategy`/`adder`/`reduction`/`deadline_ms`/
//! `max_live_mb`/`no_cache` fields) are read from stdin — or, with
//! `--tcp ADDR`, from `--connections` sequential TCP connections — and
//! each is answered with one deterministic `dpmc-serve/1` JSON line,
//! followed by a trailing `dpmc-serve-stats/1` summary carrying the
//! cache hit rate and throughput. Requests run on `--jobs` workers with
//! per-request wall-clock/live-heap supervision enforced *inside* the
//! analysis and synthesis loops, and panics are isolated and retried up
//! to `--retries` times. `--store DIR` attaches the crash-safe
//! content-addressed artifact store: results are keyed by the design's
//! canonical structural hash (invariant under node-id permutation and
//! port renaming) at two granularities (netlist and clustering), every
//! hit is differentially audited against the submitted design, and
//! corrupt or truncated entries are quarantined as a miss — never a
//! crash, never a wrong answer. `dpmc faultcheck --serve` drives the
//! nine-scenario service chaos matrix (panics, retry exhaustion,
//! deadline/memory breaches, store truncation/bit-flips/torn
//! journals/stale temps/crash-restart) and gates on the contract holding
//! for every one.
//!
//! The main flow, `bench` and `faultcheck` accept `--events FILE` to
//! stream every telemetry event — spans, pipeline rounds, op-kind costs,
//! QoR, degradations, trace decisions, fault outcomes — as one ordered
//! JSONL document (schema `dpmc-events/1`, see `datapath_merge::obs`).
//! `--telemetry off|counters|full` governs how much is recorded (never
//! what the flow does); at `counters` the stream is byte-identical across
//! runs and job counts.
//!
//! # Exit codes
//!
//! `dpmc` distinguishes failure families by exit code (see
//! [`datapath_merge::error::FlowError`]): `0` success, `1` a gate found
//! problems (`lint`/`analyze`/`bench --compare`/`faultcheck`), `2` usage, `3` I/O,
//! `4` DSL parse, `5` graph validation, `6` analysis, `7` clustering,
//! `8` netlist emission.

use std::process::ExitCode;

use datapath_merge::driver;
use datapath_merge::error::FlowError;
use datapath_merge::fault::{check_design, FaultClass};
use datapath_merge::obs::{self, CountingAlloc, DesignEvents};
use datapath_merge::prelude::*;

// Every allocation in the binary is counted (thread-locally) so
// full-telemetry spans can carry alloc/peak deltas; `obs::install` in
// `main` wires the counters to dp-metrics recorders.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

struct Args {
    file: String,
    flows: Vec<MergeStrategy>,
    config: SynthConfig,
    optimize_target: Option<f64>,
    emit_verilog: Option<String>,
    emit_dot: Option<String>,
    check: usize,
    lint: bool,
    deny_warnings: bool,
    analyze: bool,
    corrupt_ic: Option<u64>,
    explain: bool,
    node: Option<String>,
    json: bool,
    dot: bool,
    annotate: bool,
    bench: bool,
    profile: bool,
    faultcheck: bool,
    serve: bool,
    chaos_serve: bool,
    store: Option<String>,
    tcp: Option<String>,
    connections: usize,
    retries: u32,
    deadline_ms: Option<u64>,
    max_live_mb: Option<u64>,
    designs: Vec<String>,
    jobs: Option<usize>,
    out: Option<String>,
    compare: Option<String>,
    events: Option<String>,
    telemetry: Level,
    top: Option<usize>,
    stacks: Option<String>,
    overhead_gate: Option<f64>,
    max_regress_pct: f64,
    seeds: u64,
    classes: Vec<String>,
    budget_rounds: Option<usize>,
    budget_pushes: Option<usize>,
    budget_nodes: Option<usize>,
}

const USAGE: &str = "usage: dpmc <design.dp> [--flow new|old|none|all] \
[--adder ks|csel|ripple] [--reduction dadda|wallace] [--no-compress] \
[--optimize TARGET_NS] [--emit-verilog FILE] [--emit-dot FILE] [--check N]\n\
       dpmc lint <design.dp> [--deny-warnings] [--json]\n\
       dpmc analyze [<design.dp>] [--designs all|NAME,...] [--json] \
[--corrupt-ic SEED]\n\
       dpmc explain <design.dp> [--node N | --port P] [--json]\n\
       dpmc dot <design.dp> [--annotate] [--out FILE]\n\
       dpmc bench [--designs all|NAME,NAME,...] [--jobs N] [--out FILE] \
[--compare BASELINE.json] [--max-regress-pct N]\n\
       dpmc profile <design> [--json] [--top N] [--stacks FILE] \
[--overhead-gate PCT]\n\
       dpmc faultcheck [<design.dp>] [--designs all|NAME,...] [--seeds N] \
[--classes c1,c2,...] [--json]\n\
       dpmc faultcheck --serve [NAME] [--designs NAME,...] [--json]\n\
       dpmc serve [--store DIR] [--tcp ADDR [--connections N]] [--jobs N] \
[--retries N] [--deadline-ms N] [--max-live-mb N]\n\
flow budgets (run/faultcheck): [--budget-rounds N] [--budget-pushes N] \
[--budget-nodes N]\n\
telemetry (run/bench/faultcheck): [--events FILE] \
[--telemetry off|counters|full]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        file: String::new(),
        flows: vec![MergeStrategy::New],
        config: SynthConfig::default(),
        optimize_target: None,
        emit_verilog: None,
        emit_dot: None,
        check: 20,
        lint: false,
        deny_warnings: false,
        analyze: false,
        corrupt_ic: None,
        explain: false,
        node: None,
        json: false,
        dot: false,
        annotate: false,
        bench: false,
        profile: false,
        faultcheck: false,
        serve: false,
        chaos_serve: false,
        store: None,
        tcp: None,
        connections: 1,
        retries: 2,
        deadline_ms: None,
        max_live_mb: None,
        designs: Vec::new(),
        jobs: None,
        out: None,
        compare: None,
        events: None,
        telemetry: Level::Full,
        top: None,
        stacks: None,
        overhead_gate: None,
        max_regress_pct: 50.0,
        seeds: 8,
        classes: Vec::new(),
        budget_rounds: None,
        budget_pushes: None,
        budget_nodes: None,
    };
    let mut subcommand = false;
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--flow" => {
                args.flows = match value(&mut it, "--flow")?.as_str() {
                    "new" => vec![MergeStrategy::New],
                    "old" => vec![MergeStrategy::Old],
                    "none" => vec![MergeStrategy::None],
                    "all" => vec![MergeStrategy::None, MergeStrategy::Old, MergeStrategy::New],
                    other => return Err(format!("unknown flow `{other}`")),
                }
            }
            "--adder" => {
                args.config.adder = match value(&mut it, "--adder")?.as_str() {
                    "ks" | "kogge-stone" => AdderKind::KoggeStone,
                    "csel" | "carry-select" => AdderKind::CarrySelect,
                    "ripple" => AdderKind::Ripple,
                    other => return Err(format!("unknown adder `{other}`")),
                }
            }
            "--reduction" => {
                args.config.reduction = match value(&mut it, "--reduction")?.as_str() {
                    "dadda" => ReductionKind::Dadda,
                    "wallace" => ReductionKind::Wallace,
                    other => return Err(format!("unknown reduction `{other}`")),
                }
            }
            "--no-compress" => args.config.sign_ext_compression = false,
            "--optimize" => {
                args.optimize_target = Some(
                    value(&mut it, "--optimize")?
                        .parse()
                        .map_err(|_| "bad --optimize value".to_string())?,
                )
            }
            "--emit-verilog" => args.emit_verilog = Some(value(&mut it, "--emit-verilog")?),
            "--emit-dot" => args.emit_dot = Some(value(&mut it, "--emit-dot")?),
            "--check" => {
                args.check = value(&mut it, "--check")?
                    .parse()
                    .map_err(|_| "bad --check value".to_string())?
            }
            "--deny-warnings" => args.deny_warnings = true,
            "--node" | "--port" => args.node = Some(value(&mut it, &arg)?),
            "--json" => args.json = true,
            "--annotate" => args.annotate = true,
            "--designs" => {
                args.designs = value(&mut it, "--designs")?.split(',').map(str::to_string).collect()
            }
            "--jobs" => {
                let n: usize = value(&mut it, "--jobs")?
                    .parse()
                    .map_err(|_| "bad --jobs value".to_string())?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                args.jobs = Some(n);
            }
            "--out" => args.out = Some(value(&mut it, "--out")?),
            "--compare" => args.compare = Some(value(&mut it, "--compare")?),
            "--events" => args.events = Some(value(&mut it, "--events")?),
            "--telemetry" => {
                let s = value(&mut it, "--telemetry")?;
                args.telemetry = Level::parse(&s)
                    .ok_or_else(|| format!("unknown telemetry level `{s}` (off|counters|full)"))?;
            }
            "--top" => {
                args.top = Some(
                    value(&mut it, "--top")?.parse().map_err(|_| "bad --top value".to_string())?,
                )
            }
            "--stacks" => args.stacks = Some(value(&mut it, "--stacks")?),
            "--overhead-gate" => {
                args.overhead_gate = Some(
                    value(&mut it, "--overhead-gate")?
                        .parse()
                        .map_err(|_| "bad --overhead-gate value".to_string())?,
                )
            }
            "--seeds" => {
                let n: u64 = value(&mut it, "--seeds")?
                    .parse()
                    .map_err(|_| "bad --seeds value".to_string())?;
                if n == 0 {
                    return Err("--seeds must be at least 1".to_string());
                }
                args.seeds = n;
            }
            "--classes" => {
                args.classes = value(&mut it, "--classes")?.split(',').map(str::to_string).collect()
            }
            "--budget-rounds" => {
                args.budget_rounds = Some(
                    value(&mut it, "--budget-rounds")?
                        .parse()
                        .map_err(|_| "bad --budget-rounds value".to_string())?,
                )
            }
            "--budget-pushes" => {
                args.budget_pushes = Some(
                    value(&mut it, "--budget-pushes")?
                        .parse()
                        .map_err(|_| "bad --budget-pushes value".to_string())?,
                )
            }
            "--budget-nodes" => {
                args.budget_nodes = Some(
                    value(&mut it, "--budget-nodes")?
                        .parse()
                        .map_err(|_| "bad --budget-nodes value".to_string())?,
                )
            }
            "--max-regress-pct" => {
                args.max_regress_pct = value(&mut it, "--max-regress-pct")?
                    .parse()
                    .map_err(|_| "bad --max-regress-pct value".to_string())?
            }
            "--store" => args.store = Some(value(&mut it, "--store")?),
            "--tcp" => args.tcp = Some(value(&mut it, "--tcp")?),
            "--connections" => {
                let n: usize = value(&mut it, "--connections")?
                    .parse()
                    .map_err(|_| "bad --connections value".to_string())?;
                if n == 0 {
                    return Err("--connections must be at least 1".to_string());
                }
                args.connections = n;
            }
            "--retries" => {
                args.retries = value(&mut it, "--retries")?
                    .parse()
                    .map_err(|_| "bad --retries value".to_string())?
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value(&mut it, "--deadline-ms")?
                        .parse()
                        .map_err(|_| "bad --deadline-ms value".to_string())?,
                )
            }
            "--max-live-mb" => {
                args.max_live_mb = Some(
                    value(&mut it, "--max-live-mb")?
                        .parse()
                        .map_err(|_| "bad --max-live-mb value".to_string())?,
                )
            }
            "--serve" => args.chaos_serve = true,
            "--corrupt-ic" => {
                args.corrupt_ic = Some(
                    value(&mut it, "--corrupt-ic")?
                        .parse()
                        .map_err(|_| "bad --corrupt-ic value".to_string())?,
                )
            }
            "lint" if !subcommand && args.file.is_empty() => (args.lint, subcommand) = (true, true),
            "analyze" if !subcommand && args.file.is_empty() => {
                (args.analyze, subcommand) = (true, true)
            }
            "explain" if !subcommand && args.file.is_empty() => {
                (args.explain, subcommand) = (true, true)
            }
            "dot" if !subcommand && args.file.is_empty() => (args.dot, subcommand) = (true, true),
            "bench" if !subcommand && args.file.is_empty() => {
                (args.bench, subcommand) = (true, true)
            }
            "profile" if !subcommand && args.file.is_empty() => {
                (args.profile, subcommand) = (true, true)
            }
            "faultcheck" if !subcommand && args.file.is_empty() => {
                (args.faultcheck, subcommand) = (true, true)
            }
            "serve" if !subcommand && args.file.is_empty() => {
                (args.serve, subcommand) = (true, true)
            }
            other if !args.bench && args.file.is_empty() && !other.starts_with('-') => {
                args.file = other.to_string()
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.bench {
        if !args.file.is_empty() {
            return Err("`dpmc bench` takes designs via --designs, not a positional".to_string());
        }
        if args.designs.is_empty() {
            args.designs = vec!["all".to_string()];
        }
    } else if args.faultcheck {
        if !args.file.is_empty() && !args.designs.is_empty() {
            return Err(
                "`dpmc faultcheck` takes a positional design or --designs, not both".to_string()
            );
        }
        if args.out.is_some() {
            return Err("--out only applies to `dpmc bench` and `dpmc dot`".to_string());
        }
        if args.compare.is_some() {
            return Err("--compare only applies to `dpmc bench`".to_string());
        }
        if args.jobs.is_some() {
            return Err("--jobs only applies to `dpmc bench` and `dpmc serve`".to_string());
        }
    } else if args.analyze {
        if !args.file.is_empty() && !args.designs.is_empty() {
            return Err(
                "`dpmc analyze` takes a positional design or --designs, not both".to_string()
            );
        }
        if args.file.is_empty() && args.designs.is_empty() {
            args.designs = vec!["all".to_string()];
        }
        if args.out.is_some() {
            return Err("--out only applies to `dpmc bench` and `dpmc dot`".to_string());
        }
        if args.compare.is_some() {
            return Err("--compare only applies to `dpmc bench`".to_string());
        }
        if args.jobs.is_some() {
            return Err("--jobs only applies to `dpmc bench` and `dpmc serve`".to_string());
        }
    } else if args.profile {
        if args.file.is_empty() {
            return Err("`dpmc profile` needs a design (a built-in name or a .dp file)".to_string());
        }
        if !args.designs.is_empty() {
            return Err("`dpmc profile` takes one positional design, not --designs".to_string());
        }
        if args.out.is_some() {
            return Err("--out only applies to `dpmc bench` and `dpmc dot`".to_string());
        }
        if args.compare.is_some() {
            return Err("--compare only applies to `dpmc bench`".to_string());
        }
        if args.jobs.is_some() {
            return Err("--jobs only applies to `dpmc bench` and `dpmc serve`".to_string());
        }
    } else if args.serve {
        if !args.file.is_empty() {
            return Err(
                "`dpmc serve` reads JSON-lines requests from stdin or --tcp, not a positional"
                    .to_string(),
            );
        }
        if !args.designs.is_empty() {
            return Err("`dpmc serve` takes designs per request, not --designs".to_string());
        }
        if args.out.is_some() {
            return Err("--out only applies to `dpmc bench` and `dpmc dot`".to_string());
        }
        if args.compare.is_some() {
            return Err("--compare only applies to `dpmc bench`".to_string());
        }
        if args.connections != 1 && args.tcp.is_none() {
            return Err("--connections only applies with --tcp".to_string());
        }
    } else {
        if args.file.is_empty() {
            return Err("no design file given".to_string());
        }
        if !args.designs.is_empty() {
            return Err(
                "--designs only applies to `dpmc bench`, `dpmc analyze` and `dpmc faultcheck`"
                    .to_string(),
            );
        }
        if args.out.is_some() && !args.dot {
            return Err("--out only applies to `dpmc bench` and `dpmc dot`".to_string());
        }
        if args.compare.is_some() {
            return Err("--compare only applies to `dpmc bench`".to_string());
        }
        if args.jobs.is_some() {
            return Err("--jobs only applies to `dpmc bench` and `dpmc serve`".to_string());
        }
    }
    if args.deny_warnings && !args.lint {
        return Err("--deny-warnings only applies to `dpmc lint`".to_string());
    }
    if args.node.is_some() && !args.explain {
        return Err("--node/--port only apply to `dpmc explain`".to_string());
    }
    if args.json && !(args.explain || args.faultcheck || args.lint || args.analyze || args.profile)
    {
        return Err("--json only applies to `dpmc lint`, `dpmc analyze`, `dpmc explain`, \
             `dpmc profile` and `dpmc faultcheck`"
            .to_string());
    }
    if (args.top.is_some() || args.stacks.is_some() || args.overhead_gate.is_some())
        && !args.profile
    {
        return Err("--top/--stacks/--overhead-gate only apply to `dpmc profile`".to_string());
    }
    if (args.store.is_some()
        || args.tcp.is_some()
        || args.retries != 2
        || args.deadline_ms.is_some()
        || args.max_live_mb.is_some())
        && !args.serve
    {
        return Err(
            "--store/--tcp/--retries/--deadline-ms/--max-live-mb only apply to `dpmc serve`"
                .to_string(),
        );
    }
    if args.chaos_serve && !args.faultcheck {
        return Err("--serve only applies to `dpmc faultcheck`".to_string());
    }
    if args.chaos_serve && !args.classes.is_empty() {
        return Err("--classes does not apply to `dpmc faultcheck --serve`".to_string());
    }
    let run_like =
        !(args.lint || args.analyze || args.explain || args.dot || args.profile || args.serve);
    if (args.events.is_some() || args.telemetry != Level::Full) && !run_like {
        return Err(
            "--events/--telemetry only apply to the main flow, `dpmc bench` and `dpmc faultcheck`"
                .to_string(),
        );
    }
    if args.corrupt_ic.is_some() && !args.analyze {
        return Err("--corrupt-ic only applies to `dpmc analyze`".to_string());
    }
    if !args.classes.is_empty() && !args.faultcheck {
        return Err("--classes only applies to `dpmc faultcheck`".to_string());
    }
    if args.annotate && !args.dot {
        return Err("--annotate only applies to `dpmc dot`".to_string());
    }
    let budgeted =
        args.budget_rounds.is_some() || args.budget_pushes.is_some() || args.budget_nodes.is_some();
    if budgeted && (args.lint || args.analyze || args.explain || args.dot || args.bench) {
        return Err("--budget-* only apply to the main flow and `dpmc faultcheck`".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    obs::install();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dpmc: {e}\n{USAGE}");
            return ExitCode::from(FlowError::Usage(e).exit_code());
        }
    };
    let outcome = if args.lint {
        run_lint(&args)
    } else if args.analyze {
        run_analyze(&args)
    } else if args.explain {
        run_explain(&args).map(|()| true)
    } else if args.dot {
        run_dot(&args).map(|()| true)
    } else if args.bench {
        run_bench(&args)
    } else if args.profile {
        run_profile(&args)
    } else if args.faultcheck && args.chaos_serve {
        run_faultcheck_serve(&args)
    } else if args.faultcheck {
        run_faultcheck(&args)
    } else if args.serve {
        run_serve(&args)
    } else {
        run(&args).map(|()| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Exit 1: the tool ran fine and a gate (lint / bench --compare /
        // faultcheck) found problems.
        Ok(false) => ExitCode::FAILURE,
        // Exit >= 2: the run itself failed; the code names the family.
        Err(e) => {
            if args.json {
                println!("{}", e.to_json().render_pretty());
            }
            eprintln!("dpmc: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Reads and parses a design file, classifying failures as I/O or parse
/// errors.
fn load_design(path: &str) -> Result<Dfg, FlowError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| FlowError::Io { path: path.to_string(), message: e.to_string() })?;
    Ok(datapath_merge::dsl::parse_design(&text)?)
}

/// Lowers a pool [`driver::WorkerError`] back onto the process taxonomy
/// for subcommands that run one design outside the pool (`dpmc
/// profile`). Families whose `FlowError` variant carries structured
/// payloads we no longer have (`graph`, `parse`) fall back to the
/// `analysis` family; the message is preserved verbatim.
fn worker_to_flow(we: driver::WorkerError) -> FlowError {
    match we.family.as_str() {
        "usage" => FlowError::Usage(we.message),
        "cluster" => FlowError::Cluster(we.message),
        "netlist" => FlowError::Netlist(we.message),
        _ => FlowError::Analysis(we.message),
    }
}

/// The [`FlowBudget`] for guarded flows, with any `--budget-*` overrides.
fn flow_budget(args: &Args) -> FlowBudget {
    let mut b = FlowBudget::default();
    if let Some(n) = args.budget_rounds {
        b.pipeline.max_rounds = n;
    }
    if let Some(n) = args.budget_pushes {
        b.pipeline.max_worklist_pushes = n;
    }
    if let Some(n) = args.budget_nodes {
        b.pipeline.max_nodes = n;
    }
    b
}

/// `dpmc lint`: run the guarded new-merge flow and its post-flow stage,
/// then audit every artifact the flow settled on — a degraded flow's
/// fallback included — with the semantic verifier. Returns `Ok(false)`
/// when the design fails the lint gate.
fn run_lint(args: &Args) -> Result<bool, FlowError> {
    let base = load_design(&args.file)?;
    let lib = Library::synthetic_025um();
    let (mut rec, mut tr) = (Recorder::disabled(), TraceLog::disabled());
    let budget = flow_budget(args);
    let guarded =
        run_flow_guarded_with(&base, MergeStrategy::New, &args.config, &budget, &mut rec, &mut tr)?;
    let (_, report) = driver::finish_flow(&base, &guarded, &lib, &mut rec)?;
    let g = &guarded.flow.graph;
    let pipeline = guarded.flow.merge.as_ref().map(|m| m.transform.summary()).unwrap_or_default();
    let fallbacks = guarded.degradation.as_ref().map(|d| d.tags()).unwrap_or_default();

    let denied = report.has_errors() || (args.deny_warnings && report.count(Severity::Warn) > 0);
    if args.json {
        let diags: Vec<Json> = report
            .diagnostics()
            .iter()
            .map(|d| {
                Json::obj()
                    .field("code", d.code.to_string())
                    .field("severity", d.severity().to_string())
                    .field("location", d.location.to_string())
                    .field("message", d.message.as_str())
            })
            .collect();
        let doc = Json::obj()
            .field("schema", "dpmc-lint/1")
            .field("design", args.file.as_str())
            .field("pipeline", pipeline)
            .field("fallbacks", fallbacks.into_iter().map(Json::from).collect::<Vec<_>>())
            .field("diagnostics", diags)
            .field("errors", report.count(Severity::Error))
            .field("warnings", report.count(Severity::Warn))
            .field("infos", report.count(Severity::Info))
            .field("passed", !denied);
        println!("{}", doc.render_pretty());
        return Ok(!denied);
    }
    if let Some(d) = &guarded.degradation {
        print!("[{}] {}", MergeStrategy::New, d.render());
    }
    print!("{}", report.render(g));
    println!("{}: {}", args.file, report.summary());
    println!("{}: width pipeline {pipeline}", args.file);
    Ok(!denied)
}

/// `dpmc analyze`: run the abstract-interpretation static layer over each
/// requested design and report the `A`-family findings. With
/// `--corrupt-ic SEED`, plant the fault harness's lying
/// information-content bound first so the cross-proof visibly fails.
/// Returns `Ok(false)` when any cross-check proof fails.
fn run_analyze(args: &Args) -> Result<bool, FlowError> {
    use datapath_merge::absint::{analyze_with, FindingKind, Place};
    use datapath_merge::analysis::IntrinsicOverrides;
    use datapath_merge::fault::FaultInjector;
    use datapath_merge::synth::FlowFault;

    // The stable code + severity each finding kind maps to (mirrors the
    // dp-verify `A`-family table).
    fn code_of(kind: FindingKind) -> (&'static str, &'static str) {
        match kind {
            FindingKind::DemandOutsideRp => ("A001", "error"),
            FindingKind::IcNotEntailed => ("A002", "error"),
            FindingKind::ConstantOutput => ("A003", "warn"),
            FindingKind::HiddenDeadBits => ("A004", "info"),
            FindingKind::RedundantExtension => ("A005", "info"),
            FindingKind::LossyTruncation => ("A006", "info"),
            FindingKind::NoOverflow => ("A007", "info"),
        }
    }
    fn place_str(place: Place) -> String {
        match place {
            Place::Node(n) => n.to_string(),
            Place::Edge(e) => e.to_string(),
        }
    }
    // Text rendering names the node when the graph knows a name for it;
    // the JSON `location` field stays the bare stable id.
    fn place_label(g: &Dfg, place: Place) -> String {
        match place {
            Place::Node(n) => match g.node(n).name() {
                Some(name) => format!("{n} `{name}`"),
                None => n.to_string(),
            },
            Place::Edge(e) => e.to_string(),
        }
    }

    let designs = if args.file.is_empty() {
        collect_designs(&args.designs)?
    } else {
        vec![(module_name(&args.file), load_design(&args.file)?)]
    };

    let mut all_clean = true;
    let mut rows = Vec::new();
    for (name, g) in &designs {
        let mut overrides = IntrinsicOverrides::new();
        let mut injected: Option<String> = None;
        if let Some(seed) = args.corrupt_ic {
            let mut inj = FaultInjector::new(FaultClass::LieIcBound, seed);
            let mut scratch = g.clone();
            inj.after_widths(&mut scratch);
            inj.tamper_ic(&mut overrides);
            injected = inj.injected;
        }
        let (_fwd, _bwd, report) = analyze_with(g, &overrides);
        let clean = !report.has_violations();
        all_clean &= clean;

        let c = report.counters;
        if args.json {
            let findings: Vec<Json> = report
                .findings
                .iter()
                .map(|f| {
                    let (code, severity) = code_of(f.kind);
                    Json::obj()
                        .field("code", code)
                        .field("severity", severity)
                        .field("location", place_str(f.place))
                        .field("message", f.message.as_str())
                })
                .collect();
            let counters = Json::obj()
                .field("known_bits", c.known_bits)
                .field("dead_bits", c.dead_bits)
                .field("no_overflow_ops", c.no_overflow_ops)
                .field("rp_ports_checked", c.rp_ports_checked)
                .field("ic_bounds_checked", c.ic_bounds_checked);
            let mut row = Json::obj().field("design", name.as_str());
            if let Some(what) = &injected {
                row = row.field("injected", what.as_str());
            }
            rows.push(row.field("counters", counters).field("findings", findings).field(
                "errors",
                report.findings.iter().filter(|f| code_of(f.kind).1 == "error").count(),
            ));
        } else {
            if let Some(what) = &injected {
                println!("{name}: injected {what}");
            }
            for f in &report.findings {
                let (code, severity) = code_of(f.kind);
                println!("{name}: {severity}[{code}] {}: {}", place_label(g, f.place), f.message);
            }
            println!(
                "{name}: {} finding(s); proved {} known bit(s), {} dead bit(s), \
                 {} no-overflow op(s); checked {} RP port(s), {} IC bound(s): {}",
                report.findings.len(),
                c.known_bits,
                c.dead_bits,
                c.no_overflow_ops,
                c.rp_ports_checked,
                c.ic_bounds_checked,
                if clean { "proofs hold" } else { "CROSS-CHECK FAILED" },
            );
        }
    }
    if args.json {
        let doc = Json::obj()
            .field("schema", "dpmc-analyze/1")
            .field("designs", rows)
            .field("passed", all_clean);
        println!("{}", doc.render_pretty());
    } else {
        println!(
            "analyze: {} design(s): {}",
            designs.len(),
            if all_clean { "all cross-check proofs hold" } else { "cross-check proofs FAILED" }
        );
    }
    Ok(all_clean)
}

/// `dpmc explain`: re-run the guarded new-merge flow with provenance recording
/// and print the causal chain behind the requested node's final width and
/// cluster assignment (or every operator's, without `--node`/`--port`).
fn run_explain(args: &Args) -> Result<(), FlowError> {
    use datapath_merge::explain::{self, run_traced};
    let text = std::fs::read_to_string(&args.file)
        .map_err(|e| FlowError::Io { path: args.file.clone(), message: e.to_string() })?;
    let (g, names) = datapath_merge::dsl::parse_design_named(&text)?;
    let ex = run_traced(&g)?;

    let label_of = |n: NodeId| -> String {
        names
            .iter()
            .find(|(_, &id)| id == n)
            .map(|(name, _)| name.clone())
            .or_else(|| {
                if n.index() < g.num_nodes() {
                    g.node(n).name().map(str::to_string)
                } else {
                    None
                }
            })
            .unwrap_or_else(|| n.to_string())
    };
    let targets: Vec<NodeId> = match &args.node {
        Some(spec) => vec![explain::resolve_node(&g, &names, spec).map_err(FlowError::Usage)?],
        None => ex.graph.node_ids().filter(|&n| ex.graph.node(n).kind().is_op()).collect(),
    };

    if args.json {
        let nodes: Vec<Json> =
            targets.iter().map(|&n| explain::explain_node_json(&g, &ex, n, &label_of(n))).collect();
        let doc = Json::obj()
            .field("design", args.file.as_str())
            .field("pipeline", ex.report.transform.summary())
            .field("trace_events", ex.trace.len() as i64)
            .field("nodes", nodes);
        println!("{}", doc.render_pretty());
        return Ok(());
    }
    println!("{}: width pipeline: {}", args.file, ex.report.transform.summary());
    if let Some(d) = &ex.degradation {
        print!("{}: degraded: {}", args.file, d.render());
    }
    println!("{}: {} provenance event(s) recorded", args.file, ex.trace.len());
    for &n in &targets {
        println!();
        print!("{}", explain::explain_node(&g, &ex, n, &label_of(n)));
    }
    Ok(())
}

/// `dpmc dot`: render the design (or, with `--annotate`, the optimized
/// graph with provenance annotations) as Graphviz DOT.
fn run_dot(args: &Args) -> Result<(), FlowError> {
    use datapath_merge::explain::{annotations, run_traced};
    let g = load_design(&args.file)?;
    let dot = if args.annotate {
        let ex = run_traced(&g)?;
        ex.graph.to_dot_annotated(&annotations(&ex))
    } else {
        g.to_dot()
    };
    match &args.out {
        Some(path) => {
            std::fs::write(path, &dot)
                .map_err(|e| FlowError::Io { path: path.clone(), message: e.to_string() })?;
            println!("wrote DOT to {path}");
        }
        None => print!("{dot}"),
    }
    Ok(())
}

/// The named designs `dpmc bench` knows out of the box: the paper's
/// illustrative figures, the five reconstructed evaluation designs, and
/// the generated scaling family.
fn builtin_designs() -> Vec<(String, Dfg)> {
    use datapath_merge::testcases::{named_design, BUILTIN_NAMES};
    // Every BUILTIN_NAMES member resolves (pinned by a dp-testcases test),
    // so the filter_map drops nothing.
    BUILTIN_NAMES.iter().filter_map(|&name| Some((name.to_string(), named_design(name)?))).collect()
}

/// Resolves `--designs` specs: `all`, a built-in name, an on-demand
/// extended scaling member (`S10k`, `S100k`, `S1M`), or a `.dp` file.
fn collect_designs(specs: &[String]) -> Result<Vec<(String, Dfg)>, FlowError> {
    use datapath_merge::testcases::scaling;
    let builtin = builtin_designs();
    if specs.len() == 1 && specs[0] == "all" {
        return Ok(builtin);
    }
    let mut out = Vec::new();
    for spec in specs {
        if let Some((name, g)) = builtin.iter().find(|(n, _)| n == spec) {
            out.push((name.clone(), g.clone()));
        } else if let Some(g) = scaling::extended_scaling_design(spec) {
            // The huge scaling members (S10k, S100k, S1M) are generated
            // on demand only when named, so `all` and the committed bench
            // baselines never pay for them.
            out.push((spec.clone(), g));
        } else if spec.ends_with(".dp") {
            out.push((module_name(spec), load_design(spec)?));
        } else {
            let names: Vec<&str> = builtin.iter().map(|(n, _)| n.as_str()).collect();
            return Err(FlowError::Usage(format!(
                "unknown design `{spec}` (built-ins: {}; on-demand: {}; or pass a .dp file)",
                names.join(", "),
                scaling::EXTENDED_SCALING_NAMES.join(", ")
            )));
        }
    }
    Ok(out)
}

/// Writes an event stream collected at `level` to `path` as a
/// `dpmc-events/1` JSONL document.
fn write_events(path: &str, level: Level, streams: &[DesignEvents]) -> Result<(), FlowError> {
    let text = obs::render_stream(level, streams);
    std::fs::write(path, &text)
        .map_err(|e| FlowError::Io { path: path.to_string(), message: e.to_string() })?;
    eprintln!("dpmc: wrote {} event line(s) to {path}", text.lines().count().saturating_sub(1));
    Ok(())
}

/// `dpmc bench`: run every requested design through the old-merge and
/// new-merge flows, recording per-stage wall-times, QoR counters and
/// provenance event counts, and emit one deterministic JSON document
/// (timings are the only fields that vary between runs). Designs are
/// distributed over `--jobs` worker threads pulling from a shared index;
/// results land in per-design slots, so the report is identical for any
/// job count. With `--compare`, additionally diff against a committed
/// baseline; returns `Ok(false)` when the regression gate fails.
///
/// One failing (or even panicking) design does not abort the report: its
/// row becomes `{"design": NAME, "error": MESSAGE, "family": FAMILY,
/// "exit_code": CODE}` — the same taxonomy a standalone `dpmc` run of
/// that design would have exited with (panics report family `panic`,
/// code 101, with the payload message preserved through `catch_unwind`)
/// — the remaining designs still run, and the whole bench exits
/// non-zero. Healthy rows are byte-identical to a run without any
/// failures.
fn run_bench(args: &Args) -> Result<bool, FlowError> {
    let lib = Library::synthetic_025um();
    let designs = collect_designs(&args.designs)?;
    let jobs = args
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .min(designs.len().max(1));

    // Slot-indexed results (see `dp_serve::pool::run_slots`): worker i writes only
    // its own slot, so the assembled report — and the event stream — is
    // independent of scheduling.
    let results = datapath_merge::serve::pool::run_slots(designs.len(), jobs, |i| {
        let (name, g) = &designs[i];
        driver::bench_design(name, g, &args.config, &lib, args.telemetry)
    });
    let mut rows = Vec::with_capacity(designs.len());
    let mut streams = Vec::with_capacity(designs.len());
    let mut errors: Vec<String> = Vec::new();
    for (outcome, (name, _)) in results.into_iter().zip(&designs) {
        match outcome {
            Ok(out) => {
                rows.push(out.row);
                streams.push(out.events);
            }
            Err(we) => {
                // Pool-level failures (panic, dead worker) carry no design
                // name of their own; flow errors already lead with it.
                let msg = if we.message.starts_with(name.as_str()) {
                    we.message.clone()
                } else {
                    format!("{name}: {}", we.message)
                };
                errors.push(format!("[{}/{}] {msg}", we.family, we.exit_code));
                rows.push(
                    Json::obj()
                        .field("design", name.as_str())
                        .field("error", msg)
                        .field("family", we.family.as_str())
                        .field("exit_code", we.exit_code as i64),
                );
                streams.push(DesignEvents::new(name.as_str()));
            }
        }
    }
    let doc = Json::obj().field("schema", "dpmc-bench/5").field("designs", rows);
    let rendered = doc.render_pretty();
    if let Some(path) = &args.events {
        write_events(path, args.telemetry, &streams)?;
    }
    match &args.out {
        Some(path) => {
            std::fs::write(path, &rendered)
                .map_err(|e| FlowError::Io { path: path.clone(), message: e.to_string() })?;
            println!("wrote {} design(s) x 2 flows to {path}", designs.len());
        }
        None if args.compare.is_none() => print!("{rendered}"),
        None => {}
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("dpmc bench: {e}");
        }
        eprintln!("dpmc bench: {}/{} design(s) failed", errors.len(), designs.len());
        return Ok(false);
    }
    if let Some(path) = &args.compare {
        use datapath_merge::compare::{compare_reports, CompareConfig};
        let text = std::fs::read_to_string(path)
            .map_err(|e| FlowError::Io { path: path.clone(), message: e.to_string() })?;
        let baseline = Json::parse(&text).map_err(|e| FlowError::Usage(format!("{path}: {e}")))?;
        let cfg = CompareConfig { max_regress_pct: args.max_regress_pct, ..Default::default() };
        let report = compare_reports(&baseline, &doc, &cfg);
        print!("{path}: {}", report.render());
        return Ok(report.passed());
    }
    Ok(true)
}

/// `dpmc profile`: run one design through the new-merge flow (plus
/// folding, STA and verification) under full telemetry and print the
/// per-phase self-profile; with `--overhead-gate PCT`, instead measure
/// the telemetry overhead itself and gate on it (`Ok(false)` on failure).
fn run_profile(args: &Args) -> Result<bool, FlowError> {
    if args.file == "all" {
        return Err(FlowError::Usage("`dpmc profile` takes one design, not `all`".to_string()));
    }
    let lib = Library::synthetic_025um();
    let designs = collect_designs(std::slice::from_ref(&args.file))?;
    let (name, g) = designs
        .first()
        .ok_or_else(|| FlowError::Usage("`dpmc profile` needs a design".to_string()))?;

    if let Some(pct) = args.overhead_gate {
        let rep =
            driver::telemetry_overhead(name, g, &args.config, pct, 3).map_err(worker_to_flow)?;
        println!("{name}: {}", rep.render());
        return Ok(rep.passed);
    }

    let profile = driver::profile_design(name, g, &args.config, &lib).map_err(worker_to_flow)?;
    if let Some(path) = &args.stacks {
        std::fs::write(path, profile.collapsed_stacks())
            .map_err(|e| FlowError::Io { path: path.clone(), message: e.to_string() })?;
        eprintln!("dpmc: wrote collapsed stacks to {path}");
    }
    if args.json {
        println!("{}", profile.to_json().render_pretty());
    } else {
        println!("{name}: new-merge flow self-profile ({} phase(s))", profile.rows.len());
        print!("{}", profile.render_table(args.top));
    }
    Ok(true)
}

/// `dpmc faultcheck`: run the fault-injection matrix — every requested
/// design × every fault class × `--seeds` seeds — through the guarded
/// flow and demand detect-and-degrade: a correct netlist or a typed
/// error, never a panic, never a silently wrong netlist. Returns
/// `Ok(false)` when any case violates that contract.
fn run_faultcheck(args: &Args) -> Result<bool, FlowError> {
    let designs = if !args.file.is_empty() {
        vec![(module_name(&args.file), load_design(&args.file)?)]
    } else if args.designs.is_empty() {
        // Default matrix: every named builtin (figures + evaluation
        // designs); the generated scaling family is for perf benches and
        // adds minutes for no extra coverage. `--designs all` includes it.
        builtin_designs().into_iter().filter(|(n, _)| !n.starts_with('S')).collect()
    } else {
        collect_designs(&args.designs)?
    };
    let classes: Vec<FaultClass> = if args.classes.is_empty() {
        FaultClass::ALL.to_vec()
    } else {
        args.classes
            .iter()
            .map(|s| {
                FaultClass::parse(s).ok_or_else(|| {
                    let names: Vec<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
                    FlowError::Usage(format!(
                        "unknown fault class `{s}` (classes: {})",
                        names.join(", ")
                    ))
                })
            })
            .collect::<Result<_, _>>()?
    };
    let budget = flow_budget(args);

    let mut all_passed = true;
    let mut rows = Vec::new();
    let mut streams = Vec::new();
    for (name, g) in &designs {
        let report = check_design(name, g, &classes, args.seeds, &args.config, &budget);
        if args.events.is_some() {
            let mut stream = DesignEvents::new(name.as_str());
            for c in &report.cases {
                stream.events.push(obs::fault_event(
                    c.class.name(),
                    c.seed,
                    c.injected.as_deref(),
                    c.outcome.label(),
                    &c.outcome.detail(),
                ));
            }
            streams.push(stream);
        }
        let (benign, degraded, error, failures) = report.tally();
        if args.json {
            let cases: Vec<Json> = report
                .cases
                .iter()
                .map(|c| {
                    Json::obj()
                        .field("class", c.class.name())
                        .field("seed", c.seed as i64)
                        .field(
                            "injected",
                            match &c.injected {
                                Some(s) => Json::Str(s.clone()),
                                None => Json::Null,
                            },
                        )
                        .field("outcome", c.outcome.label())
                        .field("detail", c.outcome.detail())
                })
                .collect();
            rows.push(Json::obj().field("design", name.as_str()).field("cases", cases));
        } else {
            println!(
                "{name}: {} case(s): {benign} benign, {degraded} degraded, {error} typed-error, \
                 {failures} FAILURE(S)",
                report.cases.len()
            );
            for c in report.cases.iter().filter(|c| c.outcome.is_failure()) {
                println!(
                    "  FAIL {name} class={} seed={} injected={}: {} ({})",
                    c.class,
                    c.seed,
                    c.injected.as_deref().unwrap_or("-"),
                    c.outcome.label(),
                    c.outcome.detail()
                );
            }
        }
        all_passed &= report.passed();
    }
    if args.json {
        let doc = Json::obj()
            .field("schema", "dpmc-faultcheck/1")
            .field("seeds", args.seeds as i64)
            .field(
                "classes",
                Json::Array(classes.iter().map(|c| Json::Str(c.name().to_string())).collect()),
            )
            .field("passed", all_passed)
            .field("designs", rows);
        print!("{}", doc.render_pretty());
    } else {
        println!(
            "faultcheck: {} design(s) x {} class(es) x {} seed(s): {}",
            designs.len(),
            classes.len(),
            args.seeds,
            if all_passed {
                "all held the detect-or-degrade contract"
            } else {
                "CONTRACT VIOLATIONS"
            }
        );
    }
    if let Some(path) = &args.events {
        write_events(path, args.telemetry, &streams)?;
    }
    Ok(all_passed)
}

/// `dpmc serve`: the supervised synthesis service. Reads JSON-lines
/// requests from stdin (or serves `--connections` TCP connections on
/// `--tcp ADDR`), dispatches them onto a slot-ordered pool of `--jobs`
/// workers with per-request deadline/memory-ceiling supervision and
/// bounded panic retries, and answers each with one deterministic
/// `dpmc-serve/1` line followed by a `dpmc-serve-stats/1` summary. With
/// `--store DIR`, healthy results are cached in the crash-safe
/// content-addressed artifact store, so a structurally identical design
/// — even with permuted node ids and renamed ports — is answered from
/// the store (and differentially audited against the request actually
/// sent). Returns `Ok(false)` when any request ended in an error
/// outcome, mirroring the bench gate.
fn run_serve(args: &Args) -> Result<bool, FlowError> {
    use datapath_merge::serve::{ServeOptions, Service, Store};
    let opts = ServeOptions {
        jobs: args.jobs.unwrap_or(1),
        retries: args.retries,
        deadline_ms: args.deadline_ms,
        max_live_mb: args.max_live_mb,
    };
    let mut service = Service::new(opts).with_parser(Box::new(|text| {
        datapath_merge::dsl::parse_design(text).map_err(|e| e.to_string())
    }));
    if let Some(dir) = &args.store {
        let store = Store::open(std::path::Path::new(dir))
            .map_err(|e| FlowError::Io { path: dir.clone(), message: e.to_string() })?;
        for d in store.diagnostics() {
            eprintln!("dpmc serve: store recovery: {d}");
        }
        service = service.with_store(store);
    }
    let stats = match &args.tcp {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| FlowError::Io { path: addr.clone(), message: e.to_string() })?;
            match listener.local_addr() {
                Ok(local) => eprintln!(
                    "dpmc serve: listening on {local} for {} connection(s)",
                    args.connections
                ),
                Err(_) => eprintln!("dpmc serve: listening on {addr}"),
            }
            service.serve_tcp(&listener, args.connections)
        }
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            service.serve_lines(stdin.lock(), &mut stdout)
        }
    }
    .map_err(|e| FlowError::Io { path: "<serve>".to_string(), message: e.to_string() })?;
    for d in service.store_diagnostics() {
        eprintln!("dpmc serve: store: {d}");
    }
    eprintln!(
        "dpmc serve: {} request(s): {} ok, {} degraded, {} deadline, {} memory, {} error(s); \
         cache hits {} ({} netlist, {} cluster), hit rate {:.2}, {} retry(ies), \
         throughput {:.1} rps",
        stats.requests,
        stats.ok,
        stats.degraded,
        stats.deadline,
        stats.memory,
        stats.errors,
        stats.hits(),
        stats.hits_netlist,
        stats.hits_cluster,
        stats.hit_rate(),
        stats.retries,
        stats.throughput_rps()
    );
    Ok(stats.errors == 0)
}

/// `dpmc faultcheck --serve`: the service chaos matrix. Every requested
/// design runs through all nine chaos scenarios (worker panic, retry
/// exhaustion, deadline expiry, memory ceiling, store truncation,
/// bit-flip, torn manifest, stale temp, crash-then-restart) and each must
/// uphold the service contract: supervised outcomes are reported, never
/// crash the batch, and every store defect degrades to a quarantined
/// miss whose recomputed answer is bit-identical to the cold baseline.
/// Returns `Ok(false)` on any violation.
fn run_faultcheck_serve(args: &Args) -> Result<bool, FlowError> {
    use datapath_merge::fault::serve::{check_serve, ServeChaos};
    use datapath_merge::testcases::named_design;
    let names: Vec<String> = if !args.file.is_empty() {
        vec![args.file.clone()]
    } else if args.designs.is_empty() {
        // Chaos covers service plumbing, not datapath scale: the paper
        // figures exercise every cache granularity without the minutes
        // the evaluation designs and scaling family would add.
        vec!["fig1".into(), "fig2".into(), "fig3".into(), "fig4".into()]
    } else {
        args.designs.clone()
    };
    for name in &names {
        if named_design(name).is_none() {
            return Err(FlowError::Usage(format!(
                "`dpmc faultcheck --serve` takes built-in design names, and `{name}` is not one"
            )));
        }
    }
    let scratch = std::env::temp_dir().join(format!("dpmc-serve-chaos-{}", std::process::id()));
    let mut all_passed = true;
    let mut rows = Vec::new();
    for name in &names {
        let report = check_serve(name, &scratch);
        let (passed, failed): (Vec<_>, Vec<_>) = report.cases.iter().partition(|c| c.passed);
        if args.json {
            let cases: Vec<Json> = report
                .cases
                .iter()
                .map(|c| {
                    Json::obj()
                        .field("chaos", c.chaos.name())
                        .field("passed", c.passed)
                        .field("detail", c.detail.as_str())
                })
                .collect();
            rows.push(Json::obj().field("design", name.as_str()).field("cases", cases));
        } else {
            println!(
                "{name}: {} scenario(s): {} upheld, {} VIOLATION(S)",
                report.cases.len(),
                passed.len(),
                failed.len()
            );
            for c in &report.cases {
                println!(
                    "  {} {name} chaos={}: {}",
                    if c.passed { "ok  " } else { "FAIL" },
                    c.chaos.name(),
                    c.detail
                );
            }
        }
        all_passed &= report.passed();
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if args.json {
        let doc = Json::obj()
            .field("schema", "dpmc-faultcheck-serve/1")
            .field("passed", all_passed)
            .field("designs", rows);
        print!("{}", doc.render_pretty());
    } else {
        println!(
            "faultcheck --serve: {} design(s) x {} scenario(s): {}",
            names.len(),
            ServeChaos::ALL.len(),
            if all_passed { "service contract upheld" } else { "CONTRACT VIOLATIONS" }
        );
    }
    Ok(all_passed)
}

fn run(args: &Args) -> Result<(), FlowError> {
    let g = load_design(&args.file)?;
    let lib = Library::synthetic_025um();
    let budget = flow_budget(args);
    println!(
        "{}: {} inputs, {} operators, {} outputs",
        args.file,
        g.inputs().len(),
        g.op_nodes().count(),
        g.outputs().len()
    );

    let mut stream = DesignEvents::new(module_name(&args.file));
    for &strategy in &args.flows {
        let mut rec = Recorder::with_level(args.telemetry);
        let mut tr = TraceLog::new();
        let guarded =
            run_flow_guarded_with(&g, strategy, &args.config, &budget, &mut rec, &mut tr)?;
        if let Some(report) = &guarded.degradation {
            print!("[{strategy}] {}", report.render());
        }
        let flow = guarded.flow;
        let done = finish(flow.netlist, &lib, &mut rec, &Watchdog::disabled())
            .map_err(|trip| FlowError::Analysis(trip.to_string()))?;
        if args.events.is_some() {
            let mut metrics = flow.metrics.clone();
            done.fill(&mut metrics);
            let metrics = metrics.to_json();
            driver::push_flow_events(
                &mut stream,
                driver::FlowSources {
                    strategy,
                    rec: &rec,
                    transform: flow.merge.as_ref().map(|m| &m.transform),
                    metrics: &metrics,
                    degradation: guarded.degradation.as_ref(),
                    tr: &tr,
                },
                args.telemetry,
            );
        }
        println!(
            "\n[{strategy}] clusters: {}  (sizes {:?})",
            flow.clustering.len(),
            flow.clustering.size_histogram()
        );
        println!(
            "[{strategy}] delay {:.3} ns  area {:.1}  gates {}",
            done.delay_ns,
            done.area,
            done.netlist.num_gates()
        );
        let mut netlist = done.netlist;
        let path = netlist.critical_path(&lib);
        if !path.is_empty() {
            let cells: Vec<String> = path
                .iter()
                .map(|&gid| {
                    let (kind, drive) = netlist.gate_info(gid);
                    format!("{kind}/{drive}")
                })
                .collect();
            let shown = 12.min(cells.len());
            println!(
                "[{strategy}] critical path ({} gates): {}{}",
                path.len(),
                cells[..shown].join(" -> "),
                if cells.len() > shown { " -> ..." } else { "" }
            );
        }
        if strategy == MergeStrategy::New {
            println!(
                "[{strategy}] total operator width {} -> {} after analysis",
                g.total_op_width(),
                flow.graph.total_op_width()
            );
            if let Some(m) = &flow.merge {
                println!("[{strategy}] width pipeline: {}", m.transform.summary());
            }
        }

        if let Some(target) = args.optimize_target {
            let report = optimize(
                &mut netlist,
                &lib,
                &OptConfig { target_delay_ns: target, ..OptConfig::default() },
            );
            println!(
                "[{strategy}] optimized to {:.3} ns ({}) in {:.4} s: {} sized, {} buffered, area {:.1}",
                report.end_delay_ns,
                if report.met { "target met" } else { "target NOT met" },
                report.runtime.as_secs_f64(),
                report.gates_sized,
                report.buffers_inserted,
                report.end_area
            );
        }

        if args.check > 0 {
            let found = Equiv::stream_netlist_mismatch(&g, &netlist, 0xD93C, args.check)
                .map_err(|e| FlowError::Netlist(e.to_string()))?;
            if let Some(m) = found {
                return Err(FlowError::Netlist(match m {
                    Mismatch::Value { output, .. } => format!(
                        "netlist differs from design at output `{}`",
                        g.node(g.outputs()[output]).name().unwrap_or("?")
                    ),
                    Mismatch::Check(e) => format!("invalid netlist: {e}"),
                    Mismatch::Simulate(e) => e,
                    other => other.to_string(),
                }));
            }
            println!("[{strategy}] verified against the design on {} random vectors", args.check);
        }

        // Emissions use the last requested flow (or the single one).
        if let Some(path) = &args.emit_verilog {
            let module = module_name(&args.file);
            std::fs::write(path, netlist.to_verilog(&module))
                .map_err(|e| FlowError::Io { path: path.clone(), message: e.to_string() })?;
            println!("[{strategy}] wrote Verilog to {path}");
        }
        if let Some(path) = &args.emit_dot {
            std::fs::write(path, flow.graph.to_dot())
                .map_err(|e| FlowError::Io { path: path.clone(), message: e.to_string() })?;
            println!("[{strategy}] wrote DOT to {path}");
        }
    }
    if let Some(path) = &args.events {
        write_events(path, args.telemetry, &[stream])?;
    }
    Ok(())
}

fn module_name(file: &str) -> String {
    let base = std::path::Path::new(file).file_stem().and_then(|s| s.to_str()).unwrap_or("design");
    base.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}
