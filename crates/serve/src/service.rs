//! The supervised synthesis service: JSON-lines requests in, one
//! deterministic `dpmc-serve/1` JSON response per request out.
//!
//! # Request pipeline
//!
//! Every request resolves to a DFG, is **canonicalized**, and all flow
//! work happens on the canonical twin `decode_canonical(encode_canonical(g))`
//! — so every cached artifact is expressed in canonical node ids and a
//! node-id-permuted or alpha-renamed resubmission of the same structure is
//! answered from cache. The artifact store is probed outer-to-inner:
//!
//! 1. **netlist** (`{hash}-{strategy}-{config}`): decode the stored wire
//!    bytes, differentially audit against the *request's* design, time
//!    the stored final netlist ([`Finished::measure`]);
//! 2. **cluster** (`{hash}-{strategy}`): decode graph + clustering,
//!    re-synthesize under the request watchdog, [`finish`], audit,
//!    backfill the netlist entry;
//! 3. **miss**: the full guarded flow ([`run_flow_guarded`]), then
//!    [`finish`].
//!
//! The netlist measured and stored is always the final one that
//! [`finish`] returns (constants folded, dead gates swept), so a served
//! QoR equals what `dpmc run` reports for the same design and
//! configuration.
//!
//! Every audit is a [`dp_synth::Equiv`] built from the request's design.
//!
//! Any defect on a hit path — undecodable payload, interface mismatch,
//! failed differential audit — **quarantines** the entry and falls through
//! to the next level: never a crash, never a wrong answer. The store only
//! learns from *healthy* (non-degraded) runs.
//!
//! # Supervision
//!
//! Each request carries a wall-clock deadline and live-heap ceiling
//! (request fields, falling back to service defaults), enforced
//! cooperatively inside the analysis, synthesis, and fold loops via the
//! flow watchdog. A breach answers `outcome: "deadline"` / `"memory"`. A
//! panicking handler is caught and retried with backoff up to the
//! configured retry budget; typed flow errors never retry.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dp_dfg::{canonical_form, decode_canonical, encode_canonical, Dfg};
use dp_metrics::{Json, Recorder, WatchdogTrip};
use dp_netlist::{Library, Netlist};
use dp_opt::{finish, Finished};
use dp_synth::{
    run_flow_guarded, synthesize_watched, AdderKind, CsaStats, Equiv, FlowBudget, MergeStrategy,
    Mismatch, ReductionKind, SynthConfig, SynthError,
};
use dp_testcases::named_design;

use crate::codec::{
    config_fingerprint, decode_cluster_artifact, decode_netlist_artifact, encode_cluster_artifact,
    encode_netlist_artifact, strategy_fingerprint,
};
use crate::pool::{self, WorkerError};
use crate::store::{ArtifactKind, Store, StoreStats};

/// The response schema version stamped on every response line.
pub const SCHEMA: &str = "dpmc-serve/1";

/// The schema version of the trailing stats line.
pub const STATS_SCHEMA: &str = "dpmc-serve-stats/1";

/// Callback that parses an inline `source` field into a design. The
/// expression DSL lives in the `datapath-merge` binary crate (which
/// depends on this one), so the parser is injected rather than imported.
pub type SourceParser = dyn Fn(&str) -> Result<Dfg, String> + Send + Sync;

/// Service-level knobs; per-request fields override the defaults.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads dispatching requests (slot-ordered, so the response
    /// order never depends on this).
    pub jobs: usize,
    /// Panic retries per request before the failure is reported.
    pub retries: u32,
    /// Default per-request wall-clock deadline (ms); `None` = unlimited.
    pub deadline_ms: Option<u64>,
    /// Default per-request live-heap ceiling (MiB); `None` = unlimited.
    pub max_live_mb: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { jobs: 1, retries: 2, deadline_ms: None, max_live_mb: None }
    }
}

/// Aggregated outcome of one [`Service::serve_lines`] batch; also rendered
/// as the trailing `dpmc-serve-stats/1` line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Requests answered.
    pub requests: u64,
    /// `ok` outcomes.
    pub ok: u64,
    /// `degraded` outcomes.
    pub degraded: u64,
    /// `deadline` outcomes.
    pub deadline: u64,
    /// `memory` outcomes.
    pub memory: u64,
    /// `error` outcomes.
    pub errors: u64,
    /// Requests answered from a stored netlist.
    pub hits_netlist: u64,
    /// Requests answered from a stored clustering.
    pub hits_cluster: u64,
    /// Requests that ran the full flow.
    pub misses: u64,
    /// Handler attempts beyond the first (panic retries).
    pub retries: u64,
    /// Wall-clock of the batch, microseconds (nondeterministic).
    pub elapsed_us: u64,
}

impl ServeStats {
    /// Requests answered from any store level.
    pub fn hits(&self) -> u64 {
        self.hits_netlist + self.hits_cluster
    }

    /// Cache hit rate over requests that consulted the store.
    pub fn hit_rate(&self) -> f64 {
        let probed = self.hits() + self.misses;
        if probed == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.hits() as f64 / probed as f64
        }
    }

    /// Requests per second over the batch wall-clock.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.requests as f64 * 1_000_000.0 / self.elapsed_us as f64
        }
    }
}

/// Which store level answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheLevel {
    Netlist,
    Cluster,
    Miss,
    Off,
}

impl CacheLevel {
    fn tag(self) -> &'static str {
        match self {
            CacheLevel::Netlist => "netlist",
            CacheLevel::Cluster => "cluster",
            CacheLevel::Miss => "miss",
            CacheLevel::Off => "off",
        }
    }
}

/// One parsed request. `spec` is resolved inside the worker so a huge
/// builtin (S1000) is constructed under the request's supervision.
#[derive(Debug, Clone)]
struct Request {
    id: String,
    design: String,
    spec: DesignSpec,
    strategy: MergeStrategy,
    config: SynthConfig,
    deadline_ms: Option<u64>,
    max_live_mb: Option<u64>,
    no_cache: bool,
}

#[derive(Debug, Clone)]
enum DesignSpec {
    Named(String),
    Source(String),
}

/// A successfully synthesized answer (possibly degraded).
struct Success {
    strategy: String,
    gates: usize,
    clusters: usize,
    cpa_count: usize,
    csa_depth: usize,
    delay_ns: f64,
    area: f64,
    degraded: Vec<String>,
    cache: CacheLevel,
    hash: String,
}

/// Why a request produced no netlist.
enum Failure {
    /// A supervision limit fired (`"deadline"` or `"memory ceiling"`).
    Budget(String),
    /// A typed error (usage, graph, cluster, netlist, or caught panic).
    Error(WorkerError),
}

/// One rendered response plus the tallies the stats line needs.
struct Reply {
    line: String,
    outcome: &'static str,
    cache: CacheLevel,
    attempts: u32,
}

/// The supervised synthesis service. Construct with [`Service::new`],
/// optionally attach a [`Store`] and a [`SourceParser`], then feed it
/// request batches via [`Service::serve_lines`] or [`Service::serve_tcp`].
pub struct Service {
    opts: ServeOptions,
    /// The measuring library every answer is timed under.
    lib: Library,
    store: Option<Mutex<Store>>,
    parser: Option<Box<SourceParser>>,
    /// Chaos hook: the next N handler attempts panic on entry (see
    /// [`Service::inject_panics`]).
    chaos_panics: AtomicU32,
}

impl Service {
    /// A service with no store and no inline-source parser.
    pub fn new(opts: ServeOptions) -> Service {
        Service {
            opts,
            lib: Library::synthetic_025um(),
            store: None,
            parser: None,
            chaos_panics: AtomicU32::new(0),
        }
    }

    /// Attaches the artifact store (cache on).
    #[must_use]
    pub fn with_store(mut self, store: Store) -> Service {
        self.store = Some(Mutex::new(store));
        self
    }

    /// Attaches the inline-`source` parser.
    #[must_use]
    pub fn with_parser(mut self, parser: Box<SourceParser>) -> Service {
        self.parser = Some(parser);
        self
    }

    /// Chaos hook for the fault harness: the next `n` handler attempts
    /// panic on entry, exercising the catch-retry-report path without
    /// touching any flow code.
    pub fn inject_panics(&self, n: u32) {
        self.chaos_panics.store(n, Ordering::SeqCst);
    }

    /// The store's lookup/write counters, if a store is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|m| lock(m).stats())
    }

    /// The store's recovery/quarantine diagnostics, if a store is attached.
    pub fn store_diagnostics(&self) -> Vec<String> {
        self.store.as_ref().map(|m| lock(m).diagnostics().to_vec()).unwrap_or_default()
    }

    /// Serves one batch: reads JSON-lines requests from `input` to EOF,
    /// writes one response line per request **in request order**, then one
    /// `dpmc-serve-stats/1` line.
    ///
    /// # Errors
    ///
    /// Only transport I/O errors; malformed requests become `error`
    /// responses.
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        input: R,
        out: &mut W,
    ) -> io::Result<ServeStats> {
        let started = Instant::now();
        let mut requests: Vec<Result<Request, (String, WorkerError)>> = Vec::new();
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            requests.push(parse_request(&line, requests.len()));
        }
        let replies = pool::run_slots(requests.len(), self.opts.jobs, |i| {
            Ok::<Reply, WorkerError>(match &requests[i] {
                Ok(req) => self.dispatch(req),
                Err((id, e)) => Reply {
                    line: render_error(id, "?", "error", e, 1, 0),
                    outcome: "error",
                    cache: CacheLevel::Off,
                    attempts: 1,
                },
            })
        });
        let mut stats = ServeStats::default();
        for reply in replies {
            let reply = reply.unwrap_or_else(|e| Reply {
                line: render_error("?", "?", "error", &e, 1, 0),
                outcome: "error",
                cache: CacheLevel::Off,
                attempts: 1,
            });
            stats.requests += 1;
            stats.retries += u64::from(reply.attempts.saturating_sub(1));
            match reply.outcome {
                "ok" => stats.ok += 1,
                "degraded" => stats.degraded += 1,
                "deadline" => stats.deadline += 1,
                "memory" => stats.memory += 1,
                _ => stats.errors += 1,
            }
            match reply.cache {
                CacheLevel::Netlist => stats.hits_netlist += 1,
                CacheLevel::Cluster => stats.hits_cluster += 1,
                CacheLevel::Miss => stats.misses += 1,
                CacheLevel::Off => {}
            }
            out.write_all(reply.line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        stats.elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        out.write_all(render_stats(&stats, self.store_stats()).as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
        Ok(stats)
    }

    /// Serves `max_connections` TCP connections sequentially: each
    /// connection is one [`Service::serve_lines`] batch (client writes
    /// requests, shuts down its write half, reads responses to EOF).
    ///
    /// # Errors
    ///
    /// Transport I/O errors from `accept` or the streams.
    pub fn serve_tcp(
        &self,
        listener: &TcpListener,
        max_connections: usize,
    ) -> io::Result<ServeStats> {
        let mut total = ServeStats::default();
        for _ in 0..max_connections {
            let (stream, _) = listener.accept()?;
            let reader = BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            let s = self.serve_lines(reader, &mut writer)?;
            total.requests += s.requests;
            total.ok += s.ok;
            total.degraded += s.degraded;
            total.deadline += s.deadline;
            total.memory += s.memory;
            total.errors += s.errors;
            total.hits_netlist += s.hits_netlist;
            total.hits_cluster += s.hits_cluster;
            total.misses += s.misses;
            total.retries += s.retries;
            total.elapsed_us += s.elapsed_us;
        }
        Ok(total)
    }

    /// Runs one request under panic supervision: catch, retry with
    /// backoff (panics only — typed failures are deterministic and
    /// retrying them just repeats the work), then report.
    fn dispatch(&self, req: &Request) -> Reply {
        let started = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if chaos_due(&self.chaos_panics) {
                    // panic_any (not the macro) keeps the injected-fault
                    // hook out of the bare-panic lint while exercising
                    // exactly the unwind path a real defect would take.
                    std::panic::panic_any("chaos: injected worker panic");
                }
                self.handle(req)
            }));
            let elapsed = elapsed_us(started);
            match outcome {
                Ok(Ok(success)) => {
                    let outcome = if success.degraded.is_empty() { "ok" } else { "degraded" };
                    return Reply {
                        line: render_success(req, outcome, &success, attempt, elapsed),
                        outcome,
                        cache: success.cache,
                        attempts: attempt,
                    };
                }
                Ok(Err(Failure::Budget(limit))) => {
                    let outcome = if limit.contains("memory") { "memory" } else { "deadline" };
                    let e =
                        WorkerError::new("analysis", 6, format!("flow budget exhausted: {limit}"));
                    return Reply {
                        line: render_error(&req.id, &req.design, outcome, &e, attempt, elapsed),
                        outcome,
                        cache: CacheLevel::Off,
                        attempts: attempt,
                    };
                }
                Ok(Err(Failure::Error(e))) => {
                    return Reply {
                        line: render_error(&req.id, &req.design, "error", &e, attempt, elapsed),
                        outcome: "error",
                        cache: CacheLevel::Off,
                        attempts: attempt,
                    };
                }
                Err(payload) => {
                    let e = WorkerError::from_panic(payload.as_ref());
                    if attempt > self.opts.retries {
                        return Reply {
                            line: render_error(&req.id, &req.design, "error", &e, attempt, elapsed),
                            outcome: "error",
                            cache: CacheLevel::Off,
                            attempts: attempt,
                        };
                    }
                    // Linear backoff: panics here are crashes, not
                    // contention — the pause is to let a transient (an
                    // allocator shortfall, a chaos window) clear.
                    std::thread::sleep(Duration::from_millis(5 * u64::from(attempt)));
                }
            }
        }
    }

    /// The actual request pipeline (runs inside `catch_unwind`).
    fn handle(&self, req: &Request) -> Result<Success, Failure> {
        let g = self.resolve(req)?;
        g.validate().map_err(|e| typed("graph", 5, format!("invalid design: {e}")))?;
        let form = canonical_form(&g);
        let gc = decode_canonical(&encode_canonical(&g))
            .map_err(|e| typed("graph", 5, format!("canonicalization failed: {e}")))?;

        let mut budget = FlowBudget::default();
        let deadline_ms = req.deadline_ms.or(self.opts.deadline_ms);
        if let Some(ms) = deadline_ms {
            budget = budget.with_deadline(Instant::now() + Duration::from_millis(ms));
        }
        if let Some(mb) = req.max_live_mb.or(self.opts.max_live_mb) {
            // The ceiling bounds this request's own heap growth. The pool
            // may run the request on the calling thread, whose live bytes
            // already count the caller's heap, so arm it above that.
            let base = dp_metrics::alloc_probe().map_or(0, |p| p.stats().live_bytes);
            budget = budget.with_memory_ceiling(base.saturating_add(mb.saturating_mul(1 << 20)));
        }

        let cached = self.store.is_some() && !req.no_cache;
        if !cached {
            return self.run_cold(req, &gc, &form.hash, &budget, CacheLevel::Off);
        }
        // The differential-audit oracle: fixed vectors, reference outputs
        // evaluated on the *request's* design — a hit must match the
        // design the client sent, not the design that filled the cache.
        let oracle = Equiv::new(&g, budget.check_seed, budget.check_vectors.max(1))
            .map_err(|e| typed("graph", 5, format!("reference evaluation failed: {e}")))?;
        let keys = Keys::new(&form.hash, req.strategy, &req.config);

        if let Some(success) = self.try_netlist_hit(&keys, &oracle, &form.hash)? {
            return Ok(success);
        }
        if let Some(success) = self.try_cluster_hit(req, &keys, &oracle, &form.hash, &budget)? {
            return Ok(success);
        }
        self.run_cold(req, &gc, &form.hash, &budget, CacheLevel::Miss)
    }

    /// Level 1: a stored netlist. Decode, audit against the request's
    /// design, time it. Any defect quarantines and falls through.
    fn try_netlist_hit(
        &self,
        keys: &Keys,
        oracle: &Equiv,
        hash: &str,
    ) -> Result<Option<Success>, Failure> {
        let Some(payload) = self.store_get(ArtifactKind::Netlist, &keys.netlist) else {
            return Ok(None);
        };
        let decoded = decode_netlist_artifact(&payload).and_then(|(clusters, csa, wire)| {
            Netlist::from_bytes(wire).map(|nl| (clusters, csa, nl)).map_err(|e| e.to_string())
        });
        let (clusters, csa, nl) = match decoded {
            Ok(v) => v,
            Err(defect) => {
                self.store_quarantine(ArtifactKind::Netlist, &keys.netlist, &defect);
                return Ok(None);
            }
        };
        if let Some(m) = oracle.netlist_mismatch(&nl) {
            self.store_quarantine(ArtifactKind::Netlist, &keys.netlist, &netlist_defect(m));
            return Ok(None);
        }
        let done = Finished::measure(nl, &self.lib, &mut Recorder::disabled());
        Ok(Some(answer(keys.strategy, &done, clusters, csa, CacheLevel::Netlist, hash)))
    }

    /// Level 2: a stored clustering. Decode graph + clustering,
    /// re-synthesize under the watchdog, audit, backfill the netlist.
    fn try_cluster_hit(
        &self,
        req: &Request,
        keys: &Keys,
        oracle: &Equiv,
        hash: &str,
        budget: &FlowBudget,
    ) -> Result<Option<Success>, Failure> {
        let Some(payload) = self.store_get(ArtifactKind::Cluster, &keys.cluster) else {
            return Ok(None);
        };
        let (graph, clustering) = match decode_cluster_artifact(&payload) {
            Ok(v) => v,
            Err(defect) => {
                self.store_quarantine(ArtifactKind::Cluster, &keys.cluster, &defect);
                return Ok(None);
            }
        };
        if let Some(m) = oracle.interface_mismatch(&graph) {
            let defect = format!("stored artifact interface mismatch: {m}");
            self.store_quarantine(ArtifactKind::Cluster, &keys.cluster, &defect);
            return Ok(None);
        }
        let wd = budget.watchdog();
        match synthesize_watched(&graph, &clustering, &req.config, &mut Recorder::disabled(), &wd) {
            Ok((nl, csa)) => {
                let done = finish(nl, &self.lib, &mut Recorder::disabled(), &wd)?;
                if let Some(m) = oracle.netlist_mismatch(&done.netlist) {
                    self.store_quarantine(ArtifactKind::Cluster, &keys.cluster, &netlist_defect(m));
                    return Ok(None);
                }
                self.store_put(
                    ArtifactKind::Netlist,
                    &keys.netlist,
                    &encode_netlist_artifact(clustering.len(), csa, &done.netlist.to_bytes()),
                );
                let level = CacheLevel::Cluster;
                Ok(Some(answer(keys.strategy, &done, clustering.len(), csa, level, hash)))
            }
            Err(SynthError::Budget(limit)) => Err(Failure::Budget(limit)),
            Err(e) => {
                self.store_quarantine(ArtifactKind::Cluster, &keys.cluster, &e.to_string());
                Ok(None)
            }
        }
    }

    /// The full guarded flow on the canonical twin; healthy results teach
    /// the store both levels.
    fn run_cold(
        &self,
        req: &Request,
        gc: &Dfg,
        hash: &str,
        budget: &FlowBudget,
        level: CacheLevel,
    ) -> Result<Success, Failure> {
        let guarded =
            run_flow_guarded(gc, req.strategy, &req.config, budget).map_err(|e| match e {
                SynthError::Budget(limit) => Failure::Budget(limit),
                other => Failure::Error(classify_synth(&other)),
            })?;
        let degraded = guarded.degradation.as_ref().map(|d| d.tags()).unwrap_or_default();
        let flow = guarded.flow;
        let done = finish(flow.netlist, &self.lib, &mut Recorder::disabled(), &budget.watchdog())?;
        let csa = CsaStats { csa_depth: flow.metrics.csa_depth, cpa_count: flow.metrics.cpa_count };
        if level == CacheLevel::Miss && degraded.is_empty() {
            let keys = Keys::new(hash, req.strategy, &req.config);
            // Cluster artifacts are stored in the transformed graph's own
            // ids, which must *be* canonical indices for a later decode to
            // line up. The width pipeline preserves ids and structure so
            // this holds; verify rather than assume.
            let opt_form = canonical_form(&flow.graph);
            if opt_form.order.iter().enumerate().all(|(i, n)| n.index() == i) {
                self.store_put(
                    ArtifactKind::Cluster,
                    &keys.cluster,
                    &encode_cluster_artifact(&encode_canonical(&flow.graph), &flow.clustering),
                );
            }
            self.store_put(
                ArtifactKind::Netlist,
                &keys.netlist,
                &encode_netlist_artifact(flow.metrics.clusters, csa, &done.netlist.to_bytes()),
            );
        }
        let mut success = answer(req.strategy, &done, flow.metrics.clusters, csa, level, hash);
        success.degraded = degraded;
        Ok(success)
    }

    fn resolve(&self, req: &Request) -> Result<Dfg, Failure> {
        match &req.spec {
            DesignSpec::Named(name) => named_design(name)
                .ok_or_else(|| typed("usage", 2, format!("unknown design {name:?}"))),
            DesignSpec::Source(text) => match &self.parser {
                Some(parse) => parse(text).map_err(|e| typed("parse", 4, e)),
                None => Err(typed("usage", 2, "this service has no inline-source parser")),
            },
        }
    }

    fn store_get(&self, kind: ArtifactKind, key: &str) -> Option<Vec<u8>> {
        self.store.as_ref().and_then(|m| lock(m).get(kind, key))
    }

    fn store_put(&self, kind: ArtifactKind, key: &str, payload: &[u8]) {
        // A failed write (disk full, permissions) costs a future cache
        // hit, not this request.
        if let Some(m) = self.store.as_ref() {
            let _ = lock(m).put(kind, key, payload);
        }
    }

    fn store_quarantine(&self, kind: ArtifactKind, key: &str, reason: &str) {
        if let Some(m) = self.store.as_ref() {
            lock(m).quarantine(kind, key, reason);
        }
    }
}

/// Locks a store mutex, adopting the inner value if a panicking handler
/// poisoned it (the store's on-disk state is journaled; the in-memory
/// index never holds a partial write).
fn lock(m: &Mutex<Store>) -> std::sync::MutexGuard<'_, Store> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn chaos_due(counter: &AtomicU32) -> bool {
    counter.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)).is_ok()
}

fn typed(family: &str, exit_code: u8, message: impl Into<String>) -> Failure {
    Failure::Error(WorkerError::new(family, exit_code, message))
}

/// Maps a non-budget [`SynthError`] onto the flow-error taxonomy, matching
/// the `dpmc` process exit classification for the same failure.
fn classify_synth(e: &SynthError) -> WorkerError {
    match e {
        SynthError::InvalidGraph(v) => WorkerError::new("graph", 5, v.to_string()),
        SynthError::InvalidClustering(c) => WorkerError::new("cluster", 7, c.to_string()),
        SynthError::Linearize(l) => WorkerError::new("cluster", 7, l.to_string()),
        SynthError::Audit(m) => WorkerError::new("netlist", 8, m.clone()),
        SynthError::Budget(m) => WorkerError::new("analysis", 6, m.clone()),
    }
}

fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A supervision limit that fired during [`finish`].
impl From<WatchdogTrip> for Failure {
    fn from(trip: WatchdogTrip) -> Failure {
        Failure::Budget(trip.to_string())
    }
}

/// The answer for a final netlist and its flow counters.
fn answer(
    strategy: MergeStrategy,
    done: &Finished,
    clusters: usize,
    csa: CsaStats,
    cache: CacheLevel,
    hash: &str,
) -> Success {
    Success {
        strategy: strategy.to_string(),
        gates: done.netlist.num_gates(),
        clusters,
        cpa_count: csa.cpa_count,
        csa_depth: csa.csa_depth,
        delay_ns: done.delay_ns,
        area: done.area,
        degraded: Vec::new(),
        cache,
        hash: hash.to_string(),
    }
}

/// The two cache keys of one request.
struct Keys {
    strategy: MergeStrategy,
    cluster: String,
    netlist: String,
}

impl Keys {
    fn new(hash: &str, strategy: MergeStrategy, config: &SynthConfig) -> Keys {
        let strat = strategy_fingerprint(strategy);
        Keys {
            strategy,
            cluster: format!("{hash}-{strat}"),
            netlist: format!("{hash}-{strat}-{}", config_fingerprint(config)),
        }
    }
}

/// Renders a netlist audit finding as a quarantine reason. Cached
/// artifacts are synthesized from the canonical twin, whose interface
/// corresponds to the request's positionally, so ports are named by
/// position.
fn netlist_defect(m: Mismatch) -> String {
    match m {
        Mismatch::PortCount => {
            "stored netlist interface mismatch: output counts differ".to_string()
        }
        other => format!("stored netlist {other}"),
    }
}

fn parse_request(line: &str, index: usize) -> Result<Request, (String, WorkerError)> {
    let fallback_id = format!("r{index}");
    let doc = Json::parse(line).map_err(|e| {
        (fallback_id.clone(), WorkerError::new("parse", 4, format!("bad request JSON: {e}")))
    })?;
    let id = match doc.get("id") {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Int(v)) => v.to_string(),
        _ => fallback_id.clone(),
    };
    let fail = |m: String| (id.clone(), WorkerError::new("usage", 2, m));
    let design = doc.get("design").and_then(Json::as_str);
    let source = doc.get("source").and_then(Json::as_str);
    let (design, spec) = match (design, source) {
        (Some(name), None) => (name.to_string(), DesignSpec::Named(name.to_string())),
        (None, Some(text)) => ("<inline>".to_string(), DesignSpec::Source(text.to_string())),
        (Some(_), Some(_)) => {
            return Err(fail("give either \"design\" or \"source\", not both".into()))
        }
        (None, None) => {
            return Err(fail("a request needs a \"design\" or \"source\" field".into()))
        }
    };
    let strategy = match doc.get("strategy").and_then(Json::as_str) {
        None | Some("new") => MergeStrategy::New,
        Some("old") => MergeStrategy::Old,
        Some("none") => MergeStrategy::None,
        Some(other) => return Err(fail(format!("unknown strategy {other:?}"))),
    };
    let mut config = SynthConfig::default();
    match doc.get("adder").and_then(Json::as_str) {
        None => {}
        Some("ripple") => config.adder = AdderKind::Ripple,
        Some("carry-select") => config.adder = AdderKind::CarrySelect,
        Some("kogge-stone") => config.adder = AdderKind::KoggeStone,
        Some(other) => return Err(fail(format!("unknown adder {other:?}"))),
    }
    match doc.get("reduction").and_then(Json::as_str) {
        None => {}
        Some("wallace") => config.reduction = ReductionKind::Wallace,
        Some("dadda") => config.reduction = ReductionKind::Dadda,
        Some(other) => return Err(fail(format!("unknown reduction {other:?}"))),
    }
    if let Some(Json::Bool(b)) = doc.get("sign_ext_compression") {
        config.sign_ext_compression = *b;
    }
    let uint_field = |key: &str| -> Result<Option<u64>, (String, WorkerError)> {
        match doc.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => match v.as_i64().filter(|&n| n >= 0) {
                Some(n) => Ok(Some(u64::try_from(n).unwrap_or(0))),
                None => Err((
                    id.clone(),
                    WorkerError::new(
                        "usage",
                        2,
                        format!("\"{key}\" must be a non-negative integer"),
                    ),
                )),
            },
        }
    };
    let deadline_ms = uint_field("deadline_ms")?;
    let max_live_mb = uint_field("max_live_mb")?;
    let no_cache = matches!(doc.get("no_cache"), Some(Json::Bool(true)));
    Ok(Request { id, design, spec, strategy, config, deadline_ms, max_live_mb, no_cache })
}

/// The shared response prefix: schema, id, design, outcome.
fn response_head(id: &str, design: &str, outcome: &str) -> Json {
    Json::obj()
        .field("schema", SCHEMA)
        .field("id", id)
        .field("design", design)
        .field("outcome", outcome)
}

fn render_success(
    req: &Request,
    outcome: &str,
    s: &Success,
    attempts: u32,
    elapsed_us: u64,
) -> String {
    response_head(&req.id, &req.design, outcome)
        .field("strategy", s.strategy.as_str())
        .field("gates", s.gates)
        .field("clusters", s.clusters)
        .field("cpa_count", s.cpa_count)
        .field("csa_depth", s.csa_depth)
        .field("delay_ns", s.delay_ns)
        .field("area", s.area)
        .field("degraded", Json::Array(s.degraded.iter().map(|t| Json::Str(t.clone())).collect()))
        .field("cache", Json::obj().field("level", s.cache.tag()).field("key", s.hash.as_str()))
        .field("attempts", u64::from(attempts))
        .field("elapsed_us", elapsed_us)
        .render()
}

fn render_error(
    id: &str,
    design: &str,
    outcome: &str,
    e: &WorkerError,
    attempts: u32,
    elapsed_us: u64,
) -> String {
    response_head(id, design, outcome)
        .field("family", e.family.as_str())
        .field("exit_code", u64::from(e.exit_code))
        .field("message", e.message.as_str())
        .field("attempts", u64::from(attempts))
        .field("elapsed_us", elapsed_us)
        .render()
}

fn render_stats(s: &ServeStats, store: Option<StoreStats>) -> String {
    let mut doc = Json::obj()
        .field("schema", STATS_SCHEMA)
        .field("requests", s.requests)
        .field("ok", s.ok)
        .field("degraded", s.degraded)
        .field("deadline", s.deadline)
        .field("memory", s.memory)
        .field("errors", s.errors)
        .field(
            "cache",
            Json::obj()
                .field("hits_netlist", s.hits_netlist)
                .field("hits_cluster", s.hits_cluster)
                .field("misses", s.misses)
                .field("hit_rate", s.hit_rate()),
        )
        .field("retries", s.retries);
    if let Some(st) = store {
        doc = doc.field(
            "store",
            Json::obj()
                .field("hits", st.hits)
                .field("misses", st.misses)
                .field("writes", st.writes)
                .field("quarantined", st.quarantined),
        );
    }
    doc.field("elapsed_us", s.elapsed_us).field("throughput_rps", s.throughput_rps()).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve(service: &Service, requests: &str) -> (Vec<String>, ServeStats) {
        let mut out = Vec::new();
        let stats = service.serve_lines(requests.as_bytes(), &mut out).expect("serve");
        let text = String::from_utf8(out).expect("utf8 responses");
        (text.lines().map(str::to_string).collect(), stats)
    }

    /// Strips the volatile tail (cache provenance, attempts, elapsed) so
    /// cold and warm responses can be compared for equality.
    fn scrub(line: &str) -> String {
        line.split(",\"cache\":").next().unwrap_or(line).to_string()
    }

    #[test]
    fn storeless_service_answers_and_classifies() {
        let service = Service::new(ServeOptions::default());
        let (lines, stats) = serve(
            &service,
            "{\"id\":\"a\",\"design\":\"fig1\"}\n{\"id\":\"b\",\"design\":\"nope\"}\nnot json\n",
        );
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"outcome\":\"ok\""), "{}", lines[0]);
        assert!(lines[0].contains("\"level\":\"off\""));
        assert!(
            lines[1].contains("\"outcome\":\"error\"") && lines[1].contains("\"family\":\"usage\"")
        );
        assert!(lines[2].contains("\"family\":\"parse\""));
        assert!(lines[3].contains(STATS_SCHEMA));
        assert_eq!((stats.requests, stats.ok, stats.errors), (3, 1, 2));
    }

    #[test]
    fn warm_responses_equal_cold_responses_and_hit_the_store() {
        let root = std::env::temp_dir().join(format!("dp-serve-svc-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let service =
            Service::new(ServeOptions::default()).with_store(Store::open(&root).expect("store"));
        let batch = "{\"id\":\"x\",\"design\":\"fig2\"}\n{\"id\":\"y\",\"design\":\"fig2\",\"strategy\":\"none\"}\n";
        let (cold, cold_stats) = serve(&service, batch);
        assert_eq!(cold_stats.misses, 2);
        assert_eq!(cold_stats.hits(), 0);
        let (warm, warm_stats) = serve(&service, batch);
        assert_eq!(warm_stats.hits_netlist, 2, "diagnostics: {:?}", service.store_diagnostics());
        for (c, w) in cold.iter().zip(&warm).take(2) {
            assert_eq!(scrub(c), scrub(w));
            assert!(w.contains("\"level\":\"netlist\""));
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn expired_deadline_reports_deadline_outcome() {
        let service = Service::new(ServeOptions::default());
        let (lines, stats) =
            serve(&service, "{\"id\":\"d\",\"design\":\"fig1\",\"deadline_ms\":0}\n");
        assert!(lines[0].contains("\"outcome\":\"deadline\""), "{}", lines[0]);
        assert_eq!(stats.deadline, 1);
    }

    #[test]
    fn injected_panics_retry_then_succeed() {
        let service = Service::new(ServeOptions { retries: 2, ..ServeOptions::default() });
        service.inject_panics(2);
        let (lines, stats) = serve(&service, "{\"id\":\"p\",\"design\":\"fig1\"}\n");
        assert!(lines[0].contains("\"outcome\":\"ok\""), "{}", lines[0]);
        assert!(lines[0].contains("\"attempts\":3"));
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn exhausted_retries_report_the_panic_taxonomy() {
        let service = Service::new(ServeOptions { retries: 1, ..ServeOptions::default() });
        service.inject_panics(u32::MAX);
        let (lines, stats) = serve(&service, "{\"id\":\"p\",\"design\":\"fig1\"}\n");
        service.inject_panics(0);
        assert!(lines[0].contains("\"outcome\":\"error\""), "{}", lines[0]);
        assert!(lines[0].contains("\"family\":\"panic\""));
        assert!(lines[0].contains("\"exit_code\":101"));
        assert!(lines[0].contains("chaos: injected worker panic"));
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn inline_sources_need_a_parser_and_use_one_when_given() {
        let service = Service::new(ServeOptions::default());
        let (lines, _) = serve(&service, "{\"id\":\"s\",\"source\":\"whatever\"}\n");
        assert!(lines[0].contains("no inline-source parser"), "{}", lines[0]);

        let service = Service::new(ServeOptions::default()).with_parser(Box::new(|text| {
            if text == "make-fig1" {
                named_design("fig1").ok_or_else(|| "missing".to_string())
            } else {
                Err(format!("no parse: {text}"))
            }
        }));
        let (lines, _) = serve(&service, "{\"source\":\"make-fig1\"}\n{\"source\":\"garbage\"}\n");
        assert!(lines[0].contains("\"outcome\":\"ok\""), "{}", lines[0]);
        assert!(lines[1].contains("\"family\":\"parse\""), "{}", lines[1]);
    }

    #[test]
    fn response_order_is_request_order_for_any_job_count() {
        let service = Service::new(ServeOptions { jobs: 4, ..ServeOptions::default() });
        let batch = "{\"id\":\"a\",\"design\":\"fig1\"}\n{\"id\":\"b\",\"design\":\"fig2\"}\n{\"id\":\"c\",\"design\":\"fig3\"}\n";
        let (par, _) = serve(&service, batch);
        let serial = Service::new(ServeOptions::default());
        let (seq, _) = serve(&serial, batch);
        let volatile_free =
            |lines: &[String]| lines.iter().take(3).map(|l| scrub(l)).collect::<Vec<_>>();
        assert_eq!(volatile_free(&par), volatile_free(&seq));
    }
}
