//! The `serve-mix` workload: one closed-loop client of the synthesis
//! service with its artifact store.
//!
//! A run first fills a fresh store with a seeded warm-up stream, in a
//! child process (untimed, and outside the measured process's peak RSS).
//! Each round then restores a copy of that store, restarts the service
//! over it (the set-up time: `Store::open` plus building the `Service`),
//! and times a seeded stream of cold misses and of resubmissions of the
//! warm designs: exact, renamed and reordered, and varied in adder,
//! reduction, merge strategy and operand widths. Each request is sent
//! alone through `Service::serve_lines`. A run is whole rounds, each on
//! its own copy of the warm store, so every round sees the same cache
//! behaviour.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datapath_merge::bitvec::BitVec;
use datapath_merge::dfg::{decode_canonical, Dfg};
use datapath_merge::dsl::parse_design;
use datapath_merge::metrics::Json;
use datapath_merge::netlist::Netlist;
use datapath_merge::serve::codec::{
    config_fingerprint, decode_cluster_artifact, decode_netlist_artifact,
};
use datapath_merge::serve::{ArtifactKind, ServeOptions, Service, Store};
use datapath_merge::synth::{AdderKind, ReductionKind, SynthConfig};
use datapath_merge::testcases::named_design;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::compile::{check_graph, check_netlist, check_vectors, reference};
use crate::inputs::{self, sub_seed, COEFF_SETS, FAMILIES, PAPER_DESIGNS};
use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::trace::{Layers, Tracer};
use crate::Args;

/// Scaling members and strategies sent in the warm-up so the store is
/// large enough that verifying checksums at open costs more than the
/// journal's fsync. (S10k's new-merge flow degrades, and the store learns
/// only from healthy runs, so it is not sent.)
const MASS: [(&str, &[&str]); 3] = [
    ("S400", &["none", "old", "new"]),
    ("S1000", &["none", "old", "new"]),
    ("S10k", &["none", "old"]),
];

/// Where a request's design comes from.
#[derive(Debug, Clone)]
enum Spec {
    Named(String),
    Source(String),
}

/// One request of the stream.
#[derive(Debug, Clone)]
struct Req {
    /// Request id; its prefix names how it relates to the store (warm,
    /// cold, exact, renamed, adder, reduction, strategy, width).
    id: String,
    /// Index into the design table (for reference outputs).
    design: usize,
    /// For a renamed resubmission: the warm request it renames.
    original: Option<usize>,
    spec: Spec,
    strategy: &'static str,
    adder: Option<&'static str>,
    reduction: Option<&'static str>,
}

impl Req {
    fn line(&self) -> String {
        let mut doc = Json::obj().field("id", self.id.as_str());
        doc = match &self.spec {
            Spec::Named(n) => doc.field("design", n.as_str()),
            Spec::Source(t) => doc.field("source", t.as_str()),
        };
        doc = doc.field("strategy", self.strategy);
        if let Some(a) = self.adder {
            doc = doc.field("adder", a);
        }
        if let Some(r) = self.reduction {
            doc = doc.field("reduction", r);
        }
        doc.render()
    }

    /// The netlist-level cache identity: strategy and synthesis config.
    fn config(&self) -> (&'static str, &'static str, &'static str) {
        (self.strategy, self.adder.unwrap_or("kogge-stone"), self.reduction.unwrap_or("dadda"))
    }
}

/// The seeded request lists of one run: warm-up, then the timed stream.
struct Streams {
    /// Design table: id and graph (the design the service is sent).
    designs: Vec<(String, Dfg)>,
    warm: Vec<Req>,
    timed: Vec<Req>,
}

/// The other merge strategy a strategy variant asks for.
fn other_strategy(strategy: &str, k: usize) -> &'static str {
    match strategy {
        "new" if k.is_multiple_of(2) => "old",
        "new" => "none",
        _ => "new",
    }
}

fn streams(seed: u64) -> Streams {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, "serve-mix"));
    let mut designs: Vec<(String, Dfg)> = Vec::new();
    let mut add = |id: String, g: Dfg| {
        designs.push((id, g));
        designs.len() - 1
    };
    let req = |id: String, design, spec, strategy| Req {
        id,
        design,
        original: None,
        spec,
        strategy,
        adder: None,
        reduction: None,
    };
    let text =
        |g: &Dfg| inputs::render(g, "", None).expect("generated designs have no extension nodes");
    let mut warm = Vec::new();
    for (name, strategies) in MASS {
        let d = add(name.to_string(), named_design(name).expect("built in"));
        for &strategy in strategies {
            warm.push(req(
                format!("warm-{name}-{strategy}"),
                d,
                Spec::Named(name.into()),
                strategy,
            ));
        }
    }
    // The paper designs by name, under new-merge.
    let mut paper_warm = Vec::new();
    for name in PAPER_DESIGNS {
        let d = add(name.to_string(), named_design(name).expect("built in"));
        paper_warm.push(warm.len());
        warm.push(req(format!("warm-{name}-new"), d, Spec::Named(name.into()), "new"));
    }
    // Inline designs: one seeded draw per family size slot, at the slot's
    // base width (the seed draws the FIR coefficient sets). Even draws are
    // sent in the warm-up, alternating new- and old-merge; odd ones are
    // the timed stream's cold misses. Each warm draw keeps its +1-bit
    // twin for the width variant.
    let mut inline_warm = Vec::new();
    let mut timed: Vec<Req> = Vec::new();
    let mut k = 0;
    for family in FAMILIES {
        for slot in 0..3 {
            let c = rng.gen_range(0..COEFF_SETS);
            let c = if matches!(family, "fir" | "csd_fir") { c } else { 0 };
            let (id, g) = inputs::member(family, slot, 0, c);
            let strategy = if k % 4 < 2 { "new" } else { "old" };
            let source = Spec::Source(text(&g));
            let d = add(id.clone(), g);
            if k % 2 == 0 {
                let wider = add(format!("{id}+1"), inputs::member(family, slot, 1, c).1);
                inline_warm.push((warm.len(), wider));
                warm.push(req(format!("warm-{id}-{strategy}"), d, source, strategy));
            } else {
                timed.push(req(format!("cold-{id}-{strategy}"), d, source, strategy));
            }
            k += 1;
        }
    }

    // No request log of `dpmc serve` exists to take the make-up from, so
    // it is assumed: every warm inline design comes back once in each of
    // six ways — exact, renamed and reordered (same canonical hash), with
    // another adder, with another reduction tree (both the cluster
    // level), under another merge strategy, and with operands one bit
    // wider (both misses). The paper designs come back exact, with another
    // adder and under another strategy; S1000 exact and with another
    // adder. The make-up is the same on every seed, so a round costs about
    // the same and sums to about the same QoR; the seed draws the FIR
    // coefficient sets, the renaming and the order.
    let adder = |k: usize| if k.is_multiple_of(2) { "ripple" } else { "carry-select" };
    for (k, &(wi, wider)) in inline_warm.iter().enumerate() {
        let w = warm[wi].clone();
        let name = designs[w.design].0.clone();
        timed.push(Req { id: format!("exact-{}", w.id), ..w.clone() });
        let prefix = format!("r{}x", rng.gen_range(0..1000u32));
        let renamed = inputs::render(&designs[w.design].1, &prefix, Some(&mut rng))
            .expect("generated designs have no extension nodes");
        let g = parse_design(&renamed).expect("rendered designs parse");
        let d = designs.len();
        designs.push((format!("{name}-renamed"), g));
        timed.push(Req {
            id: format!("renamed-{}", w.id),
            design: d,
            original: Some(wi),
            spec: Spec::Source(renamed),
            ..w.clone()
        });
        timed.push(Req { id: format!("adder-{}", w.id), adder: Some(adder(k)), ..w.clone() });
        timed.push(Req {
            id: format!("reduction-{}", w.id),
            reduction: Some("wallace"),
            ..w.clone()
        });
        let strategy = other_strategy(w.strategy, k);
        timed.push(Req { id: format!("strategy-{name}-{strategy}"), strategy, ..w.clone() });
        let wide = Spec::Source(text(&designs[wider].1));
        timed.push(req(format!("width-{name}+1-{}", w.strategy), wider, wide, w.strategy));
    }
    for (k, &wi) in paper_warm.iter().enumerate() {
        let w = warm[wi].clone();
        let name = designs[w.design].0.clone();
        timed.push(Req { id: format!("exact-{}", w.id), ..w.clone() });
        timed.push(Req { id: format!("adder-{}", w.id), adder: Some(adder(k)), ..w.clone() });
        let strategy = other_strategy(w.strategy, k);
        timed.push(Req { id: format!("strategy-{name}-{strategy}"), strategy, ..w });
    }
    // S1000 resubmitted exact and with another adder. (S400 and S10k only
    // size the store: a hit on S10k takes most of a second and would
    // dominate the stream.)
    let s1000 = warm.iter().find(|w| w.id == "warm-S1000-old").expect("warm S1000").clone();
    timed.push(Req { id: format!("exact-{}", s1000.id), ..s1000.clone() });
    timed.push(Req { id: format!("adder-{}", s1000.id), adder: Some("ripple"), ..s1000 });
    // Closed loop in a seeded order.
    for i in (1..timed.len()).rev() {
        timed.swap(i, rng.gen_range(0..=i));
    }
    Streams { designs, warm, timed }
}

/// The parts of a response the checks use.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    outcome: String,
    level: String,
    key: String,
    gates: i64,
    clusters: i64,
    cpa_count: i64,
    csa_depth: i64,
    delay_ns: f64,
    area: f64,
    degraded: String,
    elapsed_us: f64,
}

fn answer(line: &str) -> Result<Answer, String> {
    let doc = Json::parse(line).map_err(|e| format!("response is not JSON: {e}"))?;
    let s = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let i = |k: &str| doc.get(k).and_then(Json::as_i64).unwrap_or(-1);
    let f = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let cache = doc.get("cache");
    let c = |k: &str| cache.and_then(|c| c.get(k)).and_then(Json::as_str).unwrap_or("").to_string();
    let degraded = doc
        .get("degraded")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_str).collect::<Vec<_>>().join(","))
        .unwrap_or_default();
    let mut outcome = s("outcome");
    if outcome != "ok" {
        outcome = format!("{outcome}: {}{}", s("message"), degraded);
    }
    Ok(Answer {
        outcome,
        level: c("level"),
        key: c("key"),
        gates: i("gates"),
        clusters: i("clusters"),
        cpa_count: i("cpa_count"),
        csa_depth: i("csa_depth"),
        delay_ns: f("delay_ns"),
        area: f("area"),
        degraded,
        elapsed_us: f("elapsed_us"),
    })
}

/// Sends one request as a batch of one; returns the response line and
/// the wall time.
fn send(service: &Service, req: &Req) -> Result<(String, Duration), String> {
    let line = req.line();
    let mut out = Vec::new();
    let t = Instant::now();
    service.serve_lines(line.as_bytes(), &mut out).map_err(|e| format!("serve_lines: {e}"))?;
    let took = t.elapsed();
    let text = String::from_utf8(out).map_err(|_| "response is not UTF-8".to_string())?;
    let first = text.lines().next().ok_or("no response line")?.to_string();
    Ok((first, took))
}

/// Parse time and node count of inline sources, accumulated by the
/// parser the service is given when the run is traced.
#[derive(Default)]
struct ParseStats {
    traced: bool,
    ns: AtomicU64,
    nodes: AtomicU64,
}

/// The service as `dpmc serve` builds it: one job, the DSL parser, the
/// store.
fn service(store: Store, parse: &Arc<ParseStats>) -> Service {
    let stats = Arc::clone(parse);
    Service::new(ServeOptions { jobs: 1, ..ServeOptions::default() })
        .with_parser(Box::new(move |text| {
            if !stats.traced {
                return parse_design(text).map_err(|e| e.to_string());
            }
            let t = Instant::now();
            let g = parse_design(text).map_err(|e| e.to_string());
            stats
                .ns
                .fetch_add(u64::try_from(t.elapsed().as_nanos()).unwrap_or(0), Ordering::Relaxed);
            if let Ok(g) = &g {
                stats.nodes.fetch_add(g.num_nodes() as u64, Ordering::Relaxed);
            }
            g
        }))
        .with_store(store)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Per-round QoR sums and counts, compared across rounds.
#[derive(Debug, Default, Clone, PartialEq)]
struct RoundSum {
    area: f64,
    delay_ns: f64,
    cpa_count: f64,
    failed: u64,
    levels: Vec<String>,
}

/// Runs the serve-mix workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let st = streams(args.seed);
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    let mut layers = Layers::default();
    let parse = Arc::new(ParseStats { traced: args.trace, ..ParseStats::default() });

    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let scratch =
        PathBuf::from(".bench_scratch").join(format!("serve-mix-{}-{nonce}", std::process::id()));
    let warm_dir = scratch.join("warm");
    let outcome =
        measure(&st, &scratch, &warm_dir, args, &parse, &mut tracer, &mut layers, &mut report);
    let _ = std::fs::remove_dir_all(&scratch);
    let Measured { setup, latencies, round_rates, rounds, first, peak_rss } = outcome?;
    let sum = first.expect("at least one round");
    // Requests per second of request wall time, per round; the median
    // over rounds keeps a slow spell of the host or disk from moving it.
    let throughput = median(&round_rates);
    let p50 = median(&latencies);
    if args.trace {
        layers.dsl_parse_ms = parse.ns.load(Ordering::Relaxed) as f64 / 1e6;
        layers.dsl_nodes = parse.nodes.load(Ordering::Relaxed) as f64;
        layers.emit(rounds, &mut report);
        report.metric("traced.throughput_per_s", throughput, "1/s");
        report.metric("traced.latency_ms_p50", p50, "ms");
        report.metric("traced.qor_area", sum.area, "area");
        report.metric("traced.qor_delay_ns", sum.delay_ns, "ns");
        report.metric("traced.qor_cpa_count", sum.cpa_count, "count");
        let path = PathBuf::from(".bench_scratch")
            .join(format!("trace-serve-mix-seed{}.jsonl", args.seed));
        tracer.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        report.metric("setup_s", median(&setup), "s");
        report.metric("throughput_per_s", throughput, "1/s");
        report.metric("latency_ms_p50", p50, "ms");
        report.metric("peak_rss_mb", peak_rss, "MB");
        report.metric("qor_area", sum.area, "area");
        report.metric("qor_delay_ns", sum.delay_ns, "ns");
        report.metric("qor_cpa_count", sum.cpa_count, "count");
    }
    let count = |level: &str| sum.levels.iter().filter(|l| *l == level).count();
    eprintln!(
        "serve-mix: seed {}, {rounds} round(s) of {} timed request(s) after {} warm-up \
         request(s), {} failed; per round {} netlist hit(s), {} cluster hit(s), {} miss(es); \
         latency p90 {:.3} ms over {} samples (reference only)",
        args.seed,
        st.timed.len(),
        st.warm.len(),
        report.failed,
        count("netlist"),
        count("cluster"),
        count("miss"),
        quantile(&latencies, 0.9),
        latencies.len()
    );
    Ok(report)
}

/// What the rounds of one run measured.
struct Measured {
    setup: Vec<f64>,
    latencies: Vec<f64>,
    round_rates: Vec<f64>,
    rounds: u64,
    first: Option<RoundSum>,
    /// Peak RSS after the first round's timed stream: the store's restore
    /// and restart and the stream, the warm-up having run in a child
    /// process. Later rounds repeat its work, so this does not depend on
    /// how many rounds fit in the run; it is read before the round's
    /// checks, whose decoding of every stored artifact is the benchmark's
    /// work, not the service's.
    peak_rss: f64,
}

#[allow(clippy::too_many_arguments)]
fn measure(
    st: &Streams,
    scratch: &Path,
    warm_dir: &Path,
    args: &Args,
    parse: &Arc<ParseStats>,
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<Measured, String> {
    let _ = std::fs::remove_dir_all(scratch);
    let warm = warm_up(st, args.seed, warm_dir, tracer)?;
    if tracer.enabled() {
        layers.store_mb = dir_bytes(warm_dir) as f64 / (1024.0 * 1024.0);
    }
    let mut m = Measured {
        setup: Vec::new(),
        latencies: Vec::new(),
        round_rates: Vec::new(),
        rounds: 0,
        first: None,
        peak_rss: 0.0,
    };
    let started = Instant::now();
    loop {
        m.rounds += 1;
        let dir = scratch.join(format!("round{}", m.rounds));
        let s = tracer.open("restore warm store", u64::MAX);
        copy_dir(warm_dir, &dir).map_err(|e| format!("copying the warm store: {e}"))?;
        tracer.close(s);
        let r = round(st, &warm, &dir, args.seed, m.rounds == 1, parse, tracer, layers, report);
        let _ = std::fs::remove_dir_all(&dir);
        let r = r?;
        m.setup.push(r.setup);
        m.round_rates.push(r.latencies.len() as f64 / r.busy.as_secs_f64());
        m.latencies.extend(r.latencies);
        match &m.first {
            None => {
                m.first = Some(r.sum);
                m.peak_rss = r.peak_rss;
            }
            Some(f) if *f != r.sum => {
                report.problems.push(format!(
                    "round {} differs from round 1 in QoR, cache levels or failures",
                    m.rounds
                ));
            }
            Some(_) => {}
        }
        if started.elapsed() >= args.seconds {
            return Ok(m);
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Fills a fresh store at `dir` with the seed's warm-up stream and
/// returns one response line per request.
pub fn fill(seed: u64, dir: &Path) -> Result<Vec<String>, String> {
    let st = streams(seed);
    let store = Store::open(dir).map_err(|e| format!("store at {}: {e}", dir.display()))?;
    let svc = service(store, &Arc::new(ParseStats::default()));
    st.warm.iter().map(|req| send(&svc, req).map(|(line, _)| line)).collect()
}

/// Runs [`fill`] in a child process (this executable with
/// `--fill-store`), so that the warm-up's compiles, S10k's among them, do
/// not set this process's peak RSS. Waits for the child to end.
#[cfg(not(test))]
fn fill_in_child(seed: u64, dir: &Path) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", "serve-mix", "--seed", &seed.to_string(), "--fill-store"])
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the warm-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("the warm-up process failed ({})", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|_| "warm-up output is not UTF-8")?;
    Ok(text.lines().map(str::to_string).collect())
}

/// The unit tests' executable is the test harness, which has no
/// `--fill-store` mode, so they fill in process.
#[cfg(test)]
fn fill_in_child(seed: u64, dir: &Path) -> Result<Vec<String>, String> {
    fill(seed, dir)
}

/// Fills the warm store; every warm-up request must succeed.
fn warm_up(
    st: &Streams,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Vec<Answer>, String> {
    let span = tracer.open("warm-up (child process)", u64::MAX);
    let lines = fill_in_child(seed, dir)?;
    tracer.close(span);
    if lines.len() != st.warm.len() {
        return Err(format!("the warm-up answered {} of {} requests", lines.len(), st.warm.len()));
    }
    let mut answers = Vec::with_capacity(lines.len());
    for (req, line) in st.warm.iter().zip(&lines) {
        let a = answer(line)?;
        if a.outcome != "ok" || !a.degraded.is_empty() {
            return Err(format!("warm-up request {} did not succeed: {}", req.id, a.outcome));
        }
        answers.push(a);
    }
    Ok(answers)
}

/// Check vectors and reference outputs of one design.
type Refs = (Vec<Vec<BitVec>>, Vec<Vec<Vec<u64>>>);

/// What one round measured.
struct RoundOut {
    setup: f64,
    peak_rss: f64,
    latencies: Vec<f64>,
    busy: Duration,
    sum: RoundSum,
}

/// One round on `dir`, a fresh copy of the warm store: restart, the
/// timed stream, then the checks. The stored artifacts are decoded and
/// checked in the first round only; later rounds must repeat its answers.
#[allow(clippy::too_many_arguments)]
fn round(
    st: &Streams,
    answers: &[Answer],
    dir: &Path,
    seed: u64,
    check_store: bool,
    parse: &Arc<ParseStats>,
    tracer: &mut Tracer,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<RoundOut, String> {
    let io = |e: std::io::Error| format!("store at {}: {e}", dir.display());
    // Restart: the set-up time is what reopening the store and building
    // the service costs.
    let s = tracer.open("restart", u64::MAX);
    let t = Instant::now();
    let o = tracer.open("Store::open", u64::MAX);
    let store = Store::open(dir).map_err(io)?;
    let open = tracer.close(o);
    let svc = service(store, parse);
    let setup = t.elapsed().as_secs_f64();
    tracer.close(s);
    if tracer.enabled() {
        layers.store_open_ms.push(open.as_secs_f64() * 1e3);
    }

    // The timed stream.
    let mut latencies = Vec::with_capacity(st.timed.len());
    let mut busy = Duration::ZERO;
    let mut timed_answers = Vec::with_capacity(st.timed.len());
    for (i, req) in st.timed.iter().enumerate() {
        let s = tracer.open(format!("serve_lines {}", req.id), i as u64);
        let (line, took) = send(&svc, req)?;
        tracer.close(s);
        latencies.push(took.as_secs_f64() * 1e3);
        busy += took;
        timed_answers.push(answer(&line)?);
    }
    let stats = svc.store_stats();
    drop(svc);
    let peak_rss = peak_rss_mb();

    // Checks (untimed).
    let span = tracer.open("check", u64::MAX);
    let mut sum = RoundSum::default();
    // Netlist key -> the answer of the miss that filled it; cluster key
    // (hash, strategy) -> likewise.
    let mut filled: BTreeMap<(String, (&str, &str, &str)), Answer> = BTreeMap::new();
    let mut filled_cluster: BTreeMap<(String, &str), Answer> = BTreeMap::new();
    let mut netlist_keys: BTreeMap<(String, (&str, &str, &str)), usize> = BTreeMap::new();
    for (req, a) in st.warm.iter().zip(answers) {
        filled.entry((a.key.clone(), req.config())).or_insert_with(|| a.clone());
        filled_cluster.entry((a.key.clone(), req.strategy)).or_insert_with(|| a.clone());
        netlist_keys.entry((a.key.clone(), req.config())).or_insert(req.design);
    }
    for (req, a) in st.timed.iter().zip(&timed_answers) {
        sum.area += a.area;
        sum.delay_ns += a.delay_ns;
        sum.cpa_count += a.cpa_count as f64;
        sum.levels.push(a.level.clone());
        let mut problems = Vec::new();
        if a.outcome != "ok" || !a.degraded.is_empty() {
            problems.push(format!("outcome {}", a.outcome));
        }
        if let Some(orig) = req.original {
            if a.key != answers[orig].key {
                problems.push(format!(
                    "renamed resubmission has key {} but its original has {}",
                    a.key, answers[orig].key
                ));
            }
        }
        let nkey = (a.key.clone(), req.config());
        match a.level.as_str() {
            "netlist" => match filled.get(&nkey) {
                Some(m) if same_qor(m, a) => {}
                Some(m) => problems.push(format!(
                    "netlist hit QoR {} differs from its miss {}",
                    qor_text(a),
                    qor_text(m)
                )),
                None => problems.push("netlist hit on an entry no miss filled".into()),
            },
            "cluster" => match filled_cluster.get(&(a.key.clone(), req.strategy)) {
                Some(m) if m.clusters == a.clusters && m.cpa_count == a.cpa_count => {}
                Some(m) => problems.push(format!(
                    "cluster hit clusters/CPAs {}/{} differ from its miss {}/{}",
                    a.clusters, a.cpa_count, m.clusters, m.cpa_count
                )),
                None => problems.push("cluster hit on an entry no miss filled".into()),
            },
            _ => {}
        }
        if a.level == "miss" || a.level == "cluster" || a.level == "analysis" {
            filled.entry(nkey.clone()).or_insert_with(|| a.clone());
            filled_cluster.entry((a.key.clone(), req.strategy)).or_insert_with(|| a.clone());
        }
        netlist_keys.entry(nkey).or_insert(req.design);
        if tracer.enabled() {
            let level = match a.level.as_str() {
                "netlist" => Some((&mut layers.hits_netlist, &mut layers.netlist_hit_ms)),
                "cluster" => Some((&mut layers.hits_cluster, &mut layers.cluster_hit_ms)),
                "analysis" => Some((&mut layers.hits_analysis, &mut layers.analysis_hit_ms)),
                "miss" => Some((&mut layers.misses, &mut layers.miss_ms)),
                _ => None,
            };
            if let Some((count, times)) = level {
                *count += 1.0;
                times.push(a.elapsed_us / 1e3);
            }
        }
        if !problems.is_empty() {
            sum.failed += 1;
            report.fail(&req.id, problems.join("; "));
        }
        report.attempted += 1;
    }
    if let Some(s) = stats {
        if tracer.enabled() {
            layers.store_writes += s.writes as f64;
            layers.store_reads += (s.hits + s.misses) as f64;
            layers.store_quarantined += s.quarantined as f64;
        }
    }
    if check_store {
        check_artifacts(st, &netlist_keys, dir, seed, report)?;
    }
    tracer.close(span);
    Ok(RoundOut { setup, peak_rss, latencies, busy, sum })
}

/// Decodes every stored artifact of the round and checks it against its
/// design: netlists by simulation, cluster and analysis graphs by the
/// reference evaluator. Reference outputs are computed here, after the
/// first round's peak RSS is read.
fn check_artifacts(
    st: &Streams,
    netlist_keys: &BTreeMap<(String, (&str, &str, &str)), usize>,
    dir: &Path,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let mut store = Store::open(dir).map_err(|e| format!("store at {}: {e}", dir.display()))?;
    let mut refs: BTreeMap<usize, Refs> = BTreeMap::new();
    type Verdict<'a> = Box<dyn Fn(&[u8]) -> Result<Option<String>, String> + 'a>;
    for ((hash, config), &d) in netlist_keys {
        let (lanes, want) = match refs.entry(d) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let (id, g) = &st.designs[d];
                let lanes = check_vectors(g, sub_seed(seed, &format!("serve-check-{d}")));
                let want = reference(g, &lanes)
                    .map_err(|e| format!("{id}: reference evaluation failed: {e}"))?;
                e.insert((lanes, want))
            }
        };
        let g = &st.designs[d].1;
        let checks: [(ArtifactKind, String, Verdict); 3] = [
            (
                ArtifactKind::Netlist,
                netlist_key(hash, *config),
                Box::new(|p| {
                    let (_, _, wire) = decode_netlist_artifact(p)?;
                    let nl = Netlist::from_bytes(wire).map_err(|e| e.to_string())?;
                    Ok(check_netlist(g, &nl, lanes, want))
                }),
            ),
            (
                ArtifactKind::Cluster,
                format!("{hash}-{}", config.0),
                Box::new(|p| Ok(check_graph(&decode_cluster_artifact(p)?.0, lanes, want))),
            ),
            (
                ArtifactKind::Analysis,
                hash.clone(),
                Box::new(|p| {
                    let graph = decode_canonical(p).map_err(|e| e.to_string())?;
                    Ok(check_graph(&graph, lanes, want))
                }),
            ),
        ];
        for (kind, key, verdict) in checks {
            if let Some(payload) = store.get(kind, &key) {
                match verdict(&payload) {
                    Ok(None) => {}
                    Ok(Some(p)) | Err(p) => {
                        report.problems.push(format!("stored {} artifact {key}: {p}", kind.dir()))
                    }
                }
            }
        }
    }
    Ok(())
}

/// The store's netlist key for a request's design hash and config.
fn netlist_key(hash: &str, (strategy, adder, reduction): (&str, &str, &str)) -> String {
    let mut config = SynthConfig::default();
    match adder {
        "ripple" => config.adder = AdderKind::Ripple,
        "carry-select" => config.adder = AdderKind::CarrySelect,
        _ => {}
    }
    if reduction == "wallace" {
        config.reduction = ReductionKind::Wallace;
    }
    format!("{hash}-{strategy}-{}", config_fingerprint(&config))
}

fn same_qor(a: &Answer, b: &Answer) -> bool {
    (a.gates, a.clusters, a.cpa_count, a.csa_depth)
        == (b.gates, b.clusters, b.cpa_count, b.csa_depth)
        && a.delay_ns == b.delay_ns
        && a.area == b.area
}

fn qor_text(a: &Answer) -> String {
    format!(
        "gates {} clusters {} cpa {} delay {} area {}",
        a.gates, a.clusters, a.cpa_count, a.delay_ns, a.area
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(r: &Report, name: &str) -> f64 {
        r.metrics.iter().find(|m| m.0 == name).map(|m| m.1).unwrap_or_else(|| panic!("no {name}"))
    }

    #[test]
    fn a_seed_always_yields_the_same_streams() {
        let lines = |seed| {
            let st = streams(seed);
            st.warm.iter().chain(&st.timed).map(Req::line).collect::<Vec<_>>()
        };
        assert_eq!(lines(4), lines(4));
        assert_ne!(lines(4), lines(5));
        assert_eq!(streams(4).timed.len() % 2, 1, "an odd stream keeps the median on one request");
    }

    #[test]
    fn back_to_back_runs_agree_and_the_traced_run_reproduces_them() {
        let args = |trace| Args {
            workload: "serve-mix".into(),
            seed: 2,
            seconds: Duration::ZERO,
            trace,
            fill_store: None,
        };
        let a = run(&args(false)).unwrap();
        let b = run(&args(false)).unwrap();
        let t = run(&args(true)).unwrap();
        for r in [&a, &b, &t] {
            assert!(r.correct(), "{:?}", r.problems);
            assert_eq!(r.failed, 0, "{:?}", r.failures);
        }
        assert_eq!(a.attempted, b.attempted);
        assert_eq!(a.attempted, t.attempted);
        for q in ["qor_area", "qor_delay_ns", "qor_cpa_count"] {
            assert_eq!(metric(&a, q), metric(&b, q), "{q}");
            assert_eq!(metric(&a, q), metric(&t, &format!("traced.{q}")), "{q}");
        }
        // The stream reaches the netlist and cluster levels of the store,
        // each for a measured share of it.
        let requests = streams(2).timed.len() as f64;
        for level in ["serve.hits_netlist", "serve.hits_cluster", "serve.misses"] {
            assert!(metric(&t, level) >= requests / 4.0, "{level}");
        }
    }
}
