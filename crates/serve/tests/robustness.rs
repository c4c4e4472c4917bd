//! End-to-end robustness tests for the supervised service and its store:
//! the corruption matrix (truncated entry, flipped payload byte, torn
//! manifest line, stale temp file), isomorphic-resubmission cache hits,
//! and crash-then-restart recovery with bit-identical QoR.

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use dp_bitvec::Signedness::Unsigned;
use dp_dfg::{canonical_form, encode_canonical, Dfg, OpKind};
use dp_serve::codec::{decode_cluster_artifact, strategy_fingerprint};
use dp_serve::{ArtifactKind, ServeOptions, Service, Store};
use dp_synth::MergeStrategy;
use dp_testcases::named_design;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dp-serve-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn serve(service: &Service, requests: &str) -> Vec<String> {
    let mut out = Vec::new();
    service.serve_lines(requests.as_bytes(), &mut out).expect("serve");
    String::from_utf8(out).expect("utf8").lines().map(str::to_string).collect()
}

/// Drops the volatile tail (cache provenance, attempts, elapsed): what
/// remains is the deterministic QoR payload of the response.
fn scrub(line: &str) -> String {
    line.split(",\"cache\":").next().expect("split never empty").to_string()
}

/// `a*b + c*d`, built in ascending node-id order with one set of names.
fn sum_of_products_v1() -> Dfg {
    let mut g = Dfg::new();
    let a = g.input("a", 5);
    let b = g.input("b", 5);
    let c = g.input("c", 5);
    let d = g.input("d", 5);
    let m1 = g.op(OpKind::Mul, 10, &[(a, Unsigned), (b, Unsigned)]);
    let m2 = g.op(OpKind::Mul, 10, &[(c, Unsigned), (d, Unsigned)]);
    let s = g.op(OpKind::Add, 11, &[(m1, Unsigned), (m2, Unsigned)]);
    g.output("r", 11, s, Unsigned);
    g
}

/// The same structure with every port renamed and the internal operators
/// created in a different order, permuting the node ids.
fn sum_of_products_v2() -> Dfg {
    let mut g = Dfg::new();
    let w = g.input("west", 5);
    let x = g.input("x_in", 5);
    let y = g.input("why", 5);
    let z = g.input("zed", 5);
    let m2 = g.op(OpKind::Mul, 10, &[(y, Unsigned), (z, Unsigned)]);
    let m1 = g.op(OpKind::Mul, 10, &[(w, Unsigned), (x, Unsigned)]);
    let s = g.op(OpKind::Add, 11, &[(m1, Unsigned), (m2, Unsigned)]);
    g.output("result", 11, s, Unsigned);
    g
}

fn parser_service(root: &Path) -> Service {
    Service::new(ServeOptions::default()).with_store(Store::open(root).expect("store")).with_parser(
        Box::new(|text| match text {
            "v1" => Ok(sum_of_products_v1()),
            "v2" => Ok(sum_of_products_v2()),
            other => Err(format!("unknown source {other:?}")),
        }),
    )
}

#[test]
fn isomorphic_resubmission_is_answered_from_cache() {
    assert_eq!(
        canonical_form(&sum_of_products_v1()).hash,
        canonical_form(&sum_of_products_v2()).hash,
        "the two spellings must share a canonical hash for this test to mean anything"
    );
    let root = temp_root("iso");
    let service = parser_service(&root);
    let cold = serve(&service, "{\"id\":\"c\",\"source\":\"v1\"}\n");
    assert!(cold[0].contains("\"level\":\"miss\""), "{}", cold[0]);
    // Permuted node ids, renamed ports, different client: same answer,
    // straight from the stored netlist, audited against *this* request.
    let warm = serve(&service, "{\"id\":\"w\",\"source\":\"v2\"}\n");
    assert!(warm[0].contains("\"level\":\"netlist\""), "{}", warm[0]);
    assert!(warm[0].contains("\"outcome\":\"ok\""));
    let strip_id = |l: &str| scrub(l).replace("\"id\":\"c\"", "").replace("\"id\":\"w\"", "");
    assert_eq!(strip_id(&cold[0]), strip_id(&warm[0]));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn corruption_matrix_every_defect_is_a_quarantined_miss() {
    let root = temp_root("matrix");
    let baseline = {
        let service = parser_service(&root);
        let cold = serve(&service, "{\"id\":\"q\",\"source\":\"v1\"}\n");
        scrub(&cold[0])
    };
    let objects = root.join("objects");
    let netlist_obj = || -> PathBuf {
        let mut files: Vec<_> = fs::read_dir(objects.join("netlist"))
            .expect("netlist dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        files.sort();
        files.pop().expect("one netlist object")
    };
    let pristine = fs::read(netlist_obj()).expect("read object");

    // Defect 1: truncated object.
    fs::write(netlist_obj(), &pristine[..pristine.len() / 2]).expect("truncate");
    // Defect 2 applied after 1 is healed: flipped payload byte (checksum
    // mismatch), exercised below.
    // Defect 3: a torn trailing manifest line.
    let manifest = root.join("manifest.log");
    {
        let mut f = OpenOptions::new().append(true).open(&manifest).expect("manifest");
        f.write_all(b"put netlist half-written-").expect("torn line");
    }
    // Defect 4: a stale temp from an interrupted write.
    fs::write(objects.join("cluster").join(".orphan.bin.tmp"), b"partial").expect("tmp");

    let service = parser_service(&root);
    let diags = service.store_diagnostics();
    assert!(diags.iter().any(|d| d.contains("torn")), "torn manifest line not reported: {diags:?}");
    assert!(diags.iter().any(|d| d.contains("stale temp")), "stale temp not reported: {diags:?}");
    assert!(
        diags.iter().any(|d| d.contains("quarantined netlist/")),
        "truncated object not quarantined: {diags:?}"
    );
    // The truncated netlist is a miss; the cluster entry still answers,
    // and the response is byte-identical to the cold baseline.
    let after = serve(&service, "{\"id\":\"q\",\"source\":\"v1\"}\n");
    assert!(after[0].contains("\"level\":\"cluster\""), "{}", after[0]);
    assert_eq!(scrub(&after[0]), baseline);

    // Round 2: restore the object, flip one payload byte. open() already
    // quarantines it (journal checksum mismatch); the request recomputes
    // and the answer is still byte-identical.
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    fs::write(netlist_obj(), &flipped).expect("flip");
    let service = parser_service(&root);
    assert!(
        service.store_diagnostics().iter().any(|d| d.contains("checksum")),
        "flipped byte not caught: {:?}",
        service.store_diagnostics()
    );
    let after = serve(&service, "{\"id\":\"q\",\"source\":\"v1\"}\n");
    assert_eq!(scrub(&after[0]), baseline);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn crash_mid_write_then_restart_recovers_with_identical_qor() {
    let root = temp_root("crash");
    let baseline = {
        let service = parser_service(&root);
        let cold = serve(&service, "{\"id\":\"k\",\"source\":\"v1\"}\n");
        scrub(&cold[0])
    };
    // Simulate kill -9 at the worst moments of a later write: an object
    // landed (fsync+rename done) but its journal append did not, plus a
    // half-written temp, plus a torn journal tail — all at once.
    let objects = root.join("objects");
    let adopted = objects.join("analysis").join("orphan-entry.bin");
    {
        // A *valid* orphan: magic + correct checksum. Reuse the store's
        // own framing by writing through a scratch store, then moving the
        // object in without its journal line.
        let scratch = temp_root("crash-scratch");
        let mut s = Store::open(&scratch).expect("scratch store");
        s.put(ArtifactKind::Analysis, "orphan-entry", b"adoptable payload").expect("put");
        fs::rename(scratch.join("objects").join("analysis").join("orphan-entry.bin"), &adopted)
            .expect("move orphan in");
        let _ = fs::remove_dir_all(&scratch);
    }
    fs::write(objects.join("netlist").join(".mid.bin.tmp"), b"interrupted").expect("tmp");
    {
        let mut f =
            OpenOptions::new().append(true).open(root.join("manifest.log")).expect("manifest");
        f.write_all(b"put cluster torn-at-the-wor").expect("torn tail");
    }

    // Restart: the store must open (no panic, no error), adopt the
    // orphan, drop the debris, and keep answering with identical QoR.
    let service = parser_service(&root);
    let diags = service.store_diagnostics();
    assert!(diags.iter().any(|d| d.contains("adopted orphan")), "{diags:?}");
    let mut store_check = Store::open(&root).expect("reopen again");
    assert_eq!(
        store_check.get(ArtifactKind::Analysis, "orphan-entry").as_deref(),
        Some(&b"adoptable payload"[..]),
        "adopted orphan must be servable"
    );
    let warm = serve(&service, "{\"id\":\"k\",\"source\":\"v1\"}\n");
    assert!(warm[0].contains("\"level\":\"netlist\""), "{}", warm[0]);
    assert_eq!(scrub(&warm[0]), baseline);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_store_holding_analysis_entries_still_serves_netlist_and_cluster_hits() {
    let root = temp_root("analysis-entry");
    let exact = "{\"id\":\"e\",\"design\":\"D1\"}\n";
    let ripple = "{\"id\":\"r\",\"design\":\"D1\",\"adder\":\"ripple\"}\n";
    let cold = {
        let service =
            Service::new(ServeOptions::default()).with_store(Store::open(&root).expect("store"));
        serve(&service, exact)
    };
    assert!(cold[0].contains("\"level\":\"miss\""), "{}", cold[0]);

    // Write the entry the service used to store beside every new-merge
    // cluster entry: the width-optimized graph, keyed by the design hash.
    let hash = canonical_form(&named_design("D1").expect("builtin")).hash;
    let analysis = {
        let mut store = Store::open(&root).expect("store");
        let key = format!("{hash}-{}", strategy_fingerprint(MergeStrategy::New));
        let cluster = store.get(ArtifactKind::Cluster, &key).expect("cold run stored a clustering");
        let (graph, _) = decode_cluster_artifact(&cluster).expect("cluster entry decodes");
        let bytes = encode_canonical(&graph);
        store.put(ArtifactKind::Analysis, &hash, &bytes).expect("put");
        bytes
    };

    // The store reopens without a quarantine, and new-merge requests are
    // answered from the netlist and cluster levels as before.
    let service =
        Service::new(ServeOptions::default()).with_store(Store::open(&root).expect("reopen"));
    assert!(service.store_diagnostics().is_empty(), "{:?}", service.store_diagnostics());
    let warm = serve(&service, &format!("{exact}{ripple}"));
    assert!(warm[0].contains("\"level\":\"netlist\""), "{}", warm[0]);
    assert_eq!(scrub(&warm[0]), scrub(&cold[0]));
    assert!(warm[1].contains("\"level\":\"cluster\""), "{}", warm[1]);
    let ripple_cold = serve(&Service::new(ServeOptions::default()), ripple);
    assert_eq!(scrub(&warm[1]), scrub(&ripple_cold[0]));
    let stats = service.store_stats().expect("store attached");
    assert_eq!((stats.quarantined, stats.writes), (0, 1), "{stats:?}");

    // The analysis entry is neither read nor replaced.
    let mut store = Store::open(&root).expect("reopen");
    assert_eq!(store.get(ArtifactKind::Analysis, &hash), Some(analysis));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn tcp_round_trip_serves_a_connection() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = std::thread::spawn(move || {
        use std::io::{BufRead, BufReader, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.write_all(b"{\"id\":\"t\",\"design\":\"fig1\"}\n").expect("send");
        stream.shutdown(std::net::Shutdown::Write).expect("shutdown write");
        let mut lines = Vec::new();
        for line in BufReader::new(stream).lines() {
            lines.push(line.expect("read line"));
        }
        lines
    });
    let service = Service::new(ServeOptions::default());
    let stats = service.serve_tcp(&listener, 1).expect("serve tcp");
    let lines = client.join().expect("client thread");
    assert_eq!(stats.requests, 1);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("\"outcome\":\"ok\""), "{}", lines[0]);
    assert!(lines[1].contains("dpmc-serve-stats/1"));
}

#[test]
fn memory_ceiling_outcome_is_reported_when_breached() {
    // A 1-byte ceiling trips the watchdog on its very first poll if the
    // allocation probe is installed; without a probe the watchdog fails
    // open and the request simply succeeds — both are valid outcomes
    // here, what must never happen is a crash or a wrong answer.
    let service = Service::new(ServeOptions::default());
    let lines = serve(&service, "{\"id\":\"m\",\"design\":\"fig1\",\"max_live_mb\":0}\n");
    assert!(
        lines[0].contains("\"outcome\":\"ok\"") || lines[0].contains("\"outcome\":\"memory\""),
        "{}",
        lines[0]
    );
}
