//! `dpmc serve` reports the QoR of the final netlist: for every paper
//! figure under every strategy, a served answer (a miss, a netlist hit
//! and a cluster hit) carries the gates, area and delay that `dpmc run`
//! prints and `dpmc bench` records for the same design and configuration.

use datapath_merge::driver::bench_design;
use datapath_merge::prelude::*;
use datapath_merge::serve::{ServeOptions, Service, Store};
use datapath_merge::testcases::named::named_design;

#[derive(Debug, PartialEq)]
struct Qor {
    gates: i64,
    area: f64,
    delay_ns: f64,
}

impl Qor {
    fn of(doc: &Json) -> Qor {
        let f = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        Qor {
            gates: doc.get("gates").and_then(Json::as_i64).unwrap_or(-1),
            area: f("area"),
            delay_ns: f("delay_ns"),
        }
    }
}

/// What `dpmc run` reports: the guarded flow, then the post-flow stage.
fn run_qor(g: &Dfg, strategy: MergeStrategy, config: &SynthConfig) -> Qor {
    let guarded = run_flow_guarded(g, strategy, config, &FlowBudget::default()).expect("flow");
    let lib = Library::synthetic_025um();
    let done = finish(guarded.flow.netlist, &lib, &mut Recorder::disabled(), &Watchdog::disabled())
        .expect("an unarmed watchdog never trips");
    Qor { gates: done.netlist.num_gates() as i64, area: done.area, delay_ns: done.delay_ns }
}

/// One request through the service: the answer's QoR and cache level.
fn serve(service: &Service, request: &str) -> (Qor, String) {
    let mut out = Vec::new();
    service.serve_lines(format!("{request}\n").as_bytes(), &mut out).expect("serve");
    let text = String::from_utf8(out).expect("utf8 responses");
    let doc = Json::parse(text.lines().next().expect("one response")).expect("response json");
    assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("ok"), "{text}");
    let level = doc.get("cache").and_then(|c| c.get("level")).and_then(Json::as_str);
    (Qor::of(&doc), level.unwrap_or("?").to_string())
}

#[test]
fn served_qor_is_the_final_netlist_qor() {
    let root = std::env::temp_dir().join(format!("dp-serve-qor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let service =
        Service::new(ServeOptions::default()).with_store(Store::open(&root).expect("store"));
    let lib = Library::synthetic_025um();
    let ripple = SynthConfig { adder: AdderKind::Ripple, ..SynthConfig::default() };
    let mut levels = Vec::new();
    for design in ["fig1", "fig2", "fig3", "fig4"] {
        let g = named_design(design).expect("built-in design");
        let bench =
            bench_design(design, &g, &SynthConfig::default(), &lib, Level::Off).expect("bench").row;
        for (tag, strategy) in [
            ("none", MergeStrategy::None),
            ("old", MergeStrategy::Old),
            ("new", MergeStrategy::New),
        ] {
            let want = run_qor(&g, strategy, &SynthConfig::default());
            // `dpmc bench` measures old- and new-merge only.
            let flows = bench.get("flows").and_then(Json::as_array).unwrap_or(&[]);
            let row = flows
                .iter()
                .find(|f| f.get("strategy").and_then(Json::as_str) == Some(&strategy.to_string()));
            match row.and_then(|f| f.get("metrics")) {
                Some(metrics) => assert_eq!(Qor::of(metrics), want, "{design} {tag}: bench vs run"),
                None => assert_eq!(strategy, MergeStrategy::None, "{design} {tag}: no bench row"),
            }
            let request = format!("{{\"id\":\"q\",\"design\":\"{design}\",\"strategy\":\"{tag}\"");
            for _ in 0..2 {
                let (got, level) = serve(&service, &format!("{request}}}"));
                assert_eq!(got, want, "{design} {tag} ({level})");
                levels.push(level);
            }
            // Same clustering, another adder: re-synthesized from the
            // stored cluster artifact where one was written.
            let (got, level) = serve(&service, &format!("{request},\"adder\":\"ripple\"}}"));
            assert_eq!(got, run_qor(&g, strategy, &ripple), "{design} {tag} ripple ({level})");
            levels.push(level);
        }
    }
    for level in ["miss", "netlist", "cluster"] {
        assert!(levels.iter().any(|l| l == level), "no {level} answer among {levels:?}");
    }
    let _ = std::fs::remove_dir_all(&root);
}
