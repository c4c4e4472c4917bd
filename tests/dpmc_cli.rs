//! End-to-end tests of the `dpmc` command-line tool.

use std::process::Command;

fn dpmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dpmc"))
}

#[test]
fn runs_all_flows_on_a_design_file() {
    let out = dpmc()
        .args(["designs/sop.dp", "--flow", "all", "--check", "100"])
        .output()
        .expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[no-merge]"));
    assert!(text.contains("[old-merge]"));
    assert!(text.contains("[new-merge]"));
    assert!(text.contains("verified against the design"));
}

#[test]
fn emits_verilog_and_dot() {
    let dir = std::env::temp_dir();
    let v = dir.join("dpmc_test_out.v");
    let d = dir.join("dpmc_test_out.dot");
    let out = dpmc()
        .args([
            "designs/fig3.dp",
            "--emit-verilog",
            v.to_str().expect("utf8"),
            "--emit-dot",
            d.to_str().expect("utf8"),
        ])
        .output()
        .expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let verilog = std::fs::read_to_string(&v).expect("verilog written");
    assert!(verilog.contains("module fig3"));
    let dot = std::fs::read_to_string(&d).expect("dot written");
    assert!(dot.contains("digraph"));
    let _ = std::fs::remove_file(v);
    let _ = std::fs::remove_file(d);
}

#[test]
fn width_analysis_collapses_redundant_design() {
    let out = dpmc().args(["designs/redundant.dp"]).output().expect("dpmc runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // "total operator width X -> Y" with Y much smaller.
    let line =
        text.lines().find(|l| l.contains("total operator width")).expect("report line present");
    let nums: Vec<usize> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("number"))
        .collect();
    let (before, after) = (nums[nums.len() - 2], nums[nums.len() - 1]);
    assert!(after * 3 < before, "{line}");
}

#[test]
fn bad_input_produces_a_line_numbered_error() {
    let dir = std::env::temp_dir();
    let f = dir.join("dpmc_bad.dp");
    std::fs::write(&f, "input a 4\nnope nope\n").expect("write temp");
    let out = dpmc().arg(f.to_str().expect("utf8")).output().expect("dpmc runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
    let _ = std::fs::remove_file(f);
}

#[test]
fn unknown_flag_shows_usage() {
    let out = dpmc().args(["designs/sop.dp", "--bogus"]).output().expect("dpmc runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn lint_is_clean_on_all_bundled_designs() {
    for design in ["designs/fig2.dp", "designs/fig3.dp", "designs/redundant.dp", "designs/sop.dp"] {
        let out = dpmc().args(["lint", design, "--deny-warnings"]).output().expect("dpmc runs");
        assert!(
            out.status.success(),
            "{design}:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("0 error(s)"), "{design}: {text}");
        assert!(text.contains("0 warning(s)"), "{design}: {text}");
    }
}

#[test]
fn lint_rejects_an_unparseable_design() {
    let dir = std::env::temp_dir();
    let f = dir.join("dpmc_lint_bad.dp");
    std::fs::write(&f, "input a 4\nnope nope\n").expect("write temp");
    let out = dpmc().args(["lint", f.to_str().expect("utf8")]).output().expect("dpmc runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    let _ = std::fs::remove_file(f);
}

#[test]
fn deny_warnings_requires_lint_mode() {
    let out = dpmc().args(["designs/sop.dp", "--deny-warnings"]).output().expect("dpmc runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deny-warnings"));
}

#[test]
fn bench_json_is_deterministic_modulo_timing() {
    let strip = |s: &str| -> String {
        s.lines().filter(|l| !l.contains("\"us\":")).collect::<Vec<_>>().join("\n")
    };
    let run = || {
        let out = dpmc().args(["bench", "--designs", "fig3,D3"]).output().expect("dpmc runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf8 json")
    };
    let (a, b) = (run(), run());
    assert!(a.contains("\"schema\": \"dpmc-bench/5\""), "{a}");
    assert!(a.contains("\"strategy\": \"old-merge\""));
    assert!(a.contains("\"strategy\": \"new-merge\""));
    assert!(a.contains("\"trace_events\":"), "provenance event counts present");
    assert!(a.contains("\"ports_skipped\":"), "worklist counters present");
    assert!(a.contains("\"rounds\":"), "per-round summaries present");
    assert!(a.contains("\"alloc_bytes\":"), "span allocation columns present");
    assert!(a.contains("\"us\":"), "per-stage wall-times present");
    assert_eq!(strip(&a), strip(&b), "only timing fields may differ between runs");
}

#[test]
fn bench_output_is_independent_of_job_count() {
    let strip = |s: &str| -> String {
        s.lines().filter(|l| !l.contains("\"us\":")).collect::<Vec<_>>().join("\n")
    };
    let run = |jobs: &str| {
        let out = dpmc()
            .args(["bench", "--designs", "fig1,fig3,D3,D5,S64", "--jobs", jobs])
            .output()
            .expect("dpmc runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf8 json")
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(strip(&serial), strip(&parallel), "--jobs must not change the report");
    // Design order in the report follows the --designs order, not
    // completion order.
    let pos = |s: &str, name: &str| s.find(&format!("\"design\": \"{name}\"")).expect(name);
    assert!(pos(&parallel, "fig1") < pos(&parallel, "D3"));
    assert!(pos(&parallel, "D3") < pos(&parallel, "S64"));
}

#[test]
fn bench_rejects_zero_jobs() {
    let out = dpmc().args(["bench", "--jobs", "0"]).output().expect("dpmc runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
}

#[test]
fn bench_writes_report_file() {
    let f = std::env::temp_dir().join("dpmc_bench_out.json");
    let out = dpmc()
        .args(["bench", "--designs", "fig3", "--out", f.to_str().expect("utf8")])
        .output()
        .expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&f).expect("report written");
    assert!(json.contains("\"design\": \"fig3\""));
    assert!(json.contains("\"cpa_count\": 1"));
    let _ = std::fs::remove_file(f);
}

#[test]
fn bench_rejects_unknown_design() {
    let out = dpmc().args(["bench", "--designs", "nonesuch"]).output().expect("dpmc runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown design"));
}

/// The acceptance criterion for `dpmc explain`: on Figure 3, the causal
/// chain for the combining adder `n3` names the IC prunes that shrank it
/// (8 -> 5, fed by the 8 -> 4 edge prunes), states explicitly that the RP
/// clamp did *not* fire, and reports the cluster assignment.
#[test]
fn explain_fig3_sum_node_prints_ic_causal_chain() {
    let out =
        dpmc().args(["explain", "designs/fig3.dp", "--node", "n3"]).output().expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final width 5 (was 8)"), "{text}");
    assert!(text.contains("IC-PRUNE"), "{text}");
    assert!(text.contains("8 -> 5"), "{text}");
    assert!(text.contains("IC-PRUNE-EDGE"), "{text}");
    assert!(text.contains("8 -> 4"), "{text}");
    assert!(text.contains("RP-CLAMP not triggered"), "{text}");
    assert!(text.contains("cluster #0"), "{text}");
    assert!(text.contains("converged by IC"), "{text}");
}

/// Figure 2 is the required-precision design: the 5-bit output clamps the
/// 7- and 9-bit adders, so the chain names RP-CLAMP with the paper's
/// widths.
#[test]
fn explain_fig2_names_the_rp_clamps() {
    let out =
        dpmc().args(["explain", "designs/fig2.dp", "--node", "n1"]).output().expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("RP-CLAMP applies"), "{text}");
    assert!(text.contains("7 -> 5"), "{text}");
    assert!(text.contains("converged by RP"), "{text}");
}

#[test]
fn explain_json_is_machine_readable() {
    let out = dpmc()
        .args(["explain", "designs/fig3.dp", "--node", "n3", "--json"])
        .output()
        .expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"rule\": \"IC-PRUNE\""), "{text}");
    assert!(text.contains("\"trace_events\":"), "{text}");
    assert!(text.contains("\"cause\":"), "{text}");
}

/// `--port` resolves design input/output names; an output's provenance
/// lives on its edges (width prunes upstream), not on the node itself.
#[test]
fn explain_resolves_ports_by_name() {
    let out =
        dpmc().args(["explain", "designs/fig3.dp", "--port", "R"]).output().expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("`R` (output)"), "{text}");
}

#[test]
fn explain_rejects_unknown_node() {
    let out =
        dpmc().args(["explain", "designs/fig3.dp", "--node", "bogus"]).output().expect("dpmc runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown node"));
}

#[test]
fn dot_annotate_colors_breaks_and_labels_rules() {
    let out = dpmc().args(["dot", "designs/fig3.dp", "--annotate"]).output().expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("digraph"), "{text}");
    assert!(text.contains("IC-PRUNE"), "{text}");
    assert!(text.contains("style=filled"), "{text}");
    assert!(text.contains("r="), "{text}");

    // Without --annotate: the plain input graph, no analysis labels.
    let out = dpmc().args(["dot", "designs/fig3.dp"]).output().expect("dpmc runs");
    assert!(out.status.success());
    let plain = String::from_utf8_lossy(&out.stdout);
    assert!(plain.contains("digraph"));
    assert!(!plain.contains("IC-PRUNE"), "{plain}");
}

/// The regression gate: a self-comparison passes; perturbing a QoR
/// counter in the baseline makes the exit code non-zero.
#[test]
fn bench_compare_gates_on_qor_counters() {
    let dir = std::env::temp_dir();
    let base = dir.join("dpmc_cmp_base.json");
    let out = dpmc()
        .args(["bench", "--designs", "fig3", "--out", base.to_str().expect("utf8")])
        .output()
        .expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let ok = dpmc()
        .args([
            "bench",
            "--designs",
            "fig3",
            "--compare",
            base.to_str().expect("utf8"),
            "--max-regress-pct",
            "10000",
        ])
        .output()
        .expect("dpmc runs");
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stdout));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("OK"));

    let json = std::fs::read_to_string(&base).expect("baseline written");
    assert!(json.contains("\"cpa_count\": 1"), "{json}");
    let perturbed = dir.join("dpmc_cmp_perturbed.json");
    std::fs::write(&perturbed, json.replace("\"cpa_count\": 1", "\"cpa_count\": 2"))
        .expect("write perturbed");
    let bad = dpmc()
        .args([
            "bench",
            "--designs",
            "fig3",
            "--compare",
            perturbed.to_str().expect("utf8"),
            "--max-regress-pct",
            "10000",
        ])
        .output()
        .expect("dpmc runs");
    assert!(!bad.status.success(), "perturbed baseline must fail the gate");
    let text = String::from_utf8_lossy(&bad.stdout);
    assert!(text.contains("MISMATCH"), "{text}");
    assert!(text.contains("cpa_count 2 -> 1"), "{text}");
    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_file(perturbed);
}

#[test]
fn merge_and_lint_print_width_pipeline_summary() {
    let out = dpmc().args(["designs/redundant.dp"]).output().expect("dpmc runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().find(|l| l.contains("width pipeline")).expect("summary line");
    assert!(line.contains("round(s)"), "{line}");

    let out = dpmc().args(["lint", "designs/redundant.dp"]).output().expect("dpmc runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().any(|l| l.contains("width pipeline")), "{text}");
}

#[test]
fn exit_codes_distinguish_failure_families() {
    // I/O: unreadable design file -> 3.
    let out = dpmc().arg("definitely_missing.dp").output().expect("dpmc runs");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));

    // Parse: malformed DSL -> 4.
    let dir = std::env::temp_dir();
    let f = dir.join("dpmc_exit_parse.dp");
    std::fs::write(&f, "input a 0\n").expect("write temp");
    let out = dpmc().arg(f.to_str().expect("utf8")).output().expect("dpmc runs");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(f);

    // Usage: bad command line -> 2.
    let out = dpmc().args(["designs/sop.dp", "--bogus"]).output().expect("dpmc runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn parse_errors_report_every_defect_with_spans() {
    let dir = std::env::temp_dir();
    let f = dir.join("dpmc_multi_err.dp");
    std::fs::write(&f, "input a 0\ninput b 4\ns = frob 5 b\noutput o 5 s\n").expect("write temp");
    let out = dpmc().arg(f.to_str().expect("utf8")).output().expect("dpmc runs");
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8_lossy(&out.stderr);
    // Both independent defects in one run, with line:col spans.
    assert!(err.contains("line 1:9"), "{err}");
    assert!(err.contains("line 3:5"), "{err}");
    let _ = std::fs::remove_file(f);
}

#[test]
fn faultcheck_holds_the_detect_or_degrade_contract() {
    let out = dpmc()
        .args(["faultcheck", "--designs", "fig2,D1", "--seeds", "3"])
        .output()
        .expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 FAILURE(S)"), "{text}");
    assert!(text.contains("detect-or-degrade"), "{text}");
}

#[test]
fn faultcheck_json_reports_cases_machine_readably() {
    let out = dpmc()
        .args([
            "faultcheck",
            "--designs",
            "fig2",
            "--seeds",
            "2",
            "--classes",
            "corrupt-width",
            "--json",
        ])
        .output()
        .expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"schema\": \"dpmc-faultcheck/1\""), "{text}");
    assert!(text.contains("\"class\": \"corrupt-width\""), "{text}");
    assert!(text.contains("\"passed\": true"), "{text}");
}

#[test]
fn faultcheck_rejects_unknown_class() {
    let out = dpmc()
        .args(["faultcheck", "--designs", "fig2", "--classes", "melt-cpu"])
        .output()
        .expect("dpmc runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown fault class"));
}

#[test]
fn starved_budget_degrades_gracefully_and_still_verifies() {
    let dir = std::env::temp_dir();
    let f = dir.join("dpmc_slack.dp");
    std::fs::write(
        &f,
        "input a 8\ninput b 8\ninput c 8\ns = add 9 a b\nt = add 10 s c\noutput r 5 t\n",
    )
    .expect("write temp");
    let out = dpmc()
        .args([f.to_str().expect("utf8"), "--budget-rounds", "1", "--check", "20"])
        .output()
        .expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("FALLBACK-RP-ONLY"), "{text}");
    assert!(text.contains("verified against the design"), "{text}");
    let _ = std::fs::remove_file(f);
}

#[test]
fn analyze_proves_every_builtin_design_clean() {
    let out = dpmc().args(["analyze", "--designs", "all"]).output().expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("all cross-check proofs hold"), "{text}");
    assert!(!text.contains("error[A00"), "{text}");
}

#[test]
fn analyze_json_is_deterministic() {
    let run = || {
        let out =
            dpmc().args(["analyze", "--designs", "all", "--json"]).output().expect("dpmc runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let first = run();
    assert_eq!(first, run(), "analyze --json must be byte-identical across runs");
    let text = String::from_utf8_lossy(&first);
    assert!(text.contains("\"schema\": \"dpmc-analyze/1\""), "{text}");
    assert!(text.contains("\"ic_bounds_checked\""), "{text}");
    assert!(text.contains("\"passed\": true"), "{text}");
}

#[test]
fn analyze_flags_a_corrupted_ic_bound_as_a_family_error() {
    let out = dpmc()
        .args(["analyze", "--designs", "D1", "--corrupt-ic", "1"])
        .output()
        .expect("dpmc runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("injected"), "{text}");
    assert!(text.contains("error[A002]"), "{text}");
    assert!(text.contains("CROSS-CHECK FAILED"), "{text}");
}

#[test]
fn analyze_accepts_a_positional_design_file() {
    let out = dpmc().args(["analyze", "designs/fig3.dp"]).output().expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fig3:"), "{text}");
    assert!(text.contains("proofs hold"), "{text}");
}

#[test]
fn analyze_rejects_corrupt_ic_outside_analyze() {
    let out =
        dpmc().args(["lint", "designs/sop.dp", "--corrupt-ic", "3"]).output().expect("dpmc runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--corrupt-ic"), "usage error expected");
}

#[test]
fn lint_json_reports_diagnostics_machine_readably() {
    let out = dpmc().args(["lint", "designs/redundant.dp", "--json"]).output().expect("dpmc runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"schema\": \"dpmc-lint/1\""), "{text}");
    assert!(text.contains("\"errors\": 0"), "{text}");
    assert!(text.contains("\"passed\": true"), "{text}");
}

/// `dpmc lint` lints what the guarded flow settled on: on the seed-1072
/// repro, whose merged clustering the guard rejects, it reports the
/// singleton fallback and audits that (correct) netlist, as `dpmc run`
/// answers with it.
#[test]
fn lint_audits_the_guards_fallback() {
    use datapath_merge::dfg::gen::{random_dfg, GenConfig};
    use rand::{rngs::StdRng, SeedableRng};
    let cfg = GenConfig {
        num_ops: 40,
        num_inputs: 6,
        max_width: 48,
        mul_weight: 0.15,
        ..GenConfig::default()
    };
    let g = random_dfg(&mut StdRng::seed_from_u64(1072), &cfg);
    let f = std::env::temp_dir().join(format!("dpmc_lint_seed1072_{}.dp", std::process::id()));
    std::fs::write(&f, datapath_merge::dsl::to_dsl(&g)).expect("write temp");
    let path = f.to_str().expect("utf8");

    let out = dpmc().args(["lint", path]).output().expect("dpmc runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("-> FALLBACK-SINGLETON"), "{text}");
    assert!(text.contains("0 error(s)"), "{text}");

    let out = dpmc().args(["lint", path, "--json"]).output().expect("dpmc runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"FALLBACK-SINGLETON\""), "{text}");
    let run = dpmc().args([path, "--flow", "new", "--check", "256"]).output().expect("dpmc runs");
    let ran = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success() && ran.contains("FALLBACK-SINGLETON"), "{ran}");
    let _ = std::fs::remove_file(f);
}
