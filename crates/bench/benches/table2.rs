//! Criterion bench for Table 2: times the timing-driven optimization of
//! the old-merge and new-merge netlists per design — the quantity the
//! paper's Table 2 reports directly ("Opt time").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_bench::measure_flow;
use dp_netlist::Library;
use dp_opt::{optimize, OptConfig};
use dp_synth::{MergeStrategy, SynthConfig};
use dp_testcases::all_designs;

fn bench_optimization(c: &mut Criterion) {
    let config = SynthConfig::default();
    let lib = Library::synthetic_025um();
    let mut group = c.benchmark_group("table2_optimization");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for t in all_designs() {
        // The optimizer starts from each flow's final netlist; the target
        // sits halfway between their delays, as the table2 binary sets it.
        let (m_old, nl_old) = measure_flow(&t.dfg, MergeStrategy::Old, &config, &lib);
        let (m_new, nl_new) = measure_flow(&t.dfg, MergeStrategy::New, &config, &lib);
        let target = m_new.delay_ns + 0.5 * (m_old.delay_ns - m_new.delay_ns).max(0.0);
        let opt_config = OptConfig { target_delay_ns: target, ..OptConfig::default() };
        for (strategy, netlist) in [(MergeStrategy::Old, nl_old), (MergeStrategy::New, nl_new)] {
            group.bench_with_input(
                BenchmarkId::new(format!("{strategy}"), t.name),
                &netlist,
                |b, nl| {
                    b.iter(|| {
                        let mut nl = nl.clone();
                        optimize(&mut nl, &lib, &opt_config).end_delay_ns
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_optimization);
criterion_main!(benches);
