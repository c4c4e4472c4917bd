//! Scaling study (beyond the paper): how analysis + clustering + synthesis
//! cost grows with design size, and how the merged/unmerged quality gap
//! evolves. Guards the implementation against accidental super-linear
//! behavior in the analyses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dp_merge::cluster_max;
use dp_netlist::Library;
use dp_synth::{run_flow_guarded, FlowBudget, MergeStrategy, SynthConfig};
use dp_testcases::csd::multiplierless_fir;
use dp_testcases::families::dot_product;

fn bench_scaling(c: &mut Criterion) {
    let lib = Library::synthetic_025um();
    let config = SynthConfig::default();

    // Print the quality trend once.
    eprintln!("[scaling] dot-product quality (merged vs unmerged):");
    for n in [2usize, 4, 8, 16] {
        let g = dot_product(n, 8);
        let merged = run_flow_guarded(&g, MergeStrategy::New, &config, &FlowBudget::default())
            .expect("synthesis")
            .flow;
        let unmerged = run_flow_guarded(&g, MergeStrategy::None, &config, &FlowBudget::default())
            .expect("synthesis")
            .flow;
        eprintln!(
            "  n={n:>2}: merged {:.3} ns vs unmerged {:.3} ns ({} vs {} clusters)",
            merged.netlist.longest_path(&lib).delay_ns,
            unmerged.netlist.longest_path(&lib).delay_ns,
            merged.clustering.len(),
            unmerged.clustering.len()
        );
    }

    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for n in [4usize, 8, 16] {
        let g = dot_product(n, 8);
        group.bench_with_input(BenchmarkId::new("cluster_max_dot", n), &g, |b, g| {
            b.iter(|| cluster_max(&mut g.clone()).0.len())
        });
        group.bench_with_input(BenchmarkId::new("synthesize_dot", n), &g, |b, g| {
            b.iter(|| {
                run_flow_guarded(g, MergeStrategy::New, &config, &FlowBudget::default())
                    .expect("synthesis")
                    .flow
                    .netlist
                    .num_gates()
            })
        });
    }
    for taps in [8usize, 16, 32] {
        let g = multiplierless_fir(taps, 8, 6, 42);
        group.bench_with_input(BenchmarkId::new("cluster_max_fir", taps), &g, |b, g| {
            b.iter(|| cluster_max(&mut g.clone()).0.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
