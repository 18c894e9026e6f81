//! Criterion bench for the cost-ordered physical planner: planned
//! execution vs the naive left-to-right evaluator on the `view_exec`
//! workload set. The acceptance bar — planned ≥ 3× faster than naive on
//! the wide-join workload — is enforced by the soak suite
//! (`tests/soak.rs::view_exec_meets_speedup_gate`) and recorded in
//! EXPERIMENTS.md; this bench times the same arms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use eve_bench::experiments::view_exec;
use eve_relational::exec::execute;
use eve_relational::ExecOptions;
use eve_system::query::{evaluate_view_naive, plan_view};

fn bench_view_exec(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_exec");
    for workload in view_exec::workloads().unwrap() {
        group.bench_with_input(
            BenchmarkId::new("naive", &workload.name),
            &workload,
            |b, w| {
                b.iter(|| {
                    let out = evaluate_view_naive(&w.view, &w.extents).unwrap();
                    std::hint::black_box(out.cardinality())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("planned", &workload.name),
            &workload,
            |b, w| {
                b.iter(|| {
                    let plan = plan_view(&w.view, &w.extents, &w.stats).unwrap();
                    let out = execute(&plan, &ExecOptions::serial()).unwrap();
                    std::hint::black_box(out.cardinality())
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600));
    targets = bench_view_exec
}
criterion_main!(benches);
