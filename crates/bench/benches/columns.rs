//! Criterion bench for the columnar physical layer: each workload's view
//! evaluated row-at-a-time by the naive reference evaluator vs the planned
//! view executed over interned columns and lazily built secondary indexes.
//! The acceptance bars — columnar ≥ 5× naive on the wide text join in
//! release (`repro columns`), ≥ 2× in the tier-1 debug gate
//! (`columnar_wide_text_join_at_least_2x_row`) — are enforced elsewhere;
//! this bench times the same arms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use eve_bench::experiments::columns;
use eve_relational::exec::execute;
use eve_relational::ExecOptions;
use eve_system::query::{evaluate_view_naive, plan_view};

fn bench_columns(c: &mut Criterion) {
    let mut group = c.benchmark_group("columns");
    for workload in columns::workloads().unwrap() {
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
        let plan = plan_view(&workload.view, &workload.extents, &workload.stats).unwrap();
        group.bench_with_input(
            BenchmarkId::new("columnar", &workload.name),
            &plan,
            |b, plan| {
                b.iter(|| {
                    let out = execute(plan, &ExecOptions::serial()).unwrap();
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
    targets = bench_columns
}
criterion_main!(benches);
