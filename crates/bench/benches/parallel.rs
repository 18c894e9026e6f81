//! Criterion bench for morsel-driven parallel execution: the same
//! compiled plan executed through the serial columnar path vs the morsel
//! pool at 2, 4 and 8 workers. The acceptance bars — byte-identity
//! always, wall-clock ≥ 3× at 8 threads on ≥ 8-core machines, modeled
//! ≥ 1.5× everywhere (`repro parallel` / the tier-1 gate) — are enforced
//! elsewhere; this bench times the same arms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use eve_bench::experiments::parallel;
use eve_relational::exec::execute;
use eve_relational::ExecOptions;
use eve_system::query::plan_view;

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel");
    for workload in parallel::workloads().unwrap() {
        let plan = plan_view(&workload.view, &workload.extents, &workload.stats).unwrap();
        group.bench_with_input(
            BenchmarkId::new("serial", &workload.name),
            &plan,
            |b, plan| {
                b.iter(|| {
                    let out = execute(plan, &ExecOptions::serial()).unwrap();
                    std::hint::black_box(out.cardinality())
                });
            },
        );
        for threads in [2usize, 4, 8] {
            let opts = ExecOptions {
                parallelism: threads,
                morsel_rows: parallel::MORSEL_ROWS,
                force_parallel: false,
            };
            group.bench_with_input(
                BenchmarkId::new(format!("threads-{threads}"), &workload.name),
                &plan,
                |b, plan| {
                    b.iter(|| {
                        let out = execute(plan, &opts).unwrap();
                        std::hint::black_box(out.cardinality())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600));
    targets = bench_parallel
}
criterion_main!(benches);
