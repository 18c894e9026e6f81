//! Criterion bench for the executed maintenance substrate: Algorithm 1
//! (incremental) vs full recomputation on the uniform chain-join scenario —
//! the measured counterpart of the paper's cost study.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use eve_relational::{tup, ExecOptions};
use eve_system::maintainer::{maintain_view, recompute_view, DataUpdate};
use eve_system::scenario::{build_uniform_space, UniformSpaceSpec};

fn bench_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintenance/incremental_by_distribution");
    for dist in [vec![6], vec![3, 3], vec![2, 2, 2], vec![1, 1, 1, 1, 1, 1]] {
        let spec = UniformSpaceSpec {
            distribution: dist.clone(),
            inverse_selectivity: 2,
            ..UniformSpaceSpec::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dist:?}")),
            &spec,
            |b, spec| {
                let (mut engine, view) = build_uniform_space(spec).unwrap();
                let extent = engine.evaluate(&view).unwrap();
                let mkb = engine.mkb().clone();
                b.iter(|| {
                    let mut extent = extent.clone();
                    let update = DataUpdate::insert("R1_1", vec![tup![0, 0]]);
                    std::hint::black_box(
                        maintain_view(&view, &mut extent, &update, engine.sites_mut(), &mkb)
                            .unwrap(),
                    )
                });
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("maintenance/recompute_by_distribution");
    for dist in [vec![6], vec![3, 3], vec![2, 2, 2]] {
        let spec = UniformSpaceSpec {
            distribution: dist.clone(),
            inverse_selectivity: 2,
            ..UniformSpaceSpec::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dist:?}")),
            &spec,
            |b, spec| {
                let (mut engine, view) = build_uniform_space(spec).unwrap();
                let mkb = engine.mkb().clone();
                b.iter(|| {
                    std::hint::black_box(
                        recompute_view(&view, engine.sites_mut(), &mkb, &ExecOptions::serial())
                            .unwrap(),
                    )
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
    targets = bench_maintenance
}
criterion_main!(benches);
