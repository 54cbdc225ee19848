//! Criterion benches for the evaluation engine itself: cold vs
//! warm-cache pipeline runs, and serial vs parallel TLP profiling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use crat_core::{optimize_with, profile_opt_tlp_with, CratOptions, EvalEngine};
use crat_sim::GpuConfig;
use crat_workloads::{build_kernel, launch_sized, suite};

/// Full CRAT pipeline, fresh engine each iteration: every simulation
/// is a cache miss.
fn bench_pipeline_cold(c: &mut Criterion) {
    let app = suite::spec("FDTD");
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch_sized(app, 30);
    c.bench_function("pipeline_fdtd_cold_cache", |b| {
        b.iter_batched(
            EvalEngine::serial,
            |e| optimize_with(&e, black_box(&kernel), &gpu, &launch, &CratOptions::new()).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

/// Full CRAT pipeline on a pre-warmed engine: all simulations are
/// cache hits, measuring the non-simulation cost (analysis, pruning,
/// allocation, TPSC).
fn bench_pipeline_warm(c: &mut Criterion) {
    let app = suite::spec("FDTD");
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch_sized(app, 30);
    let engine = EvalEngine::serial();
    optimize_with(&engine, &kernel, &gpu, &launch, &CratOptions::new()).unwrap();
    c.bench_function("pipeline_fdtd_warm_cache", |b| {
        b.iter(|| {
            optimize_with(
                &engine,
                black_box(&kernel),
                &gpu,
                &launch,
                &CratOptions::new(),
            )
            .unwrap()
        })
    });
}

/// The bound-and-prune profiling sweep (serial, at most one
/// simulation per TLP level), fresh engine each iteration so every run
/// is cold.
fn bench_profile_sweep(c: &mut Criterion) {
    let app = suite::spec("KMN");
    let kernel = build_kernel(app);
    let gpu = GpuConfig::fermi();
    let launch = launch_sized(app, 30);
    c.bench_function("profile_tlp_kmn", |b| {
        b.iter_batched(
            EvalEngine::serial,
            |e| profile_opt_tlp_with(&e, black_box(&kernel), &gpu, &launch, 21).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_pipeline_cold,
    bench_pipeline_warm,
    bench_profile_sweep
);
criterion_main!(benches);
