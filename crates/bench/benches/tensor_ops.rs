//! Micro-benchmarks for the tensor kernels every model is built on.
//!
//! Every kernel is swept over thread counts {1, 2, 4, 8} (via
//! `par::with_threads`, so one process covers the whole curve) and, when
//! the binary is built with `--features simd` on a capable CPU, over the
//! SIMD flag as well — the off arm pins the scalar path with
//! `simd::force_scalar`, which the dispatcher propagates into pool
//! workers. Each arm lands in `BENCH_tensor.json` under its own
//! `(op, shape, threads, simd)` key, so the baseline records the full
//! thread-scaling surface instead of one ambient configuration.
//!
//! The `matmul_naive` group is the retained pre-tiling reference; it is
//! single-threaded scalar by construction and measured only there.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use ntr::nn::init::SeededInit;
use ntr::tensor::{par, simd};
use std::hint::black_box;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// SIMD arms worth measuring in this build: scalar always; the SIMD arm
/// only when the feature is compiled in and the CPU supports it (otherwise
/// it would silently duplicate the scalar numbers under an `on` label).
fn simd_arms() -> Vec<bool> {
    if simd::active() {
        vec![false, true]
    } else {
        vec![false]
    }
}

/// Measures `f` with the thread override and SIMD arm applied for the whole
/// calibration + sampling window, stamped onto the recorded entry.
fn run_arm<O>(
    group: &mut BenchmarkGroup<'_>,
    id: BenchmarkId,
    threads: usize,
    simd_on: bool,
    mut f: impl FnMut() -> O,
) {
    group.set_threads(threads).set_simd(simd_on);
    group.bench_with_input(id, &threads, |bench, _| {
        par::with_threads(threads, || {
            if simd_on {
                bench.iter(&mut f);
            } else {
                simd::force_scalar(|| bench.iter(&mut f));
            }
        })
    });
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut init = SeededInit::new(1);
    for n in [32usize, 64, 128, 256] {
        let a = init.uniform(&[n, n], -1.0, 1.0);
        let b = init.uniform(&[n, n], -1.0, 1.0);
        for &t in &THREADS {
            for simd_on in simd_arms() {
                run_arm(&mut group, BenchmarkId::new("nn", n), t, simd_on, || {
                    black_box(a.matmul(&b))
                });
                run_arm(&mut group, BenchmarkId::new("nt", n), t, simd_on, || {
                    black_box(a.matmul_nt(&b))
                });
                run_arm(&mut group, BenchmarkId::new("tn", n), t, simd_on, || {
                    black_box(a.matmul_tn(&b))
                });
            }
        }
    }
    group.finish();
}

/// The retained pre-tiling kernels, benchmarked under `matmul_naive/...` so
/// `BENCH_tensor.json` captures the baseline the blocked kernels are judged
/// against. Naive is scalar and single-threaded by construction.
fn bench_matmul_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_naive");
    group.set_threads(1).set_simd(false);
    let mut init = SeededInit::new(1);
    for n in [64usize, 256] {
        let a = init.uniform(&[n, n], -1.0, 1.0);
        let b = init.uniform(&[n, n], -1.0, 1.0);
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, _| {
            bench.iter(|| black_box(ntr::tensor::naive::matmul(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("nt", n), &n, |bench, _| {
            bench.iter(|| black_box(ntr::tensor::naive::matmul_nt(&a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("tn", n), &n, |bench, _| {
            bench.iter(|| black_box(ntr::tensor::naive::matmul_tn(&a, &b)))
        });
    }
    group.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("elementwise");
    let mut init = SeededInit::new(4);
    let n = 1usize << 20;
    let x = init.uniform(&[n], -1.0, 1.0);
    let y = init.uniform(&[n], -1.0, 1.0);
    for &t in &THREADS {
        for simd_on in simd_arms() {
            let mut acc = x.clone();
            run_arm(&mut group, BenchmarkId::new("axpy", n), t, simd_on, || {
                acc.axpy(0.5, &y);
                black_box(acc.data()[0])
            });
            let mut acc = x.clone();
            run_arm(
                &mut group,
                BenchmarkId::new("add_assign", n),
                t,
                simd_on,
                || {
                    acc.add_assign(&y);
                    black_box(acc.data()[0])
                },
            );
            run_arm(
                &mut group,
                BenchmarkId::new("par_map", n),
                t,
                simd_on,
                || black_box(x.par_map(|v| v * 1.5 + 0.25)),
            );
        }
    }
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax_rows");
    let mut init = SeededInit::new(2);
    for n in [64usize, 256] {
        let x = init.uniform(&[n, n], -4.0, 4.0);
        for &t in &THREADS {
            for simd_on in simd_arms() {
                run_arm(
                    &mut group,
                    BenchmarkId::from_parameter(n),
                    t,
                    simd_on,
                    || black_box(x.softmax_rows()),
                );
            }
        }
    }
    group.finish();
}

fn bench_layernorm(c: &mut Criterion) {
    let mut group = c.benchmark_group("layernorm");
    let mut init = SeededInit::new(3);
    let x = init.uniform(&[256, 64], -2.0, 2.0);
    let ln = ntr::nn::LayerNorm::new(64);
    for &t in &THREADS {
        for simd_on in simd_arms() {
            run_arm(
                &mut group,
                BenchmarkId::from_parameter("256x64"),
                t,
                simd_on,
                || black_box(ln.forward(&x)),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_naive,
    bench_elementwise,
    bench_softmax,
    bench_layernorm
);
criterion_main!(benches);
