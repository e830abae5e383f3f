//! Thread-count scaling of the level-parallel inner loop
//! (`ParallelPolicy::Level`) on the *wide* XL synthetic tier.
//!
//! Each measurement is a full stage-2 sizing run (fixed OGWS iteration
//! budget, adaptive solve schedule, one prepared ordering, one reused
//! engine), so the timing covers everything the level grid distributes:
//! fused LRS sweeps, timing evaluation, the subgradient update and the
//! flow projection. The wide tier
//! (`xl_wide_spec`, logarithmic logic depth) is the shape level parallelism
//! scales on; the chain-like `xl_spec` tier is depth-dominated — its
//! critical path *is* the circuit — and is covered by the `ogws_schedule`
//! bench instead.
//!
//! Before timing, the harness asserts the determinism contract: every
//! thread count must produce identical final metrics. On a single-core
//! machine (or without the `parallel` feature) that contract is all this
//! bench can demonstrate — expect speedups ≈ 1.
//!
//! ```text
//! cargo bench -p ncgws-bench --features parallel --bench threads_scaling
//! NCGWS_QUICK=1 cargo bench -p ncgws-bench --features parallel --bench threads_scaling  # 10k only
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncgws_bench::quick_mode;
use ncgws_core::{Flow, OptimizerConfig, ParallelPolicy, RunControl, SolveStrategy};
use ncgws_netlist::{xl_wide_spec, SyntheticGenerator};

/// Outer-iteration budget per measured solve (matches `ogws_schedule` and
/// the `table1 --json` threads section).
const ITERATIONS: usize = 25;

fn config(threads: usize) -> OptimizerConfig {
    OptimizerConfig {
        max_iterations: ITERATIONS,
        solve_strategy: SolveStrategy::adaptive(),
        parallel: ParallelPolicy::threads(threads),
        ..OptimizerConfig::default()
    }
}

fn threads_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("threads_scaling");
    let sizes: &[usize] = if quick_mode() {
        &[10_000]
    } else {
        &[10_000, 100_000]
    };
    for &components in sizes {
        let instance = SyntheticGenerator::new(xl_wide_spec(components))
            .generate()
            .expect("wide XL generation succeeds");

        // Determinism gate before any timing: all thread counts agree.
        let reference = Flow::prepare(&instance, config(1))
            .expect("prepare")
            .order()
            .expect("order")
            .size()
            .expect("t1 sizing");
        for threads in [2usize, 4] {
            let run = Flow::prepare(&instance, config(threads))
                .expect("prepare")
                .order()
                .expect("order")
                .size()
                .expect("tN sizing");
            assert_eq!(
                reference.report.final_metrics, run.report.final_metrics,
                "thread-count determinism violated at {threads} threads on {components}"
            );
        }

        let control = RunControl::new();
        for threads in [1usize, 2, 4] {
            let ordered = Flow::prepare(&instance, config(threads))
                .expect("prepare")
                .order()
                .expect("order");
            let mut engine = ordered.engine();
            group.bench_with_input(
                BenchmarkId::new(format!("t{threads}"), components),
                &components,
                |b, _| {
                    b.iter(|| {
                        ordered
                            .size_with_engine(&mut engine, None, &control)
                            .expect("sizing")
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, threads_scaling);
criterion_main!(benches);
