//! Reproduction of Table 1: noise, delay, power and area before/after
//! simultaneous gate and wire sizing, for ten circuits matching the paper's
//! ISCAS85 gate/wire counts.
//!
//! ```text
//! cargo run --release -p ncgws-bench --bin table1
//! cargo run --release -p ncgws-bench --bin table1 -- --json   # one JSON object per row
//! NCGWS_QUICK=1 cargo run --release -p ncgws-bench --bin table1   # 4 smallest circuits
//! ```
//!
//! In `--json` mode the run also persists a machine-readable summary to
//! `BENCH_table1.json` (in the current directory — the repo root when run
//! via `cargo`), so the perf trajectory is tracked across PRs; CI runs this
//! under `NCGWS_QUICK=1`, checks it against the committed baseline with the
//! `perfguard` binary, and uploads the file as an artifact. Besides the
//! Table-1 rows (now including the inner-sweep accounting of the solve
//! schedule), the summary carries a `schedule` section comparing the exact
//! Figure-8 schedule against the adaptive solve schedule on the XL
//! synthetic tier (1k/10k — plus 100k components outside quick mode), and
//! a `threads` section measuring the level-parallel policy
//! (`ParallelPolicy::threads`) on the wide XL tier at 1/2/4 threads — read
//! those speedups against the document's `hardware_threads` and
//! `parallel_feature` fields (a single-core CI runner can only demonstrate
//! determinism, not scaling). Thread rows asking for more workers than the
//! host has are flagged `oversubscribed` so downstream comparisons can
//! ignore their scheduling artifacts. Perfguard compares the `schedule` and
//! non-oversubscribed `threads` rows across baselines whenever both files
//! carry them.

use std::time::Instant;

use ncgws_bench::{generate, optimize, paper_config, quick_mode};
use ncgws_core::report::{average_improvements, OptimizationReport};
use ncgws_core::{Flow, OptimizerConfig, ParallelPolicy, SolveStrategy};
use ncgws_netlist::{table1_specs, xl_spec, xl_wide_spec};

/// Outer-iteration budget of the XL schedule comparison (matches the
/// `ogws_schedule` criterion bench).
const SCHEDULE_ITERATIONS: usize = 25;

/// Thread counts measured by the `threads` scaling section.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn main() {
    // With `--json` every row is emitted as one JSON-serialized
    // `OptimizationReport` on its own line (JSON Lines), and the
    // human-readable table is suppressed so the output pipes cleanly into
    // `jq` or a dataframe loader.
    let json_mode = std::env::args().skip(1).any(|arg| arg == "--json");
    let quick = quick_mode();

    let mut specs = table1_specs();
    if quick {
        specs.sort_by_key(|s| s.total_components());
        specs.truncate(4);
    }

    if !json_mode {
        println!("Table 1 reproduction — noise-constrained simultaneous gate and wire sizing");
        println!("(synthetic circuits matched to the paper's gate/wire counts; see README.md)");
        println!();
        println!("{}", OptimizationReport::table1_header());
    }

    let mut reports = Vec::new();
    for spec in specs {
        let instance = generate(spec);
        let outcome = optimize(&instance, paper_config());
        if json_mode {
            match serde_json::to_string(&outcome.report) {
                Ok(line) => println!("{line}"),
                Err(e) => eprintln!("failed to serialize report for `{}`: {e}", instance.name),
            }
        } else {
            println!("{}", outcome.report.table1_row());
        }
        reports.push(outcome.report);
    }

    if json_mode {
        let schedule = run_schedule_comparison(quick);
        let threads = run_threads_scaling(quick);
        write_bench_summary(&reports, schedule, threads, quick);
        return;
    }

    let avg = average_improvements(&reports);
    println!();
    println!(
        "Impr(%)   noise {:.2}%   delay {:.2}%   power {:.2}%   area {:.2}%",
        avg.noise_pct, avg.delay_pct, avg.power_pct, avg.area_pct
    );
    println!("paper     noise 89.67%   delay 5.30%   power 86.82%   area 87.90%   (for reference)");

    if let Ok(json) = serde_json::to_string_pretty(&reports) {
        let path = std::path::Path::new("target/table1_results.json");
        if std::fs::write(path, json).is_ok() {
            println!("\nper-circuit records written to {}", path.display());
        }
    }
}

/// One circuit's aggregate row of the perf-trajectory artifact.
#[derive(serde::Serialize)]
struct BenchRow {
    name: String,
    components: usize,
    iterations: usize,
    runtime_seconds: f64,
    seconds_per_iteration: f64,
    sweeps_total: usize,
    mean_sweeps_per_solve: f64,
    mean_touched_per_sweep: f64,
    memory_kib: f64,
    feasible: bool,
    duality_gap: f64,
    noise_improvement_pct: f64,
    area_improvement_pct: f64,
}

/// One XL-tier row comparing the exact and adaptive solve schedules on the
/// same prepared ordering (same iteration budget, same bounds).
#[derive(serde::Serialize)]
struct ScheduleRow {
    name: String,
    components: usize,
    iterations: usize,
    exact_seconds_per_iteration: f64,
    adaptive_seconds_per_iteration: f64,
    /// `exact / adaptive` — the headline win of the adaptive schedule.
    speedup: f64,
    exact_mean_sweeps_per_solve: f64,
    adaptive_mean_sweeps_per_solve: f64,
    exact_mean_touched_per_sweep: f64,
    adaptive_mean_touched_per_sweep: f64,
    exact_duality_gap: f64,
    adaptive_duality_gap: f64,
    feasibility_agrees: bool,
}

/// One row of the `threads` scaling section: the adaptive schedule on a
/// wide-XL tier under the level-parallel policy at one thread count.
#[derive(serde::Serialize)]
struct ThreadsRow {
    name: String,
    components: usize,
    threads: usize,
    iterations: usize,
    seconds_per_iteration: f64,
    /// `t1 / tN` end-to-end stage-2 ratio. Only meaningful on hardware with
    /// that many cores and the `parallel` feature compiled in — see the
    /// document-level `hardware_threads` / `parallel_feature` fields.
    speedup_vs_one_thread: f64,
    /// `true` when the row requested more workers than the host exposes
    /// (`hardware_threads < threads`): its ratio measures scheduler
    /// oversubscription, not the engine, so `perfguard` skips gating it.
    oversubscribed: bool,
}

/// The whole `BENCH_table1.json` document.
#[derive(serde::Serialize)]
struct BenchSummary {
    bench: String,
    quick: bool,
    /// Whether the binary was compiled with the `parallel` feature (without
    /// it the `threads` rows all execute the same grid on one thread).
    parallel_feature: bool,
    /// `std::thread::available_parallelism()` of the benchmarking machine —
    /// the context the `threads` speedups must be read in.
    hardware_threads: usize,
    circuits: Vec<BenchRow>,
    schedule: Vec<ScheduleRow>,
    threads: Vec<ThreadsRow>,
    average_improvements: ncgws_core::report::Improvements,
    total_runtime_seconds: f64,
}

/// Runs the exact-vs-adaptive schedule comparison on the XL tier.
fn run_schedule_comparison(quick: bool) -> Vec<ScheduleRow> {
    let tiers: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut rows = Vec::new();
    for &components in tiers {
        let instance = generate(xl_spec(components));
        let mut per_strategy = Vec::new();
        for strategy in [SolveStrategy::Exact, SolveStrategy::adaptive()] {
            let config = OptimizerConfig {
                max_iterations: SCHEDULE_ITERATIONS,
                solve_strategy: strategy,
                ..OptimizerConfig::default()
            };
            let ordered = Flow::prepare(&instance, config)
                .expect("valid configuration")
                .order()
                .expect("stage 1 succeeds");
            let started = Instant::now();
            let sized = ordered.size().expect("stage 2 succeeds");
            let elapsed = started.elapsed().as_secs_f64();
            let iterations = sized.report.iterations.max(1);
            per_strategy.push((elapsed / iterations as f64, sized.report));
        }
        let (exact_spi, exact) = &per_strategy[0];
        let (adaptive_spi, adaptive) = &per_strategy[1];
        eprintln!(
            "schedule xl tier {components}: exact {:.6} s/iter, adaptive {:.6} s/iter ({:.2}x)",
            exact_spi,
            adaptive_spi,
            exact_spi / adaptive_spi
        );
        rows.push(ScheduleRow {
            name: exact.name.clone(),
            components,
            iterations: SCHEDULE_ITERATIONS,
            exact_seconds_per_iteration: *exact_spi,
            adaptive_seconds_per_iteration: *adaptive_spi,
            speedup: exact_spi / adaptive_spi,
            exact_mean_sweeps_per_solve: exact.mean_sweeps_per_solve,
            adaptive_mean_sweeps_per_solve: adaptive.mean_sweeps_per_solve,
            exact_mean_touched_per_sweep: exact.mean_touched_per_sweep,
            adaptive_mean_touched_per_sweep: adaptive.mean_touched_per_sweep,
            exact_duality_gap: exact.duality_gap,
            adaptive_duality_gap: adaptive.duality_gap,
            feasibility_agrees: exact.feasible == adaptive.feasible,
        });
    }
    rows
}

/// Runs the level-parallel thread-scaling measurement: the adaptive
/// schedule on the *wide* XL tier (logarithmic-depth circuits — the shape
/// level parallelism scales on; the chain-like `xl_spec` tier is
/// depth-dominated and stays in the `schedule` section) at 1/2/4 threads.
/// Also asserts the determinism contract: every thread count must land on
/// the exact same final metrics.
fn run_threads_scaling(quick: bool) -> Vec<ThreadsRow> {
    let tiers: &[usize] = if quick { &[10_000] } else { &[10_000, 100_000] };
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for &components in tiers {
        let instance = generate(xl_wide_spec(components));
        let mut one_thread_spi = f64::NAN;
        let mut reference_metrics = None;
        for &threads in &THREAD_COUNTS {
            let config = OptimizerConfig {
                max_iterations: SCHEDULE_ITERATIONS,
                solve_strategy: SolveStrategy::adaptive(),
                parallel: ParallelPolicy::threads(threads),
                ..OptimizerConfig::default()
            };
            let ordered = Flow::prepare(&instance, config)
                .expect("valid configuration")
                .order()
                .expect("stage 1 succeeds");
            let started = Instant::now();
            let sized = ordered.size().expect("stage 2 succeeds");
            let elapsed = started.elapsed().as_secs_f64();
            let iterations = sized.report.iterations.max(1);
            let spi = elapsed / iterations as f64;
            if threads == 1 {
                one_thread_spi = spi;
            }
            match &reference_metrics {
                None => reference_metrics = Some(sized.report.final_metrics),
                Some(reference) => assert_eq!(
                    *reference, sized.report.final_metrics,
                    "thread-count determinism violated at {threads} threads"
                ),
            }
            eprintln!(
                "threads {}@t{threads}: {spi:.6} s/iter ({:.2}x vs t1)",
                sized.report.name,
                one_thread_spi / spi
            );
            rows.push(ThreadsRow {
                name: sized.report.name.clone(),
                components,
                threads,
                // The actual count behind the spi denominator (the run may
                // converge below the SCHEDULE_ITERATIONS budget).
                iterations,
                seconds_per_iteration: spi,
                speedup_vs_one_thread: one_thread_spi / spi,
                oversubscribed: hardware_threads < threads,
            });
        }
    }
    rows
}

/// The machine-readable perf-trajectory artifact: per-circuit aggregates
/// small and stable enough to diff across PRs (full `OptimizationReport`s
/// go to stdout / `target/table1_results.json`).
fn write_bench_summary(
    reports: &[OptimizationReport],
    schedule: Vec<ScheduleRow>,
    threads: Vec<ThreadsRow>,
    quick: bool,
) {
    let summary = BenchSummary {
        bench: "table1".to_string(),
        quick,
        parallel_feature: cfg!(feature = "parallel"),
        hardware_threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        circuits: reports
            .iter()
            .map(|r| BenchRow {
                name: r.name.clone(),
                components: r.total_components(),
                iterations: r.iterations,
                runtime_seconds: r.runtime_seconds,
                seconds_per_iteration: r.seconds_per_iteration,
                sweeps_total: r.sweeps_total,
                mean_sweeps_per_solve: r.mean_sweeps_per_solve,
                mean_touched_per_sweep: r.mean_touched_per_sweep,
                memory_kib: r.memory.total() as f64 / 1024.0,
                feasible: r.feasible,
                duality_gap: r.duality_gap,
                noise_improvement_pct: r.improvements.noise_pct,
                area_improvement_pct: r.improvements.area_pct,
            })
            .collect(),
        schedule,
        threads,
        average_improvements: average_improvements(reports),
        total_runtime_seconds: reports.iter().map(|r| r.runtime_seconds).sum::<f64>(),
    };
    // Fail loudly: exiting 0 with a stale committed BENCH_table1.json on
    // disk would let CI upload the previous PR's numbers as current.
    match serde_json::to_string_pretty(&summary) {
        Ok(json) => {
            let path = std::path::Path::new("BENCH_table1.json");
            match std::fs::write(path, json + "\n") {
                Ok(()) => eprintln!("bench summary written to {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("failed to serialize bench summary: {e}");
            std::process::exit(1);
        }
    }
}
