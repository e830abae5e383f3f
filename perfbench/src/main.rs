//! The repository benchmark: end-to-end and per-layer numbers for the
//! two-stage sizing flow, driven only through the workspace crates' public
//! APIs. Traced runs also serve the workload's circuits through the durable
//! server for the server and store layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --features parallel -- \
//!     --workload table1|xlw100k --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run prints human-readable `host`, `check` and `metric` lines, then
//! one JSON object as the last line of standard output. With `--trace 0` the
//! JSON carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics of a traced run, which also re-measures the end-to-end
//! numbers with and without tracing and prints the difference. A failed
//! correctness check sets `"correct": false` and makes the exit code 1.

mod serve;
mod solver;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::{json_number, json_string, Metrics};

/// The seed the golden Table-1 values were recorded at. Seed 0 leaves every
/// generator seed as the library presets define it.
pub const DEFAULT_SEED: u64 = 0;

/// End-to-end metrics of every workload (`--trace 0`), as declared in
/// `BENCHMARK.json`.
pub const END_TO_END: [&str; 4] = ["setup_s", "area_ratio", "duality_gap", "peak_rss_mib"];

/// Per-layer metrics of every workload (`--trace 1`), as declared in
/// `BENCHMARK.json`.
pub const PER_LAYER: [&str; 46] = [
    "netlist.generate_ms",
    "waveform.simulate_ms",
    "waveform.similarity_ms",
    "ordering.woss_ms",
    "coupling.build_ms",
    "flow.order_ms",
    "circuit.engine_build_ms",
    "ogws.iter_ms.p50",
    "ogws.iterations",
    "lrs.solve_ms",
    "lrs.sweeps_per_iter",
    "schedule.touched_per_sweep",
    "schedule.frozen_share",
    "circuit.timing_ms",
    "engine.aggregates_ms",
    "lagrangian.dual_ms",
    "projection.project_ms",
    "ogws.other_ms",
    "par.speedup_t2",
    "engine.memory_kib",
    "snapshot.encode_ms",
    "snapshot.decode_ms",
    "snapshot.bytes",
    "store.save_ms.p50",
    "store.save_ms.p99",
    "store.load_ms.p50",
    "journal.append_ms.p50",
    "journal.append_ms.p99",
    "journal.read_ms",
    "server.queue_wait_ms.p50",
    "server.queue_wait_ms.p99",
    "server.attempt_ms.p50",
    "server.attempt_ms.p99",
    "server.attempts_per_job",
    "server.resumed_share",
    "server.checkpoints",
    "server.recover_ms",
    "self.unit_ms",
    "self.flow.order_ms",
    "self.ogws.size_ms",
    "self.server.queue_wait_ms",
    "self.server.attempt_ms",
    "trace.untraced_latency_ms.p50",
    "trace.traced_latency_ms.p50",
    "trace.overhead_pct",
    "trace.spans",
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Print the Table-1 golden lines instead of checking them.
    pub print_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        print_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--print-golden" => args.print_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed checks (at most a few are printed).
    pub failures: Vec<String>,
    /// Generic end-to-end metrics (the `--trace 0` JSON).
    pub e2e: Metrics,
    /// Per-layer metrics (the `--trace 1` JSON).
    pub layer: Metrics,
    /// The workload's own end-to-end numbers under their descriptive names
    /// (`round_s.p50`, `solve_s.p90`, ...), printed as report lines.
    pub report: Metrics,
}

impl Outcome {
    /// Counts one checked operation; a failed check is recorded.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records a failure that is not tied to one counted operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.attempted += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }
}

/// Where a run may write: a scratch directory under the build directory,
/// removed when the run ends.
pub fn work_dir(workload: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()))
}

/// Peak resident set size of this process, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let point = fields.nth(1)?;
            let fstype = fields.next()?;
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (workload, threads) = match args.workload.as_str() {
        "table1" => (solver::table1(args.seed), 1),
        "xlw100k" => (solver::xlw100k(args.seed), solver::XLW_THREADS),
        other => {
            eprintln!("perfbench: unknown workload {other} (table1, xlw100k)");
            return ExitCode::from(2);
        }
    };
    // Traced runs also start a server with its own worker threads.
    let threads = if args.trace {
        threads.max(serve::WORKERS)
    } else {
        threads
    };
    if threads > nproc() {
        eprintln!(
            "perfbench: workload {} needs {threads} hardware threads, host has {}",
            args.workload,
            nproc()
        );
        return ExitCode::from(2);
    }
    let dir = work_dir(&args.workload);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    println!(
        "host: nproc={} cpu={} parallel_feature={} profile={} work_fs={} workload={} seed={} seconds={} trace={}",
        nproc(),
        json_string(&cpu_model()),
        cfg!(feature = "parallel"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        filesystem_of(&dir),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let outcome = solver::run(&workload, &args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    if args.print_golden {
        return ExitCode::SUCCESS;
    }
    finish(&args, outcome)
}

/// Prints the report lines and the final JSON object; the exit code is 1
/// when any check failed or a declared metric is missing or not finite.
fn finish(args: &Args, mut outcome: Outcome) -> ExitCode {
    for metric in outcome.report.iter() {
        println!(
            "report {} = {} {} (n={})",
            metric.name,
            json_number(metric.value),
            metric.unit,
            metric.samples
        );
    }
    let failed_pct = 100.0 * outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "report failed_pct = {failed_pct} % (failed {} of {} attempted)",
        outcome.failed, outcome.attempted
    );
    let (declared, metrics): (&[&str], &Metrics) = if args.trace {
        (&PER_LAYER, &outcome.layer)
    } else {
        (&END_TO_END, &outcome.e2e)
    };
    for metric in metrics.iter() {
        println!(
            "metric {} = {} {} (n={})",
            metric.name,
            json_number(metric.value),
            metric.unit,
            metric.samples
        );
    }
    let mut body = Vec::new();
    let mut problems = Vec::new();
    for name in declared {
        match metrics.get(name) {
            Some(m) if m.value.is_finite() => body.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(m.value),
                json_string(m.unit)
            )),
            Some(_) => problems.push(format!("metric {name} is not finite")),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    for problem in problems {
        outcome.fail(problem);
    }
    for failure in &outcome.failures {
        println!("check FAILED: {failure}");
    }
    let correct = outcome.failed == 0;
    println!(
        "check verdict: {}",
        if correct { "correct" } else { "INCORRECT" }
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_core::snapshot::json;

    fn names(section: &json::JsonValue) -> Vec<String> {
        section
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let obj = m.as_object().expect("metric object");
                json::get(obj, "name")
                    .and_then(json::JsonValue::as_str)
                    .expect("metric name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_measured_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let value = json::parse(&text).expect("valid JSON");
        let obj = value.as_object().expect("object");
        let e2e = names(json::get(obj, "end_to_end").expect("end_to_end"));
        let layer = names(json::get(obj, "per_layer").expect("per_layer"));
        assert_eq!(e2e, END_TO_END);
        assert_eq!(layer, PER_LAYER);
    }
}
