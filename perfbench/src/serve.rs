//! The server layer of the traced solver runs: the workload's own circuits
//! served as jobs by a durable two-worker server that is killed half drained
//! and recovered.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ncgws_core::{CircuitMetrics, OptimizerConfig};
use ncgws_netlist::CircuitSpec;
use ncgws_serve::{
    DurableOptions, JobId, JobInput, JobOutcome, JobSpec, JobState, Journal, Server, ServerConfig,
};

use crate::stats::{median, quantile, Metrics};
use crate::trace::Tracer;
use crate::Outcome;

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Longest a burst may take to get half its jobs to a terminal state.
const HALF_DRAIN_LIMIT: Duration = Duration::from_secs(60);

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        checkpoint_every: Some(8),
        max_attempts: 64,
        ..ServerConfig::default()
    }
}

/// Event sink that timestamps every line as its newline arrives.
#[derive(Clone, Default)]
struct EventLog(Arc<Mutex<EventLines>>);

#[derive(Default)]
struct EventLines {
    partial: Vec<u8>,
    lines: Vec<(Instant, String)>,
}

impl Write for EventLog {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        let mut guard = self.0.lock().expect("event log lock");
        let EventLines { partial, lines } = &mut *guard;
        for &b in data {
            if b == b'\n' {
                lines.push((now, String::from_utf8_lossy(partial).into_owned()));
                partial.clear();
            } else {
                partial.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl EventLog {
    fn options(&self) -> DurableOptions {
        DurableOptions {
            events: Some(Box::new(self.clone())),
            ..DurableOptions::default()
        }
    }

    /// Per-job queue waits and attempts, from the lifecycle events.
    fn timelines(&self) -> BTreeMap<u64, Timeline> {
        let guard = self.0.lock().expect("event log lock");
        let mut jobs: BTreeMap<u64, Timeline> = BTreeMap::new();
        for (at, line) in &guard.lines {
            let (Some(kind), Some(job)) = (field_str(line, "event"), field_u64(line, "job")) else {
                continue;
            };
            let t = jobs.entry(job).or_default();
            match kind {
                "submitted" => t.ready = Some(*at),
                "started" => {
                    if let Some(ready) = t.ready.take() {
                        t.waits.push((ready, *at));
                    }
                    t.running = Some(*at);
                }
                "requeued" | "retried" | "completed" | "failed" | "cancelled" => {
                    if let Some(start) = t.running.take() {
                        t.attempts.push((start, *at));
                    }
                    if matches!(kind, "requeued" | "retried") {
                        t.ready = Some(*at);
                    }
                }
                _ => {}
            }
        }
        jobs
    }
}

#[derive(Default)]
struct Timeline {
    ready: Option<Instant>,
    running: Option<Instant>,
    waits: Vec<(Instant, Instant)>,
    attempts: Vec<(Instant, Instant)>,
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Records every job's queue waits and attempts as spans and appends their
/// durations in ms.
fn record_spans(
    timelines: &BTreeMap<u64, Timeline>,
    tracer: &Tracer,
    waits: &mut Vec<f64>,
    attempts: &mut Vec<f64>,
) {
    for (&job, t) in timelines {
        for (name, intervals, out) in [
            ("server.queue_wait", &t.waits, &mut *waits),
            ("server.attempt", &t.attempts, &mut *attempts),
        ] {
            for &(start, end) in intervals {
                out.push((end - start).as_secs_f64() * 1e3);
                tracer.record(name, job, start, end);
            }
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

fn matches_reference(outcome: Option<&JobOutcome>, expected: &CircuitMetrics) -> bool {
    outcome.is_some_and(|o| {
        o.error.is_none()
            && o.final_metrics.is_some_and(|m| {
                close(m.area_um2, expected.area_um2)
                    && close(m.delay_ps, expected.delay_ps)
                    && close(m.noise_pf, expected.noise_pf)
                    && close(m.power_mw, expected.power_mw)
            })
    })
}

/// Checks every job of a burst: it completed (none lost, failed, cancelled
/// or rejected) with the metrics of the direct cold solve of its spec.
fn check_jobs(
    jobs: &[(usize, JobSpec)],
    ids: &[Option<JobId>],
    outcomes: &[Option<JobOutcome>],
    states: &[Option<JobState>],
    expected: &[CircuitMetrics],
    out: &mut Outcome,
) {
    for (i, (spec, _)) in jobs.iter().enumerate() {
        let ok = ids[i].is_some()
            && states[i] == Some(JobState::Completed)
            && matches_reference(outcomes[i].as_ref(), &expected[*spec]);
        out.check(ok, || {
            format!(
                "served probe: job {i} (spec {spec}) state {:?} outcome {:?}",
                states[i], outcomes[i]
            )
        });
    }
}

/// One burst: submit every job at once, kill the server half drained,
/// recover it and drain the rest.
struct Burst {
    recover_s: f64,
    journal_read_ms: f64,
    checkpoints: usize,
    attempts_per_job: f64,
    resumed_share: f64,
}

fn burst(
    dir: &Path,
    jobs: &[(usize, JobSpec)],
    expected: &[CircuitMetrics],
    tracer: &Tracer,
    waits: &mut Vec<f64>,
    attempts: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<Burst, String> {
    let log = EventLog::default();
    let server = Server::start_durable_with(dir, server_config(), log.options())
        .map_err(|e| format!("burst: start: {e}"))?;
    let started = Instant::now();
    let ids: Vec<Option<JobId>> = jobs
        .iter()
        .map(|(_, job)| server.submit(job.clone()).ok())
        .collect();
    let half = ids.len().div_ceil(2);
    loop {
        let stats = server.stats();
        if stats.completed + stats.failed + stats.cancelled >= half {
            break;
        }
        if started.elapsed() > HALF_DRAIN_LIMIT {
            return Err(format!(
                "burst: {} of {half} jobs done after {HALF_DRAIN_LIMIT:?}",
                stats.completed
            ));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let checkpoints_before = server.stats().checkpoints;
    drop(server);
    let t = Instant::now();
    let entries = Journal::read_entries(dir).map_err(|e| format!("burst: journal: {e}"))?;
    let journal_read = t.elapsed();
    std::hint::black_box(entries.len());
    let t = Instant::now();
    let (server, report) =
        Server::recover_with(dir, log.options()).map_err(|e| format!("burst: recover: {e}"))?;
    let recover = t.elapsed();
    let outcomes: Vec<_> = ids
        .iter()
        .map(|id| id.and_then(|id| server.wait(id)))
        .collect();
    let states: Vec<_> = ids
        .iter()
        .map(|id| id.and_then(|id| server.job_state(id)))
        .collect();
    let stats = server.drain();
    out.check(report.jobs_seen == jobs.len(), || {
        format!(
            "burst: recovery saw {} of {} jobs",
            report.jobs_seen,
            jobs.len()
        )
    });
    check_jobs(jobs, &ids, &outcomes, &states, expected, out);
    record_spans(&log.timelines(), tracer, waits, attempts);
    let done: Vec<&JobOutcome> = outcomes.iter().flatten().collect();
    let n = done.len().max(1) as f64;
    Ok(Burst {
        recover_s: recover.as_secs_f64(),
        journal_read_ms: journal_read.as_secs_f64() * 1e3,
        checkpoints: checkpoints_before + stats.checkpoints,
        attempts_per_job: done.iter().map(|o| o.attempts as f64).sum::<f64>() / n,
        resumed_share: done.iter().filter(|o| o.resumed_attempts > 0).count() as f64 / n,
    })
}

fn server_metrics(
    tracer: &Tracer,
    waits: &[f64],
    attempts: &[f64],
    b: &Burst,
    layer: &mut Metrics,
) {
    layer.put("server.queue_wait_ms.p50", median(waits), "ms", waits.len());
    layer.put(
        "server.queue_wait_ms.p99",
        quantile(waits, 0.99),
        "ms",
        waits.len(),
    );
    layer.put(
        "server.attempt_ms.p50",
        median(attempts),
        "ms",
        attempts.len(),
    );
    layer.put(
        "server.attempt_ms.p99",
        quantile(attempts, 0.99),
        "ms",
        attempts.len(),
    );
    layer.put("server.attempts_per_job", b.attempts_per_job, "count", 1);
    layer.put("server.resumed_share", b.resumed_share, "ratio", 1);
    layer.put("server.checkpoints", b.checkpoints as f64, "count", 1);
    layer.put("server.recover_ms", b.recover_s * 1e3, "ms", 1);
    layer.put("journal.read_ms", b.journal_read_ms, "ms", 1);
    for name in ["server.queue_wait", "server.attempt"] {
        let v = tracer.self_per_unit_ms(name);
        layer.put(format!("self.{name}_ms"), median(&v), "ms", v.len());
    }
}

/// The solver workloads' server layer: their own circuits served as jobs
/// (twice each, a per-attempt budget of a third of the cold iteration
/// count so they checkpoint and resume) in one killed-and-recovered burst.
pub fn served_probe(
    specs: &[CircuitSpec],
    config: &OptimizerConfig,
    expected: &[CircuitMetrics],
    iterations: &[usize],
    dir: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let jobs: Vec<(usize, JobSpec)> = (0..2)
        .flat_map(|_| specs.iter().enumerate())
        .map(|(i, spec)| {
            let job = JobSpec::new(JobInput::Synthetic(spec.clone()), config.clone())
                .with_tenant(format!("t{i}"))
                .with_iteration_budget((iterations[i] / 3).max(2));
            (i, job)
        })
        .collect();
    let (mut waits, mut attempts) = (Vec::new(), Vec::new());
    let probe_dir = dir.join("served-probe");
    let result = burst(
        &probe_dir,
        &jobs,
        expected,
        tracer,
        &mut waits,
        &mut attempts,
        out,
    );
    let _ = std::fs::remove_dir_all(&probe_dir);
    match result {
        Ok(b) => server_metrics(tracer, &waits, &attempts, &b, &mut out.layer),
        Err(e) => out.fail(e),
    }
}
