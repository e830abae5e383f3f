//! Batch serving through the persistent [`Server`]: many scenarios queued
//! as jobs, drained by worker threads, each attempt bounded by a
//! per-attempt wall-clock timeout and resumed from its checkpoint instead
//! of restarting.
//!
//! Eight growing scenarios run under *per-attempt* timeouts rather than
//! one shared deadline: a run that outlives its slice is checkpointed,
//! requeued and finishes in a later attempt, so the mix completes instead
//! of losing the large instances.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example batch_serve
//! cargo run --release --features parallel --example batch_serve
//! ```

use std::time::Instant;

use ncgws::netlist::CircuitSpec;
use ncgws::{JobInput, JobSpec, Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::var("NCGWS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let (base_gates, step, max_iterations) = if quick { (20, 8, 60) } else { (40, 25, 120) };

    let server = Server::start(ServerConfig {
        workers: 2,
        checkpoint_every: Some(10),
        ..ServerConfig::default()
    });

    let config = ncgws::core::OptimizerConfig::builder()
        .max_iterations(max_iterations)
        .build()?;

    // Eight scenarios of growing size (the kind of mix a sizing service
    // would face), reproducible from their seeds. Larger scenarios get a
    // lower priority, so the small ones clear the queue first.
    let started = Instant::now();
    let jobs: Vec<_> = (0..8u64)
        .map(|i| {
            let gates = base_gates + step * i as usize;
            let spec = CircuitSpec::new(format!("serve-{i}"), gates, 2 * gates + 20)
                .with_seed(1000 + i)
                .with_num_patterns(32);
            let job = JobSpec::new(JobInput::Synthetic(spec), config.clone())
                .with_tenant("batch")
                .with_priority(-(i as i32))
                .with_attempt_timeout_ms(2_000);
            let id = server.submit(job).expect("queue accepts the batch");
            (format!("serve-{i}"), 3 * gates + 20, id)
        })
        .collect();

    println!(
        "serving {} instances on 2 workers (2 s attempt slices)...\n",
        jobs.len()
    );
    println!(
        "{:<10} {:>6} {:>5} {:>8} {:>8} {:>18} {:>10} {:>11}",
        "instance", "comps", "ite", "attempts", "resumed", "stop", "area(um2)", "noise(pF)"
    );

    let mut total_iterations = 0usize;
    for (name, comps, id) in &jobs {
        let outcome = server.wait(*id).expect("job exists");
        total_iterations += outcome.iterations;
        let metrics = outcome.final_metrics.expect("completed jobs carry metrics");
        println!(
            "{:<10} {:>6} {:>5} {:>8} {:>8} {:>18} {:>10.1} {:>11.3}",
            name,
            comps,
            outcome.iterations,
            outcome.attempts,
            outcome.resumed_attempts,
            outcome.stop_reason.to_string(),
            metrics.area_um2,
            metrics.noise_pf
        );
    }

    let stats = server.drain();
    let elapsed = started.elapsed().as_secs_f64();
    println!();
    println!(
        "throughput: {:.2} instances/s ({} instances in {:.2} s, {} completed, {} requeued slices)",
        stats.completed as f64 / elapsed.max(1e-9),
        stats.submitted,
        elapsed,
        stats.completed,
        stats.requeued
    );
    println!(
        "iterations: {} total, {:.1} per instance, {} checkpoints taken",
        total_iterations,
        total_iterations as f64 / jobs.len().max(1) as f64,
        stats.checkpoints
    );
    assert_eq!(stats.completed + stats.failed, stats.submitted);
    Ok(())
}
