//! Ablation studies for three design choices:
//!
//! 1. wire-ordering strategy (WOSS vs identity vs random vs best-start
//!    nearest neighbor) — effect on effective loading and final noise;
//! 2. the noise/power constraints (full optimizer vs delay/area-only
//!    Lagrangian baseline vs TILOS-style greedy) — what noise awareness
//!    costs and buys;
//! 3. subgradient step schedule — iterations to reach the 1% duality gap.
//!
//! ```text
//! cargo run --release -p ncgws-bench --bin ablation
//! ```

use ncgws_bench::{generate, optimize, paper_config};
use ncgws_core::baseline::{greedy_delay_sizing, lr_delay_area};
use ncgws_core::{build_coupling, CircuitMetrics, OptimizerConfig, OrderingStrategy, StepSchedule};
use ncgws_netlist::CircuitSpec;

fn main() {
    let spec = CircuitSpec::new("ablation", 214, 426).with_seed(77);
    let instance = generate(spec);
    println!(
        "ablation circuit: {} gates, {} wires, {} channels",
        instance.circuit.num_gates(),
        instance.circuit.num_wires(),
        instance.channels.len()
    );

    // ---------------- 1. ordering strategy ----------------
    println!("\n[1] wire-ordering strategy (stage 1)");
    println!(
        "{:<28} {:>18} {:>14}",
        "strategy", "effective loading", "noise (pF)"
    );
    for (name, strategy) in [
        ("woss (paper)", OrderingStrategy::Woss),
        ("identity", OrderingStrategy::Identity),
        ("random", OrderingStrategy::Random { seed: 3 }),
        (
            "best-start nearest-neighbor",
            OrderingStrategy::BestStartNearestNeighbor,
        ),
    ] {
        let config = OptimizerConfig {
            ordering: strategy,
            ..paper_config()
        };
        let outcome = optimize(&instance, config);
        println!(
            "{:<28} {:>18.2} {:>14.4}",
            name, outcome.report.ordering_effective_loading, outcome.report.final_metrics.noise_pf
        );
    }

    // ---------------- 2. noise awareness ----------------
    // A demanding delay target (85% of the unsized delay) keeps wires and
    // gates large enough that noise awareness actually matters; with a loose
    // target every method collapses to near-minimum sizes and the comparison
    // is vacuous.
    println!("\n[2] noise constraint on/off (delay bound = 0.85x initial)");
    let tight_delay = OptimizerConfig {
        delay_bound_factor: 0.85,
        ..paper_config()
    };
    let full = optimize(&instance, tight_delay.clone());
    println!(
        "{:<28} noise {:>10.4} pF  area {:>12.0} um2  delay {:>8.1} ps",
        "full (noise-constrained)",
        full.report.final_metrics.noise_pf,
        full.report.final_metrics.area_um2,
        full.report.final_metrics.delay_ps
    );
    let base = lr_delay_area(&instance, &tight_delay).expect("baseline runs");
    println!(
        "{:<28} noise {:>10.4} pF  area {:>12.0} um2  delay {:>8.1} ps",
        "delay/area-only LR", base.metrics.noise_pf, base.metrics.area_um2, base.metrics.delay_ps
    );
    // Greedy heuristic, targeting the same delay bound as the LR runs.
    let ordering = build_coupling(&instance, OrderingStrategy::Woss, false).expect("coupling");
    let initial = paper_config().initial_sizes(&instance.circuit);
    let initial_metrics = CircuitMetrics::evaluate(&instance.circuit, &ordering.coupling, &initial);
    let greedy = greedy_delay_sizing(
        &instance.circuit,
        &ordering.coupling,
        initial_metrics.delay_internal * 0.85,
        5_000,
    );
    let greedy_metrics =
        CircuitMetrics::evaluate(&instance.circuit, &ordering.coupling, &greedy.sizes);
    println!(
        "{:<28} noise {:>10.4} pF  area {:>12.0} um2  delay {:>8.1} ps  ({} moves{})",
        "greedy (TILOS-style)",
        greedy_metrics.noise_pf,
        greedy_metrics.area_um2,
        greedy_metrics.delay_ps,
        greedy.moves,
        if greedy.feasible {
            ""
        } else {
            ", bound missed"
        }
    );

    // ---------------- 3. step schedule ----------------
    println!("\n[3] subgradient step schedule (iterations to reach the 1% gap)");
    println!(
        "{:<28} {:>10} {:>12} {:>10}",
        "schedule", "iters", "best gap", "feasible"
    );
    for (name, schedule) in [
        (
            "1/sqrt(k), scale 8.0 (default)",
            StepSchedule::SqrtDecay { scale: 8.0 },
        ),
        (
            "1/sqrt(k), scale 2.5",
            StepSchedule::SqrtDecay { scale: 2.5 },
        ),
        ("1/k, scale 8.0", StepSchedule::Harmonic { scale: 8.0 }),
        ("constant 0.5", StepSchedule::Constant { scale: 0.5 }),
    ] {
        let config = OptimizerConfig {
            step_schedule: schedule,
            ..paper_config()
        };
        let outcome = optimize(&instance, config);
        println!(
            "{:<28} {:>10} {:>11.2}% {:>10}",
            name,
            outcome.report.iterations,
            outcome.report.duality_gap * 100.0,
            outcome.report.feasible
        );
    }
}
