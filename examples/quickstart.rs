//! Quickstart: generate a small benchmark, run the staged two-stage flow,
//! and print a Table 1 style summary.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ncgws::core::{OptimizationReport, OptimizerConfig};
use ncgws::netlist::{CircuitSpec, SyntheticGenerator};
use ncgws::Flow;

fn main() -> Result<(), ncgws::Error> {
    // A small circuit: 120 gates, 260 wires, reproducible from the seed.
    let spec = CircuitSpec::new("quickstart", 120, 260).with_seed(42);
    let instance = SyntheticGenerator::new(spec).generate()?;
    println!(
        "generated `{}`: {} gates, {} wires, {} drivers, {} channels",
        instance.name,
        instance.circuit.num_gates(),
        instance.circuit.num_wires(),
        instance.circuit.num_drivers(),
        instance.channels.len()
    );

    // The default configuration reproduces the paper's setup: minimize area
    // subject to a delay bound (1.0x the unsized delay), a power bound
    // (13% of the unsized power) and a crosstalk bound (11.5% of the unsized
    // coupling), with WOSS wire ordering as stage 1.
    let config = OptimizerConfig::builder().build()?;

    // Stage 1: switching-similarity wire ordering and the coupling model.
    // The ordering is a first-class value — inspect it before sizing.
    let ordered = Flow::prepare(&instance, config)?.order()?;
    println!(
        "stage 1: {} channel orderings, effective loading {:.3}, {} coupling pairs",
        ordered.ordering().num_channels(),
        ordered.ordering().total_effective_loading,
        ordered.ordering().coupling.len()
    );

    // Stage 2: OGWS Lagrangian sizing over the ordering.
    let sized = ordered.size()?;
    let report = &sized.report;

    println!();
    println!("{}", OptimizationReport::table1_header());
    println!("{}", report.table1_row());
    println!();
    println!(
        "improvements: noise {:.1}%  delay {:.1}%  power {:.1}%  area {:.1}%",
        report.improvements.noise_pct,
        report.improvements.delay_pct,
        report.improvements.power_pct,
        report.improvements.area_pct
    );
    println!(
        "{} OGWS iterations ({}), {:.2} s total, duality gap {:.3}%, feasible: {}",
        report.iterations,
        report.stop_reason,
        report.runtime_seconds,
        report.duality_gap * 100.0,
        report.feasible
    );

    // The component sizes are available for downstream use (e.g. back-annotation).
    println!(
        "widest component after sizing: {:.3} um",
        sized.sizes().max_size()
    );
    Ok(())
}
