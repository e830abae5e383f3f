//! Build a circuit by hand with [`CircuitBuilder`], write it to the text
//! netlist format, parse it back, and optimize it.
//!
//! This is the path a user with a real (externally prepared) netlist would
//! take; everything the optimizer needs — RC attributes, routing channels,
//! coupling geometry, input patterns — travels through the text format.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_netlist
//! ```

use ncgws::core::{baseline, Flow, OptimizerConfig};
use ncgws::netlist::format::{parse_instance, write_instance};
use ncgws::netlist::{CircuitSpec, SyntheticGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A hand-written netlist: two inputs, a NAND, an inverter, four wires
    // sharing one routing channel.
    let text = "\
# a tiny hand-written design
circuit handmade
driver a 120.0
driver b 150.0
gate   n1 nand
gate   i1 inv
wire   wa 180.0
wire   wb 220.0
wire   wn 260.0
wire   wo 140.0
connect a  wa
connect b  wb
connect wa n1
connect wb n1
connect n1 wn
connect wn i1
connect i1 wo
output  wo 8.0
channel wa wb wn wo
geometry 11.0 0.6 0.03
patterns 64 0.3 99
";
    let instance = parse_instance(text)?;
    println!(
        "parsed `{}`: {} gates, {} wires, critical channel of {} wires",
        instance.name,
        instance.circuit.num_gates(),
        instance.circuit.num_wires(),
        instance.channels[0].len()
    );

    let config = OptimizerConfig::builder().max_iterations(120).build()?;
    let sized = Flow::prepare(&instance, config.clone())?.order()?.size()?;
    let r = &sized.report;
    println!(
        "optimized: noise {:.4} -> {:.4} pF, area {:.0} -> {:.0} um2, delay {:.1} -> {:.1} ps",
        r.initial_metrics.noise_pf,
        r.final_metrics.noise_pf,
        r.initial_metrics.area_um2,
        r.final_metrics.area_um2,
        r.initial_metrics.delay_ps,
        r.final_metrics.delay_ps
    );

    // Compare against the noise-oblivious Lagrangian baseline.
    let base = baseline::lr_delay_area(&instance, &config)?;
    println!(
        "noise-oblivious baseline ends at {:.4} pF of coupling ({} iterations)",
        base.metrics.noise_pf, base.iterations
    );

    // Round-trip a generated instance through the same text format.
    let generated =
        SyntheticGenerator::new(CircuitSpec::new("roundtrip", 30, 70).with_seed(5)).generate()?;
    let serialized = write_instance(&generated, (64, 0.35, 5));
    let reparsed = parse_instance(&serialized)?;
    println!(
        "round-trip check: {} components in, {} components out",
        generated.num_components(),
        reparsed.num_components()
    );
    Ok(())
}
