//! Integration tests of the netlist text format against the rest of the flow:
//! a generated instance serialized to text, parsed back, and optimized must
//! describe the same optimization problem.

use ncgws::core::{Flow, OptimizerConfig};
use ncgws::netlist::format::{parse_instance, write_instance};
use ncgws::netlist::{CircuitSpec, CircuitStats, SyntheticGenerator};

#[test]
fn roundtripped_instance_optimizes_to_the_same_metrics() {
    let spec = CircuitSpec::new("rt-flow", 40, 90)
        .with_seed(31)
        .with_num_patterns(32);
    let directive = (
        spec.num_patterns,
        spec.pattern_toggle_probability,
        spec.seed ^ 0x5175_AB1E,
    );
    let original = SyntheticGenerator::new(spec).generate().expect("generate");
    let text = write_instance(&original, directive);
    let parsed = parse_instance(&text).expect("parse");

    let config = OptimizerConfig {
        max_iterations: 40,
        ..OptimizerConfig::default()
    };
    let a = Flow::prepare(&original, config.clone())
        .and_then(|prepared| prepared.order())
        .and_then(|ordered| ordered.size())
        .expect("run original");
    let b = Flow::prepare(&parsed, config)
        .and_then(|prepared| prepared.order())
        .and_then(|ordered| ordered.size())
        .expect("run parsed");

    // The graphs have identical structure and attributes, so the initial
    // metrics must match exactly and the final metrics must match closely
    // (node renumbering can reorder ties in the channel similarity matrices).
    assert_eq!(
        a.report.initial_metrics.area_um2,
        b.report.initial_metrics.area_um2
    );
    let rel = |x: f64, y: f64| (x - y).abs() / x.abs().max(1e-12);
    assert!(
        rel(
            a.report.initial_metrics.noise_pf,
            b.report.initial_metrics.noise_pf
        ) < 1e-9
    );
    assert!(
        rel(
            a.report.final_metrics.area_um2,
            b.report.final_metrics.area_um2
        ) < 0.05
    );
}

#[test]
fn structural_statistics_survive_the_roundtrip() {
    let spec = CircuitSpec::new("rt-stats", 60, 130).with_seed(5);
    let directive = (16, 0.3, 1);
    let original = SyntheticGenerator::new(spec).generate().expect("generate");
    let parsed = parse_instance(&write_instance(&original, directive)).expect("parse");
    let a = CircuitStats::of(&original.circuit);
    let b = CircuitStats::of(&parsed.circuit);
    assert_eq!(a.num_gates, b.num_gates);
    assert_eq!(a.num_wires, b.num_wires);
    assert_eq!(a.num_drivers, b.num_drivers);
    assert_eq!(a.num_outputs, b.num_outputs);
    assert_eq!(a.num_edges, b.num_edges);
    assert_eq!(a.depth, b.depth);
}

#[test]
fn parse_errors_do_not_panic_on_garbage() {
    for garbage in [
        "",
        "circuit\n",
        "driver\n",
        "wire w -5\n",
        "gate g unknown\n",
        "connect a b\n",
        "channel\n",
        "geometry 1 2\n",
        "patterns x y z\n",
        "completely unrelated text\n",
    ] {
        // Either a structured parse error or a structured circuit error; never a panic.
        let _ = parse_instance(garbage);
    }
}
