//! The graph stores each node's kind and one parameter (a wire's length, a
//! driver's `R_D`) and derives `r̂`, `ĉ`, `f` and `α` from them and the
//! technology on read. These tests pin what that must not change:
//!
//! * a builder-made or generated graph keeps no attribute of its own, and
//!   its JSON decodes to a graph that keeps none either and re-encodes byte
//!   for byte;
//! * instance JSON and `ProblemInstance::wire_length` are bitwise what they
//!   were when the graph stored every attribute (digests recorded then);
//! * a decoded node whose attributes no parameter reproduces keeps them as
//!   given, and the engine reads them exactly as the reference paths do;
//! * a wire whose products overflow is still a typed error.

use ncgws::circuit::{
    CircuitBuilder, CircuitError, CircuitGraph, ElmoreAnalyzer, GateKind, Node, NodeId, SizeVector,
    Technology, TimingAnalysis,
};
use ncgws::core::{
    build_coupling, reference, CircuitMetrics, ConstraintBounds, ConstraintSet, LrsSolver,
    Multipliers, OrderingStrategy, ParallelPolicy, RunControl, SizingEngine, SizingProblem,
};
use ncgws::netlist::{
    table1_specs, xl_wide_spec, CircuitSpec, ProblemInstance, SyntheticGenerator,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A technology whose wire area coefficient is not one, so a decoded
/// wire's length is not its `α` and has to be searched for.
fn odd_technology() -> Technology {
    Technology {
        gate_unit_resistance: 9.3,
        gate_unit_capacitance: 0.17,
        gate_area_coefficient: 3.3,
        wire_unit_resistance: 0.073,
        wire_unit_capacitance: 0.0231,
        wire_fringing_per_um: 0.0117,
        wire_area_coefficient: 0.7,
        ..Technology::dac99()
    }
}

fn odd_instance() -> ProblemInstance {
    let spec = CircuitSpec::new("odd", 40, 90)
        .with_seed(7)
        .with_technology(odd_technology());
    SyntheticGenerator::new(spec).generate().unwrap()
}

fn generate(spec: CircuitSpec) -> ProblemInstance {
    SyntheticGenerator::new(spec).generate().unwrap()
}

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The digest of every wire's `wire_length`, bit for bit, in node order.
fn length_digest(inst: &ProblemInstance) -> u64 {
    inst.circuit.wire_ids().fold(FNV_OFFSET, |h, id| {
        fnv(h, &inst.wire_length(id).to_bits().to_le_bytes())
    })
}

/// Asserts that `graph` keeps no attribute of its own, and that its JSON
/// decodes to a graph that keeps none either, holds the same nodes bit for
/// bit and re-encodes to the same bytes.
fn assert_derived_round_trip(label: &str, graph: &CircuitGraph) {
    assert_eq!(graph.attributes().num_overrides(), 0, "{label}");
    let json = serde_json::to_string(graph).unwrap();
    let decoded: CircuitGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(decoded.attributes().num_overrides(), 0, "{label}: decoded");
    assert_eq!(serde_json::to_string(&decoded).unwrap(), json, "{label}");
    for id in graph.node_ids() {
        let (a, b) = (
            graph.attributes().get(id.index()),
            decoded.attributes().get(id.index()),
        );
        assert!(
            a.resistance.to_bits() == b.resistance.to_bits()
                && a.unit_capacitance.to_bits() == b.unit_capacitance.to_bits()
                && a.fringing.to_bits() == b.fringing.to_bits()
                && a.area_coefficient.to_bits() == b.area_coefficient.to_bits(),
            "{label}: node {id} decodes to {b:?}, not {a:?}"
        );
    }
}

#[test]
fn generated_graphs_keep_no_attribute_of_their_own() {
    for spec in table1_specs().into_iter().chain([xl_wide_spec(10_000)]) {
        let name = spec.name.clone();
        assert_derived_round_trip(&name, &generate(spec).circuit);
    }
    assert_derived_round_trip("odd", &odd_instance().circuit);
}

/// Digests recorded when the graph stored all four attributes per node.
#[test]
fn instance_json_and_wire_lengths_are_unchanged() {
    let odd = odd_instance();
    let json = serde_json::to_string(&odd).unwrap();
    assert_eq!(fnv(FNV_OFFSET, json.as_bytes()), 0xec64_5921_0fed_c28f);
    assert_eq!(length_digest(&odd), 0x7fb3_77a3_f9d0_9ea3);
    let xlw10k = generate(xl_wide_spec(10_000));
    assert_eq!(length_digest(&xlw10k), 0xd639_b3d2_ecb0_52bf);
}

/// A random technology, each constant the default's scaled by 0.5–2.
fn random_technology(rng: &mut ChaCha8Rng) -> Technology {
    let mut scale = |v: f64| v * rng.gen_range(0.5..2.0);
    let d = Technology::dac99();
    Technology {
        gate_unit_resistance: scale(d.gate_unit_resistance),
        gate_unit_capacitance: scale(d.gate_unit_capacitance),
        gate_area_coefficient: scale(d.gate_area_coefficient),
        wire_unit_resistance: scale(d.wire_unit_resistance),
        wire_unit_capacitance: scale(d.wire_unit_capacitance),
        wire_fringing_per_um: scale(d.wire_fringing_per_um),
        wire_area_coefficient: scale(d.wire_area_coefficient),
        ..d
    }
}

/// A random builder program: drivers of random resistance, then gates
/// each fed by one to three wires of log-uniform length from earlier
/// drivers or gates, and a wire to a primary output from every gate left
/// without fanout.
fn random_circuit(seed: u64, gates: usize) -> CircuitGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(random_technology(&mut rng));
    let drivers: Vec<_> = (0..3)
        .map(|d| {
            b.add_driver(&format!("d{d}"), rng.gen_range(20.0..400.0))
                .unwrap()
        })
        .collect();
    let mut sources = drivers.clone();
    let mut used = vec![false; gates];
    let mut wires = 0;
    let mut wire = |b: &mut CircuitBuilder, rng: &mut ChaCha8Rng| {
        wires += 1;
        let length = 10f64.powf(rng.gen_range(-2.0..4.0));
        b.add_wire(&format!("w{wires}"), length).unwrap()
    };
    for g in 0..gates {
        let gate = b
            .add_gate(&format!("g{g}"), GateKind::ALL[g % GateKind::ALL.len()])
            .unwrap();
        let mut fed = Vec::new();
        for _ in 0..rng.gen_range(1usize..4) {
            let k = rng.gen_range(0..sources.len());
            if fed.contains(&k) {
                continue;
            }
            fed.push(k);
            if k >= drivers.len() {
                used[k - drivers.len()] = true;
            }
            let w = wire(&mut b, &mut rng);
            b.connect(sources[k], w).unwrap();
            b.connect(w, gate).unwrap();
        }
        sources.push(gate);
    }
    for (k, &gate) in sources[drivers.len()..].iter().enumerate() {
        if !used[k] {
            let w = wire(&mut b, &mut rng);
            b.connect(gate, w).unwrap();
            b.connect_output(w, rng.gen_range(0.0..20.0)).unwrap();
        }
    }
    for &d in &drivers {
        // A driver no gate picked still needs a fanout.
        let w = wire(&mut b, &mut rng);
        b.connect(d, w).unwrap();
        b.connect_output(w, 1.0).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn random_builder_programs_keep_no_attribute_of_their_own(
        seed in 0u64..1_000_000,
        gates in 1usize..40,
    ) {
        assert_derived_round_trip(&format!("seed {seed}"), &random_circuit(seed, gates));
    }
}

/// `graph` with node `wire`'s unit capacitance moved up by one ulp and
/// node `gate` given attributes of no technology, reassembled through the
/// untrusted-input path.
fn with_foreign_attributes(graph: &CircuitGraph, wire: NodeId, gate: NodeId) -> CircuitGraph {
    let mut nodes: Vec<Node> = graph.node_ids().map(|id| graph.node(id)).collect();
    let w = &mut nodes[wire.index()].attrs;
    w.unit_capacitance = w.unit_capacitance.next_up();
    let g = &mut nodes[gate.index()].attrs;
    (g.unit_resistance, g.unit_capacitance, g.area_coefficient) = (12.5, 0.21, 5.5);
    let names: Vec<&str> = graph.node_ids().map(|id| graph.name(id)).collect();
    let lists = |list: fn(&CircuitGraph, NodeId) -> &[NodeId]| {
        graph
            .node_ids()
            .map(|id| list(graph, id).to_vec())
            .collect()
    };
    CircuitGraph::from_serialized_parts(
        nodes,
        &names,
        lists(CircuitGraph::fanin),
        lists(CircuitGraph::fanout),
        *graph.technology(),
        graph.num_drivers(),
        graph.num_components(),
    )
    .unwrap()
}

/// The odd instance with a wire and a gate carrying attributes their
/// parameters do not reproduce, and those two nodes.
fn overridden_instance() -> (ProblemInstance, NodeId, NodeId) {
    let inst = odd_instance();
    let wire = inst.circuit.wire_ids().nth(3).unwrap();
    let gate = inst.circuit.gate_ids().nth(5).unwrap();
    let circuit = with_foreign_attributes(&inst.circuit, wire, gate);
    (ProblemInstance { circuit, ..inst }, wire, gate)
}

#[test]
fn attributes_no_parameter_reproduces_are_kept_as_given() {
    let (inst, wire, gate) = overridden_instance();
    let graph = &inst.circuit;
    assert_eq!(graph.attributes().num_overrides(), 2);
    let original = odd_instance().circuit;
    let up = original.node(wire).attrs.unit_capacitance.next_up();
    assert_eq!(graph.attributes().get(wire.index()).unit_capacitance, up);
    assert_eq!(graph.node(wire).attrs.unit_capacitance, up);
    let g = graph.attributes().get(gate.index());
    assert_eq!(
        (
            g.resistance,
            g.unit_capacitance,
            g.fringing,
            g.area_coefficient
        ),
        (12.5, 0.21, 0.0, 5.5)
    );
    // Every other node reads as before.
    for id in graph.node_ids().filter(|&id| id != wire && id != gate) {
        assert_eq!(graph.node(id), original.node(id), "{id}");
    }
    // The overrides survive the JSON round trip byte for byte.
    let json = serde_json::to_string(graph).unwrap();
    assert!(json.contains(r#""unit_resistance":12.5"#), "{json}");
    let decoded: CircuitGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(decoded.attributes().num_overrides(), 2);
    assert_eq!(serde_json::to_string(&decoded).unwrap(), json);
    // The wire's length is still read off its `α`, which did not move.
    assert_eq!(
        inst.wire_length(wire).to_bits(),
        odd_instance().wire_length(wire).to_bits()
    );
}

/// On a graph with attribute overrides the engine's tables, its metrics
/// and its exact LRS solve equal the allocate-per-call reference paths bit
/// for bit, at one thread and at two.
#[test]
fn the_engine_reads_overrides_as_the_reference_does() {
    let (inst, wire, gate) = overridden_instance();
    let graph = &inst.circuit;
    let ordering = build_coupling(&inst, OrderingStrategy::Woss, false).unwrap();
    let coupling = &ordering.coupling;
    let bounds = ConstraintBounds {
        delay: 1e15,
        total_capacitance: 1e15,
        crosstalk: 1e15,
    };
    let problem = SizingProblem::new(graph, coupling, bounds).unwrap();
    let n = graph.num_components();
    let sizes = SizeVector::new((0..n).map(|i| 0.2 + (i % 13) as f64 * 0.7).collect());
    // The overridden nodes carry a size other than the default.
    for id in [wire, gate] {
        assert_ne!(sizes[graph.component_index(id).unwrap()], 1.0);
    }
    let extra = coupling.delay_load_per_node(graph, &sizes);
    let caps = ElmoreAnalyzer::new(graph).downstream_caps(&sizes, Some(&extra));
    let timing = TimingAnalysis::run(graph, &sizes, Some(&extra));
    let metrics = CircuitMetrics::evaluate(graph, coupling, &sizes);
    let mut multipliers = Multipliers::uniform(graph, 0.3, 0.0);
    (multipliers.beta, multipliers.gamma) = (0.7, 1.3);
    let naive = reference::lrs_solve(&problem, &multipliers, 40, 1e-9);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    for policy in [ParallelPolicy::threads(1), ParallelPolicy::threads(2)] {
        let mut engine = SizingEngine::for_problem(&problem);
        engine.set_parallel(policy);
        let view = engine.timing(&sizes);
        assert_eq!(bits(view.delays), bits(&timing.delays), "{policy:?}");
        assert_eq!(
            bits(view.arrival),
            bits(&timing.arrival.values),
            "{policy:?}"
        );
        let ws = engine.workspace();
        assert_eq!(bits(&ws.charged), bits(&caps.charged), "{policy:?}");
        assert_eq!(bits(&ws.presented), bits(&caps.presented), "{policy:?}");
        assert_eq!(engine.metrics(&sizes), metrics, "{policy:?}");

        let mut solved = graph.minimum_sizes();
        let stats = LrsSolver::new(40, 1e-9).solve_constrained(
            &mut engine,
            &ConstraintSet::new(),
            &multipliers,
            &mut solved,
            &RunControl::new(),
        );
        assert_eq!(
            bits(solved.as_slice()),
            bits(naive.sizes.as_slice()),
            "{policy:?}"
        );
        assert_eq!(
            (stats.sweeps, stats.converged),
            (naive.sweeps, naive.converged)
        );
    }
}

#[test]
fn a_wire_whose_products_overflow_is_a_typed_error() {
    let tech = Technology {
        wire_unit_resistance: 1e300,
        ..Technology::dac99()
    };
    let mut b = CircuitBuilder::new(tech);
    let d = b.add_driver("d", 100.0).unwrap();
    let w = b.add_wire("w", 1e10).unwrap();
    b.connect(d, w).unwrap();
    b.connect_output(w, 1.0).unwrap();
    assert_eq!(
        b.build().unwrap_err(),
        CircuitError::InvalidParameter {
            name: "unit_resistance",
            value: f64::INFINITY
        }
    );
}
