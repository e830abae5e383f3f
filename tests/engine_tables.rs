//! The sizing engine reads the graph's own tables, not copies of them, and
//! must give what the allocate-per-call reference path gives:
//!
//! * a fanout edge into the sink adds its parent's output load, read from
//!   the graph's sparse, sorted load list by a cursor that walks down with
//!   the backward kernels. On decoded graphs whose loads take every form a
//!   decoded graph may give them (`-0.0`, no entry, a load on a node that
//!   does not drive the sink, a driver that drives the sink), `charged`,
//!   `presented` and the delays are bitwise the `ElmoreAnalyzer`'s, in one
//!   block and on the level grid at `threads(2)`;
//! * the critical path is rebuilt from the settled arrival times, with the
//!   arrival kernel's fanin order, source skip and `>=` tie-break. On
//!   random instances, and on a symmetric circuit whose fanin arrivals tie
//!   exactly, it is `TimingAnalysis::run`'s path at `threads(1)` and
//!   `threads(2)`;
//! * a forward kernel derives each fanin's resistance from the graph's
//!   kind and parameter columns as it visits the edge. On a decoded graph
//!   whose driver, gate and wire fanins carry attribute overrides, the
//!   upstream resistances of the plain and the fused forward kernel are
//!   bitwise the `ElmoreAnalyzer`'s, and the exact LRS solve is bitwise
//!   `ncgws_core::reference`'s.

use ncgws::circuit::{
    CircuitBuilder, CircuitGraph, CircuitTopology, ElmoreAnalyzer, EvalWorkspace, GateKind, Node,
    NodeId, SizeVector, Technology, Tile, TimingAnalysis,
};
use ncgws::core::{
    build_coupling, reference, ConstraintBounds, ConstraintSet, LrsSolver, Multipliers,
    OrderingStrategy, ParallelPolicy, RunControl, SizingEngine, SizingProblem,
};
use ncgws::coupling::CouplingSet;
use ncgws::netlist::{CircuitSpec, SyntheticGenerator};

/// The bit patterns of `values`: `-0.0` and `0.0` differ, NaN equals NaN.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The Elmore timing of the whole circuit at `sizes` into `ws`, with the
/// coupling load read from `ws.extra_cap`: each kernel called once over the
/// whole partition, then the critical-path epilogue. Returns the
/// critical-path delay.
fn one_block_timing(topo: &CircuitTopology<'_>, sizes: &SizeVector, ws: &mut EvalWorkspace) -> f64 {
    let (n, xs) = (topo.num_nodes(), sizes.as_slice());
    topo.downstream_caps_chunk(
        topo.level_bounds(),
        xs,
        &ws.extra_cap,
        Tile::whole(&mut ws.charged),
        Tile::whole(&mut ws.presented),
    );
    topo.delays_chunk(0..n, xs, &ws.charged, Tile::whole(&mut ws.delays));
    topo.arrivals_chunk(0..n, &ws.delays, Tile::whole(&mut ws.arrival));
    topo.trace_critical_path(&ws.arrival, &mut ws.critical_path)
}

/// A size per component that varies along the circuit.
fn varied(graph: &CircuitGraph) -> SizeVector {
    (0..graph.num_components())
        .map(|i| 0.5 + (i * 7 % 13) as f64 / 4.0)
        .collect()
}

/// `width` driver → wire `a` → inverter → wire `o` → output paths, decoded
/// from parts in which path `i` carries, by `i % 5`: a zero load on its
/// output wire, which the graph keeps no entry for; a `-0.0` load on it; a
/// load on its input wire, which does not drive the sink; a load on its
/// driver, which drives the sink too; or the load it was built with.
fn decoded_loads(width: usize) -> CircuitGraph {
    let mut b = CircuitBuilder::new(Technology::dac99());
    for i in 0..width {
        let d = b
            .add_driver(&format!("d{i}"), 90.0 + (i % 11) as f64)
            .unwrap();
        let a = b
            .add_wire(&format!("a{i}"), 100.0 + (i % 7) as f64)
            .unwrap();
        let g = b.add_gate(&format!("g{i}"), GateKind::Inv).unwrap();
        let o = b.add_wire(&format!("o{i}"), 80.0 + (i % 5) as f64).unwrap();
        b.connect(d, a).unwrap();
        b.connect(a, g).unwrap();
        b.connect(g, o).unwrap();
        b.connect_output(o, 4.0 + (i % 3) as f64).unwrap();
    }
    let built = b.build().unwrap();
    let ids: Vec<NodeId> = built.node_ids().collect();
    let mut nodes: Vec<Node> = ids.iter().map(|&id| built.node(id)).collect();
    let names: Vec<&str> = ids.iter().map(|&id| built.name(id)).collect();
    let mut fanin: Vec<Vec<NodeId>> = ids.iter().map(|&id| built.fanin(id).to_vec()).collect();
    let mut fanout: Vec<Vec<NodeId>> = ids.iter().map(|&id| built.fanout(id).to_vec()).collect();
    let sink = built.sink();
    for (idx, name) in names.iter().enumerate() {
        let Some(i) = name[1..].parse::<usize>().ok() else {
            continue;
        };
        let load = &mut nodes[idx].attrs.output_load;
        match (&name[..1], i % 5) {
            ("o", 0) => *load = 0.0,
            ("o", 1) => *load = -0.0,
            ("a", 2) => *load = 3.25,
            ("d", 3) => {
                *load = 2.5;
                fanout[idx].push(sink);
                fanin[sink.index()].push(NodeId::new(idx));
            }
            _ => {}
        }
    }
    CircuitGraph::from_serialized_parts(
        nodes,
        &names,
        fanin,
        fanout,
        *built.technology(),
        built.num_drivers(),
        built.num_components(),
    )
    .unwrap()
}

#[test]
fn sink_edge_loads_match_the_analyzer_bitwise() {
    let graph = decoded_loads(600);
    let node = |name: &str| graph.node_by_name(name).unwrap();
    let sink = graph.sink();
    // Every case is in the graph as described.
    assert!(graph.fanout(node("o0")).contains(&sink));
    assert_eq!(graph.output_load(node("o0")).to_bits(), 0);
    assert_eq!(graph.output_load(node("o1")).to_bits(), (-0.0f64).to_bits());
    assert_eq!(graph.output_load(node("a2")), 3.25);
    assert!(!graph.fanout(node("a2")).contains(&sink));
    assert!(graph.fanout(node("d3")).contains(&sink));
    assert_eq!(graph.output_load(node("d3")), 2.5);

    let analyzer = ElmoreAnalyzer::new(&graph);
    let coupling = CouplingSet::empty(&graph);
    let topo = CircuitTopology::new(&graph);
    assert!(
        (0..topo.num_levels()).any(|l| topo.level(l).len() > 512),
        "the grid must split a level across blocks"
    );
    for sizes in [graph.uniform_sizes(1.0), varied(&graph)] {
        let caps = analyzer.downstream_caps(&sizes, None);
        let delays = analyzer.delays(&sizes, None);
        // One block: each kernel called once over the whole partition.
        let mut ws = EvalWorkspace::new(&topo);
        one_block_timing(&topo, &sizes, &mut ws);
        assert_eq!(bits(&ws.charged), bits(&caps.charged));
        assert_eq!(bits(&ws.presented), bits(&caps.presented));
        assert_eq!(bits(&ws.delays), bits(&delays));
        // The level grid, split across two workers.
        let mut engine = SizingEngine::new(&graph, &coupling);
        engine.set_parallel(ParallelPolicy::threads(2));
        let grid_delays = engine.timing(&sizes).delays.to_vec();
        assert_eq!(bits(&grid_delays), bits(&delays));
        assert_eq!(bits(&engine.workspace().charged), bits(&caps.charged));
        assert_eq!(bits(&engine.workspace().presented), bits(&caps.presented));
    }

    // The exact LRS solve, whose sweeps rebuild the tables at every
    // iterate, stays pinned to the reference on this graph.
    let bounds = ConstraintBounds {
        delay: 1e15,
        total_capacitance: 1e15,
        crosstalk: 1e15,
    };
    let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
    let multipliers = Multipliers::uniform(&graph, 0.05, 0.0);
    let naive = reference::lrs_solve(&problem, &multipliers, 30, 1e-9);
    let mut engine = SizingEngine::for_problem(&problem);
    engine.set_parallel(ParallelPolicy::threads(2));
    let mut sizes = graph.minimum_sizes();
    LrsSolver::new(30, 1e-9).solve_constrained(
        &mut engine,
        &ConstraintSet::new(),
        &multipliers,
        &mut sizes,
        &RunControl::new(),
    );
    assert_eq!(bits(sizes.as_slice()), bits(naive.sizes.as_slice()));
}

/// Asserts that the critical path and the arrivals at `sizes` equal
/// `TimingAnalysis::run`'s, for the topology in one block and for the
/// engine's grid at `threads(1)` and `threads(2)`; returns the reference.
fn assert_path_matches(
    graph: &CircuitGraph,
    coupling: &CouplingSet,
    sizes: &SizeVector,
) -> TimingAnalysis {
    let extra = coupling.delay_load_per_node(graph, sizes);
    let reference = TimingAnalysis::run(graph, sizes, Some(&extra));
    let topo = CircuitTopology::new(graph);
    let mut ws = EvalWorkspace::new(&topo);
    ws.extra_cap.copy_from_slice(&extra);
    let delay = one_block_timing(&topo, sizes, &mut ws);
    assert_eq!(delay.to_bits(), reference.critical_path_delay.to_bits());
    assert_eq!(ws.critical_path, reference.critical_path);
    for policy in [ParallelPolicy::threads(1), ParallelPolicy::threads(2)] {
        let mut engine = SizingEngine::new(graph, coupling);
        engine.set_parallel(policy);
        let view = engine.timing(sizes);
        assert_eq!(bits(view.arrival), bits(&reference.arrival.values));
        assert_eq!(
            view.critical_path_delay.to_bits(),
            reference.critical_path_delay.to_bits()
        );
        assert_eq!(view.critical_path, reference.critical_path.as_slice());
    }
    reference
}

#[test]
fn critical_path_from_arrivals_matches_timing_analysis_on_random_instances() {
    for (seed, gates) in [(1, 40), (7, 120), (23, 300), (91, 700)] {
        let inst = SyntheticGenerator::new(
            CircuitSpec::new(format!("path-{seed}"), gates, gates * 2 + 5)
                .with_seed(seed)
                .with_num_patterns(8),
        )
        .generate()
        .unwrap();
        let coupling = build_coupling(&inst, OrderingStrategy::Woss, false)
            .unwrap()
            .coupling;
        let graph = &inst.circuit;
        for sizes in [graph.uniform_sizes(1.0), varied(graph)] {
            let reference = assert_path_matches(graph, &coupling, &sizes);
            assert!(reference.critical_path.len() >= 2, "seed {seed}");
        }
    }
}

/// `width` identical copies of: a driver → two equal wires → a NAND of
/// both → a wire → output. At uniform sizes every copy's arrivals are
/// equal, so both fanins of each NAND tie, and so do all of the sink's.
fn symmetric(width: usize) -> CircuitGraph {
    let mut b = CircuitBuilder::new(Technology::dac99());
    for i in 0..width {
        let d = b.add_driver(&format!("d{i}"), 100.0).unwrap();
        let g = b.add_gate(&format!("g{i}"), GateKind::Nand).unwrap();
        for side in ["a", "b"] {
            let w = b.add_wire(&format!("{side}{i}"), 150.0).unwrap();
            b.connect(d, w).unwrap();
            b.connect(w, g).unwrap();
        }
        let o = b.add_wire(&format!("o{i}"), 120.0).unwrap();
        b.connect(g, o).unwrap();
        b.connect_output(o, 5.0).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn critical_path_from_arrivals_keeps_the_tie_break_of_timing_analysis() {
    let graph = symmetric(300);
    let sizes = graph.uniform_sizes(1.0);
    let reference = assert_path_matches(&graph, &CouplingSet::empty(&graph), &sizes);
    let arrival = &reference.arrival.values;
    // The ties are exact: every input of the sink, and both inputs of the
    // path's gate, arrive at the same time.
    let sink_fanin = graph.fanin(graph.sink());
    assert_eq!(sink_fanin.len(), 300);
    assert!(sink_fanin
        .iter()
        .all(|j| arrival[j.index()] == reference.critical_path_delay));
    let path = &reference.critical_path;
    let gate = path[2];
    let inputs = graph.fanin(gate);
    assert_eq!(arrival[inputs[0].index()], arrival[inputs[1].index()]);
    // `>=` keeps the last of the tied fanins in list order.
    assert_eq!(path[path.len() - 1], *sink_fanin.last().unwrap());
    assert_eq!(path[1], inputs[1]);
}

/// A generated circuit decoded from parts in which three fanins of sizable
/// nodes carry attributes their parameters do not give: a driver an area
/// coefficient, a gate and a wire a unit resistance of their own. Returns
/// the decoded graph, the graph as generated and the three nodes.
fn fanin_overrides() -> (CircuitGraph, CircuitGraph, [NodeId; 3]) {
    let built = SyntheticGenerator::new(CircuitSpec::new("fanin-overrides", 60, 140).with_seed(11))
        .generate()
        .unwrap()
        .circuit;
    let feeds = |id: NodeId, is: fn(&Node) -> bool| {
        built.fanout(id).iter().any(|&child| is(&built.node(child)))
    };
    let driver = built.driver_ids().next().unwrap();
    let gate = built
        .gate_ids()
        .find(|&g| feeds(g, |n| n.kind.is_wire()))
        .unwrap();
    let wire = built
        .wire_ids()
        .find(|&w| feeds(w, |n| n.kind.is_gate()))
        .unwrap();
    assert!(feeds(driver, |n| n.kind.is_wire()));
    let mut nodes: Vec<Node> = built.node_ids().map(|id| built.node(id)).collect();
    nodes[driver.index()].attrs.area_coefficient = 1.5;
    nodes[gate.index()].attrs.unit_resistance = 12.5;
    nodes[wire.index()].attrs.unit_resistance *= 1.5;
    let names: Vec<&str> = built.node_ids().map(|id| built.name(id)).collect();
    let lists = |list: fn(&CircuitGraph, NodeId) -> &[NodeId]| {
        built
            .node_ids()
            .map(|id| list(&built, id).to_vec())
            .collect()
    };
    let decoded = CircuitGraph::from_serialized_parts(
        nodes,
        &names,
        lists(CircuitGraph::fanin),
        lists(CircuitGraph::fanout),
        *built.technology(),
        built.num_drivers(),
        built.num_components(),
    )
    .unwrap();
    (decoded, built, [driver, gate, wire])
}

#[test]
fn forward_kernels_derive_overridden_fanin_resistances_as_the_reference_does() {
    let (graph, built, overridden) = fanin_overrides();
    assert_eq!(graph.attributes().num_overrides(), 3);
    let topo = CircuitTopology::new(&graph);
    let analyzer = ElmoreAnalyzer::new(&graph);
    let n = graph.num_nodes();
    let weights: Vec<f64> = (0..n).map(|i| 0.25 + (i % 9) as f64 / 8.0).collect();
    for sizes in [graph.uniform_sizes(1.0), varied(&graph)] {
        let expected = analyzer.weighted_upstream_resistance(&sizes, &weights);
        // The gate's and the wire's own resistances reach their fanouts.
        let generated = ElmoreAnalyzer::new(&built).weighted_upstream_resistance(&sizes, &weights);
        for id in &overridden[1..] {
            let child = graph.fanout(*id)[0].index();
            assert_ne!(expected[child].to_bits(), generated[child].to_bits());
        }

        let mut ws = EvalWorkspace::new(&topo);
        topo.upstream_resistance_chunk(
            0..n,
            sizes.as_slice(),
            &weights,
            Tile::whole(&mut ws.upstream),
        );
        assert_eq!(bits(&ws.upstream), bits(&expected));

        // The fused pass resizes each component the moment its upstream
        // resistance is known, so its table is the analyzer's at the sizes
        // it leaves, and each size what `resize` makes of that table.
        let resize = |_: usize, _: usize, upstream: f64, x: f64| 0.75 * x + 1e-3 * upstream;
        let mut xs = sizes.clone();
        let mut upstream = vec![0.0; n];
        topo.fused_upstream_chunk(
            0..n,
            Tile::whole(xs.as_mut_slice()),
            &weights,
            Tile::whole(&mut upstream),
            &mut { resize },
        );
        let settled = analyzer.weighted_upstream_resistance(&xs, &weights);
        assert_eq!(bits(&upstream), bits(&settled));
        for (comp, id) in graph.component_ids().enumerate() {
            let x = resize(comp, id.index(), settled[id.index()], sizes[comp]);
            assert_eq!(xs[comp].to_bits(), x.to_bits(), "{id}");
        }
    }

    // The exact LRS solve, whose sweeps rebuild the upstream table at every
    // iterate, is the reference's at one thread and at two.
    let coupling = CouplingSet::empty(&graph);
    let bounds = ConstraintBounds {
        delay: 1e15,
        total_capacitance: 1e15,
        crosstalk: 1e15,
    };
    let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
    let multipliers = Multipliers::uniform(&graph, 0.05, 0.0);
    let naive = reference::lrs_solve(&problem, &multipliers, 30, 1e-9);
    for policy in [ParallelPolicy::threads(1), ParallelPolicy::threads(2)] {
        let mut engine = SizingEngine::for_problem(&problem);
        engine.set_parallel(policy);
        let mut sizes = graph.minimum_sizes();
        LrsSolver::new(30, 1e-9).solve_constrained(
            &mut engine,
            &ConstraintSet::new(),
            &multipliers,
            &mut sizes,
            &RunControl::new(),
        );
        assert_eq!(
            bits(sizes.as_slice()),
            bits(naive.sizes.as_slice()),
            "{policy:?}"
        );
    }
}
