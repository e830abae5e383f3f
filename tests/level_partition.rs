//! The level partition of `CircuitTopology`: contiguous ranges of raw node
//! indices, cut by one forward scan (a node with a fanin inside the current
//! range starts the next range).
//!
//! * On every netlist the builder produces, the ranges are exactly the
//!   longest-path levels (the builder's FIFO Kahn order is level-sorted).
//! * On a graph decoded in a topological order that is *not* level-sorted,
//!   the ranges differ from the longest-path levels but still hold no edge,
//!   and the exact solve strategy stays bitwise pinned to
//!   `ncgws_core::reference` at every worker count.

use ncgws::circuit::{
    CircuitBuilder, CircuitGraph, CircuitTopology, GateKind, NodeId, Technology, TimingAnalysis,
};
use ncgws::core::{
    reference, ConstraintBounds, ConstraintSet, LrsSolver, Multipliers, OgwsSolver,
    OptimizerConfig, ParallelPolicy, RunControl, SizingEngine, SizingProblem,
};
use ncgws::coupling::{CouplingPair, CouplingSet, WirePairGeometry};
use ncgws::netlist::{table1_specs, xl_spec, xl_wide_spec, SyntheticGenerator};

/// Longest-path level of every node (`1 + max` over the fanin, the source
/// at level 0).
fn longest_path_levels(topo: &CircuitTopology<'_>) -> Vec<usize> {
    let mut level = vec![0usize; topo.num_nodes()];
    for idx in 0..topo.num_nodes() {
        for &pred in topo.fanin(idx) {
            level[idx] = level[idx].max(level[pred.index()] + 1);
        }
    }
    level
}

/// The partition covers `0..n` in order with non-empty ranges, and no
/// range contains an edge.
fn assert_partition_invariant(topo: &CircuitTopology<'_>, what: &str) {
    let mut next = 0;
    for l in 0..topo.num_levels() {
        let range = topo.level(l);
        assert_eq!(range.start, next, "{what}: level {l} is not contiguous");
        assert!(!range.is_empty(), "{what}: level {l} is empty");
        for idx in range.clone() {
            for &pred in topo.fanin(idx) {
                assert!(
                    pred.index() < range.start,
                    "{what}: edge {pred} -> {idx} inside level {l}"
                );
            }
        }
        next = range.end;
    }
    assert_eq!(next, topo.num_nodes(), "{what}: the levels must cover 0..n");
}

#[test]
fn builder_netlists_partition_into_their_longest_path_levels() {
    let specs = table1_specs()
        .into_iter()
        .chain([xl_spec(10_000), xl_wide_spec(10_000)]);
    for spec in specs {
        let name = spec.name.clone();
        let inst = SyntheticGenerator::new(spec)
            .generate()
            .expect("generation succeeds");
        let topo = CircuitTopology::new(&inst.circuit);
        assert_partition_invariant(&topo, &name);
        let longest = longest_path_levels(&topo);
        for l in 0..topo.num_levels() {
            for idx in topo.level(l) {
                assert_eq!(longest[idx], l, "{name}: node {idx}");
            }
        }
    }
}

/// Shallow paths, one per driver after the first: driver → wire → gate →
/// wire → output.
const SHALLOW: usize = 300;
/// Gates on the deep chain hanging off the first driver.
const DEEP: usize = 12;

/// A deep chain and `SHALLOW` shallow paths, built in the builder's
/// level-sorted order.
fn deep_and_shallow() -> CircuitGraph {
    let mut b = CircuitBuilder::new(Technology::dac99());
    let drivers: Vec<_> = (0..=SHALLOW)
        .map(|i| b.add_driver(&format!("d{i}"), 90.0 + i as f64).unwrap())
        .collect();
    let mut tail = drivers[0];
    for k in 0..DEEP {
        let w = b.add_wire(&format!("cw{k}"), 80.0 + k as f64).unwrap();
        let g = b.add_gate(&format!("cg{k}"), GateKind::Inv).unwrap();
        b.connect(tail, w).unwrap();
        b.connect(w, g).unwrap();
        tail = g;
    }
    let out = b.add_wire("cout", 120.0).unwrap();
    b.connect(tail, out).unwrap();
    b.connect_output(out, 5.0).unwrap();
    for (i, &d) in drivers.iter().enumerate().skip(1) {
        let w = b
            .add_wire(&format!("sw{i}"), 100.0 + (i % 11) as f64)
            .unwrap();
        let g = b.add_gate(&format!("sg{i}"), GateKind::Inv).unwrap();
        let o = b.add_wire(&format!("so{i}"), 60.0).unwrap();
        b.connect(d, w).unwrap();
        b.connect(w, g).unwrap();
        b.connect(g, o).unwrap();
        b.connect_output(o, 3.0).unwrap();
    }
    b.build().unwrap()
}

/// Re-encodes `graph` with its components reordered: the deep chain first,
/// then every shallow input wire, every shallow gate, every shallow output
/// wire — a topological order that is not level-sorted — and decodes it
/// through `CircuitGraph::from_serialized_parts` (the serde path).
fn chain_first(graph: &CircuitGraph) -> CircuitGraph {
    let rank = |id: NodeId| {
        let group = match &graph.name(id)[..2] {
            "cw" | "cg" | "co" => 0,
            "sw" => 1,
            "sg" => 2,
            _ => 3,
        };
        (group, id.index())
    };
    let mut order: Vec<NodeId> = graph.component_ids().collect();
    order.sort_by_key(|&id| rank(id));
    let mut old_ids: Vec<NodeId> = vec![graph.source()];
    old_ids.extend(graph.driver_ids());
    old_ids.extend(order);
    old_ids.push(graph.sink());
    let mut new_of = vec![0usize; graph.num_nodes()];
    for (new, old) in old_ids.iter().enumerate() {
        new_of[old.index()] = new;
    }
    let remap = |list: &[NodeId]| {
        let mut ids: Vec<NodeId> = list
            .iter()
            .map(|id| NodeId::new(new_of[id.index()]))
            .collect();
        ids.sort();
        ids
    };
    let nodes: Vec<String> = old_ids
        .iter()
        .map(|&id| {
            let node = graph.node(id);
            format!(
                r#"{{"kind":{},"name":{},"attrs":{}}}"#,
                serde_json::to_string(&node.kind).unwrap(),
                serde_json::to_string(graph.name(id)).unwrap(),
                serde_json::to_string(&node.attrs).unwrap(),
            )
        })
        .collect();
    let fanin: Vec<_> = old_ids.iter().map(|&id| remap(graph.fanin(id))).collect();
    let fanout: Vec<_> = old_ids.iter().map(|&id| remap(graph.fanout(id))).collect();
    let json = format!(
        r#"{{"nodes":[{}],"fanin":{},"fanout":{},"tech":{},"num_drivers":{},"num_sizable":{}}}"#,
        nodes.join(","),
        serde_json::to_string(&fanin).unwrap(),
        serde_json::to_string(&fanout).unwrap(),
        serde_json::to_string(graph.technology()).unwrap(),
        graph.num_drivers(),
        graph.num_components(),
    );
    serde_json::from_str(&json).expect("a topological order decodes")
}

#[test]
fn exact_stays_pinned_to_the_reference_on_a_non_level_sorted_order() {
    let graph = chain_first(&deep_and_shallow());
    let topo = CircuitTopology::new(&graph);
    assert_partition_invariant(&topo, "chain-first");
    // The deep chain is stored before the shallow paths, so the order is
    // not level-sorted, and the shallow levels are wide enough for the grid
    // to split them across workers.
    let longest = longest_path_levels(&topo);
    assert!(
        longest.windows(2).any(|w| w[0] > w[1]),
        "the decoded order must not be level-sorted"
    );
    assert!((0..topo.num_levels()).any(|l| topo.level(l).len() > 256));

    let node = |name: String| graph.node_by_name(&name).unwrap();
    let geom = WirePairGeometry::new(150.0, 12.0, 0.03).unwrap();
    let pairs = (1..SHALLOW)
        .step_by(2)
        .map(|i| CouplingPair::new(node(format!("sw{i}")), node(format!("sw{}", i + 1)), geom))
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let coupling = CouplingSet::new(&graph, pairs).unwrap();
    let bounds = ConstraintBounds {
        delay: 1e15,
        total_capacitance: 1e15,
        crosstalk: 1e15,
    };
    let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
    let mut multipliers = Multipliers::uniform(&graph, 0.03, 0.0);
    multipliers.beta = 0.4;
    multipliers.gamma = 0.2;

    let naive = reference::lrs_solve(&problem, &multipliers, 40, 1e-7);
    let extra = coupling.delay_load_per_node(&graph, &naive.sizes);
    let timing = TimingAnalysis::run(&graph, &naive.sizes, Some(&extra));
    let mut first_run = None;
    for policy in [
        ParallelPolicy::Sequential,
        ParallelPolicy::threads(1),
        ParallelPolicy::threads(2),
        ParallelPolicy::threads(8),
    ] {
        let mut engine = SizingEngine::for_problem(&problem);
        engine.set_parallel(policy);
        let mut sizes = graph.minimum_sizes();
        let stats = LrsSolver::new(40, 1e-7).solve_constrained(
            &mut engine,
            &ConstraintSet::new(),
            &multipliers,
            &mut sizes,
            &RunControl::new(),
        );
        assert_eq!(sizes, naive.sizes, "{policy:?}: LRS sizes");
        assert_eq!(stats.sweeps, naive.sweeps, "{policy:?}: sweeps");
        assert_eq!(stats.converged, naive.converged, "{policy:?}: converged");
        let view = engine.timing(&sizes);
        assert_eq!(view.delays, timing.delays.as_slice(), "{policy:?}: delays");
        assert_eq!(view.arrival, timing.arrival.values.as_slice(), "{policy:?}");
        assert_eq!(view.critical_path_delay, timing.critical_path_delay);
        assert_eq!(view.critical_path, timing.critical_path.as_slice());

        // The whole exact OGWS loop, flow projection included, agrees
        // across worker counts.
        let config = OptimizerConfig {
            max_iterations: 12,
            parallel: policy,
            ..OptimizerConfig::default()
        };
        let run = OgwsSolver::new(config).solve(
            &problem,
            &mut SizingEngine::for_problem(&problem),
            None,
            &RunControl::new(),
        );
        match &first_run {
            None => first_run = Some(run),
            Some(first) => {
                assert_eq!(run.sizes, first.sizes, "{policy:?}: OGWS sizes");
                assert_eq!(run.best_gap, first.best_gap, "{policy:?}: gap");
                assert_eq!(run.iterations.len(), first.iterations.len());
            }
        }
    }
}
