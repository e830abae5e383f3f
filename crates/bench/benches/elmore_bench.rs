//! Engine-reuse vs allocate-per-call evaluation cost.
//!
//! Measures one LRS solve (a fixed number of `O(V + E + P)` sweeps) through
//! the two equivalent paths:
//!
//! * `naive` — the seed's allocate-per-call loop
//!   (`ncgws_core::reference::lrs_solve`): fresh `Vec`s for coupling loads,
//!   downstream caps and upstream resistances on every sweep;
//! * `engine` — `LrsSolver::solve_constrained` with an empty constraint set
//!   on a reused `SizingEngine`: zero heap allocation after setup.
//!
//! Both produce bitwise identical results (asserted below), so the timing
//! difference is purely the allocator + locality cost the engine removes.
//! Run with `cargo bench -p ncgws-bench --bench elmore_bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncgws_circuit::{CircuitBuilder, CircuitGraph, GateKind, NodeId, SizeVector, Technology};
use ncgws_core::{
    reference, ConstraintBounds, ConstraintSet, LrsSolver, Multipliers, RunControl, SizingEngine,
    SizingProblem,
};
use ncgws_coupling::{CouplingPair, CouplingSet, WirePairGeometry};

const SWEEPS: usize = 5;

/// A driver-fed wire/gate chain with `components` sizable components, plus
/// its wires in chain order.
fn chain(components: usize) -> (CircuitGraph, Vec<NodeId>) {
    let mut b = CircuitBuilder::new(Technology::dac99());
    let mut prev = b.add_driver("drv", 120.0).unwrap();
    let mut wires = Vec::new();
    for i in 0..components {
        let node = if i % 2 == 0 {
            let w = b
                .add_wire(&format!("w{i}"), 60.0 + (i % 7) as f64 * 25.0)
                .unwrap();
            wires.push(w);
            w
        } else {
            b.add_gate(&format!("g{i}"), GateKind::Inv).unwrap()
        };
        b.connect(prev, node).unwrap();
        prev = node;
    }
    // The chain must end in a wire driving the primary output.
    let last = if components.is_multiple_of(2) {
        let w = b.add_wire("w_out", 80.0).unwrap();
        b.connect(prev, w).unwrap();
        wires.push(w);
        w
    } else {
        prev
    };
    b.connect_output(last, 8.0).unwrap();
    let (graph, ids) = b.build_mapped().unwrap();
    let wires = wires.into_iter().map(|w| ids[w.index()]).collect();
    (graph, wires)
}

/// Coupling between consecutive wires of the chain.
fn coupling_for(graph: &CircuitGraph, wires: &[NodeId]) -> CouplingSet {
    let geom = WirePairGeometry::new(50.0, 21.0, 0.03).unwrap();
    let pairs = wires
        .windows(2)
        .map(|w| CouplingPair::new(w[0], w[1], geom).unwrap())
        .collect();
    CouplingSet::new(graph, pairs).unwrap()
}

fn lrs_sweep_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("lrs_solve_5_sweeps");
    for components in [100usize, 1_000, 10_000] {
        let (graph, wires) = chain(components);
        let coupling = coupling_for(&graph, &wires);
        let bounds = ConstraintBounds {
            delay: 1e15,
            total_capacitance: 1e15,
            crosstalk: 1e15,
        };
        let problem = SizingProblem::new(&graph, &coupling, bounds).unwrap();
        let multipliers = Multipliers::uniform(&graph, 1.0, 1.0);
        let solver = LrsSolver::new(SWEEPS, 0.0);
        let (empty, control) = (ConstraintSet::new(), RunControl::new());
        let mut engine = SizingEngine::for_problem(&problem);
        // The engine path, both checked and timed below.
        let mut engine_solve = |sizes: &mut SizeVector| {
            solver.solve_constrained(&mut engine, &empty, &multipliers, sizes, &control)
        };

        // Sanity: the two paths agree bitwise before we time them.
        let naive = reference::lrs_solve(&problem, &multipliers, SWEEPS, 0.0);
        let mut sizes = graph.minimum_sizes();
        engine_solve(&mut sizes);
        assert_eq!(
            naive.sizes, sizes,
            "paths diverged at {components} components"
        );

        group.bench_with_input(
            BenchmarkId::new("naive", components),
            &problem,
            |b, problem| b.iter(|| reference::lrs_solve(problem, &multipliers, SWEEPS, 0.0)),
        );
        group.bench_with_input(
            BenchmarkId::new("engine", components),
            &problem,
            |b, _problem| b.iter(|| engine_solve(&mut sizes)),
        );
    }
    group.finish();
}

criterion_group!(benches, lrs_sweep_cost);
criterion_main!(benches);
