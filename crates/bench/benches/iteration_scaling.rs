//! Figure 10(b) micro-view: the cost of ONE OGWS building block (an LRS
//! sweep bundle, i.e. one call of the LRS subroutine) as a function of the
//! circuit size. The paper's claim is linear time per iteration, so the
//! time per component (`thrpt`, ns per element) should be flat.
//!
//! Only the solve is timed: the engine is built and the size vector
//! allocated once per size, outside the timed closure, as in
//! `elmore_bench` (each solve restarts from the lower bounds itself).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ncgws_bench::{generate, paper_config};
use ncgws_core::{Flow, LrsSolver, Multipliers, RunControl, SizingEngine, SizingProblem};
use ncgws_netlist::CircuitSpec;

fn lrs_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("lrs_per_iteration");
    group.sample_size(20);
    for (gates, wires) in [(100, 220), (200, 440), (400, 880), (800, 1760)] {
        let spec = CircuitSpec::new(format!("scale-{gates}"), gates, wires).with_seed(29);
        let instance = generate(spec);
        let ordered = Flow::prepare(&instance, paper_config())
            .unwrap()
            .order()
            .unwrap();
        let graph = &instance.circuit;
        let coupling = &ordered.ordering().coupling;
        let problem = SizingProblem::new(graph, coupling, ordered.bounds()).unwrap();
        let multipliers = Multipliers::uniform(graph, 1.0, 1.0);
        let solver = LrsSolver::new(5, 1e-6);
        let control = RunControl::new();
        let mut engine = SizingEngine::for_problem(&problem);
        let mut sizes = graph.minimum_sizes();
        group.throughput(Throughput::Elements(graph.num_components() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(gates + wires),
            &problem,
            |b, p| {
                b.iter(|| {
                    solver.solve_constrained(
                        &mut engine,
                        &p.extras,
                        &multipliers,
                        &mut sizes,
                        &control,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, lrs_iteration);
criterion_main!(benches);
