//! TILOS-style greedy sensitivity sizing (independent cross-check baseline).

use ncgws_circuit::{CircuitGraph, SizeVector};
use ncgws_coupling::CouplingSet;
use serde::Serialize;

use crate::engine::SizingEngine;

/// Result of the greedy sizer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GreedyOutcome {
    /// The sizing found.
    pub sizes: SizeVector,
    /// Critical-path delay of that sizing (internal units, with coupling load).
    pub delay: f64,
    /// Whether the delay bound was met.
    pub feasible: bool,
    /// Number of upsizing moves performed.
    pub moves: usize,
}

/// Greedy delay-bounded sizing: start at the minimum sizes and repeatedly
/// upsize the critical-path component with the best delay-reduction per area
/// increase until the bound is met, no move helps, or `max_moves` is reached.
///
/// The coupling set contributes load (and therefore delay) but is not
/// constrained — like most industrial TILOS descendants, the heuristic is
/// noise-oblivious. Compared to the Lagrangian engine it needs a full timing
/// evaluation per candidate move, so it is polynomially slower; the ablation
/// bench quantifies that.
pub fn greedy_delay_sizing(
    graph: &CircuitGraph,
    coupling: &CouplingSet,
    delay_bound: f64,
    max_moves: usize,
) -> GreedyOutcome {
    let upsize_factor = 1.3_f64;
    let mut engine = SizingEngine::new(graph, coupling);
    let mut sizes = graph.minimum_sizes();
    let mut moves = 0usize;

    // Reused buffers: candidate sizing and the current critical path (copied
    // out of the engine workspace so trial evaluations can overwrite it).
    let mut trial = graph.minimum_sizes();
    let mut critical_path = Vec::with_capacity(graph.num_nodes());

    let mut delay = {
        let view = engine.timing(&sizes);
        critical_path.clear();
        critical_path.extend_from_slice(view.critical_path);
        view.critical_path_delay
    };

    while delay > delay_bound && moves < max_moves {
        let mut best: Option<(f64, usize, f64)> = None; // (score, dense index, new size)
        for &node in &critical_path {
            let Some(dense) = graph.component_index(node) else {
                continue;
            };
            let (upper, area_coefficient) = (
                graph.size_bounds(node).1,
                graph.attributes().get(node.index()).area_coefficient,
            );
            let current = sizes[dense];
            if current >= upper - 1e-12 {
                continue;
            }
            let candidate = (current * upsize_factor).min(upper);
            trial.copy_from(&sizes);
            trial[dense] = candidate;
            let trial_delay = engine.timing(&trial).critical_path_delay;
            let delay_gain = delay - trial_delay;
            if delay_gain <= 0.0 {
                continue;
            }
            let area_cost = area_coefficient * (candidate - current);
            let score = delay_gain / area_cost.max(1e-12);
            if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
                best = Some((score, dense, candidate));
            }
        }
        match best {
            Some((_, dense, candidate)) => {
                sizes[dense] = candidate;
                moves += 1;
                let view = engine.timing(&sizes);
                delay = view.critical_path_delay;
                critical_path.clear();
                critical_path.extend_from_slice(view.critical_path);
            }
            None => break,
        }
    }

    GreedyOutcome {
        sizes,
        delay,
        feasible: delay <= delay_bound,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_circuit::{CircuitBuilder, GateKind, Technology};

    fn chain() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 150.0).unwrap();
        let w1 = b.add_wire("w1", 300.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 300.0).unwrap();
        let g2 = b.add_gate("g2", GateKind::Buf).unwrap();
        let w3 = b.add_wire("w3", 200.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(g1, w2).unwrap();
        b.connect(w2, g2).unwrap();
        b.connect(g2, w3).unwrap();
        b.connect_output(w3, 10.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn meets_an_achievable_bound() {
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        // Delay at minimum sizes is the starting point; ask for 30% better.
        let start = greedy_delay_sizing(&graph, &coupling, f64::MAX, 0).delay;
        let target = start * 0.7;
        let outcome = greedy_delay_sizing(&graph, &coupling, target, 500);
        assert!(
            outcome.feasible,
            "delay {} vs target {target}",
            outcome.delay
        );
        assert!(outcome.moves > 0);
        assert!(graph.check_sizes(&outcome.sizes).is_ok());
    }

    #[test]
    fn zero_moves_when_already_feasible() {
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        let outcome = greedy_delay_sizing(&graph, &coupling, f64::MAX, 100);
        assert!(outcome.feasible);
        assert_eq!(outcome.moves, 0);
        // Everything stays at the lower bound.
        for (x, id) in outcome.sizes.iter().zip(graph.component_ids()) {
            assert!((x - graph.node(id).attrs.lower_bound).abs() < 1e-12);
        }
    }

    #[test]
    fn gives_up_gracefully_on_unachievable_bounds() {
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        let outcome = greedy_delay_sizing(&graph, &coupling, 1e-6, 200);
        assert!(!outcome.feasible);
        // It must terminate (either by exhausting moves or running out of
        // helpful upsizes) without panicking.
        assert!(outcome.moves <= 200);
    }

    #[test]
    fn respects_move_budget() {
        let graph = chain();
        let coupling = CouplingSet::empty(&graph);
        let start = greedy_delay_sizing(&graph, &coupling, f64::MAX, 0).delay;
        let outcome = greedy_delay_sizing(&graph, &coupling, start * 0.1, 3);
        assert!(outcome.moves <= 3);
    }
}
