//! Stage 1 of the two-stage flow: switching-aware wire ordering and
//! construction of the coupling model.
//!
//! Given a [`ProblemInstance`], this module
//!
//! 1. logic-simulates the circuit over the instance's input patterns,
//! 2. computes the switching-similarity matrix of every routing channel,
//! 3. orders the wires of each channel (WOSS by default),
//! 4. assigns the ordered wires to adjacent tracks at the channel pitch and
//!    builds one [`CouplingPair`] per adjacent pair — optionally carrying the
//!    Miller/anti-Miller switching factor,
//! 5. assembles the [`CouplingSet`] the sizing stage consumes.

use ncgws_circuit::NodeId;
use ncgws_coupling::{CouplingPair, CouplingSet, WirePairGeometry};
use ncgws_netlist::ProblemInstance;
use ncgws_ordering::{baselines, exact_ordering, woss, SsProblem, WireOrdering};
use ncgws_waveform::{miller_factor, LogicSimulator, SimilarityMatrix, SimulationTrace};
use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// Which algorithm orders the wires of each channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderingStrategy {
    /// The paper's WOSS heuristic (Figure 7).
    Woss,
    /// Keep the wires in netlist order (similarity-oblivious router).
    Identity,
    /// A reproducible random order.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Nearest-neighbor greedy tried from every start (ablation upper bound
    /// for greedy approaches).
    BestStartNearestNeighbor,
    /// Exact Held–Karp ordering; falls back to WOSS for channels larger than
    /// the exact solver's limit.
    Exact,
}

/// The result of stage 1: per-channel orderings, their total effective
/// loading, and the assembled coupling set, whose
/// [`neighborhoods`](CouplingSet::neighborhoods) answer the paper's `N(i)`
/// and `I(i)`.
#[derive(Debug, Clone)]
pub struct WireOrderingOutcome {
    /// One ordering per routing channel.
    pub orderings: Vec<WireOrdering>,
    /// Sum of the orderings' effective loading `Σ (1 − similarity)` over
    /// adjacent pairs — the objective of the SS problem.
    pub total_effective_loading: f64,
    /// The coupling set induced by the orderings.
    pub coupling: CouplingSet,
}

fn solve_channel(problem: &SsProblem, strategy: OrderingStrategy) -> WireOrdering {
    match strategy {
        OrderingStrategy::Woss => woss(problem),
        OrderingStrategy::Identity => baselines::identity_ordering(problem),
        OrderingStrategy::Random { seed } => baselines::random_ordering(problem, seed),
        OrderingStrategy::BestStartNearestNeighbor => {
            baselines::best_start_nearest_neighbor(problem)
        }
        OrderingStrategy::Exact => exact_ordering(problem).unwrap_or_else(|_| woss(problem)),
    }
}

/// Runs stage 1 on a problem instance.
///
/// When `effective_coupling` is `true`, every coupling pair carries the
/// Miller factor `1 − similarity` so the sizing stage constrains *effective*
/// crosstalk; otherwise the factor is neutral (`1`) and the constraint is the
/// purely physical coupling, as in the paper's second stage.
///
/// # Errors
///
/// Returns a [`CoreError::Coupling`] if the induced coupling pairs are
/// geometrically invalid (e.g. the channel pitch cannot accommodate the
/// maximum wire widths).
pub fn build_coupling(
    instance: &ProblemInstance,
    strategy: OrderingStrategy,
    effective_coupling: bool,
) -> Result<WireOrderingOutcome, CoreError> {
    let graph = &instance.circuit;
    let simulator = LogicSimulator::new(graph);
    let trace = simulator.simulate(&instance.patterns);

    // Per-channel ordering is embarrassingly parallel: each channel only
    // reads the shared trace. With the `parallel` feature the channels are
    // fanned out across OS threads; results come back in channel order
    // either way, so the assembled coupling set is identical.
    let solved = order_channels(instance, &trace, strategy, effective_coupling);

    let mut orderings = Vec::with_capacity(solved.len());
    // One pair per adjacent position: reserving the exact count up front
    // spares the growth copies, and the coupling set keeps the buffer as is.
    let num_pairs = solved
        .iter()
        .map(|(_, ordering)| ordering.sequence().len().saturating_sub(1))
        .sum();
    let mut pairs: Vec<CouplingPair> = Vec::with_capacity(num_pairs);
    let mut total_effective_loading = 0.0;

    for (similarity, ordering) in solved {
        total_effective_loading += ordering.cost();

        // Adjacent tracks couple; build one pair per adjacent position.
        for pair in ordering.sequence().windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let len_a = instance.wire_length(a);
            let len_b = instance.wire_length(b);
            let overlap = instance.geometry.overlap_length(len_a, len_b).max(1e-3);
            let geometry = WirePairGeometry::new(
                overlap,
                instance.geometry.pitch,
                instance.geometry.unit_fringing,
            )?;
            let mut coupling_pair = CouplingPair::new(a, b, geometry)?;
            if effective_coupling {
                let similarity = similarity
                    .as_ref()
                    .expect("similarity matrices are retained in effective mode")
                    .by_id(a, b)
                    .expect("both wires belong to the channel's similarity matrix");
                coupling_pair = coupling_pair.with_switching_factor(miller_factor(similarity));
            }
            pairs.push(coupling_pair);
        }
        orderings.push(ordering);
    }

    let coupling = CouplingSet::new(graph, pairs)?;
    Ok(WireOrderingOutcome {
        orderings,
        total_effective_loading,
        coupling,
    })
}

/// Solves the SS problem of one channel. The `O(k²)` similarity matrix is
/// returned only when the caller needs it afterwards (effective-coupling
/// mode); otherwise it is dropped here so peak memory stays at one channel's
/// matrix rather than the sum over all channels.
fn order_one(
    trace: &SimulationTrace,
    channel: &[NodeId],
    strategy: OrderingStrategy,
    keep_similarity: bool,
) -> (Option<SimilarityMatrix>, WireOrdering) {
    let similarity = SimilarityMatrix::from_trace(trace, channel);
    let problem = SsProblem::from_similarity(&similarity);
    let ordering = solve_channel(&problem, strategy);
    (keep_similarity.then_some(similarity), ordering)
}

/// Orders every non-empty channel, returning results in channel order.
#[cfg(not(feature = "parallel"))]
fn order_channels(
    instance: &ProblemInstance,
    trace: &SimulationTrace,
    strategy: OrderingStrategy,
    keep_similarity: bool,
) -> Vec<(Option<SimilarityMatrix>, WireOrdering)> {
    instance
        .channels
        .iter()
        .filter(|channel| !channel.is_empty())
        .map(|channel| order_one(trace, channel, strategy, keep_similarity))
        .collect()
}

/// Orders every non-empty channel, fanning the work out across OS threads
/// (`std::thread::scope`; a stand-in for a rayon pool while the build
/// environment cannot fetch crates). Results are reassembled in channel
/// order, so the output is bit-identical to the serial path.
#[cfg(feature = "parallel")]
fn order_channels(
    instance: &ProblemInstance,
    trace: &SimulationTrace,
    strategy: OrderingStrategy,
    keep_similarity: bool,
) -> Vec<(Option<SimilarityMatrix>, WireOrdering)> {
    let channels: Vec<&[NodeId]> = instance
        .channels
        .iter()
        .filter(|channel| !channel.is_empty())
        .map(Vec::as_slice)
        .collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = workers.min(channels.len()).max(1);
    if workers <= 1 {
        return channels
            .iter()
            .map(|channel| order_one(trace, channel, strategy, keep_similarity))
            .collect();
    }

    let mut slots: Vec<Option<(Option<SimilarityMatrix>, WireOrdering)>> = Vec::new();
    slots.resize_with(channels.len(), || None);
    let chunk = channels.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (channel_chunk, slot_chunk) in channels.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (channel, slot) in channel_chunk.iter().zip(slot_chunk.iter_mut()) {
                    *slot = Some(order_one(trace, channel, strategy, keep_similarity));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every channel was ordered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_netlist::{CircuitSpec, SyntheticGenerator};

    fn instance() -> ProblemInstance {
        SyntheticGenerator::new(
            CircuitSpec::new("cb", 40, 90)
                .with_seed(21)
                .with_channel_size(6),
        )
        .generate()
        .unwrap()
    }

    #[test]
    fn builds_one_pair_per_adjacent_track() {
        let inst = instance();
        let outcome = build_coupling(&inst, OrderingStrategy::Woss, false).unwrap();
        let neighborhoods = outcome.coupling.neighborhoods();
        let expected_pairs: usize = inst
            .channels
            .iter()
            .map(|c| c.len().saturating_sub(1))
            .sum();
        assert_eq!(outcome.coupling.len(), expected_pairs);
        // The set holds 32 B per pair, 8 B per node and its struct.
        assert_eq!(
            outcome.coupling.memory_bytes(),
            32 * expected_pairs + 8 * inst.circuit.num_nodes() + std::mem::size_of::<CouplingSet>()
        );
        assert_eq!(
            outcome.orderings.len(),
            inst.channels.iter().filter(|c| !c.is_empty()).count()
        );
        // `I(i)` counts every adjacent pair exactly once.
        let dominating: usize = inst
            .circuit
            .node_ids()
            .map(|id| neighborhoods.dominating(id).count())
            .sum();
        assert_eq!(dominating, expected_pairs);
    }

    #[test]
    fn paper_example_neighborhoods() {
        // `N(i)` of each wire is its predecessor and successor on the
        // tracks, as for the track assignment <5, 7, 4, 8> of the paper's
        // Figure 6: N(5) = {7}, N(7) = {5, 4}, N(4) = {7, 8}, N(8) = {4}.
        let inst = instance();
        let outcome = build_coupling(&inst, OrderingStrategy::Woss, false).unwrap();
        let neighborhoods = outcome.coupling.neighborhoods();
        for ordering in &outcome.orderings {
            let seq = ordering.sequence();
            for (k, &wire) in seq.iter().enumerate() {
                let mut expected: Vec<NodeId> = [k.checked_sub(1), Some(k + 1)]
                    .into_iter()
                    .flatten()
                    .filter_map(|j| seq.get(j).copied())
                    .collect();
                expected.sort_unstable();
                let neighbors: Vec<NodeId> =
                    neighborhoods.neighbors(wire).map(|(o, _)| o).collect();
                let mut sorted = neighbors.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, expected);
                // `I(i)` keeps the neighbors with a larger node index.
                let larger: Vec<NodeId> = neighbors.into_iter().filter(|&o| o > wire).collect();
                let dominating: Vec<NodeId> =
                    neighborhoods.dominating(wire).map(|(o, _)| o).collect();
                assert_eq!(dominating, larger);
            }
        }
    }

    #[test]
    fn channels_do_not_mix() {
        let inst = instance();
        let outcome = build_coupling(&inst, OrderingStrategy::Woss, false).unwrap();
        let neighborhoods = outcome.coupling.neighborhoods();
        for channel in inst.channels.iter() {
            for &wire in channel {
                for (other, _) in neighborhoods.neighbors(wire) {
                    assert!(channel.contains(&other), "{wire} couples across channels");
                }
            }
        }
    }

    #[test]
    fn single_wire_channel_has_no_pairs() {
        let mut inst = instance();
        let lonely = inst.channels[0].pop().unwrap();
        inst.channels.push(vec![lonely]);
        let outcome = build_coupling(&inst, OrderingStrategy::Woss, false).unwrap();
        let neighborhoods = outcome.coupling.neighborhoods();
        assert_eq!(neighborhoods.degree(lonely), 0);
        assert_eq!(neighborhoods.neighbors(lonely).count(), 0);
        assert_eq!(outcome.coupling.linear_coefficient_sum(lonely), 0.0);
    }

    #[test]
    fn woss_never_exceeds_identity_loading() {
        let inst = instance();
        let woss_outcome = build_coupling(&inst, OrderingStrategy::Woss, false).unwrap();
        let identity_outcome = build_coupling(&inst, OrderingStrategy::Identity, false).unwrap();
        // WOSS explicitly minimizes the effective loading; identity ignores it.
        assert!(
            woss_outcome.total_effective_loading <= identity_outcome.total_effective_loading + 1e-9
        );
    }

    #[test]
    fn orderings_permute_their_channels() {
        let inst = instance();
        let outcome = build_coupling(&inst, OrderingStrategy::Woss, false).unwrap();
        for (ordering, channel) in outcome.orderings.iter().zip(&inst.channels) {
            let mut expected: Vec<NodeId> = channel.clone();
            let mut actual: Vec<NodeId> = ordering.sequence().to_vec();
            expected.sort_unstable();
            actual.sort_unstable();
            assert_eq!(expected, actual);
        }
    }

    #[test]
    fn effective_mode_sets_switching_factors() {
        let inst = instance();
        let physical = build_coupling(&inst, OrderingStrategy::Woss, false).unwrap();
        assert!(physical
            .coupling
            .pairs()
            .iter()
            .all(|p| (p.switching_factor - 1.0).abs() < 1e-12));
        let effective = build_coupling(&inst, OrderingStrategy::Woss, true).unwrap();
        assert!(effective
            .coupling
            .pairs()
            .iter()
            .all(|p| (0.0..=2.0).contains(&p.switching_factor)));
        // At least one pair should deviate from the neutral factor.
        assert!(effective
            .coupling
            .pairs()
            .iter()
            .any(|p| (p.switching_factor - 1.0).abs() > 1e-6));
    }

    #[test]
    fn strategies_are_deterministic() {
        let inst = instance();
        for strategy in [
            OrderingStrategy::Woss,
            OrderingStrategy::Identity,
            OrderingStrategy::Random { seed: 5 },
            OrderingStrategy::BestStartNearestNeighbor,
            OrderingStrategy::Exact,
        ] {
            let a = build_coupling(&inst, strategy, false).unwrap();
            let b = build_coupling(&inst, strategy, false).unwrap();
            assert_eq!(
                a.total_effective_loading, b.total_effective_loading,
                "{strategy:?}"
            );
            assert_eq!(a.coupling.len(), b.coupling.len());
        }
    }
}
