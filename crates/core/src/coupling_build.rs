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
//!
//! Steps 2 and 3 are independent per channel, so they run in blocks of
//! channels on the solve's worker pool, as the configuration's
//! [`ParallelPolicy`](crate::ParallelPolicy) sets it. The caller sizes
//! every buffer first — the orderings' channel CSR and one scratch matrix
//! per block — and the blocks only write into their own pieces of them, so
//! the WOSS path allocates nothing off the calling thread. Steps 4 and 5
//! and every error stay on the caller, in channel order; where a block runs
//! never changes what it computes.

use std::ops::Range;

use ncgws_circuit::NodeId;
use ncgws_coupling::{CouplingPair, CouplingSet, WirePairGeometry};
use ncgws_netlist::{Channels, ProblemInstance};
use ncgws_ordering::{baselines, exact_ordering, path_cost, woss, woss_into, SsProblem};
use ncgws_waveform::{
    fill_similarities, miller_factor, LogicSimulator, SimilarityMatrix, SimulationTrace,
};
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::par::{flat_blocks, ParRuntime};

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

/// The result of stage 1: the track order of every routing channel, their
/// total effective loading, and the assembled coupling set, whose
/// [`neighborhoods`](CouplingSet::neighborhoods) answer the paper's `N(i)`
/// and `I(i)`.
///
/// The orderings are one channel CSR: channel `c` of the instance owns
/// `wires[offsets[c]..offsets[c + 1]]` and `costs[c]`, so the whole stage-1
/// result is three flat buffers, whatever the channel count. An empty
/// channel has an empty ordering of cost `0`.
#[derive(Debug, Clone)]
pub struct WireOrderingOutcome {
    offsets: Vec<u32>,
    wires: Vec<NodeId>,
    costs: Vec<f64>,
    /// Sum of the orderings' effective loading `Σ (1 − similarity)` over
    /// adjacent pairs — the objective of the SS problem.
    pub total_effective_loading: f64,
    /// The coupling set induced by the orderings.
    pub coupling: CouplingSet,
}

impl WireOrderingOutcome {
    /// Number of routing channels (the instance's, empty ones included).
    pub fn num_channels(&self) -> usize {
        self.costs.len()
    }

    /// The wires of channel `c` in track order.
    ///
    /// # Panics
    ///
    /// Panics if `c >= num_channels()`.
    pub fn channel(&self, c: usize) -> &[NodeId] {
        &self.wires[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Every channel's wires in track order, channel by channel.
    pub fn channels(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        (0..self.num_channels()).map(|c| self.channel(c))
    }

    /// The effective loading `Σ (1 − similarity)` of each channel's
    /// ordering, by channel.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }
}

/// Runs stage 1 on a problem instance, on the calling thread.
///
/// When `effective_coupling` is `true`, every coupling pair carries the
/// Miller factor `1 − similarity` so the sizing stage constrains *effective*
/// crosstalk; otherwise the factor is neutral (`1`) and the constraint is the
/// purely physical coupling, as in the paper's second stage.
/// [`Prepared::order`](crate::Prepared::order) runs the same computation on
/// the configuration's thread policy, with bitwise identical results.
///
/// # Errors
///
/// Returns a [`CoreError::Instance`] if the instance is inconsistent (see
/// [`ProblemInstance::validate`]), and a [`CoreError::Coupling`] if the
/// induced coupling pairs are geometrically invalid (e.g. the channel pitch
/// cannot accommodate the maximum wire widths).
pub fn build_coupling(
    instance: &ProblemInstance,
    strategy: OrderingStrategy,
    effective_coupling: bool,
) -> Result<WireOrderingOutcome, CoreError> {
    instance.validate()?;
    build_coupling_on(&ParRuntime::new(), instance, strategy, effective_coupling)
}

/// [`build_coupling`] with the per-channel work on `runtime`, for an
/// instance that passed [`ProblemInstance::validate`].
pub(crate) fn build_coupling_on(
    runtime: &ParRuntime,
    instance: &ProblemInstance,
    strategy: OrderingStrategy,
    effective_coupling: bool,
) -> Result<WireOrderingOutcome, CoreError> {
    let graph = &instance.circuit;
    let trace = LogicSimulator::new(graph).simulate(&instance.patterns);
    let (offsets, wires, costs) = order_channels(runtime, instance, &trace, strategy);

    // One pair per adjacent position: reserving the exact count up front
    // spares the growth copies, and the coupling set keeps the buffer as is.
    let num_pairs = instance
        .channels
        .iter()
        .map(|channel| channel.len().saturating_sub(1))
        .sum();
    let mut pairs: Vec<CouplingPair> = Vec::with_capacity(num_pairs);
    let mut total_effective_loading = 0.0;
    for (c, &cost) in costs.iter().enumerate() {
        total_effective_loading += cost;
        let ordered = &wires[offsets[c] as usize..offsets[c + 1] as usize];
        // Adjacent tracks couple; build one pair per adjacent position.
        for pair in ordered.windows(2) {
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
                // The same value the channel's similarity matrix held for
                // the pair (the similarity is symmetric), read again from
                // the trace rather than kept per channel.
                let similarity = trace.similarity(a, b);
                coupling_pair = coupling_pair.with_switching_factor(miller_factor(similarity));
            }
            pairs.push(coupling_pair);
        }
    }

    let coupling = CouplingSet::new(graph, pairs)?;
    Ok(WireOrderingOutcome {
        offsets,
        wires,
        costs,
        total_effective_loading,
        coupling,
    })
}

/// One block of stage 1: a run of consecutive channels and the pieces of
/// the caller's buffers it writes.
struct ChannelBlock<'a> {
    channels: Range<usize>,
    /// The block's channels' ordered wires, back to back.
    wires: &'a mut [NodeId],
    /// The block's channels' ordering costs.
    costs: &'a mut [f64],
    /// `k × k` similarities of the block's largest channel.
    similarities: &'a mut [f64],
    /// `k` placed flags and `k` positions.
    placed: &'a mut [bool],
    order: &'a mut [usize],
}

/// Orders every channel on `runtime`, returning the channel CSR
/// `(offsets, wires, costs)`. Every buffer is allocated here, before the
/// blocks run.
fn order_channels(
    runtime: &ParRuntime,
    instance: &ProblemInstance,
    trace: &SimulationTrace,
    strategy: OrderingStrategy,
) -> (Vec<u32>, Vec<NodeId>, Vec<f64>) {
    let channels = &instance.channels;
    // The orderings permute each channel in place, so they share the
    // instance's offsets.
    let offsets = channels.offsets().to_vec();
    let mut wires = vec![NodeId::new(0); channels.wires().len()];
    let mut costs = vec![0.0; channels.len()];

    // Each block's scratch fits its largest channel.
    let widest = |range: &Range<usize>| range.clone().map(|c| channels[c].len()).max();
    let (squares, lines) = flat_blocks(channels.len())
        .map(|range| widest(&range).unwrap_or(0))
        .fold((0, 0), |(squares, lines), k| (squares + k * k, lines + k));
    let mut similarities = vec![0.0; squares];
    let mut placed = vec![false; lines];
    let mut order = vec![0usize; lines];

    let mut rest = (
        wires.as_mut_slice(),
        costs.as_mut_slice(),
        similarities.as_mut_slice(),
        placed.as_mut_slice(),
        order.as_mut_slice(),
    );
    let blocks = flat_blocks(channels.len()).map(|range| {
        let k = widest(&range).unwrap_or(0);
        let span = (offsets[range.end] - offsets[range.start]) as usize;
        ChannelBlock {
            wires: split_front(&mut rest.0, span),
            costs: split_front(&mut rest.1, range.len()),
            similarities: split_front(&mut rest.2, k * k),
            placed: split_front(&mut rest.3, k),
            order: split_front(&mut rest.4, k),
            channels: range,
        }
    });
    runtime.run(blocks, |block| {
        order_block(block, channels, trace, strategy)
    });
    (offsets, wires, costs)
}

/// Orders the channels of one block: fills each channel's similarity
/// matrix, orders it, and writes its wires in track order and its cost.
/// Under WOSS it allocates nothing; the ablation strategies go through
/// [`order_baseline`], which does.
fn order_block(
    block: ChannelBlock<'_>,
    channels: &Channels,
    trace: &SimulationTrace,
    strategy: OrderingStrategy,
) {
    let ChannelBlock {
        channels: range,
        mut wires,
        costs,
        similarities,
        placed,
        order,
    } = block;
    for (c, cost) in range.zip(costs) {
        let channel = &channels[c];
        let k = channel.len();
        let out = split_front(&mut wires, k);
        let order = &mut order[..k];
        *cost = if strategy == OrderingStrategy::Woss {
            let similarities = &mut similarities[..k * k];
            fill_similarities(trace, channel, similarities);
            // The SS edge weight `1 − similarity`, as `SsProblem` holds it.
            let weight = |i: usize, j: usize| 1.0 - similarities[i * k + j];
            woss_into(weight, placed, order);
            path_cost(order, weight)
        } else {
            order_baseline(trace, channel, strategy, order)
        };
        for (slot, &position) in out.iter_mut().zip(order.iter()) {
            *slot = channel[position];
        }
    }
}

/// Splits the first `n` entries off `rest`, which keeps the others.
fn split_front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(n);
    *rest = back;
    front
}

/// Orders one channel with an ablation strategy through the allocating
/// [`SsProblem`] API, writing the positions into `order`; returns the cost.
fn order_baseline(
    trace: &SimulationTrace,
    channel: &[NodeId],
    strategy: OrderingStrategy,
    order: &mut [usize],
) -> f64 {
    let problem = SsProblem::from_similarity(&SimilarityMatrix::from_trace(trace, channel));
    let ordering = match strategy {
        OrderingStrategy::Woss => woss(&problem),
        OrderingStrategy::Identity => baselines::identity_ordering(&problem),
        OrderingStrategy::Random { seed } => baselines::random_ordering(&problem, seed),
        OrderingStrategy::BestStartNearestNeighbor => {
            baselines::best_start_nearest_neighbor(&problem)
        }
        OrderingStrategy::Exact => exact_ordering(&problem).unwrap_or_else(|_| woss(&problem)),
    };
    order.copy_from_slice(ordering.positions());
    ordering.cost()
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
        assert_eq!(outcome.num_channels(), inst.channels.len());
        assert_eq!(outcome.costs().len(), inst.channels.len());
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
        for seq in outcome.channels() {
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
        let (&lonely, rest) = inst.channels[0].split_last().unwrap();
        let mut channels: Channels = std::iter::once(rest)
            .chain(inst.channels.iter().skip(1))
            .collect();
        channels.push(&[lonely]);
        inst.channels = channels;
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
        for (ordered, channel) in outcome.channels().zip(inst.channels.iter()) {
            let mut expected: Vec<NodeId> = channel.to_vec();
            let mut actual: Vec<NodeId> = ordered.to_vec();
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
