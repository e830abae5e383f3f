//! The full set of coupling pairs of a circuit.

use serde::Serialize;

use ncgws_circuit::{CircuitGraph, NodeId, SizeVector};

use crate::capacitance::CouplingPair;
use crate::error::CouplingError;

/// All coupling capacitors of a circuit: the pairs, in the order they were
/// given, and the per-node coefficient sums of Theorem 5.
///
/// Every production pass (the sizing engine's coupling load, the crosstalk
/// aggregates) walks the pairs in index order, so the set holds no
/// per-node adjacency. The neighborhood `N(i)` (all wires adjacent to wire
/// `i`) and the dominating index `I(i)` (adjacent wires with a larger node
/// index, so that `Σ_{i∈W} Σ_{j∈I(i)}` counts every pair exactly once) are
/// built on demand by [`neighborhoods`](Self::neighborhoods).
#[derive(Debug, Clone, Serialize)]
pub struct CouplingSet {
    pairs: Vec<CouplingPair>,
    /// For each raw node index, the precomputed switching-weighted linear
    /// coefficient sum `Σ_{j∈N(i)} sf_ij · ĉ_ij` of Theorem 5. Pairs are
    /// immutable after construction, so this never goes stale in-process.
    /// Caveat: a hand-edited serialized form could desynchronize it from
    /// `pairs`; rebuild through [`CouplingSet::new`] rather than
    /// deserializing untrusted data (`CouplingSet` has no decoder).
    linear_sums: Vec<f64>,
}

impl CouplingSet {
    /// An empty coupling set for a circuit (no crosstalk).
    pub fn empty(graph: &CircuitGraph) -> Self {
        CouplingSet {
            pairs: Vec::new(),
            linear_sums: vec![0.0; graph.num_nodes()],
        }
    }

    /// Builds a coupling set, validating every pair against the circuit.
    /// The set keeps `pairs` (trimmed to its length) as its only copy.
    ///
    /// # Errors
    ///
    /// Returns an error if a pair references a non-wire node, duplicates
    /// another pair, carries a switching factor that is not finite or lies
    /// outside `[0, 2]`, or its pitch cannot accommodate the wires at their
    /// maximum widths (which would make the exact model diverge).
    pub fn new(graph: &CircuitGraph, mut pairs: Vec<CouplingPair>) -> Result<Self, CouplingError> {
        let mut seen = std::collections::HashSet::with_capacity(pairs.len());
        let kinds = graph.kinds();
        for pair in &pairs {
            for id in [pair.a, pair.b] {
                if !kinds.get(id.index()).is_some_and(|k| k.is_wire()) {
                    return Err(CouplingError::NotAWire(id));
                }
            }
            if !seen.insert((pair.a, pair.b)) {
                return Err(CouplingError::DuplicatePair(pair.a, pair.b));
            }
            let factor = pair.switching_factor;
            if !(factor.is_finite() && (0.0..=2.0).contains(&factor)) {
                return Err(CouplingError::InvalidSwitchingFactor {
                    a: pair.a,
                    b: pair.b,
                    value: factor,
                });
            }
            let max_a = graph.size_bounds(pair.a).1;
            let max_b = graph.size_bounds(pair.b).1;
            if (max_a + max_b) / 2.0 >= pair.distance() {
                return Err(CouplingError::PitchTooSmall {
                    a: pair.a,
                    b: pair.b,
                    distance: pair.distance(),
                });
            }
        }
        drop(seen);
        pairs.shrink_to_fit();
        // One pass in pair order adds to each node's sum in ascending pair
        // index, the order of its neighbor list, so the cached sums are
        // bitwise identical to a fresh walk of `N(i)`.
        let mut linear_sums = vec![0.0; graph.num_nodes()];
        for p in &pairs {
            let c = p.switching_factor * p.linear_coefficient();
            linear_sums[p.a.index()] += c;
            linear_sums[p.b.index()] += c;
        }
        Ok(CouplingSet { pairs, linear_sums })
    }

    /// Number of coupling pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` if there are no coupling pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// All pairs.
    pub fn pairs(&self) -> &[CouplingPair] {
        &self.pairs
    }

    /// Builds the neighbor lists `N(i)` of every node, in `O(V + P)` time
    /// and memory. Each caller that walks neighborhoods builds them once
    /// and drops them when done; the set itself keeps none.
    ///
    /// # Panics
    ///
    /// Panics if the pair list has more than `u32::MAX / 2` entries (the
    /// lists store 32-bit pair indices).
    pub fn neighborhoods(&self) -> Neighborhoods<'_> {
        Neighborhoods::new(&self.pairs, self.linear_sums.len())
    }

    /// Sum of the (switching-factor weighted) linear coefficients
    /// `Σ_{j∈N(i)} ĉ_ij` of wire `i` — the quantity appearing in Theorem 5's
    /// denominator. With the default neutral switching factors this is the
    /// purely physical sum.
    pub fn linear_coefficient_sum(&self, id: NodeId) -> f64 {
        self.linear_sums[id.index()]
    }

    /// The precomputed per-node linear coefficient sums, indexed by raw node
    /// index — the dense view the sizing engine reads directly.
    pub fn linear_coefficient_sums(&self) -> &[f64] {
        &self.linear_sums
    }

    /// Total crosstalk `X = Σ_{i∈W} Σ_{j∈I(i)} c_ij` using the linearized
    /// model (each pair counted once), weighted by the switching factor.
    pub fn total_crosstalk(&self, graph: &CircuitGraph, sizes: &SizeVector) -> f64 {
        self.pairs
            .iter()
            .map(|p| p.effective_crosstalk(graph.size_of(p.a, sizes), graph.size_of(p.b, sizes)))
            .sum()
    }

    /// Total *physical* coupling capacitance (switching factors ignored),
    /// using the exact model. This is the quantity the paper's noise column
    /// reports before/after sizing.
    pub fn total_physical_coupling(&self, graph: &CircuitGraph, sizes: &SizeVector) -> f64 {
        self.pairs
            .iter()
            .map(|p| p.exact_capacitance(graph.size_of(p.a, sizes), graph.size_of(p.b, sizes)))
            .sum()
    }

    /// The constant part of the linearized total crosstalk,
    /// `Σ_{i∈W} Σ_{j∈I(i)} ~c_ij`, used to convert the crosstalk bound `X_B`
    /// into the reduced bound `X' = X_B − Σ ~c_ij`.
    pub fn total_base_capacitance(&self) -> f64 {
        self.pairs
            .iter()
            .map(|p| p.switching_factor * p.base_capacitance())
            .sum()
    }

    /// The size-dependent part of the linearized total crosstalk,
    /// `Σ_{i∈W} Σ_{j∈I(i)} ĉ_ij (x_i + x_j)` — the left-hand side of the
    /// reduced crosstalk constraint.
    pub fn crosstalk_lhs(&self, graph: &CircuitGraph, sizes: &SizeVector) -> f64 {
        self.pairs
            .iter()
            .map(|p| {
                p.switching_factor
                    * p.linear_coefficient()
                    * (graph.size_of(p.a, sizes) + graph.size_of(p.b, sizes))
            })
            .sum()
    }

    /// Per-node coupling load (fF) to hand to the Elmore engine as extra
    /// downstream capacitance: wire `i` is loaded by
    /// `Σ_{j∈N(i)} sf_ij · (~c_ij + ĉ_ij (x_i + x_j))`, where the switching
    /// factor models the Miller / anti-Miller effect on delay.
    pub fn delay_load_per_node(&self, graph: &CircuitGraph, sizes: &SizeVector) -> Vec<f64> {
        let mut load = vec![0.0; graph.num_nodes()];
        self.delay_load_into(graph, sizes, &mut load);
        load
    }

    /// Fills `load` (one slot per raw node index) with the per-node coupling
    /// load, without allocating — the hot-loop variant of
    /// [`delay_load_per_node`](Self::delay_load_per_node). Runs in `O(P)`
    /// over the precomputed pair list.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `load` has the wrong length.
    pub fn delay_load_into(&self, graph: &CircuitGraph, sizes: &SizeVector, load: &mut [f64]) {
        debug_assert_eq!(load.len(), graph.num_nodes());
        load.fill(0.0);
        for p in &self.pairs {
            let c = p.switching_factor
                * p.linearized_capacitance(graph.size_of(p.a, sizes), graph.size_of(p.b, sizes));
            load[p.a.index()] += c;
            load[p.b.index()] += c;
        }
    }

    /// Sums `per_pair` over the pairs whose both endpoints lie in `members`
    /// — the single scan every `group_*` aggregate shares (one membership
    /// set, no intermediate index list).
    fn group_pair_sum(&self, members: &[NodeId], per_pair: impl Fn(&CouplingPair) -> f64) -> f64 {
        let set: std::collections::HashSet<NodeId> = members.iter().copied().collect();
        self.pairs
            .iter()
            .filter(|p| set.contains(&p.a) && set.contains(&p.b))
            .map(per_pair)
            .sum()
    }

    /// The size-independent part `Σ sf_ij · ~c_ij` of the linearized
    /// crosstalk restricted to pairs within `members` (the group analogue of
    /// [`total_base_capacitance`](Self::total_base_capacitance)).
    pub fn group_base_capacitance(&self, members: &[NodeId]) -> f64 {
        self.group_pair_sum(members, |p| p.switching_factor * p.base_capacitance())
    }

    /// Total linearized crosstalk of the pairs within `members`: the group
    /// base capacitance plus the size-dependent `Σ sf_ij · ĉ_ij · (x_i +
    /// x_j)` — the quantity a per-net cap bounds.
    pub fn group_crosstalk(
        &self,
        graph: &CircuitGraph,
        sizes: &SizeVector,
        members: &[NodeId],
    ) -> f64 {
        self.group_pair_sum(members, |p| {
            p.switching_factor
                * p.linearized_capacitance(graph.size_of(p.a, sizes), graph.size_of(p.b, sizes))
        })
    }

    /// An estimate (in bytes) of the memory held by the coupling data
    /// structures, used by the Figure 10(a) reproduction: the pairs and the
    /// cached per-node coefficient sums.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pairs.capacity() * size_of::<CouplingPair>()
            + self.linear_sums.capacity() * size_of::<f64>()
            + size_of::<Self>()
    }
}

/// The neighbor lists of a [`CouplingSet`], built on demand by
/// [`CouplingSet::neighborhoods`] in compressed sparse row form: the pairs
/// of node `i` are `pair_ids[pair_start[i]..pair_start[i + 1]]`, in
/// ascending pair index.
#[derive(Debug, Clone)]
pub struct Neighborhoods<'a> {
    pairs: &'a [CouplingPair],
    /// Per raw node index, the offset of its pair list in `pair_ids`, plus
    /// a trailing total.
    pair_start: Vec<u32>,
    /// The indices into `pairs` of every node's pairs, node by node.
    pair_ids: Vec<u32>,
}

impl<'a> Neighborhoods<'a> {
    /// One counting pass: the degrees fix every list's slot, and pairs are
    /// appended in ascending index.
    fn new(pairs: &'a [CouplingPair], num_nodes: usize) -> Self {
        assert!(
            2 * pairs.len() <= u32::MAX as usize,
            "coupling set too large for 32-bit neighbor lists"
        );
        let mut pair_start = vec![0u32; num_nodes + 1];
        for p in pairs {
            pair_start[p.a.index() + 1] += 1;
            pair_start[p.b.index() + 1] += 1;
        }
        for i in 0..num_nodes {
            pair_start[i + 1] += pair_start[i];
        }
        let mut next = pair_start[..num_nodes].to_vec();
        let mut pair_ids = vec![0u32; pair_start[num_nodes] as usize];
        for (idx, pair) in pairs.iter().enumerate() {
            for id in [pair.a, pair.b] {
                let slot = &mut next[id.index()];
                pair_ids[*slot as usize] = idx as u32;
                *slot += 1;
            }
        }
        Neighborhoods {
            pairs,
            pair_start,
            pair_ids,
        }
    }

    /// The indices into the set's pairs of the pairs node `id` belongs to,
    /// ascending; empty for an id beyond the circuit.
    fn pair_list(&self, id: NodeId) -> &[u32] {
        match self.pair_start.get(id.index()..).and_then(|s| s.get(..2)) {
            Some(&[start, end]) => &self.pair_ids[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Iterator over the neighborhood `N(i)` of a wire: `(other wire, pair)`,
    /// in ascending pair index. Empty for a node without pairs, including an
    /// id beyond the circuit.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, &'a CouplingPair)> + '_ {
        self.pair_list(id).iter().map(move |&pi| {
            let pair = &self.pairs[pi as usize];
            (pair.other(id).expect("pair contains id"), pair)
        })
    }

    /// The dominating index `I(i)`: neighbors of `i` with a larger node index.
    pub fn dominating(&self, id: NodeId) -> impl Iterator<Item = (NodeId, &'a CouplingPair)> + '_ {
        self.neighbors(id).filter(move |(other, _)| *other > id)
    }

    /// Number of neighbors of a wire (zero for an id beyond the circuit).
    pub fn degree(&self, id: NodeId) -> usize {
        self.pair_list(id).len()
    }

    /// Recomputes the linear coefficient sum by walking the neighbor list —
    /// the allocate-per-call reference path, and the oracle the set's
    /// cached [`CouplingSet::linear_coefficient_sum`] is validated against
    /// (same accumulation order from the same `+0.0`, so bitwise identical,
    /// also for a wire without neighbors: `Iterator::sum` would start from
    /// `-0.0`).
    pub fn linear_coefficient_sum_uncached(&self, id: NodeId) -> f64 {
        self.neighbors(id).fold(0.0, |acc, (_, p)| {
            acc + p.switching_factor * p.linear_coefficient()
        })
    }

    /// Indices (into the set's pairs) of the pairs whose **both** endpoints
    /// belong to `members`, ascending and each once, found through the
    /// members' own pair lists: the cost is the members' degrees, not a
    /// scan of every pair, so a loop over all channels stays linear in the
    /// pairs.
    fn group_pair_indices(&self, members: &[NodeId]) -> Vec<u32> {
        let set: std::collections::HashSet<NodeId> = members.iter().copied().collect();
        let mut ids: Vec<u32> = Vec::new();
        for &id in members {
            // Each in-group pair is taken from its `a` endpoint only.
            ids.extend(self.pair_list(id).iter().copied().filter(|&pi| {
                let pair = &self.pairs[pi as usize];
                pair.a == id && set.contains(&pair.b)
            }));
        }
        // Ascending pair index, and a member listed twice adds nothing.
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// [`CouplingSet::group_base_capacitance`] through the neighbor lists:
    /// the same terms summed in the same ascending pair order, so the same
    /// value bit for bit, at the cost of the members' degrees rather than
    /// of every pair — the form to use once per channel.
    pub fn group_base_capacitance(&self, members: &[NodeId]) -> f64 {
        self.group_pair_indices(members)
            .iter()
            .map(|&pi| {
                let pair = &self.pairs[pi as usize];
                pair.switching_factor * pair.base_capacitance()
            })
            .sum()
    }

    /// Per-member linear coefficients of the group-restricted crosstalk:
    /// for each wire `i` in `members`, `Σ_{j ∈ N(i) ∩ members} sf_ij · ĉ_ij`
    /// — the coefficient of `x_i` in
    /// `Σ_{pairs in group} sf_ij · ĉ_ij · (x_i + x_j)`. Members with no
    /// in-group neighbor are omitted. This is what a per-net (channel-local)
    /// crosstalk cap lowers into a linear posynomial constraint.
    pub fn group_linear_sums(&self, members: &[NodeId]) -> Vec<(NodeId, f64)> {
        let set: std::collections::HashSet<NodeId> = members.iter().copied().collect();
        members
            .iter()
            .filter_map(|&id| {
                let sum: f64 = self
                    .neighbors(id)
                    .filter(|(other, _)| set.contains(other))
                    .map(|(_, p)| p.switching_factor * p.linear_coefficient())
                    .sum();
                (sum > 0.0).then_some((id, sum))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacitance::WirePairGeometry;
    use ncgws_circuit::{CircuitBuilder, GateKind, Technology};

    /// d -> w1 -> g -> w2 -> out, plus a sibling wire w3 from a second driver.
    fn circuit() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let d2 = b.add_driver("d2", 100.0).unwrap();
        let w1 = b.add_wire("w1", 100.0).unwrap();
        let g = b.add_gate("g", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 100.0).unwrap();
        let w3 = b.add_wire("w3", 100.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(g, w2).unwrap();
        b.connect(d2, w3).unwrap();
        b.connect_output(w2, 5.0).unwrap();
        b.connect_output(w3, 5.0).unwrap();
        b.build().unwrap()
    }

    fn geom() -> WirePairGeometry {
        WirePairGeometry::new(80.0, 20.0, 0.03).unwrap()
    }

    fn wire(c: &CircuitGraph, name: &str) -> NodeId {
        c.node_by_name(name).unwrap()
    }

    #[test]
    fn build_and_query_neighbors() {
        let c = circuit();
        let (w1, w2, w3) = (wire(&c, "w1"), wire(&c, "w2"), wire(&c, "w3"));
        let pairs = vec![
            CouplingPair::new(w1, w2, geom()).unwrap(),
            CouplingPair::new(w2, w3, geom()).unwrap(),
        ];
        let coupling = CouplingSet::new(&c, pairs).unwrap();
        assert_eq!(coupling.len(), 2);
        let set = coupling.neighborhoods();
        assert_eq!(set.degree(w2), 2);
        assert_eq!(set.degree(w1), 1);
        assert_eq!(set.degree(w3), 1);
        let n2: Vec<NodeId> = set.neighbors(w2).map(|(o, _)| o).collect();
        assert!(n2.contains(&w1) && n2.contains(&w3));
        // I(i) counts each pair exactly once across the whole set.
        let total_dominating: usize = c.node_ids().map(|id| set.dominating(id).count()).sum();
        assert_eq!(total_dominating, 2);
    }

    #[test]
    fn neighbor_lists_follow_the_pair_index() {
        // A triangle listed out of node order: each list must follow the
        // pair indices, not the node indices.
        let c = circuit();
        let (w1, w2, w3) = (wire(&c, "w1"), wire(&c, "w2"), wire(&c, "w3"));
        let pairs = vec![
            CouplingPair::new(w2, w3, geom()).unwrap(),
            CouplingPair::new(w1, w2, geom()).unwrap(),
            CouplingPair::new(w1, w3, geom()).unwrap(),
        ];
        let coupling = CouplingSet::new(&c, pairs).unwrap();
        let set = coupling.neighborhoods();
        let listed = |id: NodeId| -> Vec<(NodeId, *const CouplingPair)> {
            set.neighbors(id).map(|(o, p)| (o, p as *const _)).collect()
        };
        let pair = |i: usize| &coupling.pairs()[i] as *const _;
        assert_eq!(listed(w1), vec![(w2, pair(1)), (w3, pair(2))]);
        assert_eq!(listed(w2), vec![(w3, pair(0)), (w1, pair(1))]);
        assert_eq!(listed(w3), vec![(w2, pair(0)), (w1, pair(2))]);
        for id in [w1, w2, w3] {
            // `I(i)` keeps the larger-index neighbors, in the same order.
            let larger: Vec<_> = listed(id).into_iter().filter(|&(o, _)| o > id).collect();
            let dominating: Vec<_> = set
                .dominating(id)
                .map(|(o, p)| (o, p as *const CouplingPair))
                .collect();
            assert_eq!(dominating, larger);
            assert_eq!(set.degree(id), 2);
        }
        assert_eq!(set.degree(c.node_by_name("g").unwrap()), 0);
    }

    #[test]
    fn ids_beyond_the_circuit_have_no_neighbors() {
        let c = circuit();
        let (w1, w2) = (wire(&c, "w1"), wire(&c, "w2"));
        let set = CouplingSet::new(&c, vec![CouplingPair::new(w1, w2, geom()).unwrap()]).unwrap();
        for coupling in [set, CouplingSet::empty(&c)] {
            let set = coupling.neighborhoods();
            for beyond in [c.num_nodes(), c.num_nodes() + 7, u32::MAX as usize] {
                let id = NodeId::new(beyond);
                assert_eq!(set.neighbors(id).count(), 0);
                assert_eq!(set.dominating(id).count(), 0);
                assert_eq!(set.degree(id), 0);
            }
        }
    }

    #[test]
    fn rejects_bad_pairs() {
        let c = circuit();
        let g = wire(&c, "w1");
        let gate = c.node_by_name("g").unwrap();
        let bad = vec![CouplingPair::new(g, gate, geom()).unwrap()];
        assert!(matches!(
            CouplingSet::new(&c, bad),
            Err(CouplingError::NotAWire(_))
        ));

        let (w1, w2) = (wire(&c, "w1"), wire(&c, "w2"));
        let dup = vec![
            CouplingPair::new(w1, w2, geom()).unwrap(),
            CouplingPair::new(w2, w1, geom()).unwrap(),
        ];
        assert!(matches!(
            CouplingSet::new(&c, dup),
            Err(CouplingError::DuplicatePair(_, _))
        ));

        let tight = WirePairGeometry::new(80.0, 5.0, 0.03).unwrap();
        let colliding = vec![CouplingPair::new(w1, w2, tight).unwrap()];
        assert!(matches!(
            CouplingSet::new(&c, colliding),
            Err(CouplingError::PitchTooSmall { .. })
        ));

        // `with_switching_factor` clamps, but the field is public and a NaN
        // survives the clamp: the set checks every factor itself.
        for factor in [f64::NAN, -1.0, 3.0, f64::INFINITY] {
            let mut pair = CouplingPair::new(w1, w2, geom()).unwrap();
            pair.switching_factor = factor;
            match CouplingSet::new(&c, vec![pair]) {
                Err(CouplingError::InvalidSwitchingFactor { a, b, value }) => {
                    assert_eq!((a, b), (w1.min(w2), w1.max(w2)));
                    assert_eq!(value.to_bits(), factor.to_bits());
                }
                other => panic!("factor {factor} must be rejected, got {other:?}"),
            }
        }
        for factor in [0.0, 1.0, 2.0] {
            let pair = CouplingPair::new(w1, w2, geom())
                .unwrap()
                .with_switching_factor(factor);
            assert!(CouplingSet::new(&c, vec![pair]).is_ok());
        }
    }

    #[test]
    fn totals_are_consistent() {
        let c = circuit();
        let (w1, w2, w3) = (wire(&c, "w1"), wire(&c, "w2"), wire(&c, "w3"));
        let set = CouplingSet::new(
            &c,
            vec![
                CouplingPair::new(w1, w2, geom()).unwrap(),
                CouplingPair::new(w2, w3, geom()).unwrap(),
            ],
        )
        .unwrap();
        let sizes = c.uniform_sizes(1.0);
        let total = set.total_crosstalk(&c, &sizes);
        let parts = set.total_base_capacitance() + set.crosstalk_lhs(&c, &sizes);
        assert!((total - parts).abs() < 1e-12);
        // Linearized underestimates exact slightly.
        assert!(total <= set.total_physical_coupling(&c, &sizes) + 1e-12);
    }

    #[test]
    fn crosstalk_decreases_with_smaller_wires() {
        let c = circuit();
        let (w1, w2) = (wire(&c, "w1"), wire(&c, "w2"));
        let set = CouplingSet::new(&c, vec![CouplingPair::new(w1, w2, geom()).unwrap()]).unwrap();
        let big = set.total_crosstalk(&c, &c.uniform_sizes(5.0));
        let small = set.total_crosstalk(&c, &c.uniform_sizes(0.2));
        assert!(small < big);
    }

    #[test]
    fn delay_load_hits_both_wires() {
        let c = circuit();
        let (w1, w2) = (wire(&c, "w1"), wire(&c, "w2"));
        let set = CouplingSet::new(&c, vec![CouplingPair::new(w1, w2, geom()).unwrap()]).unwrap();
        let sizes = c.uniform_sizes(1.0);
        let load = set.delay_load_per_node(&c, &sizes);
        assert!(load[w1.index()] > 0.0);
        assert!(load[w2.index()] > 0.0);
        assert_eq!(load[w1.index()], load[w2.index()]);
        assert_eq!(load[c.node_by_name("g").unwrap().index()], 0.0);
    }

    #[test]
    fn theorem5_helper_sums() {
        let c = circuit();
        let (w1, w2, w3) = (wire(&c, "w1"), wire(&c, "w2"), wire(&c, "w3"));
        let p12 = CouplingPair::new(w1, w2, geom()).unwrap();
        let p23 = CouplingPair::new(w2, w3, geom()).unwrap();
        let chat = p12.linear_coefficient();
        let set = CouplingSet::new(&c, vec![p12, p23]).unwrap();
        assert!((set.linear_coefficient_sum(w2) - 2.0 * chat).abs() < 1e-12);
        // The cached sums equal the neighbor-walk recomputation bitwise.
        let hoods = set.neighborhoods();
        for id in c.node_ids() {
            assert_eq!(
                set.linear_coefficient_sum(id),
                hoods.linear_coefficient_sum_uncached(id)
            );
        }
    }

    #[test]
    fn group_helpers_restrict_to_in_group_pairs() {
        let c = circuit();
        let (w1, w2, w3) = (wire(&c, "w1"), wire(&c, "w2"), wire(&c, "w3"));
        let set = CouplingSet::new(
            &c,
            vec![
                CouplingPair::new(w1, w2, geom()).unwrap(),
                CouplingPair::new(w2, w3, geom()).unwrap(),
            ],
        )
        .unwrap();
        let sizes = c.uniform_sizes(1.5);
        let hoods = set.neighborhoods();

        // The full wire set reproduces the global totals.
        let all = [w1, w2, w3];
        assert_eq!(hoods.group_pair_indices(&all), vec![0, 1]);
        assert!(
            (set.group_crosstalk(&c, &sizes, &all) - set.total_crosstalk(&c, &sizes)).abs() < 1e-12
        );
        assert!((set.group_base_capacitance(&all) - set.total_base_capacitance()).abs() < 1e-12);
        let group_lhs = set.group_crosstalk(&c, &sizes, &all) - set.group_base_capacitance(&all);
        assert!((group_lhs - set.crosstalk_lhs(&c, &sizes)).abs() < 1e-12);

        // A sub-group only sees its own pair; w2's coefficient drops to the
        // single in-group neighbor.
        let sub = [w1, w2];
        assert_eq!(hoods.group_pair_indices(&sub), vec![0]);
        let sums = hoods.group_linear_sums(&sub);
        assert_eq!(sums.len(), 2);
        let w2_sum = sums.iter().find(|(id, _)| *id == w2).unwrap().1;
        assert!((w2_sum - set.linear_coefficient_sum(w2) / 2.0).abs() < 1e-12);
        // group value = constant + Σ a_i x_i for the linearized group model.
        let by_terms: f64 = set.group_base_capacitance(&sub)
            + sums
                .iter()
                .map(|&(id, a)| a * c.size_of(id, &sizes))
                .sum::<f64>();
        assert!((by_terms - set.group_crosstalk(&c, &sizes, &sub)).abs() < 1e-9);

        // A group with no internal pair contributes nothing.
        let lonely = [w1, w3];
        assert!(hoods.group_pair_indices(&lonely).is_empty());
        assert_eq!(set.group_crosstalk(&c, &sizes, &lonely), 0.0);
        assert!(hoods.group_linear_sums(&lonely).is_empty());
    }

    #[test]
    fn empty_set_behaves() {
        let c = circuit();
        let set = CouplingSet::empty(&c);
        assert!(set.is_empty());
        let sizes = c.uniform_sizes(1.0);
        assert_eq!(set.total_crosstalk(&c, &sizes), 0.0);
        assert_eq!(set.delay_load_per_node(&c, &sizes).iter().sum::<f64>(), 0.0);
        assert!(set.memory_bytes() > 0);
    }

    #[test]
    fn memory_is_the_pairs_and_the_sums() {
        use std::mem::size_of;
        let c = circuit();
        let (w1, w2, w3) = (wire(&c, "w1"), wire(&c, "w2"), wire(&c, "w3"));
        // Spare capacity is trimmed: the set holds 32 B per pair, 8 B per
        // node and its own struct.
        let mut pairs = Vec::with_capacity(16);
        pairs.push(CouplingPair::new(w1, w2, geom()).unwrap());
        pairs.push(CouplingPair::new(w2, w3, geom()).unwrap());
        let set = CouplingSet::new(&c, pairs).unwrap();
        assert_eq!(
            set.memory_bytes(),
            2 * 32 + c.num_nodes() * 8 + size_of::<CouplingSet>()
        );
    }
}
