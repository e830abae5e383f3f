//! Lagrange multipliers and evaluation of the Lagrangian / dual function.

use ncgws_circuit::{CircuitGraph, NodeId, SizeVector};
use serde::de::{Error, Fields, Value};
use serde::{Deserialize, Serialize};

use crate::constraints::ConstraintSet;
use crate::problem::SizingProblem;

/// The Lagrange multipliers of problem `PP`:
///
/// * one `λ_{ji}` per edge `(j, i)` of the circuit graph (delay constraints,
///   including the source→driver edges for `D_i ≤ a_i` and the
///   output→sink edges for `a_j ≤ A₀`);
/// * `β` for the power constraint;
/// * `γ` for the crosstalk constraint;
/// * one block `μ_f` per extra [`ScalarFamily`](crate::ScalarFamily)
///   of the problem's [`ConstraintSet`] (empty for the paper's original
///   three-bound formulation).
///
/// Edge multipliers are stored in one flat CSR-style array parallel to the
/// concatenation of every node's fanin list (`offsets[i]..offsets[i+1]` are
/// node `i`'s slots), so the per-iteration multiplier walks — node-weight
/// aggregation, subgradient bumps, flow projection — run over contiguous
/// memory instead of one heap allocation per node; extra blocks are stored
/// parallel to the constraint set's families.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Multipliers {
    /// Flat `λ` values: `values[offsets[i] + slot]` is `λ_{ji}` where
    /// `j = fanin(i)[slot]`.
    values: Vec<f64>,
    /// CSR offsets, one entry per node plus a trailing total.
    offsets: Vec<u32>,
    /// Power-constraint multiplier `β ≥ 0`.
    pub beta: f64,
    /// Crosstalk-constraint multiplier `γ ≥ 0`.
    pub gamma: f64,
    /// Extra-family multiplier blocks `μ_f ≥ 0`, parallel to the problem's
    /// [`ConstraintSet::families`]. Empty when no extra families exist.
    extra: Vec<Vec<f64>>,
}

/// Decodes through [`Multipliers::from_parts`], which checks the CSR shape.
impl Deserialize for Multipliers {
    fn deserialize_json(value: &Value) -> Result<Self, Error> {
        let f = Fields::new(value, "Multipliers")?;
        Multipliers::from_parts(
            f.field("values")?,
            f.field("offsets")?,
            f.field("beta")?,
            f.field("gamma")?,
            f.field("extra")?,
        )
        .map_err(Error::custom)
    }
}

impl Multipliers {
    /// Creates multipliers with every edge multiplier set to `edge_value` and
    /// both scalar multipliers set to `scalar_value`; no extra blocks (the
    /// paper's formulation — attach blocks with
    /// [`attach_extras`](Self::attach_extras)).
    pub fn uniform(graph: &CircuitGraph, edge_value: f64, scalar_value: f64) -> Self {
        let offsets = graph.fanin_offsets().to_vec();
        let total = *offsets.last().expect("offsets are non-empty") as usize;
        Multipliers {
            values: vec![edge_value; total],
            offsets,
            beta: scalar_value,
            gamma: scalar_value,
            extra: Vec::new(),
        }
    }

    /// Rebuilds multipliers from their serialized parts (the snapshot
    /// decode path — see [`Snapshot`](crate::Snapshot)).
    ///
    /// # Errors
    ///
    /// Returns a reason when the CSR shape is inconsistent (non-monotone
    /// offsets, value length mismatch, missing leading zero).
    pub fn from_parts(
        values: Vec<f64>,
        offsets: Vec<u32>,
        beta: f64,
        gamma: f64,
        extra: Vec<Vec<f64>>,
    ) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("multiplier offsets must start at 0".into());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("multiplier offsets must be non-decreasing".into());
        }
        let total = *offsets.last().expect("offsets are non-empty") as usize;
        if values.len() != total {
            return Err(format!(
                "multiplier values cover {} slots but offsets expect {total}",
                values.len()
            ));
        }
        Ok(Multipliers {
            values,
            offsets,
            beta,
            gamma,
            extra,
        })
    }

    /// `true` when this multiplier set's CSR layout matches `graph`'s fanin
    /// structure (same node count and per-node fanin degrees).
    pub fn matches(&self, graph: &CircuitGraph) -> bool {
        self.offsets == graph.fanin_offsets()
    }

    /// The flat slot range of a node's fanin-edge multipliers.
    #[inline(always)]
    fn range(&self, node: NodeId) -> std::ops::Range<usize> {
        let i = node.index();
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Sizes one multiplier block per family of `extras`, every multiplier
    /// initialized to `value`. Replaces any existing blocks.
    pub fn attach_extras(&mut self, extras: &ConstraintSet, value: f64) {
        self.extra = extras
            .block_sizes()
            .into_iter()
            .map(|len| vec![value; len])
            .collect();
    }

    /// The extra-family multiplier blocks, parallel to the problem's
    /// constraint-set families (empty when none were attached).
    pub fn extra_blocks(&self) -> &[Vec<f64>] {
        &self.extra
    }

    /// Mutable access to the extra-family multiplier blocks.
    pub fn extra_blocks_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.extra
    }

    /// The multiplier `λ_{ji}` on the fanin edge `slot` of node `i`.
    pub fn edge(&self, node: NodeId, slot: usize) -> f64 {
        self.values[self.range(node)][slot]
    }

    /// Mutable access to the multiplier on the fanin edge `slot` of node `i`.
    pub fn edge_mut(&mut self, node: NodeId, slot: usize) -> &mut f64 {
        let range = self.range(node);
        &mut self.values[range][slot]
    }

    /// All fanin-edge multipliers of a node.
    pub fn edges_of(&self, node: NodeId) -> &[f64] {
        &self.values[self.range(node)]
    }

    /// The flat CSR view `(offsets, values)` of every edge multiplier — the
    /// hot-loop surface for the projection and subgradient walks.
    pub fn flat(&self) -> (&[u32], &[f64]) {
        (&self.offsets, &self.values)
    }

    /// Mutable flat values with the offsets (see [`flat`](Self::flat)).
    pub fn flat_mut(&mut self) -> (&[u32], &mut [f64]) {
        (&self.offsets, &mut self.values)
    }

    /// The node delay weight `λ_i = Σ_{j ∈ input(i)} λ_{ji}`.
    pub fn node_weight(&self, node: NodeId) -> f64 {
        self.values[self.range(node)].iter().sum()
    }

    /// The node delay weights for every node, indexed by raw node index.
    pub fn node_weights(&self, graph: &CircuitGraph) -> Vec<f64> {
        graph.node_ids().map(|id| self.node_weight(id)).collect()
    }

    /// Fills `out` (one slot per raw node index) with the node delay weights
    /// without allocating — the hot-loop variant of
    /// [`node_weights`](Self::node_weights).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `out` has the wrong length.
    pub fn node_weights_into(&self, graph: &CircuitGraph, out: &mut [f64]) {
        debug_assert_eq!(out.len(), graph.num_nodes());
        debug_assert_eq!(out.len() + 1, self.offsets.len());
        for (i, weight) in out.iter_mut().enumerate() {
            let range = self.offsets[i] as usize..self.offsets[i + 1] as usize;
            *weight = self.values[range].iter().sum();
        }
    }

    /// The sum of the multipliers on the sink's fanin edges,
    /// `Σ_{j∈input(m)} λ_{jm}` — the coefficient of the `−A₀` constant in the
    /// dual function.
    pub fn sink_weight(&self, graph: &CircuitGraph) -> f64 {
        self.node_weight(graph.sink())
    }

    /// Clamps every multiplier to be non-negative (condition (4) of
    /// Theorem 6).
    pub fn clamp_non_negative(&mut self) {
        for value in &mut self.values {
            if *value < 0.0 {
                *value = 0.0;
            }
        }
        if self.beta < 0.0 {
            self.beta = 0.0;
        }
        if self.gamma < 0.0 {
            self.gamma = 0.0;
        }
        for block in &mut self.extra {
            for value in block {
                if *value < 0.0 {
                    *value = 0.0;
                }
            }
        }
    }

    /// What [`memory_bytes`](Self::memory_bytes) reports for the
    /// multipliers of `graph` with one block per family of `extras`, sized
    /// exactly as [`uniform`](Self::uniform) and
    /// [`attach_extras`](Self::attach_extras) build them — without building
    /// them.
    pub fn memory_bytes_for(graph: &CircuitGraph, extras: &ConstraintSet) -> usize {
        use std::mem::size_of;
        let offsets = graph.fanin_offsets();
        let edges = offsets.last().map_or(0, |&total| total as usize);
        edges * size_of::<f64>()
            + std::mem::size_of_val(offsets)
            + extras
                .block_sizes()
                .into_iter()
                .map(|len| size_of::<Vec<f64>>() + len * size_of::<f64>())
                .sum::<usize>()
            + size_of::<Self>()
    }

    /// An estimate (in bytes) of the multiplier storage, used by the
    /// Figure 10(a) reproduction.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.values.capacity() * size_of::<f64>()
            + self.offsets.capacity() * size_of::<u32>()
            + self
                .extra
                .iter()
                .map(|v| size_of::<Vec<f64>>() + v.capacity() * size_of::<f64>())
                .sum::<usize>()
            + size_of::<Self>()
    }
}

/// Evaluates the dual function value at the given multipliers and the LRS
/// minimizer `sizes`:
///
/// ```text
/// D(λ, β, γ, μ) = Σ α_i x_i
///              + β (Σ c_i − P')
///              + γ (Σ ĉ_ij (x_i + x_j) − X')
///              + Σ_f Σ_k μ_{f,k} (g_{f,k}(x) − b_{f,k})
///              + Σ_i λ_i D_i
///              − A₀ · Σ_{j∈input(m)} λ_{jm}
/// ```
///
/// The `μ` sum ranges over the problem's extra
/// [`ConstraintSet`] families; with none attached it is exactly `0.0` and
/// the value is bitwise identical to the paper's three-bound dual.
///
/// The form assumes the flow-conservation condition of Theorem 3 holds (the
/// arrival-time terms then telescope away); the OGWS loop projects the
/// multipliers before every LRS call, so this is always the case when the
/// solver calls it.
pub fn dual_value(
    problem: &SizingProblem<'_>,
    multipliers: &Multipliers,
    sizes: &SizeVector,
    delays: &[f64],
) -> f64 {
    let graph = problem.graph;
    let area = problem.area(sizes);
    let cap = ncgws_circuit::total_capacitance(graph, sizes);
    let crosstalk_lhs = problem.coupling.crosstalk_lhs(graph, sizes);
    dual_value_from_parts(
        problem,
        multipliers,
        sizes,
        delays,
        area,
        cap,
        crosstalk_lhs,
    )
}

/// [`dual_value`] with the `O(V)`/`O(P)` aggregates (`area`, `cap`,
/// `crosstalk_lhs`) precomputed by the caller — the OGWS loop already has
/// them from its per-iteration constraint evaluation (through the engine's
/// dense tables), so recomputing them here would walk the pointer-rich
/// graph a second time. Bitwise identical to [`dual_value`] given
/// bitwise-equal aggregates.
pub fn dual_value_from_parts(
    problem: &SizingProblem<'_>,
    multipliers: &Multipliers,
    sizes: &SizeVector,
    delays: &[f64],
    area: f64,
    cap: f64,
    crosstalk_lhs: f64,
) -> f64 {
    let graph = problem.graph;
    let weighted_delay: f64 = graph
        .node_ids()
        .map(|id| multipliers.node_weight(id) * delays[id.index()])
        .sum();
    let extra = problem.extras.dual_term(multipliers.extra_blocks(), sizes);
    area + multipliers.beta * (cap - problem.bounds.total_capacitance)
        + multipliers.gamma * (crosstalk_lhs - problem.reduced_crosstalk_bound())
        + weighted_delay
        - problem.bounds.delay * multipliers.sink_weight(graph)
        + extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_circuit::{CircuitBuilder, GateKind, Technology};
    use ncgws_coupling::CouplingSet;

    fn graph() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d1 = b.add_driver("d1", 100.0).unwrap();
        let d2 = b.add_driver("d2", 100.0).unwrap();
        let w1 = b.add_wire("w1", 50.0).unwrap();
        let w2 = b.add_wire("w2", 60.0).unwrap();
        let g = b.add_gate("g", GateKind::Nand).unwrap();
        let w3 = b.add_wire("w3", 70.0).unwrap();
        b.connect(d1, w1).unwrap();
        b.connect(d2, w2).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(w2, g).unwrap();
        b.connect(g, w3).unwrap();
        b.connect_output(w3, 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn uniform_construction_and_weights() {
        let g = graph();
        let m = Multipliers::uniform(&g, 2.0, 0.5);
        assert_eq!(m.beta, 0.5);
        assert_eq!(m.gamma, 0.5);
        // The NAND gate has two fanin edges: λ_g = 4.
        let gate = g.node_by_name("g").unwrap();
        assert_eq!(m.node_weight(gate), 4.0);
        // A wire has one fanin edge.
        let w1 = g.node_by_name("w1").unwrap();
        assert_eq!(m.node_weight(w1), 2.0);
        // Node weights vector covers all nodes.
        assert_eq!(m.node_weights(&g).len(), g.num_nodes());
        assert!(m.memory_bytes() > 0);
    }

    #[test]
    fn clamp_removes_negative_values() {
        let g = graph();
        let mut m = Multipliers::uniform(&g, 1.0, 1.0);
        let w1 = g.node_by_name("w1").unwrap();
        *m.edge_mut(w1, 0) = -3.0;
        m.beta = -1.0;
        m.clamp_non_negative();
        assert_eq!(m.edge(w1, 0), 0.0);
        assert_eq!(m.beta, 0.0);
        assert_eq!(m.gamma, 1.0);
    }

    #[test]
    fn dual_value_reduces_to_area_when_multipliers_vanish() {
        let g = graph();
        let coupling = CouplingSet::empty(&g);
        let bounds = crate::problem::ConstraintBounds {
            delay: 1e9,
            total_capacitance: 1e9,
            crosstalk: 1e9,
        };
        let problem = SizingProblem::new(&g, &coupling, bounds).unwrap();
        let m = Multipliers::uniform(&g, 0.0, 0.0);
        let sizes = g.uniform_sizes(1.0);
        let delays = vec![0.0; g.num_nodes()];
        let d = dual_value(&problem, &m, &sizes, &delays);
        assert!((d - problem.area(&sizes)).abs() < 1e-9);
    }

    #[test]
    fn dual_value_penalizes_violations_and_rewards_slack() {
        let g = graph();
        let coupling = CouplingSet::empty(&g);
        let sizes = g.uniform_sizes(1.0);
        let cap = ncgws_circuit::total_capacitance(&g, &sizes);
        // Tight power bound (half the current capacitance): positive β term.
        let tight = crate::problem::ConstraintBounds {
            delay: 1e9,
            total_capacitance: cap / 2.0,
            crosstalk: 1e9,
        };
        let problem = SizingProblem::new(&g, &coupling, tight).unwrap();
        let mut m = Multipliers::uniform(&g, 0.0, 0.0);
        m.beta = 1.0;
        let delays = vec![0.0; g.num_nodes()];
        let d = dual_value(&problem, &m, &sizes, &delays);
        assert!(d > problem.area(&sizes));
        // Loose bound: negative β term.
        let loose = crate::problem::ConstraintBounds {
            delay: 1e9,
            total_capacitance: cap * 2.0,
            crosstalk: 1e9,
        };
        let problem = SizingProblem::new(&g, &coupling, loose).unwrap();
        let d = dual_value(&problem, &m, &sizes, &delays);
        assert!(d < problem.area(&sizes));
    }
}
