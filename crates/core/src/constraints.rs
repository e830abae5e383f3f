//! Composable posynomial constraint system.
//!
//! The paper's problem `PP` carries exactly three global bounds — delay
//! `A₀`, power `P'` and crosstalk `X'` — and its optimality story (Theorems
//! 1, 3 and 5) only needs every constraint to be *posynomial*. This module
//! generalizes the formulation so new workloads can add constraint families
//! without touching the solver:
//!
//! * [`ScalarConstraint`] — one linear posynomial constraint
//!   `g(x) = c₀ + Σ_k a_k · x_{i_k} ≤ b` over the dense component sizes
//!   (all coefficients non-negative, so the constraint penalizes growth);
//! * [`ScalarFamily`] — a named group of linear constraints sharing one
//!   multiplier block, the family every shipped scenario lowers into
//!   ([`ConstraintSpec::PerNetCrosstalk`], [`ConstraintSpec::DrivenLoad`]).
//!   It evaluates per-constraint values/violations for the OGWS subgradient
//!   step, accumulates its μ-weighted per-component coefficients into the
//!   engine's dense denominator table (so the Theorem 5 closed-form resize
//!   just reads one extra slice and stays allocation-free), and contributes
//!   its `Σ μ_k (g_k − b_k)` term to the dual value;
//! * [`ConstraintSet`] — the extra families attached to a
//!   [`SizingProblem`](crate::SizingProblem). The default (empty) set is the
//!   paper's original formulation: the three global bounds keep their exact
//!   legacy arithmetic, and with no extra families every added term is a
//!   bitwise no-op (`x + 0.0`), which the `property_eval_engine` suite pins.
//!
//! # Why linear families keep the closed form
//!
//! Theorem 5's resize is `x_i* = sqrt(numerator / denominator)` clamped to
//! the size bounds, where the numerator collects the `x_i⁻¹`-shaped delay
//! terms and the denominator the terms linear in `x_i` (area, `β`-weighted
//! capacitance, upstream-resistance load, `γ`-weighted coupling). A family
//! whose constraints are **linear in the sizes** adds `Σ μ_k a_{k,i}` to
//! component `i`'s denominator and nothing to the numerator, so the
//! relaxation stays separable and the same sweep converges to its unique
//! optimum. Families with `x_i⁻¹` terms would need a numerator hook;
//! nothing here requires it.
//!
//! # Adding a family
//!
//! 1. Describe it as a [`ConstraintSpec`] (configuration-level, serde,
//!    relative to the initial circuit) and extend
//!    [`lower_constraint_specs`] to lower it into a [`ScalarFamily`] —
//!    bounds in internal units ([`units`](crate::units)), coefficients per
//!    dense component index.
//! 2. That's all: multiplier initialization, the subgradient step,
//!    projection clamping, dual/KKT accounting, feasibility and the
//!    per-family slack report all iterate over the [`ConstraintSet`].

use std::fmt;

use ncgws_circuit::{CircuitGraph, NodeKind, SizeVector};
use ncgws_netlist::ProblemInstance;
use serde::{Deserialize, Serialize};

use crate::coupling_build::WireOrderingOutcome;
use crate::error::CoreError;

/// Safety margin applied when an unachievable bound is raised to the minimum
/// achievable value (matches `ConstraintBounds::clamped_to_feasible`).
const MARGIN: f64 = 1.0 + 1e-6;

/// One linear posynomial constraint `c₀ + Σ_k a_k · x_{i_k} ≤ b` over the
/// dense component sizes. Coefficients are non-negative, so the constraint
/// always penalizes size growth (the "load-type" shape Theorem 5's
/// denominator absorbs).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScalarConstraint {
    label: String,
    /// `(dense component index, coefficient)`, coefficients `> 0`.
    terms: Vec<(u32, f64)>,
    constant: f64,
    bound: f64,
}

impl ScalarConstraint {
    /// Creates a constraint. Terms with non-positive or non-finite
    /// coefficients are dropped (a zero coefficient contributes nothing and
    /// a negative one would break posynomiality).
    ///
    /// # Panics
    ///
    /// Panics when `constant` is negative or not finite (posynomial
    /// constants are non-negative; a negative one would also invert the
    /// direction of the feasibility clamp), or when `bound` is not finite
    /// (a NaN bound would make every feasibility comparison silently
    /// false).
    pub fn new(
        label: impl Into<String>,
        terms: impl IntoIterator<Item = (usize, f64)>,
        constant: f64,
        bound: f64,
    ) -> Self {
        assert!(
            constant.is_finite() && constant >= 0.0,
            "constraint constant must be finite and non-negative, got {constant}"
        );
        assert!(
            bound.is_finite(),
            "constraint bound must be finite, got {bound}"
        );
        ScalarConstraint {
            label: label.into(),
            terms: terms
                .into_iter()
                .filter(|&(_, a)| a.is_finite() && a > 0.0)
                .map(|(i, a)| (i as u32, a))
                .collect(),
            constant,
            bound,
        }
    }

    /// Human-readable label (channel name, node name, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The right-hand side `b`, in internal units.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// The size-independent part `c₀`.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// The `(dense component index, coefficient)` terms.
    pub fn terms(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.terms.iter().map(|&(i, a)| (i as usize, a))
    }

    /// Whether the constraint has any size-dependent term.
    pub fn is_vacuous(&self) -> bool {
        self.terms.is_empty()
    }

    /// `g(x) = c₀ + Σ a_k x_{i_k}` at `sizes`.
    pub fn value(&self, sizes: &SizeVector) -> f64 {
        let xs = sizes.as_slice();
        self.constant
            + self
                .terms
                .iter()
                .map(|&(i, a)| a * xs[i as usize])
                .sum::<f64>()
    }

    /// `g(x) − b`: positive when violated, negative slack when met.
    pub fn violation(&self, sizes: &SizeVector) -> f64 {
        self.value(sizes) - self.bound
    }

    /// The smallest achievable value, at the per-component lower bounds
    /// (coefficients are non-negative, so the minimum is at the box corner).
    pub fn min_value(&self, lower_bounds: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(i, a)| a * lower_bounds[i as usize])
                .sum::<f64>()
    }

    /// Raises the bound to the minimum achievable value (plus margin) when
    /// it is unachievable, mirroring `ConstraintBounds::clamped_to_feasible`.
    fn clamp_to_feasible(&mut self, lower_bounds: &[f64]) {
        let min = self.min_value(lower_bounds);
        if self.bound < min * MARGIN {
            self.bound = min * MARGIN;
        }
    }
}

/// Discriminates the shipped constraint families in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[non_exhaustive]
pub enum FamilyKind {
    /// Channel-local crosstalk caps (one constraint per routing channel).
    PerNetCrosstalk,
    /// Per-node caps on the directly driven component load.
    DrivenLoad,
    /// A caller-assembled family.
    Custom,
}

impl fmt::Display for FamilyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FamilyKind::PerNetCrosstalk => "per-net-crosstalk",
            FamilyKind::DrivenLoad => "driven-load",
            FamilyKind::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// A named group of [`ScalarConstraint`]s sharing one multiplier block —
/// the constraint family every shipped scenario lowers into. See the module
/// docs for the contract each method serves (multiplier block size, OGWS
/// slack evaluation, dense denominator aggregation, dual term).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScalarFamily {
    name: String,
    kind: FamilyKind,
    constraints: Vec<ScalarConstraint>,
}

impl ScalarFamily {
    /// Creates a family. Vacuous constraints (no size-dependent term) are
    /// dropped: their value is constant, so after feasibility clamping they
    /// could never bind and would only dilute the multiplier block.
    pub fn new(
        name: impl Into<String>,
        kind: FamilyKind,
        constraints: Vec<ScalarConstraint>,
    ) -> Self {
        ScalarFamily {
            name: name.into(),
            kind,
            constraints: constraints
                .into_iter()
                .filter(|c| !c.is_vacuous())
                .collect(),
        }
    }

    /// The constraints of the family.
    pub fn constraints(&self) -> &[ScalarConstraint] {
        &self.constraints
    }

    /// Family name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Family kind for reports.
    pub fn kind(&self) -> FamilyKind {
        self.kind
    }

    /// Number of constraints — the size of the family's multiplier block.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// `true` when the family carries no constraints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th constraint's bound, in internal units.
    pub fn bound(&self, k: usize) -> f64 {
        self.constraints[k].bound
    }

    /// The `k`-th constraint's left-hand side at `sizes`.
    pub fn value(&self, k: usize, sizes: &SizeVector) -> f64 {
        self.constraints[k].value(sizes)
    }

    /// The `k`-th constraint's violation `g_k(x) − b_k` at `sizes`.
    pub fn violation(&self, k: usize, sizes: &SizeVector) -> f64 {
        self.value(k, sizes) - self.bound(k)
    }

    /// Normalizes a raw violation of the `k`-th constraint by its bound —
    /// the **single** definition of "relative violation" the subgradient
    /// step, feasibility checks, KKT residuals and slack reports all share.
    pub fn relative_violation(&self, k: usize, violation: f64) -> f64 {
        violation / self.bound(k).abs().max(1e-12)
    }

    /// Adds `Σ_k μ_k · ∂g_k/∂x_i` to `denominator[i]` for every dense
    /// component index `i` — the family's contribution to the Theorem 5
    /// closed-form denominator. Must not allocate: this runs once per LRS
    /// solve inside the OGWS loop.
    pub fn accumulate_denominator(&self, multipliers: &[f64], denominator: &mut [f64]) {
        debug_assert_eq!(multipliers.len(), self.constraints.len());
        for (constraint, &mu) in self.constraints.iter().zip(multipliers) {
            if mu == 0.0 {
                continue;
            }
            for &(i, a) in &constraint.terms {
                denominator[i as usize] += mu * a;
            }
        }
    }

    /// The family's dual-value term `Σ_k μ_k (g_k(x) − b_k)`.
    pub fn dual_term(&self, multipliers: &[f64], sizes: &SizeVector) -> f64 {
        self.constraints
            .iter()
            .zip(multipliers)
            .map(|(constraint, &mu)| mu * constraint.violation(sizes))
            .sum()
    }
}

/// Per-family slack summary of a solution — the reporting view of the
/// constraint system (one entry per family in
/// [`OptimizationReport::constraint_slacks`](crate::OptimizationReport::constraint_slacks)).
#[derive(Debug, Clone, PartialEq, Serialize)]
#[non_exhaustive]
pub struct FamilySlack {
    /// Family name.
    pub family: String,
    /// Family kind.
    pub kind: FamilyKind,
    /// Number of constraints in the family.
    pub constraints: usize,
    /// Worst `g_k(x) − b_k` over the family (internal units; ≤ 0 when the
    /// family is met).
    pub worst_violation: f64,
    /// Worst violation relative to its bound.
    pub worst_relative_violation: f64,
    /// Label of the constraint attaining the worst violation.
    pub worst_label: String,
    /// Whether every constraint is within the feasibility tolerance.
    pub satisfied: bool,
}

/// The extra constraint families of a sizing problem, beyond the paper's
/// three global bounds. The default (empty) set reproduces the paper's
/// formulation exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ConstraintSet {
    families: Vec<ScalarFamily>,
}

impl ConstraintSet {
    /// An empty set: the paper's original three-bound formulation.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Adds a family.
    pub fn push(&mut self, family: ScalarFamily) {
        self.families.push(family);
    }

    /// The families, in insertion order (parallel to the multiplier blocks).
    pub fn families(&self) -> &[ScalarFamily] {
        &self.families
    }

    /// `true` when no extra families are attached.
    pub fn is_empty(&self) -> bool {
        self.families.iter().all(|f| f.is_empty())
    }

    /// Number of families (including empty ones, to keep multiplier blocks
    /// aligned).
    pub fn num_families(&self) -> usize {
        self.families.len()
    }

    /// Total number of constraints across all families.
    pub fn total_constraints(&self) -> usize {
        self.families.iter().map(ScalarFamily::len).sum()
    }

    /// The multiplier-block sizes, one per family.
    pub fn block_sizes(&self) -> Vec<usize> {
        self.families.iter().map(ScalarFamily::len).collect()
    }

    /// Accumulates every family's μ-weighted coefficients into the dense
    /// per-component `denominator` slice. `blocks` must be parallel to the
    /// families (as produced by
    /// [`Multipliers::attach_extras`](crate::Multipliers::attach_extras));
    /// missing blocks are treated as all-zero.
    pub fn accumulate_denominator(&self, blocks: &[Vec<f64>], denominator: &mut [f64]) {
        for (family, block) in self.families.iter().zip(blocks) {
            family.accumulate_denominator(block, denominator);
        }
    }

    /// `Σ_f Σ_k μ_{f,k} (g_{f,k}(x) − b_{f,k})` — the extra families' share
    /// of the dual value. Zero for an empty set.
    pub fn dual_term(&self, blocks: &[Vec<f64>], sizes: &SizeVector) -> f64 {
        self.families
            .iter()
            .zip(blocks)
            .map(|(family, block)| family.dual_term(block, sizes))
            .sum()
    }

    /// Writes every constraint's violation `g(x) − b` into `out`, flattened
    /// in family order (length [`total_constraints`](Self::total_constraints)).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `out` has the wrong length.
    pub fn violations_into(&self, sizes: &SizeVector, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.total_constraints());
        let mut offset = 0;
        for family in &self.families {
            for (k, slot) in out[offset..offset + family.len()].iter_mut().enumerate() {
                *slot = family.violation(k, sizes);
            }
            offset += family.len();
        }
    }

    /// The worst violation relative to its bound, over every constraint.
    /// `None` for an empty set.
    pub fn worst_relative_violation(&self, sizes: &SizeVector) -> Option<f64> {
        let mut worst: Option<f64> = None;
        for family in &self.families {
            for k in 0..family.len() {
                let rel = family.relative_violation(k, family.violation(k, sizes));
                worst = Some(worst.map_or(rel, |w: f64| w.max(rel)));
            }
        }
        worst
    }

    /// The worst relative violation over a precomputed flattened violation
    /// slice (as filled by [`violations_into`](Self::violations_into)) —
    /// the allocation-free variant the OGWS loop uses. `None` for an empty
    /// set.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `violations` has the wrong length.
    pub fn worst_relative_from(&self, violations: &[f64]) -> Option<f64> {
        debug_assert_eq!(violations.len(), self.total_constraints());
        let mut worst: Option<f64> = None;
        let mut offset = 0;
        for family in &self.families {
            for k in 0..family.len() {
                let rel = family.relative_violation(k, violations[offset + k]);
                worst = Some(worst.map_or(rel, |w: f64| w.max(rel)));
            }
            offset += family.len();
        }
        worst
    }

    /// `true` when every constraint is met up to `tolerance` (relative to
    /// its bound). An empty set is trivially feasible.
    pub fn feasible_within(&self, sizes: &SizeVector, tolerance: f64) -> bool {
        self.worst_relative_violation(sizes)
            .is_none_or(|worst| worst <= tolerance)
    }

    /// Raises every unachievable bound to the minimum achievable value plus
    /// a small margin, mirroring `ConstraintBounds::clamped_to_feasible`.
    pub fn clamped_to_feasible(mut self, graph: &CircuitGraph) -> Self {
        let lower = graph.minimum_sizes();
        for family in &mut self.families {
            for constraint in &mut family.constraints {
                constraint.clamp_to_feasible(lower.as_slice());
            }
        }
        self
    }

    /// Checks every bound is achievable at the minimum sizes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InfeasibleBounds`] naming the first violated
    /// constraint.
    pub fn check_feasible(&self, graph: &CircuitGraph) -> Result<(), CoreError> {
        let lower = graph.minimum_sizes();
        for family in &self.families {
            for constraint in &family.constraints {
                let min = constraint.min_value(lower.as_slice());
                if min > constraint.bound {
                    return Err(CoreError::InfeasibleBounds {
                        reason: format!(
                            "{} bound {:.3} of `{}` is below the minimum-size value {:.3}",
                            family.kind(),
                            constraint.bound,
                            constraint.label,
                            min
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Per-family slack summary at `sizes` (see [`FamilySlack`]).
    /// `tolerance` is the relative feasibility tolerance.
    pub fn slacks(&self, sizes: &SizeVector, tolerance: f64) -> Vec<FamilySlack> {
        self.families
            .iter()
            .map(|family| {
                let mut worst = f64::NEG_INFINITY;
                let mut worst_rel = f64::NEG_INFINITY;
                let mut worst_label = String::new();
                for (k, constraint) in family.constraints.iter().enumerate() {
                    let violation = family.violation(k, sizes);
                    let rel = family.relative_violation(k, violation);
                    if rel > worst_rel {
                        worst_rel = rel;
                        worst = violation;
                        worst_label = constraint.label.clone();
                    }
                }
                if family.is_empty() {
                    // No constraints: vacuously satisfied, zero slack.
                    worst = 0.0;
                    worst_rel = 0.0;
                }
                FamilySlack {
                    family: family.name.clone(),
                    kind: family.kind,
                    constraints: family.len(),
                    worst_violation: worst,
                    worst_relative_violation: worst_rel,
                    worst_label,
                    satisfied: worst_rel <= tolerance,
                }
            })
            .collect()
    }
}

/// Configuration-level description of an extra constraint family, relative
/// to the initial circuit. Lowered into absolute [`ScalarFamily`] instances
/// by [`lower_constraint_specs`] once stage 1 has produced the coupling
/// model (the [`Flow::order`](crate::Flow) step).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ConstraintSpec {
    /// Cap each routing channel's linearized crosstalk at `factor` × its
    /// initial value — one constraint per channel with in-channel coupling.
    /// This is channel-*local*: a noisy channel cannot borrow headroom from
    /// a quiet one the way the paper's single global bound allows.
    PerNetCrosstalk {
        /// Cap as a fraction of each channel's initial crosstalk.
        factor: f64,
    },
    /// Cap the component load each driver and gate directly drives (the
    /// input/wire capacitance attached to its output) at `factor` × its
    /// initial value — one constraint per driving node.
    DrivenLoad {
        /// Cap as a fraction of each node's initial driven load.
        factor: f64,
    },
}

impl ConstraintSpec {
    /// Validates the spec's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when a factor is not positive
    /// and finite.
    pub fn validate(&self) -> Result<(), CoreError> {
        let (name, factor) = match *self {
            ConstraintSpec::PerNetCrosstalk { factor } => ("per_net_crosstalk.factor", factor),
            ConstraintSpec::DrivenLoad { factor } => ("driven_load.factor", factor),
        };
        if !(factor.is_finite() && factor > 0.0) {
            return Err(CoreError::InvalidConfig {
                name,
                reason: format!("must be positive and finite, got {factor}"),
            });
        }
        Ok(())
    }
}

/// Lowers configuration-level [`ConstraintSpec`]s into absolute
/// [`ScalarFamily`] instances for one problem: per-net caps aggregate the
/// channel-local coupling of the stage-1 ordering, driven-load caps read
/// the circuit's fanout structure. Bounds are derived from the value at
/// `initial_sizes` and clamped to what the minimum sizes can achieve, so
/// relative factors stay usable across instances.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] when a spec's parameters are
/// invalid.
pub fn lower_constraint_specs(
    specs: &[ConstraintSpec],
    instance: &ProblemInstance,
    ordering: &WireOrderingOutcome,
    initial_sizes: &SizeVector,
) -> Result<ConstraintSet, CoreError> {
    let graph = &instance.circuit;
    let mut set = ConstraintSet::new();
    for spec in specs {
        spec.validate()?;
        let family = match *spec {
            ConstraintSpec::PerNetCrosstalk { factor } => {
                lower_per_net_crosstalk(factor, instance, ordering, initial_sizes)
            }
            ConstraintSpec::DrivenLoad { factor } => {
                lower_driven_load(factor, graph, initial_sizes)
            }
        };
        set.push(family);
    }
    Ok(set.clamped_to_feasible(graph))
}

/// One constraint per routing channel: the channel's linearized crosstalk
/// (base + size-dependent part, switching-weighted) stays below `factor` ×
/// its initial value.
fn lower_per_net_crosstalk(
    factor: f64,
    instance: &ProblemInstance,
    ordering: &WireOrderingOutcome,
    initial_sizes: &SizeVector,
) -> ScalarFamily {
    let graph = &instance.circuit;
    let coupling = &ordering.coupling;
    let neighborhoods = coupling.neighborhoods();
    let mut constraints = Vec::new();
    for (idx, channel) in instance.channels.iter().enumerate() {
        if channel.len() < 2 {
            continue;
        }
        let sums = neighborhoods.group_linear_sums(channel);
        if sums.is_empty() {
            continue;
        }
        let terms: Vec<(usize, f64)> = sums
            .iter()
            .map(|&(id, a)| {
                (
                    graph
                        .component_index(id)
                        .expect("coupled wires are sizable components"),
                    a,
                )
            })
            .collect();
        let constant = neighborhoods.group_base_capacitance(channel);
        let constraint = ScalarConstraint::new(format!("net-{idx}"), terms, constant, 0.0);
        let initial = constraint.value(initial_sizes);
        let mut constraint = constraint;
        constraint.bound = initial * factor;
        constraints.push(constraint);
    }
    ScalarFamily::new(
        "per-net crosstalk",
        FamilyKind::PerNetCrosstalk,
        constraints,
    )
}

/// One constraint per driver/gate: the component capacitance directly
/// attached to its output (gate input caps plus full wire caps, fringing
/// included as the constant part) stays below `factor` × its initial value.
fn lower_driven_load(
    factor: f64,
    graph: &CircuitGraph,
    initial_sizes: &SizeVector,
) -> ScalarFamily {
    let mut constraints = Vec::new();
    for id in graph.node_ids() {
        if !matches!(
            graph.kinds()[id.index()],
            NodeKind::Driver | NodeKind::Gate(_)
        ) {
            continue;
        }
        let mut terms: Vec<(usize, f64)> = Vec::new();
        let mut constant = 0.0;
        for &child in graph.fanout(id) {
            let c = child.index();
            match graph.kinds()[c] {
                NodeKind::Gate(_) | NodeKind::Wire => {
                    let rc = graph.attributes().get(c);
                    if let Some(dense) = graph.component_index(child) {
                        terms.push((dense, rc.unit_capacitance));
                    }
                    constant += rc.fringing;
                }
                NodeKind::Sink => constant += graph.output_load(id),
                NodeKind::Driver | NodeKind::Source => {}
            }
        }
        if terms.is_empty() {
            continue;
        }
        let constraint = ScalarConstraint::new(graph.name(id).to_string(), terms, constant, 0.0);
        let initial = constraint.value(initial_sizes);
        let mut constraint = constraint;
        constraint.bound = initial * factor;
        constraints.push(constraint);
    }
    ScalarFamily::new("driven load", FamilyKind::DrivenLoad, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncgws_circuit::{CircuitBuilder, GateKind, Technology};

    fn graph() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let w1 = b.add_wire("w1", 120.0).unwrap();
        let g = b.add_gate("g", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 90.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g).unwrap();
        b.connect(g, w2).unwrap();
        b.connect_output(w2, 5.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn scalar_constraint_evaluates_and_clamps() {
        let g = graph();
        let sizes = g.uniform_sizes(2.0);
        let c = ScalarConstraint::new("t", vec![(0, 1.5), (1, 0.0), (2, -3.0)], 4.0, 10.0);
        // Zero and negative coefficients are dropped.
        assert_eq!(c.terms().count(), 1);
        assert_eq!(c.value(&sizes), 4.0 + 1.5 * 2.0);
        assert_eq!(c.violation(&sizes), 4.0 + 3.0 - 10.0);

        // An unachievable bound is raised to the minimum achievable value.
        let mut tight = ScalarConstraint::new("t2", vec![(0, 1.0)], 0.0, 1e-9);
        let lower = g.minimum_sizes();
        tight.clamp_to_feasible(lower.as_slice());
        assert!(tight.bound >= lower[0]);
        let mut set = ConstraintSet::new();
        set.push(ScalarFamily::new(
            "f",
            FamilyKind::Custom,
            vec![tight.clone()],
        ));
        assert!(set.check_feasible(&g).is_ok());
    }

    #[test]
    fn family_accumulates_weighted_denominator() {
        let f = ScalarFamily::new(
            "f",
            FamilyKind::Custom,
            vec![
                ScalarConstraint::new("a", vec![(0, 2.0), (2, 1.0)], 0.0, 1.0),
                ScalarConstraint::new("b", vec![(0, 0.5)], 0.0, 1.0),
            ],
        );
        let mut denom = vec![0.0; 3];
        f.accumulate_denominator(&[3.0, 4.0], &mut denom);
        assert_eq!(denom, vec![3.0 * 2.0 + 4.0 * 0.5, 0.0, 3.0 * 1.0]);
        // A zero multiplier contributes nothing.
        let mut denom2 = vec![0.0; 3];
        f.accumulate_denominator(&[3.0, 0.0], &mut denom2);
        assert_eq!(denom2, vec![6.0, 0.0, 3.0]);
    }

    #[test]
    fn set_violations_dual_and_slacks() {
        let g = graph();
        let sizes = g.uniform_sizes(1.0);
        let mut set = ConstraintSet::new();
        set.push(ScalarFamily::new(
            "met",
            FamilyKind::Custom,
            vec![ScalarConstraint::new("ok", vec![(0, 1.0)], 0.0, 100.0)],
        ));
        set.push(ScalarFamily::new(
            "violated",
            FamilyKind::Custom,
            vec![ScalarConstraint::new("bad", vec![(1, 2.0)], 1.0, 0.5)],
        ));
        assert_eq!(set.total_constraints(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.block_sizes(), vec![1, 1]);

        let mut v = vec![0.0; 2];
        set.violations_into(&sizes, &mut v);
        assert_eq!(v[0], 1.0 - 100.0);
        assert_eq!(v[1], 1.0 + 2.0 - 0.5);

        let worst = set.worst_relative_violation(&sizes).unwrap();
        assert!((worst - v[1] / 0.5).abs() < 1e-12);
        assert!(!set.feasible_within(&sizes, 1e-3));

        let blocks = vec![vec![2.0], vec![3.0]];
        let dual = set.dual_term(&blocks, &sizes);
        assert!((dual - (2.0 * v[0] + 3.0 * v[1])).abs() < 1e-12);

        let slacks = set.slacks(&sizes, 1e-3);
        assert_eq!(slacks.len(), 2);
        assert!(slacks[0].satisfied);
        assert!(!slacks[1].satisfied);
        assert_eq!(slacks[1].worst_label, "bad");
        assert_eq!(slacks[1].kind, FamilyKind::Custom);

        // Aggregation adds over families.
        let mut denom = vec![0.0; g.num_components()];
        set.accumulate_denominator(&blocks, &mut denom);
        assert_eq!(denom[0], 2.0);
        assert_eq!(denom[1], 6.0);
    }

    #[test]
    fn empty_set_is_trivially_feasible_and_free() {
        let g = graph();
        let sizes = g.uniform_sizes(1.0);
        let set = ConstraintSet::new();
        assert!(set.is_empty());
        assert_eq!(set.worst_relative_violation(&sizes), None);
        assert!(set.feasible_within(&sizes, 0.0));
        assert_eq!(set.dual_term(&[], &sizes), 0.0);
        assert!(set.slacks(&sizes, 1e-3).is_empty());
        assert!(set.check_feasible(&g).is_ok());
    }

    #[test]
    fn spec_validation_rejects_bad_factors() {
        assert!(ConstraintSpec::PerNetCrosstalk { factor: 0.5 }
            .validate()
            .is_ok());
        assert!(ConstraintSpec::PerNetCrosstalk { factor: 0.0 }
            .validate()
            .is_err());
        assert!(ConstraintSpec::DrivenLoad {
            factor: f64::INFINITY
        }
        .validate()
        .is_err());
    }

    /// The per-net lowering sums each channel's own pairs through the
    /// neighbor lists; its constants and terms are the whole-set scan's,
    /// bit for bit: the constant is `CouplingSet::group_base_capacitance`
    /// (one pass over every pair in index order), and each term the
    /// in-channel pairs of the wire, again in pair-index order.
    #[test]
    fn per_net_lowering_matches_the_whole_set_scan_bitwise() {
        use crate::coupling_build::{build_coupling, OrderingStrategy};
        use ncgws_netlist::{iscas85_spec, xl_spec, SyntheticGenerator};
        for spec in [iscas85_spec("c432").unwrap(), xl_spec(10_000)] {
            let inst = SyntheticGenerator::new(spec).generate().unwrap();
            let ordering = build_coupling(&inst, OrderingStrategy::Woss, true).unwrap();
            let graph = &inst.circuit;
            let coupling = &ordering.coupling;
            let initial = graph.maximum_sizes();
            let family = lower_per_net_crosstalk(0.8, &inst, &ordering, &initial);
            let mut checked = 0;
            for constraint in family.constraints() {
                let idx: usize = constraint.label()["net-".len()..].parse().unwrap();
                let channel = &inst.channels[idx];
                assert_eq!(
                    constraint.constant().to_bits(),
                    coupling.group_base_capacitance(channel).to_bits(),
                    "{}: net-{idx} constant",
                    inst.name
                );
                let scanned: Vec<(usize, f64)> = channel
                    .iter()
                    .filter_map(|&id| {
                        let sum: f64 = coupling
                            .pairs()
                            .iter()
                            .filter_map(|p| p.other(id).map(|other| (other, p)))
                            .filter(|(other, _)| channel.contains(other))
                            .map(|(_, p)| p.switching_factor * p.linear_coefficient())
                            .sum();
                        (sum > 0.0).then(|| (graph.component_index(id).unwrap(), sum))
                    })
                    .collect();
                let terms: Vec<(usize, f64)> = constraint.terms().collect();
                assert_eq!(terms.len(), scanned.len(), "net-{idx} terms");
                for ((i, a), (j, b)) in terms.iter().zip(&scanned) {
                    assert_eq!((i, a.to_bits()), (j, b.to_bits()), "net-{idx} term");
                }
                checked += 1;
            }
            assert!(checked > 10, "{}: {checked} nets lowered", inst.name);
        }
    }

    #[test]
    fn driven_load_lowering_caps_each_driving_node() {
        let g = graph();
        let initial = g.maximum_sizes();
        let family = lower_driven_load(0.5, &g, &initial);
        // The driver drives w1, the gate drives w2: two constraints.
        assert_eq!(family.len(), 2);
        for constraint in family.constraints() {
            let init = constraint.value(&initial);
            assert!((constraint.bound() - init * 0.5).abs() < 1e-12);
            assert!(constraint.terms().count() >= 1);
        }
        // The caps bind at the initial sizes (factor < 1) and relax as the
        // driven components shrink.
        let min = g.minimum_sizes();
        for (k, _) in family.constraints().iter().enumerate() {
            assert!(
                family.violation(k, &initial) > 0.0,
                "a 0.5 cap must be violated at the initial sizes"
            );
            assert!(family.violation(k, &min) < family.violation(k, &initial));
        }
    }
}
