//! Node kinds and per-component RC attributes.

use serde::{Deserialize, Serialize};

use crate::tech::Technology;

/// Logic function implemented by a gate component.
///
/// The sizing formulation is independent of the logic function — only the
/// RC attributes matter — but the logic-simulation substrate
/// (`ncgws-waveform`) needs to know how a gate computes its output in order to
/// derive switching waveforms and similarities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Buffer (identity).
    Buf,
    /// Inverter.
    Inv,
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical NAND.
    Nand,
    /// Logical NOR.
    Nor,
    /// Logical XOR.
    Xor,
    /// Logical XNOR.
    Xnor,
}

impl GateKind {
    /// All gate kinds, useful for random generation and exhaustive tests.
    pub const ALL: [GateKind; 8] = [
        GateKind::Buf,
        GateKind::Inv,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];

    /// Evaluates the gate function on a slice of input values.
    ///
    /// Single-input kinds ([`GateKind::Buf`], [`GateKind::Inv`]) use only the
    /// first input. An empty input slice evaluates to `false` (`Buf`/`And`
    /// conventions) or its complement for inverting gates, which keeps the
    /// simulator total.
    pub fn eval(self, inputs: &[bool]) -> bool {
        let first = inputs.first().copied().unwrap_or(false);
        match self {
            GateKind::Buf => first,
            GateKind::Inv => !first,
            GateKind::And => !inputs.is_empty() && inputs.iter().all(|&b| b),
            GateKind::Nand => inputs.is_empty() || !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
        }
    }

    /// Returns `true` for gates whose output inverts when all inputs rise.
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Inv | GateKind::Nand | GateKind::Nor | GateKind::Xnor
        )
    }
}

/// The role a node plays in the circuit graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// The artificial source node `~s` (index 0).
    Source,
    /// An input driver with a fixed driver resistance `R_D`.
    Driver,
    /// A sizable logic gate.
    Gate(GateKind),
    /// A sizable interconnect wire.
    Wire,
    /// The artificial sink node `~t` (index n+s+1).
    Sink,
}

impl NodeKind {
    /// Returns `true` if this node is a sizable component (gate or wire).
    pub fn is_sizable(self) -> bool {
        matches!(self, NodeKind::Gate(_) | NodeKind::Wire)
    }

    /// Returns `true` if this node is a gate.
    pub fn is_gate(self) -> bool {
        matches!(self, NodeKind::Gate(_))
    }

    /// Returns `true` if this node is a wire.
    pub fn is_wire(self) -> bool {
        matches!(self, NodeKind::Wire)
    }

    /// Returns `true` if this node is an input driver.
    pub fn is_driver(self) -> bool {
        matches!(self, NodeKind::Driver)
    }
}

/// Electrical attributes of a component, following Figure 3 of the paper.
///
/// * a gate of size `x`: resistance `r̂ / x`, input capacitance `ĉ · x`,
///   no fringing capacitance;
/// * a wire of size (width) `x`: resistance `r̂ / x`, capacitance `ĉ · x + f`;
/// * an input driver: fixed resistance `driver_resistance`, zero capacitance,
///   zero area, not sizable;
/// * source/sink: no electrical attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeAttrs {
    /// Unit-size resistance `r̂` (Ω·µm). Zero for drivers, source and sink.
    pub unit_resistance: f64,
    /// Unit-size capacitance `ĉ` (fF/µm). Zero for drivers, source and sink.
    pub unit_capacitance: f64,
    /// Fringing capacitance `f` (fF). Zero for gates (per the paper) and drivers.
    pub fringing_capacitance: f64,
    /// Area coefficient `α` (µm² per µm of size).
    pub area_coefficient: f64,
    /// Lower size bound `L` (µm). Zero (and ignored) for non-sizable nodes.
    pub lower_bound: f64,
    /// Upper size bound `U` (µm). Zero (and ignored) for non-sizable nodes.
    pub upper_bound: f64,
    /// Driver resistance `R_D` (Ω) for [`NodeKind::Driver`] nodes; zero otherwise.
    pub driver_resistance: f64,
    /// Output load `C_L` (fF) attached when this component drives a primary output;
    /// zero otherwise.
    pub output_load: f64,
}

impl NodeAttrs {
    /// Attributes for a gate using the given technology.
    pub fn gate(tech: &Technology) -> Self {
        let kind = NodeKind::Gate(GateKind::Buf);
        NodeRc::of(kind, 0.0, tech).into_attrs(kind, (tech.min_size, tech.max_size), 0.0)
    }

    /// Attributes for a wire of the given length (µm) using the given technology.
    ///
    /// The unit-length technology parameters are scaled by the wire length so
    /// the attribute values are per unit *width* (the sizable quantity).
    pub fn wire(tech: &Technology, length: f64) -> Self {
        let kind = NodeKind::Wire;
        NodeRc::of(kind, length, tech).into_attrs(kind, (tech.min_size, tech.max_size), 0.0)
    }

    /// Attributes for an input driver with resistance `rd` (Ω).
    pub fn driver(rd: f64) -> Self {
        NodeAttrs {
            unit_resistance: 0.0,
            unit_capacitance: 0.0,
            fringing_capacitance: 0.0,
            area_coefficient: 0.0,
            lower_bound: 0.0,
            upper_bound: 0.0,
            driver_resistance: rd,
            output_load: 0.0,
        }
    }

    /// Attributes for the artificial source/sink nodes.
    pub fn artificial() -> Self {
        NodeAttrs {
            unit_resistance: 0.0,
            unit_capacitance: 0.0,
            fringing_capacitance: 0.0,
            area_coefficient: 0.0,
            lower_bound: 0.0,
            upper_bound: 0.0,
            driver_resistance: 0.0,
            output_load: 0.0,
        }
    }
}

/// The four RC attributes of a node, with its two resistances merged into
/// one, since no kind has both: `resistance` is `r̂` for gates and wires,
/// `R_D` for drivers and zero for the source and sink, `unit_capacitance`
/// is zero off the gates and wires, and `fringing` zero off the wires.
///
/// The graph stores none of them per node. A node's attributes follow from
/// its kind, one parameter (a wire's length, a driver's `R_D`) and the
/// technology; only a decoded node that no parameter reproduces bit for bit
/// keeps its own (see
/// [`CircuitGraph::attributes`](crate::CircuitGraph::attributes)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeRc {
    /// `r̂` for gates and wires, `R_D` for drivers, zero otherwise.
    pub resistance: f64,
    /// Unit-size capacitance `ĉ`.
    pub unit_capacitance: f64,
    /// Fringing capacitance `f`.
    pub fringing: f64,
    /// Area coefficient `α`.
    pub area_coefficient: f64,
}

/// The RC attributes a technology gives each node kind, as four
/// coefficients a node's parameter multiplies: a wire's per-µm values times
/// its length, a gate's constants times one, a driver's `[1, 0, 0, 0]`
/// times its `R_D`, and zero for the source and sink. The kind only picks
/// the row, so every kind derives its attributes with the same four
/// multiplies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KindRc {
    /// The coefficients of each [`class`] of node kind.
    per_class: [NodeRc; 4],
}

/// The row of a node of `kind` in [`KindRc`]'s coefficients: 0 for the
/// source and sink, 1 for a driver, 2 for a gate and 3 for a wire. Summed
/// from comparisons rather than matched, so a loop over a mix of gates and
/// wires takes no branch on the kind to find the row.
#[inline(always)]
fn class(kind: NodeKind) -> usize {
    usize::from(kind.is_driver())
        + 2 * usize::from(kind.is_gate())
        + 3 * usize::from(kind.is_wire())
}

/// The parameter a gate is stored under: its attributes are the
/// technology's gate constants times one, which is each constant exactly.
pub(crate) const GATE_PARAM: f64 = 1.0;

impl KindRc {
    /// The coefficients of `tech`.
    pub(crate) fn new(tech: &Technology) -> Self {
        let rc = |resistance, unit_capacitance, fringing, area_coefficient| NodeRc {
            resistance,
            unit_capacitance,
            fringing,
            area_coefficient,
        };
        KindRc {
            per_class: [
                rc(0.0, 0.0, 0.0, 0.0),
                rc(1.0, 0.0, 0.0, 0.0),
                rc(
                    tech.gate_unit_resistance,
                    tech.gate_unit_capacitance,
                    0.0,
                    tech.gate_area_coefficient,
                ),
                rc(
                    tech.wire_unit_resistance,
                    tech.wire_unit_capacitance,
                    tech.wire_fringing_per_um,
                    tech.wire_area_coefficient,
                ),
            ],
        }
    }

    /// The attributes of a node of `kind` with parameter `param`: a wire's
    /// are the technology's per-µm constants times its length `param`, a
    /// gate's the gate constants (its `param` is [`GATE_PARAM`]), a
    /// driver's resistance its `param` (positive, so its other attributes
    /// are `+0.0`), and the source's and sink's zero (their `param` is
    /// zero).
    #[inline(always)]
    pub(crate) fn of(&self, kind: NodeKind, param: f64) -> NodeRc {
        // `class` is below 4; the mask lets the compiler see it.
        self.per_class[class(kind) & 3].times(param)
    }

    /// A gate's attributes: [`of`](Self::of) a gate, whose parameter is
    /// [`GATE_PARAM`], and so the gate row itself.
    #[inline(always)]
    pub(crate) fn gate(&self) -> NodeRc {
        self.per_class[2]
    }

    /// A wire's attributes: [`of`](Self::of) a wire of `length`.
    #[inline(always)]
    pub(crate) fn wire(&self, length: f64) -> NodeRc {
        self.per_class[3].times(length)
    }
}

impl NodeRc {
    /// Every attribute times `param`.
    #[inline(always)]
    fn times(&self, param: f64) -> NodeRc {
        NodeRc {
            resistance: self.resistance * param,
            unit_capacitance: self.unit_capacitance * param,
            fringing: self.fringing * param,
            area_coefficient: self.area_coefficient * param,
        }
    }

    /// The attributes of a node of `kind` with parameter `param` under
    /// `tech`: a wire's are the technology's per-µm constants times its
    /// length `param`, a driver's resistance is its `param`, a gate's are
    /// the technology's gate constants and the source's and sink's zero.
    pub(crate) fn of(kind: NodeKind, param: f64, tech: &Technology) -> Self {
        let param = match kind {
            NodeKind::Gate(_) => GATE_PARAM,
            NodeKind::Source | NodeKind::Sink => 0.0,
            NodeKind::Driver | NodeKind::Wire => param,
        };
        KindRc::new(tech).of(kind, param)
    }

    /// The attributes a node of `kind` keeps of `attrs`: an attribute its
    /// kind does not have is dropped (see `Node::attribute_of_another_kind`).
    pub(crate) fn kept(kind: NodeKind, attrs: &NodeAttrs) -> Self {
        NodeRc {
            resistance: match kind {
                NodeKind::Driver => attrs.driver_resistance,
                NodeKind::Gate(_) | NodeKind::Wire => attrs.unit_resistance,
                NodeKind::Source | NodeKind::Sink => 0.0,
            },
            unit_capacitance: if kind.is_sizable() {
                attrs.unit_capacitance
            } else {
                0.0
            },
            fringing: if kind.is_wire() {
                attrs.fringing_capacitance
            } else {
                0.0
            },
            area_coefficient: attrs.area_coefficient,
        }
    }

    /// The full attributes of a node of `kind` with these RC values, the
    /// size bounds `(lower, upper)` and `output_load`.
    pub(crate) fn into_attrs(
        self,
        kind: NodeKind,
        (lower_bound, upper_bound): (f64, f64),
        output_load: f64,
    ) -> NodeAttrs {
        let only = |owned: bool| if owned { self.resistance } else { 0.0 };
        NodeAttrs {
            unit_resistance: only(kind.is_sizable()),
            unit_capacitance: self.unit_capacitance,
            fringing_capacitance: self.fringing,
            area_coefficient: self.area_coefficient,
            lower_bound,
            upper_bound,
            driver_resistance: only(kind.is_driver()),
            output_load,
        }
    }

    /// `true` when every attribute equals `other`'s bit for bit.
    pub(crate) fn same_bits(&self, other: &NodeRc) -> bool {
        let bits = |rc: &NodeRc| {
            [
                rc.resistance,
                rc.unit_capacitance,
                rc.fringing,
                rc.area_coefficient,
            ]
            .map(f64::to_bits)
        };
        bits(self) == bits(other)
    }
}

/// A node of the circuit graph: its role and RC attributes.
///
/// The graph stores no `Node`s: it keeps each node's kind and one
/// parameter, derives the RC attributes from them and the technology (see
/// [`NodeRc`]), keeps the size bounds and output loads as sparse lists, and
/// [`CircuitGraph::node`](crate::CircuitGraph::node) reassembles this value
/// from them. A node carries no name either: the
/// graph keeps every node name in one table, read with
/// [`CircuitGraph::name`](crate::CircuitGraph::name).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Role of this node.
    pub kind: NodeKind,
    /// Electrical and geometric attributes.
    pub attrs: NodeAttrs,
}

impl Node {
    /// The first attribute this node carries although its kind has no such
    /// attribute, or `None`. Only gates and wires have a unit resistance
    /// and a unit capacitance, only drivers a driver resistance and only
    /// wires a fringing capacitance; anything but `+0.0` there is carried.
    /// The graph's columns hold a node exactly when this is `None`.
    pub(crate) fn attribute_of_another_kind(&self) -> Option<&'static str> {
        let a = &self.attrs;
        let sizable = self.kind.is_sizable();
        [
            ("unit_resistance", a.unit_resistance, sizable),
            (
                "driver_resistance",
                a.driver_resistance,
                self.kind.is_driver(),
            ),
            ("unit_capacitance", a.unit_capacitance, sizable),
            (
                "fringing_capacitance",
                a.fringing_capacitance,
                self.kind.is_wire(),
            ),
        ]
        .into_iter()
        .find(|&(_, value, owned)| !owned && value.to_bits() != 0)
        .map(|(name, _, _)| name)
    }

    /// Resistance of this component at the given size.
    ///
    /// Drivers return their fixed driver resistance regardless of `size`.
    /// Source and sink have zero resistance.
    pub fn resistance(&self, size: f64) -> f64 {
        match self.kind {
            NodeKind::Driver => self.attrs.driver_resistance,
            NodeKind::Gate(_) | NodeKind::Wire => {
                if size > 0.0 {
                    self.attrs.unit_resistance / size
                } else {
                    f64::INFINITY
                }
            }
            NodeKind::Source | NodeKind::Sink => 0.0,
        }
    }

    /// Capacitance of this component at the given size (excluding coupling).
    ///
    /// Gates: `ĉ · x`. Wires: `ĉ · x + f`. Others: zero.
    pub fn capacitance(&self, size: f64) -> f64 {
        match self.kind {
            NodeKind::Gate(_) => self.attrs.unit_capacitance * size,
            NodeKind::Wire => self.attrs.unit_capacitance * size + self.attrs.fringing_capacitance,
            _ => 0.0,
        }
    }

    /// Area of this component at the given size: `α · x`.
    pub fn area(&self, size: f64) -> f64 {
        if self.kind.is_sizable() {
            self.attrs.area_coefficient * size
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_eval_truth_tables() {
        assert!(GateKind::And.eval(&[true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(!GateKind::Nand.eval(&[true, true]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(!GateKind::Or.eval(&[false, false]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(!GateKind::Nor.eval(&[true, false]));
        assert!(GateKind::Xor.eval(&[true, false]));
        assert!(!GateKind::Xor.eval(&[true, true]));
        assert!(GateKind::Xnor.eval(&[true, true]));
        assert!(GateKind::Inv.eval(&[false]));
        assert!(!GateKind::Inv.eval(&[true]));
        assert!(GateKind::Buf.eval(&[true]));
    }

    #[test]
    fn gate_eval_on_empty_inputs_is_total() {
        for kind in GateKind::ALL {
            // Must not panic.
            let _ = kind.eval(&[]);
        }
    }

    #[test]
    fn inverting_classification() {
        assert!(GateKind::Inv.is_inverting());
        assert!(GateKind::Nand.is_inverting());
        assert!(GateKind::Nor.is_inverting());
        assert!(GateKind::Xnor.is_inverting());
        assert!(!GateKind::Buf.is_inverting());
        assert!(!GateKind::And.is_inverting());
        assert!(!GateKind::Or.is_inverting());
        assert!(!GateKind::Xor.is_inverting());
    }

    #[test]
    fn node_kind_predicates() {
        assert!(NodeKind::Gate(GateKind::And).is_sizable());
        assert!(NodeKind::Wire.is_sizable());
        assert!(!NodeKind::Driver.is_sizable());
        assert!(!NodeKind::Source.is_sizable());
        assert!(NodeKind::Wire.is_wire());
        assert!(NodeKind::Gate(GateKind::Or).is_gate());
        assert!(NodeKind::Driver.is_driver());
    }

    #[test]
    fn a_node_is_72_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 72);
    }

    #[test]
    fn a_node_kind_is_one_byte() {
        assert_eq!(std::mem::size_of::<NodeKind>(), 1);
    }

    #[test]
    fn gate_rc_scales_with_size() {
        let tech = Technology::dac99();
        let node = Node {
            kind: NodeKind::Gate(GateKind::Inv),
            attrs: NodeAttrs::gate(&tech),
        };
        let r1 = node.resistance(1.0);
        let r2 = node.resistance(2.0);
        assert!(
            (r1 / r2 - 2.0).abs() < 1e-12,
            "resistance halves when size doubles"
        );
        let c1 = node.capacitance(1.0);
        let c2 = node.capacitance(2.0);
        assert!(
            (c2 / c1 - 2.0).abs() < 1e-12,
            "capacitance doubles when size doubles"
        );
    }

    #[test]
    fn wire_capacitance_includes_fringing() {
        let tech = Technology::dac99();
        let node = Node {
            kind: NodeKind::Wire,
            attrs: NodeAttrs::wire(&tech, 100.0),
        };
        let c = node.capacitance(1.0);
        assert!(
            c > tech.wire_unit_capacitance * 100.0,
            "fringing must be added"
        );
    }

    #[test]
    fn driver_resistance_is_fixed() {
        let node = Node {
            kind: NodeKind::Driver,
            attrs: NodeAttrs::driver(120.0),
        };
        assert_eq!(node.resistance(0.0), 120.0);
        assert_eq!(node.resistance(5.0), 120.0);
        assert_eq!(node.capacitance(3.0), 0.0);
        assert_eq!(node.area(3.0), 0.0);
    }

    #[test]
    fn zero_size_resistance_is_infinite() {
        let tech = Technology::dac99();
        let node = Node {
            kind: NodeKind::Wire,
            attrs: NodeAttrs::wire(&tech, 10.0),
        };
        assert!(node.resistance(0.0).is_infinite());
    }
}
