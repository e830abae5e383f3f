//! Upstream / downstream traversals.
//!
//! The paper defines `upstream(i)` as every node (other than `i`) on a path
//! from node `i` back to a reachable driver, and `downstream(i)` as every node
//! on a path from `i` to a reachable load. For electrical analysis we also
//! need the *stage-bounded* variants, which stop at gate boundaries: a gate's
//! input capacitance terminates the RC stage driving it, and the gate's output
//! starts a new stage.

use std::collections::BTreeSet;

use crate::graph::CircuitGraph;
use crate::id::NodeId;

/// Every node other than `i` on a path from `i` back to a reachable driver
/// (the paper's `upstream(i)`), excluding the artificial source.
pub fn upstream_full(graph: &CircuitGraph, id: NodeId) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    let mut stack: Vec<NodeId> = graph.fanin(id).to_vec();
    while let Some(u) = stack.pop() {
        if u == graph.source() || !out.insert(u) {
            continue;
        }
        stack.extend_from_slice(graph.fanin(u));
    }
    out
}

/// Every node on a path from `i` to a reachable load (the paper's
/// `downstream(i)`), excluding the artificial sink but including `i` itself,
/// mirroring the paper's example `downstream(2) = {2, 5, 7}`.
pub fn downstream_full(graph: &CircuitGraph, id: NodeId) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    let mut stack: Vec<NodeId> = vec![id];
    while let Some(u) = stack.pop() {
        if u == graph.sink() || !out.insert(u) {
            continue;
        }
        stack.extend_from_slice(graph.fanout(u));
    }
    out
}

/// The stage-bounded upstream of node `i`: the wires between `i` and the
/// driver/gate output that drives its stage, plus that stage root itself.
///
/// These are exactly the components whose Elmore downstream capacitance `C_k`
/// contains node `i`'s capacitance, so they are the resistances that appear in
/// the weighted upstream resistance `R_i` of Theorem 5.
pub fn upstream_stage(graph: &CircuitGraph, id: NodeId) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    let mut stack: Vec<NodeId> = graph.fanin(id).to_vec();
    while let Some(u) = stack.pop() {
        if u == graph.source() || !out.insert(u) {
            continue;
        }
        // A gate or driver is a stage root: include it but do not cross it.
        if !graph.is_stage_root(u) {
            stack.extend_from_slice(graph.fanin(u));
        }
    }
    out
}

/// The stage-bounded downstream of node `i`: the wire subtree hanging from
/// `i`'s output plus the gate inputs and primary-output sink attachment that
/// terminate it. Gates are included (their input capacitance loads the stage)
/// but not crossed.
pub fn downstream_stage(graph: &CircuitGraph, id: NodeId) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    let mut stack: Vec<NodeId> = graph.fanout(id).to_vec();
    while let Some(u) = stack.pop() {
        if u == graph.sink() || !out.insert(u) {
            continue;
        }
        if !graph.kinds()[u.index()].is_gate() {
            stack.extend_from_slice(graph.fanout(u));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::node::GateKind;
    use crate::tech::Technology;

    /// driver d -> w1 -> g1 -> w2 -> w3(branch) -> g2 -> w4 -> out
    ///                              \-> w5 -> out2
    fn branching() -> CircuitGraph {
        let mut b = CircuitBuilder::new(Technology::dac99());
        let d = b.add_driver("d", 100.0).unwrap();
        let w1 = b.add_wire("w1", 10.0).unwrap();
        let g1 = b.add_gate("g1", GateKind::Inv).unwrap();
        let w2 = b.add_wire("w2", 10.0).unwrap();
        let w3 = b.add_wire("w3", 10.0).unwrap();
        let w5 = b.add_wire("w5", 10.0).unwrap();
        let g2 = b.add_gate("g2", GateKind::Buf).unwrap();
        let w4 = b.add_wire("w4", 10.0).unwrap();
        b.connect(d, w1).unwrap();
        b.connect(w1, g1).unwrap();
        b.connect(g1, w2).unwrap();
        b.connect(w2, w3).unwrap();
        b.connect(w2, w5).unwrap();
        b.connect(w3, g2).unwrap();
        b.connect(g2, w4).unwrap();
        b.connect_output(w4, 5.0).unwrap();
        b.connect_output(w5, 5.0).unwrap();
        b.build().unwrap()
    }

    fn id(c: &CircuitGraph, name: &str) -> NodeId {
        c.node_by_name(name).unwrap()
    }

    #[test]
    fn full_upstream_reaches_drivers_through_gates() {
        let c = branching();
        let up = upstream_full(&c, id(&c, "w4"));
        for name in ["g2", "w3", "w2", "g1", "w1", "d"] {
            assert!(
                up.contains(&id(&c, name)),
                "{name} should be upstream of w4"
            );
        }
        assert!(!up.contains(&id(&c, "w5")));
        assert!(!up.contains(&c.source()));
    }

    #[test]
    fn full_downstream_reaches_loads_through_gates() {
        let c = branching();
        let down = downstream_full(&c, id(&c, "w2"));
        for name in ["w2", "w3", "w5", "g2", "w4"] {
            assert!(
                down.contains(&id(&c, name)),
                "{name} should be downstream of w2"
            );
        }
        assert!(!down.contains(&id(&c, "w1")));
        assert!(!down.contains(&c.sink()));
    }

    #[test]
    fn stage_upstream_stops_at_gate() {
        let c = branching();
        // w3 is in the stage driven by g1: upstream within the stage is {w2, g1}.
        let up = upstream_stage(&c, id(&c, "w3"));
        assert!(up.contains(&id(&c, "w2")));
        assert!(up.contains(&id(&c, "g1")));
        assert!(
            !up.contains(&id(&c, "w1")),
            "must not cross the stage root g1"
        );
        assert!(!up.contains(&id(&c, "d")));
    }

    #[test]
    fn stage_downstream_stops_at_gate_inputs() {
        let c = branching();
        let down = downstream_stage(&c, id(&c, "g1"));
        // Stage of g1: wires w2, w3, w5 and the terminating gate g2.
        for name in ["w2", "w3", "w5", "g2"] {
            assert!(
                down.contains(&id(&c, name)),
                "{name} should be in g1's stage"
            );
        }
        assert!(!down.contains(&id(&c, "w4")), "w4 is behind gate g2");
    }

    #[test]
    fn driver_stage_matches_first_wire_tree() {
        let c = branching();
        let down = downstream_stage(&c, id(&c, "d"));
        assert!(down.contains(&id(&c, "w1")));
        assert!(down.contains(&id(&c, "g1")));
        assert!(!down.contains(&id(&c, "w2")));
    }

    #[test]
    fn upstream_of_driver_is_empty() {
        let c = branching();
        assert!(upstream_full(&c, id(&c, "d")).is_empty());
        assert!(upstream_stage(&c, id(&c, "d")).is_empty());
    }
}
