//! Behaviour that must not change when a table is stored only once.
//!
//! * The graph keeps every name in one string, so `node_by_name` is a scan;
//!   it and `name` must still round-trip every node, the artificial source
//!   and sink included.
//! * The coupling set keeps only its pairs and the per-node coefficient
//!   sums; the neighbor lists it builds on demand (`Neighborhoods`) must
//!   list each node's pairs in ascending pair index, exactly once.
//! * The cached Theorem-5 coefficient sums, accumulated in one pass over the
//!   pairs, must equal a fresh walk of those lists bitwise.

use ncgws::circuit::NodeId;
use ncgws::core::{build_coupling, OrderingStrategy};
use ncgws::coupling::{CouplingPair, CouplingSet};
use ncgws::netlist::{table1_specs, xl_spec, xl_wide_spec, ProblemInstance, SyntheticGenerator};

fn generate(spec: ncgws::netlist::CircuitSpec) -> ProblemInstance {
    SyntheticGenerator::new(spec).generate().unwrap()
}

/// The coupling set of an instance after WOSS ordering, with the Miller
/// switching factors so the coefficient sums are not all neutral.
fn coupling(instance: &ProblemInstance) -> CouplingSet {
    build_coupling(instance, OrderingStrategy::Woss, true)
        .unwrap()
        .coupling
}

/// Index of `pair` in `set.pairs()`, from its address.
fn pair_index(set: &CouplingSet, pair: &CouplingPair) -> usize {
    let base = set.pairs().as_ptr() as usize;
    (pair as *const CouplingPair as usize - base) / std::mem::size_of::<CouplingPair>()
}

#[test]
fn node_by_name_resolves_every_node_of_xl10k() {
    let graph = generate(xl_spec(10_000)).circuit;
    for id in graph.node_ids() {
        assert_eq!(graph.node_by_name(graph.name(id)), Some(id));
    }
    assert_eq!(graph.node_by_name("~source"), Some(graph.source()));
    assert_eq!(graph.node_by_name("~sink"), Some(graph.sink()));
    assert_eq!(graph.node_by_name("no such node"), None);
    assert_eq!(graph.node_by_name(""), None);
}

#[test]
fn neighbor_lists_hold_each_pair_once_in_ascending_index() {
    let instance = generate(xl_wide_spec(10_000));
    let graph = &instance.circuit;
    let coupling = coupling(&instance);
    assert!(!coupling.is_empty());
    let set = coupling.neighborhoods();
    // The lists a per-node push in pair order would build.
    let mut expected: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); graph.num_nodes()];
    for (idx, pair) in coupling.pairs().iter().enumerate() {
        expected[pair.a.index()].push((pair.b, idx));
        expected[pair.b.index()].push((pair.a, idx));
    }
    for id in graph.node_ids() {
        let neighbors: Vec<(NodeId, usize)> = set
            .neighbors(id)
            .map(|(other, pair)| (other, pair_index(&coupling, pair)))
            .collect();
        assert_eq!(neighbors, expected[id.index()], "N({id})");
        assert_eq!(set.degree(id), neighbors.len());
        let dominating: Vec<(NodeId, usize)> = set
            .dominating(id)
            .map(|(other, pair)| (other, pair_index(&coupling, pair)))
            .collect();
        let larger: Vec<(NodeId, usize)> = neighbors
            .into_iter()
            .filter(|&(other, _)| other > id)
            .collect();
        assert_eq!(dominating, larger, "I({id})");
    }
}

#[test]
fn cached_coefficient_sums_equal_the_uncached_walk_bitwise() {
    let specs = table1_specs()
        .into_iter()
        .chain(std::iter::once(xl_wide_spec(10_000)));
    for spec in specs {
        let name = spec.name.clone();
        let instance = generate(spec);
        let set = coupling(&instance);
        let neighborhoods = set.neighborhoods();
        for id in instance.circuit.node_ids() {
            assert_eq!(
                set.linear_coefficient_sum(id).to_bits(),
                neighborhoods.linear_coefficient_sum_uncached(id).to_bits(),
                "{name}: {id}"
            );
        }
    }
}
