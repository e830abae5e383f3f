//! Presets matching the paper's Table 1 benchmark circuits.
//!
//! The paper evaluates on ten ISCAS85 circuits. The real netlists are not in
//! the repository, so the synthetic generator stands in for them; these
//! presets drive it with exactly the gate and wire counts the paper reports
//! per circuit, so the scaling experiments (Table 1, Figure 10) cover the
//! same size range — 640 to 9 656 components.

use crate::spec::CircuitSpec;

/// `(name, gates, wires)` for the ten circuits of Table 1, in the paper's
/// row order.
pub const TABLE1_CIRCUITS: [(&str, usize, usize); 10] = [
    ("c1355", 546, 1064),
    ("c1908", 880, 1498),
    ("c2670", 1193, 2076),
    ("c3540", 1669, 2939),
    ("c432", 214, 426),
    ("c499", 514, 928),
    ("c5315", 2307, 4386),
    ("c6288", 2416, 4800),
    ("c7552", 3512, 6144),
    ("c880", 383, 729),
];

/// The specification for one of the Table 1 circuits, by name
/// (e.g. `"c432"`). Returns `None` for unknown names.
///
/// The per-circuit seed is derived from the name so every circuit is distinct
/// but reproducible.
pub fn iscas85_spec(name: &str) -> Option<CircuitSpec> {
    TABLE1_CIRCUITS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(n, gates, wires)| {
            let seed = 0xDAC_1999_u64
                ^ n.bytes()
                    .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64));
            CircuitSpec::new(n, gates, wires).with_seed(seed)
        })
}

/// Specifications for all ten Table 1 circuits, in the paper's row order.
pub fn table1_specs() -> Vec<CircuitSpec> {
    TABLE1_CIRCUITS
        .iter()
        .map(|(n, _, _)| iscas85_spec(n).expect("known name"))
        .collect()
}

/// Specifications for all ten circuits, sorted by total component count
/// (used by the Figure 10 scaling study).
pub fn table1_specs_by_size() -> Vec<CircuitSpec> {
    let mut specs = table1_specs();
    specs.sort_by_key(CircuitSpec::total_components);
    specs
}

/// The XL synthetic tier: circuits one to two orders of magnitude beyond
/// the paper's largest (c7552, 9 656 components), keeping its roughly
/// 1 gate : 2 wires shape. Used by the end-to-end solve-schedule benchmarks
/// (`ogws_schedule`) and the `table1 --json` schedule section; the pattern
/// count is reduced because stage-1 logic simulation scales with
/// `⌈patterns/64⌉ × gates` (64 patterns per machine word) and is not what
/// these tiers measure.
pub fn xl_spec(total_components: usize) -> CircuitSpec {
    let gates = total_components / 3;
    let wires = total_components - gates;
    let seed = 0xDAC_1999_u64 ^ (total_components as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    CircuitSpec::new(format!("xl{}", total_components / 1000), gates, wires)
        .with_seed(seed)
        .with_num_patterns(16)
}

/// The *wide* XL tier: the same component counts as [`xl_spec`] but with an
/// unbounded locality window, so gate inputs are drawn uniformly from all
/// earlier gates and the logic depth grows only logarithmically. Where
/// [`xl_spec`] produces deep, chain-like circuits (~0.6 topological levels
/// per node — the worst case for any dependency-ordered traversal), this
/// shape concentrates the nodes in a few hundred wide levels, which is what
/// the level-parallel solve paths (`ncgws-core`'s `ParallelPolicy::Level`)
/// scale on. Used by the `threads` scaling benchmarks.
pub fn xl_wide_spec(total_components: usize) -> CircuitSpec {
    let mut spec = xl_spec(total_components).with_locality_window(usize::MAX);
    spec.name = format!("xlw{}", total_components / 1000);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_circuits_are_known() {
        assert_eq!(TABLE1_CIRCUITS.len(), 10);
        for (name, gates, wires) in TABLE1_CIRCUITS {
            let spec = iscas85_spec(name).expect("known");
            assert_eq!(spec.num_gates, gates);
            assert_eq!(spec.num_wires, wires);
            assert_eq!(spec.name, name);
        }
        assert!(iscas85_spec("c9999").is_none());
    }

    #[test]
    fn totals_match_the_paper_range() {
        let specs = table1_specs_by_size();
        assert_eq!(specs.first().unwrap().total_components(), 640);
        assert_eq!(specs.last().unwrap().total_components(), 9656);
        // Sorted ascending.
        for pair in specs.windows(2) {
            assert!(pair[0].total_components() <= pair[1].total_components());
        }
    }

    #[test]
    fn seeds_differ_between_circuits() {
        let a = iscas85_spec("c432").unwrap();
        let b = iscas85_spec("c499").unwrap();
        assert_ne!(a.seed, b.seed);
        // But are stable run to run.
        assert_eq!(a.seed, iscas85_spec("c432").unwrap().seed);
    }

    #[test]
    fn c7552_matches_the_paper_headline_numbers() {
        // The abstract quotes "6144 wires and 3512 gates" for c7552.
        let spec = iscas85_spec("c7552").unwrap();
        assert_eq!(spec.num_gates, 3512);
        assert_eq!(spec.num_wires, 6144);
    }
}
