//! Reproducible synthetic benchmark generation.
//!
//! The generator produces a combinational circuit with an **exact** gate and
//! wire count. The real ISCAS85 netlists are not in the repository, so the
//! generator stands in for them. Every wire is a two-pin connection
//! (driver→gate or gate→gate or gate→primary-output), which matches the
//! paper's roughly 2-wires-per-gate ratio. Structure highlights:
//!
//! * bounded gate fan-in with a random spread,
//! * locality-biased source selection (reconvergent fan-out, realistic depth),
//! * every non-output gate is guaranteed a fanout,
//! * wires are grouped into routing channels for the coupling model,
//! * all randomness is drawn from a seeded [`ChaCha8Rng`], so instances are
//!   fully reproducible.

use std::fmt::Write;
use std::ops::Range;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use ncgws_circuit::builder::BuildNode;
use ncgws_circuit::{CircuitBuilder, GateKind};
use ncgws_waveform::PatternSet;

use crate::error::NetlistError;
use crate::instance::{ChannelGeometry, Channels, ProblemInstance};
use crate::spec::CircuitSpec;

/// One gate input source in the intermediate representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceRef {
    Driver(usize),
    Gate(usize),
}

/// The live inputs of gate `k` in the generator's flat input table: the
/// first `fanin[k]` of the slots that start at `start[k]`.
fn live(start: &[usize], fanin: &[usize], k: usize) -> Range<usize> {
    start[k]..start[k] + fanin[k]
}

/// Formats the name `{prefix}{i}` into `buf`, replacing its contents.
fn numbered<'a>(buf: &'a mut String, prefix: &str, i: usize) -> &'a str {
    buf.clear();
    let _ = write!(buf, "{prefix}{i}");
    buf
}

/// Synthetic circuit generator.
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    spec: CircuitSpec,
}

impl SyntheticGenerator {
    /// Creates a generator for the given specification.
    pub fn new(spec: CircuitSpec) -> Self {
        SyntheticGenerator { spec }
    }

    /// The specification this generator uses.
    pub fn spec(&self) -> &CircuitSpec {
        &self.spec
    }

    /// Generates the problem instance.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InfeasibleSpec`] when the requested counts
    /// cannot be realized (e.g. fewer wires than gates), or a
    /// [`NetlistError::Circuit`] error if the assembled netlist fails
    /// validation (which would indicate a generator bug).
    pub fn generate(&self) -> Result<ProblemInstance, NetlistError> {
        let spec = &self.spec;
        let num_gates = spec.num_gates;
        let num_wires = spec.num_wires;
        let num_drivers = spec.num_drivers();
        let num_outputs = spec.num_outputs().min(num_gates.saturating_sub(1)).max(1);

        if num_gates == 0 {
            return Err(NetlistError::InfeasibleSpec {
                reason: "at least one gate required".into(),
            });
        }
        if num_wires < num_gates + num_outputs {
            return Err(NetlistError::InfeasibleSpec {
                reason: format!(
                    "{num_wires} wires cannot feed {num_gates} gates and {num_outputs} outputs"
                ),
            });
        }

        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);

        // ---- 1. Fan-in budget: exactly `num_wires - num_outputs` input wires.
        let input_wire_budget = num_wires - num_outputs;
        let mut fanin = vec![1usize; num_gates];
        let mut extra = input_wire_budget - num_gates;
        // Distribute the extra inputs, respecting max_fanin where possible.
        let mut attempts = 0usize;
        while extra > 0 {
            let k = rng.gen_range(0..num_gates);
            if fanin[k] < spec.max_fanin || attempts > 20 * num_gates {
                fanin[k] += 1;
                extra -= 1;
            }
            attempts += 1;
        }

        // ---- 2. Choose sources gate by gate (IR only).
        // The last `num_outputs` gates are the designated primary outputs.
        // Every gate's inputs share one table: gate `k` owns the `fanin[k]`
        // slots from `start[k]`, and `fanin[k]` then counts the live ones
        // (step 3 only ever shrinks it; see `live`).
        let first_output_gate = num_gates - num_outputs;
        let mut start: Vec<usize> = Vec::with_capacity(num_gates);
        let mut sources: Vec<SourceRef> = Vec::with_capacity(input_wire_budget);
        let mut gate_fanout = vec![0usize; num_gates];
        let mut driver_fanout = vec![0usize; num_drivers];
        let mut unused: Vec<usize> = Vec::new(); // non-output gates with no fanout yet

        // Under the *unbounded* locality window (`usize::MAX` — see
        // `CircuitSpec::locality_window`) the eager fanout guarantee below
        // is skipped: consuming one `unused` gate per step keeps that pool
        // near-empty, which forces gate `k` to source from gate `k − 1` and
        // produces a chain (logic depth ≈ gate count) no matter how wide
        // the window is. Wide mode instead sources uniformly from all
        // earlier gates — logarithmic depth — and promotes any gate left
        // without fanout to an extra primary output afterwards (the
        // wire-count compensation below keeps the totals exact). The gate
        // is the sentinel value only — a finite window, however large,
        // keeps the historical generation path bit for bit (a `>=
        // num_gates` test would silently flip small default-window circuits
        // into wide mode and break seed reproducibility).
        let wide = self.spec.locality_window == usize::MAX;
        for (k, &gate_fanin) in fanin.iter().enumerate() {
            start.push(sources.len());
            for slot in 0..gate_fanin {
                let source = if !wide && slot == 0 && !unused.is_empty() {
                    // Guarantee every non-output gate eventually drives something.
                    let pick = rng.gen_range(0..unused.len().min(4));
                    let idx = unused.len() - 1 - pick;
                    SourceRef::Gate(unused.swap_remove(idx))
                } else if k == 0 || rng.gen_bool(self.driver_probability(k, first_output_gate)) {
                    SourceRef::Driver(rng.gen_range(0..num_drivers))
                } else {
                    // Locality-biased choice among earlier non-output gates.
                    let limit = k.min(first_output_gate);
                    if limit == 0 {
                        SourceRef::Driver(rng.gen_range(0..num_drivers))
                    } else {
                        let window = self.spec.locality_window.max(1).min(limit);
                        let lo = limit - window;
                        SourceRef::Gate(rng.gen_range(lo..limit))
                    }
                };
                match source {
                    SourceRef::Driver(d) => driver_fanout[d] += 1,
                    SourceRef::Gate(g) => gate_fanout[g] += 1,
                }
                sources.push(source);
            }
            if k < first_output_gate {
                unused.push(k);
            }
        }

        // ---- 3. Any still-unused non-output gate becomes an extra primary
        // output; compensate by trimming one removable input wire each so the
        // total wire count stays exact. Wide mode maintains no eager
        // guarantee, so it promotes exactly the gates that truly ended up
        // without fanout (the historical pool is kept verbatim otherwise —
        // existing seeds must reproduce bit for bit).
        let extra_outputs: Vec<usize> = if wide {
            unused
                .into_iter()
                .filter(|&g| gate_fanout[g] == 0)
                .collect()
        } else {
            unused
        };
        // Each trim takes the first removable input of the last gate that
        // still has one. Fanout counts and input lists only shrink here, so a
        // gate without a removable input never regains one: gates at or
        // above `cursor` are exhausted for good, and the cursor only moves
        // down.
        let mut cursor = num_gates;
        for _ in &extra_outputs {
            let (k, pos) = loop {
                let Some(k) = cursor.checked_sub(1) else {
                    return Err(NetlistError::InfeasibleSpec {
                        reason: "could not balance wire count; increase wires per gate".into(),
                    });
                };
                if fanin[k] >= 2 {
                    let removable =
                        sources[live(&start, &fanin, k)]
                            .iter()
                            .position(|&source| match source {
                                SourceRef::Driver(d) => driver_fanout[d] >= 2,
                                SourceRef::Gate(g) => gate_fanout[g] >= 2,
                            });
                    if let Some(pos) = removable {
                        break (k, pos);
                    }
                }
                cursor = k;
            };
            // Close the gap: the removed input moves to the gate's first
            // dead slot.
            let gate_inputs = &mut sources[live(&start, &fanin, k)];
            gate_inputs[pos..].rotate_left(1);
            fanin[k] -= 1;
            match gate_inputs[gate_inputs.len() - 1] {
                SourceRef::Driver(d) => driver_fanout[d] -= 1,
                SourceRef::Gate(g) => gate_fanout[g] -= 1,
            }
        }

        // Make sure every driver drives something: steal a slot if needed.
        for (d, fanout) in driver_fanout.iter_mut().enumerate() {
            if *fanout == 0 {
                // Replace a gate-sourced input whose source has other fanout.
                'search: for k in 0..num_gates {
                    for slot in &mut sources[live(&start, &fanin, k)] {
                        if let SourceRef::Gate(g) = *slot {
                            if gate_fanout[g] >= 2 {
                                gate_fanout[g] -= 1;
                                *slot = SourceRef::Driver(d);
                                *fanout += 1;
                                break 'search;
                            }
                        }
                    }
                }
            }
        }

        // ---- 4. Emit the circuit. Every wire has one driving edge, and an
        // input wire one more into its gate.
        let input_wires: usize = fanin.iter().sum();
        let mut builder = CircuitBuilder::with_capacity(
            spec.technology,
            num_drivers + num_gates + num_wires,
            num_wires + input_wires,
        );
        let mut rng_geo = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x9E37_79B9_7F4A_7C15);
        // Every name is formatted into this one buffer; the builder copies
        // it into its name table.
        let mut name = String::new();
        // The builder numbers components in the order they are added, so
        // driver `d`, gate `k` and wire `i` are `first_* + index` and no
        // handle is kept.
        let first_driver = builder.len();
        for d in 0..num_drivers {
            let rd =
                rng_geo.gen_range(spec.driver_resistance_range.0..=spec.driver_resistance_range.1);
            builder.add_driver(numbered(&mut name, "in", d), rd)?;
        }
        let first_gate = builder.len();
        for k in 0..num_gates {
            let kind = *[
                GateKind::Nand,
                GateKind::Nor,
                GateKind::And,
                GateKind::Or,
                GateKind::Inv,
                GateKind::Xor,
                GateKind::Buf,
                GateKind::Xnor,
            ]
            .choose(&mut rng_geo)
            .expect("non-empty gate kind list");
            builder.add_gate(numbered(&mut name, "g", k), kind)?;
        }
        let first_wire = builder.len();
        let gate = |k: usize| BuildNode::new(first_gate + k);
        let mut new_wire = |builder: &mut CircuitBuilder,
                            rng_geo: &mut ChaCha8Rng|
         -> Result<BuildNode, NetlistError> {
            let length = rng_geo.gen_range(spec.wire_length_range.0..=spec.wire_length_range.1);
            let i = builder.len() - first_wire;
            Ok(builder.add_wire(numbered(&mut name, "w", i), length)?)
        };

        for k in 0..num_gates {
            for &source in &sources[live(&start, &fanin, k)] {
                let wire = new_wire(&mut builder, &mut rng_geo)?;
                let src = match source {
                    SourceRef::Driver(d) => BuildNode::new(first_driver + d),
                    SourceRef::Gate(g) => gate(g),
                };
                builder.connect(src, wire)?;
                builder.connect(wire, gate(k))?;
            }
        }
        // The source table is spent: free it before the graph is built.
        drop((sources, start, fanin, gate_fanout, driver_fanout));

        // Primary outputs: designated output gates plus the extra ones.
        for g in (first_output_gate..num_gates).chain(extra_outputs) {
            let wire = new_wire(&mut builder, &mut rng_geo)?;
            let load = rng_geo.gen_range(spec.output_load_range.0..=spec.output_load_range.1);
            builder.connect(gate(g), wire)?;
            builder.connect_output(wire, load)?;
        }

        debug_assert_eq!(
            builder.len() - first_wire,
            num_wires,
            "wire budget must balance exactly"
        );
        let (circuit, mut ids) = builder.build_mapped()?;

        // ---- 5. Routing channels over the wires, which were added last:
        // `ids[first_wire..]` are the wires' nodes in the order they were
        // added. They are shuffled in place and copied once, into the
        // channels' wire list.
        let channel_wires = &mut ids[first_wire..];
        channel_wires.shuffle(&mut rng_geo);
        let channels = Channels::chunked(channel_wires.to_vec(), spec.channel_size.max(2));
        drop(ids);

        // ---- 6. Input patterns.
        let patterns = PatternSet::random_correlated(
            circuit.num_drivers(),
            spec.num_patterns,
            spec.pattern_toggle_probability,
            spec.seed ^ 0x5175_AB1E,
        );

        let geometry = ChannelGeometry {
            pitch: spec.channel_pitch,
            overlap_fraction: spec.overlap_fraction,
            unit_fringing: spec.technology.coupling_fringing_per_um,
        };

        Ok(ProblemInstance {
            name: spec.name.clone(),
            circuit,
            channels,
            geometry,
            patterns,
        })
    }

    /// Probability that an input slot is fed by a primary-input driver rather
    /// than an earlier gate; higher for early gates so the logic cone starts
    /// wide and narrows with depth.
    fn driver_probability(&self, gate_index: usize, first_output_gate: usize) -> f64 {
        if first_output_gate == 0 {
            return 1.0;
        }
        let progress = gate_index as f64 / first_output_gate as f64;
        (0.35 * (1.0 - progress) + 0.08).clamp(0.05, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(gates: usize, wires: usize, seed: u64) -> ProblemInstance {
        SyntheticGenerator::new(CircuitSpec::new("test", gates, wires).with_seed(seed))
            .generate()
            .expect("generation succeeds")
    }

    #[test]
    fn exact_component_counts() {
        for &(g, w) in &[(20usize, 45usize), (50, 100), (214, 426), (546, 1064)] {
            let inst = generate(g, w, 11);
            assert_eq!(inst.circuit.num_gates(), g, "gates for ({g},{w})");
            assert_eq!(inst.circuit.num_wires(), w, "wires for ({g},{w})");
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let a = generate(60, 130, 3);
        let b = generate(60, 130, 3);
        assert_eq!(a.circuit.num_nodes(), b.circuit.num_nodes());
        assert_eq!(a.channels, b.channels);
        assert_eq!(a.patterns, b.patterns);
        let c = generate(60, 130, 4);
        assert!(a.channels != c.channels || a.patterns != c.patterns);
    }

    /// Wide mode is opt-in via the `usize::MAX` sentinel only: any finite
    /// window — even one far beyond the gate count — keeps the historical
    /// generation path, so small circuits under the default window can
    /// never silently flip into wide mode. (For a circuit whose gate count
    /// is below both windows the effective clamp `window.min(limit)` makes
    /// the draws identical, so the two finite specs generate the same
    /// netlist.)
    #[test]
    fn finite_windows_keep_the_historical_path() {
        let small_default = generate(30, 70, 5);
        let small_huge_window = SyntheticGenerator::new(
            CircuitSpec::new("test", 30, 70)
                .with_seed(5)
                .with_locality_window(1_000_000),
        )
        .generate()
        .expect("generation succeeds");
        assert_eq!(
            small_default.channels, small_huge_window.channels,
            "a finite window beyond the gate count must not change generation"
        );
        assert_eq!(
            small_default.circuit.num_nodes(),
            small_huge_window.circuit.num_nodes()
        );
        assert_eq!(
            small_default.circuit.num_edges(),
            small_huge_window.circuit.num_edges()
        );

        // The sentinel does change the shape: wide mode produces a
        // different (shallower) structure.
        let wide = SyntheticGenerator::new(
            CircuitSpec::new("test", 30, 70)
                .with_seed(5)
                .with_locality_window(usize::MAX),
        )
        .generate()
        .expect("generation succeeds");
        assert_eq!(wide.circuit.num_gates(), 30);
        assert_eq!(wide.circuit.num_wires(), 70);
        assert!(
            wide.channels != small_default.channels
                || wide.circuit.num_edges() != small_default.circuit.num_edges(),
            "the sentinel must actually select wide mode"
        );
    }

    #[test]
    fn infeasible_specs_are_rejected() {
        let too_few_wires = CircuitSpec::new("bad", 100, 90);
        assert!(matches!(
            SyntheticGenerator::new(too_few_wires).generate(),
            Err(NetlistError::InfeasibleSpec { .. })
        ));
        let no_gates = CircuitSpec::new("bad", 0, 10);
        assert!(SyntheticGenerator::new(no_gates).generate().is_err());
    }

    #[test]
    fn channels_cover_every_wire_exactly_once() {
        let inst = generate(80, 170, 9);
        let mut seen = std::collections::HashSet::new();
        for channel in inst.channels.iter() {
            for &w in channel {
                assert!(inst.circuit.node(w).kind.is_wire());
                assert!(seen.insert(w), "wire listed twice");
            }
        }
        assert_eq!(seen.len(), inst.circuit.num_wires());
    }

    #[test]
    fn patterns_match_driver_count() {
        let inst = generate(40, 90, 5);
        assert_eq!(inst.patterns.num_inputs(), inst.circuit.num_drivers());
        assert!(!inst.patterns.is_empty());
    }

    #[test]
    fn wire_lengths_are_within_the_requested_range() {
        let spec = CircuitSpec::new("t", 30, 70).with_seed(2);
        let range = spec.wire_length_range;
        let inst = SyntheticGenerator::new(spec).generate().unwrap();
        for id in inst.circuit.wire_ids() {
            let len = inst.wire_length(id);
            assert!(
                len >= range.0 - 1e-9 && len <= range.1 + 1e-9,
                "length {len}"
            );
        }
    }

    #[test]
    fn generated_circuit_is_simulatable() {
        use ncgws_waveform::LogicSimulator;
        let inst = generate(30, 70, 8);
        let sim = LogicSimulator::new(&inst.circuit);
        let trace = sim.simulate(&inst.patterns);
        assert_eq!(trace.num_steps(), inst.patterns.len());
    }

    #[test]
    fn generated_circuit_has_reasonable_depth() {
        use ncgws_circuit::TopologicalOrder;
        let inst = generate(200, 420, 13);
        let depth = TopologicalOrder::of(&inst.circuit).longest_path_len(&inst.circuit);
        assert!(depth > 6, "depth {depth} too shallow");
        assert!(depth < 2 * 200, "depth {depth} suspiciously deep");
    }
}
