//! Pins stage 1 bit for bit at every thread policy.
//!
//! Stage 1 orders each routing channel on its own, so it runs the channels
//! on the solve's worker pool. Where a channel runs must never change what
//! it computes: each channel's ordered wires, its ordering cost, the
//! coupling pairs built from the orderings and the per-wire linear sums are
//! folded into one 64-bit FNV-1a digest, in channel order, and the digest
//! must match the recorded value under `Sequential`, `threads(1)`,
//! `threads(2)` and `threads(8)`, in physical and in effective-coupling
//! mode. The values were recorded before stage 1 moved onto the pool; a
//! change that moves one changes every workload downstream.
//!
//! FNV-1a is written out by hand, as in `generator_hash.rs`, because
//! `std`'s `DefaultHasher` does not promise a stable output.

use ncgws::core::{Flow, OptimizerConfig, ParallelPolicy, WireOrderingOutcome};
use ncgws::netlist::{
    iscas85_spec, xl_wide_spec, CircuitSpec, ProblemInstance, SyntheticGenerator,
};

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(outcome: &WireOrderingOutcome) -> u64 {
    let mut h = Fnv1a::new();
    h.usize(outcome.num_channels());
    for (wires, &cost) in outcome.channels().zip(outcome.costs()) {
        h.usize(wires.len());
        for &wire in wires {
            h.usize(wire.index());
        }
        h.f64(cost);
    }
    h.f64(outcome.total_effective_loading);
    let coupling = &outcome.coupling;
    h.usize(coupling.len());
    for pair in coupling.pairs() {
        h.usize(pair.a.index());
        h.usize(pair.b.index());
        h.f64(pair.base_capacitance());
        h.f64(pair.distance());
        h.f64(pair.switching_factor);
    }
    for &sum in coupling.linear_coefficient_sums() {
        h.f64(sum);
    }
    h.0
}

fn generate(spec: CircuitSpec) -> ProblemInstance {
    SyntheticGenerator::new(spec)
        .generate()
        .expect("generation succeeds")
}

/// Asserts the stage-1 digests of `instance`, `[physical, effective]`, at
/// every policy.
fn assert_pinned(name: &str, instance: &ProblemInstance, expected: [u64; 2]) {
    for policy in [
        ParallelPolicy::Sequential,
        ParallelPolicy::threads(1),
        ParallelPolicy::threads(2),
        ParallelPolicy::threads(8),
    ] {
        for (effective, want) in [false, true].into_iter().zip(expected) {
            let config = OptimizerConfig {
                parallel: policy,
                effective_coupling: effective,
                ..OptimizerConfig::default()
            };
            let ordered = Flow::prepare(instance, config)
                .expect("prepare")
                .order()
                .expect("order");
            let got = digest(ordered.ordering());
            println!("stage1 {name} {policy:?} effective={effective}: {got:#018x}");
            assert_eq!(got, want, "{name} {policy:?} effective={effective}");
        }
    }
}

#[test]
fn c432_stage1_is_pinned() {
    assert_pinned(
        "c432",
        &generate(iscas85_spec("c432").unwrap()),
        [0x7850_62b6_6a51_98f9, 0x32da_b05b_68f7_bb85],
    );
}

#[test]
fn c7552_stage1_is_pinned() {
    assert_pinned(
        "c7552",
        &generate(iscas85_spec("c7552").unwrap()),
        [0xf99c_21ef_16aa_4716, 0x2ea2_b446_97cc_8b00],
    );
}

#[test]
fn xlw10k_stage1_is_pinned() {
    assert_pinned(
        "xlw10k",
        &generate(xl_wide_spec(10_000)),
        [0xb1da_141d_311f_6249, 0xedbe_e1f4_6359_fbf4],
    );
}
