//! Pins the synthetic generator's output bit for bit.
//!
//! Every benchmark and golden check downstream runs on generated netlists,
//! so a refactor of the generator or of `CircuitBuilder` that reorders a
//! single edge, renames a node or perturbs an attribute would silently change
//! every workload. Each instance is folded into a 64-bit FNV-1a digest of
//! its node names, kinds, attribute bits, fanin/fanout lists, routing
//! channels and input patterns. A change that moves a digest changes the
//! workloads, and must update the value here on purpose.
//!
//! The JSON encoding of an instance is pinned the same way: it is the
//! format of server journals and snapshots, so the in-memory layout of
//! `CircuitGraph` may change but its serialized bytes may not.
//!
//! FNV-1a is written out by hand because `std`'s `DefaultHasher` does not
//! promise a stable output across Rust releases.

use ncgws_circuit::{GateKind, NodeKind};
use ncgws_netlist::{
    iscas85_spec, xl_spec, xl_wide_spec, CircuitSpec, ProblemInstance, SyntheticGenerator,
};

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn kind_tag(kind: NodeKind) -> u64 {
    match kind {
        NodeKind::Source => 0,
        NodeKind::Driver => 1,
        NodeKind::Wire => 2,
        NodeKind::Sink => 3,
        NodeKind::Gate(g) => {
            let pos = GateKind::ALL
                .iter()
                .position(|&k| k == g)
                .expect("every gate kind is listed");
            16 + pos as u64
        }
    }
}

fn digest(inst: &ProblemInstance) -> u64 {
    let c = &inst.circuit;
    let mut h = Fnv1a::new();
    h.usize(c.num_nodes());
    h.usize(c.num_drivers());
    h.usize(c.num_components());
    for id in c.node_ids() {
        let node = c.node(id);
        h.usize(c.name(id).len());
        h.bytes(c.name(id).as_bytes());
        h.u64(kind_tag(node.kind));
        let a = &node.attrs;
        for v in [
            a.unit_resistance,
            a.unit_capacitance,
            a.fringing_capacitance,
            a.area_coefficient,
            a.lower_bound,
            a.upper_bound,
            a.driver_resistance,
            a.output_load,
        ] {
            h.f64(v);
        }
        for list in [c.fanin(id), c.fanout(id)] {
            h.usize(list.len());
            for &n in list {
                h.usize(n.index());
            }
        }
    }
    h.usize(inst.channels.len());
    for channel in &inst.channels {
        h.usize(channel.len());
        for &w in channel {
            h.usize(w.index());
        }
    }
    h.usize(inst.patterns.num_inputs());
    h.usize(inst.patterns.len());
    for t in 0..inst.patterns.len() {
        for input in 0..inst.patterns.num_inputs() {
            h.bytes(&[u8::from(inst.patterns.bit(t, input))]);
        }
    }
    h.0
}

fn generated_digest(spec: CircuitSpec) -> u64 {
    let inst = SyntheticGenerator::new(spec)
        .generate()
        .expect("generation succeeds");
    digest(&inst)
}

fn json_digest(spec: CircuitSpec) -> u64 {
    let inst = SyntheticGenerator::new(spec)
        .generate()
        .expect("generation succeeds");
    let mut h = Fnv1a::new();
    h.bytes(serde_json::to_string(&inst).unwrap().as_bytes());
    h.0
}

#[test]
fn fnv1a_matches_the_reference_vectors() {
    let mut h = Fnv1a::new();
    h.bytes(b"");
    assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
    let mut h = Fnv1a::new();
    h.bytes(b"a");
    assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    let mut h = Fnv1a::new();
    h.bytes(b"foobar");
    assert_eq!(h.0, 0x8594_4171_f739_67e8);
}

#[test]
fn c432_is_pinned() {
    assert_eq!(
        generated_digest(iscas85_spec("c432").unwrap()),
        0xf938_7b80_4733_938b
    );
}

#[test]
fn c7552_is_pinned() {
    assert_eq!(
        generated_digest(iscas85_spec("c7552").unwrap()),
        0xa283_b279_58dc_8e07
    );
}

#[test]
fn xl10k_is_pinned() {
    assert_eq!(generated_digest(xl_spec(10_000)), 0x4536_c74e_16bb_67cc);
}

#[test]
fn xlw10k_is_pinned() {
    assert_eq!(
        generated_digest(xl_wide_spec(10_000)),
        0xd62b_d481_5c8e_f68f
    );
}

#[test]
fn c432_json_is_pinned() {
    assert_eq!(
        json_digest(iscas85_spec("c432").unwrap()),
        0x4f9f_e3e4_de89_9cf8
    );
}

#[test]
fn xl1k_json_is_pinned() {
    assert_eq!(json_digest(xl_spec(1_000)), 0x6ef5_a27f_b2a6_a035);
}
