//! One mutation/truncation harness over every untrusted input the
//! workspace reads back: snapshot JSON, server journal lines and the text
//! netlist format.
//!
//! * Any single-byte mutation either fails to decode (`Err`) or decodes to
//!   a value that passes its validation — never a panic, never an
//!   out-of-bounds index later on.
//! * Every strict prefix of a JSON document is an error.
//!
//! The fixtures are real artifacts: a mid-run checkpoint, and the journal
//! lines a durable server wrote while running one synthetic and one
//! prepared-instance job.

use std::sync::OnceLock;

use ncgws::circuit::NodeId;
use ncgws::core::{build_coupling, CoreError, OptimizerConfig, OrderingStrategy, RunControl};
use ncgws::coupling::{CouplingError, CouplingPair, CouplingSet, WirePairGeometry};
use ncgws::netlist::format::{parse_instance, write_instance};
use ncgws::netlist::{CircuitSpec, NetlistError, PatternSet, ProblemInstance, SyntheticGenerator};
use ncgws::serve::store::JOURNAL_FILE;
use ncgws::{
    CheckpointPolicy, Flow, JobInput, JobOutcome, JobSpec, Server, ServerConfig, Snapshot,
    SnapshotStore,
};
use proptest::prelude::*;
use serde_json::Value;

fn instance(seed: u64, gates: usize) -> ProblemInstance {
    SyntheticGenerator::new(
        CircuitSpec::new(format!("ckpt-{seed}"), gates, gates * 2 + 10)
            .with_seed(seed)
            .with_num_patterns(16),
    )
    .generate()
    .expect("generation succeeds")
}

fn quick_config() -> OptimizerConfig {
    OptimizerConfig::builder()
        .max_iterations(30)
        .max_lrs_sweeps(20)
        .build()
        .expect("valid configuration")
}

/// Snapshot JSON for the mutation property below, built once (a real
/// mid-run checkpoint, not a synthetic document).
fn mutation_fixture() -> &'static (ProblemInstance, String) {
    static FIXTURE: OnceLock<(ProblemInstance, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let inst = instance(3, 18);
        let store = SnapshotStore::new();
        let control = RunControl::new()
            .with_iteration_budget(2)
            .with_checkpoints(&store, CheckpointPolicy::new().on_interrupt(true));
        let ordered = Flow::prepare(&inst, quick_config())
            .expect("prepare")
            .order()
            .expect("order");
        ordered
            .size_with_engine(&mut ordered.engine(), None, &control)
            .expect("killed run");
        let json = store.take().expect("snapshot captured").to_json();
        (inst, json)
    })
}

/// Journal lines written by a real durable server: the `server` entry, a
/// `submitted` entry with a Synthetic spec, one with an Instance spec, and
/// a `completed` entry with its outcome.
fn journal_fixture() -> &'static [String; 4] {
    static FIXTURE: OnceLock<[String; 4]> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("ncgws-untrusted-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            workers: 1,
            checkpoint_every: Some(3),
            ..ServerConfig::default()
        };
        let server = Server::start_durable(&dir, config).expect("durable server");
        let synthetic = JobSpec::new(
            JobInput::Synthetic(CircuitSpec::new("synthetic", 12, 30).with_num_patterns(8)),
            quick_config(),
        )
        .with_tenant("tenant-é")
        .with_priority(-2)
        .with_iteration_budget(5);
        let prepared = JobSpec::new(
            JobInput::Instance(Box::new(instance(5, 10))),
            quick_config(),
        );
        for spec in [synthetic, prepared] {
            let id = server.submit(spec).expect("submitted");
            server.wait(id).expect("finished");
        }
        server.drain();
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal written");
        let _ = std::fs::remove_dir_all(&dir);
        let find = |pred: &dyn Fn(&str) -> bool| {
            text.lines()
                .find(|line| pred(line))
                .expect("journal has the entry")
                .to_string()
        };
        [
            find(&|l| l.starts_with("{\"entry\":\"server\"")),
            find(&|l| l.contains("\"spec\":{\"input\":{\"Synthetic\"")),
            find(&|l| l.contains("\"spec\":{\"input\":{\"Instance\"")),
            find(&|l| l.starts_with("{\"entry\":\"completed\"")),
        ]
    })
}

/// Decodes a journal line with the decoders and checks `Server::recover`
/// applies. A spec that decodes and validates must also survive the
/// optimizer's preparation (a prepared instance is run through stage 1).
fn decode_journal_line(line: &str) -> Result<(), String> {
    let entry = serde_json::parse(line).map_err(|e| e.to_string())?;
    let field = |key: &str| entry.get(key).ok_or(format!("missing `{key}`"));
    let decode_err = |e: serde_json::Error| e.to_string();
    match entry.get("entry").and_then(Value::as_str) {
        Some("server") => {
            serde_json::from_value::<ServerConfig>(&entry).map_err(decode_err)?;
        }
        Some("submitted") => {
            let spec: JobSpec = serde_json::from_value(field("spec")?).map_err(decode_err)?;
            spec.validate()?;
            if let JobInput::Instance(instance) = &spec.input {
                let _ = Flow::prepare(instance, spec.config.clone()).and_then(|p| p.order());
            }
        }
        Some("completed") => {
            serde_json::from_value::<JobOutcome>(field("outcome")?).map_err(decode_err)?;
        }
        _ => return Err("unknown entry".into()),
    }
    Ok(())
}

/// Text netlist for the mutation property below.
fn netlist_fixture() -> &'static str {
    static FIXTURE: OnceLock<String> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = CircuitSpec::new("netlist", 10, 24).with_num_patterns(8);
        let inst = SyntheticGenerator::new(spec).generate().expect("generated");
        write_instance(&inst, (8, 0.35, 7))
    })
}

/// Replaces byte `pos % len` with `byte`; `None` when that breaks UTF-8.
fn mutate(text: &str, pos: usize, byte: u8) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    let pos = pos % bytes.len();
    bytes[pos] = byte;
    String::from_utf8(bytes).ok()
}

#[test]
fn fixtures_decode_unmutated() {
    let (inst, json) = mutation_fixture();
    let snapshot = Snapshot::from_json(json).expect("snapshot decodes");
    snapshot.validate_for(&inst.circuit).expect("snapshot fits");
    for line in journal_fixture() {
        decode_journal_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    let parsed = parse_instance(netlist_fixture()).expect("netlist parses");
    let json = serde_json::to_string(&parsed).expect("encodes");
    serde_json::from_str::<ProblemInstance>(&json).expect("parsed netlist decodes from JSON");
}

/// Every strict prefix of every journal line is an error.
#[test]
fn every_strict_prefix_of_a_journal_line_is_an_error() {
    for line in journal_fixture() {
        for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            assert!(
                decode_journal_line(&line[..cut]).is_err(),
                "prefix of {} bytes decoded",
                cut
            );
        }
    }
}

/// Two nodes sharing a name would leave `node_by_name` resolving to
/// whichever came last, so a graph with a duplicated name is rejected.
#[test]
fn duplicate_node_names_are_rejected() {
    let (inst, _) = mutation_fixture();
    let json = serde_json::to_string(inst).expect("encodes");
    serde_json::from_str::<ProblemInstance>(&json).expect("unmutated instance decodes");
    let renamed = json.replacen(r#""name":"g0""#, r#""name":"in0""#, 1);
    assert_ne!(renamed, json, "the fixture has a gate named g0");
    let Err(err) = serde_json::from_str::<ProblemInstance>(&renamed) else {
        panic!("a duplicated node name must not decode");
    };
    assert!(err.to_string().contains("duplicate"), "{err}");
}

/// A node id beyond 32 bits in a graph's fanin decodes to an error: the
/// integer decoder range-checks it before any id is made.
#[test]
fn a_fanin_id_beyond_32_bits_is_an_error() {
    let (inst, _) = mutation_fixture();
    let json = serde_json::to_string(inst).expect("encodes");
    let huge = json.replacen(r#""fanin":[[],[0]"#, r#""fanin":[[],[4294967296]"#, 1);
    assert_ne!(
        huge, json,
        "the fixture's first driver is fed by the source"
    );
    let Err(err) = serde_json::from_str::<ProblemInstance>(&huge) else {
        panic!("a 33-bit node id must not decode");
    };
    assert!(err.to_string().contains("out of range"), "{err}");
}

/// A driver has no unit resistance, and the graph keeps only its driver
/// resistance, so a graph whose driver carries one decodes to an error
/// rather than dropping it.
#[test]
fn a_driver_with_a_unit_resistance_is_an_error() {
    let (inst, _) = mutation_fixture();
    let json = serde_json::to_string(inst).expect("encodes");
    let driver = json
        .find(r#"{"kind":"Driver","#)
        .expect("the fixture has a driver");
    let field = r#""unit_resistance":0.0"#;
    let at = driver
        + json[driver..]
            .find(field)
            .expect("the driver has attributes");
    let carried = format!(
        r#"{}"unit_resistance":5.0{}"#,
        &json[..at],
        &json[at + field.len()..]
    );
    let Err(err) = serde_json::from_str::<ProblemInstance>(&carried) else {
        panic!("a driver's unit resistance must not decode");
    };
    assert!(err.to_string().contains("unit_resistance"), "{err}");
}

/// A switching factor is a public field, and `f64::clamp` in
/// `with_switching_factor` lets a NaN through, so the coupling set checks
/// every factor itself: one that is not finite or lies outside `[0, 2]` is
/// a typed error, never a NaN in the crosstalk sums.
#[test]
fn a_switching_factor_outside_zero_to_two_is_an_error() {
    let (inst, _) = mutation_fixture();
    let graph = &inst.circuit;
    let channel = inst
        .channels
        .iter()
        .find(|c| c.len() >= 2)
        .expect("the fixture has a channel of two wires");
    let (a, b) = (channel[0], channel[1]);
    let geometry = WirePairGeometry::new(10.0, inst.geometry.pitch, inst.geometry.unit_fringing)
        .expect("valid geometry");
    let pair = CouplingPair::new(a, b, geometry).expect("distinct wires");
    assert!(CouplingSet::new(graph, vec![pair]).is_ok());
    for factor in [f64::NAN, -1.0, 3.0] {
        let mut bad = pair;
        bad.switching_factor = factor;
        match CouplingSet::new(graph, vec![bad]) {
            Err(CouplingError::InvalidSwitchingFactor { value, .. }) => {
                assert_eq!(value.to_bits(), factor.to_bits());
            }
            other => panic!("factor {factor} must not build a coupling set: {other:?}"),
        }
        // The clamping builder maps the finite ones into range; a NaN stays
        // NaN and is still rejected.
        let clamped = pair.with_switching_factor(factor);
        assert_eq!(
            CouplingSet::new(graph, vec![clamped]).is_ok(),
            !factor.is_nan(),
            "factor {factor}"
        );
    }
}

/// The logic simulation reads one pattern row per driver, so an instance
/// whose pattern set is narrower than the circuit's driver count is a typed
/// decode error, not a panic later in stage 1.
/// `json` with a minus sign before the value of `field` in the first node
/// whose JSON starts with `kind` and whose value of `field` is not zero.
fn negate_in_first(json: &str, kind: &str, field: &str) -> String {
    let key = format!(r#""{field}":"#);
    let mut from = 0;
    while let Some(start) = json[from..].find(kind).map(|at| from + at) {
        let end = json[start..].find("}}").map_or(json.len(), |at| start + at);
        if let Some(at) = json[start..end].find(&key).map(|at| start + at + key.len()) {
            if !json[at..].starts_with("0.0") {
                return format!("{}-{}", &json[..at], &json[at..]);
            }
        }
        from = start + kind.len();
    }
    panic!("no {kind} node with a nonzero {field}");
}

/// The builder computes every physical attribute from a validated
/// technology, so it never writes one out of range; a decoded graph is
/// checked for the same: a negative unit resistance, unit capacitance,
/// area coefficient, fringing capacitance, driver resistance or output
/// load fails to decode, naming the field. Unchecked, a gate with
/// `unit_resistance` `-10.0` solved as feasible with a nonsense delay.
#[test]
fn physical_attributes_out_of_range_are_errors() {
    let (inst, _) = mutation_fixture();
    let json = serde_json::to_string(inst).expect("encodes");
    let (gate, wire, driver) = (
        r#"{"kind":{"Gate":"#,
        r#"{"kind":"Wire","#,
        r#"{"kind":"Driver","#,
    );
    for (kind, field) in [
        (gate, "unit_resistance"),
        (gate, "unit_capacitance"),
        (gate, "area_coefficient"),
        (wire, "unit_resistance"),
        (wire, "unit_capacitance"),
        (wire, "area_coefficient"),
        (wire, "fringing_capacitance"),
        (driver, "driver_resistance"),
        (r#"{"kind":"#, "output_load"),
    ] {
        let negated = negate_in_first(&json, kind, field);
        let Err(err) = serde_json::from_str::<ProblemInstance>(&negated) else {
            panic!("a negative {field} on {kind} must not decode");
        };
        let err = err.to_string();
        assert!(
            err.contains(&format!("parameter {field} ")),
            "{field}: {err}"
        );
    }
}

#[test]
fn a_pattern_width_other_than_the_driver_count_is_an_error() {
    let mut inst = instance(5, 20);
    let drivers = inst.circuit.num_drivers();
    inst.patterns = PatternSet::random(drivers - 1, 16, 5);
    let json = serde_json::to_string(&inst).expect("encodes");
    let Err(err) = serde_json::from_str::<ProblemInstance>(&json) else {
        panic!(
            "a pattern set of {} inputs for {drivers} drivers must not decode",
            drivers - 1
        );
    };
    assert!(err.to_string().contains("drivers"), "{err}");
}

/// An instance built in code (its fields are public) gets the checks the
/// decoder makes, from `Flow::prepare` and `build_coupling`: a pattern set
/// narrower than the driver count is a typed error, not a panic in the
/// logic simulation, and the decoder reports the same error.
#[test]
fn an_instance_built_in_code_with_narrow_patterns_is_a_typed_error() {
    let mut inst = instance(1, 20);
    let drivers = inst.circuit.num_drivers();
    inst.patterns = PatternSet::random(drivers - 1, 16, 1);
    let expected = NetlistError::PatternWidth {
        inputs: drivers - 1,
        drivers,
    }
    .to_string();
    let err = inst.validate().expect_err("the instance is inconsistent");
    assert_eq!(err.to_string(), expected);
    match Flow::prepare(&inst, quick_config()) {
        Err(CoreError::Instance(NetlistError::PatternWidth { inputs, drivers: d })) => {
            assert_eq!((inputs, d), (drivers - 1, drivers));
        }
        other => panic!("expected a pattern-width error, got {other:?}"),
    }
    let err = build_coupling(&inst, OrderingStrategy::Woss, false).expect_err("inconsistent");
    assert!(matches!(
        err,
        CoreError::Instance(NetlistError::PatternWidth { .. })
    ));
    let json = serde_json::to_string(&inst).expect("encodes");
    let err = serde_json::from_str::<ProblemInstance>(&json).expect_err("inconsistent");
    assert!(err.to_string().contains(&expected), "{err}");
}

/// A channel wire outside the circuit, in an instance built in code, is a
/// typed error before stage 1 indexes the trace with it.
#[test]
fn an_instance_built_in_code_with_an_out_of_range_channel_wire_is_a_typed_error() {
    let mut inst = instance(1, 20);
    let beyond = NodeId::new(inst.circuit.num_nodes());
    inst.channels = inst
        .channels
        .iter()
        .enumerate()
        .map(|(c, wires)| {
            let mut wires = wires.to_vec();
            if c == 1 {
                wires.push(beyond);
            }
            wires
        })
        .collect();
    match Flow::prepare(&inst, quick_config()) {
        Err(CoreError::Instance(NetlistError::ChannelWireOutOfRange { channel, wire })) => {
            assert_eq!((channel, wire), (1, beyond));
        }
        other => panic!("expected an out-of-range error, got {other:?}"),
    }
    let err = build_coupling(&inst, OrderingStrategy::Woss, true).expect_err("inconsistent");
    assert!(matches!(
        err,
        CoreError::Instance(NetlistError::ChannelWireOutOfRange { .. })
    ));
    let json = serde_json::to_string(&inst).expect("encodes");
    let err = serde_json::from_str::<ProblemInstance>(&json).expect_err("inconsistent");
    assert!(err.to_string().contains("out of range"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Robustness: arbitrary single-byte mutations of a valid snapshot
    /// document either fail to parse (`Err`) or produce a snapshot that
    /// still answers `validate_for` — never a panic, never an
    /// out-of-bounds resume. Truncations must always be rejected.
    #[test]
    fn mutated_snapshot_json_never_panics(pos in 0usize..100_000, byte in 0u8..=255u8, cut in 0usize..100_000) {
        let (inst, json) = mutation_fixture();

        // Single-byte mutation (any value, any position).
        let mut bytes = json.clone().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        if let Ok(text) = String::from_utf8(bytes) {
            if let Ok(snapshot) = Snapshot::from_json(&text) {
                // A mutation that survives parsing (e.g. a flipped digit)
                // must still be safe to screen: validation may accept or
                // reject it, but must not panic or index out of bounds.
                let _ = snapshot.validate_for(&inst.circuit);
            }
        }

        // Any strict prefix is an incomplete document: always an error.
        let cut = cut % json.len();
        if json.is_char_boundary(cut) {
            prop_assert!(Snapshot::from_json(&json[..cut]).is_err());
        }
    }

    /// Single-byte mutations of each journal line decode to an error or
    /// to values that pass recovery's checks, without panicking.
    #[test]
    fn mutated_journal_lines_never_panic(pos in 0usize..100_000, byte in 0u8..=255u8) {
        for line in journal_fixture() {
            if let Some(text) = mutate(line, pos, byte) {
                let _ = decode_journal_line(&text);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Single-byte mutations of a text netlist parse to an error or to an
    /// instance that passes the JSON decoder's validation (graph wiring,
    /// channel range, pattern widths) — never a panic.
    #[test]
    fn mutated_netlist_text_never_panics(pos in 0usize..100_000, byte in 0u8..=255u8) {
        if let Some(text) = mutate(netlist_fixture(), pos, byte) {
            if let Ok(parsed) = parse_instance(&text) {
                let json = serde_json::to_string(&parsed).expect("encodes");
                let decoded = serde_json::from_str::<ProblemInstance>(&json);
                prop_assert!(decoded.is_ok(), "{:?}", decoded.err());
            }
        }
    }
}
