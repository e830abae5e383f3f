//! Round trips and rejections for every type that keeps a `Deserialize`
//! decoder: everything a snapshot or a journal line carries.
//!
//! A round trip decodes the encoder's output and re-encodes it; the bytes
//! must be identical (the encoder is deterministic, so byte equality
//! implies field equality). Each invariant a decoder enforces has one
//! rejection case.

use ncgws_circuit::{
    CircuitBuilder, CircuitGraph, GateKind, Node, NodeAttrs, NodeId, NodeKind, Technology,
};
use ncgws_core::{
    AdaptiveSchedule, CheckpointPolicy, CircuitMetrics, ConstraintBounds, ConstraintSpec, Flow,
    Multipliers, OptimizerConfig, OrderingStrategy, ParallelPolicy, RunControl, ScheduleState,
    Snapshot, SnapshotStore, SolveStrategy, StepSchedule, StopReason,
};
use ncgws_netlist::{CircuitSpec, ProblemInstance, SyntheticGenerator};
use ncgws_serve::{JobInput, JobOutcome, JobSpec, RetryPolicy, ServerConfig};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Decodes `value`'s encoding and checks the decoded value re-encodes to
/// the same bytes.
fn round_trip<T: Serialize + Deserialize>(value: &T) -> T {
    let encoded = serde_json::to_string(value).expect("encodes");
    let back: T =
        serde_json::from_str(&encoded).unwrap_or_else(|e| panic!("{e}\nwhile decoding {encoded}"));
    assert_eq!(serde_json::to_string(&back).expect("re-encodes"), encoded);
    back
}

/// The value at `path` (object keys, or array indices as decimal strings).
fn at<'a>(value: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(value, |v, key| match v {
        Value::Object(pairs) => {
            &mut pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no key {key}"))
                .1
        }
        Value::Array(items) => &mut items[key.parse::<usize>().expect("index")],
        other => panic!("cannot descend into {other:?}"),
    })
}

/// Encodes `value`, edits the parsed document, and decodes the result.
fn decode_edited<T: Serialize + Deserialize>(
    value: &T,
    edit: impl FnOnce(&mut Value),
) -> Result<T, serde_json::Error> {
    let mut doc = serde_json::parse(&serde_json::to_string(value).expect("encodes")).unwrap();
    edit(&mut doc);
    serde_json::from_value(&doc)
}

fn generated(gates: usize, wires: usize) -> ProblemInstance {
    SyntheticGenerator::new(CircuitSpec::new("rt", gates, wires).with_num_patterns(8))
        .generate()
        .expect("generation succeeds")
}

fn adaptive_config() -> OptimizerConfig {
    OptimizerConfig::builder()
        .max_iterations(30)
        .max_lrs_sweeps(20)
        .adaptive_schedule()
        .build()
        .expect("valid configuration")
}

/// A real mid-run snapshot under the adaptive strategy (so it carries a
/// schedule state) with a feasible-bound history.
fn snapshot() -> Snapshot {
    let inst = generated(16, 40);
    let store = SnapshotStore::new();
    let control = RunControl::new()
        .with_iteration_budget(3)
        .with_checkpoints(&store, CheckpointPolicy::new().on_interrupt(true));
    let ordered = Flow::prepare(&inst, adaptive_config())
        .expect("prepare")
        .order()
        .expect("order");
    ordered
        .size_with_engine(&mut ordered.engine(), None, &control)
        .expect("killed run");
    store.take().expect("snapshot captured")
}

fn round_trip_spec(spec: &JobSpec) -> JobSpec {
    let back = round_trip(spec);
    back.validate().expect("a valid spec stays valid");
    back
}

#[test]
fn synthetic_spec_round_trips_exactly() {
    let spec = JobSpec::new(
        JobInput::Synthetic(CircuitSpec::new("rt", 40, 20).with_seed(u64::MAX - 3)),
        OptimizerConfig::default(),
    )
    .with_priority(-3)
    .with_tenant("team-a")
    .with_iteration_budget(7)
    .with_attempt_timeout_ms(250)
    .with_retry(RetryPolicy::retries(4).with_seed(99));
    let back = round_trip_spec(&spec);
    match &back.input {
        JobInput::Synthetic(s) => assert_eq!(s.seed, u64::MAX - 3),
        _ => panic!("expected synthetic input"),
    }
}

#[test]
fn instance_spec_round_trips_exactly() {
    let spec = JobSpec::new(
        JobInput::Instance(Box::new(generated(24, 52))),
        OptimizerConfig::default(),
    );
    round_trip_spec(&spec);
}

#[test]
fn stop_reasons_round_trip() {
    for reason in [
        StopReason::Converged,
        StopReason::Stagnated,
        StopReason::IterationLimit,
        StopReason::BudgetExhausted,
        StopReason::Cancelled,
        StopReason::DeadlineExpired,
    ] {
        assert_eq!(round_trip(&reason), reason);
    }
}

/// Every configuration enum variant and option survives a round trip.
#[test]
fn config_variants_round_trip() {
    let configs = [
        OptimizerConfig::default(),
        OptimizerConfig {
            initial_size: Some(1.5),
            absolute_bounds: Some(ConstraintBounds {
                delay: 1e3,
                total_capacitance: 2.5,
                crosstalk: 0.125,
            }),
            step_schedule: StepSchedule::SqrtDecay { scale: 0.5 },
            ordering: OrderingStrategy::Random { seed: u64::MAX },
            extra_constraints: vec![
                ConstraintSpec::PerNetCrosstalk { factor: 1.1 },
                ConstraintSpec::DrivenLoad { factor: 0.9 },
            ],
            solve_strategy: SolveStrategy::Adaptive(AdaptiveSchedule::default()),
            parallel: ParallelPolicy::Level { threads: 3 },
            ..OptimizerConfig::default()
        },
        OptimizerConfig {
            step_schedule: StepSchedule::Constant { scale: 2.0 },
            ordering: OrderingStrategy::BestStartNearestNeighbor,
            ..OptimizerConfig::default()
        },
    ];
    for config in &configs {
        assert_eq!(&round_trip(config), config);
    }
    for ordering in [
        OrderingStrategy::Woss,
        OrderingStrategy::Identity,
        OrderingStrategy::Exact,
    ] {
        assert_eq!(round_trip(&ordering), ordering);
    }
    assert_eq!(
        round_trip(&StepSchedule::Harmonic { scale: 0.25 }),
        StepSchedule::Harmonic { scale: 0.25 }
    );
}

#[test]
fn circuit_parts_round_trip() {
    let inst = generated(12, 30);
    let graph: CircuitGraph = round_trip(&inst.circuit);
    assert_eq!(graph.num_nodes(), inst.circuit.num_nodes());
    assert_eq!(round_trip(&inst.patterns), inst.patterns);
    assert_eq!(round_trip(&inst.geometry), inst.geometry);
    assert_eq!(round_trip(&Technology::dac99()), Technology::dac99());
    assert_eq!(round_trip(&NodeId::new(17)), NodeId::new(17));
    for kind in [
        NodeKind::Source,
        NodeKind::Driver,
        NodeKind::Wire,
        NodeKind::Sink,
        NodeKind::Gate(GateKind::Xnor),
    ] {
        assert_eq!(round_trip(&kind), kind);
    }
    let node = Node {
        kind: NodeKind::Gate(GateKind::Nand),
        attrs: NodeAttrs {
            unit_resistance: 1.0,
            unit_capacitance: 0.1,
            fringing_capacitance: 0.0,
            area_coefficient: 3.0,
            lower_bound: 0.5,
            upper_bound: 4.0,
            driver_resistance: 0.0,
            output_load: 0.0,
        },
    };
    assert_eq!(round_trip(&node), node);
    // A node name that needs escaping, through the graph's name table.
    let name = "g\u{e9}\"0";
    let mut b = CircuitBuilder::new(Technology::dac99());
    let d = b.add_driver("d", 100.0).unwrap();
    let w = b.add_wire("w", 10.0).unwrap();
    let g = b.add_gate(name, GateKind::Nand).unwrap();
    let o = b.add_wire("o", 10.0).unwrap();
    b.connect(d, w).unwrap();
    b.connect(w, g).unwrap();
    b.connect(g, o).unwrap();
    b.connect_output(o, 5.0).unwrap();
    let graph = b.build().unwrap();
    let back = round_trip(&graph);
    let id = back.node_by_name(name).expect("the escaped name decodes");
    assert_eq!(back.name(id), name);
    assert_eq!(Some(id), graph.node_by_name(name));
    assert_eq!(back.node(id), graph.node(id));
}

#[test]
fn snapshot_and_outcome_round_trip() {
    let snapshot = snapshot();
    assert!(
        snapshot.schedule.is_some(),
        "adaptive snapshots carry a schedule"
    );
    assert_eq!(round_trip(&snapshot), snapshot);
    assert_eq!(round_trip(&snapshot.multipliers), snapshot.multipliers);
    let outcome = JobOutcome {
        stop_reason: StopReason::DeadlineExpired,
        iterations: 12,
        attempts: 3,
        resumed_attempts: 2,
        feasible: true,
        final_metrics: Some(CircuitMetrics {
            noise_pf: 0.5,
            delay_ps: 120.0,
            power_mw: 3.25,
            area_um2: 1e4,
            crosstalk_ff: 500.0,
            delay_internal: 1.2e5,
            total_capacitance_ff: 640.0,
        }),
        error: Some("attempt cap".into()),
    };
    round_trip(&outcome);
    round_trip(&JobOutcome {
        final_metrics: None,
        error: None,
        ..outcome
    });
    let server = ServerConfig {
        checkpoint_every: Some(4),
        ..ServerConfig::default()
    };
    round_trip(&server);
    round_trip(&ServerConfig::default());
}

#[test]
fn malformed_specs_are_rejected_not_panicked() {
    let spec = JobSpec::new(
        JobInput::Synthetic(CircuitSpec::new("rt", 10, 5)),
        OptimizerConfig::default(),
    );
    let encoded = serde_json::to_string(&spec).unwrap();
    // Dropping any single field must produce Err, never panic.
    for cut in ["\"priority\":0,", "\"tenant\":\"default\",", "\"retry\":"] {
        let mangled = encoded.replacen(cut, "\"x\":0,", 1);
        assert!(
            serde_json::from_str::<JobSpec>(&mangled).is_err(),
            "cut {cut}"
        );
    }
    assert!(serde_json::from_str::<JobSpec>("null").is_err());
    assert!(serde_json::from_str::<StopReason>("true").is_err());
    // Decoding checks shapes; `validate` checks ranges.
    let negative_gap = encoded.replacen("\"gap_tolerance\":0.01", "\"gap_tolerance\":-0.01", 1);
    assert_ne!(negative_gap, encoded);
    let decoded: JobSpec = serde_json::from_str(&negative_gap).expect("shape is fine");
    assert!(decoded.validate().is_err());
    let bad_tech = encoded.replacen("\"supply_voltage\":", "\"supply_voltage\":-", 1);
    let decoded: JobSpec = serde_json::from_str(&bad_tech).expect("shape is fine");
    assert!(decoded.validate().is_err());
}

#[test]
fn u32_offsets_overflow_is_rejected() {
    let snapshot = snapshot();
    let err = decode_edited(&snapshot, |doc| {
        *at(doc, &["multipliers", "offsets", "1"]) = Value::Int(i128::from(u32::MAX) + 1);
    })
    .unwrap_err();
    assert!(err.to_string().contains("out of range for u32"), "{err}");
}

#[test]
fn i32_priority_overflow_is_rejected() {
    let spec = JobSpec::new(
        JobInput::Synthetic(CircuitSpec::new("rt", 10, 5)),
        OptimizerConfig::default(),
    );
    let err = decode_edited(&spec, |doc| {
        *at(doc, &["priority"]) = Value::Int(i128::from(i32::MAX) + 1);
    })
    .unwrap_err();
    assert!(err.to_string().contains("JobSpec.priority"), "{err}");
    assert!(decode_edited(&spec, |doc| *at(doc, &["priority"]) =
        Value::Int(i32::MIN.into()))
    .is_ok());
}

#[test]
fn pattern_width_mismatch_is_rejected() {
    let inst = generated(12, 30);
    let err = decode_edited(&inst, |doc| {
        let Value::Array(bits) = at(doc, &["patterns", "vectors", "0"]) else {
            panic!("vector is an array");
        };
        bits.pop();
    })
    .unwrap_err();
    assert!(err.to_string().contains("bits, expected"), "{err}");
}

#[test]
fn out_of_range_channel_wire_is_rejected() {
    let inst = generated(12, 30);
    let nodes = inst.circuit.num_nodes() as i128;
    let err = decode_edited(&inst, |doc| {
        *at(doc, &["channels", "0", "0"]) = Value::Int(nodes);
    })
    .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn broken_fanin_fanout_mirror_is_rejected() {
    let inst = generated(12, 30);
    // Point the first fanout edge of the source somewhere its fanin list
    // does not mirror.
    let err = decode_edited(&inst.circuit, |doc| {
        let last = match at(doc, &["fanout", "0"]) {
            Value::Array(outs) => outs.len() - 1,
            _ => panic!("fanout list is an array"),
        };
        let target = at(doc, &["fanout", "0", &last.to_string()]);
        let Value::Int(v) = *target else {
            panic!("node index is an integer");
        };
        *target = Value::Int(v + 1);
    })
    .unwrap_err();
    assert!(err.to_string().contains("invalid circuit graph"), "{err}");
}

#[test]
fn calm_frozen_length_mismatch_is_rejected() {
    let state = ScheduleState {
        calm: vec![1, 2, 3],
        frozen: vec![true, false, false],
        global_sweep: 9,
    };
    assert_eq!(round_trip(&state), state);
    let err = decode_edited(&state, |doc| {
        let Value::Array(frozen) = at(doc, &["frozen"]) else {
            panic!("frozen is an array");
        };
        frozen.pop();
    })
    .unwrap_err();
    assert!(err.to_string().contains("calm counters"), "{err}");
}

#[test]
fn null_in_a_required_f64_is_rejected() {
    // The encoder writes NaN as `null`; a plain f64 field refuses it.
    let metrics = CircuitMetrics {
        noise_pf: f64::NAN,
        delay_ps: 1.0,
        power_mw: 1.0,
        area_um2: 1.0,
        crosstalk_ff: 1.0,
        delay_internal: 1.0,
        total_capacitance_ff: 1.0,
    };
    let err = serde_json::from_str::<CircuitMetrics>(&serde_json::to_string(&metrics).unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("CircuitMetrics.noise_pf"), "{err}");
    let multipliers = snapshot().multipliers;
    assert!(decode_edited(&multipliers, |doc| *at(doc, &["beta"]) = Value::Null).is_err());
    // An `Option<f64>` takes `null` as `None`.
    let snapshot = snapshot();
    let back = decode_edited(&snapshot, |doc| {
        *at(doc, &["best_dual"]) = Value::Null;
    })
    .expect("null is None");
    assert_eq!(back.best_dual, None);
    assert!(Multipliers::from_parts(vec![], vec![1], 0.0, 0.0, vec![]).is_err());
}

/// A job line as written before the adaptive schedule lost its three
/// always-on switches (`warm_start`, `active_set`, `incremental`).
const SPEC_WITH_RETIRED_SCHEDULE_KEYS: &str = concat!(
    r#"{"input":{"Synthetic":{"name":"rt","num_gates":10,"num_wires":5,"seed":229382553,"#,
    r#""technology":{"supply_voltage":3.3,"frequency":200000000.0,"gate_unit_resistance":10.0,"#,
    r#""gate_unit_capacitance":0.16,"gate_area_coefficient":4.0,"wire_unit_resistance":0.07,"#,
    r#""wire_unit_capacitance":0.024,"wire_fringing_per_um":0.01,"wire_area_coefficient":1.0,"#,
    r#""coupling_fringing_per_um":0.03,"min_size":0.1,"max_size":10.0,"#,
    r#""default_driver_resistance":100.0,"default_output_load":10.0},"max_fanin":4,"#,
    r#""wire_length_range":[25.0,400.0],"driver_resistance_range":[80.0,250.0],"#,
    r#""output_load_range":[4.0,20.0],"channel_size":10,"channel_pitch":11.0,"#,
    r#""overlap_fraction":0.6,"num_patterns":128,"pattern_toggle_probability":0.35,"#,
    r#""locality_window":64}},"config":{"initial_size":null,"delay_bound_factor":1.0,"#,
    r#""power_bound_factor":0.13,"crosstalk_bound_factor":0.115,"absolute_bounds":null,"#,
    r#""max_iterations":100,"gap_tolerance":0.01,"step_schedule":{"SqrtDecay":{"scale":8.0}},"#,
    r#""max_lrs_sweeps":50,"lrs_tolerance":0.000001,"ordering":"Woss","#,
    r#""effective_coupling":false,"initial_edge_multiplier":1.0,"#,
    r#""initial_scalar_multiplier":1.0,"extra_constraints":[],"#,
    r#""solve_strategy":{"Adaptive":{"warm_start":true,"active_set":true,"#,
    r#""freeze_tolerance":0.001,"freeze_after":1,"verify_every":8,"incremental":true}},"#,
    r#""parallel":"Sequential"},"priority":0,"tenant":"default","iteration_budget":null,"#,
    r#""attempt_timeout_ms":null,"retry":{"max_retries":0,"base_delay_ms":0,"#,
    r#""multiplier":1.0,"max_delay_ms":0,"jitter":0.0,"seed":0}}"#,
);

#[test]
fn a_spec_with_the_retired_schedule_switches_still_decodes() {
    let spec: JobSpec =
        serde_json::from_str(SPEC_WITH_RETIRED_SCHEDULE_KEYS).expect("older job lines decode");
    spec.validate().expect("the decoded spec is valid");
    assert_eq!(spec.config.solve_strategy, SolveStrategy::adaptive());
    // Re-encoding writes only the three numeric tuning fields.
    let encoded = serde_json::to_string(&spec).expect("encodes");
    assert!(encoded.contains(
        r#""solve_strategy":{"Adaptive":{"freeze_tolerance":0.001,"freeze_after":1,"verify_every":8}}"#
    ));
    assert_eq!(
        encoded,
        SPEC_WITH_RETIRED_SCHEDULE_KEYS
            .replace(r#""warm_start":true,"active_set":true,"#, "")
            .replace(r#","incremental":true"#, "")
    );
}
