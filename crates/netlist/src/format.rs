//! A small line-oriented text netlist format.
//!
//! The format exists so externally prepared circuits (for example real
//! ISCAS85 translations) can be dropped into the flow without recompiling.
//! It is deliberately simple:
//!
//! ```text
//! # comment
//! circuit c17
//! driver   in0 120.0
//! gate     g0  nand
//! wire     w0  85.0
//! connect  in0 w0
//! connect  w0  g0
//! output   w3  6.0
//! channel  w0 w3 w7
//! geometry 14.0 0.6 0.03
//! patterns 64 0.35 12345
//! ```
//!
//! * `driver NAME RD` — input driver with resistance RD (Ω)
//! * `gate NAME KIND` — KIND ∈ buf, inv, and, or, nand, nor, xor, xnor
//! * `wire NAME LENGTH` — wire of LENGTH µm
//! * `connect FROM TO` — data flows FROM → TO
//! * `output NAME LOAD` — NAME drives a primary output with LOAD fF
//! * `channel NAME…` — the listed wires share a routing channel
//! * `geometry PITCH OVERLAP FRINGING` — channel geometry
//! * `patterns COUNT TOGGLE SEED` — correlated random input vectors
//!
//! The default [`Technology`] is used; everything
//! else round-trips exactly through [`write_instance`] / [`parse_instance`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;

use ncgws_circuit::builder::BuildNode;
use ncgws_circuit::{CircuitBuilder, CircuitError, GateKind, NodeKind, Technology};
use ncgws_waveform::PatternSet;

use crate::error::NetlistError;
use crate::instance::{ChannelGeometry, ProblemInstance};

fn gate_kind_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Buf => "buf",
        GateKind::Inv => "inv",
        GateKind::And => "and",
        GateKind::Or => "or",
        GateKind::Nand => "nand",
        GateKind::Nor => "nor",
        GateKind::Xor => "xor",
        GateKind::Xnor => "xnor",
    }
}

fn parse_gate_kind(s: &str) -> Option<GateKind> {
    Some(match s {
        "buf" => GateKind::Buf,
        "inv" => GateKind::Inv,
        "and" => GateKind::And,
        "or" => GateKind::Or,
        "nand" => GateKind::Nand,
        "nor" => GateKind::Nor,
        "xor" => GateKind::Xor,
        "xnor" => GateKind::Xnor,
        _ => return None,
    })
}

/// Records `node` as the component added under `name`.
///
/// # Errors
///
/// [`CircuitError::DuplicateName`] when the name is already taken, so a
/// repeated name is reported at its second line.
fn record<'a>(
    handles: &mut HashMap<&'a str, BuildNode>,
    name: &'a str,
    node: BuildNode,
) -> Result<(), CircuitError> {
    match handles.entry(name) {
        Entry::Occupied(_) => Err(CircuitError::DuplicateName(name.to_string())),
        Entry::Vacant(slot) => {
            slot.insert(node);
            Ok(())
        }
    }
}

/// Serializes a problem instance to the text format.
///
/// Patterns are written as a `patterns` directive only when they were
/// generated with known parameters; explicit pattern vectors are not
/// serialized (they are reproducible from the directive).
pub fn write_instance(instance: &ProblemInstance, pattern_directive: (usize, f64, u64)) -> String {
    let circuit = &instance.circuit;
    let mut out = String::new();
    let _ = writeln!(out, "# ncgws netlist");
    let _ = writeln!(out, "circuit {}", instance.name);
    for id in circuit.driver_ids() {
        let node = circuit.node(id);
        let _ = writeln!(
            out,
            "driver {} {}",
            circuit.name(id),
            node.attrs.driver_resistance
        );
    }
    for id in circuit.component_ids() {
        let node = circuit.node(id);
        match node.kind {
            NodeKind::Gate(kind) => {
                let _ = writeln!(out, "gate {} {}", circuit.name(id), gate_kind_name(kind));
            }
            NodeKind::Wire => {
                let _ = writeln!(
                    out,
                    "wire {} {}",
                    circuit.name(id),
                    instance.wire_length(id)
                );
            }
            _ => {}
        }
    }
    for id in circuit.node_ids() {
        for &succ in circuit.fanout(id) {
            if id == circuit.source() || succ == circuit.sink() {
                continue;
            }
            let _ = writeln!(out, "connect {} {}", circuit.name(id), circuit.name(succ));
        }
    }
    for &id in circuit.primary_output_drivers() {
        let _ = writeln!(
            out,
            "output {} {}",
            circuit.name(id),
            circuit.output_load(id)
        );
    }
    for channel in instance.channels.iter() {
        if channel.is_empty() {
            continue;
        }
        let names: Vec<&str> = channel.iter().map(|&w| circuit.name(w)).collect();
        let _ = writeln!(out, "channel {}", names.join(" "));
    }
    let g = instance.geometry;
    let _ = writeln!(
        out,
        "geometry {} {} {}",
        g.pitch, g.overlap_fraction, g.unit_fringing
    );
    let (count, toggle, seed) = pattern_directive;
    let _ = writeln!(out, "patterns {count} {toggle} {seed}");
    out
}

/// Parses the text format back into a [`ProblemInstance`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with the offending line number for any
/// malformed directive, and [`NetlistError::Circuit`] if the described
/// circuit fails validation.
pub fn parse_instance(text: &str) -> Result<ProblemInstance, NetlistError> {
    let tech = Technology::dac99();
    let mut builder = CircuitBuilder::new(tech);
    // The component added under each name: the builder resolves no names.
    let mut handles: HashMap<&str, BuildNode> = HashMap::new();
    let mut name = String::from("unnamed");
    let mut channels_by_name: Vec<Vec<&str>> = Vec::new();
    let mut geometry = ChannelGeometry {
        pitch: 14.0,
        overlap_fraction: 0.6,
        unit_fringing: tech.coupling_fringing_per_um,
    };
    let mut pattern_directive: (usize, f64, u64) = (64, 0.35, 1);

    let err = |line: usize, reason: &str| NetlistError::Parse {
        line,
        reason: reason.to_string(),
    };
    let parse_f64 = |line: usize, tok: &str| -> Result<f64, NetlistError> {
        tok.parse::<f64>()
            .map_err(|_| err(line, "expected a number"))
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        match tokens[0] {
            "circuit" => {
                name = tokens
                    .get(1)
                    .ok_or_else(|| err(line, "missing circuit name"))?
                    .to_string();
            }
            "driver" => {
                let [_, n, rd] = tokens[..] else {
                    return Err(err(line, "driver NAME RD"));
                };
                let node = builder.add_driver(n, parse_f64(line, rd)?)?;
                record(&mut handles, n, node)?;
            }
            "gate" => {
                let [_, n, kind] = tokens[..] else {
                    return Err(err(line, "gate NAME KIND"));
                };
                let kind = parse_gate_kind(kind).ok_or_else(|| err(line, "unknown gate kind"))?;
                let node = builder.add_gate(n, kind)?;
                record(&mut handles, n, node)?;
            }
            "wire" => {
                let [_, n, len] = tokens[..] else {
                    return Err(err(line, "wire NAME LENGTH"));
                };
                let node = builder.add_wire(n, parse_f64(line, len)?)?;
                record(&mut handles, n, node)?;
            }
            "connect" => {
                let [_, from, to] = tokens[..] else {
                    return Err(err(line, "connect FROM TO"));
                };
                let from = *handles
                    .get(from)
                    .ok_or_else(|| err(line, "unknown component"))?;
                let to = *handles
                    .get(to)
                    .ok_or_else(|| err(line, "unknown component"))?;
                builder.connect(from, to)?;
            }
            "output" => {
                let [_, n, load] = tokens[..] else {
                    return Err(err(line, "output NAME LOAD"));
                };
                let node = *handles
                    .get(n)
                    .ok_or_else(|| err(line, "unknown component"))?;
                builder.connect_output(node, parse_f64(line, load)?)?;
            }
            "channel" => {
                if tokens.len() < 2 {
                    return Err(err(line, "channel needs at least one wire"));
                }
                channels_by_name.push(tokens[1..].to_vec());
            }
            "geometry" => {
                let [_, pitch, overlap, fringing] = tokens[..] else {
                    return Err(err(line, "geometry PITCH OVERLAP FRINGING"));
                };
                geometry = ChannelGeometry {
                    pitch: parse_f64(line, pitch)?,
                    overlap_fraction: parse_f64(line, overlap)?,
                    unit_fringing: parse_f64(line, fringing)?,
                };
            }
            "patterns" => {
                let [_, count, toggle, seed] = tokens[..] else {
                    return Err(err(line, "patterns COUNT TOGGLE SEED"));
                };
                pattern_directive = (
                    count.parse().map_err(|_| err(line, "expected a count"))?,
                    parse_f64(line, toggle)?,
                    seed.parse().map_err(|_| err(line, "expected a seed"))?,
                );
            }
            other => {
                return Err(NetlistError::Parse {
                    line,
                    reason: format!("unknown directive {other:?}"),
                })
            }
        }
    }

    // Resolve the channel names before the build; an unknown name is
    // reported after any circuit error.
    let channel_handles: Vec<Vec<Option<BuildNode>>> = channels_by_name
        .iter()
        .map(|channel| {
            channel
                .iter()
                .map(|name| handles.get(name).copied())
                .collect()
        })
        .collect();
    drop((channels_by_name, handles));
    let (circuit, ids) = builder.build_mapped()?;
    let channels = channel_handles
        .into_iter()
        .map(|channel| {
            channel
                .into_iter()
                .map(|handle| {
                    handle
                        .map(|handle| ids[handle.index()])
                        .ok_or_else(|| err(0, "channel references unknown wire"))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()?;
    let (count, toggle, seed) = pattern_directive;
    let patterns = PatternSet::random_correlated(circuit.num_drivers(), count, toggle, seed);
    Ok(ProblemInstance {
        name,
        circuit,
        channels,
        geometry,
        patterns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SyntheticGenerator;
    use crate::spec::CircuitSpec;
    use ncgws_circuit::NodeId;

    #[test]
    fn roundtrip_through_text() {
        let spec = CircuitSpec::new("rt", 24, 55).with_seed(17);
        let directive = (
            spec.num_patterns,
            spec.pattern_toggle_probability,
            spec.seed ^ 0x5175_AB1E,
        );
        let inst = SyntheticGenerator::new(spec).generate().unwrap();
        let text = write_instance(&inst, directive);
        let parsed = parse_instance(&text).unwrap();
        assert_eq!(parsed.name, "rt");
        assert_eq!(parsed.circuit.num_gates(), inst.circuit.num_gates());
        assert_eq!(parsed.circuit.num_wires(), inst.circuit.num_wires());
        assert_eq!(parsed.circuit.num_drivers(), inst.circuit.num_drivers());
        assert_eq!(parsed.channels.len(), inst.channels.len());
        assert_eq!(parsed.circuit.num_edges(), inst.circuit.num_edges());
        // Wire lengths survive the roundtrip.
        for id in inst.circuit.wire_ids() {
            let name = inst.circuit.name(id);
            let pid = parsed.circuit.node_by_name(name).unwrap();
            assert!((inst.wire_length(id) - parsed.wire_length(pid)).abs() < 1e-9);
        }
    }

    #[test]
    fn parses_a_tiny_hand_written_netlist() {
        let text = "\
# tiny
circuit tiny
driver in0 100.0
gate g0 nand
gate g1 inv
wire w0 50.0
wire w1 60.0
wire w2 70.0
connect in0 w0
connect w0 g0
connect g0 w1
connect w1 g1
connect g1 w2
output w2 5.0
channel w0 w1 w2
geometry 15.0 0.5 0.02
patterns 16 0.3 7
";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.circuit.num_gates(), 2);
        assert_eq!(inst.circuit.num_wires(), 3);
        assert_eq!(inst.channels.len(), 1);
        assert_eq!(inst.channels[0].len(), 3);
        assert!((inst.geometry.pitch - 15.0).abs() < 1e-12);
        assert_eq!(inst.patterns.len(), 16);
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let bad_directive = "circuit x\nbogus line here\n";
        match parse_instance(bad_directive) {
            Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let bad_number = "circuit x\ndriver in0 notanumber\n";
        assert!(matches!(
            parse_instance(bad_number),
            Err(NetlistError::Parse { line: 2, .. })
        ));
        let unknown_ref = "circuit x\ndriver in0 10\nwire w0 5\nconnect in0 w9\n";
        assert!(matches!(
            parse_instance(unknown_ref),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn a_repeated_name_is_rejected_at_its_line() {
        // The line after the repeat is malformed too: the repeat comes first.
        let text = "circuit x\ndriver in0 10\nwire w0 5\ngate w0 buf\nbogus\n";
        match parse_instance(text) {
            Err(NetlistError::Circuit(e)) => {
                assert_eq!(e, CircuitError::DuplicateName("w0".to_string()));
            }
            other => panic!("expected a duplicate name, got {other:?}"),
        }
    }

    #[test]
    fn a_repeated_connect_into_a_gate_is_rejected() {
        let text = "\
circuit x
driver in0 10
gate g0 buf
wire w0 5
wire w1 5
connect in0 w0
connect w0 g0
connect g0 w1
connect w0 g0
output w1 1.0
";
        match parse_instance(text) {
            Err(NetlistError::Circuit(e)) => assert_eq!(
                e,
                CircuitError::DuplicateEdge(NodeId::new(2), NodeId::new(1))
            ),
            other => panic!("expected a duplicate edge, got {other:?}"),
        }
        // Without the repeat the netlist parses.
        assert!(parse_instance(&text.replacen("connect w0 g0\n", "", 1)).is_ok());
    }

    #[test]
    fn unknown_gate_kind_is_rejected() {
        let text = "circuit x\ngate g0 nandxor\n";
        assert!(matches!(
            parse_instance(text),
            Err(NetlistError::Parse { line: 2, .. })
        ));
    }
}
