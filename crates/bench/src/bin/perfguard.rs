//! Perf-regression guard over the committed `BENCH_table1.json` baseline.
//!
//! ```text
//! perfguard <baseline.json> <current.json> [max_regression]
//! ```
//!
//! Compares the per-circuit `seconds_per_iteration` of the freshly
//! regenerated summary against the committed baseline and exits non-zero
//! when any circuit regressed by more than `max_regression` (default 0.25,
//! i.e. 25 %). When **both** files carry a `threads` section (the
//! level-parallel scaling rows of `table1 --json`), those rows are compared
//! under the same gate, keyed by `name@t<threads>` — except rows flagged
//! `oversubscribed` (more workers requested than the host exposes), whose
//! timing measures scheduler thrash rather than the engine and is skipped.
//! Circuits present in only one file are reported but do not fail the
//! guard (the tier set may legitimately change across PRs). A zero,
//! negative or non-finite `seconds_per_iteration` on either side is a
//! *hard error* (exit 2): such a ratio could never fail — or always fail —
//! the gate, silently disarming it. CI copies the committed file aside, regenerates it with
//! `table1 --json` under `NCGWS_QUICK=1`, then runs this guard.
//!
//! Both documents are read with the workspace's JSON parser
//! (`serde_json::parse`) and walked as values: rows are the objects of the
//! root's `circuits`/`threads` arrays, keys match in any order, and nested
//! arrays or objects inside a row stay inside it. A document that does not
//! parse is a hard error (exit 2).
//!
//! The serializer writes a non-finite timing as `null`, so a row whose
//! `seconds_per_iteration` is `null` is a hard error too; a row without
//! the key (or without a `name`) is skipped.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

/// The objects of the root's array `section` (empty when absent). Only
/// members of the root object match, so a circuit *named* `"threads"` can
/// never hijack a section.
fn rows<'a>(doc: &'a Value, section: &str) -> &'a [Value] {
    doc.get(section).and_then(Value::as_array).unwrap_or(&[])
}

/// A row's name and `seconds_per_iteration`, or `None` when either key is
/// absent (or not a string/number).
///
/// # Errors
///
/// When the timing is `null`: the serializer's encoding of NaN/infinity.
fn timed_row<'a>(label: &str, row: &'a Value) -> Result<Option<(&'a str, f64)>, String> {
    let Some(name) = row.get("name").and_then(Value::as_str) else {
        return Ok(None);
    };
    match row.get("seconds_per_iteration") {
        Some(Value::Null) => Err(format!(
            "{label} `{name}`: seconds_per_iteration is null (a non-finite timing) — must be \
             positive and finite for the regression ratio to mean anything"
        )),
        Some(value) => Ok(value.as_f64().map(|spi| (name, spi))),
        None => Ok(None),
    }
}

/// Extracts `name → seconds_per_iteration` from the `"circuits"` array of a
/// `BENCH_table1.json` document. Rows missing either key are skipped.
fn circuit_timings(doc: &Value) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for row in rows(doc, "circuits") {
        if let Some((name, spi)) = timed_row("circuit", row)? {
            out.insert(name.to_string(), spi);
        }
    }
    Ok(out)
}

/// Extracts `name@t<threads> → seconds_per_iteration` from the `"threads"`
/// scaling section, when present (older baselines carry none — the caller
/// compares only when both sides do). Rows flagged `oversubscribed: true`
/// asked for more workers than the host has; their ratio is a scheduling
/// artifact, so they are excluded from gating (and announced once).
fn thread_timings(doc: &Value) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for row in rows(doc, "threads") {
        let Some(threads) = row.get("threads").and_then(Value::as_u64) else {
            continue;
        };
        if let Some((name, spi)) = timed_row("threads", row)? {
            if row.get("oversubscribed").and_then(Value::as_bool) == Some(true) {
                eprintln!("perfguard: threads `{name}@t{threads}` is oversubscribed (skipped)");
                continue;
            }
            out.insert(format!("{name}@t{threads}"), spi);
        }
    }
    Ok(out)
}

/// The measurement context of a summary's `threads` scaling rows:
/// `(hardware_threads, parallel_feature)`. Speedups are only comparable
/// between runs that share it.
fn scaling_context(doc: &Value) -> Option<(u64, bool)> {
    Some((
        doc.get("hardware_threads")?.as_u64()?,
        doc.get("parallel_feature")?.as_bool()?,
    ))
}

/// Compares one timing map against its baseline. Returns whether any row
/// regressed beyond `max_regression`.
///
/// # Errors
///
/// A zero, negative or non-finite timing on either side is a hard error:
/// the resulting ratio would be `inf`/`NaN` and could never fail (or would
/// always fail) the gate, so the guard refuses to pretend it checked
/// anything.
fn compare(
    label: &str,
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    max_regression: f64,
) -> Result<bool, String> {
    let mut failed = false;
    for (name, &base) in baseline {
        match current.get(name) {
            None => eprintln!("perfguard: {label} `{name}` missing from the current run (skipped)"),
            Some(&now) => {
                if !(base.is_finite() && base > 0.0) {
                    return Err(format!(
                        "{label} `{name}`: baseline seconds_per_iteration is {base} — must be \
                         positive and finite for the regression ratio to mean anything"
                    ));
                }
                if !(now.is_finite() && now > 0.0) {
                    return Err(format!(
                        "{label} `{name}`: current seconds_per_iteration is {now} — must be \
                         positive and finite for the regression ratio to mean anything"
                    ));
                }
                let change = now / base - 1.0;
                let verdict = if change > max_regression {
                    failed = true;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "perfguard: {label} {name:<10} {base:.6} -> {now:.6} s/iter ({:+.1}%) {verdict}",
                    change * 100.0
                );
            }
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            eprintln!("perfguard: {label} `{name}` is new (no baseline; skipped)");
        }
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: perfguard <baseline.json> <current.json> [max_regression]");
        return ExitCode::from(2);
    }
    let max_regression: f64 = args
        .get(2)
        .map(|s| s.parse().expect("max_regression must be a number"))
        .unwrap_or(0.25);

    let read = |path: &str| -> Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfguard: cannot read {path}: {e}");
            std::process::exit(2);
        });
        serde_json::parse(&text).unwrap_or_else(|e| {
            eprintln!("perfguard: {path} is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let hard_error = |message: String| {
        eprintln!("perfguard: hard error: {message}");
        ExitCode::from(2)
    };
    let baseline_doc = read(&args[0]);
    let current_doc = read(&args[1]);
    type Timings = BTreeMap<String, f64>;
    let both = |extract: fn(&Value) -> Result<Timings, String>| {
        Ok::<_, String>((extract(&baseline_doc)?, extract(&current_doc)?))
    };
    let (baseline, current) = match both(circuit_timings) {
        Ok(pair) => pair,
        Err(message) => return hard_error(message),
    };
    if baseline.is_empty() || current.is_empty() {
        eprintln!("perfguard: could not find circuit timings in one of the inputs");
        return ExitCode::from(2);
    }

    let mut failed = match compare("circuit", &baseline, &current, max_regression) {
        Ok(failed) => failed,
        Err(message) => return hard_error(message),
    };

    // The threads scaling rows are compared only when both documents carry
    // them (older baselines predate the section) AND both were measured in
    // the same parallel context: the rows are machine-dependent by nature
    // (a t4 row measured on one core records oversubscription, on eight
    // cores real scaling), so diffing them across machines would fail CI
    // with no code regression behind it.
    let (baseline_threads, current_threads) = match both(thread_timings) {
        Ok(pair) => pair,
        Err(message) => return hard_error(message),
    };
    let contexts_match = match (
        scaling_context(&baseline_doc),
        scaling_context(&current_doc),
    ) {
        (Some(base), Some(now)) if base == now => true,
        (Some(base), Some(now)) => {
            eprintln!(
                "perfguard: threads rows measured in different contexts \
                 (baseline {base:?} vs current {now:?}); skipped"
            );
            false
        }
        _ => false,
    };
    if contexts_match && !baseline_threads.is_empty() && !current_threads.is_empty() {
        match compare(
            "threads",
            &baseline_threads,
            &current_threads,
            max_regression,
        ) {
            Ok(threads_failed) => failed |= threads_failed,
            Err(message) => return hard_error(message),
        }
    } else if baseline_threads.is_empty() != current_threads.is_empty() {
        eprintln!("perfguard: threads section present in only one file (skipped)");
    }

    if failed {
        eprintln!(
            "perfguard: seconds_per_iteration regressed more than {:.0}% — failing",
            max_regression * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "perfguard: no circuit regressed more than {:.0}%",
            max_regression * 100.0
        );
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Value {
        serde_json::parse(text).expect("fixture is valid JSON")
    }

    const SAMPLE: &str = r#"{
  "bench": "table1",
  "quick": true,
  "circuits": [
    { "name": "c432", "components": 640, "seconds_per_iteration": 0.000125, "feasible": true },
    { "name": "c880", "components": 1112, "seconds_per_iteration": 0.000375, "feasible": true }
  ],
  "schedule": [
    { "name": "xl10", "components": 10000, "exact_seconds_per_iteration": 0.0065 }
  ],
  "threads": [
    { "name": "xlw10", "threads": 1, "seconds_per_iteration": 0.004 },
    { "name": "xlw10", "threads": 4, "seconds_per_iteration": 0.0015 },
    { "name": "xlw10", "threads": 8, "seconds_per_iteration": 0.0031,
      "oversubscribed": true }
  ]
}"#;

    /// A nested array (and a nested object) inside a circuit row must not
    /// truncate the section, and rows after it must still be extracted (the
    /// regression a first, bracket-unaware reader had).
    const NESTED: &str = r#"{
  "circuits": [
    { "name": "c432",
      "per_thread_seconds": [0.0001, 0.00008, { "worker": 3, "seconds": 0.007 }],
      "memory": { "name": "not-a-circuit", "buckets": [1, 2] },
      "seconds_per_iteration": 0.000125 },
    { "name": "c880", "seconds_per_iteration": 0.000375 }
  ]
}"#;

    /// Key order inside a row must not matter.
    const OUT_OF_ORDER: &str = r#"{
  "circuits": [
    { "seconds_per_iteration": 0.5, "components": 10, "name": "alpha" },
    { "feasible": false, "name": "beta", "seconds_per_iteration": 0.25 }
  ]
}"#;

    /// Rows without both keys are skipped, not misparsed.
    const MISSING_KEY: &str = r#"{
  "circuits": [
    { "name": "timed", "seconds_per_iteration": 0.5 },
    { "name": "untimed", "components": 10 },
    { "seconds_per_iteration": 0.125, "components": 4 }
  ]
}"#;

    #[test]
    fn timings_are_extracted_per_circuit() {
        let map = circuit_timings(&doc(SAMPLE)).unwrap();
        assert_eq!(map.len(), 2);
        assert!((map["c432"] - 0.000125).abs() < 1e-12);
        assert!((map["c880"] - 0.000375).abs() < 1e-12);
    }

    #[test]
    fn schedule_rows_are_not_mixed_in() {
        let map = circuit_timings(&doc(SAMPLE)).unwrap();
        assert!(!map.contains_key("xl10"));
        assert!(!map.contains_key("xlw10"));
    }

    #[test]
    fn nested_arrays_do_not_truncate_the_scan() {
        let map = circuit_timings(&doc(NESTED)).unwrap();
        assert_eq!(map.len(), 2, "both circuits must survive the nested row");
        assert!((map["c432"] - 0.000125).abs() < 1e-12);
        assert!((map["c880"] - 0.000375).abs() < 1e-12);
        assert!(
            !map.contains_key("not-a-circuit"),
            "keys of nested objects must not leak into the row"
        );
    }

    #[test]
    fn key_order_does_not_matter() {
        let map = circuit_timings(&doc(OUT_OF_ORDER)).unwrap();
        assert_eq!(map.len(), 2);
        assert!((map["alpha"] - 0.5).abs() < 1e-12);
        assert!((map["beta"] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rows_missing_a_key_are_skipped() {
        let map = circuit_timings(&doc(MISSING_KEY)).unwrap();
        assert_eq!(map.len(), 1);
        assert!(map.contains_key("timed"));
        assert!(!map.contains_key("untimed"));
    }

    #[test]
    fn thread_rows_are_keyed_by_name_and_count() {
        let map = thread_timings(&doc(SAMPLE)).unwrap();
        assert_eq!(map.len(), 2);
        assert!((map["xlw10@t1"] - 0.004).abs() < 1e-12);
        assert!((map["xlw10@t4"] - 0.0015).abs() < 1e-12);
        assert!(
            thread_timings(&doc(NESTED)).unwrap().is_empty(),
            "absent section is empty"
        );
    }

    #[test]
    fn oversubscribed_thread_rows_are_excluded_from_gating() {
        let map = thread_timings(&doc(SAMPLE)).unwrap();
        assert!(
            !map.contains_key("xlw10@t8"),
            "the t8 row is flagged oversubscribed and must not be ratio-gated"
        );
    }

    /// Sections the guard does not gate — such as one a retired bench
    /// section left in an older baseline — are ignored, not misread as
    /// circuit or thread rows.
    #[test]
    fn unknown_sections_are_ignored() {
        let summary = doc(r#"{
  "circuits": [ { "name": "c432", "seconds_per_iteration": 0.000125 } ],
  "retired": [ { "name": "xlw10", "seconds_per_iteration": 0.5, "threads": 1 } ],
  "threads": [ { "name": "xlw10", "threads": 1, "seconds_per_iteration": 0.004 } ]
}"#);
        let circuits = circuit_timings(&summary).unwrap();
        assert_eq!(circuits.len(), 1);
        assert!((circuits["c432"] - 0.000125).abs() < 1e-12);
        let threads = thread_timings(&summary).unwrap();
        assert_eq!(threads.len(), 1);
        assert!((threads["xlw10@t1"] - 0.004).abs() < 1e-12);
    }

    #[test]
    fn scaling_context_reads_the_measurement_fields() {
        let summary = doc(r#"{ "bench": "table1", "parallel_feature": true,
                               "hardware_threads": 8, "threads": [] }"#);
        assert_eq!(scaling_context(&summary), Some((8, true)));
        // Documents predating the fields carry no context — the threads
        // comparison is skipped rather than spuriously failed.
        assert_eq!(scaling_context(&doc(r#"{ "bench": "table1" }"#)), None);
    }

    fn map(entries: &[(&str, f64)]) -> BTreeMap<String, f64> {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn compare_flags_regressions_and_tolerates_tier_changes() {
        let baseline = map(&[("a", 0.1), ("gone", 0.2)]);
        let current = map(&[("a", 0.1001), ("new", 0.3)]);
        assert_eq!(compare("t", &baseline, &current, 0.25), Ok(false));
        let regressed = map(&[("a", 0.2)]);
        assert_eq!(compare("t", &baseline, &regressed, 0.25), Ok(true));
    }

    #[test]
    fn zero_baseline_is_a_hard_error() {
        let baseline = map(&[("a", 0.0)]);
        let current = map(&[("a", 0.1)]);
        let err = compare("t", &baseline, &current, 0.25).unwrap_err();
        assert!(err.contains("positive and finite"), "{err}");
    }

    /// The serializer writes a NaN/infinite timing as `null`; such a row
    /// must fail extraction instead of being skipped as "missing".
    #[test]
    fn null_timings_are_hard_errors() {
        let circuits = doc(r#"{ "circuits": [
            { "name": "c432", "seconds_per_iteration": null } ] }"#);
        let err = circuit_timings(&circuits).unwrap_err();
        assert!(err.contains("c432") && err.contains("null"), "{err}");
        let threads = doc(r#"{ "threads": [
            { "name": "xlw10", "threads": 2, "seconds_per_iteration": null } ] }"#);
        assert!(thread_timings(&threads).is_err());
    }

    #[test]
    fn non_finite_timings_are_hard_errors() {
        let nan_base = map(&[("a", f64::NAN)]);
        let fine = map(&[("a", 0.1)]);
        assert!(compare("t", &nan_base, &fine, 0.25).is_err());
        let inf_now = map(&[("a", f64::INFINITY)]);
        assert!(compare("t", &fine, &inf_now, 0.25).is_err());
        let neg_now = map(&[("a", -0.5)]);
        assert!(compare("t", &fine, &neg_now, 0.25).is_err());
    }
}
