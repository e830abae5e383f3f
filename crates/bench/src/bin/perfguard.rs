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
//! The vendored `serde_json` is serialize-only, so the two documents are
//! read with a purpose-built scanner. Unlike its first incarnation — which
//! truncated the `"circuits"` section at the first `]` and split objects on
//! `{`, silently dropping every circuit after a nested array or object —
//! the scanner is bracket-depth- and string-aware: sections end at their
//! *matching* bracket, objects at theirs, and fields are matched at the
//! object's top depth only, in any key order.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Returns the index just past a JSON string starting at `start`
/// (`bytes[start] == b'"'`), honoring backslash escapes, plus the string's
/// contents.
fn read_string(bytes: &[u8], start: usize) -> Option<(usize, &str)> {
    debug_assert_eq!(bytes[start], b'"');
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                let content = std::str::from_utf8(&bytes[start + 1..i]).ok()?;
                return Some((i + 1, content));
            }
            _ => i += 1,
        }
    }
    None
}

/// Returns the index of the bracket matching the one at `open`
/// (`bytes[open]` is `[` or `{`), skipping strings.
fn matching_bracket(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => i = read_string(bytes, i)?.0,
            b'[' | b'{' => {
                depth += 1;
                i += 1;
            }
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// The interior of the top-level array named `section` (between — not
/// including — its matching brackets), or `None` when the document has no
/// such section. Only keys at depth 1 (direct members of the root object)
/// match, so a circuit *named* `"threads"` can never hijack a section.
fn section_array<'a>(json: &'a str, section: &str) -> Option<&'a str> {
    let bytes = json.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let (after, token) = read_string(bytes, i)?;
                i = after;
                if depth != 1 || token != section {
                    continue;
                }
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if j >= bytes.len() || bytes[j] != b':' {
                    continue;
                }
                j += 1;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if j < bytes.len() && bytes[j] == b'[' {
                    let close = matching_bracket(bytes, j)?;
                    return Some(&json[j + 1..close]);
                }
            }
            b'[' | b'{' => {
                depth += 1;
                i += 1;
            }
            b']' | b'}' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// The top-level object slices (including their braces) of an array
/// interior, each delimited at its *matching* brace — nested arrays and
/// objects inside a row stay inside that row.
fn array_objects(array: &str) -> Vec<&str> {
    let bytes = array.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => match read_string(bytes, i) {
                Some((after, _)) => i = after,
                None => break,
            },
            b'{' => match matching_bracket(bytes, i) {
                Some(close) => {
                    out.push(&array[i..=close]);
                    i = close + 1;
                }
                None => break,
            },
            _ => i += 1,
        }
    }
    out
}

/// The raw value text of `key` at the top depth of an object slice
/// (braces included), in any key order; `None` when the key is absent.
fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let bytes = object.as_bytes();
    debug_assert_eq!(bytes.first(), Some(&b'{'));
    let end = matching_bracket(bytes, 0)?;
    let mut i = 1;
    while i < end {
        // Skip to the next key.
        while i < end && bytes[i] != b'"' {
            i += 1;
        }
        if i >= end {
            break;
        }
        let (after_key, name) = read_string(bytes, i)?;
        let mut j = after_key;
        while j < end && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= end || bytes[j] != b':' {
            // Not a key (e.g. a string inside an array value that slipped
            // through) — resynchronize.
            i = after_key;
            continue;
        }
        j += 1;
        while j < end && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let value_start = j;
        let value_end = match bytes.get(j) {
            Some(b'"') => read_string(bytes, j)?.0,
            Some(b'[') | Some(b'{') => matching_bracket(bytes, j)? + 1,
            _ => {
                let mut k = j;
                while k < end && bytes[k] != b',' {
                    k += 1;
                }
                k
            }
        };
        if name == key {
            return Some(object[value_start..value_end].trim());
        }
        i = value_end;
    }
    None
}

/// A string-typed field of an object slice.
fn string_field(object: &str, key: &str) -> Option<String> {
    let raw = field(object, key)?;
    let bytes = raw.as_bytes();
    if bytes.first() != Some(&b'"') {
        return None;
    }
    read_string(bytes, 0).map(|(_, s)| s.to_string())
}

/// A number-typed field of an object slice.
fn number_field(object: &str, key: &str) -> Option<f64> {
    field(object, key)?.parse().ok()
}

/// Extracts `name → seconds_per_iteration` from the `"circuits"` array of a
/// `BENCH_table1.json` document. Rows missing either key are skipped.
fn circuit_timings(json: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(array) = section_array(json, "circuits") else {
        return out;
    };
    for object in array_objects(array) {
        if let (Some(name), Some(spi)) = (
            string_field(object, "name"),
            number_field(object, "seconds_per_iteration"),
        ) {
            out.insert(name, spi);
        }
    }
    out
}

/// Extracts `name@t<threads> → seconds_per_iteration` from the `"threads"`
/// scaling section, when present (older baselines carry none — the caller
/// compares only when both sides do). Rows flagged `oversubscribed: true`
/// asked for more workers than the host has; their ratio is a scheduling
/// artifact, so they are excluded from gating (and announced once).
fn thread_timings(json: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(array) = section_array(json, "threads") else {
        return out;
    };
    for object in array_objects(array) {
        if let (Some(name), Some(threads), Some(spi)) = (
            string_field(object, "name"),
            number_field(object, "threads"),
            number_field(object, "seconds_per_iteration"),
        ) {
            if field(object, "oversubscribed") == Some("true") {
                eprintln!("perfguard: threads `{name}@t{threads:.0}` is oversubscribed (skipped)");
                continue;
            }
            out.insert(format!("{name}@t{threads:.0}"), spi);
        }
    }
    out
}

/// The measurement context of a summary's `threads` scaling rows:
/// `(hardware_threads, parallel_feature)` as raw value text. Speedups are
/// only comparable between runs that share it.
fn scaling_context(json: &str) -> Option<(String, String)> {
    let doc = json.trim();
    if !doc.starts_with('{') {
        return None;
    }
    Some((
        field(doc, "hardware_threads")?.to_string(),
        field(doc, "parallel_feature")?.to_string(),
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

    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfguard: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline_doc = read(&args[0]);
    let current_doc = read(&args[1]);
    let baseline = circuit_timings(&baseline_doc);
    let current = circuit_timings(&current_doc);
    if baseline.is_empty() || current.is_empty() {
        eprintln!("perfguard: could not find circuit timings in one of the inputs");
        return ExitCode::from(2);
    }

    let mut failed = match compare("circuit", &baseline, &current, max_regression) {
        Ok(failed) => failed,
        Err(message) => {
            eprintln!("perfguard: hard error: {message}");
            return ExitCode::from(2);
        }
    };

    // The threads scaling rows are compared only when both documents carry
    // them (older baselines predate the section) AND both were measured in
    // the same parallel context: the rows are machine-dependent by nature
    // (a t4 row measured on one core records oversubscription, on eight
    // cores real scaling), so diffing them across machines would fail CI
    // with no code regression behind it.
    let baseline_threads = thread_timings(&baseline_doc);
    let current_threads = thread_timings(&current_doc);
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
            Err(message) => {
                eprintln!("perfguard: hard error: {message}");
                return ExitCode::from(2);
            }
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

    /// The regression the bracket-depth scanner fixes: a nested array (and
    /// a nested object) inside a circuit row must not truncate the section
    /// scan, and rows after it must still be extracted.
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
        let map = circuit_timings(SAMPLE);
        assert_eq!(map.len(), 2);
        assert!((map["c432"] - 0.000125).abs() < 1e-12);
        assert!((map["c880"] - 0.000375).abs() < 1e-12);
    }

    #[test]
    fn schedule_rows_are_not_mixed_in() {
        let map = circuit_timings(SAMPLE);
        assert!(!map.contains_key("xl10"));
        assert!(!map.contains_key("xlw10"));
    }

    #[test]
    fn nested_arrays_do_not_truncate_the_scan() {
        let map = circuit_timings(NESTED);
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
        let map = circuit_timings(OUT_OF_ORDER);
        assert_eq!(map.len(), 2);
        assert!((map["alpha"] - 0.5).abs() < 1e-12);
        assert!((map["beta"] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rows_missing_a_key_are_skipped() {
        let map = circuit_timings(MISSING_KEY);
        assert_eq!(map.len(), 1);
        assert!(map.contains_key("timed"));
        assert!(!map.contains_key("untimed"));
    }

    #[test]
    fn thread_rows_are_keyed_by_name_and_count() {
        let map = thread_timings(SAMPLE);
        assert_eq!(map.len(), 2);
        assert!((map["xlw10@t1"] - 0.004).abs() < 1e-12);
        assert!((map["xlw10@t4"] - 0.0015).abs() < 1e-12);
        assert!(thread_timings(NESTED).is_empty(), "absent section is empty");
    }

    #[test]
    fn oversubscribed_thread_rows_are_excluded_from_gating() {
        let map = thread_timings(SAMPLE);
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
        let doc = r#"{
  "circuits": [ { "name": "c432", "seconds_per_iteration": 0.000125 } ],
  "retired": [ { "name": "xlw10", "seconds_per_iteration": 0.5, "threads": 1 } ],
  "threads": [ { "name": "xlw10", "threads": 1, "seconds_per_iteration": 0.004 } ]
}"#;
        let circuits = circuit_timings(doc);
        assert_eq!(circuits.len(), 1);
        assert!((circuits["c432"] - 0.000125).abs() < 1e-12);
        let threads = thread_timings(doc);
        assert_eq!(threads.len(), 1);
        assert!((threads["xlw10@t1"] - 0.004).abs() < 1e-12);
    }

    #[test]
    fn scaling_context_reads_the_measurement_fields() {
        let doc = r#"{ "bench": "table1", "parallel_feature": true,
                       "hardware_threads": 8, "threads": [] }"#;
        assert_eq!(
            scaling_context(doc),
            Some(("8".to_string(), "true".to_string()))
        );
        // Documents predating the fields carry no context — the threads
        // comparison is skipped rather than spuriously failed.
        assert_eq!(scaling_context(r#"{ "bench": "table1" }"#), None);
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
