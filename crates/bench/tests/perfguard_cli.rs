//! End-to-end checks of the `perfguard` binary's exit codes on fixture
//! documents: 0 when nothing regressed, 2 for a hard error.

use std::path::PathBuf;
use std::process::Command;

/// Writes `baseline` and `current` to a fresh temporary directory and
/// returns perfguard's exit code on them.
fn guard(case: &str, baseline: &str, current: &str) -> Option<i32> {
    let dir = std::env::temp_dir().join(format!("perfguard-{case}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, text: &str| -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("fixture written");
        path
    };
    let output = Command::new(env!("CARGO_BIN_EXE_perfguard"))
        .arg(write("baseline.json", baseline))
        .arg(write("current.json", current))
        .output()
        .expect("perfguard runs");
    let _ = std::fs::remove_dir_all(&dir);
    output.status.code()
}

const TIMED: &str = r#"{ "circuits": [
    { "name": "c432", "seconds_per_iteration": 0.000125 },
    { "name": "c880", "seconds_per_iteration": 0.000375 } ] }"#;

/// `null` is how the serializer writes a NaN or infinite timing.
const NULL_C432: &str = r#"{ "circuits": [
    { "name": "c432", "seconds_per_iteration": null },
    { "name": "c880", "seconds_per_iteration": 0.000375 } ] }"#;

const UNTIMED_C432: &str = r#"{ "circuits": [
    { "name": "c432", "components": 640 },
    { "name": "c880", "seconds_per_iteration": 0.000375 } ] }"#;

#[test]
fn matching_documents_pass() {
    assert_eq!(guard("pass", TIMED, TIMED), Some(0));
}

#[test]
fn a_null_timing_on_either_side_is_a_hard_error() {
    assert_eq!(guard("null-current", TIMED, NULL_C432), Some(2));
    assert_eq!(guard("null-baseline", NULL_C432, TIMED), Some(2));
}

#[test]
fn a_row_without_a_timing_is_skipped() {
    assert_eq!(guard("untimed", TIMED, UNTIMED_C432), Some(0));
}

#[test]
fn a_document_that_does_not_parse_is_a_hard_error() {
    assert_eq!(guard("garbage", TIMED, "{ \"circuits\": [ "), Some(2));
}
