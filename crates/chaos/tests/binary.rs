//! `chaos` as a process: one passing case printed as one JSON object, and
//! the usage errors of its flags.

use std::process::{Command, Stdio};

use nob_sim::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_chaos");

#[test]
fn a_case_prints_one_passing_json_object() {
    let run = Command::new(BIN).args(["case", "--seed", "1"]).output().expect("run");
    let out = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{out}");
    let doc = Json::parse(&out).unwrap_or_else(|| panic!("stdout is not one JSON value: {out}"));
    assert_eq!(doc.get("pass").and_then(Json::as_bool), Some(true), "{out}");
}

#[test]
fn a_missing_or_bad_flag_is_a_usage_error() {
    for (args, flag) in
        [(&["case"][..], "--seed"), (&["case", "--seed", "1", "--ops", "many"], "--ops")]
    {
        let run = Command::new(BIN).args(args).stdin(Stdio::null()).output().expect("run");
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "the message names the flag: {err}");
    }
}
