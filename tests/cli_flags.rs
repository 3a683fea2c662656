//! `oassis-demo mine` rejects malformed flags instead of silently
//! falling back to their defaults.

use std::process::{Command, Output};

fn demo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_oassis-demo"))
        .args(args)
        .output()
        .expect("oassis-demo runs")
}

fn assert_rejected(args: &[&str], flag: &str) {
    let out = demo(args);
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(flag),
        "{args:?}: stderr {stderr:?} names {flag}"
    );
    assert!(out.stdout.is_empty(), "{args:?} mined anyway");
}

#[test]
fn unparseable_values_name_their_flag() {
    assert_rejected(&["mine", "figure1", "--theta", "abc"], "--theta");
    assert_rejected(&["mine", "figure1", "--members", "-3"], "--members");
    assert_rejected(&["mine", "figure1", "--seed", "7x"], "--seed");
    assert_rejected(&["mine", "figure1", "--seed"], "--seed");
}

#[test]
fn theta_outside_the_unit_interval_is_rejected() {
    assert_rejected(&["mine", "figure1", "--theta", "1.5"], "--theta");
    assert_rejected(&["mine", "figure1", "--theta", "-0.1"], "--theta");
    assert_rejected(&["mine", "figure1", "--theta", "NaN"], "--theta");
}

#[test]
fn well_formed_flags_still_mine() {
    let out = demo(&["mine", "figure1", "--theta", "0.4", "--seed", "3"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Feed a Monkey"), "{stdout}");
}
