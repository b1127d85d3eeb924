//! The experiment binaries refuse a bad command line with exit status 2
//! and a message naming the flag, before any experiment runs.

use std::process::{Command, Output};

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn table1_rejects_an_unknown_flag() {
    let output = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--bogus")
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(stderr(&output).contains("--bogus"), "{}", stderr(&output));
}

#[test]
fn mlscale_rejects_a_bad_value() {
    let output = Command::new(env!("CARGO_BIN_EXE_mlscale"))
        .args(["compare", "--k", "x"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(stderr(&output).contains("bad --k"), "{}", stderr(&output));
}
