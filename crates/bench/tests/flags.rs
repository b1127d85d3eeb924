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

/// Runs `bin` with `args`; it must exit 2 with `expected` on stderr.
fn rejects(bin: &str, args: &[&str], expected: &str) {
    let output = Command::new(bin).args(args).output().unwrap();
    let err = stderr(&output);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains(expected), "{args:?}: {err}");
}

#[test]
fn a_negative_budget_is_bad() {
    rejects(
        env!("CARGO_BIN_EXE_table1"),
        &["--budget-secs", "-1"],
        "bad --budget-secs",
    );
}

#[test]
fn too_few_sectors_are_bad() {
    rejects(
        env!("CARGO_BIN_EXE_sweep_k"),
        &["--sectors", "10"],
        "bad --sectors",
    );
}

#[test]
fn zero_parts_are_bad() {
    rejects(env!("CARGO_BIN_EXE_ablation"), &["--k", "0"], "bad --k");
}

#[test]
fn mlscale_reports_a_rejected_solver_config() {
    rejects(
        env!("CARGO_BIN_EXE_mlscale"),
        &[
            "compare",
            "--groups",
            "4",
            "--group-size",
            "50",
            "--coarsen-until",
            "0",
        ],
        "mlscale: multilevel coarsening target must be positive",
    );
}
