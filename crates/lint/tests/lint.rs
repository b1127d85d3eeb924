//! Fixture-driven self-tests: each lint family runs over a deliberately
//! violating file under `fixtures/` and must reproduce the committed
//! golden diagnostics exactly (file, line, lint id). The final test runs
//! the real linter over the live workspace and requires it clean under
//! the committed baseline — the same gate CI enforces with `--deny`.

use ff_lint::source::{Diagnostic, SourceFile};
use ff_lint::{determinism, locks, panics};
use std::path::Path;

fn fixture(name: &str) -> SourceFile {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let text = std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
    SourceFile::from_text(&format!("fixtures/{name}"), &text)
}

fn golden(name: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let text = std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("read golden {name}: {e}"));
    text.lines().map(|l| l.to_string()).collect()
}

fn assert_matches_golden(mut diags: Vec<Diagnostic>, golden_name: &str) {
    diags.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    let actual: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    let expected = golden(golden_name);
    assert_eq!(
        actual,
        expected,
        "\n-- actual --\n{}\n-- golden ({golden_name}) --\n{}\n",
        actual.join("\n"),
        expected.join("\n")
    );
}

#[test]
fn determinism_fixture_matches_golden() {
    let mut out = Vec::new();
    determinism::check(&fixture("determinism.rs"), false, &mut out);
    assert_matches_golden(out, "determinism.expected");
}

#[test]
fn locks_fixture_matches_golden() {
    let mut out = Vec::new();
    let graph = locks::check(&[fixture("locks.rs")], &mut out);
    // The AB/BA pair must appear in the graph as edges in both directions.
    assert_eq!(graph.edges.len(), 2, "edges: {:?}", graph.edges);
    assert_matches_golden(out, "locks.expected");
}

#[test]
fn panics_fixture_matches_golden() {
    let mut out = Vec::new();
    panics::check(&fixture("panics.rs"), &mut out);
    assert_matches_golden(out, "panics.expected");
}

/// The linter's report on the live workspace under the committed baseline.
fn live_report() -> ff_lint::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint")
        .to_path_buf();
    ff_lint::run(&root, ff_lint::BASELINE_PATH).expect("lint run succeeds")
}

/// The gate itself: the live workspace must be clean under the committed
/// baseline, exactly as `cargo run -p ff-lint -- --deny` requires in CI.
#[test]
fn live_workspace_is_clean_under_deny() {
    let report = live_report();
    assert!(
        report.findings.is_empty(),
        "live workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The lock graph must stay acyclic *and* non-trivial — an empty graph
    // would mean the analysis silently stopped seeing the service's locks.
    assert!(
        !report.lock_graph.edges.is_empty(),
        "lock graph lost its edges — did the acquisition scanner break?"
    );
}

/// The job registry's lock guards only the registry. Rejections are
/// journaled and logged after it is released, and `stats` reads the gate
/// outside it, so no edge leaves it for the journal file, the log target
/// or the gate's state.
#[test]
fn jobs_lock_is_not_held_across_journal_log_or_gate() {
    let report = live_report();
    for to in ["JournalWriter.file", "LogTarget.out", "FairGate.state"] {
        let held = report
            .lock_graph
            .edges
            .iter()
            .find(|e| e.from == "ServerState.jobs" && e.to == to);
        assert!(held.is_none(), "ServerState.jobs -> {to}: {held:?}");
    }
}

/// The event logs behind `GET /jobs/:id/events` are one map and one
/// retention order under one lock, and a job's own log lock is taken
/// on its own: no lock-order edge starts or ends at either.
#[test]
fn event_log_locks_are_never_nested() {
    let report = live_report();
    for node in ["ServerState.logs", "EventLog.state"] {
        assert!(
            report.lock_graph.nodes.contains(node),
            "{node} is no longer a lock node — did it move or get renamed?"
        );
        let nested = report
            .lock_graph
            .edges
            .iter()
            .find(|e| e.from == node || e.to == node);
        assert!(
            nested.is_none(),
            "{node} nests with another lock: {nested:?}"
        );
    }
}
