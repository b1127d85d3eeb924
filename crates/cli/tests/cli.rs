//! End-to-end tests for the `ffpart` binary.

use std::io::Write;
use std::process::Command;

fn ffpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ffpart"))
}

fn write_sample_graph(dir: &std::path::Path) -> std::path::PathBuf {
    // Two triangles joined by one light edge — obvious 2-partition.
    let path = dir.join("sample.graph");
    let mut f = std::fs::File::create(&path).unwrap();
    // METIS: 6 vertices, 7 edges, edge weights (fmt 001)
    writeln!(f, "6 7 001").unwrap();
    writeln!(f, "2 5 3 5").unwrap(); // v1: -2 (5), -3 (5)
    writeln!(f, "1 5 3 5").unwrap();
    writeln!(f, "1 5 2 5 4 1").unwrap(); // bridge 3-4 weight 1
    writeln!(f, "3 1 5 5 6 5").unwrap();
    writeln!(f, "4 5 6 5").unwrap();
    writeln!(f, "4 5 5 5").unwrap();
    path
}

#[test]
fn partitions_sample_graph_and_writes_part_file() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let part_out = dir.join("out.part");

    let output = ffpart()
        .args([
            graph.to_str().unwrap(),
            "-k",
            "2",
            "-m",
            "multilevel",
            "-w",
            part_out.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("cut 1.0000"), "stdout: {stdout}");

    let part = std::fs::read_to_string(&part_out).unwrap();
    let ids: Vec<&str> = part.lines().collect();
    assert_eq!(ids.len(), 6);
    // triangle {0,1,2} on one side, {3,4,5} on the other
    assert_eq!(ids[0], ids[1]);
    assert_eq!(ids[1], ids[2]);
    assert_eq!(ids[3], ids[4]);
    assert_ne!(ids[0], ids[3]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metaheuristic_with_tiny_budget() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-ff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let output = ffpart()
        .args([
            graph.to_str().unwrap(),
            "-k",
            "2",
            "-m",
            "ff",
            "-b",
            "0.5",
            "-q",
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("mcut"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn island_ensemble_is_byte_identical_across_invocations() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-islands-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let run = |out: &std::path::Path| {
        let output = ffpart()
            .args([
                graph.to_str().unwrap(),
                "-k",
                "2",
                "-m",
                "ff",
                "--steps",
                "4000",
                "-s",
                "5",
                "--islands",
                "3",
                "--threads",
                "2",
                "-q",
                "-w",
                out.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("3 islands"),
            "banner should mention the ensemble"
        );
    };
    let (a, b) = (dir.join("a.part"), dir.join("b.part"));
    run(&a);
    run(&b);
    let pa = std::fs::read(&a).unwrap();
    assert_eq!(
        pa,
        std::fs::read(&b).unwrap(),
        "output must be reproducible"
    );
    // The sample graph's optimal bisection is triangle vs triangle.
    let part = String::from_utf8(pa).unwrap();
    let ids: Vec<&str> = part.lines().collect();
    assert_eq!(ids.len(), 6);
    assert!(ids[0] == ids[1] && ids[1] == ids[2] && ids[3] == ids[4] && ids[4] == ids[5]);
    assert_ne!(ids[0], ids[3]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: `--multilevel` one-shot runs are byte-identical across
/// reruns *and* thread caps, print the level banner, and refuse
/// non-ff methods with a usage error.
#[test]
fn multilevel_run_is_byte_identical_across_reruns_and_thread_caps() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-ml-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // 240 vertices — big enough to coarsen through real levels.
    let g = ff_graph::generators::planted_partition(4, 60, 0.2, 0.01, 9);
    let graph = dir.join("pp.graph");
    let mut f = std::fs::File::create(&graph).unwrap();
    ff_graph::io::write_metis(&g, &mut f).unwrap();
    drop(f);

    let run = |out: &std::path::Path, threads: &str| {
        let output = ffpart()
            .args([
                graph.to_str().unwrap(),
                "-k",
                "4",
                "-m",
                "ff",
                "--steps",
                "2000",
                "-s",
                "7",
                "--islands",
                "2",
                "--threads",
                threads,
                "--multilevel",
                "--coarsen-until",
                "60",
                "-q",
                "-w",
                out.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("multilevel:") && stderr.contains("coarse"),
            "level banner missing: {stderr}"
        );
    };
    let (a, b, c) = (dir.join("a.part"), dir.join("b.part"), dir.join("c.part"));
    run(&a, "1");
    run(&b, "4");
    run(&c, "1");
    let pa = std::fs::read(&a).unwrap();
    assert_eq!(pa.len(), 240 * 2, "one digit + newline per vertex");
    assert_eq!(pa, std::fs::read(&b).unwrap(), "threads 1 vs 4 must agree");
    assert_eq!(pa, std::fs::read(&c).unwrap(), "rerun must agree");

    // --multilevel only accelerates the ff engine.
    let output = ffpart()
        .args([
            graph.to_str().unwrap(),
            "-k",
            "4",
            "-m",
            "sa",
            "--steps",
            "100",
            "--multilevel",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--multilevel needs -m ff"));
    std::fs::remove_dir_all(&dir).ok();
}

/// One deterministic front, printed identically on every invocation, for
/// a mixed-objective one-shot run — and the `done`-event front from a
/// served job with the same parameters must agree line for line (the
/// CLI ⇄ NDJSON ⇄ library acceptance check; chunk 1024 aligns the
/// service's migration interval with the one-shot solver default).
#[test]
fn mixed_objective_front_agrees_between_oneshot_and_server() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-pareto-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);

    let oneshot = |out: Option<&std::path::Path>| {
        let mut args = vec![
            graph.to_str().unwrap().to_string(),
            "-k".into(),
            "2".into(),
            "-o".into(),
            "cut,mcut".into(),
            "--islands".into(),
            "4".into(),
            "--steps".into(),
            "4000".into(),
            "-s".into(),
            "7".into(),
            "-q".into(),
        ];
        if let Some(out) = out {
            args.push("-w".into());
            args.push(out.to_str().unwrap().to_string());
        }
        let output = ffpart().args(&args).output().unwrap();
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    let front_lines = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .skip_while(|l| !l.starts_with("pareto front:"))
            .take_while(|l| l.starts_with("pareto front:") || l.starts_with("  island"))
            .map(str::to_string)
            .collect()
    };

    let (a, b) = (dir.join("a.part"), dir.join("b.part"));
    let stdout_a = oneshot(Some(&a));
    let stdout_b = oneshot(Some(&b));
    let lines_a = front_lines(&stdout_a);
    assert!(!lines_a.is_empty(), "no front in: {stdout_a}");
    assert!(lines_a[0].starts_with("pareto front:"), "{stdout_a}");
    assert!(lines_a.len() >= 2, "front has no points: {stdout_a}");
    assert_eq!(lines_a, front_lines(&stdout_b), "front not deterministic");
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "representative partition not byte-identical"
    );

    // The same job through the server: same front, rendered by the same
    // code path from the done event.
    let (guard, addr) = spawn_server();
    let output = ffpart()
        .args([
            "submit",
            "--connect",
            &addr,
            graph.to_str().unwrap(),
            "-k",
            "2",
            "-o",
            "cut,mcut",
            "--islands",
            "4",
            "--steps",
            "4000",
            "-s",
            "7",
            "--chunk",
            "1024",
            "-q",
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let submit_stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        lines_a,
        front_lines(&submit_stdout),
        "served front disagrees with the one-shot front"
    );
    ff_service::Client::connect(&*addr)
        .unwrap()
        .shutdown()
        .unwrap();
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// The combine policy re-runs byte-identically (CI satellite).
#[test]
fn combine_policy_is_byte_identical_across_invocations() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-combine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let run = |out: &std::path::Path| {
        let output = ffpart()
            .args([
                graph.to_str().unwrap(),
                "-k",
                "2",
                "--migration",
                "combine",
                "--islands",
                "3",
                "--steps",
                "4000",
                "-s",
                "5",
                "-q",
                "-w",
                out.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    let (a, b) = (dir.join("a.part"), dir.join("b.part"));
    run(&a);
    run(&b);
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_migration_policy_and_non_ff_pareto_exit_2() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-badpol-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let g = graph.to_str().unwrap();
    let cases: &[&[&str]] = &[
        &[g, "-k", "2", "--migration", "osmosis"],
        &[g, "-k", "2", "-o", "cut,typo"],
        &[g, "-k", "2", "-o", "cut,mcut", "-m", "multilevel"],
    ];
    for args in cases {
        let output = ffpart().args(*args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_islands_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-islands0-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let output = ffpart()
        .args([graph.to_str().unwrap(), "-k", "2", "--islands", "0"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_2() {
    let output = ffpart().args(["-k", "2"]).output().unwrap(); // no graph
    assert_eq!(output.status.code(), Some(2));
    let output = ffpart().args(["nonexistent", "-k"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn missing_file_exits_3() {
    let output = ffpart()
        .args(["/nonexistent/graph.metis", "-k", "2"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(3));
}

#[test]
fn help_exits_zero() {
    let output = ffpart().args(["--help"]).output().unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("usage"));
    // The option reference itself, for every sub-command.
    for flag in ["--mincut", "--chunk", "--instance", "--cancel-after-ms"] {
        assert!(stdout.contains(flag), "--help lacks {flag}: {stdout}");
    }
    assert!(!stdout.contains("see `ffpart --help`"), "{stdout}");
}

#[test]
fn malformed_graph_content_fails_cleanly_not_with_a_panic() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-badgraph-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, content) in [
        ("junk.graph", "this is not a METIS file\nat all\n"),
        ("truncated.graph", "6 7 001\n2 5\n"),
        ("badneighbor.graph", "2 1\n5\n1\n"),
        ("empty.graph", ""),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        let output = ffpart()
            .args([path.to_str().unwrap(), "-k", "2"])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(3), "{name} should exit 3");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("ffpart:"), "{name}: no message: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
            "{name} panicked: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_k_and_objective_combinations_exit_2() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-badargs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let g = graph.to_str().unwrap();
    // (args, fragment the error message must contain)
    let cases: &[(&[&str], &str)] = &[
        (&[g, "-k", "0"], "1..=6"),
        (&[g, "-k", "7"], "1..=6"),
        (&[g, "-k", "-3"], "bad -k"),
        (&[g, "-k", "2", "-o", "mincut"], "unknown objective"),
        (&[g, "-k", "2", "-m", "warp"], "unknown method"),
        (&[g, "-k", "2", "--steps", "lots"], "bad steps"),
        (&[g, "-k", "2", "-f", "dot"], "unknown format"),
    ];
    for (args, fragment) in cases {
        let output = ffpart().args(*args).output().unwrap();
        let code = output.status.code();
        assert_eq!(code, Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(fragment),
            "{args:?}: message `{stderr}` lacks `{fragment}`"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A `-b` with no `Duration` (negative, NaN, infinite or too large) is a
/// usage error for every method, not a panic.
#[test]
fn unrepresentable_budget_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    for method in ["ff", "sa"] {
        for budget in ["-1", "NaN", "inf", "1e30"] {
            let output = ffpart()
                .args([
                    graph.to_str().unwrap(),
                    "-k",
                    "2",
                    "-m",
                    method,
                    "-b",
                    budget,
                ])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(
                output.status.code(),
                Some(2),
                "-m {method} -b {budget}: {stderr}"
            );
            assert!(
                stderr.contains("bad budget"),
                "-m {method} -b {budget}: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kills the serve process if a test assertion unwinds first.
struct ServeGuard(std::process::Child);
impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_server_with(extra: &[&str]) -> (ServeGuard, String, Option<String>) {
    use std::io::BufRead;
    let mut args = vec!["serve", "--listen", "127.0.0.1:0", "--workers", "2"];
    args.extend_from_slice(extra);
    let mut child = ffpart()
        .args(&args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let stdout = child.stdout.take().unwrap();
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("ffpart: serving on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .to_string();
    let http = if extra.contains(&"--http") {
        line.clear();
        reader.read_line(&mut line).unwrap();
        Some(
            line.trim()
                .strip_prefix("ffpart: http on ")
                .unwrap_or_else(|| panic!("unexpected http banner: {line}"))
                .to_string(),
        )
    } else {
        None
    };
    (ServeGuard(child), addr, http)
}

fn spawn_server() -> (ServeGuard, String) {
    let (guard, addr, _) = spawn_server_with(&[]);
    (guard, addr)
}

#[test]
fn serve_and_submit_roundtrip_deterministically_with_cancel() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let (guard, addr) = spawn_server();

    let submit = |extra: &[&str], out: &std::path::Path| {
        let mut args = vec![
            "submit",
            "--connect",
            &addr,
            graph.to_str().unwrap(),
            "-k",
            "2",
            "-s",
            "5",
            "-w",
        ];
        args.push(out.to_str().unwrap());
        args.extend_from_slice(extra);
        ffpart().args(&args).output().unwrap()
    };

    // Two identical step-budgeted jobs against one cached instance:
    // byte-identical partitions.
    let (a, b) = (dir.join("a.part"), dir.join("b.part"));
    let out_a = submit(&["--steps", "4000"], &a);
    assert!(
        out_a.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out_a.stderr)
    );
    let stdout_a = String::from_utf8_lossy(&out_a.stdout);
    assert!(
        stdout_a.contains("improvement job="),
        "no stream: {stdout_a}"
    );
    assert!(stdout_a.contains("status=completed"), "{stdout_a}");
    let out_b = submit(&["--steps", "4000"], &b);
    assert!(out_b.status.success());
    assert!(
        String::from_utf8_lossy(&out_b.stderr).contains("(cached)"),
        "second submit must hit the instance cache"
    );
    assert_eq!(
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        "same request + seed must reproduce byte-identically"
    );

    // A cancelled job still returns (and writes) its best-so-far result.
    let c = dir.join("c.part");
    let out_c = submit(
        &["--steps", "100000000000", "--cancel-after-ms", "300", "-q"],
        &c,
    );
    assert!(
        out_c.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out_c.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out_c.stdout).contains("status=cancelled"),
        "stdout: {}",
        String::from_utf8_lossy(&out_c.stdout)
    );
    assert_eq!(std::fs::read_to_string(&c).unwrap().lines().count(), 6);

    // Shut the server down cleanly over the protocol.
    ff_service::Client::connect(&*addr)
        .unwrap()
        .shutdown()
        .unwrap();
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: `ffpart submit --multilevel` runs the coarsen→solve→refine
/// pipeline server-side and reproduces byte-identically on resubmit. The
/// one-shot `--multilevel` run is the same job: with one island it keeps
/// the root seed like the served job, and an ensemble equals the served
/// job at the one-shot migration interval (`--chunk 1024`).
#[test]
fn submit_multilevel_job_reproduces_byte_identically() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-submit-ml-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = ff_graph::generators::planted_partition(4, 60, 0.2, 0.01, 9);
    let graph = dir.join("pp.graph");
    let mut f = std::fs::File::create(&graph).unwrap();
    ff_graph::io::write_metis(&g, &mut f).unwrap();
    drop(f);
    let (guard, addr) = spawn_server();

    let job = |out: &std::path::Path, islands: &str| {
        vec![
            graph.to_str().unwrap().to_string(),
            "-k".into(),
            "4".into(),
            "-s".into(),
            "3".into(),
            "--steps".into(),
            "2000".into(),
            "-j".into(),
            islands.into(),
            "--multilevel".into(),
            "--coarsen-until".into(),
            "60".into(),
            "-q".into(),
            "-w".into(),
            out.to_str().unwrap().to_string(),
        ]
    };
    let run = |args: Vec<String>| {
        let output = ffpart().args(&args).output().unwrap();
        assert!(
            output.status.success(),
            "{args:?} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    let submit = |out: &std::path::Path, islands: &str, extra: &[&str]| {
        let mut args = vec!["submit".to_string(), "--connect".into(), addr.clone()];
        args.extend(job(out, islands));
        args.extend(extra.iter().map(|a| a.to_string()));
        let stdout = run(args);
        assert!(stdout.contains("status=completed"), "stdout: {stdout}");
    };
    let (a, b) = (dir.join("a.part"), dir.join("b.part"));
    submit(&a, "2", &[]);
    submit(&b, "2", &[]);
    let pa = std::fs::read(&a).unwrap();
    assert_eq!(
        pa.len(),
        240 * 2,
        "fine-graph partition, one line per vertex"
    );
    assert_eq!(pa, std::fs::read(&b).unwrap(), "resubmit must reproduce");

    for (islands, extra) in [("1", &[][..]), ("2", &["--chunk", "1024"][..])] {
        let served = dir.join(format!("served{islands}.part"));
        let oneshot = dir.join(format!("oneshot{islands}.part"));
        submit(&served, islands, extra);
        run(job(&oneshot, islands));
        assert_eq!(
            std::fs::read(&oneshot).unwrap(),
            std::fs::read(&served).unwrap(),
            "one-shot --multilevel -j {islands} diverged from the served job"
        );
    }

    ff_service::Client::connect(&*addr)
        .unwrap()
        .shutdown()
        .unwrap();
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn submit_usage_errors_exit_2() {
    let output = ffpart().args(["submit", "-k", "2"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2)); // no --connect
    let output = ffpart()
        .args(["submit", "--connect", "127.0.0.1:1", "g", "-k", "2"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2)); // no budget
    let output = ffpart().args(["serve", "--bogus"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2));

    // Each refusal names the flag at fault, before any connection.
    let submit = ["submit", "--connect", "127.0.0.1:1", "g", "-k", "2"];
    let cases: &[(&[&str], &[&str], &str)] = &[
        (&["serve", "--workers", "x"], &[], "--workers"),
        (&["serve", "--listen"], &[], "--listen"),
        (&["stats", "--connect"], &[], "--connect"),
        (&submit, &["--steps", "10", "--chunk", "x"], "--chunk"),
        (&submit, &["--steps", "10", "-f", "dot"], "unknown format"),
        (
            &submit,
            &["--steps", "10", "--coarsen-until", "0"],
            "coarsening target must be positive",
        ),
    ];
    for (args, extra, fragment) in cases {
        let output = ffpart().args(*args).args(*extra).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?} {extra:?}: {stderr}"
        );
        assert!(stderr.contains(fragment), "{args:?} {extra:?}: {stderr}");
    }
}

#[test]
fn submit_to_unreachable_server_exits_3() {
    let output = ffpart()
        .args([
            "submit",
            "--connect",
            "127.0.0.1:1",
            "g.graph",
            "-k",
            "2",
            "--steps",
            "10",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot connect"));
}

#[test]
fn mincut_diagnostic() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-mc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let output = ffpart()
        .args([
            graph.to_str().unwrap(),
            "-k",
            "2",
            "-m",
            "percolation",
            "--mincut",
            "-q",
        ])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The sample graph's weakest seam is the weight-1 bridge.
    assert!(
        stdout.contains("global min cut: 1.0000"),
        "stdout: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `--cancel-after-ms` race fix: a 0 ms cancel rides the same
/// connection as the submit and lands on a job the server already
/// acknowledged — the CLI still exits 0 with a best-so-far partition,
/// never an error.
#[test]
fn zero_ms_cancel_still_yields_best_so_far_partition() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-cancel0-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let (guard, addr) = spawn_server();
    let out = dir.join("cancelled.part");
    let output = ffpart()
        .args([
            "submit",
            "--connect",
            &addr,
            graph.to_str().unwrap(),
            "-k",
            "2",
            "--steps",
            "100000000000",
            "--cancel-after-ms",
            "0",
            "-q",
            "-w",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("status=cancelled"), "stdout: {stdout}");
    assert_eq!(
        std::fs::read_to_string(&out).unwrap().lines().count(),
        6,
        "best-so-far partition written despite the immediate cancel"
    );
    ff_service::Client::connect(&*addr)
        .unwrap()
        .shutdown()
        .unwrap();
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// `ffpart serve` hardening flags: a saturated `--max-jobs 1` server
/// answers the overflow submit with a rejection (exit 4), and the
/// `--http` gateway banner + `GET /stats` work end to end.
#[test]
fn serve_hardening_flags_reject_overflow_and_serve_http() {
    use std::io::{Read, Write};
    let dir = std::env::temp_dir().join(format!("ffpart-test-harden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let (guard, addr, http) = spawn_server_with(&["--max-jobs", "1", "--http", "127.0.0.1:0"]);
    let http = http.expect("--http must print a banner");

    // Fill the single admission slot with an effectively unbounded job.
    let mut filler = ffpart()
        .args([
            "submit",
            "--connect",
            &addr,
            graph.to_str().unwrap(),
            "-k",
            "2",
            "--steps",
            "100000000000",
            "-q",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    // Wait until the server reports the job in flight.
    let mut admin = ff_service::Client::connect(&*addr).unwrap();
    for _ in 0..100 {
        match admin.stats().unwrap() {
            ff_service::Event::Stats(st) if st.jobs_running >= 1 => break,
            _ => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }

    // Overflow submit: exit 4 with the retry hint on stderr.
    let output = ffpart()
        .args([
            "submit",
            "--connect",
            &addr,
            graph.to_str().unwrap(),
            "-k",
            "2",
            "--steps",
            "100",
            "-q",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(4), "rejection is exit 4");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("retry after"), "stderr: {stderr}");

    // The HTTP gateway answers GET /stats with the admission numbers.
    let mut stream = std::net::TcpStream::connect(&*http).unwrap();
    write!(
        stream,
        "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "raw: {raw}");
    assert!(raw.contains("\"max_jobs\":1"), "raw: {raw}");
    assert!(raw.contains("\"jobs_rejected\":1"), "raw: {raw}");

    // Cancel the filler via HTTP DELETE (job ids start at 1).
    let mut stream = std::net::TcpStream::connect(&*http).unwrap();
    write!(
        stream,
        "DELETE /jobs/1 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.contains("\"known\":true"), "raw: {raw}");
    assert!(filler.wait().unwrap().success(), "cancelled job exits 0");

    admin.shutdown().unwrap();
    drop(guard);
    std::fs::remove_dir_all(&dir).ok();
}

/// Both front-ends log the `load` span: an HTTP `PUT /instances/:key`
/// on a `--log-format json` server carries the same fields as an NDJSON
/// `load` of the same graph.
#[test]
fn http_and_ndjson_loads_log_the_same_load_span() {
    use std::io::{BufRead, Read, Write};
    use std::process::Stdio;
    const GRID: &str = "9 12\n2 4\n1 3 5\n2 6\n1 5 7\n2 4 6 8\n3 5 9\n4 8\n5 7 9\n6 8\n";
    let mut child = ffpart()
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
        .args(["--http", "127.0.0.1:0", "--log-format", "json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut stderr = child.stderr.take().unwrap();
    let mut banners = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let guard = ServeGuard(child);
    let mut banner = |prefix: &str| {
        let line = banners.next().unwrap().unwrap();
        line.strip_prefix(prefix)
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .to_string()
    };
    let addr = banner("ffpart: serving on ");
    let http = banner("ffpart: http on ");

    let mut client = ff_service::Client::connect(&*addr).unwrap();
    client
        .load(
            "ndjson",
            ff_service::GraphSource::Data(GRID.into()),
            ff_service::GraphFormat::Metis,
        )
        .unwrap();
    let mut stream = std::net::TcpStream::connect(&*http).unwrap();
    write!(
        stream,
        "PUT /instances/http?format=metis HTTP/1.1\r\nHost: t\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{GRID}",
        GRID.len()
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "raw: {raw}");

    // Each span is logged before its reply is sent, so both are in the
    // pipe once the server is gone.
    drop(guard);
    let mut log = String::new();
    stderr.read_to_string(&mut log).unwrap();
    let spans: Vec<&str> = log
        .lines()
        .filter(|line| line.contains(r#""event":"load""#))
        .map(|line| line.split_once(',').map_or(line, |(_ts, rest)| rest))
        .collect();
    assert_eq!(
        spans,
        [
            r#""event":"load","instance":"ndjson","vertices":9,"edges":12,"cached":false}"#,
            r#""event":"load","instance":"http","vertices":9,"edges":12,"cached":false}"#,
        ],
        "log: {log}"
    );
}

/// Tentpole at the CLI layer: `--workers N|auto` shards the island
/// ensemble across spawned worker processes, and the resulting `.part`
/// file (and the summary on stdout) is byte-identical to the plain
/// in-process run with the same seed and budget.
#[test]
fn one_shot_workers_flag_is_byte_identical_to_in_process() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-dist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);
    let run = |out: &std::path::Path, extra: &[&str]| {
        let mut args = vec![
            graph.to_str().unwrap(),
            "-k",
            "2",
            "-m",
            "ff",
            "--steps",
            "4000",
            "-s",
            "5",
            "--islands",
            "4",
            "-q",
            "-w",
            out.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let output = ffpart().args(&args).output().unwrap();
        assert!(
            output.status.success(),
            "{extra:?} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        (output.stdout, output.stderr)
    };
    // Everything before the wall-clock field is deterministic.
    let metrics = |stdout: &[u8]| {
        let text = String::from_utf8(stdout.to_vec()).unwrap();
        text.split("  time").next().unwrap().to_string()
    };
    let base = dir.join("base.part");
    let (base_stdout, _) = run(&base, &[]);
    let base_part = std::fs::read(&base).unwrap();
    for workers in ["2", "4", "auto"] {
        let out = dir.join(format!("w{workers}.part"));
        let (stdout, stderr) = run(&out, &["--workers", workers]);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            base_part,
            "--workers {workers} diverged from the in-process partition"
        );
        assert_eq!(
            metrics(&stdout),
            metrics(&base_stdout),
            "--workers {workers} summary diverged from the in-process one"
        );
        assert!(
            String::from_utf8_lossy(&stderr).contains("worker process"),
            "banner should mention the worker fan-out: {}",
            String::from_utf8_lossy(&stderr)
        );
    }

    // Default islands (one): the run keeps the root seed with or without
    // `--workers`. On the 3×3 grid with seed 5, a derived island seed
    // lands on a different partition.
    let grid = dir.join("grid.graph");
    std::fs::write(
        &grid,
        "9 12\n2 4\n1 3 5\n2 6\n1 5 7\n2 4 6 8\n3 5 9\n4 8\n5 7 9\n6 8\n",
    )
    .unwrap();
    let one_island = |name: &str, extra: &[&str]| {
        let out = dir.join(name);
        let mut args = vec![grid.to_str().unwrap(), "-k", "2", "-m", "ff"];
        args.extend_from_slice(&["--steps", "20000", "-s", "5", "-q"]);
        args.extend_from_slice(&["-w", out.to_str().unwrap()]);
        args.extend_from_slice(extra);
        let output = ffpart().args(&args).output().unwrap();
        assert!(
            output.status.success(),
            "{extra:?} stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read(&out).unwrap()
    };
    assert_eq!(
        one_island("one.part", &["--workers", "2"]),
        one_island("one_base.part", &[]),
        "--workers diverged from the in-process run with one island"
    );

    // Distribution is ff-only and step-budgeted: anything else is usage.
    for extra in [
        &["--workers", "2", "-m", "multilevel"][..],
        &["--workers", "2", "--multilevel"][..],
        &["--workers", "2", "-b", "0.5"][..],
        &["--workers", "0"][..],
    ] {
        let mut args = vec![graph.to_str().unwrap(), "-k", "2", "-m", "ff", "-q"];
        if !extra.contains(&"-b") {
            args.extend_from_slice(&["--steps", "100"]);
        }
        args.extend_from_slice(extra);
        // `-m multilevel` after the earlier `-m ff` overrides it.
        let output = ffpart().args(&args).output().unwrap();
        assert_eq!(
            output.status.code(),
            Some(2),
            "{extra:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Federated mode: `submit --workers host1,host2` drives two live
/// servers as islands hosts and must write the same bytes as a plain
/// single-server `submit --connect` of the identical job.
#[test]
fn federated_submit_matches_single_server_submit() {
    let dir = std::env::temp_dir().join(format!("ffpart-test-fed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = write_sample_graph(&dir);

    let (guard_a, addr_a) = spawn_server();
    let (guard_b, addr_b) = spawn_server();
    let (guard_c, addr_c) = spawn_server();

    let common = |out: &std::path::Path| {
        vec![
            graph.to_str().unwrap().to_string(),
            "-k".into(),
            "2".into(),
            "-s".into(),
            "5".into(),
            "--steps".into(),
            "4000".into(),
            "--islands".into(),
            "4".into(),
            "-w".into(),
            out.to_str().unwrap().to_string(),
        ]
    };
    let single = dir.join("single.part");
    let mut args = vec!["submit".to_string(), "--connect".into(), addr_c.clone()];
    args.extend(common(&single));
    let output = ffpart().args(&args).output().unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let fed = dir.join("federated.part");
    let mut args = vec![
        "submit".to_string(),
        "--workers".into(),
        format!("{addr_a},{addr_b}"),
    ];
    args.extend(common(&fed));
    let output = ffpart().args(&args).output().unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("status=completed"), "stdout: {stdout}");
    assert!(stdout.contains("improvement value="), "stdout: {stdout}");

    assert_eq!(
        std::fs::read(&fed).unwrap(),
        std::fs::read(&single).unwrap(),
        "federated two-server run diverged from the single-server job"
    );

    // `--workers` and `--connect` are mutually exclusive in submit.
    let output = ffpart()
        .args([
            "submit",
            "--connect",
            &addr_c,
            "--workers",
            &addr_a,
            graph.to_str().unwrap(),
            "-k",
            "2",
            "--steps",
            "100",
        ])
        .output()
        .unwrap();
    assert_eq!(
        output.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    for addr in [addr_a, addr_b, addr_c] {
        ff_service::Client::connect(&*addr)
            .unwrap()
            .shutdown()
            .unwrap();
    }
    drop((guard_a, guard_b, guard_c));
    std::fs::remove_dir_all(&dir).ok();
}
