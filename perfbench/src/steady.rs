//! Steadiness mode: runs each workload once per seed in a child process
//! and prints every end-to-end metric's spread — the interquartile range
//! as a share of the median — against its bound in `BENCHMARK.json`.
//! A metric is steady when its spread stays below a third of its bound
//! (`setup_s` is reported but exempt).

use crate::stats::{median, quartiles, relative_spread};
use crate::END_TO_END;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// `BENCHMARK.json`'s end-to-end bounds by name, and its `run_seconds`.
fn read_spec() -> Result<(BTreeMap<String, f64>, f64), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let run_seconds = v
        .get("run_seconds")
        .and_then(|s| s.as_f64())
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let metrics = v
        .get("end_to_end")
        .and_then(|m| m.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(|b| b.as_f64())
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect::<Result<_, String>>()
        .map(|bounds| (bounds, run_seconds))
}

/// One child run; returns its parsed result line.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<serde_json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    serde_json::from_str(last).map_err(|e| format!("bad result line: {e}"))
}

/// Returns whether every run was correct and every bounded metric steady.
/// Runs last `seconds`, or `BENCHMARK.json`'s `run_seconds` when `None`.
pub fn run(workloads: &[String], runs: usize, first_seed: u64, seconds: Option<f64>) -> bool {
    let (bounds, seconds) = match read_spec() {
        Ok((bounds, run_seconds)) => (bounds, seconds.unwrap_or(run_seconds)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return false;
        }
    };
    let mut all_ok = true;
    for workload in workloads {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for seed in first_seed..first_seed + runs as u64 {
            let result = match run_once(workload, seed, seconds) {
                Ok(r) => r,
                Err(e) => {
                    println!("{workload} seed {seed}: FAILED ({e})");
                    all_ok = false;
                    continue;
                }
            };
            let correct = result.get("correct").and_then(|c| c.as_bool()) == Some(true);
            all_ok &= correct;
            let mut line = format!("{workload} seed {seed}: correct={correct}");
            for (name, _) in END_TO_END {
                let v = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(|v| v.as_f64());
                if let Some(v) = v {
                    values.entry(name).or_default().push(v);
                    line.push_str(&format!(" {name}={v:.4}"));
                }
            }
            println!("{line}");
        }
        println!(
            "{workload}: {:<12} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (name, _) in END_TO_END {
            let xs = values.get(name).map(Vec::as_slice).unwrap_or_default();
            let bound = bounds.get(name).copied().unwrap_or(f64::NAN);
            let (q1, q3) = quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
            let spread = relative_spread(xs).unwrap_or(f64::INFINITY);
            let steady = name == "setup_s" || spread < bound / 3.0;
            all_ok &= steady;
            println!(
                "{workload}: {name:<12} {:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6.3} {}",
                median(xs),
                if steady { "ok" } else { "UNSTEADY" }
            );
        }
    }
    all_ok
}
