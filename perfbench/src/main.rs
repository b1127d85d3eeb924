//! The repository benchmark: end-to-end and per-layer performance of the
//! fusion–fission stack on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --steady <runs> [--workload <name>]... [--seconds <s>] [--first-seed <n>]
//! ```
//!
//! A run makes its inputs from `--seed`, measures for `--seconds`, checks
//! every output, prints a human-readable summary and, as its last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run also records spans around each call into a layer and reports the
//! per-layer metrics. `--steady` runs each workload once per seed in
//! child processes and prints every end-to-end metric's spread against
//! its bound in `BENCHMARK.json`. See `perfbench/README.md`.

mod common;
mod dist;
mod flat;
mod http;
mod multilevel;
mod scrape;
mod serve;
mod stats;
mod steady;
mod trace;

use common::{Ctx, Outcome};
use std::fmt::Write as _;
use std::path::PathBuf;

pub const WORKLOADS: [&str; 4] = [
    "flat_sparse_1e4",
    "multilevel_sparse_1e5",
    "serve_mixed",
    "dist_islands",
];

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("job_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, reported by every workload with tracing on; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("graph.generate_ms", "ms"),
    ("graph.coarsen_ms", "ms"),
    ("graph.levels", "count"),
    ("graph.coarse_vertices", "count"),
    ("core.agglomerate_us_per_step", "us"),
    ("core.step_us", "us"),
    ("core.steps", "count"),
    ("core.agglomerate_steps", "count"),
    ("core.trace_points", "count"),
    ("engine.start_ms", "ms"),
    ("engine.epoch_ms", "ms"),
    ("engine.epochs", "count"),
    ("engine.coarse_search_ms", "ms"),
    ("engine.harvest_ms", "ms"),
    ("engine.migration_accept_ratio", "ratio"),
    ("multilevel.refine_ms", "ms"),
    ("multilevel.refine_ms.level0", "ms"),
    ("multilevel.refine_ms.level1", "ms"),
    ("multilevel.refine_ms.level2", "ms"),
    ("multilevel.refine_ms.level3", "ms"),
    ("multilevel.refine_ms.level4", "ms"),
    ("multilevel.refine_ms.level5", "ms"),
    ("multilevel.refine_moves", "count"),
    ("multilevel.refine_gain", "objective"),
    ("pipeline.residual_ms", "ms"),
    ("service.short_job_tail_ms", "ms"),
    ("service.long_job_p50_ms", "ms"),
    ("service.load_ms", "ms"),
    ("service.jobs_per_s", "1/s"),
    ("service.overhead_ms.ndjson", "ms"),
    ("service.overhead_ms.http", "ms"),
    ("service.engine_ms", "ms"),
    ("service.ref_ms", "ms"),
    ("service.first_improvement_ms", "ms"),
    ("service.permit_wait_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.journal_records", "count"),
    ("service.short_jobs", "count"),
    ("service.long_jobs", "count"),
    ("dist.wire_ms_per_epoch", "ms"),
    ("dist.ref_ms", "ms"),
    ("dist.epochs", "count"),
    ("dist.first_news_ms", "ms"),
    ("dist.wire_failures", "count"),
    ("dist.respawns", "count"),
    ("quality.best_value", "objective"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("bench.error_rate", "ratio"),
    ("bench.attempted", "count"),
    ("bench.failed", "count"),
];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --steady <runs> [--workload <name>]... [--seconds <s>] [--first-seed <n>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

/// Scratch space inside the checkout the benchmark was built in.
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workloads = Vec::new();
    let mut seed: Option<u64> = None;
    let mut seconds: Option<f64> = None;
    let mut trace: Option<bool> = None;
    let mut steady: Option<usize> = None;
    let mut first_seed = 1;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workloads.push(value()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--steady" => steady = Some(value().parse().unwrap_or_else(|_| usage("bad --steady"))),
            "--first-seed" => {
                first_seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("bad --first-seed"))
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    for w in &workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            usage(&format!("unknown workload `{w}`"));
        }
    }
    if let Some(runs) = steady {
        if workloads.is_empty() {
            workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
        }
        let ok = steady::run(&workloads, runs, first_seed, seconds);
        std::process::exit(if ok { 0 } else { 1 });
    }
    let [workload] = workloads.as_slice() else {
        usage("exactly one --workload is required")
    };
    let ctx = Ctx {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        work_dir: work_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work_dir.display());
        std::process::exit(1);
    }
    let mut out = match workload.as_str() {
        "flat_sparse_1e4" => flat::run(&ctx),
        "multilevel_sparse_1e5" => multilevel::run(&ctx),
        "serve_mixed" => serve::run(&ctx),
        "dist_islands" => dist::run(&ctx),
        _ => unreachable!("workload names were validated"),
    };
    if out.rss_mb.is_empty() {
        eprintln!("perfbench: cannot read VmHWM from /proc/self/status");
        std::process::exit(1);
    }
    out.e2e.insert("peak_rss_mb", stats::median(&out.rss_mb));
    if ctx.trace {
        write_spans(&ctx, workload, &mut out);
    }
    println!("{}", render(workload, &ctx, out));
}

fn write_spans(ctx: &Ctx, workload: &str, out: &mut Outcome) {
    let path = ctx
        .work_dir
        .join(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
    let written = std::fs::File::create(&path)
        .and_then(|f| trace::write_jsonl(&out.spans, &mut std::io::BufWriter::new(f)));
    match written {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            out.spans.len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("could not write spans: {e}")),
    }
}

/// The human-readable summary followed by the one-line JSON result.
fn render(workload: &str, ctx: &Ctx, mut out: Outcome) -> String {
    let (attempted, failed) = (out.checks.attempted, out.checks.failed);
    let error_rate = failed as f64 / attempted.max(1) as f64;
    out.layer("bench.error_rate", error_rate);
    out.layer("bench.attempted", attempted as f64);
    out.layer("bench.failed", failed as f64);
    out.layer("trace.spans", out.spans.len() as f64);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload {workload}  seed {}  seconds {}  trace {}",
        ctx.seed, ctx.seconds, ctx.trace as u8
    );
    for note in &out.notes {
        let _ = writeln!(text, "  {note}");
    }
    let _ = writeln!(
        text,
        "  checks: {attempted} attempted, {failed} failed, error_rate {error_rate}"
    );
    for failure in &out.checks.failures {
        let _ = writeln!(text, "  FAILED: {failure}");
    }
    let mut correct = failed == 0;
    let mut metrics = Vec::new();
    let mut emit = |name: &str, value: f64, unit: &str| {
        let _ = writeln!(text, "  {name:<34} {value:>16.6} {unit}");
        if !value.is_finite() {
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    };
    if ctx.trace {
        for (name, unit) in PER_LAYER {
            emit(name, out.layers.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = out
                .e2e
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("workload {workload} did not report {name}"));
            emit(name, value, unit);
        }
    }
    let _ = write!(
        text,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    text
}
