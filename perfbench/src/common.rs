//! What every workload shares: its context, the outcome it reports,
//! output checks, and the timed loop.

use crate::trace::Span;
use ff_graph::Graph;
use ff_partition::{Objective, Partition};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up is repeated at least this many times per run, and until
/// [`SETUP_MIN_SECONDS`] have passed (at most [`SETUP_MAX_REPS`] times);
/// `setup_s` is the median repetition.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_REPS: usize = 100;

/// Relative tolerance for comparing a reported objective value with a
/// fresh re-score: incremental part sums may round differently from a
/// from-scratch evaluation.
pub const RESCORE_TOLERANCE: f64 = 1e-9;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout (journal files, span dumps).
    pub work_dir: PathBuf,
}

/// Output checks: each counts as one attempted operation, a mismatch
/// as one failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// A partition has exactly `k` non-empty parts and `value` equals a
    /// fresh re-score under `objective`.
    pub fn partition(
        &mut self,
        what: &str,
        g: &Graph,
        p: &Partition,
        value: f64,
        objective: Objective,
        k: usize,
    ) {
        let parts = p.num_nonempty_parts();
        self.check(parts == k, || {
            format!("{what}: {parts} non-empty parts, want {k}")
        });
        let rescored = objective.evaluate(g, p);
        self.check(close(value, rescored), || {
            format!("{what}: reported value {value} but re-score gives {rescored}")
        });
    }

    /// Same as [`Checks::partition`] for a raw assignment vector.
    pub fn assignment(
        &mut self,
        what: &str,
        g: &Graph,
        assignment: &[u32],
        value: f64,
        objective: Objective,
        k: usize,
    ) {
        let ok =
            assignment.len() == g.num_vertices() && assignment.iter().all(|&p| (p as usize) < k);
        self.check(ok, || {
            format!("{what}: assignment does not cover the graph with {k} parts")
        });
        if ok {
            let p = Partition::from_assignment(g, assignment.to_vec(), k);
            self.partition(what, g, &p, value, objective, k);
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= RESCORE_TOLERANCE * a.abs().max(b.abs())
}

/// What one run of a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result (sample counts,
    /// percentiles, derived figures).
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
    /// Peak resident memory of each measured job (or client window), MiB.
    pub rss_mb: Vec<f64>,
}

impl Outcome {
    /// Runs one measured job in its own peak-memory window.
    pub fn measure_rss<T>(&mut self, job: impl FnOnce() -> T) -> T {
        reset_peak_rss();
        let out = job();
        self.rss_mb.extend(peak_rss_mb());
        out
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Records the set-up repetitions as `setup_s` (their median).
    pub fn setup(&mut self, reps: &[Duration]) {
        let secs: Vec<f64> = reps.iter().map(Duration::as_secs_f64).collect();
        self.e2e.insert("setup_s", crate::stats::median(&secs));
        self.notes.push(format!(
            "setup: {} repetitions, median {:.4} s, max {:.4} s",
            secs.len(),
            crate::stats::median(&secs),
            secs.iter().copied().fold(0.0, f64::max)
        ));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Calls `body` at least `min_iters` times, and after that only while
/// another iteration of the mean length so far still ends within
/// `seconds`.
pub fn timed_loop(seconds: f64, min_iters: usize, mut body: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let spent = start.elapsed().as_secs_f64();
        let mean = if i == 0 { 0.0 } else { spent / i as f64 };
        if i >= min_iters && spent + mean > seconds {
            return;
        }
        body(i);
        i += 1;
    }
}

/// Times repetitions of `setup` and keeps the last result.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<Duration>) {
    let mut times: Vec<Duration> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS
            && times.iter().sum::<Duration>().as_secs_f64() < SETUP_MIN_SECONDS)
    {
        // Drop the previous result first so repetitions do not overlap.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed());
    }
    (last.expect("at least one set-up repetition"), times)
}

/// Starts a new peak-memory window: resets this process's `VmHWM` to
/// its current resident size (Linux `clear_refs` mode 5). Where that is
/// unavailable, `VmHWM` keeps the process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) since the last [`reset_peak_rss`],
/// in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Latency summary of a sample: median and tail, with the tail's
/// percentile and the sample count stated in a note.
pub fn latency(out: &mut Outcome, label: &str, samples: &[f64]) -> (f64, f64) {
    let p50 = crate::stats::median(samples);
    let (tail, pct) = crate::stats::tail(samples);
    out.notes.push(format!(
        "{label}: n={} p50={p50:.3} ms tail(p{pct:.1})={tail:.3} ms",
        samples.len()
    ));
    if samples.len() <= 16 {
        let each: Vec<String> = samples.iter().map(|x| format!("{x:.1}")).collect();
        out.notes
            .push(format!("{label} samples (ms): {}", each.join(" ")));
    }
    (p50, tail)
}

/// A server on a background thread, shut down and joined on drop.
pub struct ServerGuard(Option<ff_service::ServerHandle>);

impl ServerGuard {
    pub fn start(config: ff_service::ServerConfig) -> std::io::Result<ServerGuard> {
        let handle = ff_service::Server::bind_with("127.0.0.1:0", config)?.spawn()?;
        Ok(ServerGuard(Some(handle)))
    }

    pub fn handle(&self) -> &ff_service::ServerHandle {
        self.0.as_ref().expect("server is running until dropped")
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            // Join only after an acknowledged shutdown: joining a server
            // that never heard it would block forever.
            let stopped = ff_service::Client::connect(handle.addr()).and_then(|c| c.shutdown());
            if stopped.is_ok() {
                let _ = handle.join();
            }
        }
    }
}

/// `g` as METIS text, and the graph a server parses back from it (the
/// one every in-process reference must use).
pub fn metis_round_trip(g: &Graph) -> (String, Graph) {
    let mut text = Vec::new();
    ff_graph::io::write_metis(g, &mut text).expect("writing to memory cannot fail");
    let parsed = ff_graph::io::read_metis(text.as_slice()).expect("a written graph parses back");
    (
        String::from_utf8(text).expect("METIS text is ASCII"),
        parsed,
    )
}
