//! Service-side observability: the always-on metrics registry behind
//! `GET /metrics` and the extended `stats` event, plus the optional
//! structured operational logger behind `ffpart serve --log-format`.
//!
//! The registry is the service's only counter store. Each count and
//! histogram is updated where its event happens (admission, rejection,
//! `done`, a cache hit, load or eviction, a gate acquisition, a
//! connection), and the `stats` event is built by reading those same
//! handles, so `stats` and `/metrics` cannot disagree. The point-in-time
//! gauges (jobs in flight, gate queue, cache bytes and instances) are
//! read from their owners by the one snapshot both of them take. None of
//! it touches the engine's RNG or chunking, so every metric is
//! observation-only.
//!
//! This module is the one place that names a family: each family's name,
//! help, labels and bounds are written once here, and the cache, the
//! gate, the journal and the distributed coordinator get their handles
//! from it. The registry is always live (a scrape of an idle server
//! reports zeros — families are pre-registered so the catalog is visible
//! from the first scrape); only the logger is opt-in.

use crate::gate::WAIT_BUCKET_MS;
use crate::protocol::{DoneInfo, JobStatus, StatsInfo};
use ff_obs::{Counter, Gauge, Histogram, LogValue, Logger, Registry};

/// Buckets in the job-duration histogram (the last is unbounded).
pub const DURATION_BUCKETS: usize = 6;

/// Upper bounds (inclusive, in milliseconds) of the first
/// `DURATION_BUCKETS - 1` job-duration buckets.
pub const DURATION_BUCKET_MS: [u64; DURATION_BUCKETS - 1] = [10, 100, 1_000, 10_000, 60_000];

/// The `status` label of each [`JobStatus`], indexed by `status as usize`.
const STATUSES: [&str; 3] = ["completed", "cancelled", "deadline"];

fn ms_bounds(bounds_ms: &[u64]) -> Vec<f64> {
    bounds_ms.iter().map(|&b| b as f64).collect()
}

/// The server's metric handles plus its operational [`Logger`]. One per
/// server state; handles are cheap clones of registry series.
pub(crate) struct Metrics {
    pub(crate) registry: Registry,
    pub(crate) logger: Logger,
    /// Jobs admitted; counted at admission.
    pub(crate) submitted: Counter,
    /// Submits refused by admission control; counted at rejection.
    pub(crate) rejected: Counter,
    /// Worker-pool width, set once at bind.
    pub(crate) workers: Gauge,
    /// `ff_jobs_completed_total`, one series per [`JobStatus`].
    completed: [Counter; 3],
    panicked: Counter,
    job_duration_ms: Histogram,
    jobs_in_flight: Gauge,
    gate_queued: Gauge,
    cache_bytes: Gauge,
    instances: Gauge,
}

impl Metrics {
    pub(crate) fn new(registry: Registry, logger: Logger) -> Metrics {
        let m = Metrics {
            submitted: registry.counter("ff_jobs_submitted_total", "Jobs admitted since start"),
            rejected: registry.counter(
                "ff_jobs_rejected_total",
                "Jobs refused by admission control",
            ),
            workers: registry.gauge("ff_workers", "Worker-pool width (compute slots)"),
            completed: STATUSES.map(|status| {
                registry.counter_with(
                    "ff_jobs_completed_total",
                    "Jobs finished, by final status",
                    &[("status", status)],
                )
            }),
            panicked: registry.counter(
                "ff_jobs_panicked_total",
                "Job driver threads that panicked (slot and permit were released)",
            ),
            job_duration_ms: registry.histogram(
                "ff_job_duration_ms",
                "Wall-clock milliseconds from job start to done",
                &ms_bounds(&DURATION_BUCKET_MS),
            ),
            jobs_in_flight: registry.gauge(
                "ff_jobs_in_flight",
                "Jobs admitted and not yet done (queued + running)",
            ),
            gate_queued: registry.gauge(
                "ff_gate_queued",
                "Job chunks and worker-session epochs currently waiting for a compute slot",
            ),
            cache_bytes: registry.gauge("ff_cache_bytes", "CSR bytes resident in the cache"),
            instances: registry.gauge("ff_cache_instances", "Instances currently cached"),
            registry,
            logger,
        };
        // Pre-register the families other owners fill in (the cache, the
        // gate, connections, distributed coordination, the journal), so
        // the full catalog is present — at zero — from the first scrape.
        CacheCounters::new(&m.registry);
        permit_wait_ms(&m.registry);
        for proto in ["ndjson", "http"] {
            connections(&m.registry, proto);
        }
        dist_families(&m.registry);
        journal_families(&m.registry);
        m
    }

    /// Records one finished job: [`Metrics::count_done`] plus the `done`
    /// span log line.
    pub(crate) fn job_done(&self, done: &DoneInfo) {
        self.count_done(done);
        self.logger.log(
            "done",
            Some(done.job),
            &[
                ("status", LogValue::Str(STATUSES[done.status as usize])),
                ("value", LogValue::F64(done.value)),
                ("steps", LogValue::U64(done.steps)),
                ("elapsed_ms", LogValue::U64(done.elapsed_ms)),
                ("migrations", LogValue::U64(done.migrations)),
            ],
        );
    }

    /// Counts one finished job, live or replayed from the journal: the
    /// status-labelled completion counter and the duration histogram.
    pub(crate) fn count_done(&self, done: &DoneInfo) {
        self.completed[done.status as usize].inc();
        self.job_duration_ms.observe(done.elapsed_ms as f64);
    }

    /// Records a driver-thread panic: the counter plus a `panic` span
    /// line. The guard that calls this has already released the job's
    /// registry slot, so the count measures lost *results*, not lost
    /// capacity.
    pub(crate) fn job_panicked(&self, job: u64) {
        self.panicked.inc();
        self.logger
            .log("panic", Some(job), &[("released", LogValue::Bool(true))]);
    }

    /// Counts a connection open and returns a guard that counts the
    /// close when dropped.
    pub(crate) fn connection(&self, proto: &'static str) -> ConnectionGuard {
        let (opened, open) = connections(&self.registry, proto);
        opened.inc();
        open.add(1.0);
        ConnectionGuard { open }
    }

    /// Per-bucket counts of the job-duration histogram.
    pub(crate) fn job_duration_counts(&self) -> [u64; DURATION_BUCKETS] {
        let counts = self.job_duration_ms.counts();
        std::array::from_fn(|i| counts[i])
    }

    /// Jobs finished in any status: the sum of the
    /// `ff_jobs_completed_total` series.
    pub(crate) fn jobs_done(&self) -> u64 {
        self.completed.iter().map(Counter::get).sum()
    }

    /// Jobs that finished cancelled.
    pub(crate) fn jobs_cancelled(&self) -> u64 {
        self.completed[JobStatus::Cancelled as usize].get()
    }

    /// Sets the point-in-time gauges from a snapshot of their owners
    /// (the job registry, the gate and the cache). Called by the one
    /// snapshot both `stats` and `/metrics` take.
    pub(crate) fn set_gauges(&self, st: &StatsInfo) {
        self.jobs_in_flight.set(st.jobs_running as f64);
        self.gate_queued.set(st.gate_queued as f64);
        self.cache_bytes.set(st.cache_bytes as f64);
        self.instances.set(st.instances as f64);
    }
}

/// Decrements the per-front-end open-connections gauge on drop.
pub(crate) struct ConnectionGuard {
    open: Gauge,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.open.add(-1.0);
    }
}

/// A front-end's connection families: connections accepted, and open now.
fn connections(registry: &Registry, proto: &str) -> (Counter, Gauge) {
    let labels = [("proto", proto)];
    (
        registry.counter_with(
            "ff_connections_opened_total",
            "Client connections accepted, by front-end",
            &labels,
        ),
        registry.gauge_with(
            "ff_connections_open",
            "Client connections currently open, by front-end",
            &labels,
        ),
    )
}

/// The instance cache's traffic counters, which
/// [`InstanceCache::stats`](crate::cache::InstanceCache::stats) reads back.
pub(crate) struct CacheCounters {
    pub(crate) hits: Counter,
    pub(crate) loads: Counter,
    pub(crate) evictions: Counter,
}

impl CacheCounters {
    pub(crate) fn new(registry: &Registry) -> CacheCounters {
        CacheCounters {
            hits: registry.counter("ff_cache_hits_total", "Instance-cache hits served"),
            loads: registry.counter(
                "ff_cache_loads_total",
                "Graph loads (parse + CSR build) performed",
            ),
            evictions: registry.counter(
                "ff_cache_evictions_total",
                "Instances evicted to stay within the cache byte budget",
            ),
        }
    }
}

/// The gate's permit-wait histogram: one observation per slot
/// acquisition, job chunks and worker-session epochs alike.
pub(crate) fn permit_wait_ms(registry: &Registry) -> Histogram {
    registry.histogram(
        "ff_permit_wait_ms",
        "Milliseconds a job chunk or worker-session epoch blocked waiting for a compute slot",
        &ms_bounds(&WAIT_BUCKET_MS),
    )
}

/// Bucket bounds for the distributed coordinator's replay-length
/// histogram (ops replayed into a respawned worker).
const REPLAY_BUCKETS: [f64; 5] = [1.0, 10.0, 100.0, 1000.0, 10000.0];

fn wire_failures(registry: &Registry, kind: &str) -> Counter {
    registry.counter_with(
        "ff_dist_wire_failures_total",
        "Worker wire failures observed by the coordinator, by kind",
        &[("kind", kind)],
    )
}

fn respawns(registry: &Registry) -> Counter {
    registry.counter(
        "ff_dist_respawns_total",
        "Workers respawned/reconnected after a wire failure",
    )
}

fn replay_ops(registry: &Registry) -> Histogram {
    registry.histogram(
        "ff_dist_replay_ops",
        "Ops replayed into a freshly respawned worker",
        &REPLAY_BUCKETS,
    )
}

/// Registers the distributed-coordinator metric families on `registry`
/// (zero-valued until a coordinator runs with this registry via
/// [`DistOpts::obs`](crate::dist::DistOpts)). Idempotent.
pub(crate) fn dist_families(registry: &Registry) {
    for kind in ["dead", "timeout", "corrupt"] {
        wire_failures(registry, kind);
    }
    respawns(registry);
    replay_ops(registry);
}

/// Records one wire failure: the by-kind counter plus the length of the
/// op log about to be replayed.
pub(crate) fn dist_wire_failure(registry: &Registry, kind: &'static str, replayed: usize) {
    wire_failures(registry, kind).inc();
    replay_ops(registry).observe(replayed as f64);
}

/// Counts one worker respawn/reconnect attempt.
pub(crate) fn dist_respawn(registry: &Registry) {
    respawns(registry).inc();
}

/// Sets the per-worker epoch gauge — the coordinator updates it as each
/// shard's `wadvance` completes, so a dashboard can read epoch lag
/// (max − min across workers) directly.
pub(crate) fn dist_worker_epoch(registry: &Registry, worker: usize, epoch: u64) {
    registry
        .gauge_with(
            "ff_dist_worker_epoch",
            "Lockstep epoch each worker has completed",
            &[("worker", &worker.to_string())],
        )
        .set(epoch as f64);
}

/// Registers the journal metric families on `registry` so they render —
/// at zero — from the first scrape, journal or no journal. Idempotent.
pub(crate) fn journal_families(registry: &Registry) {
    for kind in ["instance", "submitted", "event"] {
        journal_record_counter(registry, kind);
    }
    journal_write_errors(registry);
    journal_replayed_records(registry);
    for outcome in ["finished", "resumed", "skipped"] {
        journal_replay_jobs(registry, outcome);
    }
}

/// The by-kind appended-records counter.
pub(crate) fn journal_record_counter(registry: &Registry, kind: &'static str) -> Counter {
    registry.counter_with(
        "ff_journal_records_total",
        "Journal records appended, by kind",
        &[("kind", kind)],
    )
}

/// Appends that failed (the journal may be missing recent history).
pub(crate) fn journal_write_errors(registry: &Registry) -> Counter {
    registry.counter(
        "ff_journal_write_errors_total",
        "Journal appends that failed; recent history may be missing from the journal",
    )
}

/// Intact records read back at startup replay.
pub(crate) fn journal_replayed_records(registry: &Registry) -> Counter {
    registry.counter(
        "ff_journal_replayed_records_total",
        "Intact journal records read at startup replay",
    )
}

/// The by-outcome replayed-jobs counter (`finished` restored without
/// re-execution, `resumed` re-executed, `skipped` invalidated).
pub(crate) fn journal_replay_jobs(registry: &Registry, outcome: &'static str) -> Counter {
    registry.counter_with(
        "ff_journal_replay_jobs_total",
        "Jobs seen at journal replay, by outcome",
        &[("outcome", outcome)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_obs::parse_exposition;

    fn done(status: JobStatus, elapsed_ms: u64) -> DoneInfo {
        DoneInfo {
            job: 1,
            status,
            value: 0.5,
            parts: 2,
            steps: 100,
            elapsed_ms,
            migrations: 0,
            assignment: None,
            pareto: None,
        }
    }

    #[test]
    fn idle_server_catalog_is_complete_and_zero() {
        let m = Metrics::new(Registry::new(), Logger::off());
        let page = m.registry.render();
        let samples = parse_exposition(&page).unwrap();
        for family in [
            "ff_jobs_submitted_total",
            "ff_jobs_completed_total",
            "ff_jobs_rejected_total",
            "ff_cache_loads_total",
            "ff_connections_opened_total",
            "ff_dist_respawns_total",
            "ff_dist_wire_failures_total",
            "ff_journal_records_total",
            "ff_journal_replay_jobs_total",
            "ff_jobs_panicked_total",
        ] {
            assert!(
                samples.iter().any(|s| s.name == family),
                "{family} missing from idle scrape"
            );
        }
        assert!(samples
            .iter()
            .filter(|s| s.name.ends_with("_total"))
            .all(|s| s.value == 0.0));
    }

    #[test]
    fn job_done_feeds_status_counters_and_duration_histogram() {
        let m = Metrics::new(Registry::new(), Logger::off());
        m.job_done(&done(JobStatus::Completed, 5));
        m.job_done(&done(JobStatus::Completed, 500));
        m.job_done(&done(JobStatus::Cancelled, 50));
        assert_eq!(m.jobs_cancelled(), 1);
        let counts = m.job_duration_counts();
        assert_eq!(counts.iter().sum::<u64>(), 3);
        assert_eq!(counts[0], 1); // ≤ 10 ms
        assert_eq!(counts[1], 1); // ≤ 100 ms
        assert_eq!(counts[2], 1); // ≤ 1 s
    }

    #[test]
    fn connection_guard_tracks_open_count() {
        let m = Metrics::new(Registry::new(), Logger::off());
        let a = m.connection("ndjson");
        let b = m.connection("ndjson");
        let _c = m.connection("http");
        drop(a);
        drop(b);
        let page = m.registry.render();
        assert!(
            page.contains("ff_connections_open{proto=\"http\"} 1"),
            "{page}"
        );
        assert!(
            page.contains("ff_connections_open{proto=\"ndjson\"} 0"),
            "{page}"
        );
        assert!(
            page.contains("ff_connections_opened_total{proto=\"ndjson\"} 2"),
            "{page}"
        );
    }
}
