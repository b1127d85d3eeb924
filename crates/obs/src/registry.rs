//! The metrics registry: named families of counters, gauges and
//! fixed-bucket histograms, each family holding one series per label
//! set.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones around atomics: registration takes a lock once, updates are
//! lock-free, and the same `(name, labels)` always resolves to the same
//! underlying series — two subsystems asking for
//! `ff_jobs_completed_total` increment one counter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a metric family measures. Fixed at first registration; a second
/// registration under the same name must agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// Observations bucketed by fixed upper bounds (plus `+Inf`).
    Histogram,
}

impl Kind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A monotone counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (an `f64` that can move both ways).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

pub(crate) struct HistogramCore {
    /// Upper bounds (inclusive, per Prometheus `le`) of every bucket but
    /// the last; the last bucket is `+Inf`. Finite, strictly increasing.
    pub(crate) bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; `bounds.len() + 1`
    /// entries, the last being the `+Inf` overflow bucket.
    pub(crate) buckets: Vec<AtomicU64>,
    /// Sum of observed values, as `f64` bits.
    pub(crate) sum: AtomicU64,
}

/// A fixed-bucket histogram handle.
#[derive(Clone)]
pub struct Histogram(pub(crate) Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&hi| v <= hi)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match core
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The finite bucket upper bounds (the `+Inf` bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket (non-cumulative) counts, `bounds().len() + 1` entries.
    pub fn counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum.load(Ordering::Relaxed))
    }
}

pub(crate) enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: Kind,
    /// Histogram bounds shared by every series of the family.
    pub(crate) bounds: Vec<f64>,
    /// Series keyed by their rendered label block (`""` for none) —
    /// `BTreeMap` so exposition order is deterministic.
    pub(crate) series: BTreeMap<String, Series>,
}

/// A thread-safe, clonable metrics registry. See the [crate docs](crate)
/// for a full example.
#[derive(Clone, Default)]
pub struct Registry {
    pub(crate) inner: Arc<Mutex<BTreeMap<String, Family>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("Registry")
            .field("families", &inner.len())
            .finish()
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Renders a label set as the exposition block `{a="x",b="y"}` (empty
/// string for no labels), label values escaped, labels sorted by name so
/// the same set always keys the same series.
pub(crate) fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        assert!(valid_label_name(k), "invalid label name `{k}`");
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// An unlabeled counter. Idempotent: the same name returns the same
    /// underlying series.
    ///
    /// # Panics
    /// On an invalid metric name, or if `name` is already registered
    /// with a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// A counter with labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, Kind::Counter, labels, &[]) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// An unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// A gauge with labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, Kind::Gauge, labels, &[]) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// An unlabeled histogram with the given finite, strictly increasing
    /// bucket upper bounds (a `+Inf` bucket is always appended).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// A histogram with labels. Every series of one family shares the
    /// family's bounds (fixed at first registration).
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (`+Inf` is implicit)"
        );
        match self.series(name, help, Kind::Histogram, labels, bounds) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Series {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        let key = label_block(labels);
        let mut inner = self.inner.lock().unwrap();
        let family = inner.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            bounds: bounds.to_vec(),
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            kind,
            "metric `{name}` already registered as a {}",
            family.kind.as_str()
        );
        if kind == Kind::Histogram {
            assert_eq!(
                family.bounds, bounds,
                "metric `{name}` already registered with different bounds"
            );
        }
        let series = family.series.entry(key).or_insert_with(|| match kind {
            Kind::Counter => Series::Counter(Counter(Arc::new(AtomicU64::new(0)))),
            Kind::Gauge => Series::Gauge(Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())))),
            Kind::Histogram => Series::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0.0f64.to_bits()),
            }))),
        });
        match series {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_one_series() {
        let reg = Registry::new();
        let a = reg.counter("ff_test_total", "help");
        let b = reg.counter("ff_test_total", "other help ignored");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let l1 = reg.counter_with("ff_lbl_total", "h", &[("kind", "x")]);
        let l2 = reg.counter_with("ff_lbl_total", "h", &[("kind", "y")]);
        l1.inc();
        assert_eq!(l2.get(), 0, "distinct label sets are distinct series");
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_bound() {
        let reg = Registry::new();
        let h = reg.histogram("ff_h", "h", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(1.0); // le="1" is inclusive
        h.observe(5.0);
        h.observe(100.0);
        assert_eq!(h.counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 106.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("ff_conflict", "h");
        reg.gauge("ff_conflict", "h");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_name_panics() {
        Registry::new().counter("0bad", "h");
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let reg = Registry::new();
        let c = reg.counter("ff_c_total", "h");
        let h = reg.histogram("ff_ms", "h", &[10.0]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i as f64);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
    }
}
