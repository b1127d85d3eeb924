//! The keyed instance cache: one loaded graph serves many jobs.
//!
//! Loading and validating a graph (METIS parse, CSR build) can dwarf a
//! small partition job, and a serving workload typically hammers a few
//! instances with many `(k, objective, seed)` requests. The cache maps a
//! client-chosen key to an [`Arc<Graph>`]; re-loading the same key from
//! the same source is a hit (no I/O, no parse), while loading the same
//! key from a *different* source replaces the entry (explicitly reported
//! as `reloaded`, never silently served stale).
//!
//! Two hardening properties make this production-shaped:
//!
//! * **Byte-budgeted LRU eviction.** Each resident graph is accounted at
//!   its CSR size ([`ff_graph::Graph::csr_bytes`]); when a load pushes
//!   the total past the budget ([`InstanceCache::with_budget`]), the
//!   least-recently-used *unpinned* entries are evicted until the cache
//!   fits again. Entries pinned by in-flight jobs are never evicted, and
//!   the entry being loaded is protected during its own insertion — so
//!   the budget can be transiently exceeded only when pinned/in-use
//!   graphs alone exceed it.
//! * **O(1) keys.** Sources are remembered as a 64-bit FNV-1a content
//!   digest, not the source text itself: a 1 MB inline graph submitted
//!   twice costs one parse and a few dozen bytes of cache metadata, and
//!   `stats` output never scales with graph size.

use crate::obs::CacheCounters;
use crate::sync::{lock, wait};
use ff_graph::Graph;
use ff_obs::{Counter, Registry};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};

/// Where a graph's bytes come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSource {
    /// A file on the server's filesystem.
    Path(String),
    /// Inline file content shipped in the request itself.
    Data(String),
}

/// Graph file format of a [`GraphSource`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// METIS `.graph` (the default).
    Metis,
    /// `u v w` edge list.
    EdgeList,
}

impl GraphFormat {
    /// Parses a format name (`metis` | `edgelist`).
    pub fn parse(name: &str) -> Option<GraphFormat> {
        match name {
            "metis" => Some(GraphFormat::Metis),
            "edgelist" => Some(GraphFormat::EdgeList),
            _ => None,
        }
    }

    /// The protocol name.
    pub fn name(&self) -> &'static str {
        match self {
            GraphFormat::Metis => "metis",
            GraphFormat::EdgeList => "edgelist",
        }
    }
}

/// Streaming 64-bit FNV-1a: the cache's source digest and the journal's
/// frame checksum. Feeding bytes in pieces hashes exactly like feeding
/// them at once, so callers never concatenate their input.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn eat(mut self, bytes: &[u8]) -> Fnv1a {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over the source identity: kind tag, format, bytes.
/// Collisions would silently serve a stale graph, but at 64 bits a
/// server would need ~2^32 *distinct sources under one key* before a
/// birthday collision is likely — acceptable for a cache keyed by
/// client-chosen names.
fn source_digest(source: &GraphSource, format: GraphFormat) -> u64 {
    let (kind, bytes) = match source {
        GraphSource::Path(p) => (0x01, p.as_bytes()),
        GraphSource::Data(d) => (0x02, d.as_bytes()),
    };
    let format = match format {
        GraphFormat::Metis => 0x10,
        GraphFormat::EdgeList => 0x20,
    };
    Fnv1a::new().eat(&[kind, format]).eat(bytes).finish()
}

struct CachedInstance {
    graph: Arc<Graph>,
    /// Content digest of `(source kind, format, bytes)` — *not* the
    /// source itself, so entry metadata stays O(1) in graph size.
    digest: u64,
    /// CSR bytes this entry is accounted at.
    bytes: usize,
    /// Jobs currently holding a [`PinnedGraph`] on this entry.
    pins: u32,
    /// LRU clock value of the last load/pin that touched this entry.
    last_use: u64,
    /// Unique generation id, so a pin taken on a since-replaced entry
    /// never unpins its successor.
    id: u64,
}

struct CacheInner {
    entries: HashMap<String, CachedInstance>,
    /// Keys with a parse in flight (single-flight: concurrent loads of
    /// one key wait for the first instead of parsing redundantly).
    pending: HashSet<String>,
    /// Byte budget; `0` = unlimited.
    budget: usize,
    bytes: usize,
    tick: u64,
    next_id: u64,
}

/// The lock, the condvar loaders wait on while another thread parses,
/// and the counters the cache feeds (updated under the lock).
struct CacheShared {
    inner: Mutex<CacheInner>,
    loaded_cv: Condvar,
    counters: CacheCounters,
}

/// What [`InstanceCache::load`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadOutcome {
    /// The request was served from cache (same key, same source).
    pub cached: bool,
    /// An existing entry under this key was replaced (same key,
    /// different source).
    pub reloaded: bool,
}

/// A point-in-time view of the cache counters, for `stats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Instances currently resident.
    pub instances: usize,
    /// CSR bytes currently resident.
    pub bytes: u64,
    /// Byte budget (`0` = unlimited).
    pub budget: u64,
    /// Cache hits served (cached loads + job pin lookups).
    pub hits: u64,
    /// Actual graph loads (parse + CSR build) performed.
    pub loads: u64,
    /// Entries evicted to stay within budget.
    pub evictions: u64,
}

/// One entry's observable state, least-recently-used first
/// (see [`InstanceCache::entries`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntryInfo {
    /// Client-chosen key.
    pub key: String,
    /// CSR bytes accounted.
    pub bytes: usize,
    /// Active pins (in-flight jobs using this graph).
    pub pins: u32,
}

/// A thread-safe, keyed, byte-budgeted LRU graph cache. See the module
/// docs for semantics.
pub struct InstanceCache {
    shared: Arc<CacheShared>,
}

impl Default for InstanceCache {
    fn default() -> Self {
        Self::new()
    }
}

/// A pinned handle on a cached graph: while any [`PinnedGraph`] on an
/// entry is alive, LRU eviction will not remove it. Dropping the handle
/// unpins. The underlying [`Arc<Graph>`] stays valid even if the entry
/// is replaced by an explicit reload.
pub struct PinnedGraph {
    graph: Arc<Graph>,
    key: String,
    id: u64,
    shared: Arc<CacheShared>,
}

impl PinnedGraph {
    /// The pinned graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }
}

impl std::ops::Deref for PinnedGraph {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        &self.graph
    }
}

impl Drop for PinnedGraph {
    fn drop(&mut self) {
        let mut inner = lock(&self.shared.inner);
        let mut unpinned = false;
        if let Some(e) = inner.entries.get_mut(&self.key) {
            if e.id == self.id {
                e.pins -= 1;
                unpinned = e.pins == 0;
            }
        }
        // A cache held over budget by pins reclaims as soon as the last
        // pin drops — not lazily at the next load.
        if unpinned {
            inner.evict_to_budget(u64::MAX, &self.shared.counters.evictions);
        }
    }
}

impl CacheInner {
    /// Evicts least-recently-used unpinned entries (never `protect`)
    /// until the cache fits its budget or nothing more is evictable,
    /// counting each on `evictions`.
    fn evict_to_budget(&mut self, protect: u64, evictions: &Counter) {
        if self.budget == 0 {
            return;
        }
        while self.bytes > self.budget {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.pins == 0 && e.id != protect)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone());
            let Some(gone) = victim.and_then(|key| self.entries.remove(&key)) else {
                break;
            };
            self.bytes -= gone.bytes;
            evictions.inc();
        }
    }
}

impl InstanceCache {
    /// An empty cache with no byte budget (nothing is ever evicted).
    pub fn new() -> Self {
        Self::with_budget(0)
    }

    /// An empty cache evicting LRU entries past `budget` CSR bytes
    /// (`0` = unlimited), counting its traffic on a registry of its own.
    pub fn with_budget(budget: usize) -> Self {
        Self::with_registry(budget, &Registry::new())
    }

    /// [`InstanceCache::with_budget`], counting hits, loads and evictions
    /// on `registry`'s `ff_cache_*_total` counters, which
    /// [`InstanceCache::stats`] reads back.
    pub fn with_registry(budget: usize, registry: &Registry) -> Self {
        InstanceCache {
            shared: Arc::new(CacheShared {
                inner: Mutex::new(CacheInner {
                    entries: HashMap::new(),
                    pending: HashSet::new(),
                    budget,
                    bytes: 0,
                    tick: 0,
                    next_id: 0,
                }),
                loaded_cv: Condvar::new(),
                counters: CacheCounters::new(registry),
            }),
        }
    }

    /// Loads (or re-uses) the graph registered under `key`.
    ///
    /// Parsing happens *outside* the cache lock — a multi-second load of
    /// a huge instance must not block `stats`, job pin/unpin, or loads
    /// of other keys — with single-flight per key: concurrent identical
    /// loads wait for the first parse and then hit, so one load still
    /// serves any number of clients.
    pub fn load(
        &self,
        key: &str,
        source: GraphSource,
        format: GraphFormat,
    ) -> Result<(Arc<Graph>, LoadOutcome), String> {
        let digest = source_digest(&source, format);
        let mut inner = lock(&self.shared.inner);
        loop {
            let state = &mut *inner;
            if let Some(hit) = state.entries.get_mut(key).filter(|e| e.digest == digest) {
                state.tick += 1;
                hit.last_use = state.tick;
                self.shared.counters.hits.inc();
                return Ok((
                    hit.graph.clone(),
                    LoadOutcome {
                        cached: true,
                        reloaded: false,
                    },
                ));
            }
            if !state.pending.contains(key) {
                break; // this thread becomes the loader
            }
            // Another thread is parsing this key: wait, then re-check
            // (its result may be our hit — or its parse may have failed,
            // in which case we take over as loader).
            inner = wait(&self.shared.loaded_cv, inner);
        }
        inner.pending.insert(key.to_string());
        drop(inner);
        let parsed = read_graph(&source, format);
        let mut inner = lock(&self.shared.inner);
        inner.pending.remove(key);
        self.shared.loaded_cv.notify_all();
        let graph = Arc::new(parsed?);
        let bytes = graph.csr_bytes();
        inner.tick += 1;
        let tick = inner.tick;
        self.shared.counters.loads.inc();
        let id = inner.next_id;
        inner.next_id += 1;
        let replaced = inner.entries.insert(
            key.to_string(),
            CachedInstance {
                graph: graph.clone(),
                digest,
                bytes,
                pins: 0,
                last_use: tick,
                id,
            },
        );
        let reloaded = replaced.is_some();
        if let Some(old) = replaced {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        inner.evict_to_budget(id, &self.shared.counters.evictions);
        Ok((
            graph,
            LoadOutcome {
                cached: false,
                reloaded,
            },
        ))
    }

    /// Pins the graph registered under `key` for the lifetime of the
    /// returned handle (counts as a cache hit). In-flight jobs hold one
    /// of these so eviction can never pull a graph out from under them.
    pub fn pin(&self, key: &str) -> Option<PinnedGraph> {
        let mut inner = lock(&self.shared.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let e = inner.entries.get_mut(key)?;
        e.pins += 1;
        e.last_use = tick;
        let (graph, id) = (e.graph.clone(), e.id);
        self.shared.counters.hits.inc();
        Some(PinnedGraph {
            graph,
            key: key.to_string(),
            id,
            shared: self.shared.clone(),
        })
    }

    /// The graph registered under `key`, if any, without pinning it
    /// (counts as a cache hit).
    pub fn get(&self, key: &str) -> Option<Arc<Graph>> {
        let mut inner = lock(&self.shared.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let e = inner.entries.get_mut(key)?;
        e.last_use = tick;
        self.shared.counters.hits.inc();
        Some(e.graph.clone())
    }

    /// Content digest of the entry under `key`, if resident. This is
    /// what the job journal records alongside each load: a restarted
    /// server reloads the source and compares digests, so a key whose
    /// bytes changed across the restart invalidates its journaled jobs
    /// instead of silently re-executing them on different input.
    pub fn digest(&self, key: &str) -> Option<u64> {
        lock(&self.shared.inner).entries.get(key).map(|e| e.digest)
    }

    /// Number of instances currently cached.
    pub fn len(&self) -> usize {
        lock(&self.shared.inner).entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot for `stats`. The counters are read under the
    /// cache lock they are updated under, so the snapshot is coherent.
    pub fn stats(&self) -> CacheStats {
        let inner = lock(&self.shared.inner);
        let counters = &self.shared.counters;
        CacheStats {
            instances: inner.entries.len(),
            bytes: inner.bytes as u64,
            budget: inner.budget as u64,
            hits: counters.hits.get(),
            loads: counters.loads.get(),
            evictions: counters.evictions.get(),
        }
    }

    /// Observable per-entry state, least-recently-used first. Exposed
    /// for tests and operational tooling.
    pub fn entries(&self) -> Vec<CacheEntryInfo> {
        let inner = lock(&self.shared.inner);
        let mut rows: Vec<(u64, CacheEntryInfo)> = inner
            .entries
            .iter()
            .map(|(k, e)| {
                (
                    e.last_use,
                    CacheEntryInfo {
                        key: k.clone(),
                        bytes: e.bytes,
                        pins: e.pins,
                    },
                )
            })
            .collect();
        rows.sort_by_key(|(last_use, _)| *last_use);
        rows.into_iter().map(|(_, info)| info).collect()
    }
}

/// Parses a graph from `source` in `format`. Errors name the file, or
/// say the graph came inline.
pub fn read_graph(source: &GraphSource, format: GraphFormat) -> Result<Graph, String> {
    match source {
        GraphSource::Path(path) => {
            let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            match format {
                GraphFormat::Metis => {
                    ff_graph::io::read_metis(file).map_err(|e| format!("{path}: {e}"))
                }
                GraphFormat::EdgeList => {
                    ff_graph::io::read_edge_list(file).map_err(|e| format!("{path}: {e}"))
                }
            }
        }
        GraphSource::Data(text) => match format {
            GraphFormat::Metis => {
                ff_graph::io::read_metis(text.as_bytes()).map_err(|e| format!("inline data: {e}"))
            }
            GraphFormat::EdgeList => ff_graph::io::read_edge_list(text.as_bytes())
                .map_err(|e| format!("inline data: {e}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIANGLE: &str = "3 3\n2 3\n1 3\n1 2\n";
    const PATH4: &str = "4 3\n2\n1 3\n2 4\n3\n";

    fn load_data(cache: &InstanceCache, key: &str, data: &str) -> (Arc<Graph>, LoadOutcome) {
        cache
            .load(key, GraphSource::Data(data.into()), GraphFormat::Metis)
            .unwrap()
    }

    #[test]
    fn same_key_same_source_is_a_hit() {
        let cache = InstanceCache::new();
        let (g1, o1) = load_data(&cache, "t", TRIANGLE);
        assert!(!o1.cached && !o1.reloaded);
        let (g2, o2) = load_data(&cache, "t", TRIANGLE);
        assert!(o2.cached && !o2.reloaded);
        assert!(Arc::ptr_eq(&g1, &g2), "hit must share the loaded graph");
        let stats = cache.stats();
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.instances, 1);
        assert_eq!(stats.bytes, g1.csr_bytes() as u64);
    }

    #[test]
    fn same_key_different_source_replaces() {
        let cache = InstanceCache::new();
        load_data(&cache, "g", TRIANGLE);
        let (g, o) = load_data(&cache, "g", PATH4);
        assert!(!o.cached && o.reloaded);
        assert_eq!(g.num_vertices(), 4);
        let stats = cache.stats();
        assert_eq!(stats.instances, 1);
        assert_eq!(stats.loads, 2);
        assert_eq!(stats.bytes, g.csr_bytes() as u64, "old entry unaccounted");
    }

    #[test]
    fn pin_counts_hits_and_misses_dont() {
        let cache = InstanceCache::new();
        assert!(cache.pin("nope").is_none());
        assert_eq!(cache.stats().hits, 0);
        load_data(&cache, "t", TRIANGLE);
        let pinned = cache.pin("t").unwrap();
        assert_eq!(pinned.num_vertices(), 3);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.entries()[0].pins, 1);
        drop(pinned);
        assert_eq!(cache.entries()[0].pins, 0);
    }

    #[test]
    fn lru_eviction_respects_budget_order_and_pins() {
        let probe = ff_graph::io::read_metis(TRIANGLE.as_bytes()).unwrap();
        let one = probe.csr_bytes();
        // Room for two triangles but not three.
        let cache = InstanceCache::with_budget(2 * one + one / 2);
        load_data(&cache, "a", TRIANGLE);
        load_data(&cache, "b", TRIANGLE);
        // Touch `a` so `b` is the LRU entry.
        assert!(cache.get("a").is_some());
        load_data(&cache, "c", TRIANGLE);
        let keys: Vec<String> = cache.entries().into_iter().map(|e| e.key).collect();
        assert_eq!(keys, vec!["a".to_string(), "c".to_string()], "b evicted");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= stats.budget);

        // Pin `a` (now LRU after c's load touched c): it must survive the
        // next overflow; `c` goes instead.
        let pinned = cache.pin("a");
        load_data(&cache, "d", TRIANGLE);
        load_data(&cache, "e", TRIANGLE);
        let mut keys: Vec<String> = cache.entries().into_iter().map(|e| e.key).collect();
        keys.sort();
        assert!(keys.contains(&"a".to_string()), "pinned entry evicted");
        assert_eq!(keys.len(), 2);
        drop(pinned);
    }

    #[test]
    fn entry_too_big_for_budget_still_loads_then_everything_else_goes() {
        let probe = ff_graph::io::read_metis(PATH4.as_bytes()).unwrap();
        let cache = InstanceCache::with_budget(probe.csr_bytes() - 1);
        load_data(&cache, "t", TRIANGLE);
        let (g, _) = load_data(&cache, "big", PATH4);
        assert_eq!(g.num_vertices(), 4, "the job still gets its graph");
        // The oversize entry is protected during its own insertion; the
        // triangle was evicted trying to make room.
        let keys: Vec<String> = cache.entries().into_iter().map(|e| e.key).collect();
        assert_eq!(keys, vec!["big".to_string()]);
        assert!(
            cache.stats().bytes > cache.stats().budget,
            "documented overflow"
        );
        // The next load evicts it normally (it is no longer protected).
        load_data(&cache, "t", TRIANGLE);
        let keys: Vec<String> = cache.entries().into_iter().map(|e| e.key).collect();
        assert_eq!(keys, vec!["t".to_string()]);
    }

    #[test]
    fn inline_sources_are_stored_as_digests_not_text() {
        // A ~1 MB inline METIS graph submitted twice: one parse, and the
        // cache accounts only the CSR — the megabyte of source text is
        // not retained in the key or entry.
        let n = 20_000;
        let g = ff_graph::generators::path(n);
        let mut text = Vec::new();
        ff_graph::io::write_metis(&g, &mut text).unwrap();
        let data = String::from_utf8(text).unwrap();
        let cache = InstanceCache::new();
        let (g1, o1) = load_data(&cache, "big", &data);
        let (_, o2) = load_data(&cache, "big", &data);
        assert!(!o1.cached && o2.cached);
        let stats = cache.stats();
        assert_eq!(stats.loads, 1, "same content must parse once");
        assert_eq!(
            stats.bytes,
            g1.csr_bytes() as u64,
            "accounted bytes are the CSR alone, independent of source text"
        );
        // Different content under the same key is detected by digest.
        let (_, o3) = load_data(&cache, "big", TRIANGLE);
        assert!(o3.reloaded && !o3.cached);
    }

    #[test]
    fn replacing_a_pinned_entry_keeps_the_old_pin_harmless() {
        let cache = InstanceCache::new();
        load_data(&cache, "g", TRIANGLE);
        let pinned = cache.pin("g").unwrap();
        // Explicit reload replaces the entry even while pinned (the old
        // Arc stays alive in the running job).
        load_data(&cache, "g", PATH4);
        assert_eq!(pinned.num_vertices(), 3, "old graph still usable");
        assert_eq!(cache.entries()[0].pins, 0, "new entry starts unpinned");
        drop(pinned); // must not underflow the new entry's pin count
        assert_eq!(cache.entries()[0].pins, 0);
        assert!(cache.pin("g").unwrap().num_vertices() == 4);
    }

    #[test]
    fn digests_are_stable_across_restart_and_move_on_reload() {
        // The journal's durability audit: digests must be a pure function
        // of (source kind, format, bytes) — identical when a fresh cache
        // (a restarted server) reloads the same content, different the
        // moment the bytes under the key change, and generation ids must
        // keep an old pin harmless across that replacement.
        let first = InstanceCache::new();
        assert_eq!(first.digest("t"), None);
        load_data(&first, "t", TRIANGLE);
        let journaled = first.digest("t").unwrap();

        // "Restart": a brand-new cache reloading the same bytes must
        // reproduce the journaled digest exactly.
        let restarted = InstanceCache::new();
        load_data(&restarted, "t", TRIANGLE);
        assert_eq!(restarted.digest("t"), Some(journaled));
        let pin = restarted.pin("t").unwrap();

        // Same key, different bytes after the restart: the digest moves,
        // so replay can detect the swap and invalidate journaled jobs.
        let (_, o) = load_data(&restarted, "t", PATH4);
        assert!(o.reloaded);
        assert_ne!(restarted.digest("t"), Some(journaled));
        // The pre-reload pin unpins by generation id, not by key — the
        // replacement entry must not be corrupted by its drop.
        drop(pin);
        assert_eq!(restarted.entries()[0].pins, 0);
        assert_eq!(restarted.pin("t").unwrap().num_vertices(), 4);

        // Kind and format are part of the digest, not just the bytes.
        let by_path = source_digest(&GraphSource::Path(TRIANGLE.into()), GraphFormat::Metis);
        let by_data = source_digest(&GraphSource::Data(TRIANGLE.into()), GraphFormat::Metis);
        let as_edges = source_digest(&GraphSource::Data(TRIANGLE.into()), GraphFormat::EdgeList);
        assert_ne!(by_path, by_data);
        assert_ne!(by_data, as_edges);
    }

    #[test]
    fn malformed_sources_error_cleanly() {
        let cache = InstanceCache::new();
        let err = cache
            .load(
                "bad",
                GraphSource::Data("not a graph".into()),
                GraphFormat::Metis,
            )
            .unwrap_err();
        assert!(err.contains("inline data"), "err: {err}");
        let err = cache
            .load(
                "gone",
                GraphSource::Path("/nonexistent/x.graph".into()),
                GraphFormat::Metis,
            )
            .unwrap_err();
        assert!(err.contains("cannot open"), "err: {err}");
        assert!(cache.is_empty());
    }
}
