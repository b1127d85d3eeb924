//! `ff-lint` — the workspace invariant checker.
//!
//! Three lint families guard the properties the test suite can only
//! spot-check (see `INVARIANTS.md` at the repo root for the contract
//! each one encodes):
//!
//! | family | lints | scope |
//! |---|---|---|
//! | determinism | `DET_WALLCLOCK`, `DET_HASH_ITER`, `DET_UNSEEDED_RNG` | the deterministic crates |
//! | lock order | `LOCK_CYCLE`, `LOCK_UNTRACKED` | `ff-service` + `ff-obs` |
//! | panic paths | `PANIC_PATH` | request-handling / job-driver files |
//!
//! Plus `BASELINE_STALE` for exception entries that no longer match
//! anything. Run it as `cargo run -p ff-lint -- --deny` (CI does, next
//! to clippy); `--json` emits machine-readable diagnostics.

pub mod baseline;
pub mod determinism;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod source;

use source::{Diagnostic, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;

/// Crates under the byte-identical determinism contract.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/core",
    "crates/engine",
    "crates/graph",
    "crates/partition",
    "crates/multilevel",
    "crates/metaheur",
];

/// Modules allowed to read the wall clock inside deterministic crates:
/// the `StopCondition` deadline machinery. Deadlines only *stop* the
/// search — reported results are a function of the step budget alone.
pub const WALLCLOCK_ALLOWED: &[&str] = &["crates/metaheur/src/anytime.rs"];

/// Crates whose lock fields and acquisition sites feed the lock-order
/// graph (ff-obs included: the service logs and counts while holding
/// its own locks).
pub const LOCK_SCOPE: &[&str] = &["crates/service/src", "crates/obs/src"];

/// Request-handling / job-driver files where panics are forbidden.
pub const PANIC_FILES: &[&str] = &[
    "crates/service/src/cache.rs",
    "crates/service/src/server.rs",
    "crates/service/src/http.rs",
    "crates/service/src/job.rs",
    "crates/service/src/dist.rs",
    "crates/service/src/wsession.rs",
    "crates/service/src/journal.rs",
];

/// Default baseline path, relative to the workspace root.
pub const BASELINE_PATH: &str = "lint-baseline.toml";

/// Loaded files keyed by workspace-relative path.
pub type SourceSet = BTreeMap<String, SourceFile>;

/// Everything one run produces.
pub struct Report {
    /// Findings that must be fixed (includes `BASELINE_STALE`).
    pub findings: Vec<Diagnostic>,
    /// Findings matched by a (verified) baseline entry.
    pub suppressed: Vec<Diagnostic>,
    pub lock_graph: locks::LockGraph,
}

/// Run every lint family over the workspace at `root`, applying the
/// baseline at `baseline_rel`. I/O errors (unreadable file, malformed
/// baseline) are hard errors — a linter that skips what it cannot
/// read is a linter that can be silenced by a typo.
pub fn run(root: &Path, baseline_rel: &str) -> Result<Report, String> {
    let mut sources: SourceSet = BTreeMap::new();
    let load = |rel: &str, sources: &mut SourceSet| -> Result<(), String> {
        if !sources.contains_key(rel) {
            let f = SourceFile::load(root, rel).map_err(|e| format!("{rel}: {e}"))?;
            sources.insert(rel.to_string(), f);
        }
        Ok(())
    };

    let mut det_files = Vec::new();
    for krate in DETERMINISTIC_CRATES {
        for rel in source::rs_files_under(root, &format!("{krate}/src"))
            .map_err(|e| format!("{krate}: {e}"))?
        {
            load(&rel, &mut sources)?;
            det_files.push(rel);
        }
    }
    let mut lock_files = Vec::new();
    for dir in LOCK_SCOPE {
        for rel in source::rs_files_under(root, dir).map_err(|e| format!("{dir}: {e}"))? {
            load(&rel, &mut sources)?;
            lock_files.push(rel);
        }
    }
    for rel in PANIC_FILES {
        load(rel, &mut sources)?;
    }

    let mut raw = Vec::new();
    for rel in &det_files {
        let allowed = WALLCLOCK_ALLOWED.contains(&rel.as_str());
        determinism::check(&sources[rel], allowed, &mut raw);
    }
    let lock_inputs: Vec<SourceFile> = lock_files
        .iter()
        .map(|rel| {
            let f = &sources[rel];
            SourceFile {
                rel: f.rel.clone(),
                lines: f.lines.clone(),
                toks: f.toks.clone(),
            }
        })
        .collect();
    let lock_graph = locks::check(&lock_inputs, &mut raw);
    for rel in PANIC_FILES {
        panics::check(&sources[*rel], &mut raw);
    }

    raw.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));

    let bl = baseline::Baseline::load(root, baseline_rel)?;
    let (findings, suppressed) = baseline::apply(&bl, &sources, raw);
    Ok(Report {
        findings,
        suppressed,
        lock_graph,
    })
}
