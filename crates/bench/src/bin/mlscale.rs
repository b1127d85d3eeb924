//! Multilevel scaling harness: does `Solver::multilevel` dominate flat
//! fusion–fission on quality-vs-wall-clock for 10^5–10^6-vertex graphs?
//!
//! Two modes:
//!
//! ```text
//! # Write a sparse planted-partition instance as a METIS file (for the
//! # CLI smoke and ad-hoc experiments):
//! cargo run -p ff-bench --release --bin mlscale -- gen out.graph \
//!     [--groups 100] [--group-size 1000] [--p-in 0.008] [--p-out 2e-5] \
//!     [--seed 1]
//!
//! # Head-to-head on the same in-memory instance: multilevel FF runs
//! # with the per-island step budget, then flat FF gets four times its
//! # wall-clock (steps unbounded); report value + wall-clock for both.
//! # With --assert, fail unless multilevel matches or beats flat's final
//! # energy, i.e. reaches it in ≤ 25% of flat's wall-clock:
//! cargo run -p ff-bench --release --bin mlscale -- compare \
//!     [--groups 100] [--group-size 1000] [--p-in 0.008] [--p-out 2e-5] \
//!     [--k 8] [--steps 20000] [--islands 2] [--seed 1] \
//!     [--coarsen-until 3000] [--objective cut] [--assert]
//! ```
//!
//! The multilevel run is step-bounded, so its partition is deterministic.
//! Flat gets a wall-clock budget rather than the same step budget: a
//! flat step from singletons is cheap, so equal step budgets would pit
//! the full V-cycle against a flat run stopped early in agglomeration,
//! far from k parts.

use ff_bench::flags::{exit_usage, Flags};
use ff_core::ConfigError;
use ff_engine::{MultilevelOpts, Solver};
use ff_graph::generators::planted_partition_sparse;
use ff_graph::Graph;
use ff_metaheur::StopCondition;
use ff_partition::Objective;
use std::time::Instant;

const USAGE: &str = "usage: mlscale gen <out.graph> [params] | mlscale compare [params]";

struct Params {
    groups: usize,
    group_size: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
    k: usize,
    steps: u64,
    islands: usize,
    coarsen_until: usize,
    objective: Objective,
    assert_bar: bool,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            groups: 100,
            group_size: 1000,
            p_in: 0.008,
            p_out: 2e-5,
            seed: 1,
            k: 8,
            steps: 20_000,
            islands: 2,
            coarsen_until: 3000,
            objective: Objective::Cut,
            assert_bar: false,
        }
    }
}

fn parse_params(mut flags: Flags) -> Result<Params, String> {
    let mut p = Params::default();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--groups" => p.groups = flags.parse("--groups")?,
            "--group-size" => p.group_size = flags.parse("--group-size")?,
            "--p-in" => p.p_in = flags.parse("--p-in")?,
            "--p-out" => p.p_out = flags.parse("--p-out")?,
            "--seed" => p.seed = flags.parse("--seed")?,
            "--k" => p.k = flags.parse("--k")?,
            "--steps" => p.steps = flags.parse("--steps")?,
            "--islands" => p.islands = flags.parse("--islands")?,
            "--coarsen-until" => p.coarsen_until = flags.parse("--coarsen-until")?,
            "--objective" => {
                let name = flags.value("--objective")?;
                p.objective =
                    Objective::parse(&name).ok_or_else(|| format!("unknown objective `{name}`"))?;
            }
            "--assert" => p.assert_bar = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(p)
}

fn generate(p: &Params) -> Graph {
    let started = Instant::now();
    let g = planted_partition_sparse(p.groups, p.group_size, p.p_in, p.p_out, p.seed);
    eprintln!(
        "mlscale: generated {} vertices, {} edges in {:.2}s",
        g.num_vertices(),
        g.num_edges(),
        started.elapsed().as_secs_f64()
    );
    g
}

fn base_solver<'g>(g: &'g Graph, p: &Params) -> Solver<'g> {
    Solver::on(g)
        .k(p.k)
        .objective(p.objective)
        .islands(p.islands)
        .steps(p.steps)
        .seed(p.seed)
}

/// Whether multilevel matched or beat flat; a solver that rejects its
/// configuration is the error.
fn compare(p: &Params) -> Result<bool, ConfigError> {
    let g = generate(p);

    let started = Instant::now();
    let ml = base_solver(&g, p)
        .multilevel(MultilevelOpts {
            coarsen_until: p.coarsen_until,
            ..Default::default()
        })
        .run()?;
    let t_ml = started.elapsed();
    let info = ml.multilevel.as_ref().expect("multilevel pipeline ran");
    println!(
        "multilevel: value {:.6}  time {:.2}s  steps {}  ({} levels, coarse {} vertices)",
        ml.best_value,
        t_ml.as_secs_f64(),
        ml.steps,
        info.levels,
        info.coarse_vertices
    );

    let started = Instant::now();
    let flat = base_solver(&g, p)
        .stop(StopCondition::time(t_ml * 4))
        .run()?;
    let t_flat = started.elapsed();
    println!(
        "flat:       value {:.6}  time {:.2}s  steps {}",
        flat.best_value,
        t_flat.as_secs_f64(),
        flat.steps
    );
    println!(
        "speed ratio {:.3} (multilevel / flat wall-clock), quality delta {:+.6}",
        t_ml.as_secs_f64() / t_flat.as_secs_f64(),
        ml.best_value - flat.best_value
    );

    let quality_ok = ml.best_value <= flat.best_value;
    if p.assert_bar && !quality_ok {
        eprintln!(
            "mlscale: FAIL — multilevel value {:.6} worse than flat {:.6} after 4× the wall-clock",
            ml.best_value, flat.best_value
        );
    }
    Ok(quality_ok)
}

fn main() {
    let usage = |message: &str| exit_usage("mlscale", USAGE, message);
    let mut flags = Flags::new(std::env::args().skip(1));
    match flags.next().as_deref() {
        Some("gen") => {
            let Some(out) = flags.next() else {
                usage("gen needs an output path")
            };
            let p = parse_params(flags).unwrap_or_else(|e| usage(&e));
            let g = generate(&p);
            let file = std::fs::File::create(&out).expect("cannot create output file");
            let mut w = std::io::BufWriter::new(file);
            ff_graph::io::write_metis(&g, &mut w).expect("write failed");
            eprintln!("mlscale: wrote {out}");
        }
        Some("compare") => {
            let p = parse_params(flags).unwrap_or_else(|e| usage(&e));
            let ok = compare(&p).unwrap_or_else(|e| usage(&e.to_string()));
            if p.assert_bar && !ok {
                std::process::exit(1);
            }
        }
        _ => usage("expected `gen <out.graph>` or `compare`"),
    }
}
