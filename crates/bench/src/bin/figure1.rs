//! Regenerates **Figure 1** of the paper: best-so-far Mcut of the three
//! metaheuristics as a function of wall-clock time (log-spaced
//! checkpoints), with the best spectral and multilevel results as
//! horizontal reference lines.
//!
//! ```text
//! cargo run -p ff-bench --release --bin figure1 -- [--budget-secs 20] \
//!     [--k 32] [--sectors 762] [--seed 2006]
//! ```
//!
//! The paper's x-axis spans 1 s … 60 m on a 3 GHz Pentium 4; here the
//! checkpoints are the same 1-2-6-20-60 pattern scaled into the supplied
//! budget, so the *shape* of the curves (ACO fastest start, FF worst start
//! / best finish) is directly comparable.

use ff_bench::experiment::ExperimentArgs;
use ff_bench::{run_method, write_csv, write_results, Cell, MethodBudget, MethodId, Table};
use ff_core::{FusionFission, FusionFissionConfig};
use ff_metaheur::{
    AntColony, AntColonyConfig, AnytimeTrace, SimulatedAnnealing, SimulatedAnnealingConfig,
    StopCondition,
};
use ff_partition::Objective;
use std::time::Duration;

const USAGE: &str = "usage: figure1 [--budget-secs S] [--k N] [--sectors N] [--seed N]";

/// The paper's log-scale checkpoints (1s 10s 30s 1m 2m 6m 20m 60m), as
/// fractions of the 60-minute budget.
const CHECKPOINT_FRACTIONS: &[(&str, f64)] = &[
    ("1s", 1.0 / 3600.0),
    ("10s", 10.0 / 3600.0),
    ("30s", 30.0 / 3600.0),
    ("1m", 60.0 / 3600.0),
    ("2m", 120.0 / 3600.0),
    ("6m", 360.0 / 3600.0),
    ("20m", 1200.0 / 3600.0),
    ("60m", 1.0),
];

fn main() {
    let args = ExperimentArgs::paper(20).from_env("figure1", USAGE, |_, _| Ok(false));
    let inst = args.instance();
    let g = &inst.graph;
    let budget = args.budget;
    let stop = StopCondition::time(budget);
    eprintln!(
        "FABOP instance: {} sectors, {} flows, k = {}; budget {:.1}s per metaheuristic\n",
        g.num_vertices(),
        g.num_edges(),
        args.k,
        budget.as_secs_f64()
    );

    // --- Reference lines: best spectral & multilevel Mcut ---------------
    let quick = MethodBudget::quick();
    let best_of = |ids: &[MethodId]| -> (f64, f64) {
        let mut best = f64::INFINITY;
        let mut secs = 0.0;
        for &id in ids {
            let out = run_method(id, g, args.k, Objective::MCut, quick, args.seed);
            let m = Objective::MCut.evaluate(g, &out.partition);
            secs += out.elapsed.as_secs_f64();
            if m < best {
                best = m;
            }
        }
        (best, secs)
    };
    let (spectral_best, spectral_secs) = best_of(&[
        MethodId::SpectralLancBi,
        MethodId::SpectralLancOctKl,
        MethodId::SpectralRqiBiKl,
        MethodId::SpectralRqiOctKl,
    ]);
    let (multilevel_best, multilevel_secs) =
        best_of(&[MethodId::MultilevelBi, MethodId::MultilevelOct]);
    eprintln!("reference: best spectral Mcut {spectral_best:.3} ({spectral_secs:.2}s total)");
    eprintln!(
        "reference: best multilevel Mcut {multilevel_best:.3} ({multilevel_secs:.2}s total)\n"
    );

    // --- Metaheuristic traces --------------------------------------------
    let sa_trace: AnytimeTrace = {
        let cfg = SimulatedAnnealingConfig {
            objective: Objective::MCut,
            stop,
            seed: args.seed,
            ..Default::default()
        };
        SimulatedAnnealing::new(g, args.k, cfg).run().trace
    };
    eprintln!("simulated annealing done");
    let aco_trace: AnytimeTrace = {
        let cfg = AntColonyConfig {
            objective: Objective::MCut,
            stop,
            seed: args.seed,
            ..Default::default()
        };
        AntColony::new(g, args.k, cfg).run().trace
    };
    eprintln!("ant colony done");
    let ff_trace: AnytimeTrace = {
        let cfg = FusionFissionConfig {
            objective: Objective::MCut,
            stop,
            ..FusionFissionConfig::standard(args.k)
        };
        FusionFission::new(g, cfg, args.seed).run().trace
    };
    eprintln!("fusion fission done\n");

    // --- Sampled series ---------------------------------------------------
    let mut table = Table::new(&[
        "checkpoint",
        "seconds",
        "simulated annealing",
        "ant colony",
        "fusion fission",
        "best spectral",
        "best multilevel",
    ]);
    let sample = |t: &AnytimeTrace, at: Duration| -> Cell {
        match t.value_at(at) {
            Some(v) => Cell::Num(v, 3),
            None => Cell::Text("-".into()),
        }
    };
    for &(label, frac) in CHECKPOINT_FRACTIONS {
        let at = budget.mul_f64(frac);
        table.push_row(vec![
            Cell::Text(label.to_string()),
            Cell::Num(at.as_secs_f64(), 2),
            sample(&sa_trace, at),
            sample(&aco_trace, at),
            sample(&ff_trace, at),
            Cell::Num(spectral_best, 3),
            Cell::Num(multilevel_best, 3),
        ]);
    }

    println!("\nFigure 1 — anytime Mcut (budget-scaled paper checkpoints)\n");
    println!("{}", table.render());
    println!(
        "final values: SA {:?}, ACO {:?}, FF {:?}",
        sa_trace.final_value(),
        aco_trace.final_value(),
        ff_trace.final_value()
    );
    write_results(&table, "figure1");

    // Full improvement traces (every best-so-far event), plot-ready.
    let mut traces = Table::new(&["method", "seconds", "mcut", "step"]);
    for (name, trace) in [
        ("simulated annealing", &sa_trace),
        ("ant colony", &aco_trace),
        ("fusion fission", &ff_trace),
    ] {
        for p in trace.points() {
            traces.push_row(vec![
                Cell::Text(name.into()),
                Cell::Num(p.elapsed.as_secs_f64(), 4),
                Cell::Num(p.value, 4),
                Cell::Num(p.step as f64, 0),
            ]);
        }
    }
    match write_csv(&traces, "figure1_traces.csv") {
        Ok(path) => eprintln!("full traces written to {}", path.display()),
        Err(e) => eprintln!("could not write traces: {e}"),
    }
}
