//! Ablation study over the design choices DESIGN.md calls out:
//!
//! * fusion–fission **energy scaling** on/off (§4.1's binding-energy curve),
//! * fusion–fission **law learning** on/off (§4.1's reinforcement memory),
//! * fusion–fission **fission splitter**: percolation vs random halves (§4.4),
//! * simulated-annealing **cooling schedule**: geometric vs linear (§3.1's
//!   ambiguous printed formula).
//!
//! ```text
//! cargo run -p ff-bench --release --bin ablation -- [--budget-secs 5] \
//!     [--sectors 381] [--k 16] [--seed 2006] [--trials 3]
//! ```

use ff_bench::experiment::ExperimentArgs;
use ff_bench::{write_results, Cell, Table};
use ff_core::{ChoiceFunction, FissionSplitter, FusionFission, FusionFissionConfig};
use ff_metaheur::{Cooling, SimulatedAnnealing, SimulatedAnnealingConfig, StopCondition};
use ff_partition::Objective;

const USAGE: &str =
    "usage: ablation [--budget-secs S] [--k N] [--sectors N] [--seed N] [--trials N]";

fn main() {
    let mut trials = 3u64;
    let defaults = ExperimentArgs {
        k: 16,
        sectors: 381,
        ..ExperimentArgs::paper(5)
    };
    let args = defaults.from_env("ablation", USAGE, |flag, flags| match flag {
        "--trials" => {
            trials = flags.parse("--trials")?;
            Ok(true)
        }
        _ => Ok(false),
    });
    let inst = args.instance();
    let g = &inst.graph;
    let stop = StopCondition::time(args.budget);
    eprintln!(
        "instance: {} sectors, {} flows, k = {}, {:.1}s × {} trials per variant\n",
        g.num_vertices(),
        g.num_edges(),
        args.k,
        args.budget.as_secs_f64(),
        trials
    );

    let base = FusionFissionConfig {
        objective: Objective::MCut,
        stop,
        ..FusionFissionConfig::standard(args.k)
    };
    let ff_variants: Vec<(&str, FusionFissionConfig)> = vec![
        ("FF (paper: scaling+laws+percolation)", base),
        (
            "FF without energy scaling",
            FusionFissionConfig {
                use_energy_scaling: false,
                ..base
            },
        ),
        (
            "FF without law learning",
            FusionFissionConfig {
                learn_laws: false,
                ..base
            },
        ),
        (
            "FF with random-half fission",
            FusionFissionConfig {
                splitter: FissionSplitter::RandomHalf,
                ..base
            },
        ),
        (
            "FF with sigmoid choice",
            FusionFissionConfig {
                choice_fn: ChoiceFunction::Sigmoid,
                ..base
            },
        ),
        (
            "FF with hard-threshold choice",
            FusionFissionConfig {
                choice_fn: ChoiceFunction::Hard,
                ..base
            },
        ),
    ];

    let mut table = Table::new(&["Variant", "mean Mcut", "best Mcut", "worst Mcut"]);
    for (label, cfg) in &ff_variants {
        let mut values = Vec::new();
        for trial in 0..trials {
            let r = FusionFission::new(g, *cfg, args.seed + trial).run();
            values.push(r.best_value);
        }
        summarize(&mut table, label, &values);
        eprintln!("done: {label}");
    }

    // SA cooling-schedule ablation (the printed formula is degenerate for
    // t_min = 0; compare the two standard readings).
    for (label, cooling) in [
        (
            "SA geometric cooling (alpha 0.97)",
            Cooling::Geometric(0.97),
        ),
        (
            "SA linear cooling (400 steps)",
            Cooling::Linear { steps: 400 },
        ),
    ] {
        let mut values = Vec::new();
        for trial in 0..trials {
            let cfg = SimulatedAnnealingConfig {
                objective: Objective::MCut,
                stop,
                cooling,
                seed: args.seed + trial,
                ..Default::default()
            };
            let r = SimulatedAnnealing::new(g, args.k, cfg).run();
            values.push(r.best_value);
        }
        summarize(&mut table, label, &values);
        eprintln!("done: {label}");
    }

    println!("\nAblation study (Mcut, lower is better)\n");
    println!("{}", table.render());
    write_results(&table, "ablation");
}

fn summarize(table: &mut Table, label: &str, values: &[f64]) {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let best = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let worst = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    table.push_row(vec![
        Cell::Text(label.to_string()),
        Cell::Num(mean, 3),
        Cell::Num(best, 3),
        Cell::Num(worst, 3),
    ]);
}
