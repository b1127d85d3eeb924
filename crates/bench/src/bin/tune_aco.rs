//! Parameter exploration for the ant-colony adaptation: sweeps the four
//! paper tunables (ants per colony, evaporation, deposit, exploration)
//! plus the reinforcement bonus, reporting best Mcut per setting.
//!
//! ```text
//! cargo run -p ff-bench --release --bin tune_aco -- [--budget-secs 5] \
//!     [--sectors 762] [--k 32] [--seed 2006]
//! ```

use ff_bench::experiment::ExperimentArgs;
use ff_bench::{write_csv, Cell, Table};
use ff_metaheur::{AntColony, AntColonyConfig, StopCondition};
use ff_partition::Objective;

const USAGE: &str = "usage: tune_aco [--budget-secs S] [--k N] [--sectors N] [--seed N]";

fn main() {
    let args = ExperimentArgs::paper(5).from_env("tune_aco", USAGE, |_, _| Ok(false));
    let inst = args.instance();
    let g = &inst.graph;
    let stop = StopCondition::time(args.budget);
    let base = AntColonyConfig {
        objective: Objective::MCut,
        stop,
        seed: args.seed,
        ..Default::default()
    };

    let mut variants: Vec<(String, AntColonyConfig)> = vec![("base".into(), base)];
    for ants in [2usize, 8, 16] {
        variants.push((
            format!("ants={ants}"),
            AntColonyConfig {
                ants_per_colony: ants,
                ..base
            },
        ));
    }
    for ev in [0.01f64, 0.08, 0.15] {
        variants.push((
            format!("evap={ev}"),
            AntColonyConfig {
                evaporation: ev,
                ..base
            },
        ));
    }
    for ex in [0.0f64, 0.25, 0.4] {
        variants.push((
            format!("explore={ex}"),
            AntColonyConfig {
                explore_prob: ex,
                ..base
            },
        ));
    }
    for rf in [0.0f64, 0.1, 1.0] {
        variants.push((
            format!("reinforce={rf}"),
            AntColonyConfig {
                reinforce: rf,
                ..base
            },
        ));
    }
    for dp in [0.1f64, 0.6, 1.5] {
        variants.push((
            format!("deposit={dp}"),
            AntColonyConfig {
                deposit: dp,
                ..base
            },
        ));
    }

    let mut table = Table::new(&["setting", "Mcut", "steps"]);
    for (name, cfg) in &variants {
        let res = AntColony::new(g, args.k, *cfg).run();
        println!(
            "{name:<16} Mcut {:8.3}  steps {}",
            res.best_value, res.steps
        );
        table.push_row(vec![
            Cell::Text(name.clone()),
            Cell::Num(res.best_value, 3),
            Cell::Num(res.steps as f64, 0),
        ]);
    }
    if let Ok(path) = write_csv(&table, "tune_aco.csv") {
        eprintln!("\nCSV written to {}", path.display());
    }
}
