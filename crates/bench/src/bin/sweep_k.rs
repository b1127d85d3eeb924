//! Regenerates the paper's §6 observation that fusion–fission, targeted at
//! k = 32, "returns good solutions from 27 to 38 partitions".
//!
//! ```text
//! cargo run -p ff-bench --release --bin sweep_k -- [--budget-secs 20] \
//!     [--k 32] [--sectors 762] [--seed 2006]
//! ```
//!
//! One FF run is launched at the target k; the search itself visits
//! neighboring part counts, and the harness reports the best Mcut it held
//! at every realized k, alongside a fresh percolation baseline at that k
//! so "good" has a yardstick.

use ff_bench::experiment::ExperimentArgs;
use ff_bench::{write_results, Cell, Table};
use ff_core::{FusionFission, FusionFissionConfig};
use ff_metaheur::{percolation_partition, PercolationConfig, StopCondition};
use ff_partition::Objective;

const USAGE: &str = "usage: sweep_k [--budget-secs S] [--k N] [--sectors N] [--seed N]";

fn main() {
    let args = ExperimentArgs::paper(20).from_env("sweep_k", USAGE, |_, _| Ok(false));
    let inst = args.instance();
    let g = &inst.graph;
    eprintln!(
        "FABOP instance: {} sectors, {} flows; FF targeted at k = {} for {:.1}s\n",
        g.num_vertices(),
        g.num_edges(),
        args.k,
        args.budget.as_secs_f64()
    );

    let ff_cfg = FusionFissionConfig {
        objective: Objective::MCut,
        stop: StopCondition::time(args.budget),
        ..FusionFissionConfig::standard(args.k)
    };
    let result = FusionFission::new(g, ff_cfg, args.seed).run();
    eprintln!(
        "run finished: {} steps, best Mcut at k={}: {:.3}\n",
        result.steps, args.k, result.best_value
    );

    let lo = args.k.saturating_sub(5).max(2);
    let hi = args.k + 6;
    let mut table = Table::new(&["k", "FF best Mcut", "percolation Mcut", "FF / percolation"]);
    for k in lo..=hi {
        let Some(&ff_val) = result.best_value_per_k.get(&k) else {
            continue;
        };
        let perc = percolation_partition(
            g,
            k,
            &PercolationConfig {
                seed: args.seed,
                ..Default::default()
            },
        );
        let perc_val = Objective::MCut.evaluate(g, &perc);
        table.push_row(vec![
            Cell::Num(k as f64, 0),
            Cell::Num(ff_val, 3),
            Cell::Num(perc_val, 3),
            Cell::Num(ff_val / perc_val, 3),
        ]);
    }

    println!(
        "\nFusion–fission solution quality across realized part counts (target k = {})\n",
        args.k
    );
    println!("{}", table.render());
    let visited = result.best_value_per_k.len();
    let near: Vec<usize> = result
        .best_value_per_k
        .keys()
        .copied()
        .filter(|&k| (lo..=hi).contains(&k))
        .collect();
    println!(
        "part counts visited: {visited} distinct (initialization descends from n); near target: {near:?}"
    );
    write_results(&table, "sweep_k");
}
