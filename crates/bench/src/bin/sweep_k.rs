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

use ff_atc::{FabopConfig, FabopInstance, PAPER_K};
use ff_bench::flags::{exit_usage, Flags};
use ff_bench::{write_csv, Cell, Table};
use ff_core::{FusionFission, FusionFissionConfig};
use ff_metaheur::{percolation_partition, PercolationConfig, StopCondition};
use ff_partition::Objective;
use std::time::Duration;

const USAGE: &str = "usage: sweep_k [--budget-secs S] [--k N] [--sectors N] [--seed N]";

struct Args {
    budget_secs: f64,
    k: usize,
    sectors: usize,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        budget_secs: 20.0,
        k: PAPER_K,
        sectors: ff_atc::PAPER_SECTORS,
        seed: 2006,
    };
    let mut flags = Flags::new(std::env::args().skip(1));
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--budget-secs" => args.budget_secs = flags.parse("--budget-secs")?,
            "--k" => args.k = flags.parse("--k")?,
            "--sectors" => args.sectors = flags.parse("--sectors")?,
            "--seed" => args.seed = flags.parse("--seed")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_usage("sweep_k", USAGE, &e));
    let cfg = FabopConfig {
        seed: args.seed,
        ..Default::default()
    };
    let inst = if args.sectors == ff_atc::PAPER_SECTORS {
        FabopInstance::paper_scale(&cfg)
    } else {
        FabopInstance::scaled(args.sectors, &cfg)
    };
    let g = &inst.graph;
    eprintln!(
        "FABOP instance: {} sectors, {} flows; FF targeted at k = {} for {:.1}s\n",
        g.num_vertices(),
        g.num_edges(),
        args.k,
        args.budget_secs
    );

    let ff_cfg = FusionFissionConfig {
        objective: Objective::MCut,
        stop: StopCondition::time(Duration::from_secs_f64(args.budget_secs)),
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
    match write_csv(&table, "sweep_k.csv") {
        Ok(path) => eprintln!("CSV written to {}", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    match ff_bench::write_json(&table, "sweep_k.json") {
        Ok(path) => eprintln!("JSON written to {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
}
