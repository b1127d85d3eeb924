//! Multi-seed head-to-head of the three metaheuristics — the statistically
//! honest version of Table 1's bottom three rows (single runs can flip on
//! seed luck when two methods are within a percent).
//!
//! With `--islands N > 1`, every method gets the parallel ensemble
//! treatment (`ff-engine`'s `Solver`): fusion–fission runs N islands with
//! the chosen `--migration` policy (`replace`, `combine`, `adaptive`),
//! the baselines run N independent seeds and keep their best — so nobody
//! wins just by being handed more parallelism.
//!
//! ```text
//! cargo run -p ff-bench --release --bin head2head -- [--budget-secs 10] \
//!     [--seeds 5] [--sectors 762] [--k 32] [--islands 1] [--threads 0] \
//!     [--migration replace]
//! ```

use ff_atc::{FabopConfig, FabopInstance, PAPER_K};
use ff_bench::experiment::{check_instance, parse_budget};
use ff_bench::flags::{exit_usage, Flags};
use ff_bench::{
    run_method_ensemble, write_csv, Cell, MethodBudget, MethodId, MigrationPolicyId, Table,
};
use ff_partition::Objective;
use std::time::Duration;

const USAGE: &str = "usage: head2head [--budget-secs S] [--seeds N] [--sectors N] [--k N] \
[--islands N] [--threads N] [--migration replace|combine|adaptive]";

struct Args {
    budget: Duration,
    k: usize,
    sectors: usize,
    seeds: u64,
    islands: usize,
    threads: usize,
    migration: MigrationPolicyId,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        budget: Duration::from_secs(10),
        k: PAPER_K,
        sectors: ff_atc::PAPER_SECTORS,
        seeds: 5,
        islands: 1,
        threads: 0,
        migration: MigrationPolicyId::default(),
    };
    let mut flags = Flags::new(std::env::args().skip(1));
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--budget-secs" => args.budget = parse_budget(&mut flags)?,
            "--k" => args.k = flags.parse("--k")?,
            "--sectors" => args.sectors = flags.parse("--sectors")?,
            "--seeds" => args.seeds = flags.parse("--seeds")?,
            "--islands" => args.islands = flags.parse("--islands")?,
            "--threads" => args.threads = flags.parse("--threads")?,
            "--migration" => {
                let name = flags.value("--migration")?;
                args.migration = MigrationPolicyId::parse(&name)
                    .ok_or_else(|| format!("unknown migration policy `{name}`"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    check_instance(args.sectors, args.k)?;
    Ok(args)
}

fn stats(values: &[f64]) -> (f64, f64, f64) {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let best = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    (mean, best, var.sqrt())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_usage("head2head", USAGE, &e));
    let inst = FabopInstance::scaled(args.sectors, &FabopConfig::default());
    let g = &inst.graph;
    let budget = MethodBudget::seconds(args.budget);
    eprintln!(
        "{}v/{}e, k = {}, {:.1}s × {} seeds per method, {} island(s)\n",
        g.num_vertices(),
        g.num_edges(),
        args.k,
        args.budget.as_secs_f64(),
        args.seeds,
        args.islands
    );

    let run_one = |method: MethodId, seed: u64| -> f64 {
        let out = run_method_ensemble(
            method,
            g,
            args.k,
            Objective::MCut,
            budget,
            seed,
            args.islands,
            args.threads,
            args.migration,
        );
        Objective::MCut.evaluate(g, &out.partition)
    };

    let mut sa_vals = Vec::new();
    let mut aco_vals = Vec::new();
    let mut ff_vals = Vec::new();
    for seed in 1..=args.seeds {
        let (sa, aco, ff) = if args.islands == 1 {
            // The three methods are time-budgeted and independent, so each
            // seed's trio runs on its own thread (one core per method keeps
            // the budgets honest and cuts wall time to a third).
            std::thread::scope(|scope| {
                let sa = scope.spawn(|| run_one(MethodId::SimulatedAnnealing, seed));
                let aco = scope.spawn(|| run_one(MethodId::AntColony, seed));
                let ff = scope.spawn(|| run_one(MethodId::FusionFission, seed));
                (
                    sa.join().expect("SA thread"),
                    aco.join().expect("ACO thread"),
                    ff.join().expect("FF thread"),
                )
            })
        } else {
            // Each ensemble is internally parallel; running the methods
            // sequentially avoids oversubscribing the machine.
            (
                run_one(MethodId::SimulatedAnnealing, seed),
                run_one(MethodId::AntColony, seed),
                run_one(MethodId::FusionFission, seed),
            )
        };
        sa_vals.push(sa);
        aco_vals.push(aco);
        ff_vals.push(ff);
        eprintln!("seed {seed}: SA {sa:.3}  ACO {aco:.3}  FF {ff:.3}");
    }

    let mut table = Table::new(&["method", "mean Mcut", "best Mcut", "stddev", "wins"]);
    let wins = |mine: &[f64]| -> usize {
        (0..mine.len())
            .filter(|&i| mine[i] <= sa_vals[i] && mine[i] <= aco_vals[i] && mine[i] <= ff_vals[i])
            .count()
    };
    for (name, vals) in [
        ("Simulated annealing", &sa_vals),
        ("Ant colony", &aco_vals),
        ("Fusion Fission", &ff_vals),
    ] {
        let (mean, best, sd) = stats(vals);
        table.push_row(vec![
            Cell::Text(name.into()),
            Cell::Num(mean, 3),
            Cell::Num(best, 3),
            Cell::Num(sd, 3),
            Cell::Num(wins(vals) as f64, 0),
        ]);
    }
    println!("\n{}", table.render());
    if let Ok(path) = write_csv(&table, "head2head.csv") {
        eprintln!("CSV written to {}", path.display());
    }
}
