//! Regenerates **Table 1** of the paper: all 17 methods × {Cut, Ncut,
//! Mcut} on the FABOP "country core area" instance with k = 32.
//!
//! ```text
//! cargo run -p ff-bench --release --bin table1 -- [--budget-secs 10] \
//!     [--k 32] [--sectors 762] [--seed 2006]
//! ```
//!
//! Deterministic methods run to completion; the three metaheuristics each
//! get the time budget (the paper gave them up to an hour on a 2006
//! Pentium 4 — a few seconds of a modern core explores a comparable
//! neighborhood count, and the budget is a flag). Cut is reported ÷1000
//! exactly as in the paper.

use ff_atc::{FabopConfig, FabopInstance, PAPER_K};
use ff_bench::flags::{exit_usage, Flags};
use ff_bench::{run_method, write_csv, Cell, MethodBudget, MethodId, Table};
use ff_partition::Objective;

const USAGE: &str = "usage: table1 [--budget-secs S] [--k N] [--sectors N] [--seed N]";

struct Args {
    budget_secs: f64,
    k: usize,
    sectors: usize,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        budget_secs: 10.0,
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
    let args = parse_args().unwrap_or_else(|e| exit_usage("table1", USAGE, &e));
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
        "FABOP instance: {} sectors, {} flows, k = {} (seed {})",
        g.num_vertices(),
        g.num_edges(),
        args.k,
        args.seed
    );
    eprintln!(
        "metaheuristic budget: {:.1}s each; deterministic methods run to completion\n",
        args.budget_secs
    );

    let budget = MethodBudget::seconds(args.budget_secs);
    let mut table = Table::new(&["Method", "Cut (/1000)", "Ncut", "Mcut", "time (s)"]);
    for method in MethodId::all() {
        // The paper's metaheuristics are tuned on the ATC objective (Mcut).
        let out = run_method(method, g, args.k, Objective::MCut, budget, args.seed);
        let p = &out.partition;
        let cut = Objective::Cut.evaluate(g, p);
        let ncut = Objective::NCut.evaluate(g, p);
        let mcut = Objective::MCut.evaluate(g, p);
        table.push_row(vec![
            Cell::Text(method.label().to_string()),
            Cell::Num(cut / 1000.0, 2),
            Cell::Num(ncut, 3),
            Cell::Num(mcut, 3),
            Cell::Num(out.elapsed.as_secs_f64(), 2),
        ]);
        eprintln!(
            "  done: {:<26} Cut/1000 {:8.2}  Ncut {:7.3}  Mcut {:9.3}  ({:.2}s)",
            method.label(),
            cut / 1000.0,
            ncut,
            mcut,
            out.elapsed.as_secs_f64()
        );
    }

    println!(
        "\nTable 1 — comparisons between algorithms (32-partition of the synthetic core area)\n"
    );
    println!("{}", table.render());
    match write_csv(&table, "table1.csv") {
        Ok(path) => eprintln!("CSV written to {}", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
    match ff_bench::write_json(&table, "table1.json") {
        Ok(path) => eprintln!("JSON written to {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
}
