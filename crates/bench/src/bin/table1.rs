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

use ff_bench::experiment::ExperimentArgs;
use ff_bench::{run_method, write_results, Cell, MethodBudget, MethodId, Table};
use ff_partition::Objective;

const USAGE: &str = "usage: table1 [--budget-secs S] [--k N] [--sectors N] [--seed N]";

fn main() {
    let args = ExperimentArgs::paper(10).from_env("table1", USAGE, |_, _| Ok(false));
    let inst = args.instance();
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
        args.budget.as_secs_f64()
    );

    let budget = MethodBudget::seconds(args.budget);
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
    write_results(&table, "table1");
}
