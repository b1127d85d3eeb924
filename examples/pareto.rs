//! Multi-objective Pareto ensemble: islands minimize *different*
//! criteria (Cut, Ncut, Mcut), so the ensemble returns the deterministic
//! non-dominated front instead of a single winner.
//!
//! ```text
//! cargo run --release --example pareto
//! ```

use fusionfission::engine::Solver;
use fusionfission::partition::{dominates, Objective};

fn main() {
    let g = fusionfission::graph::generators::planted_partition(4, 20, 0.4, 0.03, 11);
    println!(
        "graph: {} vertices, {} edges, target k = 4\n",
        g.num_vertices(),
        g.num_edges()
    );

    // Six islands cycle the three objectives (two islands each), so the
    // harvest re-scores every island's best molecule under all three
    // criteria and keeps the non-dominated set.
    let res = Solver::on(&g)
        .k(4)
        .islands(6)
        .objectives([Objective::Cut, Objective::NCut, Objective::MCut])
        .steps(8_000)
        .seed(7)
        .run()
        .expect("valid configuration");

    let front = res.pareto.expect("three objectives give a front");
    println!(
        "pareto front: {} point(s) over {:?}",
        front.points.len(),
        front.objectives
    );
    for p in &front.points {
        let values: Vec<String> = front
            .objectives
            .iter()
            .zip(&p.values)
            .map(|(o, v)| format!("{o} {v:.4}"))
            .collect();
        println!(
            "  island {} (optimized {}): {}  [{} parts]",
            p.island,
            p.objective,
            values.join("  "),
            p.parts
        );
    }

    // The front is mutually non-dominated by construction.
    for a in &front.points {
        for b in &front.points {
            assert!(a.island == b.island || !dominates(&a.values, &b.values));
        }
    }

    // The representative partition minimizes the first objective.
    let rep = front.best_under(Objective::Cut).expect("cut on the front");
    println!(
        "\nrepresentative: island {} with Cut {:.4} ({} parts)",
        rep.island,
        rep.values[0],
        res.best.num_nonempty_parts()
    );
}
