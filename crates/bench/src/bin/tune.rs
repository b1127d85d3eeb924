//! Parameter exploration for fusion–fission: sweeps the five paper
//! tunables (t_max, t_min, nbt, choice_k, choice_r) one axis at a time
//! around the defaults, reporting best Mcut per setting.
//!
//! ```text
//! cargo run -p ff-bench --release --bin tune -- [--budget-secs 5] \
//!     [--sectors 762] [--k 32] [--seed 2006] [--trials 2]
//! ```

use ff_bench::experiment::ExperimentArgs;
use ff_bench::{write_csv, Cell, Table};
use ff_core::{FusionFission, FusionFissionConfig};
use ff_metaheur::StopCondition;
use ff_partition::Objective;

const USAGE: &str = "usage: tune [--budget-secs S] [--k N] [--sectors N] [--seed N] [--trials N]";

fn main() {
    let mut trials = 2u64;
    let args = ExperimentArgs::paper(5).from_env("tune", USAGE, |flag, flags| match flag {
        "--trials" => {
            trials = flags.parse("--trials")?;
            Ok(true)
        }
        _ => Ok(false),
    });
    let inst = args.instance();
    let g = &inst.graph;
    let stop = StopCondition::time(args.budget);
    let base = FusionFissionConfig {
        objective: Objective::MCut,
        stop,
        ..FusionFissionConfig::standard(args.k)
    };
    eprintln!(
        "instance {}v/{}e, k={}, {:.1}s × {} trials per setting\n",
        g.num_vertices(),
        g.num_edges(),
        args.k,
        args.budget.as_secs_f64(),
        trials
    );

    let mut variants: Vec<(String, FusionFissionConfig)> = vec![("base".into(), base)];
    for nbt in [100u32, 200, 800, 1600, 3200] {
        variants.push((format!("nbt={nbt}"), FusionFissionConfig { nbt, ..base }));
    }
    for ck in [2.0f64, 4.0, 16.0, 32.0] {
        variants.push((
            format!("choice_k={ck}"),
            FusionFissionConfig {
                choice_k: ck,
                ..base
            },
        ));
    }
    for cr in [0.05f64, 0.5, 1.0] {
        variants.push((
            format!("choice_r={cr}"),
            FusionFissionConfig {
                choice_r: cr,
                ..base
            },
        ));
    }
    for lr in [0.01f64, 0.1] {
        variants.push((
            format!("law_rate={lr}"),
            FusionFissionConfig {
                law_rate: lr,
                ..base
            },
        ));
    }
    for sb in [0.0f64, 1.0] {
        variants.push((
            format!("size_bias={sb}"),
            FusionFissionConfig {
                size_bias: sb,
                ..base
            },
        ));
    }

    let mut table = Table::new(&["setting", "mean Mcut", "best Mcut"]);
    for (name, cfg) in &variants {
        let vals: Vec<f64> = (0..trials)
            .map(|t| FusionFission::new(g, *cfg, args.seed + t).run().best_value)
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let best = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        println!("{name:<16} mean {mean:8.3}  best {best:8.3}");
        table.push_row(vec![
            Cell::Text(name.clone()),
            Cell::Num(mean, 3),
            Cell::Num(best, 3),
        ]);
    }
    if let Ok(path) = write_csv(&table, "tune.csv") {
        eprintln!("\nCSV written to {}", path.display());
    }
}
