//! The command line the FABOP experiment binaries share: a metaheuristic
//! time budget, the part count, the instance size and the seed, each
//! checked before any instance is built.
//!
//! ```
//! use ff_bench::experiment::ExperimentArgs;
//! use ff_bench::flags::Flags;
//! use std::time::Duration;
//!
//! let argv = ["--k", "4", "--trials", "3", "--sectors", "60"].map(String::from);
//! let mut trials = 2u64;
//! let args = ExperimentArgs::paper(10)
//!     .parse(Flags::new(argv), |flag, flags| match flag {
//!         "--trials" => {
//!             trials = flags.parse("--trials")?;
//!             Ok(true)
//!         }
//!         _ => Ok(false),
//!     })
//!     .unwrap();
//! assert_eq!((args.k, args.sectors, trials), (4, 60, 3));
//! assert_eq!(args.budget, Duration::from_secs(10));
//! ```

use crate::flags::{exit_usage, Flags};
use ff_atc::{FabopConfig, FabopInstance, PAPER_K, PAPER_SECTORS};
use std::time::Duration;

/// The fewest sectors a FABOP instance can have: two per country.
const MIN_SECTORS: usize = 22;

/// The four flags every FABOP experiment binary reads.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentArgs {
    /// Wall-clock budget per metaheuristic run (`--budget-secs`).
    pub budget: Duration,
    /// Target part count (`--k`).
    pub k: usize,
    /// Instance size in sectors (`--sectors`).
    pub sectors: usize,
    /// Seed of the instance and of every run (`--seed`).
    pub seed: u64,
}

impl ExperimentArgs {
    /// Defaults for the paper's setting: k = 32 on the 762-sector
    /// instance, seed 2006, and `budget_secs` per metaheuristic run.
    pub fn paper(budget_secs: u64) -> ExperimentArgs {
        ExperimentArgs {
            budget: Duration::from_secs(budget_secs),
            k: PAPER_K,
            sectors: PAPER_SECTORS,
            seed: 2006,
        }
    }

    /// Reads `flags` over these defaults. Every other flag goes to `own`,
    /// which reads its value from the cursor and returns `Ok(true)`, or
    /// returns `Ok(false)` for a flag it does not know either.
    pub fn parse(
        mut self,
        mut flags: Flags,
        mut own: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
    ) -> Result<ExperimentArgs, String> {
        while let Some(flag) = flags.next() {
            match flag.as_str() {
                "--budget-secs" => self.budget = parse_budget(&mut flags)?,
                "--k" => self.k = flags.parse("--k")?,
                "--sectors" => self.sectors = flags.parse("--sectors")?,
                "--seed" => self.seed = flags.parse("--seed")?,
                other => {
                    if !own(other, &mut flags)? {
                        return Err(format!("unknown flag `{other}`"));
                    }
                }
            }
        }
        check_instance(self.sectors, self.k)?;
        Ok(self)
    }

    /// [`ExperimentArgs::parse`] over the process arguments. A bad command
    /// line ends the process: `bin: <message>`, `usage`, exit status 2.
    pub fn from_env(
        self,
        bin: &str,
        usage: &str,
        own: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
    ) -> ExperimentArgs {
        self.parse(Flags::new(std::env::args().skip(1)), own)
            .unwrap_or_else(|e| exit_usage(bin, usage, &e))
    }

    /// The FABOP instance of `sectors` sectors generated from `seed`.
    pub fn instance(&self) -> FabopInstance {
        let cfg = FabopConfig {
            seed: self.seed,
            ..Default::default()
        };
        FabopInstance::scaled(self.sectors, &cfg)
    }
}

/// Reads a `--budget-secs` value as a [`Duration`]: negative, NaN and
/// out-of-range seconds are the error `bad --budget-secs`.
pub fn parse_budget(flags: &mut Flags) -> Result<Duration, String> {
    let secs = flags.parse("--budget-secs")?;
    Duration::try_from_secs_f64(secs).map_err(|_| "bad --budget-secs".to_string())
}

/// Checks that `sectors` can make a FABOP instance and that it can hold
/// `k` non-empty parts.
pub fn check_instance(sectors: usize, k: usize) -> Result<(), String> {
    if sectors < MIN_SECTORS {
        return Err(format!(
            "bad --sectors: {sectors} is below {MIN_SECTORS} (two per country)"
        ));
    }
    if !(1..=sectors).contains(&k) {
        return Err(format!("bad --k: {k} parts is not in 1..={sectors}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentArgs, String> {
        let flags = Flags::new(args.iter().map(|a| a.to_string()));
        ExperimentArgs::paper(5).parse(flags, |_, _| Ok(false))
    }

    #[test]
    fn defaults_hold_without_flags() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.budget, Duration::from_secs(5));
        assert_eq!((args.k, args.sectors, args.seed), (32, 762, 2006));
    }

    #[test]
    fn out_of_range_values_are_bad() {
        for (argv, flag) in [
            (&["--budget-secs", "-1"][..], "bad --budget-secs"),
            (&["--budget-secs", "NaN"], "bad --budget-secs"),
            (&["--sectors", "10"], "bad --sectors"),
            (&["--k", "0"], "bad --k"),
            (&["--k", "100", "--sectors", "30"], "bad --k"),
            (&["--sectors", "30"], "bad --k"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.starts_with(flag), "{argv:?}: {err}");
        }
        assert_eq!(parse(&["--seed"]).unwrap_err(), "bad --seed");
        assert_eq!(
            parse(&["--trials", "2"]).unwrap_err(),
            "unknown flag `--trials`"
        );
    }

    #[test]
    fn the_largest_k_is_one_part_per_sector() {
        let args = parse(&["--k", "22", "--sectors", "22", "--budget-secs", "0.5"]).unwrap();
        assert_eq!((args.k, args.sectors), (22, 22));
        assert_eq!(args.budget, Duration::from_millis(500));
    }
}
