//! The one command-line flag reader of `ffpart` and the experiment
//! binaries: a cursor that hands out the arguments in order and reads a
//! flag's value with one wording for every error.
//!
//! ```
//! use ff_bench::flags::Flags;
//!
//! let mut flags = Flags::new(["--k", "8", "--out"].map(String::from));
//! assert_eq!(flags.next().as_deref(), Some("--k"));
//! assert_eq!(flags.parse::<usize>("--k"), Ok(8));
//! assert_eq!(flags.next().as_deref(), Some("--out"));
//! assert_eq!(flags.value("--out"), Err("--out needs a value".to_string()));
//! ```

use std::iter::Peekable;
use std::str::FromStr;

/// A cursor over command-line arguments. Iterating yields the next
/// argument, a flag or a positional one; the methods read the value of
/// the flag just yielded.
pub struct Flags {
    args: Peekable<std::vec::IntoIter<String>>,
}

impl Flags {
    /// A cursor at the first of `args` (the program name excluded).
    pub fn new(args: impl IntoIterator<Item = String>) -> Flags {
        let args: Vec<String> = args.into_iter().collect();
        Flags {
            args: args.into_iter().peekable(),
        }
    }

    /// The next argument, as the value of `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The next argument parsed as a `T`; a missing or malformed one is
    /// the error `bad {what}`.
    pub fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, String> {
        let bad = || format!("bad {what}");
        self.args.next().ok_or_else(bad)?.parse().map_err(|_| bad())
    }

    /// The next argument if it is a value rather than another flag, for
    /// a flag whose value may be left out.
    pub fn optional_value(&mut self) -> Option<String> {
        self.args.next_if(|next| !next.starts_with('-'))
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}

/// Ends a binary whose command line did not parse: prints
/// `<bin>: <message>` and `usage` to stderr and exits with status 2.
pub fn exit_usage(bin: &str, usage: &str, message: &str) -> ! {
    eprintln!("{bin}: {message}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_flag_at_the_end_has_no_value() {
        let mut f = flags(&["--listen"]);
        assert_eq!(f.next().as_deref(), Some("--listen"));
        assert_eq!(f.value("--listen"), Err("--listen needs a value".into()));
        assert_eq!(flags(&[]).parse::<u64>("steps"), Err("bad steps".into()));
    }

    #[test]
    fn a_malformed_value_is_bad() {
        let mut f = flags(&["x", "-3", "7"]);
        assert_eq!(f.parse::<usize>("--k"), Err("bad --k".into()));
        assert_eq!(f.parse::<usize>("-k value"), Err("bad -k value".into()));
        assert_eq!(f.parse::<usize>("-k value"), Ok(7));
        assert_eq!(f.next(), None);
    }

    #[test]
    fn an_optional_value_stops_at_the_next_flag() {
        let mut f = flags(&["--http", "--stdio", "--http", "0.0.0.0:80"]);
        assert_eq!(f.next().as_deref(), Some("--http"));
        assert_eq!(f.optional_value(), None);
        assert_eq!(f.next().as_deref(), Some("--stdio"));
        assert_eq!(f.next().as_deref(), Some("--http"));
        assert_eq!(f.optional_value().as_deref(), Some("0.0.0.0:80"));
        assert_eq!(f.optional_value(), None);
    }

    #[test]
    fn positional_arguments_come_out_in_order() {
        let f = flags(&["g.graph", "-q", "h.graph"]);
        assert_eq!(f.collect::<Vec<_>>(), ["g.graph", "-q", "h.graph"]);
    }
}
