//! The one command-line reader of the `exp` binary.
//!
//! Kept dependency-free on purpose. Every verb reads its raw arguments
//! through [`Args`], a cursor that hands out one argument at a time and
//! reads flag values through the validated readers below, so a missing
//! value, an unknown flag and a bad number are reported in one wording
//! everywhere. The paper-figure verbs share [`FigureArgs`], the uniform
//! `--trials`, `--threads`, `--seed`, `--csv <path>`, `--json <path>`.

use std::path::PathBuf;
use std::str::FromStr;

use crate::parallel::default_threads;

/// A cursor over one verb's raw arguments.
#[derive(Debug)]
pub struct Args {
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// A cursor over `args` (without the program name).
    pub fn new<I, S>(args: I) -> Args
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let args: Vec<String> = args.into_iter().map(|a| a.as_ref().to_owned()).collect();
        Args {
            rest: args.into_iter(),
        }
    }

    /// The next raw argument, if any: a verb name or a positional.
    pub fn next_arg(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// The next raw argument as a path, or `missing` as the error.
    ///
    /// # Errors
    ///
    /// Returns `missing` when no argument is left.
    pub fn positional(&mut self, missing: &str) -> Result<PathBuf, String> {
        self.next_arg()
            .map(PathBuf::from)
            .ok_or_else(|| missing.to_owned())
    }

    /// Fails unless every argument has been consumed.
    ///
    /// # Errors
    ///
    /// Names the first argument left over.
    pub fn finish(mut self) -> Result<(), String> {
        match self.next_arg() {
            Some(extra) => Err(format!("unexpected argument {extra}")),
            None => Ok(()),
        }
    }

    /// Hands every remaining argument to `on`, which reads the flag's
    /// value (if it takes one) through the cursor it is given and
    /// returns `false` for an argument it does not know.
    ///
    /// # Errors
    ///
    /// Returns `on`'s error, or `unknown flag …` when `on` returns
    /// `false`.
    pub fn each(
        &mut self,
        mut on: impl FnMut(&str, &mut Args) -> Result<bool, String>,
    ) -> Result<(), String> {
        while let Some(arg) = self.next_arg() {
            if !on(&arg, self)? {
                return Err(format!("unknown flag {arg}"));
            }
        }
        Ok(())
    }

    /// The value following `flag`.
    ///
    /// # Errors
    ///
    /// Returns `{flag} expects a value` at the end of the arguments.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next_arg()
            .ok_or_else(|| format!("{flag} expects a value"))
    }

    /// The value following `flag` as a path.
    ///
    /// # Errors
    ///
    /// See [`Args::value`].
    pub fn path(&mut self, flag: &str) -> Result<PathBuf, String> {
        self.value(flag).map(PathBuf::from)
    }

    /// The value following `flag` as a finite number above zero.
    ///
    /// # Errors
    ///
    /// Returns a message naming `flag` for a missing, unparsable or
    /// non-positive value.
    pub fn positive_number(&mut self, flag: &str) -> Result<f64, String> {
        let v: f64 = self
            .value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a number"))?;
        if !(v > 0.0 && v.is_finite()) {
            return Err(format!("{flag} must be positive"));
        }
        Ok(v)
    }

    /// The value following `flag` as an integer above zero.
    ///
    /// # Errors
    ///
    /// Returns a message naming `flag` for a missing, unparsable or
    /// non-positive value.
    pub fn positive_integer<T>(&mut self, flag: &str) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Default,
    {
        let v: T = self
            .value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a positive integer"))?;
        if v <= T::default() {
            return Err(format!("{flag} must be positive"));
        }
        Ok(v)
    }

    /// The value following `flag` as an unsigned integer.
    ///
    /// # Errors
    ///
    /// Returns a message naming `flag` for a missing or unparsable value.
    pub fn unsigned(&mut self, flag: &str) -> Result<u64, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects an unsigned integer"))
    }

    /// The value following `flag` as a non-empty comma list of
    /// [`fraction`]s.
    ///
    /// # Errors
    ///
    /// Returns a message naming `flag` for a missing value, an entry
    /// that is not a number, or one outside [0, 1].
    pub fn fractions(&mut self, flag: &str) -> Result<Vec<f64>, String> {
        let raw = self.value(flag)?;
        raw.split(',')
            .map(|s| {
                let v: f64 = s
                    .trim()
                    .parse()
                    .map_err(|_| format!("{flag} expects comma-separated numbers"))?;
                fraction(v).ok_or_else(|| format!("{flag} values must lie in [0, 1]"))
            })
            .collect()
    }
}

/// `v` when it is a finite number in [0, 1] (a fault intensity).
pub fn fraction(v: f64) -> Option<f64> {
    (v.is_finite() && (0.0..=1.0).contains(&v)).then_some(v)
}

/// The uniform flags of the paper-figure verbs.
#[derive(Debug, Clone)]
pub struct FigureArgs {
    /// Task sets per experimental point.
    pub trials: usize,
    /// Worker threads.
    pub threads: usize,
    /// Base seed (only Fig. 5 reads it; every figure records it).
    pub seed: u64,
    /// Write the figure's data as CSV here, in addition to stdout.
    pub csv: Option<PathBuf>,
    /// Write the figure's full data as a JSON [`Record`](crate::record::Record).
    pub json: Option<PathBuf>,
}

impl FigureArgs {
    /// Reads the figure flags from `args`, starting from
    /// `default_trials` task sets and [`default_threads`] workers.
    ///
    /// # Errors
    ///
    /// Returns a message describing the offending flag or value.
    pub fn parse(mut args: Args, default_trials: usize) -> Result<FigureArgs, String> {
        let mut out = FigureArgs {
            trials: default_trials,
            threads: default_threads(),
            seed: 0,
            csv: None,
            json: None,
        };
        args.each(|flag, args| {
            match flag {
                "--trials" => out.trials = args.positive_integer(flag)?,
                "--threads" => out.threads = args.positive_integer(flag)?,
                "--seed" => out.seed = args.unsigned(flag)?,
                "--csv" => out.csv = Some(args.path(flag)?),
                "--json" => out.json = Some(args.path(flag)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(out)
    }

    /// Writes `csv` to the `--csv` path if one was given, reporting the
    /// destination on stderr.
    ///
    /// # Errors
    ///
    /// Returns `cannot write …` when the file cannot be written.
    pub fn write_csv(&self, csv: &str) -> Result<(), String> {
        let Some(path) = &self.csv else {
            return Ok(());
        };
        std::fs::write(path, csv).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }

    /// Writes a figure as a JSON [`Record`](crate::record::Record) to
    /// the `--json` path if one was given.
    ///
    /// # Errors
    ///
    /// Returns `cannot write …` when the record cannot be written.
    pub fn write_json<T: serde::Serialize>(&self, name: &str, data: &T) -> Result<(), String> {
        let Some(path) = &self.json else {
            return Ok(());
        };
        crate::record::Record::new(name, self.trials, self.seed, data)
            .write_to(path)
            .map_err(|e| e.to_string())?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure(args: &[&str], default_trials: usize) -> Result<FigureArgs, String> {
        FigureArgs::parse(Args::new(args), default_trials)
    }

    #[test]
    fn defaults_apply() {
        let args = figure(&[], 25).unwrap();
        assert_eq!(args.trials, 25);
        assert!(args.threads >= 1);
        assert_eq!(args.seed, 0);
        assert_eq!(args.csv, None);
    }

    #[test]
    fn flags_parse() {
        let args = figure(
            &[
                "--trials",
                "7",
                "--threads",
                "3",
                "--seed",
                "99",
                "--csv",
                "/tmp/x.csv",
                "--json",
                "/tmp/x.json",
            ],
            1,
        )
        .unwrap();
        assert_eq!(args.trials, 7);
        assert_eq!(args.threads, 3);
        assert_eq!(args.seed, 99);
        assert_eq!(args.csv, Some(PathBuf::from("/tmp/x.csv")));
        assert_eq!(args.json, Some(PathBuf::from("/tmp/x.json")));
    }

    #[test]
    fn bad_flag_rejected() {
        assert_eq!(figure(&["--bogus"], 1).unwrap_err(), "unknown flag --bogus");
        assert_eq!(
            figure(&["--trials"], 1).unwrap_err(),
            "--trials expects a value"
        );
        assert!(figure(&["--trials", "zero"], 1).is_err());
        assert_eq!(
            figure(&["--trials", "0"], 1).unwrap_err(),
            "--trials must be positive"
        );
        assert!(figure(&["--seed", "-1"], 1).is_err());
    }

    #[test]
    fn readers_validate() {
        let mut a = Args::new(["-1", "inf", "2.5", "-3", "0.0, 0.5,1", "0.5,2", "x"]);
        assert!(a.positive_number("--util").is_err());
        assert!(a.positive_number("--util").is_err());
        assert_eq!(a.positive_number("--util"), Ok(2.5));
        assert_eq!(
            a.positive_integer::<i64>("--horizon").unwrap_err(),
            "--horizon must be positive"
        );
        assert_eq!(a.fractions("--intensities"), Ok(vec![0.0, 0.5, 1.0]));
        assert!(a.fractions("--intensities").is_err());
        assert_eq!(a.positional("missing"), Ok(PathBuf::from("x")));
        assert_eq!(a.positional("missing").unwrap_err(), "missing");
        assert!(Args::new(["extra"]).finish().is_err());
        assert!(Args::new(Vec::<String>::new()).finish().is_ok());
    }
}
