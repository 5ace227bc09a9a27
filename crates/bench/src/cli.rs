//! The command-line skeleton of the bench binaries: one flag parser for
//! all of them and one reporting tail for the campaign binaries (`fuzz`,
//! `trisection`, `adversary`).
//!
//! Exit codes: 0 clean, 1 a finding (or a failed self-check), 2 a usage
//! error — an unknown flag, a missing or unparseable value, an unknown
//! bug name. Usage errors never panic, so a CI leg that demands exit 1
//! cannot be satisfied by a mistyped flag, and `paper fig6 --quik` does not
//! silently run the full scale.

use ise_fuzz::{write_reproducers, CampaignFinding, Case};
use ise_telemetry::Registry;
use std::path::Path;
use std::str::FromStr;

/// `--flag` switches and `--flag VALUE` options, in any order.
///
/// ```no_run
/// let mut args = ise_bench::cli::Args::new("usage: demo [--seed N] [--sim]");
/// let (mut seed, mut sim) = (1u64, false);
/// while let Some(flag) = args.next_flag() {
///     match flag.as_str() {
///         "--seed" => seed = args.value(),
///         "--sim" => sim = true,
///         _ => args.unknown(),
///     }
/// }
/// ```
pub struct Args {
    usage: &'static str,
    rest: std::iter::Skip<std::env::Args>,
    flag: String,
}

impl Args {
    /// The process arguments after the program name; `usage` is printed
    /// with every usage error.
    pub fn new(usage: &'static str) -> Self {
        Args {
            usage,
            rest: std::env::args().skip(1),
            flag: String::new(),
        }
    }

    /// The next flag, or `None` once the arguments are used up.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.rest.next()?;
        Some(self.flag.clone())
    }

    /// The current flag's value, parsed with [`FromStr`].
    pub fn value<T: FromStr>(&mut self) -> T {
        self.value_with(|s| s.parse().ok())
    }

    /// The current flag's value, parsed by `parse` (`None` rejects it).
    pub fn value_with<T>(&mut self, parse: impl FnOnce(&str) -> Option<T>) -> T {
        let Some(value) = self.rest.next() else {
            self.fail(&format!("{} needs a value", self.flag))
        };
        parse(&value).unwrap_or_else(|| self.fail(&format!("{}: bad value {value:?}", self.flag)))
    }

    /// Rejects the current flag as unknown.
    pub fn unknown(&self) -> ! {
        self.fail(&format!("unknown flag {:?}", self.flag))
    }

    /// Reports a usage error: prints `problem` and the usage, exits 2.
    pub fn fail(&self, problem: &str) -> ! {
        eprintln!("{problem}\n{}", self.usage);
        std::process::exit(2)
    }
}

/// Writes each finding's reproducer into `dir` and names each file on
/// stderr.
///
/// # Panics
///
/// Panics on a filesystem error.
pub fn write_and_list<C: Case>(findings: &[CampaignFinding<C>], dir: &Path) {
    for path in write_reproducers(findings, dir).expect("writing reproducers") {
        eprintln!("wrote {}", path.display());
    }
}

/// The shared tail of the `fuzz` and `trisection` mains: prints the
/// campaign registry, writes the reproducers into `out_dir` when one was
/// given, and exits 1 when any finding survived.
pub fn finish_campaign<C: Case>(
    registry: &Registry,
    findings: &[CampaignFinding<C>],
    out_dir: Option<&Path>,
) {
    println!("{}", registry.render());
    if let Some(dir) = out_dir {
        write_and_list(findings, dir);
    }
    if !findings.is_empty() {
        eprintln!(
            "{} finding(s) — each `reproducers` entry above is a shrunk `.{}` program",
            findings.len(),
            C::EXT
        );
        std::process::exit(1);
    }
}
