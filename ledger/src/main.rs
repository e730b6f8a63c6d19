//! `ledger` — the flowrank performance ledger. See `README.md` beside this
//! package's manifest, or `ledger --list` for the catalogue.

use std::path::PathBuf;
use std::process::ExitCode;

use flowrank_ledger::compare::{self, SuiteOptions};
use flowrank_ledger::run::{self, Options};
use flowrank_ledger::{catalog, mem};

// Counts what the in-process workloads allocate; see `mem`.
#[global_allocator]
static ALLOCATOR: mem::Counting = mem::Counting;

const USAGE: &str = "\
usage:
  ledger --list
  ledger --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  ledger suite [--seed N] [--seconds S] [--smoke] --out FILE
  ledger compare OLD.json[,OLD2.json...] NEW.json[,NEW2.json...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("--list") => {
            catalog::print();
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &args[1..] {
            [old, new] => {
                let files = |side: &str| side.split(',').map(PathBuf::from).collect::<Vec<_>>();
                let regressed = compare::compare_files(&files(old), &files(new))?;
                Ok(exit_for(!regressed))
            }
            _ => Err(format!("compare takes two sides\n{USAGE}")),
        },
        Some("suite") => {
            let flags = Flags::parse(&args[1..])?;
            let correct = compare::suite(&SuiteOptions {
                seed: flags.integer("--seed", 1)?,
                seconds: flags.number("--seconds", 18.0)?,
                smoke: flags.has("--smoke"),
                out: flags.path("--out").ok_or("suite needs --out FILE")?,
            })?;
            Ok(exit_for(correct))
        }
        Some(_) => {
            let flags = Flags::parse(args)?;
            let options = Options {
                workload: flags
                    .text("--workload")
                    .ok_or_else(|| format!("missing --workload\n{USAGE}"))?,
                seed: flags.integer("--seed", 1)?,
                seconds: flags.number("--seconds", 20.0)?,
                trace: flags.integer("--trace", 0)? != 0,
                smoke: flags.has("--smoke"),
                out: flags.path("--out"),
            };
            let outcome = run::run(&options)?;
            if let Some(path) = &options.out {
                std::fs::write(path, outcome.to_json().render() + "\n")
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            outcome.print();
            Ok(exit_for(outcome.correct()))
        }
    }
}

/// 0 when all is well; 1 when the command did its work and the answer is
/// bad: a failed pass, a regression.
fn exit_for(good: bool) -> ExitCode {
    if good {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--flag value` pairs and bare switches.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    const SWITCHES: [&'static str; 1] = ["--smoke"];
    const VALUED: [&'static str; 5] = ["--workload", "--seed", "--seconds", "--trace", "--out"];

    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if Self::SWITCHES.contains(&arg.as_str()) {
                flags.push((arg.clone(), None));
            } else if Self::VALUED.contains(&arg.as_str()) {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.push((arg.clone(), Some(value.clone())));
            } else {
                return Err(format!("unknown argument `{arg}`\n{USAGE}"));
            }
        }
        Ok(Flags(flags))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(flag, _)| flag == name)
    }

    fn text(&self, name: &str) -> Option<String> {
        let (_, value) = self.0.iter().rev().find(|(flag, _)| flag == name)?;
        value.clone()
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.text(name).map(PathBuf::from)
    }

    fn integer(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.text(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name} takes a whole number, got `{text}`")),
        }
    }

    fn number(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.text(name) {
            None => Ok(default),
            Some(text) => text
                .parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{name} takes a non-negative number, got `{text}`")),
        }
    }
}
