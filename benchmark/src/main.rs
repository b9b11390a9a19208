//! `xsec-e2e` — the whole-stack benchmark of 6G-XSec.
//!
//! ```text
//! xsec-e2e --workload W --seed N --seconds S --trace 0|1   the builder's contract
//! xsec-e2e run [--seed N] [--seconds S] [--runs R] [--quick] [--out FILE]
//! xsec-e2e compare A.json B.json
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric means.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calib;
mod child;
mod drive;
mod pagepool;
mod probes;
mod report;
mod stack;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  xsec-e2e --workload <steady|fanin|flood|tcp_paced> --seed <n> --seconds <s> --trace <0|1>
  xsec-e2e run [--seed <n>] [--seconds <s>] [--runs <r>] [--quick] [--out <file>]
  xsec-e2e compare <A.json> <B.json>";

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Self {
        let mut parsed = Args { pairs: Vec::new(), flags: Vec::new(), positional: Vec::new() };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if it.peek().is_some_and(|v| !v.starts_with("--")) => {
                    parsed.pairs.push((key.to_string(), it.next().expect("peeked").clone()));
                }
                Some(key) => parsed.flags.push(key.to_string()),
                None => parsed.positional.push(arg.clone()),
            }
        }
        parsed
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn number<N: std::str::FromStr>(&self, key: &str) -> Result<Option<N>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key} {v}: not a number")))
            .transpose()
    }

    fn workload(&self) -> Result<&'static workloads::Workload, String> {
        let name = self.get("workload").ok_or("--workload is required")?;
        workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn traced(&self) -> Result<bool, String> {
        match self.get("trace") {
            Some("0") | None => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(format!("--trace {other}: expected 0 or 1")),
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "child" | "pool")) => (c, &argv[1..]),
        Some(_) => ("contract", &argv[..]),
        None => return Err(USAGE.to_string()),
    };
    let args = Args::parse(rest);
    let seed = args.number("seed")?.unwrap_or(suite::DEFAULT_SEED);
    let seconds: u64 = args.number("seconds")?.unwrap_or(suite::DEFAULT_SECONDS).max(1);
    match command {
        "contract" => {
            let line = suite::contract(args.workload()?, seed, seconds, args.traced()?)?;
            println!("{line}");
            Ok(ExitCode::SUCCESS)
        }
        "pool" => {
            pagepool::serve();
            Ok(ExitCode::SUCCESS)
        }
        "child" => {
            let doc = child::run(child::ChildSpec {
                workload: args.workload()?,
                seed,
                seconds,
                scale: args.number("scale")?.unwrap_or(1.0),
                traced: args.traced()?,
                setups: args.number("setups")?.unwrap_or(1),
            });
            println!("{doc}");
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let quick = args.flags.iter().any(|f| f == "quick");
            let runs = args.number("runs")?.unwrap_or(1);
            let (doc, ok) = suite::run_suite(seed, seconds, runs, quick);
            if let Some(path) = args.get("out") {
                suite::write_result(path, &doc)?;
                println!("wrote {path}");
            }
            if quick {
                println!("--quick: 1/20 of the input; these numbers are NOT comparable");
            }
            Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        "compare" => {
            let [a, b] = args.positional.as_slice() else {
                return Err(USAGE.to_string());
            };
            let load = |path: &String| -> Result<serde_json::Value, String> {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
            };
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            let (text, worse) = report::compare(&load(a)?, &load(b)?, &names);
            print!("{text}");
            println!("{worse} row(s) worse than the bound");
            Ok(if worse == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        _ => unreachable!("command was matched above"),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("xsec-e2e: {message}");
            ExitCode::from(2)
        }
    }
}
