//! `e2e`: the repository's wall-clock benchmark.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         one run of one workload; the last line of standard output is
//!         the result object (end-to-end metrics, or per-layer with
//!         --trace 1)
//! e2e [--seed <n>] [--seconds <s>] [--smoke]
//!         every workload, end to end and traced, as one table
//! e2e --check [--reps <r>] [--seed <n>] [--seconds <s>] [--workload <name>]
//!         two sets of repetitions against the bounds in BENCHMARK.json
//! ```
//!
//! `--threads <t>` overrides the workloads' worker-pool sizes (see
//! `harness::Cfg::threads`), `--smoke` divides op counts by 100 and runs
//! one epoch, `--benchmark-json <path>` names the file `--check` reads
//! (default `BENCHMARK.json`).

use securetf_e2e::harness::{self, Cfg};
use securetf_e2e::metrics::WORKLOADS;
use securetf_e2e::{check, prepare_workload, workload_oracle};
use std::process::ExitCode;

const USAGE: &str = "usage: e2e [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
                     [--threads <t>] [--smoke] [--check [--reps <r>] [--benchmark-json <path>]]";

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|text| {
                text.parse()
                    .map_err(|_| format!("{name} {text}: not a number"))
            })
            .transpose()
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }
}

fn run() -> Result<bool, String> {
    let args = Args(std::env::args().skip(1).collect());
    let smoke = args.flag("--smoke");
    let cfg = Cfg {
        workload: args.value("--workload").unwrap_or_default().to_string(),
        seed: args.number("--seed", 1)?,
        seconds: if smoke {
            0.0
        } else {
            args.number("--seconds", 10.0)?
        },
        trace: args.number("--trace", 0u8)? != 0,
        smoke,
        prime_mib: args.number("--prime-mib", 0.0)?,
        threads: args.parsed("--threads")?,
    };
    if !cfg.workload.is_empty() && !WORKLOADS.iter().any(|(name, _)| *name == cfg.workload) {
        return Err(format!("unknown workload {}\n{USAGE}", cfg.workload));
    }
    if args.flag("--epoch") {
        let mut workload = prepare_workload(&cfg, args.value("--oracle")).ok_or(USAGE)?;
        harness::run_epoch(&cfg, workload.as_mut());
        return Ok(true);
    }
    if args.flag("--check") {
        let path = args.value("--benchmark-json").unwrap_or("BENCHMARK.json");
        return check::check(&cfg, path, args.number("--reps", 10)?);
    }
    if cfg.workload.is_empty() {
        return check::all_workloads(&cfg);
    }
    let result = harness::run(&cfg, workload_oracle(&cfg).as_deref())?;
    println!("{}", result.to_json().render());
    Ok(result.correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        // Outputs were wrong: the result line is printed, the exit code
        // says not to trust it.
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(1)
        }
    }
}
