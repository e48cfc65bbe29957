//! Prints the figures named on the command line (all without one; names
//! in `securetf_bench::figures::ALL`) and writes each `BENCH_<name>.json`
//! into `$SECURETF_BENCH_DIR` (default: the current directory), e.g.
//! `cargo run --release -p securetf-bench --bin figures -- gateway`.

use securetf_bench::figures::ALL;
use securetf_bench::report;
use std::process::ExitCode;

fn main() -> ExitCode {
    let picked: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = picked.iter().find(|p| ALL.iter().all(|(n, _)| n != p)) {
        let names: Vec<_> = ALL.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown figure `{unknown}`; one of: {}", names.join(" "));
        return ExitCode::FAILURE;
    }
    let dir = report::dir_from_env();
    for (name, measure) in ALL {
        if picked.is_empty() || picked.iter().any(|p| p == name) {
            let figure = measure();
            figure.print();
            figure.report().emit(&dir);
        }
    }
    ExitCode::SUCCESS
}
