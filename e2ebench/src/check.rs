//! The modes that run more than one workload: the default mode (every
//! workload once, end to end and traced, as one table) and `--check`
//! (two sets of repetitions of the same binary, compared against the
//! bounds in `BENCHMARK.json` the way an outside driver compares them).

use crate::harness::{self, Cfg, RunResult};
use crate::json::{self, Json};
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use crate::workload_oracle;
use std::collections::BTreeMap;

fn run_one(base: &Cfg, workload: &str, seed: u64, trace: bool) -> Result<RunResult, String> {
    let cfg = Cfg {
        workload: workload.to_string(),
        seed,
        trace,
        ..base.clone()
    };
    harness::run(&cfg, workload_oracle(&cfg).as_deref())
}

/// Runs every workload end to end and traced, prints every metric by
/// name with its unit (one row per metric, one column per workload) and
/// a machine-readable object as the last line. Returns whether every
/// output was correct.
///
/// # Errors
///
/// Propagates [`harness::run`] errors.
pub fn all_workloads(base: &Cfg) -> Result<bool, String> {
    let mut columns: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut summary = Vec::new();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let mut column = BTreeMap::new();
        let (mut attempted, mut failed, mut correct) = (0, 0, true);
        for trace in [false, true] {
            let result = run_one(base, workload, base.seed, trace)?;
            attempted += result.attempted;
            failed += result.failed;
            correct &= result.correct;
            column.extend(result.metrics);
        }
        all_correct &= correct;
        summary.push((
            workload.to_string(),
            Json::Obj(vec![
                ("correct".into(), Json::Bool(correct)),
                ("attempted".into(), Json::Num(attempted as f64)),
                ("failed".into(), Json::Num(failed as f64)),
                (
                    "fail_ratio".into(),
                    Json::Num(failed as f64 / attempted.max(1) as f64),
                ),
                (
                    "metrics".into(),
                    Json::Obj(
                        column
                            .iter()
                            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
            ]),
        ));
        columns.push(column);
    }

    print!("{:<40} {:<8}", "metric", "unit");
    for (workload, _) in WORKLOADS {
        print!(" {workload:>14}");
    }
    println!();
    for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
        print!("{:<40} {:<8}", def.name, def.unit);
        for column in &columns {
            print!(" {:>14.6}", column.get(def.name).copied().unwrap_or(0.0));
        }
        println!();
    }
    println!(
        "{}",
        Json::Obj(vec![
            ("seed".into(), Json::Num(base.seed as f64)),
            ("workloads".into(), Json::Obj(summary)),
        ])
        .render()
    );
    Ok(all_correct)
}

/// Units of metrics that are counts made by the program: they must
/// repeat exactly between two runs with one seed.
fn is_count(def: &MetricDef) -> bool {
    matches!(def.unit, "count" | "bytes" | "flop")
        || def.name == "tee.virtual_ns_per_op"
        || def.name.starts_with("distrib.comm.")
}

/// Runs two sets of `reps` end-to-end runs per workload, each run with
/// another seed, and reports per (metric, workload) both medians, both
/// spreads (quartile distance over median) and pass or fail against the
/// bound in `benchmark_json`: a spread must stay within the bound
/// (`setup_s` excepted) and the second median must not be worse than
/// the first by more than the bound. Then runs each workload traced
/// twice with one seed and requires every count-type layer metric to be
/// exactly equal. Returns whether everything passed.
///
/// # Errors
///
/// Returns a message if `benchmark_json` is unreadable or a run fails.
pub fn check(base: &Cfg, benchmark_json: &str, reps: usize) -> Result<bool, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("cannot read {benchmark_json}: {e}"))?;
    let spec = json::parse(&text)?;
    let bounds: BTreeMap<String, f64> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();

    // `--check --workload <name>` checks that workload alone.
    let selected = |name: &str| base.workload.is_empty() || base.workload == name;
    let mut pass = true;
    println!(
        "{:<12} {:<18} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "spread1", "spread2", "bound"
    );
    for (workload, _) in WORKLOADS.into_iter().filter(|(name, _)| selected(name)) {
        let mut sets: [BTreeMap<&'static str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for (set, values) in sets.iter_mut().enumerate() {
            for rep in 0..reps {
                let seed = base.seed + (set * reps + rep) as u64;
                let result = run_one(base, workload, seed, false)?;
                if !result.correct {
                    println!(
                        "{workload}: seed {seed} gave wrong outputs ({} failed)",
                        result.failed
                    );
                    pass = false;
                }
                for (name, value) in result.metrics {
                    values.entry(name).or_default().push(value);
                }
            }
        }
        for def in &END_TO_END {
            let bound = *bounds
                .get(def.name)
                .ok_or(format!("BENCHMARK.json has no bound for {}", def.name))?;
            let (a, b) = (&sets[0][def.name], &sets[1][def.name]);
            let (m1, m2) = (median(a), median(b));
            let (s1, s2) = (spread(a), spread(b));
            let worse = match def.better {
                Better::Lower => (m2 - m1) / m1,
                Better::Higher => (m1 - m2) / m1,
            };
            let steady = def.name == "setup_s" || (s1 <= bound && s2 <= bound);
            let ok = steady && worse <= bound;
            pass &= ok;
            println!(
                "{:<12} {:<18} {:>12.5} {:>12.5} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                workload,
                def.name,
                m1,
                m2,
                s1 * 100.0,
                s2 * 100.0,
                bound * 100.0,
                if ok { "pass" } else { "FAIL" }
            );
        }
    }

    for (workload, _) in WORKLOADS.into_iter().filter(|(name, _)| selected(name)) {
        let first = run_one(base, workload, base.seed, true)?;
        let second = run_one(base, workload, base.seed, true)?;
        let mut equal = first.correct && second.correct;
        for (def, (a, b)) in PER_LAYER
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            if is_count(def) && a.1.to_bits() != b.1.to_bits() {
                println!(
                    "{workload}: {} differs between two runs: {} vs {}",
                    def.name, a.1, b.1
                );
                equal = false;
            }
        }
        println!(
            "{workload:<12} count-type layer metrics, two traced runs with one seed: {}",
            if equal { "equal" } else { "DIFFER" }
        );
        pass &= equal;
    }
    Ok(pass)
}
