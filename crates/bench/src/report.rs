//! Machine-readable benchmark reports.
//!
//! Every figure prints a human table *and* yields a
//! `BENCH_<experiment>.json` report. The figures' latencies are virtual
//! nanoseconds from the TEE cost model, so two runs produce
//! byte-identical reports: they are committed under
//! `crates/bench/reports/` and the `paper_figures` test checks them
//! against a fresh run. The wall-clock `kernels` and `crypto` reports
//! are CI artifacts only.
//!
//! The JSON is hand-rolled (the workspace builds offline, without serde);
//! [`JsonValue`] covers the handful of shapes the reports need.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A JSON value, sufficient for benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (latencies, counts).
    U64(u64),
    /// A float; non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    fn render(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::F64(f) if f.is_finite() => {
                let _ = write!(out, "{f}");
            }
            JsonValue::F64(_) => out.push_str("null"),
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A benchmark report for one experiment, written as
/// `BENCH_<experiment>.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    experiment: String,
    mode: String,
    paper_target: String,
    unit: String,
    entries: Vec<(String, JsonValue)>,
}

impl BenchReport {
    /// Starts a report for `experiment` (e.g. `"fig4_attestation"`); the
    /// name becomes the output file name, so keep it filesystem-safe.
    pub fn new(experiment: &str) -> Self {
        BenchReport {
            experiment: experiment.to_string(),
            mode: String::new(),
            paper_target: String::new(),
            unit: "virtual_ns".to_string(),
            entries: Vec::new(),
        }
    }

    /// Overrides the latency unit recorded in the report (default
    /// `"virtual_ns"`; the kernel microbenchmarks measure `"wall_ns"`).
    pub fn unit(mut self, unit: &str) -> Self {
        self.unit = unit.to_string();
        self
    }

    /// Sets the execution mode(s) the experiment ran in (e.g. `"hw"`).
    pub fn mode(mut self, mode: &str) -> Self {
        self.mode = mode.to_string();
        self
    }

    /// Records what the paper reports for this experiment, for comparison.
    pub fn paper_target(mut self, target: &str) -> Self {
        self.paper_target = target.to_string();
        self
    }

    /// Adds a virtual-nanosecond latency series point.
    pub fn latency_ns(mut self, name: &str, ns: u64) -> Self {
        self.entries.push((name.to_string(), JsonValue::U64(ns)));
        self
    }

    /// Adds a dimensionless ratio (speedups, slowdowns).
    pub fn ratio(mut self, name: &str, value: f64) -> Self {
        self.entries.push((name.to_string(), JsonValue::F64(value)));
        self
    }

    /// Adds an arbitrary value.
    pub fn value(mut self, name: &str, value: JsonValue) -> Self {
        self.entries.push((name.to_string(), value));
        self
    }

    /// The report as a single-line JSON document.
    pub fn to_json(&self) -> String {
        let results = JsonValue::Object(self.entries.clone());
        let doc = JsonValue::Object(vec![
            (
                "experiment".to_string(),
                JsonValue::Str(self.experiment.clone()),
            ),
            ("mode".to_string(), JsonValue::Str(self.mode.clone())),
            (
                "paper_target".to_string(),
                JsonValue::Str(self.paper_target.clone()),
            ),
            ("unit".to_string(), JsonValue::Str(self.unit.clone())),
            ("results".to_string(), results),
        ]);
        let mut out = String::new();
        doc.render(&mut out);
        out.push('\n');
        out
    }

    /// The output file name, `BENCH_<experiment>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.experiment)
    }

    /// Writes the report into `dir` and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes the report into `dir` and prints the path, swallowing (but
    /// reporting) filesystem errors — a benchmark table is still useful
    /// when the directory is read-only.
    pub fn emit(&self, dir: &Path) {
        match self.write_to(dir) {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", self.file_name()),
        }
    }
}

/// The directory a bench binary writes its reports to:
/// `$SECURETF_BENCH_DIR` when set, else the current directory. Each
/// binary reads it once, in `main`.
pub fn dir_from_env() -> PathBuf {
    std::env::var_os("SECURETF_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_stable_json() {
        let json = BenchReport::new("fig4_attestation")
            .mode("hw")
            .paper_target("CAS ~17 ms vs IAS ~325 ms (~19x)")
            .latency_ns("cas_total_ns", 17_000_000)
            .latency_ns("ias_total_ns", 325_000_000)
            .ratio("ias_over_cas", 19.1)
            .to_json();
        assert_eq!(
            json,
            "{\"experiment\":\"fig4_attestation\",\"mode\":\"hw\",\
             \"paper_target\":\"CAS ~17 ms vs IAS ~325 ms (~19x)\",\
             \"unit\":\"virtual_ns\",\"results\":{\"cas_total_ns\":17000000,\
             \"ias_total_ns\":325000000,\"ias_over_cas\":19.1}}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        JsonValue::Str("a\"b\\c\nd\u{1}".to_string()).render(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        JsonValue::Array(vec![
            JsonValue::F64(f64::NAN),
            JsonValue::F64(f64::INFINITY),
            JsonValue::F64(1.5),
        ])
        .render(&mut out);
        assert_eq!(out, "[null,null,1.5]");
    }

    #[test]
    fn nested_objects_render() {
        let mut out = String::new();
        JsonValue::Object(vec![
            (
                "series".to_string(),
                JsonValue::Array(vec![JsonValue::U64(1), JsonValue::U64(2)]),
            ),
            ("ok".to_string(), JsonValue::Bool(true)),
            ("none".to_string(), JsonValue::Null),
        ])
        .render(&mut out);
        assert_eq!(out, "{\"series\":[1,2],\"ok\":true,\"none\":null}");
    }

    #[test]
    fn write_honors_bench_dir() {
        let dir = std::env::temp_dir().join("securetf-bench-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report = BenchReport::new("unit_test").mode("sim");
        let path = report.write_to(&dir).unwrap();
        assert_eq!(path, dir.join("BENCH_unit_test.json"));
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("\"experiment\":\"unit_test\""));
        std::fs::remove_file(&path).unwrap();
    }
}
