//! Shared support for the figure-regeneration binaries.
//!
//! Each `fig*` binary regenerates one table/figure of the paper's
//! evaluation (§5) and prints the series the paper reports, plus the
//! paper's own numbers for comparison. Latencies in these bins are
//! **virtual time** from the TEE cost model (see `DESIGN.md` §4), so runs
//! are deterministic; only the `kernels` and `crypto` bins read a wall
//! clock. The repo's wall-clock end-to-end benchmark is `e2e`, in its own
//! workspace under `e2ebench/` (declared by `BENCHMARK.json`).

pub mod report;

/// Formats nanoseconds as adaptive human units.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000_000 {
        format!("{:.1} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Formats a ratio like `1.39x`.
pub fn fmt_ratio(num: u64, den: u64) -> String {
    if den == 0 {
        return "∞".to_string();
    }
    format!("{:.2}x", num as f64 / den as f64)
}

/// Prints a table header with a separator row.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", columns.join(" | "));
    println!(
        "{}",
        "-".repeat(columns.iter().map(|c| c.len() + 3).sum::<usize>().max(20))
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_formatting_picks_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.5 µs");
        assert_eq!(fmt_ns(2_500_000), "2.5 ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.50 s");
        assert_eq!(fmt_ns(15_000_000_000), "15.0 s");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(278, 200), "1.39x");
        assert_eq!(fmt_ratio(1, 0), "∞");
    }
}
