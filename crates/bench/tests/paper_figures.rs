//! The paper's evaluation, held to the paper.
//!
//! One test per figure of `securetf_bench::figures`. Each asserts the
//! figure's "measured" cells in EXPERIMENTS.md against the paper's
//! values, with the tolerance written beside each; its gates, with their
//! thresholds; and that its committed report under
//! `crates/bench/reports/` is byte-equal to a fresh run. A known
//! deviation from the paper has its own test naming it, so a change
//! that removes or worsens it fails there rather than inside a band.
//!
//! Figures 5 and 6 deploy the 42-163 MB models fifteen and twelve times
//! each, too slow for a debug build: they run in release,
//! `cargo test --release -p securetf-bench --test paper_figures -- --include-ignored`.
//!
//! After a change that moves a figure on purpose, regenerate the reports
//! with `SECURETF_BENCH_DIR=crates/bench/reports cargo run --release -p
//! securetf-bench --bin figures` and list what moved in EXPERIMENTS.md.

use securetf_bench::figures::{self, Figure, ModelSizes, ShieldOverhead, Training};
use securetf_distrib::comm::Codec;
use std::path::Path;
use std::sync::OnceLock;

/// Asserts `measured` is within `tolerance` (a fraction of the paper's
/// value) of what the paper reports for `cell`.
fn near(cell: &str, measured: f64, paper: f64, tolerance: f64) {
    let off = (measured - paper).abs() / paper;
    assert!(
        off <= tolerance,
        "{cell}: measured {measured:.3} is {:.1}% from the paper's {paper} (tolerance {:.0}%)",
        off * 100.0,
        tolerance * 100.0
    );
}

/// Asserts the committed report is byte-equal to `figure`'s fresh one.
fn committed(figure: &dyn Figure) {
    let report = figure.report();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reports")
        .join(report.file_name());
    let on_disk =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        on_disk == report.to_json(),
        "{} is not what the figure measures now:\ncommitted {on_disk}fresh     {}",
        path.display(),
        report.to_json()
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

const MS: f64 = 1e6;

#[test]
fn fig4_attestation_matches_the_paper() {
    let f = figures::fig4_attestation();
    near("CAS total, ms", f.cas.total_ns() as f64 / MS, 17.0, 0.10);
    near("IAS total, ms", f.ias.total_ns() as f64 / MS, 325.0, 0.05);
    assert!(
        f.cas.verification_ns < 1_000_000,
        "CAS quote verification: the paper's is under 1 ms"
    );
    near(
        "IAS quote verification, ms",
        f.ias.verification_ns as f64 / MS,
        280.0,
        0.05,
    );
    near(
        "speedup CAS over IAS",
        ratio(f.ias.total_ns(), f.cas.total_ns()),
        19.0,
        0.10,
    );
    committed(&f);
}

fn fig5() -> &'static ModelSizes {
    static FIG5: OnceLock<ModelSizes> = OnceLock::new();
    FIG5.get_or_init(figures::fig5_model_sizes)
}

#[test]
#[ignore = "release CI step"]
fn fig5_model_sizes_matches_the_paper() {
    let f = fig5();
    for r in &f.rows {
        near(
            &format!("{}: SIM / native", r.spec.name),
            ratio(r.sim, r.native_glibc),
            1.05,
            0.02,
        );
        // The paper: musl the same as glibc or slightly slower.
        let musl = ratio(r.native_musl, r.native_glibc);
        assert!(
            (1.0..=1.05).contains(&musl),
            "{}: native-musl / native-glibc {musl:.3}",
            r.spec.name
        );
    }
    let (densenet, inception_v4) = (&f.rows[0], &f.rows[2]);
    near(
        "Graphene / secureTF-HW at 42 MB",
        ratio(densenet.graphene, densenet.hw),
        1.03,
        0.05,
    );
    // The crossover: above the ~94 MiB EPC Graphene's paging costs ~1.4x.
    near(
        "Graphene / secureTF-HW at 163 MB",
        ratio(inception_v4.graphene, inception_v4.hw),
        1.40,
        0.05,
    );
    committed(f);
}

/// Known deviation: the paper's HW/SIM ratio falls with model size (1.39
/// at 42 MB, 1.14, 1.12 at 163 MB), ours rises (1.19, 1.19, 1.32). The
/// cost model charges HW as a compute slowdown plus paging; the paper's
/// 42 MB point looks dominated by a fixed per-process cost it does not
/// model. Every ratio stays inside the paper's 1.1-1.4 band.
#[test]
#[ignore = "release CI step"]
fn fig5_deviation_hw_over_sim_rises_with_model_size() {
    let hw_over_sim: Vec<f64> = fig5().rows.iter().map(|r| ratio(r.hw, r.sim)).collect();
    for (r, &x) in fig5().rows.iter().zip(&hw_over_sim) {
        assert!(
            (1.1..=1.4).contains(&x),
            "{}: HW / SIM {x:.3} outside the paper's 1.1-1.4 band",
            r.spec.name
        );
    }
    // The paper's falls by 0.27 from 42 to 163 MB; ours rises by 0.13.
    assert!(
        hw_over_sim[2] - hw_over_sim[0] >= 0.1,
        "HW / SIM no longer rises with model size ({hw_over_sim:.3?}): \
         update fig 5's known deviation in EXPERIMENTS.md"
    );
}

fn fig6() -> &'static ShieldOverhead {
    static FIG6: OnceLock<ShieldOverhead> = OnceLock::new();
    FIG6.get_or_init(figures::fig6_fs_shield)
}

#[test]
#[ignore = "release CI step"]
fn fig6_fs_shield_matches_the_paper() {
    for r in fig6().rows.iter().filter(|r| r.mode.trim() == "hw") {
        // Percentage points: the paper's 0.9% is itself a small difference.
        let pct = r.overhead_pct();
        assert!(
            (pct - 0.9).abs() <= 0.5,
            "{} HW: shield overhead {pct:.2}% vs the paper's 0.9% (tolerance 0.5 points)",
            r.spec.name
        );
    }
    committed(fig6());
}

/// Known deviation: the shield's overhead is ~1.3-1.6% in SIM mode, an
/// order above the paper's 0.12%; ours is mode-independent because the
/// shield's crypto is charged the same in both modes, the paper's SIM/HW
/// split is within its own noise.
#[test]
#[ignore = "release CI step"]
fn fig6_deviation_sim_overhead_is_an_order_above_the_paper() {
    for r in fig6().rows.iter().filter(|r| r.mode == "sim") {
        let pct = r.overhead_pct();
        assert!(
            (1.0..=2.0).contains(&pct),
            "{} SIM: shield overhead {pct:.2}% left the known 1-2% \
             (paper: 0.12%): update fig 6's known deviation in EXPERIMENTS.md",
            r.spec.name
        );
    }
}

#[test]
fn fig7_scalability_keeps_the_papers_shape() {
    let f = figures::fig7_scalability();
    for (what, value, bounds) in f.shape() {
        assert!(
            bounds.contains(&value),
            "{what}: {value:.2}x outside {bounds:?}"
        );
    }
    committed(&f);
}

fn fig8() -> &'static Training {
    static FIG8: OnceLock<Training> = OnceLock::new();
    FIG8.get_or_init(figures::fig8_training)
}

#[test]
fn fig8_training_matches_the_paper() {
    let f = fig8();
    let one = &f.rows[0];
    near(
        "SIM without network shield / native",
        ratio(one.sim_off.0, one.native.0),
        2.3,
        0.10,
    );
    near(
        "SIM with network shield / native",
        ratio(one.sim_on.0, one.native.0),
        6.0,
        0.15,
    );
    near("HW speedup, 2 workers", f.hw_scaling(2), 1.96, 0.10);
    near("HW speedup, 3 workers", f.hw_scaling(3), 2.57, 0.05);
    committed(f);
}

/// Known deviation: HW with every feature is ~10.2x native where the
/// paper measures 14x: the EPC model under-counts the full framework's
/// training-time working set.
#[test]
fn fig8_deviation_hw_full_is_10x_native_not_14x() {
    let f = fig8();
    let hw = ratio(f.rows[0].hw.0, f.rows[0].native.0);
    assert!(
        (hw - 10.2).abs() <= 0.5,
        "HW full / native {hw:.2}x left the known 10.2x (paper: 14x): \
         update fig 8's known deviation in EXPERIMENTS.md"
    );
}

#[test]
fn tf_vs_lite_matches_the_paper() {
    let f = figures::tf_vs_lite();
    near("full-TF / Lite", ratio(f.full, f.lite), 71.4, 0.10);
    // Absolute latencies: the paper's testbed, not ours; within 3x.
    for (cell, ns, paper_s) in [("Lite", f.lite, 0.697), ("full TF", f.full, 49.782)] {
        let factor = ns as f64 / 1e9 / paper_s;
        assert!(
            (1.0 / 3.0..=3.0).contains(&factor),
            "{cell} latency {factor:.2}x the paper's {paper_s} s (tolerance 3x)"
        );
    }
    committed(&f);
}

#[test]
fn ablation_epc_size_pays_off_once_the_model_fits() {
    let f = figures::ablation_epc_size();
    for &(epc, fixed, planned) in &f.rows {
        assert!(
            planned <= fixed,
            "{epc} MiB: the planned workspace pages more than the fixed one"
        );
    }
    let fixed_at = |mib| f.rows.iter().find(|r| r.0 == mib).expect("swept").1;
    assert!(
        fixed_at(192) < fixed_at(128),
        "the 163 MB model fits a 192 MiB EPC: its latency must drop"
    );
    committed(&f);
}

#[test]
fn ablation_threading_exitless_syscalls_win() {
    let f = figures::ablation_threading();
    for &(syscalls, user, os) in &f.rows {
        assert!(user < os, "{syscalls} syscalls/request: OS threads won");
    }
    committed(&f);
}

#[test]
fn ablation_optimize_quantization_shrinks_the_artifact_4x() {
    let f = figures::ablation_optimize();
    near(
        "f32 / int8 artifact bytes",
        ratio(f.baseline.bytes, f.quantized.bytes),
        4.0,
        0.01,
    );
    committed(&f);
}

#[test]
fn recovery_yields_pre_xor_post_at_every_crash_point() {
    let f = figures::recovery();
    for r in &f.sizes {
        assert!(r.violations.is_empty(), "{}", r.violations.join("\n"));
        assert!(r.crash_points > 0);
    }
    committed(&f);
}

#[test]
fn gateway_batching_beats_batch_1_and_answers_every_request() {
    let f = figures::gateway();
    for c in &f.cells {
        assert_eq!(
            c.answered, c.offered,
            "load {} ceiling {}: requests lost",
            c.load, c.ceiling
        );
        if c.ceiling >= 8 {
            assert!(
                c.rps > c.baseline_rps,
                "load {} ceiling {}: {:.1} req/s does not beat ceiling 1's {:.1}",
                c.load,
                c.ceiling,
                c.rps,
                c.baseline_rps
            );
        }
    }
    committed(&f);
}

#[test]
fn distrib_overlap_and_int8_pay_off_without_changing_the_arithmetic() {
    let f = figures::distrib();
    let speedup = f.gate_speedup();
    assert!(
        speedup >= 2.0,
        "8 workers: quantized + overlap only {speedup:.2}x dense + barrier (need 2x)"
    );
    let drift = f.quantized_loss_drift();
    assert!(
        drift <= 0.02,
        "quantized loss drifts {:.2}% from dense (cap 2%)",
        drift * 100.0
    );
    assert!(f.digests_equal, "same-seed telemetry digests differ");
    // Overlap changes only the schedule, never the dense arithmetic.
    for c in f.cells.iter().filter(|c| c.comm.codec == Codec::Dense) {
        let barrier = f
            .cells
            .iter()
            .find(|b| {
                (b.workers, b.ps) == (c.workers, c.ps)
                    && b.comm.codec == Codec::Dense
                    && !b.comm.overlap
            })
            .expect("swept");
        assert_eq!(
            c.loss_bits, barrier.loss_bits,
            "{} workers, {} shards: dense loss moved with overlap",
            c.workers, c.ps
        );
    }
    committed(&f);
}
