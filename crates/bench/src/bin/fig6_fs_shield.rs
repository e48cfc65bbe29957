//! Figure 6: effect of the file-system shield on classification latency.
//!
//! The paper classifies with the shield protecting the model and input
//! files (encrypt + authenticate on every read) versus reading them in
//! the clear. Overhead is tiny — 0.12% in SIM mode, 0.9% in HW mode —
//! because the shield's streaming crypto runs at AES-NI rates (~4 GB/s)
//! while classification is compute-bound.
//!
//! Workload: `label_image` runs as one process per classification, so
//! each run re-reads the model file (through the shield when enabled)
//! and the input image.

use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf_bench::report::{BenchReport, JsonValue};
use securetf_bench::{fmt_ns, header};
use securetf_tee::ExecutionMode;
use securetf_tflite::models::{self, ModelSpec, PAPER_MODELS};

const RUNS: u32 = 3;

fn measure(spec: ModelSpec, mode: ExecutionMode, fs_shield: bool) -> u64 {
    let model = models::build(spec);
    let model_file_bytes = model.param_bytes() + 64;
    let mut deployment = Deployment::new(mode);
    deployment
        .publish_model("classify", "/models/m", &model)
        .expect("publish");
    drop(model);
    let mut classifier = deployment
        .deploy_classifier("classify", "/models/m", RuntimeProfile::scone_lite())
        .expect("deploy");
    let input = models::input_for(4);
    classifier.classify_batch(&input).expect("warmup");
    let clock = classifier.enclave().clock().clone();
    let t0 = clock.now_ns();
    for _ in 0..RUNS {
        // Per-run file reads: the model file and the input image.
        classifier.enclave().charge_syscall();
        if fs_shield {
            classifier
                .enclave()
                .charge_shield_crypto(model_file_bytes + input.byte_len());
        }
        classifier.classify_batch(&input).expect("classify");
    }
    (clock.now_ns() - t0) / RUNS as u64
}

fn main() {
    header(
        "Figure 6: file-system shield effect on classification latency",
        &["model            ", "mode", "shield off ", "shield on  ", "overhead"],
    );
    let paper = [("sim", "0.12%"), ("hw", "0.9%")];
    let mut report = BenchReport::new("fig6_fs_shield")
        .mode("sim/hw")
        .paper_target("shield overhead 0.12% in SIM, 0.9% in HW");
    for spec in PAPER_MODELS {
        for (mode, mode_name) in [
            (ExecutionMode::Simulation, "sim"),
            (ExecutionMode::Hardware, "hw "),
        ] {
            let off = measure(spec, mode, false);
            let on = measure(spec, mode, true);
            let overhead = (on as f64 - off as f64) / off as f64 * 100.0;
            println!(
                "{:<12} ({:>3} MB) | {} | {:>10} | {:>10} | {:+.2}%",
                spec.name,
                spec.bytes / (1024 * 1024),
                mode_name,
                fmt_ns(off),
                fmt_ns(on),
                overhead,
            );
            report = report.value(
                &format!("{}_{}", spec.name, mode_name.trim()),
                JsonValue::Object(vec![
                    ("shield_off_ns".to_string(), JsonValue::U64(off)),
                    ("shield_on_ns".to_string(), JsonValue::U64(on)),
                    ("overhead_pct".to_string(), JsonValue::F64(overhead)),
                ]),
            );
        }
    }
    println!(
        "\npaper: shield overhead {} in SIM mode, {} in HW mode (startup-dominated)",
        paper[0].1, paper[1].1
    );
    report.emit();
}
