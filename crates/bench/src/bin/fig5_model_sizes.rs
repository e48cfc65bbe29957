//! Figure 5: classification latency vs model size across systems.
//!
//! The paper classifies one image with Densenet (42 MB), Inception-v3
//! (91 MB) and Inception-v4 (163 MB) under: native TFLite with glibc,
//! native TFLite with musl, secureTF in SIM mode, secureTF in HW mode,
//! and the Graphene-SGX baseline. Headline shapes:
//!
//! * SIM ≈ native + ~5%;
//! * HW slower than SIM (paper: 1.39× / 1.14× / 1.12×);
//! * secureTF-HW vs Graphene: 1.03× at 42 MB growing to ~1.4× at 163 MB
//!   once the model exceeds the ~94 MiB EPC.

use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf_bench::report::{BenchReport, JsonValue};
use securetf_bench::{fmt_ns, fmt_ratio, header};
use securetf_tee::ExecutionMode;
use securetf_tflite::models::{self, ModelSpec, PAPER_MODELS};

const RUNS: u32 = 3;

fn measure(spec: ModelSpec, mode: ExecutionMode, profile: RuntimeProfile) -> u64 {
    let model = models::build(spec);
    let mut deployment = Deployment::new(mode);
    deployment
        .publish_model("classify", "/models/m", &model)
        .expect("publish");
    drop(model);
    let mut classifier = deployment
        .deploy_classifier("classify", "/models/m", profile)
        .expect("deploy");
    let input = models::input_for(4);
    // Warm-up run (the paper warms the machine before measuring).
    classifier.classify_batch(&input).expect("warmup");
    classifier
        .mean_latency_ns(&input, RUNS)
        .expect("measurement runs")
}

fn main() {
    header(
        "Figure 5: classification latency vs model size",
        &[
            "model            ",
            "native-glibc",
            "native-musl ",
            "securetf-sim",
            "securetf-hw ",
            "graphene-hw ",
        ],
    );
    let mut rows = Vec::new();
    for spec in PAPER_MODELS {
        let native_glibc = measure(spec, ExecutionMode::Native, RuntimeProfile::native_glibc());
        let native_musl = measure(spec, ExecutionMode::Native, RuntimeProfile::native_musl());
        let sim = measure(spec, ExecutionMode::Simulation, RuntimeProfile::scone_lite());
        let hw = measure(spec, ExecutionMode::Hardware, RuntimeProfile::scone_lite());
        let graphene = measure(spec, ExecutionMode::Hardware, RuntimeProfile::graphene());
        println!(
            "{:<12} ({:>3} MB) | {:>10} | {:>10} | {:>10} | {:>10} | {:>10}",
            spec.name,
            spec.bytes / (1024 * 1024),
            fmt_ns(native_glibc),
            fmt_ns(native_musl),
            fmt_ns(sim),
            fmt_ns(hw),
            fmt_ns(graphene),
        );
        rows.push((spec, native_glibc, sim, hw, graphene));
    }

    println!("\nratios (paper values in parentheses):");
    let paper_hw_sim = ["1.39", "1.14", "1.12"];
    let paper_graphene = ["1.03", "-", "1.40"];
    for (i, (spec, native, sim, hw, graphene)) in rows.iter().enumerate() {
        println!(
            "  {:<12}  sim/native {} (~1.05)   hw/sim {} ({})   graphene/securetf-hw {} ({})",
            spec.name,
            fmt_ratio(*sim, *native),
            fmt_ratio(*hw, *sim),
            paper_hw_sim[i],
            fmt_ratio(*graphene, *hw),
            paper_graphene[i],
        );
    }

    let mut report = BenchReport::new("fig5_model_sizes")
        .mode("native/sim/hw")
        .paper_target("hw/sim 1.39x/1.14x/1.12x; graphene/hw 1.03x..~1.40x");
    for (spec, native, sim, hw, graphene) in &rows {
        report = report.value(
            spec.name,
            JsonValue::Object(vec![
                ("model_bytes".to_string(), JsonValue::U64(spec.bytes)),
                ("native_glibc_ns".to_string(), JsonValue::U64(*native)),
                ("sim_ns".to_string(), JsonValue::U64(*sim)),
                ("hw_ns".to_string(), JsonValue::U64(*hw)),
                ("graphene_hw_ns".to_string(), JsonValue::U64(*graphene)),
            ]),
        );
    }
    report.emit();
}
