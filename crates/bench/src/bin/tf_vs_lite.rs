//! §5.3 #4: full TensorFlow vs TensorFlow Lite for inference in HW mode.
//!
//! Same model (Inception-v3, 91 MB), same input image, both inside SGX
//! hardware enclaves. The full framework's 87.4 MB binary plus the model
//! far exceed the EPC, so every inference thrashes; the Lite runtime's
//! 1.9 MB leaves room for the whole model. The paper measures 49.782 s
//! vs 0.697 s — a ~71× gap.

use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf_bench::report::BenchReport;
use securetf_bench::{fmt_ns, fmt_ratio, header};
use securetf_tee::ExecutionMode;
use securetf_tflite::models::{self, INCEPTION_V3};

fn measure(profile: RuntimeProfile) -> u64 {
    let model = models::build(INCEPTION_V3);
    let mut deployment = Deployment::new(ExecutionMode::Hardware);
    deployment
        .publish_model("classify", "/models/m", &model)
        .expect("publish");
    drop(model);
    let mut classifier = deployment
        .deploy_classifier("classify", "/models/m", profile)
        .expect("deploy");
    let input = models::input_for(4);
    classifier.classify_batch(&input).expect("warmup");
    classifier.mean_latency_ns(&input, 2).expect("runs")
}

fn main() {
    header(
        "§5.3 #4: TensorFlow vs TensorFlow Lite (Inception-v3, HW mode)",
        &["runtime         ", "binary size", "latency    "],
    );
    let lite = measure(RuntimeProfile::scone_lite());
    let full = measure(RuntimeProfile::scone_full_tf());
    println!(
        "securetf-lite    | {:>9.1} MB | {:>10}",
        securetf_tflite::LITE_RUNTIME_BYTES as f64 / 1e6,
        fmt_ns(lite)
    );
    println!(
        "securetf-full-tf | {:>9.1} MB | {:>10}",
        securetf_tflite::FULL_TF_RUNTIME_BYTES as f64 / 1e6,
        fmt_ns(full)
    );
    println!(
        "\nfull-TF / lite: {} (paper: 49.782 s / 0.697 s = ~71x)",
        fmt_ratio(full, lite)
    );

    BenchReport::new("tf_vs_lite")
        .mode("hw")
        .paper_target("49.782 s full-TF vs 0.697 s lite (~71x)")
        .latency_ns("lite_ns", lite)
        .latency_ns("full_tf_ns", full)
        .ratio("full_over_lite", full as f64 / lite.max(1) as f64)
        .emit();
}
