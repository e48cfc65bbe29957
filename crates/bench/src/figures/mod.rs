//! The paper's evaluation (§5), the design ablations and the subsystem
//! sweeps, one function each, returning the figure's rows; [`Figure`]
//! prints its table and builds its report. `tests/paper_figures.rs`
//! holds them to the paper, their gates and `crates/bench/reports/`.

mod ablations;
mod paper;
mod sweeps;

pub use ablations::*;
pub use paper::*;
pub use sweeps::*;

use crate::report::{BenchReport, JsonValue};
use securetf::classifier::SecureClassifier;
use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf_tee::ExecutionMode;
use securetf_tensor::tensor::Tensor;
use securetf_tflite::model::LiteModel;

/// One measured figure.
pub trait Figure {
    /// Prints the figure's table(s) and the paper's values beside them.
    fn print(&self);
    /// The figure's machine-readable report, `BENCH_<name>.json`.
    fn report(&self) -> BenchReport;
}

/// Measures one figure.
pub type Measure = fn() -> Box<dyn Figure>;

/// Every figure by name (its report's), in the paper's order, then the
/// ablations and the sweeps.
pub const ALL: [(&str, Measure); 12] = [
    ("fig4_attestation", || Box::new(fig4_attestation())),
    ("fig5_model_sizes", || Box::new(fig5_model_sizes())),
    ("fig6_fs_shield", || Box::new(fig6_fs_shield())),
    ("fig7_scalability", || Box::new(fig7_scalability())),
    ("fig8_training", || Box::new(fig8_training())),
    ("tf_vs_lite", || Box::new(tf_vs_lite())),
    ("ablation_epc_size", || Box::new(ablation_epc_size())),
    ("ablation_threading", || Box::new(ablation_threading())),
    ("ablation_optimize", || Box::new(ablation_optimize())),
    ("recovery", || Box::new(recovery())),
    ("gateway", || Box::new(gateway())),
    ("distrib", || Box::new(distrib())),
];

/// `model` published, deployed through CAS and warmed up with one run,
/// and the input it classifies.
fn warm_classifier(
    model: LiteModel,
    mode: ExecutionMode,
    profile: RuntimeProfile,
) -> (SecureClassifier, Tensor) {
    let mut deployment = Deployment::new(mode);
    deployment
        .publish_model("classify", "/models/m", &model)
        .expect("publish");
    drop(model);
    let mut classifier = deployment
        .deploy_classifier("classify", "/models/m", profile)
        .expect("deploy");
    let input = securetf_tflite::models::input_for(4);
    classifier.classify_batch(&input).expect("warmup");
    (classifier, input)
}

/// A JSON object of `fields`, in order.
fn object<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}
