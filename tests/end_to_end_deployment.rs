//! End-to-end deployment flow across crates: train → freeze → publish →
//! attest → provision → classify, with failure paths.

use rand::SeedableRng;
use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf::secure_session::SecureSession;
use securetf::SecureTfError;
use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
use securetf_tensor::layers;
use securetf_tensor::optimizer::Sgd;
use securetf_tflite::model::LiteModel;

fn trained_lite_model() -> LiteModel {
    let platform = Platform::builder().build();
    let enclave = platform
        .create_enclave(
            &EnclaveImage::builder().code(b"e2e trainer").build(),
            ExecutionMode::Simulation,
        )
        .expect("enclave");
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let model = layers::mlp_classifier(784, &[32], 10, &mut rng).expect("model");
    let mut session = SecureSession::new(enclave, model);
    let data = securetf_data::synthetic_mnist(300, 8);
    let mut sgd = Sgd::new(0.05);
    for _ in 0..8 {
        for start in (0..300).step_by(100) {
            let (x, y) = data.batch(start, 100).expect("batch");
            session.train_step(x, y, &mut sgd).expect("step");
        }
    }
    session.export_lite().expect("export")
}

#[test]
fn full_pipeline_train_publish_attest_classify() {
    let lite = trained_lite_model();
    let mut deployment = Deployment::new(ExecutionMode::Hardware);
    deployment
        .publish_model("digits", "/m/digits", &lite)
        .expect("publish");
    let mut classifier = deployment
        .deploy_classifier("digits", "/m/digits", RuntimeProfile::scone_lite())
        .expect("deploy");

    let test = securetf_data::synthetic_mnist(50, 91);
    let mut correct = 0;
    for i in 0..test.len() {
        let (x, _) = test.batch(i, 1).expect("batch");
        let (label, latency) = classifier.classify(&x).expect("classify");
        assert!(latency > 0);
        if Some(label) == test.label(i) {
            correct += 1;
        }
    }
    assert!(correct >= 40, "only {correct}/50 correct through the service");
}

#[test]
fn all_profiles_serve_identical_predictions() {
    let lite = trained_lite_model();
    let test = securetf_data::synthetic_mnist(20, 13);
    let mut results = Vec::new();
    for profile in [
        RuntimeProfile::scone_lite(),
        RuntimeProfile::scone_full_tf(),
        RuntimeProfile::graphene(),
    ] {
        let mut deployment = Deployment::new(ExecutionMode::Hardware);
        deployment
            .publish_model("svc", "/m", &lite)
            .expect("publish");
        let mut classifier = deployment
            .deploy_classifier("svc", "/m", profile)
            .expect("deploy");
        let preds: Vec<usize> = (0..test.len())
            .map(|i| {
                let (x, _) = test.batch(i, 1).expect("batch");
                classifier.classify(&x).expect("classify").0
            })
            .collect();
        results.push(preds);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

#[test]
fn model_substitution_attack_detected() {
    // The attacker replaces the published model with a different
    // (validly formatted) model encrypted under a key they control.
    let lite = trained_lite_model();
    let mut deployment = Deployment::new(ExecutionMode::Hardware);
    deployment
        .publish_model("svc", "/m", &lite)
        .expect("publish");
    // Substitute random bytes of plausible length.
    let original = deployment.store().raw_contents("/m").expect("stored");
    let fake = vec![0xEEu8; original.len()];
    deployment.store().raw_put("/m", fake);
    assert!(matches!(
        deployment.deploy_classifier("svc", "/m", RuntimeProfile::scone_lite()),
        Err(SecureTfError::ModelIntegrity(_))
    ));
}

#[test]
fn unknown_service_cannot_deploy() {
    let lite = trained_lite_model();
    let mut deployment = Deployment::new(ExecutionMode::Hardware);
    deployment
        .publish_model("svc", "/m", &lite)
        .expect("publish");
    assert!(matches!(
        deployment.deploy_classifier("other", "/m", RuntimeProfile::scone_lite()),
        Err(SecureTfError::Cas(_))
    ));
}

#[test]
fn sim_and_hw_deployments_agree_with_native() {
    let lite = trained_lite_model();
    let (x, _) = securetf_data::synthetic_mnist(5, 3)
        .batch(0, 5)
        .expect("batch");
    let mut labels = Vec::new();
    for mode in [
        ExecutionMode::Native,
        ExecutionMode::Simulation,
        ExecutionMode::Hardware,
    ] {
        let mut deployment = Deployment::new(mode);
        deployment
            .publish_model("svc", "/m", &lite)
            .expect("publish");
        let mut classifier = deployment
            .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
            .expect("deploy");
        labels.push(classifier.classify_batch(&x).expect("classify").0);
    }
    assert_eq!(labels[0], labels[1]);
    assert_eq!(labels[1], labels[2]);
}
