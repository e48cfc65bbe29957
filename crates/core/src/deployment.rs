//! End-to-end deployments: data owner ↔ CAS ↔ service enclaves.
//!
//! A [`Deployment`] bundles what the paper's Figure 1 shows: the user
//! (data owner) encrypts models and registers policies with CAS; service
//! enclaves on untrusted machines attest to CAS and receive the keys.

use crate::classifier::SecureClassifier;
use crate::model_blob;
use crate::profile::RuntimeProfile;
use crate::SecureTfError;
use securetf_cas::policy::ServicePolicy;
use securetf_cas::service::CasService;
use securetf_cas::CasError;
use securetf_shield::fs::UntrustedStore;
use securetf_tee::{EnclaveImage, ExecutionMode, Platform, SimClock, Telemetry};
use securetf_tflite::model::LiteModel;

/// Builds the measured identity of a classifier-service enclave with the
/// given runtime footprint. The footprint is part of the enclave layout
/// and therefore of the measurement, so each [`RuntimeProfile`] has its
/// own identity that policies must allow explicitly.
pub fn service_image(runtime_bytes: u64) -> EnclaveImage {
    EnclaveImage::builder()
        .code(b"securetf-classifier-service-v1")
        .name("classifier")
        .runtime_bytes(runtime_bytes)
        .build()
}

/// Label of the model-decryption key within a service's secrets.
pub const MODEL_KEY_SECRET: &str = "model-key";
/// Label of the model digest within a service's secrets.
pub const MODEL_DIGEST_SECRET: &str = "model-digest";

/// A deployment context: one CAS, one untrusted storage system, and the
/// machines services get deployed onto.
#[derive(Debug)]
pub struct Deployment {
    mode: ExecutionMode,
    cas: CasService,
    store: UntrustedStore,
    service_image: EnclaveImage,
    clock: Option<SimClock>,
    telemetry: Telemetry,
    /// Every `(service, path)` a model file was sealed under and stored
    /// for: each names a key, and the nonce is fixed.
    sealed: Vec<(String, String)>,
}

impl Deployment {
    /// Creates a deployment whose service enclaves run in `mode`.
    pub fn new(mode: ExecutionMode) -> Self {
        Self::build(mode, None, Telemetry::disabled())
    }

    /// Creates a deployment whose machines share `clock` and charge their
    /// costs to `telemetry` — the observability entry point: every enclave
    /// this deployment boots (CAS and classifiers) attributes transitions,
    /// paging, syscalls and crypto to the same registry.
    pub fn instrumented(mode: ExecutionMode, clock: SimClock, telemetry: Telemetry) -> Self {
        Self::build(mode, Some(clock), telemetry)
    }

    fn build(mode: ExecutionMode, clock: Option<SimClock>, telemetry: Telemetry) -> Self {
        let mut builder = Platform::builder().telemetry(telemetry.clone());
        if let Some(clock) = &clock {
            builder = builder.clock(clock.clone());
        }
        let cas_platform = builder.build();
        let cas_enclave = cas_platform
            .create_enclave(
                &EnclaveImage::builder()
                    .code(b"securetf-cas")
                    .name("cas")
                    .build(),
                if mode == ExecutionMode::Native {
                    ExecutionMode::Simulation
                } else {
                    mode
                },
            )
            .expect("CAS image fits any EPC");
        let cas = CasService::new(cas_enclave, cas_platform.fleet_verifier());
        let service_image = EnclaveImage::builder()
            .code(b"securetf-classifier-service-v1")
            .name("classifier")
            .build();
        Deployment {
            mode,
            cas,
            store: UntrustedStore::new(),
            service_image,
            clock,
            telemetry,
            sealed: Vec::new(),
        }
    }

    /// The telemetry handle this deployment's enclaves charge to.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The untrusted storage backing this deployment.
    pub fn store(&self) -> &UntrustedStore {
        &self.store
    }

    /// The execution mode of service enclaves.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Data-owner operation: encrypts `model` and stores it at `path` on
    /// the untrusted store, and registers a CAS policy named `service`
    /// carrying the model's decryption key and expected digest.
    ///
    /// The serialized model is hashed and sealed in place in one pass on
    /// two lanes ([`model_blob::seal`]), and the policy is registered
    /// after it: the store sees the ciphertext only once the policy is in
    /// force, and a refused policy drops the ciphertext.
    ///
    /// # Errors
    ///
    /// * [`SecureTfError::Cas`] if the service name is taken (checked
    ///   before anything is sealed) or the policy is refused.
    /// * [`SecureTfError::ModelAlreadySealed`] if this deployment sealed
    ///   a model for `service` at `path` before, even under a policy since
    ///   removed: the key derives from the pair and the nonce is fixed, so
    ///   a second seal would hand the host two plaintexts under one
    ///   keystream.
    ///
    /// On every error the store is left as it was, so a live service
    /// keeps its model.
    pub fn publish_model(
        &mut self,
        service: &str,
        path: &str,
        model: &LiteModel,
    ) -> Result<(), SecureTfError> {
        if self.cas.has_service(service) {
            return Err(CasError::DuplicateService(service.to_string()).into());
        }
        if self.sealed.iter().any(|(s, p)| s == service && p == path) {
            return Err(SecureTfError::ModelAlreadySealed {
                service: service.to_string(),
                path: path.to_string(),
            });
        }
        let key = model_blob::owner_key(service, path);
        let mut sealed = model.to_bytes();
        let digest = model_blob::seal(&key, path, &mut sealed);
        // Allow every runtime profile's enclave identity: the data owner
        // reviews and approves each runtime build it trusts.
        let mut policy = ServicePolicy::new(service)
            .with_secret(MODEL_KEY_SECRET, key.as_bytes())
            .with_secret(MODEL_DIGEST_SECRET, &digest);
        for profile in [
            RuntimeProfile::scone_lite(),
            RuntimeProfile::scone_full_tf(),
            RuntimeProfile::graphene(),
        ] {
            policy = policy.allow_measurement(service_image(profile.runtime_bytes).measurement());
        }
        self.cas.register_policy(policy)?;
        self.sealed.push((service.to_string(), path.to_string()));
        self.store.raw_put(path, sealed);
        Ok(())
    }

    /// Boots a classifier service on a fresh machine: creates the enclave,
    /// attests to CAS, fetches the model key, loads and verifies the
    /// encrypted model. The model file is copied from the host, opened
    /// and hashed in one pass on two lanes ([`model_blob::open`]), and
    /// parsed only once both its tag and its digest match.
    ///
    /// # Errors
    ///
    /// * [`SecureTfError::Cas`] on attestation/policy failure.
    /// * [`SecureTfError::ModelIntegrity`] if the stored model was
    ///   tampered with or substituted: `"model file missing"`, `"model
    ///   file shorter than a tag"`, `"model file changed while read"`,
    ///   `"decryption/authentication failed"` or `"digest mismatch"`.
    pub fn deploy_classifier(
        &mut self,
        service: &str,
        path: &str,
        profile: RuntimeProfile,
    ) -> Result<SecureClassifier, SecureTfError> {
        SecureClassifier::deploy(
            &mut self.cas,
            &self.store,
            self.mode,
            service,
            path,
            profile,
            self.clock.clone(),
            self.telemetry.clone(),
        )
    }

    /// The deployment's CAS (for policy management in tests/examples).
    pub fn cas_mut(&mut self) -> &mut CasService {
        &mut self.cas
    }

    /// The measured identity of classifier-service enclaves.
    pub fn service_image(&self) -> &EnclaveImage {
        &self.service_image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securetf_tensor::graph::Graph;
    use securetf_tensor::tensor::Tensor;
    use securetf_tensor::TensorError;
    use securetf_tflite::LiteError;

    fn tiny_model() -> LiteModel {
        model_with_weight(0.3)
    }

    fn model_with_weight(weight: f32) -> LiteModel {
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 4]);
        let w = g.constant("w", Tensor::full(&[4, 2], weight));
        let y = g.matmul(x, w).unwrap();
        let name = g.nodes()[y.index()].name.clone();
        LiteModel::convert(&g, "input", &name).unwrap()
    }

    #[test]
    fn publish_encrypts_at_rest() {
        let mut d = Deployment::new(ExecutionMode::Hardware);
        let model = tiny_model();
        d.publish_model("svc", "/models/m", &model).unwrap();
        let raw = d.store().raw_contents("/models/m").unwrap();
        let plain = model.to_bytes();
        // No plaintext window of the model appears in storage.
        assert!(!raw.windows(16).any(|w| plain.windows(16).next() == Some(w)));
        assert_ne!(raw, plain);
    }

    #[test]
    fn duplicate_service_rejected() {
        let mut d = Deployment::new(ExecutionMode::Hardware);
        d.publish_model("svc", "/m1", &tiny_model()).unwrap();
        assert!(matches!(
            d.publish_model("svc", "/m2", &tiny_model()),
            Err(SecureTfError::Cas(_))
        ));
    }

    #[test]
    fn a_refused_republish_leaves_the_live_model_alone() {
        let mut d = Deployment::new(ExecutionMode::Hardware);
        d.publish_model("svc", "/models/m", &tiny_model()).unwrap();
        let stored = d.store().raw_contents("/models/m").unwrap();
        // Another model under the taken name, to the same path.
        assert!(matches!(
            d.publish_model("svc", "/models/m", &model_with_weight(0.7)),
            Err(SecureTfError::Cas(_))
        ));
        assert_eq!(d.store().raw_contents("/models/m").unwrap(), stored);
        d.deploy_classifier("svc", "/models/m", RuntimeProfile::scone_lite())
            .unwrap();
    }

    #[test]
    fn deploy_and_classify_end_to_end() {
        let mut d = Deployment::new(ExecutionMode::Hardware);
        d.publish_model("svc", "/models/m", &tiny_model()).unwrap();
        let mut c = d
            .deploy_classifier("svc", "/models/m", RuntimeProfile::scone_lite())
            .unwrap();
        let (label, ns) = c.classify(&Tensor::full(&[1, 4], 1.0)).unwrap();
        assert!(label < 2);
        assert!(ns > 0);
    }

    #[test]
    fn a_model_that_cannot_be_planned_is_refused_at_deploy() {
        // `[rows, 4] × [8, 3]`: no batch size plans, so no request could
        // ever be classified.
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 4]);
        let w = g.constant("w", Tensor::full(&[8, 3], 0.1));
        let y = g.matmul(x, w).unwrap();
        let name = g.nodes()[y.index()].name.clone();
        let model = LiteModel::convert(&g, "input", &name).unwrap();
        let mut d = Deployment::new(ExecutionMode::Hardware);
        d.publish_model("svc", "/models/m", &model).unwrap();
        match d.deploy_classifier("svc", "/models/m", RuntimeProfile::scone_lite()) {
            Err(SecureTfError::Lite(LiteError::Exec(TensorError::ShapeMismatch {
                detail,
                ..
            }))) => assert!(detail.contains("inner dims 4 vs 8"), "{detail}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tampered_model_rejected_at_deploy() {
        let mut d = Deployment::new(ExecutionMode::Hardware);
        d.publish_model("svc", "/models/m", &tiny_model()).unwrap();
        d.store().corrupt("/models/m", 30);
        assert!(matches!(
            d.deploy_classifier("svc", "/models/m", RuntimeProfile::scone_lite()),
            Err(SecureTfError::ModelIntegrity(_))
        ));
    }

    #[test]
    fn missing_model_file_rejected() {
        let mut d = Deployment::new(ExecutionMode::Hardware);
        d.publish_model("svc", "/models/m", &tiny_model()).unwrap();
        d.store().raw_delete("/models/m");
        assert!(d
            .deploy_classifier("svc", "/models/m", RuntimeProfile::scone_lite())
            .is_err());
    }
}
