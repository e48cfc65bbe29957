//! The model file's one-pass deploy, branch by branch: every way the host
//! can spoil the file fails with its own `ModelIntegrity` reason and
//! builds no classifier, and the lanes run one after the other (the crew
//! busy) give the same model and the same errors as the lanes run side
//! by side.

use securetf::classifier::SecureClassifier;
use securetf::deployment::{service_image, Deployment, MODEL_DIGEST_SECRET, MODEL_KEY_SECRET};
use securetf::model_blob::{self, CHUNK_LEN};
use securetf::profile::RuntimeProfile;
use securetf::SecureTfError;
use securetf_cas::policy::ServicePolicy;
use securetf_crypto::aead::{self, Nonce, TAG_LEN};
use securetf_tee::ExecutionMode;
use securetf_tensor::kernels::WorkerPool;
use securetf_tflite::model::LiteModel;
use securetf_tflite::models::{self, ModelSpec};
use std::sync::atomic::{AtomicBool, Ordering};

const PATH: &str = "/models/m";

/// A model whose file spans several chunks and ends in a partial one.
fn model() -> LiteModel {
    models::build(ModelSpec {
        name: "blob",
        bytes: 1_200_000,
        flops: 0.0,
    })
}

/// What the host can do to a published model file.
#[derive(Debug, Clone, Copy)]
enum Spoil {
    Nothing,
    FlipFirstChunk,
    FlipLastChunk,
    FlipTag,
    ShorterThanATag,
    Delete,
    SwapPolicyDigest,
}

/// Publishes `model`, spoils it, deploys it: the deployed model's bytes,
/// or the error.
fn deploy(model: &LiteModel, spoil: Spoil) -> Result<Vec<u8>, String> {
    let mut deployment = Deployment::new(ExecutionMode::Hardware);
    deployment
        .publish_model("svc", PATH, model)
        .expect("publish");
    let store = deployment.store().clone();
    let len = store.raw_len(PATH).expect("published");
    let body = len - TAG_LEN;
    assert!(
        body > 2 * CHUNK_LEN && !body.is_multiple_of(CHUNK_LEN),
        "{body} bytes"
    );
    match spoil {
        Spoil::Nothing => {}
        Spoil::FlipFirstChunk => assert!(store.corrupt(PATH, 1000)),
        Spoil::FlipLastChunk => assert!(store.corrupt(PATH, body - 5)),
        Spoil::FlipTag => assert!(store.corrupt(PATH, len - 3)),
        Spoil::ShorterThanATag => assert!(store.truncate(PATH, TAG_LEN - 1)),
        Spoil::Delete => assert!(store.raw_delete(PATH)),
        Spoil::SwapPolicyDigest => {
            // The owner's key with another model's digest: the tag
            // verifies, the digest does not.
            let profile = RuntimeProfile::scone_lite();
            let policy = ServicePolicy::new("svc")
                .with_secret(
                    MODEL_KEY_SECRET,
                    model_blob::owner_key("svc", PATH).as_bytes(),
                )
                .with_secret(MODEL_DIGEST_SECRET, &[0xd1; 32])
                .allow_measurement(service_image(profile.runtime_bytes).measurement());
            deployment.cas_mut().upsert_policy(policy).expect("upsert");
        }
    }
    deployment
        .deploy_classifier("svc", PATH, RuntimeProfile::scone_lite())
        .map(|classifier: SecureClassifier| classifier.model().to_bytes())
        .map_err(|e| match e {
            SecureTfError::ModelIntegrity(why) => why.to_string(),
            other => panic!("{spoil:?}: not an integrity error: {other}"),
        })
}

const CASES: [(Spoil, Option<&str>); 7] = [
    (Spoil::Nothing, None),
    (
        Spoil::FlipFirstChunk,
        Some("decryption/authentication failed"),
    ),
    (
        Spoil::FlipLastChunk,
        Some("decryption/authentication failed"),
    ),
    (Spoil::FlipTag, Some("decryption/authentication failed")),
    (
        Spoil::ShorterThanATag,
        Some("model file shorter than a tag"),
    ),
    (Spoil::Delete, Some("model file missing")),
    (Spoil::SwapPolicyDigest, Some("digest mismatch")),
];

/// Runs `f` while the crew is leased by regions that wait for `f` to
/// return, so every pooled call inside `f` runs its regions one after the
/// other on its caller: a two-lane pass runs lane 1 after lane 0.
fn with_crew_busy<R>(f: impl FnOnce() -> R) -> R {
    let regions = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (leased, done) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            WorkerPool::new(regions).run_items(&mut vec![(); regions], &|region, _| {
                // Region 0 runs on this thread once the others are leased.
                if region == 0 {
                    leased.store(true, Ordering::Release);
                }
                while !done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        });
        while !leased.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Let go of the crew on a panic in `f` too.
        let _release = Release(&done);
        f()
    })
}

struct Release<'a>(&'a AtomicBool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn every_spoiled_model_file_fails_with_its_own_reason() {
    let model = model();
    for (spoil, reason) in CASES {
        let deployed = deploy(&model, spoil);
        match reason {
            None => assert!(deployed.is_ok(), "{spoil:?}: {deployed:?}"),
            Some(why) => assert_eq!(deployed.unwrap_err(), why, "{spoil:?}"),
        }
    }
}

#[test]
fn lanes_one_after_the_other_give_the_same_model_and_errors() {
    let model = model();
    for (spoil, _) in CASES {
        let side_by_side = deploy(&model, spoil);
        let one_after_the_other = with_crew_busy(|| deploy(&model, spoil));
        assert_eq!(side_by_side, one_after_the_other, "{spoil:?}");
    }
}

#[test]
fn the_host_holds_the_one_shot_record_of_the_serialized_model() {
    // The file format: the serialized model sealed as one record under
    // the owner's key, a fixed nonce and the path as associated data —
    // as the model was sealed before it was sealed a chunk at a time.
    let model = model();
    let mut deployment = Deployment::new(ExecutionMode::Hardware);
    deployment
        .publish_model("svc", PATH, &model)
        .expect("publish");
    let expected = aead::seal(
        &model_blob::owner_key("svc", PATH),
        &Nonce::from_counter(0x4d4f_4445, 1),
        &model.to_bytes(),
        PATH.as_bytes(),
    );
    assert_eq!(deployment.store().raw_contents(PATH), Some(expected));
}
