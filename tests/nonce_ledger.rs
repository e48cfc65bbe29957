//! Nonce uniqueness as a checked property (ROADMAP 2(b)), not a
//! regression test.
//!
//! A ChaCha20-Poly1305 key and nonce used twice give the host two
//! ciphertexts whose XOR is the XOR of their plaintexts. The ledger here
//! plays the host that remembers: after every shield call it records each
//! sealed chunk the store holds — those of staged journal objects and of
//! installed blobs, torn prefixes included — next to what the test knows
//! of the plaintext under it, and asserts that no two records with
//! different plaintexts satisfy `c1 ⊕ c2 = p1 ⊕ p2` on their common
//! prefix. It runs under the crash-point enumeration of
//! `crash_consistency.rs` followed by a remount and a retry with other
//! plaintext, under `Supervisor::remount` after seeded chaos, over two
//! shields sharing one file key, and over the other state that reaches
//! the host through the shield: `SecureSession` checkpoints across an
//! enclave respawn and the CAS policy store across a CAS restart. The
//! data owner's model file, sealed outside the shield under a key per
//! service and path and a fixed nonce, is held to the same property
//! across a republish.
//! Everything is test-side: the shield has no hook, feature or knob for
//! it.

use securetf::deployment::Deployment;
use securetf::secure_session::SecureSession;
use securetf::SecureTfError;
use securetf_cas::kvstore::KvStore;
use securetf_cas::policy::ServicePolicy;
use securetf_cas::service::CasService;
use securetf_crypto::aead::{self, Key, Nonce};
use securetf_distrib::cluster::{Cluster, ClusterConfig};
use securetf_distrib::faults::{FaultEvent, FaultPlan};
use securetf_distrib::supervisor::{Supervisor, SupervisorConfig};
use securetf_distrib::trainer::DistributedTrainer;
use securetf_shield::fs::{FsShield, UntrustedStore, CHUNK_SIZE};
use securetf_tee::{Enclave, EnclaveImage, ExecutionMode, Platform, Telemetry};
use securetf_tensor::layers::{self, Classifier};
use securetf_tensor::optimizer::Sgd;
use securetf_tensor::{freeze, graph::Graph, tensor::Tensor};
use securetf_tflite::model::LiteModel;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// A plaintext byte the test knows, or `None`.
type Known = Vec<Option<u8>>;

/// One record the host was handed.
struct Entry {
    /// The record's bytes over the known plaintext (as many as landed).
    cipher: Vec<u8>,
    plain: Known,
    /// Where the host held it, for the failure message.
    at: String,
}

/// Known plaintext bytes two records must share before a match counts:
/// a chance match of 16 bytes is 2⁻¹²⁸.
const MIN_KNOWN: usize = 16;

/// Whether `a` and `b` are two different plaintexts under one keystream:
/// on every position of the common prefix where both plaintexts are
/// known, `a ⊕ b` of the ciphertexts equals `a ⊕ b` of the plaintexts,
/// there are at least [`MIN_KNOWN`] such positions, and the records
/// differ (equal ones are one record seen twice, or a torn prefix of it).
fn same_keystream(a: &Entry, b: &Entry) -> bool {
    let n = a.cipher.len().min(b.cipher.len());
    let mut known = 0;
    for j in 0..n {
        if let (Some(pa), Some(pb)) = (a.plain[j], b.plain[j]) {
            if a.cipher[j] ^ b.cipher[j] != pa ^ pb {
                return false;
            }
            known += 1;
        }
    }
    known >= MIN_KNOWN && a.cipher[..n] != b.cipher[..n]
}

/// Every sealed chunk the store holds, as `(where, chunk index, bytes)`.
/// A blob and a staged journal object (`!fs/<mr8>/txn/<file>-<version>`)
/// are both the bare ciphertext, chunk `k` at `k · CHUNK_SIZE`, so a torn
/// one gives up its prefix; the manifest's objects hold no chunks.
fn host_records(store: &UntrustedStore) -> Vec<(String, usize, Vec<u8>)> {
    let mut out = Vec::new();
    for path in store.paths() {
        if path.starts_with("!fs/") && !path.contains("/txn/") {
            continue;
        }
        let bytes = store.raw_contents(&path).expect("listed path");
        for (k, chunk) in bytes.chunks(CHUNK_SIZE).enumerate() {
            out.push((format!("{path} chunk {k}"), k, chunk.to_vec()));
        }
    }
    out
}

/// What the test knows of the plaintext of a chunk it has not seen
/// before: chunk index -> every plaintext the record may hold (one right
/// candidate is enough to catch a repeat, and a wrong one matches by
/// chance with probability 2⁻¹²⁸), or none if the call that just returned
/// cannot have produced such a record.
type Source<'a> = &'a dyn Fn(usize) -> Vec<Known>;

/// Every record the host was ever handed.
#[derive(Default)]
struct Ledger {
    entries: Vec<Entry>,
    seen: HashSet<Vec<u8>>,
}

impl Ledger {
    /// Records what is new on the host after a call and checks every new
    /// record against every record before it.
    fn observe(&mut self, store: &UntrustedStore, source: Source) {
        for (at, chunk, record) in host_records(store) {
            if !self.seen.insert(record.clone()) {
                continue;
            }
            let candidates = source(chunk);
            assert!(
                !candidates.is_empty(),
                "{at}: a record this call cannot have written"
            );
            // One entry per candidate: entries of one record never match
            // each other, their ciphertexts being equal.
            for plain in candidates {
                self.record(&at, &record, plain);
            }
        }
    }

    /// Checks a record the host holds, `cipher` over the known plaintext
    /// `plain`, against every record before it, and keeps it.
    fn record(&mut self, at: &str, cipher: &[u8], plain: Known) {
        let cipher = cipher[..cipher.len().min(plain.len())].to_vec();
        let entry = Entry {
            plain: plain[..cipher.len()].to_vec(),
            cipher,
            at: at.to_string(),
        };
        for old in &self.entries {
            assert!(
                !same_keystream(old, &entry),
                "keystream reuse: {} and {} XOR to the XOR of their plaintexts",
                old.at,
                entry.at
            );
        }
        self.entries.push(entry);
    }

    /// After a call that wrote `data`: a new record is chunk `k` of it.
    fn after_write(&mut self, store: &UntrustedStore, data: &[u8]) {
        self.observe(store, &|k| {
            let chunk = data.chunks(CHUNK_SIZE).nth(k).unwrap_or_default();
            vec![chunk.iter().copied().map(Some).collect()]
        });
    }

    /// After a call that wrote nothing new (a read, a recovery: a rename
    /// installs chunks the host already held).
    fn after_other(&mut self, store: &UntrustedStore) {
        self.observe(store, &|_| Vec::new());
    }
}

// ---- crash, remount, retry -------------------------------------------------

const PATH: &str = "/secure/f";

fn enclave_on(platform: &Platform, code: &[u8]) -> Arc<Enclave> {
    platform
        .create_enclave(
            &EnclaveImage::builder().code(code).build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave boots")
}

fn ramp(len: usize, step: usize) -> Vec<u8> {
    (0..len).map(|i| (i * step % 251) as u8).collect()
}

/// One crash point: write `pre` (if any), crash `post` after `k` host ops
/// (torn or clean), remount, retry with other plaintext, remount again
/// and write once more — observing the host after every call.
fn crash_remount_retry(pre: Option<&[u8]>, post: &[u8], k: u64, torn: Option<usize>) {
    let platform = Platform::builder().build();
    let store = UntrustedStore::new();
    let mut ledger = Ledger::default();
    let mut shield = FsShield::new(enclave_on(&platform, b"ledger"), store.clone());
    if let Some(pre) = pre {
        shield.write(PATH, pre).expect("pre write");
        ledger.after_write(&store, pre);
    }
    match torn {
        Some(bytes) => store.fail_after_ops_torn(k, bytes),
        None => store.fail_after_ops(k),
    }
    assert!(shield.write(PATH, post).is_err(), "the host died at op {k}");
    ledger.after_write(&store, post);
    drop(shield);
    store.host_restart();

    let retry = ramp(post.len(), 7);
    let again = ramp(post.len() + 3, 11);
    for data in [&retry, &again] {
        let (mut shield, _) = FsShield::recover(enclave_on(&platform, b"ledger"), store.clone())
            .expect("recovery after a crash point");
        ledger.after_other(&store);
        shield.write(PATH, data).expect("retry after remount");
        ledger.after_write(&store, data);
        assert_eq!(&shield.read(PATH).expect("read back"), data);
        ledger.after_other(&store);
    }
}

/// Every host-op prefix of one write, clean and torn.
fn sweep(pre: Option<&[u8]>, post: &[u8]) {
    let ops = {
        let platform = Platform::builder().build();
        let store = UntrustedStore::new();
        let mut shield = FsShield::new(enclave_on(&platform, b"ledger"), store.clone());
        if let Some(pre) = pre {
            shield.write(PATH, pre).expect("pre write");
        }
        let before = store.op_count();
        shield.write(PATH, post).expect("post write");
        store.op_count() - before
    };
    for k in 0..ops {
        for torn in [None, Some(1), Some(39)] {
            crash_remount_retry(pre, post, k, torn);
        }
    }
}

#[test]
fn no_keystream_repeats_across_every_crash_point_remount_and_retry() {
    sweep(
        Some(b"the old committed contents"),
        &ramp(CHUNK_SIZE / 2, 3),
    );
    sweep(
        Some(&ramp(CHUNK_SIZE + 17, 13)),
        &ramp(2 * CHUNK_SIZE + 100, 5),
    );
    // A fresh file: the aborted write's file id was never published.
    sweep(None, &ramp(CHUNK_SIZE + 9, 17));
}

// ---- shields sharing one key ---------------------------------------------------

#[test]
fn no_keystream_repeats_between_shields_sharing_one_key() {
    // Two enclaves provisioned with one file key, as CAS does for shared
    // models (one identity twice, and two identities), each writing its
    // first file to one host.
    for codes in [[&b"w1"[..], b"w2"], [b"w1", b"w1"]] {
        let platform = Platform::builder().build();
        let store = UntrustedStore::new();
        let key = Key::from_bytes([0x77; 32]);
        let mut ledger = Ledger::default();
        let mut shields: Vec<FsShield> = codes
            .iter()
            .map(|code| FsShield::with_key(enclave_on(&platform, code), store.clone(), key.clone()))
            .collect();
        for (i, shield) in shields.iter_mut().enumerate() {
            let data = ramp(3 * CHUNK_SIZE / 2, 3 + 2 * i);
            shield
                .write(&format!("/secure/w{i}"), &data)
                .expect("write");
            ledger.after_write(&store, &data);
        }
    }
}

// ---- a session's checkpoints across an enclave respawn --------------------------

fn session_model() -> Classifier {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
    layers::mlp_classifier(16, &[8], 10, &mut rng).expect("valid model")
}

/// One training step at `lr`, then the checkpoint bytes `save_checkpoint`
/// writes.
fn train_once(session: &mut SecureSession, lr: f32) -> Vec<u8> {
    let data = securetf_data::synthetic_mnist(20, 2);
    let (_, y) = data.batch(0, 20).expect("batch");
    let features: Vec<f32> = (0..20 * 16).map(|i| (i % 7) as f32 * 0.1).collect();
    let x = Tensor::from_vec(&[20, 16], features).expect("tensor");
    session.train_step(x, y, &mut Sgd::new(lr)).expect("step");
    freeze::save_checkpoint(&session.model().graph, session.session())
}

#[test]
fn no_keystream_repeats_across_session_checkpoints_and_a_respawn() {
    // A session checkpoints, its next checkpoint dies with the host after
    // the object was staged, and the enclave is respawned (same image,
    // same platform): it restores the last checkpoint, trains and writes
    // the checkpoint again — under the version the dead write took.
    let platform = Platform::builder().build();
    let store = UntrustedStore::new();
    let mut ledger = Ledger::default();
    {
        let enclave = enclave_on(&platform, b"session");
        let (mut shield, _) = FsShield::recover(enclave.clone(), store.clone()).expect("mount");
        let mut session = SecureSession::new(enclave, session_model());
        let plain = train_once(&mut session, 0.05);
        session
            .save_checkpoint(&mut shield, PATH)
            .expect("checkpoint");
        ledger.after_write(&store, &plain);
        let plain = train_once(&mut session, 0.05);
        store.fail_after_ops(1);
        assert!(session.save_checkpoint(&mut shield, PATH).is_err());
        ledger.after_write(&store, &plain);
    }
    store.host_restart();
    let enclave = enclave_on(&platform, b"session");
    let (mut shield, _) = FsShield::recover(enclave.clone(), store.clone()).expect("remount");
    ledger.after_other(&store);
    let mut session = SecureSession::new(enclave, session_model());
    session.restore_checkpoint(&shield, PATH).expect("restore");
    // Another learning rate: the retry's weights differ from the dead
    // write's.
    for _ in 0..2 {
        let plain = train_once(&mut session, 0.1);
        session
            .save_checkpoint(&mut shield, PATH)
            .expect("checkpoint");
        ledger.after_write(&store, &plain);
    }
}

// ---- the CAS policy store across a CAS restart --------------------------------

/// The CAS store's image holding `policies` (`kvstore::encode`).
fn cas_image(policies: &[&ServicePolicy]) -> Vec<u8> {
    let entries: BTreeMap<Vec<u8>, Vec<u8>> = policies
        .iter()
        .map(|p| ([b"policy/", p.name().as_bytes()].concat(), p.encode()))
        .collect();
    let mut out = (entries.len() as u64).to_le_bytes().to_vec();
    for (k, v) in &entries {
        for field in [k, v] {
            out.extend_from_slice(&(field.len() as u32).to_le_bytes());
            out.extend_from_slice(field);
        }
    }
    out
}

#[test]
fn no_keystream_repeats_in_the_cas_store_across_a_cas_restart() {
    // The data owner rotates a service key; the host dies after the new
    // image was staged, the CAS restarts and the owner retries with
    // another key — the retry takes the version the dead write took.
    let platform = Platform::builder().build();
    let store = UntrustedStore::new();
    let mut ledger = Ledger::default();
    let boot = |fresh: bool| {
        let enclave = enclave_on(&platform, b"cas");
        let db = if fresh {
            KvStore::create(enclave.clone(), store.clone(), "/cas/db")
        } else {
            KvStore::open(enclave.clone(), store.clone(), "/cas/db")
        };
        CasService::with_store(enclave, platform.fleet_verifier(), db.expect("store")).expect("cas")
    };
    let train = |key: u8| ServicePolicy::new("train").with_secret("fs-key", &[key; 32]);
    {
        let mut cas = boot(true);
        ledger.after_write(&store, &cas_image(&[]));
        cas.register_policy(train(0x11)).expect("register");
        ledger.after_write(&store, &cas_image(&[&train(0x11)]));
        store.fail_after_ops(1);
        assert!(cas.upsert_policy(train(0x22)).is_err());
        ledger.after_write(&store, &cas_image(&[&train(0x22)]));
    }
    store.host_restart();
    let mut cas = boot(false);
    ledger.after_other(&store);
    cas.upsert_policy(train(0x33)).expect("retry");
    ledger.after_write(&store, &cas_image(&[&train(0x33)]));
    let serve = ServicePolicy::new("serve").with_secret("tls-key", &[0x44; 32]);
    cas.register_policy(serve.clone()).expect("register");
    ledger.after_write(&store, &cas_image(&[&serve, &train(0x33)]));
}

// ---- the data owner's model file across a republish ---------------------------

fn lite_model(weight: f32) -> LiteModel {
    let mut g = Graph::new();
    let x = g.placeholder("input", &[0, 64]);
    let w = g.constant("w", Tensor::full(&[64, 32], weight));
    let y = g.matmul(x, w).expect("matmul");
    let name = g.nodes()[y.index()].name.clone();
    LiteModel::from_graph(g, "input", &name).expect("lite")
}

#[test]
fn no_keystream_repeats_when_a_model_is_republished_at_its_path() {
    // The owner takes a service down and publishes another model under
    // the same service name at the same path. The key derives from the
    // pair and the nonce is fixed, so a second seal would be the first
    // one's keystream over other weights: the deployment refuses it and
    // leaves the host's file alone.
    let mut deployment = Deployment::new(ExecutionMode::Hardware);
    let store = deployment.store().clone();
    let mut ledger = Ledger::default();
    let (first, second) = (lite_model(0.25), lite_model(-0.5));
    deployment
        .publish_model("svc", "/models/m", &first)
        .expect("publish");
    ledger.after_write(&store, &first.to_bytes());
    let live = store.raw_contents("/models/m");
    assert!(deployment.cas_mut().remove_policy("svc").expect("remove"));
    let republished = deployment.publish_model("svc", "/models/m", &second);
    ledger.after_write(&store, &second.to_bytes());
    assert!(
        matches!(
            &republished,
            Err(SecureTfError::ModelAlreadySealed { service, path })
                if service == "svc" && path == "/models/m"
        ),
        "{republished:?}"
    );
    assert_eq!(store.raw_contents("/models/m"), live);
    // Another path is another key.
    deployment
        .publish_model("svc", "/models/m2", &second)
        .expect("publish elsewhere");
    ledger.after_write(&store, &second.to_bytes());
}

// ---- supervised training across remounts ---------------------------------------

const WORKERS: usize = 3;

fn trainer() -> DistributedTrainer {
    let cluster = Cluster::new(ClusterConfig {
        workers: WORKERS,
        parameter_servers: 1,
        mode: ExecutionMode::Simulation,
        network_shield: true,
        runtime_bytes: 8 * 1024 * 1024,
        heap_bytes: 16 * 1024 * 1024,
        telemetry: Telemetry::disabled(),
        ..ClusterConfig::default()
    })
    .expect("cluster boots");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let model = layers::mlp_classifier(784, &[32], 10, &mut rng).expect("valid model");
    let data = securetf_data::synthetic_mnist(300, 5);
    DistributedTrainer::new(cluster, model, data, 100, 0.2).expect("trainer")
}

/// Observes the host after a supervisor call. A checkpoint record holds
/// part of the supervisor's payload `u64 generation | checkpoint`: the
/// generation is below 2¹⁶, and the checkpoint is what `checkpoint_bytes`
/// returns now — the supervisor checkpoints at the end of a step, and a
/// checkpoint is a function of the weights alone.
fn observe_checkpoints(supervisor: &Supervisor, ledger: &mut Ledger) {
    let checkpoint = supervisor
        .trainer()
        .checkpoint_bytes("")
        .expect("checkpoint");
    let mut payload: Known = vec![None, None];
    payload.extend([Some(0); 6]);
    payload.extend(checkpoint.into_iter().map(Some));
    ledger.observe(supervisor.store(), &|chunk| {
        payload
            .get(chunk * CHUNK_SIZE..)
            .map(<[_]>::to_vec)
            .into_iter()
            .collect()
    });
}

/// The seeded plan without its `ChunkCorruption` events: a bit the host
/// flips in a stored record makes a record no shield sealed, which the
/// ledger — seeing only the disk — would take for a second record under
/// the original's keystream.
fn plan_without_corruption(seed: u64, steps: u64) -> FaultPlan {
    let generated = FaultPlan::generate(seed, steps, WORKERS);
    let mut plan = FaultPlan::none();
    for step in 0..steps {
        for event in generated.events_at(step) {
            if !matches!(event, FaultEvent::ChunkCorruption { .. }) {
                plan = plan.with_event(step, *event);
            }
        }
    }
    plan
}

fn supervised(supervisor: &mut Supervisor, steps: u64, ledger: &mut Ledger) {
    for _ in 0..steps {
        supervisor.train_steps(1).expect("survivable plan");
        observe_checkpoints(supervisor, ledger);
    }
}

#[test]
fn no_keystream_repeats_across_supervisor_remounts() {
    let config = SupervisorConfig {
        checkpoint_every: 2,
        ..Default::default()
    };
    for seed in [1u64, 7, 42] {
        for wipe in [false, true] {
            let store = UntrustedStore::new();
            let mut ledger = Ledger::default();
            let plan = plan_without_corruption(seed, 6);
            let mut supervisor = Supervisor::new(trainer(), plan, config.clone(), store.clone())
                .expect("supervisor boots");
            observe_checkpoints(&supervisor, &mut ledger);
            supervised(&mut supervisor, 6, &mut ledger);
            // The supervisor process dies with the storage host; the
            // machines survive. With `wipe`, the host also destroys
            // everything it stored — after the ledger copied it.
            store.fail_after_ops(0);
            if wipe {
                for path in store.paths() {
                    store.raw_delete(&path);
                }
            }
            let trainer = supervisor.into_trainer();
            let mut supervisor =
                Supervisor::remount(trainer, FaultPlan::none(), config.clone(), store.clone())
                    .expect("remount");
            observe_checkpoints(&supervisor, &mut ledger);
            supervised(&mut supervisor, 4, &mut ledger);
        }
    }
}

#[test]
fn the_ledger_sees_a_forced_keystream_repeat() {
    // The oracle itself: two records under one key and nonce are caught,
    // and a record seen twice or torn is not.
    let key = Key::from_bytes([0x42; 32]);
    let nonce = Nonce::from_counter(1, 1);
    let entry = |p: &[u8], at: &str, len: usize| {
        let mut cipher = aead::seal(&key, &nonce, p, b"");
        cipher.truncate(len);
        Entry {
            plain: p[..len].iter().copied().map(Some).collect(),
            cipher,
            at: at.into(),
        }
    };
    let (p1, p2) = (ramp(64, 3), ramp(64, 5));
    assert!(same_keystream(&entry(&p1, "a", 64), &entry(&p2, "b", 64)));
    assert!(!same_keystream(
        &entry(&p1, "a", 64),
        &entry(&p1, "a again", 64)
    ));
    assert!(!same_keystream(
        &entry(&p1, "a", 64),
        &entry(&p1, "a torn", 39)
    ));
    assert!(!same_keystream(
        &entry(&p1, "a", 64),
        &entry(&p2, "b torn short", 15)
    ));
}
