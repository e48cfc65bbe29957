//! Rollback-attack protection across the stack (paper §3.3.2 and §2.3):
//! the attacker restores older-but-validly-encrypted state and every
//! layer must detect it. Every layer keeps its state on the host through
//! the fs shield, so the shield's counter-pinned manifest is what detects
//! it — the paper's auditing service.

use securetf_cas::kvstore::KvStore;
use securetf_cas::CasError;
use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_shield::ShieldError;
use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
use std::sync::Arc;

fn enclave(code: &[u8]) -> Arc<securetf_tee::Enclave> {
    let platform = Platform::builder().build();
    platform
        .create_enclave(
            &EnclaveImage::builder().code(code).build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave")
}

#[test]
fn fs_shield_detects_file_rollback_within_session() {
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(enclave(b"fs rollback"), store.clone());
    shield.write("/ckpt", b"epoch 1 weights").expect("write");
    let old = store.raw_contents("/ckpt").expect("stored");
    shield.write("/ckpt", b"epoch 2 weights").expect("write");
    store.raw_put("/ckpt", old);
    assert!(matches!(
        shield.read("/ckpt"),
        Err(ShieldError::FileTampered(_))
    ));
}

#[test]
fn fs_shield_detects_manifest_replay_across_enclave_restart() {
    // The attacker snapshots the whole store (including the sealed
    // manifest — validly MAC'd, validly sealed) at generation g, lets
    // the enclave write more generations, then replays the snapshot and
    // waits for the enclave to restart. Within-session metadata is gone,
    // so only the platform's monotonic counter can expose the replay.
    let telemetry =
        securetf_tee::Telemetry::new(Arc::new(securetf_tee::SimClock::new()));
    let platform = Platform::builder().telemetry(telemetry.clone()).build();
    let make_enclave = || {
        platform
            .create_enclave(
                &EnclaveImage::builder().code(b"manifest replay").build(),
                ExecutionMode::Hardware,
            )
            .expect("enclave")
    };
    let store = UntrustedStore::new();
    {
        let mut shield = FsShield::new(make_enclave(), store.clone());
        shield.write("/ckpt", b"epoch 1 weights").expect("write");
    }
    let old_image = store.snapshot();
    {
        let mut shield = FsShield::new(make_enclave(), store.clone());
        shield.write("/ckpt", b"epoch 9 weights").expect("write");
    }
    // Replay the old-but-validly-sealed store image, then "restart".
    store.restore(&old_image);
    let rejections_before = telemetry.counter("shield.fs.tamper_rejections").get();
    let err = FsShield::recover(make_enclave(), store.clone());
    assert!(
        matches!(err, Err(ShieldError::FileTampered(_))),
        "replayed manifest must fail closed, got {err:?}"
    );
    assert_eq!(
        telemetry.counter("shield.fs.tamper_rejections").get(),
        rejections_before + 1,
        "the rollback must be counted as a tamper rejection"
    );
    // An honest, non-rolled-back store still recovers on this platform.
    let honest = UntrustedStore::new();
    {
        let mut shield = FsShield::new(make_enclave(), honest.clone());
        shield.write("/ckpt", b"fresh weights").expect("write");
    }
    let (recovered, _) = FsShield::recover(make_enclave(), honest).expect("honest recovery");
    assert_eq!(recovered.read("/ckpt").expect("read"), b"fresh weights");
}

#[test]
fn cas_database_rollback_detected() {
    let disk = UntrustedStore::new();
    let cas_enclave = enclave(b"cas with db");
    let path = "/cas/rollback-test-db";
    let mut db = KvStore::create(cas_enclave.clone(), disk.clone(), path).expect("create");
    db.put(b"policy/svc", b"v1 secrets").expect("put");
    let old_image = disk.raw_contents(path).expect("stored");
    db.put(b"policy/svc", b"v2 secrets").expect("put");
    drop(db);
    disk.raw_put(path, old_image);
    assert!(matches!(
        KvStore::open(cas_enclave, disk, path),
        Err(CasError::StoreCorrupted(_))
    ));
}

#[test]
fn a_replayed_checkpoint_fails_closed() {
    use rand::SeedableRng;
    use securetf::secure_session::SecureSession;
    use securetf::SecureTfError;
    use securetf_tensor::layers;
    use securetf_tensor::optimizer::Sgd;

    let store = UntrustedStore::new();
    let platform = Platform::builder().build();
    let image = EnclaveImage::builder().code(b"ckpt trainer").build();
    let spawn = || {
        platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .expect("enclave")
    };
    let e = spawn();
    let mut shield = FsShield::new(e.clone(), store.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let model = layers::mlp_classifier(16, &[8], 10, &mut rng).expect("model");
    let mut session = SecureSession::new(e, model);
    let data = securetf_data::synthetic_mnist(50, 2);
    let mut sgd = Sgd::new(0.05);

    // Checkpoint v1 (16-feature synthetic inputs, labels from the dataset).
    let (_, y) = data.batch(0, 50).expect("batch");
    let features: Vec<f32> = (0..50 * 16).map(|i| (i % 7) as f32 * 0.1).collect();
    let x = securetf_tensor::tensor::Tensor::from_vec(&[50, 16], features).expect("tensor");
    session.train_step(x.clone(), y.clone(), &mut sgd).expect("step");
    session.save_checkpoint(&mut shield, "/ckpt").expect("save v1");
    let v1_file = store.raw_contents("/ckpt").expect("stored");
    let v1_disk = store.snapshot();

    // Checkpoint v2.
    session.train_step(x, y, &mut sgd).expect("step");
    session.save_checkpoint(&mut shield, "/ckpt").expect("save v2");
    session.restore_checkpoint(&shield, "/ckpt").expect("v2 restores");

    // The host replays the v1 checkpoint file: validly encrypted, stale.
    let stale = |r: Result<(), SecureTfError>| {
        matches!(r, Err(SecureTfError::Shield(ShieldError::FileTampered(_))))
    };
    store.raw_put("/ckpt", v1_file);
    assert!(stale(session.restore_checkpoint(&shield, "/ckpt")));

    // The host replays the whole v1 disk, manifest included: the live
    // shield's metadata refuses it...
    store.restore(&v1_disk);
    assert!(stale(session.restore_checkpoint(&shield, "/ckpt")));
    // ...and so does a respawned enclave, which has only the platform
    // counter to go by: the mount itself fails closed.
    drop(shield);
    assert!(matches!(
        FsShield::recover(spawn(), store.clone()),
        Err(ShieldError::FileTampered(_))
    ));
}

// ---- the manifest's log: checkpoint + counter-pinned records --------------

/// A platform counting the fs shield's rejections, pinned to `id` so a
/// second platform with the same id is the same machine in another
/// history (same sealing secret, its own counters).
fn counted_platform(id: u64) -> Platform {
    let clock = securetf_tee::SimClock::new();
    Platform::builder()
        .id(id)
        .telemetry(clock.telemetry())
        .clock(clock)
        .build()
}

fn log_enclave(platform: &Platform) -> Arc<securetf_tee::Enclave> {
    platform
        .create_enclave(
            &EnclaveImage::builder().code(b"manifest log").build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave")
}

fn tamper_rejections(platform: &Platform) -> u64 {
    platform
        .telemetry()
        .counter("shield.fs.tamper_rejections")
        .get()
}

/// The shield's manifest objects (checkpoint slots and log records) as
/// the host holds them.
fn manifest_objects(store: &UntrustedStore) -> Vec<(String, Vec<u8>)> {
    store
        .paths()
        .into_iter()
        .filter(|p| p.contains("/manifest-") || p.contains("/log/"))
        .map(|p| {
            let bytes = store.raw_contents(&p).expect("listed path");
            (p, bytes)
        })
        .collect()
}

/// Writes `data` to `path` and returns the one manifest object the write
/// changed, asserting it is a log record (the write did not compact).
fn append(shield: &mut FsShield, store: &UntrustedStore, path: &str, data: &[u8]) -> String {
    let before = manifest_objects(store);
    shield.write(path, data).expect("write");
    let changed: Vec<String> = manifest_objects(store)
        .into_iter()
        .filter(|object| !before.contains(object))
        .map(|(p, _)| p)
        .collect();
    assert!(
        changed.len() == 1 && changed[0].contains("/log/"),
        "the write appended one record: {changed:?}"
    );
    changed[0].clone()
}

/// Rewrites `path` until a write seals a new checkpoint.
fn compact(shield: &mut FsShield, store: &UntrustedStore, path: &str) {
    let slots = |store: &UntrustedStore| {
        let mut objects = manifest_objects(store);
        objects.retain(|(p, _)| p.contains("/manifest-"));
        objects
    };
    for round in 0u32..1000 {
        let before = slots(store);
        shield.write(path, &round.to_le_bytes()).expect("write");
        if slots(store) != before {
            return;
        }
    }
    panic!("the log never reached its compaction");
}

/// A shield on `platform` that has just sealed a checkpoint of 16 files,
/// so the next few small writes append to its log.
fn populated(platform: &Platform) -> (FsShield, UntrustedStore) {
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(log_enclave(platform), store.clone());
    for i in 0..16u8 {
        shield
            .write(&format!("/data/{i:02}"), &[i; 64])
            .expect("write");
    }
    compact(&mut shield, &store, "/data/00");
    (shield, store)
}

fn recover_fails_closed(platform: &Platform, store: &UntrustedStore, what: &str) {
    let before = tamper_rejections(platform);
    let err = FsShield::recover(log_enclave(platform), store.clone());
    assert!(
        matches!(err, Err(ShieldError::FileTampered(_))),
        "{what}: must fail closed, got {err:?}"
    );
    assert_eq!(tamper_rejections(platform), before + 1, "{what}: counted");
}

#[test]
fn a_deleted_middle_log_record_fails_closed() {
    let platform = counted_platform(1);
    let (mut shield, store) = populated(&platform);
    let records: Vec<String> = (0..3u8)
        .map(|v| append(&mut shield, &store, "/ckpt", &[v; 32]))
        .collect();
    drop(shield);
    store.raw_delete(&records[1]);
    recover_fails_closed(&platform, &store, "middle record deleted");
}

#[test]
fn an_older_checkpoint_replayed_with_its_own_log_segment_fails_closed() {
    // The host keeps the manifest as it stood (a checkpoint and the log
    // after it), lets the shield write on through a compaction, then
    // puts the old checkpoint and its log segment back — every object
    // authentic, each record linked to the one before it.
    let platform = counted_platform(2);
    let (mut shield, store) = populated(&platform);
    append(&mut shield, &store, "/ckpt", b"epoch 1");
    append(&mut shield, &store, "/ckpt", b"epoch 2");
    let old = manifest_objects(&store);
    // On through the next compaction, and two records into its log.
    compact(&mut shield, &store, "/ckpt");
    append(&mut shield, &store, "/ckpt", b"after the compaction");
    append(&mut shield, &store, "/ckpt", b"and once more");
    drop(shield);
    for (path, _) in manifest_objects(&store) {
        store.raw_delete(&path);
    }
    for (path, bytes) in old {
        store.raw_put(&path, bytes);
    }
    recover_fails_closed(&platform, &store, "older checkpoint and log segment");
}

#[test]
fn a_record_spliced_in_from_a_second_history_fails_closed() {
    // Two histories of one identity on one machine (same id, so the same
    // keys; each with its own counters): identical up to a point, then
    // each writes other contents to `/ckpt`. The host splices the
    // second history's record into the first's log, where its
    // generation and its own link both fit; only its successor's link
    // gives it away.
    let first = counted_platform(3);
    let second = counted_platform(3);
    let (mut a, store_a) = populated(&first);
    let (mut b, store_b) = populated(&second);
    let at_a = append(&mut a, &store_a, "/ckpt", b"history A, step 1");
    let at_b = append(&mut b, &store_b, "/ckpt", b"history B, step 1");
    assert_eq!(at_a, at_b, "the same position in both logs");
    append(&mut a, &store_a, "/ckpt", b"history A, step 2");
    drop((a, b));
    let spliced = store_b.raw_contents(&at_b).expect("record");
    assert_ne!(store_a.raw_contents(&at_a), Some(spliced.clone()));
    store_a.raw_put(&at_a, spliced);
    recover_fails_closed(&first, &store_a, "spliced record");
}

#[test]
fn a_torn_newest_record_recovers_to_the_pre_write_state() {
    let platform = counted_platform(4);
    let (mut shield, store) = populated(&platform);
    append(&mut shield, &store, "/ckpt", b"committed");
    // A one-chunk rewrite: op 1 stages the chunk, op 2 is the record,
    // which lands torn after 60 of its ~140 bytes.
    store.fail_after_ops_torn(1, 60);
    assert!(shield.write("/ckpt", b"never committed").is_err());
    store.host_restart();
    drop(shield);
    let (mut recovered, _) =
        FsShield::recover(log_enclave(&platform), store.clone()).expect("a crash, not an attack");
    assert_eq!(recovered.read("/ckpt").expect("read"), b"committed");
    assert_eq!(tamper_rejections(&platform), 0);
    // The next write takes the torn record's place.
    recovered.write("/ckpt", b"next").expect("write");
    drop(recovered);
    let (again, _) = FsShield::recover(log_enclave(&platform), store).expect("remount");
    assert_eq!(again.read("/ckpt").expect("read"), b"next");
}
