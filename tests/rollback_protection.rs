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
