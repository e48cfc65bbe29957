//! Dolev-Yao adversary tests (threat model §2.3): the attacker controls
//! storage and network; every manipulation must be detected — and none
//! may ever corrupt results silently.

use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_shield::net::{duplex, Adversary, Role, SecureChannel, Tamper, Transport};
use securetf_shield::ShieldError;
use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Spin-waiting transport for threaded handshakes.
struct Spin(securetf_shield::net::PipeEnd);

impl Transport for Spin {
    fn send(&self, m: Vec<u8>) {
        self.0.send(m);
    }

    fn recv(&self) -> Option<Vec<u8>> {
        for _ in 0..5_000_000 {
            if let Some(m) = self.0.recv() {
                return Some(m);
            }
            std::thread::yield_now();
        }
        None
    }
}

fn channel_pair(
    adversary: Option<Adversary>,
) -> (SecureChannel<Spin>, SecureChannel<Spin>) {
    let (a, b) = duplex(adversary);
    let eb = enclave(b"responder");
    let resp =
        std::thread::spawn(move || SecureChannel::handshake(Spin(b), eb, Role::Responder));
    let init = SecureChannel::handshake(Spin(a), enclave(b"initiator"), Role::Initiator)
        .expect("handshake");
    (init, resp.join().expect("join").expect("handshake"))
}

#[test]
fn every_record_bit_flip_is_detected() {
    // Flip a different byte of the first data record in each trial.
    for target_byte in [0usize, 1, 8, 15, 31] {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        let adversary: Adversary = Arc::new(move |_| {
            // Messages 0 and 1 are the handshake keys.
            if c.fetch_add(1, Ordering::SeqCst) == 2 {
                Tamper::FlipBit(target_byte)
            } else {
                Tamper::Pass
            }
        });
        let (mut alice, mut bob) = channel_pair(Some(adversary));
        alice.send(b"model gradients batch 0").unwrap();
        assert!(
            matches!(bob.recv(), Err(ShieldError::ChannelTampered(_))),
            "flip at byte {target_byte} undetected"
        );
    }
}

#[test]
fn handshake_mitm_changes_transcripts() {
    // An adversary replacing a handshake key ends up with two channels
    // that cannot talk to each other (and mismatched transcripts, which
    // the attestation binding would expose).
    let counter = Arc::new(AtomicUsize::new(0));
    let c = counter.clone();
    let adversary: Adversary = Arc::new(move |_| {
        if c.fetch_add(1, Ordering::SeqCst) == 0 {
            Tamper::FlipBit(3) // corrupt the initiator's public key
        } else {
            Tamper::Pass
        }
    });
    let (mut alice, mut bob) = channel_pair(Some(adversary));
    assert_ne!(
        alice.transcript_hash(),
        bob.transcript_hash(),
        "transcripts must diverge under key substitution"
    );
    alice.send(b"secret").unwrap();
    assert!(bob.recv().is_err(), "keys must not match after MITM");
}

#[test]
fn storage_adversary_cannot_fool_the_shield() {
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(enclave(b"storage victim"), store.clone());
    shield.write("/data/a", b"alpha contents").expect("write");
    shield.write("/data/b", b"beta contents").expect("write");

    // Attack 1: byte corruption.
    store.corrupt("/data/a", 25);
    assert!(shield.read("/data/a").is_err());

    // Attack 2: whole-file substitution with another valid file.
    let b_raw = store.raw_contents("/data/b").expect("stored");
    store.raw_put("/data/a", b_raw);
    assert!(shield.read("/data/a").is_err());

    // Attack 3: deletion.
    store.raw_delete("/data/a");
    assert!(matches!(
        shield.read("/data/a"),
        Err(ShieldError::FileNotFound(_))
    ));

    // The untouched file still reads fine.
    assert_eq!(shield.read("/data/b").expect("read"), b"beta contents");
}

#[test]
fn whole_store_rollback_rejected_within_session() {
    // The adversary snapshots the entire store — every blob validly
    // encrypted, the manifest validly sealed — and restores it after the
    // enclave has moved on. In-session, per-file version metadata makes
    // the stale ciphertext fail authentication.
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(enclave(b"rollback victim"), store.clone());
    shield.write("/data/a", b"epoch 1").expect("write");
    let old_image = store.snapshot();
    shield.write("/data/a", b"epoch 2").expect("write");
    shield.write("/data/new", b"born later").expect("write");

    store.restore(&old_image);
    assert!(
        matches!(shield.read("/data/a"), Err(ShieldError::FileTampered(_))),
        "stale-but-valid ciphertext must not authenticate"
    );
    // The rollback also erased a file the enclave knows exists: surfaced
    // as tampering (the metadata says it must be there), not a 404.
    assert!(shield.read("/data/new").is_err());
}

#[test]
fn truncation_attack_rejected_at_any_length() {
    // Chopping a protected file — to one chunk boundary, mid-chunk, or
    // to nothing — must always be detected, never read back short.
    use securetf_shield::fs::CHUNK_SIZE;
    let payload: Vec<u8> = (0..2 * CHUNK_SIZE + 333).map(|i| (i % 191) as u8).collect();
    let raw_len = {
        let store = UntrustedStore::new();
        let mut shield = FsShield::new(enclave(b"truncation victim"), store.clone());
        shield.write("/data/f", &payload).expect("write");
        store.raw_contents("/data/f").expect("stored").len()
    };
    for keep in [0, 1, 8, raw_len / 2, raw_len - 1] {
        let store = UntrustedStore::new();
        let mut shield = FsShield::new(enclave(b"truncation victim"), store.clone());
        shield.write("/data/f", &payload).expect("write");
        assert!(
            store.truncate("/data/f", keep),
            "truncate to {keep} must apply"
        );
        assert!(
            shield.read("/data/f").is_err(),
            "read after truncation to {keep} bytes must fail"
        );
        assert!(
            shield.read_range("/data/f", 0, 10).is_err(),
            "range read after truncation to {keep} bytes must fail"
        );
    }
}

#[test]
fn quote_forgery_rejected_everywhere() {
    use securetf_cas::policy::ServicePolicy;
    use securetf_cas::service::CasService;
    use securetf_cas::CasError;

    let platform = Platform::builder().build();
    let image = EnclaveImage::builder().code(b"honest worker").build();
    let worker = platform
        .create_enclave(&image, ExecutionMode::Hardware)
        .expect("worker");
    let cas_enclave = platform
        .create_enclave(
            &EnclaveImage::builder().code(b"cas").build(),
            ExecutionMode::Hardware,
        )
        .expect("cas");
    let mut cas = CasService::new(cas_enclave, platform.fleet_verifier());
    cas.register_policy(
        ServicePolicy::new("svc")
            .allow_measurement(image.measurement())
            .with_secret("k", b"v"),
    )
    .expect("policy");

    let good = worker.quote(b"x").expect("quote");

    // Forge 1: flipped signature bit.
    let mut forged = good.clone();
    forged.signature[7] ^= 1;
    assert!(matches!(
        cas.attest_and_provision(&forged, "svc"),
        Err(CasError::QuoteRejected(_))
    ));

    // Forge 2: measurement swap (claim to be the allowed enclave).
    let rogue_image = EnclaveImage::builder().code(b"rogue worker").build();
    let rogue = platform
        .create_enclave(&rogue_image, ExecutionMode::Hardware)
        .expect("rogue");
    let mut laundered = rogue.quote(b"x").expect("quote");
    laundered.mrenclave = image.measurement();
    assert!(matches!(
        cas.attest_and_provision(&laundered, "svc"),
        Err(CasError::QuoteRejected(_))
    ));

    // Forge 3: report-data swap on a genuine quote.
    let mut replayed = good.clone();
    replayed.report_data[0] ^= 1;
    assert!(matches!(
        cas.attest_and_provision(&replayed, "svc"),
        Err(CasError::QuoteRejected(_))
    ));

    // The genuine quote still works.
    assert!(cas.attest_and_provision(&good, "svc").is_ok());
}

#[test]
fn dropped_and_reordered_gradients_never_corrupt_silently() {
    // Drop the 3rd data record: the receiver must error, not deliver the
    // 4th record as if it were the 3rd.
    let counter = Arc::new(AtomicUsize::new(0));
    let c = counter.clone();
    let adversary: Adversary = Arc::new(move |_| {
        if c.fetch_add(1, Ordering::SeqCst) == 4 {
            Tamper::Drop
        } else {
            Tamper::Pass
        }
    });
    let (mut alice, mut bob) = channel_pair(Some(adversary));
    alice.send(b"grad 0").unwrap();
    alice.send(b"grad 1").unwrap();
    alice.send(b"grad 2").unwrap();
    assert_eq!(bob.recv().expect("r0"), b"grad 0");
    assert_eq!(bob.recv().expect("r1"), b"grad 1");
    // "grad 2" was dropped; nothing else may be accepted in its place.
    assert!(bob.recv().is_err());
}
