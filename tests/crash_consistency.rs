//! Crash-point enumeration for the fs shield's journaled writes.
//!
//! The acceptance criterion for crash consistency is exhaustive, not
//! probabilistic: for *every* host-op prefix of a journaled write —
//! crash after exactly `k` ops, for all `k` — remounting the shield via
//! [`FsShield::recover`] must yield exactly the pre-write or the
//! post-write committed state, never a hybrid. These tests first measure
//! the op count of a fault-free write, then replay the same write once
//! per possible crash point (clean and torn) and check the invariant at
//! each one.

use securetf_shield::fs::{FsShield, UntrustedStore, CHUNK_SIZE};
use securetf_shield::ShieldError;
use securetf_tee::{Enclave, EnclaveImage, ExecutionMode, Platform};
use std::sync::Arc;

const PATH: &str = "/secure/f";

fn enclave_on(platform: &Platform) -> Arc<Enclave> {
    platform
        .create_enclave(
            &EnclaveImage::builder().code(b"crash sweep").build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave boots")
}

/// Host ops consumed by one fault-free journaled overwrite of `PATH`
/// from `pre` to `post`.
fn ops_per_write(pre: &[u8], post: &[u8]) -> u64 {
    let platform = Platform::builder().build();
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(enclave_on(&platform), store.clone());
    shield.write(PATH, pre).expect("pre write");
    let before = store.op_count();
    shield.write(PATH, post).expect("post write");
    store.op_count() - before
}

/// Crashes the host after exactly `k` ops of the `pre`→`post` overwrite
/// (optionally leaving a torn prefix of the dying op), restarts it, and
/// returns the file contents a freshly recovered shield observes.
fn state_after_crash(pre: &[u8], post: &[u8], k: u64, torn: Option<usize>) -> Vec<u8> {
    let platform = Platform::builder().build();
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(enclave_on(&platform), store.clone());
    shield.write(PATH, pre).expect("pre write");
    match torn {
        Some(bytes) => store.fail_after_ops_torn(k, bytes),
        None => store.fail_after_ops(k),
    }
    let died = shield.write(PATH, post);
    assert!(
        matches!(died, Err(ShieldError::HostCrashed(_))),
        "crash after {k} ops must surface HostCrashed, got {died:?}"
    );
    store.host_restart();
    let (recovered, _report) =
        FsShield::recover(enclave_on(&platform), store).expect("recovery after crash point");
    recovered.read(PATH).expect("file readable after recovery")
}

/// The tentpole invariant, swept over every crash point of one write:
/// `k` surviving ops leave the pre state for `k <= chunks` (nothing
/// committed yet) and the post state for `k >= chunks + 1` (the commit
/// record landed), and never anything else.
fn sweep(pre: Vec<u8>, post: Vec<u8>, torn: Option<usize>) {
    let chunks = post.len().div_ceil(CHUNK_SIZE) as u64;
    let total = ops_per_write(&pre, &post);
    assert_eq!(
        total,
        2 * chunks + 4,
        "journal shape changed: update this sweep"
    );
    for k in 0..total {
        let got = state_after_crash(&pre, &post, k, torn);
        let expect_post = k > chunks;
        if expect_post {
            assert_eq!(
                got, post,
                "crash after {k}/{total} ops (commit durable) must recover post state"
            );
        } else {
            assert_eq!(
                got, pre,
                "crash after {k}/{total} ops (commit not durable) must recover pre state"
            );
        }
    }
}

#[test]
fn every_crash_point_of_a_single_chunk_write_is_consistent() {
    let pre = b"the old committed contents".to_vec();
    let post: Vec<u8> = (0..CHUNK_SIZE / 2).map(|i| (i % 251) as u8).collect();
    sweep(pre, post, None);
}

#[test]
fn every_crash_point_of_a_multi_chunk_write_is_consistent() {
    let pre: Vec<u8> = (0..CHUNK_SIZE + 17).map(|i| (i % 13) as u8).collect();
    let post: Vec<u8> = (0..3 * CHUNK_SIZE + 5).map(|i| (i % 157) as u8).collect();
    sweep(pre, post, None);
}

#[test]
fn every_torn_crash_point_is_consistent() {
    // The dying op lands a prefix of its payload instead of nothing —
    // the torn bytes must never be mistaken for a committed write.
    let pre: Vec<u8> = (0..CHUNK_SIZE).map(|i| (i % 29) as u8).collect();
    let post: Vec<u8> = (0..2 * CHUNK_SIZE + 100).map(|i| (i % 101) as u8).collect();
    sweep(pre.clone(), post.clone(), Some(1));
    sweep(pre, post, Some(39));
}

#[test]
fn every_crash_point_of_a_fresh_file_write_is_consistent() {
    // No pre state: every crash point must recover to "file absent" or
    // the complete post state, never a partial file.
    let post: Vec<u8> = (0..2 * CHUNK_SIZE).map(|i| (i % 83) as u8).collect();
    let chunks = post.len().div_ceil(CHUNK_SIZE) as u64;
    let total = {
        let platform = Platform::builder().build();
        let store = UntrustedStore::new();
        let mut shield = FsShield::new(enclave_on(&platform), store.clone());
        let before = store.op_count();
        shield.write(PATH, &post).expect("write");
        store.op_count() - before
    };
    for k in 0..total {
        let platform = Platform::builder().build();
        let store = UntrustedStore::new();
        let mut shield = FsShield::new(enclave_on(&platform), store.clone());
        store.fail_after_ops(k);
        assert!(shield.write(PATH, &post).is_err());
        store.host_restart();
        let (recovered, _report) =
            FsShield::recover(enclave_on(&platform), store).expect("recovery");
        match recovered.read(PATH) {
            Ok(got) => {
                assert!(k > chunks, "crash after {k} ops: nothing was committed");
                assert_eq!(got, post, "crash after {k} ops left a hybrid file");
            }
            Err(ShieldError::FileNotFound(_)) => {
                assert!(k <= chunks, "crash after {k} ops: the commit was durable");
            }
            Err(e) => panic!("crash after {k} ops: unexpected error {e:?}"),
        }
    }
}

#[test]
fn repeated_crashes_across_restarts_converge() {
    // A hostile host that crashes during recovery's own cleanup, over
    // and over, must still converge: each remount sees a consistent
    // state and eventually the txn residue is reclaimed.
    let platform = Platform::builder().build();
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(enclave_on(&platform), store.clone());
    let pre = b"generation zero".to_vec();
    let post: Vec<u8> = (0..2 * CHUNK_SIZE).map(|i| (i % 7) as u8).collect();
    shield.write(PATH, &pre).expect("pre write");
    // Die right after the commit record: recovery has roll-forward work.
    store.fail_after_ops(3);
    assert!(shield.write(PATH, &post).is_err());
    let mut contents = Vec::new();
    for crash_budget in 0..12 {
        store.host_restart();
        store.fail_after_ops(crash_budget);
        match FsShield::recover(enclave_on(&platform), store.clone()) {
            Ok((recovered, _)) => {
                contents = recovered.read(PATH).expect("readable");
                break;
            }
            Err(ShieldError::HostCrashed(_)) => continue,
            Err(e) => panic!("recovery failed for a non-crash reason: {e:?}"),
        }
    }
    assert_eq!(contents, post, "roll-forward survived repeated crashes");
    store.host_restart();
    let (recovered, report) =
        FsShield::recover(enclave_on(&platform), store.clone()).expect("final recovery");
    assert_eq!(recovered.read(PATH).expect("readable"), post);
    assert_eq!(report.rolled_forward, 0, "roll-forward already persisted");
    assert!(
        !store.paths().iter().any(|p| p.contains("/txn/")),
        "txn residue reclaimed"
    );
}
