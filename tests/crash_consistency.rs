//! Crash-point enumeration for the fs shield's journaled writes and
//! deletes.
//!
//! The acceptance criterion for crash consistency is exhaustive, not
//! probabilistic: for *every* host-op prefix of a journaled operation —
//! crash after exactly `k` ops, for all `k` — remounting the shield via
//! [`FsShield::recover`] must yield exactly the pre-operation or the
//! post-operation committed state, never a hybrid. These tests first
//! measure the op count of a fault-free operation, then replay the same
//! operation once per possible crash point (clean and torn) and check the
//! invariant at each one. An operation commits either by appending one
//! record to the manifest's log or, when the log is due for compaction,
//! by sealing a new checkpoint; every sweep states which of the two it
//! covers and checks that it does.

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

/// The operation a sweep crashes.
#[derive(Clone, Copy)]
enum Op<'a> {
    Write(&'a [u8]),
    Delete,
}

impl Op<'_> {
    fn run(self, shield: &mut FsShield) -> Result<(), ShieldError> {
        match self {
            Op::Write(post) => shield.write(PATH, post),
            Op::Delete => shield.delete(PATH).map(drop),
        }
    }

    /// Host ops it takes, and how many of them land before the commit
    /// point: a write stages its `m` chunks, commits, installs the blob
    /// and reclaims the staging; a delete commits and deletes the blob.
    fn shape(self) -> (u64, u64) {
        match self {
            Op::Write(post) => {
                let chunks = post.len().div_ceil(CHUNK_SIZE).max(1) as u64;
                (2 * chunks + 2, chunks)
            }
            Op::Delete => (2, 0),
        }
    }

    fn post(self) -> Option<Vec<u8>> {
        match self {
            Op::Write(post) => Some(post.to_vec()),
            Op::Delete => None,
        }
    }
}

fn filler(i: usize) -> (String, Vec<u8>) {
    (format!("/secure/filler/{i:02}"), vec![i as u8; 100])
}

/// The store the swept operation runs on, built the same way on every
/// call: `fillers` other files, then `pre` at `PATH` (if any).
fn prepare(fillers: usize, pre: Option<&[u8]>) -> (Platform, UntrustedStore, FsShield) {
    let platform = Platform::builder().build();
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(enclave_on(&platform), store.clone());
    for i in 0..fillers {
        let (path, data) = filler(i);
        shield.write(&path, &data).expect("filler write");
    }
    if let Some(pre) = pre {
        shield.write(PATH, pre).expect("pre write");
    }
    (platform, store, shield)
}

/// The manifest's checkpoint slots as the host holds them.
fn checkpoint_slots(store: &UntrustedStore) -> Vec<(String, Vec<u8>)> {
    store
        .paths()
        .into_iter()
        .filter(|p| p.contains("/manifest-"))
        .map(|p| {
            let bytes = store.raw_contents(&p).expect("listed path");
            (p, bytes)
        })
        .collect()
}

/// Host ops consumed by one fault-free `op`, and whether it sealed a
/// checkpoint.
fn measure(fillers: usize, pre: Option<&[u8]>, op: Op) -> (u64, bool) {
    let (_platform, store, mut shield) = prepare(fillers, pre);
    let (before, slots) = (store.op_count(), checkpoint_slots(&store));
    op.run(&mut shield).expect("fault-free operation");
    (store.op_count() - before, checkpoint_slots(&store) != slots)
}

/// Crashes the host after exactly `k` ops of `op` (optionally leaving a
/// torn prefix of the dying op), restarts it, and returns what a freshly
/// recovered shield reads at `PATH` (`None`: it holds no such file). The
/// fillers must read back untouched.
fn state_after_crash(
    fillers: usize,
    pre: Option<&[u8]>,
    op: Op,
    k: u64,
    torn: Option<usize>,
) -> Option<Vec<u8>> {
    let (platform, store, mut shield) = prepare(fillers, pre);
    match torn {
        Some(bytes) => store.fail_after_ops_torn(k, bytes),
        None => store.fail_after_ops(k),
    }
    let died = op.run(&mut shield);
    assert!(
        matches!(died, Err(ShieldError::HostCrashed(_))),
        "crash after {k} ops must surface HostCrashed, got {died:?}"
    );
    store.host_restart();
    let (recovered, _report) =
        FsShield::recover(enclave_on(&platform), store).expect("recovery after crash point");
    for i in 0..fillers {
        let (path, data) = filler(i);
        assert_eq!(recovered.read(&path).expect("filler"), data, "{path}");
    }
    // Without metadata the file is gone, whatever blob the host still
    // holds (a delete that died after its commit leaves one behind).
    recovered.version(PATH)?;
    match recovered.read(PATH) {
        Ok(got) => Some(got),
        Err(e) => panic!("crash after {k} ops: unexpected error {e:?}"),
    }
}

/// The tentpole invariant, swept over every crash point of one
/// operation: `k` surviving ops leave the pre state while the commit has
/// not landed and the post state once it has, and never anything else.
/// `compacts` says whether the operation commits by sealing a checkpoint.
fn sweep(fillers: usize, pre: Option<&[u8]>, op: Op, torn: Option<usize>, compacts: bool) {
    let (total, compacted) = measure(fillers, pre, op);
    assert_eq!(compacted, compacts, "the sweep covers the other commit kind");
    let (shape, before_commit) = op.shape();
    assert_eq!(total, shape, "journal shape changed: update this sweep");
    let (pre_state, post_state) = (pre.map(<[u8]>::to_vec), op.post());
    for k in 0..total {
        let got = state_after_crash(fillers, pre, op, k, torn);
        if k > before_commit {
            assert!(
                got == post_state,
                "crash after {k}/{total} ops (commit durable) must recover post state"
            );
        } else {
            assert!(
                got == pre_state,
                "crash after {k}/{total} ops (commit not durable) must recover pre state"
            );
        }
    }
}

/// Fillers after which a one-chunk write or a delete of `PATH` appends
/// to the log: the checkpoint holds enough files to take its record.
const BETWEEN_COMPACTIONS: usize = 8;

#[test]
fn every_crash_point_of_a_single_chunk_write_is_consistent() {
    // One file: its checkpoint is smaller than any record, so every
    // write compacts.
    let pre = b"the old committed contents".to_vec();
    let post: Vec<u8> = (0..CHUNK_SIZE / 2).map(|i| (i % 251) as u8).collect();
    sweep(0, Some(&pre), Op::Write(&post), None, true);
}

#[test]
fn every_crash_point_of_a_multi_chunk_write_is_consistent() {
    let pre: Vec<u8> = (0..CHUNK_SIZE + 17).map(|i| (i % 13) as u8).collect();
    let post: Vec<u8> = (0..3 * CHUNK_SIZE + 5).map(|i| (i % 157) as u8).collect();
    sweep(0, Some(&pre), Op::Write(&post), None, true);
}

#[test]
fn every_torn_crash_point_is_consistent() {
    // The dying op lands a prefix of its payload instead of nothing —
    // the torn bytes must never be mistaken for a committed write, and a
    // torn checkpoint must never cost the one before it.
    let pre: Vec<u8> = (0..CHUNK_SIZE).map(|i| (i % 29) as u8).collect();
    let post: Vec<u8> = (0..2 * CHUNK_SIZE + 100).map(|i| (i % 101) as u8).collect();
    sweep(0, Some(&pre), Op::Write(&post), Some(1), true);
    sweep(0, Some(&pre), Op::Write(&post), Some(39), true);
}

#[test]
fn every_crash_point_of_a_write_between_compactions_is_consistent() {
    // The commit is one log record: a clean crash, a record torn after
    // its first byte and one torn inside its MAC.
    let pre = b"the old committed contents".to_vec();
    let post: Vec<u8> = (0..CHUNK_SIZE / 3).map(|i| (i % 97) as u8).collect();
    for torn in [None, Some(1), Some(130)] {
        sweep(BETWEEN_COMPACTIONS, Some(&pre), Op::Write(&post), torn, false);
    }
    let post: Vec<u8> = (0..2 * CHUNK_SIZE + 7).map(|i| (i % 89) as u8).collect();
    sweep(BETWEEN_COMPACTIONS, Some(&pre), Op::Write(&post), None, false);
}

#[test]
fn every_crash_point_of_a_delete_is_consistent() {
    let pre: Vec<u8> = (0..CHUNK_SIZE / 4).map(|i| (i % 83) as u8).collect();
    for torn in [None, Some(1), Some(60)] {
        // A tombstone record…
        sweep(BETWEEN_COMPACTIONS, Some(&pre), Op::Delete, torn, false);
        // …and, with the log one record short of the checkpoint's size,
        // a checkpoint without the file.
        sweep(2, Some(&pre), Op::Delete, torn, true);
    }
}

#[test]
fn every_crash_point_of_a_fresh_file_write_is_consistent() {
    // No pre state: every crash point must recover to "file absent" or
    // the complete post state, never a partial file — as the first write
    // of a fresh store (which seals its first checkpoint) and as a new
    // file in a store whose log takes the record.
    let post: Vec<u8> = (0..2 * CHUNK_SIZE).map(|i| (i % 83) as u8).collect();
    sweep(0, None, Op::Write(&post), None, true);
    sweep(BETWEEN_COMPACTIONS, None, Op::Write(&post), None, false);
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
    // Die right after the commit: recovery has roll-forward work.
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
