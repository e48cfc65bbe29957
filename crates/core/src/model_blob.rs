//! The data owner's model file, sealed and opened in one pass.
//!
//! A model file is one ChaCha20-Poly1305 record over the serialized Lite
//! model (`ciphertext || tag`, the path as associated data) under the
//! owner's key for `(service, path)` and a fixed nonce; its SHA-256
//! travels in the service's CAS policy. Both directions cross the blob
//! once, in [`CHUNK_LEN`] pieces, on two lanes of a
//! [`WorkerPool::new(2)`](WorkerPool::new) call:
//!
//! * [`seal`]: lane 0 hashes chunk *i*, lane 1 seals chunk *i* in place
//!   once lane 0 has hashed it;
//! * [`open`]: lane 0 copies chunk *i* out of the host object under the
//!   store lock, then authenticates and decrypts it outside the lock;
//!   lane 1 hashes the plaintext behind it. The plaintext is handed back
//!   only if the tag verifies.
//!
//! Lane 0 is the producer and never waits for lane 1, which takes each
//! chunk as lane 0 lets go of it. When the crew is busy or absent the
//! pool runs lane 1 after lane 0 on the caller, with every chunk already
//! handed over; a blob of one chunk runs on the caller alone and never
//! starts the crew. The bytes, the digest and the errors are the same
//! whichever way the lanes ran.

use crate::SecureTfError;
use securetf_crypto::aead::{Key, Nonce, Opener, Sealer, TAG_LEN};
use securetf_crypto::sha256::{self, Sha256, DIGEST_LEN};
use securetf_shield::fs::UntrustedStore;
use securetf_tensor::kernels::WorkerPool;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The piece a model blob crosses in: large enough that handing a chunk
/// from one lane to the other costs nothing next to hashing it, small
/// enough that the lane behind starts within a fraction of a
/// millisecond.
pub const CHUNK_LEN: usize = 256 * 1024;

/// The model file's nonce. It is fixed, so each key seals one model:
/// the key is a function of `(service, path)`, and a `Deployment` seals
/// each pair once.
pub fn nonce() -> Nonce {
    Nonce::from_counter(0x4d4f_4445, 1)
}

/// The owner's key for the model file at `path` of `service`. It derives
/// from the service identity in this simulation; a real owner draws it
/// from an HSM or CSPRNG.
pub fn owner_key(service: &str, path: &str) -> Key {
    Key::from_bytes(sha256::digest(
        format!("owner-model-key:{service}:{path}").as_bytes(),
    ))
}

/// Seals the serialized model in `blob` in place for `path`, appends the
/// tag, and returns the plaintext's SHA-256.
pub fn seal(key: &Key, path: &str, blob: &mut Vec<u8>) -> [u8; DIGEST_LEN] {
    let mut digest = Sha256::new();
    let mut sealer = Sealer::new(key, &nonce(), path.as_bytes());
    two_lanes(
        blob.chunks_mut(CHUNK_LEN).collect(),
        |chunk| {
            digest.update(chunk);
            true
        },
        |chunk| sealer.seal_chunk(chunk),
    );
    blob.reserve_exact(TAG_LEN);
    blob.extend_from_slice(&sealer.finish());
    digest.finalize()
}

/// Reads the `len`-byte model file at `path` from the host, opens it and
/// hashes the plaintext: the plaintext and its SHA-256, if the tag
/// verifies.
///
/// # Errors
///
/// [`SecureTfError::ModelIntegrity`], and no plaintext, if the file is
/// shorter than a tag, changed length while it was read, or fails
/// authentication.
pub fn open(
    store: &UntrustedStore,
    key: &Key,
    path: &str,
    len: usize,
) -> Result<(Vec<u8>, [u8; DIGEST_LEN]), SecureTfError> {
    let body = len
        .checked_sub(TAG_LEN)
        .ok_or(SecureTfError::ModelIntegrity(
            "model file shorter than a tag",
        ))?;
    let changed = SecureTfError::ModelIntegrity("model file changed while read");
    let mut tag = [0u8; TAG_LEN];
    if !store.raw_read_at(path, body, &mut tag) {
        return Err(changed);
    }
    let mut plaintext = vec![0u8; body];
    let mut opener = Opener::new(key, &nonce(), path.as_bytes());
    let mut digest = Sha256::new();
    let mut at = 0;
    two_lanes(
        plaintext.chunks_mut(CHUNK_LEN).collect(),
        |chunk| {
            if !store.raw_read_at(path, at, chunk) {
                return false;
            }
            at += chunk.len();
            opener.open_chunk(chunk);
            true
        },
        |chunk| digest.update(chunk),
    );
    if at != body {
        return Err(changed);
    }
    let plaintext = opener
        .finish(&tag, plaintext)
        .map_err(|_| SecureTfError::ModelIntegrity("decryption/authentication failed"))?;
    Ok((plaintext, digest.finalize()))
}

/// One lane's work.
enum Lane<'a, L, F> {
    Lead(L, Vec<&'a mut [u8]>),
    Follow(F),
    Ran,
}

/// The chunks lane 0 has let go of and lane 1 has not taken yet, in
/// order, and whether lane 0 is done.
struct Ready<'a> {
    chunks: Vec<&'a mut [u8]>,
    done: bool,
}

/// Where lane 0 leaves chunks for lane 1. Neither lane does its work
/// under the lock, so no panic leaves it half written.
struct Handover<'a> {
    ready: Mutex<Ready<'a>>,
    signal: Condvar,
}

impl<'a> Handover<'a> {
    fn lock(&self) -> MutexGuard<'_, Ready<'a>> {
        self.ready.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lane 0 lets go of `chunk`, or, given none, is done.
    fn give(&self, chunk: Option<&'a mut [u8]>) {
        let mut ready = self.lock();
        match chunk {
            Some(chunk) => ready.chunks.push(chunk),
            None => ready.done = true,
        }
        drop(ready);
        self.signal.notify_one();
    }

    /// Lane 1 waits for what lane 0 let go of since the last take: none
    /// once lane 0 is done and every chunk is taken.
    fn take(&self) -> Vec<&'a mut [u8]> {
        let ready = self
            .signal
            .wait_while(self.lock(), |ready| ready.chunks.is_empty() && !ready.done);
        std::mem::take(&mut ready.unwrap_or_else(PoisonError::into_inner).chunks)
    }
}

/// Marks lane 0 done when it leaves its frame, on a refusal and on
/// unwinding too, so lane 1 always sees the end of the stream.
struct LeadDone<'h, 'a>(&'h Handover<'a>);

impl Drop for LeadDone<'_, '_> {
    fn drop(&mut self) {
        self.0.give(None);
    }
}

/// Runs `lead` over `chunks` in order on lane 0 and `follow` on lane 1
/// over each chunk `lead` has finished with (returned true for). Lane 0
/// stops at the first chunk `lead` refuses. One chunk or none runs on
/// the caller alone.
fn two_lanes(
    chunks: Vec<&mut [u8]>,
    mut lead: impl FnMut(&mut [u8]) -> bool + Send,
    mut follow: impl FnMut(&mut [u8]) + Send,
) {
    if chunks.len() <= 1 {
        for chunk in chunks {
            if lead(chunk) {
                follow(chunk);
            }
        }
        return;
    }
    let handover = Handover {
        ready: Mutex::new(Ready {
            chunks: Vec::with_capacity(chunks.len()),
            done: false,
        }),
        signal: Condvar::new(),
    };
    let mut lanes = [Lane::Lead(lead, chunks), Lane::Follow(follow)];
    WorkerPool::new(2).run_items(
        &mut lanes,
        &|_, lane| match std::mem::replace(lane, Lane::Ran) {
            Lane::Lead(mut lead, chunks) => {
                let _done = LeadDone(&handover);
                for chunk in chunks {
                    if !lead(chunk) {
                        break;
                    }
                    handover.give(Some(chunk));
                }
            }
            Lane::Follow(mut follow) => loop {
                let chunks = handover.take();
                if chunks.is_empty() {
                    break;
                }
                chunks.into_iter().for_each(&mut follow);
            },
            Lane::Ran => unreachable!("a lane runs once"),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use securetf_crypto::aead;

    fn blob(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8)
            .collect()
    }

    #[test]
    fn a_sealed_blob_is_the_one_shot_record_and_opens_to_its_plaintext() {
        let key = owner_key("svc", "/m");
        // None, one partial chunk, exactly one, and several with a
        // partial last one.
        for len in [0, 1000, CHUNK_LEN, 3 * CHUNK_LEN + 4099] {
            let plaintext = blob(len);
            let mut sealed = plaintext.clone();
            let digest = seal(&key, "/m", &mut sealed);
            assert_eq!(digest, sha256::digest(&plaintext), "len {len}");
            assert_eq!(
                sealed,
                aead::seal(&key, &nonce(), &plaintext, b"/m"),
                "len {len}"
            );
            let store = UntrustedStore::new();
            store.raw_put("/m", sealed);
            let (opened, digest) = open(&store, &key, "/m", len + TAG_LEN).unwrap();
            assert_eq!(opened, plaintext, "len {len}");
            assert_eq!(digest, sha256::digest(&plaintext), "len {len}");
        }
    }

    #[test]
    fn lane_one_takes_what_lane_zero_let_go_of_in_order() {
        let mut blob: Vec<u8> = (0..5 * CHUNK_LEN).map(|i| (i / CHUNK_LEN) as u8).collect();
        let mut seen = Vec::new();
        two_lanes(
            blob.chunks_mut(CHUNK_LEN).collect(),
            |chunk| chunk[0] < 3,
            |chunk| seen.push(chunk[0]),
        );
        assert_eq!(seen, [0, 1, 2]);
    }

    #[test]
    fn a_panic_on_lane_zero_ends_lane_one_and_reaches_the_caller() {
        let mut blob = vec![0u8; 3 * CHUNK_LEN];
        let mut led = 0;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            two_lanes(
                blob.chunks_mut(CHUNK_LEN).collect(),
                |_| {
                    led += 1;
                    assert!(led < 2, "lane 0 fails on its second chunk");
                    true
                },
                |_| {},
            )
        }));
        assert!(outcome.is_err());
    }

    #[test]
    fn a_file_that_changes_length_while_read_is_refused() {
        let key = owner_key("svc", "/m");
        let mut sealed = blob(2 * CHUNK_LEN);
        seal(&key, "/m", &mut sealed);
        let store = UntrustedStore::new();
        let len = sealed.len();
        store.raw_put("/m", sealed);
        // The host reports one length, then holds more or less.
        for claimed in [len - 1, len + 1, TAG_LEN - 1] {
            assert!(matches!(
                open(&store, &key, "/m", claimed),
                Err(SecureTfError::ModelIntegrity(_))
            ));
        }
    }
}
