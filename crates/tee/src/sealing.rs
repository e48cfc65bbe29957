//! Data sealing bound to the enclave identity.
//!
//! SGX's `EGETKEY` derives a sealing key from a platform secret and the
//! enclave's measurement, so sealed data can only be unsealed by the same
//! enclave code on the same machine. Two things use it: the fs shield's
//! manifest, which every other piece of enclave state on the host
//! (files, the CAS database, checkpoints) is pinned by, and
//! `Enclave::seal_telemetry`. The nonce comes from a per-instance
//! in-memory counter, so a respawned instance of one identity repeats
//! its predecessor's nonces (DESIGN.md §18, "Nonces").

use crate::measurement::MrEnclave;
use crate::TeeError;
use securetf_crypto::aead::{self, Key, Nonce};
use securetf_crypto::hmac::hmac_sha256;

/// Policy selecting what the sealing key is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SealPolicy {
    /// Bound to the exact enclave measurement (SGX `MRENCLAVE` policy):
    /// only byte-identical enclave code can unseal.
    #[default]
    Measurement,
    /// Bound to the platform only (any enclave on the machine can unseal;
    /// SGX `MRSIGNER`-like, simplified).
    Platform,
}

/// Derives the sealing key for `(platform_secret, policy, mrenclave)`.
pub(crate) fn sealing_key(
    platform_secret: &[u8; 32],
    policy: SealPolicy,
    mrenclave: &MrEnclave,
) -> Key {
    let mut msg = b"sealing-key".to_vec();
    match policy {
        SealPolicy::Measurement => {
            msg.push(0);
            msg.extend_from_slice(mrenclave.as_bytes());
        }
        SealPolicy::Platform => msg.push(1),
    }
    Key::from_bytes(hmac_sha256(platform_secret, &msg))
}

/// Seals `plaintext` with a fresh nonce under the derived key; the output
/// embeds the nonce. Built in a single exactly-sized buffer: the payload
/// is copied in once and encrypted in place, then the detached tag lands
/// directly behind it.
pub(crate) fn seal(key: &Key, nonce_seed: u64, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
    let nonce = Nonce::from_counter(SEAL_STREAM_ID, nonce_seed);
    let mut out = Vec::with_capacity(aead::NONCE_LEN + plaintext.len() + aead::TAG_LEN);
    out.extend_from_slice(nonce.as_bytes());
    out.extend_from_slice(plaintext);
    let tag = aead::seal_in_place_detached(key, &nonce, &mut out[aead::NONCE_LEN..], aad);
    out.extend_from_slice(&tag);
    out
}

/// Nonce stream id reserved for sealed blobs.
const SEAL_STREAM_ID: u32 = 0x5EA1_ED00;

/// Unseals data produced by [`seal`]. The ciphertext is copied into the
/// output buffer once and verified-then-decrypted in place there.
pub(crate) fn unseal(key: &Key, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, TeeError> {
    if sealed.len() < aead::NONCE_LEN + aead::TAG_LEN {
        return Err(TeeError::UnsealFailed);
    }
    let (nonce_bytes, rest) = sealed.split_at(aead::NONCE_LEN);
    let nonce = Nonce::from_bytes(nonce_bytes.try_into().expect("length checked"));
    let (ciphertext, tag) = rest.split_at(rest.len() - aead::TAG_LEN);
    let mut out = ciphertext.to_vec();
    aead::open_in_place_detached(key, &nonce, &mut out, tag, aad)
        .map_err(|_| TeeError::UnsealFailed)?;
    Ok(out)
}
