//! Cryptographic primitives for the secureTF reproduction.
//!
//! The offline dependency set for this project contains no cryptography
//! crates, so every primitive required by the shielded-execution stack is
//! implemented here from scratch and validated against the RFC / FIPS test
//! vectors in each module's unit tests:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4)
//! * [`hmac`] — HMAC-SHA256 (RFC 2104, vectors from RFC 4231)
//! * [`hkdf`] — HKDF (RFC 5869)
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 7539): one round body
//!   at 4 / 8 / 16 interleaved blocks (SSE2 / AVX2 / AVX-512, run-time
//!   dispatched, [`chacha20::backend`]) beside the scalar block function
//! * [`poly1305`] — the Poly1305 one-time authenticator (RFC 7539): a
//!   copy-free donna-64 block loop and, for long runs on AVX2, a four-way
//!   body on 26-bit limbs ([`poly1305::backend`])
//! * [`aead`] — ChaCha20-Poly1305 AEAD (RFC 7539), with zero-allocation
//!   in-place detached seal/open on a reusable [`aead::AeadCtx`] (one
//!   ChaCha20 engine call per short record), one long record sealed or
//!   opened a chunk at a time ([`aead::Sealer`] / [`aead::Opener`]), and
//!   the original allocating API as thin wrappers over the in-place core
//! * [`x25519`] — Diffie-Hellman over Curve25519 (RFC 7748)
//! * [`drbg`] — a deterministic HMAC-DRBG (NIST SP 800-90A style)
//! * [`ct`] — constant-time comparison helpers
//!
//! # Examples
//!
//! Authenticated encryption round trip:
//!
//! ```
//! use securetf_crypto::aead::{self, Key, Nonce};
//!
//! # fn main() -> Result<(), securetf_crypto::CryptoError> {
//! let key = Key::from_bytes([7u8; 32]);
//! let nonce = Nonce::from_bytes([1u8; 12]);
//! let sealed = aead::seal(&key, &nonce, b"model weights", b"header");
//! let opened = aead::open(&key, &nonce, &sealed, b"header")?;
//! assert_eq!(opened, b"model weights");
//! # Ok(())
//! # }
//! ```

pub mod aead;
pub mod chacha20;
pub mod ct;
pub mod drbg;
pub mod hkdf;
pub mod hmac;
pub mod poly1305;
pub mod sha256;
pub mod x25519;

use std::error::Error;
use std::fmt;

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// An authentication tag failed to verify; the ciphertext (or its
    /// associated data) was tampered with or the wrong key was used.
    TagMismatch,
    /// The input was too short to contain the expected structure.
    TruncatedInput,
    /// A key-exchange produced the all-zero shared secret (low-order point).
    LowOrderPoint,
    /// Requested output length exceeds what the primitive can produce.
    OutputTooLong,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::TagMismatch => write!(f, "authentication tag mismatch"),
            CryptoError::TruncatedInput => write!(f, "input truncated"),
            CryptoError::LowOrderPoint => write!(f, "low-order point in key exchange"),
            CryptoError::OutputTooLong => write!(f, "requested output too long"),
        }
    }
}

impl Error for CryptoError {}

// The unit tests share the test tree's oracles with the integration tests
// and the benches, which name the crate by its path.
#[cfg(test)]
extern crate self as securetf_crypto;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
