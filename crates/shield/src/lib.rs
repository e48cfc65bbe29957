//! The secureTF controller: a SCONE-like shielded runtime.
//!
//! The paper's secureTF controller (§3.3.3) provides the runtime
//! environment that lets unmodified TensorFlow run inside an enclave:
//!
//! * [`fs`] — the **file-system shield**: transparent chunked authenticated
//!   encryption of every file; chunk metadata lives inside the enclave,
//!   so the untrusted host can neither read nor undetectably modify or
//!   roll back a file.
//! * [`net`] — the **network shield**: wraps sockets in a TLS-like secure
//!   channel (X25519 ECDHE handshake, ChaCha20-Poly1305 records, replay
//!   protection) so no plaintext ever leaves the enclave.
//! * [`iago`] — **Iago-attack sanitization**: the bounds check on
//!   offsets and lengths that cross into the enclave.
//!
//! The controller's third part, user-level threading with exit-less
//! system calls, has no module here. An exit-less call is
//! `Enclave::charge_syscall` (`securetf-tee`), the choice between it and
//! a full transition is `securetf::profile::ThreadingModel`, and
//! parallel compute runs on the kernel worker pool's crew, charged along
//! its critical path. The tests in `sched` hold those pieces to the
//! batch model Figure 7 relies on.
//!
//! # Examples
//!
//! ```
//! use securetf_shield::fs::{FsShield, UntrustedStore};
//! use securetf_tee::{Platform, EnclaveImage, ExecutionMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::builder().build();
//! let enclave = platform.create_enclave(
//!     &EnclaveImage::builder().code(b"app").build(),
//!     ExecutionMode::Hardware,
//! )?;
//! let store = UntrustedStore::new();
//! let mut shield = FsShield::new(enclave, store.clone());
//!
//! shield.write("/secure/model.bin", b"weights")?;
//! assert_eq!(shield.read("/secure/model.bin")?, b"weights");
//! // The host sees only ciphertext.
//! assert!(!store.raw_contents("/secure/model.bin").unwrap()
//!     .windows(7).any(|w| w == b"weights"));
//! # Ok(())
//! # }
//! ```

pub mod fs;
pub mod iago;
pub mod net;
#[cfg(test)]
mod sched;

use std::error::Error;
use std::fmt;

/// Errors produced by the shielded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShieldError {
    /// A protected file failed integrity verification (tampered on the
    /// untrusted host, or rolled back to a stale version).
    FileTampered(String),
    /// The requested file does not exist.
    FileNotFound(String),
    /// A secure-channel record failed authentication or replay checks.
    ChannelTampered(&'static str),
    /// The peer closed or the transport dropped the connection.
    ChannelClosed,
    /// Handshake failure (bad message, low-order point, wrong transcript).
    HandshakeFailed(&'static str),
    /// The untrusted OS returned a malformed result (an attempted Iago
    /// attack) and the value was rejected.
    IagoViolation(&'static str),
    /// The untrusted host process died mid-operation (crash injection):
    /// the storage interface refuses further I/O until the host restarts.
    HostCrashed(&'static str),
    /// Authentic host-stored state in a format this build does not read
    /// (an fs store written before the v3 checkpoint and log): the mount
    /// fails closed instead of skipping it or starting fresh.
    UnsupportedFormat(&'static str),
    /// An underlying TEE error.
    Tee(securetf_tee::TeeError),
}

impl fmt::Display for ShieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShieldError::FileTampered(path) => write!(f, "integrity violation on {path}"),
            ShieldError::FileNotFound(path) => write!(f, "file not found: {path}"),
            ShieldError::ChannelTampered(why) => write!(f, "secure channel violation: {why}"),
            ShieldError::ChannelClosed => write!(f, "secure channel closed"),
            ShieldError::HandshakeFailed(why) => write!(f, "handshake failed: {why}"),
            ShieldError::IagoViolation(why) => write!(f, "iago attack rejected: {why}"),
            ShieldError::HostCrashed(why) => write!(f, "host storage crashed: {why}"),
            ShieldError::UnsupportedFormat(what) => write!(f, "unsupported store format: {what}"),
            ShieldError::Tee(e) => write!(f, "tee error: {e}"),
        }
    }
}

impl Error for ShieldError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShieldError::Tee(e) => Some(e),
            _ => None,
        }
    }
}

impl From<securetf_tee::TeeError> for ShieldError {
    fn from(e: securetf_tee::TeeError) -> Self {
        ShieldError::Tee(e)
    }
}

/// A bounded read of host- or network-supplied bytes that failed is a
/// rejected Iago attempt.
impl From<securetf_tensor::bytes::BytesError> for ShieldError {
    fn from(e: securetf_tensor::bytes::BytesError) -> Self {
        ShieldError::IagoViolation(e.reason())
    }
}
