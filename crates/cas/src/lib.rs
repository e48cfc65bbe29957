//! The Configuration and Remote Attestation Service (CAS) of secureTF
//! (paper §3.3.2 and §4.3).
//!
//! CAS replaces per-container round trips to the Intel Attestation Service
//! with a *local* attestation and configuration service that itself runs
//! inside an enclave. It holds service policies (which enclave
//! measurements may receive which secrets) in an encrypted embedded
//! database, verifies quotes locally, and provisions keys, certificates
//! and configuration over secure channels. Rollback protection
//! (challenge ❺), the paper's auditing service, is the fs shield's
//! manifest pinned by a platform monotonic counter: the database and every
//! other file an enclave keeps on the host live under it.
//!
//! * [`kvstore`] — the encrypted, rollback-protected embedded database
//!   (the paper uses an encrypted SQLite; this is a KV map whose image is
//!   one fs-shield file of the CAS enclave).
//! * [`policy`] — service policies: allowed measurements, minimum TCB
//!   version, named secrets.
//! * [`service`] — the CAS itself: quote verification + secret
//!   provisioning, with a per-phase latency breakdown (Figure 4).
//! * [`ias`] — a latency-faithful simulator of the Intel Attestation
//!   Service, the baseline CAS is compared against.
//!
//! # Examples
//!
//! ```
//! use securetf_cas::policy::ServicePolicy;
//! use securetf_cas::service::CasService;
//! use securetf_tee::{Platform, EnclaveImage, ExecutionMode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::builder().build();
//! // The CAS runs in its own enclave.
//! let cas_enclave = platform.create_enclave(
//!     &EnclaveImage::builder().code(b"cas").name("cas").build(),
//!     ExecutionMode::Hardware,
//! )?;
//! let mut cas = CasService::new(cas_enclave, platform.fleet_verifier());
//!
//! // A worker enclave the user trusts.
//! let worker_image = EnclaveImage::builder().code(b"worker").build();
//! cas.register_policy(
//!     ServicePolicy::new("training")
//!         .allow_measurement(worker_image.measurement())
//!         .with_secret("model-key", b"super secret key material"),
//! )?;
//!
//! // The worker attests and receives the secret.
//! let worker = platform.create_enclave(&worker_image, ExecutionMode::Hardware)?;
//! let quote = worker.quote(b"channel binding")?;
//! let provision = cas.attest_and_provision(&quote, "training")?;
//! assert_eq!(provision.secret("model-key").unwrap(), b"super secret key material");
//! # Ok(())
//! # }
//! ```

pub mod ca;
pub mod ias;
pub mod kvstore;
pub mod policy;
pub mod service;

use std::error::Error;
use std::fmt;

/// Errors produced by the CAS.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CasError {
    /// The quote's signature did not verify.
    QuoteRejected(&'static str),
    /// The quoted measurement is not in the service policy.
    MeasurementNotAllowed,
    /// The platform's TCB version is below the policy minimum.
    TcbOutdated {
        /// SVN reported in the quote.
        got: u32,
        /// Minimum SVN the policy requires.
        required: u32,
    },
    /// No such service policy.
    UnknownService(String),
    /// A policy with this name already exists.
    DuplicateService(String),
    /// The database detected tampering or rollback.
    StoreCorrupted(&'static str),
    /// A requested key is absent.
    NotFound(String),
    /// The database's host storage failed (the host crashed). An update
    /// that returns this did not happen.
    Storage(securetf_shield::ShieldError),
    /// An underlying TEE failure.
    Tee(securetf_tee::TeeError),
    /// The CAS is transiently unreachable (crash, partition, restart).
    /// Unlike every other variant, this one is worth retrying.
    Unavailable {
        /// Virtual nanoseconds until the service expects to be back.
        retry_after_ns: u64,
    },
}

impl CasError {
    /// Whether the failure is transient (retry may succeed) as opposed
    /// to an integrity or policy violation (must fail closed).
    pub fn is_transient(&self) -> bool {
        matches!(self, CasError::Unavailable { .. })
    }
}

impl fmt::Display for CasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CasError::QuoteRejected(why) => write!(f, "quote rejected: {why}"),
            CasError::MeasurementNotAllowed => write!(f, "measurement not in policy"),
            CasError::TcbOutdated { got, required } => {
                write!(f, "tcb svn {got} below required {required}")
            }
            CasError::UnknownService(s) => write!(f, "unknown service: {s}"),
            CasError::DuplicateService(s) => write!(f, "service already registered: {s}"),
            CasError::StoreCorrupted(why) => write!(f, "secret store corrupted: {why}"),
            CasError::NotFound(k) => write!(f, "not found: {k}"),
            CasError::Storage(e) => write!(f, "secret store storage failed: {e}"),
            CasError::Tee(e) => write!(f, "tee error: {e}"),
            CasError::Unavailable { retry_after_ns } => {
                write!(f, "cas unavailable, retry after {retry_after_ns} ns")
            }
        }
    }
}

impl Error for CasError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CasError::Tee(e) => Some(e),
            CasError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<securetf_tee::TeeError> for CasError {
    fn from(e: securetf_tee::TeeError) -> Self {
        CasError::Tee(e)
    }
}

/// Whatever the shield refuses to mount or read — tampering, a rolled-back
/// file or disk, a foreign identity, an old format — is a corrupted store;
/// a host crash is a storage failure.
impl From<securetf_shield::ShieldError> for CasError {
    fn from(e: securetf_shield::ShieldError) -> Self {
        use securetf_shield::ShieldError;
        match e {
            ShieldError::HostCrashed(_) => CasError::Storage(e),
            ShieldError::Tee(e) => CasError::Tee(e),
            ShieldError::UnsupportedFormat(what) => CasError::StoreCorrupted(what),
            _ => CasError::StoreCorrupted("image failed the fs shield's integrity or freshness check"),
        }
    }
}
