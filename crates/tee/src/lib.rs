//! A software simulator of an Intel SGX-like trusted execution environment.
//!
//! The secureTF paper runs TensorFlow inside SGX enclaves; this reproduction
//! has no SGX hardware, so the TEE is simulated. The simulator has two
//! halves:
//!
//! 1. **Functional**: enclave measurement ([`measurement`]), local/remote
//!    attestation quotes ([`quote`]), sealing keyed to the measurement
//!    ([`sealing`]) and monotonic counters for rollback protection
//!    ([`counter`]). These implement the *security workflow* of SGX exactly
//!    as the paper's CAS and shields rely on it.
//! 2. **Performance**: a virtual-time cost model ([`clock`]) and an EPC
//!    (Enclave Page Cache) manager ([`epc`]) that accounts enclave memory
//!    pressure, page faults and evictions. All of the paper's performance
//!    results — SIM-vs-HW gaps, the Graphene comparison, the 4→8-core
//!    scalability collapse, the TF-vs-TFLite 71× gap — are driven by the
//!    EPC-size-induced paging this module models.
//!
//! Execution modes mirror the paper's: [`ExecutionMode::Native`] (no TEE),
//! [`ExecutionMode::Simulation`] (runtime present, no EPC limit) and
//! [`ExecutionMode::Hardware`] (EPC limit, paging, MEE and transition
//! costs).
//!
//! # Examples
//!
//! ```
//! use securetf_tee::{Platform, EnclaveImage, ExecutionMode};
//!
//! # fn main() -> Result<(), securetf_tee::TeeError> {
//! let platform = Platform::builder().build();
//! let image = EnclaveImage::builder()
//!     .code(b"my trusted application")
//!     .build();
//! let enclave = platform.create_enclave(&image, ExecutionMode::Hardware)?;
//! let quote = enclave.quote(b"report data")?;
//! assert!(platform.verify_quote(&quote).is_ok());
//! # Ok(())
//! # }
//! ```

pub mod clock;
pub mod counter;
pub mod enclave;
pub mod epc;
pub mod measurement;
pub mod platform;
pub mod quote;
pub mod retry;
pub mod sealing;

pub use clock::{CostModel, SimClock};
pub use enclave::Enclave;
pub use epc::{RegionId, PAGE_SIZE};
pub use measurement::{EnclaveImage, MrEnclave};
pub use platform::Platform;
pub use quote::Quote;
pub use retry::RetryPolicy;
// Re-exported so downstream crates can name telemetry types without a
// direct dependency on the telemetry crate.
pub use securetf_telemetry as telemetry;
pub use securetf_telemetry::{CostCategory, Telemetry};

use std::error::Error;
use std::fmt;

/// The execution modes evaluated in the paper (§5.1 "Methodology").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// No TEE at all; the baseline "native TensorFlow".
    Native,
    /// The paper's SIM mode: the shielded runtime is active but no SGX
    /// hardware — no EPC limit, no MEE, no enclave-transition cost.
    Simulation,
    /// The paper's HW mode: full SGX cost model.
    #[default]
    Hardware,
}

impl ExecutionMode {
    /// Whether this mode enforces the EPC size limit and paging costs.
    pub fn has_epc_limit(self) -> bool {
        matches!(self, ExecutionMode::Hardware)
    }

    /// Whether the shielded runtime (and its syscall interposition) runs.
    pub fn has_runtime(self) -> bool {
        !matches!(self, ExecutionMode::Native)
    }
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionMode::Native => write!(f, "native"),
            ExecutionMode::Simulation => write!(f, "sim"),
            ExecutionMode::Hardware => write!(f, "hw"),
        }
    }
}

/// Errors produced by the TEE simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TeeError {
    /// A quote failed verification.
    QuoteInvalid(&'static str),
    /// Sealed data failed to unseal (tampered, or sealed by a different
    /// enclave identity / platform).
    UnsealFailed,
    /// An EPC region id is unknown or already freed.
    BadRegion(RegionId),
    /// Enclave creation was rejected (e.g. image exceeds enclave size).
    CreationFailed(&'static str),
    /// A monotonic counter was rolled back or is unknown.
    CounterViolation,
}

impl fmt::Display for TeeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeeError::QuoteInvalid(why) => write!(f, "quote verification failed: {why}"),
            TeeError::UnsealFailed => write!(f, "failed to unseal data"),
            TeeError::BadRegion(id) => write!(f, "unknown EPC region {id:?}"),
            TeeError::CreationFailed(why) => write!(f, "enclave creation failed: {why}"),
            TeeError::CounterViolation => write!(f, "monotonic counter violation"),
        }
    }
}

impl Error for TeeError {}

#[cfg(test)]
pub(crate) mod tests {
    use securetf_telemetry::{MetricValue, Telemetry};

    fn metric(telemetry: &Telemetry, name: &str) -> MetricValue {
        telemetry
            .metrics()
            .into_iter()
            .find_map(|(n, value)| (n == name).then_some(value))
            .unwrap_or_else(|| panic!("no metric named {name:?}"))
    }

    /// The counter `name`; panics if the registry has no such metric, so
    /// a misspelled name cannot pass as a zero count.
    pub(crate) fn count(telemetry: &Telemetry, name: &str) -> u64 {
        match metric(telemetry, name) {
            MetricValue::Counter(n) => n,
            other => panic!("{name:?} is not a counter: {other:?}"),
        }
    }

    /// The gauge `name` as `(value, peak)`; panics like [`count`].
    pub(crate) fn gauge(telemetry: &Telemetry, name: &str) -> (i64, i64) {
        match metric(telemetry, name) {
            MetricValue::Gauge { value, peak } => (value, peak),
            other => panic!("{name:?} is not a gauge: {other:?}"),
        }
    }
}
