//! Distributed secure training (paper §3.3, Figure 2, and §5.4).
//!
//! secureTF preserves TensorFlow's distributed architecture — parameter
//! servers plus workers — but runs every process inside an enclave,
//! bootstraps trust through CAS, and wraps all links in the network
//! shield. This crate simulates that cluster:
//!
//! * [`wire`] — the byte format for weights and gradients on the wire:
//!   exact dense frames plus a deterministic int8-quantized codec.
//! * [`comm`] — the communication plane: PS shard ownership, the
//!   layer-wise overlapped chunk scheduler, and codec configuration.
//! * [`cluster`] — simulated nodes: a platform + enclave per machine,
//!   CAS attestation on join, per-node virtual clocks.
//! * [`trainer`] — synchronous data-parallel SGD over the cluster with a
//!   faithful latency model (parallel compute, per-shard NIC queues,
//!   shield costs, gradient pushes overlapped with backward compute),
//!   elastic worker addition (challenge ❹) and worker-failure handling.
//! * [`federated`] — federated averaging for the paper's medical use-case
//!   (§6.2).
//! * [`faults`] — deterministic, seed-derived fault-injection plans
//!   (crashes, stalls, network tampering, storage corruption, CAS
//!   outages).
//! * [`supervisor`] — a self-healing wrapper around the trainer:
//!   heartbeat-based failure detection, respawn through CAS
//!   re-attestation with bounded backoff, and rollback to the last
//!   authenticated checkpoint.
//!
//! # Examples
//!
//! ```
//! use securetf_distrib::cluster::{Cluster, ClusterConfig};
//! use securetf_distrib::trainer::DistributedTrainer;
//! use securetf_tee::ExecutionMode;
//! use securetf_tensor::layers;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), securetf_distrib::DistribError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let model = layers::mlp_classifier(784, &[64], 10, &mut rng)
//!     .expect("valid model");
//! let data = securetf_data::synthetic_mnist(200, 1);
//! let cluster = Cluster::new(ClusterConfig {
//!     workers: 2,
//!     mode: ExecutionMode::Simulation,
//!     network_shield: true,
//!     ..ClusterConfig::default()
//! })?;
//! let mut trainer = DistributedTrainer::new(cluster, model, data, 50, 0.1)?;
//! let report = trainer.train_steps(4)?;
//! assert!(report.final_loss.is_finite());
//! # Ok(())
//! # }
//! ```

pub mod cluster;
pub mod comm;
pub mod faults;
pub mod federated;
pub mod supervisor;
pub mod trainer;
pub mod wire;

use std::error::Error;
use std::fmt;

/// Errors produced by the distributed runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum DistribError {
    /// Joining node failed attestation.
    Attestation(securetf_cas::CasError),
    /// A TEE-level failure.
    Tee(securetf_tee::TeeError),
    /// A model-execution failure.
    Tensor(securetf_tensor::TensorError),
    /// Malformed wire message.
    BadMessage(&'static str),
    /// No live workers remain.
    NoWorkers,
    /// Referenced worker does not exist.
    UnknownWorker(usize),
}

impl DistribError {
    /// Whether the failure is transient — retrying may succeed — as
    /// opposed to an integrity, policy or programming error that must
    /// fail closed. Today only CAS unavailability qualifies.
    pub fn is_transient(&self) -> bool {
        matches!(self, DistribError::Attestation(e) if e.is_transient())
    }
}

impl fmt::Display for DistribError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistribError::Attestation(e) => write!(f, "attestation failed: {e}"),
            DistribError::Tee(e) => write!(f, "tee error: {e}"),
            DistribError::Tensor(e) => write!(f, "tensor error: {e}"),
            DistribError::BadMessage(why) => write!(f, "bad message: {why}"),
            DistribError::NoWorkers => write!(f, "no live workers"),
            DistribError::UnknownWorker(i) => write!(f, "unknown worker {i}"),
        }
    }
}

impl Error for DistribError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DistribError::Attestation(e) => Some(e),
            DistribError::Tee(e) => Some(e),
            DistribError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<securetf_cas::CasError> for DistribError {
    fn from(e: securetf_cas::CasError) -> Self {
        DistribError::Attestation(e)
    }
}

impl From<securetf_tee::TeeError> for DistribError {
    fn from(e: securetf_tee::TeeError) -> Self {
        DistribError::Tee(e)
    }
}

impl From<securetf_tensor::TensorError> for DistribError {
    fn from(e: securetf_tensor::TensorError) -> Self {
        DistribError::Tensor(e)
    }
}

impl From<securetf_tensor::bytes::BytesError> for DistribError {
    fn from(e: securetf_tensor::bytes::BytesError) -> Self {
        DistribError::BadMessage(e.reason())
    }
}
