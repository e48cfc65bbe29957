//! # secureTF — secure machine learning on untrusted infrastructure
//!
//! A from-scratch Rust reproduction of *secureTF: A Secure TensorFlow
//! Framework* (Middleware 2020). secureTF runs unmodified machine-learning
//! workloads inside Intel SGX enclaves and extends single-node enclave
//! trust to distributed, stateful deployments: a local Configuration and
//! Attestation Service (CAS) bootstraps trust and provisions secrets,
//! file-system and network shields protect all state leaving the enclave,
//! and the TensorFlow / TensorFlow Lite runtimes are adapted to the
//! enclave's constraints (most importantly the ~94 MiB EPC).
//!
//! This reproduction has no SGX hardware; the TEE is simulated by
//! [`securetf_tee`] with a calibrated cost model (see `DESIGN.md`). All
//! *functional* behaviour — attestation, sealing, shields, training,
//! inference — is real; *latencies* are virtual time.
//!
//! The layers, bottom-up:
//!
//! | crate | role |
//! |---|---|
//! | `securetf-crypto` | primitives (ChaCha20-Poly1305, X25519, SHA-256 …) |
//! | `securetf-tee` | SGX simulator: enclaves, EPC, quotes, sealing |
//! | `securetf-shield` | SCONE-like runtime: fs/net shields, scheduling |
//! | `securetf-cas` | attestation + configuration service, IAS baseline |
//! | `securetf-tensor` | trainable dataflow-graph framework ("full TF") |
//! | `securetf-tflite` | inference-only interpreter ("TF Lite") |
//! | `securetf-distrib` | parameter-server training, elastic workers |
//! | `securetf` (this) | end-to-end public API |
//!
//! # Examples
//!
//! Deploy a classification service whose model is encrypted at rest and
//! whose enclave must attest before receiving the decryption key:
//!
//! ```
//! use securetf::deployment::Deployment;
//! use securetf::profile::RuntimeProfile;
//! use securetf_tee::ExecutionMode;
//! use securetf_tensor::{graph::Graph, tensor::Tensor};
//! use securetf_tflite::model::LiteModel;
//!
//! # fn main() -> Result<(), securetf::SecureTfError> {
//! // Build and freeze a (tiny) model, as the data owner.
//! let mut g = Graph::new();
//! let x = g.placeholder("input", &[0, 4]);
//! let w = g.constant("w", Tensor::full(&[4, 3], 0.2));
//! let logits = g.matmul(x, w)?;
//! let out_name = g.nodes()[logits.index()].name.clone();
//! let model = LiteModel::convert(&g, "input", &out_name)?;
//!
//! // Deploy: the owner publishes the encrypted model + policy, the
//! // service enclave attests, fetches the key, and serves.
//! let mut deployment = Deployment::new(ExecutionMode::Hardware);
//! deployment.publish_model("svc", "/models/m", &model)?;
//! let mut classifier = deployment.deploy_classifier(
//!     "svc",
//!     "/models/m",
//!     RuntimeProfile::scone_lite(),
//! )?;
//! let (label, latency_ns) = classifier.classify(&Tensor::full(&[1, 4], 1.0))?;
//! assert!(label < 3);
//! assert!(latency_ns > 0);
//! # Ok(())
//! # }
//! ```

pub mod classifier;
pub mod deployment;
pub mod model_blob;
pub mod profile;
pub mod secure_session;
pub mod serving;

use std::error::Error;
use std::fmt;

/// Records the compiler's work on telemetry and the enclave clock:
/// `compiler.*` counters plus one `compiler.<pass>` span per executed
/// pass, which spends the pass's *deterministic* virtual time (derived
/// from node counts, never wall clock) as [`CostCategory::Other`]. A
/// pipeline that changed nothing records nothing, so same-seed digests
/// are unaffected when node counts are equal.
///
/// [`CostCategory::Other`]: securetf_tee::CostCategory::Other
pub(crate) fn charge_compiler_report(
    enclave: &securetf_tee::Enclave,
    report: &securetf_tensor::passes::PipelineReport,
) {
    if !report.changed() {
        return;
    }
    let telemetry = enclave.telemetry();
    telemetry
        .counter("compiler.nodes_eliminated")
        .add(report.nodes_eliminated());
    telemetry
        .counter("compiler.nodes_fused")
        .add(report.nodes_fused());
    telemetry
        .counter("compiler.pass_ns")
        .add(report.virtual_ns());
    for pass in &report.passes {
        let name = match pass.name {
            "dce" => "compiler.dce",
            "fold" => "compiler.fold",
            "fuse" => "compiler.fuse",
            _ => "compiler.pass",
        };
        let _span = telemetry.span(name);
        enclave.spend(securetf_tee::CostCategory::Other, pass.virtual_ns);
    }
}

/// Records per-kernel-family flop and virtual-time counters
/// (`kernel.<family>.flops` / `kernel.<family>.ns`) for a run's stats on
/// the enclave's telemetry, using the enclave's own compute rate, and the
/// gauge `kernel.simd`: the instruction set the GEMM runs on here (0 =
/// baseline, 2 = AVX2, 3 = AVX-512). The virtual clock does not depend
/// on it, the wall clock does, so it is what tells an operator why one
/// host serves the same model at half the rate of another.
pub(crate) fn attribute_kernel_flops(
    enclave: &securetf_tee::Enclave,
    stats: &securetf_tensor::autodiff::RunStats,
) {
    let simd = match securetf_tensor::kernels::simd_level() {
        "avx512" => 3,
        "avx2" => 2,
        _ => 0,
    };
    enclave.telemetry().gauge("kernel.simd").set(simd);
    let kf = stats.kernel_flops;
    for (family, flops) in [
        ("matmul", kf.matmul),
        ("conv2d", kf.conv2d),
        ("other", kf.other),
    ] {
        if flops > 0.0 {
            let telemetry = enclave.telemetry();
            telemetry
                .counter(&format!("kernel.{family}.flops"))
                .add(flops as u64);
            let ns = enclave.cost_model().compute_ns(flops, enclave.mode());
            telemetry.counter(&format!("kernel.{family}.ns")).add(ns);
        }
    }
}

/// Publishes an executor's memory statistics as the `memory.*` gauges:
/// the arena size the plan (and the EPC region charged for it) needs, the
/// slot bytes the last run had live at once, and the heap the buffer
/// pool holds between runs. An operator reads them together:
/// `pool_bytes` stays flat from run to run and within one run's worth of
/// buffers, so the real footprint tracks the region the cost model
/// charges for. `grad_slots` and `grads_pruned` say how much of a backward
/// pass the plan kept: gradients it has a slot for against nodes whose
/// gradient is never computed because no variable is upstream of them
/// (both 0 for an inference plan). `workspace_bytes` is the conv kernels'
/// scratch (the padded image, its tap offsets and the input gradient's
/// matrices): heap the executor keeps
/// between runs that is in neither the plan nor the pool.
pub(crate) fn export_memory_gauges(
    enclave: &securetf_tee::Enclave,
    mem: &securetf_tensor::memory::MemoryStats,
) {
    let telemetry = enclave.telemetry();
    telemetry
        .gauge("memory.peak_planned_bytes")
        .set(mem.planned_peak_bytes as i64);
    telemetry
        .gauge("memory.arena_bytes_in_use")
        .set(mem.peak_resident_bytes as i64);
    telemetry
        .gauge("memory.pool_bytes")
        .set(mem.pooled_bytes as i64);
    telemetry
        .gauge("memory.grad_slots")
        .set(mem.grad_slots as i64);
    telemetry
        .gauge("memory.grads_pruned")
        .set(mem.grads_pruned as i64);
    telemetry
        .gauge("memory.workspace_bytes")
        .set(mem.workspace_bytes as i64);
}

/// Top-level error type of the secureTF API.
#[derive(Debug)]
#[non_exhaustive]
pub enum SecureTfError {
    /// TEE failure (quote, sealing, EPC).
    Tee(securetf_tee::TeeError),
    /// Shield failure (file tampering, channel violation).
    Shield(securetf_shield::ShieldError),
    /// Attestation / provisioning failure.
    Cas(securetf_cas::CasError),
    /// Model execution failure.
    Tensor(securetf_tensor::TensorError),
    /// Lite-runtime failure.
    Lite(securetf_tflite::LiteError),
    /// Distributed-runtime failure.
    Distrib(securetf_distrib::DistribError),
    /// Model integrity check failed at load time.
    ModelIntegrity(&'static str),
    /// The deployment sealed a model file for this service and path
    /// before: their key and nonce would seal a second plaintext.
    ModelAlreadySealed {
        /// The service the model was published for.
        service: String,
        /// Where the model file lives on the untrusted store.
        path: String,
    },
}

impl fmt::Display for SecureTfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecureTfError::Tee(e) => write!(f, "tee: {e}"),
            SecureTfError::Shield(e) => write!(f, "shield: {e}"),
            SecureTfError::Cas(e) => write!(f, "cas: {e}"),
            SecureTfError::Tensor(e) => write!(f, "tensor: {e}"),
            SecureTfError::Lite(e) => write!(f, "lite: {e}"),
            SecureTfError::Distrib(e) => write!(f, "distrib: {e}"),
            SecureTfError::ModelIntegrity(why) => write!(f, "model integrity: {why}"),
            SecureTfError::ModelAlreadySealed { service, path } => write!(
                f,
                "model file {path} of {service} is sealed already: another seal would reuse its key and nonce"
            ),
        }
    }
}

impl Error for SecureTfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SecureTfError::Tee(e) => Some(e),
            SecureTfError::Shield(e) => Some(e),
            SecureTfError::Cas(e) => Some(e),
            SecureTfError::Tensor(e) => Some(e),
            SecureTfError::Lite(e) => Some(e),
            SecureTfError::Distrib(e) => Some(e),
            SecureTfError::ModelIntegrity(_) | SecureTfError::ModelAlreadySealed { .. } => None,
        }
    }
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for SecureTfError {
            fn from(e: $ty) -> Self {
                SecureTfError::$variant(e)
            }
        }
    };
}

from_err!(Tee, securetf_tee::TeeError);
from_err!(Shield, securetf_shield::ShieldError);
from_err!(Cas, securetf_cas::CasError);
from_err!(Tensor, securetf_tensor::TensorError);
from_err!(Lite, securetf_tflite::LiteError);
from_err!(Distrib, securetf_distrib::DistribError);
