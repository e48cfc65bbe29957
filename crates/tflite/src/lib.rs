//! An inference-only interpreter — the reproduction's stand-in for
//! TensorFlow Lite, which secureTF uses for classification (paper §3.3.4).
//!
//! TensorFlow Lite trades trainability for footprint: a reduced op set, a
//! compact flat model format and a mobile-optimized interpreter whose
//! binary is ~1.9 MB against the full framework's 87.4 MB (paper §5.3 #4).
//! Inside a ~94 MiB EPC that difference decides whether inference fits in
//! protected memory or thrashes — the paper measures a ~71× latency gap.
//!
//! * [`model`] — the compact model format and the converter from frozen
//!   training graphs (rejects training-only ops, like the real converter).
//! * [`interpreter`] — the runtime, reporting FLOPs/bytes for the TEE
//!   cost model.
//! * [`models`] — synthetic stand-ins for the paper's pre-trained models
//!   (Densenet 42 MB, Inception-v3 91 MB, Inception-v4 163 MB), faithful
//!   in parameter bytes and declared FLOPs.
//!
//! # Examples
//!
//! ```
//! use securetf_tflite::model::LiteModel;
//! use securetf_tflite::interpreter::Interpreter;
//! use securetf_tensor::{graph::Graph, tensor::Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A frozen inference graph…
//! let mut g = Graph::new();
//! let x = g.placeholder("input", &[0, 4]);
//! let w = g.constant("w", Tensor::full(&[4, 2], 0.5));
//! let logits = g.matmul(x, w)?;
//! let probs = g.softmax(logits)?;
//!
//! // …converts to a Lite model and runs.
//! let lite = LiteModel::convert(&g, "input", &g.nodes()[probs.index()].name)?;
//! let mut interp = Interpreter::new(lite);
//! let out = interp.run(&Tensor::full(&[1, 4], 1.0))?;
//! assert_eq!(out.shape(), &[1, 2]);
//! # Ok(())
//! # }
//! ```

pub mod arena;
pub mod interpreter;
pub mod model;
pub mod models;
pub mod optimize;

use std::error::Error;
use std::fmt;

/// In-enclave footprint of the full-TensorFlow runtime binary
/// (87.4 MB, paper §5.3 #4).
pub const FULL_TF_RUNTIME_BYTES: u64 = 87_400_000;

/// In-enclave footprint of the TensorFlow-Lite runtime binary
/// (1.9 MB, paper §5.3 #4).
pub const LITE_RUNTIME_BYTES: u64 = 1_900_000;

/// Errors produced by the Lite runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LiteError {
    /// The source graph contains an op the Lite runtime does not support
    /// (variables, losses — anything training-only).
    UnsupportedOp(&'static str),
    /// The named input/output node does not exist in the source graph.
    MissingNode(String),
    /// Model (de)serialization failed.
    MalformedModel(&'static str),
    /// The input binding names a node of this kind, not a placeholder:
    /// a fed tensor would replace a weight or a computed value.
    InputNotPlaceholder(&'static str),
    /// An execution error from the underlying kernels.
    Exec(securetf_tensor::TensorError),
}

impl fmt::Display for LiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiteError::UnsupportedOp(op) => write!(f, "op not supported by lite runtime: {op}"),
            LiteError::MissingNode(name) => write!(f, "node not found: {name}"),
            LiteError::MalformedModel(why) => write!(f, "malformed lite model: {why}"),
            LiteError::InputNotPlaceholder(kind) => {
                write!(f, "lite model input is a {kind}, not a placeholder")
            }
            LiteError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl Error for LiteError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LiteError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<securetf_tensor::TensorError> for LiteError {
    fn from(e: securetf_tensor::TensorError) -> Self {
        LiteError::Exec(e)
    }
}

impl From<securetf_tensor::bytes::BytesError> for LiteError {
    fn from(e: securetf_tensor::bytes::BytesError) -> Self {
        LiteError::MalformedModel(e.reason())
    }
}
