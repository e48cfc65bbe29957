//! A dataflow-graph machine-learning framework — the reproduction's
//! stand-in for the full TensorFlow 1.x used by secureTF for *training*.
//!
//! Mirroring TensorFlow's architecture (paper §2.1):
//!
//! * users build a static directed [`graph::Graph`] of operations
//!   (placeholders, variables, matmul, convolution, activations, losses),
//! * a [`session::Session`] owns variable state and executes the graph,
//! * reverse-mode automatic differentiation ([`autodiff`]) plus an
//!   [`optimizer`] implement training,
//! * graphs can be *frozen* (variables folded into constants) and
//!   exported/imported in a binary `GraphDef`-like format ([`freeze`]),
//!   the interchange the paper relies on to move models from the Python
//!   API into the enclave runtime,
//! * every run reports FLOPs and memory statistics ([`autodiff::RunStats`])
//!   that the TEE layer converts into virtual time and EPC traffic.
//!
//! # Examples
//!
//! Train y = relu(x·W + b) on a toy objective:
//!
//! ```
//! use securetf_tensor::graph::Graph;
//! use securetf_tensor::session::Session;
//! use securetf_tensor::optimizer::Sgd;
//! use securetf_tensor::tensor::Tensor;
//!
//! # fn main() -> Result<(), securetf_tensor::TensorError> {
//! let mut g = Graph::new();
//! let x = g.placeholder("x", &[1, 2]);
//! let w = g.variable("w", Tensor::zeros(&[2, 1]));
//! let y = g.matmul(x, w)?;
//! let target = g.placeholder("t", &[1, 1]);
//! let loss = g.mse_loss(y, target)?;
//!
//! let mut session = Session::new(&g);
//! let mut sgd = Sgd::new(0.1);
//! for _ in 0..200 {
//!     session.train_step(
//!         &g,
//!         &[(x, Tensor::from_vec(&[1, 2], vec![1.0, 2.0])?),
//!           (target, Tensor::from_vec(&[1, 1], vec![3.0])?)],
//!         loss,
//!         &mut sgd,
//!     )?;
//! }
//! let out = session.run(&g, &[(x, Tensor::from_vec(&[1, 2], vec![1.0, 2.0])?)], &[y])?;
//! assert!((out[0].data()[0] - 3.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

pub mod autodiff;
pub mod bytes;
pub mod freeze;
pub mod graph;
pub mod kernels;
pub mod layers;
pub mod memory;
pub mod optimizer;
pub mod passes;
pub mod session;
pub mod tensor;

use std::error::Error;
use std::fmt;

/// Errors produced by the framework.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Description of the failing operation.
        op: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// A placeholder was not fed, or fed with the wrong shape.
    BadFeed(String),
    /// A fetched/referenced node does not exist in the graph.
    UnknownNode,
    /// Deserialization of a graph/checkpoint failed.
    MalformedModel(&'static str),
    /// The graph contains a cycle or an op not supported by this runtime.
    InvalidGraph(&'static str),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, detail } => {
                write!(f, "shape mismatch in {op}: {detail}")
            }
            TensorError::BadFeed(what) => write!(f, "bad feed: {what}"),
            TensorError::UnknownNode => write!(f, "unknown graph node"),
            TensorError::MalformedModel(why) => write!(f, "malformed model: {why}"),
            TensorError::InvalidGraph(why) => write!(f, "invalid graph: {why}"),
        }
    }
}

impl Error for TensorError {}

impl From<bytes::BytesError> for TensorError {
    fn from(e: bytes::BytesError) -> Self {
        TensorError::MalformedModel(e.reason())
    }
}

// The kernel tests share the test tree's oracles with the integration
// tests and the benches, which name the crate by its path.
#[cfg(test)]
extern crate self as securetf_tensor;
