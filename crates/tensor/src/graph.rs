//! Static dataflow graphs of operations (TensorFlow's GraphDef analogue).

use crate::kernels::Panels;
use crate::tensor::Tensor;
use crate::TensorError;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a node within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's position in its graph's topological node order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Padding mode for convolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// Output spatial size equals input size (zero padding).
    Same,
    /// No padding; output shrinks by `kernel - 1`.
    Valid,
}

/// An operation node.
#[derive(Debug, Clone)]
pub enum Op {
    /// Runtime-fed input with a shape template (0 = any size on that axis).
    Placeholder {
        /// Shape template; `0` entries match any extent.
        shape: Vec<usize>,
    },
    /// Trainable state initialized from a tensor.
    Variable {
        /// Initial value.
        init: Tensor,
    },
    /// Immutable embedded tensor.
    Constant(Tensor),
    /// An immutable embedded `[k, n]` matrix whose one reader is the
    /// right operand of a `MatMul` or `FusedMatMul`, stored in the GEMM's
    /// panel order ([`crate::passes::pack_matmul_constants`]). Exports and
    /// [`Graph::unpacked`] turn it back into the [`Op::Constant`] it was.
    PackedConstant(Panels),
    /// `[m,k] × [k,n]` matrix product.
    MatMul(NodeId, NodeId),
    /// Adds a `[n]` bias row-broadcast onto `[m,n]`.
    AddBias(NodeId, NodeId),
    /// Elementwise addition of same-shape tensors.
    Add(NodeId, NodeId),
    /// Elementwise multiplication of same-shape tensors.
    Mul(NodeId, NodeId),
    /// Rectified linear unit.
    Relu(NodeId),
    /// Row-wise softmax over `[batch, classes]`.
    Softmax(NodeId),
    /// NHWC convolution with `[kh, kw, c_in, c_out]` filters, stride 1.
    Conv2d {
        /// Input activations `[batch, h, w, c_in]`.
        input: NodeId,
        /// Filter bank `[kh, kw, c_in, c_out]`.
        filter: NodeId,
        /// Padding mode.
        padding: Padding,
    },
    /// 2×2 max pooling with stride 2 over NHWC.
    MaxPool2(NodeId),
    /// Collapses all but the leading axis: `[b, …] -> [b, rest]`.
    Flatten(NodeId),
    /// Reshape to an explicit shape (element count must match).
    Reshape(NodeId, Vec<usize>),
    /// Fused softmax + cross-entropy against one-hot labels; scalar mean
    /// loss over the batch.
    SoftmaxCrossEntropy {
        /// Unnormalized scores `[batch, classes]`.
        logits: NodeId,
        /// One-hot labels `[batch, classes]`.
        labels: NodeId,
    },
    /// Mean squared error; scalar mean over all elements.
    MseLoss(NodeId, NodeId),
    /// Elementwise subtraction of same-shape tensors.
    Sub(NodeId, NodeId),
    /// Multiplication by a compile-time scalar.
    Scale(NodeId, f32),
    /// Logistic sigmoid.
    Sigmoid(NodeId),
    /// Hyperbolic tangent.
    Tanh(NodeId),
    /// 2×2 average pooling with stride 2 over NHWC.
    AvgPool2(NodeId),
    /// Concatenation of two matrices along the feature axis:
    /// `[m, a] ++ [m, b] -> [m, a + b]`.
    ConcatCols(NodeId, NodeId),
    /// Fused `matmul → add_bias[ → relu]`. The bias/relu epilogue runs
    /// inside the GEMM kernel, so the intermediates never materialize;
    /// results are bit-identical to the unfused op sequence.
    FusedMatMul {
        /// Left operand `[m, k]`.
        lhs: NodeId,
        /// Right operand `[k, n]`.
        rhs: NodeId,
        /// Bias row `[n]`.
        bias: NodeId,
        /// Whether a ReLU follows the bias addition.
        relu: bool,
    },
    /// Fused `conv2d → add_bias[ → relu]` with the same bit-identity
    /// guarantee as [`Op::FusedMatMul`].
    FusedConv2d {
        /// Input activations `[batch, h, w, c_in]`.
        input: NodeId,
        /// Filter bank `[kh, kw, c_in, c_out]`.
        filter: NodeId,
        /// Bias over output channels `[c_out]`.
        bias: NodeId,
        /// Padding mode.
        padding: Padding,
        /// Whether a ReLU follows the bias addition.
        relu: bool,
    },
}

impl Op {
    /// The node ids this op consumes.
    pub fn inputs(&self) -> Vec<NodeId> {
        match self {
            Op::Placeholder { .. }
            | Op::Variable { .. }
            | Op::Constant(_)
            | Op::PackedConstant(_) => vec![],
            Op::MatMul(a, b)
            | Op::AddBias(a, b)
            | Op::Add(a, b)
            | Op::Mul(a, b)
            | Op::Sub(a, b)
            | Op::ConcatCols(a, b)
            | Op::MseLoss(a, b) => vec![*a, *b],
            Op::Relu(a)
            | Op::Softmax(a)
            | Op::MaxPool2(a)
            | Op::AvgPool2(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Flatten(a) => vec![*a],
            Op::Reshape(a, _) | Op::Scale(a, _) => vec![*a],
            Op::Conv2d { input, filter, .. } => vec![*input, *filter],
            Op::SoftmaxCrossEntropy { logits, labels } => vec![*logits, *labels],
            Op::FusedMatMul { lhs, rhs, bias, .. } => vec![*lhs, *rhs, *bias],
            Op::FusedConv2d {
                input,
                filter,
                bias,
                ..
            } => vec![*input, *filter, *bias],
        }
    }

    /// This op with every input id rewritten by `f` (used by
    /// graph-transformation passes). It moves: a constant's tensor goes
    /// along, uncopied.
    pub fn map_inputs(mut self, f: impl Fn(NodeId) -> NodeId) -> Op {
        match &mut self {
            Op::Placeholder { .. }
            | Op::Variable { .. }
            | Op::Constant(_)
            | Op::PackedConstant(_) => {}
            Op::MatMul(a, b)
            | Op::AddBias(a, b)
            | Op::Add(a, b)
            | Op::Mul(a, b)
            | Op::Sub(a, b)
            | Op::ConcatCols(a, b)
            | Op::MseLoss(a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            Op::Relu(a)
            | Op::Softmax(a)
            | Op::MaxPool2(a)
            | Op::AvgPool2(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Flatten(a)
            | Op::Reshape(a, _)
            | Op::Scale(a, _) => *a = f(*a),
            Op::Conv2d { input, filter, .. } => {
                *input = f(*input);
                *filter = f(*filter);
            }
            Op::SoftmaxCrossEntropy { logits, labels } => {
                *logits = f(*logits);
                *labels = f(*labels);
            }
            Op::FusedMatMul { lhs, rhs, bias, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
                *bias = f(*bias);
            }
            Op::FusedConv2d {
                input,
                filter,
                bias,
                ..
            } => {
                *input = f(*input);
                *filter = f(*filter);
                *bias = f(*bias);
            }
        }
        self
    }

    /// A short mnemonic for serialization and debugging.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Placeholder { .. } => "placeholder",
            Op::Variable { .. } => "variable",
            Op::Constant(_) => "const",
            Op::PackedConstant(_) => "packed_const",
            Op::MatMul(..) => "matmul",
            Op::AddBias(..) => "add_bias",
            Op::Add(..) => "add",
            Op::Mul(..) => "mul",
            Op::Relu(_) => "relu",
            Op::Softmax(_) => "softmax",
            Op::Conv2d { .. } => "conv2d",
            Op::MaxPool2(_) => "max_pool2",
            Op::Flatten(_) => "flatten",
            Op::Reshape(..) => "reshape",
            Op::SoftmaxCrossEntropy { .. } => "softmax_xent",
            Op::MseLoss(..) => "mse_loss",
            Op::Sub(..) => "sub",
            Op::Scale(..) => "scale",
            Op::Sigmoid(_) => "sigmoid",
            Op::Tanh(_) => "tanh",
            Op::AvgPool2(_) => "avg_pool2",
            Op::ConcatCols(..) => "concat_cols",
            // The relu flag is part of the kind so an op histogram
            // (`securetf inspect`) and error messages tell the two
            // epilogues apart.
            Op::FusedMatMul { relu: false, .. } => "fused_matmul_bias",
            Op::FusedMatMul { relu: true, .. } => "fused_matmul_bias_relu",
            Op::FusedConv2d { relu: false, .. } => "fused_conv2d_bias",
            Op::FusedConv2d { relu: true, .. } => "fused_conv2d_bias_relu",
        }
    }
}

/// A named node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Display/export name.
    pub name: String,
}

/// Where every [`Graph`] version is drawn: one counter for the process,
/// so no two graphs built or edited apart ever share a version.
/// `Relaxed` is enough: the counter publishes no other data, and a
/// read-modify-write never hands one value out twice.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(0);

fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// A static computation graph.
///
/// Nodes only reference earlier nodes, so the node order is already a
/// topological order.
#[derive(Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Fresh on construction and on every edit of a node; kept by
    /// `Clone`, whose copy holds the same nodes. Two graphs with one
    /// version therefore hold the same nodes, which is all the compile
    /// and plan caches compare.
    version: u64,
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            nodes: Vec::new(),
            version: fresh_version(),
        }
    }
}

// By hand, so that the version — an allocation counter, not content —
// never reaches debug output.
impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph").field("nodes", &self.nodes).finish()
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Identifies this graph's nodes: equal versions mean equal nodes.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    fn push(&mut self, name: &str, op: Op) -> NodeId {
        self.push_node(Node {
            op,
            name: name.to_string(),
        })
    }

    fn check(&self, id: NodeId) -> Result<(), TensorError> {
        if id.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(TensorError::UnknownNode)
        }
    }

    /// Adds a placeholder. `0` in the shape template matches any extent
    /// (use it for the batch axis).
    pub fn placeholder(&mut self, name: &str, shape: &[usize]) -> NodeId {
        self.push(
            name,
            Op::Placeholder {
                shape: shape.to_vec(),
            },
        )
    }

    /// Adds a trainable variable with an initial value.
    pub fn variable(&mut self, name: &str, init: Tensor) -> NodeId {
        self.push(name, Op::Variable { init })
    }

    /// Adds an immutable constant.
    pub fn constant(&mut self, name: &str, value: Tensor) -> NodeId {
        self.push(name, Op::Constant(value))
    }

    /// Adds a matrix multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        self.check(a)?;
        self.check(b)?;
        Ok(self.push("matmul", Op::MatMul(a, b)))
    }

    /// Adds a row-broadcast bias addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> Result<NodeId, TensorError> {
        self.check(x)?;
        self.check(bias)?;
        Ok(self.push("add_bias", Op::AddBias(x, bias)))
    }

    /// Adds an elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        self.check(a)?;
        self.check(b)?;
        Ok(self.push("add", Op::Add(a, b)))
    }

    /// Adds an elementwise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        self.check(a)?;
        self.check(b)?;
        Ok(self.push("mul", Op::Mul(a, b)))
    }

    /// Adds a ReLU.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn relu(&mut self, x: NodeId) -> Result<NodeId, TensorError> {
        self.check(x)?;
        Ok(self.push("relu", Op::Relu(x)))
    }

    /// Adds a row-wise softmax.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn softmax(&mut self, x: NodeId) -> Result<NodeId, TensorError> {
        self.check(x)?;
        Ok(self.push("softmax", Op::Softmax(x)))
    }

    /// Adds an NHWC convolution (stride 1).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn conv2d(
        &mut self,
        input: NodeId,
        filter: NodeId,
        padding: Padding,
    ) -> Result<NodeId, TensorError> {
        self.check(input)?;
        self.check(filter)?;
        Ok(self.push(
            "conv2d",
            Op::Conv2d {
                input,
                filter,
                padding,
            },
        ))
    }

    /// Adds a 2×2/stride-2 max pool.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn max_pool2(&mut self, x: NodeId) -> Result<NodeId, TensorError> {
        self.check(x)?;
        Ok(self.push("max_pool2", Op::MaxPool2(x)))
    }

    /// Adds a flatten-to-matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn flatten(&mut self, x: NodeId) -> Result<NodeId, TensorError> {
        self.check(x)?;
        Ok(self.push("flatten", Op::Flatten(x)))
    }

    /// Adds a reshape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn reshape(&mut self, x: NodeId, shape: &[usize]) -> Result<NodeId, TensorError> {
        self.check(x)?;
        Ok(self.push("reshape", Op::Reshape(x, shape.to_vec())))
    }

    /// Adds a fused softmax-cross-entropy loss.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn softmax_cross_entropy(
        &mut self,
        logits: NodeId,
        labels: NodeId,
    ) -> Result<NodeId, TensorError> {
        self.check(logits)?;
        self.check(labels)?;
        Ok(self.push("softmax_xent", Op::SoftmaxCrossEntropy { logits, labels }))
    }

    /// Adds a mean-squared-error loss.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn mse_loss(&mut self, prediction: NodeId, target: NodeId) -> Result<NodeId, TensorError> {
        self.check(prediction)?;
        self.check(target)?;
        Ok(self.push("mse_loss", Op::MseLoss(prediction, target)))
    }

    /// Adds an elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        self.check(a)?;
        self.check(b)?;
        Ok(self.push("sub", Op::Sub(a, b)))
    }

    /// Adds a multiplication by a constant scalar.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn scale(&mut self, x: NodeId, factor: f32) -> Result<NodeId, TensorError> {
        self.check(x)?;
        Ok(self.push("scale", Op::Scale(x, factor)))
    }

    /// Adds a logistic sigmoid.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn sigmoid(&mut self, x: NodeId) -> Result<NodeId, TensorError> {
        self.check(x)?;
        Ok(self.push("sigmoid", Op::Sigmoid(x)))
    }

    /// Adds a hyperbolic tangent.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn tanh(&mut self, x: NodeId) -> Result<NodeId, TensorError> {
        self.check(x)?;
        Ok(self.push("tanh", Op::Tanh(x)))
    }

    /// Adds a 2×2/stride-2 average pool.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn avg_pool2(&mut self, x: NodeId) -> Result<NodeId, TensorError> {
        self.check(x)?;
        Ok(self.push("avg_pool2", Op::AvgPool2(x)))
    }

    /// Adds a column-axis concatenation of two matrices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        self.check(a)?;
        self.check(b)?;
        Ok(self.push("concat_cols", Op::ConcatCols(a, b)))
    }

    /// Adds a fused `matmul → add_bias[ → relu]` node (normally produced
    /// by the fusion pass rather than built by hand).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn fused_matmul(
        &mut self,
        lhs: NodeId,
        rhs: NodeId,
        bias: NodeId,
        relu: bool,
    ) -> Result<NodeId, TensorError> {
        self.check(lhs)?;
        self.check(rhs)?;
        self.check(bias)?;
        Ok(self.push(
            "fused_matmul",
            Op::FusedMatMul {
                lhs,
                rhs,
                bias,
                relu,
            },
        ))
    }

    /// Adds a fused `conv2d → add_bias[ → relu]` node.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign node ids.
    pub fn fused_conv2d(
        &mut self,
        input: NodeId,
        filter: NodeId,
        bias: NodeId,
        padding: Padding,
        relu: bool,
    ) -> Result<NodeId, TensorError> {
        self.check(input)?;
        self.check(filter)?;
        self.check(bias)?;
        Ok(self.push(
            "fused_conv2d",
            Op::FusedConv2d {
                input,
                filter,
                bias,
                padding,
                relu,
            },
        ))
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The nodes in topological order, by value: what a pass that
    /// rewrites the graph moves into its output.
    pub fn into_nodes(self) -> Vec<Node> {
        self.nodes
    }

    /// The node for `id`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign ids.
    pub fn node(&self, id: NodeId) -> Result<&Node, TensorError> {
        self.nodes.get(id.0).ok_or(TensorError::UnknownNode)
    }

    /// Ids of all variables, in creation order.
    pub fn variables(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.op, Op::Variable { .. }))
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Looks a node up by name (first match).
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total bytes of variable and constant tensors (the "model size" the
    /// EPC accounting uses).
    pub fn param_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                Op::Variable { init } => init.byte_len(),
                Op::Constant(t) => t.byte_len(),
                Op::PackedConstant(panels) => panels.byte_len(),
                _ => 0,
            })
            .sum()
    }

    /// A copy of this graph with every [`Op::PackedConstant`] turned back
    /// into the row-major [`Op::Constant`] it was packed from: what a
    /// reader of constant tensors (quantization, pruning, export) takes.
    pub fn unpacked(&self) -> Graph {
        let nodes = self
            .nodes
            .iter()
            .map(|node| Node {
                op: match &node.op {
                    Op::PackedConstant(panels) => Op::Constant(panels.unpack()),
                    other => other.clone(),
                },
                name: node.name.clone(),
            })
            .collect();
        Graph {
            nodes,
            version: fresh_version(),
        }
    }

    pub(crate) fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.version = fresh_version();
        id
    }

    /// Returns the id of the node at `index`, if in range. Indices are
    /// stable across serialization ([`crate::freeze`]), so external model
    /// formats may store them.
    pub fn node_id(&self, index: usize) -> Option<NodeId> {
        (index < self.nodes.len()).then_some(NodeId(index))
    }

    /// Replaces the tensor of an existing constant node (used by model
    /// optimization passes such as dequantization).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign ids or
    /// [`TensorError::InvalidGraph`] if the node is not a constant.
    pub fn replace_constant(&mut self, id: NodeId, value: Tensor) -> Result<(), TensorError> {
        let node = self.nodes.get_mut(id.0).ok_or(TensorError::UnknownNode)?;
        match &mut node.op {
            Op::Constant(t) => {
                *t = value;
                self.version = fresh_version();
                Ok(())
            }
            _ => Err(TensorError::InvalidGraph("node is not a constant")),
        }
    }

    /// Stores the rank-2 constant `id` in panel order, in its own buffer
    /// ([`Panels::pack`], with `scratch`).
    ///
    /// # Errors
    ///
    /// [`TensorError::UnknownNode`] for foreign ids, and
    /// [`TensorError::InvalidGraph`] unless the node is a rank-2
    /// constant; the node is unchanged then.
    pub(crate) fn pack_constant(
        &mut self,
        id: NodeId,
        scratch: &mut Vec<f32>,
    ) -> Result<(), TensorError> {
        let node = self.nodes.get_mut(id.0).ok_or(TensorError::UnknownNode)?;
        self.version = fresh_version();
        match std::mem::replace(&mut node.op, Op::Constant(Tensor::zeros(&[0]))) {
            Op::Constant(t) if t.shape().len() == 2 => {
                node.op = Op::PackedConstant(Panels::pack(t, scratch)?);
                Ok(())
            }
            other => {
                node.op = other;
                Err(TensorError::InvalidGraph("node is not a rank-2 constant"))
            }
        }
    }

    /// Replaces any node's operation with a constant holding `value`
    /// (constant-folding support; downstream references are unaffected).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] for foreign ids.
    pub fn replace_with_constant(&mut self, id: NodeId, value: Tensor) -> Result<(), TensorError> {
        let node = self.nodes.get_mut(id.0).ok_or(TensorError::UnknownNode)?;
        node.op = Op::Constant(value);
        self.version = fresh_version();
        Ok(())
    }

    /// Appends a pre-built node, validating that all of its inputs
    /// reference existing nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownNode`] on a dangling input reference.
    pub fn append_node(&mut self, node: Node) -> Result<NodeId, TensorError> {
        for input in node.op.inputs() {
            self.check(input)?;
        }
        Ok(self.push_node(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_graph() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 4]);
        let w = g.variable("w", Tensor::zeros(&[4, 2]));
        let y = g.matmul(x, w).unwrap();
        let r = g.relu(y).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.node(r).unwrap().op.kind(), "relu");
        assert_eq!(g.variables(), vec![w]);
        assert_eq!(g.by_name("x"), Some(x));
        assert_eq!(g.by_name("nope"), None);
    }

    #[test]
    fn foreign_node_rejected() {
        let mut g1 = Graph::new();
        let mut g2 = Graph::new();
        let a = g1.placeholder("a", &[1]);
        let b = g1.placeholder("b", &[1]);
        g1.add(a, b).unwrap();
        // g2 has no nodes; ids from g1 are invalid there.
        assert_eq!(g2.add(a, b).unwrap_err(), TensorError::UnknownNode);
    }

    #[test]
    fn inputs_enumeration() {
        let mut g = Graph::new();
        let a = g.placeholder("a", &[1]);
        let b = g.placeholder("b", &[1]);
        let s = g.add(a, b).unwrap();
        assert_eq!(g.node(s).unwrap().op.inputs(), vec![a, b]);
        assert!(g.node(a).unwrap().op.inputs().is_empty());
    }

    #[test]
    fn a_clone_keeps_the_version_and_an_edit_takes_a_fresh_one() {
        let mut g = Graph::new();
        let c = g.constant("c", Tensor::zeros(&[2]));
        let copy = g.clone();
        assert_eq!(copy.version(), g.version());
        assert_ne!(Graph::new().version(), Graph::new().version());
        assert_eq!(format!("{copy:?}"), format!("{g:?}"));

        let mut seen = vec![g.version()];
        g.replace_constant(c, Tensor::full(&[2], 1.0)).unwrap();
        seen.push(g.version());
        g.replace_with_constant(c, Tensor::zeros(&[1, 2])).unwrap();
        seen.push(g.version());
        g.pack_constant(c, &mut Vec::new()).unwrap();
        seen.push(g.version());
        g.placeholder("x", &[1]);
        seen.push(g.version());
        seen.dedup();
        assert_eq!(seen.len(), 5, "an edit kept the version");
        assert_eq!(copy.version(), seen[0]);
    }

    #[test]
    fn param_bytes_counts_vars_and_consts() {
        let mut g = Graph::new();
        g.variable("w", Tensor::zeros(&[10]));
        g.constant("c", Tensor::zeros(&[5]));
        g.placeholder("x", &[100]);
        assert_eq!(g.param_bytes(), 60);
    }
}
