//! Operator fusion: `matmul/conv2d → add_bias[ → relu]` chains become
//! single fused nodes with epilogue-aware kernels.

use super::{Pass, PassOutcome};
use crate::graph::{Graph, Node, NodeId, Op};
use crate::TensorError;

/// Rewrites `MatMul → AddBias[ → Relu]` and `Conv2d → AddBias[ → Relu]`
/// chains into [`Op::FusedMatMul`] / [`Op::FusedConv2d`], whose kernels
/// apply the bias/relu epilogue inside the output buffer so the
/// pre-bias and pre-relu intermediates never materialize (fewer arena
/// slots, fewer EPC page touches, one kernel launch).
///
/// Legality: an intermediate may be absorbed only if it has exactly one
/// consumer (counted with multiplicity) and is not a root — otherwise
/// its value is observable and must stay materialized. Bit-identity:
/// the fused kernels perform the identical per-element operations in
/// the identical order as the unfused sequence
/// ([`crate::kernels::matmul_bias_relu_with`]), and the fused backward
/// uses the same gradient kernels with the same accumulation order
/// (bias → lhs → rhs, matching the unfused reverse-topological visit).
pub struct OperatorFusion;

enum Action {
    /// Copy the node through (with remapped inputs).
    Emit,
    /// Node absorbed into a fused op; nothing emitted.
    Skip,
    /// Terminal of a fusion group: emit this op (ids still in the old
    /// id space) instead of the original node.
    Fuse(Op),
}

impl Pass for OperatorFusion {
    fn name(&self) -> &'static str {
        "fuse"
    }

    fn run(&self, graph: Graph, roots: &[NodeId]) -> Result<PassOutcome, TensorError> {
        let n = graph.len();
        let mut is_root = vec![false; n];
        for &root in roots {
            graph.node(root)?;
            is_root[root.index()] = true;
        }
        // Consumers with multiplicity: a node used twice by one op
        // appears twice, which correctly blocks fusion.
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (index, node) in graph.nodes().iter().enumerate() {
            for input in node.op.inputs() {
                consumers[input.index()].push(index);
            }
        }
        let sole_consumer =
            |i: usize| -> Option<usize> { (consumers[i].len() == 1).then(|| consumers[i][0]) };

        let mut actions: Vec<Action> = (0..n).map(|_| Action::Emit).collect();
        let mut fused = 0u64;
        for i in 0..n {
            let Op::AddBias(x, b) = graph.nodes()[i].op else {
                continue;
            };
            let xi = x.index();
            // The producer must be exclusively ours and unobservable.
            if is_root[xi] || sole_consumer(xi) != Some(i) {
                continue;
            }
            enum Core {
                MatMul(NodeId, NodeId),
                Conv(NodeId, NodeId, crate::graph::Padding),
            }
            let core = match &graph.nodes()[xi].op {
                Op::MatMul(a, w) => Core::MatMul(*a, *w),
                Op::Conv2d {
                    input,
                    filter,
                    padding,
                } => Core::Conv(*input, *filter, *padding),
                _ => continue,
            };
            // Extend through a relu if the bias output is also private.
            let relu_terminal = if is_root[i] {
                None
            } else {
                sole_consumer(i)
                    .filter(|&j| matches!(graph.nodes()[j].op, Op::Relu(r) if r.index() == i))
            };
            let (terminal, relu) = match relu_terminal {
                Some(j) => (j, true),
                None => (i, false),
            };
            let fused_op = match core {
                Core::MatMul(lhs, rhs) => Op::FusedMatMul {
                    lhs,
                    rhs,
                    bias: b,
                    relu,
                },
                Core::Conv(input, filter, padding) => Op::FusedConv2d {
                    input,
                    filter,
                    bias: b,
                    padding,
                    relu,
                },
            };
            actions[xi] = Action::Skip;
            fused += 1;
            if relu {
                actions[i] = Action::Skip;
                fused += 1;
            }
            actions[terminal] = Action::Fuse(fused_op);
        }

        let mut out = Graph::new();
        let mut remap: Vec<Option<NodeId>> = vec![None; n];
        let nodes = graph.into_nodes().into_iter().zip(actions);
        for (index, (node, action)) in nodes.enumerate() {
            let op = match action {
                Action::Skip => continue,
                Action::Emit => node.op,
                Action::Fuse(fused_op) => fused_op,
            };
            let op = op.map_inputs(|old| remap[old.index()].expect("inputs precede node"));
            let new_id = out
                .append_node(Node {
                    op,
                    name: node.name,
                })
                .expect("remapped inputs exist");
            remap[index] = Some(new_id);
        }
        Ok(PassOutcome {
            graph: out,
            remap,
            eliminated: 0,
            fused,
        })
    }
}
