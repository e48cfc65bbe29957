//! Weight packing: the serving graph's matmul weights, stored in the
//! order the GEMM reads them.

use crate::graph::{Graph, NodeId, Op};

/// Stores every rank-2 [`Op::Constant`] whose one and only reader is the
/// right operand of a `MatMul` or `FusedMatMul` as the
/// [`Op::PackedConstant`] of the same matrix, in place: the panels are
/// written into the constant's own buffer, through one scratch copy
/// shared by every constant, so the graph never holds a weight twice.
/// Returns how many it packed.
///
/// A constant that anything else reads (a second op, the other operand,
/// or the caller, through `bindings`) stays row-major. Inference only:
/// the backward pass of a matmul reads its right operand as a tensor.
///
/// Bit-identity: the panel kernel's per-element sums are the row-major
/// kernel's, term for term ([`crate::kernels::matmul_panels_with`]), and
/// its cost is theirs too, so outputs and [`crate::autodiff::RunStats`]
/// do not move.
pub fn pack_matmul_constants(graph: &mut Graph, bindings: &[NodeId]) -> usize {
    let mut reads = vec![0usize; graph.len()];
    let mut rhs_reads = vec![0usize; graph.len()];
    for node in graph.nodes() {
        for input in node.op.inputs() {
            reads[input.index()] += 1;
        }
        if let Op::MatMul(_, rhs) | Op::FusedMatMul { rhs, .. } = &node.op {
            rhs_reads[rhs.index()] += 1;
        }
    }
    for &binding in bindings {
        if let Some(count) = reads.get_mut(binding.index()) {
            *count += 1;
        }
    }
    let (mut packed, mut scratch) = (0, Vec::new());
    for index in 0..graph.len() {
        let id = graph.node_id(index).expect("in range");
        let rank2 = matches!(&graph.nodes()[index].op, Op::Constant(t) if t.shape().len() == 2);
        if rank2 && reads[index] == 1 && rhs_reads[index] == 1 {
            graph
                .pack_constant(id, &mut scratch)
                .expect("a rank-2 constant");
            packed += 1;
        }
    }
    packed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Padding;
    use crate::tensor::Tensor;

    fn matrix(k: usize, n: usize) -> Tensor {
        Tensor::from_vec(&[k, n], (0..k * n).map(|i| i as f32 * 0.5).collect()).unwrap()
    }

    #[test]
    fn only_a_matmul_rhs_read_nowhere_else_is_packed() {
        let mut g = Graph::new();
        let x = g.placeholder("x", &[0, 3]);
        let sole = g.constant("sole", matrix(3, 9));
        let both = g.constant("both", matrix(9, 9));
        let bias = g.constant("bias", Tensor::zeros(&[9]));
        let filter = g.constant("filter", Tensor::zeros(&[1, 1, 9, 2]));
        let bound = g.constant("bound", matrix(9, 9));
        let h = g.fused_matmul(x, sole, bias, true).unwrap();
        let h = g.matmul(h, bound).unwrap();
        // `both` is the left and the right operand of one product.
        let square = g.matmul(both, both).unwrap();
        let h = g.matmul(h, square).unwrap();
        let image = g.reshape(h, &[1, 1, 1, 9]).unwrap();
        let out = g.conv2d(image, filter, Padding::Same).unwrap();
        let before = g.clone();
        assert_eq!(pack_matmul_constants(&mut g, &[x, out, bound]), 1);
        let kinds: Vec<&str> = g.nodes().iter().map(|n| n.op.kind()).collect();
        assert_eq!(kinds[sole.index()], "packed_const");
        for id in [both, bias, filter, bound] {
            assert_eq!(kinds[id.index()], "const", "{}", g.nodes()[id.index()].name);
        }
        assert_eq!(g.param_bytes(), before.param_bytes());
        let unpacked = g.unpacked();
        for (got, want) in unpacked.nodes().iter().zip(before.nodes()) {
            if let (Op::Constant(got), Op::Constant(want)) = (&got.op, &want.op) {
                assert_eq!(got, want);
            } else {
                assert_eq!(got.op.kind(), want.op.kind());
            }
        }
    }
}
