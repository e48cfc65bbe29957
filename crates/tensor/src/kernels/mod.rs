//! Blocked, pool-parallel compute kernels (DESIGN.md §11).
//!
//! This module is the framework's compute layer: a cache-blocked GEMM
//! (`gemm`), im2col + GEMM convolution (`conv`), and the deterministic
//! [`WorkerPool`] that splits kernels across disjoint output row-blocks.
//! The cardinal rule, enforced by property tests against
//! [`mod@reference`]: **blocking and parallelism never change the
//! per-element reduction order**, so every kernel is bit-for-bit
//! identical to its naive serial reference for any worker count.
//!
//! Each entry point also returns a [`KernelCost`] — total flops plus the
//! critical-path flops of the longest worker chain — which the TEE layer
//! turns into virtual time consistent with the sched shield's LPT
//! makespan model.

pub mod pool;
pub mod reference;

mod conv;
mod gemm;

pub use pool::WorkerPool;

use crate::graph::Padding;
use crate::tensor::Tensor;
use crate::TensorError;

/// Reusable kernel scratch memory.
///
/// Kernels that need intermediate buffers (the im2col column matrix, the
/// backward-convolution `gcol` product, max-pool routing indices) borrow
/// them from here instead of heap-allocating per call. A `Workspace` is
/// plain growable scratch: buffers are resized (and re-zeroed where the
/// kernel's reduction requires zeroed memory) on each use, so reuse never
/// changes results — only allocation traffic.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// im2col column matrix, `[positions, patch]`.
    pub(crate) cols: Vec<f32>,
    /// Backward-conv `gcol = grad × filterᵀ` scratch, `[positions, patch]`.
    pub(crate) gcol: Vec<f32>,
    /// Max-pool argmax routing indices, one per output element.
    pub(crate) pool_indices: Vec<usize>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }
}

/// A caller-provided output-buffer source for the `*_with` kernel entry
/// points: called with the required element count, must return a zeroed
/// buffer of exactly that length (an arena slot or a fresh `vec![0.0; n]`).
pub type TakeBuffer<'a> = &'a mut dyn FnMut(usize) -> Vec<f32>;

/// The cost of one kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCost {
    /// Total floating-point operations across all workers.
    pub flops: f64,
    /// Flops on the longest single-worker chain — what a parallel
    /// execution pays in wall/virtual time. Equals `flops` when serial.
    pub critical_flops: f64,
}

impl KernelCost {
    /// Accumulates another sequentially-executed stage into this cost.
    pub fn merge(&mut self, other: KernelCost) {
        self.flops += other.flops;
        self.critical_flops += other.critical_flops;
    }
}

/// Blocked matrix product `lhs × rhs` for rank-2 tensors.
///
/// Bit-identical to [`reference::naive_matmul`] for every worker count;
/// see the module docs for the determinism argument.
pub fn matmul(pool: &WorkerPool, lhs: &Tensor, rhs: &Tensor) -> Result<(Tensor, KernelCost), TensorError> {
    matmul_with(pool, lhs, rhs, &mut |len| vec![0.0f32; len])
}

/// [`matmul`] writing its result into a caller-provided buffer obtained
/// from `take` (see [`TakeBuffer`]). Bit-identical to [`matmul`]; only
/// the allocation source differs.
///
/// # Errors
///
/// Same conditions as [`matmul`].
pub fn matmul_with(
    pool: &WorkerPool,
    lhs: &Tensor,
    rhs: &Tensor,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    let (&[m, k1], &[k2, n]) = (lhs.shape(), rhs.shape()) else {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            detail: format!("{:?} × {:?} (need rank 2)", lhs.shape(), rhs.shape()),
        });
    };
    if k1 != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            detail: format!("inner dims {k1} vs {k2}"),
        });
    }
    let mut out = take(m * n);
    gemm::gemm(pool, m, k1, n, lhs.data(), rhs.data(), &mut out);
    let cost = gemm::gemm_cost(pool, m, k1, n);
    Ok((Tensor::from_vec(&[m, n], out)?, cost))
}

/// Applies the fused `+bias[ → relu]` epilogue in place, one block per
/// output row (`bias.len()` elements), and returns its cost.
///
/// Per element this performs exactly the operations of the unfused
/// `add_bias` then `relu` sequence (`out[i] += bias[i % n]`, then
/// `max(0.0)`), and every element is independent, so blocking and
/// parallelism cannot change results. The bias add charges no flops
/// (matching the unfused `AddBias`); the relu charges one flop per
/// element, pool-parallel over rows.
fn bias_relu_epilogue(pool: &WorkerPool, out: &mut [f32], bias: &[f32], relu: bool) -> KernelCost {
    let n = bias.len().max(1);
    pool.run_on_blocks(out, n, &|_, block| {
        for (v, b) in block.iter_mut().zip(bias) {
            *v += *b;
            if relu {
                *v = v.max(0.0);
            }
        }
    });
    if relu {
        let nblocks = out.len().div_ceil(n);
        KernelCost {
            flops: out.len() as f64,
            critical_flops: (pool::critical_units(nblocks, pool.workers()) * n) as f64,
        }
    } else {
        KernelCost::default()
    }
}

/// Fused `lhs × rhs + bias[ → relu]`: the GEMM of [`matmul`] followed by
/// an in-buffer bias/relu epilogue, so the pre-bias and pre-relu
/// intermediates never materialize. Bit-identical to the unfused
/// `matmul → add_bias → relu` op sequence for any worker count.
///
/// # Errors
///
/// Same conditions as [`matmul`], plus a bias shape check (`[n]`).
pub fn matmul_bias_relu(
    pool: &WorkerPool,
    lhs: &Tensor,
    rhs: &Tensor,
    bias: &Tensor,
    relu: bool,
) -> Result<(Tensor, KernelCost), TensorError> {
    matmul_bias_relu_with(pool, lhs, rhs, bias, relu, &mut |len| vec![0.0f32; len])
}

/// [`matmul_bias_relu`] writing into a caller-provided buffer.
///
/// # Errors
///
/// Same conditions as [`matmul_bias_relu`].
pub fn matmul_bias_relu_with(
    pool: &WorkerPool,
    lhs: &Tensor,
    rhs: &Tensor,
    bias: &Tensor,
    relu: bool,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    let (mut out, mut cost) = matmul_with(pool, lhs, rhs, take)?;
    let n = out.shape()[1];
    if bias.shape() != [n] {
        return Err(TensorError::ShapeMismatch {
            op: "fused_matmul",
            detail: format!("bias {:?} vs columns {n}", bias.shape()),
        });
    }
    cost.merge(bias_relu_epilogue(pool, out.data_mut(), bias.data(), relu));
    Ok((out, cost))
}

/// Fused `conv2d + bias[ → relu]` with caller-provided scratch and output
/// buffer: [`conv2d_with`]'s im2col + GEMM followed by an in-buffer
/// per-channel bias/relu epilogue. Bit-identical to the unfused
/// `conv2d → add_bias → relu` op sequence for any worker count.
///
/// # Errors
///
/// Same conditions as [`conv2d`], plus a bias shape check (`[cout]`).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_bias_relu_with(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input: &Tensor,
    filter: &Tensor,
    bias: &Tensor,
    padding: Padding,
    relu: bool,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    let (mut out, mut cost) = conv::conv2d_with(pool, ws, input, filter, padding, take)?;
    let cout = *out.shape().last().expect("conv output is NHWC");
    if bias.shape() != [cout] {
        return Err(TensorError::ShapeMismatch {
            op: "fused_conv2d",
            detail: format!("bias {:?} vs channels {cout}", bias.shape()),
        });
    }
    cost.merge(bias_relu_epilogue(pool, out.data_mut(), bias.data(), relu));
    Ok((out, cost))
}

/// im2col + GEMM forward convolution (NHWC input, `[kh,kw,cin,cout]`
/// filter). Bit-identical to [`reference::naive_conv2d`].
pub fn conv2d(
    pool: &WorkerPool,
    input: &Tensor,
    filter: &Tensor,
    padding: Padding,
) -> Result<(Tensor, KernelCost), TensorError> {
    conv::conv2d(pool, input, filter, padding)
}

/// [`conv2d`] with caller-provided scratch (`ws` holds the im2col column
/// matrix) and output buffer (`take`). Bit-identical to [`conv2d`].
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_with(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input: &Tensor,
    filter: &Tensor,
    padding: Padding,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    conv::conv2d_with(pool, ws, input, filter, padding, take)
}

/// Backward convolution: `(grad_input, grad_filter, cost)`.
/// Bit-identical to [`reference::naive_conv2d_grad`].
pub fn conv2d_grad(
    pool: &WorkerPool,
    input: &Tensor,
    filter: &Tensor,
    grad: &Tensor,
    padding: Padding,
) -> Result<(Tensor, Tensor, KernelCost), TensorError> {
    conv::conv2d_grad(pool, input, filter, grad, padding)
}

/// [`conv2d_grad`] with caller-provided scratch (`ws` holds the im2col
/// and `gcol` matrices) and output buffers (`take` supplies `grad_input`
/// and `grad_filter`). Bit-identical to [`conv2d_grad`].
///
/// # Errors
///
/// Same conditions as [`conv2d_grad`].
pub fn conv2d_grad_with(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input: &Tensor,
    filter: &Tensor,
    grad: &Tensor,
    padding: Padding,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, Tensor, KernelCost), TensorError> {
    conv::conv2d_grad_with(pool, ws, input, filter, grad, padding, take)
}
