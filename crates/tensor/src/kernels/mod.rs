//! Blocked, pool-parallel compute kernels (DESIGN.md §11).
//!
//! This module is the framework's compute layer: a register-tiled GEMM
//! (`gemm`, one body instantiated for the baseline target, for AVX2 and,
//! on packed weights, for AVX-512F), direct convolution over a padded
//! copy of the image on the GEMM's unit grid and instantiations (`conv`),
//! 2×2 max pooling forward and backward (`maxpool`, one lane body
//! instantiated for the baseline target and AVX2), the int8 gradient
//! quantizer and its error-feedback fold (`quantize`, likewise), and the
//! deterministic
//! [`WorkerPool`] that splits kernels across disjoint parts of the
//! output. The cardinal rule, enforced by property tests against the
//! naive scalar loops in the test tree (`tests/oracle/kernels.rs`):
//! **tiling, vector width and parallelism never change the per-element
//! reduction order**, so every kernel is bit-for-bit identical to its
//! naive serial reference for any worker count.
//!
//! Each entry point also returns a [`KernelCost`] — total flops plus the
//! critical-path flops of the longest worker chain — which the TEE layer
//! turns into virtual time. On `n` equal tasks over `w` workers that
//! path, [`pool::critical_units`], is the LPT makespan.

pub mod pool;

pub(crate) mod conv;
mod gemm;
mod maxpool;
mod quantize;

pub use pool::WorkerPool;

use gemm::{ALayout, BLayout};

use crate::graph::Padding;
use crate::tensor::Tensor;
use crate::TensorError;

/// Reusable kernel scratch memory.
///
/// Kernels that need intermediate buffers (the convolution's padded
/// image, the backward-convolution `gcol` product and transposed filter)
/// borrow them from here instead of heap-allocating per call. A
/// `Workspace` is plain growable scratch: buffers are resized on each use
/// and every element a kernel reads is written by that kernel first, its
/// padding zeros included, so reuse never changes results — only
/// allocation traffic. The memory plan does not see this heap;
/// [`Workspace::capacity_bytes`] reports it.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// The convolution's zero-padded, channel-planar image `[b, cin, oh +
    /// kh - 1, ow + kw - 1]`, read by the forward pass and the filter
    /// gradient.
    pub(crate) padded: Vec<f32>,
    /// The offset in `padded` of each filter tap `(ky, kx, ci)`.
    pub(crate) taps: Vec<usize>,
    /// Backward-conv `gcol = grad × filterᵀ` scratch, `[positions, patch]`.
    pub(crate) gcol: Vec<f32>,
    /// Backward-conv `filterᵀ`, `[cout, patch]`.
    pub(crate) filter_t: Vec<f32>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Heap bytes the scratch buffers hold on to between calls.
    pub fn capacity_bytes(&self) -> u64 {
        let floats = self.padded.capacity() + self.gcol.capacity() + self.filter_t.capacity();
        floats as u64 * 4 + (self.taps.capacity() * std::mem::size_of::<usize>()) as u64
    }
}

/// A caller-provided output-buffer source for the `*_with` kernel entry
/// points: called with the required element count, must return a buffer
/// of exactly that length. Its contents are unspecified (a recycled arena
/// slot still holds whatever its last owner left there): a kernel writes
/// every element of what it takes, and one that accumulates zeroes what
/// it accumulates into, itself.
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

/// The instruction set the GEMM micro-kernel runs on in this process:
/// `"avx512"` where the CPU reports AVX-512F (16 lanes on packed serving
/// weights and in the conv filter gradient, the AVX2 body elsewhere),
/// `"avx2"` where it reports AVX2,
/// `"baseline"` (the build target's own, SSE2 on x86-64) otherwise.
/// Results are bit-identical on all three; throughput is not, so hosts
/// that disagree here explain a 1.4× to 2× gap.
pub fn simd_level() -> &'static str {
    match gemm::Simd::detected() {
        gemm::Simd::Baseline => "baseline",
        #[cfg(target_arch = "x86_64")]
        gemm::Simd::Avx2 => "avx2",
        #[cfg(target_arch = "x86_64")]
        gemm::Simd::Avx512 => "avx512",
    }
}

/// Blocked matrix product `lhs × rhs` for rank-2 tensors.
///
/// Bit-identical to the oracle `naive_matmul` for every worker count;
/// see the module docs for the determinism argument.
pub fn matmul(
    pool: &WorkerPool,
    lhs: &Tensor,
    rhs: &Tensor,
) -> Result<(Tensor, KernelCost), TensorError> {
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
    matmul_epilogue_with(pool, (lhs, ALayout::RowMajor), rhs.into(), None, take)
}

/// A constant `[k, n]` right-hand GEMM operand stored in 16-column
/// panels, each k-contiguous: panel `q` holds columns `16q..16q + w` as
/// the row-major `[k, w]` matrix starting at float `16qk`, where `w` is
/// 16 for every panel but, when 16 does not divide `n`, the last. The
/// same `k * n` floats as the row-major tensor, no padding, in the order
/// the GEMM tile reads them, so multiplying by it streams B once,
/// sequentially, per worker ([`matmul_panels_with`]). One layout serves
/// every instruction set: the 16-lane tile reads a panel row as one
/// vector, the 8- and 4-lane ones as two or four.
///
/// It is not a [`Tensor`]: nothing that reads a tensor's data as
/// row-major can be handed one. [`Panels::unpack`] gives the row-major
/// tensor back, bit for bit.
#[derive(Clone)]
pub struct Panels {
    shape: [usize; 2],
    data: Vec<f32>,
}

impl Panels {
    /// Packs a rank-2 `[k, n]` tensor, in its own buffer: `scratch` holds
    /// a row-major copy meanwhile. Pass one `scratch` to every call of a
    /// run of packs, so that it is allocated once, not once per weight.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] unless `t` is rank 2.
    pub fn pack(t: Tensor, scratch: &mut Vec<f32>) -> Result<Panels, TensorError> {
        let &[k, n] = t.shape() else {
            return Err(TensorError::ShapeMismatch {
                op: "pack",
                detail: format!("{:?} (need rank 2)", t.shape()),
            });
        };
        let mut data = t.into_data();
        gemm::pack_panels(k, n, &mut data, scratch);
        Ok(Panels {
            shape: [k, n],
            data,
        })
    }

    /// The row-major `[k, n]` tensor these panels were packed from.
    pub fn unpack(&self) -> Tensor {
        let [k, n] = self.shape;
        Tensor::from_vec(&self.shape, gemm::unpack_panels(k, n, &self.data))
            .expect("k * n elements")
    }

    /// `[k, n]`, the shape of the matrix.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The matrix in row-major order, read in place: row 0's slice of
    /// every panel, left to right, then row 1's, and so on. What an
    /// exporter writes without unpacking a copy first.
    pub(crate) fn row_major(&self) -> impl Iterator<Item = &f32> {
        let [k, n] = self.shape;
        (0..k).flat_map(move |p| {
            (0..n).step_by(gemm::NR).flat_map(move |q0| {
                let w = gemm::NR.min(n - q0);
                &self.data[q0 * k + p * w..][..w]
            })
        })
    }

    /// Bytes of the matrix (no padding: the same as its tensor's).
    pub fn byte_len(&self) -> u64 {
        self.data.len() as u64 * 4
    }
}

/// The shape only: the data is not in an order a reader would expect.
impl std::fmt::Debug for Panels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Panels{:?}", self.shape)
    }
}

/// The right operand of the one matmul entry: its shape, its data and
/// how that data is laid out.
struct Rhs<'a> {
    shape: &'a [usize],
    data: &'a [f32],
    layout: BLayout,
}

impl<'a> From<&'a Tensor> for Rhs<'a> {
    fn from(t: &'a Tensor) -> Rhs<'a> {
        Rhs {
            shape: t.shape(),
            data: t.data(),
            layout: BLayout::RowMajor,
        }
    }
}

/// `lhs × rhs[ + bias[ → relu]]` with the right operand in [`Panels`]:
/// [`matmul_with`] (`epilogue = None`) or [`matmul_bias_relu_with`]
/// (`Some((bias, relu))`) on [`Panels::unpack`], bit for bit and at the
/// same [`KernelCost`], but reading B in storage order.
///
/// # Errors
///
/// Same conditions as [`matmul_bias_relu`].
pub fn matmul_panels_with(
    pool: &WorkerPool,
    lhs: &Tensor,
    rhs: &Panels,
    epilogue: Option<(&Tensor, bool)>,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    let rhs = Rhs {
        shape: &rhs.shape,
        data: &rhs.data,
        layout: BLayout::Panels,
    };
    matmul_epilogue_with(pool, (lhs, ALayout::RowMajor), rhs, epilogue, take)
}

/// The one matmul entry: shape checks, then the GEMM with the optional
/// `(bias, relu)` epilogue applied inside its work units. `lhs` comes
/// with its layout: `[m, k]`, or `[k, m]` for a stored transpose; `rhs`
/// likewise `[k, n]`, or `[n, k]`.
fn matmul_epilogue_with(
    pool: &WorkerPool,
    (lhs, layout): (&Tensor, ALayout),
    rhs: Rhs<'_>,
    epilogue: Option<(&Tensor, bool)>,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    let (&[rows, columns], &[b_rows, b_columns]) = (lhs.shape(), rhs.shape) else {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            detail: format!("{:?} × {:?} (need rank 2)", lhs.shape(), rhs.shape),
        });
    };
    let (m, k1) = match layout {
        ALayout::RowMajor => (rows, columns),
        ALayout::Transposed => (columns, rows),
    };
    let (k2, n) = match rhs.layout {
        BLayout::RowMajor | BLayout::Panels => (b_rows, b_columns),
        BLayout::Transposed => (b_columns, b_rows),
    };
    if k1 != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            detail: format!("inner dims {k1} vs {k2}"),
        });
    }
    let epilogue = checked_epilogue("fused_matmul", "columns", epilogue, n)?;
    let mut out = take(m * n);
    let cost = gemm::gemm_laid_out(
        pool,
        m,
        k1,
        n,
        (lhs.data(), layout),
        (rhs.data, rhs.layout),
        &mut out,
        epilogue,
    );
    Ok((Tensor::from_vec(&[m, n], out)?, cost))
}

/// `lhs_tᵀ × rhs` for rank-2 tensors, `lhs_t` being the `[k, m]` storage
/// of the left operand's transpose: the dense layers' weight gradient
/// `xᵀ × grad` without a transposed copy of `x` (the GEMM packs A from
/// either layout). Bit-identical to [`matmul_with`] on the materialised
/// transpose, at the same [`KernelCost`].
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] unless `lhs_t` is `[k, m]` and `rhs`
/// `[k, n]`.
pub fn matmul_lhs_t_with(
    pool: &WorkerPool,
    lhs_t: &Tensor,
    rhs: &Tensor,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    matmul_epilogue_with(pool, (lhs_t, ALayout::Transposed), rhs.into(), None, take)
}

/// `lhs × rhs_tᵀ` for rank-2 tensors, `rhs_t` being the `[n, k]` storage
/// of the right operand's transpose: the dense layers' input gradient
/// `grad × Wᵀ` read from the weight `W` itself (the GEMM gathers each
/// 16-column block of B once). Bit-identical to [`matmul_with`] on the
/// materialised transpose, at the same [`KernelCost`].
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] unless `lhs` is `[m, k]` and `rhs_t`
/// `[n, k]`.
pub fn matmul_rhs_t_with(
    pool: &WorkerPool,
    lhs: &Tensor,
    rhs_t: &Tensor,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    let rhs = Rhs {
        shape: rhs_t.shape(),
        data: rhs_t.data(),
        layout: BLayout::Transposed,
    };
    matmul_epilogue_with(pool, (lhs, ALayout::RowMajor), rhs, None, take)
}

/// 2×2, stride-2 max pooling of an NHWC tensor into a buffer from `take`
/// (odd trailing rows and columns belong to no window). A window's value
/// is its first tap that compares greater than everything before it,
/// the search starting at `-inf` — so NaN taps are skipped and an
/// all-NaN window pools to `-inf`. Bit-identical to the oracle
/// `naive_max_pool2` on every instantiation.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] unless `x` is rank 4.
pub fn max_pool2_with(x: &Tensor, take: TakeBuffer<'_>) -> Result<Tensor, TensorError> {
    maxpool::max_pool2_with(gemm::Simd::detected(), x, take)
}

/// The gradient of [`max_pool2_with`] with respect to `x`, recomputed
/// from `x` itself: each window's gradient lands on the tap that won it
/// (the first on ties; the window's first tap if none beat `-inf`), every
/// other element is `0.0`. Bit-identical to the oracle
/// `naive_max_pool2_grad` on every instantiation.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] unless `x` is rank 4 and `grad` has the
/// pooled shape.
pub fn max_pool2_grad_with(
    x: &Tensor,
    grad: &Tensor,
    take: TakeBuffer<'_>,
) -> Result<Tensor, TensorError> {
    maxpool::max_pool2_grad_with(gemm::Simd::detected(), x, grad, false, take)
}

/// The gradient of `max_pool2(relu(x))` with respect to `x`, from the
/// pooled input `y = relu(x)` itself: [`max_pool2_grad_with`] of `y`
/// followed by the ReLU's mask, bit for bit, in one pass — a winner keeps
/// its gradient only if its value is positive (`y > 0 ⟺ x > 0`).
///
/// # Errors
///
/// Same conditions as [`max_pool2_grad_with`].
pub fn max_pool2_relu_grad_with(
    y: &Tensor,
    grad: &Tensor,
    take: TakeBuffer<'_>,
) -> Result<Tensor, TensorError> {
    maxpool::max_pool2_grad_with(gemm::Simd::detected(), y, grad, true, take)
}

/// Deterministic int8 linear quantization of `data` into `values`,
/// returning the scale: `scale = max |finite v| / 127` (`0.0` when no
/// finite value is non-zero, and then every value is `0`), `values[i] =
/// clamp(round(data[i] / scale), -127, 127)` rounded half away from zero,
/// NaN to `0`. With a `residual`, also writes what the receiver will not
/// reconstruct, `data[i] - values[i] * scale`, there. Bit-identical to
/// that scalar definition, the oracle `naive_quantize_i8`, on every
/// instantiation (see the `quantize` module).
///
/// # Panics
///
/// Panics unless `values` (and `residual`) hold one element per `data`.
pub fn quantize_i8(data: &[f32], values: &mut [i8], residual: Option<&mut [f32]>) -> f32 {
    quantize::quantize_i8(gemm::Simd::detected(), data, values, residual)
}

/// Error feedback in place: `data[i] += residual[i]`, then
/// [`quantize_i8`] of the sums, whose residual replaces the old one. The
/// bits of adding first and quantizing the sum; nothing is allocated.
///
/// # Panics
///
/// Panics unless `residual` and `values` hold one element per `data`.
pub fn quantize_i8_folding(data: &mut [f32], residual: &mut [f32], values: &mut [i8]) -> f32 {
    quantize::quantize_i8_folding(gemm::Simd::detected(), data, residual, values)
}

/// Checks a fused op's bias against the `n` output columns (`what` names
/// them in the error) and lowers it to the slice form [`gemm::gemm`]
/// takes.
fn checked_epilogue<'a>(
    op: &'static str,
    what: &str,
    epilogue: Option<(&'a Tensor, bool)>,
    n: usize,
) -> Result<Option<(&'a [f32], bool)>, TensorError> {
    match epilogue {
        Some((bias, _)) if bias.shape() != [n] => Err(TensorError::ShapeMismatch {
            op,
            detail: format!("bias {:?} vs {what} {n}", bias.shape()),
        }),
        other => Ok(other.map(|(bias, relu)| (bias.data(), relu))),
    }
}

/// Fused `lhs × rhs + bias[ → relu]`: the GEMM of [`matmul`] with the
/// bias/relu epilogue applied by each worker to its own part of the
/// output, so the pre-bias and pre-relu intermediates never materialize
/// and no second dispatch is paid. Bit-identical to the unfused
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
    matmul_epilogue_with(
        pool,
        (lhs, ALayout::RowMajor),
        rhs.into(),
        Some((bias, relu)),
        take,
    )
}

/// Fused `conv2d + bias[ → relu]` with caller-provided scratch and output
/// buffer: [`conv2d_with`]'s direct kernel with the per-channel bias/relu
/// epilogue applied as each tile is stored. Bit-identical to the
/// unfused `conv2d → add_bias → relu` op sequence for any worker count.
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
    conv::conv2d_with(pool, ws, input, filter, padding, Some((bias, relu)), take)
}

/// Direct forward convolution (NHWC input, `[kh,kw,cin,cout]` filter)
/// over a zero-padded, channel-planar copy of the image, at the
/// [`KernelCost`] of the `[positions, patch] × [patch, cout]` GEMM it
/// replaced. Bit-identical to the oracle `naive_conv2d`.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] unless `input` is NHWC, `filter` is
/// `[kh, kw, cin, cout]` with the input's `cin` and `kh, kw >= 1`, and —
/// under `Valid` padding — the kernel fits inside the image.
pub fn conv2d(
    pool: &WorkerPool,
    input: &Tensor,
    filter: &Tensor,
    padding: Padding,
) -> Result<(Tensor, KernelCost), TensorError> {
    conv::conv2d(pool, input, filter, padding)
}

/// [`conv2d`] with caller-provided scratch (`ws` holds the padded image)
/// and output buffer (`take`). Bit-identical to [`conv2d`].
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
    conv::conv2d_with(pool, ws, input, filter, padding, None, take)
}

/// Backward convolution: `(grad_input, grad_filter, cost)` — both of
/// [`conv2d_grad_filter`] and [`conv2d_grad_input`]. Bit-identical to
/// the oracle `naive_conv2d_grad`.
pub fn conv2d_grad(
    pool: &WorkerPool,
    input: &Tensor,
    filter: &Tensor,
    grad: &Tensor,
    padding: Padding,
) -> Result<(Tensor, Tensor, KernelCost), TensorError> {
    conv::conv2d_grad(pool, input, filter, grad, padding)
}

/// [`conv2d_grad`] with caller-provided scratch (`ws` holds the padded
/// image and the `gcol` matrix) and output buffers (`take` supplies
/// `grad_input` and `grad_filter`). Bit-identical to [`conv2d_grad`].
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

/// The filter half of [`conv2d_grad_with`] alone: a direct kernel over
/// the padded image, vectorised over `cout`, at the [`KernelCost`] of the
/// `[patch, positions] × [positions, cout]` GEMM it replaced. The
/// filter's values are not read, only its shape. Bit-identical to the
/// filter gradient of the oracle `naive_conv2d_grad`.
///
/// # Errors
///
/// Same conditions as [`conv2d_grad`].
pub fn conv2d_grad_filter(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input: &Tensor,
    filter_shape: &[usize],
    grad: &Tensor,
    padding: Padding,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    conv::conv2d_grad_filter(pool, ws, input, filter_shape, grad, padding, take)
}

/// The input half of [`conv2d_grad_with`] alone: one GEMM,
/// `grad × filterᵀ`, and the `col2im` scatter. The input's values are
/// not read, only its shape. Bit-identical to the input gradient of
/// the oracle `naive_conv2d_grad`.
///
/// # Errors
///
/// Same conditions as [`conv2d_grad`].
pub fn conv2d_grad_input(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input_shape: &[usize],
    filter: &Tensor,
    grad: &Tensor,
    padding: Padding,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    conv::conv2d_grad_input(pool, ws, input_shape, filter, grad, padding, take)
}

#[cfg(test)]
#[path = "../../tests/oracle/kernels.rs"]
mod oracle;
