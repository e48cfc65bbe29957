//! im2col + GEMM convolution, forward and backward.
//!
//! The forward pass lowers NHWC convolution to one matrix product: the
//! `[positions, patch]` column matrix (one row per output position, one
//! column per `(ky, kx, ci)` filter tap, **explicit zeros** for `Same`
//! padding) times the `[patch, cout]` filter — the filter's natural
//! row-major layout. The backward pass is two independent kernels, each
//! one more product on the same GEMM: the filter gradient
//! `gf = colsᵀ × grad` over a *transposed* im2col (one row per tap,
//! written directly, never transposed in memory), and the input gradient
//! `gcol = grad × filterᵀ` followed by a `col2im` scatter. A caller that
//! needs only one of the two gradients runs only that kernel.
//!
//! Per-element reduction orders are fixed (documented on each stage), so
//! all three stages are bit-identical to their serial and naive
//! reference counterparts. Note the *semantics*: padded taps participate
//! arithmetically as `0.0` operands (so a NaN/Inf filter tap propagates
//! through padding), unlike a bounds-skip.

use super::gemm;
use super::pool::{self, WorkerPool};
use super::{KernelCost, TakeBuffer, Workspace};
use crate::graph::Padding;
use crate::tensor::Tensor;
use crate::TensorError;

/// Resolved shapes of one convolution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    pub b: usize,
    pub h: usize,
    pub w: usize,
    pub cin: usize,
    pub kh: usize,
    pub kw: usize,
    pub cout: usize,
    pub oh: usize,
    pub ow: usize,
    /// Top/left padding offsets.
    pub ph: usize,
    pub pw: usize,
    /// Column-matrix width: `kh * kw * cin`.
    pub patch: usize,
    /// Column-matrix height: `b * oh * ow`.
    pub positions: usize,
}

/// Validates shapes and resolves output/padding geometry. Takes shapes,
/// not tensors: each backward kernel has the value of one operand only.
pub(crate) fn geometry(input: &[usize], filter: &[usize], padding: Padding) -> Result<Geometry, TensorError> {
    let &[b, h, w, cin] = input else {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            detail: format!("input {input:?} (need NHWC)"),
        });
    };
    let &[kh, kw, fcin, cout] = filter else {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            detail: format!("filter {filter:?} (need [kh,kw,cin,cout])"),
        });
    };
    if fcin != cin {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            detail: format!("input channels {cin} vs filter {fcin}"),
        });
    }
    let (oh, ow) = match padding {
        Padding::Same => (h, w),
        Padding::Valid => {
            if h < kh || w < kw {
                return Err(TensorError::ShapeMismatch {
                    op: "conv2d",
                    detail: format!("input {h}x{w} smaller than kernel {kh}x{kw}"),
                });
            }
            (h - kh + 1, w - kw + 1)
        }
    };
    let (ph, pw) = match padding {
        Padding::Same => ((kh - 1) / 2, (kw - 1) / 2),
        Padding::Valid => (0, 0),
    };
    Ok(Geometry {
        b,
        h,
        w,
        cin,
        kh,
        kw,
        cout,
        oh,
        ow,
        ph,
        pw,
        patch: kh * kw * cin,
        positions: b * oh * ow,
    })
}

/// Builds the `[positions, patch]` column matrix into `ws.cols`, one row
/// per output position, parallel over output rows (pure copies, no
/// arithmetic). The buffer is resized and re-zeroed here, so padded taps
/// stay `0.0` regardless of what a previous call left behind.
///
/// The taps of one kernel row that fall inside the image are neighbours
/// in the input too (NHWC), so each `(position, ky)` is one copy of
/// `(kx1 - kx0) * cin` floats, not `kw` copies of `cin`.
fn im2col<'a>(pool: &WorkerPool, g: &Geometry, input: &[f32], ws: &'a mut Workspace) -> &'a [f32] {
    ws.cols.clear();
    ws.cols.resize(g.positions * g.patch, 0.0);
    let (h, w, cin, oh, ow, ph, pw, kh, kw, patch) = (g.h, g.w, g.cin, g.oh, g.ow, g.ph, g.pw, g.kh, g.kw, g.patch);
    // One block per output row `(bi, oy)`: its `ow` position rows.
    pool.run_on_blocks(&mut ws.cols, ow * patch, &|r, rows| {
        let (bi, oy) = (r / oh, r % oh);
        // Kernel rows inside the image; the others stay 0.0.
        let ky0 = ph.saturating_sub(oy);
        let ky1 = kh.min((h + ph).saturating_sub(oy));
        for (ox, row) in rows.chunks_exact_mut(patch).enumerate() {
            // Likewise the kernel columns: `kx0 < kx1` for every `ox < ow`.
            let kx0 = pw.saturating_sub(ox);
            let kx1 = kw.min(w + pw - ox);
            let run = (kx1 - kx0) * cin;
            for ky in ky0..ky1 {
                let src = ((bi * h + oy + ky - ph) * w + ox + kx0 - pw) * cin;
                row[(ky * kw + kx0) * cin..][..run].copy_from_slice(&input[src..src + run]);
            }
        }
    });
    &ws.cols[..]
}

/// Builds the transposed column matrix `colsᵀ [patch, positions]` into
/// `ws.cols`: one row per `(ky, kx, ci)` tap, holding for every output
/// position the input value that tap reads there (`0.0` where it reads
/// padding). A row is the input's channel plane `ci` shifted by
/// `(ky - ph, kx - pw)`, so for `cin == 1` it is one contiguous copy per
/// image row. Parallel over tap rows; same values as [`im2col`].
fn im2col_transposed<'a>(pool: &WorkerPool, g: &Geometry, input: &[f32], ws: &'a mut Workspace) -> &'a [f32] {
    ws.cols.clear();
    ws.cols.resize(g.patch * g.positions, 0.0);
    let (b, h, w, cin, oh, ow, ph, pw, kw) = (g.b, g.h, g.w, g.cin, g.oh, g.ow, g.ph, g.pw, g.kw);
    pool.run_on_blocks(&mut ws.cols, g.positions, &|kk, row| {
        let ci = kk % cin;
        let kx = kk / cin % kw;
        let ky = kk / cin / kw;
        // Output rows and columns whose tap lands inside the image; for a
        // kernel wider than the image some taps only ever read padding.
        let (oy0, oy1) = (ph.saturating_sub(ky), oh.min((h + ph).saturating_sub(ky)));
        let (ox0, ox1) = (pw.saturating_sub(kx), ow.min((w + pw).saturating_sub(kx)));
        if ox0 >= ox1 {
            return;
        }
        for bi in 0..b {
            for oy in oy0..oy1 {
                let dst = &mut row[(bi * oh + oy) * ow..][ox0..ox1];
                let src = &input[((bi * h + oy + ky - ph) * w + ox0 + kx - pw) * cin + ci..];
                if cin == 1 {
                    dst.copy_from_slice(&src[..dst.len()]);
                } else {
                    for (d, s) in dst.iter_mut().zip(src.iter().step_by(cin)) {
                        *d = *s;
                    }
                }
            }
        }
    });
    &ws.cols[..]
}

/// Critical path of `flops` split into `blocks` equal work units.
fn stage_cost(flops: f64, blocks: usize, workers: usize) -> KernelCost {
    let critical_flops = if blocks == 0 {
        0.0
    } else {
        flops * pool::critical_units(blocks, workers) as f64 / blocks as f64
    };
    KernelCost { flops, critical_flops }
}

/// Forward convolution. Returns `[b, oh, ow, cout]` and the cost.
pub(super) fn conv2d(
    pool: &WorkerPool,
    input: &Tensor,
    filter: &Tensor,
    padding: Padding,
) -> Result<(Tensor, KernelCost), TensorError> {
    let mut ws = Workspace::new();
    conv2d_with(pool, &mut ws, input, filter, padding, None, &mut |len| {
        vec![0.0f32; len]
    })
}

/// Forward convolution with caller-provided scratch and output buffer,
/// and the fused ops' optional per-channel `(bias, relu)` epilogue.
pub(super) fn conv2d_with(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input: &Tensor,
    filter: &Tensor,
    padding: Padding,
    epilogue: Option<(&Tensor, bool)>,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    let g = geometry(input.shape(), filter.shape(), padding)?;
    let epilogue = super::checked_epilogue("fused_conv2d", "channels", epilogue, g.cout)?;
    let mut out = take(g.positions * g.cout);
    let cols = im2col(pool, &g, input.data(), ws);
    // Per output element (p, co): reduction over patch index increasing —
    // i.e. (ky, kx, ci) lexicographic, padded taps included as 0.0.
    let cost = gemm::gemm(pool, g.positions, g.patch, g.cout, cols, filter.data(), &mut out, epilogue);
    Ok((Tensor::from_vec(&[g.b, g.oh, g.ow, g.cout], out)?, cost))
}

/// The backward kernels' check of the incoming gradient against the
/// forward output's shape.
fn check_grad(g: &Geometry, grad: &Tensor) -> Result<(), TensorError> {
    let output = [g.b, g.oh, g.ow, g.cout];
    if grad.shape() == output {
        Ok(())
    } else {
        Err(TensorError::ShapeMismatch {
            op: "conv2d_grad",
            detail: format!("grad {:?} vs output {output:?}", grad.shape()),
        })
    }
}

/// Filter gradient `gf [patch, cout] = colsᵀ [patch, positions] × grad
/// [positions, cout]`. Reads the input's values and the filter's shape
/// only.
pub(super) fn conv2d_grad_filter(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input: &Tensor,
    filter_shape: &[usize],
    grad: &Tensor,
    padding: Padding,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    let g = geometry(input.shape(), filter_shape, padding)?;
    check_grad(&g, grad)?;
    let mut gf = take(g.patch * g.cout);
    let cols_t = im2col_transposed(pool, &g, input.data(), ws);
    // Per element (kk, co): reduction over positions increasing from a
    // zeroed accumulator, each term input-value-first (`iv * gv`), padded
    // taps included as 0.0 — `naive_conv2d_grad`'s order for `gf`.
    let cost = gemm::gemm(pool, g.patch, g.positions, g.cout, cols_t, grad.data(), &mut gf, None);
    Ok((Tensor::from_vec(filter_shape, gf)?, cost))
}

/// Input gradient: `gcol [positions, patch] = grad [positions, cout] ×
/// filterᵀ [cout, patch]`, then the `col2im` scatter. Reads the filter's
/// values and the input's shape only.
pub(super) fn conv2d_grad_input(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input_shape: &[usize],
    filter: &Tensor,
    grad: &Tensor,
    padding: Padding,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    let g = geometry(input_shape, filter.shape(), padding)?;
    check_grad(&g, grad)?;
    let (patch, positions, cout) = (g.patch, g.positions, g.cout);
    let mut gi = take(g.b * g.h * g.w * g.cin);
    // The col2im scatter below accumulates.
    gi.fill(0.0);
    // `filter_t` and `gcol` are written whole before they are read, so
    // only what a resize appends is ever filled.
    let Workspace { gcol, filter_t, .. } = ws;
    filter_t.resize(cout * patch, 0.0);
    for (kk, taps) in filter.data().chunks_exact(cout.max(1)).enumerate() {
        for (co, &v) in taps.iter().enumerate() {
            filter_t[co * patch + kk] = v;
        }
    }
    gcol.resize(positions * patch, 0.0);
    // Per element (p, kk): one dot product over `co` increasing from a
    // zeroed accumulator, grad-value-first (`gv * fv`) —
    // `naive_conv2d_grad`'s `gsum`.
    let mut cost = gemm::gemm(pool, positions, cout, patch, grad.data(), filter_t, gcol, None);
    let gcol = &gcol[..];

    // col2im scatter, parallel over batches (batch slices of gi are
    // disjoint). Per gi element, contributions arrive in (oy, ox)-major,
    // (ky, kx, ci)-minor order — matching the serial scalar loop; padded
    // gcol entries fall outside the input and are dropped.
    let per_batch = g.h * g.w * g.cin;
    let (h, w, cin, oh, ow, ph, pw, kh, kw) = (g.h, g.w, g.cin, g.oh, g.ow, g.ph, g.pw, g.kh, g.kw);
    pool.run_on_blocks(&mut gi, per_batch.max(1), &|bi, gi_b| {
        for oy in 0..oh {
            for ox in 0..ow {
                let p = (bi * oh + oy) * ow + ox;
                let prow = &gcol[p * patch..(p + 1) * patch];
                for ky in 0..kh {
                    let iy = (oy + ky) as isize - ph as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kw {
                        let ix = (ox + kx) as isize - pw as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let dst = ((iy as usize) * w + ix as usize) * cin;
                        let src = (ky * kw + kx) * cin;
                        for ci in 0..cin {
                            gi_b[dst + ci] += prow[src + ci];
                        }
                    }
                }
            }
        }
    });
    cost.merge(stage_cost(positions as f64 * patch as f64, g.b, pool.workers()));
    Ok((Tensor::from_vec(input_shape, gi)?, cost))
}

/// Backward convolution: gradients w.r.t. input and filter.
pub(super) fn conv2d_grad(
    pool: &WorkerPool,
    input: &Tensor,
    filter: &Tensor,
    grad: &Tensor,
    padding: Padding,
) -> Result<(Tensor, Tensor, KernelCost), TensorError> {
    let mut ws = Workspace::new();
    conv2d_grad_with(pool, &mut ws, input, filter, grad, padding, &mut |len| {
        vec![0.0f32; len]
    })
}

/// Backward convolution with caller-provided scratch and output buffers:
/// both kernels, one after the other.
pub(super) fn conv2d_grad_with(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input: &Tensor,
    filter: &Tensor,
    grad: &Tensor,
    padding: Padding,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, Tensor, KernelCost), TensorError> {
    let (gf, mut cost) = conv2d_grad_filter(pool, ws, input, filter.shape(), grad, padding, take)?;
    let (gi, input_cost) = conv2d_grad_input(pool, ws, input.shape(), filter, grad, padding, take)?;
    cost.merge(input_cost);
    Ok((gi, gf, cost))
}
