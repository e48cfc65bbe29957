//! im2col + GEMM convolution, forward and backward.
//!
//! The forward pass lowers NHWC convolution to one matrix product: the
//! `[positions, patch]` column matrix (one row per output position, one
//! column per `(ky, kx, ci)` filter tap, **explicit zeros** for `Same`
//! padding) times the `[patch, cout]` filter — the filter's natural
//! row-major layout. The backward pass is two more GEMM-shaped products
//! (`gf = colsᵀ × grad`, `gcol = grad × filterᵀ`) plus a `col2im`
//! scatter, each parallelized over disjoint output ranges.
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

/// Validates shapes and resolves output/padding geometry.
pub(crate) fn geometry(input: &Tensor, filter: &Tensor, padding: Padding) -> Result<Geometry, TensorError> {
    let &[b, h, w, cin] = input.shape() else {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            detail: format!("input {:?} (need NHWC)", input.shape()),
        });
    };
    let &[kh, kw, fcin, cout] = filter.shape() else {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            detail: format!("filter {:?} (need [kh,kw,cin,cout])", filter.shape()),
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
/// per output position, parallel over position rows (pure copies, no
/// arithmetic). The buffer is resized and re-zeroed here, so padded taps
/// stay `0.0` regardless of what a previous call left behind.
fn im2col<'a>(pool: &WorkerPool, g: &Geometry, input: &[f32], ws: &'a mut Workspace) -> &'a [f32] {
    ws.cols.clear();
    ws.cols.resize(g.positions * g.patch, 0.0);
    im2col_into(pool, g, input, &mut ws.cols[..]);
    &ws.cols[..]
}

/// [`im2col`] writing into a pre-sized, pre-zeroed `cols` slice.
fn im2col_into(pool: &WorkerPool, g: &Geometry, input: &[f32], cols: &mut [f32]) {
    if cols.is_empty() {
        return;
    }
    let (h, w, cin, oh, ow, ph, pw, kh, kw) = (g.h, g.w, g.cin, g.oh, g.ow, g.ph, g.pw, g.kh, g.kw);
    pool.run_on_blocks(cols, g.patch, &|p, row| {
        let ox = p % ow;
        let rest = p / ow;
        let oy = rest % oh;
        let bi = rest / oh;
        for ky in 0..kh {
            let iy = (oy + ky) as isize - ph as isize;
            if iy < 0 || iy >= h as isize {
                continue; // row is pre-zeroed: padding stays 0.0
            }
            for kx in 0..kw {
                let ix = (ox + kx) as isize - pw as isize;
                if ix < 0 || ix >= w as isize {
                    continue;
                }
                let dst = (ky * kw + kx) * cin;
                let src = ((bi * h + iy as usize) * w + ix as usize) * cin;
                row[dst..dst + cin].copy_from_slice(&input[src..src + cin]);
            }
        }
    });
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
    let g = geometry(input, filter, padding)?;
    let epilogue = super::checked_epilogue("fused_conv2d", "channels", epilogue, g.cout)?;
    let mut out = take(g.positions * g.cout);
    let cols = im2col(pool, &g, input.data(), ws);
    // Per output element (p, co): reduction over patch index increasing —
    // i.e. (ky, kx, ci) lexicographic, padded taps included as 0.0.
    let cost = gemm::gemm(pool, g.positions, g.patch, g.cout, cols, filter.data(), &mut out, epilogue);
    Ok((Tensor::from_vec(&[g.b, g.oh, g.ow, g.cout], out)?, cost))
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

/// Backward convolution with caller-provided scratch and output buffers.
pub(super) fn conv2d_grad_with(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input: &Tensor,
    filter: &Tensor,
    grad: &Tensor,
    padding: Padding,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, Tensor, KernelCost), TensorError> {
    let g = geometry(input, filter, padding)?;
    if grad.shape() != [g.b, g.oh, g.ow, g.cout] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad",
            detail: format!("grad {:?} vs output {:?}", grad.shape(), [g.b, g.oh, g.ow, g.cout]),
        });
    }
    let mut gf = take(g.patch * g.cout);
    let mut gi = take(input.len());
    // `cols` and `gcol` live in distinct workspace fields; destructure so
    // both can be borrowed at once.
    let Workspace { cols: cols_buf, gcol, .. } = ws;
    cols_buf.clear();
    cols_buf.resize(g.positions * g.patch, 0.0);
    im2col_into(pool, &g, input.data(), &mut cols_buf[..]);
    let cols = &cols_buf[..];
    let gdata = grad.data();
    let fdata = filter.data();
    let (patch, positions, cout) = (g.patch, g.positions, g.cout);
    let gemm_flops = 2.0 * positions as f64 * patch as f64 * cout as f64;
    let mut cost = KernelCost::default();

    // gf = colsᵀ × grad, [patch, cout]; parallel over patch rows. Per
    // element (kk, co) the reduction runs over positions increasing,
    // each term cols-value-first — the order the serial scalar loop used.
    pool.run_on_blocks(&mut gf, cout, &|kk, gf_row| {
        for p in 0..positions {
            let cv = cols[p * patch + kk];
            let grow = &gdata[p * cout..(p + 1) * cout];
            for (o, &gv) in gf_row.iter_mut().zip(grow) {
                *o += cv * gv;
            }
        }
    });
    cost.merge(stage_cost(gemm_flops, patch, pool.workers()));

    // gcol = grad × filterᵀ, [positions, patch]; parallel over position
    // rows. Each element is one dot product over cout increasing
    // (grad-value-first), entirely within one worker.
    gcol.clear();
    gcol.resize(positions * patch, 0.0);
    let gcol = &mut gcol[..];
    pool.run_on_blocks(gcol, patch, &|p, row| {
        let grow = &gdata[p * cout..(p + 1) * cout];
        for (kk, o) in row.iter_mut().enumerate() {
            let frow = &fdata[kk * cout..(kk + 1) * cout];
            let mut acc = 0.0f32;
            for (&gv, &fv) in grow.iter().zip(frow) {
                acc += gv * fv;
            }
            *o = acc;
        }
    });
    cost.merge(stage_cost(gemm_flops, positions, pool.workers()));
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

    let gi = Tensor::from_vec(input.shape(), gi)?;
    let gf = Tensor::from_vec(filter.shape(), gf)?;
    Ok((gi, gf, cost))
}
