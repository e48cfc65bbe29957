//! Naive scalar reference kernels.
//!
//! These are the ground truth the blocked/parallel kernels are tested —
//! and benchmarked — against: the simplest possible loops, written so
//! their per-element reduction order and operand order are *exactly* the
//! ones the production kernels commit to. No zero-skips, no blocking, no
//! threads. Kept `pub` so the bench binaries can time them.

use crate::graph::Padding;
use crate::tensor::Tensor;
use crate::TensorError;

/// Naive row-major `C = A × B` for `A [m,k]`, `B [k,n]`.
///
/// Per output element the reduction runs over `p = 0..k` increasing,
/// each term A-value-first (`a * b`) — the contract every blocked and
/// pooled variant must match bit-for-bit.
pub fn naive_matmul(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let av = a[i * k + p];
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in crow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    c
}

/// Naive NHWC forward convolution.
///
/// Padded taps contribute `0.0 * filter` (they are not skipped), so
/// non-finite filter values propagate through `Same` padding exactly as
/// through the direct kernel's padded image; the per-element reduction
/// is `(ky, kx, ci)` lexicographic, input-value-first.
pub fn naive_conv2d(
    input: &Tensor,
    filter: &Tensor,
    padding: Padding,
) -> Result<Tensor, TensorError> {
    let g = super::conv::geometry(input.shape(), filter.shape(), padding)?;
    let idata = input.data();
    let fdata = filter.data();
    let mut out = vec![0.0f32; g.positions * g.cout];
    for bi in 0..g.b {
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                let obase = ((bi * g.oh + oy) * g.ow + ox) * g.cout;
                for ky in 0..g.kh {
                    let iy = (oy + ky) as isize - g.ph as isize;
                    for kx in 0..g.kw {
                        let ix = (ox + kx) as isize - g.pw as isize;
                        let inside = iy >= 0 && iy < g.h as isize && ix >= 0 && ix < g.w as isize;
                        let ibase = if inside {
                            ((bi * g.h + iy as usize) * g.w + ix as usize) * g.cin
                        } else {
                            0
                        };
                        for ci in 0..g.cin {
                            let iv = if inside { idata[ibase + ci] } else { 0.0 };
                            let fbase = ((ky * g.kw + kx) * g.cin + ci) * g.cout;
                            for co in 0..g.cout {
                                out[obase + co] += iv * fdata[fbase + co];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(&[g.b, g.oh, g.ow, g.cout], out)
}

/// Naive NHWC convolution backward pass: `(grad_input, grad_filter)`.
///
/// Orders mirror the production stages: the filter gradient accumulates
/// over positions increasing with input-value-first terms (`iv * g`,
/// padded taps included as zeros), and the input gradient accumulates a
/// per-tap dot over `co` increasing with grad-value-first terms
/// (`g * f`), scattered in `(oy, ox)`-major order.
pub fn naive_conv2d_grad(
    input: &Tensor,
    filter: &Tensor,
    grad: &Tensor,
    padding: Padding,
) -> Result<(Tensor, Tensor), TensorError> {
    let g = super::conv::geometry(input.shape(), filter.shape(), padding)?;
    if grad.shape() != [g.b, g.oh, g.ow, g.cout] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad",
            detail: format!(
                "grad {:?} vs output {:?}",
                grad.shape(),
                [g.b, g.oh, g.ow, g.cout]
            ),
        });
    }
    let idata = input.data();
    let fdata = filter.data();
    let gdata = grad.data();
    let mut gi = vec![0.0f32; input.len()];
    let mut gf = vec![0.0f32; filter.len()];
    for bi in 0..g.b {
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                let obase = ((bi * g.oh + oy) * g.ow + ox) * g.cout;
                for ky in 0..g.kh {
                    let iy = (oy + ky) as isize - g.ph as isize;
                    for kx in 0..g.kw {
                        let ix = (ox + kx) as isize - g.pw as isize;
                        let inside = iy >= 0 && iy < g.h as isize && ix >= 0 && ix < g.w as isize;
                        let ibase = if inside {
                            ((bi * g.h + iy as usize) * g.w + ix as usize) * g.cin
                        } else {
                            0
                        };
                        for ci in 0..g.cin {
                            let iv = if inside { idata[ibase + ci] } else { 0.0 };
                            let fbase = ((ky * g.kw + kx) * g.cin + ci) * g.cout;
                            let mut gsum = 0.0f32;
                            for co in 0..g.cout {
                                let gv = gdata[obase + co];
                                gsum += gv * fdata[fbase + co];
                                gf[fbase + co] += iv * gv;
                            }
                            if inside {
                                gi[ibase + ci] += gsum;
                            }
                        }
                    }
                }
            }
        }
    }
    Ok((
        Tensor::from_vec(input.shape(), gi)?,
        Tensor::from_vec(filter.shape(), gf)?,
    ))
}

/// Naive 2×2, stride-2 NHWC max pooling: the pooled tensor and, per
/// output element, the flat index of the input element that won it.
///
/// The search starts at `-inf` and a tap wins only if it compares
/// greater, so the first of equal taps wins, NaN taps are skipped, and a
/// window no tap of which beats `-inf` (all NaN or `-inf`) pools to
/// `-inf` and routes to its own first tap.
pub fn naive_max_pool2(x: &Tensor) -> Result<(Tensor, Vec<usize>), TensorError> {
    let &[b, h, w, c] = x.shape() else {
        return Err(TensorError::ShapeMismatch {
            op: "max_pool2",
            detail: format!("{:?} (need NHWC)", x.shape()),
        });
    };
    let (oh, ow) = (h / 2, w / 2);
    let n = b * oh * ow * c;
    let mut out = vec![0.0f32; n];
    let mut indices = vec![0usize; n];
    let xd = x.data();
    for bi in 0..b {
        for oy in 0..oh {
            for ox in 0..ow {
                for ci in 0..c {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = ((bi * h + oy * 2) * w + ox * 2) * c + ci;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let iy = oy * 2 + dy;
                            let ix = ox * 2 + dx;
                            let idx = ((bi * h + iy) * w + ix) * c + ci;
                            if xd[idx] > best {
                                best = xd[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let oidx = ((bi * oh + oy) * ow + ox) * c + ci;
                    out[oidx] = best;
                    indices[oidx] = best_idx;
                }
            }
        }
    }
    Ok((Tensor::from_vec(&[b, oh, ow, c], out)?, indices))
}

/// Naive max-pool backward: re-runs [`naive_max_pool2`] for the routing
/// indices and scatters `grad` through them into a zeroed tensor of
/// `x`'s shape (`gx[index] += g`, so a `-0.0` gradient lands as `0.0`).
pub fn naive_max_pool2_grad(x: &Tensor, grad: &Tensor) -> Result<Tensor, TensorError> {
    let (pooled, indices) = naive_max_pool2(x)?;
    if grad.shape() != pooled.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "max_pool2_grad",
            detail: format!("grad {:?} vs output {:?}", grad.shape(), pooled.shape()),
        });
    }
    let mut gx = vec![0.0f32; x.len()];
    for (&src, &g) in indices.iter().zip(grad.data()) {
        gx[src] += g;
    }
    Tensor::from_vec(x.shape(), gx)
}
