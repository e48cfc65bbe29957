//! The tensor crate's kernel oracles: the naive scalar loops the
//! blocked, vectorised and pooled kernels are tested — and benchmarked —
//! against. They are the simplest possible loops, written so their
//! per-element reduction order and operand order are *exactly* the ones
//! the production kernels commit to: no zero-skips, no blocking, no
//! threads.
//!
//! They live in the test tree, so the product carries one implementation
//! of each kernel. The crate's unit tests, `tests/properties.rs` and the
//! `kernels` bench binary each include this one copy with `#[path]`; it
//! names the crate's types as `securetf_tensor::..` (the unit tests alias
//! the crate to that name). A subdirectory, so it is no test target of
//! its own.

use securetf_tensor::graph::Padding;
use securetf_tensor::tensor::Tensor;
use securetf_tensor::TensorError;

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
    let g = geometry(input.shape(), filter.shape(), padding)?;
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
    let g = geometry(input.shape(), filter.shape(), padding)?;
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

/// The scalar int8 quantizer `kernels::quantize_i8` replaced:
/// `(scale, values, residual)` of `data`. It calls libm's rounding on
/// purpose — that is the definition.
pub fn naive_quantize_i8(data: &[f32]) -> (f32, Vec<i8>, Vec<f32>) {
    let max_abs = data
        .iter()
        .filter(|v| v.is_finite())
        .fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = max_abs / 127.0;
    let live = max_abs != 0.0;
    let values: Vec<i8> = data
        .iter()
        .map(|&v| {
            if live {
                f32::round(v / scale).clamp(-127.0, 127.0) as i8
            } else {
                0
            }
        })
        .collect();
    let residual = data
        .iter()
        .zip(&values)
        .map(|(&v, &q)| v - q as f32 * scale)
        .collect();
    (scale, values, residual)
}

/// A convolution's dimensions, checked as the kernels check them.
struct Geometry {
    b: usize,
    h: usize,
    w: usize,
    cin: usize,
    kh: usize,
    kw: usize,
    cout: usize,
    oh: usize,
    ow: usize,
    /// Top/left padding offsets.
    ph: usize,
    pw: usize,
    /// Output positions: `b * oh * ow`.
    positions: usize,
}

fn geometry(input: &[usize], filter: &[usize], padding: Padding) -> Result<Geometry, TensorError> {
    let mismatch = |detail: String| TensorError::ShapeMismatch {
        op: "conv2d",
        detail,
    };
    let &[b, h, w, cin] = input else {
        return Err(mismatch(format!("input {input:?} (need NHWC)")));
    };
    let &[kh, kw, fcin, cout] = filter else {
        return Err(mismatch(format!(
            "filter {filter:?} (need [kh,kw,cin,cout])"
        )));
    };
    if fcin != cin {
        return Err(mismatch(format!("input channels {cin} vs filter {fcin}")));
    }
    if kh == 0 || kw == 0 {
        return Err(mismatch(format!(
            "filter {filter:?} has an empty {kh}x{kw} kernel"
        )));
    }
    let (oh, ow, ph, pw) = match padding {
        Padding::Same => (h, w, (kh - 1) / 2, (kw - 1) / 2),
        Padding::Valid => {
            if h < kh || w < kw {
                return Err(mismatch(format!(
                    "input {h}x{w} smaller than kernel {kh}x{kw}"
                )));
            }
            (h - kh + 1, w - kw + 1, 0, 0)
        }
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
        positions: b * oh * ow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Hand-computed, so a later edit to an oracle cannot silently move
    // the contract the kernels are held to.
    #[test]
    fn naive_matmul_computes_a_2x3x2_product_by_hand() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        assert_eq!(naive_matmul(2, 3, 2, &a, &b), [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn naive_max_pool2_gives_a_tie_to_the_first_tap() {
        let x = Tensor::from_vec(&[1, 2, 2, 1], vec![3.0, 5.0, 5.0, 1.0]).unwrap();
        let (pooled, indices) = naive_max_pool2(&x).unwrap();
        assert_eq!(pooled.shape(), [1, 1, 1, 1]);
        assert_eq!(pooled.data(), [5.0]);
        assert_eq!(indices, [1]);
        let grad = Tensor::from_vec(&[1, 1, 1, 1], vec![2.0]).unwrap();
        let gx = naive_max_pool2_grad(&x, &grad).unwrap();
        assert_eq!(gx.data(), [0.0, 2.0, 0.0, 0.0]);
    }
}
