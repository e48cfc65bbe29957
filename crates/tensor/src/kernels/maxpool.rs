//! 2×2, stride-2 max pooling over NHWC tensors, forward and backward.
//!
//! In NHWC the four taps of a window are four runs of `c` contiguous
//! floats, and a window's channels do not interact, so the one body
//! ([`winners`]) works on `L` channels at a time as plain `[f32; L]` /
//! `[u32; L]` arrays the compiler turns into compare-and-blend vector
//! code: no intrinsics, the same source at 4 lanes (the build's baseline
//! target), at 8 under `target_feature(enable = "avx2")` — chosen through
//! the GEMM's [`Simd`] seam, which runs the AVX2 body on an AVX-512 CPU
//! too — and at `L = 1` for the `c % L` channels left over.
//!
//! **Semantics are the scalar loop's, exactly** (`naive_max_pool2` in
//! `tests/oracle/kernels.rs`): a window's search starts at `-inf`, taps
//! are visited `(dy, dx)` = `(0,0) (0,1) (1,0) (1,1)` and a tap wins only
//! if it compares *greater* — so the first of equal taps wins, a NaN
//! never does, and a window with no tap above `-inf` pools to `-inf` and
//! routes its gradient to its own first tap.
//!
//! The backward pass keeps no record of the forward one. It recomputes
//! each window's winning tap from `x` in registers and writes all four
//! taps of the window — the gradient on the winner (as `0.0 + g`, what
//! accumulating into a zeroed buffer produced), `0.0` on the others — so
//! every element of the result is written exactly once and nothing is
//! zero-filled first, except the odd trailing row or column that belongs
//! to no window.
//!
//! Where the pooled tensor is a ReLU's output `y` and nothing else reads
//! it, the backward also applies the ReLU's mask ([`max_pool2_grad_with`]
//! with `relu_mask`): the winner keeps its gradient only if its value is
//! positive. `y = max(x, 0)` gives `y > 0 ⟺ x > 0`, so that is the
//! ReLU rule's own test, and a masked winner is `0.0 + g` or `0.0`,
//! exactly what routing and then masking wrote — in one pass over the
//! input instead of two.

use super::gemm::Simd;
use super::TakeBuffer;
use crate::tensor::Tensor;
use crate::TensorError;

/// Shapes of one pooling: input `[b, h, w, c]`, output `[b, oh, ow, c]`.
#[derive(Debug, Clone, Copy)]
struct Dims {
    b: usize,
    h: usize,
    w: usize,
    c: usize,
    oh: usize,
    ow: usize,
}

impl Dims {
    fn of(x: &Tensor) -> Result<Dims, TensorError> {
        let &[b, h, w, c] = x.shape() else {
            return Err(TensorError::ShapeMismatch {
                op: "max_pool2",
                detail: format!("{:?} (need NHWC)", x.shape()),
            });
        };
        Ok(Dims {
            b,
            h,
            w,
            c,
            oh: h / 2,
            ow: w / 2,
        })
    }

    fn pooled(&self) -> [usize; 4] {
        [self.b, self.oh, self.ow, self.c]
    }

    fn input(&self) -> [usize; 4] {
        [self.b, self.h, self.w, self.c]
    }
}

pub(super) fn max_pool2_with(
    simd: Simd,
    x: &Tensor,
    take: TakeBuffer<'_>,
) -> Result<Tensor, TensorError> {
    let d = Dims::of(x)?;
    let mut out = take(d.pooled().iter().product());
    match simd {
        Simd::Baseline => forward::<4>(&d, x.data(), &mut out),
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 | Simd::Avx512 => {
            assert!(
                std::arch::is_x86_feature_detected!("avx2"),
                "AVX2 kernel on a CPU without AVX2"
            );
            // SAFETY: the only requirement of `forward_avx2` is that the
            // CPU supports AVX2, which the assertion above checked.
            unsafe { forward_avx2(&d, x.data(), &mut out) }
        }
    }
    Tensor::from_vec(&d.pooled(), out)
}

pub(super) fn max_pool2_grad_with(
    simd: Simd,
    x: &Tensor,
    grad: &Tensor,
    relu_mask: bool,
    take: TakeBuffer<'_>,
) -> Result<Tensor, TensorError> {
    let d = Dims::of(x)?;
    if grad.shape() != d.pooled() {
        return Err(TensorError::ShapeMismatch {
            op: "max_pool2_grad",
            detail: format!("grad {:?} vs output {:?}", grad.shape(), d.pooled()),
        });
    }
    let mut gx = take(x.len());
    let (x, g) = (x.data(), grad.data());
    match (simd, relu_mask) {
        (Simd::Baseline, false) => backward::<4, false>(&d, x, g, &mut gx),
        (Simd::Baseline, true) => backward::<4, true>(&d, x, g, &mut gx),
        #[cfg(target_arch = "x86_64")]
        (Simd::Avx2 | Simd::Avx512, _) => {
            assert!(
                std::arch::is_x86_feature_detected!("avx2"),
                "AVX2 kernel on a CPU without AVX2"
            );
            // SAFETY: the only requirement of `backward_avx2` is that the
            // CPU supports AVX2, which the assertion above checked.
            unsafe { backward_avx2(&d, x, g, relu_mask, &mut gx) }
        }
    }
    Tensor::from_vec(&d.input(), gx)
}

/// [`forward`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn forward_avx2(d: &Dims, x: &[f32], out: &mut [f32]) {
    forward::<8>(d, x, out);
}

/// [`backward`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn backward_avx2(d: &Dims, x: &[f32], grad: &[f32], relu_mask: bool, gx: &mut [f32]) {
    if relu_mask {
        backward::<8, true>(d, x, grad, gx);
    } else {
        backward::<8, false>(d, x, grad, gx);
    }
}

/// The four taps of window `ox` of an input row pair, each `c` channels.
#[inline(always)]
fn window<'a>(top: &'a [f32], bottom: &'a [f32], ox: usize, c: usize) -> [&'a [f32]; 4] {
    let (left, right) = (2 * ox * c, (2 * ox + 1) * c);
    [
        &top[left..][..c],
        &top[right..][..c],
        &bottom[left..][..c],
        &bottom[right..][..c],
    ]
}

/// The body: for channels `at..at + L` of one window, the winning value
/// and the index (0..4) of the tap that holds it. Everything is
/// `inline(always)` so that it is compiled with the instruction set of
/// whichever instantiation it lands in.
#[inline(always)]
fn winners<const L: usize>(taps: [&[f32]; 4], at: usize) -> ([f32; L], [u32; L]) {
    let mut best = [f32::NEG_INFINITY; L];
    let mut code = [0u32; L];
    for (t, tap) in taps.iter().enumerate() {
        let mut v = [0.0f32; L];
        v.copy_from_slice(&tap[at..at + L]);
        for l in 0..L {
            let wins = v[l] > best[l];
            best[l] = if wins { v[l] } else { best[l] };
            code[l] = if wins { t as u32 } else { code[l] };
        }
    }
    (best, code)
}

/// Writes every element of `out` (`[b, oh, ow, c]`).
#[inline(always)]
fn forward<const L: usize>(d: &Dims, x: &[f32], out: &mut [f32]) {
    let Dims {
        h, w, c, oh, ow, ..
    } = *d;
    if out.is_empty() {
        return;
    }
    for (r, out_row) in out.chunks_exact_mut(ow * c).enumerate() {
        let (bi, oy) = (r / oh, r % oh);
        let (top, bottom) = x[(bi * h + 2 * oy) * w * c..][..2 * w * c].split_at(w * c);
        for (ox, o) in out_row.chunks_exact_mut(c).enumerate() {
            let taps = window(top, bottom, ox, c);
            let mut ci = 0;
            while ci + L <= c {
                o[ci..ci + L].copy_from_slice(&winners::<L>(taps, ci).0);
                ci += L;
            }
            while ci < c {
                o[ci] = winners::<1>(taps, ci).0[0];
                ci += 1;
            }
        }
    }
}

/// Routes channels `at..at + L` of one window's gradient `g`: one select
/// loop per tap (a single loop over lanes and taps does not vectorise).
/// With `MASK` a winner whose value is not positive gets `0.0` too.
#[inline(always)]
fn route<const L: usize, const MASK: bool>(
    taps: [&[f32]; 4],
    g: &[f32],
    dst: &mut [&mut [f32]; 4],
    at: usize,
) {
    let (best, mut code) = winners::<L>(taps, at);
    if MASK {
        // No tap is numbered 4: a masked window routes to none.
        for l in 0..L {
            code[l] = if best[l] > 0.0 { code[l] } else { 4 };
        }
    }
    let mut gv = [0.0f32; L];
    gv.copy_from_slice(&g[at..at + L]);
    for (t, tap) in dst.iter_mut().enumerate() {
        let tap = &mut tap[at..at + L];
        for l in 0..L {
            tap[l] = if code[l] == t as u32 {
                0.0 + gv[l]
            } else {
                0.0
            };
        }
    }
}

/// Writes every element of `gx` (`[b, h, w, c]`) exactly once.
#[inline(always)]
fn backward<const L: usize, const MASK: bool>(d: &Dims, x: &[f32], grad: &[f32], gx: &mut [f32]) {
    let Dims {
        h, w, c, oh, ow, ..
    } = *d;
    let row = w * c;
    if gx.is_empty() {
        return;
    }
    for (bi, (gx_image, x_image)) in gx
        .chunks_exact_mut(h * row)
        .zip(x.chunks_exact(h * row))
        .enumerate()
    {
        for (oy, (gx_pair, x_pair)) in gx_image
            .chunks_mut(2 * row)
            .zip(x_image.chunks(2 * row))
            .enumerate()
        {
            if gx_pair.len() < 2 * row {
                // The odd last row: in no window, so it got no gradient.
                gx_pair.fill(0.0);
                continue;
            }
            let (gx_top, gx_bottom) = gx_pair.split_at_mut(row);
            let (x_top, x_bottom) = x_pair.split_at(row);
            let grad_row = &grad[(bi * oh + oy) * ow * c..][..ow * c];
            for (ox, g) in grad_row.chunks_exact(c).enumerate() {
                let taps = window(x_top, x_bottom, ox, c);
                let (top_left, top_right) = gx_top[2 * ox * c..][..2 * c].split_at_mut(c);
                let (bottom_left, bottom_right) = gx_bottom[2 * ox * c..][..2 * c].split_at_mut(c);
                let mut dst = [top_left, top_right, bottom_left, bottom_right];
                let mut ci = 0;
                while ci + L <= c {
                    route::<L, MASK>(taps, g, &mut dst, ci);
                    ci += L;
                }
                while ci < c {
                    route::<1, MASK>(taps, g, &mut dst, ci);
                    ci += 1;
                }
            }
            // The odd last column, likewise.
            gx_top[2 * ow * c..].fill(0.0);
            gx_bottom[2 * ow * c..].fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::oracle::{naive_max_pool2, naive_max_pool2_grad};
    use proptest::prelude::*;

    /// A recycled buffer: whatever it holds must not show in a result.
    fn poisoned(len: usize) -> Vec<f32> {
        vec![f32::NAN; len]
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Values a compare-select can get wrong, and few enough distinct
    /// ordinary ones that windows tie.
    const VALUES: [f32; 10] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1.0,
        1.0,
        -2.5,
        3.0,
        0.5,
    ];
    const GRADS: [f32; 6] = [-0.0, 0.0, 1.5, -2.0, f32::NAN, f32::INFINITY];

    fn pick(table: &[f32], seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                table[(s >> 33) as usize % table.len()]
            })
            .collect()
    }

    fn check_against_reference(shape: [usize; 4], seed: u64) {
        let [b, h, w, c] = shape;
        let x = Tensor::from_vec(&shape, pick(&VALUES, seed, b * h * w * c)).unwrap();
        let pooled_shape = [b, h / 2, w / 2, c];
        let grad = Tensor::from_vec(
            &pooled_shape,
            pick(&GRADS, seed ^ 0x5bd1, pooled_shape.iter().product()),
        )
        .unwrap();
        let (want, _) = naive_max_pool2(&x).unwrap();
        let want_gx = naive_max_pool2_grad(&x, &grad).unwrap();
        for simd in Simd::supported("max_pool2") {
            let out = max_pool2_with(simd, &x, &mut poisoned).unwrap();
            assert_eq!(out.shape(), want.shape(), "{simd:?} {shape:?}");
            assert_eq!(bits(&out), bits(&want), "{simd:?} forward {shape:?}");
            let gx = max_pool2_grad_with(simd, &x, &grad, false, &mut poisoned).unwrap();
            assert_eq!(gx.shape(), x.shape(), "{simd:?} {shape:?}");
            assert_eq!(bits(&gx), bits(&want_gx), "{simd:?} backward {shape:?}");
        }
        check_relu_masked(&x, &grad);
    }

    /// The unfused pair the masked backward replaces: the ReLU rule's
    /// mask on its input `pre`, after the pool's gradient of `relu(pre)`.
    fn relu_then_pool_grad(pre: &Tensor, grad: &Tensor) -> Tensor {
        let y = pre.map(|v| v.max(0.0));
        let mut g = naive_max_pool2_grad(&y, grad).unwrap();
        for (g, &v) in g.data_mut().iter_mut().zip(pre.data()) {
            *g = if v > 0.0 { *g } else { 0.0 };
        }
        g
    }

    /// Taking `pre` as the pre-activations: the masked backward on
    /// `relu(pre)` against [`relu_then_pool_grad`], on every instantiation.
    fn check_relu_masked(pre: &Tensor, grad: &Tensor) {
        let y = pre.map(|v| v.max(0.0));
        let want = relu_then_pool_grad(pre, grad);
        for simd in Simd::supported("max_pool2") {
            let gx = max_pool2_grad_with(simd, &y, grad, true, &mut poisoned).unwrap();
            assert_eq!(gx.shape(), pre.shape(), "{simd:?}");
            assert_eq!(
                bits(&gx),
                bits(&want),
                "{simd:?} relu-masked {:?}",
                pre.shape()
            );
        }
    }

    #[test]
    fn max_pool_with_the_relu_mask_routes_only_to_positive_winners() {
        let nan = f32::NAN;
        // Odd H and W (3x3: one window, a trailing row and column), and
        // per channel: a positive winner, an all-negative window (every
        // y is 0.0, a tie won by tap 0, masked), NaN and -0.0
        // pre-activations around a positive tie, and a window whose only
        // positive tap is NaN-free but not first.
        #[rustfmt::skip]
        let pre = Tensor::from_vec(
            &[1, 3, 3, 4],
            vec![
                1.0, -1.0, nan, -0.0, /**/ 2.0, -3.0, 5.0, -1.0, /**/ 9.0, 9.0, 9.0, 9.0,
                0.5, -2.0, -0.0, -2.0, /**/ 2.0, -0.5, 5.0, 0.25, /**/ 9.0, 9.0, 9.0, 9.0,
                9.0, 9.0, 9.0, 9.0, /**/ 9.0, 9.0, 9.0, 9.0, /**/ 9.0, 9.0, 9.0, 9.0,
            ],
        )
        .unwrap();
        let grad = Tensor::from_vec(&[1, 1, 1, 4], vec![1.5, -2.0, -0.0, 4.0]).unwrap();
        let gx = relu_then_pool_grad(&pre, &grad);
        let want: [f32; 36] = [
            0.0,
            0.0,
            0.0,
            0.0,
            /**/ 1.5,
            0.0,
            -0.0 + 0.0,
            0.0,
            /**/ 0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            /**/ 0.0,
            0.0,
            0.0,
            4.0,
            /**/ 0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            /**/ 0.0,
            0.0,
            0.0,
            0.0,
            /**/ 0.0,
            0.0,
            0.0,
            0.0,
        ];
        assert_eq!(bits(&gx), want.map(f32::to_bits));
        check_relu_masked(&pre, &grad);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn max_pool_matches_the_reference_on_every_instantiation(
            b in 1usize..3,
            h in 1usize..8,
            w in 1usize..8,
            // Below, at and above each lane width, with and without a
            // remainder.
            c in 0usize..6,
            seed in any::<u64>(),
        ) {
            check_against_reference([b, h, w, [1, 3, 8, 10, 16, 17][c]], seed);
        }
    }

    #[test]
    fn max_pool_takes_the_first_of_equal_taps_and_skips_nan() {
        let nan = f32::NAN;
        // Channels: a tie between taps 1 and 3, a NaN ahead of the
        // maximum, an all-NaN window, and +0.0 after -0.0 (no tap is
        // *greater*, so the first wins).
        let x = Tensor::from_vec(
            &[1, 2, 2, 4],
            vec![
                1.0, nan, nan, -0.0, // tap 0
                7.0, 2.0, nan, 0.0, // tap 1
                3.0, 9.0, nan, -0.0, // tap 2
                7.0, 4.0, nan, 0.0, // tap 3
            ],
        )
        .unwrap();
        let grad = Tensor::from_vec(&[1, 1, 1, 4], vec![1.0, 2.0, 3.0, -0.0]).unwrap();
        for simd in Simd::supported("max_pool2") {
            let out = max_pool2_with(simd, &x, &mut poisoned).unwrap();
            assert_eq!(
                bits(&out),
                [7.0f32, 9.0, f32::NEG_INFINITY, -0.0].map(f32::to_bits)
            );
            let gx = max_pool2_grad_with(simd, &x, &grad, false, &mut poisoned).unwrap();
            let want: [f32; 16] = [
                0.0, 0.0, 3.0, 0.0, // tap 0: the dead window's gradient, and 0.0 + -0.0
                1.0, 0.0, 0.0, 0.0, // tap 1: the first 7.0
                0.0, 2.0, 0.0, 0.0, // tap 2
                0.0, 0.0, 0.0, 0.0, // tap 3
            ];
            assert_eq!(bits(&gx), want.map(f32::to_bits), "{simd:?}");
        }
    }

    #[test]
    fn max_pool_rejects_what_is_not_nhwc_or_not_the_pooled_shape() {
        let simd = Simd::detected();
        let flat = Tensor::zeros(&[4, 4]);
        assert!(matches!(
            max_pool2_with(simd, &flat, &mut poisoned),
            Err(TensorError::ShapeMismatch {
                op: "max_pool2",
                ..
            })
        ));
        let x = Tensor::zeros(&[1, 4, 4, 2]);
        assert!(matches!(
            max_pool2_grad_with(
                simd,
                &x,
                &Tensor::zeros(&[1, 2, 2, 3]),
                false,
                &mut poisoned
            ),
            Err(TensorError::ShapeMismatch {
                op: "max_pool2_grad",
                ..
            })
        ));
        // Nothing to pool is not an error.
        let empty = Tensor::zeros(&[0, 4, 4, 2]);
        assert_eq!(
            max_pool2_with(simd, &empty, &mut poisoned).unwrap().shape(),
            &[0, 2, 2, 2]
        );
        let thin = Tensor::zeros(&[2, 1, 5, 3]);
        let gx = max_pool2_grad_with(
            simd,
            &thin,
            &Tensor::zeros(&[2, 0, 2, 3]),
            true,
            &mut poisoned,
        )
        .unwrap();
        assert_eq!(gx, thin);
    }
}
