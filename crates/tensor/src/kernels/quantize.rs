//! Deterministic int8 linear quantization with one f32 scale per tensor,
//! and its error-feedback fold.
//!
//! The walk is two passes over the data. The first finds the largest
//! magnitude among the finite values — folding the sender's residual
//! into the data first, in place, when it feeds one back — and the
//! scale is that over 127. The second rounds `v / scale` half away from
//! zero, clamps it to `[-127, 127]` and, when asked, writes what the
//! receiver will not see, `v - q * scale`. Both passes are one lane body
//! on plain `[f32; L]` arrays that the compiler turns into vector code:
//! 4 lanes on the build's baseline target, 8 under `target_feature(enable
//! = "avx2")` — chosen through the GEMM's [`Simd`] seam, which runs the
//! AVX2 body on an AVX-512 CPU too — and `L = 1` for the tail.
//!
//! **The result is the scalar definition's, bit for bit**:
//!
//! * the maximum is exact whatever order the lanes take it in, and only
//!   finite values count (`|v| < inf` is false for NaN and ±inf);
//! * `y = v / scale` is a true division, never a multiply by the
//!   reciprocal, which rounds differently;
//! * `round(y)` half away from zero is `t = trunc(y)`, plus the sign of
//!   `y` where `|y - t| >= 0.5`. `y - t` is exact, as `t` is `y` with
//!   its fraction bits cleared, so the comparison sees the true fraction;
//!   `floor(y + 0.5)` would round the sum first (`0.49999997 + 0.5` is
//!   `1.0`) and send negative halves up. `y` is clamped before the
//!   truncation, which commutes with rounding since both bounds are
//!   integers, and a NaN `y` becomes `0` by an explicit select;
//! * the residual is a separate multiply and subtract, no FMA, with `q`
//!   as the decoder reconstructs it;
//! * a tensor whose finite values are all zero (or that has none)
//!   quantizes to all zeros, its scale `0.0`.
//!
//! No libm call is left in the walk: on the baseline target `f32::round`
//! is one per element.

use super::gemm::Simd;

/// What the walk reads, and where its residual goes.
enum Walk<'a> {
    /// Quantize `data`; write `data[i] - q[i] * scale` into the residual
    /// if there is one.
    Plain {
        data: &'a [f32],
        residual: Option<&'a mut [f32]>,
    },
    /// Error feedback: `data[i] += residual[i]` in place, quantize the
    /// sum, and replace `residual[i]` by what the quantization dropped.
    Fold {
        data: &'a mut [f32],
        residual: &'a mut [f32],
    },
}

/// Quantizes `data` into `values` and returns the scale: `values[i] ≈
/// data[i] / scale`, `scale = max |finite data| / 127`. With a
/// `residual`, also writes `data[i] - values[i] * scale` there.
///
/// # Panics
///
/// Panics unless `values` (and `residual`) hold one element per `data`.
pub(super) fn quantize_i8(
    simd: Simd,
    data: &[f32],
    values: &mut [i8],
    residual: Option<&mut [f32]>,
) -> f32 {
    assert_eq!(values.len(), data.len(), "one quantized value per element");
    if let Some(residual) = &residual {
        assert_eq!(residual.len(), data.len(), "one residual per element");
    }
    run(simd, Walk::Plain { data, residual }, values)
}

/// [`quantize_i8`] with error feedback: first `data[i] += residual[i]`,
/// in place, then quantizes `data` and writes the new residual over the
/// old one.
///
/// # Panics
///
/// Panics unless `residual` and `values` hold one element per `data`.
pub(super) fn quantize_i8_folding(
    simd: Simd,
    data: &mut [f32],
    residual: &mut [f32],
    values: &mut [i8],
) -> f32 {
    assert_eq!(values.len(), data.len(), "one quantized value per element");
    assert_eq!(residual.len(), data.len(), "one residual per element");
    run(simd, Walk::Fold { data, residual }, values)
}

fn run(simd: Simd, walk: Walk<'_>, values: &mut [i8]) -> f32 {
    match simd {
        Simd::Baseline => walk_lanes::<4>(walk, values),
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 | Simd::Avx512 => {
            assert!(
                std::arch::is_x86_feature_detected!("avx2"),
                "AVX2 kernel on a CPU without AVX2"
            );
            // SAFETY: the only requirement of `walk_avx2` is that the CPU
            // supports AVX2, which the assertion above checked.
            unsafe { walk_avx2(walk, values) }
        }
    }
}

/// [`walk_lanes`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn walk_avx2(walk: Walk<'_>, values: &mut [i8]) -> f32 {
    walk_lanes::<8>(walk, values)
}

/// Both passes at `L` lanes. Everything below is `inline(always)` so that
/// it is compiled with the instruction set of the instantiation it lands
/// in.
#[inline(always)]
fn walk_lanes<const L: usize>(walk: Walk<'_>, values: &mut [i8]) -> f32 {
    let (data, max_abs, residual): (&[f32], f32, Option<&mut [f32]>) = match walk {
        Walk::Plain { data, residual } => (data, max_finite_abs::<L>(data), residual),
        Walk::Fold { data, residual } => {
            let max_abs = fold_max_finite_abs::<L>(data, residual);
            (data, max_abs, Some(residual))
        }
    };
    let scale = max_abs / 127.0;
    let live = max_abs != 0.0;
    match residual {
        Some(residual) => round::<L, true>(data, scale, live, values, residual),
        None => round::<L, false>(data, scale, live, values, &mut []),
    }
    scale
}

/// Raises each lane of `m` to `|v|` where `v` is finite and larger.
#[inline(always)]
fn lane_max<const L: usize>(m: &mut [f32; L], v: &[f32; L]) {
    for l in 0..L {
        let a = v[l].abs();
        // NaN and ±inf compare false: they do not count.
        let a = if a < f32::INFINITY { a } else { 0.0 };
        m[l] = if a > m[l] { a } else { m[l] };
    }
}

/// The largest of the lanes (all non-negative, none NaN).
#[inline(always)]
fn lanes_max<const L: usize>(m: [f32; L]) -> f32 {
    m.into_iter().fold(0.0, |a, b| if b > a { b } else { a })
}

/// `max |v|` over the finite values of `data`; `0.0` if none.
#[inline(always)]
fn max_finite_abs<const L: usize>(data: &[f32]) -> f32 {
    let mut m = [0.0f32; L];
    let mut chunks = data.chunks_exact(L);
    for chunk in &mut chunks {
        lane_max(&mut m, chunk.try_into().expect("L floats"));
    }
    let mut tail = [0.0f32; 1];
    for &v in chunks.remainder() {
        lane_max(&mut tail, &[v]);
    }
    lanes_max(m).max(tail[0])
}

/// `data[i] += residual[i]`, then [`max_finite_abs`] of the sums.
#[inline(always)]
fn fold_max_finite_abs<const L: usize>(data: &mut [f32], residual: &[f32]) -> f32 {
    let mut m = [0.0f32; L];
    let mut tail = [0.0f32; 1];
    let mut chunks = data.chunks_exact_mut(L);
    let mut residuals = residual.chunks_exact(L);
    for (chunk, r) in (&mut chunks).zip(&mut residuals) {
        let mut v = [0.0f32; L];
        for l in 0..L {
            v[l] = chunk[l] + r[l];
        }
        chunk.copy_from_slice(&v);
        lane_max(&mut m, &v);
    }
    for (v, r) in chunks
        .into_remainder()
        .iter_mut()
        .zip(residuals.remainder())
    {
        *v += r;
        lane_max(&mut tail, &[*v]);
    }
    lanes_max(m).max(tail[0])
}

/// The second pass: every `values[i]`, and with `RESIDUAL` every
/// `residual[i]`.
#[inline(always)]
fn round<const L: usize, const RESIDUAL: bool>(
    data: &[f32],
    scale: f32,
    live: bool,
    values: &mut [i8],
    residual: &mut [f32],
) {
    let whole = data.len() / L * L;
    for at in (0..whole).step_by(L) {
        round_lanes::<L, RESIDUAL>(data, scale, live, values, residual, at);
    }
    for at in whole..data.len() {
        round_lanes::<1, RESIDUAL>(data, scale, live, values, residual, at);
    }
}

/// Elements `at..at + L` of [`round`].
#[inline(always)]
fn round_lanes<const L: usize, const RESIDUAL: bool>(
    data: &[f32],
    scale: f32,
    live: bool,
    values: &mut [i8],
    residual: &mut [f32],
    at: usize,
) {
    let mut v = [0.0f32; L];
    v.copy_from_slice(&data[at..at + L]);
    let mut q = [0i32; L];
    for l in 0..L {
        let y = v[l] / scale;
        let c = if y < 127.0 { y } else { 127.0 };
        let c = if c > -127.0 { c } else { -127.0 };
        // A NaN took the upper bound above; it, and everything of a
        // tensor with nothing to represent, quantizes to 0.
        let c = if live & !y.is_nan() { c } else { 0.0 };
        // SAFETY: `c` is finite and within [-127, 127], so truncating it
        // to an `i32` is in range.
        let t = unsafe { c.to_int_unchecked::<i32>() };
        let fraction = c - t as f32;
        q[l] = t + i32::from(fraction >= 0.5) - i32::from(fraction <= -0.5);
    }
    for (out, &q) in values[at..at + L].iter_mut().zip(&q) {
        *out = q as i8;
    }
    if RESIDUAL {
        for (l, out) in residual[at..at + L].iter_mut().enumerate() {
            *out = v[l] - q[l] as f32 * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::oracle::naive_quantize_i8;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every way to run the kernel on `data` agrees with the oracle on
    /// every instantiation.
    fn check(data: &[f32], what: &str) {
        let (scale, values, residual) = naive_quantize_i8(data);
        for simd in Simd::supported("quantize_i8") {
            let mut got = vec![i8::MIN; data.len()];
            let s = quantize_i8(simd, data, &mut got, None);
            assert_eq!(s.to_bits(), scale.to_bits(), "{simd:?} {what}: scale");
            assert_eq!(got, values, "{simd:?} {what}: values");

            let mut got = vec![i8::MIN; data.len()];
            let mut dropped = vec![f32::NAN; data.len()];
            let s = quantize_i8(simd, data, &mut got, Some(&mut dropped));
            assert_eq!(s.to_bits(), scale.to_bits(), "{simd:?} {what}: scale");
            assert_eq!(got, values, "{simd:?} {what}: values");
            assert_eq!(bits(&dropped), bits(&residual), "{simd:?} {what}: residual");
        }
    }

    /// A deterministic stream of `u64`s.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 11
        }
    }

    /// Values a vector rounding or a filter can get wrong.
    const SPECIAL: [f32; 12] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1e-40,
        -1e-45,
        f32::MAX,
        0.5,
        -2.5,
    ];

    /// `len` floats: specials, ordinary magnitudes and raw bit patterns.
    fn mixed(seed: u64, len: usize) -> Vec<f32> {
        let mut next = stream(seed);
        (0..len)
            .map(|_| match next() % 4 {
                0 => SPECIAL[next() as usize % SPECIAL.len()],
                1 => f32::from_bits(next() as u32),
                _ => (next() % 20_001) as f32 / 1000.0 - 10.0,
            })
            .collect()
    }

    /// Values at, and one or two ulps either side of, `(k + 1/2) *
    /// scale` for every `k`: where a reciprocal multiply or a rounding
    /// other than half away from zero gives another `q`.
    fn halves(max_abs: f32) -> Vec<f32> {
        let scale = max_abs / 127.0;
        let mut out = vec![max_abs, -max_abs];
        for k in -128..128 {
            let at = (k as f32 + 0.5) * scale;
            for ulps in -2i32..=2 {
                out.push(f32::from_bits((at.to_bits() as i32 + ulps) as u32));
            }
            out.push(-0.5 * scale);
            out.push(0.49999997 * scale);
        }
        out.retain(|v| v.abs() <= max_abs);
        out
    }

    #[test]
    fn quantizer_matches_the_scalar_definition_at_every_length() {
        for len in (0..=40).chain([31_514]) {
            for seed in 0..4 {
                check(&mixed(seed * 97 + len as u64, len), &format!("len {len}"));
            }
            check(&vec![0.0; len], &format!("{len} zeros"));
            let signed: Vec<f32> = (0..len).map(|i| [0.0, -0.0][i % 2]).collect();
            check(&signed, &format!("{len} signed zeros"));
        }
    }

    #[test]
    fn quantizer_matches_the_scalar_definition_at_the_edges() {
        let tiny = f32::from_bits(1);
        let cases: Vec<(&str, Vec<f32>)> = vec![
            // The scale underflows to 0: a live grid that divides by 0.
            ("underflowing scale", vec![tiny, 0.0, -tiny]),
            (
                "no finite value",
                vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY],
            ),
            (
                "nothing but NaN and zeros",
                vec![f32::NAN, 0.0, -0.0, f32::NAN],
            ),
            (
                "subnormals",
                (1..40).map(|i| f32::from_bits(i * 977)).collect(),
            ),
            ("the largest float", vec![f32::MAX, -f32::MAX, 1.0, -1.0]),
            ("specials", SPECIAL.repeat(3)),
        ];
        for (what, data) in cases {
            check(&data, what);
        }
        for max_abs in [1.0f32, 3.0, 0.1, 7.3, 127.0, 1e-3, 6.02e23] {
            check(&halves(max_abs), &format!("halves of {max_abs}"));
        }
        let mut next = stream(42);
        for _ in 0..64 {
            let max_abs = (next() % 1_000_000 + 1) as f32 * 1e-4;
            check(&halves(max_abs), &format!("halves of {max_abs}"));
        }
    }

    #[test]
    fn error_feedback_folds_like_add_then_quantize() {
        for len in [0usize, 1, 7, 8, 9, 33, 31_514] {
            for simd in Simd::supported("quantize_i8_folding") {
                let mut next = stream(len as u64 + 5);
                let mut residual: Vec<f32> = Vec::new();
                for step in 0..6 {
                    let mut grad = if step == 4 {
                        mixed(next(), len)
                    } else {
                        (0..len)
                            .map(|_| (next() % 2001) as f32 / 1000.0 - 1.0)
                            .collect::<Vec<f32>>()
                    };
                    let what = format!("{simd:?} len {len} step {step}");
                    let mut values = vec![i8::MIN; len];
                    if step == 0 {
                        // The first step has nothing to fold.
                        let (scale, want, dropped) = naive_quantize_i8(&grad);
                        residual = vec![f32::NAN; len];
                        let s = quantize_i8(simd, &grad, &mut values, Some(&mut residual));
                        assert_eq!(s.to_bits(), scale.to_bits(), "{what}");
                        assert_eq!(values, want, "{what}");
                        assert_eq!(bits(&residual), bits(&dropped), "{what}");
                        continue;
                    }
                    let sum: Vec<f32> = grad.iter().zip(&residual).map(|(g, r)| g + r).collect();
                    let (scale, want, dropped) = naive_quantize_i8(&sum);
                    let s = quantize_i8_folding(simd, &mut grad, &mut residual, &mut values);
                    assert_eq!(bits(&grad), bits(&sum), "{what}: the folded gradient");
                    assert_eq!(s.to_bits(), scale.to_bits(), "{what}: scale");
                    assert_eq!(values, want, "{what}: values");
                    assert_eq!(bits(&residual), bits(&dropped), "{what}: residual");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one residual per element")]
    fn quantizer_refuses_a_residual_of_another_length() {
        quantize_i8_folding(Simd::Baseline, &mut [1.0; 3], &mut [0.0; 2], &mut [0; 3]);
    }
}
