//! Convolution, forward and backward (NHWC input, `[kh, kw, cin, cout]`
//! filter).
//!
//! The forward pass and the filter gradient are **direct** kernels over
//! one zero-padded, channel-planar copy of the image, `[b, cin, oh + kh -
//! 1, ow + kw - 1]`, which [`pad`] writes into the [`Workspace`]: each
//! channel plane apart, with its `Same` padding written out as `0.0`. In
//! it every tap of every output position is an in-bounds read at a fixed
//! offset, and the output columns `ox..ox + R` of one row read `R`
//! neighbouring floats for any `(ky, kx, ci)`.
//!
//! * **Forward** ([`Forward`]): a tile is up to 8 output columns of one
//!   output row × `L` output channels, held as one `L`-lane accumulator
//!   per column that starts at `0.0`. For each `(ky, kx, ci)` tap, in
//!   that lexicographic order, each column's padded value is broadcast
//!   and multiplied by the tap's `L` contiguous filter values. The fused
//!   ops' `+bias[ → relu]` epilogue is applied before the tile is stored.
//! * **Filter gradient** ([`FilterGrad`]): vectorised over `cout`. For up
//!   to [`TAPS`] taps and one `L`-channel strip, a pass over one output
//!   row loads the strip's gradient at each position once and adds the
//!   broadcast padded value of every tap times it into that tap's
//!   accumulator. Between rows the sums live in `gf` itself (the first
//!   row starts them at `0.0`), so each runs over positions strictly
//!   increasing.
//! * **Input gradient**: `gcol = grad × filterᵀ` on the GEMM, then a
//!   `col2im` scatter.
//!
//! Each direct kernel is split over the unit grid of the product it
//! replaced ([`gemm::run_grid`]): `[positions, patch] × [patch, cout]`
//! for the forward pass, `[patch, positions] × [positions, cout]` for the
//! filter gradient. It is charged that product's [`gemm::gemm_cost`], so
//! the split, the cost and the virtual time are the GEMM's.
//!
//! Per-element reduction orders are fixed (documented on each stage), so
//! every stage is bit-identical to its naive reference on every
//! instantiation and for any worker count. Note the *semantics*: padded
//! taps participate arithmetically as `0.0` operands (so a NaN/Inf filter
//! tap or gradient propagates through padding), unlike a bounds-skip.

use super::gemm::{self, GridKernel, Simd};
use super::pool::{self, WorkerPool};
use super::{KernelCost, TakeBuffer, Workspace};
use crate::graph::Padding;
use crate::tensor::Tensor;
use crate::TensorError;

/// Taps the filter gradient accumulates in one pass: a 3×3 kernel over
/// one channel in one pass, nine vector accumulators.
const TAPS: usize = 9;

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
    /// Rows and columns of the padded image: `oh + kh - 1`, `ow + kw - 1`.
    pub hp: usize,
    pub wp: usize,
    /// Filter taps per output channel: `kh * kw * cin`.
    pub patch: usize,
    /// Output positions: `b * oh * ow`.
    pub positions: usize,
}

/// Validates shapes and resolves output/padding geometry — the one owner
/// of the rule, shared by the kernels, the naive references and the
/// planner's shape inference. Takes shapes, not tensors: each backward
/// kernel has the value of one operand only.
pub(crate) fn geometry(
    input: &[usize],
    filter: &[usize],
    padding: Padding,
) -> Result<Geometry, TensorError> {
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
    if kh == 0 || kw == 0 {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            detail: format!("filter {filter:?} has an empty {kh}x{kw} kernel"),
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
        hp: oh + kh - 1,
        wp: ow + kw - 1,
        patch: kh * kw * cin,
        positions: b * oh * ow,
    })
}

/// Writes the padded, channel-planar copy of the NHWC `input` into
/// `ws.padded` — `[b, cin, hp, wp]`, the image at `(ph, pw)` and `0.0`
/// around it — and the offset in it of each filter tap `(ky, kx, ci)`,
/// relative to tap (0, 0, 0), into `ws.taps`; returns both. Every element
/// is written, the padding included, so nothing is zero-filled first;
/// parallel over planes (pure copies, no arithmetic). The kernels walk
/// the taps through the offsets in one flat loop: with nested `ky, kx,
/// ci` loops, or the offset worked out along the way, the compiler kept
/// the forward tile's sums transposed, a third slower.
fn pad<'a>(
    pool: &WorkerPool,
    g: &Geometry,
    input: &[f32],
    ws: &'a mut Workspace,
) -> (&'a [f32], &'a [usize]) {
    ws.taps.clear();
    ws.taps.reserve(g.patch);
    for ky in 0..g.kh {
        for kx in 0..g.kw {
            ws.taps
                .extend((0..g.cin).map(|ci| (ci * g.hp + ky) * g.wp + kx));
        }
    }
    ws.padded.resize(g.b * g.cin * g.hp * g.wp, 0.0);
    pool.run_on_blocks(&mut ws.padded, g.hp * g.wp, &|plane, out| {
        let (bi, ci) = (plane / g.cin, plane % g.cin);
        for (y, row) in out.chunks_exact_mut(g.wp).enumerate() {
            if y < g.ph || y >= g.ph + g.h {
                row.fill(0.0);
                continue;
            }
            let (left, rest) = row.split_at_mut(g.pw);
            let (inside, right) = rest.split_at_mut(g.w);
            left.fill(0.0);
            right.fill(0.0);
            let src = &input[(bi * g.h + y - g.ph) * g.w * g.cin..][..g.w * g.cin];
            for (d, s) in inside.iter_mut().zip(src[ci..].iter().step_by(g.cin)) {
                *d = *s;
            }
        }
    });
    (&ws.padded, &ws.taps)
}

/// What every forward unit reads. A unit is output positions `i0..` ×
/// output channels `j0..`, and its rows are positions.
struct Forward<'a> {
    g: &'a Geometry,
    padded: &'a [f32],
    /// Each tap's offset in `padded`, from [`pad`].
    taps: &'a [usize],
    filter: &'a [f32],
    /// `(bias [cout], relu)` of the fused ops.
    epilogue: Option<(&'a [f32], bool)>,
}

impl GridKernel for Forward<'_> {
    /// Cuts the unit's positions into runs inside one output row (a unit
    /// of 64 positions may start and end mid-row), and each run into
    /// tiles of 8, 4 or 1 output columns.
    #[inline(always)]
    fn unit<const L: usize>(&self, i0: usize, j0: usize, rows: &mut [&mut [f32]]) {
        let g = self.g;
        let mut at = 0;
        while at < rows.len() {
            let (r, ox) = ((i0 + at) / g.ow, (i0 + at) % g.ow);
            let run = (g.ow - ox).min(rows.len() - at);
            // Padded index of tap (0, 0, 0) at the run's first column.
            let origin = (r / g.oh * g.cin * g.hp + r % g.oh) * g.wp + ox;
            let mut x = 0;
            while x < run {
                let columns = &mut rows[at + x..at + run];
                x += match columns.len() {
                    8.. => self.strip::<8, L>(origin + x, j0, &mut columns[..8]),
                    4.. => self.strip::<4, L>(origin + x, j0, &mut columns[..4]),
                    _ => self.strip::<1, L>(origin + x, j0, &mut columns[..1]),
                };
            }
            at += run;
        }
    }
}

impl Forward<'_> {
    /// The `R` output columns `rows` whose tap (0, 0, 0) is padded index
    /// `at`, across the unit's channels `j0..`: `L`-channel tiles, then
    /// single channels. Returns `R`.
    #[inline(always)]
    fn strip<const R: usize, const L: usize>(
        &self,
        at: usize,
        j0: usize,
        rows: &mut [&mut [f32]],
    ) -> usize {
        let width = rows[0].len();
        let mut c = 0;
        while c + L <= width {
            self.tile::<R, L>(at, j0 + c, c, rows);
            c += L;
        }
        while c < width {
            self.tile::<R, 1>(at, j0 + c, c, rows);
            c += 1;
        }
        R
    }

    /// The micro-kernel: the `R` output columns `rows` whose tap (0, 0, 0)
    /// is padded index `at`, channels `co..co + L`, stored at column `c`
    /// of each row. Per element the sum runs over the taps `(ky, kx, ci)`
    /// lexicographic from `0.0`, each term input-value-first (`iv * fv`),
    /// padded taps as `0.0` — `naive_conv2d`'s order; then `+ bias` and
    /// `max(0.0)`, the unfused `add_bias` and `relu` in that order.
    #[inline(always)]
    fn tile<const R: usize, const L: usize>(
        &self,
        at: usize,
        co: usize,
        c: usize,
        rows: &mut [&mut [f32]],
    ) {
        let g = self.g;
        let mut acc = [[0.0f32; L]; R];
        for (&offset, f) in self.taps.iter().zip(self.filter.chunks_exact(g.cout)) {
            let iv = &self.padded[at + offset..][..R];
            let mut fv = [0.0f32; L];
            fv.copy_from_slice(&f[co..co + L]);
            for r in 0..R {
                for l in 0..L {
                    acc[r][l] += iv[r] * fv[l];
                }
            }
        }
        if let Some((bias, relu)) = self.epilogue {
            let mut bv = [0.0f32; L];
            bv.copy_from_slice(&bias[co..co + L]);
            for sums in acc.iter_mut() {
                for l in 0..L {
                    sums[l] += bv[l];
                    if relu {
                        sums[l] = sums[l].max(0.0);
                    }
                }
            }
        }
        for r in 0..R {
            rows[r][c..c + L].copy_from_slice(&acc[r]);
        }
    }
}

/// What every filter-gradient unit reads. A unit is filter taps `i0..` ×
/// output channels `j0..`, and its rows are taps.
struct FilterGrad<'a> {
    g: &'a Geometry,
    padded: &'a [f32],
    /// Each tap's offset in `padded`, from [`pad`].
    taps: &'a [usize],
    grad: &'a [f32],
}

impl GridKernel for FilterGrad<'_> {
    /// The 16-lane body is faster than the 8-lane one at `cout` = 16
    /// (the `train_dist` conv net's), unlike [`Forward`]'s, which runs
    /// several times slower at 16 lanes and stays on AVX2.
    fn wide(&self) -> bool {
        true
    }

    /// Output row by output row — the unit's sums stay in its rows of
    /// `gf` in between — `L`-channel strips, then single channels.
    #[inline(always)]
    fn unit<const L: usize>(&self, i0: usize, j0: usize, rows: &mut [&mut [f32]]) {
        let out_rows = self.g.b * self.g.oh;
        if out_rows == 0 {
            // No output position: every sum is empty.
            for row in rows.iter_mut() {
                row.fill(0.0);
            }
            return;
        }
        let width = rows[0].len();
        for r in 0..out_rows {
            let mut c = 0;
            while c + L <= width {
                self.strip::<L>(r, i0, j0 + c, c, rows);
                c += L;
            }
            while c < width {
                self.strip::<1>(r, i0, j0 + c, c, rows);
                c += 1;
            }
        }
    }
}

impl FilterGrad<'_> {
    /// Output row `r`'s terms for channels `co..co + L` (column `c` of
    /// `rows`) of every tap of the unit, [`TAPS`], 4, 2 or 1 taps a pass.
    #[inline(always)]
    fn strip<const L: usize>(
        &self,
        r: usize,
        i0: usize,
        co: usize,
        c: usize,
        rows: &mut [&mut [f32]],
    ) {
        let mut t = 0;
        while t < rows.len() {
            let taps = &mut rows[t..];
            let kk = i0 + t;
            t += match taps.len() {
                TAPS.. => self.group::<TAPS, L>(r, kk, co, c, &mut taps[..TAPS]),
                4.. => self.group::<4, L>(r, kk, co, c, &mut taps[..4]),
                2.. => self.group::<2, L>(r, kk, co, c, &mut taps[..2]),
                _ => self.group::<1, L>(r, kk, co, c, &mut taps[..1]),
            };
        }
    }

    /// The micro-kernel: adds output row `r`'s terms into the `T` tap
    /// rows `kk0..kk0 + T` at channels `co..co + L` (column `c` of
    /// `rows`), which start at `0.0` for the first output row and are
    /// loaded from `rows` for every later one. Per element the sum runs
    /// over positions increasing, each term input-value-first (`iv *
    /// gv`), padded taps as `0.0` — `naive_conv2d_grad`'s order for `gf`.
    /// Returns `T`.
    #[inline(always)]
    fn group<const T: usize, const L: usize>(
        &self,
        r: usize,
        kk0: usize,
        co: usize,
        c: usize,
        rows: &mut [&mut [f32]],
    ) -> usize {
        let g = self.g;
        let origin = (r / g.oh * g.cin * g.hp + r % g.oh) * g.wp;
        // The padded row each tap reads along the output row.
        let taps: [&[f32]; T] =
            std::array::from_fn(|t| &self.padded[origin + self.taps[kk0 + t]..][..g.ow]);
        let mut acc = [[0.0f32; L]; T];
        if r > 0 {
            for t in 0..T {
                acc[t].copy_from_slice(&rows[t][c..c + L]);
            }
        }
        let grad = &self.grad[r * g.ow * g.cout..][..g.ow * g.cout];
        for (ox, at) in grad.chunks_exact(g.cout).enumerate() {
            let mut gv = [0.0f32; L];
            gv.copy_from_slice(&at[co..co + L]);
            for t in 0..T {
                let iv = taps[t][ox];
                for l in 0..L {
                    acc[t][l] += iv * gv[l];
                }
            }
        }
        for t in 0..T {
            rows[t][c..c + L].copy_from_slice(&acc[t]);
        }
        T
    }
}

/// Critical path of `flops` split into `blocks` equal work units.
fn stage_cost(flops: f64, blocks: usize, workers: usize) -> KernelCost {
    let critical_flops = if blocks == 0 {
        0.0
    } else {
        flops * pool::critical_units(blocks, workers) as f64 / blocks as f64
    };
    KernelCost {
        flops,
        critical_flops,
    }
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
    conv2d_on(
        Simd::detected(),
        pool,
        ws,
        input,
        filter,
        padding,
        epilogue,
        take,
    )
}

/// [`conv2d_with`] on a given instantiation (the tests run both).
#[allow(clippy::too_many_arguments)]
fn conv2d_on(
    simd: Simd,
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
    let (padded, taps) = pad(pool, &g, input.data(), ws);
    let kernel = Forward {
        g: &g,
        padded,
        taps,
        filter: filter.data(),
        epilogue,
    };
    gemm::run_grid(simd, pool, g.positions, g.cout, &mut out, &kernel);
    let relu = epilogue.is_some_and(|(_, relu)| relu);
    let cost = gemm::gemm_cost(pool, g.positions, g.patch, g.cout, relu);
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

/// Filter gradient `gf [patch, cout]`: per tap, the sum over positions
/// of the padded input value times the output gradient. Reads the
/// input's values and the filter's shape only.
pub(super) fn conv2d_grad_filter(
    pool: &WorkerPool,
    ws: &mut Workspace,
    input: &Tensor,
    filter_shape: &[usize],
    grad: &Tensor,
    padding: Padding,
    take: TakeBuffer<'_>,
) -> Result<(Tensor, KernelCost), TensorError> {
    conv2d_grad_filter_on(
        Simd::detected(),
        pool,
        ws,
        input,
        filter_shape,
        grad,
        padding,
        take,
    )
}

/// [`conv2d_grad_filter`] on a given instantiation (the tests run both).
#[allow(clippy::too_many_arguments)]
fn conv2d_grad_filter_on(
    simd: Simd,
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
    let (padded, taps) = pad(pool, &g, input.data(), ws);
    let kernel = FilterGrad {
        g: &g,
        padded,
        taps,
        grad: grad.data(),
    };
    gemm::run_grid(simd, pool, g.patch, g.cout, &mut gf, &kernel);
    let cost = gemm::gemm_cost(pool, g.patch, g.positions, g.cout, false);
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
    let mut cost = gemm::gemm(
        pool,
        positions,
        cout,
        patch,
        grad.data(),
        filter_t,
        gcol,
        None,
    );
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
    cost.merge(stage_cost(
        positions as f64 * patch as f64,
        g.b,
        pool.workers(),
    ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::oracle::{naive_conv2d, naive_conv2d_grad};

    /// Values in [-1, 1); with `special`, about one in seven replaced by
    /// NaN, ±Inf or a signed zero.
    fn fill(seed: u64, len: usize, special: bool) -> Vec<f32> {
        const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let h = s >> 33;
                if special && h.is_multiple_of(7) {
                    SPECIAL[(h / 7) as usize % SPECIAL.len()]
                } else {
                    (h % 2000) as f32 * 1e-3 - 1.0
                }
            })
            .collect()
    }

    /// Bit-equal, except that any NaN equals any NaN.
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:?}, want {w:?}"
            );
        }
    }

    fn poisoned(len: usize) -> Vec<f32> {
        vec![f32::NAN; len]
    }

    /// The shapes where the direct kernels have edges — column tiles of
    /// 8, 4 and 1, channel strips and their remainders, tap groups of 9,
    /// 4, 2 and 1, runs cut by a 64-position unit, taps that only read
    /// padding, column panels — on every instantiation, on one recycled
    /// workspace, into NaN-filled outputs.
    #[test]
    fn every_instantiation_matches_naive_at_the_edges() {
        let sides = [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 19];
        let channels = [1usize, 2, 3, 8];
        let outs = [1usize, 3, 4, 7, 8, 9, 16, 17, 24, 33];
        let kernels = [1usize, 2, 3, 5];
        let mut ws = Workspace::new();
        for step in 0..60 {
            let (h, w) = (sides[step % sides.len()], sides[step * 5 % sides.len()]);
            let (b, cin) = (1 + step % 2, channels[step * 3 % channels.len()]);
            let cout = outs[step * 7 % outs.len()];
            let kernel = kernels[step % kernels.len()];
            let (padding, kh, kw) = if step % 3 == 1 {
                (Padding::Valid, kernel.min(h), kernel.min(w))
            } else {
                (Padding::Same, kernel, kernel)
            };
            let (special, relu, workers) = (step % 4 == 0, step % 2 == 0, 1 + step % 5);
            let seed = step as u64 * 131 + 7;
            let input =
                Tensor::from_vec(&[b, h, w, cin], fill(seed, b * h * w * cin, special)).unwrap();
            let filter_shape = [kh, kw, cin, cout];
            let filter =
                Tensor::from_vec(&filter_shape, fill(seed + 1, kh * kw * cin * cout, special))
                    .unwrap();
            let bias = Tensor::from_vec(&[cout], fill(seed + 2, cout, special)).unwrap();
            let want = naive_conv2d(&input, &filter, padding).unwrap();
            let fused: Vec<f32> = want
                .data()
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let v = v + bias.data()[i % cout];
                    if relu {
                        v.max(0.0)
                    } else {
                        v
                    }
                })
                .collect();
            let grad = Tensor::from_vec(want.shape(), fill(seed + 3, want.len(), special)).unwrap();
            let (_, want_gf) = naive_conv2d_grad(&input, &filter, &grad, padding).unwrap();
            let pool = WorkerPool::new(workers);
            for simd in Simd::supported("conv") {
                let what = format!(
                    "{simd:?} {:?} {filter_shape:?} {padding:?} workers={workers}",
                    input.shape()
                );
                let mut forward = |epilogue| {
                    conv2d_on(
                        simd,
                        &pool,
                        &mut ws,
                        &input,
                        &filter,
                        padding,
                        epilogue,
                        &mut poisoned,
                    )
                    .unwrap()
                    .0
                };
                assert_same(
                    forward(None).data(),
                    want.data(),
                    &format!("forward {what}"),
                );
                let out = forward(Some((&bias, relu)));
                assert_same(out.data(), &fused, &format!("fused relu={relu} {what}"));
                let (gf, _) = conv2d_grad_filter_on(
                    simd,
                    &pool,
                    &mut ws,
                    &input,
                    &filter_shape,
                    &grad,
                    padding,
                    &mut poisoned,
                )
                .unwrap();
                assert_same(
                    gf.data(),
                    want_gf.data(),
                    &format!("filter gradient {what}"),
                );
            }
        }
    }

    #[test]
    fn a_same_kernel_without_rows_is_refused() {
        let refused = conv2d(
            &WorkerPool::serial(),
            &Tensor::zeros(&[1, 4, 4, 1]),
            &Tensor::zeros(&[0, 3, 1, 2]),
            Padding::Same,
        );
        assert!(
            matches!(
                refused,
                Err(TensorError::ShapeMismatch { op: "conv2d", .. })
            ),
            "{refused:?}"
        );
    }

    #[test]
    fn a_valid_kernel_without_columns_is_refused() {
        // It used to give a `[1, 2, 5, 2]` output, wider than the image.
        let refused = conv2d(
            &WorkerPool::serial(),
            &Tensor::zeros(&[1, 4, 4, 1]),
            &Tensor::zeros(&[3, 0, 1, 2]),
            Padding::Valid,
        );
        assert!(
            matches!(
                refused,
                Err(TensorError::ShapeMismatch { op: "conv2d", .. })
            ),
            "{refused:?}"
        );
    }
}
