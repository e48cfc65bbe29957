//! Register-tiled GEMM over a row × column grid of work units.
//!
//! The naive triple loop reads and writes a row of C once per element of
//! A. The micro-kernel ([`tile`]) instead holds up to [`MR`] rows × one
//! vector of C columns in registers, adds consecutive rows of B into it
//! and stores it once, so C traffic is that many times smaller and the
//! multiply/add units, not the store port, set the pace. Where column
//! tiles reread a strip of A, it is packed k-major so the kernel reads it
//! sequentially. The k
//! dimension runs in [`KC`]-deep panels so that for large m the B rows a
//! panel touches stay cache-resident across strips.
//!
//! B comes in one of three layouts ([`BLayout`]). An operand that
//! changes per call (training weights, activations) is row-major and
//! streamed [`KU`] rows at a time (a k-panel's last group takes a shorter
//! remainder along): every byte of it is read once per call, so packing
//! it per call would double its traffic. A constant — a serving weight —
//! is packed once, when the model is lowered, into [`NR`]-column panels
//! stored k-contiguously ([`pack_panels`]); on those the tile keeps its C
//! rows over a whole k-panel, each worker reads B in storage order, one
//! sequential stream, and prefetches [`PREFETCH_AHEAD`] floats ahead. A
//! B stored as its transpose (`grad × Wᵀ`, the dense layers' input
//! gradient, reads `W` itself) is gathered [`NR`] columns at a time, once
//! per k-panel, into the layout of a packed panel ([`gather`]).
//!
//! A is packed only where that pays: when several column tiles reread
//! the strip. Where one tile covers a unit's columns — a row-major B of
//! at most [`NR`] columns, the dense layer's forward and weight gradient
//! with `n` = 10 classes — and on a gathered B, the tile instead reads A
//! where it lies ([`direct_strips`]): a masked 16-lane tile on AVX-512,
//! 8 lanes and a masked 8 on AVX2 ([`tile_direct`]). Either way A is
//! read by one step that resolves its layout ([`ALayout`]): a product
//! whose left operand is stored transposed (`lhsᵀ × grad`, the dense
//! layers' weight gradient) reads the `[k, m]` buffer — `R` contiguous
//! floats per `p` — and no transposed copy of A or B is ever made.
//!
//! C is written, never read: the first k-group of a unit starts its
//! accumulators at `0.0` ([`tile`]'s `FIRST` instantiation) instead of
//! loading them, so the caller hands in a buffer of unspecified contents
//! and nobody zero-fills it first. That is bit-identical to accumulating
//! into a zeroed C — the load returned `0.0`.
//!
//! The one body is compiled for three instruction sets ([`Simd`]),
//! chosen per call from what the CPU reports: the build's baseline
//! target (4 lanes) and, on x86-64, `target_feature(enable = "avx2")` (8
//! lanes) and `target_feature(enable = "avx512f")`. The last runs 16
//! lanes for a kernel with a wide body ([`GridKernel::wide`]): the GEMM
//! on packed panels, on a gathered B and on a row-major B of at most
//! [`NR`] columns, through tiles of explicit intrinsics ([`tile_avx512`],
//! [`tile_direct_avx512`]) — a body on 16-lane arrays runs a tenth as
//! fast as on 8 — and the conv filter gradient, whose lane-array body is
//! faster at 16 lanes. Every other kernel (the GEMM on a wider row-major
//! B, the conv forward, max-pool, the quantizer) runs its AVX2 body
//! there.
//!
//! Work is split into units of ([`ROW_BLOCK`] rows) × (column panel).
//! With at least as many row blocks as workers there is one panel; with
//! fewer, the columns are cut on [`COL_ALIGN`]-float boundaries into just
//! enough panels that every worker gets a unit, which is what lets a
//! batch of 8 rows use both cores. Each C element belongs to exactly one
//! unit, and the `+bias[ → relu]` epilogue of the fused ops runs inside
//! the unit, after its last k-panel. The grid ([`run_grid`]) and the
//! instantiation seam ([`GridKernel`]) are shared with the direct
//! convolution kernels, which is why [`gemm_cost`] prices those too.
//!
//! **Determinism rule**: tiling, packing, gathering, masking, the vector
//! width and the split change the *memory* order only, never the
//! *arithmetic* order. For
//! every output element `C[i,j]` the additions run over `p = 0..k`
//! strictly increasing, each a separate multiply and add (no FMA), like
//! the naive loop, so every instantiation and every worker count is
//! bit-for-bit identical to `naive_matmul` (`tests/oracle/kernels.rs`).

use std::ops::Range;

use super::pool::{self, WorkerPool};
use super::KernelCost;

/// Rows per work unit.
const ROW_BLOCK: usize = 64;
/// Column panels start on multiples of this many floats (a cache line),
/// so two workers share a line of C only where a row itself is unaligned.
const COL_ALIGN: usize = 16;
/// Depth of one packed k-panel (8 KiB of packed A per strip).
const KC: usize = 256;
/// Rows of the largest register tile, and of a packed strip.
const MR: usize = 8;
/// Row-major B rows a tile accumulates between loading and storing its
/// C rows (the last group of a k-panel up to `2 * KU - 1`).
const KU: usize = 8;
/// Columns of one panel of a packed B ([`BLayout::Panels`]): the
/// AVX-512 tile's width, two AVX2 tiles or four baseline ones.
pub(crate) const NR: usize = 16;
/// How far ahead of the row it multiplies a panel tile prefetches B, in
/// floats (4 KiB: 64 rows of a full panel, a quarter of a k-panel).
const PREFETCH_AHEAD: usize = 1024;

/// B rows [`pack_panels`] moves into the panels at a time.
const PACK_ROWS: usize = 64;

// A unit's columns start on a panel boundary.
const _: () = assert!(COL_ALIGN.is_multiple_of(NR));

/// The instruction set the micro-kernel body is instantiated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// The build's baseline target (SSE2 on x86-64): 4 lanes.
    Baseline,
    /// AVX2, detected at run time: 8 lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F (and AVX2), detected at run time: 16 lanes for a kernel
    /// with a wide body ([`GridKernel::wide`]), the [`Simd::Avx2`]
    /// instantiation for every other.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Simd {
    /// The widest instantiation this CPU can run.
    pub(crate) fn detected() -> Simd {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") && has!("avx512f") {
                return Simd::Avx512;
            }
            if has!("avx2") {
                return Simd::Avx2;
            }
        }
        Simd::Baseline
    }

    /// Every instantiation this CPU can run, narrowest first. Each one it
    /// cannot is printed as SKIPPED, so that a test over this list does
    /// not pass vacuously on a narrower CPU; `kernel` names the caller.
    #[cfg(test)]
    pub(super) fn supported(kernel: &str) -> Vec<Simd> {
        #[allow(unused_mut)]
        let mut all = vec![Simd::Baseline];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            for (simd, detected) in [
                (Simd::Avx2, has!("avx2")),
                (Simd::Avx512, has!("avx2") && has!("avx512f")),
            ] {
                if detected {
                    all.push(simd);
                } else {
                    eprintln!("{kernel}: the {simd:?} instantiation was SKIPPED, the CPU does not have it");
                }
            }
        }
        all
    }

    /// Computes one unit of `kernel` on this instantiation.
    fn run_unit<K: GridKernel>(self, kernel: &K, i0: usize, j0: usize, rows: &mut [&mut [f32]]) {
        match self {
            Simd::Baseline => kernel.unit::<4>(i0, j0, rows),
            #[cfg(target_arch = "x86_64")]
            Simd::Avx512 if kernel.wide() => {
                assert!(
                    std::arch::is_x86_feature_detected!("avx512f"),
                    "AVX-512 kernel on a CPU without AVX-512F"
                );
                // SAFETY: the only requirement of `unit_avx512` is that
                // the CPU supports AVX-512F, which the assertion above
                // checked.
                unsafe { unit_avx512(kernel, i0, j0, rows) }
            }
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2 | Simd::Avx512 => {
                assert!(
                    std::arch::is_x86_feature_detected!("avx2"),
                    "AVX2 kernel on a CPU without AVX2"
                );
                // SAFETY: the only requirement of `unit_avx2` is that the
                // CPU supports AVX2, which the assertion above checked.
                unsafe { unit_avx2(kernel, i0, j0, rows) }
            }
        }
    }
}

/// A kernel whose output is a row-major `[m, n]` matrix computed unit by
/// unit over the grid of [`run_grid`]: the GEMM, and the direct
/// convolution's forward pass and filter gradient.
pub(super) trait GridKernel: Sync {
    /// Computes one unit with `L`-lane vectors: `rows[r]` is the part of
    /// output row `i0 + r` that covers columns `j0..j0 + rows[r].len()`,
    /// all of one length. Every element must be written, whatever it
    /// held. Implementations are `#[inline(always)]`, so that the body is
    /// compiled with the instruction set of whichever instantiation it
    /// lands in. `L` is 4, 8 or, for a [`wide`](GridKernel::wide) unit,
    /// 16; only [`unit_avx512`] runs `L = 16`, and a body may use
    /// AVX-512F there.
    fn unit<const L: usize>(&self, i0: usize, j0: usize, rows: &mut [&mut [f32]]);

    /// Whether this kernel has a 16-lane body for [`Simd::Avx512`] to
    /// run. A kernel without one runs its 8-lane body there, compiled
    /// for AVX2. Whether a body is faster at 16 lanes is measured, not
    /// assumed: the conv filter gradient's lane arrays are (136 → ~105
    /// µs at the `train_dist` shape), the conv forward's run ~4.5× slower
    /// and the GEMM tile's a tenth as fast as at 8, which is why the
    /// packed GEMM has intrinsics there.
    fn wide(&self) -> bool {
        false
    }
}

/// [`GridKernel::unit`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn unit_avx2<K: GridKernel>(kernel: &K, i0: usize, j0: usize, rows: &mut [&mut [f32]]) {
    kernel.unit::<8>(i0, j0, rows);
}

/// [`GridKernel::unit`] compiled for AVX-512F, at 16 lanes.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn unit_avx512<K: GridKernel>(kernel: &K, i0: usize, j0: usize, rows: &mut [&mut [f32]]) {
    kernel.unit::<16>(i0, j0, rows);
}

/// How the left operand of a product is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ALayout {
    /// Row-major `[m, k]`: `A[i][p] = a[i * k + p]`.
    RowMajor,
    /// Row-major storage of `Aᵀ`, `[k, m]`: `A[i][p] = a[p * m + i]`.
    Transposed,
}

/// How the right operand of a product is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BLayout {
    /// Row-major `[k, n]`: `B[p][j] = b[p * n + j]`.
    RowMajor,
    /// Row-major storage of `Bᵀ`, `[n, k]`: `B[p][j] = b[j * k + p]` — a
    /// dense layer's weight `W`, read as the `Wᵀ` of its input gradient
    /// `grad × Wᵀ` where it lies.
    Transposed,
    /// [`NR`]-column panels, each k-contiguous ([`pack_panels`]): panel
    /// `q` covers columns `q * NR..q * NR + w`, `w = NR.min(n - q * NR)`
    /// (only the last one can be narrower), and is the row-major `[k, w]`
    /// matrix at `b[q * NR * k..]`. The same `k * n` floats, no padding.
    Panels,
}

/// Rewrites row-major `b [k, n]` in place into the [`BLayout::Panels`]
/// order, through a row-major copy in `scratch` (reused across calls, it
/// is allocated once, not once per matrix). Blocks of
/// [`PACK_ROWS`] rows at a time: a block's rows stay in cache while every
/// panel takes its contiguous `PACK_ROWS * w` floats of it. Row by row,
/// the 16 floats of each row would land a panel's length apart, and
/// panels of 1024 rows are 64 KiB apart: every write would meet the
/// previous 63 in the same cache set.
pub(crate) fn pack_panels(k: usize, n: usize, b: &mut [f32], scratch: &mut Vec<f32>) {
    assert_eq!(b.len(), k * n, "pack: B is not {k}x{n}");
    scratch.clear();
    scratch.extend_from_slice(b);
    for (block, rows) in scratch.chunks(PACK_ROWS * n.max(1)).enumerate() {
        let p0 = block * PACK_ROWS;
        for q0 in (0..n).step_by(NR) {
            let w = NR.min(n - q0);
            let panel_rows = b[q0 * k + p0 * w..].chunks_exact_mut(w);
            for (dst, row) in panel_rows.zip(rows.chunks_exact(n)) {
                dst.copy_from_slice(&row[q0..q0 + w]);
            }
        }
    }
}

/// The row-major `[k, n]` matrix whose [`pack_panels`] order `panels` is.
pub(crate) fn unpack_panels(k: usize, n: usize, panels: &[f32]) -> Vec<f32> {
    assert_eq!(panels.len(), k * n, "unpack: panels are not {k}x{n}");
    let mut b = vec![0.0f32; k * n];
    for (p, row) in b.chunks_exact_mut(n.max(1)).enumerate() {
        for (q0, block) in (0..n).step_by(NR).zip(row.chunks_mut(NR)) {
            let w = block.len();
            block.copy_from_slice(&panels[q0 * k + p * w..][..w]);
        }
    }
    b
}

/// The read-only side of one product, shared by every unit.
struct Operands<'a> {
    m: usize,
    k: usize,
    n: usize,
    a: &'a [f32],
    a_layout: ALayout,
    b: &'a [f32],
    b_layout: BLayout,
    /// `(bias [n], relu)` of the fused ops.
    epilogue: Option<(&'a [f32], bool)>,
}

/// Computes `C = A × B` for row-major `A [m,k]`, `B [k,n]` into the
/// buffer `c` of `m * n` elements — every element is written, whatever it
/// held — splitting the unit grid over the pool. With `epilogue =
/// Some((bias, relu))` every element then gets `+= bias[j]` and, if
/// `relu`, `max(0.0)` — per element the operations of the unfused
/// `add_bias` and `relu` ops, in that order. Returns the [`gemm_cost`] of
/// the split it ran.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    pool: &WorkerPool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    epilogue: Option<(&[f32], bool)>,
) -> KernelCost {
    gemm_laid_out(
        pool,
        m,
        k,
        n,
        (a, ALayout::RowMajor),
        (b, BLayout::RowMajor),
        c,
        epilogue,
    )
}

/// [`gemm`] with each operand in either layout: for
/// [`ALayout::Transposed`], `a` is the row-major `[k, m]` buffer of `Aᵀ`;
/// for [`BLayout::Panels`], `b` is the [`pack_panels`] order of `B`. Same
/// result, bit for bit, and same cost as [`gemm`] on row-major operands.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_laid_out(
    pool: &WorkerPool,
    m: usize,
    k: usize,
    n: usize,
    a: (&[f32], ALayout),
    b: (&[f32], BLayout),
    c: &mut [f32],
    epilogue: Option<(&[f32], bool)>,
) -> KernelCost {
    gemm_on(Simd::detected(), pool, m, k, n, a, b, c, epilogue)
}

/// [`gemm`] on a given instantiation (the tests run both).
#[allow(clippy::too_many_arguments)]
fn gemm_on(
    simd: Simd,
    pool: &WorkerPool,
    m: usize,
    k: usize,
    n: usize,
    (a, a_layout): (&[f32], ALayout),
    (b, b_layout): (&[f32], BLayout),
    c: &mut [f32],
    epilogue: Option<(&[f32], bool)>,
) -> KernelCost {
    // Every index the units compute is derived from m, k, n: these checks
    // are what keeps a caller's mistake a panic here and not a stray
    // panic (or, under the vectorised body, a wrong answer) deep inside.
    assert!(
        a.len() == m * k,
        "gemm: A holds {} elements, not {m}x{k}",
        a.len()
    );
    assert!(
        b.len() == k * n,
        "gemm: B holds {} elements, not {k}x{n}",
        b.len()
    );
    assert!(
        c.len() == m * n,
        "gemm: C holds {} elements, not {m}x{n}",
        c.len()
    );
    assert!(
        epilogue.is_none_or(|(bias, _)| bias.len() == n),
        "gemm: bias is not [{n}]"
    );
    let cost = gemm_cost(pool, m, k, n, epilogue.is_some_and(|(_, relu)| relu));
    if m == 0 || n == 0 {
        return cost;
    }
    if k == 0 {
        // No k-group runs, so nothing below would write C: the empty sum.
        c.fill(0.0);
    }
    let op = Operands {
        m,
        k,
        n,
        a,
        a_layout,
        b,
        b_layout,
        epilogue,
    };
    run_grid(simd, pool, m, n, c, &op);
    cost
}

/// Cuts the row-major `[m, n]` output `c` into the unit grid — row
/// blocks of [`ROW_BLOCK`] rows × the [`column_panels`] — and computes
/// every unit of `kernel` on `simd`, dealing units to the pool's workers
/// by [`pool::partition`]. The split depends on `(m, n, workers)` only,
/// which is what lets [`gemm_cost`] price any kernel run on it.
pub(super) fn run_grid<K: GridKernel>(
    simd: Simd,
    pool: &WorkerPool,
    m: usize,
    n: usize,
    c: &mut [f32],
    kernel: &K,
) {
    assert!(
        c.len() == m * n,
        "grid: output holds {} elements, not {m}x{n}",
        c.len()
    );
    if m == 0 || n == 0 {
        return;
    }
    let panels = column_panels(pool.workers(), m, n);
    if panels.len() == 1 {
        // Units are whole row blocks, contiguous in C.
        pool.run_on_blocks(c, ROW_BLOCK * n, &|rb, block| {
            let count = block.len() / n;
            let mut block_rows = block.chunks_mut(n);
            let mut rows: [&mut [f32]; ROW_BLOCK] =
                std::array::from_fn(|_| block_rows.next().unwrap_or_default());
            simd.run_unit(kernel, rb * ROW_BLOCK, 0, &mut rows[..count]);
        });
        return;
    }
    // Columns are split, which `column_panels` only does while there are
    // fewer row blocks than workers: hand every unit the segments of its
    // rows (at most `ROW_BLOCK * workers * 2` fat pointers in all).
    let mut units: Vec<Vec<&mut [f32]>> = Vec::new();
    units.resize_with(m.div_ceil(ROW_BLOCK) * panels.len(), || {
        Vec::with_capacity(ROW_BLOCK.min(m))
    });
    for (i, mut row) in c.chunks_mut(n).enumerate() {
        let first = i / ROW_BLOCK * panels.len();
        for (unit, panel) in units[first..].iter_mut().zip(&panels) {
            let (segment, rest) = std::mem::take(&mut row).split_at_mut(panel.len());
            unit.push(segment);
            row = rest;
        }
    }
    pool.run_items(&mut units, &|u, rows| {
        simd.run_unit(
            kernel,
            u / panels.len() * ROW_BLOCK,
            panels[u % panels.len()].start,
            rows,
        );
    });
}

/// The column ranges of the unit grid of an `[m, n]` output: one panel
/// when the row blocks alone give every worker a unit, otherwise the
/// fewest panels that do, cut on [`COL_ALIGN`] boundaries (so an output
/// narrower than that is never split). Units are numbered row block
/// major, panel minor, and dealt to workers by [`pool::partition`].
fn column_panels(workers: usize, m: usize, n: usize) -> Vec<Range<usize>> {
    let row_blocks = m.div_ceil(ROW_BLOCK).max(1);
    pool::partition(n.div_ceil(COL_ALIGN), workers.div_ceil(row_blocks))
        .into_iter()
        .map(|lines| lines.start * COL_ALIGN..(lines.end * COL_ALIGN).min(n))
        .collect()
}

/// Total and critical-path flops of a pooled [`gemm`] call; `relu` adds
/// the fused epilogue's one flop per element (its bias add charges none,
/// like the unfused `AddBias`).
///
/// The critical path is the output area of worker 0. [`pool::partition`]
/// gives it the first and longest run of units, and in grid order only
/// the last row block and the last panels are smaller than the rest, so
/// no other worker's area is larger.
pub(super) fn gemm_cost(pool: &WorkerPool, m: usize, k: usize, n: usize, relu: bool) -> KernelCost {
    let panels = column_panels(pool.workers(), m, n);
    let per_block = panels.len().max(1);
    let critical = pool::critical_units(m.div_ceil(ROW_BLOCK) * panels.len(), pool.workers());
    // Worker 0 owns `whole` complete row blocks and the first `part`
    // panels of the next one.
    let (whole, part) = (critical / per_block, critical % per_block);
    let rows_done = (whole * ROW_BLOCK).min(m);
    let critical_area =
        rows_done * n + ROW_BLOCK.min(m - rows_done) * panels.get(part).map_or(0, |p| p.start);
    let per_element = 2.0 * k as f64 + f64::from(u8::from(relu));
    KernelCost {
        flops: per_element * m as f64 * n as f64,
        critical_flops: per_element * critical_area as f64,
    }
}

impl GridKernel for Operands<'_> {
    /// Packed panels are [`NR`] = 16 columns wide: the 16-lane tile's. So
    /// are a gathered [`BLayout::Transposed`] block and, with `n <= NR`,
    /// a row-major B: one masked 16-lane tile covers all of its columns.
    fn wide(&self) -> bool {
        self.b_layout != BLayout::RowMajor || self.n <= NR
    }

    /// One GEMM unit with `L`-lane tiles. Everything below is
    /// `inline(always)` too.
    #[inline(always)]
    fn unit<const L: usize>(&self, i0: usize, j0: usize, rows: &mut [&mut [f32]]) {
        let cols = rows[0].len();
        match self.b_layout {
            // One tile covers the unit's columns, so no column tile
            // rereads a strip of A: the tile broadcasts it where it lies,
            // over the whole of k.
            BLayout::RowMajor if cols <= NR => {
                direct_strips::<L, true>(
                    self,
                    i0,
                    (0, self.k),
                    rows,
                    0,
                    cols,
                    (self.b, self.n, j0),
                );
            }
            BLayout::Transposed => self.gathered::<L>(i0, j0, rows),
            BLayout::RowMajor | BLayout::Panels => self.packed::<L>(i0, j0, rows),
        }
        if let Some((bias, relu)) = self.epilogue {
            for row in rows.iter_mut() {
                let bias = &bias[j0..j0 + row.len()];
                if relu {
                    for (v, b) in row.iter_mut().zip(bias) {
                        *v += *b;
                        *v = v.max(0.0);
                    }
                } else {
                    for (v, b) in row.iter_mut().zip(bias) {
                        *v += *b;
                    }
                }
            }
        }
    }
}

impl Operands<'_> {
    /// The unit's products with A packed strip by strip ([`strip`]), for
    /// a B whose column tiles each reread the strip.
    #[inline(always)]
    fn packed<const L: usize>(&self, i0: usize, j0: usize, rows: &mut [&mut [f32]]) {
        let mut packed = [0.0f32; MR * KC];
        for pc in (0..self.k).step_by(KC) {
            let kc = KC.min(self.k - pc);
            let mut ir = 0;
            while ir < rows.len() {
                let i = i0 + ir;
                ir += match rows.len() - ir {
                    MR.. => {
                        strip::<MR, L>(self, i, pc, kc, j0, &mut rows[ir..ir + MR], &mut packed)
                    }
                    4.. => strip::<4, L>(self, i, pc, kc, j0, &mut rows[ir..ir + 4], &mut packed),
                    _ => strip::<1, L>(self, i, pc, kc, j0, &mut rows[ir..ir + 1], &mut packed),
                };
            }
        }
    }

    /// The unit's products on a [`BLayout::Transposed`] B: k-panel by
    /// k-panel, each [`NR`]-column block of the unit is gathered once into
    /// the layout of a packed panel (`[kc, w]` row-major), and every strip
    /// of rows then multiplies it, A read where it lies.
    #[inline(always)]
    fn gathered<const L: usize>(&self, i0: usize, j0: usize, rows: &mut [&mut [f32]]) {
        let mut block = [0.0f32; KC * NR];
        let cols = rows[0].len();
        for pc in (0..self.k).step_by(KC) {
            let kc = KC.min(self.k - pc);
            for jb in (0..cols).step_by(NR) {
                let w = NR.min(cols - jb);
                gather::<L>(self.b, self.k, j0 + jb, (pc, kc), w, &mut block);
                let b = (&block[..kc * w], w, 0);
                if pc == 0 {
                    direct_strips::<L, true>(self, i0, (pc, kc), rows, jb, w, b);
                } else {
                    direct_strips::<L, false>(self, i0, (pc, kc), rows, jb, w, b);
                }
            }
        }
    }
}

/// Copies columns `j..j + w` of rows `p0..p0 + kc` of a
/// [`BLayout::Transposed`] B (stored `[n, k]`) into `block` as the
/// row-major `[kc, w]` of a packed panel. A whole [`NR`]-column block at 8
/// and 16 lanes is one hardware gather per row ([`gather_avx512`],
/// [`gather_avx2`]): the scalar loop, storing a column at a time, costs as
/// much as the products it feeds at the dense layer's `k` of 10.
#[inline(always)]
fn gather<const L: usize>(
    b: &[f32],
    k: usize,
    j: usize,
    (p0, kc): (usize, usize),
    w: usize,
    block: &mut [f32],
) {
    let src = &b[j * k + p0..][..(w - 1) * k + kc];
    let block = &mut block[..kc * w];
    #[cfg(target_arch = "x86_64")]
    if L >= 8 && w == NR && (NR - 1) * k <= i32::MAX as usize {
        if L == 16 {
            // SAFETY: 16 lanes run only inside `unit_avx512`, whose
            // caller has checked that the CPU supports AVX-512F; `src`
            // holds `(NR - 1) * k + kc` floats and `block` `kc * NR`, and
            // the offsets fit an i32 (checked above).
            unsafe { gather_avx512(src, k, block) };
        } else {
            // SAFETY: as above, with `unit_avx2` and AVX2.
            unsafe { gather_avx2(src, k, block) };
        }
        return;
    }
    for l in 0..w {
        for (p, &v) in src[l * k..][..kc].iter().enumerate() {
            block[p * w + l] = v;
        }
    }
}

/// [`gather`] of a whole [`NR`]-column block with AVX-512F: row `p` of
/// `block` is `src[l * k + p]` for `l` in `0..16`, one `vgatherdps`.
///
/// # Safety
///
/// The CPU must support AVX-512F, `block.len()` must be a multiple of
/// [`NR`], `src` must hold `(NR - 1) * k + block.len() / NR` floats, and
/// `(NR - 1) * k` must fit an `i32`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn gather_avx512(src: &[f32], k: usize, block: &mut [f32]) {
    use std::arch::x86_64::{_mm512_i32gather_ps, _mm512_mullo_epi32, _mm512_set1_epi32};
    use std::arch::x86_64::{_mm512_setr_epi32, _mm512_storeu_ps};
    // SAFETY (every block below): the CPU supports AVX-512F; the gather
    // of row `p` reads `src[p + l * k]`, `l < 16`, inside `src` by the
    // contract, and each store writes one 16-float row of `block`.
    let lanes = unsafe { _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15) };
    let offsets = unsafe { _mm512_mullo_epi32(lanes, _mm512_set1_epi32(k as i32)) };
    for (p, row) in block.chunks_exact_mut(NR).enumerate() {
        unsafe {
            let v = _mm512_i32gather_ps::<4>(offsets, src.as_ptr().add(p));
            _mm512_storeu_ps(row.as_mut_ptr(), v);
        }
    }
}

/// [`gather_avx512`] with AVX2: two 8-lane `vgatherdps` per row.
///
/// # Safety
///
/// As [`gather_avx512`], with AVX2 for the CPU.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn gather_avx2(src: &[f32], k: usize, block: &mut [f32]) {
    use std::arch::x86_64::{_mm256_i32gather_ps, _mm256_mullo_epi32, _mm256_set1_epi32};
    use std::arch::x86_64::{_mm256_setr_epi32, _mm256_storeu_ps};
    // SAFETY (every block below): as in `gather_avx512`, with AVX2; the
    // second half of a row gathers from `src[8 * k..]`.
    let lanes = unsafe { _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7) };
    let offsets = unsafe { _mm256_mullo_epi32(lanes, _mm256_set1_epi32(k as i32)) };
    let upper = 8 * k;
    for (p, row) in block.chunks_exact_mut(NR).enumerate() {
        unsafe {
            let low = _mm256_i32gather_ps::<4>(src.as_ptr().add(p), offsets);
            let high = _mm256_i32gather_ps::<4>(src.as_ptr().add(upper + p), offsets);
            _mm256_storeu_ps(row.as_mut_ptr(), low);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), high);
        }
    }
}

/// Runs k-panel `p0..p0 + kc` of segment columns `j..j + cols` for all of
/// `rows` (C rows from `i0`), in strips of [`MR`], 4 and 1 rows, with A
/// read where it lies. `b` is `(rows, stride, jb)`: the panel's `kc` B
/// rows of `stride` floats each, segment column `j` being column `jb` in
/// them. `FIRST` starts the sums, otherwise they are added to C.
#[inline(always)]
fn direct_strips<const L: usize, const FIRST: bool>(
    op: &Operands<'_>,
    i0: usize,
    k_panel: (usize, usize),
    rows: &mut [&mut [f32]],
    j: usize,
    cols: usize,
    b: (&[f32], usize, usize),
) {
    let mut ir = 0;
    while ir < rows.len() {
        let i = i0 + ir;
        ir += match rows.len() - ir {
            MR.. => {
                direct_strip::<MR, L, FIRST>(op, i, k_panel, &mut rows[ir..ir + MR], j, cols, b)
            }
            4.. => direct_strip::<4, L, FIRST>(op, i, k_panel, &mut rows[ir..ir + 4], j, cols, b),
            _ => direct_strip::<1, L, FIRST>(op, i, k_panel, &mut rows[ir..ir + 1], j, cols, b),
        };
    }
}

/// [`direct_strips`] for one strip of `R` rows from C row `i`: resolves
/// where A's `R` values of each `p` lie — the only place that knows how A
/// is stored on this path — and hands them to [`direct_row`]. Returns `R`.
#[inline(always)]
fn direct_strip<const R: usize, const L: usize, const FIRST: bool>(
    op: &Operands<'_>,
    i: usize,
    (p0, kc): (usize, usize),
    rows: &mut [&mut [f32]],
    j: usize,
    cols: usize,
    b: (&[f32], usize, usize),
) -> usize {
    match op.a_layout {
        ALayout::RowMajor => {
            let a_rows: [&[f32]; R] = std::array::from_fn(|r| &op.a[(i + r) * op.k + p0..][..kc]);
            direct_row::<R, L, FIRST>(rows, j, cols, &|p| std::array::from_fn(|r| a_rows[r][p]), b);
        }
        ALayout::Transposed => {
            let a_at = |p: usize| -> [f32; R] {
                let column = &op.a[(p0 + p) * op.m + i..][..R];
                std::array::from_fn(|r| column[r])
            };
            direct_row::<R, L, FIRST>(rows, j, cols, &a_at, b);
        }
    }
    R
}

/// Segment columns `j..j + cols` of a strip, [`tile_direct`] by tile: at
/// 8 and 16 lanes (x86-64 only) a last narrower tile is masked, at 4
/// lanes the columns left over run one at a time.
#[inline(always)]
fn direct_row<const R: usize, const L: usize, const FIRST: bool>(
    rows: &mut [&mut [f32]],
    j: usize,
    cols: usize,
    a_at: &impl Fn(usize) -> [f32; R],
    b: (&[f32], usize, usize),
) {
    let mut t = 0;
    if L >= 8 {
        while t < cols {
            let w = L.min(cols - t);
            tile_direct::<R, L, FIRST>(rows, j + t, w, a_at, b, t);
            t += w;
        }
        return;
    }
    while t + L <= cols {
        tile_direct::<R, L, FIRST>(rows, j + t, L, a_at, b, t);
        t += L;
    }
    while t < cols {
        tile_direct::<R, 1, FIRST>(rows, j + t, 1, a_at, b, t);
        t += 1;
    }
}

/// The micro-kernel on A where it lies: the `R × w` tile of C at segment
/// column `j` — `0.0` if `FIRST`, loaded from C otherwise — gets `a_at(p)
/// [r] * B[p][..]` added for every row `p` of `b = (rows, stride, jb)`,
/// in order, and is stored. B's tile starts at column `jb + t` of each
/// row. At 8 and 16 lanes it is [`tile_direct_avx2`] /
/// [`tile_direct_avx512`], `w <= L` lanes masked; otherwise `w == L`.
#[inline(always)]
fn tile_direct<const R: usize, const L: usize, const FIRST: bool>(
    rows: &mut [&mut [f32]],
    j: usize,
    w: usize,
    a_at: &impl Fn(usize) -> [f32; R],
    (b, stride, jb): (&[f32], usize, usize),
    t: usize,
) {
    let jb = jb + t;
    assert!(
        w <= L && jb + w <= stride,
        "tile: {w} columns at {jb} of {stride}"
    );
    #[cfg(target_arch = "x86_64")]
    if L == 16 {
        // SAFETY: 16 lanes run only inside `unit_avx512`, whose caller
        // has checked that the CPU supports AVX-512F; the assertion above
        // keeps every B row's `w` lanes inside the row.
        unsafe { tile_direct_avx512::<R, FIRST>(rows, j, w, a_at, b, stride, jb) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if L == 8 {
        // SAFETY: 8 lanes run only inside `unit_avx2`, whose caller has
        // checked that the CPU supports AVX2; the assertion above keeps
        // every B row's `w` lanes inside the row.
        unsafe { tile_direct_avx2::<R, FIRST>(rows, j, w, a_at, b, stride, jb) };
        return;
    }
    let mut acc = [[0.0f32; L]; R];
    if !FIRST {
        for r in 0..R {
            acc[r].copy_from_slice(&rows[r][j..j + L]);
        }
    }
    for (p, b_row) in b.chunks_exact(stride).enumerate() {
        let mut bv = [0.0f32; L];
        bv.copy_from_slice(&b_row[jb..jb + L]);
        let a = a_at(p);
        for r in 0..R {
            for l in 0..L {
                acc[r][l] += a[r] * bv[l];
            }
        }
    }
    for r in 0..R {
        rows[r][j..j + L].copy_from_slice(&acc[r]);
    }
}

/// [`tile_direct`] at 16 lanes: one `__m512` per C row, its lanes past
/// `w` masked off in every load and store, a broadcast of A, and a
/// separate multiply and add per B row (never a fused multiply-add).
///
/// # Safety
///
/// The CPU must support AVX-512F, and `jb + w <= stride`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_direct_avx512<const R: usize, const FIRST: bool>(
    rows: &mut [&mut [f32]],
    j: usize,
    w: usize,
    a_at: &impl Fn(usize) -> [f32; R],
    b: &[f32],
    stride: usize,
    jb: usize,
) {
    use std::arch::x86_64::{__m512, _mm512_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps};
    use std::arch::x86_64::{_mm512_mul_ps, _mm512_set1_ps};
    let mask = ((1u32 << w) - 1) as u16;
    // SAFETY (every block below): the CPU supports AVX-512F (this
    // function's contract); each masked load or store touches only the
    // `w` floats of a bounds-checked C segment, or of a B row from `jb`
    // (`jb + w <= stride`, the contract).
    let mut acc: [__m512; R] = [unsafe { _mm512_set1_ps(0.0) }; R];
    if !FIRST {
        for r in 0..R {
            acc[r] = unsafe { _mm512_maskz_loadu_ps(mask, rows[r][j..j + w].as_ptr()) };
        }
    }
    for (p, b_row) in b.chunks_exact(stride).enumerate() {
        let bv = unsafe { _mm512_maskz_loadu_ps(mask, b_row.as_ptr().add(jb)) };
        let a = a_at(p);
        for r in 0..R {
            acc[r] = unsafe { _mm512_add_ps(acc[r], _mm512_mul_ps(_mm512_set1_ps(a[r]), bv)) };
        }
    }
    for r in 0..R {
        unsafe { _mm512_mask_storeu_ps(rows[r][j..j + w].as_mut_ptr(), mask, acc[r]) };
    }
}

/// [`tile_direct`] at 8 lanes: [`tile_direct_avx512`] on `__m256` rows,
/// masked with AVX's masked moves.
///
/// # Safety
///
/// The CPU must support AVX2, and `jb + w <= stride`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_direct_avx2<const R: usize, const FIRST: bool>(
    rows: &mut [&mut [f32]],
    j: usize,
    w: usize,
    a_at: &impl Fn(usize) -> [f32; R],
    b: &[f32],
    stride: usize,
    jb: usize,
) {
    use std::arch::x86_64::{__m256, _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_maskload_ps};
    use std::arch::x86_64::{_mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_epi32};
    use std::arch::x86_64::{_mm256_set1_ps, _mm256_setr_epi32};
    // SAFETY (every block below): as in `tile_direct_avx512`, with AVX2
    // for the CPU.
    let mask = unsafe {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(w as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    };
    let mut acc: [__m256; R] = [unsafe { _mm256_set1_ps(0.0) }; R];
    if !FIRST {
        for r in 0..R {
            acc[r] = unsafe { _mm256_maskload_ps(rows[r][j..j + w].as_ptr(), mask) };
        }
    }
    for (p, b_row) in b.chunks_exact(stride).enumerate() {
        let bv = unsafe { _mm256_maskload_ps(b_row.as_ptr().add(jb), mask) };
        let a = a_at(p);
        for r in 0..R {
            acc[r] = unsafe { _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_set1_ps(a[r]), bv)) };
        }
    }
    for r in 0..R {
        unsafe { _mm256_maskstore_ps(rows[r][j..j + w].as_mut_ptr(), mask, acc[r]) };
    }
}

/// Computes k-panel `pc..pc + kc` of a strip of `R` rows (`rows.len() ==
/// R`), C rows `i..i + R`: the panel at `pc == 0` starts the strip's
/// sums, every later one adds to them. Returns `R`.
#[inline(always)]
fn strip<const R: usize, const L: usize>(
    op: &Operands<'_>,
    i: usize,
    pc: usize,
    kc: usize,
    j0: usize,
    rows: &mut [&mut [f32]],
    packed: &mut [f32; MR * KC],
) -> usize {
    // Pack the strip k-major: packed[p * R + r] = A[i + r][pc + p]. The
    // only place that knows how A is stored.
    match op.a_layout {
        ALayout::RowMajor => {
            for r in 0..R {
                let a_row = &op.a[(i + r) * op.k + pc..][..kc];
                for (p, &v) in a_row.iter().enumerate() {
                    packed[p * R + r] = v;
                }
            }
        }
        ALayout::Transposed => {
            for (p, group) in packed.chunks_exact_mut(R).take(kc).enumerate() {
                group.copy_from_slice(&op.a[(pc + p) * op.m + i..][..R]);
            }
        }
    }
    // The `FIRST` choice is made out here, once per group or panel:
    // inside `tile` it would sit in the loop the whole kernel exists to
    // keep tight.
    match op.b_layout {
        BLayout::RowMajor => {
            let cols = rows[0].len();
            let mut pg = 0;
            while pg < kc {
                // A remainder shorter than `KU` joins the group before it,
                // so C is loaded and stored once less (k = 9 or 10 is one
                // group, not two).
                let ku = if kc - pg < 2 * KU { kc - pg } else { KU };
                let a_group = &packed[pg * R..(pg + ku) * R];
                let b_group = &op.b[(pc + pg) * op.n..(pc + pg + ku) * op.n];
                if pc + pg == 0 {
                    tile_row::<R, L, true, false>(rows, 0, cols, a_group, b_group, op.n, j0);
                } else {
                    tile_row::<R, L, false, false>(rows, 0, cols, a_group, b_group, op.n, j0);
                }
                pg += ku;
            }
        }
        BLayout::Transposed => unreachable!("a transposed B is gathered, not packed"),
        BLayout::Panels => {
            // Panel by panel: the tile holds its C rows over the whole
            // k-panel, and B is read in storage order, `kc` rows of one
            // panel after another.
            let a_panel = &packed[..kc * R];
            let (mut j, cols) = (0, rows[0].len());
            while j < cols {
                let q0 = j0 + j;
                let w = NR.min(op.n - q0);
                let b_panel = &op.b[q0 * op.k + pc * w..][..kc * w];
                if pc == 0 {
                    tile_row::<R, L, true, true>(rows, j, w, a_panel, b_panel, w, 0);
                } else {
                    tile_row::<R, L, false, true>(rows, j, w, a_panel, b_panel, w, 0);
                }
                j += w;
            }
        }
    }
    R
}

/// One k-group across `cols` columns of the strip from segment column
/// `j0`: `L`-lane tiles, then — at 16 lanes, where only a narrow last
/// panel leaves `cols % 16` columns — one 8-lane tile if 8 are left,
/// then the rest one column at a time. `b_group` holds rows of `stride`
/// floats, segment column `j0` being B's column `jb` in them.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_row<const R: usize, const L: usize, const FIRST: bool, const PREFETCH: bool>(
    rows: &mut [&mut [f32]],
    j0: usize,
    cols: usize,
    a_group: &[f32],
    b_group: &[f32],
    stride: usize,
    jb: usize,
) {
    let mut j = 0;
    while j + L <= cols {
        tile::<R, L, FIRST, PREFETCH>(rows, j0 + j, a_group, b_group, stride, jb + j);
        j += L;
    }
    if L > 8 && j + 8 <= cols {
        tile::<R, 8, FIRST, PREFETCH>(rows, j0 + j, a_group, b_group, stride, jb + j);
        j += 8;
    }
    while j < cols {
        tile::<R, 1, FIRST, PREFETCH>(rows, j0 + j, a_group, b_group, stride, jb + j);
        j += 1;
    }
}

/// A hint to fetch the cache line holding `p`. It never faults, so any
/// address will do.
#[inline(always)]
fn prefetch(p: *const f32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE is part of the x86-64 baseline, and a prefetch reads
    // nothing architecturally, whatever the address.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The micro-kernel: takes the `R × L` tile of C at segment column `j` —
/// `0.0` for a unit's `FIRST` k-group, whatever C holds there being
/// nobody's sum yet; loaded from C for every later one — adds
/// `a_group.len() / R` consecutive B rows into it — `a_group` is k-major
/// packed A, `b_group` rows of `stride` floats, `jb` the tile's column in
/// them — and stores it. With `PREFETCH` it asks for the B line
/// [`PREFETCH_AHEAD`] floats past each row it reads. At 16 lanes it is
/// [`tile_avx512`].
#[inline(always)]
fn tile<const R: usize, const L: usize, const FIRST: bool, const PREFETCH: bool>(
    rows: &mut [&mut [f32]],
    j: usize,
    a_group: &[f32],
    b_group: &[f32],
    stride: usize,
    jb: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if L == 16 {
        // SAFETY: 16 lanes run only inside `unit_avx512`, whose caller
        // has checked that the CPU supports AVX-512F.
        unsafe { tile_avx512::<R, FIRST, PREFETCH>(rows, j, a_group, b_group, stride, jb) };
        return;
    }
    let mut acc = [[0.0f32; L]; R];
    if !FIRST {
        for r in 0..R {
            acc[r].copy_from_slice(&rows[r][j..j + L]);
        }
    }
    for (a, b_row) in a_group.chunks_exact(R).zip(b_group.chunks_exact(stride)) {
        if PREFETCH {
            prefetch(b_row.as_ptr().wrapping_add(PREFETCH_AHEAD));
        }
        let mut bv = [0.0f32; L];
        bv.copy_from_slice(&b_row[jb..jb + L]);
        for r in 0..R {
            for l in 0..L {
                acc[r][l] += a[r] * bv[l];
            }
        }
    }
    for r in 0..R {
        rows[r][j..j + L].copy_from_slice(&acc[r]);
    }
}

/// [`tile`] at 16 lanes, one `__m512` per C row, in the intrinsics the
/// rule allows: unaligned loads and stores, broadcasts, and a separate
/// multiply and add per B row (never a fused multiply-add), so each sum
/// takes the same steps as the array body's.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn tile_avx512<const R: usize, const FIRST: bool, const PREFETCH: bool>(
    rows: &mut [&mut [f32]],
    j: usize,
    a_group: &[f32],
    b_group: &[f32],
    stride: usize,
    jb: usize,
) {
    use std::arch::x86_64::{__m512, _mm512_storeu_ps};
    use std::arch::x86_64::{_mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps};
    // SAFETY (every block below): the CPU supports AVX-512F (this
    // function's contract), and each unaligned load or store covers the
    // 16 floats of a bounds-checked slice.
    let mut acc: [__m512; R] = [unsafe { _mm512_set1_ps(0.0) }; R];
    if !FIRST {
        for r in 0..R {
            acc[r] = unsafe { _mm512_loadu_ps(rows[r][j..j + 16].as_ptr()) };
        }
    }
    for (a, b_row) in a_group.chunks_exact(R).zip(b_group.chunks_exact(stride)) {
        if PREFETCH {
            prefetch(b_row.as_ptr().wrapping_add(PREFETCH_AHEAD));
        }
        let bv = unsafe { _mm512_loadu_ps(b_row[jb..jb + 16].as_ptr()) };
        for r in 0..R {
            acc[r] = unsafe { _mm512_add_ps(acc[r], _mm512_mul_ps(_mm512_set1_ps(a[r]), bv)) };
        }
    }
    for r in 0..R {
        unsafe { _mm512_storeu_ps(rows[r][j..j + 16].as_mut_ptr(), acc[r]) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::oracle::naive_matmul;

    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as i32 % 1000) as f32 * 1e-3
            })
            .collect()
    }

    /// [`fill`] with every 7th-or-so element replaced by a value whose
    /// handling a vectorised body could get wrong.
    fn fill_special(seed: u64, len: usize) -> Vec<f32> {
        fill_special_one_in(seed, len, 7)
    }

    /// [`fill_special`] at a rate of one special in about `one_in`
    /// elements: over a long `k` one in 7 would make every sum NaN.
    fn fill_special_one_in(seed: u64, len: usize, one_in: u64) -> Vec<f32> {
        const SPECIAL: [f32; 7] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1e-40,
            -3e-39,
        ];
        let mut data = fill(seed, len);
        for (i, v) in data.iter_mut().enumerate() {
            let h = (seed ^ i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
            if h.is_multiple_of(one_in) {
                *v = SPECIAL[(h / one_in) as usize % SPECIAL.len()];
            }
        }
        data
    }

    /// Bit-equal, except that any NaN equals any NaN: which operand's
    /// payload an x86 add or multiply of two NaNs keeps depends on the
    /// operand order the compiler picked.
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:?} ({:#x}), want {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// `a [m, k]` stored as its transpose `[k, m]` (and so `b [k, n]` as
    /// `[n, k]`).
    fn transpose(m: usize, k: usize, a: &[f32]) -> Vec<f32> {
        let mut a_t = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                a_t[p * m + i] = a[i * k + p];
            }
        }
        a_t
    }

    /// The unfused `matmul → add_bias → relu` sequence on the naive product.
    fn naive_fused(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        relu: bool,
    ) -> Vec<f32> {
        let mut out = naive_matmul(m, k, n, a, b);
        for (i, v) in out.iter_mut().enumerate() {
            *v += bias[i % n];
            if relu {
                *v = v.max(0.0);
            }
        }
        out
    }

    #[test]
    fn blocked_matches_naive_bitwise_across_shapes() {
        for (m, k, n) in [
            (1, 1, 1),
            (4, 4, 4),
            (5, 7, 3),
            (63, 17, 9),
            (64, 256, 10),
            (65, 300, 33),
            (130, 513, 5),
        ] {
            let a = fill(m as u64 * 31 + k as u64, m * k);
            let b = fill(n as u64 * 17 + 3, k * n);
            let naive = naive_matmul(m, k, n, &a, &b);
            for workers in [1usize, 2, 3, 5] {
                let mut c = vec![f32::NAN; m * n];
                gemm(&WorkerPool::new(workers), m, k, n, &a, &b, &mut c, None);
                let lhs: Vec<u32> = c.iter().map(|v| v.to_bits()).collect();
                let rhs: Vec<u32> = naive.iter().map(|v| v.to_bits()).collect();
                assert_eq!(lhs, rhs, "m={m} k={k} n={n} workers={workers}");
            }
        }
    }

    /// The widths where a 16-column panel has edges: one column short of
    /// a panel, a panel, one past it, two panels one short and one past,
    /// and `serve_large`'s 501 (31 full panels and a 5-wide one).
    const PANEL_WIDTHS: [usize; 6] = [15, 16, 17, 31, 33, 501];

    #[test]
    fn panels_hold_each_column_block_k_contiguously() {
        let widths = [(1, 1), (3, 8), (5, 13), (2, 16), (4, 23), (0, 5), (6, 0)];
        for (k, n) in widths.into_iter().chain(PANEL_WIDTHS.map(|n| (7, n))) {
            let b: Vec<f32> = (0..k * n).map(|i| i as f32).collect();
            let mut panels = b.clone();
            // A scratch that held a larger matrix before.
            let mut scratch = vec![f32::NAN; 100];
            pack_panels(k, n, &mut panels, &mut scratch);
            for p in 0..k {
                for j in 0..n {
                    let (q0, w) = (j / NR * NR, NR.min(n - j / NR * NR));
                    assert_eq!(
                        panels[q0 * k + p * w + j - q0],
                        b[p * n + j],
                        "k={k} n={n} p={p} j={j}"
                    );
                }
            }
            assert_eq!(unpack_panels(k, n, &panels), b, "k={k} n={n}");
            // The same through `Panels`: read in place, and unpacked.
            let t = crate::tensor::Tensor::from_vec(&[k, n], b.clone()).unwrap();
            let packed = crate::kernels::Panels::pack(t, &mut scratch).unwrap();
            assert!(packed.row_major().eq(&b), "row_major k={k} n={n}");
            assert_eq!(packed.unpack().data(), b, "unpack k={k} n={n}");
        }
    }

    /// The shapes where the tiled kernel has edges: strip remainders and
    /// row-block boundaries in m, `KU` remainders and `KC` panel
    /// boundaries in k, lane remainders, the narrow last B panel (every
    /// `n % NR`) and column-split boundaries in n. C arrives NaN-filled —
    /// a recycled buffer nobody zeroed — A in either layout and B in
    /// either layout; the 8- and 4-lane instantiations read a 16-wide
    /// panel as two or four parts.
    #[test]
    fn every_instantiation_matches_naive_at_the_edges() {
        let ms: Vec<usize> = (1..=17).chain(63..=65).chain(127..=130).collect();
        let ks: Vec<usize> = (1..=20).chain(255..=258).chain(511..=520).collect();
        let ns: Vec<usize> = (1..=40).chain([501]).chain(1023..=1025).collect();
        // A walk that visits every value of each list, in combinations
        // that change from step to step (the strides are coprime to the
        // list lengths).
        for step in 0..ns.len() * 3 {
            let (m, k, n) = (
                ms[step * 5 % ms.len()],
                ks[step * 3 % ks.len()],
                ns[step % ns.len()],
            );
            let workers = 1 + step % 7;
            let seed = step as u64 * 977 + 1;
            let (a, b, bias) = if step % 3 == 0 {
                (
                    fill_special(seed, m * k),
                    fill_special(seed + 1, k * n),
                    fill_special(seed + 2, n),
                )
            } else {
                (fill(seed, m * k), fill(seed + 1, k * n), fill(seed + 2, n))
            };
            let relu = step % 2 == 0;
            let plain = naive_matmul(m, k, n, &a, &b);
            let fused = naive_fused(m, k, n, &a, &b, &bias, relu);
            let (a_t, b_t) = (transpose(m, k, &a), transpose(k, n, &b));
            let mut b_panels = b.clone();
            pack_panels(k, n, &mut b_panels, &mut Vec::new());
            for simd in Simd::supported("gemm") {
                let pool = WorkerPool::new(workers);
                let a_sides = [(&a, ALayout::RowMajor), (&a_t, ALayout::Transposed)];
                let b_sides = [
                    (&b, BLayout::RowMajor),
                    (&b_t, BLayout::Transposed),
                    (&b_panels, BLayout::Panels),
                ];
                for (a, b) in a_sides.into_iter().flat_map(|a| b_sides.map(|b| (a, b))) {
                    let (a, b) = ((a.0.as_slice(), a.1), (b.0.as_slice(), b.1));
                    let what = format!(
                        "{simd:?} {:?} {:?} m={m} k={k} n={n} workers={workers}",
                        a.1, b.1
                    );
                    let mut c = vec![f32::NAN; m * n];
                    gemm_on(simd, &pool, m, k, n, a, b, &mut c, None);
                    assert_same(&c, &plain, &what);
                    c.fill(f32::NAN);
                    gemm_on(simd, &pool, m, k, n, a, b, &mut c, Some((&bias, relu)));
                    assert_same(&c, &fused, &format!("{what} fused relu={relu}"));
                }
            }
        }
    }

    /// The products where one masked tile covers a unit's columns and A
    /// is read where it lies, and the transposed B: every `n` up to one
    /// column past a 16-lane tile, two tiles less one and two tiles; `m`
    /// a multiple of neither 8 nor 16, also past a row block; `k` empty,
    /// one, the dense layer's 10 classes and one less, one past a
    /// k-panel and the dense layer's 3136 features. A and B carry NaN,
    /// ±inf, -0.0 and subnormals, sparser as `k` grows so that not every
    /// sum is NaN; A in either layout, B row-major and transposed, C
    /// NaN-filled, pools of 1, 2 and 4 workers.
    #[test]
    fn every_instantiation_matches_naive_on_narrow_products() {
        let ns: Vec<usize> = (1..=17).chain([31, 32]).collect();
        let ks = [0, 1, 9, 10, 257, 3136];
        let ms = [1, 3, 5, 7, 9, 13, 19, 33, 70];
        // The lengths are coprime, so each `n` meets two `k`s and the
        // walk meets every pair of `m` and `k` values in turn.
        for step in 0..ns.len() * 2 {
            let (m, k, n) = (
                ms[step % ms.len()],
                ks[step % ks.len()],
                ns[step % ns.len()],
            );
            let seed = step as u64 * 613 + 5;
            let one_in = 7 * k.max(1) as u64;
            let (a, b) = (
                fill_special_one_in(seed, m * k, one_in),
                fill_special_one_in(seed + 1, k * n, one_in),
            );
            let want = naive_matmul(m, k, n, &a, &b);
            let (a_t, b_t) = (transpose(m, k, &a), transpose(k, n, &b));
            let a_sides = [(&a, ALayout::RowMajor), (&a_t, ALayout::Transposed)];
            let b_sides = [(&b, BLayout::RowMajor), (&b_t, BLayout::Transposed)];
            for simd in Simd::supported("gemm") {
                for workers in [1, 2, 4] {
                    let pool = WorkerPool::new(workers);
                    for (a, b) in a_sides.into_iter().flat_map(|a| b_sides.map(|b| (a, b))) {
                        let (a, b) = ((a.0.as_slice(), a.1), (b.0.as_slice(), b.1));
                        let mut c = vec![f32::NAN; m * n];
                        gemm_on(simd, &pool, m, k, n, a, b, &mut c, None);
                        let what = format!(
                            "{simd:?} {:?} {:?} m={m} k={k} n={n} workers={workers}",
                            a.1, b.1
                        );
                        assert_same(&c, &want, &what);
                    }
                }
            }
        }
    }

    /// Each [`PANEL_WIDTHS`] on packed B, at one short k-group, at a
    /// whole k-panel and across one and two k-panel boundaries, on every
    /// instantiation: the 16-lane tile, its 8-lane step-down and the
    /// columns left to the 1-lane one each start their sums in a
    /// NaN-filled C and then add later k-panels to them.
    #[test]
    fn every_instantiation_matches_naive_on_packed_panel_widths() {
        for (step, n) in PANEL_WIDTHS.into_iter().enumerate() {
            for (m, k) in [(1, 3), (8, KC), (13, KC + 1), (5, 2 * KC + 7)] {
                let seed = (step * 131 + k) as u64;
                let (a, b, bias) = (
                    fill_special(seed, m * k),
                    fill(seed + 1, k * n),
                    fill(seed + 2, n),
                );
                let plain = naive_matmul(m, k, n, &a, &b);
                let fused = naive_fused(m, k, n, &a, &b, &bias, true);
                let mut b_panels = b.clone();
                pack_panels(k, n, &mut b_panels, &mut Vec::new());
                let (a, b) = (
                    (a.as_slice(), ALayout::RowMajor),
                    (b_panels.as_slice(), BLayout::Panels),
                );
                let sides = [(None, &plain), (Some((bias.as_slice(), true)), &fused)];
                for (simd, workers) in Simd::supported("gemm")
                    .into_iter()
                    .flat_map(|s| [(s, 1), (s, 2)])
                {
                    let pool = WorkerPool::new(workers);
                    for (epilogue, want) in sides {
                        let mut c = vec![f32::NAN; m * n];
                        gemm_on(simd, &pool, m, k, n, a, b, &mut c, epilogue);
                        let what = format!("{simd:?} m={m} k={k} n={n} workers={workers}");
                        assert_same(&c, want, &format!("{what} fused={}", epilogue.is_some()));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_inner_dimension_leaves_zeros_plus_bias() {
        let bias = [1.5f32, -2.0, 0.25];
        let mut c = vec![0.0f32; 6];
        gemm(
            &WorkerPool::new(2),
            2,
            0,
            3,
            &[],
            &[],
            &mut c,
            Some((&bias, true)),
        );
        assert_eq!(c, [1.5, 0.0, 0.25, 1.5, 0.0, 0.25]);
    }

    #[test]
    fn empty_inner_dimension_overwrites_what_the_buffer_held() {
        let mut c = vec![f32::NAN; 6];
        gemm(&WorkerPool::new(2), 2, 0, 3, &[], &[], &mut c, None);
        assert_eq!(c, [0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "gemm: B holds")]
    fn length_checks_hold_in_every_build_profile() {
        let mut c = vec![0.0f32; 4];
        gemm(
            &WorkerPool::serial(),
            2,
            2,
            2,
            &[0.0; 4],
            &[0.0; 3],
            &mut c,
            None,
        );
    }

    /// Output area of every worker under the split `gemm_on` performs.
    fn worker_areas(workers: usize, m: usize, n: usize) -> Vec<usize> {
        let panels = column_panels(workers, m, n);
        let rows_of = |rb: usize| ROW_BLOCK.min(m - rb * ROW_BLOCK);
        pool::partition(m.div_ceil(ROW_BLOCK) * panels.len(), workers)
            .into_iter()
            .map(|units| {
                units
                    .map(|u| rows_of(u / panels.len()) * panels[u % panels.len()].len())
                    .sum()
            })
            .collect()
    }

    #[test]
    fn cost_is_the_largest_worker_area_of_the_split_that_runs() {
        for m in (1..=17)
            .chain(60..=70)
            .chain(125..=135)
            .chain([200, 256, 1000])
        {
            for n in [1usize, 7, 15, 16, 17, 31, 32, 33, 100, 1024, 1025] {
                for workers in 1..=9 {
                    let areas = worker_areas(workers, m, n);
                    assert_eq!(
                        areas.iter().sum::<usize>(),
                        m * n,
                        "m={m} n={n} workers={workers}"
                    );
                    let k = 11;
                    for relu in [false, true] {
                        let cost = gemm_cost(&WorkerPool::new(workers), m, k, n, relu);
                        let per_element = 2.0 * k as f64 + f64::from(u8::from(relu));
                        assert_eq!(cost.flops, per_element * (m * n) as f64);
                        let largest = *areas.iter().max().unwrap();
                        assert_eq!(
                            cost.critical_flops,
                            per_element * largest as f64,
                            "m={m} n={n} workers={workers}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cost_critical_path_shrinks_with_workers() {
        let serial = gemm_cost(&WorkerPool::serial(), 256, 64, 64, false);
        assert_eq!(serial.critical_flops, serial.flops);
        let par = gemm_cost(&WorkerPool::new(4), 256, 64, 64, false);
        assert_eq!(par.flops, serial.flops);
        assert_eq!(par.critical_flops, serial.flops / 4.0);
        // A serving batch: one row block, so the columns are split.
        let batch = gemm_cost(&WorkerPool::new(2), 8, 1024, 1024, false);
        assert_eq!(batch.flops, 2.0 * 8.0 * 1024.0 * 1024.0);
        assert_eq!(batch.critical_flops, batch.flops / 2.0);
        // As many row blocks as workers: rows only, as before the column
        // split existed (critical path = whole row blocks of worker 0).
        for (m, workers) in [(128usize, 2usize), (130, 2), (200, 3), (64, 1), (1000, 4)] {
            let blocks = pool::critical_units(m.div_ceil(ROW_BLOCK), workers);
            let rows = (blocks * ROW_BLOCK).min(m);
            let cost = gemm_cost(&WorkerPool::new(workers), m, 8, 48, false);
            assert_eq!(
                cost.critical_flops,
                2.0 * rows as f64 * 8.0 * 48.0,
                "m={m} workers={workers}"
            );
        }
        // Narrower than one cache line: never split, whatever the pool.
        for n in 1..COL_ALIGN {
            assert_eq!(column_panels(8, 8, n), vec![0..n]);
            let narrow = gemm_cost(&WorkerPool::new(8), 8, 1024, n, false);
            assert_eq!(narrow.critical_flops, narrow.flops);
        }
    }
}
