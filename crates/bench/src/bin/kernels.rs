//! Kernel-layer microbenchmark: naive vs blocked vs pooled (DESIGN.md §11).
//!
//! Unlike the `fig*` binaries this one measures **wall-clock** time — the
//! kernels are real compute, not cost-model charges — so the numbers vary
//! run to run. The *relationships* are the deliverable, and two of them
//! are asserted hard (the process exits non-zero on violation, making CI
//! the regression gate):
//!
//! 1. the tiled matmul beats the naive triple loop on 256×256×256, and
//!    at the serving shape 8×1024×1024 — a batch of 8 rows against a
//!    4 MB weight matrix, where a kernel that is fine at 256³ can still
//!    be store-bound — by at least 2× where it runs on AVX2 (release
//!    builds only; debug builds skip the speed assertions),
//! 2. the conv filter gradient alone — all a training step needs of the
//!    conv backward when the image is a placeholder — beats the naive
//!    backward loop by at least 3× at the training shape (release), and
//! 3. pooled outputs are bit-identical to serial ones.
//!
//! A last `dispatch` row is what a pooled call pays before any kernel
//! runs: an empty `run_items` over one item per worker, the number the
//! e2e probe reports as `tensor.kernels.pool_dispatch_us`.
//!
//! The report's `mode` records the instruction set the kernel ran on
//! (`kernels::simd_level`), without which the numbers cannot be compared
//! across hosts.

use securetf_bench::report::{BenchReport, JsonValue};
use securetf_bench::{fmt_ns, fmt_ratio, header};
use securetf_tensor::graph::Padding;
use securetf_tensor::kernels::{self, reference, WorkerPool, Workspace};
use securetf_tensor::tensor::Tensor;
use std::time::Instant;

/// Deterministic pseudo-random fill in roughly [-1, 1].
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as i32 % 2000) as f32 * 1e-3 - 1.0
        })
        .collect()
}

/// Best-of-`reps` wall-clock nanoseconds of `f`.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> (u64, R) {
    let t0 = Instant::now();
    let mut last = f();
    let mut best = t0.elapsed().as_nanos() as u64;
    for _ in 1..reps.max(1) {
        let t0 = Instant::now();
        last = f();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    (best, last)
}

/// Median wall-clock nanoseconds of 1 000 empty `run_items` calls over
/// one item per worker: the cut, the leases and the join, nothing else.
fn dispatch_ns(workers: usize) -> u64 {
    let pool = WorkerPool::new(workers);
    let mut items = vec![0u8; pool.workers()];
    let mut samples: Vec<u64> = (0..1000)
        .map(|_| {
            let t0 = Instant::now();
            pool.run_items(&mut items, &|_, item| {
                std::hint::black_box(item);
            });
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

struct MatmulRow {
    label: String,
    naive_ns: u64,
    blocked_ns: u64,
    pooled_ns: u64,
    identical: bool,
}

fn bench_matmul(m: usize, k: usize, n: usize, workers: usize, reps: usize) -> MatmulRow {
    let a = fill(m as u64 * 7 + 1, m * k);
    let b = fill(n as u64 * 11 + 3, k * n);
    let ta = Tensor::from_vec(&[m, k], a.clone()).expect("lhs");
    let tb = Tensor::from_vec(&[k, n], b.clone()).expect("rhs");
    let (naive_ns, naive) = time_ns(reps, || reference::naive_matmul(m, k, n, &a, &b));
    let serial = WorkerPool::serial();
    let (blocked_ns, blocked) = time_ns(reps, || kernels::matmul(&serial, &ta, &tb).expect("matmul"));
    let pool = WorkerPool::new(workers);
    let (pooled_ns, pooled) = time_ns(reps, || kernels::matmul(&pool, &ta, &tb).expect("matmul"));
    let identical = bits(&naive) == bits(blocked.0.data()) && bits(&naive) == bits(pooled.0.data());
    MatmulRow {
        label: format!("matmul {m}x{k}x{n}"),
        naive_ns,
        blocked_ns,
        pooled_ns,
        identical,
    }
}

fn bench_conv(
    shape: (usize, usize, usize, usize),
    filter_shape: (usize, usize, usize),
    workers: usize,
    reps: usize,
) -> MatmulRow {
    let (b, h, w, cin) = shape;
    let (kh, kw, cout) = filter_shape;
    let input = Tensor::from_vec(&[b, h, w, cin], fill(17, b * h * w * cin)).expect("input");
    let filter =
        Tensor::from_vec(&[kh, kw, cin, cout], fill(23, kh * kw * cin * cout)).expect("filter");
    let (naive_ns, naive) =
        time_ns(reps, || reference::naive_conv2d(&input, &filter, Padding::Same).expect("conv"));
    let serial = WorkerPool::serial();
    let (blocked_ns, blocked) = time_ns(reps, || {
        kernels::conv2d(&serial, &input, &filter, Padding::Same).expect("conv")
    });
    let pool = WorkerPool::new(workers);
    let (pooled_ns, pooled) = time_ns(reps, || {
        kernels::conv2d(&pool, &input, &filter, Padding::Same).expect("conv")
    });
    let identical =
        bits(naive.data()) == bits(blocked.0.data()) && bits(naive.data()) == bits(pooled.0.data());
    MatmulRow {
        label: format!("conv2d {b}x{h}x{w}x{cin} k{kh}x{kw}->{cout}"),
        naive_ns,
        blocked_ns,
        pooled_ns,
        identical,
    }
}

/// The conv backward at one shape: both gradients (`conv2d_grad`) and
/// the filter gradient alone, each against the one naive loop that
/// computes both.
fn bench_conv_grad(
    shape: (usize, usize, usize, usize),
    filter_shape: (usize, usize, usize),
    workers: usize,
    reps: usize,
) -> [MatmulRow; 2] {
    let (b, h, w, cin) = shape;
    let (kh, kw, cout) = filter_shape;
    let input = Tensor::from_vec(&[b, h, w, cin], fill(29, b * h * w * cin)).expect("input");
    let filter =
        Tensor::from_vec(&[kh, kw, cin, cout], fill(31, kh * kw * cin * cout)).expect("filter");
    let grad = Tensor::from_vec(&[b, h, w, cout], fill(37, b * h * w * cout)).expect("grad");
    let (naive_ns, (naive_gi, naive_gf)) = time_ns(reps, || {
        reference::naive_conv2d_grad(&input, &filter, &grad, Padding::Same).expect("conv grad")
    });
    let (serial, pool) = (WorkerPool::serial(), WorkerPool::new(workers));
    let both = |pool: &WorkerPool| {
        time_ns(reps, || kernels::conv2d_grad(pool, &input, &filter, &grad, Padding::Same).expect("conv grad"))
    };
    let mut ws = Workspace::new();
    let mut filter_only = |pool: &WorkerPool| {
        time_ns(reps, || {
            kernels::conv2d_grad_filter(pool, &mut ws, &input, filter.shape(), &grad, Padding::Same, &mut |len| {
                vec![0.0f32; len]
            })
            .expect("conv grad")
        })
    };
    let (both_ns, (gi, gf, _)) = both(&serial);
    let (both_pooled_ns, (pooled_gi, pooled_gf, _)) = both(&pool);
    let (filter_ns, (only_gf, _)) = filter_only(&serial);
    let (filter_pooled_ns, (pooled_only_gf, _)) = filter_only(&pool);
    let same = |got: &Tensor, want: &Tensor| bits(got.data()) == bits(want.data());
    let label = format!("{b}x{h}x{w}x{cin} k{kh}x{kw}->{cout}");
    [
        MatmulRow {
            label: format!("conv2d_grad {label}"),
            naive_ns,
            blocked_ns: both_ns,
            pooled_ns: both_pooled_ns,
            identical: same(&gi, &naive_gi)
                && same(&gf, &naive_gf)
                && same(&pooled_gi, &naive_gi)
                && same(&pooled_gf, &naive_gf),
        },
        MatmulRow {
            label: format!("conv2d_grad_filter {label}"),
            naive_ns,
            blocked_ns: filter_ns,
            pooled_ns: filter_pooled_ns,
            identical: same(&only_gf, &naive_gf) && same(&pooled_only_gf, &naive_gf),
        },
    ]
}

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(2);
    let reps = 3;

    header(
        &format!("Kernel layer ({}): naive vs blocked vs pooled (wall clock)", kernels::simd_level()),
        &["kernel                                   ", "naive     ", "blocked   ", "pooled    ", "blk speedup", "bit-identical"],
    );

    let mut rows = vec![
        bench_matmul(256, 256, 256, workers, reps),
        bench_matmul(128, 512, 64, workers, reps),
        // Serving and training shapes: a gateway batch and a single
        // request against a 1024-wide Densenet layer, and the input
        // gradient of the conv classifier's dense layer (32 samples, 10
        // classes, 3136 features) — few rows, short k, wide output.
        bench_matmul(8, 1024, 1024, workers, reps),
        bench_matmul(1, 1024, 1024, workers, reps),
        bench_matmul(32, 10, 3136, workers, reps),
        bench_conv((2, 64, 64, 8), (3, 3, 16), workers, reps),
    ];
    // The conv classifier's backward at its training shape (batch 32 of
    // 28x28x1, 16 channels): `train_dist` runs the filter half only.
    rows.extend(bench_conv_grad((32, 28, 28, 1), (3, 3, 16), workers, reps));

    let simd = kernels::simd_level();
    let mut report = BenchReport::new("kernels")
        .unit("wall_ns")
        .mode(&format!("wall_clock/{workers}w/{simd}"))
        .paper_target("TensorSCONE/Privado: enclave DNN time dominated by these hot loops");
    let mut all_identical = true;
    for row in &rows {
        println!(
            "{:<41} | {:>10} | {:>10} | {:>10} | {:>11} | {}",
            row.label,
            fmt_ns(row.naive_ns),
            fmt_ns(row.blocked_ns),
            fmt_ns(row.pooled_ns),
            fmt_ratio(row.naive_ns, row.blocked_ns),
            row.identical
        );
        all_identical &= row.identical;
        let key = row.label.replace([' ', '-', '>'], "_");
        report = report
            .latency_ns(&format!("{key}.naive_ns"), row.naive_ns)
            .latency_ns(&format!("{key}.blocked_ns"), row.blocked_ns)
            .latency_ns(&format!("{key}.pooled_ns"), row.pooled_ns)
            .ratio(
                &format!("{key}.blocked_speedup"),
                row.naive_ns as f64 / row.blocked_ns.max(1) as f64,
            )
            .ratio(
                &format!("{key}.pooled_speedup"),
                row.naive_ns as f64 / row.pooled_ns.max(1) as f64,
            );
    }
    let dispatch = dispatch_ns(workers);
    println!("{:<41} | {:>10} | {:>10} | {:>10} |", "dispatch (empty run_items)", "-", "-", fmt_ns(dispatch));
    report = report
        .latency_ns("dispatch.pooled_ns", dispatch)
        .value("parallel_bit_identical", JsonValue::Bool(all_identical));

    assert!(
        all_identical,
        "pooled/blocked kernel output diverged bit-wise from the naive reference"
    );
    // Wall-clock smoke gate, meaningful only with optimizations on.
    if cfg!(debug_assertions) {
        println!("\n(debug build: skipping speed assertions)");
    } else {
        let m256 = &rows[0];
        assert!(
            m256.blocked_ns < m256.naive_ns,
            "blocked matmul ({}) is not faster than naive ({}) on 256x256x256",
            fmt_ns(m256.blocked_ns),
            fmt_ns(m256.naive_ns),
        );
        // The naive loop keeps its one C row in L1 and is itself
        // vectorised 4 lanes wide, so the 4-lane instantiation, at the
        // ceiling of its separate multiply and add, wins by ~1.4x; the
        // 2x is what the 8-lane one has to show.
        let serving = &rows[2];
        let factor = if simd == "avx2" { 2 } else { 1 };
        assert!(
            serving.blocked_ns * factor <= serving.naive_ns,
            "{simd} matmul ({}) is not {factor}x faster than naive ({}) on the serving shape 8x1024x1024",
            fmt_ns(serving.blocked_ns),
            fmt_ns(serving.naive_ns),
        );
        let filter_grad = rows.last().expect("conv backward rows");
        assert!(
            filter_grad.blocked_ns * 3 <= filter_grad.naive_ns,
            "conv filter gradient ({}) is not 3x faster than the naive backward ({}) at the training shape",
            fmt_ns(filter_grad.blocked_ns),
            fmt_ns(filter_grad.naive_ns),
        );
    }
    report.emit();
}
