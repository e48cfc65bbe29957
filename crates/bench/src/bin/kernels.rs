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
//!    be store-bound — by at least 2× on every vector level above the
//!    4-lane baseline (release builds only; debug builds skip the speed
//!    assertions),
//! 2. the conv filter gradient alone — all a training step needs of the
//!    conv backward when the image is a placeholder — beats the naive
//!    backward loop by at least 3× at the training shape (release), and
//! 3. the max-pool kernels beat the scalar loops they replaced at the
//!    training shape — forward by 2×, backward (one pass from `(x, grad)`,
//!    no index table) by 1.8× — (release),
//! 4. on `serve_large`'s weight stream (a batch of 8 through ten distinct
//!    1024² fused layers, 2 workers) weights packed in `kernels::Panels`
//!    beat the same weights row-major by 1.2× (release), and
//! 5. pooled outputs are bit-identical to serial ones, and the max-pool,
//!    transposed-A and packed-weight rows to their references, in every
//!    build.
//!
//! The `step` rows are medians, not best-ofs, of whole passes at the
//! `train_dist` shape: the dense layer's weight gradient with and without
//! a materialised `xᵀ`, one relu through the executor, and one
//! `Session::gradients` of the conv classifier on a serial pool — the
//! number the per-kernel rows have to add up to.
//!
//! A last `dispatch` row is what a pooled call pays before any kernel
//! runs: an empty `run_items` over one item per worker, the number the
//! e2e probe reports as `tensor.kernels.pool_dispatch_us`.
//!
//! The report's `mode` records the instruction set the kernel ran on
//! (`kernels::simd_level`), without which the numbers cannot be compared
//! across hosts.

use rand::SeedableRng;
use securetf_bench::report::{BenchReport, JsonValue};
use securetf_bench::{fmt_ns, fmt_ratio, header};
use securetf_tensor::graph::{Graph, Padding};
use securetf_tensor::kernels::{self, WorkerPool, Workspace};
use securetf_tensor::layers;
use securetf_tensor::memory::PlannedExecutor;
use securetf_tensor::session::Session;
use securetf_tensor::tensor::Tensor;
use std::collections::HashMap;
use std::time::Instant;

// The naive kernels, the tensor crate's test oracles; this binary times
// all but the quantizer.
#[allow(dead_code)]
#[path = "../../../tensor/tests/oracle/kernels.rs"]
mod oracle;

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

/// Median wall-clock nanoseconds of `reps` calls of `f`, and its last
/// result.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> (u64, R) {
    let mut last = f();
    let mut samples: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            last = f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    (samples[samples.len() / 2], last)
}

/// Median wall-clock nanoseconds of 1 000 empty `run_items` calls over
/// one item per worker: the cut, the leases and the join, nothing else.
fn dispatch_ns(workers: usize) -> u64 {
    let pool = WorkerPool::new(workers);
    let mut items = vec![0u8; pool.workers()];
    median_ns(1000, || {
        pool.run_items(&mut items, &|_, item| {
            std::hint::black_box(item);
        });
    })
    .0
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
    let (naive_ns, naive) = time_ns(reps, || oracle::naive_matmul(m, k, n, &a, &b));
    let serial = WorkerPool::serial();
    let (blocked_ns, blocked) =
        time_ns(reps, || kernels::matmul(&serial, &ta, &tb).expect("matmul"));
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
    let (naive_ns, naive) = time_ns(reps, || {
        oracle::naive_conv2d(&input, &filter, Padding::Same).expect("conv")
    });
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
        oracle::naive_conv2d_grad(&input, &filter, &grad, Padding::Same).expect("conv grad")
    });
    let (serial, pool) = (WorkerPool::serial(), WorkerPool::new(workers));
    let both = |pool: &WorkerPool| {
        time_ns(reps, || {
            kernels::conv2d_grad(pool, &input, &filter, &grad, Padding::Same).expect("conv grad")
        })
    };
    let mut ws = Workspace::new();
    let mut filter_only = |pool: &WorkerPool| {
        time_ns(reps, || {
            kernels::conv2d_grad_filter(
                pool,
                &mut ws,
                &input,
                filter.shape(),
                &grad,
                Padding::Same,
                &mut stale,
            )
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

/// A kernel against the loop it replaced.
struct VersusRow {
    label: String,
    reference_ns: u64,
    kernel_ns: u64,
    identical: bool,
}

/// A recycled buffer: the kernels must write all of what they take.
fn stale(len: usize) -> Vec<f32> {
    vec![f32::NAN; len]
}

/// Max-pool forward and backward at `shape` against the scalar loops.
fn bench_max_pool(shape: [usize; 4], reps: usize) -> [VersusRow; 2] {
    let [b, h, w, c] = shape;
    let x = Tensor::from_vec(&shape, fill(41, b * h * w * c)).expect("x");
    let grad =
        Tensor::from_vec(&[b, h / 2, w / 2, c], fill(43, b * (h / 2) * (w / 2) * c)).expect("grad");
    let (naive_fwd_ns, (naive_out, _)) =
        time_ns(reps, || oracle::naive_max_pool2(&x).expect("pool"));
    let (fwd_ns, out) = time_ns(reps, || {
        kernels::max_pool2_with(&x, &mut stale).expect("pool")
    });
    let (naive_bwd_ns, naive_gx) = time_ns(reps, || {
        oracle::naive_max_pool2_grad(&x, &grad).expect("pool grad")
    });
    let (bwd_ns, gx) = time_ns(reps, || {
        kernels::max_pool2_grad_with(&x, &grad, &mut stale).expect("pool grad")
    });
    let label = format!("{b}x{h}x{w}x{c}");
    [
        VersusRow {
            label: format!("max_pool2 {label}"),
            reference_ns: naive_fwd_ns,
            kernel_ns: fwd_ns,
            identical: bits(out.data()) == bits(naive_out.data()),
        },
        VersusRow {
            label: format!("max_pool2_grad {label}"),
            reference_ns: naive_bwd_ns,
            kernel_ns: bwd_ns,
            identical: bits(gx.data()) == bits(naive_gx.data()),
        },
    ]
}

/// The dense layer's weight gradient `xᵀ × grad` for `x [batch,
/// features]`, `grad [batch, classes]`: transpose-then-multiply against
/// the GEMM packing `x` as it lies.
fn bench_matmul_grad_rhs(batch: usize, features: usize, classes: usize, reps: usize) -> VersusRow {
    let x = Tensor::from_vec(&[batch, features], fill(47, batch * features)).expect("x");
    let grad = Tensor::from_vec(&[batch, classes], fill(53, batch * classes)).expect("grad");
    let pool = WorkerPool::serial();
    let (reference_ns, want) = median_ns(reps, || {
        let x_t = x.transpose().expect("rank 2");
        kernels::matmul(&pool, &x_t, &grad).expect("matmul").0
    });
    let (kernel_ns, got) = median_ns(reps, || {
        kernels::matmul_lhs_t_with(&pool, &x, &grad, &mut stale)
            .expect("matmul")
            .0
    });
    VersusRow {
        label: format!("matmul_grad_rhs {batch}x{features}x{classes}"),
        reference_ns,
        kernel_ns,
        identical: bits(got.data()) == bits(want.data()),
    }
}

/// The `serve_large` weight stream: a batch of `m` rows through
/// `layers` fused `matmul → bias → relu` layers of distinct `width`²
/// constants (40 MiB at 10 × 1024², more than the L2 of any core, so
/// every layer reads its weights from L3 or DRAM), with each weight
/// row-major against packed in [`kernels::Panels`]. The two sides
/// alternate, one chain each, and each keeps its median.
fn bench_weight_stream(
    m: usize,
    width: usize,
    layers: usize,
    workers: usize,
    reps: usize,
) -> VersusRow {
    let weights: Vec<Tensor> = (0..layers)
        .map(|l| {
            // Scaled so that activations neither vanish nor blow up.
            let data = fill(67 + l as u64, width * width);
            Tensor::from_vec(&[width, width], data.iter().map(|v| v * 0.06).collect())
                .expect("weight")
        })
        .collect();
    let mut scratch = Vec::new();
    let panels: Vec<kernels::Panels> = weights
        .iter()
        .map(|w| kernels::Panels::pack(w.clone(), &mut scratch).expect("rank 2"))
        .collect();
    let biases: Vec<Tensor> = (0..layers)
        .map(|l| Tensor::from_vec(&[width], fill(71 + l as u64, width)).expect("bias"))
        .collect();
    let x = Tensor::from_vec(&[m, width], fill(73, m * width)).expect("x");
    let pool = WorkerPool::new(workers);
    let row_major = || {
        biases.iter().zip(&weights).fold(x.clone(), |x, (bias, w)| {
            kernels::matmul_bias_relu_with(&pool, &x, w, bias, true, &mut stale)
                .expect("layer")
                .0
        })
    };
    let packed = || {
        biases.iter().zip(&panels).fold(x.clone(), |x, (bias, w)| {
            kernels::matmul_panels_with(&pool, &x, w, Some((bias, true)), &mut stale)
                .expect("layer")
                .0
        })
    };
    let (want, got) = (row_major(), packed());
    let (mut reference, mut kernel) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(row_major());
        reference.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        std::hint::black_box(packed());
        kernel.push(t0.elapsed().as_nanos() as u64);
    }
    let median = |mut samples: Vec<u64>| {
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    VersusRow {
        label: format!("weight_stream {m}x{width}x{width} x{layers} {workers}w"),
        reference_ns: median(reference),
        kernel_ns: median(kernel),
        identical: bits(got.data()) == bits(want.data()),
    }
}

/// Median nanoseconds of one relu over `len` elements through the
/// executor (forward only, warmed arena).
fn relu_ns(len: usize, reps: usize) -> u64 {
    let mut g = Graph::new();
    let x = g.placeholder("x", &[len]);
    let y = g.relu(x).expect("relu");
    let value = Tensor::from_vec(&[len], fill(59, len)).expect("x");
    let feeds = [(x, &value)];
    let (vars, pool) = (HashMap::new(), WorkerPool::serial());
    let mut executor = PlannedExecutor::new();
    median_ns(reps, || {
        executor
            .run(&g, &feeds[..], &vars, &[y], &pool)
            .expect("relu")
    })
    .0
}

/// Median nanoseconds of one `Session::gradients` of the conv classifier
/// at the `train_dist` shape (batch 32 of 28x28x1, 16 channels, 10
/// classes) on a serial pool.
fn session_step_ns(reps: usize) -> u64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let model = layers::conv_classifier(28, 28, 1, 16, 10, &mut rng).expect("model");
    let x = Tensor::from_vec(&[32, 28, 28, 1], fill(61, 32 * 28 * 28)).expect("x");
    let mut labels = Tensor::zeros(&[32, 10]);
    for row in 0..32 {
        labels.data_mut()[row * 10 + row % 10] = 1.0;
    }
    let feeds = [(model.input, x), (model.labels, labels)];
    let mut session = Session::new(&model.graph);
    median_ns(reps, || {
        session
            .gradients(&model.graph, &feeds, model.loss)
            .expect("step")
    })
    .0
}

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(2);
    let reps = 3;

    header(
        &format!(
            "Kernel layer ({}): naive vs blocked vs pooled (wall clock)",
            kernels::simd_level()
        ),
        &[
            "kernel                                   ",
            "naive     ",
            "blocked   ",
            "pooled    ",
            "blk speedup",
            "bit-identical",
        ],
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
        // The conv classifier's forward pass at its training shape.
        bench_conv((32, 28, 28, 1), (3, 3, 16), workers, reps),
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
    // The other kernels of a training step, at its shape.
    let mut versus = Vec::from(bench_max_pool([32, 28, 28, 16], reps * 3));
    versus.push(bench_matmul_grad_rhs(32, 3136, 10, 50));
    // The serving model's weights, row-major against panels.
    versus.push(bench_weight_stream(8, 1024, 10, 2, 51));
    for row in &versus {
        println!(
            "{:<41} | {:>10} | {:>10} | {:>10} | {:>11} | {}",
            row.label,
            fmt_ns(row.reference_ns),
            fmt_ns(row.kernel_ns),
            "-",
            fmt_ratio(row.reference_ns, row.kernel_ns),
            row.identical
        );
        all_identical &= row.identical;
        let key = row.label.replace(' ', "_");
        report = report
            .latency_ns(&format!("{key}.reference_ns"), row.reference_ns)
            .latency_ns(&format!("{key}.kernel_ns"), row.kernel_ns)
            .ratio(
                &format!("{key}.speedup"),
                row.reference_ns as f64 / row.kernel_ns.max(1) as f64,
            );
    }
    let (relu, step) = (relu_ns(32 * 28 * 28 * 16, 200), session_step_ns(200));
    println!(
        "{:<41} | {:>10} | {:>10} | {:>10} |",
        "relu 401408 (executor, median)",
        "-",
        fmt_ns(relu),
        "-"
    );
    println!(
        "{:<41} | {:>10} | {:>10} | {:>10} |",
        "session_step 32x28x28x1->16 (median)",
        "-",
        fmt_ns(step),
        "-"
    );
    let dispatch = dispatch_ns(workers);
    println!(
        "{:<41} | {:>10} | {:>10} | {:>10} |",
        "dispatch (empty run_items)",
        "-",
        "-",
        fmt_ns(dispatch)
    );
    report = report
        .latency_ns("relu_401408.blocked_ns", relu)
        .latency_ns("session_step.blocked_ns", step)
        .latency_ns("dispatch.pooled_ns", dispatch)
        .value("parallel_bit_identical", JsonValue::Bool(all_identical));

    assert!(
        all_identical,
        "a kernel's output diverged bit-wise from its reference"
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
        // 2x is what every wider level has to show. This row's B is
        // row-major, so on an AVX-512 CPU it runs the 8-lane body too.
        let serving = &rows[2];
        let factor = if simd == "baseline" { 1 } else { 2 };
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
        // Tenths, so the gates stay integer arithmetic. The weight
        // stream's gate is well below the ~1.9x (AVX2) and ~2.5x
        // (AVX-512) it measures on the 2-vCPU VM: the row-major side
        // moves +/-30 % with the host.
        let stream = versus.last().expect("weight stream row");
        for (row, tenths) in [(&versus[0], 20), (&versus[1], 18), (stream, 12)] {
            assert!(
                row.kernel_ns * tenths <= row.reference_ns * 10,
                "{} ({}) is not {}x faster than its reference ({})",
                row.label,
                fmt_ns(row.kernel_ns),
                tenths as f64 / 10.0,
                fmt_ns(row.reference_ns),
            );
        }
    }
    report.emit(&securetf_bench::report::dir_from_env());
}
