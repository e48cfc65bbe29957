//! Ablations of the design choices (§3.3.3) and the paper's §7 roadmap.

use super::{object, Figure};
use crate::report::{BenchReport, JsonValue};
use crate::{fmt_ns, fmt_ratio, header};
use securetf::profile::ThreadingModel;
use securetf_tee::{CostModel, EnclaveImage, ExecutionMode, Platform};
use securetf_tensor::kernels::pool::critical_units;
use securetf_tflite::interpreter::Interpreter;
use securetf_tflite::models::{self, ModelSpec, INCEPTION_V4};
use securetf_tflite::optimize;

/// §7.1: Inception-v4 HW latency as the EPC grows ("Ice Lake"), as
/// `(EPC MiB, fixed 2 MiB workspace, planned arena)` virtual ns; `base`
/// is fixed at 94 MiB, `planned_ws` the arena's bytes.
pub struct EpcSize {
    pub planned_ws: u64,
    pub base: u64,
    pub rows: Vec<(u64, u64, u64)>,
}

const FIXED_WS: u64 = 2 * 1024 * 1024;

fn classify_latency(epc_mib: u64, workspace_bytes: u64) -> u64 {
    const RUNS: u64 = 3;
    let model = CostModel {
        epc_bytes: epc_mib * 1024 * 1024,
        ..CostModel::default()
    };
    let platform = Platform::builder().cost_model(model).build();
    let image = EnclaveImage::builder()
        .code(b"epc sweep")
        .runtime_bytes(securetf_tflite::LITE_RUNTIME_BYTES)
        .build();
    let enclave = platform
        .create_enclave(&image, ExecutionMode::Hardware)
        .expect("enclave");
    let region = enclave.alloc("model", INCEPTION_V4.bytes);
    let ws = enclave.alloc("workspace", workspace_bytes);
    // Warm load.
    enclave.touch_all(region).expect("load");
    let t0 = enclave.clock().now_ns();
    for _ in 0..RUNS {
        enclave.touch_all(region).expect("model pass");
        enclave.touch_all(ws).expect("workspace");
        enclave.charge_compute(INCEPTION_V4.flops);
        for _ in 0..40 {
            enclave.charge_syscall();
        }
    }
    (enclave.clock().now_ns() - t0) / RUNS
}

/// Measures the EPC-size ablation.
pub fn ablation_epc_size() -> EpcSize {
    let planned_ws = securetf_tflite::arena::plan_memory(&models::build(INCEPTION_V4), 1)
        .expect("planable by construction")
        .peak_bytes;
    let rows = [94, 128, 192, 256, 512]
        .into_iter()
        .map(|epc| {
            let fixed = classify_latency(epc, FIXED_WS);
            (epc, fixed, classify_latency(epc, planned_ws))
        })
        .collect();
    EpcSize {
        planned_ws,
        base: classify_latency(94, FIXED_WS),
        rows,
    }
}

impl Figure for EpcSize {
    fn print(&self) {
        header(
            "Ablation: EPC size vs Inception-v4 (163 MB) HW classification",
            &["EPC (MiB) | fixed ws    | planned ws  | vs 94 MiB | paging?"],
        );
        for &(epc, fixed, planned) in &self.rows {
            let thrash = INCEPTION_V4.bytes / 4096 + 1000 > epc * 1024 * 1024 / 4096;
            println!(
                "{epc:>9} | {:>10} | {:>10} | {:>8} | {}",
                fmt_ns(fixed),
                fmt_ns(planned),
                fmt_ratio(fixed, self.base),
                if thrash { "thrash" } else { "fits" },
            );
        }
        println!(
            "\nplanned arena for this model: {} bytes (vs 2 MiB fixed)\n\
             \nthe paper (§7.1): inference is practical today, training waits for\n\
             larger-EPC CPUs — once the model fits, the HW penalty collapses to\n\
             the MEE compute overhead alone.",
            self.planned_ws
        );
    }

    fn report(&self) -> BenchReport {
        let mut report = BenchReport::new("ablation_epc_size")
            .mode("hw")
            .paper_target("§7.1: a larger EPC removes the paging penalty once the model fits")
            .value("planned_ws_bytes", JsonValue::U64(self.planned_ws));
        for &(epc, fixed, planned) in &self.rows {
            report = report
                .latency_ns(&format!("epc{epc}.fixed_ns"), fixed)
                .latency_ns(&format!("epc{epc}.planned_ns"), planned);
        }
        report
    }
}

/// §3.3.3: exit-less syscalls (user-level threads) vs an enclave exit per
/// syscall (OS threads), 200 requests on 4 cores, as `(syscalls per
/// request, user-level, OS threads)` virtual ns.
pub struct Threading {
    pub rows: Vec<(u64, u64, u64)>,
}

/// Virtual time of 200 requests on 4 cores: the syscalls serialize, the
/// compute runs along the worker pool's critical path.
fn serve(model: ThreadingModel, syscalls_per_request: u64) -> u64 {
    const REQUESTS: usize = 200;
    const FLOPS_PER_REQUEST: f64 = 5.0e6;
    let platform = Platform::builder().build();
    let enclave = platform
        .create_enclave(
            &EnclaveImage::builder().code(b"threading ablation").build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave");
    let t0 = enclave.clock().now_ns();
    for _ in 0..REQUESTS as u64 * syscalls_per_request {
        model.charge_syscall(&enclave);
    }
    enclave.charge_parallel_compute(
        REQUESTS as f64 * FLOPS_PER_REQUEST,
        critical_units(REQUESTS, 4) as f64 * FLOPS_PER_REQUEST,
    );
    enclave.clock().now_ns() - t0
}

/// Measures the threading ablation.
pub fn ablation_threading() -> Threading {
    let rows = [10, 100, 1000, 10_000]
        .into_iter()
        .map(|n| {
            let user = serve(ThreadingModel::UserLevel, n);
            (n, user, serve(ThreadingModel::OsThreads, n))
        })
        .collect();
    Threading { rows }
}

impl Figure for Threading {
    fn print(&self) {
        header(
            "Ablation: user-level threading vs OS threads (200 requests, 4 cores)",
            &["syscalls/req | user-level  | os-threads  | overhead"],
        );
        for &(syscalls, user, os) in &self.rows {
            println!(
                "{syscalls:>12} | {:>10} | {:>10} | {:>8}",
                fmt_ns(user),
                fmt_ns(os),
                fmt_ratio(os, user),
            );
        }
        println!(
            "\nexit-less asynchronous syscalls keep I/O-heavy workloads from being\n\
             dominated by enclave transitions (paper §3.3.3)."
        );
    }

    fn report(&self) -> BenchReport {
        let mut report = BenchReport::new("ablation_threading")
            .mode("hw")
            .paper_target("§3.3.3: exit-less syscalls keep I/O-heavy services off enclave exits");
        for &(syscalls, user, os) in &self.rows {
            report = report
                .latency_ns(&format!("syscalls{syscalls}.user_level_ns"), user)
                .latency_ns(&format!("syscalls{syscalls}.os_threads_ns"), os);
        }
        report
    }
}

/// One optimized artifact: its serialized bytes and its largest output
/// difference from the f32 baseline.
pub struct Variant {
    pub bytes: u64,
    pub max_drift: f32,
}

/// §7.2: a 16 MB Inception-v3 stand-in pruned (`(fraction, sparsity
/// reached, artifact)`) and quantized to int8, against its f32 baseline.
/// A pruned artifact is the baseline's size: pruning zeroes weights, and
/// `LiteModel::to_bytes` writes every f32, so only quantization shrinks
/// the model.
pub struct Optimize {
    pub baseline: Variant,
    pub pruned: Vec<(f32, f64, Variant)>,
    pub quantized: Variant,
}

fn provisioning_ns(bytes: u64) -> u64 {
    let m = CostModel::default();
    // Encrypt at the owner, transfer over the LAN, decrypt in the enclave.
    2 * m.shield_crypto_ns(bytes) + m.lan_transfer_ns(bytes)
}

/// Measures the optimization ablation.
pub fn ablation_optimize() -> Optimize {
    let base = models::build(ModelSpec {
        name: "inception_v3_scaled",
        bytes: 16 * 1024 * 1024,
        flops: 11.5e9,
    });
    let input = models::input_for(2);
    let reference = Interpreter::new(base.clone()).run(&input).expect("run");
    let drift = |model| {
        let out = Interpreter::new(model).run(&input).expect("run");
        let pairs = reference.data().iter().zip(out.data());
        pairs.map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
    };
    let pruned = [0.5f32, 0.8]
        .into_iter()
        .map(|fraction| {
            let (pruned, report) = optimize::prune_magnitude(&base, fraction);
            let bytes = pruned.to_bytes().len() as u64;
            let variant = Variant {
                bytes,
                max_drift: drift(pruned),
            };
            (fraction, report.sparsity(), variant)
        })
        .collect();
    let quantized = optimize::quantize(&base);
    Optimize {
        baseline: Variant {
            bytes: base.to_bytes().len() as u64,
            max_drift: 0.0,
        },
        pruned,
        quantized: Variant {
            bytes: quantized.byte_len() as u64,
            max_drift: drift(quantized.dequantize().expect("dequantize")),
        },
    }
}

impl Figure for Optimize {
    fn print(&self) {
        header(
            "Ablation: model optimization (Inception-v3-scaled, 16 MB)",
            &["variant         | artifact bytes | provisioning | max output drift"],
        );
        let (base, q) = (&self.baseline, &self.quantized);
        let line = |name: &str, v: &Variant| {
            format!(
                "{name:<15} | {:>14} | {:>12} | ",
                v.bytes,
                fmt_ns(provisioning_ns(v.bytes))
            )
        };
        println!("{}{:>16}", line("baseline f32", base), "0");
        for (fraction, sparsity, v) in &self.pruned {
            let name = format!("pruned {:.0}%", fraction * 100.0);
            let sparsity = sparsity * 100.0;
            println!(
                "{}{:>16.4}   (sparsity {sparsity:.0}%)",
                line(&name, v),
                v.max_drift
            );
        }
        println!("{}{:>16.4}", line("quantized int8", q), q.max_drift);
        println!(
            "\npruning zeroes weights but the artifact stores every f32, so a pruned\n\
             artifact is the baseline's size; quantization shrinks the artifact\n\
             ~{:.1}x; inside an enclave that is less EPC pressure and {} less\n\
             provisioning time per deploy.",
            base.bytes as f64 / q.bytes as f64,
            fmt_ns(provisioning_ns(base.bytes) - provisioning_ns(q.bytes)),
        );
    }

    fn report(&self) -> BenchReport {
        let variant = |v: &Variant| {
            object([
                ("artifact_bytes", JsonValue::U64(v.bytes)),
                ("provisioning_ns", JsonValue::U64(provisioning_ns(v.bytes))),
                ("max_drift", JsonValue::F64(f64::from(v.max_drift))),
            ])
        };
        let mut report = BenchReport::new("ablation_optimize")
            .mode("native")
            .paper_target("§7.2: smaller models mean less EPC pressure and provisioning time")
            .value("baseline_f32", variant(&self.baseline));
        for (fraction, _, v) in &self.pruned {
            report = report.value(&format!("pruned_{:.0}", fraction * 100.0), variant(v));
        }
        report.value("quantized_int8", variant(&self.quantized))
    }
}
