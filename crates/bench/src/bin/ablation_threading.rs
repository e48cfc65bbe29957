//! Ablation (§3.3.3): user-level threading vs conventional OS threads.
//!
//! SCONE's exit-less asynchronous syscalls are one of the design choices
//! DESIGN.md calls out: every syscall under conventional threading costs
//! a full enclave transition (~2 µs) versus an in-enclave queue operation
//! (~0.4 µs). This sweep runs a syscall-heavy classification service
//! (many small reads per request) under both models.

use securetf::profile::ThreadingModel;
use securetf_bench::{fmt_ns, fmt_ratio, header};
use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
use securetf_tensor::kernels::pool::critical_units;

const REQUESTS: usize = 200;
const CORES: usize = 4;
const FLOPS_PER_REQUEST: f64 = 5.0e6;

/// Virtual time of `REQUESTS` requests on `CORES` cores: the syscalls
/// serialize, the compute runs along the worker pool's critical path.
fn run(model: ThreadingModel, syscalls_per_request: u64) -> u64 {
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
        critical_units(REQUESTS, CORES) as f64 * FLOPS_PER_REQUEST,
    );
    enclave.clock().now_ns() - t0
}

fn main() {
    header(
        "Ablation: user-level threading vs OS threads (200 requests, 4 cores)",
        &["syscalls/req", "user-level ", "os-threads ", "overhead"],
    );
    for syscalls in [10u64, 100, 1000, 10_000] {
        let user = run(ThreadingModel::UserLevel, syscalls);
        let os = run(ThreadingModel::OsThreads, syscalls);
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
