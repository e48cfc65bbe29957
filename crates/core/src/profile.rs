//! Runtime profiles: how an ML runtime behaves inside an enclave.
//!
//! The paper compares three ways to put an ML runtime in an enclave
//! (Figure 5 and §5.3 #4):
//!
//! * **secureTF + TensorFlow Lite** — SCONE's small modified libc
//!   (runtime footprint 1.9 MB), asynchronous exit-less syscalls,
//!   user-level threading;
//! * **secureTF + full TensorFlow** — same runtime model but an 87.4 MB
//!   binary whose graph executor re-traverses its working set many times
//!   per inference (arena allocator, im2col copies) — catastrophic under
//!   EPC pressure;
//! * **Graphene-SGX** — a whole library OS in the enclave; syscalls are
//!   synchronous enclave transitions and EPC faults take the slower
//!   AEX → host → resume path with libOS bookkeeping.
//!
//! A [`RuntimeProfile`] captures those differences as parameters
//! consumed by [`crate::classifier::SecureClassifier`].

use securetf_tee::{CostModel, Enclave};

/// How application threads are multiplexed onto OS threads (paper
/// §3.3.3).
///
/// This decides only what a system call costs. Parallel compute is
/// charged along the kernel worker pool's critical path
/// ([`Enclave::charge_parallel_compute`]), whatever the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadingModel {
    /// SCONE-style M:N user-level scheduling with asynchronous,
    /// exit-less syscalls.
    #[default]
    UserLevel,
    /// One OS thread per application thread; every syscall exits the
    /// enclave (a full transition).
    OsThreads,
}

impl ThreadingModel {
    /// Charges one system call on `enclave` under this model: exit-less
    /// through the shielded runtime's queue, or as a full transition.
    pub fn charge_syscall(self, enclave: &Enclave) {
        match self {
            ThreadingModel::UserLevel => enclave.charge_syscall(),
            ThreadingModel::OsThreads => enclave.charge_transition(),
        }
    }
}

/// Parameters describing an in-enclave ML runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeProfile {
    /// Display name used in benchmark output.
    pub name: &'static str,
    /// In-enclave footprint of the runtime binary (pinned EPC).
    pub runtime_bytes: u64,
    /// Threading/syscall model.
    pub threading: ThreadingModel,
    /// Compute slowdown inside a hardware enclave (MEE + runtime).
    pub hw_compute_slowdown: f64,
    /// Cycles per 4 KiB EPC page swap for this runtime's fault path.
    pub page_swap_cycles: u64,
    /// How many times one inference traverses the model+workspace memory
    /// (1 for the Lite interpreter's single pass; large for the full
    /// framework's executor).
    pub memory_passes: u32,
    /// Workspace bytes allocated per inference beyond the model, as a
    /// fraction of the model size.
    pub workspace_fraction: f64,
    /// Syscalls issued per inference (input reads, logging).
    pub syscalls_per_inference: u64,
    /// Scale on the platform's base compute throughput (models the
    /// glibc-vs-musl gap the paper measures between its two native
    /// baselines).
    pub native_flops_scale: f64,
}

impl RuntimeProfile {
    /// secureTF with TensorFlow Lite under SCONE (the paper's system).
    pub fn scone_lite() -> Self {
        RuntimeProfile {
            name: "securetf-lite",
            runtime_bytes: securetf_tflite::LITE_RUNTIME_BYTES,
            threading: ThreadingModel::UserLevel,
            hw_compute_slowdown: 1.25,
            page_swap_cycles: CostModel::default().page_swap_cycles,
            memory_passes: 1,
            workspace_fraction: 0.01,
            syscalls_per_inference: 40,
            native_flops_scale: 1.0,
        }
    }

    /// Native TensorFlow Lite linked against glibc (Ubuntu baseline).
    pub fn native_glibc() -> Self {
        RuntimeProfile {
            name: "native-glibc",
            ..Self::scone_lite()
        }
    }

    /// Native TensorFlow Lite linked against musl (Alpine baseline);
    /// the paper finds glibc the same or slightly faster (§5.3 #1).
    pub fn native_musl() -> Self {
        RuntimeProfile {
            name: "native-musl",
            native_flops_scale: 0.975,
            ..Self::scone_lite()
        }
    }

    /// secureTF with the full TensorFlow runtime under SCONE
    /// (§5.3 #4 — only viable below the EPC limit).
    pub fn scone_full_tf() -> Self {
        RuntimeProfile {
            name: "securetf-full-tf",
            runtime_bytes: securetf_tflite::FULL_TF_RUNTIME_BYTES,
            threading: ThreadingModel::UserLevel,
            hw_compute_slowdown: 1.25,
            // The multi-threaded framework faults from many threads at
            // once; TLB shootdowns and driver contention multiply the
            // per-page cost under sustained thrash.
            page_swap_cycles: 7 * CostModel::default().page_swap_cycles,
            // The full framework's executor, arena allocator and im2col
            // copies re-traverse weights and workspace repeatedly.
            memory_passes: 48,
            workspace_fraction: 0.5,
            syscalls_per_inference: 120,
            native_flops_scale: 1.0,
        }
    }

    /// The Graphene-SGX baseline (whole library OS inside the enclave).
    pub fn graphene() -> Self {
        RuntimeProfile {
            name: "graphene",
            // Graphene's enclave carries the libOS + glibc; its base
            // footprint is small enough that models below the EPC limit
            // still fit (matching the paper's near-parity at 42 MB).
            runtime_bytes: 2_000_000,
            threading: ThreadingModel::OsThreads,
            hw_compute_slowdown: 1.29,
            // EPC faults take an AEX, a host round trip and libOS
            // bookkeeping: ~5x the exit-less path.
            page_swap_cycles: 5 * CostModel::default().page_swap_cycles,
            memory_passes: 1,
            workspace_fraction: 0.01,
            syscalls_per_inference: 40,
            native_flops_scale: 1.0,
        }
    }

    /// Derives the platform cost model for this profile.
    pub fn cost_model(&self) -> CostModel {
        let base = CostModel::default();
        CostModel {
            hw_compute_slowdown: self.hw_compute_slowdown,
            page_swap_cycles: self.page_swap_cycles,
            native_flops: base.native_flops * self.native_flops_scale,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lite_is_smaller_than_full() {
        assert!(
            RuntimeProfile::scone_lite().runtime_bytes
                < RuntimeProfile::scone_full_tf().runtime_bytes / 10
        );
    }

    #[test]
    fn graphene_pays_more_per_fault() {
        assert!(
            RuntimeProfile::graphene().page_swap_cycles
                > RuntimeProfile::scone_lite().page_swap_cycles
        );
        assert_eq!(
            RuntimeProfile::graphene().threading,
            ThreadingModel::OsThreads
        );
    }

    #[test]
    fn os_threads_pay_transitions() {
        use securetf_tee::telemetry::MetricValue;
        use securetf_tee::{EnclaveImage, ExecutionMode, Platform, SimClock};
        let clock = SimClock::new();
        let telemetry = clock.telemetry();
        let enclave = Platform::builder()
            .clock(clock)
            .telemetry(telemetry.clone())
            .build()
            .create_enclave(
                &EnclaveImage::builder().code(b"threading test").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        // Panics on an absent name, so a typo cannot read as a zero.
        let count = |name: &str| match telemetry.metrics().into_iter().find(|(n, _)| n == name) {
            Some((_, MetricValue::Counter(n))) => n,
            other => panic!("no counter named {name:?}: {other:?}"),
        };
        let crossings = || {
            (
                count("tee.enclave#0.async_syscalls"),
                count("tee.enclave#0.transitions"),
            )
        };
        ThreadingModel::UserLevel.charge_syscall(&enclave);
        assert_eq!(crossings(), (1, 0));
        ThreadingModel::OsThreads.charge_syscall(&enclave);
        assert_eq!(crossings(), (1, 1));
    }

    #[test]
    fn cost_model_reflects_profile() {
        let m = RuntimeProfile::graphene().cost_model();
        assert_eq!(m.page_swap_cycles, 200_000);
        assert!((m.hw_compute_slowdown - 1.29).abs() < 1e-9);
    }
}
