//! The batch model behind Figure 7, as its pieces charge it: a batch of
//! equal tasks on `cores` simulated cores pays its memory touches and
//! system calls one after another (paging is kernel-mediated), and its
//! compute along the kernel worker crew's critical path
//! ([`critical_units`] tasks on the busiest core, which is the LPT
//! makespan of equal tasks). `fig7_scalability` and `ablation_threading`
//! charge their batches this way; the tests here hold that model to the
//! shape the figure depends on.
//!
//! [`critical_units`]: securetf_tensor::kernels::pool::critical_units

#[cfg(test)]
mod tests {
    use securetf_tee::telemetry::MetricValue;
    use securetf_tee::{
        CostModel, Enclave, EnclaveImage, ExecutionMode, Platform, RegionId, TeeError, Telemetry,
        PAGE_SIZE,
    };
    use securetf_tensor::kernels::pool::critical_units;
    use std::sync::Arc;

    /// One task: compute, exit-less system calls, and a region it scans
    /// from offset 0.
    #[derive(Debug, Clone, Copy, Default)]
    struct Task {
        flops: f64,
        syscalls: u64,
        touch: Option<(RegionId, u64)>,
    }

    /// Runs equal `tasks` on `cores` cores and returns the makespan.
    /// Touches interleave across tasks the way concurrent threads
    /// interleave, so the EPC's LRU sees what it would under real
    /// concurrency.
    fn run_batch(enclave: &Enclave, cores: usize, tasks: &[Task]) -> Result<u64, TeeError> {
        let start = enclave.clock().now_ns();
        for task in tasks {
            if let Some((region, bytes)) = task.touch {
                enclave.touch(region, 0, bytes)?;
            }
            for _ in 0..task.syscalls {
                enclave.charge_syscall();
            }
        }
        let flops = tasks.first().map_or(0.0, |t| t.flops);
        enclave.charge_parallel_compute(
            tasks.len() as f64 * flops,
            critical_units(tasks.len(), cores) as f64 * flops,
        );
        Ok(enclave.clock().now_ns() - start)
    }

    /// The counter `name`; panics if the registry has no such metric.
    fn count(telemetry: &Telemetry, name: &str) -> u64 {
        match telemetry.metrics().into_iter().find(|(n, _)| n == name) {
            Some((_, MetricValue::Counter(n))) => n,
            other => panic!("no counter named {name:?}: {other:?}"),
        }
    }

    fn compute(flops: f64) -> Task {
        Task {
            flops,
            ..Task::default()
        }
    }

    fn enclave(mode: ExecutionMode) -> Arc<Enclave> {
        enclave_with_epc(mode, CostModel::default().epc_bytes)
    }

    fn enclave_with_epc(mode: ExecutionMode, epc_bytes: u64) -> Arc<Enclave> {
        let model = CostModel {
            epc_bytes,
            ..Default::default()
        };
        Platform::builder()
            .cost_model(model)
            .build()
            .create_enclave(
                &EnclaveImage::builder()
                    .code(b"sched test")
                    .runtime_bytes(1024 * 1024)
                    .build(),
                mode,
            )
            .unwrap()
    }

    #[test]
    fn compute_parallelizes() {
        let e = enclave(ExecutionMode::Native);
        let tasks = [compute(1e9); 8];
        let one = run_batch(&e, 1, &tasks).unwrap();
        let four = run_batch(&e, 4, &tasks).unwrap();
        assert!(
            (3.8..4.2).contains(&(one as f64 / four as f64)),
            "{one} vs {four}"
        );
    }

    #[test]
    fn epc_pressure_collapses_scaling() {
        // The pinned image takes ~257 pages of a 1024-page EPC; 4 per-core
        // working sets of 180 pages fit in the remainder, 8 do not.
        let epc = 1024 * PAGE_SIZE as u64;
        let per_core_ws = 180 * PAGE_SIZE as u64;

        let run = |cores: usize| {
            let e = enclave_with_epc(ExecutionMode::Hardware, epc);
            let regions: Vec<RegionId> = (0..cores)
                .map(|_| e.alloc("activations", per_core_ws))
                .collect();
            // Fixed total work, interleaved round-robin across the cores'
            // working sets as concurrent threads would.
            let tasks: Vec<Task> = (0..32)
                .map(|i| Task {
                    touch: Some((regions[i % cores], per_core_ws)),
                    ..compute(2e7)
                })
                .collect();
            run_batch(&e, cores, &tasks).unwrap()
        };

        let t1 = run(1);
        let t4 = run(4);
        let t8 = run(8);
        assert!(t4 < t1, "t4 {t4} >= t1 {t1}");
        assert!(t8 > t4, "t8 {t8} <= t4 {t4}");
    }

    #[test]
    fn serial_paging_included_in_makespan() {
        let e = enclave(ExecutionMode::Hardware);
        let bytes = 100 * PAGE_SIZE as u64;
        let region = e.alloc("w", bytes);
        let task = Task {
            touch: Some((region, bytes)),
            ..Task::default()
        };
        let ns = run_batch(&e, 4, &[task]).unwrap();
        assert!(ns >= 100 * e.cost_model().page_swap_ns());
    }

    #[test]
    fn freed_region_is_error() {
        let e = enclave(ExecutionMode::Hardware);
        let region = e.alloc("w", PAGE_SIZE as u64);
        e.free(region).unwrap();
        let task = Task {
            touch: Some((region, 10)),
            ..compute(1.0)
        };
        assert_eq!(run_batch(&e, 1, &[task]), Err(TeeError::BadRegion(region)));
    }

    #[test]
    fn run_batch_attributes_compute_and_counts_batches() {
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let e = Platform::builder()
            .clock(clock)
            .telemetry(telemetry.clone())
            .build()
            .create_enclave(
                &EnclaveImage::builder().code(b"sched test").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let cost = |category: &str| telemetry.counter(&format!("cost.{category}.ns")).get();
        let (compute0, syscalls0) = (cost("compute"), cost("syscalls"));

        let tasks = [Task {
            syscalls: 3,
            ..compute(1e7)
        }; 4];
        let ns = run_batch(&e, 2, &tasks).unwrap();
        assert!(ns > 0);
        // Every call is counted, and the crew ran two tasks per core.
        assert_eq!(count(&telemetry, "tee.enclave#0.async_syscalls"), 12);
        assert_eq!(
            telemetry.counter("kernel.pool.total_flops").get(),
            40_000_000
        );
        assert_eq!(
            telemetry.counter("kernel.pool.critical_flops").get(),
            20_000_000
        );
        // Compute and syscall costs went to their categories, and they
        // account for the whole makespan.
        let (compute, syscalls) = (cost("compute") - compute0, cost("syscalls") - syscalls0);
        assert!(compute > 0 && syscalls > 0);
        assert_eq!(compute + syscalls, ns);
    }
}
