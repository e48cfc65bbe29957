//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` lists the same names; `tests/e2e_schema.rs`
//! fails if the two drift apart.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The workloads, with the one-line reason each was chosen.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "serve_small",
        "tiny [1,64]->10 model behind the gateway: per-request fixed costs (codec, small-record AEAD, batching, syscall charging) do the work, kernels almost none",
    ),
    (
        "serve_large",
        "42 MB Densenet stand-in behind the same gateway: interpreter, small-m GEMM, memory and EPC touching dominate, gateway and codec are noise",
    ),
    (
        "train_dist",
        "2-worker 2-shard conv training with int8 codec, overlap and journaled checkpoints: conv kernels, autodiff, planner and the comm plane dominate",
    ),
    (
        "store_write",
        "FsShield writes only, 4 KiB files and 1 MiB checkpoints: journal commit, manifest reseal, hashing and chunk sealing dominate, no tensor code runs",
    ),
    (
        "store_read",
        "FsShield reads only, hot/cold 3 KiB ranges and full 1 MiB reads: open instead of seal, chunk-cache hit against miss, so a write-side gain that costs reads shows",
    ),
];

/// What a user of the system sees. Every workload reports all of them.
pub const END_TO_END: [MetricDef; 5] = [
    lo("setup_s", "s"),
    hi("throughput_ops_s", "1/s"),
    lo("latency_p50_ms", "ms"),
    lo("latency_p95_ms", "ms"),
    lo("peak_rss_mib", "MiB"),
];

/// Single-layer metrics, measured in the traced run only. A workload
/// that does not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [MetricDef; 84] = [
    hi("crypto.seal_mib_s", "MiB/s"),
    hi("crypto.open_mib_s", "MiB/s"),
    hi("crypto.sha256_mib_s", "MiB/s"),
    lo("crypto.x25519_us", "us"),
    lo("crypto.bytes_sealed_per_op", "bytes"),
    lo("crypto.bytes_opened_per_op", "bytes"),
    lo("tee.virtual_ns_per_op", "ns"),
    lo("tee.transitions_per_op", "count"),
    lo("tee.async_syscalls_per_op", "count"),
    lo("tee.epc_faults_per_op", "count"),
    lo("tee.epc_evictions_per_op", "count"),
    lo("tee.touch_ms_per_op", "ms"),
    lo("tee.quote_ms", "ms"),
    lo("cas.attest_provision_ms", "ms"),
    lo("cas.attestations", "count"),
    lo("shield.net.send_us_per_record", "us"),
    lo("shield.net.recv_us_per_record", "us"),
    lo("shield.net.handshake_ms", "ms"),
    lo("shield.net.records_per_op", "count"),
    lo("shield.net.bytes_per_op", "bytes"),
    lo("shield.net.records_rejected", "count"),
    lo("shield.fs.write_small_us_p50", "us"),
    lo("shield.fs.write_large_ms_p50", "ms"),
    lo("shield.fs.read_ms_p50", "ms"),
    lo("shield.fs.read_range_us_p50", "us"),
    lo("shield.fs.recover_ms", "ms"),
    lo("shield.fs.host_ops_per_write", "count"),
    hi("shield.fs.chunk_cache_hit_ratio", "ratio"),
    lo("shield.fs.journal_commits_per_write", "count"),
    lo("shield.fs.aborted_writes", "count"),
    lo("shield.fs.tamper_rejections", "count"),
    hi("tensor.kernels.matmul_gflops", "GFLOP/s"),
    lo("tensor.kernels.conv2d_fwd_ms", "ms"),
    lo("tensor.kernels.conv2d_grad_ms", "ms"),
    lo("tensor.kernels.flops_per_op", "flop"),
    lo("tensor.kernels.critical_flops_per_op", "flop"),
    lo("tensor.kernels.pool_dispatch_us", "us"),
    lo("tensor.session.train_step_ms", "ms"),
    lo("tensor.session.self_ms", "ms"),
    lo("tensor.session.rss_kib_per_step", "KiB"),
    lo("tensor.memory.planned_peak_bytes", "bytes"),
    lo("tensor.passes.compile_ms", "ms"),
    hi("tensor.passes.nodes_fused", "count"),
    lo("tflite.interpreter.run_ms", "ms"),
    lo("tflite.interpreter.self_ms", "ms"),
    lo("tflite.interpreter.rss_kib_per_run", "KiB"),
    lo("tflite.interpreter.new_ms", "ms"),
    lo("tflite.model.from_bytes_ms", "ms"),
    lo("data.batch_us", "us"),
    lo("data.from_bytes_ms", "ms"),
    lo("core.serving.encode_request_us", "us"),
    lo("core.serving.decode_request_us", "us"),
    lo("core.serving.encode_response_us", "us"),
    lo("core.serving.decode_response_us", "us"),
    lo("core.classifier.classify_batch_ms", "ms"),
    lo("core.classifier.self_ms", "ms"),
    lo("core.deployment.publish_ms", "ms"),
    lo("core.deployment.deploy_ms", "ms"),
    lo("gateway.pump_us_per_round", "us"),
    lo("gateway.self_us_per_request", "us"),
    hi("gateway.batch_size_mean", "count"),
    lo("gateway.batches_per_round", "count"),
    lo("gateway.shed", "count"),
    lo("gateway.deadline_miss", "count"),
    lo("gateway.dropped", "count"),
    lo("distrib.trainer.step_ms", "ms"),
    lo("distrib.trainer.self_ms", "ms"),
    hi("distrib.wire.encode_mib_s", "MiB/s"),
    hi("distrib.wire.decode_mib_s", "MiB/s"),
    lo("distrib.comm.bytes_sent_per_step", "bytes"),
    hi("distrib.comm.compression_ratio", "ratio"),
    lo("distrib.comm.exposed_ns_per_step", "ns"),
    hi("distrib.comm.hidden_ns_per_step", "ns"),
    lo("distrib.trainer.checkpoint_ms", "ms"),
    lo("telemetry.span_ns", "ns"),
    lo("harness.trace_overhead_ratio", "ratio"),
    lo("harness.timer_ns", "ns"),
    lo("harness.threads", "count"),
    hi("harness.ops", "count"),
    lo("calib.crypto_model_over_measured", "ratio"),
    lo("calib.net_model_over_measured", "ratio"),
    lo("calib.flops_model_over_measured", "ratio"),
    lo("calib.declared_over_executed_flops", "ratio"),
    hi("harness.samples_per_s", "1/s"),
];

/// The unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
}
