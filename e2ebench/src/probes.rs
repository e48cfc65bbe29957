//! Peeled replays shared by the workloads.
//!
//! A traced epoch cannot put spans inside the stack, so after its timed
//! loop it calls the next layer down directly, with the sizes the
//! workload used, and times that. Each function here is one such replay
//! against one public function.

use crate::harness::{time_ns, Layers};
use securetf_crypto::aead::{AeadCtx, Key, Nonce, TAG_LEN};
use securetf_crypto::sha256;
use securetf_crypto::x25519::{PublicKey, StaticSecret};
use securetf_tee::{CostModel, EnclaveImage, ExecutionMode, Platform, SimClock, Telemetry};
use securetf_tensor::kernels::{self, WorkerPool};
use securetf_tensor::tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// `crypto.*` rates at the workload's record sizes (each size weighs
/// the same, as each op moves one record of each), plus SHA-256 over
/// 64 KiB and one X25519 scalar multiplication. Also fills the crypto
/// calibration ratio against the cost model.
pub fn crypto(layers: &mut Layers, record_sizes: &[usize]) {
    let ctx = AeadCtx::new(Key::derive_from(b"e2e-probe"));
    let aad = b"probe";
    let (mut seal_ns, mut open_ns, mut bytes) = (0.0, 0.0, 0.0);
    for (i, &size) in record_sizes.iter().enumerate() {
        let mut buf = vec![0x5au8; size];
        let mut tag = [0u8; TAG_LEN];
        let mut seq = 0u64;
        seal_ns += time_ns(16, 20, || {
            seq += 1;
            tag = ctx.seal_in_place_detached(&Nonce::from_counter(i as u32, seq), &mut buf, aad);
        });
        // Open what the last seal produced, then re-seal it so the next
        // open sees a valid record again; only the open is timed.
        let nonce = Nonce::from_counter(i as u32, seq);
        let sealed = buf.clone();
        let mut spent = 0u128;
        let mut iters = 0u32;
        while iters < 16 || spent < 20_000_000 {
            buf.copy_from_slice(&sealed);
            let t = Instant::now();
            ctx.open_in_place_detached(&nonce, &mut buf, &tag, aad)
                .expect("probe record is authentic");
            spent += t.elapsed().as_nanos();
            iters += 1;
        }
        open_ns += spent as f64 / f64::from(iters);
        bytes += size as f64;
    }
    let seal_bytes_s = bytes / (seal_ns / 1e9);
    layers.insert("crypto.seal_mib_s", seal_bytes_s / MIB);
    layers.insert("crypto.open_mib_s", bytes / (open_ns / 1e9) / MIB);
    layers.insert(
        "calib.crypto_model_over_measured",
        CostModel::default().shield_crypto_bytes_per_sec / seal_bytes_s,
    );

    let block = vec![0xa5u8; 64 * 1024];
    let sha_ns = time_ns(16, 20, || {
        black_box(sha256::digest(black_box(&block)));
    });
    layers.insert(
        "crypto.sha256_mib_s",
        block.len() as f64 / (sha_ns / 1e9) / MIB,
    );

    let secret = StaticSecret::from_bytes([7u8; 32]);
    let peer = PublicKey::from(&StaticSecret::from_bytes([9u8; 32]));
    let dh_ns = time_ns(8, 20, || {
        black_box(secret.diffie_hellman(black_box(&peer)));
    });
    layers.insert("crypto.x25519_us", dh_ns / 1e3);
}

/// `tee.touch_ms_per_op` and `tee.quote_ms`: wall time of the EPC
/// bookkeeping behind one op's `touch_all` calls, replayed on a scratch
/// hardware-mode enclave with regions of the workload's sizes, and of
/// one quote. `ops_per_pass` is how many ops share one pass over the
/// regions (a batch of requests shares one model sweep).
pub fn tee(
    layers: &mut Layers,
    cost: CostModel,
    runtime_bytes: u64,
    regions: &[u64],
    ops_per_pass: f64,
) {
    let platform = Platform::builder().cost_model(cost).build();
    let image = EnclaveImage::builder()
        .code(b"e2e-touch-probe")
        .runtime_bytes(runtime_bytes)
        .build();
    let enclave = platform
        .create_enclave(&image, ExecutionMode::Hardware)
        .expect("probe enclave fits the EPC");
    let ids: Vec<_> = regions
        .iter()
        .map(|&b| enclave.alloc("probe", b.max(1)))
        .collect();
    let pass_ns = time_ns(4, 20, || {
        for &id in &ids {
            enclave.touch_all(id).expect("probe region exists");
        }
    });
    layers.insert("tee.touch_ms_per_op", pass_ns / 1e6 / ops_per_pass);
    let quote_ns = time_ns(8, 10, || {
        black_box(enclave.quote(b"probe").expect("hardware mode quotes"));
    });
    layers.insert("tee.quote_ms", quote_ns / 1e6);
}

/// `tensor.kernels.matmul_gflops` at m=8, k=n=1024 and
/// `tensor.kernels.pool_dispatch_us` (an empty `run_items` over one item
/// per worker), plus the FLOP calibration ratio.
pub fn kernels(layers: &mut Layers, pool: &WorkerPool) {
    let (m, k, n) = (8usize, 1024usize, 1024usize);
    let lhs = Tensor::full(&[m, k], 0.5);
    let rhs = Tensor::full(&[k, n], 0.25);
    let ns = time_ns(4, 40, || {
        black_box(kernels::matmul(pool, &lhs, &rhs).expect("shapes agree"));
    });
    let flops_s = 2.0 * (m * k * n) as f64 / (ns / 1e9);
    layers.insert("tensor.kernels.matmul_gflops", flops_s / 1e9);
    layers.insert(
        "calib.flops_model_over_measured",
        CostModel::default().native_flops / flops_s,
    );
    let mut items = vec![0u8; pool.workers()];
    let dispatch_ns = time_ns(64, 10, || {
        pool.run_items(&mut items, &|_, item| {
            black_box(item);
        });
    });
    layers.insert("tensor.kernels.pool_dispatch_us", dispatch_ns / 1e3);
}

/// `telemetry.span_ns` (open and close one span on an enabled handle)
/// and `harness.timer_ns` (one `Instant::now`).
pub fn instruments(layers: &mut Layers) {
    let telemetry: Telemetry = SimClock::new().telemetry();
    let span_ns = time_ns(10_000, 5, || {
        drop(telemetry.span("probe"));
    });
    layers.insert("telemetry.span_ns", span_ns);
    let timer_ns = time_ns(10_000, 5, || {
        black_box(Instant::now());
    });
    layers.insert("harness.timer_ns", timer_ns);
}

/// A telemetry snapshot, as `Telemetry::metrics()` returns it.
pub type Snapshot = [(String, securetf_tee::telemetry::MetricValue)];

/// Sum of the counters in a `Telemetry::metrics()` snapshot whose name
/// satisfies `pick`.
pub fn counter_sum(metrics: &Snapshot, pick: impl Fn(&str) -> bool) -> u64 {
    metrics
        .iter()
        .filter(|(name, _)| pick(name))
        .map(|(_, value)| match value {
            securetf_tee::telemetry::MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum()
}

/// How much the counter `name` grew between two snapshots.
pub fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    (counter_sum(after, |n| n == name) - counter_sum(before, |n| n == name)) as f64
}

/// The `tee.*` and `crypto.bytes_*` counts per op between two
/// `Telemetry::metrics()` snapshots. Enclave counters are registered as
/// `tee.<image>#<k>.<counter>`, one set per enclave, and are summed.
pub fn tee_counts(layers: &mut Layers, before: &Snapshot, after: &Snapshot, ops: f64) {
    let delta = |pick: &dyn Fn(&str) -> bool| {
        (counter_sum(after, pick) - counter_sum(before, pick)) as f64 / ops
    };
    let enclave =
        |suffix: &'static str| move |n: &str| n.starts_with("tee.") && n.ends_with(suffix);
    layers.insert("tee.transitions_per_op", delta(&enclave(".transitions")));
    layers.insert(
        "tee.async_syscalls_per_op",
        delta(&enclave(".async_syscalls")),
    );
    layers.insert("tee.epc_faults_per_op", delta(&enclave(".epc.faults")));
    layers.insert(
        "tee.epc_evictions_per_op",
        delta(&enclave(".epc.evictions")),
    );
    layers.insert(
        "crypto.bytes_sealed_per_op",
        counter_delta(before, after, "crypto.bytes_sealed") / ops,
    );
    layers.insert(
        "crypto.bytes_opened_per_op",
        counter_delta(before, after, "crypto.bytes_opened") / ops,
    );
}
