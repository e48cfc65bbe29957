//! Sweeps of the subsystems the paper's figures rest on: crash recovery
//! of the fs shield, the serving gateway and the training comm plane.

use super::paper::shielded_cost_model;
use super::{object, Figure};
use crate::report::{BenchReport, JsonValue};
use crate::{fmt_ns, header};
use rand::SeedableRng;
use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf::serving::{encode_request, Request};
use securetf_distrib::cluster::{Cluster, ClusterConfig};
use securetf_distrib::comm::{Codec, CommConfig, CommStats};
use securetf_distrib::trainer::DistributedTrainer;
use securetf_gateway::chaos::{attested_pair, demo_input, demo_model};
use securetf_gateway::{Gateway, GatewayConfig};
use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_shield::ShieldError;
use securetf_tee::ExecutionMode::{Hardware, Simulation};
use securetf_tee::{Enclave, EnclaveImage, Platform, SimClock, Telemetry};
use securetf_tensor::layers;
use std::sync::Arc;

const PATH: &str = "/ckpt/model";

fn enclave_on(platform: &Platform) -> Arc<Enclave> {
    let image = EnclaveImage::builder().code(b"recovery bench").build();
    platform
        .create_enclave(&image, Hardware)
        .expect("enclave boots")
}

fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

/// A fresh one-file store holding `pre` at `PATH`, the platform to
/// remount it on, and the shield that wrote it.
fn holding(pre: &[u8]) -> (Platform, UntrustedStore, FsShield) {
    let platform = Platform::builder().build();
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(enclave_on(&platform), store.clone());
    shield.write(PATH, pre).expect("pre write");
    (platform, store, shield)
}

/// One checkpoint size's sweep: each host op of a clean overwrite is a
/// crash point; `violations` has a line per point that broke the invariant.
pub struct SizeResult {
    pub size: usize,
    pub label: &'static str,
    pub crash_points: u64,
    pub rolled_forward: u64,
    pub total_recovery_ns: u64,
    pub max_recovery_ns: u64,
    pub violations: Vec<String>,
}

impl SizeResult {
    /// Mean recovery virtual time per crash point.
    pub fn mean_recovery_ns(&self) -> u64 {
        self.total_recovery_ns / self.crash_points
    }
}

/// Enumerates every crash point of one `size`-byte overwrite, checking
/// the invariant at each and accumulating recovery cost.
fn sweep_size((size, label): (usize, &'static str)) -> SizeResult {
    let pre = payload(size, 0x5a);
    let post = payload(size, 0xa5);
    // The journal's shape is measured, not restated: the host ops of one
    // clean overwrite (a one-file store seals a checkpoint on every
    // write), of which the commit is the last but one — only the rename
    // of the staged object into place follows it.
    let total_ops = {
        let (_platform, store, mut shield) = holding(&pre);
        let before = store.op_count();
        shield.write(PATH, &post).expect("clean overwrite");
        store.op_count() - before
    };
    let mut r = SizeResult {
        size,
        label,
        crash_points: total_ops,
        rolled_forward: 0,
        total_recovery_ns: 0,
        max_recovery_ns: 0,
        violations: Vec::new(),
    };
    for k in 0..total_ops {
        let at = format!("{size} B, crash point {k}/{total_ops}");
        let (platform, store, mut shield) = holding(&pre);
        store.fail_after_ops(k);
        match shield.write(PATH, &post) {
            Err(ShieldError::HostCrashed(_)) => {}
            other => {
                r.violations
                    .push(format!("{at}: write did not crash ({other:?})"));
                continue;
            }
        }
        store.host_restart();
        let (recovered, report) = match FsShield::recover(enclave_on(&platform), store) {
            Ok(recovered) => recovered,
            Err(e) => {
                r.violations.push(format!("{at}: recovery failed: {e}"));
                continue;
            }
        };
        let expected = if k >= total_ops - 1 { &post } else { &pre };
        match recovered.read(PATH) {
            Ok(got) if got == *expected => {}
            Ok(_) => r.violations.push(format!("{at}: recovered a hybrid")),
            Err(e) => r.violations.push(format!("{at}: unreadable: {e}")),
        }
        r.rolled_forward += report.rolled_forward as u64;
        r.total_recovery_ns += report.recovery_ns;
        r.max_recovery_ns = r.max_recovery_ns.max(report.recovery_ns);
    }
    r
}

/// Every crash point of a 64 KiB, 256 KiB and 1 MiB overwrite, remounted
/// with [`FsShield::recover`]: the file must be exactly pre or post.
pub struct Recovery {
    pub sizes: Vec<SizeResult>,
}

/// Measures the crash-recovery sweep.
pub fn recovery() -> Recovery {
    let sizes = [(64, "64 KiB"), (256, "256 KiB"), (1024, "1 MiB")];
    Recovery {
        sizes: sizes
            .map(|(kib, label)| sweep_size((kib * 1024, label)))
            .into(),
    }
}

impl Figure for Recovery {
    fn print(&self) {
        header(
            "Recovery: crash-point sweep of journaled checkpoint writes",
            &["checkpoint | crash pts | rolled fwd | mean recovery | max recovery"],
        );
        for r in &self.sizes {
            println!(
                "{:>10} | {:>9} | {:>10} | {:>13} | {:>12}",
                r.label,
                r.crash_points,
                r.rolled_forward,
                fmt_ns(r.mean_recovery_ns()),
                fmt_ns(r.max_recovery_ns),
            );
        }
        let violations: Vec<_> = self.sizes.iter().flat_map(|r| &r.violations).collect();
        if violations.is_empty() {
            println!("\nall crash points consistent: recovery yields pre xor post, never a hybrid");
        }
        for v in violations {
            println!("INVARIANT VIOLATION: {v}");
        }
    }

    fn report(&self) -> BenchReport {
        let mut report = BenchReport::new("recovery")
            .mode("hw")
            .paper_target("every crash point recovers to exactly pre or post state");
        for r in &self.sizes {
            let cells = object([
                ("crash_points", JsonValue::U64(r.crash_points)),
                ("rolled_forward", JsonValue::U64(r.rolled_forward)),
                ("mean_recovery_ns", JsonValue::U64(r.mean_recovery_ns())),
                ("max_recovery_ns", JsonValue::U64(r.max_recovery_ns)),
            ]);
            report = report.value(&format!("ckpt_{}kib", r.size / 1024), cells);
        }
        report
    }
}

const CLIENTS: usize = 4;
const ROUNDS: u64 = 16;

/// Gateway run at one (per-round load, batch ceiling) cell. Returns
/// `(virtual ns, answered)`.
fn gateway_ns(load_per_client: u64, max_batch: usize) -> (u64, u64) {
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let mut deployment = Deployment::instrumented(Hardware, clock.clone(), telemetry.clone());
    deployment
        .publish_model("bench", "/m", &demo_model())
        .expect("publish");
    let classifier = deployment
        .deploy_classifier("bench", "/m", RuntimeProfile::scone_lite())
        .expect("deploy");
    let frontend_platform = Platform::builder()
        .clock(clock.clone())
        .telemetry(telemetry)
        .build();
    let frontend = frontend_platform
        .create_enclave(
            &EnclaveImage::builder().code(b"bench-frontend").build(),
            Simulation,
        )
        .expect("frontend");
    let config = GatewayConfig {
        max_batch,
        queue_capacity: 256, // admission never interferes with the sweep
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(classifier, config);
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let (server, client) = attested_pair(frontend.clone());
        gateway.accept(server);
        clients.push(client);
    }
    let t0 = clock.now_ns();
    let mut seq = 0u64;
    for _ in 0..ROUNDS {
        for (c, client) in clients.iter_mut().enumerate() {
            for _ in 0..load_per_client {
                let id = (c as u64) << 32 | seq;
                client
                    .send(&encode_request(&Request::new(id, demo_input(c, seq))))
                    .expect("send");
                seq += 1;
            }
        }
        gateway.pump().expect("pump");
    }
    gateway.flush().expect("flush");
    (clock.now_ns() - t0, gateway.report().answered)
}

/// One (load per client and round, batch ceiling) cell; `baseline_rps`
/// is the same load's at ceiling 1.
pub struct GatewayCell {
    pub load: u64,
    pub ceiling: usize,
    pub offered: u64,
    pub answered: u64,
    pub ns: u64,
    pub rps: f64,
    pub baseline_rps: f64,
}

/// The gateway's batch ceiling (1-16) at 1, 2 and 4 requests per client
/// and round: batching must pay off (ceiling ≥ 8 beats 1) and every
/// request must be answered once.
pub struct GatewaySweep {
    pub cells: Vec<GatewayCell>,
}

impl GatewaySweep {
    /// Whether every cell at ceiling ≥ 8 strictly beats its load's
    /// ceiling-1 throughput.
    pub fn batched_beats_batch1_at_8(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.ceiling >= 8)
            .all(|c| c.rps > c.baseline_rps)
    }
}

/// Measures the gateway sweep.
pub fn gateway() -> GatewaySweep {
    let mut cells = Vec::new();
    for load in [1, 2, 4] {
        let offered = load * CLIENTS as u64 * ROUNDS;
        // The first ceiling is 1: one request per batch, the baseline.
        let mut baseline = None;
        for ceiling in [1, 2, 4, 8, 16] {
            let (ns, answered) = gateway_ns(load, ceiling);
            let rps = offered as f64 / (ns.max(1) as f64 / 1e9);
            let baseline_rps = *baseline.get_or_insert(rps);
            cells.push(GatewayCell {
                load,
                ceiling,
                offered,
                answered,
                ns,
                rps,
                baseline_rps,
            });
        }
    }
    GatewaySweep { cells }
}

impl Figure for GatewaySweep {
    fn print(&self) {
        header(
            "Gateway: offered load x batch ceiling (virtual time)",
            &["load/client | ceiling | virtual ms | req/s       | vs ceiling 1"],
        );
        for c in &self.cells {
            println!(
                "{:>11} | {:>7} | {:>10.3} | {:>11.1} | {:>11.2}x",
                c.load,
                c.ceiling,
                c.ns as f64 / 1e6,
                c.rps,
                c.rps / c.baseline_rps
            );
        }
    }

    fn report(&self) -> BenchReport {
        let mut report = BenchReport::new("gateway")
            .unit("virtual_rps")
            .mode("hardware/scone_lite")
            .paper_target("secureTF §4.2 / Privado: enclave DNN serving at scale needs batching");
        for c in &self.cells {
            let key = format!("load{}.batch{}", c.load, c.ceiling);
            report = report
                .latency_ns(&format!("{key}.ns"), c.ns)
                .ratio(&format!("{key}.rps"), c.rps);
        }
        let holds = self.batched_beats_batch1_at_8();
        report.value("batched_beats_batch1_at_8", JsonValue::Bool(holds))
    }
}

const STEPS: u64 = 5;

fn trainer(workers: usize, ps: usize, telemetry: Telemetry) -> DistributedTrainer {
    let cluster = Cluster::new(ClusterConfig {
        workers,
        parameter_servers: ps,
        mode: Simulation,
        network_shield: true,
        cost_model: Some(shielded_cost_model()),
        telemetry,
        ..ClusterConfig::default()
    })
    .expect("cluster");
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let model = layers::mlp_classifier(784, &[128], 10, &mut rng).expect("model");
    let data = securetf_data::synthetic_mnist(600, 7);
    DistributedTrainer::new(cluster, model, data, 32, 0.1).expect("trainer")
}

/// Same-seed digest of one full telemetry-instrumented run.
fn digest(workers: usize, comm: CommConfig) -> [u8; 32] {
    let telemetry = Telemetry::new(Arc::new(SimClock::new()));
    let mut t = trainer(workers, 2, telemetry.clone());
    t.set_comm_config(comm);
    t.train_steps(STEPS).expect("training");
    telemetry.metrics_digest()
}

fn label(comm: CommConfig) -> String {
    let mode = if comm.overlap { "overlap" } else { "barrier" };
    format!("{}+{mode}", comm.codec.name())
}

/// One (workers, shards, codec + overlap) cell; `baseline_ns` is the same
/// workers' and shards' step under dense + barrier.
pub struct CommCell {
    pub workers: usize,
    pub ps: usize,
    pub comm: CommConfig,
    pub step_ns: u64,
    pub loss_bits: u32,
    pub stats: CommStats,
    pub baseline_ns: u64,
}

impl CommCell {
    /// Step-time speedup over dense + barrier.
    pub fn speedup(&self) -> f64 {
        self.baseline_ns as f64 / self.step_ns.max(1) as f64
    }
}

/// The training comm plane at the fig-8 shield speed: 1-8 workers × 1-2
/// shards × dense / int8 × barrier / overlap. At 8 workers int8 +
/// overlap must beat dense + barrier 2x within 2% of its loss.
pub struct CommPlane {
    pub cells: Vec<CommCell>,
    pub digests_equal: bool,
}

impl CommPlane {
    /// The 8-worker, one-shard cell under `codec` and `overlap`.
    pub fn at8(&self, codec: Codec, overlap: bool) -> &CommCell {
        let cell = |c: &&CommCell| {
            (c.workers, c.ps, c.comm.codec, c.comm.overlap) == (8, 1, codec, overlap)
        };
        self.cells.iter().find(cell).expect("swept")
    }

    /// At 8 workers and one shard: quantized + overlap over dense + barrier.
    pub fn gate_speedup(&self) -> f64 {
        self.at8(Codec::Quantized, true).speedup()
    }

    /// The 8-worker quantized + overlap loss's relative distance from the
    /// dense + barrier one.
    pub fn quantized_loss_drift(&self) -> f32 {
        let dense = f32::from_bits(self.at8(Codec::Dense, false).loss_bits);
        let quant = f32::from_bits(self.at8(Codec::Quantized, true).loss_bits);
        (quant - dense).abs() / dense.abs().max(f32::EPSILON)
    }
}

/// Measures the comm-plane sweep.
pub fn distrib() -> CommPlane {
    let mut cells = Vec::new();
    for workers in [1, 2, 4, 8] {
        for ps in [1, 2] {
            let mut baseline_ns = 0;
            for (codec, overlap) in [
                (Codec::Dense, false),
                (Codec::Dense, true),
                (Codec::Quantized, false),
                (Codec::Quantized, true),
            ] {
                let comm = CommConfig { codec, overlap };
                let mut t = trainer(workers, ps, Telemetry::disabled());
                t.set_comm_config(comm);
                let report = t.train_steps(STEPS).expect("training");
                let step_ns = report.elapsed_ns / STEPS;
                if (codec, overlap) == (Codec::Dense, false) {
                    baseline_ns = step_ns;
                }
                let loss_bits = report.final_loss.to_bits();
                let stats = t.comm_stats();
                cells.push(CommCell {
                    workers,
                    ps,
                    comm,
                    step_ns,
                    loss_bits,
                    stats,
                    baseline_ns,
                });
            }
        }
    }
    let comm = CommConfig {
        codec: Codec::Quantized,
        overlap: true,
    };
    let digests_equal = digest(3, comm) == digest(3, comm);
    CommPlane {
        cells,
        digests_equal,
    }
}

impl Figure for CommPlane {
    fn print(&self) {
        header(
            "Distributed comm plane: workers x PS shards x codec x overlap (virtual time)",
            &["workers | ps | codec+mode       | step ms  | vs dense+barrier | wire bytes"],
        );
        for c in &self.cells {
            // Dense-equivalent over actual total wire bytes (broadcast
            // included, so < the push-only ~4x).
            let (sent, saved) = (c.stats.bytes_sent, c.stats.bytes_saved);
            let ratio = if sent > 0 {
                (sent + saved) as f64 / sent as f64
            } else {
                1.0
            };
            println!(
                "{:>7} | {:>2} | {:>16} | {:>8.3} | {:>15.2}x | {ratio:>9.2}x",
                c.workers,
                c.ps,
                label(c.comm),
                c.step_ns as f64 / 1e6,
                c.speedup(),
            );
        }
        let dense = f32::from_bits(self.at8(Codec::Dense, false).loss_bits);
        let quant = f32::from_bits(self.at8(Codec::Quantized, true).loss_bits);
        println!(
            "\n8-worker losses: dense {dense:.6}, quantized {quant:.6} ({:.3}% drift)",
            self.quantized_loss_drift() * 100.0
        );
        println!(
            "same-seed telemetry digests identical: {}\n\
             8-worker gate: quantized+overlap is {:.2}x dense+barrier (need >= 2x)",
            self.digests_equal,
            self.gate_speedup()
        );
    }

    fn report(&self) -> BenchReport {
        let mut report = BenchReport::new("distrib")
            .unit("virtual_step_ns")
            .mode("simulation+network_shield")
            .paper_target("secureTF §5.4 / Fig 8: network shield dominates distributed step time");
        for c in &self.cells {
            let key = format!("w{}.ps{}.{}", c.workers, c.ps, label(c.comm));
            let s = &c.stats;
            let comm = object([
                ("bytes_sent", JsonValue::U64(s.bytes_sent)),
                ("bytes_saved", JsonValue::U64(s.bytes_saved)),
                ("comm_ns", JsonValue::U64(s.comm_ns)),
                ("overlap_hidden_ns", JsonValue::U64(s.overlap_hidden_ns)),
            ]);
            report = report
                .latency_ns(&format!("{key}.step_ns"), c.step_ns)
                .ratio(&format!("{key}.vs_dense_barrier"), c.speedup())
                .value(&format!("{key}.comm"), comm);
        }
        let drift = f64::from(self.quantized_loss_drift());
        report
            .ratio("gate.speedup_8w_quant_overlap", self.gate_speedup())
            .ratio("gate.quantized_loss_drift", drift)
            .value("gate.digests_equal", JsonValue::Bool(self.digests_equal))
    }
}
