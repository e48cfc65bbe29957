//! Chaos matrix: end-to-end training and serving under seeded fault
//! plans.
//!
//! For a matrix of seeds, a deterministic [`FaultPlan`] is generated and
//! a supervised training run executes under it. The assertions are the
//! robustness contract of the tentpole:
//!
//! * training *completes* with a finite loss under every survivable
//!   plan — worker crashes, PS stalls, network drops/tampering,
//!   checkpoint corruption and CAS outages included;
//! * the serving path never panics while its enclave is down — it
//!   returns a typed `Response::Unavailable` and recovers after respawn;
//! * an identical seed reproduces the identical fault schedule and the
//!   identical final loss, bit for bit.

use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf::serving::{decode_response, encode_request, Request, Response};
use securetf_distrib::cluster::{Cluster, ClusterConfig};
use securetf_distrib::faults::{FaultEvent, FaultPlan};
use securetf_distrib::supervisor::{Supervisor, SupervisorConfig};
use securetf_distrib::trainer::DistributedTrainer;
use securetf_gateway::chaos::{attested_pair, SwitchTransport};
use securetf_gateway::{Gateway, GatewayConfig};
use securetf_shield::fs::UntrustedStore;
use securetf_shield::net::SecureChannel;
use securetf_tee::telemetry::MetricValue;
use securetf_tee::{EnclaveImage, ExecutionMode, Platform, SimClock, Telemetry};
use securetf_tensor::graph::Graph;
use securetf_tensor::layers::{self, Classifier};
use securetf_tensor::tensor::Tensor;
use securetf_tflite::model::LiteModel;

const SEEDS: [u64; 6] = [1, 7, 42, 1337, 0xDEAD_BEEF, 2026];
const STEPS: u64 = 10;
const WORKERS: usize = 3;

fn small_model() -> Classifier {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    layers::mlp_classifier(784, &[32], 10, &mut rng).expect("valid model")
}

fn trainer_with_telemetry(telemetry: Telemetry) -> DistributedTrainer {
    let cluster = Cluster::new(ClusterConfig {
        workers: WORKERS,
        parameter_servers: 1,
        mode: ExecutionMode::Simulation,
        network_shield: true,
        runtime_bytes: 8 * 1024 * 1024,
        heap_bytes: 16 * 1024 * 1024,
        telemetry,
        ..ClusterConfig::default()
    })
    .expect("cluster boots");
    let data = securetf_data::synthetic_mnist(300, 5);
    DistributedTrainer::new(cluster, small_model(), data, 100, 0.2).expect("trainer")
}

fn trainer() -> DistributedTrainer {
    trainer_with_telemetry(Telemetry::new(std::sync::Arc::new(SimClock::new())))
}

/// The counter `name` in the registry `supervisor`'s trainer counts
/// into; panics if there is no such metric, so a misspelled name cannot
/// pass as a zero.
fn count(supervisor: &Supervisor, name: &str) -> u64 {
    let telemetry = &supervisor.trainer().cluster().config().telemetry;
    match telemetry.metrics().into_iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Counter(n))) => n,
        other => panic!("no counter named {name:?}: {other:?}"),
    }
}

/// Every `supervisor.*` counter, by name.
fn supervision_counts(supervisor: &Supervisor) -> Vec<(String, u64)> {
    let telemetry = &supervisor.trainer().cluster().config().telemetry;
    telemetry
        .metrics()
        .into_iter()
        .filter(|(name, _)| name.starts_with("supervisor."))
        .map(|(name, value)| match value {
            MetricValue::Counter(n) => (name, n),
            other => panic!("{name:?} is not a counter: {other:?}"),
        })
        .collect()
}

struct ChaosRun {
    digest: u64,
    loss_bits: u32,
    faults_injected: u64,
    respawns: u64,
    supervision: Vec<(String, u64)>,
}

fn run_seed(seed: u64) -> ChaosRun {
    let plan = FaultPlan::generate(seed, STEPS, WORKERS);
    let digest = plan.schedule_digest();
    let mut supervisor = Supervisor::new(
        trainer(),
        plan,
        SupervisorConfig::default(),
        UntrustedStore::new(),
    )
    .expect("supervisor boots");
    let report = supervisor
        .train_steps(STEPS)
        .expect("survivable plan completes");
    assert!(
        report.final_loss.is_finite(),
        "seed {seed}: loss {} not finite",
        report.final_loss
    );
    assert_eq!(report.steps, STEPS, "seed {seed}: steps lost");
    assert_eq!(
        report.samples,
        STEPS * WORKERS as u64 * 100,
        "seed {seed}: every step must run with a healed, full worker set"
    );
    ChaosRun {
        digest,
        loss_bits: report.final_loss.to_bits(),
        faults_injected: count(&supervisor, "supervisor.faults_injected"),
        respawns: count(&supervisor, "supervisor.respawns"),
        supervision: supervision_counts(&supervisor),
    }
}

#[test]
fn training_survives_every_seeded_fault_plan() {
    let mut total_faults = 0u64;
    let mut total_respawns = 0u64;
    for seed in SEEDS {
        let run = run_seed(seed);
        total_faults += run.faults_injected;
        total_respawns += run.respawns;
    }
    // The matrix must actually exercise the fault machinery, not pass
    // vacuously on empty schedules.
    assert!(total_faults >= 10, "only {total_faults} faults injected");
    assert!(total_respawns >= 1, "no respawn was ever exercised");
}

#[test]
fn identical_seed_reproduces_schedule_and_loss_bit_for_bit() {
    for seed in [SEEDS[0], SEEDS[2]] {
        let a = run_seed(seed);
        let b = run_seed(seed);
        assert_eq!(a.digest, b.digest, "seed {seed}: schedule diverged");
        assert_eq!(
            a.loss_bits, b.loss_bits,
            "seed {seed}: final loss diverged bit-wise"
        );
        assert_eq!(
            a.supervision, b.supervision,
            "seed {seed}: recovery path diverged"
        );
    }
}

#[test]
fn identical_seed_reproduces_telemetry_digest_bit_for_bit() {
    // The telemetry contract extends the determinism contract: two runs
    // under the same fault plan must not only converge to the same loss,
    // every counter, gauge and histogram in the registry must agree —
    // asserted through the canonical metrics digest.
    let run = |seed: u64| {
        let telemetry = Telemetry::new(std::sync::Arc::new(SimClock::new()));
        let plan = FaultPlan::generate(seed, STEPS, WORKERS);
        let mut supervisor = Supervisor::new(
            trainer_with_telemetry(telemetry.clone()),
            plan,
            SupervisorConfig::default(),
            UntrustedStore::new(),
        )
        .expect("supervisor boots");
        supervisor
            .train_steps(STEPS)
            .expect("survivable plan completes");
        // Non-vacuous: the run must actually have recorded supervision
        // telemetry before we compare digests.
        assert!(
            telemetry.counter("supervisor.heartbeats").get() > 0,
            "seed {seed}: no heartbeats recorded"
        );
        telemetry.metrics_digest()
    };
    for seed in [SEEDS[1], SEEDS[4]] {
        assert_eq!(
            run(seed),
            run(seed),
            "seed {seed}: telemetry digest diverged between identical runs"
        );
    }
}

#[test]
fn comm_plane_telemetry_digest_is_config_deterministic() {
    // The rebuilt comm plane (ISSUE 8) must keep the determinism
    // contract across its whole configuration space: for every worker
    // count x codec x overlap cell, two same-seed runs agree bit-for-bit
    // on the final loss and on every comm counter/histogram in the
    // registry.
    use securetf_distrib::comm::{Codec, CommConfig};
    let run = |workers: usize, comm: CommConfig| {
        let telemetry = Telemetry::new(std::sync::Arc::new(SimClock::new()));
        let cluster = Cluster::new(ClusterConfig {
            workers,
            parameter_servers: 2,
            mode: ExecutionMode::Simulation,
            network_shield: true,
            runtime_bytes: 8 * 1024 * 1024,
            heap_bytes: 16 * 1024 * 1024,
            telemetry: telemetry.clone(),
            ..ClusterConfig::default()
        })
        .expect("cluster boots");
        let data = securetf_data::synthetic_mnist(300, 5);
        let mut trainer =
            DistributedTrainer::new(cluster, small_model(), data, 100, 0.2).expect("trainer");
        trainer.set_comm_config(comm);
        let report = trainer.train_steps(STEPS).expect("training");
        // Non-vacuous: the comm metrics must actually have recorded.
        assert!(
            telemetry.counter("distrib.comm.bytes_sent").get() > 0,
            "no comm bytes recorded"
        );
        if comm.codec == Codec::Quantized {
            assert!(
                telemetry.counter("distrib.comm.bytes_saved").get() > 0,
                "quantized run saved no bytes"
            );
        }
        (report.final_loss.to_bits(), telemetry.metrics_digest())
    };
    for workers in [2usize, 3] {
        for codec in [Codec::Dense, Codec::Quantized] {
            for overlap in [false, true] {
                let comm = CommConfig { codec, overlap };
                assert_eq!(
                    run(workers, comm),
                    run(workers, comm),
                    "workers={workers} {comm:?}: loss or telemetry digest diverged"
                );
            }
        }
    }
}

#[test]
fn compiler_pipeline_is_telemetry_neutral_when_node_counts_are_equal() {
    // DESIGN.md §16 determinism argument: the pass pipeline may only
    // perturb telemetry when it actually rewrites the graph. On a graph
    // with no dead nodes, no constant subgraphs, and no fusable chains,
    // node counts before and after compilation are equal — and the
    // pipeline must record no compiler work at all.
    use securetf::secure_session::SecureSession;
    use securetf_tensor::optimizer::Sgd;

    // matmul (no bias, no relu) straight into the loss: every node is
    // live from the loss root and nothing folds or fuses. The inference
    // head aliases the logits so no dead softmax dangles off the graph.
    let neutral_model = || {
        let mut g = Graph::new();
        let input = g.placeholder("input", &[0, 16]);
        let labels = g.placeholder("labels", &[0, 4]);
        let w = g.variable(
            "w",
            Tensor::from_vec(
                &[16, 4],
                (0..64).map(|i| (i % 9) as f32 * 0.05 - 0.2).collect(),
            )
            .expect("sized"),
        );
        let logits = g.matmul(input, w).expect("valid");
        let loss = g.softmax_cross_entropy(logits, labels).expect("valid");
        Classifier {
            graph: g,
            input,
            labels,
            logits,
            probabilities: logits,
            loss,
        }
    };
    let x = Tensor::from_vec(
        &[8, 16],
        (0..128).map(|i| (i % 7) as f32 * 0.1 - 0.3).collect(),
    )
    .expect("sized");
    let y = {
        let mut data = vec![0.0f32; 32];
        for row in 0..8 {
            data[row * 4 + row % 4] = 1.0;
        }
        Tensor::from_vec(&[8, 4], data).expect("sized")
    };
    {
        let telemetry = Telemetry::new(std::sync::Arc::new(SimClock::new()));
        let platform = Platform::builder().telemetry(telemetry.clone()).build();
        let enclave = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"trainer").build(),
                ExecutionMode::Hardware,
            )
            .expect("enclave boots");
        let mut session = SecureSession::new(enclave, neutral_model());
        let mut sgd = Sgd::new(0.1);
        for _ in 0..4 {
            session
                .train_step(x.clone(), y.clone(), &mut sgd)
                .expect("trains");
        }
        assert!(
            telemetry.counter("compiler.nodes_eliminated").get() == 0
                && telemetry.counter("compiler.nodes_fused").get() == 0
                && telemetry.counter("compiler.pass_ns").get() == 0,
            "pipeline recorded work on a graph it cannot rewrite"
        );
    }

    // Non-vacuity: on a fusable graph (dense layers with bias + relu)
    // the same harness *does* record compiler work.
    let telemetry = Telemetry::new(std::sync::Arc::new(SimClock::new()));
    let platform = Platform::builder().telemetry(telemetry.clone()).build();
    let enclave = platform
        .create_enclave(
            &EnclaveImage::builder().code(b"trainer").build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave boots");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let fusable = layers::mlp_classifier(16, &[8], 4, &mut rng).expect("valid model");
    let mut session = SecureSession::new(enclave, fusable);
    let mut sgd = Sgd::new(0.1);
    session
        .train_step(x.clone(), y.clone(), &mut sgd)
        .expect("trains");
    assert!(
        telemetry.counter("compiler.nodes_fused").get() > 0,
        "fusable graph recorded no compiler work — neutrality test is vacuous"
    );
}

#[test]
fn telemetry_digest_deterministic_with_worker_pool_enabled() {
    // Parallel kernels must not erode the determinism contract: with the
    // in-enclave worker pool splitting every matmul across threads, two
    // same-seed chaos runs still agree on every telemetry counter, and
    // the training loss stays bit-identical to the serial run.
    use securetf_tensor::kernels::WorkerPool;
    let run = |seed: u64, workers: usize| {
        let telemetry = Telemetry::new(std::sync::Arc::new(SimClock::new()));
        let plan = FaultPlan::generate(seed, STEPS, WORKERS);
        let mut trainer = trainer_with_telemetry(telemetry.clone());
        trainer.set_worker_pool(WorkerPool::new(workers));
        let mut supervisor = Supervisor::new(
            trainer,
            plan,
            SupervisorConfig::default(),
            UntrustedStore::new(),
        )
        .expect("supervisor boots");
        let report = supervisor
            .train_steps(STEPS)
            .expect("survivable plan completes");
        (report.final_loss.to_bits(), telemetry.metrics_digest())
    };
    for seed in [SEEDS[0], SEEDS[3]] {
        let (loss_a, digest_a) = run(seed, 4);
        let (loss_b, digest_b) = run(seed, 4);
        assert_eq!(
            digest_a, digest_b,
            "seed {seed}: pooled telemetry digest diverged between identical runs"
        );
        assert_eq!(loss_a, loss_b, "seed {seed}: pooled loss diverged");
        // The pool changes scheduling, never arithmetic: the loss matches
        // the serial run bit-for-bit (the digest legitimately differs —
        // compute virtual time shrinks along the critical path).
        let (serial_loss, _) = run(seed, 1);
        assert_eq!(
            loss_a, serial_loss,
            "seed {seed}: pooled loss diverged from serial"
        );
    }
}

#[test]
fn distinct_seeds_produce_distinct_schedules() {
    let digests: Vec<u64> = SEEDS
        .iter()
        .map(|&s| FaultPlan::generate(s, STEPS, WORKERS).schedule_digest())
        .collect();
    for i in 0..digests.len() {
        for j in i + 1..digests.len() {
            assert_ne!(
                digests[i], digests[j],
                "seeds {} and {} collided",
                SEEDS[i], SEEDS[j]
            );
        }
    }
}

#[test]
fn hand_written_worst_case_plan_is_survived() {
    // Everything at once: all workers crash while the CAS is down, the
    // newest checkpoint is corrupted and the PS stalls.
    let mut plan = FaultPlan::none();
    for w in 0..WORKERS {
        plan = plan.with_event(2, FaultEvent::WorkerCrash { worker: w });
    }
    plan = plan
        .with_event(
            2,
            FaultEvent::CasOutage {
                duration_ns: 6_000_000,
            },
        )
        .with_event(2, FaultEvent::ChunkCorruption { offset: 64 })
        .with_event(
            2,
            FaultEvent::PsStall {
                delay_ns: 10_000_000,
            },
        );
    let mut supervisor = Supervisor::new(
        trainer(),
        plan,
        SupervisorConfig::default(),
        UntrustedStore::new(),
    )
    .expect("supervisor boots");
    let report = supervisor.train_steps(6).expect("worst case survived");
    assert!(report.final_loss.is_finite());
    assert_eq!(count(&supervisor, "supervisor.respawns"), WORKERS as u64);
}

#[test]
fn hand_written_storage_crash_plan_is_survived() {
    // The storage host dies mid-checkpoint (once cleanly, once leaving a
    // torn record), and later rolls the whole store back to an older
    // image. Checkpoints flow through the journaled fs-shield path, so
    // every crash resolves to a committed generation and training
    // completes.
    let plan = FaultPlan::none()
        .with_event(4, FaultEvent::CrashDuringWrite { after_ops: 1 })
        .with_event(
            7,
            FaultEvent::TornWrite {
                after_ops: 2,
                torn_bytes: 11,
            },
        )
        .with_event(8, FaultEvent::StorageRollback);
    let mut supervisor = Supervisor::new(
        trainer(),
        plan,
        SupervisorConfig::default(),
        UntrustedStore::new(),
    )
    .expect("supervisor boots");
    let report = supervisor
        .train_steps(STEPS)
        .expect("storage chaos survived");
    assert!(report.final_loss.is_finite());
    assert_eq!(report.samples, STEPS * WORKERS as u64 * 100);
    assert!(
        count(&supervisor, "supervisor.storage_recoveries") >= 1,
        "a crash during a checkpoint write must trigger remount recovery"
    );
    assert_eq!(count(&supervisor, "supervisor.storage_rollbacks"), 1);
}

#[test]
fn storage_crash_plans_reproduce_bit_for_bit() {
    // Same-seed determinism must hold on the storage-fault path too:
    // host restarts, re-attestation and shield remounts are all charged
    // to virtual time, never wall-clock.
    let run = |seed: u64| {
        let telemetry = Telemetry::new(std::sync::Arc::new(SimClock::new()));
        let plan = FaultPlan::none()
            .with_event(4, FaultEvent::CrashDuringWrite { after_ops: 0 })
            .with_event(9, FaultEvent::StorageRollback);
        let digest = plan.schedule_digest();
        let mut supervisor = Supervisor::new(
            trainer_with_telemetry(telemetry.clone()),
            plan,
            SupervisorConfig::default(),
            UntrustedStore::new(),
        )
        .expect("supervisor boots");
        let report = supervisor.train_steps(STEPS).expect("plan survived");
        assert!(
            count(&supervisor, "supervisor.storage_recoveries") >= 1,
            "seed {seed}: recovery path not exercised"
        );
        (
            digest,
            report.final_loss.to_bits(),
            telemetry.metrics_digest(),
        )
    };
    assert_eq!(run(11), run(11), "storage-crash run diverged");
}

// ---------------------------------------------------------------------
// Serving under chaos.
// ---------------------------------------------------------------------

fn tiny_lite_model() -> LiteModel {
    let mut g = Graph::new();
    let x = g.placeholder("input", &[0, 6]);
    let w = g.constant(
        "w",
        Tensor::from_vec(&[6, 3], (0..18).map(|i| (i % 5) as f32 * 0.1).collect())
            .expect("weights"),
    );
    let y = g.matmul(x, w).expect("matmul");
    let name = g.nodes()[y.index()].name.clone();
    LiteModel::convert(&g, "input", &name).expect("convert")
}

fn side_enclave(tag: &[u8]) -> std::sync::Arc<securetf_tee::Enclave> {
    let platform = Platform::builder().build();
    platform
        .create_enclave(
            &EnclaveImage::builder().code(tag).build(),
            ExecutionMode::Simulation,
        )
        .expect("enclave")
}

#[test]
fn serving_returns_unavailable_during_outages_and_recovers() {
    let mut deployment = Deployment::new(ExecutionMode::Hardware);
    deployment
        .publish_model("svc", "/m", &tiny_lite_model())
        .expect("publish");
    let classifier = deployment
        .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
        .expect("deploy");
    // One tenant, every request its own batch. The session terminates in
    // a front-end enclave so it survives the classifier enclave's crash
    // (and keeps answering with typed Unavailable frames while it is
    // down).
    let config = GatewayConfig {
        max_batch: 1,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(classifier, config);
    let (server, mut client) = attested_pair(side_enclave(b"chaos frontend"));
    gateway.accept(server);
    let input = Tensor::full(&[1, 6], 0.5);
    let next_response = |client: &mut SecureChannel<SwitchTransport>| {
        let frame = client.try_recv().expect("channel").expect("response");
        decode_response(&frame).expect("frame")
    };

    // Alternate outages and recoveries over several cycles; the gateway
    // must never panic and must answer every request.
    let mut outage_answers = 0u64;
    let mut healthy_answers = 0u64;
    for cycle in 0..4u64 {
        let down = cycle % 2 == 1;
        if down {
            gateway.classifier().enclave().mark_failed();
        } else {
            gateway.classifier().enclave().revive();
        }
        for i in 0..3u64 {
            let id = cycle * 10 + i;
            client
                .send(&encode_request(&Request::new(id, input.clone())))
                .expect("client send");
        }
        let served = gateway.flush().expect("serving never panics").responses;
        assert_eq!(served, 3, "cycle {cycle}");
        for i in 0..3u64 {
            let id = cycle * 10 + i;
            match next_response(&mut client) {
                Response::Unavailable {
                    id: got,
                    retry_after_ns,
                } => {
                    assert!(down, "unavailable while healthy (id {got})");
                    assert_eq!(got, id);
                    assert!(retry_after_ns > 0);
                    outage_answers += 1;
                }
                Response::Label { id: got, label } => {
                    assert!(!down, "label during outage (id {got})");
                    assert_eq!(got, id);
                    assert!(label < 3);
                    healthy_answers += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
    assert_eq!(outage_answers, 6);
    assert_eq!(healthy_answers, 6);

    // A single request sees the typed degradation too.
    gateway.classifier().enclave().mark_failed();
    client
        .send(&encode_request(&Request::new(99, input.clone())))
        .expect("send");
    gateway.flush().expect("degraded serve");
    assert!(matches!(
        next_response(&mut client),
        Response::Unavailable { id: 99, .. }
    ));

    // And full recovery.
    gateway.classifier().enclave().revive();
    client
        .send(&encode_request(&Request::new(100, input.clone())))
        .expect("send");
    gateway.flush().expect("healthy serve");
    assert!(matches!(
        next_response(&mut client),
        Response::Label { id: 100, .. }
    ));
}
