//! Integration tests for the telemetry subsystem at the service layer:
//! span coverage of an instrumented deployment, the conservation of
//! virtual time across cost categories, the sealed-export fail-closed
//! contract, the zero-overhead disabled mode, and the pinned set of
//! metric names a deployment, the fs shield and a supervised run register.

use securetf::classifier::SecureClassifier;
use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf_tee::telemetry::{ExportError, SealedSnapshot};
use securetf_tee::{
    CostCategory, EnclaveImage, ExecutionMode, Platform, RetryPolicy, SimClock, Telemetry,
};
use securetf_tensor::graph::Graph;
use securetf_tensor::tensor::Tensor;
use securetf_tflite::model::LiteModel;

fn tiny_model() -> LiteModel {
    let mut g = Graph::new();
    let x = g.placeholder("input", &[0, 8]);
    let w = g.constant(
        "w",
        Tensor::from_vec(&[8, 4], (0..32).map(|i| (i % 7) as f32 * 0.1).collect())
            .expect("weights"),
    );
    let y = g.matmul(x, w).expect("matmul");
    let name = g.nodes()[y.index()].name.clone();
    LiteModel::convert(&g, "input", &name).expect("convert")
}

fn deploy_instrumented(clock: &SimClock, telemetry: &Telemetry) -> SecureClassifier {
    let mut deployment =
        Deployment::instrumented(ExecutionMode::Hardware, clock.clone(), telemetry.clone());
    deployment
        .publish_model("svc", "/m", &tiny_model())
        .expect("publish");
    deployment
        .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
        .expect("deploy")
}

#[test]
fn span_tree_covers_the_whole_run_and_attributes_costs() {
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    {
        let _run = telemetry.span("run");
        let mut classifier = deploy_instrumented(&clock, &telemetry);
        let input = Tensor::full(&[1, 8], 0.5);
        {
            let _serve = telemetry.span("serve");
            for _ in 0..3 {
                classifier.classify(&input).expect("classify");
            }
        }
    }
    let report = telemetry.span_report();

    // The acceptance invariant: per-span self times sum to the run's
    // total virtual time — nothing double-counted, nothing lost.
    assert_eq!(report.total_ns(), clock.now_ns());
    assert_eq!(report.self_sum_ns(), report.total_ns());
    assert!(report.total_ns() > 0, "run advanced no virtual time");

    // The hot paths attributed their costs to the cost counters.
    for counter in ["cost.compute.ns", "cost.paging.ns", "cost.attestation.ns"] {
        assert!(
            telemetry.counter(counter).get() > 0,
            "{counter} was never charged"
        );
    }
    let rendered = report.render();
    assert!(rendered.contains("run:"));
    assert!(rendered.contains("serve:"));
}

/// Every nanosecond charged to a cost category so far.
fn charged_ns(telemetry: &Telemetry) -> u64 {
    CostCategory::ALL
        .iter()
        .map(|c| telemetry.counter(&format!("cost.{}.ns", c.name())).get())
        .sum()
}

/// A platform whose clock and telemetry the conservation tests read.
fn instrumented_platform() -> (Platform, SimClock, Telemetry) {
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let platform = Platform::builder()
        .clock(clock.clone())
        .telemetry(telemetry.clone())
        .build();
    (platform, clock, telemetry)
}

// Conservation: on a single clock the categories add up to the time the
// clock moved, exactly — no cost is left uncategorised.

#[test]
fn a_deployment_and_its_classifies_charge_every_nanosecond_to_a_category() {
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let mut classifier = deploy_instrumented(&clock, &telemetry);
    let input = Tensor::full(&[1, 8], 0.5);
    for _ in 0..3 {
        classifier.classify(&input).expect("classify");
    }
    assert_eq!(charged_ns(&telemetry), clock.now_ns());
}

#[test]
fn a_deploy_spends_the_compiler_time_it_counts() {
    // A bias after the matmul, so the lowering fuses and has work to
    // report.
    let mut g = Graph::new();
    let x = g.placeholder("input", &[0, 8]);
    let w = g.constant("w", Tensor::full(&[8, 4], 0.1));
    let b = g.constant("b", Tensor::full(&[4], 0.2));
    let y = g.matmul(x, w).expect("matmul");
    let y = g.add_bias(y, b).expect("add_bias");
    let name = g.nodes()[y.index()].name.clone();
    let model = LiteModel::convert(&g, "input", &name).expect("convert");

    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let mut deployment =
        Deployment::instrumented(ExecutionMode::Hardware, clock.clone(), telemetry.clone());
    deployment
        .publish_model("svc", "/m", &model)
        .expect("publish");
    deployment
        .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
        .expect("deploy");

    let pass_ns = telemetry.counter("compiler.pass_ns").get();
    assert!(pass_ns > 0, "the lowering reported no work");
    let spent: u64 = telemetry
        .span_report()
        .nodes()
        .iter()
        .filter(|span| span.name.starts_with("compiler."))
        .map(|span| span.costs[CostCategory::Other as usize])
        .sum();
    assert_eq!(spent, pass_ns);
}

#[test]
fn a_cas_attestation_through_an_outage_charges_every_nanosecond_to_a_category() {
    use securetf_cas::policy::ServicePolicy;
    use securetf_cas::service::CasService;
    let (platform, clock, telemetry) = instrumented_platform();
    let image = EnclaveImage::builder().code(b"worker").build();
    let worker = platform
        .create_enclave(&image, ExecutionMode::Hardware)
        .expect("worker");
    let cas_enclave = platform
        .create_enclave(
            &EnclaveImage::builder().code(b"cas").build(),
            ExecutionMode::Hardware,
        )
        .expect("cas");
    let mut cas = CasService::new(cas_enclave, platform.fleet_verifier());
    cas.register_policy(
        ServicePolicy::new("svc")
            .allow_measurement(image.measurement())
            .with_secret("k", b"v"),
    )
    .expect("policy");
    let quote = worker.quote(b"binding").expect("quote");
    let policy = RetryPolicy::with_seed(3, 7);
    // Down for no longer than the first backoff: the first attempt gets
    // `Unavailable`, the second is served.
    cas.inject_outage(policy.delay_ns(0));
    let other = telemetry.counter("cost.other.ns").get();
    cas.attest_and_provision_with_retry(&quote, "svc", &policy)
        .expect("served after one backoff");
    let backoff = telemetry.counter("cost.other.ns").get() - other;
    assert_eq!(backoff, policy.delay_ns(0), "exactly one retry");
    assert_eq!(charged_ns(&telemetry), clock.now_ns());
}

#[test]
fn an_fs_shield_write_and_read_charge_every_nanosecond_to_a_category() {
    use securetf_shield::fs::{FsShield, UntrustedStore};
    let (platform, clock, telemetry) = instrumented_platform();
    let enclave = platform
        .create_enclave(
            &EnclaveImage::builder().code(b"fs").build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave");
    let mut fs = FsShield::new(enclave, UntrustedStore::new());
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    fs.write("/data/blob", &data).expect("write");
    assert_eq!(fs.read("/data/blob").expect("read"), data);
    assert_eq!(charged_ns(&telemetry), clock.now_ns());
}

#[test]
fn a_gateway_round_charges_every_nanosecond_to_a_category() {
    use securetf::serving::{encode_request, Request};
    use securetf_gateway::chaos::{attested_pair, demo_input, demo_model};
    use securetf_gateway::{Gateway, GatewayConfig};
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let mut deployment =
        Deployment::instrumented(ExecutionMode::Hardware, clock.clone(), telemetry.clone());
    deployment
        .publish_model("svc", "/m", &demo_model())
        .expect("publish");
    let classifier = deployment
        .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
        .expect("deploy");
    let frontend = Platform::builder()
        .clock(clock.clone())
        .telemetry(telemetry.clone())
        .build()
        .create_enclave(
            &EnclaveImage::builder().code(b"frontend").build(),
            ExecutionMode::Simulation,
        )
        .expect("frontend");
    let config = GatewayConfig::default();
    let mut gateway = Gateway::new(classifier, config.clone());
    let (server, mut client) = attested_pair(frontend);
    gateway.accept(server);
    for id in 0..config.max_batch as u64 {
        let request = encode_request(&Request::new(id, demo_input(0, id)));
        client.send(&request).expect("send");
    }
    let (t0, charged0) = (clock.now_ns(), charged_ns(&telemetry));
    let stats = gateway.pump().expect("pump");
    assert_eq!(stats.batches, 1, "a full batch dispatches without a timer");
    assert!(clock.now_ns() > t0);
    assert_eq!(charged_ns(&telemetry) - charged0, clock.now_ns() - t0);
    assert_eq!(charged_ns(&telemetry), clock.now_ns());
}

#[test]
fn sealed_export_round_trips_and_tamper_fails_closed() {
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let mut classifier = deploy_instrumented(&clock, &telemetry);
    let input = Tensor::full(&[1, 8], 0.5);
    classifier.classify(&input).expect("classify");

    let snapshot = telemetry.snapshot();
    assert!(!snapshot.metrics().is_empty());
    let sealed = classifier
        .enclave()
        .seal_telemetry(&snapshot)
        .expect("seal");

    // Round trip: the same identity unseals to a byte-identical snapshot.
    let opened = classifier
        .enclave()
        .unseal_telemetry(&sealed)
        .expect("unseal");
    assert_eq!(opened.digest(), snapshot.digest());
    assert_eq!(opened, snapshot);

    // Tamper: flipping any ciphertext bit surfaces as a typed integrity
    // error, never as partially decoded telemetry.
    let mut bytes = sealed.as_bytes().to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    assert_eq!(
        classifier
            .enclave()
            .unseal_telemetry(&SealedSnapshot::from_bytes(bytes))
            .unwrap_err(),
        ExportError::Integrity
    );

    // A different enclave identity (other platform, other measurement)
    // cannot open the export either.
    let alien_platform = Platform::builder().build();
    let alien = alien_platform
        .create_enclave(
            &EnclaveImage::builder().code(b"alien").build(),
            ExecutionMode::Hardware,
        )
        .expect("alien enclave");
    assert_eq!(
        alien.unseal_telemetry(&sealed).unwrap_err(),
        ExportError::Integrity
    );
}

#[test]
fn disabled_telemetry_adds_zero_virtual_overhead_end_to_end() {
    let latency = |instrument: bool| {
        let mut deployment = if instrument {
            let clock = SimClock::new();
            let telemetry = clock.telemetry();
            Deployment::instrumented(ExecutionMode::Hardware, clock, telemetry)
        } else {
            Deployment::new(ExecutionMode::Hardware)
        };
        deployment
            .publish_model("svc", "/m", &tiny_model())
            .expect("publish");
        let mut classifier = deployment
            .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
            .expect("deploy");
        let input = Tensor::full(&[1, 8], 0.5);
        classifier.mean_latency_ns(&input, 3).expect("runs")
    };

    let instrumented = latency(true);
    let plain = latency(false);
    assert_eq!(
        instrumented, plain,
        "telemetry must never perturb virtual time"
    );
}

#[test]
fn crypto_data_plane_metrics_move_under_shield_activity() {
    use securetf_crypto::aead::Key;
    use securetf_shield::fs::{FsShield, UntrustedStore};
    use securetf_shield::net::{duplex, PipeEnd, Role, SecureChannel, Transport};
    use std::sync::Arc;

    struct Retry(PipeEnd);
    impl Transport for Retry {
        fn send(&self, message: Vec<u8>) {
            self.0.send(message);
        }
        fn recv(&self) -> Option<Vec<u8>> {
            for _ in 0..200_000 {
                if let Some(m) = self.0.recv() {
                    return Some(m);
                }
                std::thread::yield_now();
            }
            None
        }
    }

    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let platform = Platform::builder()
        .clock(clock.clone())
        .telemetry(telemetry.clone())
        .build();
    let enclave = |code: &[u8]| -> Arc<securetf_tee::Enclave> {
        platform
            .create_enclave(
                &EnclaveImage::builder().code(code).build(),
                ExecutionMode::Hardware,
            )
            .expect("enclave")
    };

    let bytes_sealed = telemetry.counter("crypto.bytes_sealed");
    let bytes_opened = telemetry.counter("crypto.bytes_opened");
    let seal_ns = telemetry.histogram("crypto.seal_ns");

    // fs shield: a protected write seals, a read opens.
    let store = UntrustedStore::new();
    let mut shield = FsShield::with_key(enclave(b"fs"), store, Key::from_bytes([5; 32]));
    let payload = vec![0xa5u8; 100_000];
    {
        let _span = telemetry.span("fs-shield");
        shield.write("/model", &payload).expect("write");
        assert_eq!(bytes_sealed.get(), payload.len() as u64);
        assert!(seal_ns.snapshot().count > 0, "seal latency never recorded");
        assert!(
            seal_ns.snapshot().sum_ns > 0,
            "seal latency histogram recorded zero cost"
        );
        assert_eq!(shield.read("/model").expect("read"), payload);
        assert_eq!(bytes_opened.get(), payload.len() as u64);
    }

    // net shield: every record sealed on send is opened on receive.
    let sealed_before = bytes_sealed.get();
    let opened_before = bytes_opened.get();
    let seal_count_before = seal_ns.snapshot().count;
    let (pa, pb) = duplex(None);
    let ea = enclave(b"net-a");
    let eb = enclave(b"net-b");
    let init = std::thread::spawn(move || {
        SecureChannel::handshake(Retry(pa), ea, Role::Initiator).expect("initiator")
    });
    let mut b = SecureChannel::handshake(Retry(pb), eb, Role::Responder).expect("responder");
    let mut a = init.join().expect("initiator thread");
    {
        let _span = telemetry.span("net-shield");
        a.send(b"four byte payloads").expect("send");
        assert_eq!(bytes_sealed.get() - sealed_before, 18);
        assert!(seal_ns.snapshot().count > seal_count_before);
        assert_eq!(b.recv().expect("recv"), b"four byte payloads");
        assert_eq!(bytes_opened.get() - opened_before, 18);
    }
}

#[test]
fn kernel_simd_gauge_names_the_instantiation_and_keeps_digests_equal() {
    let run = || {
        let clock = SimClock::new();
        let telemetry = clock.telemetry();
        let mut classifier = deploy_instrumented(&clock, &telemetry);
        // Not set before a kernel ran on this enclave's behalf.
        assert!(telemetry
            .metrics()
            .iter()
            .all(|(name, _)| name != "kernel.simd"));
        classifier
            .classify(&Tensor::full(&[1, 8], 0.5))
            .expect("classify");
        telemetry
    };
    let telemetry = run();
    let expected = match securetf_tensor::kernels::simd_level() {
        "baseline" => 0,
        "avx2" => 2,
        other => panic!("unknown instantiation {other:?}"),
    };
    assert_eq!(telemetry.gauge("kernel.simd").get(), expected);
    assert!(telemetry.counter("kernel.matmul.flops").get() > 0);
    // A property of the host, not of the run: same seed, same digest.
    assert_eq!(telemetry.snapshot().digest(), run().snapshot().digest());
}

#[test]
fn memory_gauges_cover_serving_and_training_and_the_pool_stays_flat() {
    use rand::SeedableRng;
    use securetf::secure_session::SecureSession;
    use securetf_tensor::layers;
    use securetf_tensor::optimizer::Sgd;

    let gauges = |telemetry: &Telemetry| {
        [
            "memory.peak_planned_bytes",
            "memory.arena_bytes_in_use",
            "memory.pool_bytes",
        ]
        .map(|name| telemetry.gauge(name).get())
    };

    // Serving: the classifier publishes the interpreter's planner stats
    // after every charged run.
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let mut classifier = deploy_instrumented(&clock, &telemetry);
    let input = Tensor::full(&[1, 8], 0.5);
    let mut seen = Vec::new();
    for _ in 0..6 {
        classifier.classify(&input).expect("classify");
        seen.push(gauges(&telemetry));
    }
    let [planned, in_use, pool] = seen[5];
    assert!(
        planned > 0 && in_use > 0 && pool > 0,
        "serving gauges unset: {:?}",
        seen[5]
    );
    assert!(in_use <= planned);
    // The pool holds what one run had out (here: the output row), and
    // run 6 parks exactly what run 3 did.
    assert!(
        pool <= planned,
        "pool {pool} outgrew the planned arena {planned}"
    );
    assert_eq!(seen[2], seen[5], "serving footprint drifted between runs");
    // An inference plan has no backward pass to keep or to cut.
    assert_eq!(telemetry.gauge("memory.grad_slots").get(), 0);
    assert_eq!(telemetry.gauge("memory.grads_pruned").get(), 0);

    // Training: same gauges from `SecureSession::charge`.
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let platform = Platform::builder()
        .clock(clock.clone())
        .telemetry(telemetry.clone())
        .build();
    let enclave = platform
        .create_enclave(
            &EnclaveImage::builder().code(b"gauge trainer").build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave");
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let model = layers::mlp_classifier(16, &[8], 4, &mut rng).expect("model");
    let mut session = SecureSession::new(enclave, model);
    let x = Tensor::full(&[5, 16], 0.25);
    let mut y = Tensor::zeros(&[5, 4]);
    for row in 0..5 {
        y.data_mut()[row * 4 + row % 4] = 1.0;
    }
    let mut sgd = Sgd::new(0.05);
    let mut seen = Vec::new();
    for _ in 0..8 {
        session
            .train_step(x.clone(), y.clone(), &mut sgd)
            .expect("step");
        seen.push(gauges(&telemetry));
    }
    let [planned, in_use, pool] = seen[7];
    assert!(
        planned > 0 && in_use > 0 && pool > 0,
        "training gauges unset: {:?}",
        seen[7]
    );
    assert!(in_use <= planned);
    assert_eq!(seen[2], seen[7], "training footprint drifted between steps");
    // The backward pass the plan kept: the loss, the two fused layers and
    // their four variables; the one it cut: the input batch's gradient.
    assert_eq!(telemetry.gauge("memory.grad_slots").get(), 7);
    assert_eq!(telemetry.gauge("memory.grads_pruned").get(), 1);
    // No conv kernel ran, so the executor holds no scratch.
    assert_eq!(telemetry.gauge("memory.workspace_bytes").get(), 0);

    // A conv model's padded image is heap the plan does not see: one
    // `[b, cin, h + 2, w + 2]` copy of the batch for the 3x3 `Same`
    // kernel (the forward pass and the filter gradient share it), its nine
    // tap offsets — and nothing per pooled element.
    let enclave = platform
        .create_enclave(
            &EnclaveImage::builder().code(b"gauge conv trainer").build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave");
    let model = layers::conv_classifier(8, 8, 1, 4, 3, &mut rng).expect("model");
    let mut session = SecureSession::new(enclave, model);
    let mut y = Tensor::zeros(&[2, 3]);
    y.data_mut()[0] = 1.0;
    y.data_mut()[5] = 1.0;
    session
        .train_step(Tensor::full(&[2, 8, 8, 1], 0.25), y, &mut sgd)
        .expect("step");
    let padded = 2 * (8 + 2) * (8 + 2);
    let taps = 3 * 3 * std::mem::size_of::<usize>() as i64;
    assert_eq!(
        telemetry.gauge("memory.workspace_bytes").get(),
        padded * 4 + taps
    );
}

/// The counter `name`; panics if the registry has no such metric, so a
/// misspelled name cannot pass as a zero.
fn count(telemetry: &Telemetry, name: &str) -> u64 {
    match telemetry.metrics().into_iter().find(|(n, _)| n == name) {
        Some((_, securetf_tee::telemetry::MetricValue::Counter(n))) => n,
        other => panic!("no counter named {name:?}: {other:?}"),
    }
}

/// Every registered metric name, each enclave's `#<k>` scope id written
/// as `#k`.
fn metric_names(telemetry: &Telemetry) -> std::collections::BTreeSet<String> {
    telemetry
        .metrics()
        .into_iter()
        .map(|(name, _)| match name.split_once('#') {
            Some((scope, rest)) => {
                let id_len = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                format!("{scope}#k{}", &rest[id_len..])
            }
            None => name,
        })
        .collect()
}

#[test]
fn the_metric_names_are_pinned() {
    use securetf_distrib::cluster::{Cluster, ClusterConfig};
    use securetf_distrib::faults::{FaultEvent, FaultPlan};
    use securetf_distrib::supervisor::{Supervisor, SupervisorConfig};
    use securetf_distrib::trainer::DistributedTrainer;
    use securetf_shield::fs::{FsShield, UntrustedStore};

    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    // Serving: publish, deploy and one batch.
    let mut classifier = deploy_instrumented(&clock, &telemetry);
    classifier
        .classify_batch(&Tensor::full(&[2, 8], 0.5))
        .expect("classify_batch");
    // Storage: a write, a read and a remount.
    let enclave = Platform::builder()
        .clock(clock.clone())
        .telemetry(telemetry.clone())
        .build()
        .create_enclave(
            &EnclaveImage::builder().code(b"fs").name("fs").build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave");
    let store = UntrustedStore::new();
    let mut fs = FsShield::new(enclave.clone(), store.clone());
    fs.write("/data/blob", b"golden names").expect("write");
    assert_eq!(fs.read("/data/blob").expect("read"), b"golden names");
    let (fs, _report) = FsShield::recover(enclave, store).expect("recover");
    assert_eq!(fs.read("/data/blob").expect("read"), b"golden names");
    // Training: two supervised steps, one worker respawned.
    let cluster = Cluster::new(ClusterConfig {
        workers: 2,
        parameter_servers: 1,
        mode: ExecutionMode::Simulation,
        network_shield: true,
        runtime_bytes: 8 * 1024 * 1024,
        heap_bytes: 16 * 1024 * 1024,
        telemetry: telemetry.clone(),
        ..ClusterConfig::default()
    })
    .expect("cluster");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let model = securetf_tensor::layers::mlp_classifier(784, &[32], 10, &mut rng).expect("model");
    let data = securetf_data::synthetic_mnist(200, 5);
    let trainer = DistributedTrainer::new(cluster, model, data, 100, 0.2).expect("trainer");
    let plan = FaultPlan::none().with_event(1, FaultEvent::WorkerCrash { worker: 0 });
    let mut supervisor = Supervisor::new(
        trainer,
        plan,
        SupervisorConfig::default(),
        UntrustedStore::new(),
    )
    .expect("supervisor");
    supervisor.train_steps(2).expect("train");
    assert_eq!(count(&telemetry, "supervisor.respawns"), 1);
    assert_eq!(
        count(&telemetry, "shield.fs.writes"),
        2,
        "the blob and a checkpoint"
    );

    let names = metric_names(&telemetry);
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    assert_eq!(names, GOLDEN_METRIC_NAMES);
}

/// What an operator's snapshot names after one deployment and batch, one
/// fs-shield write / read / recover and a supervised run with a respawn.
/// A counter renamed or dropped fails `the_metric_names_are_pinned`; one
/// added is listed here in the same change.
const GOLDEN_METRIC_NAMES: &[&str] = &[
    "cost.attestation.events",
    "cost.attestation.ns",
    "cost.compute.events",
    "cost.compute.ns",
    "cost.crypto.events",
    "cost.crypto.ns",
    "cost.network.events",
    "cost.network.ns",
    "cost.other.events",
    "cost.other.ns",
    "cost.paging.events",
    "cost.paging.ns",
    "cost.syscalls.events",
    "cost.syscalls.ns",
    "cost.transitions.events",
    "cost.transitions.ns",
    "crypto.bytes_opened",
    "crypto.bytes_sealed",
    "crypto.seal_ns",
    "distrib.comm.bytes_saved",
    "distrib.comm.bytes_sent",
    "distrib.comm.comm_ns",
    "distrib.comm.compression_ratio",
    "distrib.comm.overlap_hidden_ns",
    "kernel.matmul.flops",
    "kernel.matmul.ns",
    "kernel.pool.critical_flops",
    "kernel.pool.total_flops",
    "kernel.simd",
    "memory.arena_bytes_in_use",
    "memory.grad_slots",
    "memory.grads_pruned",
    "memory.peak_planned_bytes",
    "memory.pool_bytes",
    "memory.workspace_bytes",
    "shield.fs.aborted_writes",
    "shield.fs.bytes_read",
    "shield.fs.bytes_written",
    "shield.fs.chunk_cache_hits",
    "shield.fs.chunk_cache_misses",
    "shield.fs.format_rejections",
    "shield.fs.journal_commits",
    "shield.fs.journal_rollbacks",
    "shield.fs.mount_epoch",
    "shield.fs.reads",
    "shield.fs.recovery_ns",
    "shield.fs.tamper_rejections",
    "shield.fs.writes",
    "shield.net.bytes_received",
    "shield.net.bytes_sent",
    "shield.net.records_received",
    "shield.net.records_rejected",
    "shield.net.records_sent",
    "shield.net.vectored_sends",
    "supervisor.checkpoint_fallbacks",
    "supervisor.checkpoints",
    "supervisor.faults_injected",
    "supervisor.heartbeats",
    "supervisor.missed_heartbeats",
    "supervisor.respawns",
    "supervisor.rollbacks",
    "supervisor.storage_fresh_remounts",
    "supervisor.storage_recoveries",
    "supervisor.storage_rollbacks",
    "supervisor.supervision_ns",
    "supervisor.tampered_heartbeats",
    "tee.cas#k.async_syscalls",
    "tee.cas#k.epc.allocated_pages",
    "tee.cas#k.epc.evictions",
    "tee.cas#k.epc.faults",
    "tee.cas#k.epc.resident_pages",
    "tee.cas#k.transitions",
    "tee.classifier#k.async_syscalls",
    "tee.classifier#k.epc.allocated_pages",
    "tee.classifier#k.epc.evictions",
    "tee.classifier#k.epc.faults",
    "tee.classifier#k.epc.resident_pages",
    "tee.classifier#k.transitions",
    "tee.fs#k.async_syscalls",
    "tee.fs#k.epc.allocated_pages",
    "tee.fs#k.epc.evictions",
    "tee.fs#k.epc.faults",
    "tee.fs#k.epc.resident_pages",
    "tee.fs#k.transitions",
    "tee.worker#k.async_syscalls",
    "tee.worker#k.epc.allocated_pages",
    "tee.worker#k.epc.evictions",
    "tee.worker#k.epc.faults",
    "tee.worker#k.epc.resident_pages",
    "tee.worker#k.transitions",
];
