//! Gateway acceptance tests (ISSUE 7): same-seed chaos determinism and
//! exactly-once answering, batched-vs-serial bit-identity, EDF
//! dispatch, deficit-round-robin fairness, bounded admission, and
//! malformed-frame id salvage — all through real attested channels.

use proptest::prelude::*;
use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf::serving::{decode_response, encode_request, Request, Response, RETRY_AFTER_HINT_NS};
use securetf_gateway::chaos::{
    attested_pair, demo_input, demo_model, run_chaos, SwitchTransport, DEMO_DIM,
};
use securetf_gateway::{Gateway, GatewayConfig};
use securetf_shield::net::SecureChannel;
use securetf_tee::{EnclaveImage, ExecutionMode, Platform, SimClock};
use securetf_tensor::graph::Graph;
use securetf_tensor::tensor::Tensor;
use securetf_tflite::interpreter::Interpreter;
use securetf_tflite::model::LiteModel;
use std::collections::BTreeMap;

fn model_with_dim(dim: usize) -> LiteModel {
    let mut g = Graph::new();
    let x = g.placeholder("input", &[0, dim]);
    let w = g.constant(
        "w",
        Tensor::from_vec(
            &[dim, 3],
            (0..dim * 3)
                .map(|i| ((i * 5 + 1) % 13) as f32 * 0.1 - 0.6)
                .collect(),
        )
        .unwrap(),
    );
    let y = g.matmul(x, w).unwrap();
    let name = g.nodes()[y.index()].name.clone();
    LiteModel::convert(&g, "input", &name).unwrap()
}

/// Deploys a classifier for `model` on a fresh instrumented platform
/// and wraps it in a gateway with `tenants` attested client channels.
fn gateway_with_clients(
    model: &LiteModel,
    config: GatewayConfig,
    tenants: usize,
) -> (
    Gateway<SwitchTransport>,
    Vec<SecureChannel<SwitchTransport>>,
    SimClock,
) {
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let mut deployment =
        Deployment::instrumented(ExecutionMode::Hardware, clock.clone(), telemetry.clone());
    deployment.publish_model("svc", "/m", model).unwrap();
    let classifier = deployment
        .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
        .unwrap();
    let frontend_platform = Platform::builder()
        .clock(clock.clone())
        .telemetry(telemetry)
        .build();
    let frontend = frontend_platform
        .create_enclave(
            &EnclaveImage::builder().code(b"frontend").build(),
            ExecutionMode::Simulation,
        )
        .unwrap();
    let mut gateway = Gateway::new(classifier, config);
    let mut clients = Vec::with_capacity(tenants);
    for _ in 0..tenants {
        let (server, client) = attested_pair(frontend.clone());
        gateway.accept(server);
        clients.push(client);
    }
    (gateway, clients, clock)
}

fn drain_client(client: &mut SecureChannel<SwitchTransport>) -> Vec<Response> {
    let mut out = Vec::new();
    while let Ok(Some(frame)) = client.try_recv() {
        out.push(decode_response(&frame).expect("response frame"));
    }
    out
}

#[test]
fn same_seed_chaos_runs_are_bit_identical_and_exactly_once() {
    let a = run_chaos(0xC0FFEE, 4, 30, GatewayConfig::default()).expect("chaos run");
    let b = run_chaos(0xC0FFEE, 4, 30, GatewayConfig::default()).expect("chaos run");
    assert_eq!(
        a.metrics_digest, b.metrics_digest,
        "same seed must produce bit-identical telemetry"
    );
    assert_eq!(a.schedule_digest, b.schedule_digest);
    assert_eq!(a.answers, b.answers);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.gateway, b.gateway);
    assert!(a.sent > 0, "chaos must generate traffic");
    assert!(
        a.answered_exactly_once(),
        "every sent request answered exactly once: sent={} answered_ids={} gateway={:?}",
        a.sent,
        a.answers.len(),
        a.gateway
    );
    // The seeded schedule actually exercised the gateway: batches
    // formed, and labels dominate the outcomes.
    assert!(a.gateway.batches > 0);
    assert!(a.label_count > 0);
}

#[test]
fn different_seeds_diverge() {
    let a = run_chaos(1, 3, 20, GatewayConfig::default()).expect("chaos run");
    let b = run_chaos(2, 3, 20, GatewayConfig::default()).expect("chaos run");
    assert_ne!(a.metrics_digest, b.metrics_digest);
}

#[test]
fn chaos_exercises_bursts_and_batching() {
    // Across a long run the seeded bursts must actually bite: batches
    // form beyond a single request, and still everything is answered.
    let report = run_chaos(7, 5, 60, GatewayConfig::default()).expect("chaos run");
    assert!(report.gateway.largest_batch > 1, "{:?}", report.gateway);
    assert!(report.answered_exactly_once());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Batched gateway responses are bit-identical to serial
    // single-request classification for the same inputs, independent
    // of batch ceiling, tenant count, and batch composition.
    #[test]
    fn batched_matches_serial_bitwise(
        dim_choice in 0usize..2,
        tenants in 1usize..4,
        batch_choice in 0usize..4,
        per_tenant in 1usize..6,
        salt in any::<u32>(),
    ) {
        let dim = [4, 8][dim_choice];
        let max_batch = [1usize, 2, 4, 8][batch_choice];
        let model = model_with_dim(dim);
        let config = GatewayConfig {
            max_batch,
            batch_timeout_ns: 1_000_000,
            ..GatewayConfig::default()
        };
        let (mut gateway, mut clients, _clock) = gateway_with_clients(&model, config, tenants);

        // Deterministic inputs keyed by (tenant, seq, salt).
        let mut inputs: BTreeMap<u64, Tensor> = BTreeMap::new();
        for (t, client) in clients.iter_mut().enumerate() {
            for s in 0..per_tenant {
                let id = (t as u64) << 32 | s as u64;
                let data: Vec<f32> = (0..dim)
                    .map(|k| {
                        let mix = id.wrapping_mul(2654435761).wrapping_add(k as u64 + salt as u64);
                        (mix % 23) as f32 * 0.17 - 1.9
                    })
                    .collect();
                let input = Tensor::from_vec(&[1, dim], data).unwrap();
                client.send(&encode_request(&Request::new(id, input.clone()))).unwrap();
                inputs.insert(id, input);
            }
        }
        gateway.flush().expect("flush");

        // Serial baseline: a second classifier over the same model.
        let mut deployment = Deployment::new(ExecutionMode::Hardware);
        deployment.publish_model("svc", "/m", &model).unwrap();
        let mut serial = deployment
            .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
            .unwrap();

        let mut answered = 0usize;
        for client in clients.iter_mut() {
            for response in drain_client(client) {
                let Response::Label { id, label } = response else {
                    panic!("expected label, got {response:?}");
                };
                let (expect, _) = serial.classify(&inputs[&id]).unwrap();
                prop_assert_eq!(label as usize, expect, "request {}", id);
                answered += 1;
            }
        }
        prop_assert_eq!(answered, tenants * per_tenant);
    }
}

#[test]
fn edf_dispatches_most_urgent_first() {
    let model = model_with_dim(8);
    let config = GatewayConfig {
        max_batch: 1, // every request its own batch: dispatch order is visible
        batch_timeout_ns: 1_000_000,
        ..GatewayConfig::default()
    };
    let (mut gateway, mut clients, clock) = gateway_with_clients(&model, config, 1);
    let now = clock.now_ns();
    // Sent first but due later; sent second but due sooner.
    let relaxed = Request::with_deadline(1, demo_input(0, 1), now + 900_000_000);
    let urgent = Request::with_deadline(2, demo_input(0, 2), now + 500_000_000);
    clients[0].send(&encode_request(&relaxed)).unwrap();
    clients[0].send(&encode_request(&urgent)).unwrap();
    gateway.flush().expect("flush");
    let responses = drain_client(&mut clients[0]);
    let ids: Vec<u64> = responses
        .iter()
        .map(|r| match r {
            Response::Label { id, .. } => *id,
            other => panic!("expected label, got {other:?}"),
        })
        .collect();
    assert_eq!(
        ids,
        vec![2, 1],
        "EDF must answer the tighter deadline first"
    );
}

#[test]
fn drr_keeps_a_hot_tenant_from_starving_the_rest() {
    let model = model_with_dim(8);
    let config = GatewayConfig {
        max_batch: 8,
        // Long timeout: the leftovers must not become dispatch-ready
        // within this pump just because the first batch consumed
        // virtual time.
        batch_timeout_ns: 10_000_000_000,
        queue_capacity: 64,
    };
    let (mut gateway, mut clients, _clock) = gateway_with_clients(&model, config, 2);
    // Tenant 0 floods; tenant 1 sends two polite requests afterwards.
    for s in 0..12u64 {
        clients[0]
            .send(&encode_request(&Request::new(s, demo_input(0, s))))
            .unwrap();
    }
    for s in 0..2u64 {
        clients[1]
            .send(&encode_request(&Request::new(100 + s, demo_input(1, s))))
            .unwrap();
    }
    // One pump: ingest everything, dispatch exactly one full batch.
    let stats = gateway.pump().expect("pump");
    assert_eq!(stats.batches, 1, "one full batch should fire immediately");
    let hot = drain_client(&mut clients[0]).len();
    let polite = drain_client(&mut clients[1]).len();
    assert_eq!(
        polite, 2,
        "both of the polite tenant's requests must ride the first batch"
    );
    assert_eq!(hot, 6, "the flooder gets the remaining slots");
    gateway.flush().expect("flush");
    assert_eq!(
        drain_client(&mut clients[0]).len(),
        6,
        "flood eventually drains"
    );
}

#[test]
fn admission_control_sheds_overflow_with_retry_hint() {
    let model = model_with_dim(8);
    let config = GatewayConfig {
        max_batch: 8,
        queue_capacity: 2,
        batch_timeout_ns: 1_000_000,
    };
    let (mut gateway, mut clients, _clock) = gateway_with_clients(&model, config, 1);
    for s in 0..5u64 {
        clients[0]
            .send(&encode_request(&Request::new(s, demo_input(0, s))))
            .unwrap();
    }
    gateway.flush().expect("flush");
    let responses = drain_client(&mut clients[0]);
    assert_eq!(responses.len(), 5, "every request answered exactly once");
    let shed: Vec<&Response> = responses
        .iter()
        .filter(|r| matches!(r, Response::Unavailable { .. }))
        .collect();
    assert_eq!(shed.len(), 3, "capacity 2 admits 2 of 5");
    for r in &shed {
        let Response::Unavailable { retry_after_ns, .. } = r else {
            unreachable!()
        };
        assert_eq!(*retry_after_ns, RETRY_AFTER_HINT_NS);
    }
    assert_eq!(gateway.report().shed, 3);
    assert_eq!(gateway.report().admitted, 2);
}

#[test]
fn expired_deadlines_are_shed_not_served() {
    let model = model_with_dim(8);
    let config = GatewayConfig {
        max_batch: 8,
        batch_timeout_ns: 2_000_000,
        ..GatewayConfig::default()
    };
    let (mut gateway, mut clients, clock) = gateway_with_clients(&model, config, 1);
    // A deadline that will already be stale once the gateway looks.
    let doomed = Request::with_deadline(9, demo_input(0, 0), clock.now_ns() + 1);
    clients[0].send(&encode_request(&doomed)).unwrap();
    clock.idle_until(clock.now_ns() + 10); // the deadline passes before the gateway polls
    gateway.flush().expect("flush");
    let responses = drain_client(&mut clients[0]);
    assert_eq!(responses.len(), 1);
    assert!(
        matches!(responses[0], Response::Unavailable { id: 9, .. }),
        "expired request answered unavailable, got {:?}",
        responses[0]
    );
    assert_eq!(gateway.report().deadline_misses, 1);
    assert_eq!(gateway.report().batches, 0, "nothing executed");
}

#[test]
fn malformed_frames_get_salvaged_ids_through_the_gateway() {
    let model = model_with_dim(8);
    let (mut gateway, mut clients, _clock) =
        gateway_with_clients(&model, GatewayConfig::default(), 1);
    clients[0].send(b"garbage").unwrap();
    let full = encode_request(&Request::new(77, demo_input(0, 0)));
    clients[0].send(&full[..full.len() - 2]).unwrap();
    gateway.flush().expect("flush");
    let responses = drain_client(&mut clients[0]);
    assert_eq!(responses.len(), 2);
    assert!(
        matches!(&responses[0], Response::Error { id: 0, .. }),
        "unsalvageable frame lands on id 0: {:?}",
        responses[0]
    );
    assert!(
        matches!(&responses[1], Response::Error { id: 77, .. }),
        "truncated body keeps its salvaged id: {:?}",
        responses[1]
    );
}

#[test]
fn failed_enclave_answers_unavailable_and_recovers() {
    let model = model_with_dim(8);
    let (mut gateway, mut clients, _clock) =
        gateway_with_clients(&model, GatewayConfig::default(), 1);
    let telemetry = gateway.classifier().enclave().telemetry().clone();
    clients[0]
        .send(&encode_request(&Request::new(0, demo_input(0, 2))))
        .unwrap();
    gateway.flush().expect("flush");
    assert!(matches!(
        drain_client(&mut clients[0])[..],
        [Response::Label { id: 0, .. }]
    ));
    gateway.classifier_mut().enclave().mark_failed();
    clients[0]
        .send(&encode_request(&Request::new(1, demo_input(0, 0))))
        .unwrap();
    gateway.flush().expect("flush");
    assert!(matches!(
        drain_client(&mut clients[0])[..],
        [Response::Unavailable { id: 1, .. }]
    ));
    gateway.classifier_mut().enclave().revive();
    clients[0]
        .send(&encode_request(&Request::new(2, demo_input(0, 1))))
        .unwrap();
    gateway.flush().expect("flush");
    assert!(matches!(
        drain_client(&mut clients[0])[..],
        [Response::Label { id: 2, .. }]
    ));
    // Every answer is counted, the degraded one by its outcome.
    assert_eq!(telemetry.counter("serving.requests").get(), 3);
    assert_eq!(telemetry.counter("serving.unavailable").get(), 1);
    assert_eq!(telemetry.counter("serving.errors").get(), 0);
    let latency = telemetry.histogram("serving.request_latency_ns").snapshot();
    assert_eq!(latency.count, 3);
    // Healthy requests consume virtual time (inference + shields); the
    // degraded answer is free.
    assert!(latency.max_ns > 0);
}

#[test]
fn a_request_of_several_rows_is_refused_not_flattened() {
    // Row 1 holds the largest logit, so an argmax over both rows would
    // answer an index past the model's three classes.
    let rows = [vec![0.0; DEMO_DIM], vec![2.0; DEMO_DIM]].concat();
    let input = Tensor::from_vec(&[2, DEMO_DIM], rows).unwrap();
    let logits = Interpreter::new(demo_model()).run(&input).unwrap();
    let max = logits.data().iter().copied().fold(f32::MIN, f32::max);
    assert!(logits.data()[3..].contains(&max) && !logits.data()[..3].contains(&max));

    let (mut gateway, mut clients, _clock) =
        gateway_with_clients(&demo_model(), GatewayConfig::default(), 1);
    let telemetry = gateway.classifier().enclave().telemetry().clone();
    clients[0]
        .send(&encode_request(&Request::new(5, input)))
        .unwrap();
    gateway.flush().expect("flush");
    let responses = drain_client(&mut clients[0]);
    assert!(
        matches!(responses[..], [Response::Error { id: 5, .. }]),
        "a [2, d] request must be refused, got {responses:?}"
    );
    assert_eq!(gateway.report().admitted, 0);
    assert_eq!(gateway.report().batches, 0);
    assert_eq!(telemetry.counter("serving.errors").get(), 1);
}

#[test]
fn a_batch_answered_with_one_row_is_refused_not_indexed_past() {
    // The output is a constant row, whatever the input: a batch of three
    // requests comes back as one row of logits, so there are not three
    // labels to hand out.
    let mut g = Graph::new();
    g.placeholder("input", &[0, 4]);
    g.constant("w", Tensor::from_vec(&[1, 3], vec![0.1, 0.9, 0.3]).unwrap());
    let model = LiteModel::convert(&g, "input", "w").unwrap();
    let (mut gateway, mut clients, _clock) =
        gateway_with_clients(&model, GatewayConfig::default(), 1);
    for id in 0..3 {
        let request = Request::new(id, Tensor::full(&[1, 4], 0.5));
        clients[0].send(&encode_request(&request)).unwrap();
    }
    gateway.flush().expect("flush");
    let responses = drain_client(&mut clients[0]);
    let ids: Vec<u64> = responses
        .iter()
        .map(|response| match response {
            Response::Error { id, .. } => *id,
            other => panic!("a batch of three got {other:?}"),
        })
        .collect();
    assert_eq!(ids, vec![0, 1, 2]);
    assert_eq!(gateway.report().batches, 1);
}

#[test]
fn gateway_telemetry_counts_batches_and_queue_wait() {
    let model = demo_model();
    let config = GatewayConfig {
        max_batch: 4,
        batch_timeout_ns: 1_000_000,
        ..GatewayConfig::default()
    };
    let (mut gateway, mut clients, _clock) = gateway_with_clients(&model, config, 2);
    let telemetry = gateway.classifier().enclave().telemetry().clone();
    for s in 0..4u64 {
        let c = (s % 2) as usize;
        clients[c]
            .send(&encode_request(&Request::new(s, demo_input(c, s))))
            .unwrap();
    }
    gateway.flush().expect("flush");
    assert_eq!(telemetry.counter("gateway.requests").get(), 4);
    assert_eq!(telemetry.counter("gateway.responses").get(), 4);
    assert_eq!(telemetry.counter("gateway.batches").get(), 1);
    let sizes = telemetry.histogram("gateway.batch_size").snapshot();
    assert_eq!(sizes.count, 1);
    assert_eq!(sizes.max_ns, 4, "one batch of four");
    assert_eq!(
        telemetry
            .histogram("gateway.queue_wait_ns")
            .snapshot()
            .count,
        4
    );
    // Per-tenant attribution: both tenants were counted and charged.
    assert_eq!(telemetry.counter("gateway.tenant.0.requests").get(), 2);
    assert_eq!(telemetry.counter("gateway.tenant.1.requests").get(), 2);
    assert!(telemetry.counter("gateway.tenant.0.cost_ns").get() > 0);
    assert!(telemetry.counter("gateway.tenant.1.cost_ns").get() > 0);
    assert_eq!(telemetry.gauge("gateway.queue_depth").get(), 0);
}
