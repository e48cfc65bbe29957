//! Deterministic serving chaos: drives a [`Gateway`] with seeded
//! client behaviour from [`FaultPlan::generate_serving`].
//!
//! Everything — request payloads, deadlines, burst sizes, client
//! delays, disconnects — is derived from the seed and the shared
//! virtual clock, so two runs with the same seed produce bit-identical
//! telemetry digests and identical per-request outcomes. That is the
//! property `tests/gateway.rs` asserts, and what makes a failing
//! serving seed replayable forever.

use crate::{Gateway, GatewayConfig, GatewayReport};
use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf::serving::{decode_response, encode_goodbye, encode_request, Request, Response};
use securetf::SecureTfError;
use securetf_distrib::faults::{FaultEvent, FaultPlan};
use securetf_shield::net::{duplex, PipeEnd, Role, SecureChannel, Transport};
use securetf_tee::{EnclaveImage, ExecutionMode, Platform, SimClock};
use securetf_tensor::graph::Graph;
use securetf_tensor::tensor::Tensor;
use securetf_tflite::model::LiteModel;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Input feature width of the demo serving model.
pub const DEMO_DIM: usize = 8;
const DEMO_CLASSES: usize = 3;

/// A pipe transport that spin-waits during the (threaded) handshake
/// and polls exactly once afterwards, so a single-threaded event loop
/// can distinguish "idle" from "message in flight".
pub struct SwitchTransport {
    end: PipeEnd,
    spin: Arc<AtomicBool>,
}

impl SwitchTransport {
    fn new(end: PipeEnd) -> (Self, Arc<AtomicBool>) {
        let spin = Arc::new(AtomicBool::new(true));
        (
            SwitchTransport {
                end,
                spin: spin.clone(),
            },
            spin,
        )
    }
}

impl Transport for SwitchTransport {
    fn send(&self, message: Vec<u8>) {
        self.end.send(message);
    }

    fn recv(&self) -> Option<Vec<u8>> {
        if !self.spin.load(Ordering::Relaxed) {
            return self.end.recv();
        }
        for _ in 0..1_000_000 {
            if let Some(message) = self.end.recv() {
                return Some(message);
            }
            std::thread::yield_now();
        }
        None
    }
}

/// The small fixed classifier model used by chaos runs, benches and
/// examples: `[1, DEMO_DIM] -> [1, 3]` with deterministic weights.
pub fn demo_model() -> LiteModel {
    let mut g = Graph::new();
    let x = g.placeholder("input", &[0, DEMO_DIM]);
    let w = g.constant(
        "w",
        Tensor::from_vec(
            &[DEMO_DIM, DEMO_CLASSES],
            (0..DEMO_DIM * DEMO_CLASSES)
                .map(|i| ((i * 7 + 3) % 11) as f32 * 0.1 - 0.5)
                .collect(),
        )
        .expect("weight shape"),
    );
    let y = g.matmul(x, w).expect("matmul");
    let name = g.nodes()[y.index()].name.clone();
    LiteModel::convert(&g, "input", &name).expect("convert")
}

/// A deterministic request payload for `(client, seq)`.
pub fn demo_input(client: usize, seq: u64) -> Tensor {
    let data = (0..DEMO_DIM)
        .map(|k| {
            let mix = client as u64 * 131 + seq * 31 + k as u64 * 7;
            (mix % 17) as f32 * 0.25 - 2.0
        })
        .collect();
    Tensor::from_vec(&[1, DEMO_DIM], data).expect("input shape")
}

/// Performs the ECDHE handshake for one client pair. The responder
/// terminates in `server_enclave` (the gateway front-end), the
/// initiator in a fresh stand-alone client enclave; both transports
/// drop to single-poll mode once the handshake completes.
pub fn attested_pair(
    server_enclave: Arc<securetf_tee::Enclave>,
) -> (
    SecureChannel<SwitchTransport>,
    SecureChannel<SwitchTransport>,
) {
    let (client_end, server_end) = duplex(None);
    let (server_transport, server_spin) = SwitchTransport::new(server_end);
    let (client_transport, client_spin) = SwitchTransport::new(client_end);
    let responder = std::thread::spawn(move || {
        SecureChannel::handshake(server_transport, server_enclave, Role::Responder)
            .expect("responder handshake")
    });
    let client_platform = Platform::builder().build();
    let client_enclave = client_platform
        .create_enclave(
            &EnclaveImage::builder().code(b"gateway-client").build(),
            ExecutionMode::Simulation,
        )
        .expect("client enclave");
    let client = SecureChannel::handshake(client_transport, client_enclave, Role::Initiator)
        .expect("initiator handshake");
    let server = responder.join().expect("responder join");
    assert_eq!(server.transcript_hash(), client.transcript_hash());
    server_spin.store(false, Ordering::Relaxed);
    client_spin.store(false, Ordering::Relaxed);
    (server, client)
}

/// The outcome of one seeded chaos run, comparable across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Digest of the injected fault schedule.
    pub schedule_digest: u64,
    /// Hex digest of every counter/gauge/histogram on the shared
    /// telemetry — bit-identical across same-seed runs.
    pub metrics_digest: String,
    /// Rendered virtual-time span tree of the run (gateway pump and
    /// batch spans), also deterministic per seed.
    pub span_tree: String,
    /// Requests sent by all clients (admitted or not).
    pub sent: u64,
    /// Responses observed per request id. Exactly-once serving means
    /// every sent id maps to exactly 1.
    pub answers: BTreeMap<u64, u32>,
    /// Label answered per request id (only for `Response::Label`).
    pub labels: BTreeMap<u64, u32>,
    /// Label / error / unavailable responses observed by clients.
    pub label_count: u64,
    /// Error responses observed by clients.
    pub error_count: u64,
    /// Unavailable responses observed by clients.
    pub unavailable_count: u64,
    /// The gateway's own lifetime counters.
    pub gateway: GatewayReport,
}

impl ChaosReport {
    /// Whether every sent request was answered exactly once.
    pub fn answered_exactly_once(&self) -> bool {
        self.answers.len() as u64 == self.sent && self.answers.values().all(|&n| n == 1)
    }
}

/// Deploys [`demo_model`] in a hardware enclave behind a gateway with
/// `clients` attested client channels, on one instrumented platform.
///
/// Client channels terminate in a front-end enclave on the shared
/// platform, so ingress/egress costs advance the shared clock. The
/// classifier enclave stays behind it, free to crash and revive without
/// tearing sessions down.
pub(crate) fn demo_gateway(
    clients: usize,
    config: GatewayConfig,
) -> (
    Gateway<SwitchTransport>,
    Vec<SecureChannel<SwitchTransport>>,
) {
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let mut deployment =
        Deployment::instrumented(ExecutionMode::Hardware, clock.clone(), telemetry.clone());
    deployment
        .publish_model("gateway-svc", "/models/gateway", &demo_model())
        .expect("publish");
    let classifier = deployment
        .deploy_classifier("gateway-svc", "/models/gateway", RuntimeProfile::scone_lite())
        .expect("deploy");
    let frontend_platform = Platform::builder().clock(clock).telemetry(telemetry).build();
    let frontend = frontend_platform
        .create_enclave(
            &EnclaveImage::builder().code(b"gateway-frontend").build(),
            ExecutionMode::Simulation,
        )
        .expect("frontend enclave");

    let mut gateway = Gateway::new(classifier, config);
    let channels = (0..clients)
        .map(|_| {
            let (server, client) = attested_pair(frontend.clone());
            gateway.accept(server);
            client
        })
        .collect();
    (gateway, channels)
}

struct ChaosClient {
    channel: SecureChannel<SwitchTransport>,
    alive: bool,
    busy_until_ns: u64,
    next_seq: u64,
}

/// Runs `steps` rounds of seeded multi-client traffic (with
/// `RequestBurst`/`SlowClient`/`ClientDisconnect` faults) through a
/// gateway and returns the comparable outcome.
///
/// # Errors
///
/// Propagates classifier-side [`SecureTfError`]s; per-tenant channel
/// trouble is absorbed by the gateway.
///
/// # Panics
///
/// Panics on deployment or handshake failure — chaos runs assume a
/// healthy control plane.
pub fn run_chaos(
    seed: u64,
    clients: usize,
    steps: u64,
    config: GatewayConfig,
) -> Result<ChaosReport, SecureTfError> {
    let clients = clients.max(1);
    let (mut gateway, channels) = demo_gateway(clients, config);
    let clock = gateway.classifier().enclave().clock().clone();
    let telemetry = gateway.classifier().enclave().telemetry().clone();
    let mut chaos_clients: Vec<ChaosClient> = channels
        .into_iter()
        .map(|channel| ChaosClient {
            channel,
            alive: true,
            busy_until_ns: 0,
            next_seq: 0,
        })
        .collect();

    let plan = FaultPlan::generate_serving(seed, steps, clients);
    let mut sent = 0u64;
    let mut answers: BTreeMap<u64, u32> = BTreeMap::new();
    let mut labels: BTreeMap<u64, u32> = BTreeMap::new();
    let (mut label_count, mut error_count, mut unavailable_count) = (0u64, 0u64, 0u64);

    let mut drain = |clients: &mut Vec<ChaosClient>| {
        for client in clients.iter_mut() {
            while let Ok(Some(frame)) = client.channel.try_recv() {
                let Ok(response) = decode_response(&frame) else {
                    continue;
                };
                let id = match &response {
                    Response::Label { id, label } => {
                        label_count += 1;
                        labels.insert(*id, *label);
                        *id
                    }
                    Response::Error { id, .. } => {
                        error_count += 1;
                        *id
                    }
                    Response::Unavailable { id, .. } => {
                        unavailable_count += 1;
                        *id
                    }
                };
                *answers.entry(id).or_insert(0) += 1;
            }
        }
    };

    for step in 0..steps {
        for event in plan.events_at(step) {
            match *event {
                FaultEvent::RequestBurst {
                    client,
                    requests,
                } => {
                    let c = client % clients;
                    for _ in 0..requests {
                        send_one(&mut chaos_clients[c], c, step, &clock, &mut sent);
                    }
                }
                FaultEvent::SlowClient { client, delay_ns } => {
                    let c = client % clients;
                    chaos_clients[c].busy_until_ns = clock.now_ns() + delay_ns;
                }
                FaultEvent::ClientDisconnect { client } => {
                    let c = client % clients;
                    if chaos_clients[c].alive {
                        let _ = chaos_clients[c].channel.send(&encode_goodbye());
                        chaos_clients[c].alive = false;
                    }
                }
                // Training-cluster events have no meaning here.
                _ => {}
            }
        }
        for (c, chaos_client) in chaos_clients.iter_mut().enumerate() {
            if chaos_client.alive && chaos_client.busy_until_ns <= clock.now_ns() {
                send_one(chaos_client, c, step, &clock, &mut sent);
            }
        }
        gateway.pump()?;
        drain(&mut chaos_clients);
    }
    gateway.flush()?;
    drain(&mut chaos_clients);

    Ok(ChaosReport {
        schedule_digest: plan.schedule_digest(),
        metrics_digest: telemetry.metrics_digest_hex(),
        span_tree: telemetry.span_report().render(),
        sent,
        answers,
        labels,
        label_count,
        error_count,
        unavailable_count,
        gateway: gateway.report(),
    })
}

/// Emits one deterministic request from `client`. Ids are globally
/// unique (`client * 2^32 + seq`); every third request carries a
/// deadline with seeded slack so chaos exercises both EDF dispatch and
/// deadline misses.
fn send_one(
    client: &mut ChaosClient,
    index: usize,
    step: u64,
    clock: &SimClock,
    sent: &mut u64,
) {
    let seq = client.next_seq;
    client.next_seq += 1;
    let id = (index as u64) << 32 | seq;
    let input = demo_input(index, seq);
    let request = if seq % 3 == 1 {
        let slack = 1_000_000 + ((seq + step) % 5) * 2_000_000;
        Request::with_deadline(id, input, clock.now_ns() + slack)
    } else {
        Request::new(id, input)
    };
    if client.channel.send(&encode_request(&request)).is_ok() {
        *sent += 1;
    }
}
