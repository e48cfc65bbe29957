//! Gateway serving benchmark (ISSUE 7): offered load × batch ceiling,
//! virtual time.
//!
//! Sweeps the gateway's micro-batch ceiling at several offered loads,
//! all in deterministic virtual time, against its own ceiling-1 run (one
//! request per batch), and writes `BENCH_gateway.json`. Two
//! relationships are asserted hard (the process exits non-zero on
//! violation, making CI the regression gate):
//!
//! 1. at batch ceiling ≥ 8, gateway throughput strictly beats ceiling 1
//!    — the planned arena and worker pool must pay off at the serving
//!    tier, and
//! 2. the gateway answers every offered request exactly once.

use securetf::deployment::Deployment;
use securetf::profile::RuntimeProfile;
use securetf::serving::{encode_request, Request};
use securetf_bench::header;
use securetf_bench::report::{BenchReport, JsonValue};
use securetf_gateway::chaos::{attested_pair, demo_input, demo_model};
use securetf_gateway::{Gateway, GatewayConfig};
use securetf_tee::{EnclaveImage, ExecutionMode, Platform, SimClock};

const CLIENTS: usize = 4;
const ROUNDS: u64 = 16;

/// Gateway run at one (per-round load, batch ceiling) cell. Returns
/// `(virtual ns, answered)`.
fn gateway_ns(load_per_client: u64, max_batch: usize) -> (u64, u64) {
    let clock = SimClock::new();
    let telemetry = clock.telemetry();
    let mut deployment =
        Deployment::instrumented(ExecutionMode::Hardware, clock.clone(), telemetry.clone());
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
            ExecutionMode::Simulation,
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

fn rps(requests: u64, ns: u64) -> f64 {
    requests as f64 / (ns.max(1) as f64 / 1e9)
}

fn main() {
    header(
        "Gateway: offered load x batch ceiling (virtual time)",
        &[
            "load/client",
            "ceiling",
            "virtual ms",
            "req/s      ",
            "vs ceiling 1",
        ],
    );

    let loads = [1u64, 2, 4];
    let ceilings = [1usize, 2, 4, 8, 16];
    let mut report = BenchReport::new("gateway")
        .unit("virtual_rps")
        .mode("hardware/scone_lite")
        .paper_target("secureTF §4.2 / Privado: enclave DNN serving at scale needs batching");

    let mut gate_holds = true;
    for &load in &loads {
        let total = load * CLIENTS as u64 * ROUNDS;
        // The first ceiling is 1: one request per batch, the baseline.
        let mut baseline = None;
        for &ceiling in &ceilings {
            let (ns, answered) = gateway_ns(load, ceiling);
            assert_eq!(
                answered, total,
                "gateway dropped requests at load={load} ceiling={ceiling}"
            );
            let through = rps(total, ns);
            let base_rps = *baseline.get_or_insert(through);
            let speedup = through / base_rps;
            println!(
                "{:>11} | {:>7} | {:>10.3} | {:>11.1} | {:>11.2}x",
                load,
                ceiling,
                ns as f64 / 1e6,
                through,
                speedup
            );
            report = report
                .latency_ns(&format!("load{load}.batch{ceiling}.ns"), ns)
                .ratio(&format!("load{load}.batch{ceiling}.rps"), through);
            if ceiling >= 8 && through <= base_rps {
                gate_holds = false;
                eprintln!(
                    "GATE VIOLATION: load={load} ceiling={ceiling}: {through:.1} req/s \
                     does not beat ceiling 1's {base_rps:.1} req/s"
                );
            }
        }
    }
    report = report.value("batched_beats_batch1_at_8", JsonValue::Bool(gate_holds));
    report.emit();
    assert!(
        gate_holds,
        "gateway throughput at batch >= 8 must strictly beat batch 1"
    );
}
