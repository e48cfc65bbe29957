//! `serve_small` and `serve_large`: attested clients, the network
//! shield, the gateway, `SecureClassifier`, the Lite interpreter.
//!
//! Closed loop, one thread: a round sends every tenant's requests,
//! pumps and flushes the gateway, then drains and checks every reply.
//! An op is one request; its latency runs from just before its encode
//! to just after its reply is verified.

use crate::harness::{
    median_call_ns, prime_host_memory, proc_status_kib, time_ns, Cfg, Epoch, Fingerprint, Layers,
    Workload,
};
use crate::probes;
use crate::spans::Tracer;
use rand::{Rng, SeedableRng};
use securetf::deployment::{service_image, Deployment};
use securetf::profile::RuntimeProfile;
use securetf::serving::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use securetf_gateway::chaos::{attested_pair, SwitchTransport};
use securetf_gateway::{Gateway, GatewayConfig};
use securetf_shield::net::{SecureChannel, Transport};
use securetf_tee::{CostModel, EnclaveImage, ExecutionMode, Platform, SimClock, Telemetry};
use securetf_tensor::graph::{Graph, Op};
use securetf_tensor::kernels::{self, WorkerPool};
use securetf_tensor::tensor::Tensor;
use securetf_tflite::interpreter::Interpreter;
use securetf_tflite::model::LiteModel;
use securetf_tflite::models::{self, DENSENET};
use std::hint::black_box;
use std::time::Instant;

const SERVICE: &str = "e2e";
const MODEL_PATH: &str = "/models/e2e";
/// A deadline no request can miss: one virtual minute.
const GENEROUS_DEADLINE_NS: u64 = 60_000_000_000;
const SMALL_DIM: usize = 64;
const SMALL_CLASSES: usize = 10;
const LARGE_DIM: usize = 1024;

/// One request of the schedule: which pooled input, and whether it
/// carries a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Planned {
    input: u16,
    deadline: bool,
}

/// The serving workloads.
pub struct Serve {
    large: bool,
    threads: usize,
    prime_mib: f64,
    /// Requests per tenant per round.
    depths: [usize; 2],
    warm_rounds: usize,
    timed_rounds: usize,
    seed: u64,
    inputs: Vec<Tensor>,
    /// Labels of `inputs` from a stand-alone reference interpreter.
    reference: Vec<u32>,
    schedule: Vec<Planned>,
}

/// The tiny model: `[n, 64] -> 10`, one biased linear layer with
/// seed-derived weights.
fn small_model(seed: u64) -> LiteModel {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6d6f_6465);
    let mut g = Graph::new();
    let x = g.placeholder("input", &[0, SMALL_DIM]);
    let w = g.constant("w", Tensor::glorot(&[SMALL_DIM, SMALL_CLASSES], &mut rng));
    let b = g.constant(
        "b",
        Tensor::from_vec(
            &[SMALL_CLASSES],
            (0..SMALL_CLASSES)
                .map(|_| rng.gen_range(-0.1f32..0.1))
                .collect(),
        )
        .expect("bias shape"),
    );
    let y = g.matmul(x, w).expect("matmul");
    let y = g.add_bias(y, b).expect("bias");
    let name = g.nodes()[y.index()].name.clone();
    LiteModel::convert(&g, "input", &name).expect("inference-only graph")
}

fn stack(inputs: &[&Tensor]) -> Tensor {
    let dim = inputs[0].len();
    let mut data = Vec::with_capacity(inputs.len() * dim);
    for t in inputs {
        data.extend_from_slice(t.data());
    }
    Tensor::from_vec(&[inputs.len(), dim], data).expect("rows of one width")
}

impl Serve {
    /// Generates the inputs and the request schedule from `cfg.seed`.
    /// The reference labels come from `oracle` (what [`Serve::oracle`]
    /// returned in the parent process), or are computed here without it.
    pub fn prepare(cfg: &Cfg, large: bool, oracle: Option<&str>) -> Serve {
        let (depths, timed_rounds, pool, dim) = if large {
            ([4, 4], cfg.ops(25, 2), 64, LARGE_DIM)
        } else {
            ([8, 4], cfg.ops(20_000, 40), 1024, SMALL_DIM)
        };
        let warm_rounds = (timed_rounds / 20).max(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let inputs: Vec<Tensor> = (0..pool)
            .map(|_| {
                let data = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                Tensor::from_vec(&[1, dim], data).expect("input shape")
            })
            .collect();
        let per_round = depths[0] + depths[1];
        let schedule = (0..(warm_rounds + timed_rounds) * per_round)
            .map(|_| Planned {
                input: rng.gen_range(0..pool as u32) as u16,
                deadline: rng.gen_range(0..4u32) == 0,
            })
            .collect();
        let mut serve = Serve {
            large,
            threads: cfg.threads(),
            prime_mib: cfg.prime_mib,
            depths,
            warm_rounds,
            timed_rounds,
            seed: cfg.seed,
            inputs,
            reference: Vec::new(),
            schedule,
        };
        serve.reference = match oracle {
            Some(labels) => labels.split(',').filter_map(|l| l.parse().ok()).collect(),
            None => serve.reference_labels(),
        };
        assert_eq!(
            serve.reference.len(),
            pool,
            "one reference label per pooled input"
        );
        serve
    }

    /// The reference labels of the seed's inputs, comma-separated, for
    /// the parent to hand to every epoch.
    pub fn oracle(cfg: &Cfg, large: bool) -> String {
        let labels = Serve::prepare(cfg, large, None).reference;
        labels
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The oracle: a stand-alone interpreter that never sees the
    /// deployment, the shields or the gateway. Rows are independent, so
    /// one stacked pass labels the whole pool.
    fn reference_labels(&self) -> Vec<u32> {
        let mut oracle = Interpreter::new(self.model());
        let all: Vec<&Tensor> = self.inputs.iter().collect();
        oracle
            .classify_batch(&stack(&all))
            .expect("reference run")
            .into_iter()
            .map(|l| l as u32)
            .collect()
    }

    fn model(&self) -> LiteModel {
        if self.large {
            models::build(DENSENET)
        } else {
            small_model(self.seed)
        }
    }

    fn per_round(&self) -> usize {
        self.depths[0] + self.depths[1]
    }
}

/// The system of one epoch, and what its rounds have observed so far.
struct Live {
    clock: SimClock,
    gateway: Gateway<SwitchTransport>,
    clients: Vec<SecureChannel<SwitchTransport>>,
    /// Send time and pooled input of each request in flight, by slot.
    in_flight: Vec<Option<(Instant, u16)>>,
    failed: u64,
    fingerprint: Fingerprint,
    latencies: Vec<u64>,
}

impl Live {
    /// One closed-loop round: send all, pump and flush, drain and check.
    fn round(&mut self, plan: &Serve, r: usize, timed: bool, tracer: &mut Tracer) {
        tracer.set_op(r as u32);
        if timed {
            tracer.enter("op");
        }
        let mut slot = 0usize;
        for (c, client) in self.clients.iter_mut().enumerate() {
            // One span per tenant burst (encode + seal + send of each of
            // its requests); per-record costs come from the replays.
            tracer.enter("client.send");
            for _ in 0..plan.depths[c] {
                let planned = plan.schedule[r * plan.per_round() + slot];
                let id = ((r as u64) << 8) | slot as u64;
                let sent_at = Instant::now();
                let input = plan.inputs[planned.input as usize].clone();
                let request = if planned.deadline {
                    Request::with_deadline(id, input, self.clock.now_ns() + GENEROUS_DEADLINE_NS)
                } else {
                    Request::new(id, input)
                };
                if client.send(&encode_request(&request)).is_err() {
                    self.failed += 1;
                }
                self.in_flight[slot] = Some((sent_at, planned.input));
                slot += 1;
            }
            tracer.exit();
        }
        tracer.enter("gateway.pump");
        self.gateway.pump().expect("pump");
        self.gateway.flush().expect("flush");
        tracer.exit();
        tracer.enter("client.drain");
        for client in self.clients.iter_mut() {
            loop {
                let frame = match client.try_recv() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        self.failed += 1;
                        break;
                    }
                };
                // Exactly once: a reply must name a request of this
                // round that is still waiting, and carry the label the
                // reference interpreter gave the same input.
                let ok = match decode_response(&frame) {
                    Ok(Response::Label { id, label }) if id >> 8 == r as u64 => {
                        match self
                            .in_flight
                            .get_mut((id & 0xff) as usize)
                            .and_then(Option::take)
                        {
                            Some((sent_at, input)) => {
                                if timed {
                                    self.latencies.push(sent_at.elapsed().as_nanos() as u64);
                                    self.fingerprint.add(id << 32 | u64::from(label));
                                }
                                label == plan.reference[input as usize]
                            }
                            None => false,
                        }
                    }
                    _ => false,
                };
                if !ok {
                    self.failed += 1;
                }
            }
        }
        // A request still waiting was never answered: count it, and give
        // it the round's latency so the sample count stays fixed.
        for waiting in self.in_flight.iter_mut() {
            if let Some((sent_at, _)) = waiting.take() {
                self.failed += 1;
                if timed {
                    self.latencies.push(sent_at.elapsed().as_nanos() as u64);
                }
            }
        }
        tracer.exit();
        if timed {
            tracer.exit();
        }
    }
}

impl Workload for Serve {
    fn epoch(&mut self, tracer: &mut Tracer, layers: Option<&mut Layers>) -> Epoch {
        let traced = layers.is_some();
        let t_setup = Instant::now();
        tracer.set_op(0);
        tracer.enter("setup");

        let clock = SimClock::new();
        let telemetry = if traced {
            clock.telemetry()
        } else {
            Telemetry::disabled()
        };
        let mut deployment =
            Deployment::instrumented(ExecutionMode::Hardware, clock.clone(), telemetry.clone());
        tracer.enter("setup.tflite.models.build");
        let model = self.model();
        tracer.exit();
        tracer.enter("setup.core.deployment.publish");
        deployment
            .publish_model(SERVICE, MODEL_PATH, &model)
            .expect("publish");
        tracer.exit();
        drop(model);
        tracer.enter("setup.core.deployment.deploy");
        let profile = RuntimeProfile::scone_lite();
        let mut classifier = deployment
            .deploy_classifier(SERVICE, MODEL_PATH, profile.clone())
            .expect("deploy");
        tracer.exit();
        let pool = WorkerPool::new(self.threads);
        classifier.set_worker_pool(pool);

        let frontend = Platform::builder()
            .clock(clock.clone())
            .telemetry(telemetry.clone())
            .build()
            .create_enclave(
                &EnclaveImage::builder()
                    .code(b"e2e-frontend")
                    .name("frontend")
                    .build(),
                ExecutionMode::Simulation,
            )
            .expect("frontend enclave");
        let mut gateway = Gateway::new(classifier, GatewayConfig::default());
        let mut clients = Vec::with_capacity(2);
        tracer.enter("setup.shield.net.handshake");
        for _ in 0..2 {
            let (server, client) = attested_pair(frontend.clone());
            gateway.accept(server);
            clients.push(client);
        }
        tracer.exit();

        let mut live = Live {
            clock,
            gateway,
            clients,
            in_flight: vec![None; self.per_round()],
            failed: 0,
            fingerprint: Fingerprint::default(),
            latencies: Vec::with_capacity(self.timed_rounds * self.per_round()),
        };
        tracer.enter("setup.warmup");
        tracer.pause(true);
        for r in 0..self.warm_rounds {
            live.round(self, r, false, tracer);
        }
        tracer.pause(false);
        tracer.exit();
        tracer.exit();
        let setup_s = t_setup.elapsed().as_secs_f64();
        prime_host_memory(self.prime_mib);

        let before = telemetry.metrics();
        let report_before = live.gateway.report();
        let v0 = live.clock.now_ns();
        let t0 = Instant::now();
        for r in self.warm_rounds..self.warm_rounds + self.timed_rounds {
            live.round(self, r, true, tracer);
        }
        let timed_s = t0.elapsed().as_secs_f64();
        let virtual_ns = live.clock.now_ns() - v0;
        let after = telemetry.metrics();
        let Live {
            mut gateway,
            clients,
            mut failed,
            fingerprint,
            latencies,
            ..
        } = live;

        let report = gateway.report();
        let refused = report.shed + report.deadline_misses + report.dropped;
        failed += refused;
        let ops = latencies.len() as f64;
        let rounds = self.timed_rounds as f64;

        if let Some(layers) = layers {
            let spans = tracer.by_name();
            let busy = |name: &str| spans.get(name).map_or(0.0, |l| l.busy_ns as f64);
            let pump_ns_per_round = busy("gateway.pump") / rounds;
            layers.insert("gateway.pump_us_per_round", pump_ns_per_round / 1e3);
            let batches = (report.batches - report_before.batches) as f64;
            layers.insert("gateway.batches_per_round", batches / rounds);
            layers.insert(
                "gateway.batch_size_mean",
                (report.admitted - report_before.admitted) as f64 / batches,
            );
            layers.insert("gateway.shed", report.shed as f64);
            layers.insert("gateway.deadline_miss", report.deadline_misses as f64);
            layers.insert("gateway.dropped", report.dropped as f64);
            layers.insert(
                "core.deployment.publish_ms",
                busy("setup.core.deployment.publish") / 1e6,
            );
            layers.insert(
                "core.deployment.deploy_ms",
                busy("setup.core.deployment.deploy") / 1e6,
            );

            probes::tee_counts(layers, &before, &after, ops);
            let count = |name: &str| probes::counter_delta(&before, &after, name);
            let net = |suffix: &str| count(&format!("shield.net.{suffix}"));
            layers.insert(
                "shield.net.records_per_op",
                (net("records_sent") + net("records_received")) / ops,
            );
            layers.insert(
                "shield.net.bytes_per_op",
                (net("bytes_sent") + net("bytes_received")) / ops,
            );
            layers.insert("shield.net.records_rejected", net("records_rejected"));
            layers.insert(
                "tensor.kernels.flops_per_op",
                count("kernel.pool.total_flops") / ops,
            );
            layers.insert(
                "tensor.kernels.critical_flops_per_op",
                count("kernel.pool.critical_flops") / ops,
            );
            layers.insert(
                "cas.attestations",
                deployment.cas_mut().attestations_served() as f64,
            );

            self.replay(
                layers,
                &mut gateway,
                &mut deployment,
                pump_ns_per_round,
                pool,
                &profile,
            );
        }

        tracer.enter("teardown");
        drop(clients);
        drop(gateway);
        drop(deployment);
        tracer.exit();
        Epoch {
            setup_s,
            timed_s,
            latencies_ns: latencies,
            failed,
            virtual_ns,
            fingerprint: fingerprint.value(),
        }
    }
}

impl Serve {
    /// Peels the gateway round apart: the same batch sizes straight
    /// into `SecureClassifier::classify_batch`, then into a stand-alone
    /// `Interpreter`, then into the kernels; the same record sizes
    /// through a fresh channel pair and through the serving codec.
    fn replay<T: Transport>(
        &self,
        layers: &mut Layers,
        gateway: &mut Gateway<T>,
        deployment: &mut Deployment,
        pump_ns_per_round: f64,
        pool: WorkerPool,
        profile: &RuntimeProfile,
    ) {
        // Millisecond-scale calls are timed one by one and the median
        // kept; microsecond-scale ones are timed as a loop.
        let large = self.large;
        let replay_ns = |f: &mut dyn FnMut()| {
            if large {
                median_call_ns(7, f)
            } else {
                time_ns(200, 20, f)
            }
        };
        let rows = |n: usize| stack(&self.inputs.iter().take(n).collect::<Vec<_>>());
        // The gateway cuts each round into batches of at most eight.
        let batch_sizes: Vec<usize> = {
            let (full, rest) = (self.per_round() / 8, self.per_round() % 8);
            std::iter::repeat_n(8, full)
                .chain((rest > 0).then_some(rest))
                .collect()
        };

        // core.classifier: the deployed classifier without the gateway.
        let classifier = gateway.classifier_mut();
        let mut classify_ns = Vec::new();
        for &n in &batch_sizes {
            let batch = rows(n);
            classify_ns.push(replay_ns(&mut || {
                black_box(classifier.classify_batch(&batch).expect("classify"));
            }));
        }
        let model = classifier.model().clone();
        let model_bytes = model.param_bytes();

        // tflite: the same model in a stand-alone interpreter.
        let bytes = model.to_bytes();
        let t = Instant::now();
        let reparsed = LiteModel::from_bytes(&bytes).expect("round trip");
        layers.insert(
            "tflite.model.from_bytes_ms",
            t.elapsed().as_secs_f64() * 1e3,
        );
        drop(bytes);
        let t = Instant::now();
        let mut interpreter = Interpreter::with_pool(reparsed, pool);
        layers.insert("tflite.interpreter.new_ms", t.elapsed().as_secs_f64() * 1e3);
        let batch = rows(8);
        interpreter
            .classify_batch(&batch)
            .expect("interpreter warm-up");
        let rss0 = proc_status_kib("VmRSS");
        let runs0 = interpreter.runs();
        let run_ns = replay_ns(&mut || {
            black_box(interpreter.classify_batch(&batch).expect("interpreter run"));
        });
        let runs = (interpreter.runs() - runs0) as f64;
        layers.insert(
            "tflite.interpreter.rss_kib_per_run",
            (proc_status_kib("VmRSS") - rss0) / runs,
        );
        drop(interpreter);

        // tensor.kernels: one fused GEMM per weight matrix of the model.
        let weights: Vec<&Tensor> = model
            .graph()
            .nodes()
            .iter()
            .filter_map(|node| match &node.op {
                Op::Constant(t) if t.shape().len() == 2 => Some(t),
                _ => None,
            })
            .collect();
        let kernel_ns = replay_ns(&mut || {
            let mut x = Tensor::full(&[8, weights[0].shape()[0]], 0.1);
            for w in &weights {
                let bias = Tensor::zeros(&[w.shape()[1]]);
                x = kernels::matmul_bias_relu(&pool, &x, w, &bias, true)
                    .expect("layer shapes chain")
                    .0;
            }
            black_box(x);
        });
        layers.insert("core.classifier.classify_batch_ms", classify_ns[0] / 1e6);
        layers.insert("core.classifier.self_ms", (classify_ns[0] - run_ns) / 1e6);
        layers.insert("tflite.interpreter.run_ms", run_ns / 1e6);
        layers.insert("tflite.interpreter.self_ms", (run_ns - kernel_ns) / 1e6);
        if self.large {
            // One row executes two FLOPs per weight; the cost model is
            // charged the declared FLOPs of the real architecture.
            let executed: f64 = weights.iter().map(|w| 2.0 * w.len() as f64).sum();
            layers.insert(
                "calib.declared_over_executed_flops",
                model.declared_flops() / executed,
            );
        }

        // shield.net: a fresh attested pair and records of the sizes the
        // round moves (requests one way, label replies the other).
        let request = encode_request(&Request::new(1, self.inputs[0].clone()));
        let reply = encode_response(&Response::Label { id: 1, label: 1 });
        let frontend = gateway.classifier().enclave().clone();
        let t = Instant::now();
        let (mut server, mut client) = attested_pair(frontend);
        layers.insert("shield.net.handshake_ms", t.elapsed().as_secs_f64() * 1e3);
        let (mut send_ns, mut recv_ns) = (0u128, 0u128);
        let records = 2_000u32;
        for _ in 0..records {
            let t = Instant::now();
            client.send(&request).expect("send");
            server.send(&reply).expect("send");
            send_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            black_box(server.try_recv().expect("recv"));
            black_box(client.try_recv().expect("recv"));
            recv_ns += t.elapsed().as_nanos();
        }
        let send_ns = send_ns as f64 / f64::from(2 * records);
        let recv_ns = recv_ns as f64 / f64::from(2 * records);
        layers.insert("shield.net.send_us_per_record", send_ns / 1e3);
        layers.insert("shield.net.recv_us_per_record", recv_ns / 1e3);
        let record_bytes = (request.len() + reply.len()) as f64 / 2.0;
        layers.insert(
            "calib.net_model_over_measured",
            CostModel::default().shield_net_bytes_per_sec / (record_bytes / (send_ns / 1e9)),
        );

        // core.serving: the codec alone.
        let encode_req_ns = time_ns(1_000, 5, || {
            black_box(encode_request(&Request::new(1, self.inputs[0].clone())));
        });
        let decode_req_ns = time_ns(1_000, 5, || {
            black_box(decode_request(&request).expect("decode"));
        });
        let encode_resp_ns = time_ns(1_000, 5, || {
            black_box(encode_response(&Response::Label { id: 1, label: 1 }));
        });
        let decode_resp_ns = time_ns(1_000, 5, || {
            black_box(decode_response(&reply).expect("decode"));
        });
        layers.insert("core.serving.encode_request_us", encode_req_ns / 1e3);
        layers.insert("core.serving.decode_request_us", decode_req_ns / 1e3);
        layers.insert("core.serving.encode_response_us", encode_resp_ns / 1e3);
        layers.insert("core.serving.decode_response_us", decode_resp_ns / 1e3);

        // gateway: what is left of a pump round once the layers it
        // calls are taken out.
        let n = self.per_round() as f64;
        let peeled = n * (recv_ns + decode_req_ns + encode_resp_ns + send_ns)
            + classify_ns.iter().sum::<f64>();
        layers.insert(
            "gateway.self_us_per_request",
            (pump_ns_per_round - peeled) / n / 1e3,
        );

        // cas: one more attestation of the same service image.
        let prober = Platform::builder()
            .build()
            .create_enclave(
                &service_image(profile.runtime_bytes),
                ExecutionMode::Hardware,
            )
            .expect("probe enclave");
        let t = Instant::now();
        let quote = prober.quote(b"classifier:e2e").expect("quote");
        deployment
            .cas_mut()
            .attest_and_provision(&quote, SERVICE)
            .expect("attest");
        layers.insert("cas.attest_provision_ms", t.elapsed().as_secs_f64() * 1e3);

        probes::crypto(layers, &[request.len(), reply.len()]);
        probes::tee(
            layers,
            profile.cost_model(),
            profile.runtime_bytes,
            &[model_bytes],
            8.0,
        );
        probes::kernels(layers, &pool);
        probes::instruments(layers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> Cfg {
        Cfg {
            workload: "serve_small".into(),
            seed,
            smoke: true,
            ..Cfg::default()
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Serve::prepare(&cfg(5), false, None);
        let b = Serve::prepare(&cfg(5), false, None);
        let c = Serve::prepare(&cfg(6), false, None);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.reference, b.reference);
        assert_ne!(a.schedule, c.schedule);
        assert_ne!(a.inputs, c.inputs);
    }

    #[test]
    fn oracle_string_round_trips_into_prepare() {
        let oracle = Serve::oracle(&cfg(5), false);
        let from_parent = Serve::prepare(&cfg(5), false, Some(&oracle));
        assert_eq!(
            from_parent.reference,
            Serve::prepare(&cfg(5), false, None).reference
        );
        // One request in four carries a deadline.
        let with_deadline = from_parent.schedule.iter().filter(|p| p.deadline).count();
        let share = with_deadline as f64 / from_parent.schedule.len() as f64;
        assert!((0.15..0.35).contains(&share), "deadline share {share}");
    }
}
