//! `train_dist`: synchronous data-parallel training of a small conv net
//! on two workers and two parameter-server shards, int8 gradient codec
//! with overlapped exchange, and a journaled checkpoint every tenth
//! step.
//!
//! An op is one `DistributedTrainer::step`, plus the checkpoint when one
//! is due. One step in ten checkpoints (not one in twenty) so that p95
//! falls inside the checkpoint steps instead of on their edge.

use crate::harness::{
    median_call_ns, prime_host_memory, proc_status_kib, time_ns, Cfg, Epoch, Fingerprint, Layers,
    Workload,
};
use crate::probes;
use crate::spans::Tracer;
use rand::SeedableRng;
use securetf_data::Dataset;
use securetf_distrib::cluster::{Cluster, ClusterConfig, TRAINING_SERVICE};
use securetf_distrib::comm::CommConfig;
use securetf_distrib::trainer::DistributedTrainer;
use securetf_distrib::wire::{self, Codec};
use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_tee::{CostModel, EnclaveImage, ExecutionMode, Platform, SimClock, Telemetry};
use securetf_tensor::graph::Padding;
use securetf_tensor::kernels::{self, WorkerPool};
use securetf_tensor::layers::{self, Classifier};
use securetf_tensor::session::Session;
use securetf_tensor::tensor::Tensor;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 2000;
const BATCH: usize = 32;
const WORKERS: usize = 2;
const SHARDS: usize = 2;
const CONV_CHANNELS: usize = 16;
const CLASSES: usize = 10;
const CHECKPOINT_EVERY: usize = 10;
const CHECKPOINT_PATH: &str = "/checkpoints/model";

/// The training workload.
pub struct Train {
    threads: usize,
    prime_mib: f64,
    seed: u64,
    warm_steps: usize,
    timed_steps: usize,
    /// The serialized dataset, as a training job would find it on disk.
    dataset: Vec<u8>,
}

impl Train {
    /// Generates the dataset from `cfg.seed`.
    pub fn prepare(cfg: &Cfg) -> Train {
        let timed_steps = cfg.ops(100, CHECKPOINT_EVERY);
        Train {
            threads: cfg.threads(),
            prime_mib: cfg.prime_mib,
            seed: cfg.seed,
            warm_steps: (timed_steps / 20).max(1),
            timed_steps,
            dataset: securetf_data::synthetic_mnist(SAMPLES, cfg.seed).to_bytes(),
        }
    }

    fn model(&self) -> Classifier {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        layers::conv_classifier(28, 28, 1, CONV_CHANNELS, CLASSES, &mut rng).expect("model")
    }
}

impl Workload for Train {
    fn epoch(&mut self, tracer: &mut Tracer, layers: Option<&mut Layers>) -> Epoch {
        let traced = layers.is_some();
        let t_setup = Instant::now();
        tracer.set_op(0);
        tracer.enter("setup");
        let telemetry = if traced {
            Telemetry::new(Arc::new(SimClock::new()))
        } else {
            Telemetry::disabled()
        };
        tracer.enter("setup.data.from_bytes");
        let data = Dataset::from_bytes(&self.dataset).expect("dataset round trip");
        tracer.exit();
        tracer.enter("setup.distrib.cluster");
        let config = ClusterConfig {
            workers: WORKERS,
            parameter_servers: SHARDS,
            mode: ExecutionMode::Hardware,
            network_shield: true,
            telemetry: telemetry.clone(),
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(config.clone()).expect("cluster");
        tracer.exit();
        let pool = WorkerPool::new(self.threads);
        let mut trainer =
            DistributedTrainer::new(cluster, self.model(), data, BATCH, 0.05).expect("trainer");
        trainer.set_comm_config(CommConfig {
            codec: Codec::Quantized,
            overlap: true,
        });
        trainer.set_worker_pool(pool);
        let store = UntrustedStore::new();
        let mut fs = FsShield::new(trainer.cluster().ps.enclave.clone(), store.clone());
        fs.set_worker_pool(pool);

        let mut failed = 0u64;
        let mut fingerprint = Fingerprint::default();
        let mut last_checkpoint = Vec::new();
        let mut step = |i: usize,
                        trainer: &mut DistributedTrainer,
                        tracer: &mut Tracer,
                        fingerprint: &mut Fingerprint|
         -> bool {
            tracer.enter("distrib.trainer.step");
            let loss = trainer.step();
            tracer.exit();
            let mut ok = match loss {
                Ok(loss) => {
                    fingerprint.add(u64::from(loss.to_bits()));
                    loss.is_finite()
                }
                Err(_) => false,
            };
            if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 {
                tracer.enter("distrib.trainer.checkpoint_bytes");
                let bytes = trainer.checkpoint_bytes(CHECKPOINT_PATH);
                tracer.exit();
                tracer.enter("shield.fs.write");
                ok &= match bytes {
                    Ok(bytes) => {
                        fingerprint.add_bytes(&bytes);
                        let wrote = fs.write(CHECKPOINT_PATH, &bytes).is_ok();
                        last_checkpoint = bytes;
                        wrote
                    }
                    Err(_) => false,
                };
                tracer.exit();
            }
            ok
        };

        tracer.enter("setup.warmup");
        tracer.pause(true);
        for i in 0..self.warm_steps {
            if !step(i, &mut trainer, tracer, &mut fingerprint) {
                failed += 1;
            }
        }
        tracer.pause(false);
        tracer.exit();
        tracer.exit();
        let setup_s = t_setup.elapsed().as_secs_f64();
        prime_host_memory(self.prime_mib);

        let before = telemetry.metrics();
        let comm_before = trainer.comm_stats();
        let host_ops_before = store.op_count();
        let v0 = trainer.elapsed_ns();
        let mut latencies = Vec::with_capacity(self.timed_steps);
        let t0 = Instant::now();
        for i in 0..self.timed_steps {
            tracer.set_op(i as u32);
            tracer.enter("op");
            let t = Instant::now();
            if !step(i, &mut trainer, tracer, &mut fingerprint) {
                failed += 1;
            }
            latencies.push(t.elapsed().as_nanos() as u64);
            tracer.exit();
        }
        let timed_s = t0.elapsed().as_secs_f64();
        let virtual_ns = trainer.elapsed_ns() - v0;
        let after = telemetry.metrics();

        // The last checkpoint must read back exactly as written.
        if fs.read(CHECKPOINT_PATH).ok().as_deref() != Some(&last_checkpoint[..]) {
            failed += 1;
        }

        if let Some(layers) = layers {
            let steps = self.timed_steps as f64;
            let checkpoints = (self.timed_steps / CHECKPOINT_EVERY) as f64;
            let spans = tracer.by_name();
            let busy = |name: &str| spans.get(name).map_or(0.0, |l| l.busy_ns as f64);
            layers.insert(
                "distrib.trainer.step_ms",
                busy("distrib.trainer.step") / steps / 1e6,
            );
            layers.insert(
                "distrib.trainer.checkpoint_ms",
                (busy("distrib.trainer.checkpoint_bytes") + busy("shield.fs.write"))
                    / checkpoints
                    / 1e6,
            );
            layers.insert("data.from_bytes_ms", busy("setup.data.from_bytes") / 1e6);
            layers.insert(
                "harness.samples_per_s",
                steps * (BATCH * WORKERS) as f64 / timed_s,
            );

            let comm = trainer.comm_stats();
            let sent = (comm.bytes_sent - comm_before.bytes_sent) as f64;
            let saved = (comm.bytes_saved - comm_before.bytes_saved) as f64;
            layers.insert("distrib.comm.bytes_sent_per_step", sent / steps);
            layers.insert("distrib.comm.compression_ratio", (sent + saved) / sent);
            layers.insert(
                "distrib.comm.exposed_ns_per_step",
                (comm.comm_ns - comm_before.comm_ns) as f64 / steps,
            );
            layers.insert(
                "distrib.comm.hidden_ns_per_step",
                (comm.overlap_hidden_ns - comm_before.overlap_hidden_ns) as f64 / steps,
            );

            probes::tee_counts(layers, &before, &after, steps);
            let count = |name: &str| probes::counter_delta(&before, &after, name);
            layers.insert(
                "tensor.kernels.flops_per_op",
                count("kernel.pool.total_flops") / steps,
            );
            layers.insert(
                "tensor.kernels.critical_flops_per_op",
                count("kernel.pool.critical_flops") / steps,
            );
            layers.insert(
                "shield.fs.host_ops_per_write",
                (store.op_count() - host_ops_before) as f64 / checkpoints,
            );
            layers.insert(
                "shield.fs.journal_commits_per_write",
                count("shield.fs.journal_commits") / checkpoints,
            );
            layers.insert(
                "shield.fs.aborted_writes",
                count("shield.fs.aborted_writes"),
            );
            layers.insert(
                "shield.fs.tamper_rejections",
                count("shield.fs.tamper_rejections"),
            );
            layers.insert(
                "cas.attestations",
                trainer.cluster().attestations_served() as f64,
            );

            self.replay(layers, &mut trainer, &config, pool, last_checkpoint.len());
        }

        tracer.enter("teardown");
        drop(fs);
        drop(trainer);
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

impl Train {
    /// Peels a step apart: the same batch through a stand-alone
    /// `Session::gradients` (the call each worker makes), the same
    /// shapes through the conv and GEMM kernels, the same tensors
    /// through the wire codec, the same batch size through the dataset.
    fn replay(
        &self,
        layers: &mut Layers,
        trainer: &mut DistributedTrainer,
        config: &ClusterConfig,
        pool: WorkerPool,
        checkpoint_len: usize,
    ) {
        let model = self.model();
        let data = Dataset::from_bytes(&self.dataset).expect("dataset round trip");
        let (x, y) = data.batch_nhwc(0, BATCH).expect("batch");
        let batch_ns = time_ns(200, 10, || {
            black_box(data.batch_nhwc(0, BATCH).expect("batch"));
        });
        layers.insert("data.batch_us", batch_ns / 1e3);

        // tensor.session: the first call compiles and plans, the rest run.
        let mut session = Session::new(&model.graph);
        session.set_worker_pool(pool);
        let feeds = [(model.input, x.clone()), (model.labels, y)];
        let t = Instant::now();
        session
            .gradients(&model.graph, &feeds, model.loss)
            .expect("gradients");
        let first_ns = t.elapsed().as_nanos() as f64;
        let rss0 = proc_status_kib("VmRSS");
        let iters = 10;
        let session_ns = median_call_ns(iters, || {
            black_box(
                session
                    .gradients(&model.graph, &feeds, model.loss)
                    .expect("gradients"),
            );
        });
        layers.insert(
            "tensor.session.rss_kib_per_step",
            (proc_status_kib("VmRSS") - rss0) / f64::from(iters),
        );
        layers.insert("tensor.session.train_step_ms", session_ns / 1e6);
        layers.insert(
            "tensor.passes.compile_ms",
            (first_ns - session_ns).max(0.0) / 1e6,
        );
        layers.insert(
            "tensor.memory.planned_peak_bytes",
            session.planned_peak_bytes().unwrap_or(0) as f64,
        );
        layers.insert(
            "tensor.passes.nodes_fused",
            session.pipeline_report().map_or(0, |r| r.nodes_fused()) as f64,
        );

        // tensor.kernels at the training shapes.
        let filter = Tensor::full(&[3, 3, 1, CONV_CHANNELS], 0.01);
        let grad = Tensor::full(&[BATCH, 28, 28, CONV_CHANNELS], 0.01);
        let fwd_ns = median_call_ns(iters, || {
            black_box(kernels::conv2d(&pool, &x, &filter, Padding::Same).expect("conv"));
        });
        let grad_ns = median_call_ns(iters, || {
            black_box(
                kernels::conv2d_grad(&pool, &x, &filter, &grad, Padding::Same).expect("conv"),
            );
        });
        let flat = 14 * 14 * CONV_CHANNELS;
        let dense = [
            (
                Tensor::full(&[BATCH, flat], 0.1),
                Tensor::full(&[flat, CLASSES], 0.1),
            ),
            (
                Tensor::full(&[flat, BATCH], 0.1),
                Tensor::full(&[BATCH, CLASSES], 0.1),
            ),
            (
                Tensor::full(&[BATCH, CLASSES], 0.1),
                Tensor::full(&[CLASSES, flat], 0.1),
            ),
        ];
        let dense_ns = median_call_ns(iters, || {
            for (a, b) in &dense {
                black_box(kernels::matmul(&pool, a, b).expect("matmul"));
            }
        });
        layers.insert("tensor.kernels.conv2d_fwd_ms", fwd_ns / 1e6);
        layers.insert("tensor.kernels.conv2d_grad_ms", grad_ns / 1e6);
        layers.insert(
            "tensor.session.self_ms",
            (session_ns - fwd_ns - grad_ns - dense_ns) / 1e6,
        );

        // distrib.wire: one worker's push, int8-coded and decoded again.
        let entries: Vec<(u32, Tensor)> = trainer
            .ps_session()
            .variables()
            .into_iter()
            .map(|(id, t)| (id.index() as u32, t.clone()))
            .collect();
        let dense_bytes = wire::dense_frame_len(&entries) as f64;
        let frame = wire::encode_frame(&entries, Codec::Quantized);
        let encode_ns = time_ns(8, 10, || {
            black_box(wire::encode_frame(&entries, Codec::Quantized));
        });
        let decode_ns = time_ns(8, 10, || {
            black_box(wire::decode_frame(&frame).expect("own frame decodes"));
        });
        const MIB: f64 = 1024.0 * 1024.0;
        layers.insert(
            "distrib.wire.encode_mib_s",
            dense_bytes / (encode_ns / 1e9) / MIB,
        );
        layers.insert(
            "distrib.wire.decode_mib_s",
            dense_bytes / (decode_ns / 1e9) / MIB,
        );
        // What is left of a step once each worker's session run and each
        // push's encode and decode are taken out.
        let step_ns = layers["distrib.trainer.step_ms"] * 1e6;
        layers.insert(
            "distrib.trainer.self_ms",
            (step_ns - WORKERS as f64 * (session_ns + encode_ns + decode_ns)) / 1e6,
        );

        // cas: one more worker attestation.
        let image = EnclaveImage::builder()
            .code(b"securetf-training-worker-v1")
            .name("worker")
            .runtime_bytes(config.runtime_bytes)
            .heap_bytes(config.heap_bytes)
            .build();
        let prober = Platform::builder()
            .build()
            .create_enclave(&image, ExecutionMode::Hardware)
            .expect("probe enclave");
        let t = Instant::now();
        let quote = prober.quote(b"worker:probe").expect("quote");
        trainer
            .cluster_mut()
            .cas_mut()
            .attest_and_provision(&quote, TRAINING_SERVICE)
            .expect("attest");
        layers.insert("cas.attest_provision_ms", t.elapsed().as_secs_f64() * 1e3);

        let param_bytes = trainer.ps_session().param_bytes();
        probes::crypto(layers, &[frame.len(), checkpoint_len]);
        probes::tee(
            layers,
            CostModel::default(),
            config.runtime_bytes,
            &[param_bytes, session.stats().activation_bytes.max(1)],
            1.0 / WORKERS as f64,
        );
        probes::kernels(layers, &pool);
        probes::instruments(layers);
    }
}
