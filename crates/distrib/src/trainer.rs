//! Synchronous data-parallel training with a parameter server (§5.4).
//!
//! Each step: every live worker pulls the current weights, computes
//! gradients on its own batch, and pushes them to the parameter server,
//! which averages and applies the update. The latency model follows the
//! deployment:
//!
//! * worker gradient computation runs **in parallel** across nodes (the
//!   step takes the slowest worker, including that node's own EPC paging),
//! * variables are range-partitioned across the PS shards; each shard's
//!   NIC serializes its own transfers, and the shards drain in parallel,
//! * with overlap enabled (the default), gradient chunks are pushed as
//!   each backward segment completes, hiding transfer time under the
//!   remaining compute ([`crate::comm::schedule`]),
//! * the network shield adds record-processing cost at both endpoints,
//!   charged on the (possibly compressed) wire length,
//! * under the shielded runtime, multi-threaded training compute pays the
//!   scheduler slowdown the paper reports (§5.4).
//!
//! Neither overlap nor sharding changes the training math: gradients are
//! applied per variable in worker-index order whatever the arrival
//! order, so the applied update is bit-identical across comm settings.
//!
//! A checkpoint of the global model is `freeze`'s plaintext `STFC1`
//! snapshot of the PS variables, as `SecureSession` writes. The trainer
//! seals nothing: the supervisor writes the checkpoint through the fs
//! shield, the one layer that encrypts enclave state for the host.

use crate::cluster::{Cluster, ClusterNode};
use crate::comm::{self, Chunk, CommConfig, CommMetrics, CommStats};
use crate::wire::{self, Codec, Quantized};
use crate::DistribError;
use securetf_data::Dataset;
use securetf_tee::{CostCategory, CostModel, ExecutionMode, RegionId};
use securetf_tensor::freeze;
use securetf_tensor::graph::{Graph, NodeId, Op};
use securetf_tensor::kernels::WorkerPool;
use securetf_tensor::layers::Classifier;
use securetf_tensor::session::Session;
use securetf_tensor::tensor::Tensor;
use securetf_tensor::TensorError;
use std::collections::HashMap;

/// Outcome of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Steps executed.
    pub steps: u64,
    /// Loss after the final step (averaged over workers).
    pub final_loss: f32,
    /// End-to-end virtual time of the run, nanoseconds.
    pub elapsed_ns: u64,
    /// Samples processed across all workers.
    pub samples: u64,
}

impl TrainReport {
    /// Training throughput in samples per virtual second.
    pub fn samples_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.samples as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

struct WorkerState {
    session: Session,
    cursor: usize,
    /// The enclave these regions belong to; a respawned node gets a fresh
    /// enclave, which invalidates the old state.
    enclave: std::sync::Arc<securetf_tee::Enclave>,
    params_region: RegionId,
    activations_region: RegionId,
    /// Error-feedback residuals left by quantized pushes, per variable.
    /// A respawned worker starts with empty residuals (state rebuilt).
    residuals: HashMap<u32, Tensor>,
}

impl WorkerState {
    /// The state of a worker that has computed nothing yet on `node`'s
    /// current enclave: at start, on joining, and after a respawn.
    fn fresh(node: &ClusterNode, graph: &Graph, pool: WorkerPool, param_bytes: u64) -> Self {
        let mut session = Session::new(graph);
        session.set_worker_pool(pool);
        WorkerState {
            session,
            cursor: 0,
            enclave: node.enclave.clone(),
            params_region: node.enclave.alloc("params", param_bytes),
            activations_region: node.enclave.alloc("activations", 1),
            residuals: HashMap::new(),
        }
    }
}

/// One worker's encoded gradient push for a step: the wire frames, plus
/// chunk timings when the exchange is overlapped (one chunk per frame,
/// same order).
struct Push {
    frames: Vec<Vec<u8>>,
    chunks: Vec<Chunk>,
}

/// What every worker of one step reads and none writes.
struct StepContext<'a> {
    model: &'a Classifier,
    data: &'a Dataset,
    batch: usize,
    cost: &'a CostModel,
    /// Whether the network shield processes records on this cluster.
    shield: bool,
    sched_slowdown: f64,
    /// Bytes of this step's weight broadcast, summed over the shards.
    weight_bytes: u64,
    comm: CommConfig,
    ps_count: usize,
    shard_of: &'a HashMap<u32, usize>,
}

/// What one worker hands to the exchange and the step's accounting.
struct WorkerOutput {
    loss: f32,
    push: Push,
    /// What `push.frames` would weigh uncompressed.
    push_dense_bytes: u64,
    /// The worker's compute phase on its own clock.
    elapsed_ns: u64,
}

impl StepContext<'_> {
    /// One worker's share of a step, on `node`'s own clock: batch fetch,
    /// gradients, compute and paging charges, error feedback, and the
    /// encoded push with its chunk timings. Touches nothing but `state`
    /// and `node`, so workers can run side by side.
    fn run_worker(
        &self,
        state: &mut WorkerState,
        node: &ClusterNode,
    ) -> Result<WorkerOutput, DistribError> {
        let codec = self.comm.codec;
        let clock = node.clock().clone();
        let t0 = clock.now_ns();
        if self.shield {
            // Worker-side record processing of the weight broadcast.
            let ns = self.cost.shield_net_ns(self.weight_bytes);
            node.enclave.spend(CostCategory::Network, ns);
        }

        // Fetch this worker's batch (wraps around its shard).
        if state.cursor + self.batch > self.data.len() {
            state.cursor = 0;
        }
        let cursor = state.cursor;
        state.cursor += self.batch;
        let (x, y) = batch_for_model(self.model, self.data, cursor, self.batch)?;
        node.enclave.charge_syscall(); // input read
        let pre_ns = clock.now_ns() - t0;

        state.session.reset_stats();
        let (loss, grads) = state.session.gradients(
            &self.model.graph,
            &[(self.model.input, x), (self.model.labels, y)],
            self.model.loss,
        )?;
        let stats = state.session.stats();
        // Virtual time advances by the pool's critical path (equal to
        // total flops when the session runs serial kernels).
        node.enclave.charge_parallel_compute(
            stats.flops * self.sched_slowdown,
            stats.critical_flops * self.sched_slowdown,
        );

        // Memory traffic: parameters + activations, through the EPC.
        node.enclave.touch_all(state.params_region)?;
        let act_bytes = stats.activation_bytes.max(1);
        node.enclave.free(state.activations_region)?;
        state.activations_region = node.enclave.alloc("activations", act_bytes);
        node.enclave.touch_all(state.activations_region)?;
        let compute_end = clock.now_ns() - t0;

        // The backward pass produces the last layer's gradients
        // first: descending variable id. This fixed order also pins
        // the PS apply order, so results are bit-identical whatever
        // the wire schedule.
        let mut message: Vec<(u32, Tensor)> = grads
            .into_iter()
            .map(|(id, g)| (id.index() as u32, g))
            .collect();
        message.sort_by_key(|e| std::cmp::Reverse(e.0));

        // Error feedback: fold the residual the quantizer dropped
        // last step into this step's gradient, in place, then keep the
        // new drop in the same residual buffer. The residual is derived
        // from the decoder's exact arithmetic (q * scale), so worker
        // and PS agree bit-for-bit on what was transmitted. Each
        // gradient is quantized once, here; the frames below carry
        // these values.
        let mut entries: Vec<(u32, Tensor)> = Vec::with_capacity(message.len());
        let mut quantized: Vec<Quantized> = Vec::new();
        for (raw, mut grad) in message {
            if codec == Codec::Quantized {
                let q = match state.residuals.get_mut(&raw) {
                    Some(residual) => {
                        if residual.shape() != grad.shape() {
                            return Err(TensorError::ShapeMismatch {
                                op: "error_feedback",
                                detail: format!(
                                    "residual {:?} vs gradient {:?}",
                                    residual.shape(),
                                    grad.shape()
                                ),
                            }
                            .into());
                        }
                        wire::quantize_with_feedback(grad.data_mut(), residual.data_mut())
                    }
                    None => {
                        let (q, residual) = wire::quantize_with_residual(grad.data());
                        state
                            .residuals
                            .insert(raw, Tensor::from_vec(grad.shape(), residual)?);
                        q
                    }
                };
                quantized.push(q);
            }
            entries.push((raw, grad));
        }

        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut chunks: Vec<Chunk> = Vec::new();
        let mut push_dense_bytes = 0u64;
        if self.comm.overlap {
            // Chunk i becomes ready after a byte-proportional share
            // of the backward compute; sealing runs on the shield's
            // async syscall threads, so it overlaps the remaining
            // compute (the schedule below serializes it per worker).
            let total_bytes: u64 = entries
                .iter()
                .map(|(_, t)| t.byte_len().max(1))
                .sum::<u64>()
                .max(1);
            let compute_ns = compute_end - pre_ns;
            let mut cum = 0u64;
            for (i, entry) in entries.iter().enumerate() {
                cum += entry.1.byte_len().max(1);
                let ready = pre_ns
                    + ((u128::from(compute_ns) * u128::from(cum)) / u128::from(total_bytes)) as u64;
                let frame = push_frame(&[(entry.0, &entry.1)], quantized.get(i).as_slice());
                let len = frame.len() as u64;
                chunks.push(Chunk {
                    shard: self.shard_of[&entry.0],
                    ready_ns: ready,
                    seal_ns: if self.shield {
                        self.cost.shield_net_ns(len)
                    } else {
                        0
                    },
                    transfer_ns: self.cost.lan_transfer_ns(len),
                    ps_shield_ns: if self.shield {
                        self.cost.shield_net_ns(len)
                    } else {
                        0
                    },
                });
                push_dense_bytes += wire::dense_frame_len(std::slice::from_ref(entry));
                frames.push(frame);
            }
        } else {
            // Barrier: the worker pushes only after its full
            // backward pass — one joined frame per owning shard,
            // sealed on the same async shield threads. Only chunk
            // granularity and readiness differ from the overlapped
            // path; the NIC physics are identical.
            for s in 0..self.ps_count {
                let owned: Vec<usize> = (0..entries.len())
                    .filter(|&i| self.shard_of[&entries[i].0] == s)
                    .collect();
                if owned.is_empty() {
                    continue;
                }
                let shard_entries: Vec<(u32, &Tensor)> = owned
                    .iter()
                    .map(|&i| (entries[i].0, &entries[i].1))
                    .collect();
                let shard_quantized: Vec<&Quantized> =
                    owned.iter().filter_map(|&i| quantized.get(i)).collect();
                let frame = push_frame(&shard_entries, &shard_quantized);
                let len = frame.len() as u64;
                chunks.push(Chunk {
                    shard: s,
                    ready_ns: compute_end,
                    seal_ns: if self.shield {
                        self.cost.shield_net_ns(len)
                    } else {
                        0
                    },
                    transfer_ns: self.cost.lan_transfer_ns(len),
                    ps_shield_ns: if self.shield {
                        self.cost.shield_net_ns(len)
                    } else {
                        0
                    },
                });
                push_dense_bytes += wire::dense_frame_len_of(shard_entries.iter().map(|e| e.1));
                frames.push(frame);
            }
        }
        Ok(WorkerOutput {
            loss,
            push_dense_bytes,
            push: Push { frames, chunks },
            elapsed_ns: clock.now_ns() - t0,
        })
    }
}

/// The push frame of `entries`: `quantized` holds their int8 forms, in
/// order, under the quantized codec and nothing under the dense one.
fn push_frame(entries: &[(u32, &Tensor)], quantized: &[&Quantized]) -> Vec<u8> {
    if quantized.is_empty() {
        return wire::encode_dense_frame(entries);
    }
    let entries: Vec<_> = entries
        .iter()
        .zip(quantized)
        .map(|(&(id, tensor), q)| (id, tensor, *q))
        .collect();
    wire::encode_quantized_frame(&entries)
}

/// Fetches a batch shaped for the model's input placeholder (flat for
/// MLPs, NHWC for convolutional models).
fn batch_for_model(
    model: &Classifier,
    data: &Dataset,
    start: usize,
    n: usize,
) -> Result<(Tensor, Tensor), DistribError> {
    let wants_nhwc = matches!(
        &model.graph.nodes()[model.input.index()].op,
        Op::Placeholder { shape } if shape.len() == 4
    );
    if wants_nhwc {
        Ok(data.batch_nhwc(start, n)?)
    } else {
        Ok(data.batch(start, n)?)
    }
}

/// Drives synchronous data-parallel training over a [`Cluster`].
pub struct DistributedTrainer {
    cluster: Cluster,
    model: Classifier,
    data: Dataset,
    batch: usize,
    lr: f32,
    ps_session: Session,
    ps_params_region: RegionId,
    workers: Vec<WorkerState>,
    pool: WorkerPool,
    comm: CommConfig,
    comm_stats: CommStats,
    comm_metrics: CommMetrics,
    /// The steps' broadcast and exchange time; [`Self::elapsed_ns`] adds
    /// all PS-clock time since `ps_start_ns`.
    global_ns: u64,
    ps_start_ns: u64,
    steps: u64,
    samples: u64,
}

impl std::fmt::Debug for DistributedTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedTrainer")
            .field("workers", &self.workers.len())
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl DistributedTrainer {
    /// Creates a trainer for `model` over `cluster`, sharding `data`
    /// among workers.
    ///
    /// # Errors
    ///
    /// Returns TEE errors from region allocation.
    pub fn new(
        cluster: Cluster,
        model: Classifier,
        data: Dataset,
        batch: usize,
        lr: f32,
    ) -> Result<Self, DistribError> {
        let ps_session = Session::new(&model.graph);
        let param_bytes = ps_session.param_bytes();
        let ps_params_region = cluster.ps.enclave.alloc("ps-params", param_bytes);
        let pool = WorkerPool::serial();
        let workers = cluster
            .workers
            .iter()
            .map(|node| WorkerState::fresh(node, &model.graph, pool, param_bytes))
            .collect();
        let comm_metrics = CommMetrics::new(&cluster.config().telemetry);
        Ok(DistributedTrainer {
            ps_start_ns: cluster.ps.clock().now_ns(),
            cluster,
            model,
            data,
            batch,
            lr,
            ps_session,
            ps_params_region,
            workers,
            pool,
            comm: CommConfig::default(),
            comm_stats: CommStats::default(),
            comm_metrics,
            global_ns: 0,
            steps: 0,
            samples: 0,
        })
    }

    /// Selects the wire codec and overlap behavior for subsequent steps.
    /// Changing the codec resets workers' error-feedback residuals.
    pub fn set_comm_config(&mut self, comm: CommConfig) {
        if comm.codec != self.comm.codec {
            for state in &mut self.workers {
                state.residuals.clear();
            }
        }
        self.comm = comm;
    }

    /// The active communication configuration.
    pub fn comm_config(&self) -> CommConfig {
        self.comm
    }

    /// Cumulative communication accounting (bytes on the wire, bytes
    /// saved by the codec, exposed vs hidden comm time).
    pub fn comm_stats(&self) -> CommStats {
        self.comm_stats
    }

    /// Sets the in-enclave worker pool every session's kernels run on —
    /// the parameter server, current workers, and any worker respawned or
    /// joined later. Training results are bit-identical for any pool; only
    /// the per-step virtual compute time shrinks.
    pub fn set_worker_pool(&mut self, pool: WorkerPool) {
        self.pool = pool;
        self.ps_session.set_worker_pool(pool);
        for state in &mut self.workers {
            state.session.set_worker_pool(pool);
        }
    }

    fn sync_worker_states(&mut self) {
        let param_bytes = self.ps_session.param_bytes();
        let fresh = |node: &ClusterNode| {
            WorkerState::fresh(node, &self.model.graph, self.pool, param_bytes)
        };
        // Respawned workers run in fresh enclaves; rebuild their state.
        for (state, node) in self.workers.iter_mut().zip(&self.cluster.workers) {
            if !std::sync::Arc::ptr_eq(&state.enclave, &node.enclave) {
                *state = fresh(node);
            }
        }
        // New workers may have joined the cluster (elastic scaling).
        let joined = self.cluster.workers.iter().skip(self.workers.len());
        self.workers.extend(joined.map(fresh));
    }

    /// Runs one synchronous training step across all live workers.
    /// Returns the mean worker loss.
    ///
    /// # Errors
    ///
    /// * [`DistribError::NoWorkers`] if every worker has failed.
    /// * Execution/TEE errors otherwise.
    pub fn step(&mut self) -> Result<f32, DistribError> {
        self.sync_worker_states();
        let live = self.cluster.live_workers();
        if live.is_empty() {
            return Err(DistribError::NoWorkers);
        }
        let mode = self.cluster.config().mode;
        let shield = self.cluster.config().network_shield && mode.has_runtime();
        let model = self.cluster.ps.platform.cost_model().clone();
        let sched_slowdown = if mode.has_runtime() {
            model.runtime_sched_slowdown
        } else {
            1.0
        };
        let telemetry = self.cluster.config().telemetry.clone();
        let _step_span = telemetry.span("distrib.step");

        let ps_count = self.cluster.parameter_server_count();
        let live_count = live.len() as u64;

        // Shard ownership: contiguous byte-balanced ranges over the
        // variables in id order — stable across steps for a fixed model.
        let var_meta: Vec<(u32, u64)> = self
            .ps_session
            .variables()
            .iter()
            .map(|(id, t)| (id.index() as u32, t.byte_len()))
            .collect();
        let sizes: Vec<u64> = var_meta.iter().map(|&(_, b)| b).collect();
        let shard_index = comm::partition_by_bytes(&sizes, ps_count);
        let shard_of: HashMap<u32, usize> = var_meta
            .iter()
            .map(|&(raw, _)| raw)
            .zip(shard_index.iter().copied())
            .collect();
        let mut shard_counts = vec![0usize; ps_count];
        for &s in &shard_index {
            shard_counts[s] += 1;
        }

        // 1. Broadcast current weights: one dense frame per shard,
        //    encoded from the PS variables. The broadcast stays dense —
        //    workers must hold the exact global model.
        let broadcast_span = telemetry.span("distrib.broadcast");
        let variables = self.ps_session.variables();
        let shard_frames: Vec<Vec<u8>> = (0..ps_count)
            .map(|s| {
                let entries: Vec<(u32, &Tensor)> = variables
                    .iter()
                    .zip(&shard_index)
                    .filter(|(_, &si)| si == s)
                    .map(|(&(id, t), _)| (id.index() as u32, t))
                    .collect();
                wire::encode_dense_frame(&entries)
            })
            .collect();
        // Each shard's NIC serializes the LAN send of its frame to every
        // live worker; the per-link record sealing runs on the shield's
        // async crypto threads (one per link), so a single record-
        // processing term sits on the critical path before the first
        // send. Shards transmit in parallel, so the broadcast takes the
        // slowest shard. Workers decrypt their own copy on their own
        // clock (charged in the compute phase below).
        let mut broadcast_ns = 0u64;
        let mut weight_bytes_total = 0u64;
        for (s, frame) in shard_frames.iter().enumerate() {
            if shard_counts[s] == 0 {
                continue;
            }
            weight_bytes_total += frame.len() as u64;
            let mut nic = live_count * model.lan_transfer_ns(frame.len() as u64);
            if shield {
                nic += model.shield_net_ns(frame.len() as u64);
            }
            broadcast_ns = broadcast_ns.max(nic);
        }
        // Decode each shard frame ONCE; install into every worker by
        // cloning the decoded tensors (not by re-decoding the bytes).
        let mut decoded_weights: Vec<(NodeId, Tensor)> = Vec::with_capacity(var_meta.len());
        for (s, frame) in shard_frames.iter().enumerate() {
            if shard_counts[s] == 0 {
                continue;
            }
            for (raw_id, tensor) in wire::decode_frame(frame)? {
                let id = self
                    .model
                    .graph
                    .node_id(raw_id as usize)
                    .ok_or(DistribError::BadMessage("unknown variable"))?;
                decoded_weights.push((id, tensor));
            }
        }
        for &w in &live {
            let state = &mut self.workers[w];
            for (id, tensor) in &decoded_weights {
                state.session.set_variable(*id, tensor.clone())?;
            }
        }
        drop(broadcast_span);

        // 2. Gradient computation, the live workers side by side on the
        //    pool (fig. 8: only the parameter-server link serializes);
        //    the step takes the slowest worker, each on its own clock, so
        //    paging is node-local. Each worker's kernels find the crew
        //    leased and run inline. The outputs are folded in worker-index
        //    order, so the sums — and which error a step with several
        //    failing workers returns — do not depend on who finished
        //    first.
        let compute_span = telemetry.span("distrib.compute");
        let context = StepContext {
            model: &self.model,
            data: &self.data,
            batch: self.batch,
            cost: &model,
            shield,
            sched_slowdown,
            weight_bytes: weight_bytes_total,
            comm: self.comm,
            ps_count,
            shard_of: &shard_of,
        };
        let mut runs: Vec<_> = self
            .workers
            .iter_mut()
            .zip(&self.cluster.workers)
            .filter(|(_, node)| node.alive)
            .map(|(state, node)| (state, node, None))
            .collect();
        self.pool.run_items(&mut runs, &|_, (state, node, output)| {
            *output = Some(context.run_worker(state, node));
        });
        let mut max_worker_ns = 0u64;
        let mut pushes: Vec<Push> = Vec::with_capacity(runs.len());
        let mut loss_sum = 0.0f32;
        let mut push_bytes = 0u64;
        let mut push_dense_bytes = 0u64;
        for (_, _, output) in runs {
            let output = output.expect("run_items visits every item")?;
            loss_sum += output.loss;
            push_bytes += output
                .push
                .frames
                .iter()
                .map(|f| f.len() as u64)
                .sum::<u64>();
            push_dense_bytes += output.push_dense_bytes;
            max_worker_ns = max_worker_ns.max(output.elapsed_ns);
            pushes.push(output.push);
        }
        drop(compute_span);

        // 3. Gradient exchange: per-worker seal pipelines feed per-shard
        //    NIC queues, resolved deterministically. Overlapped chunks
        //    whose backward segment finished early land while the rest
        //    of the backward pass is still running; barrier frames all
        //    queue at compute end. `hidden` is the comm cost kept off
        //    the step's critical path — overlapped under compute or
        //    drained by parallel shard NICs.
        let exchange_span = telemetry.span("distrib.exchange");
        let per_worker: Vec<Vec<Chunk>> = pushes.iter().map(|p| p.chunks.clone()).collect();
        let outcome = comm::schedule(&per_worker, ps_count);
        let exchange_ns = outcome.done_ns.max(max_worker_ns);
        let exposed_comm_ns = exchange_ns.saturating_sub(max_worker_ns);
        let hidden_ns = outcome.serial_comm_ns.saturating_sub(exposed_comm_ns);
        drop(exchange_span);

        // 4. PS averages and applies (on the PS clock, which `elapsed_ns`
        //    counts whole). Messages are consumed in worker-index order
        //    regardless of arrival order, and entries within a message in
        //    their fixed descending-id order — the applied update is
        //    bit-identical across overlap/shard settings.
        let apply_span = telemetry.span("distrib.apply");
        let scale = self.lr / live.len() as f32;
        let mut param_flops = 0.0f64;
        for push in &pushes {
            // Every frame of the push is checked before any of it lands;
            // then each entry updates its variable where it lies.
            for entry in wire::read_frames(&push.frames)? {
                let id = self
                    .model
                    .graph
                    .node_id(entry.id() as usize)
                    .ok_or(DistribError::BadMessage("unknown variable"))?;
                let non_variable = || DistribError::BadMessage("gradient for non-variable");
                let shape = self
                    .ps_session
                    .variable(id)
                    .ok_or_else(non_variable)?
                    .shape();
                if shape != entry.shape() {
                    return Err(TensorError::ShapeMismatch {
                        op: "apply",
                        detail: format!("{shape:?} vs {:?}", entry.shape()),
                    }
                    .into());
                }
                let values = self
                    .ps_session
                    .variable_values_mut(id)
                    .ok_or_else(non_variable)?;
                entry.update(values, |v, g| v - scale * g);
                param_flops += 2.0 * values.len() as f64;
            }
        }
        // Shard application parallelizes across the PS nodes.
        self.cluster
            .ps
            .enclave
            .charge_compute(param_flops / ps_count as f64);
        self.cluster.ps.enclave.touch_all(self.ps_params_region)?;
        drop(apply_span);

        let comm_ns = broadcast_ns + exposed_comm_ns;
        self.global_ns += broadcast_ns + exchange_ns;
        self.steps += 1;
        self.samples += (self.batch * live.len()) as u64;

        telemetry.charge(CostCategory::Network, comm_ns);
        let bytes_sent = weight_bytes_total * live_count + push_bytes;
        let bytes_saved = push_dense_bytes.saturating_sub(push_bytes);
        self.comm_metrics.bytes_sent.add(bytes_sent);
        self.comm_metrics.bytes_saved.add(bytes_saved);
        if let Some(ratio) = (push_dense_bytes * 1000).checked_div(push_bytes) {
            self.comm_metrics.compression_ratio.set(ratio as i64);
        }
        self.comm_metrics.comm_ns.record(comm_ns);
        self.comm_metrics.overlap_hidden_ns.record(hidden_ns);
        self.comm_stats.bytes_sent += bytes_sent;
        self.comm_stats.bytes_saved += bytes_saved;
        self.comm_stats.comm_ns += comm_ns;
        self.comm_stats.overlap_hidden_ns += hidden_ns;
        Ok(loss_sum / live.len() as f32)
    }

    /// Runs `n` steps, returning the final report.
    ///
    /// # Errors
    ///
    /// Propagates [`DistributedTrainer::step`] errors.
    pub fn train_steps(&mut self, n: u64) -> Result<TrainReport, DistribError> {
        let mut last = f32::NAN;
        for _ in 0..n {
            last = self.step()?;
        }
        Ok(self.report(last))
    }

    fn report(&self, final_loss: f32) -> TrainReport {
        TrainReport {
            steps: self.steps,
            final_loss,
            elapsed_ns: self.elapsed_ns(),
            samples: self.samples,
        }
    }

    /// Evaluates classification accuracy of the parameter-server model.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn evaluate(&mut self, data: &Dataset) -> Result<f64, DistribError> {
        let (x, _) = batch_for_model(&self.model, data, 0, data.len())?;
        let out = self.ps_session.run(
            &self.model.graph,
            &[(self.model.input, x)],
            &[self.model.logits],
        )?;
        let preds = out[0].argmax_rows()?;
        let correct = preds
            .iter()
            .enumerate()
            .filter(|(i, &p)| data.label(*i) == Some(p))
            .count();
        Ok(correct as f64 / data.len() as f64)
    }

    /// The global model as a [`freeze::save_checkpoint`] plaintext, not
    /// written anywhere: the fs shield encrypts it on the way to the host,
    /// as it does every file an enclave stores (`Supervisor` writes it
    /// through one). `_path` is unused and the call never fails; both stay
    /// for existing callers.
    pub fn checkpoint_bytes(&self, _path: &str) -> Result<Vec<u8>, DistribError> {
        Ok(freeze::save_checkpoint(&self.model.graph, &self.ps_session))
    }

    /// Installs a checkpoint produced by
    /// [`DistributedTrainer::checkpoint_bytes`] as the global model.
    ///
    /// # Errors
    ///
    /// Returns the [`freeze::restore_checkpoint`] error if `bytes` are not
    /// a checkpoint of this model; nothing is installed then.
    pub fn restore_checkpoint_bytes(&mut self, bytes: &[u8]) -> Result<(), DistribError> {
        freeze::restore_checkpoint(&self.model.graph, &mut self.ps_session, bytes)?;
        Ok(())
    }

    /// The underlying cluster (for fault injection / elastic scaling).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The parameter-server session (current global model).
    pub fn ps_session(&self) -> &Session {
        &self.ps_session
    }

    /// The model under training.
    pub fn model(&self) -> &Classifier {
        &self.model
    }

    /// Total virtual time spent so far: the steps' broadcast and exchange
    /// plus everything charged to the PS clock — each step's apply, and
    /// the checkpoints, restores and supervision between steps.
    pub fn elapsed_ns(&self) -> u64 {
        self.global_ns + (self.cluster.ps.clock().now_ns() - self.ps_start_ns)
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Samples processed across all workers so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The execution mode of the cluster.
    pub fn mode(&self) -> ExecutionMode {
        self.cluster.config().mode
    }

    /// Convenience: variable node id from a raw index.
    pub fn variable_id(&self, raw: usize) -> Option<NodeId> {
        self.model.graph.node_id(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::faults::FaultPlan;
    use crate::supervisor::{Supervisor, SupervisorConfig};
    use rand::SeedableRng;
    use securetf_shield::fs::{FsShield, UntrustedStore};
    use securetf_tensor::layers;

    fn small_model() -> Classifier {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        layers::mlp_classifier(784, &[32], 10, &mut rng).unwrap()
    }

    fn config(workers: usize, mode: ExecutionMode, shield: bool) -> ClusterConfig {
        ClusterConfig {
            workers,
            parameter_servers: 1,
            mode,
            network_shield: shield,
            runtime_bytes: 8 * 1024 * 1024,
            heap_bytes: 16 * 1024 * 1024,
            ..ClusterConfig::default()
        }
    }

    fn trainer(workers: usize, mode: ExecutionMode, shield: bool) -> DistributedTrainer {
        let cluster = Cluster::new(config(workers, mode, shield)).unwrap();
        let data = securetf_data::synthetic_mnist(300, 5);
        DistributedTrainer::new(cluster, small_model(), data, 100, 0.2).unwrap()
    }

    #[test]
    fn a_checkpoint_between_steps_joins_the_composed_time() {
        // Two identical runs; only `with` writes a checkpoint between its
        // first and second step.
        let mut plain = trainer(2, ExecutionMode::Hardware, true);
        let mut with = trainer(2, ExecutionMode::Hardware, true);
        plain.step().unwrap();
        with.step().unwrap();
        let (plain0, with0) = (plain.elapsed_ns(), with.elapsed_ns());
        assert_eq!(plain0, with0);

        let ps_clock = with.cluster().ps.clock().clone();
        let t0 = ps_clock.now_ns();
        let bytes = with.checkpoint_bytes("/ckpt").unwrap();
        let mut fs = FsShield::new(with.cluster().ps.enclave.clone(), UntrustedStore::new());
        fs.write("/ckpt", &bytes).unwrap();
        let write_ns = ps_clock.now_ns() - t0;
        assert!(write_ns > 0);

        plain.step().unwrap();
        with.step().unwrap();
        let plain_step = plain.elapsed_ns() - plain0;
        assert_eq!(with.elapsed_ns() - with0, plain_step + write_ns);
    }

    #[test]
    fn training_reduces_loss() {
        let mut t = trainer(2, ExecutionMode::Simulation, true);
        let first = t.step().unwrap();
        let mut last = first;
        for _ in 0..15 {
            last = t.step().unwrap();
        }
        assert!(last < first, "{last} >= {first}");
    }

    #[test]
    fn accuracy_improves_over_training() {
        let mut t = trainer(2, ExecutionMode::Simulation, true);
        let test = securetf_data::synthetic_mnist(100, 99);
        let before = t.evaluate(&test).unwrap();
        t.train_steps(25).unwrap();
        let after = t.evaluate(&test).unwrap();
        assert!(after > before, "accuracy {before} -> {after}");
        assert!(after > 0.5, "accuracy only {after}");
    }

    #[test]
    fn more_workers_increase_throughput() {
        let r1 = trainer(1, ExecutionMode::Simulation, true)
            .train_steps(5)
            .unwrap();
        let r3 = trainer(3, ExecutionMode::Simulation, true)
            .train_steps(5)
            .unwrap();
        assert!(
            r3.samples_per_sec() > 1.4 * r1.samples_per_sec(),
            "1w {} vs 3w {}",
            r1.samples_per_sec(),
            r3.samples_per_sec()
        );
    }

    #[test]
    fn native_is_fastest_hw_slowest() {
        let native = trainer(1, ExecutionMode::Native, false)
            .train_steps(3)
            .unwrap();
        let sim = trainer(1, ExecutionMode::Simulation, true)
            .train_steps(3)
            .unwrap();
        let hw = trainer(1, ExecutionMode::Hardware, true)
            .train_steps(3)
            .unwrap();
        assert!(native.elapsed_ns < sim.elapsed_ns);
        assert!(sim.elapsed_ns < hw.elapsed_ns);
    }

    #[test]
    fn network_shield_costs_time() {
        let with = trainer(2, ExecutionMode::Simulation, true)
            .train_steps(3)
            .unwrap();
        let without = trainer(2, ExecutionMode::Simulation, false)
            .train_steps(3)
            .unwrap();
        assert!(with.elapsed_ns > without.elapsed_ns);
    }

    #[test]
    fn worker_failure_is_survived() {
        let mut t = trainer(3, ExecutionMode::Simulation, true);
        t.step().unwrap();
        t.cluster_mut().fail_worker(1).unwrap();
        let loss = t.step().unwrap();
        assert!(loss.is_finite());
        // All workers dead -> error.
        t.cluster_mut().fail_worker(0).unwrap();
        t.cluster_mut().fail_worker(2).unwrap();
        assert!(matches!(t.step(), Err(DistribError::NoWorkers)));
        // Respawn one and continue.
        t.cluster_mut().respawn_worker(0).unwrap();
        assert!(t.step().unwrap().is_finite());
    }

    #[test]
    fn elastic_worker_joins_mid_training() {
        let mut t = trainer(1, ExecutionMode::Simulation, true);
        t.step().unwrap();
        t.cluster_mut().add_worker().unwrap();
        let samples_before = t.samples;
        t.step().unwrap();
        assert_eq!(t.samples - samples_before, 200, "two workers × batch 100");
    }

    #[test]
    fn checkpoint_survives_full_cluster_replacement() {
        // Cluster A trains and checkpoints.
        let mut a = trainer(2, ExecutionMode::Hardware, true);
        let first = a.step().unwrap();
        for _ in 0..10 {
            a.step().unwrap();
        }
        let trained_loss = a.step().unwrap();
        assert!(trained_loss < first);
        let blob = a.checkpoint_bytes("/ckpt/global").unwrap();
        let saved_vars: Vec<Vec<f32>> = a
            .ps_session()
            .variables()
            .iter()
            .map(|(_, t)| t.data().to_vec())
            .collect();
        drop(a);

        // Cluster B: entirely new machines, same attested service.
        let mut b = trainer(2, ExecutionMode::Hardware, true);
        b.restore_checkpoint_bytes(&blob).unwrap();
        let restored_vars: Vec<Vec<f32>> = b
            .ps_session()
            .variables()
            .iter()
            .map(|(_, t)| t.data().to_vec())
            .collect();
        assert_eq!(saved_vars, restored_vars);
        // Training continues from the restored state.
        let resumed = b.step().unwrap();
        assert!(resumed < first, "resumed {resumed} vs cold start {first}");
    }

    /// A supervisor on a one-worker hardware cluster that has written
    /// two checkpoint generations, and their slot paths, older first.
    fn supervised_checkpoints() -> (Supervisor, UntrustedStore, [String; 2]) {
        let store = UntrustedStore::new();
        let config = SupervisorConfig {
            checkpoint_every: 1,
            ..SupervisorConfig::default()
        };
        let slots = ["0", "1"].map(|slot| format!("{}/gen-{slot}", config.checkpoint_path));
        let mut s = Supervisor::new(
            trainer(1, ExecutionMode::Hardware, true),
            FaultPlan::none(),
            config,
            store.clone(),
        )
        .unwrap();
        s.train_steps(1).unwrap();
        (s, store, slots)
    }

    #[test]
    fn tampered_checkpoint_rejected() {
        // The host edits the newest generation's object; a remounted
        // shield refuses it and still reads the older one.
        let (s, store, [older, newer]) = supervised_checkpoints();
        let enclave = s.trainer().cluster().ps.enclave.clone();
        let clean = store.snapshot();
        let blob = store.raw_contents(&newer).unwrap();
        let mut flipped = blob.clone();
        flipped[50] ^= 1;
        for (what, bytes) in [
            ("a flipped bit", flipped),
            ("a cut tail", blob[..blob.len() - 1].to_vec()),
            ("a 4-byte stub", blob[..4].to_vec()),
            (
                "the other slot's object",
                store.raw_contents(&older).unwrap(),
            ),
        ] {
            store.restore(&clean);
            store.raw_put(&newer, bytes);
            let (shield, _) = FsShield::recover(enclave.clone(), store.clone()).unwrap();
            assert!(shield.read(&newer).is_err(), "{what} was accepted");
            assert!(shield.read(&older).is_ok(), "{what}: the older slot");
        }
    }

    #[test]
    fn checkpoint_is_ciphertext_at_rest() {
        // No 64-byte window of the checkpoint plaintext, at any of a few
        // offsets, appears in any object the host holds.
        let (s, store, _) = supervised_checkpoints();
        let plain = s.trainer().checkpoint_bytes("").unwrap();
        let paths = store.paths();
        assert!(!paths.is_empty());
        for at in [0, plain.len() / 2, plain.len() - 64] {
            let window = &plain[at..at + 64];
            for path in &paths {
                let raw = store.raw_contents(path).unwrap();
                assert!(
                    !raw.windows(64).any(|w| w == window),
                    "plaintext at {at} found in {path}"
                );
            }
        }
    }

    #[test]
    fn sharding_across_parameter_servers_cuts_comm_time() {
        let run = |ps: usize| {
            let cluster = Cluster::new(ClusterConfig {
                workers: 2,
                parameter_servers: ps,
                mode: ExecutionMode::Simulation,
                network_shield: true,
                runtime_bytes: 8 * 1024 * 1024,
                heap_bytes: 16 * 1024 * 1024,
                ..ClusterConfig::default()
            })
            .unwrap();
            let mut rng = rand::SeedableRng::seed_from_u64(3);
            let model = securetf_tensor::layers::mlp_classifier(
                784,
                &[256],
                10,
                &mut rng as &mut rand::rngs::StdRng,
            )
            .unwrap();
            let data = securetf_data::synthetic_mnist(200, 5);
            let mut t = DistributedTrainer::new(cluster, model, data, 50, 0.05).unwrap();
            t.train_steps(3).unwrap()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two.elapsed_ns < one.elapsed_ns,
            "2 PS {} >= 1 PS {}",
            two.elapsed_ns,
            one.elapsed_ns
        );
        // Training math is unaffected by sharding.
        assert_eq!(one.final_loss, two.final_loss);
    }

    #[test]
    fn step_returns_the_lowest_failing_workers_error_for_every_pool() {
        // One worker's activations region is gone (a TEE error on its
        // free), the other holds a residual of the wrong shape (a tensor
        // error in its error feedback); both fail in the same step.
        for pool in [1usize, 2, 4] {
            for (tee_fails_on, residual_fails_on) in [(0usize, 1usize), (1, 0)] {
                for _ in 0..4 {
                    let mut t = trainer(2, ExecutionMode::Simulation, true);
                    t.set_comm_config(CommConfig {
                        codec: Codec::Quantized,
                        overlap: true,
                    });
                    t.set_worker_pool(WorkerPool::new(pool));
                    t.step().unwrap();
                    let gone = &t.workers[tee_fails_on];
                    gone.enclave.free(gone.activations_region).unwrap();
                    for residual in t.workers[residual_fails_on].residuals.values_mut() {
                        *residual = Tensor::zeros(&[1]);
                    }
                    let error = t.step().unwrap_err();
                    let what =
                        format!("pool {pool}, worker {tee_fails_on} loses its region: {error}");
                    if tee_fails_on == 0 {
                        assert!(matches!(error, DistribError::Tee(_)), "{what}");
                    } else {
                        assert!(matches!(error, DistribError::Tensor(_)), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn workers_converge_to_same_model() {
        let mut t = trainer(2, ExecutionMode::Simulation, true);
        t.step().unwrap();
        t.step().unwrap();
        // After a step, worker sessions hold the weights broadcast at the
        // start of the step; they match each other exactly.
        let w0: Vec<f32> = t.workers[0]
            .session
            .variables()
            .iter()
            .flat_map(|(_, v)| v.data().to_vec())
            .collect();
        let w1: Vec<f32> = t.workers[1]
            .session
            .variables()
            .iter()
            .flat_map(|(_, v)| v.data().to_vec())
            .collect();
        assert_eq!(w0, w1);
    }
}
