//! Self-healing supervision of distributed training.
//!
//! The paper's deployment assumes machines crash, networks drop and
//! tamper with records, storage bit-rots and the CAS occasionally
//! restarts. [`Supervisor`] wraps a [`DistributedTrainer`] so that
//! training *completes* under any survivable [`FaultPlan`] instead of
//! surfacing [`DistribError::NoWorkers`]:
//!
//! * **Failure detection** — before every step the supervisor heartbeats
//!   each worker over a real network-shield [`SecureChannel`]; probe
//!   round-trips and retry backoff are charged against the virtual-time
//!   cost model, so supervision overhead shows up in the report.
//! * **Recovery** — dead workers are respawned through CAS
//!   re-attestation with bounded exponential backoff
//!   ([`securetf_tee::RetryPolicy`]); a heartbeat that fails
//!   *authentication* (tampering) is treated as a compromised node and
//!   the worker is replaced immediately — tampering is never retried.
//! * **Rollback** — the supervisor checkpoints the global model to
//!   untrusted storage on a fixed cadence, in two alternating generation
//!   slots. A generation is the trainer's plaintext `freeze` checkpoint
//!   behind its generation number, written through the [`FsShield`],
//!   which encrypts and authenticates it on the way to the host (the one
//!   seal; the trainer adds none). If a step fails mid-flight the
//!   supervisor restores the newest generation that still authenticates
//!   and restores, and retries the step.
//! * **Crash consistency** — the shield's write path commits a
//!   checkpoint atomically, so a host crash at any point during a
//!   checkpoint leaves either the old or the new generation — never a
//!   torn hybrid. When the storage host dies mid-operation
//!   ([`securetf_shield::ShieldError::HostCrashed`]) the supervisor
//!   restarts it, re-attests the parameter server to CAS and remounts the
//!   shield via [`FsShield::recover`]; a whole supervisor-process restart
//!   mounts the store the same way, once, and resumes from the newest
//!   generation through [`Supervisor::remount`].

use crate::cluster::TRAINING_SERVICE;
use crate::faults::{FaultEvent, FaultPlan};
use crate::trainer::{DistributedTrainer, TrainReport};
use crate::DistribError;
use parking_lot::Mutex;
use securetf_shield::fs::{FsShield, StoreSnapshot, UntrustedStore};
use securetf_shield::net::{duplex, Adversary, PipeEnd, Role, SecureChannel, Tamper, Transport};
use securetf_shield::ShieldError;
use securetf_tee::telemetry::Counter;
use securetf_tee::{CostCategory, Enclave, RetryPolicy, Telemetry};
use securetf_tensor::bytes::Reader;
use std::collections::VecDeque;
use std::sync::Arc;

/// Tuning knobs for the supervisor.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Backoff policy shared by heartbeat re-probes, CAS re-attestation
    /// and channel retries.
    pub retry: RetryPolicy,
    /// Checkpoint the global model every this many completed steps.
    pub checkpoint_every: u64,
    /// Path prefix for checkpoint generations in untrusted storage.
    pub checkpoint_path: String,
    /// How many times a single step may be rolled back and retried
    /// before its error is surfaced.
    pub max_step_recoveries: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            retry: RetryPolicy::default(),
            checkpoint_every: 5,
            checkpoint_path: "/ckpt/supervised".to_string(),
            max_step_recoveries: 3,
        }
    }
}

/// Counters describing what supervision did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Heartbeat probes sent (including retries).
    pub heartbeats: u64,
    /// Probes that timed out (dropped records or dead workers).
    pub missed_heartbeats: u64,
    /// Probes that failed authentication (tampering; fail closed).
    pub tampered_heartbeats: u64,
    /// Workers replaced through CAS re-attestation.
    pub respawns: u64,
    /// Mid-flight step failures rolled back to a checkpoint.
    pub rollbacks: u64,
    /// Checkpoint generations written.
    pub checkpoints: u64,
    /// Restores that had to fall back past a corrupted generation.
    pub checkpoint_fallbacks: u64,
    /// Fault events injected from the plan.
    pub faults_injected: u64,
    /// Host-storage crashes healed: host restart, parameter-server
    /// re-attestation and a shield remount via [`FsShield::recover`].
    pub storage_recoveries: u64,
    /// Whole-store rollback attacks injected from the plan.
    pub storage_rollbacks: u64,
    /// Virtual time spent on supervision (probes, backoff, stalls), in
    /// nanoseconds. It is spent on the parameter server's clock, so the
    /// trainer's composed time already counts it.
    pub supervision_ns: u64,
    /// Storage recoveries that found no trustworthy store (lost or
    /// rolled-back manifest) and remounted a fresh, empty shield.
    pub fresh_remounts: u64,
}

/// Shared queue of adversary actions for one heartbeat link.
type TamperQueue = Arc<Mutex<VecDeque<Tamper>>>;

/// Non-blocking pipe transport. Heartbeats are driven end-to-end by the
/// supervisor thread, so a record is either already queued or lost for
/// good; the short spin only matters during the threaded handshake.
struct HeartbeatPipe {
    inner: PipeEnd,
    spin: u32,
}

impl Transport for HeartbeatPipe {
    fn send(&self, message: Vec<u8>) {
        self.inner.send(message);
    }

    fn recv(&self) -> Option<Vec<u8>> {
        for _ in 0..self.spin {
            if let Some(m) = self.inner.recv() {
                return Some(m);
            }
            std::thread::yield_now();
        }
        None
    }
}

/// Both ends of one worker's heartbeat link. The supervisor drives the
/// worker side too — it simulates the worker's heartbeat responder
/// thread, gated on the worker enclave's health.
struct Heartbeat {
    ps_side: SecureChannel<HeartbeatPipe>,
    worker_side: SecureChannel<HeartbeatPipe>,
    tamper: TamperQueue,
    seq: u64,
}

/// How many lost records a heartbeat channel resynchronizes over.
const HEARTBEAT_LOSS_WINDOW: u64 = 32;

fn heartbeat_link(
    ps_enclave: Arc<Enclave>,
    worker_enclave: Arc<Enclave>,
) -> Result<Heartbeat, DistribError> {
    let tamper: TamperQueue = Arc::new(Mutex::new(VecDeque::new()));
    let queue = tamper.clone();
    let adversary: Adversary =
        Arc::new(move |_msg| queue.lock().pop_front().unwrap_or(Tamper::Pass));
    let (ps_end, worker_end) = duplex(Some(adversary));
    // The handshake interleaves send/recv, so the initiator runs on a
    // helper thread; data-path receives use a short spin because both
    // halves are driven by the supervisor thread afterwards.
    let initiator = std::thread::spawn(move || {
        SecureChannel::handshake(
            HeartbeatPipe {
                inner: ps_end,
                spin: 100_000,
            },
            ps_enclave,
            Role::Initiator,
        )
    });
    let worker_side = SecureChannel::handshake(
        HeartbeatPipe {
            inner: worker_end,
            spin: 100_000,
        },
        worker_enclave,
        Role::Responder,
    )
    .map_err(|_| DistribError::BadMessage("heartbeat handshake failed"))?;
    let ps_side = initiator
        .join()
        .map_err(|_| DistribError::BadMessage("heartbeat handshake panicked"))?
        .map_err(|_| DistribError::BadMessage("heartbeat handshake failed"))?;
    let mut hb = Heartbeat {
        ps_side,
        worker_side,
        tamper,
        seq: 0,
    };
    hb.ps_side.set_loss_window(HEARTBEAT_LOSS_WINDOW);
    hb.worker_side.set_loss_window(HEARTBEAT_LOSS_WINDOW);
    // Drop the spin once the handshake is done: a missing record will
    // never appear later.
    hb.ps_side.transport_mut().spin = 1;
    hb.worker_side.transport_mut().spin = 1;
    Ok(hb)
}

/// Outcome of probing one worker.
enum Probe {
    Alive,
    /// No authenticated response within the retry budget.
    Dead,
    /// A record failed authentication: fail closed, replace the node.
    Compromised,
}

/// Telemetry mirror of [`SupervisorStats`], resolved once from the
/// cluster's telemetry registry (no-op handles when disabled). The
/// `SupervisorStats` struct stays the programmatic API; these counters
/// put the same events into metrics digests and attested exports.
#[derive(Debug, Clone)]
struct SupervisorMetrics {
    heartbeats: Counter,
    missed_heartbeats: Counter,
    tampered_heartbeats: Counter,
    respawns: Counter,
    rollbacks: Counter,
    checkpoints: Counter,
    checkpoint_fallbacks: Counter,
    faults_injected: Counter,
    storage_recoveries: Counter,
    storage_rollbacks: Counter,
    storage_fresh_remounts: Counter,
}

impl SupervisorMetrics {
    fn for_telemetry(t: &Telemetry) -> Self {
        SupervisorMetrics {
            heartbeats: t.counter("supervisor.heartbeats"),
            missed_heartbeats: t.counter("supervisor.missed_heartbeats"),
            tampered_heartbeats: t.counter("supervisor.tampered_heartbeats"),
            respawns: t.counter("supervisor.respawns"),
            rollbacks: t.counter("supervisor.rollbacks"),
            checkpoints: t.counter("supervisor.checkpoints"),
            checkpoint_fallbacks: t.counter("supervisor.checkpoint_fallbacks"),
            faults_injected: t.counter("supervisor.faults_injected"),
            storage_recoveries: t.counter("supervisor.storage_recoveries"),
            storage_rollbacks: t.counter("supervisor.storage_rollbacks"),
            storage_fresh_remounts: t.counter("supervisor.storage_fresh_remounts"),
        }
    }
}

/// A self-healing wrapper around [`DistributedTrainer`].
pub struct Supervisor {
    trainer: DistributedTrainer,
    config: SupervisorConfig,
    plan: FaultPlan,
    store: UntrustedStore,
    shield: FsShield,
    /// Store image at the last committed checkpoint; what a
    /// [`FaultEvent::StorageRollback`] rewinds the host to.
    snapshot: Option<StoreSnapshot>,
    heartbeats: Vec<Heartbeat>,
    stats: SupervisorStats,
    metrics: SupervisorMetrics,
    step: u64,
    latest_generation: Option<u64>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("step", &self.step)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// Wraps `trainer`, establishing a heartbeat channel to every worker
    /// and writing an initial checkpoint so rollback always has a
    /// target. Checkpoints go to `store` (untrusted storage).
    ///
    /// # Errors
    ///
    /// Returns handshake or checkpoint errors from the initial setup.
    pub fn new(
        trainer: DistributedTrainer,
        plan: FaultPlan,
        config: SupervisorConfig,
        store: UntrustedStore,
    ) -> Result<Self, DistribError> {
        let shield = FsShield::new(trainer.cluster().ps.enclave.clone(), store.clone());
        let mut supervisor = Self::build(trainer, plan, config, store, shield)?;
        supervisor.save_generation()?;
        Ok(supervisor)
    }

    /// Rebuilds a supervisor after a whole supervisor-process restart:
    /// restarts the crashed storage host, re-attests the parameter
    /// server, mounts the fs shield once ([`FsShield::recover`]) and
    /// resumes the trainer from the newest checkpoint generation that
    /// restores. If none does (or the host destroyed the manifest), the
    /// still-intact in-enclave model is saved as a fresh generation.
    ///
    /// The trainer must be backed by the same platforms as before the
    /// restart — sealing keys and the manifest's monotonic counter live
    /// in the machine, not the process.
    ///
    /// # Errors
    ///
    /// Returns handshake, attestation or checkpoint errors from setup.
    pub fn remount(
        mut trainer: DistributedTrainer,
        plan: FaultPlan,
        config: SupervisorConfig,
        store: UntrustedStore,
    ) -> Result<Self, DistribError> {
        let (shield, fresh) = mount_recovered(&mut trainer, &store, &config.retry)?;
        let mut supervisor = Self::build(trainer, plan, config, store, shield)?;
        supervisor.count_storage_recovery(fresh);
        supervisor.restore_newest()?;
        Ok(supervisor)
    }

    fn build(
        trainer: DistributedTrainer,
        plan: FaultPlan,
        config: SupervisorConfig,
        store: UntrustedStore,
        shield: FsShield,
    ) -> Result<Self, DistribError> {
        let metrics = SupervisorMetrics::for_telemetry(&trainer.cluster().config().telemetry);
        let mut supervisor = Supervisor {
            trainer,
            config,
            plan,
            store,
            shield,
            snapshot: None,
            heartbeats: Vec::new(),
            stats: SupervisorStats::default(),
            metrics,
            step: 0,
            latest_generation: None,
        };
        for w in 0..supervisor.trainer.cluster().workers.len() {
            let hb = heartbeat_link(
                supervisor.trainer.cluster().ps.enclave.clone(),
                supervisor.trainer.cluster().workers[w].enclave.clone(),
            )?;
            supervisor.heartbeats.push(hb);
        }
        Ok(supervisor)
    }

    /// Runs `n` supervised steps: inject scheduled faults, heal the
    /// cluster, execute the step (rolling back to the last authenticated
    /// checkpoint on mid-flight failure), checkpoint on cadence.
    ///
    /// # Errors
    ///
    /// Surfaces an error only when the plan is not survivable: a fatal
    /// attestation failure, or a step that keeps failing after
    /// [`SupervisorConfig::max_step_recoveries`] rollbacks.
    pub fn train_steps(&mut self, n: u64) -> Result<TrainReport, DistribError> {
        let mut last = f32::NAN;
        for _ in 0..n {
            last = self.supervised_step()?;
        }
        Ok(TrainReport {
            steps: self.trainer.steps(),
            final_loss: last,
            elapsed_ns: self.trainer.elapsed_ns(),
            samples: self.trainer.samples(),
        })
    }

    fn supervised_step(&mut self) -> Result<f32, DistribError> {
        self.inject(self.step)?;
        self.heal()?;
        let mut recoveries = 0u32;
        let loss = loop {
            match self.trainer.step() {
                Ok(loss) => break loss,
                Err(e) if recoveries < self.config.max_step_recoveries && recoverable(&e) => {
                    recoveries += 1;
                    self.stats.rollbacks += 1;
                    self.metrics.rollbacks.inc();
                    self.heal()?;
                    self.restore_newest()?;
                }
                Err(e) => return Err(e),
            }
        };
        self.step += 1;
        if self.step.is_multiple_of(self.config.checkpoint_every) {
            self.save_generation()?;
        }
        Ok(loss)
    }

    /// Applies the plan's events for `step` to the live system.
    fn inject(&mut self, step: u64) -> Result<(), DistribError> {
        let events: Vec<FaultEvent> = self.plan.events_at(step).to_vec();
        let worker_count = self.trainer.cluster().workers.len().max(1);
        for event in events {
            self.stats.faults_injected += 1;
            self.metrics.faults_injected.inc();
            match event {
                FaultEvent::WorkerCrash { worker } => {
                    self.trainer
                        .cluster_mut()
                        .fail_worker(worker % worker_count)?;
                }
                FaultEvent::PsStall { delay_ns } => {
                    self.ps().spend(CostCategory::Other, delay_ns);
                    self.stats.supervision_ns += delay_ns;
                }
                FaultEvent::NetDrop { worker, records } => {
                    let queue = &self.heartbeats[worker % worker_count].tamper;
                    let mut q = queue.lock();
                    for _ in 0..records {
                        q.push_back(Tamper::Drop);
                    }
                }
                FaultEvent::NetTamper { worker } => {
                    self.heartbeats[worker % worker_count]
                        .tamper
                        .lock()
                        .push_back(Tamper::FlipBit(9));
                }
                FaultEvent::ChunkCorruption { offset } => {
                    if let Some(generation) = self.latest_generation {
                        self.store
                            .corrupt(&self.generation_path(generation), offset);
                    }
                }
                FaultEvent::CasOutage { duration_ns } => {
                    self.trainer
                        .cluster_mut()
                        .cas_mut()
                        .inject_outage(duration_ns);
                }
                FaultEvent::CrashDuringWrite { after_ops } => {
                    self.store.fail_after_ops(after_ops);
                }
                FaultEvent::TornWrite {
                    after_ops,
                    torn_bytes,
                } => {
                    self.store.fail_after_ops_torn(after_ops, torn_bytes);
                }
                FaultEvent::StorageRollback => {
                    self.stats.storage_rollbacks += 1;
                    self.metrics.storage_rollbacks.inc();
                    if let Some(snapshot) = &self.snapshot {
                        self.store.restore(snapshot);
                    }
                }
                // Serving-side events target the inference gateway's
                // clients, not the training cluster; a training
                // supervisor ignores them.
                FaultEvent::RequestBurst { .. }
                | FaultEvent::SlowClient { .. }
                | FaultEvent::ClientDisconnect { .. } => {}
            }
        }
        Ok(())
    }

    /// The parameter server's enclave, which supervision spends time on.
    fn ps(&self) -> &Enclave {
        &self.trainer.cluster().ps.enclave
    }

    /// Probes every worker and respawns the ones that fail.
    fn heal(&mut self) -> Result<(), DistribError> {
        for w in 0..self.trainer.cluster().workers.len() {
            match self.probe(w) {
                Probe::Alive => {}
                Probe::Dead => self.respawn(w)?,
                Probe::Compromised => {
                    self.stats.tampered_heartbeats += 1;
                    self.metrics.tampered_heartbeats.inc();
                    self.respawn(w)?;
                }
            }
        }
        Ok(())
    }

    /// Ping/echo/ack over the worker's heartbeat channel, with bounded
    /// retries for *lost* records. Authentication failures fail closed
    /// immediately.
    fn probe(&mut self, w: usize) -> Probe {
        let rtt_ns = self.ps().cost_model().lan_rtt_ns;
        let policy = self.config.retry.clone();
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                let backoff = policy.delay_ns(attempt - 1);
                self.ps().spend(CostCategory::Other, backoff);
                self.stats.supervision_ns += backoff;
            }
            self.stats.heartbeats += 1;
            self.metrics.heartbeats.inc();
            self.ps().spend(CostCategory::Network, rtt_ns);
            self.stats.supervision_ns += rtt_ns;
            let hb = &mut self.heartbeats[w];
            let ping = hb.seq.to_le_bytes();
            hb.seq += 1;
            if hb.ps_side.send(&ping).is_err() {
                // The supervisor's own enclave cannot speak; nothing a
                // respawn of the *worker* would fix.
                return Probe::Alive;
            }
            match hb.worker_side.recv() {
                Ok(echo) => {
                    if hb.worker_side.send(&echo).is_err() {
                        return Probe::Dead;
                    }
                    match hb.ps_side.recv() {
                        Ok(_) => return Probe::Alive,
                        Err(ShieldError::ChannelClosed) => {
                            self.stats.missed_heartbeats += 1;
                            self.metrics.missed_heartbeats.inc();
                        }
                        Err(_) => return Probe::Compromised,
                    }
                }
                Err(ShieldError::ChannelClosed) => {
                    self.stats.missed_heartbeats += 1;
                    self.metrics.missed_heartbeats.inc();
                }
                Err(_) => return Probe::Compromised,
            }
        }
        Probe::Dead
    }

    /// Replaces worker `w` with a freshly attested node (riding out CAS
    /// outages per the retry policy) and re-establishes its heartbeat
    /// channel.
    fn respawn(&mut self, w: usize) -> Result<(), DistribError> {
        self.stats.respawns += 1;
        self.metrics.respawns.inc();
        self.trainer
            .cluster_mut()
            .respawn_worker_with_retry(w, &self.config.retry)?;
        let hb = heartbeat_link(
            self.trainer.cluster().ps.enclave.clone(),
            self.trainer.cluster().workers[w].enclave.clone(),
        )?;
        self.heartbeats[w] = hb;
        Ok(())
    }

    fn generation_path(&self, generation: u64) -> String {
        // Two alternating slots: a corrupted newest generation can fall
        // back to the previous one.
        format!("{}/gen-{}", self.config.checkpoint_path, generation % 2)
    }

    /// Writes the model as the next checkpoint generation through the
    /// shield. The generation number is prefixed to the checkpoint so a
    /// remount can tell which of the two slots is newest. A host crash
    /// during the write is healed once ([`Supervisor::recover_storage`])
    /// and the write retried.
    fn save_generation(&mut self) -> Result<(), DistribError> {
        for attempt in 0..2 {
            let generation = self.latest_generation.map(|g| g + 1).unwrap_or(0);
            let path = self.generation_path(generation);
            let mut payload = generation.to_le_bytes().to_vec();
            payload.extend_from_slice(&self.trainer.checkpoint_bytes(&path)?);
            match self.shield.write(&path, &payload) {
                Ok(()) => {
                    self.latest_generation = Some(generation);
                    self.stats.checkpoints += 1;
                    self.metrics.checkpoints.inc();
                    self.snapshot = Some(self.store.snapshot());
                    return Ok(());
                }
                Err(ShieldError::HostCrashed(_)) if attempt == 0 => self.recover_storage()?,
                Err(_) => return Err(DistribError::BadMessage("checkpoint write failed")),
            }
        }
        Err(DistribError::BadMessage(
            "checkpoint write failed after recovery",
        ))
    }

    /// Reads both generation slots through the shield (healing one host
    /// crash on the way) and restores the trainer from the newest
    /// generation that authenticates and restores; restoring any but the
    /// newest generation this supervisor committed is a fallback. If none
    /// restores, the in-enclave model is still intact — save it as a
    /// fresh generation and continue from it.
    fn restore_newest(&mut self) -> Result<(), DistribError> {
        let committed = self.latest_generation;
        let mut recovered = false;
        let mut candidates: Vec<(u64, Vec<u8>)> = Vec::new();
        for slot in 0..2u64 {
            let path = self.generation_path(slot);
            let read = match self.shield.read(&path) {
                Err(ShieldError::HostCrashed(_)) if !recovered => {
                    recovered = true;
                    self.recover_storage()?;
                    self.shield.read(&path)
                }
                read => read,
            };
            if let Ok(payload) = read {
                let mut r = Reader::new(&payload);
                if let Ok(generation) = r.u64() {
                    candidates.push((generation, r.rest().to_vec()));
                }
            }
        }
        candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
        let restored = candidates
            .into_iter()
            .find(|(_, checkpoint)| self.trainer.restore_checkpoint_bytes(checkpoint).is_ok())
            .map(|(generation, _)| generation);
        if committed.is_some() && restored != committed {
            self.stats.checkpoint_fallbacks += 1;
            self.metrics.checkpoint_fallbacks.inc();
        }
        match restored {
            Some(generation) => {
                self.latest_generation = Some(generation);
                self.snapshot = Some(self.store.snapshot());
                Ok(())
            }
            None => self.save_generation(),
        }
    }

    /// Heals a crashed storage host mid-run ([`mount_recovered`]). If the
    /// shield had to mount fresh, no generation is committed any more.
    fn recover_storage(&mut self) -> Result<(), DistribError> {
        let (shield, fresh) = mount_recovered(&mut self.trainer, &self.store, &self.config.retry)?;
        self.shield = shield;
        self.count_storage_recovery(fresh);
        Ok(())
    }

    fn count_storage_recovery(&mut self, fresh: bool) {
        self.stats.storage_recoveries += 1;
        self.metrics.storage_recoveries.inc();
        if fresh {
            self.stats.fresh_remounts += 1;
            self.metrics.storage_fresh_remounts.inc();
            self.latest_generation = None;
        }
    }

    /// Counters describing what supervision did so far.
    pub fn stats(&self) -> SupervisorStats {
        self.stats
    }

    /// The fault plan driving this run.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped trainer.
    pub fn trainer(&self) -> &DistributedTrainer {
        &self.trainer
    }

    /// The wrapped trainer, mutable.
    pub fn trainer_mut(&mut self) -> &mut DistributedTrainer {
        &mut self.trainer
    }

    /// The untrusted checkpoint store.
    pub fn store(&self) -> &UntrustedStore {
        &self.store
    }

    /// Unwraps the supervisor, returning the trainer.
    pub fn into_trainer(self) -> DistributedTrainer {
        self.trainer
    }
}

/// Restarts the crashed storage host, re-attests the parameter server to
/// CAS (riding out outages per `retry`, exactly as a freshly booted node
/// would) and mounts the fs shield from its sealed manifest. Returns the
/// shield and whether it is fresh: if the host lost or rolled back the
/// manifest, the shield fails closed on its contents and the store is
/// mounted empty, to be re-saved from the intact in-enclave model.
fn mount_recovered(
    trainer: &mut DistributedTrainer,
    store: &UntrustedStore,
    retry: &RetryPolicy,
) -> Result<(FsShield, bool), DistribError> {
    store.host_restart();
    let enclave = trainer.cluster().ps.enclave.clone();
    let quote = enclave.quote(b"fs-shield remount")?;
    trainer
        .cluster_mut()
        .cas_mut()
        .attest_and_provision_with_retry(&quote, TRAINING_SERVICE, retry)
        .map_err(DistribError::Attestation)?;
    Ok(match FsShield::recover(enclave.clone(), store.clone()) {
        Ok((shield, _report)) => (shield, false),
        Err(_) => (FsShield::new(enclave, store.clone()), true),
    })
}

/// Which step failures rollback-and-retry can plausibly fix. Integrity
/// violations inside the step (bad messages between *our own* nodes
/// would indicate a bug, but a tampered checkpoint restore surfaces the
/// same way) and worker exhaustion are recoverable; fatal attestation
/// errors are not.
fn recoverable(e: &DistribError) -> bool {
    match e {
        DistribError::NoWorkers | DistribError::BadMessage(_) | DistribError::Tee(_) => true,
        DistribError::Attestation(e) => e.is_transient(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use rand::SeedableRng;
    use securetf_tee::ExecutionMode;
    use securetf_tensor::layers::{self, Classifier};

    fn small_model() -> Classifier {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        layers::mlp_classifier(784, &[32], 10, &mut rng).unwrap()
    }

    fn trainer(workers: usize) -> DistributedTrainer {
        trainer_on(workers, Telemetry::disabled())
    }

    fn trainer_on(workers: usize, telemetry: Telemetry) -> DistributedTrainer {
        trainer_in(ExecutionMode::Simulation, workers, telemetry)
    }

    fn trainer_in(mode: ExecutionMode, workers: usize, telemetry: Telemetry) -> DistributedTrainer {
        let cluster = Cluster::new(ClusterConfig {
            workers,
            parameter_servers: 1,
            mode,
            network_shield: true,
            runtime_bytes: 8 * 1024 * 1024,
            heap_bytes: 16 * 1024 * 1024,
            telemetry,
            ..ClusterConfig::default()
        })
        .unwrap();
        let data = securetf_data::synthetic_mnist(300, 5);
        DistributedTrainer::new(cluster, small_model(), data, 100, 0.2).unwrap()
    }

    fn supervisor(workers: usize, plan: FaultPlan) -> Supervisor {
        Supervisor::new(
            trainer(workers),
            plan,
            SupervisorConfig::default(),
            UntrustedStore::new(),
        )
        .unwrap()
    }

    #[test]
    fn fault_free_plan_trains_normally() {
        let mut s = supervisor(2, FaultPlan::none());
        let report = s.train_steps(8).unwrap();
        assert_eq!(report.steps, 8);
        assert!(report.final_loss.is_finite());
        assert_eq!(s.stats().respawns, 0);
        assert_eq!(s.stats().rollbacks, 0);
        assert!(s.stats().heartbeats >= 16, "one probe per worker per step");
        assert!(s.stats().supervision_ns > 0);
    }

    #[test]
    fn crashed_workers_are_respawned_not_fatal() {
        let plan = FaultPlan::none()
            .with_event(1, FaultEvent::WorkerCrash { worker: 0 })
            .with_event(1, FaultEvent::WorkerCrash { worker: 1 })
            .with_event(3, FaultEvent::WorkerCrash { worker: 0 });
        let mut s = supervisor(2, plan);
        let report = s.train_steps(6).unwrap();
        assert!(report.final_loss.is_finite());
        assert_eq!(s.stats().respawns, 3);
        // Every step ran with a full worker set.
        assert_eq!(report.samples, 6 * 2 * 100);
    }

    #[test]
    fn all_workers_crashing_every_step_still_completes() {
        let mut plan = FaultPlan::none();
        for step in 0..4 {
            plan = plan
                .with_event(step, FaultEvent::WorkerCrash { worker: 0 })
                .with_event(step, FaultEvent::WorkerCrash { worker: 1 });
        }
        let mut s = supervisor(2, plan);
        let report = s.train_steps(4).unwrap();
        assert!(report.final_loss.is_finite());
        assert_eq!(s.stats().respawns, 8);
    }

    #[test]
    fn cas_outage_during_respawn_is_ridden_out() {
        let plan = FaultPlan::none()
            .with_event(
                2,
                FaultEvent::CasOutage {
                    duration_ns: 4_000_000,
                },
            )
            .with_event(2, FaultEvent::WorkerCrash { worker: 1 });
        let mut s = supervisor(2, plan);
        let report = s.train_steps(5).unwrap();
        assert!(report.final_loss.is_finite());
        assert_eq!(s.stats().respawns, 1);
    }

    #[test]
    fn dropped_heartbeats_are_retried_not_respawned() {
        let plan = FaultPlan::none().with_event(
            1,
            FaultEvent::NetDrop {
                worker: 0,
                records: 2,
            },
        );
        let mut s = supervisor(2, plan);
        s.train_steps(3).unwrap();
        assert!(s.stats().missed_heartbeats >= 1);
        assert_eq!(s.stats().respawns, 0, "drops are transient");
    }

    #[test]
    fn tampered_heartbeat_fails_closed_and_replaces_worker() {
        let plan = FaultPlan::none().with_event(1, FaultEvent::NetTamper { worker: 1 });
        let mut s = supervisor(2, plan);
        s.train_steps(3).unwrap();
        assert_eq!(s.stats().tampered_heartbeats, 1);
        assert_eq!(s.stats().respawns, 1, "tampering is never retried");
    }

    #[test]
    fn corrupted_checkpoint_falls_back_to_older_generation() {
        let config = SupervisorConfig {
            checkpoint_every: 1,
            ..Default::default()
        };
        let mut s =
            Supervisor::new(trainer(1), FaultPlan::none(), config, UntrustedStore::new()).unwrap();
        s.train_steps(3).unwrap();
        // Corrupt the newest generation, then force a rollback.
        let latest = s.latest_generation.unwrap();
        let path = s.generation_path(latest);
        assert!(s.store.corrupt(&path, 40));
        s.restore_newest().unwrap();
        assert_eq!(s.stats().checkpoint_fallbacks, 1);
    }

    #[test]
    fn ps_stall_charges_supervision_time() {
        let plan = FaultPlan::none().with_event(
            0,
            FaultEvent::PsStall {
                delay_ns: 7_000_000,
            },
        );
        let mut s = supervisor(1, plan);
        let faulted = s.train_steps(2).unwrap();
        let clean = supervisor(1, FaultPlan::none()).train_steps(2).unwrap();
        assert!(faulted.elapsed_ns > clean.elapsed_ns + 7_000_000 - 1);
    }

    #[test]
    fn supervision_events_mirror_into_telemetry() {
        let telemetry = Telemetry::new(Arc::new(securetf_tee::SimClock::new()));
        let trainer = trainer_on(2, telemetry.clone());
        let plan = FaultPlan::none()
            .with_event(1, FaultEvent::WorkerCrash { worker: 0 })
            .with_event(2, FaultEvent::NetTamper { worker: 1 });
        let mut s = Supervisor::new(
            trainer,
            plan,
            SupervisorConfig::default(),
            UntrustedStore::new(),
        )
        .unwrap();
        s.train_steps(4).unwrap();
        let stats = s.stats();
        assert_eq!(
            telemetry.counter("supervisor.heartbeats").get(),
            stats.heartbeats
        );
        assert_eq!(
            telemetry.counter("supervisor.respawns").get(),
            stats.respawns
        );
        assert_eq!(
            telemetry.counter("supervisor.tampered_heartbeats").get(),
            stats.tampered_heartbeats
        );
        assert_eq!(
            telemetry.counter("supervisor.checkpoints").get(),
            stats.checkpoints
        );
        assert_eq!(
            telemetry.counter("supervisor.faults_injected").get(),
            stats.faults_injected
        );
        assert!(stats.respawns >= 2, "crash + tamper both replace workers");
        // Probe RTTs were attributed to the network cost category.
        assert!(telemetry.counter("cost.network.ns").get() > 0);
    }

    /// Bit-level image of every model variable, for state comparison.
    fn var_bits(t: &DistributedTrainer) -> Vec<u32> {
        t.ps_session()
            .variables()
            .iter()
            .flat_map(|(_, v)| v.data().iter().map(|x| x.to_bits()))
            .collect()
    }

    #[test]
    fn crash_during_checkpoint_write_is_recovered() {
        let config = SupervisorConfig {
            checkpoint_every: 2,
            ..Default::default()
        };
        // Arm the host to die two ops into the next journaled write: the
        // checkpoint after step 2 crashes mid-staging.
        let plan = FaultPlan::none().with_event(1, FaultEvent::CrashDuringWrite { after_ops: 2 });
        let mut s = Supervisor::new(trainer(1), plan, config, UntrustedStore::new()).unwrap();
        let report = s.train_steps(4).unwrap();
        assert!(report.final_loss.is_finite());
        assert_eq!(s.stats().storage_recoveries, 1);
        assert_eq!(s.stats().fresh_remounts, 0, "the crash kept the manifest");
        // Initial checkpoint + two cadence checkpoints all committed.
        assert_eq!(s.stats().checkpoints, 3);
        assert!(s.restore_newest().is_ok(), "newest generation restores");
    }

    #[test]
    fn torn_checkpoint_write_is_recovered() {
        let config = SupervisorConfig {
            checkpoint_every: 2,
            ..Default::default()
        };
        let plan = FaultPlan::none().with_event(
            1,
            FaultEvent::TornWrite {
                after_ops: 3,
                torn_bytes: 9,
            },
        );
        let mut s = Supervisor::new(trainer(1), plan, config, UntrustedStore::new()).unwrap();
        let report = s.train_steps(4).unwrap();
        assert!(report.final_loss.is_finite());
        assert_eq!(s.stats().storage_recoveries, 1);
        assert!(s.restore_newest().is_ok(), "torn bytes never restore");
    }

    #[test]
    fn storage_rollback_is_survived() {
        let config = SupervisorConfig {
            checkpoint_every: 2,
            ..Default::default()
        };
        let plan = FaultPlan::none().with_event(3, FaultEvent::StorageRollback);
        let mut s = Supervisor::new(trainer(1), plan, config, UntrustedStore::new()).unwrap();
        let report = s.train_steps(6).unwrap();
        assert!(report.final_loss.is_finite());
        assert_eq!(s.stats().storage_rollbacks, 1);
    }

    #[test]
    fn remount_resumes_from_newest_committed_generation() {
        let config = SupervisorConfig {
            checkpoint_every: 5,
            ..Default::default()
        };
        let store = UntrustedStore::new();
        let mut s =
            Supervisor::new(trainer(2), FaultPlan::none(), config.clone(), store.clone()).unwrap();
        s.train_steps(5).unwrap();
        // The cadence checkpoint just sealed this exact state.
        let at_checkpoint = var_bits(s.trainer());
        s.train_steps(2).unwrap();
        assert_ne!(var_bits(s.trainer()), at_checkpoint, "training moved on");
        // Kill the supervisor process and the storage host; the machines
        // (platforms, counters, sealing keys) survive.
        store.fail_after_ops(0);
        let trainer = s.into_trainer();
        let s2 = Supervisor::remount(trainer, FaultPlan::none(), config, store).unwrap();
        assert_eq!(
            var_bits(s2.trainer()),
            at_checkpoint,
            "remount restores the newest committed generation"
        );
        assert_eq!(s2.latest_generation, Some(1), "init gen 0 + cadence gen 1");
        assert_eq!(s2.stats().storage_recoveries, 1);
        assert_eq!(s2.stats().fresh_remounts, 0, "a crash is no rollback");
        // And training continues from there.
        let mut s2 = s2;
        let report = s2.train_steps(3).unwrap();
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn a_rolled_back_store_remounts_fresh_and_counts_it() {
        let telemetry = Telemetry::new(Arc::new(securetf_tee::SimClock::new()));
        let config = SupervisorConfig {
            checkpoint_every: 2,
            ..Default::default()
        };
        let store = UntrustedStore::new();
        let mut s = Supervisor::new(
            trainer_on(1, telemetry.clone()),
            FaultPlan::none(),
            config.clone(),
            store.clone(),
        )
        .unwrap();
        let stale = store.snapshot();
        s.train_steps(2).unwrap(); // the cadence checkpoint commits past `stale`
        store.restore(&stale);
        let s2 = Supervisor::remount(s.into_trainer(), FaultPlan::none(), config, store).unwrap();
        assert_eq!(s2.stats().fresh_remounts, 1);
        assert_eq!(
            telemetry.counter("supervisor.storage_fresh_remounts").get(),
            1
        );
    }

    #[test]
    fn remount_with_destroyed_manifest_fails_closed_then_reseals() {
        let store = UntrustedStore::new();
        let mut s = Supervisor::new(
            trainer(1),
            FaultPlan::none(),
            SupervisorConfig::default(),
            store.clone(),
        )
        .unwrap();
        s.train_steps(6).unwrap();
        let live = var_bits(s.trainer());
        // The host wipes everything it stored (manifest included).
        for path in store.paths() {
            store.raw_delete(&path);
        }
        let trainer = s.into_trainer();
        let s2 = Supervisor::remount(
            trainer,
            FaultPlan::none(),
            SupervisorConfig::default(),
            store.clone(),
        )
        .unwrap();
        // No stored generation survives; the in-enclave model is re-sealed
        // as a fresh generation instead of trusting the empty host.
        assert_eq!(s2.latest_generation, Some(0));
        assert_eq!(s2.stats().fresh_remounts, 1);
        assert_eq!(var_bits(s2.trainer()), live, "in-enclave state kept");
        assert!(!store.paths().is_empty(), "fresh checkpoint re-sealed");
    }

    #[test]
    fn a_native_cluster_checkpoints_rolls_back_and_restores() {
        // The native baseline has no CAS-provisioned secrets; the shield
        // keys its files to the enclave, as in every other mode.
        let config = SupervisorConfig {
            checkpoint_every: 2,
            ..Default::default()
        };
        let trainer = trainer_in(ExecutionMode::Native, 1, Telemetry::disabled());
        let mut s =
            Supervisor::new(trainer, FaultPlan::none(), config, UntrustedStore::new()).unwrap();
        s.train_steps(2).unwrap();
        let at_checkpoint = var_bits(s.trainer());
        s.train_steps(1).unwrap();
        assert_ne!(var_bits(s.trainer()), at_checkpoint, "training moved on");
        s.restore_newest().unwrap();
        assert_eq!(var_bits(s.trainer()), at_checkpoint, "rolled back");
        assert_eq!(s.stats().checkpoints, 2, "the initial and one cadence");
        assert_eq!(s.stats().checkpoint_fallbacks, 0);
        assert!(s.train_steps(1).unwrap().final_loss.is_finite());
    }

    #[test]
    fn a_remount_takes_one_mount_epoch() {
        let telemetry = Telemetry::new(Arc::new(securetf_tee::SimClock::new()));
        let store = UntrustedStore::new();
        let config = SupervisorConfig::default();
        let trainer = trainer_on(1, telemetry.clone());
        let s = Supervisor::new(trainer, FaultPlan::none(), config.clone(), store.clone()).unwrap();
        let epoch = telemetry.gauge("shield.fs.mount_epoch").get();
        assert!(epoch > 0);
        let s2 = Supervisor::remount(s.into_trainer(), FaultPlan::none(), config, store).unwrap();
        assert_eq!(s2.stats().fresh_remounts, 0);
        assert_eq!(telemetry.gauge("shield.fs.mount_epoch").get(), epoch + 1);
    }

    #[test]
    fn identical_seeds_reproduce_identical_loss() {
        let run = |seed: u64| {
            let plan = FaultPlan::generate(seed, 8, 2);
            let digest = plan.schedule_digest();
            let mut s = supervisor(2, plan);
            let report = s.train_steps(8).unwrap();
            (digest, report.final_loss.to_bits())
        };
        let (d1, l1) = run(99);
        let (d2, l2) = run(99);
        assert_eq!(d1, d2, "schedule must be reproducible");
        assert_eq!(l1, l2, "final loss must match bit for bit");
        let (d3, l3) = run(100);
        assert!(d3 != d1 || l3 != l1, "different seed, different run");
    }
}
