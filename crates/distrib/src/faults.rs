//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a reproducible schedule of failures for a training
//! run: worker crashes, parameter-server stalls, network-shield record
//! drops and tampering, checkpoint corruption in untrusted storage, and
//! transient CAS unavailability. The schedule is derived entirely from a
//! [`rand::rngs::StdRng`] seed (optionally mixed with the current virtual
//! time of a [`securetf_tee::SimClock`]) — no wall-clock time and no real
//! randomness are involved, so the same seed always produces the same
//! schedule, bit for bit. That is what makes chaos runs debuggable: a
//! failing seed can be replayed forever.
//!
//! The plan is consumed by [`crate::supervisor::Supervisor`], which
//! injects each step's events before running the step and then recovers
//! from whatever they broke.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use securetf_tee::SimClock;
use std::collections::BTreeMap;

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultEvent {
    /// The machine hosting a worker crashes: the node is marked dead and
    /// its enclave stops producing authenticated records.
    WorkerCrash {
        /// Worker index (taken modulo the live cluster size on injection).
        worker: usize,
    },
    /// The parameter server stalls (GC pause, noisy neighbour, EPC
    /// thrashing burst) for a fixed stretch of virtual time.
    PsStall {
        /// Stall length in virtual nanoseconds.
        delay_ns: u64,
    },
    /// The network adversary drops heartbeat records to one worker.
    NetDrop {
        /// Worker whose link is lossy.
        worker: usize,
        /// How many consecutive records are dropped.
        records: u64,
    },
    /// The network adversary flips a bit in a heartbeat record to one
    /// worker. Tampering must fail closed: the supervisor treats the
    /// worker as compromised and replaces it.
    NetTamper {
        /// Worker whose link is tampered with.
        worker: usize,
    },
    /// Untrusted storage corrupts a chunk of the most recent checkpoint.
    /// Recovery must notice (AEAD authentication) and fall back to an
    /// older generation.
    ChunkCorruption {
        /// Byte offset of the flipped chunk (modulo file length).
        offset: usize,
    },
    /// The CAS becomes unreachable: attestation (and hence respawn)
    /// requests fail with a transient error until the outage expires.
    CasOutage {
        /// Outage length in virtual nanoseconds.
        duration_ns: u64,
    },
    /// The host process dies mid-write: storage serves `after_ops` more
    /// shield operations, then every I/O fails until the supervisor
    /// restarts the host and remounts the fs shield.
    CrashDuringWrite {
        /// Shield mutating operations served before the host dies.
        after_ops: u64,
    },
    /// Like [`FaultEvent::CrashDuringWrite`], but the dying operation
    /// lands a torn prefix on disk — the classic partial sector write.
    TornWrite {
        /// Shield mutating operations served before the host dies.
        after_ops: u64,
        /// Bytes of the dying put that land.
        torn_bytes: usize,
    },
    /// Untrusted storage is rolled back wholesale to an earlier disk
    /// image (validly encrypted, validly MAC'd — just stale). The
    /// monotonic counter and per-file versions must catch it.
    StorageRollback,
    /// A serving client fires a burst of back-to-back requests, stressing
    /// admission control and micro-batch formation in the gateway.
    RequestBurst {
        /// Client index (taken modulo the connected client count).
        client: usize,
        /// Number of requests in the burst.
        requests: u64,
    },
    /// A serving client goes quiet for a stretch of virtual time before
    /// its next request, forcing batch timeouts to fire under-full.
    SlowClient {
        /// Client index (taken modulo the connected client count).
        client: usize,
        /// Virtual nanoseconds of client-side delay.
        delay_ns: u64,
    },
    /// A serving client disconnects (sends its goodbye frame) and issues
    /// no further requests.
    ClientDisconnect {
        /// Client index (taken modulo the connected client count).
        client: usize,
    },
}

/// A deterministic, step-indexed schedule of [`FaultEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    events: BTreeMap<u64, Vec<FaultEvent>>,
}

impl FaultPlan {
    /// A plan with no faults at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Generates a plan for `steps` training steps over `workers`
    /// workers, entirely determined by `seed`.
    ///
    /// Event probabilities are tuned so that a multi-step run sees a
    /// realistic mix of crashes, stalls, network faults, storage
    /// corruption and CAS outages, while every schedule remains
    /// *survivable* for a supervisor with the default
    /// [`securetf_tee::RetryPolicy`] (CAS outages are bounded well below
    /// the policy's total backoff budget).
    pub fn generate(seed: u64, steps: u64, workers: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let workers = workers.max(1);
        let mut events: BTreeMap<u64, Vec<FaultEvent>> = BTreeMap::new();
        for step in 0..steps {
            let mut at_step = Vec::new();
            if rng.gen::<f64>() < 0.20 {
                at_step.push(FaultEvent::WorkerCrash {
                    worker: rng.gen_range(0..workers),
                });
            }
            if rng.gen::<f64>() < 0.10 {
                at_step.push(FaultEvent::PsStall {
                    delay_ns: rng.gen_range(500_000u64..20_000_000),
                });
            }
            if rng.gen::<f64>() < 0.15 {
                at_step.push(FaultEvent::NetDrop {
                    worker: rng.gen_range(0..workers),
                    records: rng.gen_range(1u64..3),
                });
            }
            if rng.gen::<f64>() < 0.08 {
                at_step.push(FaultEvent::NetTamper {
                    worker: rng.gen_range(0..workers),
                });
            }
            if rng.gen::<f64>() < 0.10 {
                at_step.push(FaultEvent::ChunkCorruption {
                    offset: rng.gen_range(0usize..4096),
                });
            }
            if rng.gen::<f64>() < 0.10 {
                // Bounded well below the default retry budget (~15 ms of
                // cumulative backoff), so respawns ride outages out.
                at_step.push(FaultEvent::CasOutage {
                    duration_ns: rng.gen_range(1_000_000u64..8_000_000),
                });
            }
            if rng.gen::<f64>() < 0.06 {
                at_step.push(FaultEvent::CrashDuringWrite {
                    after_ops: rng.gen_range(0u64..12),
                });
            }
            if rng.gen::<f64>() < 0.05 {
                at_step.push(FaultEvent::TornWrite {
                    after_ops: rng.gen_range(0u64..12),
                    torn_bytes: rng.gen_range(1usize..256),
                });
            }
            if rng.gen::<f64>() < 0.04 {
                at_step.push(FaultEvent::StorageRollback);
            }
            if !at_step.is_empty() {
                events.insert(step, at_step);
            }
        }
        FaultPlan { seed, events }
    }

    /// Generates a serving-side plan for `steps` gateway pump rounds over
    /// `clients` connected clients, entirely determined by `seed`.
    ///
    /// Serving plans draw from a distinct rng stream (the seed is mixed
    /// with a fixed tag), so a chaos harness can run a training plan and
    /// a serving plan from the same user seed without the two schedules
    /// being correlated. Only client-facing events are scheduled:
    /// [`FaultEvent::RequestBurst`], [`FaultEvent::SlowClient`] and
    /// [`FaultEvent::ClientDisconnect`].
    pub fn generate_serving(seed: u64, steps: u64, clients: usize) -> Self {
        // "SERV" — keeps serving schedules decorrelated from training
        // schedules generated from the same user-facing seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5345_5256);
        let clients = clients.max(1);
        let mut events: BTreeMap<u64, Vec<FaultEvent>> = BTreeMap::new();
        for step in 0..steps {
            let mut at_step = Vec::new();
            if rng.gen::<f64>() < 0.25 {
                at_step.push(FaultEvent::RequestBurst {
                    client: rng.gen_range(0..clients),
                    requests: rng.gen_range(2u64..9),
                });
            }
            if rng.gen::<f64>() < 0.15 {
                at_step.push(FaultEvent::SlowClient {
                    client: rng.gen_range(0..clients),
                    delay_ns: rng.gen_range(500_000u64..10_000_000),
                });
            }
            if rng.gen::<f64>() < 0.08 {
                at_step.push(FaultEvent::ClientDisconnect {
                    client: rng.gen_range(0..clients),
                });
            }
            if !at_step.is_empty() {
                events.insert(step, at_step);
            }
        }
        FaultPlan { seed, events }
    }

    /// Like [`FaultPlan::generate`], but mixes the current virtual time
    /// of `clock` into the seed. Virtual time is itself deterministic,
    /// so two runs that reach the same virtual instant with the same
    /// seed still get identical plans — but plans generated at different
    /// points of a simulation differ.
    pub fn generate_at(clock: &SimClock, seed: u64, steps: u64, workers: usize) -> Self {
        let mixed = seed ^ clock.now_ns().rotate_left(32);
        let mut plan = Self::generate(mixed, steps, workers);
        plan.seed = seed;
        plan
    }

    /// Adds one event at `step` (builder-style, for hand-written plans).
    #[must_use]
    pub fn with_event(mut self, step: u64, event: FaultEvent) -> Self {
        self.events.entry(step).or_default().push(event);
        self
    }

    /// The seed this plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Events scheduled for `step` (empty for fault-free steps).
    pub fn events_at(&self, step: u64) -> &[FaultEvent] {
        self.events.get(&step).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.values().map(Vec::len).sum()
    }

    /// Whether the plan schedules no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// An FNV-1a digest of the full schedule, for asserting bit-for-bit
    /// reproducibility across runs.
    pub fn schedule_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (step, events) in &self.events {
            mix(&step.to_le_bytes());
            for event in events {
                match *event {
                    FaultEvent::WorkerCrash { worker } => {
                        mix(&[1]);
                        mix(&(worker as u64).to_le_bytes());
                    }
                    FaultEvent::PsStall { delay_ns } => {
                        mix(&[2]);
                        mix(&delay_ns.to_le_bytes());
                    }
                    FaultEvent::NetDrop { worker, records } => {
                        mix(&[3]);
                        mix(&(worker as u64).to_le_bytes());
                        mix(&records.to_le_bytes());
                    }
                    FaultEvent::NetTamper { worker } => {
                        mix(&[4]);
                        mix(&(worker as u64).to_le_bytes());
                    }
                    FaultEvent::ChunkCorruption { offset } => {
                        mix(&[5]);
                        mix(&(offset as u64).to_le_bytes());
                    }
                    FaultEvent::CasOutage { duration_ns } => {
                        mix(&[6]);
                        mix(&duration_ns.to_le_bytes());
                    }
                    FaultEvent::CrashDuringWrite { after_ops } => {
                        mix(&[7]);
                        mix(&after_ops.to_le_bytes());
                    }
                    FaultEvent::TornWrite {
                        after_ops,
                        torn_bytes,
                    } => {
                        mix(&[8]);
                        mix(&after_ops.to_le_bytes());
                        mix(&(torn_bytes as u64).to_le_bytes());
                    }
                    FaultEvent::StorageRollback => {
                        mix(&[9]);
                    }
                    FaultEvent::RequestBurst { client, requests } => {
                        mix(&[10]);
                        mix(&(client as u64).to_le_bytes());
                        mix(&requests.to_le_bytes());
                    }
                    FaultEvent::SlowClient { client, delay_ns } => {
                        mix(&[11]);
                        mix(&(client as u64).to_le_bytes());
                        mix(&delay_ns.to_le_bytes());
                    }
                    FaultEvent::ClientDisconnect { client } => {
                        mix(&[12]);
                        mix(&(client as u64).to_le_bytes());
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::generate(42, 50, 4);
        let b = FaultPlan::generate(42, 50, 4);
        assert_eq!(a.schedule_digest(), b.schedule_digest());
        assert_eq!(a.len(), b.len());
        for step in 0..50 {
            assert_eq!(a.events_at(step), b.events_at(step));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, 100, 4);
        let b = FaultPlan::generate(2, 100, 4);
        assert_ne!(a.schedule_digest(), b.schedule_digest());
    }

    #[test]
    fn generation_covers_every_fault_kind() {
        // Over enough steps, every event kind must appear.
        let plan = FaultPlan::generate(7, 500, 3);
        let mut kinds = [false; 9];
        for step in 0..500 {
            for e in plan.events_at(step) {
                let k = match e {
                    FaultEvent::WorkerCrash { .. } => 0,
                    FaultEvent::PsStall { .. } => 1,
                    FaultEvent::NetDrop { .. } => 2,
                    FaultEvent::NetTamper { .. } => 3,
                    FaultEvent::ChunkCorruption { .. } => 4,
                    FaultEvent::CasOutage { .. } => 5,
                    FaultEvent::CrashDuringWrite { .. } => 6,
                    FaultEvent::TornWrite { .. } => 7,
                    FaultEvent::StorageRollback => 8,
                    FaultEvent::RequestBurst { .. }
                    | FaultEvent::SlowClient { .. }
                    | FaultEvent::ClientDisconnect { .. } => {
                        panic!("training plans must not schedule serving events: {e:?}")
                    }
                };
                kinds[k] = true;
            }
        }
        assert_eq!(kinds, [true; 9], "missing fault kinds: {kinds:?}");
    }

    #[test]
    fn serving_generation_covers_every_serving_kind() {
        let plan = FaultPlan::generate_serving(7, 300, 4);
        let mut kinds = [false; 3];
        for step in 0..300 {
            for e in plan.events_at(step) {
                let k = match e {
                    FaultEvent::RequestBurst { .. } => 0,
                    FaultEvent::SlowClient { .. } => 1,
                    FaultEvent::ClientDisconnect { .. } => 2,
                    other => panic!("serving plans must only schedule serving events: {other:?}"),
                };
                kinds[k] = true;
            }
        }
        assert_eq!(kinds, [true; 3], "missing serving fault kinds: {kinds:?}");
    }

    #[test]
    fn serving_plan_is_deterministic_and_decorrelated() {
        let a = FaultPlan::generate_serving(42, 80, 4);
        let b = FaultPlan::generate_serving(42, 80, 4);
        assert_eq!(a.schedule_digest(), b.schedule_digest());
        // Same user seed, but the serving stream must not mirror the
        // training stream.
        let training = FaultPlan::generate(42, 80, 4);
        assert_ne!(a.schedule_digest(), training.schedule_digest());
    }

    #[test]
    fn clock_mixing_is_deterministic_in_virtual_time() {
        let c1 = SimClock::new();
        let c2 = SimClock::new();
        c1.idle_until(12_345);
        c2.idle_until(12_345);
        let a = FaultPlan::generate_at(&c1, 9, 30, 2);
        let b = FaultPlan::generate_at(&c2, 9, 30, 2);
        assert_eq!(a.schedule_digest(), b.schedule_digest());
        c2.idle_until(12_346);
        let c = FaultPlan::generate_at(&c2, 9, 30, 2);
        assert_ne!(a.schedule_digest(), c.schedule_digest());
    }

    #[test]
    fn builder_plan_and_empty_plan() {
        assert!(FaultPlan::none().is_empty());
        let plan = FaultPlan::none()
            .with_event(3, FaultEvent::WorkerCrash { worker: 0 })
            .with_event(3, FaultEvent::CasOutage { duration_ns: 5 })
            .with_event(7, FaultEvent::PsStall { delay_ns: 100 });
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.events_at(3).len(), 2);
        assert!(plan.events_at(4).is_empty());
    }
}
