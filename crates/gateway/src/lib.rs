//! Secure inference gateway (ROADMAP: "serve heavy traffic from
//! millions of users, as fast as the hardware allows").
//!
//! A [`Gateway`] is a deterministic, virtual-time event loop that
//! multiplexes many attested client [`SecureChannel`]s into one
//! [`SecureClassifier`]:
//!
//! * **Micro-batching.** Compatible pending requests are coalesced into
//!   shape-keyed dynamic batches, bounded by
//!   [`GatewayConfig::max_batch`] and a
//!   [`GatewayConfig::batch_timeout_ns`] on the enclave clock, and
//!   executed in one pass through the planned arena and worker pool via
//!   [`SecureClassifier::classify_batch`]. Per-request labels are
//!   bit-identical to serial single-request serving — every kernel
//!   computes an output row from its own input row with a fixed
//!   reduction order — so batching is invisible to clients except in
//!   latency.
//! * **Admission control.** Per-tenant queues are bounded
//!   ([`GatewayConfig::queue_capacity`]); overflow is answered
//!   immediately with [`Response::Unavailable`] and a retry hint
//!   instead of queueing unboundedly. Requests whose deadline expires
//!   while queued are shed the same way.
//! * **Deadline-aware dispatch.** Each batch is anchored by the
//!   earliest-deadline pending request (EDF; best-effort requests sort
//!   after all deadlines), and a batch fires early when a deadline is
//!   within one batch-timeout of now.
//! * **Fairness.** The rest of the batch is filled by deficit
//!   round-robin across tenants, so one hot client cannot starve the
//!   rest: every tenant earns two slots per visit and spends them on
//!   its own queued requests.
//! * **Determinism.** The loop is single-threaded, all time is the
//!   shared [`SimClock`], and idle rounds advance the clock to the next
//!   timer (batch-timeout expiry or deadline pressure) instead of
//!   sleeping — same-seed chaos runs produce bit-identical telemetry
//!   digests (see [`chaos`]).
//!
//! A request is one `[1, …]` row; anything else is answered with
//! [`Response::Error`] at admission. Every admitted request is answered
//! exactly once: with a label, an error, or an unavailable hint. The only
//! exception is a tenant whose channel itself dies (tampering, closed
//! transport) — its queued requests are counted in
//! [`GatewayReport::dropped`].

pub mod chaos;
mod serving;

use securetf::classifier::SecureClassifier;
use securetf::serving::{
    decode_request, encode_response, is_goodbye, salvage_request_id, Request, Response,
    RETRY_AFTER_HINT_NS,
};
use securetf::SecureTfError;
use securetf_shield::net::{SecureChannel, Transport};
use securetf_tee::telemetry::{Counter, Gauge, Histogram};
use securetf_tee::{SimClock, Telemetry};
use securetf_tensor::tensor::Tensor;
use serving::ServingMetrics;
use std::collections::VecDeque;

/// Tuning knobs for the gateway's batching and admission.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Largest micro-batch assembled per dispatch.
    pub max_batch: usize,
    /// Longest a request may wait for batch-mates before the batch is
    /// dispatched under-full, in virtual nanoseconds.
    pub batch_timeout_ns: u64,
    /// Bound on each tenant's queue; overflow is shed.
    pub queue_capacity: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_batch: 8,
            batch_timeout_ns: 2_000_000,
            queue_capacity: 32,
        }
    }
}

/// Requests a tenant earns per deficit-round-robin visit.
const DRR_QUANTUM: u64 = 2;

/// Counters accumulated over a gateway's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayReport {
    /// Requests admitted to a queue.
    pub admitted: u64,
    /// Responses successfully sent (labels, errors and unavailables).
    pub answered: u64,
    /// Requests refused at admission (queue full or enclave down).
    pub shed: u64,
    /// Requests whose deadline expired in the queue (answered
    /// unavailable) or that finished past their deadline.
    pub deadline_misses: u64,
    /// Batches executed.
    pub batches: u64,
    /// Largest batch executed.
    pub largest_batch: u64,
    /// Responses lost because the tenant's channel died mid-session.
    pub dropped: u64,
}

/// What one [`Gateway::pump`] round did.
#[derive(Debug, Clone, Copy, Default)]
pub struct PumpStats {
    /// Frames ingested from client channels.
    pub polled: u64,
    /// Requests admitted to queues.
    pub admitted: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Responses sent.
    pub responses: u64,
}

impl PumpStats {
    fn merge(&mut self, other: PumpStats) {
        self.polled += other.polled;
        self.admitted += other.admitted;
        self.batches += other.batches;
        self.responses += other.responses;
    }
}

/// A queued request awaiting dispatch.
#[derive(Debug)]
struct Pending {
    request: Request,
    enqueued_ns: u64,
    seq: u64,
}

impl Pending {
    /// EDF ordering key: deadline first (best-effort sorts last), then
    /// arrival, then admission sequence for a total order.
    fn edf_key(&self, tenant: usize) -> (u64, u64, usize, u64) {
        (
            self.request.deadline_ns.unwrap_or(u64::MAX),
            self.enqueued_ns,
            tenant,
            self.seq,
        )
    }
}

struct Tenant<T: Transport> {
    channel: SecureChannel<T>,
    connected: bool,
    queue: VecDeque<Pending>,
    deficit: u64,
    requests: Counter,
    cost_ns: Counter,
}

/// The multiplexing serving front-end. See the crate docs.
pub struct Gateway<T: Transport> {
    classifier: SecureClassifier,
    config: GatewayConfig,
    clock: SimClock,
    telemetry: Telemetry,
    tenants: Vec<Tenant<T>>,
    drr_cursor: usize,
    seq: u64,
    serving: ServingMetrics,
    queue_depth: Gauge,
    batch_size: Histogram,
    queue_wait: Histogram,
    shed: Counter,
    deadline_miss: Counter,
    requests: Counter,
    responses: Counter,
    batches: Counter,
    report: GatewayReport,
}

impl<T: Transport> std::fmt::Debug for Gateway<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("tenants", &self.tenants.len())
            .field("pending", &self.pending())
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl<T: Transport> Gateway<T> {
    /// Wraps `classifier` in a gateway with `config`.
    pub fn new(classifier: SecureClassifier, config: GatewayConfig) -> Self {
        let telemetry = classifier.enclave().telemetry().clone();
        let clock = classifier.enclave().clock().clone();
        Gateway {
            serving: ServingMetrics::for_telemetry(&telemetry),
            queue_depth: telemetry.gauge("gateway.queue_depth"),
            batch_size: telemetry.histogram("gateway.batch_size"),
            queue_wait: telemetry.histogram("gateway.queue_wait_ns"),
            shed: telemetry.counter("gateway.shed"),
            deadline_miss: telemetry.counter("gateway.deadline_miss"),
            requests: telemetry.counter("gateway.requests"),
            responses: telemetry.counter("gateway.responses"),
            batches: telemetry.counter("gateway.batches"),
            classifier,
            config,
            clock,
            telemetry,
            tenants: Vec::new(),
            drr_cursor: 0,
            seq: 0,
            report: GatewayReport::default(),
        }
    }

    /// Registers an established (post-handshake) client channel and
    /// returns its tenant index.
    pub fn accept(&mut self, channel: SecureChannel<T>) -> usize {
        let idx = self.tenants.len();
        self.tenants.push(Tenant {
            channel,
            connected: true,
            queue: VecDeque::new(),
            deficit: 0,
            requests: self
                .telemetry
                .counter(&format!("gateway.tenant.{idx}.requests")),
            cost_ns: self
                .telemetry
                .counter(&format!("gateway.tenant.{idx}.cost_ns")),
        });
        idx
    }

    /// The wrapped classifier.
    pub fn classifier(&self) -> &SecureClassifier {
        &self.classifier
    }

    /// Mutable access to the wrapped classifier (e.g. to mark its
    /// enclave failed in a chaos test, or swap the worker pool).
    pub fn classifier_mut(&mut self) -> &mut SecureClassifier {
        &mut self.classifier
    }

    /// Lifetime counters.
    pub fn report(&self) -> GatewayReport {
        self.report
    }

    /// Requests currently queued across all tenants.
    pub fn pending(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// Whether tenant `idx` has sent its goodbye (or had its channel
    /// die).
    pub fn is_connected(&self, idx: usize) -> bool {
        self.tenants.get(idx).is_some_and(|t| t.connected)
    }

    /// One event-loop round: ingest every available frame, shed expired
    /// requests, dispatch every ready batch, and — when the round would
    /// otherwise be idle with work still queued — jump the virtual
    /// clock to the next timer (batch-timeout expiry or deadline
    /// pressure) and dispatch again.
    ///
    /// # Errors
    ///
    /// Returns [`SecureTfError`] only for classifier-side failures that
    /// are not expressible as a per-request [`Response::Error`]
    /// (e.g. EPC accounting faults). Per-tenant channel violations
    /// disconnect that tenant only.
    pub fn pump(&mut self) -> Result<PumpStats, SecureTfError> {
        let _span = self.telemetry.span("gateway.pump");
        let mut stats = PumpStats::default();
        self.poll(&mut stats);
        self.expire_overdue(&mut stats);
        while self.batch_ready() {
            self.dispatch_batch(&mut stats)?;
        }
        if stats.polled == 0 && stats.batches == 0 && self.pending() > 0 {
            self.advance_to_next_trigger();
            self.expire_overdue(&mut stats);
            while self.batch_ready() {
                self.dispatch_batch(&mut stats)?;
            }
        }
        self.queue_depth.set(self.pending() as i64);
        Ok(stats)
    }

    /// Pumps until every queued request has been answered and no more
    /// frames are arriving.
    ///
    /// # Errors
    ///
    /// Propagates [`Gateway::pump`] errors.
    pub fn flush(&mut self) -> Result<PumpStats, SecureTfError> {
        let mut total = PumpStats::default();
        loop {
            let round = self.pump()?;
            let progressed = round.polled > 0 || round.batches > 0 || round.responses > 0;
            total.merge(round);
            if self.pending() == 0 && !progressed {
                return Ok(total);
            }
        }
    }

    /// Drains every client channel, admitting requests and answering
    /// immediately-rejectable frames (malformed, shed, enclave down).
    fn poll(&mut self, stats: &mut PumpStats) {
        let mut outbox: Vec<(usize, Response)> = Vec::new();
        for idx in 0..self.tenants.len() {
            loop {
                let frame = match self.tenants[idx].channel.try_recv() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        // Tampered or dead channel: this tenant's
                        // session is over; its queued requests can no
                        // longer be answered.
                        self.disconnect(idx);
                        break;
                    }
                };
                stats.polled += 1;
                if is_goodbye(&frame) {
                    self.tenants[idx].connected = false;
                    continue;
                }
                match decode_request(&frame) {
                    Ok(request) => {
                        self.requests.inc();
                        self.tenants[idx].requests.inc();
                        let backend_down = self.classifier.enclave().is_failed();
                        if request.input.shape().first() != Some(&1) {
                            // Several rows in one request would come back
                            // as one label: refuse it instead.
                            outbox.push((
                                idx,
                                Response::Error {
                                    id: request.id,
                                    message: format!(
                                        "input {:?} is not one row",
                                        request.input.shape()
                                    ),
                                },
                            ));
                        } else if backend_down
                            || self.tenants[idx].queue.len() >= self.config.queue_capacity
                        {
                            self.report.shed += 1;
                            self.shed.inc();
                            outbox.push((
                                idx,
                                Response::Unavailable {
                                    id: request.id,
                                    retry_after_ns: RETRY_AFTER_HINT_NS,
                                },
                            ));
                        } else {
                            let pending = Pending {
                                request,
                                enqueued_ns: self.clock.now_ns(),
                                seq: self.seq,
                            };
                            self.seq += 1;
                            self.tenants[idx].queue.push_back(pending);
                            self.report.admitted += 1;
                            stats.admitted += 1;
                        }
                    }
                    Err(e) => outbox.push((
                        idx,
                        Response::Error {
                            id: salvage_request_id(&frame).unwrap_or(0),
                            message: e.to_string(),
                        },
                    )),
                }
            }
        }
        self.send_all(outbox, stats);
    }

    /// Answers every queued request whose deadline has already passed
    /// with an unavailable hint — running it would waste a batch slot
    /// on an answer the client must discard.
    fn expire_overdue(&mut self, stats: &mut PumpStats) {
        let now = self.clock.now_ns();
        let mut outbox: Vec<(usize, Response)> = Vec::new();
        for idx in 0..self.tenants.len() {
            while let Some(pos) = self.tenants[idx]
                .queue
                .iter()
                .position(|p| p.request.deadline_ns.is_some_and(|d| d < now))
            {
                let pending = self.tenants[idx]
                    .queue
                    .remove(pos)
                    .expect("position exists");
                self.report.deadline_misses += 1;
                self.deadline_miss.inc();
                outbox.push((
                    idx,
                    Response::Unavailable {
                        id: pending.request.id,
                        retry_after_ns: RETRY_AFTER_HINT_NS,
                    },
                ));
            }
        }
        self.send_all(outbox, stats);
    }

    /// Whether a batch should fire now: the queue can fill one, someone
    /// has waited a full batch timeout, or a deadline is close enough
    /// that waiting longer risks missing it.
    fn batch_ready(&self) -> bool {
        let total = self.pending();
        if total == 0 {
            return false;
        }
        if total >= self.config.max_batch {
            return true;
        }
        let now = self.clock.now_ns();
        let all = self.tenants.iter().flat_map(|t| t.queue.iter());
        let oldest = all.clone().map(|p| p.enqueued_ns).min().unwrap_or(now);
        if now.saturating_sub(oldest) >= self.config.batch_timeout_ns {
            return true;
        }
        all.filter_map(|p| p.request.deadline_ns)
            .min()
            .is_some_and(|d| d <= now + self.config.batch_timeout_ns)
    }

    /// Jumps the virtual clock to the next instant at which
    /// [`Gateway::batch_ready`] becomes true — the event-loop timer of
    /// a simulation that must never sleep. The jump is idle time, so it is
    /// charged to no cost category.
    fn advance_to_next_trigger(&self) {
        let now = self.clock.now_ns();
        let pending = self.tenants.iter().flat_map(|t| t.queue.iter());
        let oldest = pending.clone().map(|p| p.enqueued_ns).min().unwrap_or(now);
        let timeout_at = oldest.saturating_add(self.config.batch_timeout_ns);
        let deadline_at = pending
            .filter_map(|p| p.request.deadline_ns)
            .min()
            .map(|d| d.saturating_sub(self.config.batch_timeout_ns))
            .unwrap_or(u64::MAX);
        let trigger = timeout_at.min(deadline_at);
        self.clock.idle_until(trigger.max(now + 1));
    }

    /// Assembles one batch (EDF anchor + deficit-round-robin fill),
    /// executes it, and answers every member.
    fn dispatch_batch(&mut self, stats: &mut PumpStats) -> Result<(), SecureTfError> {
        let _span = self.telemetry.span("gateway.batch");
        // EDF anchor: the most urgent pending request across all tenants.
        let Some((anchor_tenant, anchor_pos)) = self
            .tenants
            .iter()
            .enumerate()
            .flat_map(|(t, tenant)| tenant.queue.iter().enumerate().map(move |(i, p)| (t, i, p)))
            .min_by_key(|(t, _, p)| p.edf_key(*t))
            .map(|(t, i, _)| (t, i))
        else {
            return Ok(());
        };
        let anchor = self.tenants[anchor_tenant]
            .queue
            .remove(anchor_pos)
            .expect("anchor exists");
        let shape = anchor.request.input.shape().to_vec();
        let mut picked = vec![(anchor_tenant, anchor)];
        self.fill_batch_drr(&shape, &mut picked);

        let started_ns = self.clock.now_ns();
        for (_, p) in &picked {
            self.queue_wait
                .record(started_ns.saturating_sub(p.enqueued_ns));
        }
        let outcome = match stack_rows(&shape, picked.iter().map(|(_, p)| &p.request.input)) {
            Some(batch) => self
                .classifier
                .classify_batch(&batch)
                .map(|(labels, _)| labels),
            None => Err(SecureTfError::ModelIntegrity("unstackable batch")),
        };
        let finished_ns = self.clock.now_ns();
        let batch_ns = finished_ns - started_ns;
        let share_ns = batch_ns / picked.len() as u64;

        self.batches.inc();
        self.batch_size.record(picked.len() as u64);
        self.report.batches += 1;
        self.report.largest_batch = self.report.largest_batch.max(picked.len() as u64);
        stats.batches += 1;

        let mut outbox: Vec<(usize, Response)> = Vec::new();
        for (i, (tenant, pending)) in picked.iter().enumerate() {
            let response = match &outcome {
                Ok(labels) => Response::Label {
                    id: pending.request.id,
                    label: labels[i] as u32,
                },
                Err(e) => Response::Error {
                    id: pending.request.id,
                    message: e.to_string(),
                },
            };
            if pending.request.deadline_ns.is_some_and(|d| finished_ns > d) {
                self.report.deadline_misses += 1;
                self.deadline_miss.inc();
            }
            self.tenants[*tenant].cost_ns.add(share_ns);
            outbox.push((*tenant, response));
        }
        // Latency is measured from admission, so it includes queue wait.
        let latencies: Vec<u64> = picked
            .iter()
            .map(|(_, p)| finished_ns.saturating_sub(p.enqueued_ns))
            .collect();
        self.send_batch(outbox, &latencies, stats);
        Ok(())
    }

    /// Fills `picked` up to the batch ceiling with same-shape requests,
    /// visiting tenants in deficit-round-robin order so every tenant
    /// earns [`DRR_QUANTUM`] slots per visit regardless of queue depth.
    fn fill_batch_drr(&mut self, shape: &[usize], picked: &mut Vec<(usize, Pending)>) {
        let n = self.tenants.len();
        if n == 0 {
            return;
        }
        let mut idx = self.drr_cursor % n;
        let mut barren_visits = 0;
        while picked.len() < self.config.max_batch && barren_visits < n {
            let tenant = &mut self.tenants[idx];
            let matches = |p: &Pending| p.request.input.shape() == shape;
            if tenant.queue.iter().any(&matches) {
                tenant.deficit += DRR_QUANTUM;
                let mut took = false;
                while tenant.deficit > 0 && picked.len() < self.config.max_batch {
                    let Some(pos) = tenant.queue.iter().position(&matches) else {
                        break;
                    };
                    let pending = tenant.queue.remove(pos).expect("position exists");
                    tenant.deficit -= 1;
                    took = true;
                    picked.push((idx, pending));
                }
                if took {
                    barren_visits = 0;
                } else {
                    barren_visits += 1;
                }
            } else {
                barren_visits += 1;
            }
            // Classic DRR: an emptied queue forfeits its deficit, so a
            // tenant cannot bank credit while idle.
            if self.tenants[idx].queue.is_empty() {
                self.tenants[idx].deficit = 0;
            }
            idx = (idx + 1) % n;
        }
        self.drr_cursor = idx;
    }

    /// Sends immediate (zero-latency) responses.
    fn send_all(&mut self, outbox: Vec<(usize, Response)>, stats: &mut PumpStats) {
        let latencies = vec![0u64; outbox.len()];
        self.send_batch(outbox, &latencies, stats);
    }

    fn send_batch(
        &mut self,
        outbox: Vec<(usize, Response)>,
        latencies: &[u64],
        stats: &mut PumpStats,
    ) {
        for ((idx, response), &latency_ns) in outbox.into_iter().zip(latencies) {
            match self.tenants[idx].channel.send(&encode_response(&response)) {
                Ok(()) => {
                    self.responses.inc();
                    self.report.answered += 1;
                    stats.responses += 1;
                    self.serving.record(&response, latency_ns);
                }
                Err(_) => self.disconnect(idx),
            }
        }
    }

    /// Tears down a tenant whose channel died: no more frames will be
    /// read, and queued requests can no longer be answered.
    fn disconnect(&mut self, idx: usize) {
        let tenant = &mut self.tenants[idx];
        tenant.connected = false;
        self.report.dropped += tenant.queue.len() as u64;
        tenant.queue.clear();
        tenant.deficit = 0;
    }
}

/// Stacks `[1, d…]` inputs into one `[n, d…]` tensor. Returns `None`
/// if any input deviates from `shape` (callers pre-filter, so this is
/// defense in depth).
fn stack_rows<'a>(shape: &[usize], inputs: impl Iterator<Item = &'a Tensor>) -> Option<Tensor> {
    let mut data = Vec::new();
    let mut rows = 0usize;
    for input in inputs {
        if input.shape() != shape {
            return None;
        }
        data.extend_from_slice(input.data());
        rows += 1;
    }
    let mut batch_shape = shape.to_vec();
    batch_shape[0] = rows;
    Tensor::from_vec(&batch_shape, data).ok()
}
