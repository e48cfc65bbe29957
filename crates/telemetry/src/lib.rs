//! Enclave-safe observability for the secureTF stack.
//!
//! The paper's whole evaluation (§5) is a measurement story — attestation
//! latency breakdowns, EPC-paging-dominated inference tails, shield
//! overheads — and SGX-LKL and Privado both stress that what an enclave
//! *emits* is part of its attack surface. This crate is therefore a
//! first-class in-enclave subsystem rather than a bolt-on logger, built
//! around three invariants:
//!
//! 1. **Deterministic.** All timing is *virtual*: spans and histograms are
//!    driven by the simulator's `SimClock`-style [`TimeSource`], never by
//!    wall time, so two runs with the same fault-plan seed produce
//!    bit-identical telemetry. [`Telemetry::metrics_digest`] hashes the
//!    whole registry canonically and is asserted equal across same-seed
//!    runs in the chaos suite.
//! 2. **Zero-cost when off.** A disabled handle ([`Telemetry::disabled`])
//!    never reads the clock, never allocates, and never takes a lock: every
//!    instrumentation call is an early return on a `None`. Virtual-time
//!    totals with telemetry off are identical to a build where the
//!    subsystem is absent.
//! 3. **Sealed export only.** The serialized snapshot wire format is
//!    private to this crate; the only way to move telemetry out of the
//!    enclave is [`Snapshot::seal_with`], which routes the bytes through an
//!    enclave sealing primitive. Plain-text export is impossible by
//!    construction, and tampering with a sealed snapshot surfaces as a
//!    typed [`ExportError::Integrity`] — fail closed.
//!
//! A count lives in one place, this registry. Only a [`Telemetry`] hands
//! out metric handles ([`Telemetry::counter`], [`Telemetry::gauge`],
//! [`Telemetry::histogram`]); a component resolves its handles once and
//! keeps no typed copy of what they count, so a snapshot, a digest and a
//! test all read the same number, by name. State a model computes with
//! (the EPC's resident-page total, say) is a plain field of that model,
//! set into a gauge for export and never read back, so virtual time is
//! the same whether telemetry is on or off.
//!
//! # Examples
//!
//! ```
//! use securetf_telemetry::{CostCategory, Telemetry, TimeSource};
//! use std::sync::Arc;
//! # use std::sync::atomic::{AtomicU64, Ordering};
//! # #[derive(Default)] struct Clock(AtomicU64);
//! # impl Clock { fn tick(&self, ns: u64) { self.0.fetch_add(ns, Ordering::Relaxed); } }
//! # impl TimeSource for Clock { fn now_ns(&self) -> u64 { self.0.load(Ordering::Relaxed) } }
//!
//! let clock = Arc::new(Clock::default());
//! let telemetry = Telemetry::new(clock.clone());
//! {
//!     let _span = telemetry.span("inference");
//!     clock.tick(1_000);
//!     telemetry.charge(CostCategory::Paging, 400);
//!     telemetry.counter("requests").inc();
//! }
//! let report = telemetry.span_report();
//! assert_eq!(report.total_ns(), 1_000);
//! assert_eq!(report.self_sum_ns(), 1_000);
//! assert_eq!(telemetry.counter("requests").get(), 1);
//! ```

pub mod export;
pub mod metrics;
pub mod span;

pub use export::{ExportError, SealedSnapshot, Snapshot, EXPORT_AAD};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, HISTOGRAM_BOUNDS_NS};
pub use span::{SpanGuard, SpanNode, SpanReport};

use metrics::MetricHandle;
use parking_lot::Mutex;
use span::SpanState;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A source of virtual time. The TEE simulator implements this for its
/// `SimClock`; telemetry only ever *reads* time and never advances it, so
/// instrumentation cannot perturb a run's virtual-time totals.
pub trait TimeSource: Send + Sync {
    /// Current virtual time in nanoseconds.
    fn now_ns(&self) -> u64;
}

/// Where a slice of virtual time went. A cost moves a clock only through
/// `Enclave::spend` / `Platform::spend` (and the `Enclave::charge_*` built
/// on it), which charge it to one category of the innermost open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CostCategory {
    /// Tensor math (FLOPs through the mode's slowdown multiplier).
    Compute = 0,
    /// Synchronous enclave transitions (EENTER/EEXIT pairs).
    Transitions = 1,
    /// EPC page faults and evictions (EWB/ELDU).
    Paging = 2,
    /// System calls (async queue ops or native kernel calls).
    Syscalls = 3,
    /// Network-shield record processing, LAN transfer time and heartbeats.
    Network = 4,
    /// File-system-shield / sealing streaming crypto.
    Crypto = 5,
    /// Quote generation and attestation round trips (CAS and IAS).
    Attestation = 6,
    /// Everything else (enclave build, stalls, backoff, compiler, PCIe).
    Other = 7,
}

/// Number of [`CostCategory`] variants (length of per-span cost arrays).
pub const COST_CATEGORIES: usize = 8;

impl CostCategory {
    /// All categories, in stable digest order.
    pub const ALL: [CostCategory; COST_CATEGORIES] = [
        CostCategory::Compute,
        CostCategory::Transitions,
        CostCategory::Paging,
        CostCategory::Syscalls,
        CostCategory::Network,
        CostCategory::Crypto,
        CostCategory::Attestation,
        CostCategory::Other,
    ];

    /// Stable lowercase name (used in metric names and rendered reports).
    pub fn name(self) -> &'static str {
        match self {
            CostCategory::Compute => "compute",
            CostCategory::Transitions => "transitions",
            CostCategory::Paging => "paging",
            CostCategory::Syscalls => "syscalls",
            CostCategory::Network => "network",
            CostCategory::Crypto => "crypto",
            CostCategory::Attestation => "attestation",
            CostCategory::Other => "other",
        }
    }
}

impl fmt::Display for CostCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

pub(crate) struct Inner {
    time: Arc<dyn TimeSource>,
    pub(crate) registry: Mutex<BTreeMap<String, MetricHandle>>,
    pub(crate) spans: Mutex<SpanState>,
    /// Pre-registered `cost.<category>.ns` counters, indexed by category.
    cost_ns: [Counter; COST_CATEGORIES],
    /// Pre-registered `cost.<category>.events` counters.
    cost_events: [Counter; COST_CATEGORIES],
    /// Monotone id for deterministic per-component metric scopes.
    next_scope: AtomicU64,
}

/// The observability handle threaded through the stack.
///
/// Cloning shares the underlying registry and span tree (it is an
/// `Arc` internally); [`Telemetry::disabled`] — also the `Default` — is a
/// null handle whose every operation is a no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("metrics", &inner.registry.lock().len())
                .finish_non_exhaustive(),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// Creates an enabled handle driven by `time`.
    pub fn new(time: Arc<dyn TimeSource>) -> Self {
        let mut registry = BTreeMap::new();
        let mk = |registry: &mut BTreeMap<String, MetricHandle>, name: String| {
            let c = Counter::new();
            registry.insert(name, MetricHandle::Counter(c.clone()));
            c
        };
        let cost_ns =
            CostCategory::ALL.map(|cat| mk(&mut registry, format!("cost.{}.ns", cat.name())));
        let cost_events =
            CostCategory::ALL.map(|cat| mk(&mut registry, format!("cost.{}.events", cat.name())));
        Telemetry {
            inner: Some(Arc::new(Inner {
                time,
                registry: Mutex::new(registry),
                spans: Mutex::new(SpanState::default()),
                cost_ns,
                cost_events,
                next_scope: AtomicU64::new(0),
            })),
        }
    }

    /// The null handle: every operation is an early-return no-op that
    /// reads no clock, takes no lock and allocates nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Reserves a deterministic numeric scope id (used to disambiguate
    /// per-enclave metric names: the k-th component registered against
    /// this handle always gets id k, so same-seed runs agree on names).
    pub fn next_scope_id(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_scope.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    // ---- spans ------------------------------------------------------------

    /// Opens a virtual-time span; it closes (recording its end time) when
    /// the returned guard drops. Spans nest: a span opened while another
    /// is open becomes its child, and subsequent [`Telemetry::charge`]
    /// calls attribute cost to the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            Some(inner) => {
                let now = inner.time.now_ns();
                let idx = inner.spans.lock().enter(name, now);
                SpanGuard::active(self.clone(), idx)
            }
            None => SpanGuard::noop(),
        }
    }

    pub(crate) fn exit_span(&self, idx: usize) {
        if let Some(inner) = &self.inner {
            let now = inner.time.now_ns();
            inner.spans.lock().exit(idx, now);
        }
    }

    /// Attributes `ns` of already-charged virtual time to `category` on
    /// the innermost open span (and the global `cost.*` counters). The
    /// clock itself is advanced by the TEE's `spend`, never here.
    pub fn charge(&self, category: CostCategory, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.cost_ns[category as usize].add(ns);
            inner.cost_events[category as usize].inc();
            inner.spans.lock().charge(category, ns);
        }
    }

    /// A structural copy of the span tree so far (open spans are reported
    /// with the current virtual time as a provisional end).
    pub fn span_report(&self) -> SpanReport {
        match &self.inner {
            Some(inner) => {
                let now = inner.time.now_ns();
                SpanReport::new(inner.spans.lock().nodes(now))
            }
            None => SpanReport::new(Vec::new()),
        }
    }

    // ---- metrics ----------------------------------------------------------

    /// Returns (creating on first use) the named counter. On a disabled
    /// handle this returns a no-op counter without allocating.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => {
                let mut registry = inner.registry.lock();
                if let Some(MetricHandle::Counter(c)) = registry.get(name) {
                    return c.clone();
                }
                let c = Counter::new();
                registry.insert(name.to_string(), MetricHandle::Counter(c.clone()));
                c
            }
            None => Counter::noop(),
        }
    }

    /// Returns (creating on first use) the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => {
                let mut registry = inner.registry.lock();
                if let Some(MetricHandle::Gauge(g)) = registry.get(name) {
                    return g.clone();
                }
                let g = Gauge::new();
                registry.insert(name.to_string(), MetricHandle::Gauge(g.clone()));
                g
            }
            None => Gauge::noop(),
        }
    }

    /// Returns (creating on first use) the named fixed-bucket latency
    /// histogram (bounds: [`HISTOGRAM_BOUNDS_NS`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(inner) => {
                let mut registry = inner.registry.lock();
                if let Some(MetricHandle::Histogram(h)) = registry.get(name) {
                    return h.clone();
                }
                let h = Histogram::new();
                registry.insert(name.to_string(), MetricHandle::Histogram(h.clone()));
                h
            }
            None => Histogram::noop(),
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn metrics(&self) -> Vec<(String, MetricValue)> {
        match &self.inner {
            Some(inner) => inner
                .registry
                .lock()
                .iter()
                .map(|(name, handle)| (name.clone(), handle.value()))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Canonical SHA-256 digest over every registered metric name and
    /// value. Two same-seed runs must produce byte-identical digests; the
    /// chaos suite asserts exactly that.
    pub fn metrics_digest(&self) -> [u8; 32] {
        export::digest_metrics(&self.metrics())
    }

    /// [`Telemetry::metrics_digest`] as lowercase hex.
    pub fn metrics_digest_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.metrics_digest() {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Captures a full snapshot (metrics + span tree + capture time) for
    /// sealed export. The snapshot's wire encoding is private: the only
    /// way it leaves the process is through [`Snapshot::seal_with`].
    pub fn snapshot(&self) -> Snapshot {
        let taken_at_ns = match &self.inner {
            Some(inner) => inner.time.now_ns(),
            None => 0,
        };
        Snapshot::new(taken_at_ns, self.metrics(), self.span_report().into_nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[derive(Default)]
    pub(crate) struct TestClock(pub AtomicU64);

    impl TestClock {
        pub fn tick(&self, ns: u64) {
            self.0.fetch_add(ns, Ordering::Relaxed);
        }
    }

    impl TimeSource for TestClock {
        fn now_ns(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    fn enabled() -> (Telemetry, Arc<TestClock>) {
        let clock = Arc::new(TestClock::default());
        (Telemetry::new(clock.clone()), clock)
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        let c = t.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        let g = t.gauge("y");
        g.set(5);
        assert_eq!(g.get(), 0);
        let h = t.histogram("z");
        h.record(100);
        assert_eq!(h.snapshot().count, 0);
        {
            let _span = t.span("noop");
            t.charge(CostCategory::Compute, 10);
        }
        assert!(t.metrics().is_empty());
        assert!(t.span_report().is_empty());
    }

    #[test]
    fn default_is_disabled() {
        let t = Telemetry::default();
        t.counter("x").inc();
        assert!(
            t.metrics().is_empty(),
            "an enabled handle lists its cost.* counters"
        );
    }

    #[test]
    fn counters_gauges_histograms_register_once() {
        let (t, _) = enabled();
        t.counter("a").inc();
        t.counter("a").add(2);
        assert_eq!(t.counter("a").get(), 3);
        t.gauge("g").set(10);
        t.gauge("g").sub(4);
        assert_eq!(t.gauge("g").get(), 6);
        t.histogram("h").record(5_000);
        t.histogram("h").record(2_000_000);
        let snap = t.histogram("h").snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_ns, 2_005_000);
        assert_eq!(snap.max_ns, 2_000_000);
    }

    #[test]
    fn spans_nest_and_attribute_costs() {
        let (t, clock) = enabled();
        {
            let _outer = t.span("outer");
            clock.tick(100);
            {
                let _inner = t.span("inner");
                clock.tick(40);
                t.charge(CostCategory::Paging, 25);
            }
            clock.tick(10);
            t.charge(CostCategory::Compute, 7);
        }
        let report = t.span_report();
        assert_eq!(report.total_ns(), 150);
        assert_eq!(report.self_sum_ns(), 150);
        let nodes = report.nodes();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].name, "outer");
        assert_eq!(nodes[1].parent, Some(0));
        assert_eq!(nodes[1].costs[CostCategory::Paging as usize], 25);
        assert_eq!(nodes[0].costs[CostCategory::Compute as usize], 7);
        // Global cost counters track the same charges.
        assert_eq!(t.counter("cost.paging.ns").get(), 25);
        assert_eq!(t.counter("cost.compute.events").get(), 1);
    }

    #[test]
    fn digest_is_deterministic_and_value_sensitive() {
        let run = |extra: u64| {
            let (t, _) = enabled();
            t.counter("requests").add(extra);
            t.gauge("resident").set(42);
            t.metrics_digest()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn scope_ids_are_sequential() {
        let (t, _) = enabled();
        assert_eq!(t.next_scope_id(), 0);
        assert_eq!(t.next_scope_id(), 1);
        assert_eq!(Telemetry::disabled().next_scope_id(), 0);
    }

    #[test]
    fn digest_hex_is_64_chars() {
        let (t, _) = enabled();
        assert_eq!(t.metrics_digest_hex().len(), 64);
    }
}
