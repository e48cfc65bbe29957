//! Virtual time and the SGX cost model.
//!
//! Running TF-scale workloads under a real 94 MiB EPC is impossible without
//! SGX hardware, so the simulator accounts *virtual nanoseconds* instead:
//! every modeled hardware event (enclave transition, page swap, WAN round
//! trip, FLOPs of tensor compute) advances a [`SimClock`]. Benchmarks read
//! the clock instead of wall time, which makes every figure deterministic
//! and fast to regenerate.
//!
//! The default [`CostModel`] is parameterized with published SGXv1 numbers
//! for the paper's testbed CPU (Xeon E3-1280 v6 @ 3.9 GHz).

use securetf_telemetry::{CostCategory, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone virtual clock counting nanoseconds.
///
/// Cloning shares the underlying counter; per-node clocks are created by
/// [`SimClock::new`]. A cost moves it only through `Enclave::spend` or
/// `Platform::spend`, idle waiting only through [`SimClock::idle_until`].
///
/// # Examples
///
/// ```
/// use securetf_tee::SimClock;
///
/// let clock = SimClock::new();
/// clock.idle_until(1_500);
/// assert_eq!(clock.now_ns(), 1_500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    ns: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock {
            ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The one body that spends virtual time: advances by `ns`, charged to `category`.
    pub(crate) fn spend(&self, telemetry: &Telemetry, category: CostCategory, ns: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        telemetry.charge(category, ns);
    }

    /// Moves the clock forward to `t_ns` if behind: idle time, charged to no category.
    pub fn idle_until(&self, t_ns: u64) {
        self.ns.fetch_max(t_ns, Ordering::Relaxed);
    }

    /// Returns the current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Returns the current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Measures the virtual duration of `f` in nanoseconds.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let start = self.now_ns();
        let value = f();
        (value, self.now_ns() - start)
    }

    /// Creates an enabled telemetry handle driven by this clock. The
    /// handle shares the clock's counter, so spans and histograms measure
    /// the same virtual time every cost charge advances.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry::new(Arc::new(self.clone()))
    }
}

/// The telemetry subsystem reads (never advances) virtual time through
/// this impl, so instrumentation cannot perturb a run's timing.
impl securetf_telemetry::TimeSource for SimClock {
    fn now_ns(&self) -> u64 {
        SimClock::now_ns(self)
    }
}

/// Cost parameters of the simulated SGX platform.
///
/// All values are derived from the paper's testbed (Intel Xeon E3-1280 v6,
/// 3.9 GHz, SGXv1 with ~94 MiB usable EPC) and published microbenchmarks of
/// SGXv1 enclave transitions and EPC paging.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// CPU frequency in GHz; converts cycle costs to nanoseconds.
    pub cpu_ghz: f64,
    /// Cycles for a synchronous enclave transition pair (EENTER+EEXIT).
    pub transition_cycles: u64,
    /// Cycles for an asynchronous (exit-less) system call through the
    /// shielded runtime's syscall queue.
    pub async_syscall_cycles: u64,
    /// Cycles for a conventional (non-enclave) system call.
    pub native_syscall_cycles: u64,
    /// Cycles to evict one 4 KiB EPC page and load its replacement
    /// (EWB + ELDU, including page encryption/integrity).
    pub page_swap_cycles: u64,
    /// Usable EPC size in bytes (the paper's ~94 MiB).
    pub epc_bytes: u64,
    /// Throughput of in-enclave streaming crypto (file-system shield),
    /// bytes per second. The paper cites ~4 GB/s AES-NI.
    pub shield_crypto_bytes_per_sec: f64,
    /// Effective single-core compute throughput outside enclaves, FLOP/s.
    pub native_flops: f64,
    /// Multiplier on compute when executing inside a hardware enclave
    /// (MEE-encrypted memory traffic slows EPC-resident access).
    pub hw_compute_slowdown: f64,
    /// Multiplier on compute in SIM mode (user-level runtime only).
    pub sim_compute_slowdown: f64,
    /// One-way WAN latency to the Intel Attestation Service, nanoseconds.
    pub ias_wan_one_way_ns: u64,
    /// Service time of the IAS quote-verification endpoint, nanoseconds.
    pub ias_service_ns: u64,
    /// LAN round-trip latency between cluster nodes, nanoseconds.
    pub lan_rtt_ns: u64,
    /// LAN bandwidth in bytes per second.
    pub lan_bytes_per_sec: f64,
    /// Effective throughput of the network shield's record processing
    /// (copy in/out of the enclave plus AEAD), bytes per second. Slower
    /// than the raw link: the paper's Figure 8 attributes most training
    /// overhead in SIM mode to the network shield.
    pub shield_net_bytes_per_sec: f64,
    /// Multiplier on multi-threaded *training* compute under the shielded
    /// runtime. The paper reports a scheduling issue in SCONE's user-level
    /// threads that slowed training to 2.3× native even in SIM mode
    /// (§5.4, "now fixed in the current version of SCONE").
    pub runtime_sched_slowdown: f64,
    /// Cycles to add and measure one page during enclave build
    /// (EADD + EEXTEND).
    pub create_page_cycles: u64,
    /// Nanoseconds for the quoting enclave to produce a quote (EPID
    /// signing dominates).
    pub quote_gen_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_ghz: 3.9,
            transition_cycles: 8_000,
            async_syscall_cycles: 1_600,
            native_syscall_cycles: 250,
            page_swap_cycles: 40_000,
            epc_bytes: 94 * 1024 * 1024,
            shield_crypto_bytes_per_sec: 4.0e9,
            native_flops: 8.0e9,
            hw_compute_slowdown: 1.25,
            sim_compute_slowdown: 1.05,
            ias_wan_one_way_ns: 12_000_000,
            ias_service_ns: 280_000_000,
            lan_rtt_ns: 200_000,
            lan_bytes_per_sec: 125.0e6, // 1 Gb/s
            shield_net_bytes_per_sec: 150.0e6,
            runtime_sched_slowdown: 2.3,
            create_page_cycles: 12_000,
            quote_gen_ns: 15_000_000,
        }
    }
}

impl CostModel {
    /// Converts a cycle count to nanoseconds on this platform.
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        (cycles as f64 / self.cpu_ghz).round() as u64
    }

    /// Nanoseconds for one enclave transition pair.
    pub fn transition_ns(&self) -> u64 {
        self.cycles_to_ns(self.transition_cycles)
    }

    /// Nanoseconds for one exit-less asynchronous syscall.
    pub fn async_syscall_ns(&self) -> u64 {
        self.cycles_to_ns(self.async_syscall_cycles)
    }

    /// Nanoseconds for one conventional syscall.
    pub fn native_syscall_ns(&self) -> u64 {
        self.cycles_to_ns(self.native_syscall_cycles)
    }

    /// Nanoseconds to swap one EPC page.
    pub fn page_swap_ns(&self) -> u64 {
        self.cycles_to_ns(self.page_swap_cycles)
    }

    /// Number of 4 KiB pages in the EPC budget.
    pub fn epc_pages(&self) -> u64 {
        self.epc_bytes / crate::epc::PAGE_SIZE as u64
    }

    /// Nanoseconds to encrypt/decrypt `bytes` in the file-system shield.
    pub fn shield_crypto_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.shield_crypto_bytes_per_sec * 1e9).round() as u64
    }

    /// Nanoseconds of compute for `flops` floating-point operations in the
    /// given execution mode (single core).
    pub fn compute_ns(&self, flops: f64, mode: crate::ExecutionMode) -> u64 {
        let slowdown = match mode {
            crate::ExecutionMode::Native => 1.0,
            crate::ExecutionMode::Simulation => self.sim_compute_slowdown,
            crate::ExecutionMode::Hardware => self.hw_compute_slowdown,
        };
        (flops / self.native_flops * slowdown * 1e9).round() as u64
    }

    /// Nanoseconds to transfer `bytes` over the cluster LAN (one message).
    pub fn lan_transfer_ns(&self, bytes: u64) -> u64 {
        self.lan_rtt_ns / 2 + (bytes as f64 / self.lan_bytes_per_sec * 1e9).round() as u64
    }

    /// Nanoseconds for the network shield to process `bytes` (enclave
    /// copy + AEAD), one endpoint.
    pub fn shield_net_ns(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.shield_net_bytes_per_sec * 1e9).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advance(c: &SimClock, ns: u64) {
        c.spend(&Telemetry::disabled(), CostCategory::Other, ns);
    }

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        advance(&c, 10);
        advance(&c, 5);
        assert_eq!(c.now_ns(), 15);
    }

    #[test]
    fn clones_share_time() {
        let c = SimClock::new();
        let c2 = c.clone();
        advance(&c, 100);
        assert_eq!(c2.now_ns(), 100);
    }

    #[test]
    fn measure_reports_elapsed() {
        let c = SimClock::new();
        let (value, elapsed) = c.measure(|| {
            advance(&c, 42);
            "done"
        });
        assert_eq!(value, "done");
        assert_eq!(elapsed, 42);
    }

    #[test]
    fn idle_until_only_moves_forward() {
        let c = SimClock::new();
        c.idle_until(50);
        c.idle_until(20);
        assert_eq!(c.now_ns(), 50);
    }

    #[test]
    fn transition_is_about_two_microseconds() {
        let m = CostModel::default();
        let ns = m.transition_ns();
        assert!((1_500..3_000).contains(&ns), "got {ns}");
    }

    #[test]
    fn async_syscall_cheaper_than_transition() {
        let m = CostModel::default();
        assert!(m.async_syscall_ns() < m.transition_ns());
        assert!(m.native_syscall_ns() < m.async_syscall_ns());
    }

    #[test]
    fn epc_pages_match_94_mib() {
        let m = CostModel::default();
        assert_eq!(m.epc_pages(), 94 * 1024 * 1024 / 4096);
    }

    #[test]
    fn compute_mode_ordering() {
        let m = CostModel::default();
        let flops = 1e9;
        let native = m.compute_ns(flops, crate::ExecutionMode::Native);
        let sim = m.compute_ns(flops, crate::ExecutionMode::Simulation);
        let hw = m.compute_ns(flops, crate::ExecutionMode::Hardware);
        assert!(native < sim && sim < hw);
    }

    #[test]
    fn shield_crypto_rate() {
        let m = CostModel::default();
        // 4 GB at 4 GB/s is one second.
        assert_eq!(m.shield_crypto_ns(4_000_000_000), 1_000_000_000);
    }

    #[test]
    fn lan_transfer_includes_bandwidth_term() {
        let m = CostModel::default();
        let small = m.lan_transfer_ns(100);
        let large = m.lan_transfer_ns(100 * 1024 * 1024);
        assert!(large > small * 100);
    }
}
