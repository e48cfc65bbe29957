//! A running enclave instance.
//!
//! [`Enclave`] combines the functional TEE surface (measurement, quotes,
//! sealing, randomness) with the performance model (EPC accounting,
//! transition/syscall charges, compute charges). Higher layers — the
//! shields, the ML runtimes — talk to the TEE exclusively through this
//! type, so the same application code runs in all three execution modes.

use crate::clock::{CostModel, SimClock};
use crate::counter::CounterStore;
use crate::epc::{EpcManager, RegionId, PAGE_SIZE};
use crate::measurement::{EnclaveImage, MrEnclave};
use crate::quote::{Quote, REPORT_DATA_LEN};
use crate::sealing::{self, SealPolicy};
use crate::{ExecutionMode, TeeError};
use parking_lot::Mutex;
use securetf_crypto::aead::Key;
use securetf_crypto::drbg::HmacDrbg;
use securetf_telemetry::{
    CostCategory, Counter, ExportError, SealedSnapshot, Snapshot, Telemetry, EXPORT_AAD,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A local (same-platform) attestation report, the `EREPORT` analogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalReport {
    /// Measurement of the reporting enclave.
    pub source: MrEnclave,
    /// Measurement of the enclave the report is addressed to.
    pub target: MrEnclave,
    /// Caller-chosen payload (e.g. a channel binding).
    pub report_data: [u8; REPORT_DATA_LEN],
    /// MAC under the target's platform-local report key.
    pub mac: [u8; 32],
}

/// A simulated enclave.
#[derive(Debug)]
pub struct Enclave {
    mode: ExecutionMode,
    measurement: MrEnclave,
    name: String,
    platform_id: u64,
    tcb_svn: u32,
    quoting_key: [u8; 32],
    platform_secret: [u8; 32],
    model: CostModel,
    clock: SimClock,
    epc: Mutex<EpcManager>,
    drbg: Mutex<HmacDrbg>,
    seal_nonce: AtomicU64,
    transitions: Counter,
    async_syscalls: Counter,
    failed: AtomicBool,
    telemetry: Telemetry,
    counters: Arc<Mutex<CounterStore>>,
}

impl Enclave {
    // Crate-internal constructor; Platform is the only caller and wires
    // every platform-derived parameter through explicitly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn create(
        image: &EnclaveImage,
        mode: ExecutionMode,
        platform_id: u64,
        tcb_svn: u32,
        quoting_key: [u8; 32],
        platform_secret: [u8; 32],
        model: CostModel,
        clock: SimClock,
        telemetry: Telemetry,
        counters: Arc<Mutex<CounterStore>>,
    ) -> Result<Enclave, TeeError> {
        let image_bytes = image.code_bytes() + image.runtime_bytes();
        if mode.has_epc_limit() && image_bytes > model.epc_bytes {
            return Err(TeeError::CreationFailed(
                "enclave image larger than the EPC",
            ));
        }
        // Deterministic per-enclave metric scope: the k-th enclave created
        // against a telemetry handle always gets id k, so same-seed runs
        // (including supervisor respawns) agree on metric names.
        let scope = format!("tee.{}#{}", image.name(), telemetry.next_scope_id());
        // Enclave build: every image page is added and measured
        // (EADD + EEXTEND); only in modes where the TEE runtime exists.
        if mode.has_runtime() {
            let pages = image_bytes.div_ceil(PAGE_SIZE as u64);
            let build_ns = model.cycles_to_ns(pages * model.create_page_cycles);
            clock.spend(&telemetry, CostCategory::Other, build_ns);
        }
        let mut epc = EpcManager::new(
            model.clone(),
            clock.clone(),
            mode.has_epc_limit(),
            &telemetry,
            &scope,
        );
        if mode.has_runtime() {
            // The runtime image is pinned EPC: it is resident for the
            // enclave's lifetime and shrinks what the application can use.
            // This single knob is what separates SCONE (small libc) from
            // Graphene (full libOS) in the paper's Figure 5.
            let pinned = epc.alloc_pinned("image", image_bytes);
            epc.touch_all(pinned)?;
        }
        let mut seed = Vec::new();
        seed.extend_from_slice(image.measurement().as_bytes());
        seed.extend_from_slice(&platform_id.to_le_bytes());
        let transitions = telemetry.counter(&format!("{scope}.transitions"));
        let async_syscalls = telemetry.counter(&format!("{scope}.async_syscalls"));
        Ok(Enclave {
            mode,
            measurement: image.measurement(),
            name: image.name().to_string(),
            platform_id,
            tcb_svn,
            quoting_key,
            platform_secret,
            model,
            clock,
            epc: Mutex::new(epc),
            drbg: Mutex::new(HmacDrbg::new(&seed)),
            seal_nonce: AtomicU64::new(1),
            transitions,
            async_syscalls,
            failed: AtomicBool::new(false),
            telemetry,
            counters,
        })
    }

    /// The enclave's execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The enclave's measurement.
    pub fn measurement(&self) -> MrEnclave {
        self.measurement
    }

    /// The enclave's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The id of the platform hosting this enclave.
    pub fn platform_id(&self) -> u64 {
        self.platform_id
    }

    /// The shared virtual clock of the hosting platform.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The platform's monotonic-counter store (NVRAM analogue): it is
    /// shared by every enclave on the platform and — crucially for
    /// rollback protection — survives enclave restarts.
    pub fn counters(&self) -> &Arc<Mutex<CounterStore>> {
        &self.counters
    }

    /// The platform cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// The telemetry handle this enclave charges costs to (disabled
    /// unless the hosting platform was built with one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    // ---- failure state ---------------------------------------------------

    /// Marks the enclave crashed (host kill, AEX storm, machine loss).
    /// The enclave object stays alive so callers can observe the state
    /// and degrade gracefully instead of panicking.
    pub fn mark_failed(&self) {
        self.failed.store(true, Ordering::Relaxed);
    }

    /// Clears the failure mark after the supervisor has respawned /
    /// re-attested the service this enclave backs.
    pub fn revive(&self) {
        self.failed.store(false, Ordering::Relaxed);
    }

    /// Whether the enclave is currently marked crashed.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    // ---- attestation ----------------------------------------------------

    /// Produces an attestation quote over `report_data` (up to 64 bytes).
    ///
    /// Charges the quoting-enclave signing time in modes with a runtime.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::QuoteInvalid`] in [`ExecutionMode::Native`],
    /// where no TEE exists to quote.
    pub fn quote(&self, report_data: &[u8]) -> Result<Quote, TeeError> {
        if !self.mode.has_runtime() {
            return Err(TeeError::QuoteInvalid("no TEE in native mode"));
        }
        self.spend(CostCategory::Attestation, self.model.quote_gen_ns);
        self.charge_transition();
        let rd: [u8; REPORT_DATA_LEN] = Quote::report_data_from(report_data);
        Ok(Quote::sign(
            self.platform_id,
            self.measurement,
            rd,
            self.tcb_svn,
            &self.quoting_key,
        ))
    }

    /// Produces a *local* attestation report for another enclave on the
    /// same platform (the `EREPORT` instruction): a MAC over
    /// (self-measurement, report data) under a key only the target
    /// enclave on this platform can derive. Local reports cost no quoting
    /// enclave round trip — they are how co-located enclaves (e.g. an
    /// application and its CAS on the same machine) authenticate cheaply.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::QuoteInvalid`] in native mode.
    pub fn local_report(
        &self,
        target: &MrEnclave,
        report_data: &[u8],
    ) -> Result<LocalReport, TeeError> {
        if !self.mode.has_runtime() {
            return Err(TeeError::QuoteInvalid("no TEE in native mode"));
        }
        let report_ns = self.model.cycles_to_ns(3_000);
        self.spend(CostCategory::Attestation, report_ns);
        let rd = Quote::report_data_from(report_data);
        let key = self.report_key(target);
        let mut body = Vec::with_capacity(96);
        body.extend_from_slice(self.measurement.as_bytes());
        body.extend_from_slice(target.as_bytes());
        body.extend_from_slice(&rd);
        Ok(LocalReport {
            source: self.measurement,
            target: *target,
            report_data: rd,
            mac: securetf_crypto::hmac::hmac_sha256(key.as_bytes(), &body),
        })
    }

    /// Verifies a local report addressed to this enclave.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::QuoteInvalid`] if the MAC fails, the report
    /// targets a different enclave, or this enclave is in native mode.
    pub fn verify_local_report(&self, report: &LocalReport) -> Result<(), TeeError> {
        if !self.mode.has_runtime() {
            return Err(TeeError::QuoteInvalid("no TEE in native mode"));
        }
        if report.target != self.measurement {
            return Err(TeeError::QuoteInvalid("report targets another enclave"));
        }
        let key = self.report_key(&self.measurement);
        let mut body = Vec::with_capacity(96);
        body.extend_from_slice(report.source.as_bytes());
        body.extend_from_slice(report.target.as_bytes());
        body.extend_from_slice(&report.report_data);
        let expect = securetf_crypto::hmac::hmac_sha256(key.as_bytes(), &body);
        if securetf_crypto::ct::eq(&expect, &report.mac) {
            Ok(())
        } else {
            Err(TeeError::QuoteInvalid("local report mac"))
        }
    }

    /// The report key for `target` on this platform (`EGETKEY` with the
    /// REPORT key type: derivable only by `target` on this machine).
    fn report_key(&self, target: &MrEnclave) -> Key {
        let mut msg = b"report-key:".to_vec();
        msg.extend_from_slice(target.as_bytes());
        Key::from_bytes(securetf_crypto::hmac::hmac_sha256(
            &self.platform_secret,
            &msg,
        ))
    }

    // ---- sealing ---------------------------------------------------------

    /// Seals data so only this enclave identity (per `policy`) can unseal.
    pub fn seal(&self, policy: SealPolicy, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let key = sealing::sealing_key(&self.platform_secret, policy, &self.measurement);
        let nonce_seed = self.seal_nonce.fetch_add(1, Ordering::Relaxed);
        self.charge_shield_crypto(plaintext.len() as u64);
        sealing::seal(&key, nonce_seed, plaintext, aad)
    }

    /// Unseals data sealed under the same identity and policy.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::UnsealFailed`] if the blob was produced by a
    /// different enclave identity/platform or was tampered with.
    pub fn unseal(
        &self,
        policy: SealPolicy,
        sealed: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, TeeError> {
        let key = sealing::sealing_key(&self.platform_secret, policy, &self.measurement);
        self.charge_shield_crypto(sealed.len() as u64);
        sealing::unseal(&key, sealed, aad)
    }

    // ---- telemetry export --------------------------------------------------

    /// Seals a telemetry snapshot under this enclave's measurement
    /// identity for export. This is the only path from a [`Snapshot`] to
    /// bytes: the snapshot's wire encoding is private to the telemetry
    /// crate, so plain-text telemetry export is impossible by
    /// construction.
    pub fn seal_telemetry(&self, snapshot: &Snapshot) -> Result<SealedSnapshot, ExportError> {
        snapshot.seal_with(|bytes| {
            Ok::<_, TeeError>(self.seal(SealPolicy::Measurement, bytes, EXPORT_AAD))
        })
    }

    /// Opens a sealed telemetry snapshot produced by an enclave with the
    /// same measurement on this platform.
    ///
    /// # Errors
    ///
    /// Fails closed with [`ExportError::Integrity`] on any tamper (or a
    /// foreign identity), and [`ExportError::Malformed`] if the
    /// authenticated plaintext is not a telemetry snapshot.
    pub fn unseal_telemetry(&self, sealed: &SealedSnapshot) -> Result<Snapshot, ExportError> {
        Snapshot::open_with(sealed, |bytes| {
            self.unseal(SealPolicy::Measurement, bytes, EXPORT_AAD)
        })
    }

    /// Derives a named key only this enclave identity can derive
    /// (an `EGETKEY` analogue for application use).
    pub fn derived_key(&self, label: &[u8]) -> Key {
        let mut msg = b"derived:".to_vec();
        msg.extend_from_slice(self.measurement.as_bytes());
        msg.extend_from_slice(label);
        Key::from_bytes(securetf_crypto::hmac::hmac_sha256(
            &self.platform_secret,
            &msg,
        ))
    }

    // ---- randomness -------------------------------------------------------

    /// Fills `buf` with enclave-internal randomness (deterministic per
    /// enclave identity, making simulations reproducible).
    pub fn random_bytes(&self, buf: &mut [u8]) {
        self.drbg.lock().fill(buf);
    }

    // ---- memory (EPC) ------------------------------------------------------

    /// Allocates an enclave memory region.
    pub fn alloc(&self, name: &'static str, bytes: u64) -> RegionId {
        self.epc.lock().alloc(name, bytes)
    }

    /// Allocates a pinned (never-evicted) region.
    pub fn alloc_pinned(&self, name: &'static str, bytes: u64) -> RegionId {
        self.epc.lock().alloc_pinned(name, bytes)
    }

    /// Frees a region.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadRegion`] for unknown ids.
    pub fn free(&self, region: RegionId) -> Result<(), TeeError> {
        self.epc.lock().free(region)
    }

    /// Touches a byte range of a region (charging paging on faults).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadRegion`] for unknown ids.
    pub fn touch(&self, region: RegionId, offset: u64, len: u64) -> Result<(), TeeError> {
        self.epc.lock().touch(region, offset, len)
    }

    /// Touches a whole region.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadRegion`] for unknown ids.
    pub fn touch_all(&self, region: RegionId) -> Result<(), TeeError> {
        self.epc.lock().touch_all(region)
    }

    // ---- cost charges ------------------------------------------------------

    /// Spends `ns` of virtual time on this enclave's clock and charges
    /// them to `category` — the only way a cost moves an enclave's clock;
    /// every `charge_*` below is a named `spend`.
    pub fn spend(&self, category: CostCategory, ns: u64) {
        self.clock.spend(&self.telemetry, category, ns);
    }

    /// Charges one synchronous enclave transition (ecall/ocall pair).
    pub fn charge_transition(&self) {
        if self.mode.has_runtime() {
            self.transitions.inc();
            self.spend(CostCategory::Transitions, self.model.transition_ns());
        }
    }

    /// Charges one system call in the current mode: a cheap kernel call in
    /// native mode, an exit-less asynchronous call under the shielded
    /// runtime (SIM and HW).
    pub fn charge_syscall(&self) {
        let ns = match self.mode {
            ExecutionMode::Native => self.model.native_syscall_ns(),
            ExecutionMode::Simulation | ExecutionMode::Hardware => {
                self.async_syscalls.inc();
                self.model.async_syscall_ns()
            }
        };
        self.spend(CostCategory::Syscalls, ns);
    }

    /// Charges `flops` of single-core compute in the current mode.
    pub fn charge_compute(&self, flops: f64) {
        self.spend(
            CostCategory::Compute,
            self.model.compute_ns(flops, self.mode),
        );
    }

    /// Charges a pool-parallel kernel execution: `total_flops` is the
    /// work summed over all workers, `critical_flops` the longest
    /// single-worker chain. Virtual time advances by the *critical* path
    /// only — for equal tasks spread over cores, the LPT makespan — while
    /// both totals are recorded as telemetry counters for utilization
    /// analysis.
    ///
    /// A `critical_flops` of zero (or an over-long one) degrades to the
    /// serial [`Self::charge_compute`] behavior.
    pub fn charge_parallel_compute(&self, total_flops: f64, critical_flops: f64) {
        let critical = if critical_flops > 0.0 {
            critical_flops.min(total_flops)
        } else {
            total_flops
        };
        self.spend(
            CostCategory::Compute,
            self.model.compute_ns(critical, self.mode),
        );
        self.telemetry
            .counter("kernel.pool.total_flops")
            .add(total_flops as u64);
        self.telemetry
            .counter("kernel.pool.critical_flops")
            .add(critical as u64);
    }

    /// Charges streaming-crypto time for `bytes` (file-system shield,
    /// sealing).
    pub fn charge_shield_crypto(&self, bytes: u64) {
        self.spend(CostCategory::Crypto, self.model.shield_crypto_ns(bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::tests::{count, gauge};

    /// An enclave named `t`, the first on its platform's enabled
    /// registry, so its metrics are `tee.t#0.*`.
    fn enclave(mode: ExecutionMode) -> std::sync::Arc<Enclave> {
        let clock = crate::SimClock::new();
        let platform = Platform::builder()
            .clock(clock.clone())
            .telemetry(clock.telemetry())
            .build();
        let image = EnclaveImage::builder().code(b"test app").name("t").build();
        platform.create_enclave(&image, mode).unwrap()
    }

    #[test]
    fn native_mode_cannot_quote() {
        let e = enclave(ExecutionMode::Native);
        assert!(matches!(e.quote(b"x"), Err(TeeError::QuoteInvalid(_))));
    }

    #[test]
    fn hardware_quote_carries_measurement_and_report_data() {
        let e = enclave(ExecutionMode::Hardware);
        let q = e.quote(b"hello").unwrap();
        assert_eq!(q.mrenclave, e.measurement());
        assert_eq!(&q.report_data[..5], b"hello");
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let e = enclave(ExecutionMode::Hardware);
        let sealed = e.seal(SealPolicy::Measurement, b"secret", b"ctx");
        assert_eq!(
            e.unseal(SealPolicy::Measurement, &sealed, b"ctx").unwrap(),
            b"secret"
        );
    }

    #[test]
    fn unseal_with_wrong_policy_fails() {
        let e = enclave(ExecutionMode::Hardware);
        let sealed = e.seal(SealPolicy::Measurement, b"secret", b"");
        assert_eq!(
            e.unseal(SealPolicy::Platform, &sealed, b""),
            Err(TeeError::UnsealFailed)
        );
    }

    #[test]
    fn different_enclave_cannot_unseal_measurement_policy() {
        let platform = Platform::builder().build();
        let a = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"app a").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let b = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"app b").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let sealed = a.seal(SealPolicy::Measurement, b"secret", b"");
        assert!(b.unseal(SealPolicy::Measurement, &sealed, b"").is_err());
        // Platform policy is shared across enclaves on the same machine.
        let sealed_p = a.seal(SealPolicy::Platform, b"secret", b"");
        assert_eq!(
            b.unseal(SealPolicy::Platform, &sealed_p, b"").unwrap(),
            b"secret"
        );
    }

    #[test]
    fn sealed_blobs_use_fresh_nonces() {
        let e = enclave(ExecutionMode::Hardware);
        let s1 = e.seal(SealPolicy::Measurement, b"same", b"");
        let s2 = e.seal(SealPolicy::Measurement, b"same", b"");
        assert_ne!(s1, s2);
    }

    #[test]
    fn syscall_costs_by_mode() {
        let native = enclave(ExecutionMode::Native);
        let t0 = native.clock().now_ns();
        native.charge_syscall();
        let native_cost = native.clock().now_ns() - t0;

        let hw = enclave(ExecutionMode::Hardware);
        let t0 = hw.clock().now_ns();
        hw.charge_syscall();
        let hw_cost = hw.clock().now_ns() - t0;
        assert!(hw_cost > native_cost);
        assert_eq!(count(hw.telemetry(), "tee.t#0.async_syscalls"), 1);
    }

    #[test]
    fn transition_free_in_native() {
        let e = enclave(ExecutionMode::Native);
        let t0 = e.clock().now_ns();
        e.charge_transition();
        assert_eq!(e.clock().now_ns(), t0);
        assert_eq!(count(e.telemetry(), "tee.t#0.transitions"), 0);
    }

    #[test]
    fn compute_slower_in_hardware() {
        let hw = enclave(ExecutionMode::Hardware);
        let native = enclave(ExecutionMode::Native);
        let (_, hw_ns) = hw.clock().measure(|| hw.charge_compute(1e9));
        let (_, nat_ns) = native.clock().measure(|| native.charge_compute(1e9));
        assert!(hw_ns > nat_ns);
    }

    #[test]
    fn image_is_pinned_in_hardware_mode() {
        let e = enclave(ExecutionMode::Hardware);
        // code is tiny but the default runtime is 4 MiB -> >1000 pages.
        assert!(gauge(e.telemetry(), "tee.t#0.epc.resident_pages").0 > 1000);
    }

    #[test]
    fn oversized_image_rejected() {
        let platform = Platform::builder().build();
        let image = EnclaveImage::builder()
            .code(b"x")
            .runtime_bytes(200 * 1024 * 1024)
            .build();
        assert!(matches!(
            platform.create_enclave(&image, ExecutionMode::Hardware),
            Err(TeeError::CreationFailed(_))
        ));
        // ...but fine in SIM mode (no EPC limit).
        assert!(platform
            .create_enclave(&image, ExecutionMode::Simulation)
            .is_ok());
    }

    #[test]
    fn enclave_randomness_is_reproducible_per_identity() {
        let platform = Platform::builder().build();
        let image = EnclaveImage::builder().code(b"same app").build();
        let e1 = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        let e2 = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        e1.random_bytes(&mut a);
        e2.random_bytes(&mut b);
        assert_eq!(a, b, "same image + platform => same DRBG stream");
    }

    #[test]
    fn local_report_roundtrip_same_platform() {
        let platform = Platform::builder().build();
        let a = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"app a").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let b = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"app b").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let report = a.local_report(&b.measurement(), b"hello b").unwrap();
        assert!(b.verify_local_report(&report).is_ok());
        assert_eq!(&report.report_data[..7], b"hello b");
        // A report addressed to b does not verify at a third enclave.
        let c = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"app c").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        assert!(c.verify_local_report(&report).is_err());
    }

    #[test]
    fn local_report_fails_across_platforms() {
        let p1 = Platform::builder().build();
        let p2 = Platform::builder().build();
        let image = EnclaveImage::builder().code(b"same app").build();
        let a = p1.create_enclave(&image, ExecutionMode::Hardware).unwrap();
        let b = p2.create_enclave(&image, ExecutionMode::Hardware).unwrap();
        // Same measurements, different machines: local attestation must
        // not cross the platform boundary (that is what quotes are for).
        let report = a.local_report(&b.measurement(), b"x").unwrap();
        assert!(b.verify_local_report(&report).is_err());
    }

    #[test]
    fn local_report_tamper_detected() {
        let platform = Platform::builder().build();
        let a = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"a").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let b = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"b").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let mut report = a.local_report(&b.measurement(), b"x").unwrap();
        report.report_data[0] ^= 1;
        assert!(b.verify_local_report(&report).is_err());
        let mut report = a.local_report(&b.measurement(), b"x").unwrap();
        report.source = b.measurement();
        assert!(b.verify_local_report(&report).is_err());
    }

    #[test]
    fn derived_keys_differ_by_label_and_identity() {
        let e = enclave(ExecutionMode::Hardware);
        assert_ne!(
            e.derived_key(b"fs").as_bytes(),
            e.derived_key(b"net").as_bytes()
        );
    }

    fn telemetered_enclave() -> (std::sync::Arc<Enclave>, crate::Telemetry) {
        let clock = crate::SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .clock(clock)
            .telemetry(telemetry.clone())
            .build();
        let image = EnclaveImage::builder()
            .code(b"telemetered")
            .name("t")
            .build();
        let e = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        (e, telemetry)
    }

    #[test]
    fn charges_attribute_to_cost_categories() {
        let (e, telemetry) = telemetered_enclave();
        let _span = telemetry.span("work");
        e.charge_transition();
        e.charge_syscall();
        e.charge_compute(1e6);
        e.charge_shield_crypto(4096);
        e.quote(b"x").unwrap();
        for (name, expect) in [
            ("cost.transitions.ns", e.cost_model().transition_ns() * 2), // syscall path + quote
            ("cost.syscalls.ns", e.cost_model().async_syscall_ns()),
            (
                "cost.compute.ns",
                e.cost_model().compute_ns(1e6, ExecutionMode::Hardware),
            ),
            ("cost.crypto.ns", e.cost_model().shield_crypto_ns(4096)),
            ("cost.attestation.ns", e.cost_model().quote_gen_ns),
        ] {
            assert_eq!(telemetry.counter(name).get(), expect, "{name}");
        }
        assert_eq!(
            telemetry.counter("cost.transitions.events").get(),
            2,
            "charge_transition + quote's transition"
        );
    }

    #[test]
    fn enclave_scope_metrics_registered() {
        let (e, telemetry) = telemetered_enclave();
        e.charge_transition();
        assert_eq!(count(&telemetry, "tee.t#0.transitions"), 1);
        assert_eq!(count(&telemetry, "tee.t#0.async_syscalls"), 0);
        assert!(
            count(&telemetry, "tee.t#0.epc.faults") > 0,
            "the image faults in"
        );
        assert_eq!(count(&telemetry, "tee.t#0.epc.evictions"), 0);
        assert!(gauge(&telemetry, "tee.t#0.epc.allocated_pages").0 > 1000);
    }

    #[test]
    fn paging_cost_attributed_to_spans() {
        let (e, telemetry) = telemetered_enclave();
        let r = e.alloc("w", 8 * PAGE_SIZE as u64);
        let before = telemetry.counter("cost.paging.ns").get();
        e.touch_all(r).unwrap();
        let charged = telemetry.counter("cost.paging.ns").get() - before;
        assert_eq!(charged, 8 * e.cost_model().page_swap_ns());
    }

    #[test]
    fn sealed_telemetry_roundtrips_and_fails_closed_on_tamper() {
        let (e, telemetry) = telemetered_enclave();
        {
            let _span = telemetry.span("work");
            e.charge_transition();
        }
        let snapshot = telemetry.snapshot();
        let sealed = e.seal_telemetry(&snapshot).unwrap();
        let opened = e.unseal_telemetry(&sealed).unwrap();
        assert_eq!(opened.digest(), snapshot.digest());

        let mut tampered = sealed.as_bytes().to_vec();
        let mid = tampered.len() / 2;
        tampered[mid] ^= 0x01;
        assert_eq!(
            e.unseal_telemetry(&securetf_telemetry::SealedSnapshot::from_bytes(tampered)),
            Err(securetf_telemetry::ExportError::Integrity)
        );
    }

    #[test]
    fn foreign_enclave_cannot_open_sealed_telemetry() {
        let (e, telemetry) = telemetered_enclave();
        let sealed = e.seal_telemetry(&telemetry.snapshot()).unwrap();
        let other = enclave(ExecutionMode::Hardware);
        assert_eq!(
            other.unseal_telemetry(&sealed),
            Err(securetf_telemetry::ExportError::Integrity)
        );
    }

    #[test]
    fn disabled_telemetry_charges_identical_virtual_time() {
        let run = |with_telemetry: bool| {
            let clock = crate::SimClock::new();
            let mut builder = Platform::builder().clock(clock.clone());
            if with_telemetry {
                builder = builder.telemetry(clock.telemetry());
            }
            let platform = builder.build();
            let image = EnclaveImage::builder().code(b"apples").build();
            let e = platform
                .create_enclave(&image, ExecutionMode::Hardware)
                .unwrap();
            e.charge_transition();
            e.charge_compute(1e7);
            let r = e.alloc("w", 64 * PAGE_SIZE as u64);
            e.touch_all(r).unwrap();
            e.quote(b"q").unwrap();
            clock.now_ns()
        };
        let without = run(false);
        let with = run(true);
        assert_eq!(without, with, "telemetry must never advance virtual time");
    }
}
