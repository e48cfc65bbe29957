//! A simulated SGX-capable machine.
//!
//! A [`Platform`] models one physical server of the paper's testbed: it
//! owns a virtual clock, a cost model, a platform identity and the secrets
//! from which quoting and sealing keys derive. Platforms created with the
//! same *fleet secret* can verify each other's quotes — the analogue of
//! all CPUs chaining to Intel's provisioning root.
//!
//! # Examples
//!
//! ```
//! use securetf_tee::{Platform, EnclaveImage, ExecutionMode};
//!
//! # fn main() -> Result<(), securetf_tee::TeeError> {
//! let node_a = Platform::builder().id(1).build();
//! let node_b = Platform::builder().id(2).build();
//! let enclave = node_a.create_enclave(
//!     &EnclaveImage::builder().code(b"worker").build(),
//!     ExecutionMode::Hardware,
//! )?;
//! let quote = enclave.quote(b"pubkey hash")?;
//! // A different machine in the same fleet can verify the quote.
//! node_b.verify_quote(&quote)?;
//! # Ok(())
//! # }
//! ```

use crate::clock::{CostModel, SimClock};
use crate::counter::CounterStore;
use crate::enclave::Enclave;
use crate::measurement::EnclaveImage;
use crate::quote::{self, Quote};
use crate::{ExecutionMode, TeeError};
use parking_lot::Mutex;
use securetf_crypto::hmac::hmac_sha256;
use securetf_telemetry::{CostCategory, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_PLATFORM_ID: AtomicU64 = AtomicU64::new(1);

/// Default fleet secret shared by platforms unless overridden.
const DEFAULT_FLEET_SECRET: [u8; 32] = [0x42; 32];

/// A simulated machine capable of hosting enclaves; a clone is another handle to it.
#[derive(Debug, Clone)]
pub struct Platform {
    id: u64,
    tcb_svn: u32,
    fleet_secret: [u8; 32],
    platform_secret: [u8; 32],
    model: CostModel,
    clock: SimClock,
    telemetry: Telemetry,
    counters: Arc<Mutex<CounterStore>>,
}

impl Platform {
    /// Starts building a platform.
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder::default()
    }

    /// The platform id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The platform's TCB security version.
    pub fn tcb_svn(&self) -> u32 {
        self.tcb_svn
    }

    /// The platform's virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The platform's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// The telemetry handle enclaves on this platform charge costs to
    /// (disabled unless set at build time).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// [`Enclave::spend`] for costs outside any enclave (the IAS baseline's WAN legs).
    pub fn spend(&self, category: CostCategory, ns: u64) {
        self.clock.spend(&self.telemetry, category, ns);
    }

    /// The platform's monotonic-counter store — the NVRAM analogue. It
    /// outlives any single enclave, so a restarted enclave on the same
    /// machine sees the counters its predecessor advanced.
    pub fn counters(&self) -> &Arc<Mutex<CounterStore>> {
        &self.counters
    }

    /// Creates an enclave from `image` in the given mode.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::CreationFailed`] if the image cannot fit the
    /// EPC in hardware mode.
    pub fn create_enclave(
        &self,
        image: &EnclaveImage,
        mode: ExecutionMode,
    ) -> Result<Arc<Enclave>, TeeError> {
        Enclave::create(
            image,
            mode,
            self.id,
            self.tcb_svn,
            quote::quoting_key(&self.fleet_secret, self.id),
            self.platform_secret,
            self.model.clone(),
            self.clock.clone(),
            self.telemetry.clone(),
            self.counters.clone(),
        )
        .map(Arc::new)
    }

    /// Verifies a quote produced by any platform in the same fleet.
    ///
    /// This is the *cryptographic* check only (the analogue of verifying
    /// the EPID signature); policy checks — is this measurement allowed,
    /// is the TCB fresh enough — belong to the verifying service (CAS or
    /// IAS).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::QuoteInvalid`] if the signature does not verify.
    pub fn verify_quote(&self, quote: &Quote) -> Result<(), TeeError> {
        let key = quote::quoting_key(&self.fleet_secret, quote.platform_id);
        if quote.verify_with_key(&key) {
            Ok(())
        } else {
            Err(TeeError::QuoteInvalid("bad signature"))
        }
    }

    /// Returns the fleet verification material, for standalone verifiers
    /// (the CAS service embeds this instead of a whole platform).
    pub fn fleet_verifier(&self) -> FleetVerifier {
        FleetVerifier {
            fleet_secret: self.fleet_secret,
        }
    }
}

/// Standalone quote verifier for a fleet (what IAS/CAS hold).
#[derive(Clone)]
pub struct FleetVerifier {
    fleet_secret: [u8; 32],
}

impl std::fmt::Debug for FleetVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FleetVerifier(..)")
    }
}

impl FleetVerifier {
    /// Verifies a quote from any platform in the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::QuoteInvalid`] if the signature does not verify.
    pub fn verify(&self, quote: &Quote) -> Result<(), TeeError> {
        let key = quote::quoting_key(&self.fleet_secret, quote.platform_id);
        if quote.verify_with_key(&key) {
            Ok(())
        } else {
            Err(TeeError::QuoteInvalid("bad signature"))
        }
    }
}

/// Builder for [`Platform`].
#[derive(Debug, Default)]
pub struct PlatformBuilder {
    id: Option<u64>,
    tcb_svn: Option<u32>,
    fleet_secret: Option<[u8; 32]>,
    model: Option<CostModel>,
    clock: Option<SimClock>,
    telemetry: Option<Telemetry>,
}

impl PlatformBuilder {
    /// Sets an explicit platform id (default: globally unique).
    pub fn id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Sets the TCB security version (default 2).
    pub fn tcb_svn(mut self, svn: u32) -> Self {
        self.tcb_svn = Some(svn);
        self
    }

    /// Sets a custom fleet secret (platforms must share it to verify each
    /// other's quotes).
    pub fn fleet_secret(mut self, secret: [u8; 32]) -> Self {
        self.fleet_secret = Some(secret);
        self
    }

    /// Sets a custom cost model.
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Shares an existing clock (e.g. a cluster-global clock).
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attaches a telemetry handle: every enclave created on this
    /// platform charges its costs (transitions, paging, syscalls, …) to
    /// it. Default: disabled, with zero recording overhead.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Finishes the platform.
    pub fn build(self) -> Platform {
        let id = self
            .id
            .unwrap_or_else(|| NEXT_PLATFORM_ID.fetch_add(1, Ordering::Relaxed));
        let fleet_secret = self.fleet_secret.unwrap_or(DEFAULT_FLEET_SECRET);
        let mut msg = b"platform-secret".to_vec();
        msg.extend_from_slice(&id.to_le_bytes());
        let platform_secret = hmac_sha256(&fleet_secret, &msg);
        Platform {
            id,
            tcb_svn: self.tcb_svn.unwrap_or(2),
            fleet_secret,
            platform_secret,
            model: self.model.unwrap_or_default(),
            clock: self.clock.unwrap_or_default(),
            telemetry: self.telemetry.unwrap_or_default(),
            counters: Arc::new(Mutex::new(CounterStore::new())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> EnclaveImage {
        EnclaveImage::builder().code(b"app").build()
    }

    #[test]
    fn cross_platform_quote_verification() {
        let a = Platform::builder().build();
        let b = Platform::builder().build();
        let e = a.create_enclave(&image(), ExecutionMode::Hardware).unwrap();
        let q = e.quote(b"x").unwrap();
        assert!(a.verify_quote(&q).is_ok());
        assert!(b.verify_quote(&q).is_ok());
        assert!(b.fleet_verifier().verify(&q).is_ok());
    }

    #[test]
    fn foreign_fleet_rejects_quote() {
        let a = Platform::builder().build();
        let rogue = Platform::builder().fleet_secret([0x13; 32]).build();
        let e = a.create_enclave(&image(), ExecutionMode::Hardware).unwrap();
        let q = e.quote(b"x").unwrap();
        assert!(matches!(
            rogue.verify_quote(&q),
            Err(TeeError::QuoteInvalid(_))
        ));
    }

    #[test]
    fn forged_quote_rejected() {
        let a = Platform::builder().build();
        let e = a.create_enclave(&image(), ExecutionMode::Hardware).unwrap();
        let mut q = e.quote(b"x").unwrap();
        q.signature[0] ^= 1;
        assert!(a.verify_quote(&q).is_err());
    }

    #[test]
    fn platform_ids_unique_by_default() {
        let a = Platform::builder().build();
        let b = Platform::builder().build();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn quote_charges_time() {
        let p = Platform::builder().build();
        let e = p.create_enclave(&image(), ExecutionMode::Hardware).unwrap();
        let t0 = p.clock().now_ns();
        e.quote(b"x").unwrap();
        assert!(p.clock().now_ns() - t0 >= p.cost_model().quote_gen_ns);
    }

    #[test]
    fn enclave_creation_charges_build_time() {
        let p = Platform::builder().build();
        let t0 = p.clock().now_ns();
        p.create_enclave(&image(), ExecutionMode::Hardware).unwrap();
        assert!(p.clock().now_ns() > t0);
    }

    #[test]
    fn shared_clock_across_platforms() {
        let clock = SimClock::new();
        let a = Platform::builder().clock(clock.clone()).build();
        let _b = Platform::builder().clock(clock.clone()).build();
        a.spend(CostCategory::Other, 5);
        assert_eq!(clock.now_ns(), 5);
    }
}
