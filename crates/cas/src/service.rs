//! The CAS service proper: local quote verification and transparent
//! secret provisioning (paper §3.3.2, Figure 4).
//!
//! The CAS runs inside its own enclave on the cluster. When a secure
//! machine-learning container starts, it generates a quote binding its
//! secure-channel transcript, sends it to CAS, and — if the quote's
//! measurement matches a registered policy — receives the service's
//! secrets over the channel. Because verification happens locally
//! (an HMAC check plus a database lookup instead of a WAN round trip to
//! IAS), attestation completes ~19× faster, which is what enables the
//! paper's elastic scaling (challenge ❹).

use crate::kvstore::KvStore;
use crate::policy::{Secret, ServicePolicy};
use crate::CasError;
use securetf_tee::platform::FleetVerifier;
use securetf_tee::{CostCategory, Enclave, Quote, RetryPolicy};
use std::collections::HashMap;
use std::sync::Arc;

/// Key prefix under which policies live in the encrypted store.
const POLICY_PREFIX: &[u8] = b"policy/";

/// Per-phase latency breakdown of one attestation, in nanoseconds.
/// The rows of the paper's Figure 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttestationBreakdown {
    /// Producing the quote inside the attesting enclave.
    pub quote_generation_ns: u64,
    /// Transferring the quote to the verifier (LAN for CAS, WAN for IAS).
    pub quote_transfer_ns: u64,
    /// Verifying the quote (local HMAC+policy vs the IAS service).
    pub verification_ns: u64,
    /// Transferring secrets/keys back to the enclave.
    pub key_transfer_ns: u64,
}

impl AttestationBreakdown {
    /// Total end-to-end latency.
    pub fn total_ns(&self) -> u64 {
        self.quote_generation_ns
            + self.quote_transfer_ns
            + self.verification_ns
            + self.key_transfer_ns
    }
}

/// Secrets handed to a successfully attested enclave.
#[derive(Debug, Clone, Default)]
pub struct Provision {
    secrets: HashMap<String, Vec<u8>>,
    breakdown: AttestationBreakdown,
}

impl Provision {
    pub(crate) fn from_parts(
        secrets: HashMap<String, Vec<u8>>,
        breakdown: AttestationBreakdown,
    ) -> Self {
        Provision { secrets, breakdown }
    }

    /// Looks up a secret by name.
    pub fn secret(&self, name: &str) -> Option<&[u8]> {
        self.secrets.get(name).map(Vec::as_slice)
    }

    /// Names of all provisioned secrets.
    pub fn secret_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.secrets.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The latency breakdown of the attestation that produced this.
    pub fn breakdown(&self) -> AttestationBreakdown {
        self.breakdown
    }
}

/// Approximate serialized size of a quote on the wire.
const QUOTE_WIRE_BYTES: u64 = 8 + 32 + 64 + 4 + 32;

/// The Configuration and Attestation Service.
#[derive(Debug)]
pub struct CasService {
    enclave: Arc<Enclave>,
    verifier: FleetVerifier,
    policies: HashMap<String, ServicePolicy>,
    store: Option<KvStore>,
    attestations_served: u64,
    outage_until_ns: u64,
}

impl CasService {
    /// Creates a CAS inside `enclave`, able to verify quotes of `verifier`'s
    /// fleet. Policies live in enclave memory only (lost on restart);
    /// production deployments use [`CasService::with_store`].
    pub fn new(enclave: Arc<Enclave>, verifier: FleetVerifier) -> Self {
        CasService {
            enclave,
            verifier,
            policies: HashMap::new(),
            store: None,
            attestations_served: 0,
            outage_until_ns: 0,
        }
    }

    /// Creates a CAS whose policies persist in the encrypted,
    /// rollback-protected [`KvStore`] (the paper's encrypted SQLite).
    /// Policies already in the store are loaded.
    ///
    /// # Errors
    ///
    /// Returns [`CasError::StoreCorrupted`] if a stored policy fails to
    /// decode (the fs shield authenticated the image, so only a CAS build
    /// with another policy encoding can get here).
    pub fn with_store(
        enclave: Arc<Enclave>,
        verifier: FleetVerifier,
        store: KvStore,
    ) -> Result<Self, CasError> {
        let mut policies = HashMap::new();
        for key in store.keys_with_prefix(POLICY_PREFIX) {
            let bytes = store.get(&key).expect("listed key exists");
            let policy = ServicePolicy::decode(&bytes)
                .ok_or(CasError::StoreCorrupted("undecodable policy record"))?;
            policies.insert(policy.name().to_string(), policy);
        }
        Ok(CasService {
            enclave,
            verifier,
            policies,
            store: Some(store),
            attestations_served: 0,
            outage_until_ns: 0,
        })
    }

    fn store_key(name: &str) -> Vec<u8> {
        [POLICY_PREFIX, name.as_bytes()].concat()
    }

    fn persist(&mut self, policy: &ServicePolicy) -> Result<(), CasError> {
        if let Some(store) = &mut self.store {
            store.put(&Self::store_key(policy.name()), &policy.encode())?;
        }
        Ok(())
    }

    /// Registers a service policy.
    ///
    /// # Errors
    ///
    /// * [`CasError::DuplicateService`] if the name is taken.
    /// * [`CasError::Storage`] if the store could not persist it; the
    ///   policy is then not registered.
    pub fn register_policy(&mut self, policy: ServicePolicy) -> Result<(), CasError> {
        if self.policies.contains_key(policy.name()) {
            return Err(CasError::DuplicateService(policy.name().to_string()));
        }
        self.persist(&policy)?;
        self.policies.insert(policy.name().to_string(), policy);
        Ok(())
    }

    /// Replaces (or inserts) a service policy — used when the data owner
    /// updates secrets.
    ///
    /// # Errors
    ///
    /// [`CasError::Storage`] if the store could not persist it; the
    /// previous policy then stays in force, here and after a restart.
    pub fn upsert_policy(&mut self, policy: ServicePolicy) -> Result<(), CasError> {
        self.persist(&policy)?;
        self.policies.insert(policy.name().to_string(), policy);
        Ok(())
    }

    /// Removes a service policy. Returns whether it existed.
    ///
    /// # Errors
    ///
    /// [`CasError::Storage`] if the store could not persist the removal;
    /// the policy then stays in force, here and after a restart.
    pub fn remove_policy(&mut self, name: &str) -> Result<bool, CasError> {
        if let Some(store) = &mut self.store {
            store.delete(&Self::store_key(name))?;
        }
        Ok(self.policies.remove(name).is_some())
    }

    /// Takes the CAS offline until `duration_ns` of virtual time passes.
    /// Models a crash/partition of the attestation service; provisioning
    /// attempts during the window fail with [`CasError::Unavailable`]
    /// and succeed again once the shared clock moves past the deadline.
    pub fn inject_outage(&mut self, duration_ns: u64) {
        let now = self.enclave.clock().now_ns();
        self.outage_until_ns = self.outage_until_ns.max(now + duration_ns);
    }

    /// Whether the CAS is inside an injected outage window.
    pub fn is_unavailable(&self) -> bool {
        self.enclave.clock().now_ns() < self.outage_until_ns
    }

    /// Verifies `quote` against the `service` policy, retrying transient
    /// [`CasError::Unavailable`] failures per `policy`. Each backoff is
    /// charged to the CAS clock, so bounded outages expire during the
    /// wait; integrity and policy violations fail closed on the first
    /// attempt.
    ///
    /// # Errors
    ///
    /// The terminal error of [`CasService::attest_and_provision`]: the
    /// fatal error immediately, or the last [`CasError::Unavailable`]
    /// once attempts are exhausted.
    pub fn attest_and_provision_with_retry(
        &mut self,
        quote: &Quote,
        service: &str,
        policy: &RetryPolicy,
    ) -> Result<Provision, CasError> {
        let enclave = self.enclave.clone();
        policy
            .run(
                &enclave,
                |_| self.attest_and_provision(quote, service),
                CasError::is_transient,
            )
            .map_err(securetf_tee::retry::RetryError::into_inner)
    }

    /// Verifies `quote` against the `service` policy and, on success,
    /// returns the service secrets together with the latency breakdown.
    ///
    /// # Errors
    ///
    /// * [`CasError::UnknownService`] — no such policy.
    /// * [`CasError::QuoteRejected`] — bad quote signature.
    /// * [`CasError::MeasurementNotAllowed`] — measurement not in policy.
    /// * [`CasError::TcbOutdated`] — platform TCB below policy minimum.
    /// * [`CasError::Unavailable`] — inside an injected outage window.
    pub fn attest_and_provision(
        &mut self,
        quote: &Quote,
        service: &str,
    ) -> Result<Provision, CasError> {
        let (clock, model) = (self.enclave.clock(), self.enclave.cost_model());
        let spend = |ns| self.enclave.spend(CostCategory::Attestation, ns);
        if clock.now_ns() < self.outage_until_ns {
            // The caller's connection attempt still costs a LAN timeout.
            spend(model.lan_rtt_ns);
            return Err(CasError::Unavailable {
                retry_after_ns: self.outage_until_ns.saturating_sub(clock.now_ns()),
            });
        }

        // The quote was generated by the attesting enclave (already charged
        // to the shared clock by `Enclave::quote`); account it in the
        // breakdown for reporting.
        let quote_generation_ns = model.quote_gen_ns;

        // Quote travels over the local cluster network.
        let quote_transfer_ns = model.lan_transfer_ns(QUOTE_WIRE_BYTES);
        spend(quote_transfer_ns);

        // Local verification: HMAC check + policy lookup. Sub-millisecond
        // (the paper: "less than 1 ms").
        let verify_start = clock.now_ns();
        self.enclave.charge_compute(2.0e6);
        self.enclave.charge_syscall();
        let policy = self
            .policies
            .get(service)
            .ok_or_else(|| CasError::UnknownService(service.to_string()))?;
        self.verifier
            .verify(quote)
            .map_err(|_| CasError::QuoteRejected("signature"))?;
        if !policy.allows(&quote.mrenclave) {
            return Err(CasError::MeasurementNotAllowed);
        }
        if quote.tcb_svn < policy.required_tcb_svn() {
            return Err(CasError::TcbOutdated {
                got: quote.tcb_svn,
                required: policy.required_tcb_svn(),
            });
        }
        let verification_ns = clock.now_ns() - verify_start;

        // Secrets travel back over the (shielded) local network.
        let payload = policy.secrets_len() + 64;
        let key_transfer_ns = model.lan_transfer_ns(payload) + model.shield_crypto_ns(payload);
        spend(key_transfer_ns);

        let secrets: HashMap<String, Vec<u8>> = policy
            .secrets()
            .map(|Secret { name, value }| (name, value))
            .collect();
        self.attestations_served += 1;
        Ok(Provision {
            secrets,
            breakdown: AttestationBreakdown {
                quote_generation_ns,
                quote_transfer_ns,
                verification_ns,
                key_transfer_ns,
            },
        })
    }

    /// Number of successful attestations served.
    pub fn attestations_served(&self) -> u64 {
        self.attestations_served
    }

    /// Whether a policy named `name` is registered.
    pub fn has_service(&self, name: &str) -> bool {
        self.policies.contains_key(name)
    }

    /// Names of registered services.
    pub fn services(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.policies.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// The enclave hosting this CAS.
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securetf_tee::{EnclaveImage, ExecutionMode, Platform};

    struct Setup {
        platform: Platform,
        cas: CasService,
        worker_image: EnclaveImage,
    }

    fn setup() -> Setup {
        let platform = Platform::builder().build();
        let cas_enclave = platform
            .create_enclave(
                &EnclaveImage::builder()
                    .code(b"cas code")
                    .name("cas")
                    .build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let mut cas = CasService::new(cas_enclave, platform.fleet_verifier());
        let worker_image = EnclaveImage::builder().code(b"worker code").build();
        cas.register_policy(
            ServicePolicy::new("svc")
                .allow_measurement(worker_image.measurement())
                .min_tcb_svn(1)
                .with_secret("fs-key", &[9u8; 32])
                .with_secret("tls-cert", b"CERT"),
        )
        .unwrap();
        Setup {
            platform,
            cas,
            worker_image,
        }
    }

    #[test]
    fn happy_path_provisions_secrets() {
        let mut s = setup();
        let worker = s
            .platform
            .create_enclave(&s.worker_image, ExecutionMode::Hardware)
            .unwrap();
        let quote = worker.quote(b"binding").unwrap();
        let p = s.cas.attest_and_provision(&quote, "svc").unwrap();
        assert_eq!(p.secret("fs-key"), Some(&[9u8; 32][..]));
        assert_eq!(p.secret("tls-cert"), Some(&b"CERT"[..]));
        assert_eq!(p.secret_names(), vec!["fs-key", "tls-cert"]);
        assert_eq!(s.cas.attestations_served(), 1);
    }

    #[test]
    fn unknown_measurement_rejected() {
        let mut s = setup();
        let rogue_image = EnclaveImage::builder().code(b"rogue code").build();
        let rogue = s
            .platform
            .create_enclave(&rogue_image, ExecutionMode::Hardware)
            .unwrap();
        let quote = rogue.quote(b"binding").unwrap();
        assert_eq!(
            s.cas.attest_and_provision(&quote, "svc").unwrap_err(),
            CasError::MeasurementNotAllowed
        );
        assert_eq!(s.cas.attestations_served(), 0);
    }

    #[test]
    fn forged_quote_rejected() {
        let mut s = setup();
        let worker = s
            .platform
            .create_enclave(&s.worker_image, ExecutionMode::Hardware)
            .unwrap();
        let mut quote = worker.quote(b"binding").unwrap();
        quote.signature[3] ^= 1;
        assert!(matches!(
            s.cas.attest_and_provision(&quote, "svc"),
            Err(CasError::QuoteRejected(_))
        ));
    }

    #[test]
    fn outdated_tcb_rejected() {
        let mut s = setup();
        // A platform with an old TCB (svn 0 < required 1) but valid fleet key.
        let old_platform = Platform::builder().tcb_svn(0).build();
        let worker = old_platform
            .create_enclave(&s.worker_image, ExecutionMode::Hardware)
            .unwrap();
        let quote = worker.quote(b"binding").unwrap();
        assert_eq!(
            s.cas.attest_and_provision(&quote, "svc").unwrap_err(),
            CasError::TcbOutdated {
                got: 0,
                required: 1
            }
        );
    }

    #[test]
    fn unknown_service_rejected() {
        let mut s = setup();
        let worker = s
            .platform
            .create_enclave(&s.worker_image, ExecutionMode::Hardware)
            .unwrap();
        let quote = worker.quote(b"binding").unwrap();
        assert!(matches!(
            s.cas.attest_and_provision(&quote, "nope"),
            Err(CasError::UnknownService(_))
        ));
    }

    #[test]
    fn duplicate_policy_rejected_but_upsert_allowed() {
        let mut s = setup();
        assert!(matches!(
            s.cas.register_policy(ServicePolicy::new("svc")),
            Err(CasError::DuplicateService(_))
        ));
        s.cas
            .upsert_policy(ServicePolicy::new("svc").with_secret("new", b"n"))
            .unwrap();
        assert_eq!(s.cas.services(), vec!["svc"]);
        assert!(s.cas.remove_policy("svc").unwrap());
        assert!(!s.cas.remove_policy("svc").unwrap());
    }

    #[test]
    fn breakdown_matches_paper_shape() {
        let mut s = setup();
        let worker = s
            .platform
            .create_enclave(&s.worker_image, ExecutionMode::Hardware)
            .unwrap();
        let quote = worker.quote(b"binding").unwrap();
        let p = s.cas.attest_and_provision(&quote, "svc").unwrap();
        let b = p.breakdown();
        // Verification is sub-millisecond (paper: "less than 1 ms").
        assert!(b.verification_ns < 1_000_000, "{:?}", b);
        // Total attestation is tens of milliseconds, not hundreds (CAS,
        // not IAS): the paper reports ~17 ms.
        let total_ms = b.total_ns() as f64 / 1e6;
        assert!((5.0..60.0).contains(&total_ms), "total {total_ms} ms");
    }

    #[test]
    fn policies_persist_across_cas_restarts() {
        use securetf_shield::fs::UntrustedStore;

        let platform = Platform::builder().build();
        let cas_image = EnclaveImage::builder().code(b"persistent cas").build();
        let disk = UntrustedStore::new();
        let path = "/cas/persist-test-db";
        let worker_image = EnclaveImage::builder().code(b"pw").build();

        // First CAS lifetime: register a policy.
        {
            let enclave = platform
                .create_enclave(&cas_image, ExecutionMode::Hardware)
                .unwrap();
            let store = KvStore::create(enclave.clone(), disk.clone(), path).unwrap();
            let mut cas =
                CasService::with_store(enclave, platform.fleet_verifier(), store).unwrap();
            cas.register_policy(
                ServicePolicy::new("persist-svc")
                    .allow_measurement(worker_image.measurement())
                    .with_secret("k", b"v"),
            )
            .unwrap();
        }

        // CAS restarts (same enclave identity): policy is still there and
        // still provisions.
        let enclave = platform
            .create_enclave(&cas_image, ExecutionMode::Hardware)
            .unwrap();
        let store = KvStore::open(enclave.clone(), disk, path).unwrap();
        let mut cas = CasService::with_store(enclave, platform.fleet_verifier(), store).unwrap();
        assert_eq!(cas.services(), vec!["persist-svc"]);
        let worker = platform
            .create_enclave(&worker_image, ExecutionMode::Hardware)
            .unwrap();
        let quote = worker.quote(b"x").unwrap();
        let p = cas.attest_and_provision(&quote, "persist-svc").unwrap();
        assert_eq!(p.secret("k"), Some(&b"v"[..]));
    }

    #[test]
    fn removed_policies_stay_removed_after_restart() {
        use securetf_shield::fs::UntrustedStore;

        let platform = Platform::builder().build();
        let cas_image = EnclaveImage::builder().code(b"removal cas").build();
        let disk = UntrustedStore::new();
        let path = "/cas/removal-test-db";
        {
            let enclave = platform
                .create_enclave(&cas_image, ExecutionMode::Hardware)
                .unwrap();
            let store = KvStore::create(enclave.clone(), disk.clone(), path).unwrap();
            let mut cas =
                CasService::with_store(enclave, platform.fleet_verifier(), store).unwrap();
            cas.register_policy(ServicePolicy::new("gone")).unwrap();
            cas.register_policy(ServicePolicy::new("kept")).unwrap();
            assert!(cas.remove_policy("gone").unwrap());
        }
        let enclave = platform
            .create_enclave(&cas_image, ExecutionMode::Hardware)
            .unwrap();
        let store = KvStore::open(enclave.clone(), disk, path).unwrap();
        let cas = CasService::with_store(enclave, platform.fleet_verifier(), store).unwrap();
        assert_eq!(cas.services(), vec!["kept"]);
    }

    #[test]
    fn a_failed_policy_update_reaches_the_caller_and_a_restart_agrees() {
        use securetf_shield::fs::UntrustedStore;

        const PATH: &str = "/cas/db";
        let cas_image = EnclaveImage::builder().code(b"crashing cas").build();
        let mount = |platform: &Platform, disk: &UntrustedStore, fresh: bool| {
            let enclave = platform
                .create_enclave(&cas_image, ExecutionMode::Hardware)
                .unwrap();
            let store = if fresh {
                KvStore::create(enclave.clone(), disk.clone(), PATH).unwrap()
            } else {
                KvStore::open(enclave.clone(), disk.clone(), PATH).unwrap()
            };
            CasService::with_store(enclave, platform.fleet_verifier(), store).unwrap()
        };
        let boot = || {
            let platform = Platform::builder().build();
            let disk = UntrustedStore::new();
            let mut cas = mount(&platform, &disk, true);
            cas.register_policy(ServicePolicy::new("kept")).unwrap();
            cas.register_policy(ServicePolicy::new("gone")).unwrap();
            (platform, disk, cas)
        };
        type Update = fn(&mut CasService) -> Result<(), CasError>;
        let updates: [Update; 2] = [
            |cas| cas.upsert_policy(ServicePolicy::new("kept").with_secret("k", b"v2")),
            |cas| cas.remove_policy("gone").map(|_| ()),
        ];
        for update in updates {
            let ops = {
                let (_platform, disk, mut cas) = boot();
                let before = disk.op_count();
                update(&mut cas).unwrap();
                disk.op_count() - before
            };
            let (mut failed, mut landed) = (0, 0);
            // The host dies at every op of the update.
            for k in 0..ops {
                let (platform, disk, mut cas) = boot();
                let before = cas.policies.clone();
                disk.fail_after_ops(k);
                match update(&mut cas) {
                    Err(CasError::Storage(_)) => {
                        assert_eq!(cas.policies, before, "crash at op {k}: table moved");
                        failed += 1;
                    }
                    Ok(()) => landed += 1,
                    Err(e) => panic!("crash at op {k}: {e}"),
                }
                disk.host_restart();
                let restarted = mount(&platform, &disk, false);
                assert_eq!(restarted.policies, cas.policies, "crash at op {k}");
            }
            // Before the commit point the update fails; after it, it is durable.
            assert!(failed > 0 && landed > 0, "{failed} failed, {landed} landed");
        }
    }

    #[test]
    fn outage_returns_unavailable_then_recovers() {
        let mut s = setup();
        let worker = s
            .platform
            .create_enclave(&s.worker_image, ExecutionMode::Hardware)
            .unwrap();
        let quote = worker.quote(b"binding").unwrap();
        s.cas.inject_outage(5_000_000);
        assert!(s.cas.is_unavailable());
        assert!(matches!(
            s.cas.attest_and_provision(&quote, "svc"),
            Err(CasError::Unavailable { .. })
        ));
        assert_eq!(s.cas.attestations_served(), 0);
        // Virtual time passes; the CAS comes back on its own.
        let clock = s.cas.enclave().clock();
        clock.idle_until(clock.now_ns() + 5_000_000);
        assert!(!s.cas.is_unavailable());
        assert!(s.cas.attest_and_provision(&quote, "svc").is_ok());
    }

    #[test]
    fn retry_rides_out_bounded_outage() {
        let mut s = setup();
        let worker = s
            .platform
            .create_enclave(&s.worker_image, ExecutionMode::Hardware)
            .unwrap();
        let quote = worker.quote(b"binding").unwrap();
        s.cas.inject_outage(3_000_000);
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay_ns: 1_000_000,
            max_delay_ns: 10_000_000,
            jitter_from_seed: 7,
        };
        let p = s
            .cas
            .attest_and_provision_with_retry(&quote, "svc", &policy)
            .expect("backoff outlives the outage");
        assert!(p.secret("fs-key").is_some());
    }

    #[test]
    fn retry_fails_closed_on_integrity_violation() {
        let mut s = setup();
        let worker = s
            .platform
            .create_enclave(&s.worker_image, ExecutionMode::Hardware)
            .unwrap();
        let mut quote = worker.quote(b"binding").unwrap();
        quote.signature[0] ^= 1;
        let clock = s.cas.enclave().clock().clone();
        let before = clock.now_ns();
        let policy = RetryPolicy::with_seed(8, 7);
        assert!(matches!(
            s.cas
                .attest_and_provision_with_retry(&quote, "svc", &policy),
            Err(CasError::QuoteRejected(_))
        ));
        // No backoff was charged: a forged quote is not retried.
        let single_attempt_budget = 10_000_000;
        assert!(clock.now_ns() - before < single_attempt_budget);
    }

    #[test]
    fn retry_exhausts_against_long_outage() {
        let mut s = setup();
        let worker = s
            .platform
            .create_enclave(&s.worker_image, ExecutionMode::Hardware)
            .unwrap();
        let quote = worker.quote(b"binding").unwrap();
        s.cas.inject_outage(3_600_000_000_000); // one virtual hour
        let policy = RetryPolicy::with_seed(3, 7);
        assert!(matches!(
            s.cas
                .attest_and_provision_with_retry(&quote, "svc", &policy),
            Err(CasError::Unavailable { .. })
        ));
    }

    #[test]
    fn elastic_scaling_many_attestations_cheap() {
        // Spawning 50 new containers attests 50 times; with CAS this costs
        // ~1 s total, where IAS would cost ~16 s.
        let mut s = setup();
        let clock = s.cas.enclave().clock().clone();
        let t0 = clock.now_ns();
        for _ in 0..50 {
            let worker = s
                .platform
                .create_enclave(&s.worker_image, ExecutionMode::Hardware)
                .unwrap();
            let quote = worker.quote(b"binding").unwrap();
            s.cas.attest_and_provision(&quote, "svc").unwrap();
        }
        let elapsed_ms = (clock.now_ns() - t0) as f64 / 1e6;
        assert!(elapsed_ms < 3_000.0, "{elapsed_ms} ms for 50 attestations");
    }
}
