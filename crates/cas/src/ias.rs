//! A latency-faithful simulator of the Intel Attestation Service (IAS).
//!
//! IAS is Intel's hosted EPID quote-verification endpoint. Every
//! verification is a WAN round trip to Intel plus a substantial service
//! time (~280 ms measured in the paper). The paper's Figure 4 compares
//! the traditional "every container attests via IAS" flow against CAS;
//! this module implements that baseline with the same message flow and
//! the WAN cost model.

use crate::policy::ServicePolicy;
use crate::service::{AttestationBreakdown, Provision};
use crate::CasError;
use securetf_tee::{CostCategory, Platform, Quote};
use std::collections::HashMap;

/// Approximate serialized size of an EPID quote (larger than a local
/// report: it carries the EPID signature and certificate chain).
const EPID_QUOTE_WIRE_BYTES: u64 = 1116;

/// The IAS-based attestation flow: the verifying party (the user, or a
/// bootstrap service they run) submits quotes to IAS over the WAN and
/// provisions secrets itself afterwards.
#[derive(Debug)]
pub struct IasAttestor {
    platform: Platform,
    policies: HashMap<String, ServicePolicy>,
}

impl IasAttestor {
    /// Creates the baseline attestor on the verifying party's machine: it
    /// verifies quotes of `platform`'s fleet and spends its WAN and
    /// service time on `platform` (the cluster's, so latencies are
    /// comparable with CAS), as [`CostCategory::Attestation`].
    pub fn new(platform: &Platform) -> Self {
        IasAttestor {
            platform: platform.clone(),
            policies: HashMap::new(),
        }
    }

    /// Registers the policy the user checks measurements against after
    /// IAS confirms the quote is genuine.
    pub fn register_policy(&mut self, policy: ServicePolicy) {
        self.policies.insert(policy.name().to_string(), policy);
    }

    /// Runs the traditional IAS attestation + manual key provisioning
    /// flow for `quote`.
    ///
    /// # Errors
    ///
    /// Same classes as [`crate::service::CasService::attest_and_provision`].
    pub fn attest_and_provision(
        &mut self,
        quote: &Quote,
        service: &str,
    ) -> Result<Provision, CasError> {
        let (model, clock) = (self.platform.cost_model(), self.platform.clock());
        let spend = |ns| self.platform.spend(CostCategory::Attestation, ns);
        let quote_generation_ns = model.quote_gen_ns;

        // Quote travels to the IAS endpoint over the WAN.
        let quote_transfer_ns = model.ias_wan_one_way_ns
            + (EPID_QUOTE_WIRE_BYTES as f64 / model.lan_bytes_per_sec * 1e9) as u64;
        spend(quote_transfer_ns);

        // IAS service time + the response WAN leg.
        let verify_start = clock.now_ns();
        spend(model.ias_service_ns + model.ias_wan_one_way_ns);
        let policy = self
            .policies
            .get(service)
            .ok_or_else(|| CasError::UnknownService(service.to_string()))?;
        self.platform
            .verify_quote(quote)
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

        // The user then provisions keys themselves, over the LAN.
        let payload = policy.secrets_len() + 64;
        let key_transfer_ns = model.lan_transfer_ns(payload) + model.shield_crypto_ns(payload);
        spend(key_transfer_ns);

        let secrets = policy
            .secrets()
            .map(|s| (s.name, s.value))
            .collect::<HashMap<_, _>>();
        Ok(Provision::from_parts(
            secrets,
            AttestationBreakdown {
                quote_generation_ns,
                quote_transfer_ns,
                verification_ns,
                key_transfer_ns,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::CasService;
    use securetf_tee::{EnclaveImage, ExecutionMode, Platform};

    #[test]
    fn ias_total_latency_matches_paper_magnitude() {
        let platform = Platform::builder().build();
        let image = EnclaveImage::builder().code(b"w").build();
        let worker = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        let mut ias = IasAttestor::new(&platform);
        ias.register_policy(
            ServicePolicy::new("svc")
                .allow_measurement(image.measurement())
                .with_secret("k", b"v"),
        );
        let quote = worker.quote(b"b").unwrap();
        let p = ias.attest_and_provision(&quote, "svc").unwrap();
        let total_ms = p.breakdown().total_ns() as f64 / 1e6;
        // Paper: ~325 ms end to end, verification ~280 ms.
        assert!((250.0..450.0).contains(&total_ms), "total {total_ms} ms");
        let verify_ms = p.breakdown().verification_ns as f64 / 1e6;
        assert!((250.0..360.0).contains(&verify_ms), "verify {verify_ms} ms");
    }

    #[test]
    fn cas_is_an_order_of_magnitude_faster_than_ias() {
        let platform = Platform::builder().build();
        let image = EnclaveImage::builder().code(b"w").build();
        let worker = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        let policy = ServicePolicy::new("svc")
            .allow_measurement(image.measurement())
            .with_secret("k", b"v");

        let cas_enclave = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"cas").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let mut cas = CasService::new(cas_enclave, platform.fleet_verifier());
        cas.register_policy(policy.clone()).unwrap();
        let mut ias = IasAttestor::new(&platform);
        ias.register_policy(policy);

        let q1 = worker.quote(b"x").unwrap();
        let cas_total = cas
            .attest_and_provision(&q1, "svc")
            .unwrap()
            .breakdown()
            .total_ns();
        let q2 = worker.quote(b"y").unwrap();
        let ias_total = ias
            .attest_and_provision(&q2, "svc")
            .unwrap()
            .breakdown()
            .total_ns();
        let speedup = ias_total as f64 / cas_total as f64;
        // Paper: roughly 19x.
        assert!(speedup > 10.0, "speedup only {speedup:.1}x");
    }

    #[test]
    fn ias_rejects_bad_measurement_after_paying_wan_cost() {
        let platform = Platform::builder().build();
        let image = EnclaveImage::builder().code(b"w").build();
        let rogue = EnclaveImage::builder().code(b"r").build();
        let worker = platform
            .create_enclave(&rogue, ExecutionMode::Hardware)
            .unwrap();
        let mut ias = IasAttestor::new(&platform);
        ias.register_policy(ServicePolicy::new("svc").allow_measurement(image.measurement()));
        let quote = worker.quote(b"b").unwrap();
        assert_eq!(
            ias.attest_and_provision(&quote, "svc").unwrap_err(),
            CasError::MeasurementNotAllowed
        );
    }
}
