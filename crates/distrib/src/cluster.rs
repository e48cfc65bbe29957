//! Simulated secure clusters.
//!
//! A [`Cluster`] models the paper's deployment (Figure 2): one parameter
//! server and N workers, each an enclave on its own machine with its own
//! virtual clock, plus a CAS that attests every enclave before it may
//! join. Elastic scaling — the ability to add attested workers quickly —
//! is what CAS's fast local attestation buys (challenge ❹).

use crate::DistribError;
use securetf_cas::ca::{Certificate, CertificateAuthority};
use securetf_cas::policy::ServicePolicy;
use securetf_cas::service::{CasService, Provision};
use securetf_crypto::x25519::{PublicKey, StaticSecret};
use securetf_tee::{Enclave, EnclaveImage, ExecutionMode, Platform, SimClock, Telemetry};
use std::sync::Arc;

/// Name of the CAS policy protecting the training service.
pub const TRAINING_SERVICE: &str = "training";

/// Configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes (each on its own machine).
    pub workers: usize,
    /// Number of parameter-server nodes the model is sharded across
    /// (Figure 2 shows several; 1 is the common case).
    pub parameter_servers: usize,
    /// Execution mode of all enclaves.
    pub mode: ExecutionMode,
    /// Whether worker↔PS links go through the network shield.
    pub network_shield: bool,
    /// In-enclave runtime footprint of each node (the full-TF binary for
    /// training, per §5.3 #4).
    pub runtime_bytes: u64,
    /// Heap each enclave requests.
    pub heap_bytes: u64,
    /// Cost-model override for every node (default: the standard model).
    pub cost_model: Option<securetf_tee::CostModel>,
    /// Telemetry every node's enclave charges costs to (default:
    /// disabled, zero overhead). Node clocks stay independent; the
    /// registry and cost counters are cluster-global.
    pub telemetry: Telemetry,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 1,
            parameter_servers: 1,
            mode: ExecutionMode::Hardware,
            network_shield: true,
            // The full-TensorFlow runtime binary (87.4 MB, paper §5.3 #4):
            // training cannot use the slim Lite runtime.
            runtime_bytes: 87_400_000,
            heap_bytes: 64 * 1024 * 1024,
            cost_model: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// One machine of the cluster.
#[derive(Debug)]
pub struct ClusterNode {
    /// The machine.
    pub platform: Platform,
    /// The (sole) enclave running the training process.
    pub enclave: Arc<Enclave>,
    /// Secrets provisioned by CAS after attestation.
    pub provision: Provision,
    /// Channel certificate issued by the CAS certificate authority
    /// (§7.3: generated inside the enclave, never seen by a human).
    pub certificate: Option<Certificate>,
    /// Whether the node is alive (fault injection marks it dead).
    pub alive: bool,
}

impl ClusterNode {
    /// The node's local virtual clock.
    pub fn clock(&self) -> &SimClock {
        self.platform.clock()
    }
}

/// A simulated secure cluster: CAS + parameter server + workers.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    cas: CasService,
    ca: CertificateAuthority,
    worker_image: EnclaveImage,
    /// The primary parameter-server node.
    pub ps: ClusterNode,
    /// Additional parameter-server nodes (model sharding).
    pub extra_ps: Vec<ClusterNode>,
    /// Worker nodes.
    pub workers: Vec<ClusterNode>,
    attest_ns_total: u64,
}

impl Cluster {
    /// Builds the cluster: starts CAS, registers the training policy, then
    /// boots and attests the PS and every worker.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::Attestation`] or [`DistribError::Tee`] on
    /// bootstrap failures.
    pub fn new(config: ClusterConfig) -> Result<Cluster, DistribError> {
        let cas_platform = Platform::builder()
            .telemetry(config.telemetry.clone())
            .build();
        let cas_enclave = cas_platform.create_enclave(
            &EnclaveImage::builder()
                .code(b"securetf-cas")
                .name("cas")
                .build(),
            // CAS always runs protected, even when the workload is
            // evaluated natively.
            if config.mode == ExecutionMode::Native {
                ExecutionMode::Simulation
            } else {
                config.mode
            },
        )?;
        let ca = CertificateAuthority::new(cas_enclave.clone());
        let mut cas = CasService::new(cas_enclave, cas_platform.fleet_verifier());

        let worker_image = EnclaveImage::builder()
            .code(b"securetf-training-worker-v1")
            .name("worker")
            .runtime_bytes(config.runtime_bytes)
            .heap_bytes(config.heap_bytes)
            .build();
        cas.register_policy(
            ServicePolicy::new(TRAINING_SERVICE)
                .allow_measurement(worker_image.measurement())
                .with_secret("fs-key", &[0x51; 32])
                .with_secret("tls-cert", b"-----TRAINING CERT-----"),
        )
        .map_err(DistribError::Attestation)?;

        let mut attest_ns_total = 0u64;
        let ps = boot_node(
            &mut cas,
            &ca,
            "ps-0",
            &worker_image,
            &config,
            &mut attest_ns_total,
        )?;
        let mut extra_ps = Vec::new();
        for i in 1..config.parameter_servers.max(1) {
            extra_ps.push(boot_node(
                &mut cas,
                &ca,
                &format!("ps-{i}"),
                &worker_image,
                &config,
                &mut attest_ns_total,
            )?);
        }
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            workers.push(boot_node(
                &mut cas,
                &ca,
                &format!("worker-{i}"),
                &worker_image,
                &config,
                &mut attest_ns_total,
            )?);
        }
        Ok(Cluster {
            config,
            cas,
            ca,
            worker_image,
            ps,
            extra_ps,
            workers,
            attest_ns_total,
        })
    }

    fn boot_node(&mut self) -> Result<ClusterNode, DistribError> {
        boot_node(
            &mut self.cas,
            &self.ca,
            &format!("worker-{}", self.workers.len()),
            &self.worker_image,
            &self.config,
            &mut self.attest_ns_total,
        )
    }

    /// Verifies a node certificate against the cluster's CA.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::Attestation`] on an invalid certificate.
    pub fn verify_certificate(&self, cert: &Certificate) -> Result<(), DistribError> {
        self.ca.verify(cert).map_err(DistribError::Attestation)
    }

    /// Elastically adds (and attests) one more worker, returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::Attestation`] if the new enclave fails
    /// attestation.
    pub fn add_worker(&mut self) -> Result<usize, DistribError> {
        let node = self.boot_node()?;
        self.workers.push(node);
        Ok(self.workers.len() - 1)
    }

    /// Marks a worker as failed (machine crash / migration). The node's
    /// enclave is marked failed too: a crashed endpoint can no longer
    /// produce authenticated shield records, so any secure channel
    /// terminating in it starts returning
    /// [`securetf_shield::ShieldError::ChannelClosed`].
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::UnknownWorker`] for bad indices.
    pub fn fail_worker(&mut self, index: usize) -> Result<(), DistribError> {
        let node = self
            .workers
            .get_mut(index)
            .ok_or(DistribError::UnknownWorker(index))?;
        node.alive = false;
        node.enclave.mark_failed();
        Ok(())
    }

    /// Replaces a failed worker with a freshly attested one.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::UnknownWorker`] or attestation errors.
    pub fn respawn_worker(&mut self, index: usize) -> Result<(), DistribError> {
        if index >= self.workers.len() {
            return Err(DistribError::UnknownWorker(index));
        }
        let node = self.boot_node()?;
        self.workers[index] = node;
        Ok(())
    }

    /// Like [`Cluster::respawn_worker`], but rides out transient CAS
    /// unavailability with bounded exponential backoff per `policy`
    /// (backoff advances the CAS's virtual clock, so a bounded outage
    /// expires during the waits). Integrity and policy violations —
    /// forged quotes, disallowed measurements, outdated TCBs — are *not*
    /// retried: they fail closed on the first attempt.
    ///
    /// # Errors
    ///
    /// Returns [`DistribError::UnknownWorker`], a fatal attestation
    /// error immediately, or the last transient error once `policy` is
    /// exhausted.
    pub fn respawn_worker_with_retry(
        &mut self,
        index: usize,
        policy: &securetf_tee::RetryPolicy,
    ) -> Result<(), DistribError> {
        if index >= self.workers.len() {
            return Err(DistribError::UnknownWorker(index));
        }
        let cas = self.cas.enclave().clone();
        let node = policy
            .run(&cas, |_| self.boot_node(), DistribError::is_transient)
            .map_err(securetf_tee::retry::RetryError::into_inner)?;
        self.workers[index] = node;
        Ok(())
    }

    /// The cluster's CAS, mutable — for fault injection
    /// ([`CasService::inject_outage`]) and policy administration.
    pub fn cas_mut(&mut self) -> &mut CasService {
        &mut self.cas
    }

    /// Live workers, with their indices.
    pub fn live_workers(&self) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total parameter-server count (primary + extras).
    pub fn parameter_server_count(&self) -> usize {
        1 + self.extra_ps.len()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Total virtual time spent attesting joins so far.
    pub fn attestation_ns(&self) -> u64 {
        self.attest_ns_total
    }

    /// Number of attestations CAS has served.
    pub fn attestations_served(&self) -> u64 {
        self.cas.attestations_served()
    }
}

fn boot_node(
    cas: &mut CasService,
    ca: &CertificateAuthority,
    name: &str,
    image: &EnclaveImage,
    config: &ClusterConfig,
    attest_ns_total: &mut u64,
) -> Result<ClusterNode, DistribError> {
    let mut builder = Platform::builder().telemetry(config.telemetry.clone());
    if let Some(model) = &config.cost_model {
        builder = builder.cost_model(model.clone());
    }
    let platform = builder.build();
    let enclave = platform.create_enclave(image, config.mode)?;
    let (provision, certificate) = if config.mode.has_runtime() {
        let t0 = cas.enclave().clock().now_ns();
        // The node's channel key is generated inside its enclave; the
        // quote binds it, and the CA certifies it after attestation.
        let mut seed = [0u8; 32];
        enclave.random_bytes(&mut seed);
        let channel_key = PublicKey::from(&StaticSecret::from_bytes(seed));
        let quote = enclave.quote(channel_key.as_bytes())?;
        let provision = cas
            .attest_and_provision(&quote, TRAINING_SERVICE)
            .map_err(DistribError::Attestation)?;
        let certificate = ca
            .issue_after_attestation(name, &quote)
            .map_err(DistribError::Attestation)?;
        *attest_ns_total += cas.enclave().clock().now_ns() - t0;
        (provision, Some(certificate))
    } else {
        (Provision::default(), None)
    };
    Ok(ClusterNode {
        platform,
        enclave,
        provision,
        certificate,
        alive: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(mode: ExecutionMode) -> ClusterConfig {
        ClusterConfig {
            workers: 2,
            parameter_servers: 1,
            mode,
            network_shield: true,
            runtime_bytes: 4 * 1024 * 1024,
            heap_bytes: 16 * 1024 * 1024,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn boots_and_attests_all_nodes() {
        let cluster = Cluster::new(small_config(ExecutionMode::Hardware)).unwrap();
        assert_eq!(cluster.workers.len(), 2);
        // PS + 2 workers attested.
        assert_eq!(cluster.attestations_served(), 3);
        assert!(cluster
            .workers
            .iter()
            .all(|w| w.provision.secret("fs-key").is_some()));
    }

    #[test]
    fn native_mode_skips_attestation() {
        let cluster = Cluster::new(small_config(ExecutionMode::Native)).unwrap();
        assert_eq!(cluster.attestations_served(), 0);
    }

    #[test]
    fn elastic_add_worker_attests() {
        let mut cluster = Cluster::new(small_config(ExecutionMode::Hardware)).unwrap();
        let before = cluster.attestations_served();
        let idx = cluster.add_worker().unwrap();
        assert_eq!(idx, 2);
        assert_eq!(cluster.attestations_served(), before + 1);
        assert_eq!(cluster.live_workers(), vec![0, 1, 2]);
    }

    #[test]
    fn fault_injection_and_respawn() {
        let mut cluster = Cluster::new(small_config(ExecutionMode::Hardware)).unwrap();
        cluster.fail_worker(1).unwrap();
        assert_eq!(cluster.live_workers(), vec![0]);
        cluster.respawn_worker(1).unwrap();
        assert_eq!(cluster.live_workers(), vec![0, 1]);
        assert!(matches!(
            cluster.fail_worker(9),
            Err(DistribError::UnknownWorker(9))
        ));
    }

    #[test]
    fn multiple_parameter_servers_attest() {
        let mut config = small_config(ExecutionMode::Hardware);
        config.parameter_servers = 3;
        let cluster = Cluster::new(config).unwrap();
        assert_eq!(cluster.parameter_server_count(), 3);
        // 3 PS + 2 workers.
        assert_eq!(cluster.attestations_served(), 5);
    }

    #[test]
    fn every_attested_node_holds_a_valid_certificate() {
        let cluster = Cluster::new(small_config(ExecutionMode::Hardware)).unwrap();
        let ps_cert = cluster.ps.certificate.as_ref().expect("ps certified");
        assert!(cluster.verify_certificate(ps_cert).is_ok());
        assert_eq!(ps_cert.subject, "ps-0");
        for (i, node) in cluster.workers.iter().enumerate() {
            let cert = node.certificate.as_ref().expect("worker certified");
            assert!(cluster.verify_certificate(cert).is_ok());
            assert_eq!(cert.subject, format!("worker-{i}"));
            assert_eq!(cert.measurement, node.enclave.measurement());
        }
        // A tampered certificate fails.
        let mut forged = ps_cert.clone();
        forged.public_key[0] ^= 1;
        assert!(cluster.verify_certificate(&forged).is_err());
    }

    #[test]
    fn native_nodes_have_no_certificates() {
        let cluster = Cluster::new(small_config(ExecutionMode::Native)).unwrap();
        assert!(cluster.ps.certificate.is_none());
    }

    #[test]
    fn nodes_have_independent_clocks() {
        let cluster = Cluster::new(small_config(ExecutionMode::Hardware)).unwrap();
        let w0 = &cluster.workers[0];
        let w1 = &cluster.workers[1];
        let t1_before = w1.clock().now_ns();
        w0.enclave.spend(securetf_tee::CostCategory::Other, 1000);
        assert_eq!(w1.clock().now_ns(), t1_before);
    }
}
