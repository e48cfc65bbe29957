//! Chaos-recovery demo: supervised distributed training under a seeded,
//! fully reproducible fault plan.
//!
//! ```text
//! cargo run --release --example chaos_recovery -- [seed] [steps]
//! ```
//!
//! A [`FaultPlan`] is generated from the seed (worker crashes, parameter-
//! server stalls, network drops/tampering, checkpoint corruption, CAS
//! outages) and a [`Supervisor`] heals the cluster through it: heartbeat
//! probes over authenticated channels, CAS re-attested respawns with
//! bounded backoff, and rollback to the last sealed checkpoint. The same
//! seed always prints the same schedule digest and the same final loss.

use securetf_distrib::cluster::{Cluster, ClusterConfig};
use securetf_distrib::faults::FaultPlan;
use securetf_distrib::supervisor::{Supervisor, SupervisorConfig};
use securetf_distrib::trainer::DistributedTrainer;
use securetf_shield::fs::UntrustedStore;
use securetf_tee::telemetry::MetricValue;
use securetf_tee::{ExecutionMode, SimClock};
use securetf_tensor::layers;

const WORKERS: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let seed: u64 = match args.next() {
        Some(s) => s
            .parse()
            .map_err(|_| format!("seed must be a u64, got '{s}'"))?,
        None => 42,
    };
    let steps: u64 = match args.next() {
        Some(s) => s
            .parse()
            .map_err(|_| format!("steps must be a u64, got '{s}'"))?,
        None => 10,
    };

    let plan = FaultPlan::generate(seed, steps, WORKERS);
    println!(
        "fault plan: seed={seed} events={} digest={:#018x}",
        plan.len(),
        plan.schedule_digest()
    );
    for step in 0..steps {
        let events = plan.events_at(step);
        if !events.is_empty() {
            println!("  step {step:>3}: {events:?}");
        }
    }

    // The supervisor counts into this registry; its clock only stamps
    // spans, so the run's virtual time is the same without it.
    let telemetry = SimClock::new().telemetry();
    let cluster = Cluster::new(ClusterConfig {
        workers: WORKERS,
        parameter_servers: 1,
        mode: ExecutionMode::Simulation,
        network_shield: true,
        runtime_bytes: 8 * 1024 * 1024,
        heap_bytes: 16 * 1024 * 1024,
        telemetry: telemetry.clone(),
        ..ClusterConfig::default()
    })?;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let model = layers::mlp_classifier(784, &[32], 10, &mut rng)?;
    let data = securetf_data::synthetic_mnist(300, 5);
    let trainer = DistributedTrainer::new(cluster, model, data, 100, 0.2)?;

    let mut supervisor = Supervisor::new(
        trainer,
        plan,
        SupervisorConfig::default(),
        UntrustedStore::new(),
    )?;
    let report = supervisor.train_steps(steps)?;
    let metrics = telemetry.metrics();
    let count = |name: &str| match metrics.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Counter(n))) => *n,
        other => panic!("no counter named {name:?}: {other:?}"),
    };

    println!();
    println!("training survived:");
    println!("  steps              {}", report.steps);
    println!("  samples            {}", report.samples);
    println!(
        "  final loss         {:.6} (bits {:#010x})",
        report.final_loss,
        report.final_loss.to_bits()
    );
    println!(
        "  virtual time       {:.3} ms",
        report.elapsed_ns as f64 / 1e6
    );
    println!();
    println!("supervisor stats:");
    println!(
        "  faults injected    {}",
        count("supervisor.faults_injected")
    );
    println!(
        "  heartbeats         {} ({} missed, {} tampered)",
        count("supervisor.heartbeats"),
        count("supervisor.missed_heartbeats"),
        count("supervisor.tampered_heartbeats")
    );
    println!("  respawns           {}", count("supervisor.respawns"));
    println!("  rollbacks          {}", count("supervisor.rollbacks"));
    println!(
        "  checkpoints        {} ({} fallbacks)",
        count("supervisor.checkpoints"),
        count("supervisor.checkpoint_fallbacks")
    );
    println!(
        "  supervision time   {:.3} ms",
        count("supervisor.supervision_ns") as f64 / 1e6
    );
    Ok(())
}
