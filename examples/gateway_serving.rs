//! Gateway serving demo: N clients with mixed deadlines multiplexed
//! through the secure inference gateway.
//!
//! ```text
//! cargo run --release --example gateway_serving -- [seed] [clients] [steps]
//! ```
//!
//! A seeded serving fault plan (request bursts, slow clients,
//! disconnects) drives traffic into the gateway, which coalesces
//! compatible requests into shape-keyed micro-batches, dispatches by
//! earliest deadline, fills batches fairly across tenants by deficit
//! round-robin, and sheds overload with retry hints. The same seed
//! always prints the same telemetry digest.

use securetf_distrib::faults::FaultPlan;
use securetf_gateway::chaos::run_chaos;
use securetf_gateway::GatewayConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let seed: u64 = match args.next() {
        Some(s) => s
            .parse()
            .map_err(|_| format!("seed must be a u64, got '{s}'"))?,
        None => 42,
    };
    let clients: usize = match args.next() {
        Some(s) => s
            .parse()
            .map_err(|_| format!("clients must be a usize, got '{s}'"))?,
        None => 5,
    };
    let steps: u64 = match args.next() {
        Some(s) => s
            .parse()
            .map_err(|_| format!("steps must be a u64, got '{s}'"))?,
        None => 40,
    };

    let plan = FaultPlan::generate_serving(seed, steps, clients);
    println!(
        "serving fault plan: seed={seed} events={} digest={:#018x}",
        plan.len(),
        plan.schedule_digest()
    );
    for step in 0..steps {
        let events = plan.events_at(step);
        if !events.is_empty() {
            println!("  step {step:>3}: {events:?}");
        }
    }

    let config = GatewayConfig::default();
    println!();
    println!(
        "gateway: max_batch={} batch_timeout={}us queue_capacity={}",
        config.max_batch,
        config.batch_timeout_ns / 1_000,
        config.queue_capacity,
    );
    let report = run_chaos(seed, clients, steps, config)?;

    println!();
    println!("served:");
    println!("  requests sent      {}", report.sent);
    println!("  labels             {}", report.label_count);
    println!("  errors             {}", report.error_count);
    println!("  unavailable        {}", report.unavailable_count);
    println!(
        "  exactly-once       {}",
        if report.answered_exactly_once() { "yes" } else { "NO" }
    );
    println!();
    println!("gateway stats:");
    println!("  admitted           {}", report.gateway.admitted);
    println!("  batches            {}", report.gateway.batches);
    println!("  largest batch      {}", report.gateway.largest_batch);
    println!("  shed               {}", report.gateway.shed);
    println!("  deadline misses    {}", report.gateway.deadline_misses);
    println!();
    println!("virtual-time span tree:");
    for line in report.span_tree.lines() {
        println!("  {line}");
    }
    println!();
    println!("metrics digest: {}", report.metrics_digest);
    Ok(())
}
