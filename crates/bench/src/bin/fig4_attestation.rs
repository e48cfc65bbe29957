//! Figure 4: attestation + key-transfer latency, CAS vs IAS.
//!
//! The paper reports the per-phase breakdown of one attestation: quote
//! generation, quote transfer, quote verification and key transfer.
//! CAS totals ~17 ms with sub-millisecond verification; the traditional
//! IAS flow totals ~325 ms with ~280 ms verification (a ~19× gap).

use securetf_bench::report::BenchReport;
use securetf_bench::{fmt_ns, fmt_ratio, header};
use securetf_cas::ias::IasAttestor;
use securetf_cas::policy::ServicePolicy;
use securetf_cas::service::{AttestationBreakdown, CasService};
use securetf_tee::{EnclaveImage, ExecutionMode, Platform};

fn print_breakdown(system: &str, b: AttestationBreakdown) {
    println!(
        "{system:<14} | {:>10} | {:>10} | {:>10} | {:>10} | {:>10}",
        fmt_ns(b.quote_generation_ns),
        fmt_ns(b.quote_transfer_ns),
        fmt_ns(b.verification_ns),
        fmt_ns(b.key_transfer_ns),
        fmt_ns(b.total_ns()),
    );
}

fn main() {
    let platform = Platform::builder().build();
    let worker_image = EnclaveImage::builder().code(b"fig4 worker").build();
    let policy = ServicePolicy::new("svc")
        .allow_measurement(worker_image.measurement())
        .with_secret("fs-key", &[7u8; 32])
        .with_secret("tls-cert", &[9u8; 512]);

    // CAS path.
    let cas_enclave = platform
        .create_enclave(
            &EnclaveImage::builder().code(b"cas").name("cas").build(),
            ExecutionMode::Hardware,
        )
        .expect("cas enclave");
    let mut cas = CasService::new(cas_enclave, platform.fleet_verifier());
    cas.register_policy(policy.clone()).expect("fresh policy");

    // IAS path.
    let mut ias = IasAttestor::new(&platform);
    ias.register_policy(policy);

    let worker = platform
        .create_enclave(&worker_image, ExecutionMode::Hardware)
        .expect("worker enclave");

    const RUNS: u32 = 20;
    let mut cas_total = AttestationBreakdown::default();
    let mut ias_total = AttestationBreakdown::default();
    for i in 0..RUNS {
        let quote = worker.quote(&[i as u8]).expect("quote");
        let c = cas
            .attest_and_provision(&quote, "svc")
            .expect("cas attest")
            .breakdown();
        let quote = worker.quote(&[i as u8, 1]).expect("quote");
        let s = ias
            .attest_and_provision(&quote, "svc")
            .expect("ias attest")
            .breakdown();
        cas_total.quote_generation_ns += c.quote_generation_ns;
        cas_total.quote_transfer_ns += c.quote_transfer_ns;
        cas_total.verification_ns += c.verification_ns;
        cas_total.key_transfer_ns += c.key_transfer_ns;
        ias_total.quote_generation_ns += s.quote_generation_ns;
        ias_total.quote_transfer_ns += s.quote_transfer_ns;
        ias_total.verification_ns += s.verification_ns;
        ias_total.key_transfer_ns += s.key_transfer_ns;
    }
    let avg = |b: AttestationBreakdown| AttestationBreakdown {
        quote_generation_ns: b.quote_generation_ns / RUNS as u64,
        quote_transfer_ns: b.quote_transfer_ns / RUNS as u64,
        verification_ns: b.verification_ns / RUNS as u64,
        key_transfer_ns: b.key_transfer_ns / RUNS as u64,
    };
    let cas_avg = avg(cas_total);
    let ias_avg = avg(ias_total);

    header(
        "Figure 4: attestation & key-transfer latency (mean of 20 runs)",
        &[
            "system        ",
            " quote gen ",
            " transfer  ",
            "  verify   ",
            " key xfer  ",
            "  total    ",
        ],
    );
    print_breakdown("CAS (secureTF)", cas_avg);
    print_breakdown("IAS (trad.)", ias_avg);
    println!(
        "\nspeedup CAS over IAS: {}   (paper: ~19x; CAS ~17 ms vs IAS ~325 ms)",
        fmt_ratio(ias_avg.total_ns(), cas_avg.total_ns())
    );
    println!(
        "verification: CAS {} (paper: <1 ms), IAS {} (paper: ~280 ms)",
        fmt_ns(cas_avg.verification_ns),
        fmt_ns(ias_avg.verification_ns)
    );

    BenchReport::new("fig4_attestation")
        .mode("hw")
        .paper_target("CAS ~17 ms vs IAS ~325 ms (~19x speedup)")
        .latency_ns("cas_quote_generation_ns", cas_avg.quote_generation_ns)
        .latency_ns("cas_quote_transfer_ns", cas_avg.quote_transfer_ns)
        .latency_ns("cas_verification_ns", cas_avg.verification_ns)
        .latency_ns("cas_key_transfer_ns", cas_avg.key_transfer_ns)
        .latency_ns("cas_total_ns", cas_avg.total_ns())
        .latency_ns("ias_quote_generation_ns", ias_avg.quote_generation_ns)
        .latency_ns("ias_quote_transfer_ns", ias_avg.quote_transfer_ns)
        .latency_ns("ias_verification_ns", ias_avg.verification_ns)
        .latency_ns("ias_key_transfer_ns", ias_avg.key_transfer_ns)
        .latency_ns("ias_total_ns", ias_avg.total_ns())
        .ratio(
            "ias_over_cas",
            ias_avg.total_ns() as f64 / cas_avg.total_ns().max(1) as f64,
        )
        .emit();
}
