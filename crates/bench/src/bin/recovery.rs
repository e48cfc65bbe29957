//! Crash-recovery cost of the fs shield's journaled write path.
//!
//! For each checkpoint size the harness enumerates *every* host-op
//! crash point of one journaled overwrite, remounts the shield with
//! [`FsShield::recover`] at each point and validates the crash-
//! consistency invariant (the recovered file is exactly the pre- or the
//! post-write state, with the boundary at the commit). Any
//! violation fails the run — CI uses this binary as a smoke gate. The
//! report records recovery virtual time per checkpoint size, split by
//! whether the crash point required a journal roll-forward.

use securetf_bench::report::{BenchReport, JsonValue};
use securetf_bench::{fmt_ns, header};
use securetf_shield::fs::{FsShield, UntrustedStore, CHUNK_SIZE};
use securetf_shield::ShieldError;
use securetf_tee::{Enclave, EnclaveImage, ExecutionMode, Platform};
use std::sync::Arc;

const PATH: &str = "/ckpt/model";

fn enclave_on(platform: &Platform) -> Arc<Enclave> {
    platform
        .create_enclave(
            &EnclaveImage::builder().code(b"recovery bench").build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave boots")
}

fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect()
}

struct SizeResult {
    crash_points: u64,
    rolled_forward: u64,
    total_recovery_ns: u64,
    max_recovery_ns: u64,
}

/// Enumerates every crash point of one `size`-byte overwrite, checking
/// the invariant at each and accumulating recovery cost. Exits non-zero
/// on any consistency violation.
fn sweep_size(size: usize) -> SizeResult {
    let pre = payload(size, 0x5a);
    let post = payload(size, 0xa5);
    let chunks = size.div_ceil(CHUNK_SIZE) as u64;
    // Journal shape: m staging puts, the commit (a one-file store seals a
    // checkpoint on every write), blob, m staged deletes.
    let total_ops = 2 * chunks + 2;
    let mut result = SizeResult {
        crash_points: total_ops,
        rolled_forward: 0,
        total_recovery_ns: 0,
        max_recovery_ns: 0,
    };
    for k in 0..total_ops {
        let platform = Platform::builder().build();
        let store = UntrustedStore::new();
        let mut shield = FsShield::new(enclave_on(&platform), store.clone());
        shield.write(PATH, &pre).expect("pre write");
        store.fail_after_ops(k);
        match shield.write(PATH, &post) {
            Err(ShieldError::HostCrashed(_)) => {}
            other => {
                eprintln!("crash point {k}/{total_ops}: write did not crash ({other:?})");
                std::process::exit(1);
            }
        }
        store.host_restart();
        let (recovered, report) = match FsShield::recover(enclave_on(&platform), store) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("crash point {k}/{total_ops}: recovery failed: {e}");
                std::process::exit(1);
            }
        };
        let got = match recovered.read(PATH) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("crash point {k}/{total_ops}: file unreadable after recovery: {e}");
                std::process::exit(1);
            }
        };
        let expect_post = k > chunks;
        let expected: &[u8] = if expect_post { &post } else { &pre };
        if got != expected {
            eprintln!(
                "crash point {k}/{total_ops}: INVARIANT VIOLATION — recovered \
                 neither pre nor the expected {} state",
                if expect_post { "post" } else { "pre" }
            );
            std::process::exit(1);
        }
        result.rolled_forward += report.rolled_forward as u64;
        result.total_recovery_ns += report.recovery_ns;
        result.max_recovery_ns = result.max_recovery_ns.max(report.recovery_ns);
    }
    result
}

fn main() {
    header(
        "Recovery: crash-point sweep of journaled checkpoint writes",
        &["checkpoint", "crash pts", "rolled fwd", "mean recovery", "max recovery"],
    );
    let sizes: [(usize, &str); 3] = [
        (64 * 1024, "64 KiB"),
        (256 * 1024, "256 KiB"),
        (1024 * 1024, "1 MiB"),
    ];
    let mut report = BenchReport::new("recovery")
        .mode("hw")
        .paper_target("every crash point recovers to exactly pre or post state");
    for (size, name) in sizes {
        let r = sweep_size(size);
        let mean = r.total_recovery_ns / r.crash_points;
        println!(
            "{:>10} | {:>9} | {:>10} | {:>13} | {:>12}",
            name,
            r.crash_points,
            r.rolled_forward,
            fmt_ns(mean),
            fmt_ns(r.max_recovery_ns),
        );
        report = report.value(
            &format!("ckpt_{}kib", size / 1024),
            JsonValue::Object(vec![
                ("crash_points".to_string(), JsonValue::U64(r.crash_points)),
                ("rolled_forward".to_string(), JsonValue::U64(r.rolled_forward)),
                ("mean_recovery_ns".to_string(), JsonValue::U64(mean)),
                ("max_recovery_ns".to_string(), JsonValue::U64(r.max_recovery_ns)),
            ]),
        );
    }
    println!("\nall crash points consistent: recovery yields pre xor post, never a hybrid");
    report.emit();
}
