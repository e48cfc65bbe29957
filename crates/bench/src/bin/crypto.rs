//! Crypto data-plane microbenchmark (DESIGN.md §17).
//!
//! Like `kernels`, this binary measures **wall-clock** time — the AEAD
//! kernels are real compute, not cost-model charges. Four relationships
//! are the deliverable, three asserted hard (non-zero exit on violation):
//!
//! 1. every fast path (multi-block ChaCha20, in-place detached AEAD,
//!    dispatched SHA-256, parallel chunked sealing and opening) is
//!    byte-identical to the retained reference implementation (asserted
//!    in every build), and
//! 2. the single-thread fast seal is at least 2x the reference at the
//!    shield's 64 KiB chunk size (release builds only), and
//! 3. SHA-256 on the SHA extensions is at least 3x the portable body at
//!    64 KiB (release builds, when `sha256::backend()` is `"sha-ni"`),
//!    plus
//! 4. a fig6-style fs-shield write/read comparison showing what parallel
//!    chunk sealing and opening buy end to end.

use securetf_bench::report::{BenchReport, JsonValue};
use securetf_bench::{fmt_ns, fmt_ratio, header};
use securetf_crypto::aead::{self, AeadCtx, Key, Nonce};
use securetf_crypto::sha256;
use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
use securetf_tensor::kernels::WorkerPool;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic pseudo-random payload bytes.
fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as u8
        })
        .collect()
}

/// Best-of-`reps` wall-clock nanoseconds of `f`.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> (u64, R) {
    let t0 = Instant::now();
    let mut last = f();
    let mut best = t0.elapsed().as_nanos() as u64;
    for _ in 1..reps.max(1) {
        let t0 = Instant::now();
        last = f();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    (best, last)
}

struct SealRow {
    label: String,
    len: usize,
    reference_ns: u64,
    fast_ns: u64,
    identical: bool,
}

/// Times one allocating reference seal against the zero-alloc in-place
/// fast path on a `len`-byte payload and checks byte identity.
fn bench_seal(len: usize, reps: usize) -> SealRow {
    let key = Key::from_bytes([0x42; 32]);
    let nonce = Nonce::from_counter(7, 1);
    let aad = [0x17u8; 13];
    let plaintext = fill(len as u64 + 3, len);

    let (reference_ns, reference) =
        time_ns(reps, || aead::seal_reference(&key, &nonce, &plaintext, &aad));

    let ctx = AeadCtx::new(key);
    let mut buf = plaintext.clone();
    let (fast_ns, tag) = time_ns(reps, || {
        buf.copy_from_slice(&plaintext);
        ctx.seal_in_place_detached(&nonce, &mut buf, &aad)
    });

    let identical = buf == reference[..len] && tag == reference[len..];
    SealRow {
        label: format!("seal {}", fmt_len(len)),
        len,
        reference_ns,
        fast_ns,
        identical,
    }
}

struct ShaRow {
    len: usize,
    portable_ns: u64,
    dispatched_ns: u64,
    identical: bool,
}

/// Times one SHA-256 of `len` bytes on the portable body against the
/// body the CPU dispatches to and checks the digests agree. Short
/// messages are hashed back to back until a timing covers 64 KiB, so the
/// clock's own resolution stays out of the per-message figure.
fn bench_sha256(len: usize, reps: usize) -> ShaRow {
    let message = fill(len as u64 + 11, len);
    let rounds = (64 * 1024 / len).max(1);
    let per_message = |body: fn(&[u8]) -> [u8; 32]| {
        let (ns, digest) = time_ns(reps, || {
            let mut digest = [0u8; 32];
            for _ in 0..rounds {
                digest = body(std::hint::black_box(&message));
            }
            digest
        });
        (ns / rounds as u64, digest)
    };
    let (portable_ns, portable) = per_message(sha256::digest_portable);
    let (dispatched_ns, dispatched) = per_message(sha256::digest);
    ShaRow {
        len,
        portable_ns,
        dispatched_ns,
        identical: portable == dispatched,
    }
}

fn fmt_len(len: usize) -> String {
    if len >= 1024 * 1024 {
        format!("{} MiB", len / (1024 * 1024))
    } else if len >= 1024 {
        format!("{} KiB", len / 1024)
    } else {
        format!("{len} B")
    }
}

fn enclave(code: &[u8]) -> Arc<securetf_tee::Enclave> {
    Platform::builder()
        .id(0xbe9c)
        .build()
        .create_enclave(
            &EnclaveImage::builder().code(code).build(),
            ExecutionMode::Hardware,
        )
        .expect("enclave")
}

struct FsRow {
    write_ns: u64,
    read_ns: u64,
    image: Vec<(String, Vec<u8>)>,
}

/// Fig6-style fs-shield pass: writes and reads `data` through a shield
/// whose chunk sealing runs on `workers` threads, returning wall-clock
/// times and the full host disk image for bit-identity comparison.
fn bench_fs(workers: usize, data: &[u8], reps: usize) -> FsRow {
    let store = UntrustedStore::new();
    let mut shield = FsShield::with_key(
        enclave(b"crypto-bench-fs"),
        store.clone(),
        Key::from_bytes([0x33; 32]),
    );
    shield.set_worker_pool(WorkerPool::new(workers));
    let (write_ns, _) = time_ns(reps, || shield.write("/model/weights.bin", data).expect("write"));
    let (read_ns, back) = time_ns(reps, || shield.read("/model/weights.bin").expect("read"));
    assert_eq!(back, data, "fs shield read back diverged from payload");
    let image = store
        .paths()
        .into_iter()
        .map(|p| {
            let contents = store.raw_contents(&p).expect("listed path exists");
            (p, contents)
        })
        .collect();
    FsRow { write_ns, read_ns, image }
}

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(2);
    let reps = 5;

    header(
        "Crypto data plane: reference vs fast AEAD (wall clock)",
        &["payload        ", "reference ", "fast      ", "speedup", "bit-identical"],
    );

    let rows = vec![
        bench_seal(1024, reps),
        bench_seal(4 * 1024, reps),
        bench_seal(64 * 1024, reps),
        bench_seal(1024 * 1024, reps),
    ];

    let mut report = BenchReport::new("crypto")
        .unit("wall_ns")
        .mode(&format!("wall_clock/{workers}w"))
        .paper_target("secureTF: shield crypto off the critical path of file and network I/O");
    let mut all_identical = true;
    for row in &rows {
        println!(
            "{:<16} | {:>10} | {:>10} | {:>7} | {}",
            row.label,
            fmt_ns(row.reference_ns),
            fmt_ns(row.fast_ns),
            fmt_ratio(row.reference_ns, row.fast_ns),
            row.identical
        );
        all_identical &= row.identical;
        let key = format!("seal_{}", row.len);
        report = report
            .latency_ns(&format!("{key}.reference_ns"), row.reference_ns)
            .latency_ns(&format!("{key}.fast_ns"), row.fast_ns)
            .ratio(
                &format!("{key}.speedup"),
                row.reference_ns as f64 / row.fast_ns.max(1) as f64,
            );
    }

    println!();
    header(
        &format!("SHA-256: portable vs dispatched ({})", sha256::backend()),
        &["message        ", "portable  ", "dispatched", "speedup", "bit-identical"],
    );
    let sha_rows = [64, 4 * 1024, 64 * 1024].map(|len| bench_sha256(len, reps));
    report = report.value("sha256.backend", JsonValue::Str(sha256::backend().into()));
    for row in &sha_rows {
        println!(
            "{:<16} | {:>10} | {:>10} | {:>7} | {}",
            format!("sha256 {}", fmt_len(row.len)),
            fmt_ns(row.portable_ns),
            fmt_ns(row.dispatched_ns),
            fmt_ratio(row.portable_ns, row.dispatched_ns),
            row.identical
        );
        all_identical &= row.identical;
        let key = format!("sha256_{}", row.len);
        report = report
            .latency_ns(&format!("{key}.portable_ns"), row.portable_ns)
            .latency_ns(&format!("{key}.dispatched_ns"), row.dispatched_ns)
            .ratio(
                &format!("{key}.speedup"),
                row.portable_ns as f64 / row.dispatched_ns.max(1) as f64,
            );
    }

    // Fig6-style end-to-end: serial vs parallel chunk sealing in the fs
    // shield on a multi-chunk payload.
    let payload = fill(99, 4 * 1024 * 1024);
    let serial = bench_fs(1, &payload, reps.min(3));
    let parallel = bench_fs(workers, &payload, reps.min(3));
    let images_identical = serial.image == parallel.image;
    all_identical &= images_identical;

    println!();
    header(
        &format!("fs shield, 4 MiB payload: serial vs {workers}-worker sealing"),
        &["op     ", "serial    ", "parallel  ", "speedup"],
    );
    for (op, s, p) in [
        ("write", serial.write_ns, parallel.write_ns),
        ("read", serial.read_ns, parallel.read_ns),
    ] {
        println!(
            "{:<7} | {:>10} | {:>10} | {:>7}",
            op,
            fmt_ns(s),
            fmt_ns(p),
            fmt_ratio(s, p)
        );
    }
    // The e2e `store_read` shape: one 1 MiB file read whole, serial pool
    // against two workers (`bench_fs` checks each read against the payload).
    let mib = &payload[..1024 * 1024];
    let read_serial = bench_fs(1, mib, reps).read_ns;
    let read_pooled = bench_fs(2, mib, reps).read_ns;
    println!(
        "{:<7} | {:>10} | {:>10} | {:>7}   (1 MiB, 2 workers)",
        "read",
        fmt_ns(read_serial),
        fmt_ns(read_pooled),
        fmt_ratio(read_serial, read_pooled)
    );
    report = report
        .latency_ns("fs_read_1mib.serial_ns", read_serial)
        .latency_ns("fs_read_1mib.pooled2_ns", read_pooled)
        .ratio(
            "fs_read_1mib.pooled2_speedup",
            read_serial as f64 / read_pooled.max(1) as f64,
        );
    report = report
        .latency_ns("fs_write.serial_ns", serial.write_ns)
        .latency_ns("fs_write.parallel_ns", parallel.write_ns)
        .ratio(
            "fs_write.parallel_speedup",
            serial.write_ns as f64 / parallel.write_ns.max(1) as f64,
        )
        .latency_ns("fs_read.serial_ns", serial.read_ns)
        .latency_ns("fs_read.parallel_ns", parallel.read_ns)
        .ratio(
            "fs_read.parallel_speedup",
            serial.read_ns as f64 / parallel.read_ns.max(1) as f64,
        )
        .value("parallel_bit_identical", JsonValue::Bool(all_identical));

    assert!(
        all_identical,
        "a fast or parallel crypto path diverged byte-wise from the reference"
    );
    // Wall-clock smoke gate, meaningful only with optimizations on.
    if cfg!(debug_assertions) {
        println!("\n(debug build: skipping speed assertions)");
    } else {
        let chunk = rows.iter().find(|r| r.len == 64 * 1024).expect("64 KiB row");
        let speedup = chunk.reference_ns as f64 / chunk.fast_ns.max(1) as f64;
        assert!(
            speedup >= 2.0,
            "single-thread fast seal at 64 KiB is only {speedup:.2}x the reference (need >= 2x)"
        );
        if sha256::backend() == "sha-ni" {
            let chunk = sha_rows.iter().find(|r| r.len == 64 * 1024).expect("64 KiB row");
            let speedup = chunk.portable_ns as f64 / chunk.dispatched_ns.max(1) as f64;
            assert!(
                speedup >= 3.0,
                "SHA-NI SHA-256 at 64 KiB is only {speedup:.2}x the portable body (need >= 3x)"
            );
        }
    }
    report.emit();
}
