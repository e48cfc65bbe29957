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
//! 2. the single-thread fast seal is at least 3.5x the reference at the
//!    shield's 64 KiB chunk size when `poly1305::backend()` is `"avx2"`
//!    (2x on the portable bodies; release builds only), and
//! 3. SHA-256 on the SHA extensions is at least 3x the portable body at
//!    64 KiB (release builds, when `sha256::backend()` is `"sha-ni"`),
//!    plus
//! 4. a fig6-style fs-shield write/read comparison showing what parallel
//!    chunk sealing and opening buy end to end.
//!
//! Reported, not gated: open beside seal, the record sizes the network
//! shield moves (13 / 64 / 280 B; sub-microsecond timings on a shared VM
//! are too noisy to gate), ChaCha20 and Poly1305 on their own at 64 KiB,
//! and where the four-way Poly1305 body overtakes the portable one — the
//! measurement `poly1305::VECTOR_MIN_BLOCKS` was read off.

use securetf_bench::report::{BenchReport, JsonValue};
use securetf_bench::{fmt_ns, fmt_ratio, header};
use securetf_crypto::aead::{self, AeadCtx, Key, Nonce};
use securetf_crypto::chacha20::{self, ChaCha20};
use securetf_crypto::{poly1305, sha256};
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

/// Median per-call nanoseconds of `f` over `samples` timings of `batch`
/// back-to-back calls each — for calls too short for one `Instant` pair.
fn median_ns<R>(samples: usize, batch: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut timings: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    timings.sort_unstable();
    timings[samples / 2] / batch as u64
}

fn mib_s(len: usize, ns: u64) -> f64 {
    len as f64 / (1024.0 * 1024.0) / (ns.max(1) as f64 * 1e-9)
}

struct AeadRow {
    len: usize,
    reference_seal_ns: u64,
    seal_ns: u64,
    reference_open_ns: u64,
    open_ns: u64,
    identical: bool,
}

/// Times the allocating reference seal and open against the zero-alloc
/// in-place fast path on a `len`-byte payload and checks byte identity.
fn bench_aead(len: usize, reps: usize) -> AeadRow {
    let key = Key::from_bytes([0x42; 32]);
    let nonce = Nonce::from_counter(7, 1);
    let aad = [0x17u8; 13];
    let plaintext = fill(len as u64 + 3, len);

    let (reference_seal_ns, reference) = time_ns(reps, || {
        aead::seal_reference(&key, &nonce, &plaintext, &aad)
    });
    let (reference_open_ns, reopened) = time_ns(reps, || {
        aead::open_reference(&key, &nonce, &reference, &aad)
    });

    let ctx = AeadCtx::new(key);
    let mut buf = plaintext.clone();
    let (seal_ns, tag) = time_ns(reps, || {
        buf.copy_from_slice(&plaintext);
        ctx.seal_in_place_detached(&nonce, &mut buf, &aad)
    });
    let sealed = buf.clone();
    let (open_ns, opened) = time_ns(reps, || {
        buf.copy_from_slice(&sealed);
        ctx.open_in_place_detached(&nonce, &mut buf, &tag, &aad)
    });

    let identical = sealed == reference[..len]
        && tag == reference[len..]
        && opened.is_ok()
        && buf == plaintext
        && reopened.as_deref() == Ok(&plaintext[..]);
    AeadRow {
        len,
        reference_seal_ns,
        seal_ns,
        reference_open_ns,
        open_ns,
        identical,
    }
}

/// One network-shield-sized record (8-byte sequence number as AAD, as
/// `shield::net` seals it): median in-place seal and open nanoseconds of
/// 10 000 calls each. An open undoes a seal, so it is timed as the second
/// half of a seal-open pair.
fn bench_short_record(len: usize) -> (u64, u64) {
    let ctx = AeadCtx::new(Key::from_bytes([0x42; 32]));
    let nonce = Nonce::from_counter(1, 9);
    let aad = 9u64.to_le_bytes();
    let mut buf = fill(len as u64 + 5, len);
    let seal_ns = median_ns(10_000, 1, || {
        ctx.seal_in_place_detached(&nonce, &mut buf, &aad)
    });
    let pair_ns = median_ns(10_000, 1, || {
        let tag = ctx.seal_in_place_detached(&nonce, &mut buf, &aad);
        ctx.open_in_place_detached(&nonce, &mut buf, &tag, &aad)
    });
    (seal_ns, pair_ns.saturating_sub(seal_ns))
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
    let (write_ns, _) = time_ns(reps, || {
        shield.write("/model/weights.bin", data).expect("write")
    });
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
    FsRow {
        write_ns,
        read_ns,
        image,
    }
}

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(2);
    let reps = 5;

    header(
        &format!(
            "Crypto data plane: reference vs fast AEAD, wall clock (chacha20 {}, poly1305 {})",
            chacha20::backend(),
            poly1305::backend()
        ),
        &[
            "op             ",
            "reference ",
            "fast      ",
            "speedup",
            "bit-identical",
        ],
    );

    let rows = [1024, 4 * 1024, 64 * 1024, 1024 * 1024].map(|len| bench_aead(len, reps));

    let mut report = BenchReport::new("crypto")
        .unit("wall_ns")
        .mode(&format!("wall_clock/{workers}w"))
        .paper_target("secureTF: shield crypto off the critical path of file and network I/O")
        .value(
            "chacha20.backend",
            JsonValue::Str(chacha20::backend().into()),
        )
        .value(
            "poly1305.backend",
            JsonValue::Str(poly1305::backend().into()),
        );
    let mut all_identical = true;
    for row in &rows {
        all_identical &= row.identical;
        for (op, reference_ns, fast_ns) in [
            ("seal", row.reference_seal_ns, row.seal_ns),
            ("open", row.reference_open_ns, row.open_ns),
        ] {
            println!(
                "{:<16} | {:>10} | {:>10} | {:>7} | {}",
                format!("{op} {}", fmt_len(row.len)),
                fmt_ns(reference_ns),
                fmt_ns(fast_ns),
                fmt_ratio(reference_ns, fast_ns),
                row.identical
            );
            let key = format!("{op}_{}", row.len);
            report = report
                .latency_ns(&format!("{key}.reference_ns"), reference_ns)
                .latency_ns(&format!("{key}.fast_ns"), fast_ns)
                .ratio(
                    &format!("{key}.speedup"),
                    reference_ns as f64 / fast_ns.max(1) as f64,
                );
        }
    }

    println!();
    header(
        "Short records (in place, 8-byte AAD): median of 10 000",
        &["record ", "seal      ", "open      "],
    );
    for len in [13, 64, 280] {
        let (seal_ns, open_ns) = bench_short_record(len);
        println!(
            "{:<7} | {:>10} | {:>10}",
            fmt_len(len),
            fmt_ns(seal_ns),
            fmt_ns(open_ns)
        );
        report = report
            .latency_ns(&format!("record_{len}.seal_ns"), seal_ns)
            .latency_ns(&format!("record_{len}.open_ns"), open_ns);
    }

    // The two primitives on their own at the shield's chunk size.
    let mut chunk = fill(21, 64 * 1024);
    let (chacha_ns, _) = time_ns(reps * 4, || {
        ChaCha20::new(&[0x42; 32], &[7; 12], 1).apply_keystream(std::hint::black_box(&mut chunk))
    });
    let (poly_ns, _) = time_ns(reps * 4, || {
        poly1305::poly1305(&[0x42; 32], std::hint::black_box(&chunk))
    });
    println!();
    for (name, ns) in [("chacha20", chacha_ns), ("poly1305", poly_ns)] {
        println!(
            "{name} 64 KiB: {} ({:.0} MiB/s)",
            fmt_ns(ns),
            mib_s(chunk.len(), ns)
        );
        report = report
            .latency_ns(&format!("{name}_65536.ns"), ns)
            .ratio(&format!("{name}_65536.mib_s"), mib_s(chunk.len(), ns));
    }

    // Where the four-way Poly1305 body overtakes the portable one: the
    // first length from which it stays ahead at every longer one.
    println!();
    header(
        &format!(
            "Poly1305 crossover: portable vs four-way ({})",
            poly1305::backend()
        ),
        &["message", "portable  ", "four-way  "],
    );
    let mut crossover = None;
    for len in (64..=512).step_by(64) {
        let message = fill(len as u64, len);
        let key = [0x42u8; 32];
        let portable_ns = median_ns(2_000, 8, || poly1305::poly1305_portable(&key, &message));
        let four_way_ns = median_ns(2_000, 8, || poly1305::poly1305_four_way(&key, &message));
        all_identical &= poly1305::poly1305_portable(&key, &message)
            == poly1305::poly1305_four_way(&key, &message);
        println!(
            "{:<7} | {:>10} | {:>10}",
            fmt_len(len),
            fmt_ns(portable_ns),
            fmt_ns(four_way_ns)
        );
        if four_way_ns < portable_ns {
            crossover.get_or_insert(len);
        } else {
            crossover = None;
        }
        report = report
            .latency_ns(&format!("poly1305_{len}.portable_ns"), portable_ns)
            .latency_ns(&format!("poly1305_{len}.four_way_ns"), four_way_ns);
    }
    match crossover {
        Some(len) => println!("four-way ahead from {len} B on"),
        None => println!("four-way not ahead by 512 B"),
    }
    report = report.value(
        "poly1305.crossover_bytes",
        crossover.map_or(JsonValue::Null, |len| JsonValue::U64(len as u64)),
    );

    println!();
    header(
        &format!("SHA-256: portable vs dispatched ({})", sha256::backend()),
        &[
            "message        ",
            "portable  ",
            "dispatched",
            "speedup",
            "bit-identical",
        ],
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
        let chunk = rows
            .iter()
            .find(|r| r.len == 64 * 1024)
            .expect("64 KiB row");
        let speedup = chunk.reference_seal_ns as f64 / chunk.seal_ns.max(1) as f64;
        let bar = if poly1305::backend() == "avx2" {
            3.5
        } else {
            2.0
        };
        assert!(
            speedup >= bar,
            "single-thread fast seal at 64 KiB is only {speedup:.2}x the reference (need >= {bar}x)"
        );
        if sha256::backend() == "sha-ni" {
            let chunk = sha_rows
                .iter()
                .find(|r| r.len == 64 * 1024)
                .expect("64 KiB row");
            let speedup = chunk.portable_ns as f64 / chunk.dispatched_ns.max(1) as f64;
            assert!(
                speedup >= 3.0,
                "SHA-NI SHA-256 at 64 KiB is only {speedup:.2}x the portable body (need >= 3x)"
            );
        }
    }
    report.emit(&securetf_bench::report::dir_from_env());
}
