//! `store_write` and `store_read`: the file-system shield alone.
//!
//! `store_write` only writes: seven ops in eight a 4 KiB file over 512
//! rotating paths, one in eight a 1 MiB checkpoint over 8 rotating paths
//! (so the store stays bounded). p50 is the small-file journal cost, p95
//! the 1 MiB seal path.
//!
//! `store_read` only reads the eight 1 MiB files: seven ops in eight a
//! `read_range` of 3136 bytes (one MNIST image), 90 % of them inside a
//! hot 512 KiB window and 10 % anywhere in the 8 MiB set (the chunk
//! cache holds 16 x 64 KiB = 1 MiB); one op in eight a full 1 MiB
//! `read`. The epoch ends with one `FsShield::recover` remount.

use crate::harness::{prime_host_memory, Cfg, Epoch, Fingerprint, Layers, Workload};
use crate::probes;
use crate::spans::Tracer;
use crate::stats::percentile;
use rand::{Rng, RngCore, SeedableRng};
use securetf_shield::fs::{FsShield, UntrustedStore, CHUNK_SIZE};
use securetf_tee::{EnclaveImage, ExecutionMode, Platform, SimClock, Telemetry};
use securetf_tensor::kernels::WorkerPool;
use std::time::Instant;

const SMALL: usize = 4096;
const LARGE: usize = 1024 * 1024;
const SMALL_PATHS: usize = 512;
const LARGE_PATHS: usize = 8;
const RANGE: usize = 3136;
const HOT_WINDOW: usize = 512 * 1024;

/// One planned op. Offsets index the seed-derived source buffer for
/// writes and the file for range reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    WriteSmall { path: usize, source: usize },
    WriteLarge { path: usize, source: usize },
    ReadRange { file: usize, offset: usize },
    ReadFull { file: usize },
}

/// The storage workloads.
pub struct Store {
    read: bool,
    threads: usize,
    prime_mib: f64,
    warm_ops: usize,
    /// Random bytes every payload is a window of.
    source: Vec<u8>,
    plan: Vec<Op>,
}

fn small_path(i: usize) -> String {
    format!("/data/small/{i:03}")
}

fn large_path(i: usize) -> String {
    format!("/data/large/{i}")
}

impl Store {
    /// Generates the source bytes and the op plan from `cfg.seed`.
    pub fn prepare(cfg: &Cfg, read: bool) -> Store {
        let timed = cfg.ops(if read { 1600 } else { 2400 }, 16);
        let warm_ops = (timed / 20).max(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let mut source = vec![0u8; 2 * LARGE];
        rng.fill_bytes(&mut source);
        let (mut small_seq, mut large_seq) = (0usize, 0usize);
        let plan = (0..warm_ops + timed)
            .map(|i| match (read, i % 8 == 7) {
                (false, false) => {
                    small_seq += 1;
                    Op::WriteSmall {
                        path: small_seq % SMALL_PATHS,
                        source: rng.gen_range(0..source.len() - SMALL),
                    }
                }
                (false, true) => {
                    large_seq += 1;
                    Op::WriteLarge {
                        path: large_seq % LARGE_PATHS,
                        source: rng.gen_range(0..source.len() - LARGE),
                    }
                }
                (true, false) => {
                    if rng.gen_range(0..10u32) < 9 {
                        Op::ReadRange {
                            file: 0,
                            offset: rng.gen_range(0..HOT_WINDOW - RANGE),
                        }
                    } else {
                        Op::ReadRange {
                            file: rng.gen_range(0..LARGE_PATHS),
                            offset: rng.gen_range(0..LARGE - RANGE),
                        }
                    }
                }
                (true, true) => Op::ReadFull {
                    file: rng.gen_range(0..LARGE_PATHS),
                },
            })
            .collect();
        Store {
            read,
            threads: cfg.threads(),
            prime_mib: cfg.prime_mib,
            warm_ops,
            source,
            plan,
        }
    }

    /// Where in the source the read set's file `j` comes from.
    fn file_source(j: usize) -> usize {
        j * 128 * 1024
    }
}

impl Workload for Store {
    fn epoch(&mut self, tracer: &mut Tracer, layers: Option<&mut Layers>) -> Epoch {
        let traced = layers.is_some();
        let t_setup = Instant::now();
        tracer.set_op(0);
        tracer.enter("setup");
        let clock = SimClock::new();
        let telemetry = if traced {
            clock.telemetry()
        } else {
            Telemetry::disabled()
        };
        let enclave = Platform::builder()
            .clock(clock.clone())
            .telemetry(telemetry.clone())
            .build()
            .create_enclave(
                &EnclaveImage::builder()
                    .code(b"e2e-store")
                    .name("store")
                    .build(),
                ExecutionMode::Hardware,
            )
            .expect("store enclave");
        let store = UntrustedStore::new();
        let mut fs = FsShield::new(enclave.clone(), store.clone());
        fs.set_worker_pool(WorkerPool::new(self.threads));
        if self.read {
            tracer.enter("setup.shield.fs.populate");
            for j in 0..LARGE_PATHS {
                let from = Self::file_source(j);
                fs.write(&large_path(j), &self.source[from..from + LARGE])
                    .expect("populate");
            }
            tracer.exit();
        }

        // Source window last written to each path; what a later read of
        // the path has to return.
        let mut written: Vec<Option<(usize, usize)>> = vec![None; SMALL_PATHS + LARGE_PATHS];
        let mut fingerprint = Fingerprint::default();
        let source = &self.source;
        let mut run = |op: Op, fs: &mut FsShield, tracer: &mut Tracer| -> bool {
            match op {
                Op::WriteSmall { path, source: from } => {
                    tracer.enter("shield.fs.write_small");
                    let ok = fs
                        .write(&small_path(path), &source[from..from + SMALL])
                        .is_ok();
                    tracer.exit();
                    written[path] = Some((from, SMALL));
                    ok
                }
                Op::WriteLarge { path, source: from } => {
                    tracer.enter("shield.fs.write_large");
                    let ok = fs
                        .write(&large_path(path), &source[from..from + LARGE])
                        .is_ok();
                    tracer.exit();
                    written[SMALL_PATHS + path] = Some((from, LARGE));
                    ok
                }
                Op::ReadRange { file, offset } => {
                    tracer.enter("shield.fs.read_range");
                    let got = fs.read_range(&large_path(file), offset as u64, RANGE as u64);
                    tracer.exit();
                    let from = Self::file_source(file) + offset;
                    got.is_ok_and(|bytes| bytes == source[from..from + RANGE])
                }
                Op::ReadFull { file } => {
                    tracer.enter("shield.fs.read");
                    let got = fs.read(&large_path(file));
                    tracer.exit();
                    let from = Self::file_source(file);
                    got.is_ok_and(|bytes| bytes == source[from..from + LARGE])
                }
            }
        };

        let mut failed = 0u64;
        tracer.enter("setup.warmup");
        tracer.pause(true);
        for &op in &self.plan[..self.warm_ops] {
            if !run(op, &mut fs, tracer) {
                failed += 1;
            }
        }
        tracer.pause(false);
        tracer.exit();
        tracer.exit();
        let setup_s = t_setup.elapsed().as_secs_f64();
        prime_host_memory(self.prime_mib);

        let before = telemetry.metrics();
        let host_ops_before = store.op_count();
        let v0 = clock.now_ns();
        let timed = &self.plan[self.warm_ops..];
        let mut latencies = Vec::with_capacity(timed.len());
        let t0 = Instant::now();
        for (i, &op) in timed.iter().enumerate() {
            tracer.set_op(i as u32);
            tracer.enter("op");
            let t = Instant::now();
            if !run(op, &mut fs, tracer) {
                failed += 1;
            }
            latencies.push(t.elapsed().as_nanos() as u64);
            tracer.exit();
        }
        let timed_s = t0.elapsed().as_secs_f64();
        let virtual_ns = clock.now_ns() - v0;
        let after = telemetry.metrics();
        let host_ops = store.op_count() - host_ops_before;

        // Every path written must read back as its last write; the read
        // workload instead remounts and reads through the recovered
        // shield. Both fold what they read into the fingerprint.
        let mut recover_ms = 0.0;
        if self.read {
            drop(fs);
            let t = Instant::now();
            match FsShield::recover(enclave, store.clone()) {
                Ok((recovered, report)) => {
                    recover_ms = t.elapsed().as_secs_f64() * 1e3;
                    fingerprint.add(report.files as u64);
                    fingerprint.add(report.generation);
                    for j in 0..LARGE_PATHS {
                        let from = Self::file_source(j);
                        match recovered.read_range(&large_path(j), 0, RANGE as u64) {
                            Ok(bytes) if bytes == source[from..from + RANGE] => {
                                fingerprint.add_bytes(&bytes);
                            }
                            _ => failed += 1,
                        }
                    }
                }
                Err(_) => failed += 1,
            }
        } else {
            for (i, window) in written.iter().enumerate() {
                let Some((from, len)) = *window else { continue };
                let path = if i < SMALL_PATHS {
                    small_path(i)
                } else {
                    large_path(i - SMALL_PATHS)
                };
                match fs.read(&path) {
                    Ok(bytes) if bytes == source[from..from + len] => {
                        fingerprint.add(i as u64);
                        fingerprint.add_bytes(&bytes[..64]);
                    }
                    _ => failed += 1,
                }
            }
            drop(fs);
        }
        fingerprint.add(host_ops);

        if let Some(layers) = layers {
            let ops = latencies.len() as f64;
            let p50_of = |kind: fn(&Op) -> bool| {
                let mut v: Vec<u64> = timed
                    .iter()
                    .zip(&latencies)
                    .filter(|(op, _)| kind(op))
                    .map(|(_, &ns)| ns)
                    .collect();
                v.sort_unstable();
                if v.is_empty() {
                    0.0
                } else {
                    percentile(&v, 50) as f64
                }
            };
            layers.insert(
                "shield.fs.write_small_us_p50",
                p50_of(|op| matches!(op, Op::WriteSmall { .. })) / 1e3,
            );
            layers.insert(
                "shield.fs.write_large_ms_p50",
                p50_of(|op| matches!(op, Op::WriteLarge { .. })) / 1e6,
            );
            layers.insert(
                "shield.fs.read_range_us_p50",
                p50_of(|op| matches!(op, Op::ReadRange { .. })) / 1e3,
            );
            layers.insert(
                "shield.fs.read_ms_p50",
                p50_of(|op| matches!(op, Op::ReadFull { .. })) / 1e6,
            );
            layers.insert("shield.fs.recover_ms", recover_ms);
            let count = |name: &str| probes::counter_delta(&before, &after, name);
            let writes = count("shield.fs.writes");
            if writes > 0.0 {
                layers.insert("shield.fs.host_ops_per_write", host_ops as f64 / writes);
                layers.insert(
                    "shield.fs.journal_commits_per_write",
                    count("shield.fs.journal_commits") / writes,
                );
            }
            let lookups =
                count("shield.fs.chunk_cache_hits") + count("shield.fs.chunk_cache_misses");
            if lookups > 0.0 {
                layers.insert(
                    "shield.fs.chunk_cache_hit_ratio",
                    count("shield.fs.chunk_cache_hits") / lookups,
                );
            }
            layers.insert(
                "shield.fs.aborted_writes",
                count("shield.fs.aborted_writes"),
            );
            layers.insert(
                "shield.fs.tamper_rejections",
                count("shield.fs.tamper_rejections"),
            );
            probes::tee_counts(layers, &before, &after, ops);
            // The shield seals and opens per chunk: a 4 KiB file is one
            // short chunk, a 1 MiB file sixteen full ones.
            probes::crypto(
                layers,
                if self.read {
                    &[CHUNK_SIZE]
                } else {
                    &[SMALL, CHUNK_SIZE]
                },
            );
            probes::instruments(layers);
        }

        Epoch {
            setup_s,
            timed_s,
            latencies_ns: latencies,
            failed,
            virtual_ns,
            fingerprint: fingerprint.value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workload: &str, seed: u64) -> Cfg {
        Cfg {
            workload: workload.into(),
            seed,
            ..Cfg::default()
        }
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for read in [false, true] {
            let name = if read { "store_read" } else { "store_write" };
            let a = Store::prepare(&cfg(name, 9), read);
            let b = Store::prepare(&cfg(name, 9), read);
            let c = Store::prepare(&cfg(name, 10), read);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.source, b.source);
            assert_ne!(a.plan, c.plan);
            assert_ne!(a.source, c.source);
        }
    }

    #[test]
    fn plans_have_the_stated_mix() {
        let w = Store::prepare(&cfg("store_write", 1), false);
        let large = w
            .plan
            .iter()
            .filter(|op| matches!(op, Op::WriteLarge { .. }))
            .count();
        assert_eq!(large * 8, w.plan.len());
        let r = Store::prepare(&cfg("store_read", 1), true);
        let ranges: Vec<_> = r
            .plan
            .iter()
            .filter_map(|op| match op {
                Op::ReadRange { file, offset } => Some((*file, *offset)),
                _ => None,
            })
            .collect();
        assert_eq!(ranges.len() * 8, r.plan.len() * 7);
        let hot = ranges
            .iter()
            .filter(|(f, o)| *f == 0 && *o < HOT_WINDOW)
            .count();
        let share = hot as f64 / ranges.len() as f64;
        assert!((0.88..0.95).contains(&share), "hot share {share}");
    }
}
