//! The run loop shared by every workload.
//!
//! A run is a sequence of *epochs*, each in a fresh child process (this
//! binary started again with `--epoch`), so that every epoch first
//! touches its memory like a new deployment does and has its own peak
//! RSS. An epoch builds the whole system from nothing (that is
//! `setup_s`), runs a fixed warm-up and a fixed number of timed ops in a
//! closed loop, checks every output and tears the system down. Op counts
//! per epoch are fixed so counts, virtual time and peak memory repeat
//! exactly; the run keeps starting epochs until `--seconds` of timed
//! work has been measured. Every epoch of a run gets the same
//! seed-derived inputs, so epochs are repetitions: their output
//! fingerprints and virtual times must be bit-equal. `setup_s` and
//! `peak_rss_mib` are medians over the epochs; throughput and the latency
//! percentiles are those of the least disturbed epoch (`least_of`).

use crate::json::{self, Json};
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Epochs an untraced run measures at least, so a median exists.
const MIN_EPOCHS: usize = 3;
/// No new epoch starts once a run has lasted this long.
const MAX_RUN_S: f64 = 100.0;

/// What the command line selected.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Timed seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Op counts divided by 100 and a single epoch (`seconds` is 0).
    pub smoke: bool,
    /// `--threads`: workers in the stack's `WorkerPool`, overriding the
    /// workload's own choice ([`Cfg::threads`]).
    pub threads: Option<usize>,
    /// `--prime-mib`, set by the parent on an epoch: what the previous
    /// epoch's resident memory peaked at ([`prime_host_memory`]).
    pub prime_mib: f64,
}

impl Cfg {
    /// Workers in the stack's `WorkerPool`: two (the cores of the
    /// reference machine) everywhere but `serve_small`, which runs its
    /// kernels on the calling thread. The pool starts a thread per kernel
    /// call, 20 to 70 us each on the reference machine depending on how
    /// long the host has been busy; on `serve_small` that was three
    /// quarters of a round and made it bimodal, hiding the per-request
    /// costs the workload exists to show. `serve_large` keeps the pool
    /// and so still shows what dispatch costs a small-m GEMM.
    pub fn threads(&self) -> usize {
        self.threads
            .unwrap_or(if self.workload == "serve_small" { 1 } else { 2 })
    }

    /// Scales a full-size op count for `--smoke`, keeping at least `min`.
    pub fn ops(&self, full: usize, min: usize) -> usize {
        if self.smoke {
            (full / 100).max(min)
        } else {
            full
        }
    }
}

/// Per-layer values a traced epoch fills in, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one epoch measured.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Epoch start to first timed op, warm-up included.
    pub setup_s: f64,
    /// Wall time of the timed ops.
    pub timed_s: f64,
    /// Wall latency of every timed op.
    pub latencies_ns: Vec<u64>,
    /// Ops that failed, were refused or were answered wrong.
    pub failed: u64,
    /// Modelled enclave time the timed ops took.
    pub virtual_ns: u64,
    /// Digest of every output; equal across epochs of a run.
    pub fingerprint: u64,
}

/// A workload: inputs prepared from the seed, then one epoch run.
pub trait Workload {
    /// Runs one epoch. When `layers` is given the epoch runs with
    /// telemetry and spans on, and fills in its per-layer metrics.
    fn epoch(&mut self, tracer: &mut Tracer, layers: Option<&mut Layers>) -> Epoch;
}

/// 64-bit FNV-1a, folded over output values to fingerprint an epoch.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds in one value.
    pub fn add(&mut self, v: u64) {
        self.add_bytes(&v.to_le_bytes());
    }

    /// Folds in a byte string.
    pub fn add_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A field of `/proc/self/status` in KiB (`VmHWM`, `VmRSS`).
pub fn proc_status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Mean wall nanoseconds of `f`, called at least `min_iters` times and
/// for at least `min_ms` milliseconds.
pub fn time_ns(min_iters: u32, min_ms: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        f();
        iters += 1;
        if iters >= min_iters && start.elapsed().as_millis() as u64 >= min_ms {
            return start.elapsed().as_nanos() as f64 / f64::from(iters);
        }
    }
}

/// Median wall nanoseconds of `iters` separately timed calls of `f`: for
/// millisecond-scale replays, where a page-fault stall in one call
/// should not move the figure.
pub fn median_call_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The outcome of a run, ready to print.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// No op failed and every epoch agreed with the first.
    pub correct: bool,
    /// Timed ops over all epochs.
    pub attempted: u64,
    /// Failed ops over all epochs.
    pub failed: u64,
    /// `(name, value)` of every reported metric.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// The result line the driver reads.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = unit_of(name).expect("metric is in the tables");
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// The child side: runs one epoch of `workload` in this process and
/// prints what it measured as one JSON line. A traced epoch also prints
/// its per-layer span table and writes its spans next to the build.
pub fn run_epoch(cfg: &Cfg, workload: &mut dyn Workload) {
    let mut tracer = Tracer::new(cfg.trace);
    let mut layers = Layers::new();
    let epoch = workload.epoch(&mut tracer, cfg.trace.then_some(&mut layers));
    let peak_rss_mib = proc_status_kib("VmHWM") / 1024.0;
    let ops = epoch.latencies_ns.len();
    let mut sorted = epoch.latencies_ns;
    sorted.sort_unstable();
    if cfg.trace {
        let gap = tracer.self_time_gap();
        assert!(gap < 0.01, "self times miss their op span by {gap}");
        for name in layers.keys() {
            assert!(
                unit_of(name).is_some(),
                "{name} is not in the metric tables"
            );
        }
        layers.insert("harness.threads", cfg.threads() as f64);
        layers.insert("harness.ops", ops as f64);
        layers.insert(
            "tee.virtual_ns_per_op",
            epoch.virtual_ns as f64 / ops as f64,
        );
        print_layer_table(&cfg.workload, &tracer, ops);
        write_trace(&cfg.workload, &tracer);
    }
    let report = Json::Obj(vec![
        ("setup_s".into(), Json::Num(epoch.setup_s)),
        ("timed_s".into(), Json::Num(epoch.timed_s)),
        ("ops".into(), Json::Num(ops as f64)),
        ("failed".into(), Json::Num(epoch.failed as f64)),
        (
            "p50_ms".into(),
            Json::Num(percentile(&sorted, 50) as f64 / 1e6),
        ),
        (
            "p95_ms".into(),
            Json::Num(percentile(&sorted, 95) as f64 / 1e6),
        ),
        ("peak_rss_mib".into(), Json::Num(peak_rss_mib)),
        // Hex strings: a JSON number cannot hold every u64.
        (
            "virtual_ns".into(),
            Json::Str(format!("{:x}", epoch.virtual_ns)),
        ),
        (
            "fingerprint".into(),
            Json::Str(format!("{:x}", epoch.fingerprint)),
        ),
        (
            "layers".into(),
            Json::Obj(
                layers
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", report.render());
}

/// What the parent keeps of one child epoch.
#[derive(Debug, Clone)]
struct EpochReport {
    json: Json,
    /// `(virtual_ns, fingerprint)`: must repeat across epochs.
    identity: (String, String),
}

impl EpochReport {
    fn num(&self, key: &str) -> f64 {
        self.json
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }
}

/// Starts one epoch in a child process, waits for it, passes its table
/// lines through and parses its report line.
fn spawn_epoch(cfg: &Cfg, oracle: Option<&str>, traced: bool) -> Result<EpochReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--epoch", "--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--threads", &cfg.threads().to_string()])
        .args(["--prime-mib", &cfg.prime_mib.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if let Some(oracle) = oracle {
        cmd.args(["--oracle", oracle]);
    }
    // `output` waits for the child to end before it returns.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start an epoch: {e}"))?;
    if !out.status.success() {
        return Err(format!("epoch ended with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or("epoch printed nothing")?;
    for line in lines {
        println!("{line}");
    }
    let json = json::parse(last)?;
    let text_of = |key: &str| {
        json.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("epoch report lacks {key}"))
    };
    let identity = (text_of("virtual_ns")?, text_of("fingerprint")?);
    let report = EpochReport { json, identity };
    eprintln!(
        "  epoch{}: setup {:.3} s, timed {:.3} s, p50 {:.4} ms, p95 {:.4} ms, rss {:.1} MiB",
        if traced { " (traced)" } else { "" },
        report.num("setup_s"),
        report.num("timed_s"),
        report.num("p50_ms"),
        report.num("p95_ms"),
        report.num("peak_rss_mib"),
    );
    Ok(report)
}

/// Touches and releases memory so that this process's resident set plus
/// what it released comes to `target_mib`. On a VM whose hypervisor takes
/// back free guest memory within a second or two (free page reporting),
/// the first touch of such memory costs two to five times a first touch
/// of memory the hypervisor still backs, and the factor drifts with the
/// host's state. The parent primes before it starts an epoch (for the
/// set-up) and the epoch primes again between its warm-up and its timed
/// loop, outside both `setup_s` and the timed seconds, with what the
/// previous epoch peaked at. The guest's own page-fault cost stays in the
/// measurement; most of the hypervisor's goes.
pub fn prime_host_memory(target_mib: f64) {
    const PIECE: usize = 64 << 20;
    // Stay a little under the target, so that priming never sets the
    // epoch's own peak RSS.
    let mib = 0.95 * target_mib - proc_status_kib("VmRSS") / 1024.0;
    if mib < 64.0 {
        return;
    }
    let pieces = (mib * 1024.0 * 1024.0 / PIECE as f64) as usize;
    let mut held: Vec<Vec<u8>> = Vec::with_capacity(pieces);
    for _ in 0..pieces {
        let mut piece = vec![0u8; PIECE];
        for page in piece.chunks_mut(4096) {
            page[0] = 1;
        }
        held.push(std::hint::black_box(piece));
    }
}

fn median_of(epochs: &[EpochReport], key: &str) -> f64 {
    median(&epochs.iter().map(|e| e.num(key)).collect::<Vec<_>>())
}

/// The value of the least disturbed epoch. The timed loop's metrics are
/// taken from it, not from the median epoch: what disturbs an epoch on a
/// shared host (hypervisor page-fault stalls, a busy neighbour) only ever
/// adds time, came and went over tens of minutes on the reference
/// machine, and at its worst slowed more than half the epochs of a run,
/// which moves a median by 25 % and a p95 by 100 % but the least
/// disturbed epoch by under 10 %.
fn least_of(epochs: &[EpochReport], key: &str) -> f64 {
    epochs
        .iter()
        .map(|e| e.num(key))
        .fold(f64::INFINITY, f64::min)
}

/// The parent side: starts epochs as `cfg` asks and returns what to
/// print. `oracle` is handed to every child (reference outputs computed
/// once, here, so that no child pays for them in time or memory).
///
/// # Errors
///
/// Returns a message if a child cannot be started, fails or prints a
/// malformed report.
pub fn run(cfg: &Cfg, oracle: Option<&str>) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut plain: Vec<EpochReport> = Vec::new();
    let mut traced: Vec<EpochReport> = Vec::new();
    let mut peak_mib = 0.0f64;
    let mut spawn_epoch = |traced: bool| {
        prime_host_memory(peak_mib);
        let cfg = Cfg {
            prime_mib: peak_mib,
            ..cfg.clone()
        };
        let report = spawn_epoch(&cfg, oracle, traced)?;
        peak_mib = peak_mib.max(report.num("peak_rss_mib"));
        Ok::<_, String>(report)
    };
    if cfg.trace {
        // Untraced and traced epochs alternate, so the tracing overhead
        // is the ratio of two medians taken under the same conditions.
        // Replays make a traced epoch cost more than its timed seconds,
        // so the budget here is the wall time of the whole run.
        while traced.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
            plain.push(spawn_epoch(false)?);
            traced.push(spawn_epoch(true)?);
        }
    } else {
        let min_epochs = if cfg.smoke { 1 } else { MIN_EPOCHS };
        while plain.len() < min_epochs
            || (plain.iter().map(|e| e.num("timed_s")).sum::<f64>() < cfg.seconds
                && started.elapsed().as_secs_f64() < MAX_RUN_S)
        {
            plain.push(spawn_epoch(false)?);
        }
    }

    let all = || plain.iter().chain(&traced);
    let attempted = all().map(|e| e.num("ops")).sum::<f64>() as u64;
    let failed = all().map(|e| e.num("failed")).sum::<f64>() as u64;
    // Same inputs in every epoch, and telemetry must not move virtual
    // time or outputs: all epochs, traced or not, have to agree.
    let consistent = all().all(|e| e.identity == plain[0].identity);
    if !consistent {
        for (i, e) in all().enumerate() {
            eprintln!("epoch {i}: virtual ns and fingerprint {:?}", e.identity);
        }
    }
    eprintln!(
        "{}: {} epochs x {} ops in {:.1} s",
        cfg.workload,
        all().count(),
        plain[0].num("ops"),
        started.elapsed().as_secs_f64()
    );

    let metrics = if let Some(last) = traced.last() {
        let overhead = least_of(&traced, "timed_s") / least_of(&plain, "timed_s");
        PER_LAYER
            .iter()
            .map(|m| {
                let value = match m.name {
                    "harness.trace_overhead_ratio" => overhead,
                    name => last
                        .json
                        .get("layers")
                        .and_then(|l| l.get(name))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                };
                (m.name, value)
            })
            .collect()
    } else {
        let values = [
            median_of(&plain, "setup_s"),
            plain[0].num("ops") / least_of(&plain, "timed_s"),
            least_of(&plain, "p50_ms"),
            least_of(&plain, "p95_ms"),
            median_of(&plain, "peak_rss_mib"),
        ];
        END_TO_END.iter().map(|m| m.name).zip(values).collect()
    };
    Ok(RunResult {
        correct: failed == 0 && consistent,
        attempted,
        failed,
        metrics,
    })
}

/// Prints count, busy time, self time and share of the op per span name.
fn print_layer_table(workload: &str, tracer: &Tracer, ops: usize) {
    let by_name = tracer.by_name();
    let op_ns: u64 = by_name.get("op").map_or(1, |l| l.busy_ns.max(1));
    println!("per-layer spans, {workload}, {ops} ops:");
    println!(
        "{:<34} {:>9} {:>12} {:>12} {:>8}",
        "span", "count", "busy ms", "self ms", "of op"
    );
    for (name, l) in &by_name {
        let share = if name.starts_with("setup") || *name == "teardown" {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * l.self_ns as f64 / op_ns as f64)
        };
        println!(
            "{:<34} {:>9} {:>12.3} {:>12.3} {:>8}",
            name,
            l.count,
            l.busy_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            share
        );
    }
}

/// Writes the spans next to the build output, `<target>/e2e-trace/`.
fn write_trace(workload: &str, tracer: &Tracer) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("e2e-trace")))
    else {
        return;
    };
    let path = dir.join(format!("trace_{workload}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => println!(
            "{} of {} spans written to {}",
            tracer.spans().len().min(crate::spans::MAX_WRITTEN),
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
