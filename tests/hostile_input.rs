//! One hostile-input harness for every decoder of host-supplied bytes.
//!
//! A table of `(format, valid sample, decoder)` rows, one per byte format
//! (`samples/`; DESIGN.md "Byte formats"), driven through the same
//! checks: every strict prefix and every trailing byte is rejected,
//! single-bit flips never panic, inflated length / count / rank / dim
//! fields and overflowing shapes are rejected, and no decode — accepted
//! or rejected — allocates more than a constant times its input. The
//! allocation ceiling is what catches a `with_capacity(n)` taken from a
//! length field before the bytes behind it are known to exist.
//!
//! Runs in debug and in release (CI does both): an unchecked shape
//! product panics in the one and silently wraps in the other.

mod samples;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use samples::{fs_enclave, fs_platform, FS_PATH};
use securetf::serving::{decode_request, decode_response, salvage_request_id};
use securetf_cas::policy::ServicePolicy;
use securetf_crypto::hmac::hmac_sha256;
use securetf_data::Dataset;
use securetf_distrib::wire;
use securetf_shield::fs::{FsShield, UntrustedStore};
use securetf_shield::ShieldError;
use securetf_tee::sealing::SealPolicy;
use securetf_tee::{MrEnclave, Platform};
use securetf_tensor::bytes::{put_shape, Reader};
use securetf_tensor::freeze::{import_graph, restore_checkpoint};
use securetf_tensor::graph::{Graph, Padding};
use securetf_tensor::session::Session;
use securetf_tensor::tensor::Tensor;
use securetf_tflite::interpreter::Interpreter;
use securetf_tflite::model::LiteModel;
use securetf_tflite::optimize::QuantizedModel;
use securetf_tflite::LiteError;

// ---- peak-allocation meter --------------------------------------------------

thread_local! {
    // Per thread, so tests running in parallel do not see each other.
    // `Cell<isize>` has no destructor: the allocator may touch it at any
    // point of a thread's life.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct PeakAlloc;

fn moved(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// around it touches only thread-local integers.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        moved(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        moved(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        moved(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// `f`'s result and the most bytes this thread held above its starting
/// level while `f` ran.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.set(0);
    PEAK.set(0);
    let out = f();
    (out, PEAK.get().max(0) as usize)
}

/// A decode may hold this many bytes per input byte, plus `SLACK`. The
/// largest honest ratio is `import_graph`'s: a 9-byte node becomes a
/// ~100-byte `Node` in a doubling `Vec`.
const BYTES_PER_INPUT_BYTE: usize = 32;
/// Fixed costs: error strings, the fs shield's manifest and path list.
const SLACK: usize = 16 * 1024;

// ---- the table --------------------------------------------------------------

/// Decodes the bytes; `true` = accepted.
type Decode = Box<dyn Fn(&[u8]) -> bool>;

struct Format {
    name: &'static str,
    sample: Vec<u8>,
    /// Runs before every decode, outside the allocation meter: rebuilds
    /// whatever state a decode consumes (a shield with a cold cache).
    prepare: Box<dyn Fn()>,
    decode: Decode,
    /// Offsets of little-endian `u32` length / count / rank / dim fields.
    lengths: Vec<usize>,
    /// Offsets of `rank dims…` shapes ([`Reader::shape`]).
    shapes: Vec<usize>,
    /// Offsets of little-endian `f32` quantization scales: a NaN, an
    /// infinite or a negative one must be rejected.
    scales: Vec<usize>,
    /// Prefixes and bit flips are tried at every `stride`-th byte (and at
    /// every byte of the first 64).
    stride: usize,
    /// Whether every bit flip must be rejected, not only survived.
    flips_rejected: bool,
}

impl Format {
    fn new(name: &'static str, sample: Vec<u8>, decode: impl Fn(&[u8]) -> bool + 'static) -> Self {
        Format {
            name,
            sample,
            prepare: Box::new(|| ()),
            decode: Box::new(decode),
            lengths: Vec::new(),
            shapes: Vec::new(),
            scales: Vec::new(),
            stride: 1,
            flips_rejected: false,
        }
    }

    fn prepare(mut self, prepare: impl Fn() + 'static) -> Self {
        self.prepare = Box::new(prepare);
        self
    }

    fn lengths(mut self, at: &[usize]) -> Self {
        self.lengths = at.to_vec();
        self
    }

    fn shapes(mut self, at: &[usize]) -> Self {
        self.shapes = at.to_vec();
        self
    }

    fn scales(mut self, at: &[usize]) -> Self {
        self.scales = at.to_vec();
        self
    }

    fn stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    fn flips_rejected(mut self, rejected: bool) -> Self {
        self.flips_rejected = rejected;
        self
    }

    /// Decodes `bytes`: must not panic, must stay under the allocation
    /// ceiling. Returns whether the decoder accepted them.
    fn run(&self, bytes: &[u8], what: &dyn Fn() -> String) -> bool {
        (self.prepare)();
        let (outcome, peak) = peak_of(|| catch_unwind(AssertUnwindSafe(|| (self.decode)(bytes))));
        let accepted = outcome.unwrap_or_else(|_| panic!("{}: {} panicked", self.name, what()));
        let ceiling = BYTES_PER_INPUT_BYTE * bytes.len() + SLACK;
        assert!(
            peak <= ceiling,
            "{}: {} held {peak} bytes for {} bytes of input (ceiling {ceiling})",
            self.name,
            what(),
            bytes.len()
        );
        accepted
    }

    fn rejects(&self, bytes: &[u8], what: &dyn Fn() -> String) {
        assert!(
            !self.run(bytes, what),
            "{}: {} was accepted",
            self.name,
            what()
        );
    }

    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.sample.len()).filter(|i| *i < 64 || i % self.stride == 0)
    }

    fn check(&self) {
        assert!(
            self.run(&self.sample, &|| "the valid sample".into()),
            "{}: sample rejected",
            self.name
        );

        for cut in self.positions() {
            self.rejects(&self.sample[..cut], &|| format!("prefix of {cut} bytes"));
        }
        let mut longer = self.sample.clone();
        longer.push(0);
        self.rejects(&longer, &|| "one trailing byte".into());

        let mut flipped = self.sample.clone();
        for at in self.positions() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                let what = || format!("bit {bit} of byte {at} flipped");
                if self.flips_rejected {
                    self.rejects(&flipped, &what);
                } else {
                    self.run(&flipped, &what);
                }
                flipped[at] ^= 1 << bit;
            }
        }

        let field =
            |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        for &at in &self.lengths {
            for value in [field(&self.sample, at) + 1, 100_000, u32::MAX] {
                let mut inflated = self.sample.clone();
                inflated[at..at + 4].copy_from_slice(&value.to_le_bytes());
                self.rejects(&inflated, &|| {
                    format!("length field at {at} set to {value}")
                });
            }
        }
        if !self.lengths.is_empty() {
            let mut inflated = self.sample.clone();
            for &at in &self.lengths {
                inflated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
            self.rejects(&inflated, &|| "every length field set to u32::MAX".into());
        }

        // 256^8 = 2^64 elements: a wrapping product calls that 0.
        let mut overflowing = Vec::new();
        put_shape(&mut overflowing, &[256; 8]);
        for &at in &self.shapes {
            let rank = field(&self.sample, at) as usize;
            let mut spliced = self.sample[..at].to_vec();
            spliced.extend_from_slice(&overflowing);
            spliced.extend_from_slice(&self.sample[at + 4 + 4 * rank..]);
            self.rejects(&spliced, &|| format!("shape at {at} replaced by [256; 8]"));
        }

        for &at in &self.scales {
            for scale in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.0] {
                let mut corrupted = self.sample.clone();
                corrupted[at..at + 4].copy_from_slice(&scale.to_le_bytes());
                self.rejects(&corrupted, &|| format!("scale at {at} set to {scale}"));
            }
        }
    }
}

/// The request decoders agree on the header: whenever tag and id are
/// there, `salvage_request_id` returns that id, whatever follows.
fn request(bytes: &[u8]) -> bool {
    let id = match bytes {
        [b'Q' | b'D', rest @ ..] => rest.first_chunk::<8>().map(|id| u64::from_le_bytes(*id)),
        _ => None,
    };
    assert_eq!(salvage_request_id(bytes), id);
    decode_request(bytes).is_ok()
}

fn codec_formats() -> Vec<Format> {
    let quantized = samples::quantized();
    // STFQ1 | skeleton (len-prefixed) | n_buffers | rank dims(2) scale count …
    let buffers = 9 + Reader::new(&quantized[5..]).u32().unwrap() as usize;
    vec![
        // STFG1 | count | "x" placeholder rank(4) | "v" variable rank(2) count …
        Format::new("graph", samples::graph(), |b| import_graph(b).is_ok())
            .lengths(&[5, 9, 15, 35, 41, 53])
            .shapes(&[15, 41]),
        // STFL1 | in | out | flops | name (len-prefixed) | STFG1 | count | name …
        Format::new("lite model", samples::lite(), |b| {
            LiteModel::from_bytes(b).is_ok()
        })
        .lengths(&[21, 36, 40]),
        Format::new("quantized model", quantized, |b| {
            QuantizedModel::from_bytes(b).is_ok()
        })
        .lengths(&[5, buffers, buffers + 4, buffers + 20])
        .shapes(&[buffers + 4])
        .scales(&[buffers + 16]),
        // height | width | channels | count | …
        Format::new("dataset", samples::dataset(), |b| {
            Dataset::from_bytes(b).is_ok()
        })
        .lengths(&[0, 4, 8, 12]),
        // 'Q' id | rank dims(2) …   and   'D' id deadline | rank dims(3) …
        Format::new("request Q", samples::request_q(), request)
            .lengths(&[9, 13, 17])
            .shapes(&[9]),
        Format::new("request D", samples::request_d(), request)
            .lengths(&[17, 21, 25, 29])
            .shapes(&[17]),
        Format::new("response R", samples::response_r(), |b| {
            decode_response(b).is_ok()
        }),
        // 'E' id | message (len-prefixed)
        Format::new("response E", samples::response_e(), |b| {
            decode_response(b).is_ok()
        })
        .lengths(&[9]),
        Format::new("response U", samples::response_u(), |b| {
            decode_response(b).is_ok()
        }),
        // tag | count | id rank dims(2) n …
        Format::new("dense frame", samples::dense_frame(), |b| {
            wire::decode_frame(b).is_ok()
        })
        .lengths(&[1, 9, 13, 17, 21])
        .shapes(&[9]),
        // tag | count | id rank dims(2) n scale …
        Format::new("quantized frame", samples::quantized_frame(), |b| {
            wire::decode_frame(b).is_ok()
        })
        .lengths(&[1, 9, 13, 17, 21])
        .shapes(&[9])
        .scales(&[25]),
        // STFC1 | count | id rank dims(2) n f32 × 6 | id rank dims(1) n …
        Format::new("checkpoint", samples::checkpoint(), |b| {
            let g = samples::checkpoint_graph();
            restore_checkpoint(&g, &mut Session::new(&g), b).is_ok()
        })
        .lengths(&[5, 13, 17, 21, 25, 57, 61, 65])
        .shapes(&[13, 57]),
        // The one CAS decoder `CasService::with_store` runs on stored
        // bytes (behind the fs shield, so only a CAS build with another
        // encoding reaches it with anything but its own output):
        // name (len-prefixed) | min tcb | count | mr × 1 | count | key | value
        Format::new("service policy", service_policy(), |b| {
            ServicePolicy::decode(b).is_some()
        })
        .lengths(&[0, 11, 47, 51, 56]),
    ]
}

fn service_policy() -> Vec<u8> {
    ServicePolicy::new("svc")
        .min_tcb_svn(2)
        .allow_measurement(MrEnclave([7; 32]))
        .with_secret("k", b"v")
        .encode()
}

#[test]
fn codecs_reject_hostile_bytes_without_panicking_or_overallocating() {
    for format in codec_formats() {
        format.check();
    }
}

// ---- shapes a decoded model declares ------------------------------------------

/// A Lite model's bytes decode to shapes, and those are the host's too: a
/// conv filter with an empty kernel is refused when the model is loaded
/// or planned, and never panics or runs.
#[test]
fn a_lite_conv_with_an_empty_kernel_is_refused_without_panicking() {
    for filter in [[0, 3, 1, 2], [3, 0, 1, 2]] {
        for padding in [Padding::Same, Padding::Valid] {
            let mut g = Graph::new();
            let x = g.placeholder("input", &[0, 4, 4, 1]);
            let f = g.constant("f", Tensor::zeros(&filter));
            let y = g.conv2d(x, f, padding).unwrap();
            let output = g.nodes()[y.index()].name.clone();
            let bytes = LiteModel::convert(&g, "input", &output).unwrap().to_bytes();
            let refused = catch_unwind(AssertUnwindSafe(|| match LiteModel::from_bytes(&bytes) {
                Err(_) => true,
                Ok(model) => Interpreter::new(model)
                    .run(&Tensor::zeros(&[1, 4, 4, 1]))
                    .is_err(),
            }));
            let what = format!("filter {filter:?} under {padding:?}");
            assert!(
                refused.unwrap_or_else(|_| panic!("{what} panicked")),
                "{what} ran"
            );
        }
    }
}

/// The host can point a Lite model's input binding at any node. Bound to
/// a weight or a computed value, a fed batch would stand in for it and
/// need not come back one row per request (a constant `w` answers three
/// rows with one), so the model is refused as it is decoded, and the
/// converter refuses to write one.
#[test]
fn a_lite_model_whose_input_is_not_a_placeholder_is_refused() {
    let mut g = Graph::new();
    let x = g.placeholder("input", &[0, 4]);
    let w = g.constant("w", Tensor::full(&[4, 3], 0.5));
    let y = g.matmul(x, w).unwrap();
    let output = g.nodes()[y.index()].name.clone();
    let bytes = LiteModel::convert(&g, "input", &output).unwrap().to_bytes();
    assert!(LiteModel::from_bytes(&bytes).is_ok());
    // STFL1 | input | output | …
    for (node, kind) in [(w, "const"), (y, "matmul")] {
        let mut hostile = bytes.clone();
        hostile[5..9].copy_from_slice(&(node.index() as u32).to_le_bytes());
        assert_eq!(
            LiteModel::from_bytes(&hostile).unwrap_err(),
            LiteError::InputNotPlaceholder(kind),
        );
    }
    assert_eq!(
        LiteModel::convert(&g, "w", &output).unwrap_err(),
        LiteError::InputNotPlaceholder("const"),
    );
}

// ---- the fs shield's host-visible objects -------------------------------------

/// A shield that has written `plaintext` to `path`, and the store it
/// wrote to.
fn mount(path: &str, plaintext: &[u8]) -> (FsShield, UntrustedStore) {
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(fs_enclave(&fs_platform()), store.clone());
    shield.write(path, plaintext).unwrap();
    (shield, store)
}

/// A stored blob — the bare ciphertext, chunk `i` at `i · CHUNK_SIZE`
/// — as `read` and as `read_range` see it: the host's bytes are
/// replaced, then read back through a shield that wrote the original.
/// The range reaches into the last chunk. With `remount`, every decode
/// gets a new shield and so a cold chunk cache, and every bit flip must
/// be rejected; without, `read_range` opens each chunk once and a later
/// bit flip inside a cached chunk goes unread, which is the cache working
/// as designed (a full read opens every chunk, every time).
fn blob_formats(
    path: &'static str,
    plaintext: Vec<u8>,
    remount: bool,
    stride: usize,
) -> [Format; 2] {
    let plaintext = Rc::new(plaintext);
    let mounted = Rc::new(RefCell::new(mount(path, &plaintext)));
    let blob = mounted.borrow().1.raw_contents(path).unwrap();
    assert_eq!(
        blob.len(),
        plaintext.len(),
        "the blob is the ciphertext alone"
    );
    let tail = plaintext.len().saturating_sub(70_000);
    [
        ("fs blob via read", false),
        ("fs blob via read_range", true),
    ]
    .map(|(name, ranged)| {
        let (on, plain) = (mounted.clone(), plaintext.clone());
        let decode = move |bytes: &[u8]| {
            let (shield, store) = &*on.borrow();
            store.raw_put(path, bytes.to_vec());
            let start = if ranged { tail } else { 0 };
            let got = if ranged {
                shield.read_range(path, start as u64, (plain.len() - start) as u64)
            } else {
                shield.read(path)
            };
            got.is_ok_and(|got| got == plain[start..])
        };
        let (on, plain) = (mounted.clone(), plaintext.clone());
        Format::new(name, blob.clone(), decode)
            .prepare(move || {
                if remount {
                    *on.borrow_mut() = mount(path, &plain);
                }
            })
            .stride(stride)
            .flips_rejected(remount || !ranged)
    })
}

#[test]
fn fs_blobs_reject_hostile_bytes_through_read_and_read_range() {
    // A one-chunk blob small enough to flip every bit of, and a 1 MiB
    // blob (sixteen chunks) sparsely.
    let small = b"a small protected file".to_vec();
    for format in blob_formats("/data/small", small, true, 1) {
        format.check();
    }
    let large: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    for format in blob_formats("/data/large", large, false, 8191) {
        format.check();
    }
}

#[test]
fn read_range_rejects_an_overflowing_range() {
    let (_platform, shield, _store) = samples::fs_image();
    let err = shield.read_range(FS_PATH, u64::MAX, 2).unwrap_err();
    assert!(
        matches!(err, securetf_shield::ShieldError::FileTampered(_)),
        "{err:?}"
    );
}

/// The sealed checkpoint via `recover`: the live slot is replaced and a
/// fresh enclave remounts. Accepted = the remount knows the file.
#[test]
fn fs_manifest_rejects_hostile_bytes_through_recover() {
    let (platform, shield, store) = samples::fs_image();
    drop(shield);
    let slot = store
        .paths()
        .into_iter()
        .find(|p| p.contains("/manifest-"))
        .expect("one manifest slot after one write");
    let sealed = store.raw_contents(&slot).unwrap();
    Format::new("fs manifest", sealed, move |b| {
        store.raw_put(&slot, b.to_vec());
        match FsShield::recover(fs_enclave(&platform), store.clone()) {
            Ok((shield, _)) => shield.version(FS_PATH) == Some(1),
            // The counter says a manifest was published: fail closed.
            Err(_) => false,
        }
    })
    .check();
}

/// The checkpoint plaintext behind the seal: every mutation is resealed
/// as only the enclave could, so the `STFMAN04` decoder — not the seal —
/// must reject it. Accepted = the remount knows the file.
#[test]
fn fs_checkpoint_rejects_hostile_bytes_behind_the_seal() {
    let (platform, shield, store) = samples::fs_image();
    drop(shield);
    let slot = store
        .paths()
        .into_iter()
        .find(|p| p.contains("/manifest-"))
        .expect("one manifest slot after one write");
    let aad = format!("{}/manifest", slot.rsplit_once('/').unwrap().0);
    let enclave = fs_enclave(&platform);
    let sealed = store.raw_contents(&slot).unwrap();
    let plain = enclave
        .unseal(SealPolicy::Measurement, &sealed, aad.as_bytes())
        .unwrap();
    Format::new("fs checkpoint", plain, move |b| {
        store.raw_put(
            &slot,
            enclave.seal(SealPolicy::Measurement, b, aad.as_bytes()),
        );
        match FsShield::recover(fs_enclave(&platform), store.clone()) {
            Ok((shield, _)) => shield.version(FS_PATH) == Some(1),
            Err(_) => false,
        }
    })
    // `STFMAN04 | u64 generation | u64 next_file_id | u32 files |
    // len(path) | u64 version, len, file_id, epoch | u32 tags | tag16 × 3`:
    // the file count, the path length and the tag count.
    .lengths(&[24, 28, 64 + FS_PATH.len()])
    .check();
}

/// A store where the host died right after the commit point of a rewrite
/// of `/data/small` from `old` to `new`: the staged object and the log
/// record committing it landed, the rename did not. Eight other files in
/// the checkpoint make the rewrite append a record rather than compact.
/// Returns `platform` to remount on, the store and the record's path.
fn crashed_rewrite(platform: Platform) -> (Platform, UntrustedStore, String) {
    let store = UntrustedStore::new();
    let mut shield = FsShield::new(fs_enclave(&platform), store.clone());
    for i in 0..8 {
        shield
            .write(&format!("/data/filler/{i}"), b"filler")
            .unwrap();
    }
    shield.write("/data/small", b"old").unwrap();
    let log = |store: &UntrustedStore| -> Vec<(String, Vec<u8>)> {
        let paths = store.paths().into_iter().filter(|p| p.contains("/log/"));
        paths
            .map(|p| (p.clone(), store.raw_contents(&p).unwrap()))
            .collect()
    };
    let before = log(&store);
    store.fail_after_ops(2);
    shield.write("/data/small", b"new").unwrap_err();
    store.host_restart();
    let record = log(&store).into_iter().find(|o| !before.contains(o));
    let record = record.expect("the rewrite appended a log record").0;
    (platform, store, record)
}

/// Remounts a [`crashed_rewrite`] store whose newest log record is now
/// `record`: `Ok(true)` if the rewrite was rolled forward, `Ok(false)` if
/// `/data/small` reads as before it, the mount's or the read's error
/// otherwise. Whether a failure is acceptable is the caller's call.
fn remount_with_commit(
    crashed: &(Platform, UntrustedStore, String),
    record: &[u8],
) -> Result<bool, ShieldError> {
    let (platform, store, record_path) = crashed;
    store.raw_put(record_path, record.to_vec());
    let (shield, _) = FsShield::recover(fs_enclave(platform), store.clone())?;
    match shield.read("/data/small")?.as_slice() {
        b"new" => Ok(true),
        b"old" => Ok(false),
        other => panic!("neither pre nor post state: {other:?}"),
    }
}

// `STFLOG02 | u64 generation | prev32 | u8 kind | len(path) "/data/small"
// | u64 version | u64 len | u64 file_id | u64 epoch | u32 n | tag16 × n`,
// then (on the host) an HMAC-SHA256: the `u32` path length and tag count,
// and the epoch.
const RECORD_LENGTHS: [usize; 2] = [49, 96];
const RECORD_EPOCH_AT: usize = 88;

/// The MAC'd `STFLOG02` record via `recover`, as the host holds it. The
/// record *is* the committed metadata (the counter has moved past it), so
/// every mutation breaks its MAC and fails the mount closed: a rewrite
/// that committed is never silently rolled back.
#[test]
fn fs_commit_record_rejects_hostile_bytes_through_recover() {
    let crashed = Rc::new(RefCell::new(crashed_rewrite(fs_platform())));
    let record = {
        let crashed = crashed.borrow();
        crashed.1.raw_contents(&crashed.2).unwrap()
    };
    let for_prepare = crashed.clone();
    Format::new(
        "fs log record",
        record,
        move |b| match remount_with_commit(&crashed.borrow(), b) {
            Ok(true) => true,
            Err(ShieldError::FileTampered(_)) => false,
            other => panic!("a committed rewrite must read or fail closed: {other:?}"),
        },
    )
    // Recovery consumes the journal: every decode needs its own crash.
    .prepare(move || *for_prepare.borrow_mut() = crashed_rewrite(fs_platform()))
    .lengths(&RECORD_LENGTHS)
    .check();
}

/// The record body behind the MAC: every mutation is re-MAC'd under the
/// log key (as only a key holder of this identity could), so the record
/// decoder, the chain check and the read of the renamed object — not the
/// MAC — must reject it. A bit flip may still decode (another version,
/// path or tag), but then the staged object does not authenticate under
/// it and the rewrite does not read back.
#[test]
fn fs_commit_entry_rejects_hostile_bytes_behind_the_mac() {
    let crashed = Rc::new(RefCell::new(crashed_rewrite(fs_platform())));
    let body = {
        let crashed = crashed.borrow();
        let record = crashed.1.raw_contents(&crashed.2).unwrap();
        record[..record.len() - 32].to_vec()
    };
    // The shield's log key: its file key, MAC'd under the identity's
    // `fs-journal-v2` key.
    let enclave = fs_enclave(&crashed.borrow().0);
    let file_key = enclave.derived_key(b"fs-shield-v1");
    let identity_key = enclave.derived_key(b"fs-journal-v2");
    let log_key = hmac_sha256(identity_key.as_bytes(), file_key.as_bytes());
    let remac = move |body: &[u8]| {
        let mut record = body.to_vec();
        record.extend_from_slice(&hmac_sha256(&log_key, body));
        record
    };
    let for_prepare = crashed.clone();
    let row = Format::new(
        "fs log record body",
        body.clone(),
        move |b| match remount_with_commit(&crashed.borrow(), &remac(b)) {
            Ok(rolled_forward) => rolled_forward,
            Err(ShieldError::FileTampered(_) | ShieldError::UnsupportedFormat(_)) => false,
            Err(e) => panic!("unexpected error {e:?}"),
        },
    )
    .prepare(move || *for_prepare.borrow_mut() = crashed_rewrite(fs_platform()))
    .lengths(&RECORD_LENGTHS);
    row.check();

    // The epoch: a file sealed by no earlier mount (0, this mount's own
    // epoch, or beyond) is rejected where it is decoded.
    let written = u64::from_le_bytes(body[RECORD_EPOCH_AT..][..8].try_into().unwrap());
    for epoch in [0, written + 1, written + 2, u64::MAX] {
        let mut moved = body.clone();
        moved[RECORD_EPOCH_AT..][..8].copy_from_slice(&epoch.to_le_bytes());
        row.rejects(&moved, &|| format!("epoch {epoch} (written in {written})"));
    }
}

/// The committed rewrite's staged object, replaced by the host before the
/// remount renames it into place: recovery moves it unread, and the first
/// read of the file fails closed — once, counted, with neither a panic
/// nor the contents before the rewrite.
#[test]
fn a_committed_staged_object_rejects_hostile_bytes_after_recover() {
    let (_, store, _) = crashed_rewrite(fs_platform());
    let staged = store.paths().into_iter().find(|p| p.contains("/txn/"));
    let object = store
        .raw_contents(&staged.expect("the rewrite was staged"))
        .unwrap();
    let mut hostile = vec![
        ("empty".to_string(), Vec::new()),
        (
            "one byte short".to_string(),
            object[..object.len() - 1].to_vec(),
        ),
    ];
    for at in 0..object.len() {
        for bit in 0..8 {
            let mut flipped = object.clone();
            flipped[at] ^= 1 << bit;
            hostile.push((format!("bit {bit} of byte {at} flipped"), flipped));
        }
    }
    for (what, bytes) in hostile {
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .id(0x5ec0_7e7f)
            .clock(clock)
            .telemetry(telemetry.clone())
            .build();
        let (platform, store, _) = crashed_rewrite(platform);
        let staged = store.paths().into_iter().find(|p| p.contains("/txn/"));
        store.raw_put(&staged.unwrap(), bytes);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (shield, report) = FsShield::recover(fs_enclave(&platform), store.clone())?;
            assert_eq!(report.rolled_forward, 1, "{what}: not renamed in");
            shield.read("/data/small")
        }))
        .unwrap_or_else(|_| panic!("{what}: panicked"));
        assert!(
            matches!(outcome, Err(ShieldError::FileTampered(_))),
            "{what}: {outcome:?}"
        );
        let rejections = telemetry.counter("shield.fs.tamper_rejections").get();
        assert_eq!(rejections, 1, "{what}");
    }
}
