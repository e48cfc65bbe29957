//! The file-system shield (paper §3.3.3).
//!
//! Every file written through the shield is split into chunks that are
//! individually encrypted and authenticated; the metadata for these chunks
//! (sizes, versions, and the authentication structure) is kept *inside*
//! the enclave, where the untrusted host cannot touch it. There is one
//! protection, for every path: SCONE's weaker authenticate-only and
//! unprotected regions are not reproduced (DESIGN.md §13).
//!
//! The untrusted side is modeled by [`UntrustedStore`], which stands in
//! for the host filesystem: tests (and the Dolev-Yao adversary) mutate it
//! directly to exercise tamper and rollback detection.
//!
//! # Crash consistency
//!
//! A file's host object is exactly its ciphertext: chunk `i` sits at
//! offset `i · CHUNK_SIZE`, and its AEAD tag is kept only in the
//! in-enclave metadata. The host can die at *any* operation boundary
//! (SGX-LKL's host interface makes no atomicity promises), so every
//! protected write is a journaled transaction of three host operations:
//! the whole ciphertext is staged under a per-transaction name, one
//! object carrying the metadata delta lands (the commit point), and the
//! staged object is renamed onto the file's path.
//!
//! The metadata table persists as a *manifest*: a sealed checkpoint of
//! the whole table plus a log of one-entry deltas written since, each
//! record MAC'd and linked to its predecessor, and every commit advances
//! a platform monotonic counter. A write's commit object is its log
//! record; only when the log would outgrow the checkpoint does a commit
//! seal the whole table as the next checkpoint instead.
//! [`FsShield::recover`] lets a *fresh* enclave remount the store after a
//! crash: the freshest checkpoint plus its log up to the counter is the
//! table, a committed transaction's object is renamed into place, any
//! other staged object is discarded, and a missing, stale or out-of-chain
//! record fails closed as a rollback. Paths under `!fs/` are reserved for
//! this machinery (checkpoint slots, log records and journal staging).
//!
//! # One authentication per chunk
//!
//! Every shield construction takes the next value of a second platform
//! counter, its *mount epoch*, and seals a file's chunks under a subkey
//! `HKDF(file key, namespace | platform | epoch | file_id)` with the nonce
//! `version | chunk`. Versions only grow within one mount, so no two
//! chunks are ever sealed under one key and nonce, not even by a fresh
//! enclave retrying a dead one's write. That is what lets the in-enclave
//! metadata pin each chunk's AEAD tag: a read slices the chunk out of the
//! object by its offset and opens it once against its pin, with no second
//! hash over it (DESIGN.md §13).

use crate::{iago, ShieldError};
use parking_lot::Mutex;
use securetf_crypto::aead::{self, Key, Nonce, TAG_LEN};
use securetf_crypto::ct;
use securetf_crypto::hkdf;
use securetf_crypto::hmac::hmac_sha256;
use securetf_tee::counter::CounterId;
use securetf_tee::sealing::SealPolicy;
use securetf_tee::telemetry::{Counter, Gauge, Histogram};
use securetf_tee::Enclave;
use securetf_tensor::bytes::{put_len_prefixed, put_u32, put_u64, Reader};
use securetf_tensor::kernels::WorkerPool;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Chunk size used by the shield (64 KiB, matching SCONE's default).
pub const CHUNK_SIZE: usize = 64 * 1024;

/// Decrypted chunks kept in the in-enclave cache (16 × 64 KiB = 1 MiB —
/// small enough to stay EPC-resident next to the model it serves).
const CHUNK_CACHE_CAP: usize = 16;

/// Mutable host-side state behind an [`UntrustedStore`].
#[derive(Debug, Default)]
struct StoreState {
    files: HashMap<String, Vec<u8>>,
    /// Count of *shield-issued* mutating host operations served so far.
    ops: u64,
    /// When `Some(n)`, the host dies after `n` more shield mutating ops
    /// succeed (the op after that fails).
    crash_after: Option<u64>,
    /// If the dying op is a put, only this many bytes of it land (a torn
    /// write); `None` means the dying op lands nothing at all.
    torn_bytes: Option<usize>,
    /// The host process is dead: every shield op fails until
    /// [`UntrustedStore::host_restart`].
    crashed: bool,
}

/// A full copy of the host disk, for rollback attacks and crash sweeps.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    files: HashMap<String, Vec<u8>>,
}

/// The untrusted host filesystem: an adversary-accessible byte store.
///
/// Cloning shares the underlying storage (it models one host disk).
///
/// The `raw_*` methods are the *adversary's* view — they touch the disk
/// image directly, bypass crash injection and never count as shield
/// operations. The shield itself goes through private gated operations
/// that honor the deterministic fault hook ([`UntrustedStore::fail_after_ops`]).
#[derive(Debug, Clone, Default)]
pub struct UntrustedStore {
    inner: Arc<Mutex<StoreState>>,
}

impl UntrustedStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host-side write (what the OS does on behalf of the enclave — or
    /// what an attacker does directly).
    pub fn raw_put(&self, path: &str, bytes: Vec<u8>) {
        self.inner.lock().files.insert(path.to_string(), bytes);
    }

    /// Host-side read.
    pub fn raw_contents(&self, path: &str) -> Option<Vec<u8>> {
        self.inner.lock().files.get(path).cloned()
    }

    /// Host-side size of a stored file.
    pub fn raw_len(&self, path: &str) -> Option<usize> {
        self.inner.lock().files.get(path).map(Vec::len)
    }

    /// Host-side ranged read: copies the `out.len()` bytes at `offset`
    /// into `out` under the store lock, the only work done there. Returns
    /// false, and leaves `out` alone, if the file is missing or ends
    /// before the range does.
    pub fn raw_read_at(&self, path: &str, offset: usize, out: &mut [u8]) -> bool {
        let state = self.inner.lock();
        let range = state.files.get(path).and_then(|data| {
            let end = offset.checked_add(out.len())?;
            data.get(offset..end)
        });
        range.map(|bytes| out.copy_from_slice(bytes)).is_some()
    }

    /// Whether the disk image holds `path` (host-side, like the other
    /// `raw_*` views; copies nothing).
    pub fn contains(&self, path: &str) -> bool {
        self.inner.lock().files.contains_key(path)
    }

    /// Host-side delete.
    pub fn raw_delete(&self, path: &str) -> bool {
        self.inner.lock().files.remove(path).is_some()
    }

    /// Flips one bit of a stored file (adversary helper for tests).
    pub fn corrupt(&self, path: &str, byte_index: usize) -> bool {
        let mut state = self.inner.lock();
        match state.files.get_mut(path) {
            Some(data) if byte_index < data.len() => {
                data[byte_index] ^= 1;
                true
            }
            _ => false,
        }
    }

    /// Truncates a stored file to `len` bytes (adversary helper).
    /// Returns false if the path is missing or already at most `len`.
    pub fn truncate(&self, path: &str, len: usize) -> bool {
        let mut state = self.inner.lock();
        match state.files.get_mut(path) {
            Some(data) if data.len() > len => {
                data.truncate(len);
                true
            }
            _ => false,
        }
    }

    /// Lists stored paths.
    pub fn paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.lock().files.keys().cloned().collect();
        v.sort();
        v
    }

    /// Copies the entire disk image (adversary helper: pair with
    /// [`UntrustedStore::restore`] for whole-disk rollback attacks).
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            files: self.inner.lock().files.clone(),
        }
    }

    /// Replaces the disk image with an earlier snapshot.
    pub fn restore(&self, snapshot: &StoreSnapshot) {
        self.inner.lock().files = snapshot.files.clone();
    }

    /// Arms the deterministic crash hook: after `n` more shield mutating
    /// operations succeed the host is dead — operation `n + 1` fails with
    /// [`ShieldError::HostCrashed`] and lands nothing, as does everything
    /// after it until [`UntrustedStore::host_restart`].
    pub fn fail_after_ops(&self, n: u64) {
        let mut state = self.inner.lock();
        state.crash_after = Some(n);
        state.torn_bytes = None;
    }

    /// Like [`UntrustedStore::fail_after_ops`], but the dying operation —
    /// if it is a put — lands a torn prefix of `torn_bytes` bytes before
    /// the host dies.
    pub fn fail_after_ops_torn(&self, n: u64, torn_bytes: usize) {
        let mut state = self.inner.lock();
        state.crash_after = Some(n);
        state.torn_bytes = Some(torn_bytes);
    }

    /// Brings a crashed host back up (the disk image is whatever survived
    /// the crash) and disarms any pending crash hook.
    pub fn host_restart(&self) {
        let mut state = self.inner.lock();
        state.crashed = false;
        state.crash_after = None;
        state.torn_bytes = None;
    }

    /// Whether the host is currently dead.
    pub fn crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// Number of shield mutating operations served so far (used by crash
    /// sweeps to enumerate every crash point of a transaction).
    pub fn op_count(&self) -> u64 {
        self.inner.lock().ops
    }

    /// Gate for one shield *mutating* op: counts it, or trips the armed
    /// crash. Returns the torn-prefix length to land if the dying op
    /// should tear.
    fn gate_mutation(state: &mut StoreState) -> Result<(), Option<usize>> {
        if state.crashed {
            return Err(None);
        }
        match state.crash_after {
            Some(0) => {
                state.crashed = true;
                state.crash_after = None;
                Err(state.torn_bytes.take())
            }
            Some(n) => {
                state.crash_after = Some(n - 1);
                state.ops += 1;
                Ok(())
            }
            None => {
                state.ops += 1;
                Ok(())
            }
        }
    }

    /// Shield-side write: honors the crash hook (possibly landing a torn
    /// prefix of `bytes` on the dying op).
    pub(crate) fn shield_put(&self, path: &str, bytes: Vec<u8>) -> Result<(), ShieldError> {
        let mut state = self.inner.lock();
        match Self::gate_mutation(&mut state) {
            Ok(()) => {
                state.files.insert(path.to_string(), bytes);
                Ok(())
            }
            Err(torn) => {
                if let Some(n) = torn {
                    let mut prefix = bytes;
                    prefix.truncate(n);
                    state.files.insert(path.to_string(), prefix);
                }
                Err(ShieldError::HostCrashed("host died during put"))
            }
        }
    }

    /// Shield-side delete: honors the crash hook.
    pub(crate) fn shield_delete(&self, path: &str) -> Result<bool, ShieldError> {
        let mut state = self.inner.lock();
        match Self::gate_mutation(&mut state) {
            Ok(()) => Ok(state.files.remove(path).is_some()),
            Err(_) => Err(ShieldError::HostCrashed("host died during delete")),
        }
    }

    /// Shield-side rename: moves the object at `from` onto `to`, replacing
    /// whatever `to` held, in one gated op. Atomic like POSIX `rename(2)`:
    /// the dying op lands nothing, never a torn object. A missing `from`
    /// changes nothing.
    pub(crate) fn shield_rename(&self, from: &str, to: &str) -> Result<(), ShieldError> {
        let mut state = self.inner.lock();
        match Self::gate_mutation(&mut state) {
            Ok(()) => {
                if let Some(bytes) = state.files.remove(from) {
                    state.files.insert(to.to_string(), bytes);
                }
                Ok(())
            }
            Err(_) => Err(ShieldError::HostCrashed("host died during rename")),
        }
    }

    /// Shield-side read: fails while the host is down, but neither counts
    /// as a mutating op nor trips the crash hook. `look` sees the stored
    /// bytes in place, under the store lock, and copies out only what it
    /// needs — so it should validate and copy, and leave the crypto to
    /// its caller.
    pub(crate) fn shield_view<R>(
        &self,
        path: &str,
        look: impl FnOnce(Option<&[u8]>) -> R,
    ) -> Result<R, ShieldError> {
        let state = self.inner.lock();
        if state.crashed {
            return Err(ShieldError::HostCrashed("host died during get"));
        }
        Ok(look(state.files.get(path).map(Vec::as_slice)))
    }

    /// [`UntrustedStore::shield_view`] for callers that need the whole
    /// object anyway (checkpoint slots).
    pub(crate) fn shield_get(&self, path: &str) -> Result<Option<Vec<u8>>, ShieldError> {
        self.shield_view(path, |stored| stored.map(<[u8]>::to_vec))
    }
}

/// In-enclave metadata for one file.
#[derive(Debug, Clone)]
struct FileMeta {
    /// Monotone version; part of every chunk nonce and authenticated data,
    /// so replaying an older on-disk file is detected.
    version: u64,
    len: u64,
    file_id: u64,
    /// Mount epoch of the shield that sealed this version: with `file_id`
    /// it selects the subkey the chunks are sealed under.
    epoch: u64,
    /// Each chunk's AEAD tag, in chunk order, [`TAG_LEN`] bytes each: the
    /// only copy; the host object holds ciphertext alone.
    tags: Vec<u8>,
}

/// Chunks a file of `len` bytes is stored as (an empty file still has
/// one, empty, authenticated chunk).
fn chunks_for(len: u64) -> u64 {
    len.div_ceil(CHUNK_SIZE as u64).max(1)
}

/// The chunks of a file's plaintext, in place: as many as [`chunks_for`]
/// says, so one (empty) for an empty file.
fn chunks_mut(plain: &mut [u8]) -> impl Iterator<Item = &mut [u8]> {
    let whole_if_empty = plain.is_empty().then_some(&mut [][..]);
    whole_if_empty
        .into_iter()
        .chain(plain.chunks_mut(CHUNK_SIZE))
}

impl FileMeta {
    /// Chunks the file is stored as.
    fn chunks(&self) -> usize {
        chunks_for(self.len) as usize
    }

    /// The pinned tag of chunk `i`. Relies on `tags` holding one tag per
    /// chunk, which `write` produces and [`read_file_entry`] enforces on
    /// the way back in.
    fn tag(&self, i: usize) -> &[u8] {
        &self.tags[i * TAG_LEN..][..TAG_LEN]
    }

    /// Plaintext bytes in chunk `i`: a full chunk for all but the last.
    fn chunk_len(&self, i: usize) -> usize {
        self.len
            .saturating_sub((i * CHUNK_SIZE) as u64)
            .min(CHUNK_SIZE as u64) as usize
    }
}

/// Magic prefix of a manifest log record.
const LOG_MAGIC: &[u8; 8] = b"STFLOG02";

/// Magic prefix of a manifest checkpoint's plaintext.
const CHECKPOINT_MAGIC: &[u8; 8] = b"STFMAN04";

/// Size of the HMAC-SHA256 that closes a log record, and of the link to
/// its predecessor a record carries.
const MAC_LEN: usize = 32;

/// Log record kinds: a write's new file entry, or a delete's tombstone.
const RECORD_PUT: u8 = 0;
const RECORD_TOMBSTONE: u8 = 1;

/// One file's entry — `path | version | len | file_id | epoch | n | tag ×
/// n` — as a checkpoint lists it and a log record carries it.
fn put_file_entry(out: &mut Vec<u8>, path: &str, meta: &FileMeta) {
    put_len_prefixed(out, path.as_bytes());
    put_u64(out, meta.version);
    put_u64(out, meta.len);
    put_u64(out, meta.file_id);
    put_u64(out, meta.epoch);
    put_u32(out, meta.chunks() as u32);
    out.extend_from_slice(&meta.tags);
}

/// Reads what [`put_file_entry`] wrote, for a shield mounted in epoch
/// `mount_epoch`: every entry it can meet was sealed by an earlier mount.
fn read_file_entry(r: &mut Reader, mount_epoch: u64) -> Result<(String, FileMeta), ShieldError> {
    let path = r.str()?.to_string();
    let version = r.u64()?;
    let len = r.u64()?;
    let file_id = r.u64()?;
    let epoch = r.u64()?;
    if epoch == 0 || epoch >= mount_epoch {
        return Err(ShieldError::IagoViolation(
            "entry is not from an earlier mount",
        ));
    }
    let chunks = chunks_for(len);
    if u64::from(r.u32()?) != chunks {
        return Err(ShieldError::IagoViolation(
            "chunk count does not match length",
        ));
    }
    // At most u32::MAX chunks of 16 bytes: no overflow, and `take` hands
    // out only bytes that exist.
    let tags = r.take(chunks as usize * TAG_LEN)?.to_vec();
    let meta = FileMeta {
        version,
        len,
        file_id,
        epoch,
        tags,
    };
    Ok((path, meta))
}

/// A decoded (unsealed) checkpoint.
struct DecodedCheckpoint {
    generation: u64,
    next_file_id: u64,
    meta: HashMap<String, FileMeta>,
}

/// Decodes a checkpoint plaintext — `STFMAN04 | generation | next_file_id
/// | n | entry × n` — for a shield mounted in `mount_epoch`. Anything but
/// the v4 magic up front is [`ShieldError::UnsupportedFormat`]: authentic,
/// but not a manifest this build can read (a v1 to v3 store).
fn decode_checkpoint(bytes: &[u8], mount_epoch: u64) -> Result<DecodedCheckpoint, ShieldError> {
    let mut r = Reader::new(bytes);
    if r.array::<8>().ok().as_ref() != Some(CHECKPOINT_MAGIC) {
        return Err(ShieldError::UnsupportedFormat(
            "fs manifest is not STFMAN04",
        ));
    }
    let generation = r.u64()?;
    let next_file_id = r.u64()?;
    let mut meta = HashMap::new();
    for _ in 0..r.u32()? {
        let (path, file) = read_file_entry(&mut r, mount_epoch)?;
        meta.insert(path, file);
    }
    r.finish()?;
    Ok(DecodedCheckpoint {
        generation,
        next_file_id,
        meta,
    })
}

/// The body of a log record — `STFLOG02 | generation | prev | u8 kind |
/// entry` for a write, `… | u8 kind | len(path)` for a delete's
/// tombstone — to which [`seal_record`] appends the MAC.
fn record_body(
    generation: u64,
    prev: &[u8; MAC_LEN],
    path: &str,
    meta: Option<&FileMeta>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + path.len() + meta.map_or(0, |m| m.tags.len()));
    out.extend_from_slice(LOG_MAGIC);
    put_u64(&mut out, generation);
    out.extend_from_slice(prev);
    match meta {
        Some(meta) => {
            out.push(RECORD_PUT);
            put_file_entry(&mut out, path, meta);
        }
        None => {
            out.push(RECORD_TOMBSTONE);
            put_len_prefixed(&mut out, path.as_bytes());
        }
    }
    out
}

/// Closes a record body with its HMAC under `log_key` and returns that
/// MAC, which the next record links to.
fn seal_record(log_key: &Key, body: &mut Vec<u8>) -> [u8; MAC_LEN] {
    let mac = hmac_sha256(log_key.as_bytes(), body);
    body.extend_from_slice(&mac);
    mac
}

/// A MAC-valid log record.
struct LogRecord {
    generation: u64,
    prev: [u8; MAC_LEN],
    path: String,
    /// The file's new entry; `None` for a tombstone.
    meta: Option<FileMeta>,
    mac: [u8; MAC_LEN],
}

/// Reads a log record for a shield mounted in `mount_epoch`, after its
/// MAC under `log_key` has authenticated it: `None` for a torn, forged or
/// malformed record (it never committed), [`ShieldError::UnsupportedFormat`]
/// for an authentic one without the v4 magic.
fn decode_record(
    log_key: &Key,
    bytes: &[u8],
    mount_epoch: u64,
) -> Result<Option<LogRecord>, ShieldError> {
    let Some((body, mac)) = bytes.split_last_chunk::<MAC_LEN>() else {
        return Ok(None);
    };
    if !ct::eq(&hmac_sha256(log_key.as_bytes(), body), mac) {
        return Ok(None);
    }
    let mut r = Reader::new(body);
    if r.array::<8>().ok().as_ref() != Some(LOG_MAGIC) {
        return Err(ShieldError::UnsupportedFormat(
            "fs log record is not STFLOG02",
        ));
    }
    let read = |r: &mut Reader| -> Result<LogRecord, ShieldError> {
        let generation = r.u64()?;
        let prev = r.array::<MAC_LEN>()?;
        let (path, meta) = match r.u8()? {
            RECORD_PUT => {
                let (path, meta) = read_file_entry(r, mount_epoch)?;
                (path, Some(meta))
            }
            RECORD_TOMBSTONE => (r.str()?.to_string(), None),
            _ => return Err(ShieldError::IagoViolation("unknown log record kind")),
        };
        Ok(LogRecord {
            generation,
            prev,
            path,
            meta,
            mac: *mac,
        })
    };
    Ok(read(&mut r).ok().filter(|_| r.finish().is_ok()))
}

/// What the first record after a checkpoint links to: the MAC under
/// `log_key` of the checkpoint's AEAD tag, which binds its whole sealed
/// content, so a record follows exactly one checkpoint.
fn checkpoint_link(log_key: &Key, sealed: &[u8]) -> [u8; MAC_LEN] {
    hmac_sha256(
        log_key.as_bytes(),
        &sealed[sealed.len().saturating_sub(TAG_LEN)..],
    )
}

/// The part of chunk `i` (`chunk_len` plaintext bytes) that lies inside
/// the byte range `[offset, offset + len)`: where it sits in the chunk,
/// and where it starts in a buffer holding exactly that range.
fn overlap(i: usize, chunk_len: usize, offset: u64, len: u64) -> (Range<usize>, usize) {
    let chunk_start = i as u64 * CHUNK_SIZE as u64;
    let from = offset.max(chunk_start);
    let to = (offset + len).min(chunk_start + chunk_len as u64);
    (
        (from - chunk_start) as usize..(to - chunk_start) as usize,
        (from - offset) as usize,
    )
}

/// In-enclave cache of already-decrypted chunks, keyed by
/// `(file_id, version, chunk)` so a rewritten file (new version) can never
/// serve stale plaintext. The plaintext lives inside the enclave, so
/// caching it weakens nothing the chunk's AEAD protected.
///
/// Least-recently-used eviction over one short list, most recent first:
/// a scan of [`CHUNK_CACHE_CAP`] keys costs less than hashing one.
#[derive(Debug, Default)]
struct ChunkCache {
    entries: Vec<((u64, u64, u32), Vec<u8>)>,
}

impl ChunkCache {
    /// Looks `key` up. On a hit, copies bytes `src` of the cached chunk
    /// into `dst` — only the range asked for, not the chunk — and makes
    /// the entry the most recent.
    fn copy_range(&mut self, key: (u64, u64, u32), src: Range<usize>, dst: &mut [u8]) -> bool {
        let Some(at) = self.entries.iter().position(|(k, _)| *k == key) else {
            return false;
        };
        self.entries[..=at].rotate_right(1);
        dst.copy_from_slice(&self.entries[0].1[src]);
        true
    }

    /// Caches a chunk as the most recent entry, evicting the least
    /// recently used one when full.
    fn insert(&mut self, key: (u64, u64, u32), plain: Vec<u8>) {
        self.entries.retain(|(k, _)| *k != key);
        self.entries.truncate(CHUNK_CACHE_CAP - 1);
        self.entries.insert(0, (key, plain));
    }

    /// Drops every cached chunk of `file_id` (any version) — called on
    /// write/delete so the cache never outlives the file it mirrors.
    fn invalidate_file(&mut self, file_id: u64) {
        self.entries.retain(|(k, _)| k.0 != file_id);
    }
}

/// Telemetry counters for the fs shield, resolved once at construction
/// (no-op handles when the enclave's platform has telemetry disabled).
#[derive(Debug, Clone)]
struct FsMetrics {
    writes: Counter,
    reads: Counter,
    bytes_written: Counter,
    bytes_read: Counter,
    tamper_rejections: Counter,
    chunk_cache_hits: Counter,
    chunk_cache_misses: Counter,
    aborted_writes: Counter,
    journal_commits: Counter,
    journal_rollbacks: Counter,
    recovery_ns: Counter,
    format_rejections: Counter,
    mount_epoch: Gauge,
    crypto_bytes_sealed: Counter,
    crypto_bytes_opened: Counter,
    crypto_seal_ns: Histogram,
}

impl FsMetrics {
    fn for_enclave(enclave: &Enclave) -> Self {
        let t = enclave.telemetry();
        FsMetrics {
            writes: t.counter("shield.fs.writes"),
            reads: t.counter("shield.fs.reads"),
            bytes_written: t.counter("shield.fs.bytes_written"),
            bytes_read: t.counter("shield.fs.bytes_read"),
            tamper_rejections: t.counter("shield.fs.tamper_rejections"),
            chunk_cache_hits: t.counter("shield.fs.chunk_cache_hits"),
            chunk_cache_misses: t.counter("shield.fs.chunk_cache_misses"),
            aborted_writes: t.counter("shield.fs.aborted_writes"),
            journal_commits: t.counter("shield.fs.journal_commits"),
            journal_rollbacks: t.counter("shield.fs.journal_rollbacks"),
            recovery_ns: t.counter("shield.fs.recovery_ns"),
            format_rejections: t.counter("shield.fs.format_rejections"),
            mount_epoch: t.gauge("shield.fs.mount_epoch"),
            crypto_bytes_sealed: t.counter("crypto.bytes_sealed"),
            crypto_bytes_opened: t.counter("crypto.bytes_opened"),
            crypto_seal_ns: t.histogram("crypto.seal_ns"),
        }
    }
}

/// A sealed checkpoint on the host: its generation, the slot (0 or 1) it
/// sits in, and its sealed size.
#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    generation: u64,
    slot: u64,
    len: u64,
}

/// Where the manifest's log stands: the checkpoint it extends and the
/// records appended since. Record `i` after the checkpoint (generation
/// `checkpoint + 1 + i`) lives at log position `i`, so compaction deletes
/// nothing: the next checkpoint's log overwrites the old one in place.
#[derive(Debug, Default)]
struct Log {
    /// `None` until this shield has sealed or loaded a checkpoint.
    checkpoint: Option<Checkpoint>,
    records: u64,
    bytes: u64,
    /// What the next record links to: the newest record's MAC, or the
    /// checkpoint's link when there is none.
    head: [u8; MAC_LEN],
}

impl Log {
    /// Whether a `len`-byte record of `generation` can be appended: the
    /// log extends a checkpoint, no other shield of this identity took a
    /// generation since, and the log stays no larger than the checkpoint
    /// (the compaction rule).
    fn takes(&self, generation: u64, len: u64) -> bool {
        self.checkpoint.is_some_and(|c| {
            c.generation + self.records + 1 == generation && self.bytes + len <= c.len
        })
    }
}

/// What a mount-time [`FsShield::recover`] scan found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation of the newest commit the shield resumed at: the
    /// checkpoint's plus the log records replayed (0 = fresh mount).
    pub generation: u64,
    /// Protected files known after recovery.
    pub files: usize,
    /// Committed transactions whose staged object was renamed into place.
    pub rolled_forward: usize,
    /// Torn or uncommitted staged objects deleted.
    pub discarded: usize,
    /// Virtual time the whole scan took.
    pub recovery_ns: u64,
    /// Mount epoch the recovered shield seals new chunks in.
    pub epoch: u64,
}

/// The file-system shield.
///
/// Holds the file key (derived from the enclave identity) and the
/// in-enclave metadata table. See the crate-level example.
#[derive(Debug)]
pub struct FsShield {
    enclave: Arc<Enclave>,
    store: UntrustedStore,
    meta: HashMap<String, FileMeta>,
    key: Key,
    /// MAC key for log records, derived from the file key *and* from
    /// this identity on this platform: shields of one identity sharing a
    /// file key read each other's logs, and another enclave holding the
    /// same file key can neither forge a record nor move one of its own
    /// into this identity's namespace.
    log_key: Key,
    /// Reserved store namespace for this identity's manifest and journal
    /// (derived from the enclave measurement, so two different enclave
    /// identities sharing one disk never clash).
    manifest_base: String,
    /// Platform monotonic counter pinning the manifest generation: one
    /// step per commit.
    counter: CounterId,
    /// Generation of this shield's newest commit, made or recovered (0
    /// before either).
    generation: u64,
    log: Log,
    /// This instance's mount epoch: the value it took from the platform
    /// counter `fs-epoch:<mr8>` at construction, and so shared with no
    /// other shield of this identity on this platform, before or after.
    epoch: u64,
    next_file_id: u64,
    metrics: FsMetrics,
    chunk_cache: Mutex<ChunkCache>,
    /// Highest version this instance sealed chunks under and then
    /// aborted, per `file_id`. Within one epoch a chunk is sealed under
    /// `(file_id, version, chunk)`, so a version that reached the host in
    /// a staged object is burned even though it never committed: the
    /// retry must not seal other plaintext under it (DESIGN.md §13).
    burned_versions: HashMap<u64, u64>,
    /// Pool for sealing the chunks of a multi-chunk write, and verifying
    /// and opening those of a full read, in parallel. Wall-clock only:
    /// virtual-time charges, output bytes and errors are identical to the
    /// serial pool's for any worker count.
    pool: WorkerPool,
}

impl FsShield {
    /// Creates a shield over `store` with keys bound to `enclave`.
    pub fn new(enclave: Arc<Enclave>, store: UntrustedStore) -> Self {
        let key = enclave.derived_key(b"fs-shield-v1");
        Self::with_key(enclave, store, key)
    }

    /// Creates a shield with an explicit key (for files shared between
    /// enclaves, e.g. encrypted models provisioned by CAS).
    ///
    /// Every construction — and so every [`FsShield::recover`] — takes the
    /// next mount epoch from the platform counter `fs-epoch:<mr8>`. A
    /// shield built this way reads nothing from `store`: it starts from an
    /// empty table with no checkpoint to extend, so its first write seals
    /// one.
    pub fn with_key(enclave: Arc<Enclave>, store: UntrustedStore, key: Key) -> Self {
        let metrics = FsMetrics::for_enclave(&enclave);
        let identity_key = enclave.derived_key(b"fs-journal-v2");
        let log_key = Key::from_bytes(hmac_sha256(identity_key.as_bytes(), key.as_bytes()));
        let mr8: String = enclave.measurement().as_bytes()[..8]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        let base = format!("!fs/{mr8}");
        let (counter, epoch) = {
            let mut counters = enclave.counters().lock();
            let counter = counters.find_or_create_at(&format!("fs-shield:{base}"), 0);
            let epochs = counters.find_or_create_at(&format!("fs-epoch:{mr8}"), 0);
            // `increment` fails only for a handle from another store.
            let epoch = counters.increment(epochs).expect("handle from this store");
            (counter, epoch)
        };
        metrics.mount_epoch.set(epoch as i64);
        FsShield {
            enclave,
            store,
            meta: HashMap::new(),
            key,
            log_key,
            manifest_base: base,
            counter,
            generation: 0,
            log: Log::default(),
            epoch,
            next_file_id: 1,
            metrics,
            chunk_cache: Mutex::new(ChunkCache::default()),
            burned_versions: HashMap::new(),
            pool: WorkerPool::serial(),
        }
    }

    /// Sets the worker pool used to seal the chunks of multi-chunk writes
    /// and to verify and open those of full reads in parallel. Chunks
    /// are independently nonced and each has its own place in the blob
    /// and in the plaintext, so stored bytes, read results and read
    /// errors are identical for any worker count (default: serial).
    pub fn set_worker_pool(&mut self, pool: WorkerPool) {
        self.pool = pool;
    }

    /// The subkey every chunk of `file_id` sealed in mount `epoch` is
    /// sealed under: HKDF-Expand of the file key over
    /// `"fs-chunk-v2" | namespace | platform_id | epoch | file_id`, all
    /// fixed-width after the label. Derived once per write, full read or
    /// range read that opens a chunk — never for a chunk-cache hit.
    fn chunk_key(&self, file_id: u64, epoch: u64) -> Key {
        let mut info = Vec::with_capacity(64);
        info.extend_from_slice(b"fs-chunk-v2");
        info.extend_from_slice(self.manifest_base.as_bytes());
        info.extend_from_slice(&self.enclave.platform_id().to_le_bytes());
        info.extend_from_slice(&epoch.to_le_bytes());
        info.extend_from_slice(&file_id.to_le_bytes());
        let okm = hkdf::expand(self.key.as_bytes(), &info, 32).expect("32 <= 255 * 32 bytes");
        Key::from_bytes(okm.try_into().expect("expand returns 32 bytes"))
    }

    /// `version | chunk`: injective, and under a per-`(epoch, file_id)`
    /// key the pair is all that has to differ.
    fn chunk_nonce(version: u64, chunk: u32) -> Nonce {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&version.to_le_bytes());
        n[8..].copy_from_slice(&chunk.to_le_bytes());
        Nonce::from_bytes(n)
    }

    fn chunk_aad(path: &str, version: u64, chunk: u32, total_chunks: u32) -> Vec<u8> {
        let mut aad = Vec::with_capacity(path.len() + 16);
        aad.extend_from_slice(path.as_bytes());
        aad.extend_from_slice(&version.to_le_bytes());
        aad.extend_from_slice(&chunk.to_le_bytes());
        aad.extend_from_slice(&total_chunks.to_le_bytes());
        aad
    }

    /// Where a write stages its object before the commit, and so the name
    /// recovery parses a staged object's `(file_id, version)` from.
    fn txn_path(base: &str, file_id: u64, version: u64) -> String {
        format!("{base}/txn/{file_id:016x}-{version:016x}")
    }

    fn manifest_slot(base: &str, slot: u64) -> String {
        format!("{base}/manifest-{slot}")
    }

    fn log_path(base: &str, position: u64) -> String {
        format!("{base}/log/{position:016x}")
    }

    /// Writes `data` to `path`, encrypted and authenticated.
    ///
    /// Every write is a journaled transaction of three host operations,
    /// whatever its size: the whole ciphertext is staged at
    /// `!fs/<id>/txn/<file_id>-<version>`, the file's new entry is
    /// committed to the manifest — one MAC'd log record, or a sealed
    /// checkpoint when the log is due for compaction — and the staged
    /// object is renamed onto `path`. A crash at any host-op boundary
    /// leaves the store recoverable to exactly the pre-write or post-write
    /// state (see [`FsShield::recover`]).
    ///
    /// # Errors
    ///
    /// [`ShieldError::HostCrashed`] if the host dies mid-transaction
    /// (crash injection). If the commit had already landed the write *is*
    /// durable and a recovery scan will surface it; otherwise it is
    /// aborted and counted in `shield.fs.aborted_writes`.
    pub fn write(&mut self, path: &str, data: &[u8]) -> Result<(), ShieldError> {
        self.enclave.charge_syscall();
        if let Some(old) = self.meta.get(path) {
            self.chunk_cache.lock().invalidate_file(old.file_id);
        }
        let file_id = self.meta.get(path).map(|m| m.file_id).unwrap_or_else(|| {
            let id = self.next_file_id;
            self.next_file_id += 1;
            id
        });
        let committed = self.meta.get(path).map_or(0, |m| m.version);
        let burned = self.burned_versions.get(&file_id).copied().unwrap_or(0);
        let version = committed.max(burned) + 1;
        let total = chunks_for(data.len() as u64) as u32;
        // The data is copied once, into the object the host will hold, and
        // each independently-nonced chunk is sealed where it lies, across
        // the pool: each slot is one chunk and its tag, written by exactly
        // one worker, so the object and the tags are bit-identical to a
        // serial seal regardless of worker count.
        let mut blob = data.to_vec();
        let mut tags = vec![0u8; total as usize * TAG_LEN];
        let mut slots: Vec<_> = chunks_mut(&mut blob)
            .zip(tags.chunks_exact_mut(TAG_LEN))
            .collect();
        let key = self.chunk_key(file_id, self.epoch);
        self.pool.run_items(&mut slots, &|i, (body, tag)| {
            let aad = Self::chunk_aad(path, version, i as u32, total);
            let nonce = Self::chunk_nonce(version, i as u32);
            tag.copy_from_slice(&aead::seal_in_place_detached(&key, &nonce, body, &aad));
        });
        // The crypto work happens at AES-NI-like streaming rates (§5.3 #2).
        // Virtual time charges the full serial cost for any worker count —
        // parallel sealing is a wall-clock optimization only.
        self.enclave.charge_shield_crypto(data.len() as u64);
        self.metrics.crypto_bytes_sealed.add(data.len() as u64);
        self.metrics.crypto_seal_ns.record(
            self.enclave
                .cost_model()
                .shield_crypto_ns(data.len() as u64),
        );

        let meta = FileMeta {
            version,
            len: data.len() as u64,
            file_id,
            epoch: self.epoch,
            tags,
        };
        let txn = Self::txn_path(&self.manifest_base, file_id, version);

        // Op 1: stage the whole ciphertext.
        self.enclave.charge_syscall();
        if let Err(e) = self.store.shield_put(&txn, blob) {
            return Err(self.abort_write(file_id, version, e));
        }

        // Op 2: the commit point. Before this lands, the write never
        // happened; after it, the write is durable.
        if let Err(e) = self.commit(path, Some(&meta)) {
            return Err(self.abort_write(file_id, version, e));
        }
        self.meta.insert(path.to_string(), meta);
        self.metrics.writes.inc();
        self.metrics.bytes_written.add(data.len() as u64);
        self.metrics.journal_commits.inc();

        // Op 3: rename the staged object into place. A crash here still
        // recovers to the post-write state (the manifest is the truth),
        // but the host is down: surface that to the caller.
        self.enclave.charge_syscall();
        self.store.shield_rename(&txn, path)
    }

    /// Accounts for a write that failed before its commit point: chunks
    /// sealed under `(file_id, version)` may have reached the host, so the
    /// version is burned for the life of this instance.
    fn abort_write(&mut self, file_id: u64, version: u64, cause: ShieldError) -> ShieldError {
        self.burned_versions.insert(file_id, version);
        self.metrics.aborted_writes.inc();
        cause
    }

    /// Reads and verifies `path`.
    ///
    /// # Errors
    ///
    /// * [`ShieldError::FileNotFound`] if the path is unknown.
    /// * [`ShieldError::FileTampered`] if the host-stored bytes fail
    ///   authentication, were truncated, or belong to a stale version
    ///   (rollback).
    pub fn read(&self, path: &str) -> Result<Vec<u8>, ShieldError> {
        self.count_read(Self::read_inner(self, path))
    }

    /// Attributes a read result to the shield metrics: successful reads
    /// count records and bytes, failed authentication counts a rejection.
    fn count_read(&self, result: Result<Vec<u8>, ShieldError>) -> Result<Vec<u8>, ShieldError> {
        match &result {
            Ok(data) => {
                self.metrics.reads.inc();
                self.metrics.bytes_read.add(data.len() as u64);
            }
            Err(ShieldError::FileTampered(_)) => self.metrics.tamper_rejections.inc(),
            Err(_) => {}
        }
        result
    }

    /// Hands the host object of `path` to `take` once its size is the
    /// file's length: after that the object's bytes are exactly the
    /// chunks `meta` describes, so `take` may slice them by offset and
    /// never holds more than the host actually supplied.
    fn with_object<R>(
        &self,
        path: &str,
        meta: &FileMeta,
        take: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, ShieldError> {
        self.store.shield_view(path, |stored| match stored {
            None => Err(ShieldError::FileNotFound(path.to_string())),
            Some(blob) if blob.len() as u64 != meta.len => Err(ShieldError::FileTampered(format!(
                "{path}: size does not match its metadata (rollback or truncation)"
            ))),
            Some(blob) => Ok(take(blob)),
        })?
    }

    /// Authenticates and decrypts chunk `i` of `path` in place against its
    /// pinned tag, under `key` (the file's [`FsShield::chunk_key`]), so on
    /// success `body` is the chunk's plaintext.
    fn open_chunk(
        key: &Key,
        path: &str,
        meta: &FileMeta,
        i: usize,
        body: &mut [u8],
    ) -> Result<(), ShieldError> {
        let aad = Self::chunk_aad(path, meta.version, i as u32, meta.chunks() as u32);
        let nonce = Self::chunk_nonce(meta.version, i as u32);
        aead::open_in_place_detached(key, &nonce, body, meta.tag(i), &aad)
            .map_err(|_| ShieldError::FileTampered(format!("{path}: chunk {i} auth failure")))
    }

    fn read_inner(&self, path: &str) -> Result<Vec<u8>, ShieldError> {
        self.enclave.charge_syscall();
        let Some(meta) = self.meta.get(path) else {
            // A host object the enclave holds no metadata for was not
            // written by this shield, or was deleted through it.
            let on_host = self.store.shield_view(path, |stored| stored.is_some())?;
            return Err(if on_host {
                ShieldError::FileTampered(format!("{path}: no in-enclave metadata for the file"))
            } else {
                ShieldError::FileNotFound(path.to_string())
            });
        };
        // A full read bypasses the chunk cache: the object is copied once,
        // under the store lock, into the buffer its plaintext will be.
        let mut out = self.with_object(path, meta, <[u8]>::to_vec)?;
        // Open every chunk where it lies, across the pool. A slot is one
        // chunk, worked on by one worker whatever the worker count, and
        // every slot runs to its own verdict; the lowest failing chunk
        // then decides the error.
        let mut slots: Vec<_> = chunks_mut(&mut out).map(|body| (body, Ok(()))).collect();
        let key = self.chunk_key(meta.file_id, meta.epoch);
        self.pool.run_items(&mut slots, &|i, (body, verdict)| {
            *verdict = Self::open_chunk(&key, path, meta, i, body);
        });
        for (_, verdict) in slots {
            verdict?;
        }
        self.enclave.charge_shield_crypto(meta.len);
        self.metrics.crypto_bytes_opened.add(meta.len);
        Ok(out)
    }

    /// Reads `len` bytes at `offset`, decrypting **only the chunks that
    /// overlap the range** — the reason the shield stores files in
    /// independently-sealed chunks rather than one blob.
    ///
    /// # Errors
    ///
    /// Same classes as [`FsShield::read`]; additionally
    /// [`ShieldError::FileTampered`] if the range exceeds the file.
    pub fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, ShieldError> {
        self.count_read(Self::read_range_inner(self, path, offset, len))
    }

    fn read_range_inner(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>, ShieldError> {
        self.enclave.charge_syscall();
        let meta = self
            .meta
            .get(path)
            .ok_or_else(|| ShieldError::FileNotFound(path.to_string()))?;
        iago::check_bounded_slice(offset, len, meta.len)
            .map_err(|_| ShieldError::FileTampered(format!("{path}: range out of bounds")))?;
        if len == 0 {
            return Ok(Vec::new());
        }

        // Only the chunks that overlap the range are looked at. Under the
        // store lock the object's size is checked, a chunk the cache holds
        // gives up just the bytes asked for, and the ciphertext of one it
        // does not is copied out by its offset, to be opened once the lock
        // is gone. (Lock order: store, then cache; nothing takes them the
        // other way.)
        let first_chunk = (offset / CHUNK_SIZE as u64) as usize;
        let last_chunk = ((offset + len - 1) / CHUNK_SIZE as u64) as usize;
        let (mut out, missed) = self.with_object(path, meta, |blob| {
            let mut out = vec![0u8; len as usize];
            let mut missed = Vec::new();
            for i in first_chunk..=last_chunk {
                let (src, at) = overlap(i, meta.chunk_len(i), offset, len);
                let dst = &mut out[at..at + src.len()];
                let cache_key = (meta.file_id, meta.version, i as u32);
                if self
                    .chunk_cache
                    .lock()
                    .copy_range(cache_key, src.clone(), dst)
                {
                    // Verified and decrypted on a previous read; serving
                    // from the in-enclave copy charges no crypto time.
                    self.metrics.chunk_cache_hits.inc();
                } else {
                    self.metrics.chunk_cache_misses.inc();
                    let chunk = &blob[i * CHUNK_SIZE..][..meta.chunk_len(i)];
                    missed.push((i, src, at, chunk.to_vec()));
                }
            }
            (out, missed)
        })?;
        if missed.is_empty() {
            // All cache hits: no subkey to derive, no crypto to charge.
            return Ok(out);
        }
        let key = self.chunk_key(meta.file_id, meta.epoch);
        let mut decrypted_bytes = 0u64;
        for (i, src, at, mut chunk) in missed {
            Self::open_chunk(&key, path, meta, i, &mut chunk)?;
            decrypted_bytes += chunk.len() as u64;
            out[at..at + src.len()].copy_from_slice(&chunk[src]);
            self.chunk_cache
                .lock()
                .insert((meta.file_id, meta.version, i as u32), chunk);
        }
        self.enclave.charge_shield_crypto(decrypted_bytes);
        self.metrics.crypto_bytes_opened.add(decrypted_bytes);
        Ok(out)
    }

    /// Deletes a file from the store and the metadata table. Returns
    /// whether the path existed.
    ///
    /// The removal is committed to the manifest (a tombstone record, or a
    /// checkpoint without the file) *before* the host delete, so a crash
    /// in between recovers to the post-delete state (file forgotten; the
    /// orphaned blob is unreadable without metadata).
    ///
    /// # Errors
    ///
    /// [`ShieldError::HostCrashed`] if the host dies mid-operation.
    pub fn delete(&mut self, path: &str) -> Result<bool, ShieldError> {
        self.enclave.charge_syscall();
        let known = self.meta.get(path).map(|m| m.file_id);
        if let Some(file_id) = known {
            self.chunk_cache.lock().invalidate_file(file_id);
            self.commit(path, None)?;
            self.meta.remove(path);
        }
        let had = self.store.shield_delete(path)?;
        Ok(known.is_some() || had)
    }

    /// Whether `path` currently exists: written through this shield, or
    /// present on the host (where a [`FsShield::read`] of it fails as
    /// tampered).
    pub fn exists(&self, path: &str) -> bool {
        self.meta.contains_key(path) || self.store.contains(path)
    }

    /// Returns the committed version of a file: it moves at a
    /// write's commit point, so a write that failed with the version
    /// moved is durable.
    pub fn version(&self, path: &str) -> Option<u64> {
        self.meta.get(path).map(|m| m.version)
    }

    // ---- crash consistency: manifest + journal ------------------------

    fn manifest_aad(&self) -> Vec<u8> {
        let mut aad = self.manifest_base.clone().into_bytes();
        aad.extend_from_slice(b"/manifest");
        aad
    }

    /// Deterministic encoding of the whole metadata table as of the next
    /// commit — `path` changed to `meta`, or gone for `None` — with files
    /// sorted by path, prefixed by the format magic and the generation it
    /// claims; [`decode_checkpoint`] reads it.
    fn encode_checkpoint(&self, generation: u64, path: &str, meta: Option<&FileMeta>) -> Vec<u8> {
        let mut files: Vec<(&str, &FileMeta)> = self
            .meta
            .iter()
            .map(|(p, m)| (p.as_str(), m))
            .filter(|(p, _)| *p != path)
            .chain(meta.map(|m| (path, m)))
            .collect();
        files.sort_unstable_by_key(|(p, _)| *p);
        let mut out = CHECKPOINT_MAGIC.to_vec();
        put_u64(&mut out, generation);
        put_u64(&mut out, self.next_file_id);
        put_u32(&mut out, files.len() as u32);
        for (p, m) in files {
            put_file_entry(&mut out, p, m);
        }
        out
    }

    /// Commits one change to the table — `path`'s new entry, or its
    /// removal for `None` — as the next generation, and advances the
    /// monotonic counter that pins it. The change is one MAC'd record
    /// appended to the log, unless the log cannot take it (see
    /// [`Log::takes`]): then the whole table, change included, is sealed
    /// as the next checkpoint, into the slot the current one is not in,
    /// so the previous checkpoint and its log stay intact until the new
    /// one has fully landed. Either put is the commit point.
    fn commit(&mut self, path: &str, meta: Option<&FileMeta>) -> Result<(), ShieldError> {
        let generation = self.enclave.counters().lock().read(self.counter)? + 1;
        let mut record = record_body(generation, &self.log.head, path, meta);
        let len = (record.len() + MAC_LEN) as u64;
        self.enclave.charge_syscall();
        if self.log.takes(generation, len) {
            // The MAC, charged as the checkpoint seal it stands in for is.
            self.enclave.charge_shield_crypto(len);
            let mac = seal_record(&self.log_key, &mut record);
            let at = Self::log_path(&self.manifest_base, self.log.records);
            self.store.shield_put(&at, record)?;
            self.log.records += 1;
            self.log.bytes += len;
            self.log.head = mac;
        } else {
            let slot = self.log.checkpoint.map_or(generation % 2, |c| 1 - c.slot);
            let plain = self.encode_checkpoint(generation, path, meta);
            let sealed = self
                .enclave
                .seal(SealPolicy::Measurement, &plain, &self.manifest_aad());
            let checkpoint = Checkpoint {
                generation,
                slot,
                len: sealed.len() as u64,
            };
            let head = checkpoint_link(&self.log_key, &sealed);
            self.store
                .shield_put(&Self::manifest_slot(&self.manifest_base, slot), sealed)?;
            self.log = Log {
                checkpoint: Some(checkpoint),
                head,
                ..Log::default()
            };
        }
        // NVRAM, not host storage: the increment cannot be lost to a
        // host crash once the put above has succeeded.
        self.enclave.counters().lock().increment(self.counter)?;
        self.generation = generation;
        Ok(())
    }

    /// Remounts a store after a crash: loads the freshest sealed
    /// checkpoint and replays its log up to the counter, renames each
    /// committed transaction's staged object into place and deletes every
    /// other one. It writes nothing else: a store with no journal residue
    /// is mounted without a single host write.
    ///
    /// A staged object is renamed without being authenticated first: its
    /// chunks are opened against their pinned tags by every read, so one
    /// the host tampered with reads as [`ShieldError::FileTampered`], just
    /// as the same bytes at the file's own path would.
    ///
    /// Keys derive from the enclave identity (like [`FsShield::new`]),
    /// so any enclave with the *same measurement on the same platform*
    /// can recover the files a dead instance wrote.
    ///
    /// # Errors
    ///
    /// * [`ShieldError::FileTampered`] — fail closed, counted in
    ///   `shield.fs.tamper_rejections` — if the counter says commits were
    ///   made but no checkpoint survives, or a log record between the
    ///   checkpoint and the counter is missing, stale or not linked to its
    ///   predecessor (whole-store or partial rollback, a spliced record,
    ///   or destruction).
    /// * [`ShieldError::UnsupportedFormat`] — also fail closed, counted in
    ///   `shield.fs.format_rejections` — if an authentic checkpoint or log
    ///   record is not in the v4 format (`STFMAN04` / `STFLOG02`), or the
    ///   journal holds a transaction directory, which only v1 to v3 stores
    ///   wrote.
    /// * [`ShieldError::HostCrashed`] if the host is still down.
    pub fn recover(
        enclave: Arc<Enclave>,
        store: UntrustedStore,
    ) -> Result<(Self, RecoveryReport), ShieldError> {
        let key = enclave.derived_key(b"fs-shield-v1");
        Self::recover_with_key(enclave, store, key)
    }

    /// Like [`FsShield::recover`] with an explicit file key (the
    /// [`FsShield::with_key`] counterpart).
    ///
    /// # Errors
    ///
    /// Same as [`FsShield::recover`].
    pub fn recover_with_key(
        enclave: Arc<Enclave>,
        store: UntrustedStore,
        key: Key,
    ) -> Result<(Self, RecoveryReport), ShieldError> {
        let t0 = enclave.clock().now_ns();
        let mut shield = Self::with_key(enclave, store, key);
        let counter_value = shield.enclave.counters().lock().read(shield.counter)?;

        shield.load_checkpoint(counter_value)?;
        if shield.log.checkpoint.is_some() {
            shield.replay_log(counter_value)?;
        } else if counter_value > 0 {
            // The counter proves commits were made, and every store's
            // first commit seals a checkpoint; none survived. Fail closed:
            // this is a rollback attack (or total destruction), not a
            // recoverable crash.
            return Err(shield.rolled_back("fs manifest checkpoint rolled back or destroyed"));
        }
        if shield.generation > counter_value {
            // The commit landed but the crash beat the counter increment;
            // catch the counter up to re-pin it.
            shield.enclave.counters().lock().increment(shield.counter)?;
        }

        // Journal scan: every staged object is renamed into place if the
        // table holds its `(file_id, version)` committed, and deleted
        // otherwise (torn or uncommitted: the write never happened).
        let prefix = format!("{}/txn/", shield.manifest_base);
        shield.enclave.charge_syscall();
        let staged: Vec<String> = shield
            .store
            .paths()
            .into_iter()
            .filter_map(|p| Some(p.strip_prefix(&prefix)?.to_string()))
            .collect();
        if staged.iter().any(|name| name.contains('/')) {
            return Err(shield.format_rejected(ShieldError::UnsupportedFormat(
                "fs journal holds a v1 to v3 transaction directory",
            )));
        }
        let (rolled_forward, discarded) = shield.settle_journal(&prefix, &staged)?;
        let recovery_ns = shield.enclave.clock().now_ns() - t0;
        shield.metrics.recovery_ns.add(recovery_ns);
        let report = RecoveryReport {
            generation: shield.generation,
            files: shield.meta.len(),
            rolled_forward,
            discarded,
            recovery_ns,
            epoch: shield.epoch,
        };
        Ok((shield, report))
    }

    /// Counts a mount refused for its store's format and passes the
    /// error on.
    fn format_rejected(&self, e: ShieldError) -> ShieldError {
        self.metrics.format_rejections.inc();
        e
    }

    /// Counts a mount refused as a rollback and returns its error.
    fn rolled_back(&self, what: &str) -> ShieldError {
        self.metrics.tamper_rejections.inc();
        ShieldError::FileTampered(what.to_string())
    }

    /// Adopts the freshest checkpoint in the two slots as the table. A
    /// checkpoint ahead of the counter by more than one generation (the
    /// crash may beat the increment by one) was not sealed on this
    /// platform's count and is skipped, as is one that does not unseal or
    /// decode; whether the one adopted is fresh enough is the log's to
    /// say.
    fn load_checkpoint(&mut self, counter_value: u64) -> Result<(), ShieldError> {
        let mut best: Option<(DecodedCheckpoint, Checkpoint, Vec<u8>)> = None;
        for slot in 0..2u64 {
            self.enclave.charge_syscall();
            let slot_path = Self::manifest_slot(&self.manifest_base, slot);
            let Some(sealed) = self.store.shield_get(&slot_path)? else {
                continue;
            };
            let Ok(plain) =
                self.enclave
                    .unseal(SealPolicy::Measurement, &sealed, &self.manifest_aad())
            else {
                continue;
            };
            let decoded = match decode_checkpoint(&plain, self.epoch) {
                Ok(decoded) => decoded,
                // Authentic but unreadable: neither skipped nor taken for
                // a fresh mount.
                Err(e @ ShieldError::UnsupportedFormat(_)) => return Err(self.format_rejected(e)),
                Err(_) => continue,
            };
            let fresher = best
                .as_ref()
                .is_none_or(|(b, ..)| b.generation < decoded.generation);
            if decoded.generation <= counter_value + 1 && fresher {
                let at = Checkpoint {
                    generation: decoded.generation,
                    slot,
                    len: sealed.len() as u64,
                };
                best = Some((decoded, at, sealed));
            }
        }
        if let Some((decoded, at, sealed)) = best {
            let head = checkpoint_link(&self.log_key, &sealed);
            self.generation = decoded.generation;
            self.next_file_id = decoded.next_file_id;
            self.meta = decoded.meta;
            self.log = Log {
                checkpoint: Some(at),
                head,
                ..Log::default()
            };
        }
        Ok(())
    }

    /// Replays the log after the adopted checkpoint: every generation up
    /// to the counter must be the next record, MAC-valid and linked to its
    /// predecessor, or the mount fails closed. One generation past the
    /// counter is applied if such a record is there (the crash beat the
    /// counter increment); anything else in its place is a write that
    /// never committed.
    fn replay_log(&mut self, counter_value: u64) -> Result<(), ShieldError> {
        while self.generation <= counter_value {
            let generation = self.generation + 1;
            self.enclave.charge_syscall();
            let at = Self::log_path(&self.manifest_base, self.log.records);
            // A record names its generation up front, so one an older log
            // left at this position is passed over unread. Passing over a
            // record fails the mount closed or leaves a write uncommitted,
            // as a forged one would after its MAC check.
            let named = generation.to_le_bytes();
            let bytes = self.store.shield_view(&at, |stored| {
                let stored = stored.filter(|b| b.get(8..16) == Some(&named[..]));
                stored.map(<[u8]>::to_vec)
            })?;
            let record = match bytes {
                Some(bytes) => {
                    self.enclave.charge_shield_crypto(bytes.len() as u64);
                    decode_record(&self.log_key, &bytes, self.epoch)
                        .map_err(|e| self.format_rejected(e))?
                        .map(|record| (record, bytes.len() as u64))
                }
                None => None,
            };
            let linked = record
                .filter(|(r, _)| r.generation == generation && ct::eq(&r.prev, &self.log.head));
            let Some((record, len)) = linked else {
                if generation > counter_value {
                    break;
                }
                let what = "fs manifest log record missing, stale or out of chain";
                return Err(self.rolled_back(what));
            };
            self.log.records += 1;
            self.log.bytes += len;
            self.log.head = record.mac;
            self.generation = generation;
            match record.meta {
                Some(meta) => {
                    self.next_file_id = self.next_file_id.max(meta.file_id.saturating_add(1));
                    self.meta.insert(record.path, meta);
                }
                None => {
                    self.meta.remove(&record.path);
                }
            }
        }
        Ok(())
    }

    /// Settles the journal's staged objects, named `name` under `prefix`,
    /// against the recovered table; returns how many were renamed into
    /// place and how many deleted.
    fn settle_journal(
        &self,
        prefix: &str,
        staged: &[String],
    ) -> Result<(usize, usize), ShieldError> {
        // Each object is named `<file_id:016x>-<version:016x>`; the table's
        // entry for that file id says whether it committed.
        let by_id: HashMap<u64, (&str, u64)> = self
            .meta
            .iter()
            .map(|(p, m)| (m.file_id, (p.as_str(), m.version)))
            .collect();
        let (mut rolled_forward, mut discarded) = (0, 0);
        for name in staged {
            let committed = name
                .split_once('-')
                .and_then(|(id, version)| {
                    let id = u64::from_str_radix(id, 16).ok()?;
                    Some((id, u64::from_str_radix(version, 16).ok()?))
                })
                .and_then(|(id, version)| by_id.get(&id).filter(|(_, v)| *v == version));
            let txn = format!("{prefix}{name}");
            self.enclave.charge_syscall();
            match committed {
                Some(&(path, _)) => {
                    self.store.shield_rename(&txn, path)?;
                    self.metrics.journal_commits.inc();
                    rolled_forward += 1;
                }
                None => {
                    self.store.shield_delete(&txn)?;
                    self.metrics.journal_rollbacks.inc();
                    discarded += 1;
                }
            }
        }
        Ok((rolled_forward, discarded))
    }

    /// Generation of the newest commit to the manifest this shield made
    /// or recovered (0 before any): one per protected write and delete.
    pub fn manifest_generation(&self) -> u64 {
        self.generation
    }

    /// The enclave this shield is bound to.
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use securetf_tee::{EnclaveImage, ExecutionMode, Platform};

    fn setup() -> (FsShield, UntrustedStore) {
        shield_on(Platform::builder().build())
    }

    /// [`setup`] on a platform with telemetry on, for tests that read
    /// the shield's counters.
    fn setup_with_telemetry() -> (FsShield, UntrustedStore) {
        let clock = securetf_tee::SimClock::new();
        shield_on(
            Platform::builder()
                .telemetry(clock.telemetry())
                .clock(clock)
                .build(),
        )
    }

    fn shield_on(platform: Platform) -> (FsShield, UntrustedStore) {
        let enclave = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"fs test").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let store = UntrustedStore::new();
        (FsShield::new(enclave, store.clone()), store)
    }

    /// `(hits, misses)` of the chunk cache so far, as the shield's
    /// counters tally them.
    fn cache_tallies(shield: &FsShield) -> (u64, u64) {
        let t = shield.enclave().telemetry();
        (
            t.counter("shield.fs.chunk_cache_hits").get(),
            t.counter("shield.fs.chunk_cache_misses").get(),
        )
    }

    #[test]
    fn encrypt_roundtrip() {
        let (mut shield, _store) = setup();
        shield.write("/secure/a", b"hello world").unwrap();
        assert_eq!(shield.read("/secure/a").unwrap(), b"hello world");
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut shield, store) = setup();
        let secret = b"very secret model weights";
        shield.write("/secure/model", secret).unwrap();
        let raw = store.raw_contents("/secure/model").unwrap();
        assert!(!raw.windows(secret.len()).any(|w| w == secret));
    }

    #[test]
    fn every_path_is_encrypted_and_authenticated() {
        let (mut shield, store) = setup();
        let secret = b"plainly readable";
        for path in ["/secure/a", "/auth/log", "/plain/notes", "/"] {
            shield.write(path, secret).unwrap();
            let raw = store.raw_contents(path).unwrap();
            assert!(!raw.windows(secret.len()).any(|w| w == secret), "{path}");
            store.corrupt(path, 12);
            assert!(
                matches!(shield.read(path), Err(ShieldError::FileTampered(_))),
                "{path}"
            );
        }
    }

    #[test]
    fn a_host_file_without_metadata_reads_as_tampered() {
        let (mut shield, store) = setup();
        store.raw_put("/plain/notes", b"public".to_vec());
        assert!(shield.exists("/plain/notes"));
        assert!(matches!(
            shield.read("/plain/notes"),
            Err(ShieldError::FileTampered(_))
        ));
        assert!(shield.delete("/plain/notes").unwrap());
        assert!(matches!(
            shield.read("/plain/notes"),
            Err(ShieldError::FileNotFound(_))
        ));
    }

    #[test]
    fn every_corrupted_byte_position_detected() {
        let (mut shield, store) = setup();
        shield.write("/secure/f", &[7u8; 300]).unwrap();
        let len = store.raw_contents("/secure/f").unwrap().len();
        for pos in (0..len).step_by(13) {
            let (mut shield2, store2) = setup();
            shield2.write("/secure/f", &[7u8; 300]).unwrap();
            store2.corrupt("/secure/f", pos);
            assert!(
                matches!(shield2.read("/secure/f"), Err(ShieldError::FileTampered(_))),
                "corruption at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn rollback_to_previous_version_detected() {
        let (mut shield, store) = setup();
        shield.write("/secure/ckpt", b"version 1").unwrap();
        let old = store.raw_contents("/secure/ckpt").unwrap();
        shield.write("/secure/ckpt", b"version 2").unwrap();
        // Attacker restores the old (correctly encrypted!) file.
        store.raw_put("/secure/ckpt", old);
        assert!(matches!(
            shield.read("/secure/ckpt"),
            Err(ShieldError::FileTampered(_))
        ));
    }

    #[test]
    fn cross_file_swap_detected() {
        let (mut shield, store) = setup();
        shield.write("/secure/a", b"contents of a").unwrap();
        shield.write("/secure/b", b"contents of b").unwrap();
        // Attacker swaps the two files on disk.
        let a = store.raw_contents("/secure/a").unwrap();
        let b = store.raw_contents("/secure/b").unwrap();
        store.raw_put("/secure/a", b);
        store.raw_put("/secure/b", a);
        assert!(shield.read("/secure/a").is_err());
        assert!(shield.read("/secure/b").is_err());
    }

    #[test]
    fn deletion_detected() {
        let (mut shield, store) = setup();
        shield.write("/secure/x", b"data").unwrap();
        store.raw_delete("/secure/x");
        assert!(matches!(
            shield.read("/secure/x"),
            Err(ShieldError::FileNotFound(_))
        ));
    }

    #[test]
    fn truncation_detected() {
        let (mut shield, store) = setup();
        shield.write("/secure/x", &[9u8; 1000]).unwrap();
        let mut raw = store.raw_contents("/secure/x").unwrap();
        raw.truncate(raw.len() - 1);
        store.raw_put("/secure/x", raw);
        assert!(matches!(
            shield.read("/secure/x"),
            Err(ShieldError::FileTampered(_))
        ));
    }

    #[test]
    fn appended_bytes_detected() {
        let (mut shield, store) = setup();
        shield.write("/secure/x", b"data").unwrap();
        let mut raw = store.raw_contents("/secure/x").unwrap();
        raw.push(0);
        store.raw_put("/secure/x", raw);
        assert!(matches!(
            shield.read("/secure/x"),
            Err(ShieldError::FileTampered(_))
        ));
    }

    #[test]
    fn multi_chunk_files_roundtrip() {
        let (mut shield, _store) = setup();
        let big: Vec<u8> = (0..3 * CHUNK_SIZE + 123).map(|i| (i % 251) as u8).collect();
        shield.write("/secure/big", &big).unwrap();
        assert_eq!(shield.read("/secure/big").unwrap(), big);
    }

    #[test]
    fn chunk_reorder_detected() {
        let (mut shield, store) = setup();
        let big: Vec<u8> = vec![1u8; 2 * CHUNK_SIZE];
        shield.write("/secure/big", &big).unwrap();
        // Swap the two chunks on disk.
        let mut raw = store.raw_contents("/secure/big").unwrap();
        raw.rotate_left(CHUNK_SIZE);
        store.raw_put("/secure/big", raw);
        assert!(shield.read("/secure/big").is_err());
    }

    #[test]
    fn empty_file_roundtrip() {
        let (mut shield, _store) = setup();
        shield.write("/secure/empty", b"").unwrap();
        assert_eq!(shield.read("/secure/empty").unwrap(), b"");
    }

    #[test]
    fn version_increments_per_write() {
        let (mut shield, _store) = setup();
        shield.write("/secure/v", b"1").unwrap();
        assert_eq!(shield.version("/secure/v"), Some(1));
        shield.write("/secure/v", b"2").unwrap();
        assert_eq!(shield.version("/secure/v"), Some(2));
    }

    #[test]
    fn shared_key_shields_interoperate() {
        // Two enclaves (e.g. two workers) provisioned with the same file
        // key by CAS can read each other's files.
        let platform = Platform::builder().build();
        let store = UntrustedStore::new();
        let key = Key::from_bytes([0x77; 32]);
        let make = |code: &[u8]| {
            platform
                .create_enclave(
                    &EnclaveImage::builder().code(code).build(),
                    ExecutionMode::Hardware,
                )
                .unwrap()
        };
        let mut w1 = FsShield::with_key(make(b"w1"), store.clone(), key.clone());
        let mut w2 = FsShield::with_key(make(b"w2"), store.clone(), key);
        w1.write("/secure/shared", b"model").unwrap();
        // Metadata is per-shield; w2 must import it by re-reading after its
        // own write, so here we only check w2's writes don't clash.
        w2.write("/secure/other", b"data").unwrap();
        assert_eq!(w1.read("/secure/shared").unwrap(), b"model");
        assert_eq!(w2.read("/secure/other").unwrap(), b"data");
    }

    #[test]
    fn read_range_matches_full_read() {
        let (mut shield, _store) = setup();
        let big: Vec<u8> = (0..3 * CHUNK_SIZE + 500).map(|i| (i % 253) as u8).collect();
        shield.write("/secure/big", &big).unwrap();
        for (offset, len) in [
            (0u64, 10u64),
            (CHUNK_SIZE as u64 - 5, 10),
            (CHUNK_SIZE as u64 * 2, CHUNK_SIZE as u64 + 100),
            (big.len() as u64 - 7, 7),
            (1000, 0),
        ] {
            let range = shield.read_range("/secure/big", offset, len).unwrap();
            assert_eq!(
                range,
                &big[offset as usize..(offset + len) as usize],
                "range ({offset}, {len})"
            );
        }
    }

    #[test]
    fn read_range_is_cheaper_than_full_read() {
        let (mut shield, _store) = setup();
        let big = vec![5u8; 8 * CHUNK_SIZE];
        shield.write("/secure/big", &big).unwrap();
        let clock = shield.enclave().clock().clone();
        let t0 = clock.now_ns();
        shield.read_range("/secure/big", 0, 100).unwrap();
        let partial = clock.now_ns() - t0;
        let t0 = clock.now_ns();
        shield.read("/secure/big").unwrap();
        let full = clock.now_ns() - t0;
        assert!(partial * 4 < full, "partial {partial} vs full {full}");
    }

    #[test]
    fn read_range_bounds_and_tamper() {
        let (mut shield, store) = setup();
        shield
            .write("/secure/f", &vec![1u8; 2 * CHUNK_SIZE])
            .unwrap();
        assert!(shield
            .read_range("/secure/f", 2 * CHUNK_SIZE as u64 - 1, 2)
            .is_err());
        assert!(shield.read_range("/missing", 0, 1).is_err());
        // `offset + len` wraps to 1: an error in debug builds (where the
        // unchecked sum panicked) and in release (where it passed the
        // bound test).
        assert!(matches!(
            shield.read_range("/secure/f", u64::MAX, 2),
            Err(ShieldError::FileTampered(_))
        ));
        // Corrupt the second chunk; a range in the first chunk still reads.
        let raw_len = store.raw_contents("/secure/f").unwrap().len();
        store.corrupt("/secure/f", raw_len - 10);
        assert!(shield.read_range("/secure/f", 0, 100).is_ok());
        // But a range touching the corrupted chunk fails.
        assert!(shield
            .read_range("/secure/f", CHUNK_SIZE as u64 + 10, 100)
            .is_err());
    }

    #[test]
    fn cached_range_reads_charge_no_extra_crypto() {
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .clock(clock.clone())
            .telemetry(telemetry.clone())
            .build();
        let enclave = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"fs cache test").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let mut shield = FsShield::new(enclave, UntrustedStore::new());
        let big: Vec<u8> = (0..3 * CHUNK_SIZE).map(|i| (i % 241) as u8).collect();
        shield.write("/secure/model", &big).unwrap();

        // First range read decrypts the two overlapping chunks.
        let range = (CHUNK_SIZE as u64 - 100, 200u64);
        let first = shield
            .read_range("/secure/model", range.0, range.1)
            .unwrap();
        let crypto_ns = telemetry.counter("cost.crypto.ns").get();
        let crypto_events = telemetry.counter("cost.crypto.events").get();
        assert!(crypto_ns > 0);
        assert_eq!(telemetry.counter("shield.fs.chunk_cache_hits").get(), 0);

        // The repeat — the model-load hot path — serves both chunks from
        // the in-enclave cache: same bytes, zero additional crypto time.
        let second = shield
            .read_range("/secure/model", range.0, range.1)
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(telemetry.counter("cost.crypto.ns").get(), crypto_ns);
        assert_eq!(telemetry.counter("cost.crypto.events").get(), crypto_events);
        assert_eq!(telemetry.counter("shield.fs.chunk_cache_hits").get(), 2);

        // A sub-range of a cached chunk is also free and correct.
        let sub = shield
            .read_range("/secure/model", range.0 + 10, 50)
            .unwrap();
        assert_eq!(sub, &big[range.0 as usize + 10..range.0 as usize + 60]);
        assert_eq!(telemetry.counter("cost.crypto.ns").get(), crypto_ns);
    }

    #[test]
    fn chunk_cache_is_invalidated_by_rewrite_and_delete() {
        let (mut shield, _store) = setup();
        let v1 = vec![1u8; 2 * CHUNK_SIZE];
        shield.write("/secure/m", &v1).unwrap();
        assert_eq!(
            shield.read_range("/secure/m", 0, 16).unwrap(),
            vec![1u8; 16]
        );
        // Rewrite: the next range read must see v2, not cached v1 chunks.
        let v2 = vec![2u8; 2 * CHUNK_SIZE];
        shield.write("/secure/m", &v2).unwrap();
        assert_eq!(
            shield.read_range("/secure/m", 0, 16).unwrap(),
            vec![2u8; 16]
        );
        assert!(shield.delete("/secure/m").unwrap());
        assert!(shield.read_range("/secure/m", 0, 16).is_err());
    }

    #[test]
    fn chunk_cache_eviction_keeps_reads_correct() {
        let (mut shield, _store) = setup_with_telemetry();
        // More chunks than the cache holds: every read stays correct as
        // older entries are evicted.
        let chunks = CHUNK_CACHE_CAP + 4;
        let big: Vec<u8> = (0..chunks * CHUNK_SIZE).map(|i| (i % 239) as u8).collect();
        shield.write("/secure/big", &big).unwrap();
        for round in 0..2 {
            for c in 0..chunks {
                let offset = (c * CHUNK_SIZE) as u64 + 7;
                let got = shield.read_range("/secure/big", offset, 32).unwrap();
                assert_eq!(
                    got,
                    &big[offset as usize..offset as usize + 32],
                    "round {round} chunk {c}"
                );
            }
        }
        // A cycle longer than the cache is LRU's worst case: each chunk was
        // evicted before its turn came round again.
        assert_eq!(cache_tallies(&shield), (0, 2 * chunks as u64));
    }

    #[test]
    fn hot_chunk_survives_any_number_of_cold_inserts() {
        let (mut shield, _store) = setup_with_telemetry();
        let chunks = 2 * CHUNK_CACHE_CAP + 3;
        let big: Vec<u8> = (0..chunks * CHUNK_SIZE).map(|i| (i % 233) as u8).collect();
        shield.write("/secure/big", &big).unwrap();
        // Chunk 0 is touched between every two cold chunks: least recently
        // used eviction keeps it, first-in-first-out would have dropped it
        // after CHUNK_CACHE_CAP inserts.
        shield.read_range("/secure/big", 5, 32).unwrap();
        for cold in 1..chunks {
            let offset = (cold * CHUNK_SIZE) as u64 + 9;
            let got = shield.read_range("/secure/big", offset, 16).unwrap();
            assert_eq!(got, &big[offset as usize..offset as usize + 16]);
            assert_eq!(
                shield.read_range("/secure/big", 5, 32).unwrap(),
                &big[5..37]
            );
        }
        // One miss per distinct chunk, one hit per revisit of chunk 0.
        assert_eq!(cache_tallies(&shield), (chunks as u64 - 1, chunks as u64));
        // Rewrite and delete still drop the hot chunk.
        shield.write("/secure/big", &vec![7u8; CHUNK_SIZE]).unwrap();
        assert_eq!(
            shield.read_range("/secure/big", 5, 32).unwrap(),
            vec![7u8; 32]
        );
        assert!(shield.delete("/secure/big").unwrap());
        assert!(shield.read_range("/secure/big", 5, 32).is_err());
    }

    #[test]
    fn pooled_read_is_identical_for_any_worker_count() {
        let worker_counts = [1usize, 2, 3, 8];
        for len in [0usize, 1, 2 * CHUNK_SIZE, 3 * CHUNK_SIZE + 123] {
            let (mut shield, store) = setup();
            let path = format!("/secure/f{len}");
            let data: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
            shield.write(&path, &data).unwrap();
            for workers in worker_counts {
                shield.set_worker_pool(WorkerPool::new(workers));
                assert_eq!(
                    shield.read(&path).unwrap(),
                    data,
                    "{path}, {workers} workers"
                );
            }
            if len <= 3 * CHUNK_SIZE {
                continue;
            }
            // Two tampered chunks: every worker count reports the lower.
            assert!(store.corrupt(&path, 3 * CHUNK_SIZE + 100));
            assert!(store.corrupt(&path, CHUNK_SIZE + 7));
            let mut errors = Vec::new();
            for workers in worker_counts {
                shield.set_worker_pool(WorkerPool::new(workers));
                errors.push(shield.read(&path).unwrap_err());
            }
            assert!(
                matches!(&errors[0], ShieldError::FileTampered(what) if what.contains("chunk 1 ")),
                "{:?}",
                errors[0]
            );
            assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
        }
    }

    #[test]
    fn read_range_of_the_last_chunk_still_validates_the_whole_blob() {
        let data: Vec<u8> = (0..2 * CHUNK_SIZE + 300).map(|i| (i % 247) as u8).collect();
        let tail = (2 * CHUNK_SIZE as u64 + 100, 150u64);
        type Tamper = fn(&mut Vec<u8>);
        let tampers: [(&str, Tamper); 2] = [
            ("truncated by one byte", |blob| {
                blob.pop();
            }),
            ("one trailing byte", |blob| blob.push(0)),
        ];
        for (what, tamper) in tampers {
            for warm in [false, true] {
                let (mut shield, store) = setup();
                shield.write("/secure/f", &data).unwrap();
                if warm {
                    // With the last chunk cached the size is still checked.
                    shield.read_range("/secure/f", tail.0, tail.1).unwrap();
                }
                let mut blob = store.raw_contents("/secure/f").unwrap();
                tamper(&mut blob);
                store.raw_put("/secure/f", blob);
                assert!(
                    matches!(
                        shield.read_range("/secure/f", tail.0, tail.1),
                        Err(ShieldError::FileTampered(_))
                    ),
                    "{what} (cache warm: {warm}) went undetected"
                );
            }
        }
    }

    #[test]
    fn chunk_cache_hit_rate_reflects_hits_and_misses() {
        let (mut shield, _store) = setup_with_telemetry();
        let data: Vec<u8> = (0..CHUNK_SIZE).map(|i| (i % 227) as u8).collect();
        shield.write("/secure/f", &data).unwrap();
        shield.read("/secure/f").unwrap(); // a full read bypasses the cache
        assert_eq!(cache_tallies(&shield), (0, 0));
        shield.read_range("/secure/f", 0, 8).unwrap(); // miss
        assert_eq!(cache_tallies(&shield), (0, 1));
        shield.read_range("/secure/f", 0, 8).unwrap(); // hit
        assert_eq!(cache_tallies(&shield), (1, 1));
        shield.read_range("/secure/f", 100, 8).unwrap(); // hit (same chunk)
        assert_eq!(cache_tallies(&shield), (2, 1));
    }

    #[test]
    fn fs_metrics_count_ops_and_tamper_rejections() {
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .clock(clock)
            .telemetry(telemetry.clone())
            .build();
        let enclave = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"fs test").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let store = UntrustedStore::new();
        let mut shield = FsShield::new(enclave, store.clone());
        shield.write("/secure/a", b"twelve bytes").unwrap();
        assert_eq!(shield.read("/secure/a").unwrap(), b"twelve bytes");
        assert_eq!(telemetry.counter("shield.fs.writes").get(), 1);
        assert_eq!(telemetry.counter("shield.fs.reads").get(), 1);
        assert_eq!(telemetry.counter("shield.fs.bytes_written").get(), 12);
        assert_eq!(telemetry.counter("shield.fs.bytes_read").get(), 12);
        assert_eq!(telemetry.counter("shield.fs.tamper_rejections").get(), 0);

        // Tampered reads count as rejections, not reads.
        store.corrupt("/secure/a", 10);
        assert!(shield.read("/secure/a").is_err());
        assert_eq!(telemetry.counter("shield.fs.reads").get(), 1);
        assert_eq!(telemetry.counter("shield.fs.tamper_rejections").get(), 1);

        // A missing file is not a tamper rejection.
        assert!(matches!(
            shield.read("/nope"),
            Err(ShieldError::FileNotFound(_))
        ));
        assert_eq!(telemetry.counter("shield.fs.tamper_rejections").get(), 1);
    }

    // ---- crash consistency ------------------------------------------

    /// A platform kept alive so a second enclave (the "restarted"
    /// process) can be created with the same identity and NVRAM.
    fn crash_setup() -> (Platform, Arc<Enclave>, UntrustedStore) {
        let platform = Platform::builder().build();
        let enclave = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"fs crash test").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        (platform, enclave, UntrustedStore::new())
    }

    fn restart_enclave(platform: &Platform) -> Arc<Enclave> {
        platform
            .create_enclave(
                &EnclaveImage::builder().code(b"fs crash test").build(),
                ExecutionMode::Hardware,
            )
            .unwrap()
    }

    #[test]
    fn manifest_plaintext_is_parsed_with_bounds() {
        // The manifest is unsealed before it is parsed, so the harness in
        // tests/hostile_input.rs cannot reach this decoder with anything
        // but the original plaintext; check its bounds here.
        let (mut shield, _store) = setup();
        shield
            .write("/secure/a", &vec![1u8; CHUNK_SIZE + 1])
            .unwrap();
        let plain = shield.encode_checkpoint(7, "/secure/a", shield.meta.get("/secure/a"));
        // As the next mount reads it.
        let decode = |bytes: &[u8]| decode_checkpoint(bytes, shield.epoch + 1);
        let decoded = decode(&plain).unwrap();
        assert_eq!(decoded.generation, 7);
        let meta = &decoded.meta["/secure/a"];
        assert_eq!(
            (meta.chunks(), meta.tags.len(), meta.epoch),
            (2, 32, shield.epoch)
        );
        for cut in 0..plain.len() {
            assert!(decode(&plain[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = plain.clone();
        longer.push(0);
        assert!(decode(&longer).is_err());
        // The only file's chunk count sits right before its two tags, its
        // epoch right before that.
        let count_at = plain.len() - 2 * aead::TAG_LEN - 4;
        for hostile in [3u32, u32::MAX] {
            let mut inflated = plain.clone();
            inflated[count_at..count_at + 4].copy_from_slice(&hostile.to_le_bytes());
            assert!(decode(&inflated).is_err(), "count {hostile}");
        }
        let epoch_at = count_at - 8;
        for hostile in [0, shield.epoch + 1, u64::MAX] {
            let mut moved = plain.clone();
            moved[epoch_at..epoch_at + 8].copy_from_slice(&hostile.to_le_bytes());
            assert!(decode(&moved).is_err(), "epoch {hostile}");
        }
        // The entry is only readable by a later mount.
        assert!(decode_checkpoint(&plain, shield.epoch).is_err());
        // The v3 magic is a format this build does not read.
        let mut v3 = plain.clone();
        v3[..8].copy_from_slice(b"STFMAN03");
        assert!(matches!(
            decode(&v3),
            Err(ShieldError::UnsupportedFormat(_))
        ));
    }

    #[test]
    fn log_records_are_parsed_with_bounds() {
        // A record's body is only parsed once its MAC verifies, so the
        // harness in tests/hostile_input.rs reaches this decoder behind
        // the MAC only by re-MACing; check the bounds here, re-MAC'd.
        let (mut shield, _store) = setup();
        shield
            .write("/secure/a", &vec![1u8; CHUNK_SIZE + 1])
            .unwrap();
        let meta = shield.meta["/secure/a"].clone();
        let decode = |body: &[u8]| {
            let mut record = body.to_vec();
            seal_record(&shield.log_key, &mut record);
            decode_record(&shield.log_key, &record, shield.epoch + 1)
        };
        let head = [7u8; MAC_LEN];
        for meta in [Some(&meta), None] {
            let body = record_body(5, &head, "/secure/a", meta);
            let record = decode(&body).unwrap().expect("well-formed");
            assert_eq!((record.generation, record.prev), (5, head));
            assert_eq!(record.path, "/secure/a");
            assert_eq!(record.meta.map(|m| m.tags), meta.map(|m| m.tags.clone()));
            let rejected = |bytes: &[u8]| decode(bytes).ok().flatten().is_none();
            for cut in 0..body.len() {
                assert!(rejected(&body[..cut]), "cut at {cut}");
            }
            let mut longer = body.clone();
            longer.push(0);
            assert!(rejected(&longer));
            // An unknown kind, right after the link.
            let mut kind = body.clone();
            kind[48] = 9;
            assert!(rejected(&kind));
        }
        // Without its MAC, or under another key, a record is not one.
        let mut body = record_body(5, &head, "/secure/a", Some(&meta));
        assert!(decode_record(&shield.log_key, &body, shield.epoch + 1)
            .unwrap()
            .is_none());
        seal_record(&Key::from_bytes([1; 32]), &mut body);
        assert!(decode_record(&shield.log_key, &body, shield.epoch + 1)
            .unwrap()
            .is_none());
        // An authentic record with another magic is a format this build
        // does not read.
        let mut v3 = record_body(5, &head, "/secure/a", Some(&meta));
        v3[..8].copy_from_slice(b"STFLOG01");
        assert!(matches!(
            decode(&v3),
            Err(ShieldError::UnsupportedFormat(_))
        ));
    }

    #[test]
    fn journaled_write_reclaims_all_staging() {
        let (_p, enclave, store) = crash_setup();
        let mut shield = FsShield::new(enclave, store.clone());
        shield
            .write("/secure/f", &vec![3u8; 2 * CHUNK_SIZE + 9])
            .unwrap();
        let paths = store.paths();
        assert!(
            !paths.iter().any(|p| p.contains("/txn/")),
            "staging residue left behind: {paths:?}"
        );
        assert!(
            paths.iter().any(|p| p.contains("/manifest-")),
            "no manifest published: {paths:?}"
        );
        assert_eq!(shield.manifest_generation(), 1);
    }

    #[test]
    fn fresh_enclave_recovers_every_file_the_dead_one_wrote() {
        let (platform, enclave, store) = crash_setup();
        let big: Vec<u8> = (0..2 * CHUNK_SIZE + 77).map(|i| (i % 251) as u8).collect();
        {
            let mut shield = FsShield::new(enclave, store.clone());
            shield.write("/secure/model", &big).unwrap();
            shield.write("/secure/log", b"append only").unwrap();
            shield.write("/secure/small", b"x").unwrap();
        } // enclave process dies; in-memory metadata is gone
        let (recovered, report) = FsShield::recover(restart_enclave(&platform), store).unwrap();
        assert_eq!(recovered.read("/secure/model").unwrap(), big);
        assert_eq!(recovered.read("/secure/log").unwrap(), b"append only");
        assert_eq!(recovered.read("/secure/small").unwrap(), b"x");
        assert_eq!(report.files, 3);
        assert_eq!(report.rolled_forward, 0);
        assert_eq!(report.discarded, 0);
    }

    #[test]
    fn crash_before_commit_aborts_and_preserves_old_content() {
        let (platform, enclave, store) = crash_setup();
        let mut shield = FsShield::new(enclave, store.clone());
        shield.write("/secure/f", b"old contents").unwrap();
        // Multi-chunk overwrite, crash on the very first staging put.
        store.fail_after_ops(0);
        let err = shield.write("/secure/f", &vec![9u8; 3 * CHUNK_SIZE]);
        assert!(matches!(err, Err(ShieldError::HostCrashed(_))));
        store.host_restart();
        let (recovered, report) = FsShield::recover(restart_enclave(&platform), store).unwrap();
        assert_eq!(recovered.read("/secure/f").unwrap(), b"old contents");
        assert_eq!(report.rolled_forward, 0);
    }

    #[test]
    fn crash_after_commit_rolls_forward_to_new_content() {
        let (platform, enclave, store) = crash_setup();
        let mut shield = FsShield::new(enclave, store.clone());
        shield.write("/secure/f", b"old contents").unwrap();
        let new: Vec<u8> = (0..2 * CHUNK_SIZE).map(|i| (i % 13) as u8).collect();
        // Op 1 stages, op 2 commits, then crash before the rename.
        store.fail_after_ops(2);
        let err = shield.write("/secure/f", &new);
        assert!(matches!(err, Err(ShieldError::HostCrashed(_))));
        store.host_restart();
        let (recovered, report) = FsShield::recover(restart_enclave(&platform), store).unwrap();
        assert_eq!(recovered.read("/secure/f").unwrap(), new);
        assert_eq!(report.rolled_forward, 1);
    }

    #[test]
    fn aborted_write_burns_its_version_so_the_retry_gets_a_fresh_nonce() {
        let (_p, enclave, store) = crash_setup();
        let mut shield = FsShield::new(enclave, store.clone());
        shield.write("/secure/f", &[0x55u8; 64]).unwrap();
        // The staged object lands, the commit does not.
        store.fail_after_ops(1);
        assert!(matches!(
            shield.write("/secure/f", &[0x11u8; 64]),
            Err(ShieldError::HostCrashed(_))
        ));
        store.host_restart();
        assert_eq!(shield.version("/secure/f"), Some(1));
        let staged_path = store
            .paths()
            .into_iter()
            .find(|p| p.contains("/txn/"))
            .expect("the aborted transaction's staged object reached the host");
        let staged = store.raw_contents(&staged_path).unwrap();
        shield.write("/secure/f", &[0x77u8; 64]).unwrap();
        assert_eq!(shield.read("/secure/f").unwrap(), [0x77u8; 64]);
        assert_eq!(shield.version("/secure/f"), Some(3), "version 2 was burned");

        // The host has seen a chunk sealed under the aborted version and
        // the installed one. Under one nonce they would XOR to the XOR of
        // their plaintexts, 0x11 ^ 0x77 on every byte.
        let installed = store.raw_contents("/secure/f").unwrap();
        let keystream_reused = staged
            .iter()
            .zip(&installed)
            .all(|(a, b)| a ^ b == 0x11 ^ 0x77);
        assert!(
            !keystream_reused,
            "retry sealed under the aborted write's nonce"
        );
    }

    #[test]
    fn a_remounted_retry_seals_under_a_new_epoch() {
        // The across-remount case the in-memory burn cannot cover: the
        // dead instance staged version 2, the fresh one restores version 1
        // from the manifest and seals version 2 again — under its own
        // epoch's subkey.
        let (platform, enclave, store) = crash_setup();
        let mut shield = FsShield::new(enclave, store.clone());
        shield.write("/secure/f", &[0x55u8; 64]).unwrap();
        store.fail_after_ops(1);
        assert!(shield.write("/secure/f", &[0x11u8; 64]).is_err());
        store.host_restart();
        let staged_path = store
            .paths()
            .into_iter()
            .find(|p| p.contains("/txn/"))
            .expect("the aborted transaction's staged object reached the host");
        let staged = store.raw_contents(&staged_path).unwrap();
        let dead_epoch = shield.epoch;
        drop(shield);

        let (mut recovered, report) =
            FsShield::recover(restart_enclave(&platform), store.clone()).unwrap();
        assert_eq!(report.epoch, dead_epoch + 1);
        assert_eq!(recovered.version("/secure/f"), Some(1));
        recovered.write("/secure/f", &[0x77u8; 64]).unwrap();
        assert_eq!(recovered.version("/secure/f"), Some(2), "same version");
        let installed = store.raw_contents("/secure/f").unwrap();
        assert!(
            !staged
                .iter()
                .zip(&installed)
                .all(|(a, b)| a ^ b == 0x11 ^ 0x77),
            "the remounted retry sealed under the dead instance's key and nonce"
        );
        assert_eq!(recovered.read("/secure/f").unwrap(), [0x77u8; 64]);
    }

    #[test]
    fn every_construction_takes_the_next_mount_epoch() {
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .clock(clock)
            .telemetry(telemetry.clone())
            .build();
        let image = EnclaveImage::builder().code(b"fs epochs").build();
        let enclave = || {
            platform
                .create_enclave(&image, ExecutionMode::Hardware)
                .unwrap()
        };
        let store = UntrustedStore::new();
        let a = FsShield::new(enclave(), store.clone());
        let b = FsShield::with_key(enclave(), store.clone(), Key::from_bytes([3; 32]));
        let (c, report) = FsShield::recover(enclave(), store).unwrap();
        assert_eq!((a.epoch, b.epoch, c.epoch), (1, 2, 3));
        assert_eq!(report.epoch, 3);
        assert_eq!(telemetry.gauge("shield.fs.mount_epoch").get(), 3);
        // Another identity on the same platform counts on its own.
        let other = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"another identity").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        assert_eq!(FsShield::new(other, UntrustedStore::new()).epoch, 1);
    }

    #[test]
    fn a_tampered_staged_object_is_renamed_in_and_fails_its_first_read() {
        type Tamper = fn(&UntrustedStore, &str);
        let tampers: [(&str, Tamper); 3] = [
            (
                "bit flip",
                |store, staged| assert!(store.corrupt(staged, 5)),
            ),
            ("truncation", |store, staged| {
                assert!(store.truncate(staged, 9))
            }),
            ("emptied", |store, staged| store.raw_put(staged, Vec::new())),
        ];
        for (what, tamper) in tampers {
            let clock = securetf_tee::SimClock::new();
            let telemetry = clock.telemetry();
            let platform = Platform::builder()
                .clock(clock)
                .telemetry(telemetry.clone())
                .build();
            let store = UntrustedStore::new();
            let mut shield = FsShield::new(restart_enclave(&platform), store.clone());
            shield.write("/secure/f", b"old contents").unwrap();
            // Op 1 stages, op 2 commits, then crash before the rename.
            store.fail_after_ops(2);
            assert!(shield.write("/secure/f", &[9u8; CHUNK_SIZE]).is_err());
            store.host_restart();
            let staged = store.paths().into_iter().find(|p| p.contains("/txn/"));
            tamper(&store, &staged.unwrap());
            let (recovered, report) = FsShield::recover(restart_enclave(&platform), store).unwrap();
            // Renamed in unread, like any committed transaction…
            assert_eq!((report.rolled_forward, report.discarded), (1, 0), "{what}");
            let rejections = || telemetry.counter("shield.fs.tamper_rejections").get();
            assert_eq!(rejections(), 0, "{what}");
            // …and the write committed, so serving the old contents would
            // be a rollback: the file fails closed at its first read.
            assert!(
                matches!(
                    recovered.read("/secure/f"),
                    Err(ShieldError::FileTampered(_))
                ),
                "{what}"
            );
            assert_eq!(rejections(), 1, "{what}");
        }
    }

    /// `!fs/<mr8>` of the shield identity [`crash_setup`] runs as.
    fn crash_base(platform: &Platform) -> String {
        let shield = FsShield::new(restart_enclave(platform), UntrustedStore::new());
        shield.manifest_base.clone()
    }

    #[test]
    fn a_v1_manifest_fails_closed_with_a_typed_error() {
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .clock(clock)
            .telemetry(telemetry.clone())
            .build();
        let image = EnclaveImage::builder().code(b"fs crash test").build();
        let enclave = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        let base = crash_base(&platform);
        // A v1 plaintext: `u64 generation | u64 next_file_id | u32
        // policies | u32 files`, no magic — what that format sealed for an
        // empty table; and v2's, `STFMAN02` and then the same fields.
        let mut v1 = Vec::new();
        put_u64(&mut v1, 1);
        put_u64(&mut v1, 1);
        put_u32(&mut v1, 0);
        put_u32(&mut v1, 0);
        let v2 = [&b"STFMAN02"[..], &v1].concat();
        let aad = format!("{base}/manifest");
        for (rejected, plain) in [v1, v2].iter().enumerate() {
            let sealed = enclave.seal(SealPolicy::Measurement, plain, aad.as_bytes());
            let store = UntrustedStore::new();
            store.raw_put(&format!("{base}/manifest-1"), sealed);
            assert!(matches!(
                FsShield::recover(enclave.clone(), store),
                Err(ShieldError::UnsupportedFormat(_))
            ));
            let counted = telemetry.counter("shield.fs.format_rejections").get();
            assert_eq!(counted, rejected as u64 + 1);
        }
    }

    #[test]
    fn a_v1_commit_record_fails_closed_with_a_typed_error() {
        // v1 and v2 journals committed with a `commit` record in the
        // transaction directory (`STFJRNL1` / `STFJRNL2 | entry | hmac32`),
        // beside one staged record per chunk; v3 staged the records alone.
        // This format stages one object per transaction and commits
        // through the manifest's log.
        for magic in [Some(b"STFJRNL1"), Some(b"STFJRNL2"), None] {
            let clock = securetf_tee::SimClock::new();
            let telemetry = clock.telemetry();
            let platform = Platform::builder()
                .clock(clock)
                .telemetry(telemetry.clone())
                .build();
            let (enclave, store) = (restart_enclave(&platform), UntrustedStore::new());
            let base = crash_base(&platform);
            let txn = FsShield::txn_path(&base, 1, 1);
            let staged = format!("{txn}/c000000");
            store.raw_put(&staged, vec![0; 19]);
            if let Some(magic) = magic {
                let mut record = magic.to_vec();
                put_len_prefixed(&mut record, b"/secure/f");
                record.extend_from_slice(&[0xab; 32 + 32]);
                store.raw_put(&format!("{txn}/commit"), record);
            }
            assert!(matches!(
                FsShield::recover(enclave, store.clone()),
                Err(ShieldError::UnsupportedFormat(_))
            ));
            assert_eq!(telemetry.counter("shield.fs.format_rejections").get(), 1);
            // Not skipped either: the journal is still there for an
            // operator.
            assert!(store.contains(&staged));
        }
    }

    #[test]
    fn torn_final_put_is_discarded_not_applied() {
        let (platform, enclave, store) = crash_setup();
        let mut shield = FsShield::new(enclave, store.clone());
        shield.write("/secure/f", b"old contents").unwrap();
        // Op 1 stages; crash on the commit put itself (in a one-file
        // store, a new checkpoint), landing only 7 bytes of it: the commit
        // is torn, so the transaction never happened.
        store.fail_after_ops_torn(1, 7);
        assert!(shield.write("/secure/f", b"new contents").is_err());
        store.host_restart();
        let (recovered, report) = FsShield::recover(restart_enclave(&platform), store).unwrap();
        assert_eq!(recovered.read("/secure/f").unwrap(), b"old contents");
        assert_eq!(report.rolled_forward, 0);
        assert!(report.discarded >= 1, "torn txn not discarded");
    }

    #[test]
    fn reads_fail_while_host_is_down_then_work_after_restart() {
        let (_p, enclave, store) = crash_setup();
        let mut shield = FsShield::new(enclave, store.clone());
        shield.write("/secure/f", b"data").unwrap();
        store.fail_after_ops(0);
        assert!(matches!(
            shield.write("/secure/g", b"x"),
            Err(ShieldError::HostCrashed(_))
        ));
        assert!(matches!(
            shield.read("/secure/f"),
            Err(ShieldError::HostCrashed(_))
        ));
        store.host_restart();
        // Same shield instance: its in-enclave metadata is intact, reads
        // come back once the host does.
        assert_eq!(shield.read("/secure/f").unwrap(), b"data");
    }

    #[test]
    fn whole_store_rollback_fails_closed_on_recovery() {
        let (platform, enclave, store) = crash_setup();
        let mut shield = FsShield::new(enclave, store.clone());
        shield.write("/secure/f", b"generation 1").unwrap();
        let old_disk = store.snapshot();
        shield.write("/secure/f", b"generation 2").unwrap();
        shield.write("/secure/g", b"also new").unwrap();
        // The adversary restores the whole disk image to the older
        // snapshot. The manifest on it is validly sealed — but stale, and
        // the monotonic counter proves it.
        store.restore(&old_disk);
        assert!(matches!(
            FsShield::recover(restart_enclave(&platform), store),
            Err(ShieldError::FileTampered(_))
        ));
    }

    #[test]
    fn aborted_writes_counted_and_durable_bytes_not_overstated() {
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .clock(clock)
            .telemetry(telemetry.clone())
            .build();
        let enclave = platform
            .create_enclave(
                &EnclaveImage::builder().code(b"fs metrics crash").build(),
                ExecutionMode::Hardware,
            )
            .unwrap();
        let store = UntrustedStore::new();
        let mut shield = FsShield::new(enclave, store.clone());
        shield.write("/secure/a", b"durable").unwrap();
        assert_eq!(telemetry.counter("shield.fs.writes").get(), 1);
        assert_eq!(telemetry.counter("shield.fs.bytes_written").get(), 7);
        assert_eq!(telemetry.counter("shield.fs.journal_commits").get(), 1);
        // An aborted write must count neither writes nor bytes.
        store.fail_after_ops(0);
        assert!(shield.write("/secure/b", b"never lands").is_err());
        assert_eq!(telemetry.counter("shield.fs.writes").get(), 1);
        assert_eq!(telemetry.counter("shield.fs.bytes_written").get(), 7);
        assert_eq!(telemetry.counter("shield.fs.aborted_writes").get(), 1);
    }

    #[test]
    fn recovery_charges_virtual_time() {
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .clock(clock)
            .telemetry(telemetry.clone())
            .build();
        let image = EnclaveImage::builder().code(b"fs recovery time").build();
        let store = UntrustedStore::new();
        {
            let enclave = platform
                .create_enclave(&image, ExecutionMode::Hardware)
                .unwrap();
            let mut shield = FsShield::new(enclave, store.clone());
            shield.write("/secure/f", &vec![1u8; CHUNK_SIZE]).unwrap();
        }
        let enclave = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        let (_shield, report) = FsShield::recover(enclave, store).unwrap();
        assert!(report.recovery_ns > 0);
        assert_eq!(
            telemetry.counter("shield.fs.recovery_ns").get(),
            report.recovery_ns
        );
    }

    /// `Enclave::seal` calls on `enclave` so far, this probe's included:
    /// the probe's nonce carries the per-instance seal count.
    fn seals(enclave: &Enclave) -> u64 {
        let probe = enclave.seal(SealPolicy::Measurement, &[], b"seal probe");
        u64::from_le_bytes(probe[4..12].try_into().unwrap())
    }

    #[test]
    fn a_write_between_compactions_seals_nothing_and_costs_three_host_ops() {
        // The `store_write` table: 512 small files and 8 large ones (one
        // chunk each while the table fills), ~37 KB of checkpoint. Every
        // 50th write rewrites a large file as a 1 MiB checkpoint would be.
        let (platform, enclave, store) = crash_setup();
        let mut shield = FsShield::new(enclave.clone(), store.clone());
        let small = |i: usize| format!("/data/small/{:03}", i % 512);
        let large = |i: usize| format!("/data/large/{}", i % 8);
        for i in 0..512 {
            shield.write(&small(i), &[i as u8; 4096]).unwrap();
        }
        for i in 0..8 {
            shield.write(&large(i), &vec![i as u8; CHUNK_SIZE]).unwrap();
        }
        let mut compactions = Vec::new();
        for round in 0..600 {
            let (path, len) = if round % 50 == 0 {
                (large(round), 1 << 20)
            } else {
                (small(round), 4096)
            };
            let (sealed, ops) = (seals(&enclave), store.op_count());
            shield.write(&path, &vec![round as u8; len]).unwrap();
            // Stage, commit, rename: with or without compaction, whatever
            // the size.
            assert_eq!(store.op_count() - ops, 3, "write {round}");
            match seals(&enclave) - sealed - 1 {
                0 => {}
                1 => compactions.push(round),
                n => panic!("write {round} sealed {n} times"),
            }
            // The host object is the ciphertext and nothing else.
            assert_eq!(
                store.raw_contents(&path).unwrap().len(),
                len,
                "write {round}"
            );
        }
        // ~150-byte records against the checkpoint: one seal per ~240
        // writes, none in between.
        let gaps: Vec<usize> = compactions.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            !gaps.is_empty() && gaps.iter().all(|&gap| gap > 200),
            "compacted at {compactions:?}"
        );
        assert!(
            (0..600)
                .step_by(50)
                .any(|round| !compactions.contains(&round)),
            "no 1 MiB write appended to the log"
        );

        // A remount with no journal residue writes nothing to the host.
        drop(shield);
        let ops = store.op_count();
        let (recovered, report) =
            FsShield::recover(restart_enclave(&platform), store.clone()).unwrap();
        assert_eq!(store.op_count(), ops, "recover wrote to the host");
        assert_eq!((report.files, report.generation), (520, 520 + 600));
        assert_eq!(
            recovered.read(&small(599)).unwrap(),
            [(599 % 256) as u8; 4096]
        );
        assert_eq!(
            recovered.read(&large(550)).unwrap(),
            vec![(550 % 256) as u8; 1 << 20]
        );
    }

    #[test]
    fn another_identity_holding_the_file_key_cannot_forge_a_log_record() {
        // Enclave A keeps its files under a CAS-shared file key K, and
        // enclave B — another measurement on the same platform — was
        // provisioned K too. With the host's help, B stages an object in
        // A's namespace and appends the log record that commits it, keyed as
        // B's own shield under K keys everything (A's measurement, which
        // names the namespace, is public).
        let platform = Platform::builder().build();
        let spawn = |code: &[u8]| {
            platform
                .create_enclave(
                    &EnclaveImage::builder().code(code).build(),
                    ExecutionMode::Hardware,
                )
                .unwrap()
        };
        let k = Key::from_bytes([0x42; 32]);
        let store = UntrustedStore::new();
        let mut a = FsShield::with_key(spawn(b"A"), store.clone(), k.clone());
        a.write("/model", b"the real model").unwrap();
        let mut b = FsShield::with_key(spawn(b"B"), UntrustedStore::new(), k.clone());
        b.manifest_base = a.manifest_base.clone();
        let forged = b"attacker chosen bytes";
        let (path, file_id, version) = ("/forged", 99, 1);
        let nonce = FsShield::chunk_nonce(version, 0);
        let aad = FsShield::chunk_aad(path, version, 0, 1);
        let mut chunk = forged.to_vec();
        let key = b.chunk_key(file_id, b.epoch);
        let tag = aead::seal_in_place_detached(&key, &nonce, &mut chunk, &aad);
        let meta = FileMeta {
            version,
            len: forged.len() as u64,
            file_id,
            epoch: b.epoch,
            tags: tag.to_vec(),
        };
        let txn = FsShield::txn_path(&a.manifest_base, file_id, version);
        store.raw_put(&txn, chunk);
        // Generation 2, the first record after A's checkpoint.
        let slot = a.log.checkpoint.expect("the first write compacts").slot;
        let checkpoint = store
            .raw_contents(&FsShield::manifest_slot(&a.manifest_base, slot))
            .unwrap();
        let link = checkpoint_link(&b.log_key, &checkpoint);
        let mut record = record_body(2, &link, path, Some(&meta));
        seal_record(&b.log_key, &mut record);
        store.raw_put(&FsShield::log_path(&a.manifest_base, 0), record);
        drop(a);

        let (a, report) = FsShield::recover_with_key(spawn(b"A"), store, k).unwrap();
        assert_eq!(report.rolled_forward, 0, "A rolled B's forgery forward");
        assert!(matches!(a.read(path), Err(ShieldError::FileNotFound(_))));
        assert_eq!(a.read("/model").unwrap(), b"the real model");
    }

    #[test]
    fn truncate_helper_tampers_detectably() {
        let (mut shield, store) = setup();
        shield.write("/secure/f", &vec![4u8; 1000]).unwrap();
        assert!(store.truncate("/secure/f", 100));
        assert!(!store.truncate("/secure/f", 5000), "no-op past the end");
        assert!(matches!(
            shield.read("/secure/f"),
            Err(ShieldError::FileTampered(_))
        ));
    }

    #[test]
    fn read_charges_crypto_time() {
        let (mut shield, _store) = setup();
        let data = vec![0u8; 1_000_000];
        shield.write("/secure/big", &data).unwrap();
        let t0 = shield.enclave().clock().now_ns();
        shield.read("/secure/big").unwrap();
        let elapsed = shield.enclave().clock().now_ns() - t0;
        // 1 MB at 4 GB/s = 250 µs.
        assert!(elapsed >= 250_000, "crypto time not charged: {elapsed}");
    }
}
