//! ChaCha20-Poly1305 AEAD (RFC 7539 §2.8).
//!
//! This is the authenticated-encryption workhorse of the whole stack: the
//! file-system shield, the network shield record layer, EPC page sealing
//! and the CAS secret database all encrypt through this module.
//!
//! Three API tiers share one wire format (`ciphertext || tag`):
//!
//! * **in-place detached** ([`seal_in_place_detached`] /
//!   [`open_in_place_detached`], also on [`AeadCtx`]) — encrypts the
//!   caller's buffer and returns/accepts the tag separately; performs
//!   **zero heap allocations**, and derives the Poly1305 key and payload
//!   keystream from a single ChaCha20 key schedule (block 0 → one-time
//!   key, blocks 1.. → payload) — for a record of up to 448 bytes, from a
//!   single engine call,
//! * **chunked** ([`Sealer`] / [`Opener`]) — one long record a chunk at
//!   a time, in place, tag at the end: the bytes and tag of the in-place
//!   tier for every chunking, so a caller can hand each chunk to another
//!   pass (a digest, a copy) while the next one is in flight, and
//! * **allocating wrappers** ([`seal`] / [`open`]) — the original
//!   convenience API, now thin shims over the in-place core with output
//!   capacity reserved up front.
//!
//! The original correctness-first AEAD (scalar one-block ChaCha20,
//! allocating pad path) is the tests' oracle and lives in the test tree
//! (`tests/oracle/aead.rs`).
//!
//! # Examples
//!
//! ```
//! use securetf_crypto::aead::{seal, open, Key, Nonce};
//!
//! # fn main() -> Result<(), securetf_crypto::CryptoError> {
//! let key = Key::from_bytes([3u8; 32]);
//! let nonce = Nonce::from_bytes([5u8; 12]);
//! let ct = seal(&key, &nonce, b"plaintext", b"aad");
//! assert_eq!(open(&key, &nonce, &ct, b"aad")?, b"plaintext");
//! assert!(open(&key, &nonce, &ct, b"other aad").is_err());
//! # Ok(())
//! # }
//! ```
//!
//! Zero-alloc steady state with a reusable context and buffer:
//!
//! ```
//! use securetf_crypto::aead::{AeadCtx, Key, Nonce, TAG_LEN};
//!
//! # fn main() -> Result<(), securetf_crypto::CryptoError> {
//! let ctx = AeadCtx::new(Key::from_bytes([3u8; 32]));
//! let nonce = Nonce::from_counter(7, 1);
//! let mut buf = *b"in-place payload";
//! let tag = ctx.seal_in_place_detached(&nonce, &mut buf, b"aad");
//! ctx.open_in_place_detached(&nonce, &mut buf, &tag, b"aad")?;
//! assert_eq!(&buf, b"in-place payload");
//! # Ok(())
//! # }
//! ```

use crate::chacha20::{xor_into, ChaCha20, PREFETCH};
use crate::ct;
use crate::poly1305::Poly1305;
use crate::CryptoError;

/// Length of the authentication tag appended to each ciphertext.
pub const TAG_LEN: usize = 16;
/// Length of an AEAD key.
pub const KEY_LEN: usize = 32;
/// Length of an AEAD nonce.
pub const NONCE_LEN: usize = 12;

/// A 256-bit AEAD key. Zeroed on drop.
#[derive(Clone, PartialEq, Eq)]
pub struct Key([u8; KEY_LEN]);

impl Drop for Key {
    fn drop(&mut self) {
        // Best-effort scrubbing of key material from memory.
        for b in self.0.iter_mut() {
            // Volatile write prevents the store from being elided.
            unsafe { std::ptr::write_volatile(b, 0) };
        }
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Key(..)")
    }
}

impl Key {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        Key(bytes)
    }

    /// Derives a key from a byte slice by hashing (for non-uniform input).
    pub fn derive_from(material: &[u8]) -> Self {
        Key(crate::sha256::digest(material))
    }

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }
}

/// A 96-bit AEAD nonce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nonce([u8; NONCE_LEN]);

impl Nonce {
    /// Wraps raw nonce bytes.
    pub fn from_bytes(bytes: [u8; NONCE_LEN]) -> Self {
        Nonce(bytes)
    }

    /// Builds a nonce from a 64-bit sequence number and a 32-bit stream id.
    ///
    /// The network shield derives record nonces this way so that a single
    /// key never reuses a nonce across directions.
    pub fn from_counter(stream_id: u32, seq: u64) -> Self {
        let mut n = [0u8; NONCE_LEN];
        n[..4].copy_from_slice(&stream_id.to_le_bytes());
        n[4..].copy_from_slice(&seq.to_le_bytes());
        Nonce(n)
    }

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; NONCE_LEN] {
        &self.0
    }
}

/// Starts a `len`-byte record's ChaCha20 stream with one engine call:
/// block 0 — whose first half is the Poly1305 one-time key — and the
/// first payload blocks land in `head` (all of the payload's, up to 448
/// bytes: the narrowest engine that covers `1 + ceil(len / 64)` blocks, a
/// function of `len` and the CPU only). Returns the cipher, sitting on the
/// first block that is not in `head`, and how many bytes of `head` it
/// filled. `head` stays in the caller's frame: written once, never moved.
#[inline]
fn start_cipher(
    key: &Key,
    nonce: &Nonce,
    len: usize,
    head: &mut [u8; PREFETCH],
) -> (ChaCha20, usize) {
    let mut cipher = ChaCha20::new(&key.0, &nonce.0, 0);
    let have = cipher.prefetch(1 + len.div_ceil(64), head);
    (cipher, have)
}

/// The Poly1305 one-time key of a record whose stream starts with `head`.
fn one_time_key(head: &[u8; PREFETCH]) -> &[u8; 32] {
    head.first_chunk().expect("a block is longer than a key")
}

/// XORs a record's payload keystream into `buf`: blocks 1 onwards of
/// `head` (block 0 went to Poly1305), then whatever `cipher` streams
/// behind them.
#[inline]
fn apply_payload_keystream(mut cipher: ChaCha20, head: &[u8], buf: &mut [u8]) {
    let (first, rest) = buf.split_at_mut((head.len() - 64).min(buf.len()));
    xor_into(first, &head[64..]);
    if !rest.is_empty() {
        cipher.apply_keystream(rest);
    }
}

/// RFC 7539 §2.8 tag over `pad16(aad) | pad16(ciphertext) | LE64
/// lengths`, absorbed as whole 16-byte blocks (no per-record allocations
/// and no trip through the authenticator's partial-block buffer).
fn compute_tag(pk: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(pk);
    mac.update_padded(aad);
    mac.update_padded(ciphertext);
    let mut lens = [0u8; 16];
    lens[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lens[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    mac.update_padded(&lens);
    mac.finalize()
}

/// Encrypts `buf` in place and returns the detached tag.
///
/// This is the zero-allocation core every other seal entry point wraps:
/// no heap traffic, and the Poly1305 key (block 0) and the payload
/// keystream of a short record come out of one ChaCha20 engine call.
pub fn seal_in_place_detached(
    key: &Key,
    nonce: &Nonce,
    buf: &mut [u8],
    aad: &[u8],
) -> [u8; TAG_LEN] {
    let mut head = [0u8; PREFETCH];
    let (cipher, have) = start_cipher(key, nonce, buf.len(), &mut head);
    apply_payload_keystream(cipher, &head[..have], buf);
    compute_tag(one_time_key(&head), aad, buf)
}

/// Verifies `tag` over the ciphertext in `buf`, then decrypts in place.
///
/// Authentication runs **before** decryption: on error the buffer still
/// holds the untouched ciphertext, never unauthenticated plaintext.
///
/// # Errors
///
/// * [`CryptoError::TruncatedInput`] if `tag` is not exactly [`TAG_LEN`].
/// * [`CryptoError::TagMismatch`] if authentication fails.
pub fn open_in_place_detached(
    key: &Key,
    nonce: &Nonce,
    buf: &mut [u8],
    tag: &[u8],
    aad: &[u8],
) -> Result<(), CryptoError> {
    if tag.len() != TAG_LEN {
        return Err(CryptoError::TruncatedInput);
    }
    let mut head = [0u8; PREFETCH];
    let (cipher, have) = start_cipher(key, nonce, buf.len(), &mut head);
    let expect = compute_tag(one_time_key(&head), aad, buf);
    if !ct::eq(&expect, tag) {
        return Err(CryptoError::TagMismatch);
    }
    apply_payload_keystream(cipher, &head[..have], buf);
    Ok(())
}

/// A reusable AEAD context owning a key.
///
/// Holding the key in a context lets steady-state callers (the shields'
/// record loops) seal and open through the in-place entry points with
/// zero heap allocations; the append variants reuse the capacity of a
/// caller-provided scratch `Vec` across records.
#[derive(Clone)]
pub struct AeadCtx {
    key: Key,
}

impl std::fmt::Debug for AeadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AeadCtx(..)")
    }
}

impl AeadCtx {
    /// Wraps a key in a reusable context.
    pub fn new(key: Key) -> Self {
        AeadCtx { key }
    }

    /// Returns the underlying key.
    pub fn key(&self) -> &Key {
        &self.key
    }

    /// Encrypts `buf` in place and returns the detached tag.
    pub fn seal_in_place_detached(
        &self,
        nonce: &Nonce,
        buf: &mut [u8],
        aad: &[u8],
    ) -> [u8; TAG_LEN] {
        seal_in_place_detached(&self.key, nonce, buf, aad)
    }

    /// Verifies `tag` and decrypts `buf` in place.
    ///
    /// # Errors
    ///
    /// Same contract as [`open_in_place_detached`].
    pub fn open_in_place_detached(
        &self,
        nonce: &Nonce,
        buf: &mut [u8],
        tag: &[u8],
        aad: &[u8],
    ) -> Result<(), CryptoError> {
        open_in_place_detached(&self.key, nonce, buf, tag, aad)
    }

    /// Seals `plaintext`, appending `ciphertext || tag` to `out`.
    ///
    /// Reuses `out`'s existing capacity, so a scratch buffer cleared and
    /// passed back in each record allocates only until it reaches the
    /// high-water mark.
    pub fn seal_append(&self, nonce: &Nonce, plaintext: &[u8], aad: &[u8], out: &mut Vec<u8>) {
        out.reserve(plaintext.len() + TAG_LEN);
        let start = out.len();
        out.extend_from_slice(plaintext);
        let tag = seal_in_place_detached(&self.key, nonce, &mut out[start..], aad);
        out.extend_from_slice(&tag);
    }

    /// Opens `sealed` (`ciphertext || tag`), appending the plaintext to
    /// `out`. On error `out` is left exactly as passed in.
    ///
    /// # Errors
    ///
    /// Same contract as [`open`].
    pub fn open_append(
        &self,
        nonce: &Nonce,
        sealed: &[u8],
        aad: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::TruncatedInput);
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let start = out.len();
        out.extend_from_slice(ciphertext);
        match open_in_place_detached(&self.key, nonce, &mut out[start..], tag, aad) {
            Ok(()) => Ok(()),
            Err(e) => {
                out.truncate(start);
                Err(e)
            }
        }
    }
}

/// The running state of one record sealed or opened a chunk at a time:
/// the payload keystream from block 1 on, the authenticator keyed by
/// block 0 with the padded AAD already absorbed, and the keystream left
/// over from a block the last chunk ended inside, so that any chunking
/// of the record meets the same keystream and MAC input as
/// [`seal_in_place_detached`] does in one call.
struct Stream {
    cipher: ChaCha20,
    mac: Poly1305,
    /// The last block drawn from `cipher`; its bytes before `used` are spent.
    spare: [u8; 64],
    used: usize,
    aad_len: u64,
    len: u64,
}

impl Stream {
    fn new(key: &Key, nonce: &Nonce, aad: &[u8]) -> Self {
        let mut cipher = ChaCha20::new(&key.0, &nonce.0, 0);
        let block0 = cipher.next_block();
        let mut mac = Poly1305::new(block0.first_chunk().expect("a block is longer than a key"));
        mac.update_padded(aad);
        Stream {
            cipher,
            mac,
            spare: [0; 64],
            used: 64,
            aad_len: aad.len() as u64,
            len: 0,
        }
    }

    /// XORs the next `buf.len()` keystream bytes into `buf`: what is left
    /// of the spare block, the whole blocks on the wide engines, and a
    /// tail from one fresh block whose rest is kept for the next chunk.
    fn keystream(&mut self, buf: &mut [u8]) {
        let (head, rest) = buf.split_at_mut((64 - self.used).min(buf.len()));
        xor_into(head, &self.spare[self.used..]);
        self.used += head.len();
        let (whole, tail) = rest.split_at_mut(rest.len() / 64 * 64);
        if !whole.is_empty() {
            self.cipher.apply_keystream(whole);
        }
        if !tail.is_empty() {
            self.spare = self.cipher.next_block();
            xor_into(tail, &self.spare);
            self.used = tail.len();
        }
    }

    /// Absorbs the next ciphertext bytes into the tag.
    fn absorb(&mut self, ciphertext: &[u8]) {
        self.mac.update(ciphertext);
        self.len += ciphertext.len() as u64;
    }

    /// The RFC 7539 tag over everything absorbed: the ciphertext's
    /// `pad16`, then the two lengths.
    fn tag(mut self) -> [u8; TAG_LEN] {
        let partial = (self.len % 16) as usize;
        if partial != 0 {
            self.mac.update(&[0u8; 16][partial..]);
        }
        let mut lens = [0u8; 16];
        lens[..8].copy_from_slice(&self.aad_len.to_le_bytes());
        lens[8..].copy_from_slice(&self.len.to_le_bytes());
        self.mac.update_padded(&lens);
        self.mac.finalize()
    }
}

/// Seals one long record a chunk at a time, in place, with the tag at the
/// end: for every way of cutting the record into chunks, the ciphertext
/// and tag are those of [`seal_in_place_detached`] on the whole record.
/// Long records only — it starts its keystream with a block of its own
/// instead of the one engine call a short record takes in one piece.
///
/// ```
/// use securetf_crypto::aead::{seal_in_place_detached, Key, Nonce, Sealer};
///
/// let (key, nonce) = (Key::from_bytes([3; 32]), Nonce::from_counter(1, 1));
/// let mut whole = vec![7u8; 1000];
/// let tag = seal_in_place_detached(&key, &nonce, &mut whole, b"aad");
/// let mut chunked = vec![7u8; 1000];
/// let mut sealer = Sealer::new(&key, &nonce, b"aad");
/// for chunk in chunked.chunks_mut(300) {
///     sealer.seal_chunk(chunk);
/// }
/// assert_eq!((chunked, sealer.finish()), (whole, tag));
/// ```
pub struct Sealer(Stream);

impl std::fmt::Debug for Sealer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sealer(..)")
    }
}

impl Sealer {
    /// Starts a record under `key` and `nonce` with associated data `aad`.
    pub fn new(key: &Key, nonce: &Nonce, aad: &[u8]) -> Self {
        Sealer(Stream::new(key, nonce, aad))
    }

    /// Encrypts the record's next bytes in place.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if the record outgrows the 32-bit
    /// block counter (256 GiB under one nonce).
    pub fn seal_chunk(&mut self, chunk: &mut [u8]) {
        self.0.keystream(chunk);
        self.0.absorb(chunk);
    }

    /// The record's detached tag.
    pub fn finish(self) -> [u8; TAG_LEN] {
        self.0.tag()
    }
}

/// Opens one long record a chunk at a time, the counterpart of
/// [`Sealer`]: each chunk is authenticated, then decrypted where it lies.
/// The plaintext counts for nothing until [`Opener::finish`] has checked
/// the tag — it takes the buffer the chunks were decrypted in and hands
/// it back only if the tag verifies, and drops it otherwise.
pub struct Opener(Stream);

impl std::fmt::Debug for Opener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Opener(..)")
    }
}

impl Opener {
    /// Starts a record under `key` and `nonce` with associated data `aad`.
    pub fn new(key: &Key, nonce: &Nonce, aad: &[u8]) -> Self {
        Opener(Stream::new(key, nonce, aad))
    }

    /// Absorbs the record's next ciphertext bytes, then decrypts them in
    /// place.
    ///
    /// # Panics
    ///
    /// As [`Sealer::seal_chunk`].
    pub fn open_chunk(&mut self, chunk: &mut [u8]) {
        self.0.absorb(chunk);
        self.0.keystream(chunk);
    }

    /// Checks `tag` over every chunk opened, and returns `plaintext` —
    /// the buffer those chunks were decrypted in — if it verifies.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::TruncatedInput`] if `tag` is not [`TAG_LEN`] bytes
    ///   or `plaintext` is not as long as the chunks opened.
    /// * [`CryptoError::TagMismatch`] if authentication fails.
    ///
    /// `plaintext` is dropped on every error.
    pub fn finish(self, tag: &[u8], plaintext: Vec<u8>) -> Result<Vec<u8>, CryptoError> {
        if tag.len() != TAG_LEN || plaintext.len() as u64 != self.0.len {
            return Err(CryptoError::TruncatedInput);
        }
        if !ct::eq(&self.0.tag(), tag) {
            return Err(CryptoError::TagMismatch);
        }
        Ok(plaintext)
    }
}

/// Encrypts and authenticates `plaintext` with associated data `aad`.
///
/// Returns `ciphertext || tag`. Thin wrapper over
/// [`seal_in_place_detached`] with the full output capacity (payload +
/// tag) reserved up front, so the tag append never reallocates.
pub fn seal(key: &Key, nonce: &Nonce, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    let tag = seal_in_place_detached(key, nonce, &mut out, aad);
    out.extend_from_slice(&tag);
    out
}

/// Verifies and decrypts `sealed` (as produced by [`seal`]).
///
/// # Errors
///
/// * [`CryptoError::TruncatedInput`] if `sealed` is shorter than a tag.
/// * [`CryptoError::TagMismatch`] if authentication fails (tampered
///   ciphertext, wrong key/nonce or wrong associated data).
pub fn open(key: &Key, nonce: &Nonce, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
    if sealed.len() < TAG_LEN {
        return Err(CryptoError::TruncatedInput);
    }
    let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
    let mut out = ciphertext.to_vec();
    open_in_place_detached(key, nonce, &mut out, tag, aad)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::aead::{open_reference, seal_reference};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 7539 §2.8.2 AEAD test vector.
    #[test]
    fn rfc7539_aead_vector() {
        let key = Key::from_bytes(
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap(),
        );
        let nonce = Nonce::from_bytes(unhex("070000004041424344454647").try_into().unwrap());
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let sealed = seal(&key, &nonce, plaintext, &aad);
        let (ct_part, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(hex(&ct_part[..16]), "d31a8d34648e60db7b86afbc53ef7ec2");
        assert_eq!(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");
        assert_eq!(open(&key, &nonce, &sealed, &aad).unwrap(), plaintext);
    }

    // RFC 8439 §2.6.2: Poly1305 one-time key generation from ChaCha20
    // block 0 (the key schedule `start_cipher` relies on).
    #[test]
    fn rfc8439_poly1305_key_gen_vector() {
        let key = Key::from_bytes(
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap(),
        );
        let nonce = Nonce::from_bytes(unhex("000000000001020304050607").try_into().unwrap());
        let mut head = [0u8; PREFETCH];
        start_cipher(&key, &nonce, 0, &mut head);
        let pk = *one_time_key(&head);
        assert_eq!(
            hex(&pk),
            "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646"
        );
    }

    // RFC 8439 appendix A.5: the full AEAD *decryption* vector.
    #[test]
    fn rfc8439_a5_decryption_vector() {
        let key = Key::from_bytes(
            unhex("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0")
                .try_into()
                .unwrap(),
        );
        let nonce = Nonce::from_bytes(unhex("000000000102030405060708").try_into().unwrap());
        let aad = unhex("f33388860000000000004e91");
        let mut sealed = unhex(
            "64a0861575861af460f062c79be643bd\
             5e805cfd345cf389f108670ac76c8cb2\
             4c6cfc18755d43eea09ee94e382d26b0\
             bdb7b73c321b0100d4f03b7f355894cf\
             332f830e710b97ce98c8a84abd0b9481\
             14ad176e008d33bd60f982b1ff37c855\
             9797a06ef4f0ef61c186324e2b350638\
             3606907b6a7c02b0f9f6157b53c867e4\
             b9166c767b804d46a59b5216cde7a4e9\
             9040c5a40433225ee282a1b0a06c523e\
             af4534d7f83fa1155b0047718cbc546a\
             0d072b04b3564eea1b422273f548271a\
             0bb2316053fa76991955ebd63159434e\
             cebb4e466dae5a1073a6727627097a10\
             49e617d91d361094fa68f0ff77987130\
             305beaba2eda04df997b714d6c6f2c29\
             a6ad5cb4022b02709b",
        );
        let tag = unhex("eead9d67890cbb22392336fea1851f38");
        sealed.extend_from_slice(&tag);
        let plaintext = open(&key, &nonce, &sealed, &aad).unwrap();
        let expect = "Internet-Drafts are draft documents valid for a maximum of six \
months and may be updated, replaced, or obsoleted by other documents at any time. It is \
inappropriate to use Internet-Drafts as reference material or to cite them other than as \
/\u{201c}work in progress./\u{201d}";
        assert_eq!(plaintext, expect.as_bytes());
        // Same record through the reference and in-place paths.
        assert_eq!(
            open_reference(&key, &nonce, &sealed, &aad).unwrap(),
            plaintext
        );
        let mut buf = sealed[..sealed.len() - TAG_LEN].to_vec();
        open_in_place_detached(&key, &nonce, &mut buf, &tag, &aad).unwrap();
        assert_eq!(buf, plaintext);
    }

    #[test]
    fn in_place_detached_matches_allocating_seal() {
        let key = Key::from_bytes([9; 32]);
        let nonce = Nonce::from_counter(3, 42);
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 255, 256, 300, 1024] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let aad = &plaintext[..len.min(7)];
            let sealed = seal(&key, &nonce, &plaintext, aad);
            let reference = seal_reference(&key, &nonce, &plaintext, aad);
            assert_eq!(sealed, reference, "len {len}");
            let mut buf = plaintext.clone();
            let tag = seal_in_place_detached(&key, &nonce, &mut buf, aad);
            assert_eq!(&sealed[..len], &buf[..], "ciphertext len {len}");
            assert_eq!(&sealed[len..], &tag[..], "tag len {len}");
        }
    }

    #[test]
    fn ctx_roundtrip_and_append_reuse() {
        let ctx = AeadCtx::new(Key::from_bytes([4; 32]));
        let mut scratch = Vec::with_capacity(256);
        for seq in 0..4u64 {
            let nonce = Nonce::from_counter(1, seq);
            let msg = format!("record {seq}");
            scratch.clear();
            ctx.seal_append(&nonce, msg.as_bytes(), b"hdr", &mut scratch);
            assert_eq!(
                scratch,
                seal(ctx.key(), &nonce, msg.as_bytes(), b"hdr"),
                "seq {seq}"
            );
            let mut out = Vec::new();
            ctx.open_append(&nonce, &scratch, b"hdr", &mut out).unwrap();
            assert_eq!(out, msg.as_bytes());
        }
    }

    #[test]
    fn open_in_place_failure_leaves_ciphertext() {
        let key = Key::from_bytes([6; 32]);
        let nonce = Nonce::from_bytes([7; 12]);
        // Both sides of every path boundary: nothing / one block / what one
        // engine call covers / where the streamed rest begins.
        for len in [0usize, 1, 16, 63, 64, 65, 447, 448, 449, 1023, 1024, 1025] {
            let mut buf: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            let tag = seal_in_place_detached(&key, &nonce, &mut buf, b"aad");
            let ciphertext = buf.clone();
            let mut bad_tag = tag;
            bad_tag[0] ^= 1;
            assert_eq!(
                open_in_place_detached(&key, &nonce, &mut buf, &bad_tag, b"aad"),
                Err(CryptoError::TagMismatch),
                "len {len}"
            );
            // Buffer untouched: no unauthenticated plaintext escapes.
            assert_eq!(buf, ciphertext, "len {len}: bad tag");
            if let Some(last) = buf.last_mut() {
                *last ^= 0x80;
                let tampered = buf.clone();
                assert_eq!(
                    open_in_place_detached(&key, &nonce, &mut buf, &tag, b"aad"),
                    Err(CryptoError::TagMismatch),
                    "len {len}"
                );
                assert_eq!(buf, tampered, "len {len}: bad ciphertext");
            }
        }
    }

    #[test]
    fn open_append_failure_restores_out() {
        let ctx = AeadCtx::new(Key::from_bytes([6; 32]));
        let nonce = Nonce::from_bytes([7; 12]);
        let mut sealed = seal(ctx.key(), &nonce, b"payload", b"");
        sealed[0] ^= 1;
        let mut out = b"prefix".to_vec();
        assert!(ctx.open_append(&nonce, &sealed, b"", &mut out).is_err());
        assert_eq!(out, b"prefix");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = Key::from_bytes([1; 32]);
        let nonce = Nonce::from_bytes([2; 12]);
        let mut sealed = seal(&key, &nonce, b"hello world", b"");
        sealed[3] ^= 0x80;
        assert_eq!(
            open(&key, &nonce, &sealed, b""),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn tampered_tag_rejected() {
        let key = Key::from_bytes([1; 32]);
        let nonce = Nonce::from_bytes([2; 12]);
        let mut sealed = seal(&key, &nonce, b"hello world", b"");
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(
            open(&key, &nonce, &sealed, b""),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn wrong_aad_rejected() {
        let key = Key::from_bytes([1; 32]);
        let nonce = Nonce::from_bytes([2; 12]);
        let sealed = seal(&key, &nonce, b"payload", b"v1");
        assert!(open(&key, &nonce, &sealed, b"v2").is_err());
    }

    #[test]
    fn wrong_nonce_rejected() {
        let key = Key::from_bytes([1; 32]);
        let sealed = seal(&key, &Nonce::from_bytes([2; 12]), b"payload", b"");
        assert!(open(&key, &Nonce::from_bytes([3; 12]), &sealed, b"").is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let key = Key::from_bytes([1; 32]);
        let nonce = Nonce::from_bytes([2; 12]);
        assert_eq!(
            open(&key, &nonce, &[0u8; 5], b""),
            Err(CryptoError::TruncatedInput)
        );
        let mut buf = [0u8; 4];
        assert_eq!(
            open_in_place_detached(&key, &nonce, &mut buf, &[0u8; 5], b""),
            Err(CryptoError::TruncatedInput)
        );
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let key = Key::from_bytes([7; 32]);
        let nonce = Nonce::from_bytes([8; 12]);
        let sealed = seal(&key, &nonce, b"", b"just aad");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(open(&key, &nonce, &sealed, b"just aad").unwrap(), b"");
    }

    #[test]
    fn counter_nonces_are_distinct() {
        let a = Nonce::from_counter(1, 1);
        let b = Nonce::from_counter(1, 2);
        let c = Nonce::from_counter(2, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn key_debug_does_not_leak() {
        let key = Key::from_bytes([0xcd; 32]);
        assert!(!format!("{key:?}").contains("cd"));
    }
}
