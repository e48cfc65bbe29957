//! SHA-256 as specified in FIPS 180-4.
//!
//! # Examples
//!
//! ```
//! let digest = securetf_crypto::sha256::digest(b"abc");
//! assert_eq!(
//!     digest[..4],
//!     [0xba, 0x78, 0x16, 0xbf],
//! );
//! ```

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The two bodies of the compression function. Every digest in the
/// workspace (HMAC, HKDF, the DRBG, sealing, quotes, measurements, the
/// fs shield's journal MACs and chunk subkeys, the trainer's synthetic
/// checkpoint nonces) goes through whichever [`Body::detected`] picks;
/// the portable one stays as the fallback on CPUs without the SHA
/// extensions and as the oracle the other is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Body {
    /// Probes CPUID on the first call (std caches the result), like
    /// `chacha20::apply_keystream` does for AVX2.
    fn detected() -> Body {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Body::ShaNi;
        }
        Body::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Body::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Body::ShaNi => "sha-ni",
        }
    }

    /// Folds `blocks` — a whole number of 64-byte blocks — into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        match self {
            Body::Portable => compress_portable(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Body::ShaNi => {
                // SAFETY: `Body::ShaNi` is constructed only by
                // `Body::detected`, after it saw the `sha`, `ssse3` and
                // `sse4.1` target features (SSE2 is x86_64 baseline).
                unsafe { ni::compress(state, blocks) }
            }
        }
    }
}

/// Which compression body this CPU runs: `"sha-ni"` (x86 SHA extensions)
/// or `"portable"`. The choice is made by CPUID alone — there is no
/// feature flag or environment switch — so a report that quotes a
/// SHA-256 rate should quote this next to it.
pub fn backend() -> &'static str {
    Body::detected().name()
}

/// The FIPS 180-4 compression function in plain integer code.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    let (blocks, rest) = blocks.as_chunks::<BLOCK_LEN>();
    debug_assert!(rest.is_empty(), "compress takes whole blocks");
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86 SHA extensions: `sha256rnds2`
/// retires two rounds per instruction and `sha256msg1`/`msg2` compute the
/// message schedule four words at a time, so a block costs 32 round
/// instructions instead of ~2 000 scalar ones.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Folds whole blocks into `state`. The instructions want the state
    /// as the two vectors `ABEF` and `CDGH`; it is converted once on the
    /// way in and once on the way out, not per block.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let (blocks, rest) = blocks.as_chunks::<BLOCK_LEN>();
        debug_assert!(rest.is_empty(), "compress takes whole blocks");
        // Byte order within each 32-bit word: the message is big-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is eight `u32`s, two in-bounds unaligned loads.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // `w[g % 4]` holds schedule words `4g .. 4g + 4`.
            let mut w = [_mm_set_epi64x(0, 0); 4];
            for g in 0..16 {
                w[g % 4] = if g < 4 {
                    // SAFETY: `16 * g + 16 <= 64`, an in-bounds unaligned
                    // load from the 64-byte block.
                    let raw =
                        unsafe { _mm_loadu_si128(block.as_ptr().add(16 * g).cast::<__m128i>()) };
                    _mm_shuffle_epi8(raw, be_words)
                } else {
                    // W[4g..] from W[4g-16..], W[4g-12..] (sigma0 part),
                    // W[4g-7..] (the alignr) and W[4g-4..] (sigma1 part).
                    let (w16, w12, w8, w4) =
                        (w[g % 4], w[(g + 1) % 4], w[(g + 2) % 4], w[(g + 3) % 4]);
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                    _mm_sha256msg2_epu32(partial, w4)
                };
                // SAFETY: `4 * g + 4 <= 64`, an in-bounds unaligned load
                // from the round-constant table.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * g).cast::<__m128i>()) };
                let wk = _mm_add_epi32(w[g % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        // SAFETY: `state` is eight `u32`s, two in-bounds unaligned stores.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(p.add(1), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use securetf_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), securetf_crypto::sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
    body: Body,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher with the FIPS 180-4 initial state, on the
    /// fastest compression body this CPU has (see [`backend`]).
    pub fn new() -> Self {
        Self::with_body(Body::detected())
    }

    fn with_body(body: Body) -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
            body,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            self.body.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Every whole block goes to the body in one run, read in place.
        let (whole, tail) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        self.body.compress(&mut self.state, whole);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the bit length in the final 8 bytes
        // of the last block (a second block if the first has no room).
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len + 1 > BLOCK_LEN - 8 {
            self.body.compress(&mut self.state, &self.buf);
            self.buf = [0u8; BLOCK_LEN];
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        self.body.compress(&mut self.state, &self.buf);
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, w) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = w.to_be_bytes();
        }
        out
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Examples
///
/// ```
/// let d = securetf_crypto::sha256::digest(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// [`digest`] on the portable compression body whatever the CPU offers:
/// the fallback, and the oracle the dispatched body is compared against
/// (tests, and the `crypto` bench's SHA-256 row), as
/// `poly1305::poly1305_portable` is for the four-way Poly1305.
pub fn digest_portable(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::with_body(Body::Portable);
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every body this CPU can run. The SHA-NI arm of a test must not
    /// pass vacuously on a CPU without the extensions, so its absence is
    /// printed.
    fn bodies() -> Vec<Body> {
        let detected = Body::detected();
        if detected == Body::Portable {
            eprintln!("sha256: CPU has no SHA extensions, the sha-ni body was SKIPPED");
            return vec![Body::Portable];
        }
        vec![Body::Portable, detected]
    }

    fn digest_on(body: Body, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::with_body(body);
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    /// Checks one FIPS 180-4 vector on every body and through both
    /// public one-shot entry points.
    fn check_vector(message: &[u8], expect: &str) {
        for body in bodies() {
            assert_eq!(
                hex(&digest_on(body, &[message])),
                expect,
                "{} body",
                body.name()
            );
        }
        assert_eq!(hex(&digest(message)), expect);
        assert_eq!(hex(&digest_portable(message)), expect);
    }

    #[test]
    fn fips_vector_empty() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_vector_abc() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_vector_million_a() {
        check_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn backend_names_the_dispatched_body() {
        assert_eq!(backend(), Body::detected().name());
        assert!(["sha-ni", "portable"].contains(&backend()));
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        for body in bodies() {
            let whole = digest_on(body, &[&data]);
            assert_eq!(whole, digest_portable(&data), "{} body", body.name());
            for split in [0, 1, 31, 63, 64, 65, 127, 128, 200, data.len()] {
                assert_eq!(
                    digest_on(body, &[&data[..split], &data[split..]]),
                    whole,
                    "{} body, split at {split}",
                    body.name()
                );
            }
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths straddling the 55/56/64-byte padding boundaries must all
        // hash without panicking and produce distinct digests.
        let mut seen = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0xabu8; len];
            assert!(seen.insert(digest(&data)), "collision at len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn dispatched_sha256_matches_portable_at_any_length_and_split(
            data in proptest::collection::vec(any::<u8>(), 0..4097),
            cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut parts = Vec::with_capacity(cuts.len() + 1);
            let mut rest = &data[..];
            let mut at = 0;
            for cut in cuts {
                let (head, tail) = rest.split_at(cut - at);
                parts.push(head);
                rest = tail;
                at = cut;
            }
            parts.push(rest);
            let expect = digest_portable(&data);
            for body in bodies() {
                prop_assert_eq!(digest_on(body, &parts), expect, "{} body", body.name());
            }
            prop_assert_eq!(digest(&data), expect);
        }
    }
}
