//! The ChaCha20 stream cipher (RFC 7539 / RFC 8439).
//!
//! Two keystream engines share one state layout:
//!
//! * the **fast path** ([`ChaCha20::apply_keystream`]) generates four
//!   independent block states at a time, round-robining each vector of
//!   four lanes through the quarter-round so the compiler keeps the
//!   lanes in SIMD registers, and XORs the keystream into the data
//!   word-wise (`u64`), and
//! * the **reference path** ([`ChaCha20::apply_keystream_reference`])
//!   retains the original one-block scalar loop with byte-wise XOR, kept
//!   for differential tests and A/B benchmarking (`BENCH_crypto.json`).
//!
//! Both produce bit-identical keystream for any input length.
//!
//! # Block-counter exhaustion
//!
//! The RFC's block counter is 32 bits: a single (key, nonce) stream is
//! good for 2³² · 64 B = 256 GiB of keystream. Advancing past that wraps
//! the counter back onto already-emitted keystream — silent catastrophic
//! reuse — so every build, release included, **panics** on counter
//! wrap-around (inside an enclave, aborting is the safe answer); callers
//! are expected to re-nonce long before the limit (the shields chunk at
//! 64 KiB).
//!
//! # Examples
//!
//! ```
//! use securetf_crypto::chacha20::ChaCha20;
//!
//! let mut data = *b"secret tensor bytes";
//! ChaCha20::new(&[0u8; 32], &[0u8; 12], 1).apply_keystream(&mut data);
//! assert_ne!(&data, b"secret tensor bytes");
//! ChaCha20::new(&[0u8; 32], &[0u8; 12], 1).apply_keystream(&mut data);
//! assert_eq!(&data, b"secret tensor bytes");
//! ```

/// Number of interleaved block states in the multi-block fast path.
const LANES: usize = 4;

/// ChaCha20 stream cipher state.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Quarter-round over four independent lanes at once. Each statement is
/// a 4-wide lane loop, so the four block states march through the round
/// in lockstep — the layout auto-vectorizes to 128-bit SIMD.
#[inline(always)]
// Indexing two rows of `v` per statement; the explicit lane loops keep
// the four states visibly in lockstep, which is the whole point.
#[allow(clippy::needless_range_loop)]
fn quarter_round_x4(v: &mut [[u32; LANES]; 16], a: usize, b: usize, c: usize, d: usize) {
    for l in 0..LANES {
        v[a][l] = v[a][l].wrapping_add(v[b][l]);
    }
    for l in 0..LANES {
        v[d][l] = (v[d][l] ^ v[a][l]).rotate_left(16);
    }
    for l in 0..LANES {
        v[c][l] = v[c][l].wrapping_add(v[d][l]);
    }
    for l in 0..LANES {
        v[b][l] = (v[b][l] ^ v[c][l]).rotate_left(12);
    }
    for l in 0..LANES {
        v[a][l] = v[a][l].wrapping_add(v[b][l]);
    }
    for l in 0..LANES {
        v[d][l] = (v[d][l] ^ v[a][l]).rotate_left(8);
    }
    for l in 0..LANES {
        v[c][l] = v[c][l].wrapping_add(v[d][l]);
    }
    for l in 0..LANES {
        v[b][l] = (v[b][l] ^ v[c][l]).rotate_left(7);
    }
}

/// Four-lane block generation on SSE2 (baseline on x86_64): each 128-bit
/// register holds one state word across the four interleaved blocks —
/// the same layout as the portable `[[u32; LANES]; 16]` path — but with
/// the rotates issued as explicit vector shift/or pairs, which the
/// baseline autovectorizer does not reliably derive from `rotate_left`.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_loadu_si128, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32,
        _mm_slli_epi32, _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32, _mm_unpackhi_epi64,
        _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    /// 32-bit left-rotate of each lane (shift counts must be immediates).
    macro_rules! rotl {
        ($x:expr, $n:literal) => {
            _mm_or_si128(_mm_slli_epi32($x, $n), _mm_srli_epi32($x, 32 - $n))
        };
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter_round(v: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        v[a] = _mm_add_epi32(v[a], v[b]);
        v[d] = rotl!(_mm_xor_si128(v[d], v[a]), 16);
        v[c] = _mm_add_epi32(v[c], v[d]);
        v[b] = rotl!(_mm_xor_si128(v[b], v[c]), 12);
        v[a] = _mm_add_epi32(v[a], v[b]);
        v[d] = rotl!(_mm_xor_si128(v[d], v[a]), 8);
        v[c] = _mm_add_epi32(v[c], v[d]);
        v[b] = rotl!(_mm_xor_si128(v[b], v[c]), 7);
    }

    /// Runs the 20 ChaCha rounds over four interleaved block states
    /// (counters `state[12]` through `state[12] + 3`, wrapping per the
    /// RFC) and returns the post-round vectors with the initial state
    /// added back — word `i` of block `l` in lane `l` of vector `i`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rounds(state: &[u32; 16]) -> [__m128i; 16] {
        let mut v: [__m128i; 16] = core::array::from_fn(|i| _mm_set1_epi32(state[i] as i32));
        v[12] = _mm_add_epi32(v[12], _mm_set_epi32(3, 2, 1, 0));
        let init = v;
        for _ in 0..10 {
            quarter_round(&mut v, 0, 4, 8, 12);
            quarter_round(&mut v, 1, 5, 9, 13);
            quarter_round(&mut v, 2, 6, 10, 14);
            quarter_round(&mut v, 3, 7, 11, 15);
            quarter_round(&mut v, 0, 5, 10, 15);
            quarter_round(&mut v, 1, 6, 11, 12);
            quarter_round(&mut v, 2, 7, 8, 13);
            quarter_round(&mut v, 3, 4, 9, 14);
        }
        for (word, start) in v.iter_mut().zip(init) {
            *word = _mm_add_epi32(*word, start);
        }
        v
    }

    /// Transposes one group of four lane vectors (`v[g]..v[g+4]`, word
    /// rows) into four block rows: element `l` of the result is the
    /// 16 contiguous keystream bytes `g*16..g*16+16` of block `l`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn transpose4(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> [__m128i; 4] {
        let t0 = _mm_unpacklo_epi32(v0, v1);
        let t1 = _mm_unpackhi_epi32(v0, v1);
        let t2 = _mm_unpacklo_epi32(v2, v3);
        let t3 = _mm_unpackhi_epi32(v2, v3);
        [
            _mm_unpacklo_epi64(t0, t2),
            _mm_unpackhi_epi64(t0, t2),
            _mm_unpacklo_epi64(t1, t3),
            _mm_unpackhi_epi64(t1, t3),
        ]
    }

    /// Computes four consecutive keystream blocks into `out`.
    #[target_feature(enable = "sse2")]
    pub(super) fn four_blocks(state: &[u32; 16], out: &mut [u8; 4 * 64]) {
        let v = rounds(state);
        for g in 0..4 {
            let rows = transpose4(v[g * 4], v[g * 4 + 1], v[g * 4 + 2], v[g * 4 + 3]);
            for (l, row) in rows.into_iter().enumerate() {
                let at = l * 64 + g * 16;
                // SAFETY: `at + 16 <= 256`, an in-bounds unaligned store.
                unsafe { _mm_storeu_si128(out.as_mut_ptr().add(at).cast::<__m128i>(), row) };
            }
        }
    }

    /// XORs four consecutive keystream blocks straight into `data` — one
    /// pass over memory, no intermediate keystream buffer.
    #[target_feature(enable = "sse2")]
    pub(super) fn xor_four_blocks(state: &[u32; 16], data: &mut [u8; 4 * 64]) {
        let v = rounds(state);
        for g in 0..4 {
            let rows = transpose4(v[g * 4], v[g * 4 + 1], v[g * 4 + 2], v[g * 4 + 3]);
            for (l, row) in rows.into_iter().enumerate() {
                let at = l * 64 + g * 16;
                // SAFETY: `at + 16 <= 256`, in-bounds unaligned accesses.
                unsafe {
                    let p = data.as_mut_ptr().add(at).cast::<__m128i>();
                    _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), row));
                }
            }
        }
    }
}

/// Eight-lane block generation on AVX2, selected at runtime (the first
/// `apply_keystream` call probes CPUID; the result is cached by std).
/// Same interleaved layout as the SSE2 engine, twice as wide.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_or_si256, _mm256_permute2x128_si256,
        _mm256_set1_epi32, _mm256_set_epi32, _mm256_slli_epi32, _mm256_srli_epi32,
        _mm256_storeu_si256, _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32,
        _mm256_unpacklo_epi64, _mm256_xor_si256,
    };

    /// 32-bit left-rotate of each lane (shift counts must be immediates).
    macro_rules! rotl {
        ($x:expr, $n:literal) => {
            _mm256_or_si256(_mm256_slli_epi32($x, $n), _mm256_srli_epi32($x, 32 - $n))
        };
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn quarter_round(v: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        v[a] = _mm256_add_epi32(v[a], v[b]);
        v[d] = rotl!(_mm256_xor_si256(v[d], v[a]), 16);
        v[c] = _mm256_add_epi32(v[c], v[d]);
        v[b] = rotl!(_mm256_xor_si256(v[b], v[c]), 12);
        v[a] = _mm256_add_epi32(v[a], v[b]);
        v[d] = rotl!(_mm256_xor_si256(v[d], v[a]), 8);
        v[c] = _mm256_add_epi32(v[c], v[d]);
        v[b] = rotl!(_mm256_xor_si256(v[b], v[c]), 7);
    }

    /// Transposes one group of eight lane vectors (word rows `g*8..g*8+8`
    /// across eight blocks) into eight block rows: element `l` of the
    /// result is the 32 contiguous keystream bytes `g*32..g*32+32` of
    /// block `l`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(r: [__m256i; 8]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        // The unpacks work within 128-bit halves; stitch the halves.
        [
            _mm256_permute2x128_si256(u0, u4, 0x20),
            _mm256_permute2x128_si256(u1, u5, 0x20),
            _mm256_permute2x128_si256(u2, u6, 0x20),
            _mm256_permute2x128_si256(u3, u7, 0x20),
            _mm256_permute2x128_si256(u0, u4, 0x31),
            _mm256_permute2x128_si256(u1, u5, 0x31),
            _mm256_permute2x128_si256(u2, u6, 0x31),
            _mm256_permute2x128_si256(u3, u7, 0x31),
        ]
    }

    /// XORs eight consecutive keystream blocks (counters `state[12]`
    /// through `state[12] + 7`, wrapping per the RFC) straight into
    /// `data` — one pass over memory, no intermediate keystream buffer.
    #[target_feature(enable = "avx2")]
    pub(super) fn xor_eight_blocks(state: &[u32; 16], data: &mut [u8; 8 * 64]) {
        let mut v: [__m256i; 16] = core::array::from_fn(|i| _mm256_set1_epi32(state[i] as i32));
        v[12] = _mm256_add_epi32(v[12], _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0));
        let init = v;
        for _ in 0..10 {
            quarter_round(&mut v, 0, 4, 8, 12);
            quarter_round(&mut v, 1, 5, 9, 13);
            quarter_round(&mut v, 2, 6, 10, 14);
            quarter_round(&mut v, 3, 7, 11, 15);
            quarter_round(&mut v, 0, 5, 10, 15);
            quarter_round(&mut v, 1, 6, 11, 12);
            quarter_round(&mut v, 2, 7, 8, 13);
            quarter_round(&mut v, 3, 4, 9, 14);
        }
        for (word, start) in v.iter_mut().zip(init) {
            *word = _mm256_add_epi32(*word, start);
        }
        for g in 0..2 {
            let rows = transpose8(core::array::from_fn(|i| v[g * 8 + i]));
            for (l, row) in rows.into_iter().enumerate() {
                let at = l * 64 + g * 32;
                // SAFETY: `at + 32 <= 512`, in-bounds unaligned accesses.
                unsafe {
                    let p = data.as_mut_ptr().add(at).cast::<__m256i>();
                    _mm256_storeu_si256(p, _mm256_xor_si256(_mm256_loadu_si256(p), row));
                }
            }
        }
    }
}

/// XORs `ks[..data.len()]` into `data`, eight bytes at a time.
#[inline(always)]
fn xor_words(data: &mut [u8], ks: &[u8]) {
    let full = data.len() - data.len() % 8;
    for (dw, kw) in data[..full]
        .chunks_exact_mut(8)
        .zip(ks[..full].chunks_exact(8))
    {
        let x = u64::from_le_bytes(dw.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(kw.try_into().expect("8 bytes"));
        dw.copy_from_slice(&x.to_le_bytes());
    }
    for (db, kb) in data[full..].iter_mut().zip(&ks[full..]) {
        *db ^= kb;
    }
}

impl ChaCha20 {
    /// Creates a cipher instance from a 256-bit key, 96-bit nonce and the
    /// initial 32-bit block counter.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[0] = 0x61707865;
        state[1] = 0x3320646e;
        state[2] = 0x79622d32;
        state[3] = 0x6b206574;
        for i in 0..8 {
            state[4 + i] = u32::from_le_bytes([
                key[i * 4],
                key[i * 4 + 1],
                key[i * 4 + 2],
                key[i * 4 + 3],
            ]);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes([
                nonce[i * 4],
                nonce[i * 4 + 1],
                nonce[i * 4 + 2],
                nonce[i * 4 + 3],
            ]);
        }
        ChaCha20 { state }
    }

    /// Advances the block counter by `blocks`.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — if the 32-bit counter wraps:
    /// continuing would reuse keystream (>256 GiB under one nonce), and
    /// aborting is the safe answer inside an enclave.
    #[inline(always)]
    fn advance_counter(&mut self, blocks: u32) {
        let (next, wrapped) = self.state[12].overflowing_add(blocks);
        assert!(
            !wrapped,
            "ChaCha20 32-bit block counter wrapped: >256 GiB of keystream \
             requested under a single nonce (keystream reuse)"
        );
        self.state[12] = next;
    }

    /// Produces the next 64-byte keystream block and advances the counter.
    ///
    /// # Panics
    ///
    /// Panics if advancing wraps the 32-bit block counter (keystream
    /// reuse), in every build profile.
    pub fn next_block(&mut self) -> [u8; 64] {
        let mut working = self.state;
        for _ in 0..10 {
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(self.state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        self.advance_counter(1);
        out
    }

    /// Computes four consecutive keystream blocks (counters `c..c+4`)
    /// into `out` without advancing the counter. Dispatches to the SSE2
    /// engine on x86_64 (where SSE2 is baseline); the portable four-lane
    /// scalar path serves every other architecture and the differential
    /// tests.
    #[inline]
    #[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
    fn four_blocks(&self, out: &mut [u8; 4 * 64]) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline target, so the
        // required target feature is statically present.
        unsafe {
            sse2::four_blocks(&self.state, out)
        }
        #[cfg(not(target_arch = "x86_64"))]
        self.four_blocks_portable(out)
    }

    /// Portable four-lane block generation (the auto-vectorizable layout
    /// the SSE2 engine mirrors). Kept on every architecture so the
    /// differential tests can pin the SIMD engine against it.
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    fn four_blocks_portable(&self, out: &mut [u8; 4 * 64]) {
        let mut v = [[0u32; LANES]; 16];
        for (row, &word) in v.iter_mut().zip(self.state.iter()) {
            *row = [word; LANES];
        }
        for (l, counter) in v[12].iter_mut().enumerate() {
            *counter = self.state[12].wrapping_add(l as u32);
        }
        let init = v;
        for _ in 0..10 {
            quarter_round_x4(&mut v, 0, 4, 8, 12);
            quarter_round_x4(&mut v, 1, 5, 9, 13);
            quarter_round_x4(&mut v, 2, 6, 10, 14);
            quarter_round_x4(&mut v, 3, 7, 11, 15);
            quarter_round_x4(&mut v, 0, 5, 10, 15);
            quarter_round_x4(&mut v, 1, 6, 11, 12);
            quarter_round_x4(&mut v, 2, 7, 8, 13);
            quarter_round_x4(&mut v, 3, 4, 9, 14);
        }
        for l in 0..LANES {
            let base = l * 64;
            for i in 0..16 {
                let word = v[i][l].wrapping_add(init[i][l]);
                out[base + i * 4..base + i * 4 + 4].copy_from_slice(&word.to_le_bytes());
            }
        }
    }

    /// XORs the keystream into `data` in place (encrypts or decrypts).
    ///
    /// Multi-block fast path: 256-byte stretches run four interleaved
    /// block states through the rounds and XOR word-wise; the sub-256-byte
    /// tail falls back to single blocks so short records never pay for
    /// keystream they do not consume. Output is bit-identical to
    /// [`ChaCha20::apply_keystream_reference`] for every input length.
    ///
    /// # Panics
    ///
    /// Panics if `data` runs the 32-bit block counter past its end
    /// (keystream reuse), in every build profile.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        let data = if std::arch::is_x86_feature_detected!("avx2") {
            let mut chunks = data.chunks_exact_mut(8 * 64);
            for chunk in &mut chunks {
                // SAFETY: the AVX2 target feature was just detected.
                unsafe {
                    avx2::xor_eight_blocks(&self.state, chunk.try_into().expect("512-byte chunk"))
                }
                self.advance_counter(2 * LANES as u32);
            }
            chunks.into_remainder()
        } else {
            data
        };
        let mut chunks = data.chunks_exact_mut(4 * 64);
        for chunk in &mut chunks {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86_64 baseline target, so the
            // required target feature is statically present.
            unsafe {
                sse2::xor_four_blocks(&self.state, chunk.try_into().expect("256-byte chunk"))
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let mut ks = [0u8; 4 * 64];
                self.four_blocks(&mut ks);
                xor_words(chunk, &ks);
            }
            self.advance_counter(LANES as u32);
        }
        for chunk in chunks.into_remainder().chunks_mut(64) {
            let block = self.next_block();
            xor_words(chunk, &block);
        }
    }

    /// The original scalar keystream application — one block at a time,
    /// byte-wise XOR — retained as the A/B reference for the fast path.
    pub fn apply_keystream_reference(&mut self, data: &mut [u8]) {
        for chunk in data.chunks_mut(64) {
            let block = self.next_block();
            for (byte, k) in chunk.iter_mut().zip(block.iter()) {
                *byte ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 7539 §2.3.2 block function test vector.
    #[test]
    fn rfc7539_block_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut c = ChaCha20::new(&key, &nonce, 1);
        let block = c.next_block();
        assert_eq!(
            hex(&block[..16]),
            "10f1e7e4d13b5915500fdd1fa32071c4"
        );
        assert_eq!(hex(&block[48..]), "b5129cd1de164eb9cbd083e8a2503c4e");
    }

    // RFC 7539 §2.4.2 encryption test vector (the "sunscreen" plaintext).
    #[test]
    fn rfc7539_encryption_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it."
            .to_vec();
        ChaCha20::new(&key, &nonce, 1).apply_keystream(&mut data);
        assert_eq!(
            hex(&data[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
        assert_eq!(hex(&data[data.len() - 8..]), "8eedf2785e42874d");
    }

    // RFC 7539 A.1 test vector #1: all-zero key and nonce, counter 0.
    #[test]
    fn rfc7539_a1_zero_vector() {
        let mut c = ChaCha20::new(&[0u8; 32], &[0u8; 12], 0);
        let block = c.next_block();
        assert_eq!(
            hex(&block[..32]),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
        );
    }

    // RFC 7539 A.1 test vector #2: counter 1.
    #[test]
    fn rfc7539_a1_counter_one() {
        let mut c = ChaCha20::new(&[0u8; 32], &[0u8; 12], 1);
        let block = c.next_block();
        assert_eq!(
            hex(&block[..16]),
            "9f07e7be5551387a98ba977c732d080d"
        );
    }

    #[test]
    fn keystream_counter_advances() {
        let mut c = ChaCha20::new(&[1u8; 32], &[2u8; 12], 0);
        let b0 = c.next_block();
        let b1 = c.next_block();
        assert_ne!(b0, b1);
        // Restarting at counter 1 reproduces the second block.
        let mut c1 = ChaCha20::new(&[1u8; 32], &[2u8; 12], 1);
        assert_eq!(c1.next_block(), b1);
    }

    #[test]
    fn roundtrip_arbitrary_lengths() {
        for len in [0usize, 1, 63, 64, 65, 200, 255, 256, 257, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let mut data = original.clone();
            ChaCha20::new(&[9u8; 32], &[3u8; 12], 5).apply_keystream(&mut data);
            ChaCha20::new(&[9u8; 32], &[3u8; 12], 5).apply_keystream(&mut data);
            assert_eq!(data, original, "len {len}");
        }
    }

    #[test]
    fn fast_path_matches_reference_for_every_length() {
        // Straddles the 512-byte (AVX2), 256-byte (SSE2/portable) and
        // 64-byte block boundaries and every mixed-tail combination.
        for len in 0..=1200usize {
            let original: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(31) % 256) as u8).collect();
            let mut fast = original.clone();
            let mut slow = original.clone();
            ChaCha20::new(&[7u8; 32], &[4u8; 12], 3).apply_keystream(&mut fast);
            ChaCha20::new(&[7u8; 32], &[4u8; 12], 3).apply_keystream_reference(&mut slow);
            assert_eq!(fast, slow, "len {len}");
        }
    }

    #[test]
    fn fast_path_advances_counter_identically() {
        let mut fast = ChaCha20::new(&[8u8; 32], &[6u8; 12], 0);
        let mut slow = fast.clone();
        let mut a = vec![0u8; 999];
        let mut b = vec![0u8; 999];
        fast.apply_keystream(&mut a);
        slow.apply_keystream_reference(&mut b);
        assert_eq!(a, b);
        // Subsequent blocks agree: both engines consumed the same counters.
        assert_eq!(fast.next_block(), slow.next_block());
    }

    #[test]
    fn simd_engine_matches_portable_four_lane_path() {
        // Pins whichever engine `four_blocks` dispatches to (SSE2 on
        // x86_64) against the portable lane layout, including at the
        // counter's wrap boundary where lanes wrap individually.
        for counter in [0u32, 1, 77, u32::MAX - 3, u32::MAX] {
            let c = ChaCha20::new(&[9u8; 32], &[2u8; 12], counter);
            let mut dispatched = [0u8; 4 * 64];
            let mut portable = [0u8; 4 * 64];
            c.four_blocks(&mut dispatched);
            c.four_blocks_portable(&mut portable);
            assert_eq!(dispatched, portable, "counter {counter}");
        }
    }

    // The 32-bit counter is allowed to reach its last block...
    #[test]
    fn counter_may_reach_last_block() {
        let mut c = ChaCha20::new(&[1u8; 32], &[1u8; 12], u32::MAX - 4);
        let mut data = [0u8; 4 * 64]; // blocks MAX-4 .. MAX-1: no wrap
        c.apply_keystream(&mut data);
    }

    // ...but producing keystream past it must fail loudly, in release
    // builds too, instead of silently reusing the stream (>256 GiB
    // single-nonce).
    #[test]
    #[should_panic(expected = "block counter wrapped")]
    fn counter_wrap_panics() {
        let mut c = ChaCha20::new(&[1u8; 32], &[1u8; 12], u32::MAX);
        let _ = c.next_block(); // uses counter MAX, then wraps advancing
    }

    #[test]
    #[should_panic(expected = "block counter wrapped")]
    fn multi_block_counter_wrap_panics() {
        let mut c = ChaCha20::new(&[1u8; 32], &[1u8; 12], u32::MAX - 2);
        let mut data = [0u8; 4 * 64]; // needs counters MAX-2..MAX+1: wraps
        c.apply_keystream(&mut data);
    }

    #[test]
    #[should_panic(expected = "block counter wrapped")]
    fn eight_block_counter_wrap_panics() {
        let mut c = ChaCha20::new(&[1u8; 32], &[1u8; 12], u32::MAX - 6);
        let mut data = [0u8; 8 * 64]; // needs counters MAX-6..MAX+1: wraps
        c.apply_keystream(&mut data);
    }
}
