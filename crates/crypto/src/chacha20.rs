//! The ChaCha20 stream cipher (RFC 7539 / RFC 8439).
//!
//! Keystream comes from **engines** that differ only in how many blocks
//! one call produces ([`backend`] names the widest this CPU runs):
//!
//! * one — the scalar block function ([`ChaCha20::next_block`]);
//! * four, eight, sixteen — one round body over a private lane trait, on
//!   x86-64 at 128 bits (SSE2, the baseline), 256 (AVX2; one-instruction
//!   rotates with AVX-512VL) and 512 (AVX-512F), picked at run time;
//! * four, portably — for other architectures, and what the tests pin
//!   the SIMD engines against.
//!
//! [`ChaCha20::apply_keystream`] runs whole chunks of the widest engine
//! in place and the tail through the narrowest engine that covers it in
//! one call. All produce identical keystream; the tests also pin them
//! against the original one-block loop with byte-wise XOR, which lives in
//! the test tree (`tests/oracle/aead.rs`).
//!
//! # Block-counter exhaustion
//!
//! The RFC's block counter is 32 bits: a single (key, nonce) stream is
//! good for 2³² · 64 B = 256 GiB of keystream. Advancing past that wraps
//! the counter back onto already-emitted keystream — silent catastrophic
//! reuse — so every build, release included, **panics** on counter
//! wrap-around (inside an enclave, aborting is the safe answer) — and
//! does so *before* any keystream of the call is produced (`check_blocks`,
//! the one place every width goes through), leaving the buffer untouched.
//! Callers re-nonce long before the limit (the shields chunk at 64 KiB).
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

/// Bytes in one keystream block.
const BLOCK: usize = 64;
/// Lanes of the portable multi-block body.
const LANES: usize = 4;
/// Bytes [`ChaCha20::prefetch`] can produce: eight blocks.
pub(crate) const PREFETCH: usize = 8 * BLOCK;

/// The ten double rounds (four column, four diagonal quarter-rounds) over
/// the state `$v`, spelled out so that every index is a constant.
macro_rules! rounds {
    ($quarter_round:ident, $v:expr) => {
        for _ in 0..10 {
            $quarter_round($v, [0, 4, 8, 12]);
            $quarter_round($v, [1, 5, 9, 13]);
            $quarter_round($v, [2, 6, 10, 14]);
            $quarter_round($v, [3, 7, 11, 15]);
            $quarter_round($v, [0, 5, 10, 15]);
            $quarter_round($v, [1, 6, 11, 12]);
            $quarter_round($v, [2, 7, 8, 13]);
            $quarter_round($v, [3, 4, 9, 14]);
        }
    };
}

/// ChaCha20 stream cipher state.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], [a, b, c, d]: [usize; 4]) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Quarter-round over four independent lanes at once: four times
/// `x += y; z = (z ^ x) <<< n`, each statement across all four lanes, so
/// the block states march in lockstep and the layout auto-vectorizes to
/// 128-bit SIMD.
#[inline(always)]
fn quarter_round_x4(v: &mut [[u32; LANES]; 16], [a, b, c, d]: [usize; 4]) {
    for (x, y, z, n) in [(a, b, d, 16), (c, d, b, 12), (a, b, d, 8), (c, d, b, 7)] {
        v[x] = core::array::from_fn(|l| v[x][l].wrapping_add(v[y][l]));
        v[z] = core::array::from_fn(|l| (v[z][l] ^ v[x][l]).rotate_left(n));
    }
}

/// The x86-64 engines: one round body, generic over how many blocks a
/// register interleaves. Vector `i` holds state word `i` across the
/// blocks (counters `c..c + BLOCKS`, wrapping per the RFC), so the rounds
/// run without a shuffle; a transpose at the end restores block order
/// and the XOR against the data is fused into the store pass.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{Engine, BLOCK};
    use core::arch::x86_64::*;

    /// One state word across `BLOCKS` interleaved blocks.
    ///
    /// # Safety
    ///
    /// The methods execute the implementing register's instructions: call
    /// them only from [`blocks`], under a `#[target_feature]` that has them.
    pub(super) trait Lanes: Copy {
        const BLOCKS: usize;
        unsafe fn splat(word: u32) -> Self;
        /// Lane `l` holds `l`: the per-block counter offsets.
        unsafe fn iota() -> Self;
        unsafe fn add(self, other: Self) -> Self;
        unsafe fn xor(self, other: Self) -> Self;
        /// Rotates lanes left by `L`; `R` must be `32 - L` (immediates).
        unsafe fn rotl<const L: i32, const R: i32>(self) -> Self;
        /// 4x4 word transpose inside every 128-bit lane: from word rows
        /// `w..w + 4`, element `j` has in 128-bit lane `k` those words —
        /// 16 contiguous keystream bytes — of block `4k + j`.
        unsafe fn transpose(rows: [Self; 4]) -> [Self; 4];
        /// The quarters of blocks `j, j + 4, ..` (one per element, as
        /// `transpose` leaves them) as those blocks in a row.
        unsafe fn gather(quarters: [Self; 4]) -> [Self; 4];
        /// Writes `self` to the head of `at`, XORed into it if `XOR`.
        unsafe fn put<const XOR: bool>(self, at: &mut [u8]);
    }

    /// [`Lanes`] for a register type from its intrinsics; rotate and
    /// gather differ in shape per width and are passed as bodies.
    macro_rules! lanes {
        ($name:ident$(<const $vl:ident: bool>)?, $reg:ty, $blocks:literal,
         $set1:ident, $add:ident, $xor:ident, $lo32:ident, $hi32:ident, $lo64:ident, $hi64:ident,
         $load:ident, $store:ident, iota: $iota:expr,
         rotl($x:ident, $l:ident, $r:ident): $rotl:expr, gather($q:ident): $gather:expr) => {
            #[derive(Clone, Copy)]
            pub(super) struct $name$(<const $vl: bool>)?($reg);

            impl$(<const $vl: bool>)? Lanes for $name$(<$vl>)? {
                const BLOCKS: usize = $blocks;
                #[inline(always)]
                unsafe fn splat(word: u32) -> Self {
                    Self($set1(word as i32))
                }
                #[inline(always)]
                unsafe fn iota() -> Self {
                    Self($iota)
                }
                #[inline(always)]
                unsafe fn add(self, other: Self) -> Self {
                    Self($add(self.0, other.0))
                }
                #[inline(always)]
                unsafe fn xor(self, other: Self) -> Self {
                    Self($xor(self.0, other.0))
                }
                #[inline(always)]
                unsafe fn rotl<const $l: i32, const $r: i32>(self) -> Self {
                    let $x = self.0;
                    Self($rotl)
                }
                #[inline(always)]
                unsafe fn transpose([a, b, c, d]: [Self; 4]) -> [Self; 4] {
                    let (ab_lo, ab_hi) = ($lo32(a.0, b.0), $hi32(a.0, b.0));
                    let (cd_lo, cd_hi) = ($lo32(c.0, d.0), $hi32(c.0, d.0));
                    [$lo64(ab_lo, cd_lo), $hi64(ab_lo, cd_lo), $lo64(ab_hi, cd_hi), $hi64(ab_hi, cd_hi)]
                        .map(Self)
                }
                #[inline(always)]
                unsafe fn gather(quarters: [Self; 4]) -> [Self; 4] {
                    let $q = quarters.map(|quarter| quarter.0);
                    $gather.map(Self)
                }
                #[inline(always)]
                unsafe fn put<const XOR: bool>(self, at: &mut [u8]) {
                    let at = at[..size_of::<$reg>()].as_mut_ptr().cast::<$reg>();
                    // SAFETY: the slice above is `size_of::<$reg>()`
                    // bytes (bounds-checked), accessed unaligned.
                    unsafe { $store(at, if XOR { $xor($load(at), self.0) } else { self.0 }) }
                }
            }
        };
    }

    lanes!(
        Xmm, __m128i, 4,
        _mm_set1_epi32, _mm_add_epi32, _mm_xor_si128,
        _mm_unpacklo_epi32, _mm_unpackhi_epi32, _mm_unpacklo_epi64, _mm_unpackhi_epi64,
        _mm_loadu_si128, _mm_storeu_si128,
        iota: _mm_set_epi32(3, 2, 1, 0),
        rotl(x, L, R): _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x)),
        gather(q): q
    );
    // `VL` picks AVX-512VL's one-instruction rotate over shift/shift/or.
    lanes!(
        Ymm<const VL: bool>, __m256i, 8,
        _mm256_set1_epi32, _mm256_add_epi32, _mm256_xor_si256,
        _mm256_unpacklo_epi32, _mm256_unpackhi_epi32, _mm256_unpacklo_epi64, _mm256_unpackhi_epi64,
        _mm256_loadu_si256, _mm256_storeu_si256,
        iota: _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0),
        rotl(x, L, R): if VL {
            _mm256_rol_epi32::<L>(x)
        } else {
            _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
        },
        gather(q): [
            _mm256_permute2x128_si256::<0x20>(q[0], q[1]),
            _mm256_permute2x128_si256::<0x20>(q[2], q[3]),
            _mm256_permute2x128_si256::<0x31>(q[0], q[1]),
            _mm256_permute2x128_si256::<0x31>(q[2], q[3]),
        ]
    );
    lanes!(
        Zmm, __m512i, 16,
        _mm512_set1_epi32, _mm512_add_epi32, _mm512_xor_si512,
        _mm512_unpacklo_epi32, _mm512_unpackhi_epi32, _mm512_unpacklo_epi64, _mm512_unpackhi_epi64,
        _mm512_loadu_si512, _mm512_storeu_si512,
        iota: _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
        rotl(x, L, R): _mm512_rol_epi32::<L>(x),
        gather(q): {
            // A 4x4 transpose of 128-bit lanes, in two shuffle stages.
            let lo01 = _mm512_shuffle_i32x4::<0x44>(q[0], q[1]);
            let hi01 = _mm512_shuffle_i32x4::<0xee>(q[0], q[1]);
            let lo23 = _mm512_shuffle_i32x4::<0x44>(q[2], q[3]);
            let hi23 = _mm512_shuffle_i32x4::<0xee>(q[2], q[3]);
            [
                _mm512_shuffle_i32x4::<0x88>(lo01, lo23),
                _mm512_shuffle_i32x4::<0xdd>(lo01, lo23),
                _mm512_shuffle_i32x4::<0x88>(hi01, hi23),
                _mm512_shuffle_i32x4::<0xdd>(hi01, hi23),
            ]
        }
    );

    #[inline(always)]
    unsafe fn quarter_round<L: Lanes>(v: &mut [L; 16], [a, b, c, d]: [usize; 4]) {
        v[a] = v[a].add(v[b]);
        v[d] = v[d].xor(v[a]).rotl::<16, 16>();
        v[c] = v[c].add(v[d]);
        v[b] = v[b].xor(v[c]).rotl::<12, 20>();
        v[a] = v[a].add(v[b]);
        v[d] = v[d].xor(v[a]).rotl::<8, 24>();
        v[c] = v[c].add(v[d]);
        v[b] = v[b].xor(v[c]).rotl::<7, 25>();
    }

    /// Writes the `L::BLOCKS` keystream blocks at counters `state[12]..`
    /// to `data`, XORed into what is there if `XOR`.
    ///
    /// # Safety
    ///
    /// The CPU must have `L`'s instructions (see [`Lanes`]).
    #[inline(always)]
    unsafe fn blocks<L: Lanes, const XOR: bool>(state: &[u32; 16], data: &mut [u8]) {
        assert_eq!(
            data.len(),
            L::BLOCKS * BLOCK,
            "an engine call covers exactly its blocks"
        );
        let mut v = [L::splat(0); 16];
        for (lanes, &word) in v.iter_mut().zip(state) {
            *lanes = L::splat(word);
        }
        v[12] = v[12].add(L::iota());
        let init = v;
        rounds!(quarter_round, &mut v);
        for (lanes, start) in v.iter_mut().zip(init) {
            *lanes = lanes.add(start);
        }
        // `quarters[q][j]`: bytes `16q..16q + 16` of blocks `j, j + 4, ..`.
        let mut quarters = [[v[0]; 4]; 4];
        for (quarter, rows) in quarters.iter_mut().zip(v.as_chunks::<4>().0) {
            *quarter = L::transpose(*rows);
        }
        for j in 0..4 {
            // Blocks `j, j + 4, ..` back to back, a register at a time.
            let run = L::gather([
                quarters[0][j],
                quarters[1][j],
                quarters[2][j],
                quarters[3][j],
            ]);
            for (i, bytes) in run.into_iter().enumerate() {
                let at = i * size_of::<L>();
                bytes.put::<XOR>(&mut data[(j + 4 * (at / BLOCK)) * BLOCK + at % BLOCK..]);
            }
        }
    }

    /// One engine: [`blocks`] instantiated at `$lanes` under the target
    /// features it needs, behind a re-checked detection.
    macro_rules! engine {
        ($name:ident, $label:literal, $lanes:ty, $($feature:tt),+) => {
            pub(super) const $name: Engine = {
                #[target_feature($(enable = $feature),+)]
                fn instance<const XOR: bool>(state: &[u32; 16], data: &mut [u8]) {
                    // SAFETY: this function's target features are `$lanes`'s.
                    unsafe { blocks::<$lanes, XOR>(state, data) }
                }
                fn checked<const XOR: bool>(state: &[u32; 16], data: &mut [u8]) {
                    assert!(
                        $(std::arch::is_x86_feature_detected!($feature))&&+,
                        concat!("the ", $label, " ChaCha20 engine on a CPU without it")
                    );
                    // SAFETY: the assertion above saw every feature `instance` needs.
                    unsafe { instance::<XOR>(state, data) }
                }
                Engine { name: $label, blocks: <$lanes>::BLOCKS, xor: checked::<true>, fill: checked::<false> }
            };
        };
    }
    engine!(SSE2, "sse2", Xmm, "sse2");
    engine!(AVX2, "avx2", Ymm<false>, "avx2");
    engine!(AVX2_VL, "avx2", Ymm<true>, "avx2", "avx512f", "avx512vl");
    engine!(AVX512, "avx512", Zmm, "avx512f");
}

/// XORs `ks[..data.len()]` into `data`, eight bytes at a time.
pub(crate) fn xor_into(data: &mut [u8], ks: &[u8]) {
    let (words, bytes) = data.as_chunks_mut::<8>();
    let (ks_words, ks_bytes) = ks[..words.len() * 8 + bytes.len()].as_chunks::<8>();
    for (word, k) in words.iter_mut().zip(ks_words) {
        *word = (u64::from_ne_bytes(*word) ^ u64::from_ne_bytes(*k)).to_ne_bytes();
    }
    for (byte, k) in bytes.iter_mut().zip(ks_bytes) {
        *byte ^= k;
    }
}

/// A keystream engine: `fill` writes the `blocks` keystream blocks at
/// counters `state[12]..` to a slice of that many blocks, `xor` XORs them in.
#[derive(Debug, Clone, Copy)]
struct Engine {
    name: &'static str,
    blocks: usize,
    xor: fn(&[u32; 16], &mut [u8]),
    fill: fn(&[u32; 16], &mut [u8]),
}

const ONE: Engine = Engine {
    name: "portable",
    blocks: 1,
    xor: |state, data| xor_into(data, &block(state)),
    fill: |state, data| data.copy_from_slice(&block(state)),
};
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
const FOUR_PORTABLE: Engine = Engine {
    name: "portable",
    blocks: LANES,
    xor: |state, data| xor_into(data, &four_blocks_portable(state)),
    fill: |state, data| data.copy_from_slice(&four_blocks_portable(state)),
};

impl Engine {
    /// The engines this CPU runs, narrowest first (std caches the probe)
    /// — a function of the CPU alone, never of key, nonce or data. With
    /// AVX2 an eight-block call costs no more than a four-block SSE2 one.
    fn detected() -> &'static [Engine] {
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;
        #[cfg(target_arch = "x86_64")]
        return match (has!("avx2"), has!("avx512f") && has!("avx512vl")) {
            (true, true) => &[ONE, simd::AVX2_VL, simd::AVX512],
            (true, false) => &[ONE, simd::AVX2],
            (false, _) => &[ONE, simd::SSE2],
        };
        #[cfg(not(target_arch = "x86_64"))]
        &[ONE, FOUR_PORTABLE]
    }

    /// The narrowest of `engines` (narrowest first, never empty) that
    /// covers `blocks` in one call, else the widest.
    fn covering(engines: &[Engine], blocks: usize) -> Engine {
        let cover = engines.iter().find(|engine| engine.blocks >= blocks);
        *cover
            .or(engines.last())
            .expect("every engine list holds the one-block engine")
    }
}

/// The widest keystream engine this CPU runs: `"avx512"`, `"avx2"`, `"sse2"`
/// or `"portable"`. CPUID alone decides (no feature flag, no environment
/// switch), so quote it beside any ChaCha20 rate.
pub fn backend() -> &'static str {
    Engine::covering(Engine::detected(), usize::MAX).name
}

/// The scalar block function: the keystream block at counter `state[12]`.
fn block(state: &[u32; 16]) -> [u8; BLOCK] {
    let mut working = *state;
    rounds!(quarter_round, &mut working);
    let mut out = [0u8; BLOCK];
    for ((bytes, word), start) in out
        .as_chunks_mut::<4>()
        .0
        .iter_mut()
        .zip(working)
        .zip(state)
    {
        *bytes = word.wrapping_add(*start).to_le_bytes();
    }
    out
}

/// Portable four-lane block generation (the layout the SIMD engines
/// mirror): the blocks at counters `state[12]..`, wrapping per the RFC.
/// Kept on every architecture so the tests can pin the engines against it.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn four_blocks_portable(state: &[u32; 16]) -> [u8; LANES * BLOCK] {
    let mut v = state.map(|word| [word; LANES]);
    for (l, counter) in v[12].iter_mut().enumerate() {
        *counter = state[12].wrapping_add(l as u32);
    }
    let init = v;
    rounds!(quarter_round_x4, &mut v);
    let mut out = [0u8; LANES * BLOCK];
    for (at, bytes) in out.as_chunks_mut::<4>().0.iter_mut().enumerate() {
        let (l, i) = (at / 16, at % 16);
        *bytes = v[i][l].wrapping_add(init[i][l]).to_le_bytes();
    }
    out
}

impl ChaCha20 {
    /// Creates a cipher instance from a 256-bit key, 96-bit nonce and the
    /// initial 32-bit block counter.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut state = [
            0x61707865, 0x3320646e, 0x79622d32, 0x6b206574, 0, 0, 0, 0, 0, 0, 0, 0, counter, 0, 0,
            0,
        ];
        for (word, bytes) in state[4..12].iter_mut().zip(key.as_chunks::<4>().0) {
            *word = u32::from_le_bytes(*bytes);
        }
        for (word, bytes) in state[13..].iter_mut().zip(nonce.as_chunks::<4>().0) {
            *word = u32::from_le_bytes(*bytes);
        }
        ChaCha20 { state }
    }

    /// Panics — in release builds too — unless the next `blocks` blocks
    /// exist under this nonce: the one wrap check, made before any of a
    /// call's keystream is produced, that every engine width and
    /// [`ChaCha20::prefetch`] go through.
    #[inline(always)]
    fn check_blocks(&self, blocks: usize) {
        assert!(
            u32::try_from(blocks).is_ok_and(|blocks| self.state[12].checked_add(blocks).is_some()),
            "ChaCha20 32-bit block counter wrapped: >256 GiB of keystream \
             requested under a single nonce (keystream reuse)"
        );
    }

    /// Produces the next 64-byte keystream block and advances the counter.
    ///
    /// # Panics
    ///
    /// Panics if advancing wraps the counter, in every build profile.
    pub fn next_block(&mut self) -> [u8; 64] {
        self.check_blocks(1);
        let out = block(&self.state);
        self.state[12] += 1;
        out
    }

    /// XORs the keystream into `data` in place (encrypts or decrypts):
    /// whole chunks of the widest engine this CPU has in place, the tail
    /// through the narrowest engine that covers it in one call. Output is
    /// bit-identical to one [`ChaCha20::next_block`] after another.
    ///
    /// # Panics
    ///
    /// Panics if `data` runs the 32-bit block counter past its end
    /// (keystream reuse), in every build profile and before a byte of
    /// `data` is changed.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.apply_keystream_on(Engine::detected(), data);
    }

    /// [`ChaCha20::apply_keystream`] on a given engine list (narrowest
    /// first, never empty); the tests force each width through here.
    fn apply_keystream_on(&mut self, engines: &[Engine], data: &mut [u8]) {
        self.check_blocks(data.len().div_ceil(BLOCK));
        let widest = Engine::covering(engines, usize::MAX);
        let mut chunks = data.chunks_exact_mut(widest.blocks * BLOCK);
        for chunk in &mut chunks {
            (widest.xor)(&self.state, chunk);
            self.state[12] += widest.blocks as u32;
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            // The engines produce whole blocks: the tail's go to the stack.
            let cover = Engine::covering(engines, tail.len().div_ceil(BLOCK));
            let mut ks = [0u8; 16 * BLOCK]; // room for the widest engine's call
            (cover.fill)(&self.state, &mut ks[..cover.blocks * BLOCK]);
            xor_into(tail, &ks);
            self.state[12] += tail.len().div_ceil(BLOCK) as u32;
        }
    }

    /// One engine call's worth of the stream: writes the next blocks — as
    /// many as the narrowest engine that covers `blocks` (or `ks`) makes, a
    /// function of `blocks` and the CPU only — to `ks`, moves past them and
    /// returns their bytes. `aead` starts every record here.
    pub(crate) fn prefetch(&mut self, blocks: usize, ks: &mut [u8; PREFETCH]) -> usize {
        let engine = Engine::covering(Engine::detected(), blocks.min(ks.len() / BLOCK));
        self.check_blocks(blocks.max(engine.blocks));
        (engine.fill)(&self.state, &mut ks[..engine.blocks * BLOCK]);
        self.state[12] += engine.blocks as u32;
        engine.blocks * BLOCK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::aead::apply_keystream_reference;

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
        assert_eq!(hex(&block[..16]), "10f1e7e4d13b5915500fdd1fa32071c4");
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
        assert_eq!(hex(&block[..16]), "9f07e7be5551387a98ba977c732d080d");
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
            apply_keystream_reference(&mut ChaCha20::new(&[7u8; 32], &[4u8; 12], 3), &mut slow);
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
        apply_keystream_reference(&mut slow, &mut b);
        assert_eq!(a, b);
        // Subsequent blocks agree: both engines consumed the same counters.
        assert_eq!(fast.next_block(), slow.next_block());
    }

    /// Every engine list worth forcing: each engine this CPU can run, on
    /// its own (so it also takes the tails).
    fn forced() -> Vec<(&'static str, Vec<Engine>)> {
        #[allow(unused_mut)]
        let mut lists = vec![
            ("one block", vec![ONE]),
            ("portable x4", vec![FOUR_PORTABLE]),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let avx512 = has!("avx512f") && has!("avx512vl");
            lists.push(("sse2 x4", vec![simd::SSE2]));
            for (name, engine, detected) in [
                ("avx2 x8", simd::AVX2, has!("avx2")),
                ("avx2+vl x8", simd::AVX2_VL, has!("avx2") && avx512),
                ("avx512 x16", simd::AVX512, avx512),
            ] {
                if detected {
                    lists.push((name, vec![engine]));
                } else {
                    eprintln!("chacha20: the {name} engine was SKIPPED, the CPU does not have it");
                }
            }
        }
        lists.push(("detected", Engine::detected().to_vec()));
        lists
    }

    #[test]
    fn simd_engine_matches_portable_four_lane_path() {
        // Pins every engine against the portable lane layout, four blocks
        // at a time, including at the counter's wrap boundary where lanes
        // wrap individually.
        for (name, engines) in forced() {
            let engine = engines[0];
            for counter in [0u32, 1, 77, u32::MAX - 17, u32::MAX - 3, u32::MAX] {
                let c = ChaCha20::new(&[9u8; 32], &[2u8; 12], counter);
                let mut produced = vec![0u8; engine.blocks * BLOCK];
                (engine.xor)(&c.state, &mut produced);
                let mut expect = Vec::new();
                for first in (0..engine.blocks as u32).step_by(LANES) {
                    let mut state = c.state;
                    state[12] = counter.wrapping_add(first);
                    expect.extend_from_slice(&four_blocks_portable(&state));
                }
                assert_eq!(
                    produced,
                    &expect[..produced.len()],
                    "{name}, counter {counter}"
                );
            }
        }
    }

    #[test]
    fn every_forced_width_matches_the_reference() {
        // Lengths on both sides of every engine's chunk (256 / 512 / 1024),
        // of the one-call short-record limits (447..449 = 7 payload
        // blocks beside block 0) and of a block; counters at the start,
        // mid-stream and ending exactly on the last usable block.
        let lens = [
            0usize, 1, 63, 64, 65, 255, 256, 257, 447, 448, 449, 511, 512, 513,
        ];
        let lens = lens
            .into_iter()
            .chain([1023, 1024, 1025, 2047, 2048, 2049, 3000]);
        for len in lens {
            let blocks = len.div_ceil(BLOCK) as u32;
            let data: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(29) % 253) as u8).collect();
            for counter in [0, 7, u32::MAX - blocks] {
                let mut reference = ChaCha20::new(&[5u8; 32], &[8u8; 12], counter);
                let mut expect = data.clone();
                apply_keystream_reference(&mut reference, &mut expect);
                for (name, engines) in forced() {
                    let mut cipher = ChaCha20::new(&[5u8; 32], &[8u8; 12], counter);
                    let mut got = data.clone();
                    cipher.apply_keystream_on(&engines, &mut got);
                    assert_eq!(got, expect, "{name}, len {len}, counter {counter}");
                    assert_eq!(
                        cipher.state, reference.state,
                        "{name}: counter after len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefetch_is_the_head_of_the_stream_and_continues_it() {
        for counter in [0u32, 1, 900] {
            for blocks in [1usize, 2, 3, 7, 8, 9, 100] {
                let mut cipher = ChaCha20::new(&[0x3cu8; 32], &[0x0bu8; 12], counter);
                let mut reference = cipher.clone();
                let mut ks = [0xeeu8; PREFETCH];
                let have = cipher.prefetch(blocks, &mut ks);
                assert!(
                    have == ks.len() || have >= blocks * BLOCK,
                    "{blocks} blocks: {have} bytes"
                );
                // Whatever the engine, the bytes are the stream's next ones
                // and the cipher carries on right behind them.
                let mut expect = vec![0u8; have + 200];
                apply_keystream_reference(&mut reference, &mut expect);
                let mut rest = [0u8; 200];
                cipher.apply_keystream(&mut rest);
                assert_eq!(
                    ks[..have],
                    expect[..have],
                    "counter {counter}, {blocks} blocks"
                );
                assert_eq!(
                    rest[..],
                    expect[have..],
                    "counter {counter}, {blocks} blocks"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "block counter wrapped")]
    fn prefetch_counter_wrap_panics() {
        // Two blocks asked for, eight produced: the counter would pass its end.
        ChaCha20::new(&[1u8; 32], &[1u8; 12], u32::MAX - 5).prefetch(2, &mut [0u8; PREFETCH]);
    }

    #[test]
    fn backend_names_the_widest_detected_engine() {
        assert!(["avx512", "avx2", "sse2", "portable"].contains(&backend()));
        assert_eq!(backend(), Engine::detected().last().unwrap().name);
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

    // A call that crosses the end of the counter somewhere in its middle
    // must not have written any keystream when it panics: a crew member's
    // `catch_unwind` hands the buffer back to the caller's frames.
    #[test]
    fn wrapping_call_leaves_the_buffer_untouched() {
        let original: Vec<u8> = (0..2048u32).map(|i| (i % 249) as u8).collect();
        for (name, engines) in forced() {
            // 32 blocks from counter MAX-20: the first chunks fit, a later one wraps.
            let mut cipher = ChaCha20::new(&[1u8; 32], &[1u8; 12], u32::MAX - 20);
            let mut data = original.clone();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cipher.apply_keystream_on(&engines, &mut data);
            }));
            assert!(caught.is_err(), "{name}: the wrap went unnoticed");
            assert_eq!(
                data, original,
                "{name}: keystream was written before the wrap check"
            );
            assert_eq!(cipher.state[12], u32::MAX - 20, "{name}: counter moved");
        }
        let mut data = original.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ChaCha20::new(&[1u8; 32], &[1u8; 12], u32::MAX - 20).apply_keystream(&mut data);
        }));
        assert!(caught.is_err());
        assert_eq!(data, original);
    }
}
