//! The Poly1305 one-time authenticator (RFC 7539).
//!
//! [`Poly1305`] has two bodies ([`backend`]):
//!
//! * the portable one: 44/44/42-bit limbs over 2^130 - 5 with `u128`
//!   products, three multiplications per 16-byte block, consumed
//!   straight from the input slice, the clamped `r` and its reduction
//!   multipliers precomputed at key setup (donna-64), and
//! * on x86-64 with AVX2, a four-way one on five 26-bit limbs
//!   (`vpmuludq`, lazy carries) that absorbs four blocks per step as
//!   `h = (h + m0)·r^4 + m1·r^3 + m2·r^2 + m3·r`, used for runs of at
//!   least `VECTOR_MIN_BLOCKS` (12) whole blocks; the portable body
//!   takes shorter messages and what is left of a run after its last
//!   whole group of four.
//!
//! [`poly1305_portable`] and [`poly1305_four_way`] force one body each.
//! Both bodies produce identical tags for every key and message, and
//! neither branches on or indexes by key, accumulator or message bytes:
//! which body runs depends on the CPU and the message *length* only. The
//! tests pin both against the original 26-bit-limb implementation, which
//! lives in the test tree (`tests/oracle/poly1305.rs`).
//!
//! # Examples
//!
//! ```
//! use securetf_crypto::poly1305::Poly1305;
//!
//! let key = [0x42u8; 32];
//! let mut mac = Poly1305::new(&key);
//! mac.update(b"data to authenticate");
//! let tag = mac.finalize();
//! assert_eq!(tag.len(), 16);
//! ```

/// Mask of a 44-bit low/middle limb.
const M44: u64 = 0xfff_ffff_ffff;
/// Mask of the 42-bit top limb.
const M42: u64 = 0x3ff_ffff_ffff;
/// Mask of a 26-bit limb (the AVX2 body's radix).
#[cfg(target_arch = "x86_64")]
const M26: u64 = 0x3ff_ffff;

/// Shortest run of whole blocks the AVX2 body is used for. Its per-call
/// cost — `r^2..r^4` once per key, the accumulator into 26-bit limbs and
/// back, the closing multiply by four different powers — has to be won
/// back four blocks at a time. Read off `securetf-bench --bin crypto`
/// ("Poly1305 crossover", one-shot tags, reference VM, 2026-10-03):
/// portable / four-way 91 / 106 ns at 128 bytes, 127 / 118 at 192,
/// 163 / 125 at 256 and 305 / 167 at 512 — four-way ahead from 192 bytes
/// on, which is this many blocks.
const VECTOR_MIN_BLOCKS: usize = 12;

/// Which body long messages run on: `"avx2"` or `"portable"`. The choice
/// is made by CPUID alone (std caches the probe) — there is no feature
/// flag or environment switch — so a report that quotes a Poly1305 rate
/// should quote this next to it.
pub fn backend() -> &'static str {
    if has_avx2() {
        "avx2"
    } else {
        "portable"
    }
}

#[inline]
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// A 130-bit value as 44/44/42-bit limbs, carried lazily (a limb may
/// run a few bits over between reductions).
type Limbs44 = [u64; 3];

/// `r` and the multipliers that fold a product back under 2^130 - 5.
#[derive(Debug, Clone, Copy)]
struct Multiplier {
    /// Clamped `r` (or a power of it) in 44/44/42-bit limbs.
    r: Limbs44,
    /// `20 * r[1..3]`: the reduction multipliers (2^132 ≡ 4·5 = 20).
    s: [u64; 2],
}

impl Multiplier {
    fn new(r: Limbs44) -> Self {
        Multiplier {
            r,
            s: [r[1] * 20, r[2] * 20],
        }
    }

    /// `m * r mod 2^130 - 5`: three 128-bit column products, then one
    /// carry pass that leaves the limbs at most a carry over their width.
    #[inline(always)]
    fn mul(&self, [m0, m1, m2]: Limbs44) -> Limbs44 {
        let ([r0, r1, r2], [s1, s2]) = (self.r, self.s);
        let d0 = m0 as u128 * r0 as u128 + m1 as u128 * s2 as u128 + m2 as u128 * s1 as u128;
        let d1 = m0 as u128 * r1 as u128 + m1 as u128 * r0 as u128 + m2 as u128 * s2 as u128;
        let d2 = m0 as u128 * r2 as u128 + m1 as u128 * r1 as u128 + m2 as u128 * r0 as u128;

        let mut c = (d0 >> 44) as u64;
        let h0 = (d0 as u64) & M44;
        let d1 = d1 + c as u128;
        c = (d1 >> 44) as u64;
        let h1 = (d1 as u64) & M44;
        let d2 = d2 + c as u128;
        c = (d2 >> 42) as u64;
        let h2 = (d2 as u64) & M42;
        let h0 = h0 + c * 5;
        [h0 & M44, h1 + (h0 >> 44), h2]
    }
}

/// The 44/44/42-bit limbs of the 128-bit value `t0 + 2^64 * t1`.
#[inline(always)]
fn split44(t0: u64, t1: u64) -> Limbs44 {
    [t0 & M44, ((t0 >> 44) | (t1 << 20)) & M44, (t1 >> 24) & M42]
}

/// A lazily carried accumulator as five 26-bit limbs (the top one keeps
/// whatever runs over).
#[cfg(target_arch = "x86_64")]
fn limbs26([h0, h1, h2]: Limbs44) -> [u64; 5] {
    let (h1, h2) = (h1 & M44, h2 + (h1 >> 44));
    [
        h0 & M26,
        ((h0 >> 26) | (h1 << 18)) & M26,
        (h1 >> 8) & M26,
        ((h1 >> 34) | (h2 << 10)) & M26,
        h2 >> 16,
    ]
}

/// Five column sums in radix 2^26 (each below 2^62) carried, folded
/// under 2^130 - 5 and regrouped into 44/44/42-bit limbs.
#[cfg(target_arch = "x86_64")]
fn limbs44([mut d0, mut d1, mut d2, mut d3, mut d4]: [u64; 5]) -> Limbs44 {
    d1 += d0 >> 26;
    d2 += d1 >> 26;
    d3 += d2 >> 26;
    d4 += d3 >> 26;
    d0 = (d0 & M26) + (d4 >> 26) * 5;
    d1 = (d1 & M26) + (d0 >> 26);
    let t0 = (d0 & M26) + (d1 << 26);
    let t1 = (t0 >> 44) + ((d2 & M26) << 8) + ((d3 & M26) << 34);
    [t0 & M44, t1 & M44, (t1 >> 44) + ((d4 & M26) << 16)]
}

/// Poly1305 authenticator state (44/44/42-bit limbs, `u128` products).
#[derive(Debug, Clone)]
pub struct Poly1305 {
    r: Multiplier,
    h: Limbs44,
    pad: [u64; 2],
    buf: [u8; 16],
    buf_len: usize,
    /// Shortest run of whole blocks that goes through the AVX2 body:
    /// [`VECTOR_MIN_BLOCKS`] where the CPU has AVX2, otherwise never.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    vector_from: usize,
    /// `r^1..r^4` in 26-bit limbs for the AVX2 body, made on its first
    /// use so that short messages never pay for them.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    powers: Option<[[u32; 5]; 4]>,
}

impl Poly1305 {
    /// Creates a new authenticator from a 32-byte one-time key.
    pub fn new(key: &[u8; 32]) -> Self {
        let vector_from = if has_avx2() {
            VECTOR_MIN_BLOCKS
        } else {
            usize::MAX
        };
        Self::with_vector_from(key, vector_from)
    }

    /// As [`Poly1305::new`] but with the AVX2 body taking every run of at
    /// least `vector_from` whole blocks (`usize::MAX`: never). What
    /// [`poly1305_portable`] / [`poly1305_four_way`] and the tests force
    /// each body through.
    fn with_vector_from(key: &[u8; 32], vector_from: usize) -> Self {
        let mut words = [0u64; 4];
        for (word, bytes) in words.iter_mut().zip(key.as_chunks::<8>().0) {
            *word = u64::from_le_bytes(*bytes);
        }
        let [t0, t1, pad0, pad1] = words;
        Poly1305 {
            // Clamp r per the RFC.
            r: Multiplier::new(split44(t0 & 0x0ffffffc_0fffffff, t1 & 0x0ffffffc_0ffffffc)),
            h: [0; 3],
            pad: [pad0, pad1],
            buf: [0u8; 16],
            buf_len: 0,
            vector_from,
            powers: None,
        }
    }

    /// Absorbs whole blocks: a long run goes four at a time through the
    /// AVX2 body, anything else through the portable one with `h` held
    /// in locals so the loop never round-trips it through memory.
    fn blocks(&mut self, blocks: &[[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        let blocks = if blocks.len() >= self.vector_from {
            let (groups, rest) = blocks.as_chunks::<4>();
            self.groups_avx2(groups);
            rest
        } else {
            blocks
        };
        let mut h = self.h;
        for block in blocks {
            let m = u128::from_le_bytes(*block);
            let [m0, m1, m2] = split44(m as u64, (m >> 64) as u64);
            // A full block contributes 2^128; bit 128 lands 40 bits into
            // the top limb (128 - 88).
            h = self.r.mul([h[0] + m0, h[1] + m1, h[2] + (m2 | 1 << 40)]);
        }
        self.h = h;
    }

    /// Absorbs whole groups of four blocks on the AVX2 body.
    #[cfg(target_arch = "x86_64")]
    fn groups_avx2(&mut self, groups: &[[[u8; 16]; 4]]) {
        let r = self.r;
        let powers = self.powers.get_or_insert_with(|| {
            let square = r.mul(r.r);
            let cube = r.mul(square);
            [r.r, square, cube, r.mul(cube)].map(|power| limbs26(power).map(|limb| limb as u32))
        });
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 Poly1305 body on a CPU without AVX2"
        );
        // SAFETY: the only requirement of `avx2::absorb` is that the CPU
        // supports AVX2, which the assertion above checked.
        self.h = limbs44(unsafe { avx2::absorb(limbs26(self.h), powers, groups) });
    }

    /// Absorbs message bytes. Full 16-byte blocks are consumed directly
    /// from `data`; only a sub-block tail is buffered.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                return;
            }
            let block = self.buf;
            self.blocks(&[block]);
        }
        let (blocks, rem) = data.as_chunks::<16>();
        self.blocks(blocks);
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Absorbs `data` followed by zeros up to the next 16-byte boundary —
    /// the AEAD's `pad16` — as whole blocks, without touching the
    /// partial-block buffer.
    ///
    /// # Panics
    ///
    /// Panics if earlier updates left a partial block: `pad16` is only
    /// defined from a block boundary.
    pub(crate) fn update_padded(&mut self, data: &[u8]) {
        assert_eq!(self.buf_len, 0, "pad16 starts at a block boundary");
        let (blocks, rem) = data.as_chunks::<16>();
        self.blocks(blocks);
        if !rem.is_empty() {
            let mut last = [0u8; 16];
            last[..rem.len()].copy_from_slice(rem);
            self.blocks(&[last]);
        }
    }

    /// Produces the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            // The final partial block: a 1 byte after the message instead
            // of the 2^128 bit of a full one.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            let m = u128::from_le_bytes(block);
            let [m0, m1, m2] = split44(m as u64, (m >> 64) as u64);
            self.h = self.r.mul([self.h[0] + m0, self.h[1] + m1, self.h[2] + m2]);
        }
        // Full carry propagation.
        let [mut h0, mut h1, mut h2] = self.h;
        let mut c = h1 >> 44;
        h1 &= M44;
        h2 += c;
        c = h2 >> 42;
        h2 &= M42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= M44;
        h1 += c;
        c = h1 >> 44;
        h1 &= M44;
        h2 += c;
        c = h2 >> 42;
        h2 &= M42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= M44;
        h1 += c;

        // Compute h + -p (i.e. h - (2^130 - 5)) and select.
        let mut g0 = h0.wrapping_add(5);
        c = g0 >> 44;
        g0 &= M44;
        let mut g1 = h1.wrapping_add(c);
        c = g1 >> 44;
        g1 &= M44;
        let g2 = h2.wrapping_add(c).wrapping_sub(1 << 42);

        // Borrow in g2's sign bit means h < p: keep h. Otherwise take g.
        let mask = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !mask) | (g0 & mask);
        h1 = (h1 & !mask) | (g1 & mask);
        h2 = (h2 & !mask) | (g2 & M42 & mask);

        // Add the pad mod 2^128.
        let [p0, p1, p2] = split44(self.pad[0], self.pad[1]);
        h0 += p0;
        c = h0 >> 44;
        h0 &= M44;
        h1 += p1 + c;
        c = h1 >> 44;
        h1 &= M44;
        h2 += p2 + c;
        h2 &= M42;

        // Serialize h to 128 bits little-endian.
        let lo = h0 | (h1 << 44);
        let hi = (h1 >> 20) | (h2 << 24);
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&lo.to_le_bytes());
        out[8..16].copy_from_slice(&hi.to_le_bytes());
        out
    }
}

/// The four-way body: five 26-bit limbs per value, one value per 64-bit
/// lane, `vpmuludq` products and carries settled only as far as the next
/// multiply needs. A group's blocks sit in lanes `[0, 2, 1, 3]` (what
/// the two unpacks of [`load`] give); every group but the last multiplies
/// all lanes by `r^4`, the last multiplies lane by lane by the power that
/// block still owes — `r^4, r^2, r^3, r` — and the lanes are summed.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::M26;
    use core::arch::x86_64::*;

    /// One limb per element, four values across each element's lanes.
    type Limbs = [__m256i; 5];

    /// The limbs of a group's four blocks, each with its 2^128 bit set.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(group: &[[u8; 16]; 4]) -> Limbs {
        let halves = group.as_ptr().cast::<__m256i>();
        // SAFETY: `group` is 64 readable bytes, taken as two unaligned
        // 32-byte loads.
        let (a, b) = unsafe {
            (
                _mm256_loadu_si256(halves),
                _mm256_loadu_si256(halves.add(1)),
            )
        };
        let lo = _mm256_unpacklo_epi64(a, b);
        let hi = _mm256_unpackhi_epi64(a, b);
        let mask = _mm256_set1_epi64x(M26 as i64);
        let mid = _mm256_or_si256(_mm256_srli_epi64::<52>(lo), _mm256_slli_epi64::<12>(hi));
        [
            _mm256_and_si256(lo, mask),
            _mm256_and_si256(_mm256_srli_epi64::<26>(lo), mask),
            _mm256_and_si256(mid, mask),
            _mm256_and_si256(_mm256_srli_epi64::<14>(hi), mask),
            _mm256_or_si256(_mm256_srli_epi64::<40>(hi), _mm256_set1_epi64x(1 << 24)),
        ]
    }

    /// `(h + m) * r` as five unreduced column sums; `s[i]` is `5 * r[i + 1]`
    /// (2^130 ≡ 5). With limbs under 2^28 every sum stays under 2^60.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_mul(h: Limbs, m: Limbs, r: &Limbs, s: &[__m256i; 4]) -> Limbs {
        let [h0, h1, h2, h3, h4]: Limbs = core::array::from_fn(|i| _mm256_add_epi64(h[i], m[i]));
        let mul = |a, b| _mm256_mul_epu32(a, b);
        let sum = |a, b, c, d, e| {
            _mm256_add_epi64(
                _mm256_add_epi64(_mm256_add_epi64(a, b), _mm256_add_epi64(c, d)),
                e,
            )
        };
        [
            sum(
                mul(h0, r[0]),
                mul(h1, s[3]),
                mul(h2, s[2]),
                mul(h3, s[1]),
                mul(h4, s[0]),
            ),
            sum(
                mul(h0, r[1]),
                mul(h1, r[0]),
                mul(h2, s[3]),
                mul(h3, s[2]),
                mul(h4, s[1]),
            ),
            sum(
                mul(h0, r[2]),
                mul(h1, r[1]),
                mul(h2, r[0]),
                mul(h3, s[3]),
                mul(h4, s[2]),
            ),
            sum(
                mul(h0, r[3]),
                mul(h1, r[2]),
                mul(h2, r[1]),
                mul(h3, r[0]),
                mul(h4, s[3]),
            ),
            sum(
                mul(h0, r[4]),
                mul(h1, r[3]),
                mul(h2, r[2]),
                mul(h3, r[1]),
                mul(h4, r[0]),
            ),
        ]
    }

    /// Brings column sums back to limbs of 26 bits and a small carry, as
    /// two interleaved chains (0→1→2→3→4 and 3→4→0→1) so neither waits
    /// on the other.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn carry(mut d: Limbs) -> Limbs {
        let mask = _mm256_set1_epi64x(M26 as i64);
        for (from, to) in [(0, 1), (3, 4), (1, 2), (4, 0), (2, 3), (0, 1), (3, 4)] {
            let mut over = _mm256_srli_epi64::<26>(d[from]);
            if to == 0 {
                over = _mm256_add_epi64(over, _mm256_slli_epi64::<2>(over));
            }
            d[from] = _mm256_and_si256(d[from], mask);
            d[to] = _mm256_add_epi64(d[to], over);
        }
        d
    }

    /// Absorbs `groups` into the accumulator `h` (26-bit limbs) under the
    /// powers `r^1..r^4` and returns the five column sums of the result,
    /// each below 2^62, for the caller to carry.
    #[target_feature(enable = "avx2")]
    pub(super) fn absorb(
        h: [u64; 5],
        powers: &[[u32; 5]; 4],
        groups: &[[[u8; 16]; 4]],
    ) -> [u64; 5] {
        let Some((last, body)) = groups.split_last() else {
            return h;
        };
        let splat = |limb: u32| _mm256_set1_epi64x(i64::from(limb));
        let r4 = powers[3].map(splat);
        let s4: [__m256i; 4] = core::array::from_fn(|i| splat(5 * powers[3][i + 1]));
        // The accumulator rides in lane 0, with the group's first block.
        let mut acc = h.map(|limb| _mm256_set_epi64x(0, 0, 0, limb as i64));
        for group in body {
            acc = carry(add_mul(acc, load(group), &r4, &s4));
        }
        let [r1, r2, r3, r4] = powers.map(|power| power.map(i64::from));
        let by_lane = |i: usize, times: i64| {
            _mm256_set_epi64x(times * r1[i], times * r3[i], times * r2[i], times * r4[i])
        };
        let r: Limbs = core::array::from_fn(|i| by_lane(i, 1));
        let s: [__m256i; 4] = core::array::from_fn(|i| by_lane(i + 1, 5));
        add_mul(acc, load(last), &r, &s).map(|sums| {
            let mut lanes = [0u64; 4];
            // SAFETY: `lanes` is 32 writable bytes, stored unaligned.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), sums) };
            lanes.iter().sum()
        })
    }
}

/// One-shot Poly1305 tag computation.
pub fn poly1305(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(key);
    mac.update(message);
    mac.finalize()
}

/// One-shot tag on the portable body alone — the fallback and the oracle
/// of the AVX2 body, reachable like `sha256::digest_portable`.
pub fn poly1305_portable(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::with_vector_from(key, usize::MAX);
    mac.update(message);
    mac.finalize()
}

/// One-shot tag with the AVX2 body taking every whole group of four
/// blocks however short the message (the portable body where the CPU has
/// no AVX2). `securetf-bench --bin crypto` times this against
/// [`poly1305_portable`] to find where [`poly1305`] should switch.
pub fn poly1305_four_way(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
    let vector_from = if has_avx2() { 4 } else { usize::MAX };
    let mut mac = Poly1305::with_vector_from(key, vector_from);
    mac.update(message);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::poly1305::ReferencePoly1305;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 7539 §2.5.2.
    #[test]
    fn rfc7539_vector() {
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let tag = poly1305(&key, b"Cryptographic Forum Research Group");
        assert_eq!(hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    // RFC 7539 appendix A.3 test vector #1: all-zero key.
    #[test]
    fn zero_key_zero_tag() {
        let tag = poly1305(&[0u8; 32], &[0u8; 64]);
        assert_eq!(tag, [0u8; 16]);
    }

    // RFC 7539 appendix A.3 #3: r with all bits set before clamping.
    #[test]
    fn incremental_matches_oneshot() {
        let key = [0x33u8; 32];
        let msg: Vec<u8> = (0..200u8).collect();
        let whole = poly1305(&key, &msg);
        let mut mac = Poly1305::new(&key);
        for chunk in msg.chunks(5) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), whole);
    }

    #[test]
    fn partial_final_block() {
        // 17 bytes: one full block plus 1-byte partial.
        let key = [0x11u8; 32];
        let tag_a = poly1305(&key, &[0xaa; 17]);
        let tag_b = poly1305(&key, &[0xaa; 16]);
        assert_ne!(tag_a, tag_b);
    }

    // RFC 7539 A.3 #7-style edge: h wraps around 2^130-5.
    #[test]
    fn wraparound_edge() {
        let mut key = [0u8; 32];
        key[0..16].copy_from_slice(&unhex("01000000000000000000000000000000"));
        let msg = unhex(
            "ffffffffffffffffffffffffffffffff\
             f0ffffffffffffffffffffffffffffff\
             11000000000000000000000000000000",
        );
        let tag = poly1305(&key, &msg);
        assert_eq!(hex(&tag), "05000000000000000000000000000000");
    }

    // A.3 #4-#6: the clamp edge (r all-ones) and h saturation edges —
    // exactly where a limb-width rewrite would slip.
    #[test]
    fn reference_agrees_across_every_length_and_edge_key() {
        let keys: [[u8; 32]; 3] = [[0xff; 32], std::array::from_fn(|i| i as u8), {
            let mut k = [0u8; 32];
            k[0..16].copy_from_slice(&unhex("02000000000000000000000000000000"));
            k
        }];
        for key in &keys {
            for len in 0..=130usize {
                let msg: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
                let fast = poly1305(key, &msg);
                let mut r = ReferencePoly1305::new(key);
                r.update(&msg);
                assert_eq!(fast, r.finalize(), "len {len}");
            }
            // All-ones message stresses carry saturation at bulk sizes.
            let bulk = vec![0xffu8; 1024];
            let fast = poly1305(key, &bulk);
            let mut r = ReferencePoly1305::new(key);
            r.update(&bulk);
            assert_eq!(fast, r.finalize());
        }
    }

    /// The thresholds worth forcing: the portable body alone, the AVX2 body
    /// from a single group of four, and the AVX2 body as dispatched.
    fn bodies() -> Vec<(&'static str, usize)> {
        let mut bodies = vec![("portable", usize::MAX)];
        if has_avx2() {
            bodies.push(("avx2 from one group", 4));
            bodies.push(("avx2 as dispatched", VECTOR_MIN_BLOCKS));
        } else {
            eprintln!("poly1305: CPU has no AVX2, the avx2 body was SKIPPED");
        }
        bodies
    }

    fn tag_on(key: &[u8; 32], vector_from: usize, parts: &[&[u8]]) -> [u8; 16] {
        let mut mac = Poly1305::with_vector_from(key, vector_from);
        for part in parts {
            mac.update(part);
        }
        mac.finalize()
    }

    fn reference_tag(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
        let mut mac = ReferencePoly1305::new(key);
        mac.update(message);
        mac.finalize()
    }

    /// Keys at the edges of the arithmetic: `r` all-ones before clamping
    /// with `s` all-ones and with `s` zero, `r` zero, and an ordinary one.
    fn edge_keys() -> Vec<[u8; 32]> {
        let mut r_ones = [0u8; 32];
        r_ones[..16].fill(0xff);
        let mut s_ones = [0u8; 32];
        s_ones[16..].fill(0xff);
        vec![
            [0xff; 32],
            r_ones,
            s_ones,
            std::array::from_fn(|i| (i * 7 + 1) as u8),
        ]
    }

    // RFC 7539 appendix A.3 #5 - #11: a final `h` between 2^130 - 5 and
    // 2^130, carries out of the top limb, `h + s` wrapping 2^128. Checked
    // against the RFC's tags on every body and on `ReferencePoly1305`.
    #[test]
    fn rfc7539_a3_edge_vectors_on_every_body() {
        let ff = "ff".repeat(16);
        let zero = "00".repeat(16);
        let (one, two) = (
            format!("01{}", "00".repeat(15)),
            format!("02{}", "00".repeat(15)),
        );
        let r10 = "01000000000000000400000000000000";
        let m10 =
            "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000".to_string() + &zero;
        // (r, s, message, tag) of #5, #6, #8, #9, #10, #11 (#7 is `wraparound_edge`).
        let vectors = [
            (
                &two[..],
                &zero[..],
                ff.clone(),
                "03000000000000000000000000000000",
            ),
            (&two, &ff, two.clone(), "03000000000000000000000000000000"),
            (
                &one,
                &zero,
                format!("{ff}fb{}{}", "fe".repeat(15), "01".repeat(16)),
                &zero,
            ),
            (
                &two,
                &zero,
                format!("fd{}", "ff".repeat(15)),
                "faffffffffffffffffffffffffffffff",
            ),
            (
                r10,
                &zero,
                format!("{m10}{one}"),
                "14000000000000005500000000000000",
            ),
            (r10, &zero, m10.clone(), "13000000000000000000000000000000"),
        ];
        for (r, s, message, tag) in vectors {
            let key: [u8; 32] = unhex(&format!("{r}{s}")).try_into().unwrap();
            for (name, vector_from) in bodies() {
                assert_eq!(
                    hex(&tag_on(&key, vector_from, &[&unhex(&message)])),
                    tag,
                    "{name}"
                );
            }
            assert_eq!(
                hex(&reference_tag(&key, &unhex(&message))),
                tag,
                "reference"
            );
        }
    }

    #[test]
    fn backend_names_the_dispatched_body() {
        assert_eq!(backend(), if has_avx2() { "avx2" } else { "portable" });
    }

    #[test]
    fn every_body_matches_the_reference_at_every_length_and_edge_key() {
        for key in &edge_keys() {
            for len in 0..=1024usize {
                // All-ones messages keep `h` up against 2^130 - 5.
                let counting: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
                for message in [counting, vec![0xffu8; len]] {
                    let expect = reference_tag(key, &message);
                    for (name, vector_from) in bodies() {
                        assert_eq!(
                            tag_on(key, vector_from, &[&message]),
                            expect,
                            "{name}, len {len}"
                        );
                    }
                    assert_eq!(poly1305(key, &message), expect, "dispatched, len {len}");
                }
            }
        }
        let message = vec![0xffu8; 777];
        assert_eq!(
            poly1305_portable(&[0xff; 32], &message),
            reference_tag(&[0xff; 32], &message)
        );
        assert_eq!(
            poly1305_four_way(&[0xff; 32], &message),
            reference_tag(&[0xff; 32], &message)
        );
    }

    #[test]
    fn every_update_split_point_agrees() {
        // Long enough for two splits to leave a dispatched AVX2 run on
        // either side; every cut lands somewhere in a block, in a 64-byte
        // group, and before / at / after the minimum run length.
        let len = 2 * 16 * VECTOR_MIN_BLOCKS + 100;
        let message: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
        for key in &edge_keys()[..2] {
            let expect = reference_tag(key, &message);
            for (name, vector_from) in bodies() {
                for cut in 0..=len {
                    let (a, b) = message.split_at(cut);
                    assert_eq!(
                        tag_on(key, vector_from, &[a, b]),
                        expect,
                        "{name}, cut {cut}"
                    );
                }
                // Three parts: a ragged start, then cuts around each group
                // boundary and around the minimum run length.
                let boundaries = (64..len).step_by(64).chain([16 * VECTOR_MIN_BLOCKS]);
                for boundary in boundaries {
                    for second in boundary - 2..=boundary + 2 {
                        let (a, rest) = message.split_at(5);
                        let (b, c) = rest.split_at(second - 5);
                        assert_eq!(
                            tag_on(key, vector_from, &[a, b, c]),
                            expect,
                            "{name}, cuts 5 and {second}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn padded_update_is_update_with_the_zeros_spelled_out() {
        for key in &edge_keys() {
            for len in 0..=300usize {
                let message = vec![0xa5u8; len];
                let mut padded = message.clone();
                padded.resize(len.next_multiple_of(16), 0);
                let mut expect = ReferencePoly1305::new(key);
                expect.update(&padded);
                expect.update(&padded);
                for (name, vector_from) in bodies() {
                    let mut mac = Poly1305::with_vector_from(key, vector_from);
                    mac.update_padded(&message);
                    mac.update_padded(&message);
                    assert_eq!(
                        mac.finalize(),
                        expect.clone().finalize(),
                        "{name}, len {len}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn every_body_matches_the_reference_up_to_64_kib(
            key in proptest::array::uniform32(any::<u8>()),
            data in proptest::collection::vec(any::<u8>(), 0..65537),
            cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..4),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut parts = Vec::with_capacity(cuts.len() + 1);
            let (mut rest, mut at) = (&data[..], 0);
            for cut in cuts {
                let (head, tail) = rest.split_at(cut - at);
                parts.push(head);
                (rest, at) = (tail, cut);
            }
            parts.push(rest);
            let expect = reference_tag(&key, &data);
            for (name, vector_from) in bodies() {
                prop_assert_eq!(tag_on(&key, vector_from, &parts), expect, "{} body", name);
            }
        }
    }
}
