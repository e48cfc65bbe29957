//! Poly1305's oracle: the original 26-bit-limb implementation the
//! crate's bodies replaced. Its final reduction keeps the top carry, as
//! poly1305-donna does. The crate's unit tests pin every body against
//! it, and it against the RFC 7539 vectors.

/// The original Poly1305, with the streaming API of the crate's
/// `Poly1305`.
#[derive(Debug, Clone)]
pub struct ReferencePoly1305 {
    r: [u32; 5],
    h: [u32; 5],
    pad: [u32; 4],
    buf: [u8; 16],
    buf_len: usize,
}

impl ReferencePoly1305 {
    /// Creates a new authenticator from a 32-byte one-time key.
    pub fn new(key: &[u8; 32]) -> Self {
        // Clamp r per the RFC.
        let t0 = u32::from_le_bytes([key[0], key[1], key[2], key[3]]);
        let t1 = u32::from_le_bytes([key[4], key[5], key[6], key[7]]);
        let t2 = u32::from_le_bytes([key[8], key[9], key[10], key[11]]);
        let t3 = u32::from_le_bytes([key[12], key[13], key[14], key[15]]);
        let r = [
            t0 & 0x3ffffff,
            ((t0 >> 26) | (t1 << 6)) & 0x3ffff03,
            ((t1 >> 20) | (t2 << 12)) & 0x3ffc0ff,
            ((t2 >> 14) | (t3 << 18)) & 0x3f03fff,
            (t3 >> 8) & 0x00fffff,
        ];
        let pad = [
            u32::from_le_bytes([key[16], key[17], key[18], key[19]]),
            u32::from_le_bytes([key[20], key[21], key[22], key[23]]),
            u32::from_le_bytes([key[24], key[25], key[26], key[27]]),
            u32::from_le_bytes([key[28], key[29], key[30], key[31]]),
        ];
        ReferencePoly1305 {
            r,
            h: [0; 5],
            pad,
            buf: [0u8; 16],
            buf_len: 0,
        }
    }

    fn block(&mut self, block: &[u8; 16], partial: bool) {
        let hibit: u32 = if partial { 0 } else { 1 << 24 };
        let t0 = u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let t1 = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        let t2 = u32::from_le_bytes([block[8], block[9], block[10], block[11]]);
        let t3 = u32::from_le_bytes([block[12], block[13], block[14], block[15]]);

        self.h[0] = self.h[0].wrapping_add(t0 & 0x3ffffff);
        self.h[1] = self.h[1].wrapping_add(((t0 >> 26) | (t1 << 6)) & 0x3ffffff);
        self.h[2] = self.h[2].wrapping_add(((t1 >> 20) | (t2 << 12)) & 0x3ffffff);
        self.h[3] = self.h[3].wrapping_add(((t2 >> 14) | (t3 << 18)) & 0x3ffffff);
        self.h[4] = self.h[4].wrapping_add((t3 >> 8) | hibit);

        let [r0, r1, r2, r3, r4] = self.r.map(|x| x as u64);
        let s1 = r1 * 5;
        let s2 = r2 * 5;
        let s3 = r3 * 5;
        let s4 = r4 * 5;
        let [h0, h1, h2, h3, h4] = self.h.map(|x| x as u64);

        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        let mut c: u64;
        let mut d = [d0, d1, d2, d3, d4];
        c = d[0] >> 26;
        d[1] += c;
        let h0 = (d[0] & 0x3ffffff) as u32;
        c = d[1] >> 26;
        d[2] += c;
        let h1 = (d[1] & 0x3ffffff) as u32;
        c = d[2] >> 26;
        d[3] += c;
        let h2 = (d[2] & 0x3ffffff) as u32;
        c = d[3] >> 26;
        d[4] += c;
        let h3 = (d[3] & 0x3ffffff) as u32;
        c = d[4] >> 26;
        let h4 = (d[4] & 0x3ffffff) as u32;
        let h0 = h0.wrapping_add((c * 5) as u32);
        let c2 = h0 >> 26;
        let h0 = h0 & 0x3ffffff;
        let h1 = h1.wrapping_add(c2);
        self.h = [h0, h1, h2, h3, h4];
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.block(&block, false);
                self.buf_len = 0;
            }
        }
        while data.len() >= 16 {
            let mut block = [0u8; 16];
            block.copy_from_slice(&data[..16]);
            self.block(&block, false);
            data = &data[16..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Produces the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.block(&block, true);
        }
        // Full carry propagation.
        let mut h = self.h;
        let mut c: u32;
        c = h[1] >> 26;
        h[1] &= 0x3ffffff;
        h[2] = h[2].wrapping_add(c);
        c = h[2] >> 26;
        h[2] &= 0x3ffffff;
        h[3] = h[3].wrapping_add(c);
        c = h[3] >> 26;
        h[3] &= 0x3ffffff;
        h[4] = h[4].wrapping_add(c);
        c = h[4] >> 26;
        h[4] &= 0x3ffffff;
        h[0] = h[0].wrapping_add(c.wrapping_mul(5));
        c = h[0] >> 26;
        h[0] &= 0x3ffffff;
        h[1] = h[1].wrapping_add(c);

        // Compute h + -p (i.e. h - (2^130 - 5)) and select. The top limb
        // keeps its carry, so h in [2^130 - 5, 2^130) reduces too.
        let mut g = [0u32; 5];
        c = 5;
        for i in 0..4 {
            let t = h[i].wrapping_add(c);
            c = t >> 26;
            g[i] = t & 0x3ffffff;
        }
        g[4] = h[4].wrapping_add(c).wrapping_sub(1 << 26);

        let mask = (g[4] >> 31).wrapping_sub(1); // all-ones if g >= p
        for i in 0..5 {
            h[i] = (h[i] & !mask) | (g[i] & mask);
        }

        // Serialize h to 128 bits little-endian.
        let h0 = h[0] | (h[1] << 26);
        let h1 = (h[1] >> 6) | (h[2] << 20);
        let h2 = (h[2] >> 12) | (h[3] << 14);
        let h3 = (h[3] >> 18) | (h[4] << 8);

        // Add the pad with carries.
        let mut f: u64;
        let mut out = [0u8; 16];
        f = h0 as u64 + self.pad[0] as u64;
        out[0..4].copy_from_slice(&(f as u32).to_le_bytes());
        f = h1 as u64 + self.pad[1] as u64 + (f >> 32);
        out[4..8].copy_from_slice(&(f as u32).to_le_bytes());
        f = h2 as u64 + self.pad[2] as u64 + (f >> 32);
        out[8..12].copy_from_slice(&(f as u32).to_le_bytes());
        f = h3 as u64 + self.pad[3] as u64 + (f >> 32);
        out[12..16].copy_from_slice(&(f as u32).to_le_bytes());
        out
    }
}
