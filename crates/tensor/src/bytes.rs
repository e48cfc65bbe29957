//! The one bounded little-endian reader, and the writers that match it.
//!
//! Every byte that re-enters an enclave — model files, datasets, wire
//! frames, checkpoint plaintext, the fs shield's blobs and journal — is
//! attacker-controlled (paper §3.3.3, Iago sanitization). Each decoder
//! downstream of this crate parses such bytes through [`Reader`], so the
//! rules are enforced in one place:
//!
//! * a field is returned only if its bytes exist: the bound test compares
//!   a length with the bytes that remain and never adds it to a cursor,
//!   so no length field can overflow the test;
//! * nothing is allocated from a length field before the bytes it counts
//!   are known to exist, so a rejected input costs memory proportional
//!   to its own length;
//! * a shape's element count is a checked product
//!   ([`checked_elements`]), never a wrapping one;
//! * [`Reader::finish`] rejects trailing bytes.
//!
//! Failures are a [`BytesError`]; each caller maps it to its own error
//! variant (`?` through a `From` impl next to that error type).

use crate::tensor::checked_elements;
use std::fmt;

/// Why a bounded read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BytesError {
    /// A field needs more bytes than remain.
    Truncated,
    /// Bytes remain after the last field.
    TrailingBytes,
    /// A rank field exceeds the caller's cap.
    RankTooLarge,
    /// A shape's element count, or its byte length, overflows `usize`.
    CountOverflows,
    /// A name, path or message is not UTF-8.
    NotUtf8,
}

impl BytesError {
    /// A static description, for error variants that carry a `&'static str`.
    pub fn reason(self) -> &'static str {
        match self {
            BytesError::Truncated => "truncated",
            BytesError::TrailingBytes => "trailing bytes",
            BytesError::RankTooLarge => "rank too large",
            BytesError::CountOverflows => "element count overflows",
            BytesError::NotUtf8 => "text not utf-8",
        }
    }
}

impl fmt::Display for BytesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.reason())
    }
}

impl std::error::Error for BytesError {}

/// A cursor over untrusted bytes; holds only what is still unread.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`BytesError::Truncated`] if fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], BytesError> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or(BytesError::Truncated)?;
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array (a digest, a MAC, a magic).
    ///
    /// # Errors
    ///
    /// [`BytesError::Truncated`] if fewer than `N` remain.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], BytesError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(BytesError::Truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`BytesError::Truncated`] at the end of input.
    pub fn u8(&mut self) -> Result<u8, BytesError> {
        self.array::<1>().map(|[b]| b)
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`BytesError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, BytesError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`BytesError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, BytesError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32` (any bit pattern; callers that need a finite
    /// value check it).
    ///
    /// # Errors
    ///
    /// [`BytesError::Truncated`] if fewer than 4 bytes remain.
    pub fn f32(&mut self) -> Result<f32, BytesError> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian `f64`.
    ///
    /// # Errors
    ///
    /// [`BytesError::Truncated`] if fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, BytesError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u32` length followed by that many bytes.
    ///
    /// # Errors
    ///
    /// [`BytesError::Truncated`] if the length or the bytes it counts are
    /// missing.
    pub fn len_prefixed(&mut self) -> Result<&'a [u8], BytesError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A `u32` length followed by that many bytes of UTF-8 (a name, a
    /// path, a message).
    ///
    /// # Errors
    ///
    /// As [`Reader::len_prefixed`]; [`BytesError::NotUtf8`] if the bytes
    /// are not UTF-8.
    pub fn str(&mut self) -> Result<&'a str, BytesError> {
        std::str::from_utf8(self.len_prefixed()?).map_err(|_| BytesError::NotUtf8)
    }

    /// A `u32` rank followed by that many `u32` dims; returns the dims
    /// and their checked element count.
    ///
    /// # Errors
    ///
    /// [`BytesError::RankTooLarge`] above `max_rank`,
    /// [`BytesError::Truncated`] if the dims are missing,
    /// [`BytesError::CountOverflows`] if their product overflows `usize`.
    pub fn shape(&mut self, max_rank: usize) -> Result<(Vec<usize>, usize), BytesError> {
        let rank = self.u32()? as usize;
        if rank > max_rank {
            return Err(BytesError::RankTooLarge);
        }
        let raw = self.take(rank.checked_mul(4).ok_or(BytesError::CountOverflows)?)?;
        let dims: Vec<usize> = raw
            .as_chunks::<4>()
            .0
            .iter()
            .map(|c| u32::from_le_bytes(*c) as usize)
            .collect();
        let elements = checked_elements(&dims).ok_or(BytesError::CountOverflows)?;
        Ok((dims, elements))
    }

    /// `n` little-endian `f32`s, converted in bulk.
    ///
    /// # Errors
    ///
    /// [`BytesError::CountOverflows`] if `4 * n` overflows `usize`,
    /// [`BytesError::Truncated`] if fewer than `4 * n` bytes remain.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, BytesError> {
        let raw = self.take(n.checked_mul(4).ok_or(BytesError::CountOverflows)?)?;
        let (chunks, _) = raw.as_chunks::<4>();
        Ok(chunks.iter().map(|c| f32::from_le_bytes(*c)).collect())
    }

    /// Ends the read by handing over everything unread (an embedded
    /// format with its own decoder).
    pub fn rest(self) -> &'a [u8] {
        self.rest
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// [`BytesError::TrailingBytes`] if any byte is unread.
    pub fn finish(self) -> Result<(), BytesError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(BytesError::TrailingBytes)
        }
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `bytes` behind a `u32` length (read by [`Reader::len_prefixed`]).
pub fn put_len_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a `u32` rank and the dims as `u32`s (read by [`Reader::shape`]).
pub fn put_shape(out: &mut Vec<u8>, shape: &[usize]) {
    put_u32(out, shape.len() as u32);
    for &d in shape {
        put_u32(out, d as u32);
    }
}

/// Appends `values` as little-endian `f32`s (read by [`Reader::f32s`]).
pub fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip_through_the_writers() {
        let mut out = vec![0xab];
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_len_prefixed(&mut out, b"name");
        put_shape(&mut out, &[2, 3]);
        put_f32s(&mut out, &[1.5, -0.0, f32::INFINITY]);
        out.extend_from_slice(&2.5f64.to_le_bytes());
        out.extend_from_slice(&[9; 32]);

        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(0xab));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.str(), Ok("name"));
        assert_eq!(r.shape(8), Ok((vec![2, 3], 6)));
        let floats = r.f32s(3).unwrap();
        assert_eq!(
            floats.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            [
                1.5f32.to_bits(),
                (-0.0f32).to_bits(),
                f32::INFINITY.to_bits()
            ]
        );
        assert_eq!(r.f64(), Ok(2.5));
        assert_eq!(r.array::<32>(), Ok([9; 32]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn a_failed_read_consumes_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(BytesError::Truncated));
        assert_eq!(r.take(4), Err(BytesError::Truncated));
        assert_eq!(r.array::<4>(), Err(BytesError::Truncated));
        assert_eq!(r.take(2), Ok(&[1u8, 2][..]));
        assert_eq!(r.clone().rest(), [3]);
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.u8(), Err(BytesError::Truncated));
    }

    #[test]
    fn hostile_lengths_cannot_overflow_the_bound_test() {
        let mut r = Reader::new(&[0; 8]);
        assert_eq!(r.take(usize::MAX), Err(BytesError::Truncated));
        assert_eq!(r.f32s(usize::MAX), Err(BytesError::CountOverflows));
        assert_eq!(r.f32s(usize::MAX / 4), Err(BytesError::Truncated));
        let mut prefixed = u32::MAX.to_le_bytes().to_vec();
        prefixed.push(0);
        assert_eq!(
            Reader::new(&prefixed).len_prefixed(),
            Err(BytesError::Truncated)
        );
    }

    #[test]
    fn shape_caps_rank_and_checks_the_product() {
        let mut bytes = Vec::new();
        put_shape(&mut bytes, &[1; 9]);
        assert_eq!(Reader::new(&bytes).shape(8), Err(BytesError::RankTooLarge));
        assert!(Reader::new(&bytes).shape(9).is_ok());

        // 65536^4 = 2^64: wraps to 0 unchecked.
        let mut wraps = Vec::new();
        put_shape(&mut wraps, &[65536; 4]);
        assert_eq!(
            Reader::new(&wraps).shape(8),
            Err(BytesError::CountOverflows)
        );

        // A rank whose dims are missing is truncation, not an allocation.
        assert_eq!(
            Reader::new(&8u32.to_le_bytes()).shape(8),
            Err(BytesError::Truncated)
        );
        assert_eq!(Reader::new(&0u32.to_le_bytes()).shape(8), Ok((vec![], 1)));
    }

    #[test]
    fn str_rejects_invalid_utf8() {
        let mut bytes = Vec::new();
        put_len_prefixed(&mut bytes, &[0xff, 0xfe]);
        assert_eq!(Reader::new(&bytes).str(), Err(BytesError::NotUtf8));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(BytesError::TrailingBytes));
    }
}
