//! Wire format for weights and gradients.
//!
//! Messages between workers and the parameter server carry lists of
//! `(variable index, tensor)` pairs. The encoding is length-prefixed and
//! strict: any truncation, trailing bytes or shape inconsistency is
//! rejected (the network is untrusted; see §2.3).
//!
//! Every message is a tagged *frame* ([`encode_frame`]/[`decode_frame`]):
//! a `'D'` dense frame (the fallback) or a `'Q'` frame carrying
//! deterministic int8 linear quantization with one f32 scale per tensor.
//! Quantization uses no RNG — same input bytes always produce the same
//! frame — so same-seed runs stay digest-identical. The body behind a
//! tag has no public codec of its own; checkpoints are `freeze`'s
//! format, not this one.

use crate::DistribError;
use securetf_tensor::bytes::{put_f32s, put_shape, put_u32, Reader};
use securetf_tensor::kernels;
use securetf_tensor::tensor::Tensor;

/// Frame tag of the dense (exact f32) encoding.
pub const FRAME_DENSE: u8 = b'D';
/// Frame tag of the int8-quantized encoding.
pub const FRAME_QUANTIZED: u8 = b'Q';

/// Which on-the-wire representation a message uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Exact f32 payloads (4 bytes per element).
    #[default]
    Dense,
    /// Deterministic int8 linear quantization with a per-tensor scale
    /// (~4x smaller on the wire; pair with error feedback at the sender).
    Quantized,
}

impl Codec {
    /// Stable lowercase name (used in bench reports and docs).
    pub fn name(self) -> &'static str {
        match self {
            Codec::Dense => "dense",
            Codec::Quantized => "quantized",
        }
    }
}

/// An int8-quantized view of a tensor's data: `value ≈ q * scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized {
    /// Dequantization scale (`max_abs / 127`; `0.0` for all-zero input).
    pub scale: f32,
    /// Quantized values, clamped to `[-127, 127]`.
    pub values: Vec<i8>,
}

impl Quantized {
    /// The exact f32 values the receiver reconstructs.
    pub fn dequantize(&self) -> Vec<f32> {
        self.values.iter().map(|&q| q as f32 * self.scale).collect()
    }
}

/// Deterministically quantizes `data` to int8 with a per-tensor scale
/// (`max |finite v| / 127`), rounding half away from zero. Non-finite
/// inputs saturate through the clamp, NaN to `0`; no randomness is used
/// (no stochastic rounding), so the result is a pure function of the
/// input bits. The walk is the tensor crate's vector kernel,
/// [`kernels::quantize_i8`].
pub fn quantize(data: &[f32]) -> Quantized {
    let mut values = vec![0i8; data.len()];
    let scale = kernels::quantize_i8(data, &mut values, None);
    Quantized { scale, values }
}

/// [`quantize`] and, from the same walk, what it dropped: `data[i]` minus
/// the value the receiver reconstructs, `q * scale` — the decoder's exact
/// arithmetic, so a sender that feeds the residual back agrees with the
/// receiver bit for bit on what was transmitted.
pub fn quantize_with_residual(data: &[f32]) -> (Quantized, Vec<f32>) {
    let mut values = vec![0i8; data.len()];
    let mut residual = vec![0.0f32; data.len()];
    let scale = kernels::quantize_i8(data, &mut values, Some(&mut residual));
    (Quantized { scale, values }, residual)
}

/// Error feedback in place: folds last step's `residual` into `data`
/// (`data[i] += residual[i]`), quantizes the sum and writes what this
/// quantization dropped over `residual`. The same bits as adding first
/// and calling [`quantize_with_residual`], with no buffer but the values
/// allocated.
///
/// # Panics
///
/// Panics unless `residual` holds one element per `data`.
pub fn quantize_with_feedback(data: &mut [f32], residual: &mut [f32]) -> Quantized {
    let mut values = vec![0i8; data.len()];
    let scale = kernels::quantize_i8_folding(data, residual, &mut values);
    Quantized { scale, values }
}

/// Entries per message and dims per tensor a decoder accepts.
const MAX_ENTRIES: usize = 100_000;
const MAX_RANK: usize = 8;

/// The `(id, rank, dims…, n)` header every entry of every codec starts
/// with.
fn put_entry_header(out: &mut Vec<u8>, id: u32, tensor: &Tensor) {
    put_u32(out, id);
    put_shape(out, tensor.shape());
    put_u32(out, tensor.len() as u32);
}

/// Bytes of one dense entry: the header, then the `n` values as f32.
fn dense_entry_len(tensor: &Tensor) -> u64 {
    12 + 4 * tensor.shape().len() as u64 + 4 * tensor.len() as u64
}

/// Walks `count (id rank dims… n payload)*`, the layout both codecs
/// share; `payload` reads one entry's `n` values. Hostile input is
/// rejected with a typed error, never a panic: truncation, trailing
/// bytes, oversized counts and ranks, duplicate variable ids,
/// shape/count mismatches and overflowing shape products.
fn decode_entries(
    bytes: &[u8],
    payload: impl Fn(&mut Reader, usize) -> Result<Vec<f32>, DistribError>,
) -> Result<Vec<(u32, Tensor)>, DistribError> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    if count > MAX_ENTRIES {
        return Err(DistribError::BadMessage("entry count too large"));
    }
    let mut entries = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..count {
        let id = r.u32()?;
        if !seen.insert(id) {
            return Err(DistribError::BadMessage("duplicate variable id"));
        }
        let (shape, elements) = r.shape(MAX_RANK)?;
        if r.u32()? as usize != elements {
            return Err(DistribError::BadMessage("element count mismatch"));
        }
        let tensor = Tensor::from_vec(&shape, payload(&mut r, elements)?)
            .map_err(|_| DistribError::BadMessage("bad tensor"))?;
        entries.push((id, tensor));
    }
    r.finish()?;
    Ok(entries)
}

/// A quantized entry's payload: one f32 scale, then `n` int8 values.
fn quantized_payload(r: &mut Reader, n: usize) -> Result<Vec<f32>, DistribError> {
    let scale = r.f32()?;
    if !scale.is_finite() || scale < 0.0 {
        return Err(DistribError::BadMessage("bad quantization scale"));
    }
    Ok(r.take(n)?
        .iter()
        .map(|&b| (b as i8) as f32 * scale)
        .collect())
}

/// Encodes entries as a tagged frame with the chosen codec.
pub fn encode_frame(entries: &[(u32, Tensor)], codec: Codec) -> Vec<u8> {
    match codec {
        Codec::Dense => {
            let entries: Vec<_> = entries.iter().map(|(id, t)| (*id, t)).collect();
            encode_dense_frame(&entries)
        }
        Codec::Quantized => {
            let quantized: Vec<Quantized> =
                entries.iter().map(|(_, t)| quantize(t.data())).collect();
            let entries: Vec<_> = entries
                .iter()
                .zip(&quantized)
                .map(|((id, t), q)| (*id, t, q))
                .collect();
            encode_quantized_frame(&entries)
        }
    }
}

/// Encodes a `'D'` frame of borrowed tensors: [`encode_frame`] with
/// [`Codec::Dense`] for a sender that does not own its entries — the
/// parameter server broadcasts its variables where they live.
pub(crate) fn encode_dense_frame(entries: &[(u32, &Tensor)]) -> Vec<u8> {
    let payload: u64 = entries.iter().map(|(_, t)| dense_entry_len(t)).sum();
    let mut out = Vec::with_capacity(5 + payload as usize);
    out.push(FRAME_DENSE);
    put_u32(&mut out, entries.len() as u32);
    for &(id, tensor) in entries {
        put_entry_header(&mut out, id, tensor);
        put_f32s(&mut out, tensor.data());
    }
    out
}

/// Encodes a `'Q'` frame of tensors the sender has already quantized — a
/// worker quantizes a gradient once, for its error-feedback residual
/// ([`quantize_with_residual`]), and sends that. The tensor supplies the
/// entry header's shape. Byte-identical to [`encode_frame`] with
/// [`Codec::Quantized`] when each `Quantized` is [`quantize`] of its
/// tensor.
///
/// # Panics
///
/// Panics if a `Quantized` does not hold one value per tensor element.
pub fn encode_quantized_frame(entries: &[(u32, &Tensor, &Quantized)]) -> Vec<u8> {
    let payload: usize = entries
        .iter()
        .map(|(_, t, _)| 16 + 4 * t.shape().len() + t.len())
        .sum();
    let mut out = Vec::with_capacity(5 + payload);
    out.push(FRAME_QUANTIZED);
    put_u32(&mut out, entries.len() as u32);
    for &(id, tensor, q) in entries {
        assert_eq!(
            q.values.len(),
            tensor.len(),
            "quantized values of another tensor"
        );
        put_entry_header(&mut out, id, tensor);
        out.extend_from_slice(&q.scale.to_le_bytes());
        out.extend(q.values.iter().map(|&v| v as u8));
    }
    out
}

/// Wire length a *dense* frame of these entries would occupy.
///
/// Used to account `bytes_saved` by the quantized codec without
/// materializing the dense bytes.
pub fn dense_frame_len(entries: &[(u32, Tensor)]) -> u64 {
    dense_frame_len_of(entries.iter().map(|(_, t)| t))
}

/// [`dense_frame_len`] of borrowed tensors, for a sender that does not
/// own its entries.
pub(crate) fn dense_frame_len_of<'a>(tensors: impl Iterator<Item = &'a Tensor>) -> u64 {
    5 + tensors.map(dense_entry_len).sum::<u64>()
}

/// Decodes a tagged frame produced by [`encode_frame`] or
/// [`encode_quantized_frame`]. The receiver reconstructs exact f32 values
/// — for quantized frames those are `q * scale`, which is also what the
/// sender's error-feedback residual subtracts, so sender and receiver
/// agree bit-for-bit on what was transmitted.
///
/// # Errors
///
/// Returns [`DistribError::BadMessage`] on an unknown tag byte or any
/// structural violation (truncation, trailing bytes, duplicate ids,
/// hostile length prefixes, non-finite or negative scales).
pub fn decode_frame(bytes: &[u8]) -> Result<Vec<(u32, Tensor)>, DistribError> {
    match bytes.split_first() {
        Some((&FRAME_DENSE, body)) => decode_entries(body, |r, n| Ok(r.f32s(n)?)),
        Some((&FRAME_QUANTIZED, body)) => decode_entries(body, quantized_payload),
        Some(_) => Err(DistribError::BadMessage("unknown frame tag")),
        None => Err(DistribError::BadMessage("empty frame")),
    }
}

/// Decodes a sequence of chunk frames (one or more entries each) into a
/// single entry list, enforcing globally unique variable ids across the
/// whole sequence — a chunked push must not smuggle the same variable
/// twice.
///
/// # Errors
///
/// Returns [`DistribError::BadMessage`] if any chunk is malformed or a
/// variable id repeats across chunks.
pub fn decode_frames(frames: &[Vec<u8>]) -> Result<Vec<(u32, Tensor)>, DistribError> {
    let mut entries = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for frame in frames {
        for (id, tensor) in decode_frame(frame)? {
            if !seen.insert(id) {
                return Err(DistribError::BadMessage("duplicate variable id"));
            }
            entries.push((id, tensor));
        }
    }
    Ok(entries)
}

// Truncation at every prefix, inflated counts and overflowing shape
// products are rows of the shared harness, `tests/hostile_input.rs`.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let entries = vec![
            (
                0u32,
                Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]).unwrap(),
            ),
            (7u32, Tensor::from_vec(&[3], vec![-1., 0., 1.]).unwrap()),
        ];
        let bytes = encode_frame(&entries, Codec::Dense);
        let decoded = decode_frame(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].0, 0);
        assert_eq!(decoded[0].1.data(), entries[0].1.data());
        assert_eq!(decoded[1].0, 7);
        assert_eq!(decoded[1].1.shape(), &[3]);
    }

    #[test]
    fn empty_roundtrip() {
        let bytes = encode_frame(&[], Codec::Dense);
        assert!(decode_frame(&bytes).unwrap().is_empty());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_frame(&[(1, Tensor::zeros(&[2]))], Codec::Dense);
        bytes.push(0);
        assert!(matches!(
            decode_frame(&bytes),
            Err(DistribError::BadMessage("trailing bytes"))
        ));
    }

    #[test]
    fn zero_length_entries_roundtrip() {
        // A rank-1 tensor with zero elements is structurally valid.
        let entries = vec![(3u32, Tensor::zeros(&[0]))];
        let bytes = encode_frame(&entries, Codec::Dense);
        let decoded = decode_frame(&bytes).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].1.len(), 0);
    }

    #[test]
    fn duplicate_variable_ids_rejected() {
        let entries = vec![(4u32, Tensor::zeros(&[2])), (4u32, Tensor::zeros(&[2]))];
        assert!(matches!(
            decode_frame(&encode_frame(&entries, Codec::Dense)),
            Err(DistribError::BadMessage("duplicate variable id"))
        ));
    }

    #[test]
    fn dense_frame_roundtrips_exactly() {
        let entries = vec![
            (
                0u32,
                Tensor::from_vec(&[2, 2], vec![1., -2., 3.5, 4.]).unwrap(),
            ),
            (7u32, Tensor::from_vec(&[3], vec![-1., 0., 1.]).unwrap()),
        ];
        let frame = encode_frame(&entries, Codec::Dense);
        assert_eq!(frame[0], FRAME_DENSE);
        assert_eq!(frame.len() as u64, dense_frame_len(&entries));
        let decoded = decode_frame(&frame).unwrap();
        assert_eq!(decoded, entries);
    }

    #[test]
    fn quantized_frame_is_smaller_and_close() {
        let data: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.01).collect();
        let entries = vec![(0u32, Tensor::from_vec(&[256], data.clone()).unwrap())];
        let frame = encode_frame(&entries, Codec::Quantized);
        assert_eq!(frame[0], FRAME_QUANTIZED);
        assert!((frame.len() as u64) < dense_frame_len(&entries) / 3);
        let decoded = decode_frame(&frame).unwrap();
        let max_abs = 1.28f32;
        let half_step = max_abs / 127.0 / 2.0;
        for (orig, got) in data.iter().zip(decoded[0].1.data()) {
            assert!((orig - got).abs() <= half_step + 1e-6, "{orig} vs {got}");
        }
    }

    #[test]
    fn quantization_is_deterministic_and_exact_at_extremes() {
        let data = vec![-3.0f32, 0.0, 3.0, 1.5];
        let q1 = quantize(&data);
        let q2 = quantize(&data);
        assert_eq!(q1, q2);
        assert_eq!(q1.values[0], -127);
        assert_eq!(q1.values[2], 127);
        assert_eq!(q1.dequantize()[0], -3.0);
        assert_eq!(q1.dequantize()[2], 3.0);
    }

    #[test]
    fn quantizing_once_yields_the_frame_and_the_residual_of_quantizing_twice() {
        let special = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1e-30,
            -3.25,
            0.5,
        ];
        let cases: Vec<Vec<f32>> = vec![
            (0..300)
                .map(|i| special[i % 8] * (1.0 + i as f32 * 0.01))
                .collect(),
            (0..64).map(|i| (i as f32 - 31.5) * 0.37).collect(),
            vec![0.0, -0.0, 0.0],
            vec![f32::NAN, f32::INFINITY],
            // A maximum so small that the scale underflows to zero.
            vec![f32::from_bits(1), 0.0, -f32::from_bits(1)],
            Vec::new(),
        ];
        for data in cases {
            let tensor = Tensor::from_vec(&[data.len()], data.clone()).unwrap();
            let (q, residual) = quantize_with_residual(&data);
            assert_eq!(q, quantize(&data));
            // What the worker used to compute: dequantize, then subtract.
            let dropped: Vec<u32> = data
                .iter()
                .zip(q.dequantize())
                .map(|(a, s)| (a - s).to_bits())
                .collect();
            assert_eq!(
                residual.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                dropped
            );
            assert_eq!(
                encode_quantized_frame(&[(5, &tensor, &q)]),
                encode_frame(&[(5, tensor.clone())], Codec::Quantized)
            );
            // The next step folds that residual back in, in place: the
            // bits of adding first and quantizing the sum.
            let next: Vec<f32> = data.iter().map(|v| v * -0.5 + 0.25).collect();
            let sum: Vec<f32> = next.iter().zip(&residual).map(|(g, r)| g + r).collect();
            let (want, want_residual) = quantize_with_residual(&sum);
            let (mut folded, mut kept) = (next, residual);
            assert_eq!(quantize_with_feedback(&mut folded, &mut kept), want);
            assert_eq!(
                folded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                sum.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(
                kept.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want_residual
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn all_zero_tensor_quantizes_to_zero_scale() {
        let entries = vec![(1u32, Tensor::zeros(&[8]))];
        let decoded = decode_frame(&encode_frame(&entries, Codec::Quantized)).unwrap();
        assert_eq!(decoded[0].1.data(), &[0.0f32; 8]);
    }

    #[test]
    fn quantized_frame_hostile_inputs_rejected() {
        let entries = vec![(0u32, Tensor::from_vec(&[4], vec![1., 2., 3., 4.]).unwrap())];
        let frame = encode_frame(&entries, Codec::Quantized);
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = frame.clone();
        trailing.push(0);
        assert!(decode_frame(&trailing).is_err());
        // Non-finite scale planted at the scale offset (header 5 + id 4 +
        // rank 4 + dim 4 + n 4 = 21).
        let mut bad_scale = frame.clone();
        bad_scale[21..25].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(matches!(
            decode_frame(&bad_scale),
            Err(DistribError::BadMessage("bad quantization scale"))
        ));
    }

    #[test]
    fn unknown_frame_tag_rejected() {
        assert!(matches!(
            decode_frame(&[b'Z', 0, 0, 0, 0]),
            Err(DistribError::BadMessage("unknown frame tag"))
        ));
        assert!(matches!(
            decode_frame(&[]),
            Err(DistribError::BadMessage("empty frame"))
        ));
    }

    #[test]
    fn duplicate_ids_across_chunks_rejected() {
        let a = encode_frame(&[(3u32, Tensor::zeros(&[2]))], Codec::Dense);
        let b = encode_frame(&[(3u32, Tensor::zeros(&[2]))], Codec::Quantized);
        assert!(matches!(
            decode_frames(&[a.clone(), b]),
            Err(DistribError::BadMessage("duplicate variable id"))
        ));
        let c = encode_frame(&[(4u32, Tensor::zeros(&[2]))], Codec::Dense);
        assert_eq!(decode_frames(&[a, c]).unwrap().len(), 2);
    }

    #[test]
    fn element_count_mismatch_rejected() {
        let mut bytes = vec![FRAME_DENSE];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&9u32.to_le_bytes()); // id
        bytes.extend_from_slice(&1u32.to_le_bytes()); // rank 1
        bytes.extend_from_slice(&3u32.to_le_bytes()); // shape [3]
        bytes.extend_from_slice(&2u32.to_le_bytes()); // but 2 elements
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_frame(&bytes),
            Err(DistribError::BadMessage("element count mismatch"))
        ));
    }
}
