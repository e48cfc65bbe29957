//! Federated learning support (paper §6.2).
//!
//! In the paper's medical use-case, hospitals train locally on private
//! data and share only model parameters with a *global aggregation
//! enclave*, which averages them (FedAvg) after attesting each party.
//! This module provides the aggregation; the full flow (local training,
//! attestation, secure upload) lives in the `federated_learning` example.
//!
//! Party uploads are tagged wire frames ([`crate::wire::decode_frame`]),
//! so parties may send either exact dense parameters or int8-quantized
//! ones — the same codec the distributed trainer uses for gradient
//! pushes. The aggregator's shield cost is charged on the *compressed*
//! length of each upload, so quantized parties pay proportionally less
//! enclave time.

use crate::wire::{self, Codec};
use crate::DistribError;
use securetf_tee::{CostCategory, Enclave};
use securetf_tensor::tensor::Tensor;
use std::collections::BTreeMap;

/// Averages parameter sets from multiple parties (FedAvg with equal
/// weights).
///
/// Input: each party's tagged parameter frame (as produced by
/// [`crate::wire::encode_frame`] — dense or quantized). Output: the
/// averaged parameters as a dense frame, so the result is exact given
/// the received (possibly quantized) inputs.
///
/// # Errors
///
/// * [`DistribError::NoWorkers`] if `parties` is empty.
/// * [`DistribError::BadMessage`] if a frame is malformed or parties
///   disagree on variables or shapes (a malicious or corrupted update).
pub fn federated_average(parties: &[Vec<u8>]) -> Result<Vec<u8>, DistribError> {
    let decoded = parties
        .iter()
        .map(|message| wire::decode_frame(message))
        .collect::<Result<Vec<_>, _>>()?;
    let averaged = average_entries(decoded)?;
    Ok(wire::encode_frame(&averaged, Codec::Dense))
}

/// FedAvg over already-decoded party parameter lists. Every party must
/// present the same variables, in the same order, with the same shapes.
fn average_entries(parties: Vec<Vec<(u32, Tensor)>>) -> Result<Vec<(u32, Tensor)>, DistribError> {
    if parties.is_empty() {
        return Err(DistribError::NoWorkers);
    }
    let n = parties.len() as f32;
    let mut sums: BTreeMap<u32, Tensor> = BTreeMap::new();
    let mut expected_vars: Option<Vec<u32>> = None;
    for entries in parties {
        let vars: Vec<u32> = entries.iter().map(|(id, _)| *id).collect();
        match &expected_vars {
            None => expected_vars = Some(vars),
            Some(e) if *e != vars => {
                return Err(DistribError::BadMessage("parties disagree on variables"));
            }
            _ => {}
        }
        for (id, tensor) in entries {
            match sums.get_mut(&id) {
                Some(sum) => {
                    *sum = sum
                        .zip(&tensor, |a, b| a + b)
                        .map_err(|_| DistribError::BadMessage("shape disagreement"))?;
                }
                None => {
                    sums.insert(id, tensor);
                }
            }
        }
    }
    Ok(sums
        .into_iter()
        .map(|(id, sum)| (id, sum.map(|v| v / n)))
        .collect())
}

/// [`federated_average`] running inside the aggregation enclave: the
/// shield's record-processing cost is charged to `aggregator`'s virtual
/// clock for every party upload and for the averaged result — on the
/// bytes actually received, so quantized uploads cost roughly a quarter
/// of dense ones.
///
/// # Errors
///
/// Same as [`federated_average`].
pub fn federated_average_shielded(
    parties: &[Vec<u8>],
    aggregator: &Enclave,
) -> Result<Vec<u8>, DistribError> {
    for message in parties {
        aggregator.charge_syscall();
        spend_shield(aggregator, message.len());
    }
    let averaged = federated_average(parties)?;
    spend_shield(aggregator, averaged.len());
    Ok(averaged)
}

/// [`federated_average_shielded`] for parties that upload their
/// parameters layer-wise: each party's update arrives as a sequence of
/// single-variable wire frames — one sealed record per frame, exactly
/// what [`securetf_shield::net::SecureChannel::send_vectored`] produces
/// on the hospital side. The shield cost is charged per received chunk
/// on its compressed length, plus one syscall per party batch.
///
/// Parties must chunk their variables in the same order.
///
/// # Errors
///
/// Same as [`federated_average`]; additionally rejects a variable id
/// repeated across one party's chunks.
pub fn federated_average_chunked(
    parties: &[Vec<Vec<u8>>],
    aggregator: &Enclave,
) -> Result<Vec<u8>, DistribError> {
    for chunks in parties {
        aggregator.charge_syscall();
        for chunk in chunks {
            spend_shield(aggregator, chunk.len());
        }
    }
    let decoded = parties
        .iter()
        .map(|chunks| wire::decode_frames(chunks))
        .collect::<Result<Vec<_>, _>>()?;
    let averaged = average_entries(decoded)?;
    let out = wire::encode_frame(&averaged, Codec::Dense);
    spend_shield(aggregator, out.len());
    Ok(out)
}

/// The aggregator's network-shield crypto over `bytes`.
fn spend_shield(aggregator: &Enclave, bytes: usize) {
    let ns = aggregator.cost_model().shield_crypto_ns(bytes as u64);
    aggregator.spend(CostCategory::Network, ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use securetf_tee::{EnclaveImage, ExecutionMode, Platform};

    fn message(values: &[f32]) -> Vec<u8> {
        wire::encode_frame(
            &[(
                0,
                Tensor::from_vec(&[values.len()], values.to_vec()).unwrap(),
            )],
            Codec::Dense,
        )
    }

    #[test]
    fn average_of_two_parties() {
        let avg = federated_average(&[message(&[1.0, 2.0]), message(&[3.0, 6.0])]).unwrap();
        let decoded = wire::decode_frame(&avg).unwrap();
        assert_eq!(decoded[0].1.data(), &[2.0, 4.0]);
    }

    #[test]
    fn single_party_is_identity() {
        let avg = federated_average(&[message(&[5.0])]).unwrap();
        assert_eq!(wire::decode_frame(&avg).unwrap()[0].1.data(), &[5.0]);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            federated_average(&[]),
            Err(DistribError::NoWorkers)
        ));
    }

    #[test]
    fn disagreeing_variables_rejected() {
        let a = wire::encode_frame(&[(0, Tensor::zeros(&[2]))], Codec::Dense);
        let b = wire::encode_frame(&[(1, Tensor::zeros(&[2]))], Codec::Dense);
        assert!(matches!(
            federated_average(&[a, b]),
            Err(DistribError::BadMessage(_))
        ));
    }

    #[test]
    fn disagreeing_shapes_rejected() {
        let a = wire::encode_frame(&[(0, Tensor::zeros(&[2]))], Codec::Dense);
        let b = wire::encode_frame(&[(0, Tensor::zeros(&[3]))], Codec::Dense);
        assert!(matches!(
            federated_average(&[a, b]),
            Err(DistribError::BadMessage(_))
        ));
    }

    #[test]
    fn corrupted_message_rejected() {
        let mut a = message(&[1.0]);
        a.truncate(a.len() - 2);
        assert!(federated_average(&[a]).is_err());
    }

    #[test]
    fn legacy_tagless_message_rejected() {
        // Pre-frame messages start with a raw entry count, not a tag
        // byte; the aggregator must not guess.
        let legacy = wire::encode_frame(&[(0, Tensor::zeros(&[2]))], Codec::Dense)[1..].to_vec();
        assert!(federated_average(&[legacy]).is_err());
    }

    #[test]
    fn average_of_many_parties() {
        let msgs: Vec<Vec<u8>> = (0..10).map(|i| message(&[i as f32])).collect();
        let avg = federated_average(&msgs).unwrap();
        assert_eq!(wire::decode_frame(&avg).unwrap()[0].1.data(), &[4.5]);
    }

    #[test]
    fn quantized_uploads_average_close_to_dense() {
        let t = |vals: &[f32]| Tensor::from_vec(&[vals.len()], vals.to_vec()).unwrap();
        let a = vec![(0u32, t(&[1.0, -2.0, 0.5, 127.0]))];
        let b = vec![(0u32, t(&[3.0, 2.0, -0.5, -127.0]))];
        let dense = federated_average(&[
            wire::encode_frame(&a, Codec::Dense),
            wire::encode_frame(&b, Codec::Dense),
        ])
        .unwrap();
        let quant = federated_average(&[
            wire::encode_frame(&a, Codec::Quantized),
            wire::encode_frame(&b, Codec::Quantized),
        ])
        .unwrap();
        let d = wire::decode_frame(&dense).unwrap();
        let q = wire::decode_frame(&quant).unwrap();
        for (dv, qv) in d[0].1.data().iter().zip(q[0].1.data()) {
            // Each party's quantization error is at most half a step
            // (scale/2); the average of two parties inherits that bound.
            assert!((dv - qv).abs() <= 127.0 / 127.0, "{dv} vs {qv}");
        }
        // Mixed dense + quantized parties are fine too: frames are
        // self-describing.
        let mixed = federated_average(&[
            wire::encode_frame(&a, Codec::Dense),
            wire::encode_frame(&b, Codec::Quantized),
        ])
        .unwrap();
        assert_eq!(wire::decode_frame(&mixed).unwrap()[0].1.shape(), &[4]);
    }

    #[test]
    fn chunked_parties_match_whole_frame_aggregation() {
        let enclave = Platform::builder()
            .build()
            .create_enclave(
                &EnclaveImage::builder().code(b"agg").build(),
                ExecutionMode::Simulation,
            )
            .unwrap();
        let t = |vals: &[f32]| Tensor::from_vec(&[vals.len()], vals.to_vec()).unwrap();
        let party = |base: f32| vec![(0u32, t(&[base, base + 1.0])), (1u32, t(&[base * 2.0]))];
        let whole = federated_average(&[
            wire::encode_frame(&party(1.0), Codec::Dense),
            wire::encode_frame(&party(3.0), Codec::Dense),
        ])
        .unwrap();
        let chunk = |entries: &[(u32, Tensor)]| {
            entries
                .iter()
                .map(|e| wire::encode_frame(std::slice::from_ref(e), Codec::Dense))
                .collect::<Vec<_>>()
        };
        let chunked =
            federated_average_chunked(&[chunk(&party(1.0)), chunk(&party(3.0))], &enclave).unwrap();
        assert_eq!(whole, chunked);
        assert!(enclave.clock().now_ns() > 0, "shield cost must be charged");

        // A variable repeated across one party's chunks is rejected.
        let mut dup = chunk(&party(1.0));
        dup.push(dup[0].clone());
        assert!(federated_average_chunked(&[dup], &enclave).is_err());
    }

    #[test]
    fn shielded_aggregation_charges_on_compressed_length() {
        let enclave_for = || {
            Platform::builder()
                .build()
                .create_enclave(
                    &EnclaveImage::builder().code(b"agg").build(),
                    ExecutionMode::Simulation,
                )
                .unwrap()
        };
        let big = Tensor::from_vec(&[256], (0..256).map(|i| i as f32).collect()).unwrap();
        let parties_of = |codec| {
            vec![
                wire::encode_frame(&[(0, big.clone())], codec),
                wire::encode_frame(&[(0, big.clone())], codec),
            ]
        };

        let dense_enclave = enclave_for();
        federated_average_shielded(&parties_of(Codec::Dense), &dense_enclave).unwrap();
        let dense_ns = dense_enclave.clock().now_ns();

        let quant_enclave = enclave_for();
        federated_average_shielded(&parties_of(Codec::Quantized), &quant_enclave).unwrap();
        let quant_ns = quant_enclave.clock().now_ns();

        // Uploads shrink ~4x; the dense result frame is charged in both
        // runs, so quantized lands in between but strictly cheaper.
        assert!(
            quant_ns < dense_ns,
            "quantized uploads must cost less enclave time: {quant_ns} !< {dense_ns}"
        );
    }
}
