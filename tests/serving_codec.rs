//! Property tests of the serving wire codec (ISSUE 7 satellite): the
//! encode/decode pairs roundtrip exactly and garbage tags are rejected.
//! Truncation, trailing bytes and id salvage from a malformed frame are
//! rows of the shared harness, `hostile_input.rs`.

use proptest::prelude::*;
use securetf::serving::{
    decode_request, decode_response, encode_request, encode_response, is_goodbye,
    salvage_request_id, Request, Response,
};
use securetf_tensor::tensor::Tensor;

/// A well-formed request from seeded parts. Payload values come from a
/// finite grid so equality is exact (no NaN).
fn build_request(id: u64, deadline: Option<u64>, dims: &[usize], cells: &[u8]) -> Request {
    let count: usize = dims.iter().product();
    let data: Vec<f32> = (0..count)
        .map(|i| cells[i % cells.len()] as f32 * 0.125 - 16.0)
        .collect();
    let input = Tensor::from_vec(dims, data).unwrap();
    match deadline {
        Some(d) => Request::with_deadline(id, input, d),
        None => Request::new(id, input),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_roundtrips_exactly(
        id in any::<u64>(),
        has_deadline in any::<bool>(),
        deadline_val in any::<u64>(),
        rows in 1usize..4,
        cols in 1usize..9,
        cells in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let request = build_request(id, has_deadline.then_some(deadline_val), &[rows, cols], &cells);
        let decoded = decode_request(&encode_request(&request)).unwrap();
        prop_assert_eq!(decoded, request);
    }

    #[test]
    fn response_roundtrips_exactly(
        id in any::<u64>(),
        label in any::<u32>(),
        retry in any::<u64>(),
        message in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let message = String::from_utf8_lossy(&message).into_owned();
        for response in [
            Response::Label { id, label },
            Response::Error { id, message },
            Response::Unavailable { id, retry_after_ns: retry },
        ] {
            let decoded = decode_response(&encode_response(&response)).unwrap();
            prop_assert_eq!(decoded, response);
        }
    }

    #[test]
    fn garbage_prefix_rejected(
        tag in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Any frame whose tag byte is not a known kind must be
        // rejected outright, whatever follows.
        let mut frame = vec![tag];
        frame.extend_from_slice(&body);
        if tag != b'Q' && tag != b'D' {
            prop_assert!(decode_request(&frame).is_err());
            prop_assert_eq!(salvage_request_id(&frame), None);
        }
        if tag != b'R' && tag != b'E' && tag != b'U' {
            prop_assert!(decode_response(&frame).is_err());
        }
        if frame != [b'B'] {
            prop_assert!(!is_goodbye(&frame));
        }
    }
}
