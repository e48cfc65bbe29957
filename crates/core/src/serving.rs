//! The networked classification service (paper §4.2).
//!
//! "With this, we developed a classifier service from scratch. The
//! service takes classification requests via network, and uses
//! TensorFlow Lite for inference." This module is that service's wire
//! protocol: framed requests and responses carried over the network
//! shield's attested secure channel. The service loop that answers them
//! is the inference gateway (`securetf-gateway`), which takes one `[1, …]`
//! row per request.
//!
//! Protocol (all little-endian, inside AEAD records):
//!
//! ```text
//! request  := 'Q' request_id:u64 rank:u32 dims:u32* payload:f32*
//!           | 'D' request_id:u64 deadline:u64 rank:u32 dims:u32* payload:f32*
//!           | 'B'
//! response := 'R' request_id:u64 label:u32
//!           | 'E' request_id:u64 len:u32 message:bytes
//!           | 'U' request_id:u64 retry_after:u64
//! ```
//!
//! The `'D'` frame carries an absolute virtual-time deadline; the
//! gateway uses it for EDF dispatch and sheds requests whose deadline
//! has already passed. The `'B'` (bye) frame is an explicit goodbye:
//! multiplexing servers cannot tell an idle client from a departed one
//! by an empty transport alone.
//!
//! The `'U'` frame is graceful degradation: while the classifier's
//! enclave is marked failed (crash, pending respawn), the service
//! answers [`Response::Unavailable`] with a retry hint instead of
//! panicking or silently dropping the connection, and recovers as soon
//! as the enclave is revived.

use securetf_shield::ShieldError;
use securetf_tensor::bytes::{put_f32s, put_len_prefixed, put_shape, put_u32, put_u64, Reader};
use securetf_tensor::tensor::Tensor;

/// A classification request on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id.
    pub id: u64,
    /// Absolute virtual-time deadline, or `None` for best-effort.
    pub deadline_ns: Option<u64>,
    /// The input tensor.
    pub input: Tensor,
}

impl Request {
    /// A best-effort request (no deadline).
    pub fn new(id: u64, input: Tensor) -> Self {
        Request {
            id,
            deadline_ns: None,
            input,
        }
    }

    /// A request that must be answered by the absolute virtual-time
    /// instant `deadline_ns`.
    pub fn with_deadline(id: u64, input: Tensor, deadline_ns: u64) -> Self {
        Request {
            id,
            deadline_ns: Some(deadline_ns),
            input,
        }
    }
}

/// A classification response on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Successful classification.
    Label {
        /// Echoed request id.
        id: u64,
        /// Predicted class.
        label: u32,
    },
    /// The service rejected or failed the request.
    Error {
        /// Echoed request id.
        id: u64,
        /// Human-readable reason.
        message: String,
    },
    /// The service is temporarily degraded (its enclave is down, e.g.
    /// awaiting respawn and re-attestation). The client should retry
    /// after the hinted delay.
    Unavailable {
        /// Echoed request id.
        id: u64,
        /// Suggested wait before retrying, virtual nanoseconds.
        retry_after_ns: u64,
    },
}

/// Retry hint attached to [`Response::Unavailable`]: a rough estimate of
/// respawning an enclave and re-attesting it through CAS.
pub const RETRY_AFTER_HINT_NS: u64 = 5_000_000;

/// Encodes a request frame (`'Q'`, or `'D'` when a deadline is set).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(21 + request.input.len() * 4);
    out.push(if request.deadline_ns.is_some() { b'D' } else { b'Q' });
    put_u64(&mut out, request.id);
    if let Some(deadline) = request.deadline_ns {
        put_u64(&mut out, deadline);
    }
    put_shape(&mut out, request.input.shape());
    put_f32s(&mut out, request.input.data());
    out
}

/// The tag and id every request frame starts with.
fn request_header(r: &mut Reader) -> Result<(u8, u64), ShieldError> {
    match r.u8()? {
        tag @ (b'Q' | b'D') => Ok((tag, r.u64()?)),
        _ => Err(ShieldError::IagoViolation("not a request frame")),
    }
}

/// Decodes a request frame.
///
/// # Errors
///
/// Returns [`ShieldError::IagoViolation`] on malformed frames (hostile
/// lengths, truncation, trailing bytes) — the service treats every frame
/// as adversarial input.
pub fn decode_request(bytes: &[u8]) -> Result<Request, ShieldError> {
    let mut r = Reader::new(bytes);
    let (tag, id) = request_header(&mut r)?;
    let deadline_ns = if tag == b'D' { Some(r.u64()?) } else { None };
    let (shape, elements) = r.shape(8)?;
    if elements > 16_000_000 {
        return Err(ShieldError::IagoViolation("hostile tensor size"));
    }
    let data = r.f32s(elements)?;
    r.finish()?;
    let input = Tensor::from_vec(&shape, data)
        .map_err(|_| ShieldError::IagoViolation("inconsistent tensor"))?;
    Ok(Request {
        id,
        deadline_ns,
        input,
    })
}

/// Recovers the request id from a frame whose header parses even though
/// the body is malformed, so errors can be correlated by the client
/// instead of landing on id 0.
pub fn salvage_request_id(bytes: &[u8]) -> Option<u64> {
    request_header(&mut Reader::new(bytes)).ok().map(|(_, id)| id)
}

/// Encodes the explicit goodbye frame a client sends before departing a
/// multiplexing server.
pub fn encode_goodbye() -> Vec<u8> {
    vec![b'B']
}

/// Whether `bytes` is the goodbye frame.
pub fn is_goodbye(bytes: &[u8]) -> bool {
    bytes == [b'B']
}

/// Encodes a response frame.
pub fn encode_response(response: &Response) -> Vec<u8> {
    match response {
        Response::Label { id, label } => {
            let mut out = Vec::with_capacity(13);
            out.push(b'R');
            put_u64(&mut out, *id);
            put_u32(&mut out, *label);
            out
        }
        Response::Error { id, message } => {
            let mut out = Vec::with_capacity(13 + message.len());
            out.push(b'E');
            put_u64(&mut out, *id);
            put_len_prefixed(&mut out, message.as_bytes());
            out
        }
        Response::Unavailable { id, retry_after_ns } => {
            let mut out = Vec::with_capacity(17);
            out.push(b'U');
            put_u64(&mut out, *id);
            put_u64(&mut out, *retry_after_ns);
            out
        }
    }
}

/// Decodes a response frame.
///
/// # Errors
///
/// Returns [`ShieldError::IagoViolation`] on malformed frames.
pub fn decode_response(bytes: &[u8]) -> Result<Response, ShieldError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8()?;
    let id = r.u64()?;
    let response = match tag {
        b'R' => Response::Label {
            id,
            label: r.u32()?,
        },
        b'E' => Response::Error {
            id,
            message: r.str()?.to_string(),
        },
        b'U' => Response::Unavailable {
            id,
            retry_after_ns: r.u64()?,
        },
        _ => return Err(ShieldError::IagoViolation("unknown response frame")),
    };
    r.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let request = Request::new(
            42,
            Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap(),
        );
        assert_eq!(decode_request(&encode_request(&request)).unwrap(), request);
        let deadlined = Request::with_deadline(43, Tensor::full(&[1, 4], 0.5), 9_000_000);
        assert_eq!(decode_request(&encode_request(&deadlined)).unwrap(), deadlined);
        assert!(is_goodbye(&encode_goodbye()));
        assert!(decode_request(&encode_goodbye()).is_err());
        for response in [
            Response::Label { id: 7, label: 3 },
            Response::Error {
                id: 9,
                message: "bad shape".to_string(),
            },
            Response::Unavailable {
                id: 11,
                retry_after_ns: RETRY_AFTER_HINT_NS,
            },
        ] {
            assert_eq!(
                decode_response(&encode_response(&response)).unwrap(),
                response
            );
        }
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(decode_request(b"").is_err());
        assert!(decode_request(b"X123456789012").is_err());
        // Hostile rank.
        let mut hostile = vec![b'Q'];
        hostile.extend_from_slice(&1u64.to_le_bytes());
        hostile.extend_from_slice(&1000u32.to_le_bytes());
        assert!(decode_request(&hostile).is_err());
        // Hostile element count.
        let mut hostile = vec![b'Q'];
        hostile.extend_from_slice(&1u64.to_le_bytes());
        hostile.extend_from_slice(&2u32.to_le_bytes());
        hostile.extend_from_slice(&100_000u32.to_le_bytes());
        hostile.extend_from_slice(&100_000u32.to_le_bytes());
        assert!(decode_request(&hostile).is_err());
        assert!(decode_response(b"Z").is_err());
        assert!(decode_response(&[b'R', 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn overflowing_shape_product_is_rejected() {
        // 'Q' | id | rank 4 | 65536 x4: 29 bytes claiming 2^64 elements.
        // An unchecked product panics in debug builds; in release it
        // wraps to 0 and the frame decodes to a tensor of shape
        // [65536; 4] holding nothing.
        let mut frame = vec![b'Q'];
        put_u64(&mut frame, 1);
        put_shape(&mut frame, &[65536; 4]);
        assert_eq!(
            decode_request(&frame),
            Err(ShieldError::IagoViolation("element count overflows"))
        );
    }

    #[test]
    fn salvage_recovers_id_from_malformed_bodies() {
        // A truncated request whose header still parses keeps its id.
        let full = encode_request(&Request::new(0xAB, Tensor::full(&[1, 4], 1.0)));
        let truncated = &full[..full.len() - 3];
        assert!(decode_request(truncated).is_err());
        assert_eq!(salvage_request_id(truncated), Some(0xAB));
        let deadlined = encode_request(&Request::with_deadline(7, Tensor::full(&[1, 2], 0.0), 5));
        assert_eq!(salvage_request_id(&deadlined[..10]), Some(7));
        // Unknown tags and too-short frames salvage nothing.
        assert_eq!(salvage_request_id(b"garbage"), None);
        assert_eq!(salvage_request_id(b"Xabcdefgh"), None);
    }
}
