//! The networked classification service (paper §4.2).
//!
//! "With this, we developed a classifier service from scratch. The
//! service takes classification requests via network, and uses
//! TensorFlow Lite for inference." This module is that service as a
//! library: a framed request/response protocol over the network shield's
//! secure channel, with the attestation binding clients use to verify
//! they are talking to the right enclave before sending any data.
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
//! inference gateway (`securetf-gateway`) uses it for EDF dispatch and
//! sheds requests whose deadline has already passed. The `'B'` (bye)
//! frame is an explicit goodbye: multiplexing servers cannot tell an
//! idle client from a departed one by an empty transport alone.
//!
//! The `'U'` frame is graceful degradation: while the classifier's
//! enclave is marked failed (crash, pending respawn), the service
//! answers [`Response::Unavailable`] with a retry hint instead of
//! panicking or silently dropping the connection, and recovers as soon
//! as the enclave is revived.

use crate::classifier::SecureClassifier;
use crate::SecureTfError;
use securetf_shield::net::{SecureChannel, Transport};
use securetf_shield::ShieldError;
use securetf_tee::telemetry::{Counter, Histogram};
use securetf_tee::Telemetry;
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

/// Per-response serving telemetry, shared by the single-channel
/// [`serve`] loop and the gateway's response path so the bookkeeping
/// lives in exactly one place.
#[derive(Debug, Clone)]
pub struct ServingMetrics {
    requests: Counter,
    unavailable: Counter,
    errors: Counter,
    latency: Histogram,
}

impl ServingMetrics {
    /// Resolves the serving counters and latency histogram on `telemetry`.
    pub fn for_telemetry(telemetry: &Telemetry) -> Self {
        ServingMetrics {
            requests: telemetry.counter("serving.requests"),
            unavailable: telemetry.counter("serving.unavailable"),
            errors: telemetry.counter("serving.errors"),
            latency: telemetry.histogram("serving.request_latency_ns"),
        }
    }

    /// Records one answered request: the request counter, its latency,
    /// and the per-outcome counter.
    pub fn record(&self, response: &Response, latency_ns: u64) {
        self.requests.inc();
        self.latency.record(latency_ns);
        match response {
            Response::Unavailable { .. } => self.unavailable.inc(),
            Response::Error { .. } => self.errors.inc(),
            Response::Label { .. } => {}
        }
    }
}

/// Serves classification requests from one secure channel until the
/// client disconnects. Returns the number of requests served.
///
/// Malformed requests are answered with [`Response::Error`] rather than
/// killing the connection; channel-level violations (tampered records)
/// terminate the session. While the classifier's enclave is marked
/// failed, requests are answered with [`Response::Unavailable`] —
/// graceful degradation instead of a panic — and service resumes once
/// the enclave is revived (respawn + re-attestation).
///
/// # Errors
///
/// Returns [`SecureTfError::Shield`] on channel violations.
pub fn serve<T: Transport>(
    classifier: &mut SecureClassifier,
    channel: &mut SecureChannel<T>,
) -> Result<u64, SecureTfError> {
    let metrics = ServingMetrics::for_telemetry(classifier.enclave().telemetry());
    let clock = classifier.enclave().clock().clone();
    let mut served = 0u64;
    loop {
        let frame = match channel.recv() {
            Ok(frame) => frame,
            Err(ShieldError::ChannelClosed) => return Ok(served),
            Err(e) => return Err(SecureTfError::Shield(e)),
        };
        let started_ns = clock.now_ns();
        let response = match decode_request(&frame) {
            Ok(request) if classifier.enclave().is_failed() => Response::Unavailable {
                id: request.id,
                retry_after_ns: RETRY_AFTER_HINT_NS,
            },
            Ok(request) => match classifier.classify(&request.input) {
                Ok((label, _)) => Response::Label {
                    id: request.id,
                    label: label as u32,
                },
                Err(e) => Response::Error {
                    id: request.id,
                    message: e.to_string(),
                },
            },
            // The body is hostile, but when the header parses the real
            // request id still lets the client correlate the failure.
            Err(e) => Response::Error {
                id: salvage_request_id(&frame).unwrap_or(0),
                message: e.to_string(),
            },
        };
        match channel.send(&encode_response(&response)) {
            Ok(()) => {
                served += 1;
                metrics.record(&response, clock.now_ns() - started_ns);
            }
            // The channel's own endpoint died mid-reply: the session is
            // over, but requests already answered still count.
            Err(ShieldError::ChannelClosed) => return Ok(served),
            Err(e) => return Err(SecureTfError::Shield(e)),
        }
    }
}

/// Client helper: sends one request and awaits the response.
///
/// # Errors
///
/// Returns [`SecureTfError::Shield`] on channel or framing violations.
pub fn request_label<T: Transport>(
    channel: &mut SecureChannel<T>,
    id: u64,
    input: &Tensor,
) -> Result<Response, SecureTfError> {
    channel
        .send(&encode_request(&Request::new(id, input.clone())))
        .map_err(SecureTfError::Shield)?;
    let frame = channel.recv().map_err(SecureTfError::Shield)?;
    decode_response(&frame).map_err(SecureTfError::Shield)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::profile::RuntimeProfile;
    use securetf_shield::net::{duplex, PipeEnd, Role};
    use securetf_tee::{EnclaveImage, ExecutionMode, Platform};
    use securetf_tensor::graph::Graph;
    use securetf_tflite::model::LiteModel;

    fn tiny_model() -> LiteModel {
        let mut g = Graph::new();
        let x = g.placeholder("input", &[0, 6]);
        let w = g.constant(
            "w",
            Tensor::from_vec(&[6, 3], (0..18).map(|i| (i % 5) as f32 * 0.1).collect()).unwrap(),
        );
        let y = g.matmul(x, w).unwrap();
        let name = g.nodes()[y.index()].name.clone();
        LiteModel::convert(&g, "input", &name).unwrap()
    }

    struct Spin(PipeEnd);

    impl Transport for Spin {
        fn send(&self, m: Vec<u8>) {
            self.0.send(m);
        }

        fn recv(&self) -> Option<Vec<u8>> {
            for _ in 0..200_000 {
                if let Some(m) = self.0.recv() {
                    return Some(m);
                }
                std::thread::yield_now();
            }
            None
        }
    }

    fn client_enclave() -> std::sync::Arc<securetf_tee::Enclave> {
        let platform = Platform::builder().build();
        platform
            .create_enclave(
                &EnclaveImage::builder().code(b"client").build(),
                ExecutionMode::Simulation,
            )
            .expect("enclave")
    }

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

    #[test]
    fn serve_answers_requests_and_counts() {
        let mut deployment = Deployment::new(ExecutionMode::Hardware);
        deployment.publish_model("svc", "/m", &tiny_model()).unwrap();
        let mut classifier = deployment
            .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
            .unwrap();

        let (client_end, server_end) = duplex(None);
        let service_enclave = classifier.enclave().clone();
        let server = std::thread::spawn(move || {
            let mut channel =
                SecureChannel::handshake(Spin(server_end), service_enclave, Role::Responder)
                    .expect("handshake");
            (channel.transcript_hash(), move |c: &mut SecureClassifier| {
                serve(c, &mut channel)
            })
        });
        let mut client =
            SecureChannel::handshake(Spin(client_end), client_enclave(), Role::Initiator)
                .expect("handshake");
        let (server_transcript, mut serve_fn) = server.join().expect("join");
        assert_eq!(server_transcript, client.transcript_hash());

        // Run the server on this thread after queueing client traffic
        // (the in-memory pipe buffers requests).
        for i in 0..3u64 {
            client
                .send(&encode_request(&Request::new(i, Tensor::full(&[1, 6], i as f32))))
                .unwrap();
        }
        // One malformed frame, and one whose body is truncated but whose
        // header (and so its id) still parses.
        client.send(b"garbage").unwrap();
        let full = encode_request(&Request::new(77, Tensor::full(&[1, 6], 0.0)));
        client.send(&full[..full.len() - 2]).unwrap();
        drop_extra(&mut client); // no-op, keeps client mutable in scope
        let served = serve_fn(&mut classifier).expect("serve");
        assert_eq!(served, 5);
        for i in 0..3u64 {
            match decode_response(&client.recv().expect("response")).expect("frame") {
                Response::Label { id, label } => {
                    assert_eq!(id, i);
                    assert!(label < 3);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match decode_response(&client.recv().expect("response")).expect("frame") {
            Response::Error { id, message } => {
                assert_eq!(id, 0, "unsalvageable frame lands on id 0");
                assert!(message.contains("iago") || message.contains("frame"), "{message}");
            }
            other => panic!("expected error, got {other:?}"),
        }
        match decode_response(&client.recv().expect("response")).expect("frame") {
            Response::Error { id, .. } => {
                assert_eq!(id, 77, "truncated body must keep its salvaged id");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    fn drop_extra<T>(_: &mut T) {}

    #[test]
    fn failed_enclave_degrades_to_unavailable_then_recovers() {
        let mut deployment = Deployment::new(ExecutionMode::Hardware);
        deployment.publish_model("svc", "/m", &tiny_model()).unwrap();
        let mut classifier = deployment
            .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
            .unwrap();

        // The channel terminates in a separate front-end enclave, so the
        // session survives the classifier enclave's crash.
        let (client_end, server_end) = duplex(None);
        let frontend = client_enclave();
        let server = std::thread::spawn(move || {
            SecureChannel::handshake(Spin(server_end), frontend, Role::Responder)
                .expect("handshake")
        });
        let mut client =
            SecureChannel::handshake(Spin(client_end), client_enclave(), Role::Initiator)
                .expect("handshake");
        let mut server = server.join().expect("join");

        let ask = |client: &mut SecureChannel<Spin>, id: u64| {
            client
                .send(&encode_request(&Request::new(id, Tensor::full(&[1, 6], 1.0))))
                .unwrap();
        };

        // Healthy request, then crash, then two requests during the
        // outage, then revive and a final request.
        ask(&mut client, 1);
        let served = serve(&mut classifier, &mut server).expect("healthy serve");
        assert_eq!(served, 1);
        match decode_response(&client.recv().unwrap()).unwrap() {
            Response::Label { id: 1, .. } => {}
            other => panic!("expected label, got {other:?}"),
        }

        classifier.enclave().mark_failed();
        ask(&mut client, 2);
        ask(&mut client, 3);
        let served = serve(&mut classifier, &mut server).expect("serving never panics");
        assert_eq!(served, 2);
        for want in [2u64, 3] {
            match decode_response(&client.recv().unwrap()).unwrap() {
                Response::Unavailable { id, retry_after_ns } => {
                    assert_eq!(id, want);
                    assert!(retry_after_ns > 0);
                }
                other => panic!("expected unavailable, got {other:?}"),
            }
        }

        classifier.enclave().revive();
        ask(&mut client, 4);
        let served = serve(&mut classifier, &mut server).expect("recovered");
        assert_eq!(served, 1);
        match decode_response(&client.recv().unwrap()).unwrap() {
            Response::Label { id: 4, .. } => {}
            other => panic!("expected recovery, got {other:?}"),
        }
    }

    #[test]
    fn serving_records_latency_and_degradations() {
        let clock = securetf_tee::SimClock::new();
        let telemetry = clock.telemetry();
        let mut deployment =
            Deployment::instrumented(ExecutionMode::Hardware, clock, telemetry.clone());
        deployment.publish_model("svc", "/m", &tiny_model()).unwrap();
        let mut classifier = deployment
            .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
            .unwrap();

        let (client_end, server_end) = duplex(None);
        let frontend = client_enclave();
        let server = std::thread::spawn(move || {
            SecureChannel::handshake(Spin(server_end), frontend, Role::Responder)
                .expect("handshake")
        });
        let mut client =
            SecureChannel::handshake(Spin(client_end), client_enclave(), Role::Initiator)
                .expect("handshake");
        let mut server = server.join().expect("join");

        let ask = |client: &mut SecureChannel<Spin>, id: u64| {
            client
                .send(&encode_request(&Request::new(id, Tensor::full(&[1, 6], 1.0))))
                .unwrap();
        };

        // Two healthy requests, then one during an outage.
        ask(&mut client, 1);
        ask(&mut client, 2);
        serve(&mut classifier, &mut server).expect("serve");
        classifier.enclave().mark_failed();
        ask(&mut client, 3);
        serve(&mut classifier, &mut server).expect("degraded serve");

        assert_eq!(telemetry.counter("serving.requests").get(), 3);
        assert_eq!(telemetry.counter("serving.unavailable").get(), 1);
        assert_eq!(telemetry.counter("serving.errors").get(), 0);
        let latency = telemetry.histogram("serving.request_latency_ns").snapshot();
        assert_eq!(latency.count, 3);
        // Healthy requests consume virtual time (inference + shields);
        // the degraded answer is effectively free.
        assert!(latency.max_ns > 0);
    }

    #[test]
    fn request_label_helper() {
        let mut deployment = Deployment::new(ExecutionMode::Hardware);
        deployment.publish_model("svc", "/m", &tiny_model()).unwrap();
        let mut classifier = deployment
            .deploy_classifier("svc", "/m", RuntimeProfile::scone_lite())
            .unwrap();
        let (client_end, server_end) = duplex(None);
        let service_enclave = classifier.enclave().clone();
        let server_channel = std::thread::spawn(move || {
            SecureChannel::handshake(Spin(server_end), service_enclave, Role::Responder)
                .expect("handshake")
        });
        let mut client =
            SecureChannel::handshake(Spin(client_end), client_enclave(), Role::Initiator)
                .expect("handshake");
        let mut server = server_channel.join().expect("join");

        // Queue request, serve one round, read response.
        client
            .send(&encode_request(&Request::new(5, Tensor::full(&[1, 6], 1.0))))
            .unwrap();
        serve(&mut classifier, &mut server).expect("serve drained the queue");
        let frame = client.recv().expect("response");
        match decode_response(&frame).expect("frame") {
            Response::Label { id, .. } => assert_eq!(id, 5),
            other => panic!("unexpected {other:?}"),
        }
    }
}
