//! Serving telemetry: every response the gateway sends is counted here,
//! with its latency from admission.

use securetf::serving::Response;
use securetf_tee::telemetry::{Counter, Histogram};
use securetf_tee::Telemetry;

/// Per-response serving telemetry: the request counter, its latency, and
/// a counter per non-label outcome.
pub(crate) struct ServingMetrics {
    requests: Counter,
    unavailable: Counter,
    errors: Counter,
    latency: Histogram,
}

impl ServingMetrics {
    pub(crate) fn for_telemetry(telemetry: &Telemetry) -> Self {
        ServingMetrics {
            requests: telemetry.counter("serving.requests"),
            unavailable: telemetry.counter("serving.unavailable"),
            errors: telemetry.counter("serving.errors"),
            latency: telemetry.histogram("serving.request_latency_ns"),
        }
    }

    pub(crate) fn record(&self, response: &Response, latency_ns: u64) {
        self.requests.inc();
        self.latency.record(latency_ns);
        match response {
            Response::Unavailable { .. } => self.unavailable.inc(),
            Response::Error { .. } => self.errors.inc(),
            Response::Label { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{demo_gateway, demo_input, SwitchTransport};
    use crate::GatewayConfig;
    use securetf::serving::{decode_response, encode_request, Request, RETRY_AFTER_HINT_NS};
    use securetf_shield::net::SecureChannel;
    use securetf_tee::SimClock;

    fn ask(client: &mut SecureChannel<SwitchTransport>, id: u64) {
        client
            .send(&encode_request(&Request::new(id, demo_input(0, id))))
            .unwrap();
    }

    fn drain(client: &mut SecureChannel<SwitchTransport>) -> Vec<Response> {
        let mut out = Vec::new();
        while let Ok(Some(frame)) = client.try_recv() {
            out.push(decode_response(&frame).expect("response frame"));
        }
        out
    }

    #[test]
    fn serve_answers_requests_and_counts() {
        let (mut gateway, mut clients) = demo_gateway(1, GatewayConfig::default());
        let telemetry = gateway.classifier().enclave().telemetry().clone();
        let client = &mut clients[0];
        for id in 0..3 {
            ask(client, id);
        }
        // One malformed frame, and one whose body is truncated but whose
        // header (and so its id) still parses.
        client.send(b"garbage").unwrap();
        let full = encode_request(&Request::new(77, demo_input(0, 3)));
        client.send(&full[..full.len() - 2]).unwrap();
        gateway.flush().expect("flush");

        // Malformed frames are answered at admission, the batch after.
        let responses = drain(client);
        assert_eq!(responses.len(), 5, "{responses:?}");
        match &responses[0] {
            Response::Error { id, message } => {
                assert_eq!(*id, 0, "unsalvageable frame lands on id 0");
                assert!(message.contains("iago") || message.contains("frame"), "{message}");
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert!(
            matches!(responses[1], Response::Error { id: 77, .. }),
            "truncated body must keep its salvaged id: {:?}",
            responses[1]
        );
        for (want, response) in (0..3).zip(&responses[2..]) {
            match response {
                Response::Label { id, label } => {
                    assert_eq!(*id, want);
                    assert!(*label < 3);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(gateway.report().admitted, 3);
        assert_eq!(gateway.report().answered, 5);
        assert_eq!(telemetry.counter("serving.requests").get(), 5);
        assert_eq!(telemetry.counter("serving.errors").get(), 2);
    }

    #[test]
    fn failed_enclave_degrades_to_unavailable_then_recovers() {
        let (mut gateway, mut clients) = demo_gateway(1, GatewayConfig::default());
        let client = &mut clients[0];

        // Healthy request, then crash, then two requests during the
        // outage, then revive and a final request.
        ask(client, 1);
        gateway.flush().expect("healthy flush");
        assert!(matches!(drain(client)[..], [Response::Label { id: 1, .. }]));

        gateway.classifier().enclave().mark_failed();
        ask(client, 2);
        ask(client, 3);
        gateway.flush().expect("serving never fails on an outage");
        let responses = drain(client);
        assert_eq!(responses.len(), 2, "{responses:?}");
        for (want, response) in [2, 3].into_iter().zip(&responses) {
            match response {
                Response::Unavailable { id, retry_after_ns } => {
                    assert_eq!(*id, want);
                    assert_eq!(*retry_after_ns, RETRY_AFTER_HINT_NS);
                }
                other => panic!("expected unavailable, got {other:?}"),
            }
        }
        assert_eq!(gateway.report().shed, 2);

        gateway.classifier().enclave().revive();
        ask(client, 4);
        gateway.flush().expect("recovered flush");
        assert!(matches!(drain(client)[..], [Response::Label { id: 4, .. }]));
        assert_eq!(gateway.report().answered, 4);
    }

    #[test]
    fn serving_records_latency_and_degradations() {
        let telemetry = SimClock::new().telemetry();
        let metrics = ServingMetrics::for_telemetry(&telemetry);
        metrics.record(&Response::Label { id: 1, label: 0 }, 500);
        metrics.record(&Response::Label { id: 2, label: 2 }, 700);
        metrics.record(
            &Response::Unavailable {
                id: 3,
                retry_after_ns: RETRY_AFTER_HINT_NS,
            },
            0,
        );
        metrics.record(
            &Response::Error {
                id: 4,
                message: "bad frame".into(),
            },
            0,
        );

        assert_eq!(telemetry.counter("serving.requests").get(), 4);
        assert_eq!(telemetry.counter("serving.unavailable").get(), 1);
        assert_eq!(telemetry.counter("serving.errors").get(), 1);
        let latency = telemetry.histogram("serving.request_latency_ns").snapshot();
        assert_eq!(latency.count, 4);
        assert_eq!(latency.sum_ns, 1200);
        assert_eq!(latency.max_ns, 700);
    }
}
