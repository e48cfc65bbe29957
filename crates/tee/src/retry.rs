//! Bounded, deterministic retry with exponential backoff.
//!
//! Production SGX deployments (§5.6 of the paper) survive transient
//! faults — a CAS briefly unreachable, a dropped network record, a
//! worker mid-respawn — by retrying; integrity violations must instead
//! fail closed. [`RetryPolicy`] captures the retry half: exponential
//! backoff bounded by `max_delay` and `max_attempts`, with jitter drawn
//! deterministically from a seed so every simulated run is
//! reproducible. Waiting is spent on the enclave's clock as
//! [`CostCategory::Other`], never on wall time.

use crate::enclave::Enclave;
use securetf_telemetry::CostCategory;

/// A bounded exponential-backoff schedule with seeded jitter.
///
/// # Examples
///
/// ```
/// use securetf_tee::retry::RetryPolicy;
///
/// let policy = RetryPolicy::default();
/// // Delays grow exponentially and are capped.
/// assert!(policy.delay_ns(1) >= policy.delay_ns(0));
/// assert!(policy.delay_ns(30) <= policy.max_delay_ns + policy.max_delay_ns / 4);
/// // The same policy yields the same schedule.
/// assert_eq!(policy.delay_ns(3), policy.delay_ns(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries, including the first (so `1` means no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual nanoseconds.
    pub base_delay_ns: u64,
    /// Upper bound on a single backoff delay, in virtual nanoseconds.
    pub max_delay_ns: u64,
    /// Seed for the deterministic jitter added to each delay.
    pub jitter_from_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay_ns: 1_000_000,    // 1 ms
            max_delay_ns: 1_000_000_000, // 1 s
            jitter_from_seed: 0,
        }
    }
}

/// Why a retried operation ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetryError<E> {
    /// Every attempt failed with a transient error; the last is carried.
    Exhausted {
        /// Number of attempts made.
        attempts: u32,
        /// The transient error from the final attempt.
        last: E,
    },
    /// An attempt failed with a non-transient error; retrying stopped
    /// immediately (fail-closed for integrity violations).
    Fatal(E),
}

impl<E> RetryError<E> {
    /// The underlying error, regardless of how retrying ended.
    pub fn into_inner(self) -> E {
        match self {
            RetryError::Exhausted { last, .. } => last,
            RetryError::Fatal(e) => e,
        }
    }
}

impl<E: std::fmt::Display> std::fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            RetryError::Fatal(e) => write!(f, "non-retryable failure: {e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for RetryError<E> {}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A policy with `max_attempts` tries and jitter drawn from `seed`.
    pub fn with_seed(max_attempts: u32, seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            jitter_from_seed: seed,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry number `attempt` (0-based), in virtual
    /// nanoseconds: `base · 2^attempt` capped at `max_delay`, plus up to
    /// 25% deterministic jitter.
    pub fn delay_ns(&self, attempt: u32) -> u64 {
        let exp = self
            .base_delay_ns
            .checked_shl(attempt.min(63))
            .unwrap_or(self.max_delay_ns)
            .min(self.max_delay_ns);
        let jitter_span = exp / 4;
        if jitter_span == 0 {
            return exp;
        }
        exp + splitmix64(self.jitter_from_seed ^ u64::from(attempt)) % jitter_span
    }

    /// Runs `op` until it succeeds, fails non-transiently, or attempts
    /// are exhausted. Between attempts the backoff delay is spent on
    /// `enclave` ([`CostCategory::Other`]), so outages with a virtual-time
    /// deadline expire during the wait. `op` receives the 0-based attempt number;
    /// `is_transient` decides whether an error is worth retrying.
    pub fn run<T, E>(
        &self,
        enclave: &Enclave,
        mut op: impl FnMut(u32) -> Result<T, E>,
        is_transient: impl Fn(&E) -> bool,
    ) -> Result<T, RetryError<E>> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(value) => return Ok(value),
                Err(e) if !is_transient(&e) => return Err(RetryError::Fatal(e)),
                Err(e) => {
                    if attempt + 1 >= attempts {
                        return Err(RetryError::Exhausted {
                            attempts: attempt + 1,
                            last: e,
                        });
                    }
                    enclave.spend(CostCategory::Other, self.delay_ns(attempt));
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnclaveImage, ExecutionMode, Platform, SimClock};
    use std::sync::Arc;

    /// An enclave whose clock and telemetry the test reads.
    fn enclave() -> (Arc<Enclave>, SimClock, crate::Telemetry) {
        let clock = SimClock::new();
        let telemetry = clock.telemetry();
        let platform = Platform::builder()
            .clock(clock.clone())
            .telemetry(telemetry.clone())
            .build();
        let image = EnclaveImage::builder().code(b"retry").build();
        let enclave = platform
            .create_enclave(&image, ExecutionMode::Hardware)
            .unwrap();
        (enclave, clock, telemetry)
    }

    #[test]
    fn delays_grow_and_cap() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay_ns: 100,
            max_delay_ns: 1_000,
            jitter_from_seed: 7,
        };
        assert!(p.delay_ns(0) < p.delay_ns(2));
        for attempt in 0..40 {
            assert!(p.delay_ns(attempt) <= 1_000 + 250);
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = RetryPolicy::with_seed(5, 42);
        let b = RetryPolicy::with_seed(5, 42);
        let c = RetryPolicy::with_seed(5, 43);
        let sa: Vec<u64> = (0..5).map(|i| a.delay_ns(i)).collect();
        let sb: Vec<u64> = (0..5).map(|i| b.delay_ns(i)).collect();
        let sc: Vec<u64> = (0..5).map(|i| c.delay_ns(i)).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn run_retries_transient_until_success_and_charges_clock() {
        let (enclave, clock, telemetry) = enclave();
        let (t0, other0) = (clock.now_ns(), telemetry.counter("cost.other.ns").get());
        let p = RetryPolicy::with_seed(5, 1);
        let result = p.run(
            &enclave,
            |attempt| {
                if attempt < 2 {
                    Err("flaky")
                } else {
                    Ok(attempt)
                }
            },
            |_| true,
        );
        assert_eq!(result.unwrap(), 2);
        let waited = p.delay_ns(0) + p.delay_ns(1);
        assert_eq!(clock.now_ns() - t0, waited);
        assert_eq!(telemetry.counter("cost.other.ns").get() - other0, waited);
    }

    #[test]
    fn run_fails_closed_on_non_transient() {
        let (enclave, clock, _) = enclave();
        let t0 = clock.now_ns();
        let p = RetryPolicy::with_seed(5, 1);
        let mut calls = 0;
        let result: Result<(), _> = p.run(
            &enclave,
            |_| {
                calls += 1;
                Err("tampered")
            },
            |_| false,
        );
        assert!(matches!(result, Err(RetryError::Fatal("tampered"))));
        assert_eq!(calls, 1);
        assert_eq!(clock.now_ns(), t0, "fatal errors must not wait");
    }

    #[test]
    fn run_exhausts_after_max_attempts() {
        let (enclave, _, _) = enclave();
        let p = RetryPolicy::with_seed(3, 1);
        let result: Result<(), _> = p.run(&enclave, |_| Err("down"), |_| true);
        match result {
            Err(RetryError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert_eq!(last, "down");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }
}
