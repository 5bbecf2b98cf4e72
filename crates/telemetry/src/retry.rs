//! The one retry/backoff policy every SLCS session client shares.
//!
//! The resilient campaign's in-sim sessions and the `collector-load`
//! binary's TCP sessions both pace their retries through the
//! [`RetryPolicy`] their [`crate::client::SessionClient`] carries, so
//! the two drivers cannot drift apart in cap, jitter or time base. The
//! contract:
//!
//! * **virtual time** — delays are [`SimDuration`]s added to a sim-time
//!   clock; nothing here consults the host;
//! * **bounded exponent** — attempt `k` scales the base delay by
//!   `2^min(k, 20)`, so the doubling can never overflow into a
//!   multi-century wait;
//! * **seeded jitter** — a ±20% factor drawn from the caller's
//!   [`SimRng`], so retry storms decorrelate deterministically.
//!
//! The draw order (one `range_f64(0.8, 1.2)` per backoff) is part of the
//! determinism contract: the resilient campaign's datasets depend on
//! it byte for byte.

use starlink_simcore::{SimDuration, SimRng};

/// A capped, jittered exponential-backoff retry policy in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts beyond the first before the caller gives up.
    pub max_retries: u32,
    /// Delay before the first retry; attempt `k` waits about
    /// `base * 2^k`, jittered.
    pub base: SimDuration,
}

impl RetryPolicy {
    /// Exponent cap: `2^20 * base` is the largest possible mean delay.
    pub const MAX_EXPONENT: u64 = 20;

    /// A policy with `max_retries` retries starting at `base`.
    pub fn new(max_retries: u32, base: SimDuration) -> Self {
        RetryPolicy { max_retries, base }
    }

    /// Total upload attempts the policy allows (the first try plus every
    /// retry).
    pub fn attempts(&self) -> u64 {
        u64::from(self.max_retries) + 1
    }

    /// The jittered delay to wait after failed attempt `attempt`
    /// (0-based). Consumes exactly one jitter draw from `rng`.
    pub fn backoff(&self, attempt: u64, rng: &mut SimRng) -> SimDuration {
        let scale = (1u64 << attempt.min(Self::MAX_EXPONENT)) as f64 * rng.range_f64(0.8, 1.2);
        self.base.mul_f64(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_within_jitter_bounds() {
        let policy = RetryPolicy::new(6, SimDuration::from_secs(30));
        let mut rng = SimRng::seed_from(1).stream("retry-test");
        for attempt in 0..8u64 {
            let d = policy.backoff(attempt, &mut rng).as_nanos() as f64;
            let mean = 30e9 * (1u64 << attempt) as f64;
            assert!(d >= mean * 0.8 - 1.0, "attempt {attempt}: {d} too short");
            assert!(d <= mean * 1.2 + 1.0, "attempt {attempt}: {d} too long");
        }
    }

    #[test]
    fn exponent_is_capped() {
        let policy = RetryPolicy::new(64, SimDuration::from_secs(1));
        let mut rng = SimRng::seed_from(2).stream("retry-test");
        let huge = policy.backoff(63, &mut rng);
        let capped = 1e9 * (1u64 << RetryPolicy::MAX_EXPONENT) as f64;
        assert!(huge.as_nanos() as f64 <= capped * 1.2 + 1.0);
    }

    #[test]
    fn same_rng_state_same_delay() {
        let policy = RetryPolicy::new(3, SimDuration::from_secs(30));
        let a = policy.backoff(2, &mut SimRng::seed_from(9).stream("j"));
        let b = policy.backoff(2, &mut SimRng::seed_from(9).stream("j"));
        assert_eq!(a, b);
    }

    #[test]
    fn attempts_counts_the_first_try() {
        assert_eq!(RetryPolicy::new(0, SimDuration::from_secs(1)).attempts(), 1);
        assert_eq!(RetryPolicy::new(6, SimDuration::from_secs(1)).attempts(), 7);
    }
}
