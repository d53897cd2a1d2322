//! The one bounded-exponential-backoff retry schedule.
//!
//! The plan store's publishes retry transient I/O failures on this
//! schedule: [`MAX_RETRIES`] retries after the first attempt, a
//! backoff of [`BASE_BACKOFF_US`] doubling per retry up to
//! [`MAX_BACKOFF_US`]. The backoff clock is *virtual*: [`run`] never
//! sleeps, it accumulates the microseconds a real deployment would have
//! waited, so retry behavior is deterministic and unit-testable to the
//! microsecond.

/// Retries after the first attempt (so `MAX_RETRIES + 1` attempts).
pub const MAX_RETRIES: u32 = 3;
/// Backoff before the first retry, µs.
pub const BASE_BACKOFF_US: u64 = 100;
/// Backoff ceiling, µs.
pub const MAX_BACKOFF_US: u64 = 10_000;

/// The virtual backoff before retrying attempt `attempt` (0-based),
/// exponential with a ceiling.
pub fn backoff_us(attempt: u32) -> u64 {
    let factor = 1u64 << attempt.min(20);
    BASE_BACKOFF_US.saturating_mul(factor).min(MAX_BACKOFF_US)
}

/// Run `op` with bounded retry on transient failures. `op` receives the
/// 0-based attempt index; `retryable` decides whether an error is worth
/// another attempt (a deterministic failure short-circuits).
pub fn run<T, E>(
    mut op: impl FnMut(u32) -> Result<T, E>,
    mut retryable: impl FnMut(&E) -> bool,
) -> RetryOutcome<T, E> {
    let mut virtual_backoff_us = 0u64;
    let mut attempts = 0u32;
    let mut last: Option<E> = None;
    for attempt in 0..=MAX_RETRIES {
        attempts = attempt + 1;
        match op(attempt) {
            Ok(v) => {
                return RetryOutcome {
                    result: Ok(v),
                    attempts,
                    virtual_backoff_us,
                }
            }
            Err(e) => {
                let retry = retryable(&e) && attempt < MAX_RETRIES;
                last = Some(e);
                if !retry {
                    break;
                }
                virtual_backoff_us += backoff_us(attempt);
            }
        }
    }
    RetryOutcome {
        result: Err(last.expect("at least one attempt ran")),
        attempts,
        virtual_backoff_us,
    }
}

/// What a retried operation did: the final result plus how many attempts
/// ran and how long a real deployment would have backed off.
#[derive(Debug)]
pub struct RetryOutcome<T, E> {
    /// The last attempt's result.
    pub result: Result<T, E>,
    /// Attempts actually made (1 ..= `MAX_RETRIES + 1`).
    pub attempts: u32,
    /// Total virtual backoff accumulated between attempts, µs.
    pub virtual_backoff_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_bounded() {
        assert_eq!(backoff_us(0), 100);
        assert_eq!(backoff_us(1), 200);
        assert_eq!(backoff_us(2), 400);
        assert_eq!(backoff_us(30), 10_000);
    }

    #[test]
    fn run_retries_transients_on_the_virtual_clock() {
        let out = run(
            |attempt| {
                if attempt < 2 {
                    Err("transient")
                } else {
                    Ok(attempt)
                }
            },
            |_| true,
        );
        assert_eq!(out.result.unwrap(), 2);
        assert_eq!(out.attempts, 3);
        // 100 (after attempt 0) + 200 (after attempt 1); no wall sleep.
        assert_eq!(out.virtual_backoff_us, 300);
    }

    #[test]
    fn deterministic_failures_short_circuit() {
        let mut calls = 0;
        let out: RetryOutcome<(), &str> = run(
            |_| {
                calls += 1;
                Err("fatal")
            },
            |_| false,
        );
        assert!(out.result.is_err());
        assert_eq!(calls, 1);
        assert_eq!(out.virtual_backoff_us, 0);
    }

    #[test]
    fn exhausted_retries_return_the_last_error() {
        let mut calls = 0;
        let out: RetryOutcome<(), String> = run(
            |a| {
                calls += 1;
                Err(format!("t{a}"))
            },
            |_| true,
        );
        assert_eq!(calls, 4);
        assert_eq!(out.attempts, 4);
        assert_eq!(out.result.unwrap_err(), "t3");
        // No backoff after the last attempt: 100 + 200 + 400.
        assert_eq!(out.virtual_backoff_us, 700);
    }
}
