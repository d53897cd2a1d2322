//! The one bounded-exponential-backoff retry policy.
//!
//! Previously the robust profiler and the batch driver each carried their
//! own retry constants; this module is the single source of truth. The
//! backoff clock is *virtual*: [`RetryPolicy::run`] never sleeps, it
//! accumulates the microseconds a real deployment would have waited, so
//! retry behavior is deterministic and unit-testable to the microsecond.

/// Bounded exponential backoff (the retry ladder of the robust profiler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts).
    pub max_retries: u32,
    /// Backoff before the first retry, µs.
    pub base_backoff_us: u64,
    /// Backoff ceiling, µs.
    pub max_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff_us: 100,
            max_backoff_us: 10_000,
        }
    }
}

impl RetryPolicy {
    /// Never retry.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The virtual backoff before retrying attempt `attempt` (0-based),
    /// exponential with a ceiling.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        let factor = 1u64 << attempt.min(20);
        self.base_backoff_us
            .saturating_mul(factor)
            .min(self.max_backoff_us)
    }

    /// Run `op` with bounded retry on transient failures. `op` receives
    /// the 0-based attempt index; `retryable` decides whether an error is
    /// worth another attempt (a deterministic failure short-circuits).
    pub fn run<T, E>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, E>,
        mut retryable: impl FnMut(&E) -> bool,
    ) -> RetryOutcome<T, E> {
        let mut virtual_backoff_us = 0u64;
        let mut attempts = 0u32;
        let mut last: Option<E> = None;
        for attempt in 0..=self.max_retries {
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
                    let retry = retryable(&e) && attempt < self.max_retries;
                    last = Some(e);
                    if !retry {
                        break;
                    }
                    virtual_backoff_us += self.backoff_us(attempt);
                }
            }
        }
        RetryOutcome {
            result: Err(last.expect("at least one attempt ran")),
            attempts,
            virtual_backoff_us,
        }
    }
}

/// What a retried operation did: the final result plus how many attempts
/// ran and how long a real deployment would have backed off.
#[derive(Debug)]
pub struct RetryOutcome<T, E> {
    /// The last attempt's result.
    pub result: Result<T, E>,
    /// Attempts actually made (1 ..= max_retries + 1).
    pub attempts: u32,
    /// Total virtual backoff accumulated between attempts, µs.
    pub virtual_backoff_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_bounded() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_us(0), 100);
        assert_eq!(p.backoff_us(1), 200);
        assert_eq!(p.backoff_us(2), 400);
        assert_eq!(p.backoff_us(30), 10_000);
    }

    #[test]
    fn run_retries_transients_on_the_virtual_clock() {
        let p = RetryPolicy::default();
        let out = p.run(
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
        let p = RetryPolicy::default();
        let mut calls = 0;
        let out: RetryOutcome<(), &str> = p.run(
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
        let p = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let out: RetryOutcome<(), String> = p.run(
            |a| {
                calls += 1;
                Err(format!("t{a}"))
            },
            |_| true,
        );
        assert_eq!(calls, 3);
        assert_eq!(out.result.unwrap_err(), "t2");
        assert_eq!(out.virtual_backoff_us, 100 + 200);
    }
}
