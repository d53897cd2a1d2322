//! Per-failure-class circuit breaker.
//!
//! The batch driver records every structured failure under its error-class
//! label. When one class accumulates [`BreakerConfig::threshold`] failures
//! inside a sliding window of [`WINDOW_MS`], that class's breaker trips open
//! and the driver applies backpressure (`Rejected { retry_after_ms }`) to
//! *new* requests until the cooldown elapses; then half-open probe requests
//! are admitted, [`HALF_OPEN_PROBES`] of them — a probe success closes the
//! breaker, a probe failure re-opens it for another cooldown.
//!
//! All methods take `now_ms` from the caller, so tests drive the breaker
//! on a virtual clock and every transition is deterministic.

use std::collections::HashMap;
use std::sync::Mutex;

/// Sliding failure window, ms.
pub const WINDOW_MS: u64 = 60_000;

/// Requests admitted while half-open.
pub const HALF_OPEN_PROBES: u32 = 1;

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Failures of one class within the window that trip it open.
    pub threshold: u32,
    /// How long a tripped class stays open before probing, ms.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            threshold: 5,
            cooldown_ms: 10_000,
        }
    }
}

/// Observable state of one class's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; failures accumulate in the window.
    Closed,
    /// Tripped; requests are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed; a bounded number of probes may flow.
    HalfOpen,
}

#[derive(Debug)]
struct ClassState {
    state: BreakerState,
    /// Failure timestamps inside the sliding window (Closed only).
    failures: Vec<u64>,
    /// When the open period ends (Open only).
    open_until_ms: u64,
    /// Probes admitted so far (HalfOpen only).
    probes_admitted: u32,
}

impl ClassState {
    fn new() -> ClassState {
        ClassState {
            state: BreakerState::Closed,
            failures: Vec::new(),
            open_until_ms: 0,
            probes_admitted: 0,
        }
    }
}

/// The per-failure-class circuit breaker (thread-safe).
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    classes: Mutex<HashMap<String, ClassState>>,
}

impl CircuitBreaker {
    /// A breaker with every class closed.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            classes: Mutex::new(HashMap::new()),
        }
    }

    /// The tuning this breaker runs with.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Gate one incoming request. Returns `Err((class, retry_after_ms))`
    /// naming the tripped class when the request must be rejected;
    /// `Ok(())` admits it (possibly as a half-open probe — the admission
    /// is recorded). Open classes whose cooldown elapsed transition to
    /// half-open here.
    pub fn admit(&self, now_ms: u64) -> Result<(), (String, u64)> {
        let mut classes = self.classes.lock().expect("breaker lock poisoned");
        let mut blocked: Option<(String, u64)> = None;
        for (class, cs) in classes.iter_mut() {
            match cs.state {
                BreakerState::Closed => {}
                BreakerState::Open => {
                    if now_ms >= cs.open_until_ms {
                        cs.state = BreakerState::HalfOpen;
                        cs.probes_admitted = 0;
                    } else {
                        let wait = cs.open_until_ms - now_ms;
                        if blocked.as_ref().is_none_or(|(_, w)| wait < *w) {
                            blocked = Some((class.clone(), wait));
                        }
                    }
                }
                BreakerState::HalfOpen => {}
            }
            if cs.state == BreakerState::HalfOpen && cs.probes_admitted >= HALF_OPEN_PROBES {
                let wait = self.config.cooldown_ms;
                if blocked.as_ref().is_none_or(|(_, w)| wait < *w) {
                    blocked = Some((class.clone(), wait));
                }
            }
        }
        if let Some(b) = blocked {
            return Err(b);
        }
        // Admitted: count it against every half-open class's probe budget.
        for cs in classes.values_mut() {
            if cs.state == BreakerState::HalfOpen {
                cs.probes_admitted += 1;
            }
        }
        Ok(())
    }

    /// Record a structured failure of `class`.
    pub fn record_failure(&self, class: &str, now_ms: u64) {
        let mut classes = self.classes.lock().expect("breaker lock poisoned");
        let cs = classes
            .entry(class.to_string())
            .or_insert_with(ClassState::new);
        match cs.state {
            BreakerState::HalfOpen => {
                // The probe failed: re-open for another cooldown.
                cs.state = BreakerState::Open;
                cs.open_until_ms = now_ms + self.config.cooldown_ms;
                cs.failures.clear();
            }
            BreakerState::Open => {}
            BreakerState::Closed => {
                cs.failures.push(now_ms);
                let cutoff = now_ms.saturating_sub(WINDOW_MS);
                cs.failures.retain(|&t| t >= cutoff);
                if cs.failures.len() as u32 >= self.config.threshold {
                    cs.state = BreakerState::Open;
                    cs.open_until_ms = now_ms + self.config.cooldown_ms;
                    cs.failures.clear();
                }
            }
        }
    }

    /// Record a successful request: every half-open class closes (the
    /// probe proved the service recovered).
    pub fn record_success(&self, _now_ms: u64) {
        let mut classes = self.classes.lock().expect("breaker lock poisoned");
        for cs in classes.values_mut() {
            if cs.state == BreakerState::HalfOpen {
                cs.state = BreakerState::Closed;
                cs.failures.clear();
                cs.probes_admitted = 0;
            }
        }
    }

    /// Current state of one class (Closed when never seen).
    pub fn state(&self, class: &str) -> BreakerState {
        let classes = self.classes.lock().expect("breaker lock poisoned");
        classes
            .get(class)
            .map(|cs| cs.state)
            .unwrap_or(BreakerState::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            threshold: 3,
            cooldown_ms: 500,
        })
    }

    #[test]
    fn trips_after_threshold_failures_in_window() {
        let b = breaker();
        b.record_failure("parse", 0);
        b.record_failure("parse", 10);
        assert_eq!(b.state("parse"), BreakerState::Closed);
        assert!(b.admit(20).is_ok());
        b.record_failure("parse", 20);
        assert_eq!(b.state("parse"), BreakerState::Open);
        let (class, wait) = b.admit(30).unwrap_err();
        assert_eq!(class, "parse");
        assert_eq!(wait, 490);
    }

    #[test]
    fn failures_outside_the_window_do_not_trip() {
        let b = breaker();
        b.record_failure("cache", 0);
        b.record_failure("cache", 10);
        // Past the window the first two failures age out.
        b.record_failure("cache", WINDOW_MS + 20);
        assert_eq!(b.state("cache"), BreakerState::Closed);
    }

    #[test]
    fn cooldown_half_open_probe_success_closes() {
        let b = breaker();
        for t in [0, 1, 2] {
            b.record_failure("profile", t);
        }
        assert_eq!(b.state("profile"), BreakerState::Open);
        // Cooldown elapsed: the next admit is the half-open probe.
        assert!(b.admit(600).is_ok());
        assert_eq!(b.state("profile"), BreakerState::HalfOpen);
        // Probe budget (1) spent: further requests are rejected.
        let (_, wait) = b.admit(601).unwrap_err();
        assert_eq!(wait, 500);
        // The probe succeeds: closed, traffic flows again.
        b.record_success(650);
        assert_eq!(b.state("profile"), BreakerState::Closed);
        assert!(b.admit(651).is_ok());
    }

    #[test]
    fn probe_failure_reopens_for_another_cooldown() {
        let b = breaker();
        for t in [0, 1, 2] {
            b.record_failure("verify", t);
        }
        assert!(b.admit(600).is_ok());
        assert_eq!(b.state("verify"), BreakerState::HalfOpen);
        b.record_failure("verify", 650);
        assert_eq!(b.state("verify"), BreakerState::Open);
        let (_, wait) = b.admit(660).unwrap_err();
        assert_eq!(wait, 490);
    }

    #[test]
    fn classes_are_independent() {
        let b = breaker();
        for t in [0, 1, 2] {
            b.record_failure("parse", t);
        }
        assert_eq!(b.state("parse"), BreakerState::Open);
        assert_eq!(b.state("cache"), BreakerState::Closed);
    }
}
