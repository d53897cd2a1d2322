#![warn(missing_docs)]
//! # sf-core
//!
//! Dependency-free primitives shared by every stencilfuse crate that has
//! to survive hostile inputs and resource pressure:
//!
//! - [`budget`] — a hierarchical, thread-safe [`ResourceGovernor`] with
//!   per-request and process-wide accounting, high-water marks, and the
//!   [`Accounted`] RAII wrapper for big allocations.
//! - [`retry`] — the one retry schedule (bounded exponential backoff on a
//!   virtual clock) of the plan store's transient publish failures.
//! - [`breaker`] — a per-failure-class [`CircuitBreaker`] with a sliding
//!   failure window, cooldown, and half-open probes, driven by an
//!   injectable millisecond clock so every transition is unit-testable.
//! - [`faults`] — the one seeded [`FaultPlan`] every injection site reads,
//!   from the profiler to the plan store.
//! - [`hash`] — the SplitMix64 step behind every seeded draw and the one
//!   FNV-1a.
//!
//! This crate sits below `sf-gpusim`, `sf-search`, `sf-cache`, and
//! `stencilfuse` in the dependency graph and has no dependencies of its
//! own (not even the vendored stand-ins; its tests use the vendored
//! `proptest`), so any crate can use it without creating a cycle.

pub mod breaker;
pub mod budget;
pub mod faults;
pub mod hash;
pub mod retry;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use budget::{
    parse_bytes, Accounted, Limits, ResourceError, ResourceGovernor, ResourceKind, RESOURCE_KINDS,
};
pub use faults::{CacheFaults, FaultPlan, IslandFaults};
pub use hash::{fnv1a64, splitmix64};
pub use retry::RetryOutcome;
