#![warn(missing_docs)]
//! # sf-cache
//!
//! A crash-safe, content-addressed on-disk cache of serialized
//! `TransformPlan`s — the persistent state behind the `sfd` batch driver
//! and `sfc --cache-dir`.
//!
//! Three properties carry the whole design:
//!
//! 1. **Content addressing.** An entry's key ([`CacheKey`]) is a hash over
//!    the canonical source text, the device descriptor, the relevant
//!    pipeline-configuration fields, and the cache + plan schema versions.
//!    A cached plan can therefore never be replayed against inputs it was
//!    not compiled for; changing any input simply misses.
//! 2. **Crash safety.** Entries are committed with temp-file + fsync +
//!    rename ([`PlanStore`]); the entry namespace only ever sees complete
//!    files. A kill at *any* write-protocol step leaves the store readable
//!    — enforced by a kill-at-every-step test matrix.
//! 3. **Recoverable reads.** An entry that fails verification (torn,
//!    corrupt, version-skewed, wrong key) is quarantined — moved aside,
//!    never silently deleted — and reported as [`Lookup::Recovered`], a
//!    new rung in the pipeline's degradation ladder:
//!    *cache hit → cache recompile → normal pipeline*.
//!
//! Every failure mode is deterministically injectable through the store
//! section of the one seeded fault plan ([`sf_core::CacheFaults`]: torn
//! write, bit flip, version skew, stale lock, kill-at-step, ENOSPC, short
//! write), handed in through [`StoreOptions::faults`], so the fuzzer and
//! the crash-consistency tests can walk all recovery paths from a seed.

pub mod atomic;
pub mod entry;
pub mod error;
pub mod key;
pub mod store;

pub use atomic::{atomic_write, atomic_write_with};
pub use entry::{decode, encode, DecodeFailure, Entry, SCHEMA_VERSION};
pub use error::{CacheError, CacheErrorKind};
pub use key::CacheKey;
pub use store::{Lookup, PlanStore, Published, StoreOptions, StoreStats};
