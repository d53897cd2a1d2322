#![warn(missing_docs)]
//! # sf-search
//!
//! The customized Grouped Genetic Algorithm (GGA) that identifies the best
//! kernel fissions/fusions (§3.2.4, §5.4), with the two automation-enabled
//! improvements of §4:
//!
//! - **lazy fission** (§4.1): every fissionable target kernel is split in a
//!   pre-step and its products are profiled, so the codeless objective has
//!   metadata for them; the search starts from the original kernels and
//!   applies fission on demand when candidate solutions press against the
//!   shared-memory capacity boundary (via the dynamic penalty function);
//! - a **codeless performance-projection objective** ([`objective`]): the
//!   projected GFLOPS of a candidate grouping, computed purely from
//!   per-launch metadata (bytes per array, flops, register/shared-memory
//!   estimates) and the device model — no code is generated during the
//!   search.
//!
//! The search space ([`space`]) is built from the profile metadata, the
//!   filter decisions and the unit-level order-of-execution graph; the GA
//!   ([`gga`]) uses Falkenauer-style group-level operators with
//!   feasibility-preserving repair, starting from a population that holds
//!   the untransformed baseline and greedy fusion champions ([`seed`]).
//!
//! There is one search driver, [`search_islands`]: the population shards
//! into `islands` supervised islands ([`islands`]) — panic-isolated
//! epochs, seeded migration, a canonical deterministic merge, and crash
//! checkpoint/resume ([`checkpoint`]). The classic serial GGA is its
//! `islands = 1` case, and [`search`] is the driver with default options.

pub mod checkpoint;
pub mod genome;
pub mod gga;
pub mod islands;
pub mod objective;
pub mod params;
pub mod port;
pub mod projection;
pub mod seed;
pub mod space;

pub use checkpoint::{
    load_checkpoint, save_checkpoint, CheckpointLoad, CheckpointState, CHECKPOINT_VERSION,
};
pub use genome::Individual;
pub use gga::{lower_plan, search, SearchResult, StopReason};
pub use islands::{
    search_islands, IslandOptions, IslandSearchResult, IslandState, SearchDegradation,
};
pub use params::SearchConfig;
pub use port::raise_plan;
pub use projection::{GroupKey, ProjectionEngine, ProjectionStats};
pub use seed::Greedy;
pub use space::{SearchSpace, Unit};
