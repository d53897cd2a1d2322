#![warn(missing_docs)]
//! # sf-codegen
//!
//! Code generation for the kernel transformation (§5.5): given the
//! fissions/fusions chosen by the optimization algorithm, produce a new
//! minicuda program that replaces the original kernels.
//!
//! - [`fission`] — split a kernel along the connected components of its
//!   array-dependence graph (Algorithm 2, Figure 3).
//! - [`canon`] — canonicalize a fusion member: bind launch arguments,
//!   unify thread-mapping variables, rename locals, literalize guard and
//!   loop bounds.
//! - [`legality`] — the block-independent fusion legality rules, one
//!   pure decision over per-member facts (refused, or the tiles the group
//!   stages) that codegen emits from and the search prices.
//! - [`fuse`] — generate fused kernels: no-fusion copies, *simple fusion*
//!   (shared-memory staging of reused arrays, §5.5.2) and *complex fusion*
//!   (barriers + halo recomputation / temporal blocking, §5.5.3), in both
//!   the automated flavor and the manual-oracle flavor whose two extra hand
//!   optimizations the paper credits for the auto-vs-manual gap (§6.2.2).
//! - [`tuning`] — thread-block-size tuning of generated kernels (§4.2):
//!   candidates ranked by the profiler's modelled time, with the
//!   occupancy calculator as a floor.
//! - [`hostgen`] — assemble the whole transformed program: new kernels plus
//!   the rewritten host section invoking them in OEG order (§5.5.4).

pub mod canon;
pub mod fission;
pub mod fuse;
pub mod hostgen;
pub mod legality;
pub mod temporal;
pub mod tuning;

pub use fission::{fission_kernel, FissionProduct};
pub use fuse::{CodegenError, FusedKernel, GroupAnalysis, PingPong};
pub use hostgen::{
    transform_program, transform_program_with, GroupDegradation, GroupFailure, Resolver, Storage,
    TransformOutput, EMITTED_UNFUSED,
};
pub use temporal::{TemporalAnalysis, TemporalChain};
// The plan IR lives in `sf-plan`; re-exported here so downstream crates can
// keep importing the types from the stage that consumes them.
pub use sf_plan::{
    BlockDims, CodegenMode, GroupPlan, GroupProjection, MemberRef, PlanError, PrecedenceClass,
    TransformPlan,
};
