#![warn(missing_docs)]
//! # sf-analysis
//!
//! Static analysis of minicuda stencil kernels, standing in for the metadata
//! gathering and static-analysis portions of the HPDC'15 framework:
//!
//! - [`metadata`] — the three metadata files the framework exchanges with the
//!   programmer: performance metadata, operations metadata and device
//!   metadata (§3.2.1 of the paper), all serializable.
//! - [`roles`] — inference of the thread-mapping roles of kernel-local
//!   variables (`i` = x-mapped, `j` = y-mapped, vertical loop variables,
//!   inner loop variables, affine derivations).
//! - [`access`] — sweep and access-pattern extraction: stencil offsets per
//!   array, guard bounds, iteration domains, and the per-block DRAM
//!   footprint model used for traffic accounting.
//! - [`roofline`] — operational intensity and the Roofline classifier used
//!   to exclude compute-bound kernels (§3.2.2).
//! - [`filter`] — target-kernel identification (excluding compute-bound and
//!   boundary kernels).
//! - [`dependence`] — intra-kernel array-to-array dependence used by kernel
//!   fission (§4.1, Algorithm 2).

pub mod access;
pub mod dependence;
pub mod filter;
pub mod metadata;
pub mod roles;
pub mod roofline;

pub use access::{AccessError, ArrayAccess, IdxBase, IdxPat, KernelAccess, Sweep};
pub use filter::{FilterDecision, FilterReason};
pub use metadata::{
    Confidence, DeviceMetadata, KernelClass, MeasureQuality, OpsMetadata, PerfMetadata, Provenance,
};
pub use roles::{Role, RoleMap};
