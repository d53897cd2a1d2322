#![warn(missing_docs)]
//! # sf-graphs
//!
//! The two graphs the framework builds from source + metadata (§3.2.3):
//!
//! - [`ddg`] — the Data Dependency Graph: a DAG whose vertices are kernel
//!   invocations *and* data arrays, revealing data inter-dependencies
//!   (Algorithm 1). Cycles arising from array reuse are resolved by host
//!   invocation order, and arrays with several writers get redundant
//!   instances to relax dependencies.
//! - [`oeg`] — the Order-of-Execution Graph: kernel invocations with the
//!   precedence edges that must not be violated, each tagged by why it
//!   exists (flow/anti/output dependence, host transfer), decided by the
//!   one pairwise dependence rule, [`oeg::EdgeInfo::between`].
//! - [`precedence`] — the artifact the graphs stage hands on: access sets,
//!   DDG and OEG from one analysis pass, and the decision when instance
//!   relaxation applies. The search and code generation read it instead of
//!   deriving their own.
//! - [`dot`] — DOT emission (for GraphViz, as in the paper's Figure 1) and
//!   a parser for the emitted format so a programmer-amended OEG can be
//!   read back (§3.2.4).

pub mod build;
pub mod ddg;
pub mod dot;
pub mod oeg;
pub mod precedence;

pub use build::launch_accesses;
pub use ddg::{Ddg, DdgNode};
pub use oeg::{EdgeInfo, EdgeKind, Oeg};
pub use precedence::Precedence;
