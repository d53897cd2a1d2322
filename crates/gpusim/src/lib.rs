#![warn(missing_docs)]
//! # sf-gpusim
//!
//! A GPU execution substrate standing in for the Kepler K20X / K40 boards
//! the paper evaluates on. Four cooperating pieces:
//!
//! - [`device`] + [`registry`] — data-driven device descriptors (the
//!   `deviceQuery` analog): built-ins for the published Kepler parameters
//!   plus wavefront-64 AMD and Volta classes, user descriptor files, and
//!   stable per-descriptor fingerprints; [`occupancy`] — a clone of the
//!   CUDA occupancy calculator and the candidate shapes of the paper's
//!   thread-block tuner (§4.2), parametric in the descriptor's
//!   granularities and caps.
//! - [`interp`] — a *functional* SIMT interpreter: executes minicuda
//!   kernels block-by-block with warp-level lockstep semantics, shared
//!   memory tiles, `__syncthreads()` barriers, divergence accounting, and
//!   cross-block race detection. Used to verify that transformed programs
//!   produce the same output as the originals (the paper verifies every
//!   run) and to cross-validate the analytic counters.
//! - [`timing`] — an analytic timing model: per-launch runtime from DRAM
//!   traffic (sweep-level footprints from `sf-analysis`), flop throughput,
//!   occupancy-dependent effective bandwidth, divergence penalties and
//!   launch overhead. The paper's measured speedups are driven by exactly
//!   these mechanisms.
//! - [`profiler`] — runs a program on a device and emits the per-kernel
//!   performance metadata (the `nvprof` analog feeding §3.2.1); its
//!   launch pricer is also what the block tuner ranks shapes with. The
//!   simulator is exact, so one profile is one run: there is nothing to
//!   repeat or aggregate.

pub mod compile;
pub mod device;
pub mod interp;
pub mod isolate;
pub mod memory;
pub mod occupancy;
pub mod profiler;
pub mod registry;
pub mod timing;

pub use device::DeviceSpec;
pub use interp::{ExecError, ExecErrorKind, Interpreter, LaunchStats};
pub use memory::GlobalMemory;
pub use occupancy::OccupancyResult;
pub use registry::DeviceRegistry;
pub use timing::TimingModel;
