#![warn(missing_docs)]
//! # stencilfuse
//!
//! The end-to-end automated kernel transformation pipeline of the HPDC'15
//! paper *"Automated GPU Kernel Transformations in Large-Scale Production
//! Stencil Applications"*: CUDA-to-CUDA (here: minicuda-to-minicuda)
//! transformation that collectively replaces the user-written kernels by
//! auto-generated kernels optimized for inter-kernel data reuse, via kernel
//! fission and fusion.
//!
//! The pipeline runs the workflow of the paper's Figure 2:
//!
//! 1. **Metadata** — profile the program (performance metadata), statically
//!    analyze the kernels (operations metadata), query the device.
//! 2. **Filter** — identify target kernels; exclude compute-bound and
//!    boundary kernels.
//! 3. **Graphs** — build the DDG and OEG, with cycle resolution and
//!    redundant array instances; emit DOT.
//! 4. **Search** — the grouped genetic algorithm with lazy fission finds
//!    the best fissions/fusions under the projection objective.
//! 5. **New graphs** — the winning grouping rendered as the new OEG.
//! 6. **Codegen** — generate the new kernels (simple/complex fusion, block
//!    tuning) and the rewritten host code; verify the output against the
//!    original program on the simulator.
//!
//! Every stage emits artifacts the programmer can amend before the next
//! stage runs ([`Interventions`]) — the paper's *programmer-guided
//! transformation* — and the pipeline can stop after any stage
//! ([`PipelineConfig::run_until`]).
//!
//! ```no_run
//! use stencilfuse::{Pipeline, PipelineConfig};
//! use sf_gpusim::device::DeviceSpec;
//!
//! let program = sf_minicuda::parse_program("...").unwrap();
//! let config = PipelineConfig::automated(DeviceSpec::k20x());
//! let result = Pipeline::new(program, config).unwrap().run().unwrap();
//! println!("speedup: {:.2}x", result.speedup);
//! ```

pub mod batch;
pub mod cli;
pub mod config;
pub mod error;
pub mod faults;
pub mod pipeline;
pub mod report;
pub mod shutdown;
pub mod verify;

pub use batch::{
    BatchDriver, BatchOptions, BatchOutcome, BatchReport, BatchRequest, BatchStatus, Rejected,
};
pub use config::{DegradePolicy, PipelineConfig, Stage};
pub use error::{ErrorKind, PipelineError, Recoverability};
pub use faults::FaultPlan;
pub use pipeline::{Interventions, Pipeline, TransformResult};
pub use report::{Degradation, StageReport};
pub use shutdown::{
    install_signal_handlers, request_shutdown, reset_shutdown_request, shutdown_requested,
};
pub use verify::{verify_equivalence, verify_equivalence_governed, Verification, VerifyFailure};
