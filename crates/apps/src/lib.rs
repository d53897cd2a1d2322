#![warn(missing_docs)]
//! # sf-apps
//!
//! Synthetic analogs of the six production applications the paper evaluates
//! (§6.1.1). The real codebases (CUDA Fortran weather models, petascale
//! seismic codes) are not available — and would not run on a simulator —
//! so each generator reproduces the *structural attributes* the paper's
//! results depend on:
//!
//! | app          | kernels | arrays | structure driving the result |
//! |--------------|--------:|-------:|------------------------------|
//! | SCALE-LES    |     142 |     63 | flux→update flow chains, deep-nested tracer kernels (the Fig. 6 codegen gap) |
//! | HOMME        |      43 |     30 | staggered guards (Fig. 7 divergence gap), fissionable medium kernels |
//! | Fluam        |     169 |    144 | huge kernel count, many compute-bound / boundary kernels, latency-bound kernels that fool the automated filter (Fig. 8) |
//! | MITgcm       |      37 |     29 | CG pressure solver, simple radius-1 stencils, already-high occupancy |
//! | AWP-ODC-GPU  |      12 |     24 | two "almost fused" fat kernels → fission-driven speedup |
//! | B-CALM       |      23 |     24 | per-pole split E/H updates → fission+fusion speedup, no tuning headroom |
//!
//! Each generator is deterministic and parameterized by [`AppConfig`] so
//! tests run scaled-down instances while the benchmark harness uses the
//! full-size ones.

pub mod awp_odc;
pub mod bcalm;
pub mod builder;
pub mod fluam;
pub mod homme;
pub mod mitgcm;
pub mod scale_les;

pub use builder::{App, AppBuilder, AppConfig, PaperRow};

/// Canonical names of the six applications, in the paper's order, plus
/// the two time-stepped temporal-blocking analogs (§5.5.3).
pub const APP_NAMES: [&str; 8] = [
    "scale-les",
    "homme",
    "fluam",
    "mitgcm",
    "awp-odc",
    "bcalm",
    "mitgcm-ts",
    "scale-les-ts",
];

/// All six applications at a given configuration, in the paper's order.
pub fn all_apps(cfg: &AppConfig) -> Vec<App> {
    vec![
        scale_les::build(cfg),
        homme::build(cfg),
        fluam::build(cfg),
        mitgcm::build(cfg),
        awp_odc::build(cfg),
        bcalm::build(cfg),
    ]
}

/// Look up one app by (case-insensitive) name.
pub fn app_by_name(name: &str, cfg: &AppConfig) -> Option<App> {
    match name.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
        "scaleles" => Some(scale_les::build(cfg)),
        "homme" => Some(homme::build(cfg)),
        "fluam" => Some(fluam::build(cfg)),
        "mitgcm" => Some(mitgcm::build(cfg)),
        "awpodc" | "awpodcgpu" => Some(awp_odc::build(cfg)),
        "bcalm" => Some(bcalm::build(cfg)),
        "mitgcmts" => Some(mitgcm::build_temporal(cfg)),
        "scalelests" => Some(scale_les::build_temporal(cfg)),
        _ => None,
    }
}
