//! One pipeline test per rung of the degradation ladder (tuned fusion →
//! untuned fusion → unfused copies → original program), each forced
//! deterministically with a targeted fault plan. The blanket group index
//! sets cover every possible grouping, so the rung fires regardless of
//! what the search settles on.

use sf_gpusim::device::DeviceSpec;
use sf_minicuda::parse_program;
use std::collections::BTreeSet;
use stencilfuse::{FaultPlan, Pipeline, PipelineConfig, TransformResult};

/// The fault-injection harness's three-stage producer/consumer app:
/// fusible, so every codegen-stage rung has a target.
const APP: &str = r#"
__global__ void stage1(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void stage2(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] + 1.0; } }
}
__global__ void stage3(const double* __restrict__ a, const double* __restrict__ b, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = a[k][j][i] - b[k][j][i]; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 8;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(u);
  stage1<<<dim3(4, 4), dim3(16, 8)>>>(u, a, nx, ny, nz);
  stage2<<<dim3(4, 4), dim3(16, 8)>>>(u, b, nx, ny, nz);
  stage3<<<dim3(4, 4), dim3(16, 8)>>>(a, b, c, nx, ny, nz);
  cudaMemcpyD2H(c);
}
"#;

fn all_groups() -> BTreeSet<usize> {
    (0..8).collect()
}

fn run_tuned(faults: FaultPlan) -> TransformResult {
    let program = parse_program(APP).expect("app parses");
    // `quick` leaves block_tuning on, so the tuned rung is the first
    // attempt for every multi-member group.
    let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_faults(faults);
    assert!(cfg.block_tuning, "tuned rung must be armed");
    Pipeline::new(program, cfg)
        .expect("pipeline")
        .run()
        .expect("degrade-mode run succeeds")
}

fn assert_valid(result: &TransformResult) {
    let original = parse_program(APP).expect("app parses");
    match &result.verification {
        Some(v) => assert!(v.passed(), "failed verification escaped: {v:?}"),
        None => assert_eq!(
            result.program, original,
            "unverified result must be the original"
        ),
    }
    assert!(result.speedup >= 1.0, "speedup {}", result.speedup);
}

/// Rung 0 — no faults: tuned fusion succeeds outright, nothing degrades.
#[test]
fn rung0_tuned_fusion_succeeds_without_degradation() {
    let result = run_tuned(FaultPlan::none());
    assert!(
        result.degradations().is_empty(),
        "clean run must not degrade: {:?}",
        result.degradations()
    );
    assert!(result.verification.as_ref().expect("verified").passed());
    assert!(result.speedup > 1.0, "fusion should win on this app");
    assert_ne!(
        result.program,
        parse_program(APP).unwrap(),
        "program was transformed"
    );
}

/// Rung 1 — tuned fusion rejected, simple (untuned) fusion still works.
#[test]
fn rung1_tuned_rejection_falls_back_to_untuned_fusion() {
    let result = run_tuned(FaultPlan {
        reject_tuned_groups: all_groups(),
        ..FaultPlan::default()
    });
    assert!(
        result
            .degradations()
            .iter()
            .any(|d| d.action == "fell back to simple (untuned) fusion"),
        "expected the tuned→untuned rung, got: {:?}",
        result.degradations()
    );
    // The untuned attempt succeeds, so the program is still transformed
    // and verified.
    assert!(result.verification.as_ref().expect("verified").passed());
    assert_ne!(
        result.program,
        parse_program(APP).unwrap(),
        "fusion still applied"
    );
    assert_valid(&result);
}

/// Rung 2 — fusion rejected entirely: members are emitted unfused.
#[test]
fn rung2_rejection_emits_members_unfused() {
    let result = run_tuned(FaultPlan {
        reject_groups: all_groups(),
        ..FaultPlan::default()
    });
    assert!(
        result
            .degradations()
            .iter()
            .any(|d| d.action == "emitted members unfused"),
        "expected the unfused-copies rung, got: {:?}",
        result.degradations()
    );
    assert_valid(&result);
}

/// Rung 2, panic variant — a codegen panic is caught at the isolation
/// boundary and degrades the same way instead of propagating.
#[test]
fn rung2_codegen_panic_is_contained_and_degrades() {
    let result = run_tuned(FaultPlan {
        panic_groups: all_groups(),
        ..FaultPlan::default()
    });
    assert!(
        result
            .degradations()
            .iter()
            .any(|d| d.action == "emitted members unfused"),
        "expected the unfused-copies rung, got: {:?}",
        result.degradations()
    );
    assert_valid(&result);
}

/// Rung 3 — verification cannot run: the pipeline keeps the original
/// program, recording why.
#[test]
fn rung3_verification_trap_keeps_the_original() {
    let result = run_tuned(FaultPlan {
        interpreter_trap: true,
        ..FaultPlan::default()
    });
    let original = parse_program(APP).expect("app parses");
    assert_eq!(
        result.program, original,
        "trap must keep the original program"
    );
    assert!(
        result
            .degradations()
            .iter()
            .any(|d| d.action.contains("kept the original program")),
        "expected the keep-original rung, got: {:?}",
        result.degradations()
    );
    assert_valid(&result);
}

/// The rungs are ordered: a tuned rejection alone must NOT reach the
/// unfused rung, and a full rejection must not leave tuned-rung traces.
#[test]
fn rungs_do_not_bleed_into_each_other() {
    let tuned_only = run_tuned(FaultPlan {
        reject_tuned_groups: all_groups(),
        ..FaultPlan::default()
    });
    assert!(
        !tuned_only
            .degradations()
            .iter()
            .any(|d| d.action == "emitted members unfused"),
        "tuned rejection must stop at the untuned rung"
    );
    let rejected = run_tuned(FaultPlan {
        reject_groups: all_groups(),
        ..FaultPlan::default()
    });
    assert!(
        !rejected
            .degradations()
            .iter()
            .any(|d| d.action == "fell back to simple (untuned) fusion"),
        "a fully rejected group never reports a tuned fallback"
    );
}
