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

/// [`APP`]'s three launches inside a host time loop of `steps` iterations:
/// a chain the temporal rung folds when `2T` divides `steps`, and the
/// spatial rung fuses either way.
fn looped_app(steps: u64) -> String {
    let launches = "  stage1<<<dim3(4, 4), dim3(16, 8)>>>(u, a, nx, ny, nz);\n  \
                    stage2<<<dim3(4, 4), dim3(16, 8)>>>(u, b, nx, ny, nz);\n  \
                    stage3<<<dim3(4, 4), dim3(16, 8)>>>(a, b, c, nx, ny, nz);\n";
    APP.replace(
        launches,
        &format!("  for (int t = 0; t < {steps}; t++) {{\n{launches}  }}\n"),
    )
}

/// Every codegen rung a fused group can stand on, one row each: the loop's
/// trip count, the group's temporal degree, the injected faults, and the
/// one step the generator records — its action, its reason and how the
/// failed attempt failed. A refused temporal attempt is the 2T = 4 pair
/// that does not divide a trip count of 6. The pipeline hints "could not
/// be fused" for exactly the groups emitted unfused.
#[test]
fn every_codegen_rung_records_its_step() {
    use sf_codegen::{CodegenMode, GroupFailure, GroupPlan, MemberRef, TransformPlan};

    let one = || -> BTreeSet<usize> { [0].into() };
    let refused = "needs the ping-pong pair (2T = 4 steps) to divide the trip count 6";
    let vetoed = "injected tuned-fusion rejection in group 0";
    #[rustfmt::skip]
    let rows: [(u64, u32, FaultPlan, &str, &str, bool); 5] = [
        (6, 2, FaultPlan::none(), "fell back to spatial (tuned) fusion", refused, false),
        (6, 2, FaultPlan { reject_tuned_groups: one(), ..FaultPlan::default() },
            "fell back to simple (untuned) fusion", refused, false),
        (4, 2, FaultPlan { reject_tuned_groups: one(), ..FaultPlan::default() },
            "fell back to untuned temporal fusion", vetoed, false),
        (4, 1, FaultPlan { reject_tuned_groups: one(), ..FaultPlan::default() },
            "fell back to simple (untuned) fusion", vetoed, false),
        (4, 2, FaultPlan { reject_groups: one(), ..FaultPlan::default() },
            "emitted members unfused", "injected codegen rejection in group 0", true),
    ];
    for (steps, temporal, faults, action, reason, unfused) in rows {
        let row = format!("{steps} steps, degree {temporal}, {action}");
        let program = parse_program(&looped_app(steps)).expect("app parses");
        let mut group = GroupPlan::of((0..3).map(MemberRef::original).collect());
        group.temporal = temporal;
        let plan = TransformPlan::new(DeviceSpec::k20x(), CodegenMode::Auto, true, vec![group]);
        let cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_plan(plan)
            .with_faults(faults);
        let result = Pipeline::new(program, cfg)
            .expect("pipeline")
            .run()
            .expect("degrade-mode run succeeds");
        let steps_taken = &result.transform.as_ref().expect("codegen ran").degradations;
        assert_eq!(steps_taken.len(), 1, "{row}: {steps_taken:?}");
        let d = &steps_taken[0];
        assert_eq!((d.group, d.action.as_str()), (0, action), "{row}");
        assert!(d.reason.contains(reason), "{row}: {}", d.reason);
        assert_eq!(d.failure, GroupFailure::Rejected, "{row}");
        let hinted: Vec<&String> = result
            .reports
            .iter()
            .flat_map(|r| &r.hints)
            .filter(|h| h.contains("could not be fused"))
            .collect();
        assert_eq!(hinted.len(), usize::from(unfused), "{row}: {hinted:?}");
        assert!(hinted.iter().all(|h| h.starts_with("group 0 ")), "{row}");
        assert!(result.verification.as_ref().expect("verified").passed());
    }
}
