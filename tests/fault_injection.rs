//! Fault-injection harness: under *any* deterministic fault plan the
//! pipeline must uphold the always-valid invariant — return either a
//! verified transformed program or the original program unchanged, with
//! every degradation recorded in the stage reports, a modeled time never
//! worse than the original's, and no panic escaping the isolation
//! boundaries. Strict mode must instead surface the first degradable
//! failure as a structured error.

use proptest::prelude::*;
use sf_gpusim::device::DeviceSpec;
use sf_minicuda::parse_program;
use stencilfuse::{
    DegradePolicy, FaultPlan, Pipeline, PipelineConfig, Recoverability, Stage, TransformResult,
};

/// Three-stage producer/consumer app: fusible, so codegen-stage faults
/// (group rejections, panics, verification traps) all have a target.
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

/// Two-kernel variant: a different group structure, so group-indexed
/// faults land on other targets (or none).
const SMALL_APP: &str = r#"
__global__ void heat(const double* __restrict__ u, double* v, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { v[j][i] = u[j][i] * 0.5; }
}
__global__ void scale(const double* __restrict__ v, double* w, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { w[j][i] = v[j][i] + 3.0; }
}
void host() {
  int nx = 64; int ny = 32;
  double* u = cudaAlloc2D(ny, nx);
  double* v = cudaAlloc2D(ny, nx);
  double* w = cudaAlloc2D(ny, nx);
  cudaMemcpyH2D(u);
  heat<<<dim3(4, 4), dim3(16, 8)>>>(u, v, nx, ny);
  scale<<<dim3(4, 4), dim3(16, 8)>>>(v, w, nx, ny);
  cudaMemcpyD2H(w);
}
"#;

/// Generate arbitrary fault plans, including mixes the seeded derivation
/// never produces.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        (0u8..4, proptest::collection::vec(0usize..4, 0..3)),
        (
            proptest::collection::vec(0usize..4, 0..3),
            proptest::collection::vec(0u64..200, 0..4),
            0u8..5,
            proptest::collection::vec(0usize..4, 0..3),
        ),
    )
        .prop_map(
            |((corrupt, reject), (panic, poison, trap, reject_tuned))| FaultPlan {
                corrupt_metadata: corrupt == 0,
                reject_groups: reject.into_iter().collect(),
                panic_groups: panic.into_iter().collect(),
                reject_tuned_groups: reject_tuned.into_iter().collect(),
                poison_evaluations: poison.into_iter().collect(),
                interpreter_trap: trap == 0,
                // Store faults are the batch driver's, not the pipeline's;
                // the batch/fuzz harnesses exercise them (tests/plan_cache.rs).
                cache: sf_core::CacheFaults::default(),
                // Island faults reach every run (one search loop), but the
                // island harnesses own them (tests/island_search.rs); here
                // only the seeded plans below carry them.
                islands: sf_core::IslandFaults::default(),
            },
        )
}

/// The always-valid invariant, checked on one degrade-mode run.
fn assert_always_valid(source: &str, plan: &FaultPlan) {
    let program = parse_program(source).expect("app parses");
    let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_faults(plan.clone());
    assert_eq!(cfg.degrade, DegradePolicy::Degrade);
    let result = Pipeline::new(program.clone(), cfg)
        .expect("pipeline construction")
        .run()
        .unwrap_or_else(|e| panic!("degrade-mode run must not error: {e}\nplan: {plan:?}"));

    // Modeled time is never worse than the original's.
    assert!(
        result.speedup >= 1.0,
        "speedup {} < 1.0 under plan {plan:?}",
        result.speedup
    );
    assert!(
        result.transformed_time_us <= result.original_time_us,
        "modeled regression under plan {plan:?}"
    );

    // Verified transform, or the original program unchanged.
    match &result.verification {
        Some(v) => assert!(
            v.passed(),
            "failed verification escaped: {v:?}\nplan: {plan:?}"
        ),
        None => assert_eq!(
            result.program, program,
            "unverified result must be the unchanged original\nplan: {plan:?}"
        ),
    }

    // Every degradation is attributed to a real stage and explains itself.
    for d in result.degradations() {
        assert!(Stage::ALL.contains(&d.stage));
        assert!(!d.scope.is_empty() && !d.action.is_empty() && !d.reason.is_empty());
    }
}

fn run_once(source: &str, plan: &FaultPlan) -> TransformResult {
    let program = parse_program(source).expect("app parses");
    let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_faults(plan.clone());
    Pipeline::new(program, cfg)
        .expect("pipeline")
        .run()
        .expect("degrade-mode run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn degrade_mode_is_always_valid(plan in plan_strategy()) {
        assert_always_valid(APP, &plan);
    }

    #[test]
    fn strict_mode_errors_are_structured(plan in plan_strategy()) {
        let program = parse_program(SMALL_APP).expect("app parses");
        let cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_faults(plan.clone())
            .strict();
        match Pipeline::new(program, cfg).expect("pipeline").run() {
            // Strict succeeds only when no injected fault actually fired
            // (e.g. group indices beyond the grouping, absorbed retries).
            Ok(r) => prop_assert!(
                r.degradations().is_empty(),
                "strict run must not degrade silently\nplan: {:?}", plan
            ),
            Err(e) => {
                prop_assert!(Stage::ALL.contains(&e.stage));
                prop_assert!(
                    e.class != Recoverability::Fatal,
                    "injected faults are recoverable, got fatal: {}\nplan: {:?}", e, plan
                );
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

#[test]
fn seeded_plans_hold_the_invariant_on_both_apps() {
    for seed in 0..10u64 {
        let plan = FaultPlan::seeded(seed);
        assert_always_valid(APP, &plan);
        assert_always_valid(SMALL_APP, &plan);
    }
}

#[test]
fn identical_plans_reproduce_identical_outcomes() {
    let plan = FaultPlan::seeded(5);
    let a = run_once(APP, &plan);
    let b = run_once(APP, &plan);
    assert_eq!(a.program, b.program);
    assert_eq!(a.speedup, b.speedup);
    assert_eq!(a.degradations().len(), b.degradations().len());
    assert_eq!(
        a.search.as_ref().map(|s| s.evaluations),
        b.search.as_ref().map(|s| s.evaluations)
    );
}

#[test]
fn the_empty_plan_changes_nothing() {
    let clean = run_once(APP, &FaultPlan::none());
    assert!(clean.degradations().is_empty());
    assert!(clean.speedup > 1.0);
    assert!(clean.verification.expect("verified").passed());
}
