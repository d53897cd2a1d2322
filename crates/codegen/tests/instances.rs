//! Redundant array instances (§3.2.3): when independent kernel chains
//! reuse a scratch array, the DDG splits it into instances and the code
//! generator materializes them as real allocations — relaxing the false
//! output dependence so the chains can reorder/fuse, while host-visible
//! results stay identical.

use sf_codegen::{transform_program, CodegenMode, GroupPlan, MemberRef, TransformPlan};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::{GlobalMemory, Interpreter};
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::{parse_program, Program};

/// Run both programs and compare all same-named arrays.
fn verify(original: &Program, transformed: &Program) {
    let plan_a = ExecutablePlan::from_program(original).unwrap();
    let plan_b = ExecutablePlan::from_program(transformed).unwrap();
    let mut mem_a = GlobalMemory::from_plan(&plan_a);
    let mut mem_b = GlobalMemory::from_plan(&plan_b);
    mem_a.seed_all(5);
    mem_b.seed_all(5);
    Interpreter::new(original)
        .run_plan(&plan_a, &mut mem_a)
        .unwrap();
    Interpreter::new(transformed)
        .run_plan(&plan_b, &mut mem_b)
        .unwrap();
    for (name, diff) in mem_a.max_abs_diff(&mem_b) {
        assert!(diff == 0.0, "array `{name}` differs by {diff}");
    }
}

const SCRATCH_REUSE: &str = r#"
__global__ void make_a(const double* __restrict__ x, double* tmp, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { tmp[k][j][i] = x[k][j][i] * 2.0; }
  }
}
__global__ void use_a(const double* __restrict__ tmp, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { a[k][j][i] = tmp[k][j][i] + 1.0; }
  }
}
__global__ void make_b(const double* __restrict__ y, double* tmp, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { tmp[k][j][i] = y[k][j][i] * 3.0; }
  }
}
__global__ void use_b(const double* __restrict__ tmp, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { b[k][j][i] = tmp[k][j][i] - 1.0; }
  }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* x = cudaAlloc3D(nz, ny, nx);
  double* y = cudaAlloc3D(nz, ny, nx);
  double* tmp = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(x);
  cudaMemcpyH2D(y);
  cudaMemcpyH2D(tmp);
  make_a<<<dim3(2, 2), dim3(16, 8)>>>(x, tmp, nx, ny, nz);
  use_a<<<dim3(2, 2), dim3(16, 8)>>>(tmp, a, nx, ny, nz);
  make_b<<<dim3(2, 2), dim3(16, 8)>>>(y, tmp, nx, ny, nz);
  use_b<<<dim3(2, 2), dim3(16, 8)>>>(tmp, b, nx, ny, nz);
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(b);
  cudaMemcpyD2H(tmp);
}
"#;

fn singleton_groups(n: usize) -> Vec<GroupPlan> {
    (0..n)
        .map(|s| GroupPlan::of(vec![MemberRef::original(s)]))
        .collect()
}

#[test]
fn scratch_reuse_materializes_instances() {
    let p = parse_program(SCRATCH_REUSE).unwrap();
    let plan = ExecutablePlan::from_program(&p).unwrap();
    let tplan = TransformPlan::new(
        DeviceSpec::k20x(),
        CodegenMode::Auto,
        false,
        singleton_groups(4),
    );
    let out = transform_program(&p, &plan, &tplan).unwrap();
    let new_plan = ExecutablePlan::from_program(&out.program).unwrap();
    // tmp split into two instances: the extra allocation exists...
    assert!(
        new_plan.alloc("tmp__i0").is_some(),
        "instance allocation missing: {:?}",
        new_plan.allocs.iter().map(|a| &a.name).collect::<Vec<_>>()
    );
    // ...the base name holds the *final* instance (make_b's chain) so the
    // D2H copy of tmp observes the same values...
    verify(&p, &out.program);
    // ...and the early chain reads the instance-0 storage.
    let launches = new_plan.launches;
    assert_eq!(launches[0].array_args(), vec!["x", "tmp__i0"]);
    assert_eq!(launches[1].array_args(), vec!["tmp__i0", "a"]);
    assert_eq!(launches[2].array_args(), vec!["y", "tmp"]);
    assert_eq!(launches[3].array_args(), vec!["tmp", "b"]);
}

#[test]
fn instance_relaxation_enables_cross_chain_fusion() {
    // With the output dependence on `tmp` relaxed, {make_a, make_b} cannot
    // fuse (both write tmp instances — but different storages now), while
    // {use_a, make_b} can reorder/fuse... the simplest sound check: fusing
    // the two *chains'* consumers with their own producers works.
    let p = parse_program(SCRATCH_REUSE).unwrap();
    let plan = ExecutablePlan::from_program(&p).unwrap();
    let tplan = TransformPlan::new(
        DeviceSpec::k20x(),
        CodegenMode::Auto,
        false,
        vec![
            GroupPlan::of(vec![MemberRef::original(0), MemberRef::original(1)]),
            GroupPlan::of(vec![MemberRef::original(2), MemberRef::original(3)]),
        ],
    );
    let out = transform_program(&p, &plan, &tplan).unwrap();
    assert_eq!(out.unfused().count(), 0, "{:?}", out.degradations);
    assert_eq!(out.reports.len(), 2);
    assert!(out.reports.iter().all(|r| r.merged && r.complex));
    verify(&p, &out.program);
}

#[test]
fn partial_overwrite_does_not_split() {
    // A boundary kernel writing one plane of tmp must keep feeding the
    // same instance (splitting would lose the untouched interior).
    let src = r#"
__global__ void fill(double* tmp, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { tmp[k][j][i] = 1.0; }
  }
}
__global__ void plane(double* tmp, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { tmp[0][j][i] = 9.0; }
}
__global__ void read(const double* __restrict__ tmp, double* out, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { out[k][j][i] = tmp[k][j][i]; }
  }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* tmp = cudaAlloc3D(nz, ny, nx);
  double* out = cudaAlloc3D(nz, ny, nx);
  fill<<<dim3(2, 2), dim3(16, 8)>>>(tmp, nx, ny, nz);
  plane<<<dim3(2, 2), dim3(16, 8)>>>(tmp, nx, ny, nz);
  read<<<dim3(2, 2), dim3(16, 8)>>>(tmp, out, nx, ny, nz);
  cudaMemcpyD2H(out);
}
"#;
    let p = parse_program(src).unwrap();
    let plan = ExecutablePlan::from_program(&p).unwrap();
    let tplan = TransformPlan::new(
        DeviceSpec::k20x(),
        CodegenMode::Auto,
        false,
        singleton_groups(3),
    );
    let out = transform_program(&p, &plan, &tplan).unwrap();
    let new_plan = ExecutablePlan::from_program(&out.program).unwrap();
    assert!(
        new_plan.allocs.iter().all(|a| !a.name.contains("__i")),
        "partial overwrite must not create instances"
    );
    verify(&p, &out.program);
}
