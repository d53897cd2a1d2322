//! End-to-end fusion correctness: every transformed program must produce
//! the same memory image as the original when executed functionally on the
//! simulator (the paper verifies output on every run, §6.1.2).

use sf_codegen::PrecedenceClass;
use sf_codegen::{transform_program, CodegenMode, GroupPlan, MemberRef, TransformPlan};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_gpusim::{GlobalMemory, Interpreter};
use sf_minicuda::host::Dim3;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::{parse_program, Program};

/// Run both programs functionally and assert every array matches.
fn assert_equivalent(original: &Program, transformed: &Program) {
    let plan_a = ExecutablePlan::from_program(original).expect("original plan");
    let plan_b = ExecutablePlan::from_program(transformed).expect("transformed plan");
    let mut mem_a = GlobalMemory::from_plan(&plan_a);
    let mut mem_b = GlobalMemory::from_plan(&plan_b);
    mem_a.seed_all(99);
    mem_b.seed_all(99);
    let mut interp_a = Interpreter::new(original);
    interp_a.detect_hazards = true;
    let stats_a = interp_a
        .run_plan(&plan_a, &mut mem_a)
        .expect("original runs");
    let mut interp_b = Interpreter::new(transformed);
    interp_b.detect_hazards = true;
    let stats_b = interp_b
        .run_plan(&plan_b, &mut mem_b)
        .expect("transformed runs");
    for s in stats_a.iter().chain(&stats_b) {
        assert!(s.hazards.is_empty(), "hazards: {:?}", s.hazards);
    }
    for (name, diff) in mem_a.max_abs_diff(&mem_b) {
        assert!(
            diff == 0.0,
            "array `{name}` differs by {diff} after transformation"
        );
    }
}

fn transform(
    original: &Program,
    groups: Vec<GroupPlan>,
    mode: CodegenMode,
) -> sf_codegen::TransformOutput {
    let plan = ExecutablePlan::from_program(original).unwrap();
    let tplan = TransformPlan::new(DeviceSpec::k20x(), mode, false, groups);
    let out = transform_program(original, &plan, &tplan).unwrap();
    // Degradation reasons are shown to the user verbatim: a string literal
    // that lost its line-continuation backslash shows up as a run of spaces.
    for reason in out
        .degradations
        .iter()
        .map(|d| &d.reason)
        .chain(out.fallbacks.iter().map(|(_, reason)| reason))
    {
        assert!(
            !reason.contains("  "),
            "reason with a run of spaces: {reason:?}"
        );
    }
    out
}

/// Two independent stencils reading the same input array.
const SIMPLE_PAIR: &str = r#"
__global__ void blur(const double* __restrict__ u, double* v, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) {
      v[k][j][i] = 0.25 * (u[k][j][i+1] + u[k][j][i-1] + u[k][j+1][i] + u[k][j-1][i]);
    }
  }
}
__global__ void scale(const double* __restrict__ u, double* w, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      w[k][j][i] = 2.0 * u[k][j][i] + 1.0;
    }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 8;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* v = cudaAlloc3D(nz, ny, nx);
  double* w = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(u);
  blur<<<dim3(4, 4), dim3(16, 8)>>>(u, v, nx, ny, nz);
  scale<<<dim3(4, 4), dim3(16, 8)>>>(u, w, nx, ny, nz);
  cudaMemcpyD2H(v);
  cudaMemcpyD2H(w);
}
"#;

#[test]
fn simple_fusion_preserves_output() {
    let p = parse_program(SIMPLE_PAIR).unwrap();
    let out = transform(
        &p,
        vec![GroupPlan::of(vec![
            MemberRef::original(0),
            MemberRef::original(1),
        ])],
        CodegenMode::Auto,
    );
    assert!(out.fallbacks.is_empty(), "fallbacks: {:?}", out.fallbacks);
    assert_eq!(out.reports.len(), 1);
    assert!(out.reports[0].merged);
    assert!(!out.reports[0].complex);
    // u is read by both members → staged.
    assert!(out.reports[0].staged.iter().any(|s| s.array == "u"));
    assert_eq!(out.program.kernels.len(), 1);
    // The as-executed plan records what the generator did.
    let g = &out.plan.groups[0];
    assert_eq!(g.precedence, PrecedenceClass::Simple);
    assert!(g.staged_arrays.contains(&"u".to_string()));
    assert!(g.tuned_block.is_some());
    assert_equivalent(&p, &out.program);
}

#[test]
fn simple_fusion_reduces_traffic_and_launches() {
    use sf_gpusim::profiler::Profiler;
    let p = parse_program(SIMPLE_PAIR).unwrap();
    let out = transform(
        &p,
        vec![GroupPlan::of(vec![
            MemberRef::original(0),
            MemberRef::original(1),
        ])],
        CodegenMode::Auto,
    );
    let prof = Profiler::analytic(DeviceSpec::k20x());
    let before = prof.profile(&p).unwrap();
    let after = prof.profile(&out.program).unwrap();
    let bytes_before: u64 = before
        .metadata
        .perf
        .iter()
        .map(|m| m.dram_read_bytes + m.dram_write_bytes)
        .sum();
    let bytes_after: u64 = after
        .metadata
        .perf
        .iter()
        .map(|m| m.dram_read_bytes + m.dram_write_bytes)
        .sum();
    assert!(
        bytes_after < bytes_before,
        "fusion must cut DRAM traffic ({bytes_after} vs {bytes_before})"
    );
    assert!(after.total_runtime_us < before.total_runtime_us);
}

/// Producer (full domain, pointwise) feeding a radius-1 consumer: the
/// complex-fusion case with halo recomputation.
const FLOW_PAIR: &str = r#"
__global__ void flux(const double* __restrict__ q, double* f, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      f[k][j][i] = 0.5 * q[k][j][i] * q[k][j][i] + 1.5;
    }
  }
}
__global__ void update(const double* __restrict__ f, double* q2, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) {
      q2[k][j][i] = f[k][j][i+1] - f[k][j][i-1] + f[k][j+1][i] - f[k][j-1][i];
    }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 8;
  double* q = cudaAlloc3D(nz, ny, nx);
  double* f = cudaAlloc3D(nz, ny, nx);
  double* q2 = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(q);
  flux<<<dim3(4, 4), dim3(16, 8)>>>(q, f, nx, ny, nz);
  update<<<dim3(4, 4), dim3(16, 8)>>>(f, q2, nx, ny, nz);
  cudaMemcpyD2H(q2);
}
"#;

#[test]
fn complex_fusion_preserves_output() {
    let p = parse_program(FLOW_PAIR).unwrap();
    let out = transform(
        &p,
        vec![GroupPlan::of(vec![
            MemberRef::original(0),
            MemberRef::original(1),
        ])],
        CodegenMode::Auto,
    );
    assert!(out.fallbacks.is_empty(), "fallbacks: {:?}", out.fallbacks);
    assert!(out.reports[0].complex);
    assert!(out.reports[0].merged);
    // The produced array f must be staged with halo.
    let staged_f = out.reports[0]
        .staged
        .iter()
        .find(|s| s.array == "f")
        .expect("f staged");
    assert!(staged_f.flow);
    assert_eq!((staged_f.rx, staged_f.ry), (1, 1));
    // Complex fusion is recorded as precedence-aware in the executed plan.
    assert_eq!(
        out.plan.groups[0].precedence,
        PrecedenceClass::PrecedenceAware
    );
    assert_equivalent(&p, &out.program);
}

#[test]
fn complex_fusion_generated_source_is_valid_minicuda() {
    let p = parse_program(FLOW_PAIR).unwrap();
    let out = transform(
        &p,
        vec![GroupPlan::of(vec![
            MemberRef::original(0),
            MemberRef::original(1),
        ])],
        CodegenMode::Auto,
    );
    // Unparse and reparse the whole transformed program.
    let text = sf_minicuda::printer::print_program(&out.program);
    let reparsed = parse_program(&text).expect("generated source parses");
    assert_eq!(reparsed, out.program);
    // Barriers and shared tiles present.
    assert!(text.contains("__syncthreads()"));
    assert!(text.contains("__shared__ double s_f"));
}

/// Members with mismatched loop structure (deep nest): Auto falls back to
/// concatenation, Manual merges — the Fig. 6 mechanism.
const DEEP_PAIR: &str = r#"
__global__ void deep(const double* __restrict__ u, double* r, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      for (int l = 0; l < 4; l++) {
        r[l][k][j][i] = u[k][j][i] * (1.0 + l);
      }
    }
  }
}
__global__ void flat(const double* __restrict__ u, double* w, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      w[k][j][i] = u[k][j][i] + 3.0;
    }
  }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* r = cudaAlloc4D(4, nz, ny, nx);
  double* w = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(u);
  deep<<<dim3(2, 2), dim3(16, 8)>>>(u, r, nx, ny, nz);
  flat<<<dim3(2, 2), dim3(16, 8)>>>(u, w, nx, ny, nz);
  cudaMemcpyD2H(r);
  cudaMemcpyD2H(w);
}
"#;

#[test]
fn deep_nest_auto_falls_back_manual_merges() {
    let p = parse_program(DEEP_PAIR).unwrap();
    let groups = vec![GroupPlan::of(vec![
        MemberRef::original(0),
        MemberRef::original(1),
    ])];
    let auto = transform(&p, groups.clone(), CodegenMode::Auto);
    assert!(auto.fallbacks.is_empty());
    assert!(!auto.reports[0].merged, "auto must not merge deep nests");
    assert_equivalent(&p, &auto.program);

    let manual = transform(&p, groups, CodegenMode::Manual);
    assert!(manual.reports[0].merged, "manual oracle merges deep nests");
    assert_equivalent(&p, &manual.program);

    // Manual's merged sweep reads `u` once; auto's two sweeps read it twice.
    use sf_gpusim::profiler::Profiler;
    let prof = Profiler::analytic(DeviceSpec::k20x());
    let a = prof.profile(&auto.program).unwrap();
    let m = prof.profile(&manual.program).unwrap();
    let rd = |p: &sf_gpusim::profiler::ProgramProfile| -> u64 {
        p.metadata.perf.iter().map(|x| x.dram_read_bytes).sum()
    };
    assert!(
        rd(&m) < rd(&a),
        "manual merge must cut reads: manual {} vs auto {}",
        rd(&m),
        rd(&a)
    );
}

/// Guards with different bounds: Auto emits one branch per segment, Manual
/// coalesces identical guards — the Fig. 7 divergence mechanism.
const GUARDED_TRIO: &str = r#"
__global__ void s1(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 3 && j < ny) {
    for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; }
  }
}
__global__ void s2(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 3 && j < ny) {
    for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] + 2.0; }
  }
}
__global__ void s3(const double* __restrict__ u, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 3 && j < ny) {
    for (int k = 0; k < nz; k++) { c[k][j][i] = u[k][j][i] - 1.0; }
  }
}
void host() {
  int nx = 64; int ny = 16; int nz = 8;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(u);
  s1<<<dim3(2, 2), dim3(32, 8)>>>(u, a, nx, ny, nz);
  s2<<<dim3(2, 2), dim3(32, 8)>>>(u, b, nx, ny, nz);
  s3<<<dim3(2, 2), dim3(32, 8)>>>(u, c, nx, ny, nz);
  cudaMemcpyD2H(a);
}
"#;

#[test]
fn manual_guard_coalescing_cuts_divergence() {
    let p = parse_program(GUARDED_TRIO).unwrap();
    let groups = vec![GroupPlan::of(vec![
        MemberRef::original(0),
        MemberRef::original(1),
        MemberRef::original(2),
    ])];
    let auto = transform(&p, groups.clone(), CodegenMode::Auto);
    let manual = transform(&p, groups, CodegenMode::Manual);
    assert_equivalent(&p, &auto.program);
    assert_equivalent(&p, &manual.program);

    use sf_gpusim::profiler::Profiler;
    let prof = Profiler::new(DeviceSpec::k20x());
    let a = prof.profile(&auto.program).unwrap();
    let m = prof.profile(&manual.program).unwrap();
    let div = |p: &sf_gpusim::profiler::ProgramProfile| -> u64 {
        p.metadata.perf.iter().map(|x| x.divergent_evals).sum()
    };
    assert!(
        div(&m) < div(&a),
        "manual coalescing must reduce divergent branches: {} vs {}",
        div(&m),
        div(&a)
    );
}

#[test]
fn fission_then_fuse_products_preserves_output() {
    // A fissionable kernel: split it and fuse one product with a stranger.
    let src = r#"
__global__ void pair(const double* __restrict__ x, const double* __restrict__ y,
                     double* a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      a[k][j][i] = x[k][j][i] * 2.0;
      b[k][j][i] = y[k][j][i] + 1.0;
    }
  }
}
__global__ void reader(const double* __restrict__ x, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      c[k][j][i] = x[k][j][i] - 5.0;
    }
  }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* x = cudaAlloc3D(nz, ny, nx);
  double* y = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(x);
  cudaMemcpyH2D(y);
  pair<<<dim3(2, 2), dim3(16, 8)>>>(x, y, a, b, nx, ny, nz);
  reader<<<dim3(2, 2), dim3(16, 8)>>>(x, c, nx, ny, nz);
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(c);
}
"#;
    let p = parse_program(src).unwrap();
    // Find which fission component owns x/a.
    let prods = sf_codegen::fission_kernel(p.kernel("pair").unwrap()).unwrap();
    let xa = prods
        .iter()
        .position(|pr| pr.component.contains(&"x".to_string()))
        .unwrap();
    let yb = 1 - xa;
    let out = transform(
        &p,
        vec![
            GroupPlan::of(vec![MemberRef::product(0, yb)]),
            GroupPlan::of(vec![MemberRef::product(0, xa), MemberRef::original(1)]),
        ],
        CodegenMode::Auto,
    );
    assert!(out.fallbacks.is_empty(), "{:?}", out.fallbacks);
    assert_equivalent(&p, &out.program);
    // The fused group stages the shared input x.
    assert!(out.reports[0].staged.iter().any(|s| s.array == "x"));
}

#[test]
fn block_tuning_never_prices_slower_or_lowers_occupancy() {
    let p = parse_program(SIMPLE_PAIR).unwrap();
    let plan = ExecutablePlan::from_program(&p).unwrap();
    let tplan = TransformPlan::new(
        DeviceSpec::k20x(),
        CodegenMode::Auto,
        true,
        vec![GroupPlan::of(vec![
            MemberRef::original(0),
            MemberRef::original(1),
        ])],
    );
    let out = transform_program(&p, &plan, &tplan).unwrap();
    assert_equivalent(&p, &out.program);
    let untuned = TransformPlan {
        block_tuning: false,
        ..tplan.clone()
    };
    let untuned = transform_program(&p, &plan, &untuned).unwrap();
    // The tuner's price is the analytic profile's; the pipeline profiles
    // functionally by default, charging measured flops and divergence.
    for profiler in [
        Profiler::analytic(DeviceSpec::k20x()),
        Profiler::new(DeviceSpec::k20x()),
    ] {
        let time = |program: &Program| profiler.profile(program).unwrap().total_runtime_us;
        assert!(time(&out.program) <= time(&untuned.program));
    }
    assert_eq!(out.tuning.len(), 1);
    let note = &out.tuning[0];
    assert!(note.occupancy_after >= note.occupancy_before, "{note:?}");
    assert!(note.us_after <= note.us_before, "{note:?}");
    assert!(note.us_before.is_finite(), "{note:?}");
    let g = &out.plan.groups[0];
    let tuned = g.tuned_block.expect("a fused group records its block");
    assert_eq!(
        Dim3::new(tuned.x, tuned.y, tuned.z),
        note.block_after,
        "the as-executed plan records the tuner's pick"
    );
}

#[test]
fn unfusable_flow_with_war_falls_back() {
    // Consumer reads the produced array at a *future* plane (k+1): the
    // legality check must reject merging and fall back to unfused members.
    let src = r#"
__global__ void prod(const double* __restrict__ q, double* f, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { f[k][j][i] = q[k][j][i] * 2.0; }
  }
}
__global__ void cons(const double* __restrict__ f, double* r, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz - 1; k++) { r[k][j][i] = f[k+1][j][i]; }
  }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* q = cudaAlloc3D(nz, ny, nx);
  double* f = cudaAlloc3D(nz, ny, nx);
  double* r = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(q);
  prod<<<dim3(2, 2), dim3(16, 8)>>>(q, f, nx, ny, nz);
  cons<<<dim3(2, 2), dim3(16, 8)>>>(f, r, nx, ny, nz);
  cudaMemcpyD2H(r);
}
"#;
    let p = parse_program(src).unwrap();
    let out = transform(
        &p,
        vec![GroupPlan::of(vec![
            MemberRef::original(0),
            MemberRef::original(1),
        ])],
        CodegenMode::Auto,
    );
    assert_eq!(out.fallbacks.len(), 1);
    assert!(out.fallbacks[0].1.contains("future plane"));
    // The executed plan clears the fusion annotations of the fallen-back
    // group.
    assert!(out.plan.groups[0].staged_arrays.is_empty());
    assert!(out.plan.groups[0].tuned_block.is_none());
    // Fallback still yields a correct program (members unfused).
    assert_equivalent(&p, &out.program);
}

#[test]
fn complex_fusion_inlines_producer_locals_for_halo() {
    // The producer computes through a chain of locals; halo recomputation
    // must inline the chain before shifting (a center-site local leaking
    // into the halo value corrupts the consumer's boundary columns).
    let src = r#"
__global__ void prod(const double* __restrict__ q, double* f, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      double t0 = q[k][j][i] * 2.0;
      double t1 = t0 + 1.0;
      double t2 = t1 * t1;
      f[k][j][i] = t2 - 0.5;
    }
  }
}
__global__ void cons(const double* __restrict__ f, double* r, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) {
      r[k][j][i] = f[k][j][i+1] + f[k][j-1][i];
    }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 4;
  double* q = cudaAlloc3D(nz, ny, nx);
  double* f = cudaAlloc3D(nz, ny, nx);
  double* r = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(q);
  prod<<<dim3(4, 4), dim3(16, 8)>>>(q, f, nx, ny, nz);
  cons<<<dim3(4, 4), dim3(16, 8)>>>(f, r, nx, ny, nz);
  cudaMemcpyD2H(r);
}
"#;
    let p = parse_program(src).unwrap();
    let out = transform(
        &p,
        vec![GroupPlan::of(vec![
            MemberRef::original(0),
            MemberRef::original(1),
        ])],
        CodegenMode::Auto,
    );
    assert!(out.fallbacks.is_empty(), "{:?}", out.fallbacks);
    assert!(out.reports[0].complex);
    assert_equivalent(&p, &out.program);
}

#[test]
fn in_place_producer_of_a_staged_array_is_rejected() {
    // `flux` updates `f` in place and `update` reads it laterally: halo
    // recomputation would re-read `f` sites a neighboring block is updating.
    let src = FLOW_PAIR
        .replace(
            "void flux(const double* __restrict__ q, double* f",
            "void flux(double* f",
        )
        .replace(
            "0.5 * q[k][j][i] * q[k][j][i] + 1.5",
            "0.5 * f[k][j][i] + 1.5",
        )
        .replace("(q, f, nx", "(f, nx")
        .replace("cudaMemcpyH2D(q)", "cudaMemcpyH2D(f)");
    let p = parse_program(&src).unwrap();
    let out = transform(
        &p,
        vec![GroupPlan::of(vec![
            MemberRef::original(0),
            MemberRef::original(1),
        ])],
        CodegenMode::Auto,
    );
    assert_eq!(out.fallbacks.len(), 1);
    assert_eq!(
        out.degradations[0].reason,
        "producer `flux` of staged flow array `f` reads group-written array `f`; halo \
         recomputation would cross block boundaries — unfusable"
    );
    assert_equivalent(&p, &out.program);
}

#[test]
fn anti_ordered_group_is_rejected() {
    // A group listing the consumer before the producer of a flow array must
    // be rejected (emitting segments in that order would read mid-launch
    // values the original program never saw).
    let p = parse_program(FLOW_PAIR).unwrap();
    let out = transform(
        &p,
        vec![GroupPlan::of(vec![
            MemberRef::original(1),
            MemberRef::original(0),
        ])],
        CodegenMode::Auto,
    );
    assert_eq!(out.fallbacks.len(), 1);
    assert_eq!(
        out.fallbacks[0].1,
        "member 1 overwrites `f` read by an earlier member; anti-ordered group is unfusable"
    );
    // The fallback still emits a correct program... in the group's stated
    // order, which for a fallback is the unfused launches as listed; the
    // host order must still respect the flow (producer seq 0 first).
    let plan = sf_minicuda::host::ExecutablePlan::from_program(&out.program).unwrap();
    let order: Vec<&str> = plan.launches.iter().map(|l| l.kernel.as_str()).collect();
    assert_eq!(order, vec!["flux", "update"]);
    assert_equivalent(&p, &out.program);
}

#[test]
fn complex_fusion_radius_two_halo() {
    // A 4th-order (radius-2) consumer of a produced field: halo
    // recomputation must cover two layers on each side.
    let src = r#"
__global__ void prod(const double* __restrict__ q, double* f, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { f[k][j][i] = q[k][j][i] * 1.5 + 0.25; }
  }
}
__global__ void cons(const double* __restrict__ f, double* r, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 2 && i < nx - 2 && j >= 2 && j < ny - 2) {
    for (int k = 0; k < nz; k++) {
      r[k][j][i] = f[k][j][i+2] - f[k][j][i-2] + f[k][j+2][i] - f[k][j-2][i]
                 + 0.5 * (f[k][j][i+1] - f[k][j][i-1]);
    }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 4;
  double* q = cudaAlloc3D(nz, ny, nx);
  double* f = cudaAlloc3D(nz, ny, nx);
  double* r = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(q);
  prod<<<dim3(4, 4), dim3(16, 8)>>>(q, f, nx, ny, nz);
  cons<<<dim3(4, 4), dim3(16, 8)>>>(f, r, nx, ny, nz);
  cudaMemcpyD2H(r);
}
"#;
    let p = parse_program(src).unwrap();
    let out = transform(
        &p,
        vec![GroupPlan::of(vec![
            MemberRef::original(0),
            MemberRef::original(1),
        ])],
        CodegenMode::Auto,
    );
    assert!(out.fallbacks.is_empty(), "{:?}", out.fallbacks);
    let staged = out.reports[0]
        .staged
        .iter()
        .find(|s| s.array == "f")
        .unwrap();
    assert_eq!((staged.rx, staged.ry), (2, 2));
    assert_equivalent(&p, &out.program);
}

#[test]
fn mismatched_vertical_ranges_get_k_guards() {
    // Members sweeping different k ranges share one loop with per-segment
    // k-range conditionals (§5.5.2's "conditional statements are added").
    let src = r#"
__global__ void full(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; }
  }
}
__global__ void inner(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 2; k < nz - 2; k++) { b[k][j][i] = u[k][j][i] + 1.0; }
  }
}
void host() {
  int nx = 32; int ny = 16; int nz = 12;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(u);
  full<<<dim3(2, 2), dim3(16, 8)>>>(u, a, nx, ny, nz);
  inner<<<dim3(2, 2), dim3(16, 8)>>>(u, b, nx, ny, nz);
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(b);
}
"#;
    let p = parse_program(src).unwrap();
    let out = transform(
        &p,
        vec![GroupPlan::of(vec![
            MemberRef::original(0),
            MemberRef::original(1),
        ])],
        CodegenMode::Auto,
    );
    assert!(out.fallbacks.is_empty(), "{:?}", out.fallbacks);
    assert!(out.reports[0].merged);
    let text = sf_minicuda::printer::print_kernel(&out.program.kernels[0]);
    assert!(
        text.contains("k >= 2") && text.contains("k < 10"),
        "missing k-range guard:\n{text}"
    );
    assert_equivalent(&p, &out.program);
}
