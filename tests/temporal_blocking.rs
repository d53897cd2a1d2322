//! Temporal-blocking conformance suite: a temporally folded ping-pong loop
//! must reproduce the original program's memory image bit-exactly, the
//! host regenerator must reconstruct recorded time loops, and the
//! degradation ladder must step down safely when temporal rungs fail.

use sf_codegen::{
    transform_program, transform_program_with, CodegenMode, GroupPlan, MemberRef, TransformPlan,
};
use sf_codegen::{Resolver, Storage, TemporalAnalysis};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_gpusim::{GlobalMemory, Interpreter};
use sf_graphs::Precedence;
use sf_minicuda::ast::HostStmt;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::{parse_program, Program};
use sf_search::objective::assumed_block;
use sf_search::{ProjectionEngine, SearchSpace};

/// A ping-pong Jacobi pair inside a host time loop: `step_ab` reads `a`
/// and writes `b`, `step_ba` reads `b` and writes `a`. The star offset
/// `r` sets the stencil radius of both members.
fn pingpong_r(steps: u64, r: usize) -> String {
    format!(
        r#"
__global__ void step_ab(const double* __restrict__ a, double* b, int nx, int ny, int nz) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= {r} && i < nx - {r} && j >= {r} && j < ny - {r}) {{
    for (int k = 0; k < nz; k++) {{
      b[k][j][i] = 0.2 * (a[k][j][i] + a[k][j][i+{r}] + a[k][j][i-{r}] + a[k][j+{r}][i] + a[k][j-{r}][i]);
    }}
  }}
}}
__global__ void step_ba(const double* __restrict__ b, double* a, int nx, int ny, int nz) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= {r} && i < nx - {r} && j >= {r} && j < ny - {r}) {{
    for (int k = 0; k < nz; k++) {{
      a[k][j][i] = 0.2 * (b[k][j][i] + b[k][j][i+{r}] + b[k][j][i-{r}] + b[k][j+{r}][i] + b[k][j-{r}][i]);
    }}
  }}
}}
void host() {{
  int nx = 64; int ny = 32; int nz = 4;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(a);
  cudaMemcpyH2D(b);
  for (int t = 0; t < {steps}; t++) {{
    step_ab<<<dim3(2, 1), dim3(32, 32)>>>(a, b, nx, ny, nz);
    step_ba<<<dim3(2, 1), dim3(32, 32)>>>(b, a, nx, ny, nz);
  }}
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(b);
}}
"#
    )
}

/// The radius-1 pair: eight iterations make temporal degrees 2 and 4
/// both divide the trip count.
fn pingpong(steps: u64) -> String {
    pingpong_r(steps, 1)
}

/// Run both programs functionally (hazard detection on) and assert every
/// array matches bit-exactly.
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

fn host_repeats(p: &Program) -> Vec<(i64, usize)> {
    p.host
        .iter()
        .filter_map(|s| match s {
            HostStmt::Repeat {
                count: sf_minicuda::ast::Expr::Int(n),
                body,
                ..
            } => Some((*n, body.len())),
            _ => None,
        })
        .collect()
}

#[test]
fn temporal_fold_preserves_output_bit_exactly() {
    for fold in [2u32, 4] {
        let p = parse_program(&pingpong(8)).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut group = GroupPlan::of(vec![MemberRef::original(0), MemberRef::original(1)]);
        group.temporal = fold;
        let tplan = TransformPlan::new(DeviceSpec::k20x(), CodegenMode::Auto, false, vec![group]);
        let out = transform_program(&p, &plan, &tplan).unwrap();
        assert!(out.fallbacks.is_empty(), "fallbacks: {:?}", out.fallbacks);
        assert!(
            out.degradations.is_empty(),
            "degradations: {:?}",
            out.degradations
        );
        // One fused kernel, launched twice (a→shadows, shadows→a) per host
        // iteration; the loop collapses from 8 to 8 / (2 * fold) iterations.
        assert_eq!(out.program.kernels.len(), 1);
        assert_eq!(host_repeats(&out.program), vec![(8 / (2 * fold as i64), 2)]);
        // Shadow arrays are allocated, and never copied from the host.
        let allocs: Vec<&str> = out
            .program
            .host
            .iter()
            .filter_map(|s| match s {
                HostStmt::Alloc { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert!(allocs.contains(&"a__tb") && allocs.contains(&"b__tb"));
        // The as-executed plan keeps the temporal degree it emitted.
        assert_eq!(out.plan.groups[0].temporal, fold);
        assert_equivalent(&p, &out.program);
    }
}

#[test]
fn plain_time_loop_is_reconstructed() {
    let p = parse_program(&pingpong(8)).unwrap();
    let plan = ExecutablePlan::from_program(&p).unwrap();
    let groups = vec![
        GroupPlan::of(vec![MemberRef::original(0)]),
        GroupPlan::of(vec![MemberRef::original(1)]),
    ];
    let tplan = TransformPlan::new(DeviceSpec::k20x(), CodegenMode::Auto, false, groups);
    let out = transform_program(&p, &plan, &tplan).unwrap();
    // The untouched loop survives with its original trip count and both
    // launches in its body.
    assert_eq!(host_repeats(&out.program), vec![(8, 2)]);
    assert_equivalent(&p, &out.program);
}

#[test]
fn tuned_temporal_rejection_degrades_to_untuned_temporal() {
    let p = parse_program(&pingpong(8)).unwrap();
    let plan = ExecutablePlan::from_program(&p).unwrap();
    let mut group = GroupPlan::of(vec![MemberRef::original(0), MemberRef::original(1)]);
    group.temporal = 2;
    let tplan = TransformPlan::new(DeviceSpec::k20x(), CodegenMode::Auto, true, vec![group]);
    let faults = sf_core::FaultPlan {
        reject_tuned_groups: [0usize].into_iter().collect(),
        ..sf_core::FaultPlan::default()
    };
    let instances = sf_graphs::Precedence::instances(&p, &plan).unwrap();
    let out = transform_program_with(&p, &plan, &tplan, &instances, &faults).unwrap();
    assert_eq!(out.degradations.len(), 1);
    assert_eq!(
        out.degradations[0].action,
        "fell back to untuned temporal fusion"
    );
    assert_eq!(out.plan.groups[0].temporal, 2);
    assert_eq!(host_repeats(&out.program), vec![(2, 2)]);
    assert_equivalent(&p, &out.program);
}

#[test]
fn indivisible_trip_count_falls_back_inside_the_loop() {
    // 6 iterations: the 2T = 4 ping-pong pair does not divide the trip
    // count, so the temporal rungs reject. The spatial rung also rejects
    // (the pair is anti-ordered: member 0 reads `a` which member 1
    // writes), so the ladder lands on unfused members inside the
    // reconstructed loop — and the result still matches the original.
    let p = parse_program(&pingpong(6)).unwrap();
    let plan = ExecutablePlan::from_program(&p).unwrap();
    let mut group = GroupPlan::of(vec![MemberRef::original(0), MemberRef::original(1)]);
    group.temporal = 2;
    let tplan = TransformPlan::new(DeviceSpec::k20x(), CodegenMode::Auto, false, vec![group]);
    let out = transform_program(&p, &plan, &tplan).unwrap();
    assert!(
        !out.degradations.is_empty(),
        "expected the temporal rung to reject"
    );
    assert!(
        out.fallbacks
            .iter()
            .any(|(g, reason)| *g == 0 && reason.contains("divide the trip count")),
        "fallbacks: {:?}",
        out.fallbacks
    );
    // The as-executed plan records the group as not temporally folded.
    assert_eq!(out.plan.groups[0].temporal, 1);
    assert_eq!(host_repeats(&out.program), vec![(6, 2)]);
    assert_equivalent(&p, &out.program);
}

/// Compare generated code against a checked-in snapshot. Run with
/// `UPDATE_GOLDEN=1` to re-bless after an intentional codegen change.
fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden `{name}` ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        expected, actual,
        "generated code diverged from tests/golden/{name}; \
         re-bless with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn temporal_codegen_matches_golden_snapshots() {
    for fold in [2u32, 4] {
        let p = parse_program(&pingpong(8)).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut group = GroupPlan::of(vec![MemberRef::original(0), MemberRef::original(1)]);
        group.temporal = fold;
        let tplan = TransformPlan::new(DeviceSpec::k20x(), CodegenMode::Auto, false, vec![group]);
        let out = transform_program(&p, &plan, &tplan).unwrap();
        assert!(
            out.degradations.is_empty(),
            "degradations: {:?}",
            out.degradations
        );
        assert_golden(
            &format!("pingpong_temporal_{fold}.cu"),
            &sf_minicuda::printer::print_program(&out.program),
        );
    }
}

mod cost_model {
    use proptest::prelude::*;
    use sf_gpusim::device::DeviceSpec;
    use sf_gpusim::profiler::Profiler;
    use sf_minicuda::host::ExecutablePlan;
    use sf_minicuda::parse_program;
    use sf_search::{ProjectionEngine, SearchSpace};

    fn space_for(src: &str, max_temporal: u32) -> SearchSpace {
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let device = DeviceSpec::k20x();
        let profile = Profiler::analytic(device.clone())
            .profile_with_plan(&p, &plan)
            .expect("profile");
        let decisions = sf_analysis::filter::identify_targets(
            &profile.metadata.perf,
            &profile.metadata.ops,
            &profile.metadata.device,
            &sf_analysis::filter::FilterConfig::default(),
        );
        let mut space = SearchSpace::build(&p, &plan, &profile, &decisions, device).expect("space");
        space.max_temporal = max_temporal;
        space
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The projected cost of the best temporal degree is the argmin
        /// over the identity and every eligible degree: it never exceeds
        /// the spatial projection, and each eligible degree divides the
        /// trip count.
        #[test]
        fn best_fold_is_the_argmin_over_eligible_degrees(
            steps in (0usize..5).prop_map(|i| [4u64, 8, 12, 16, 24][i]),
            r in 1usize..=3,
        ) {
            let space = space_for(&super::pingpong_r(steps, r), 8);
            let engine = ProjectionEngine::new(&space);
            let members = [0usize, 1];
            let li = space.temporal_group(&members).expect("loop candidate");
            let spatial = engine.group_cost_at(&members, 1);
            let (best_t, best) = engine.best_fold(&members);
            let mut degrees_seen = vec![];
            for t in space.temporal_degrees(li) {
                prop_assert_eq!(steps % (2 * u64::from(t)), 0,
                    "degree {} does not divide {} ping-pong steps", t, steps);
                let c = engine.group_cost_at(&members, t);
                prop_assert!(best.time_us <= c.time_us,
                    "best degree {} ({}us) beaten by degree {} ({}us)",
                    best_t, best.time_us, t, c.time_us);
                degrees_seen.push((t, c.time_us));
            }
            // The identity participates in the argmin unless the pair is
            // only legal folded (the loop-carried hard edge case below).
            if best_t == 1 {
                prop_assert!(best.time_us <= spatial.time_us || best.time_us.is_infinite());
            }
        }

        /// Growing the stencil radius grows the accumulated halo, so at a
        /// fixed temporal degree the projected cost is monotone in the
        /// radius — up to and including the degrees the geometry or the
        /// shared-memory budget pushes to infinity.
        #[test]
        fn folded_cost_is_monotone_in_the_halo(
            steps in (0usize..3).prop_map(|i| [4u64, 8, 16][i]),
        ) {
            let costs: Vec<f64> = (1usize..=3)
                .map(|r| {
                    let space = space_for(&super::pingpong_r(steps, r), 2);
                    let engine = ProjectionEngine::new(&space);
                    engine.group_cost_at(&[0, 1], 2).time_us
                })
                .collect();
            for w in costs.windows(2) {
                prop_assert!(w[0] <= w[1],
                    "halo growth lowered the projected cost: {:?}", costs);
            }
        }

        /// Raising the temporal cap can only improve (or keep) the best
        /// projection: the degree set at a higher cap is a superset.
        #[test]
        fn more_temporal_headroom_never_hurts(
            steps in (0usize..3).prop_map(|i| [8u64, 16, 24][i]),
            r in 1usize..=2,
        ) {
            let src = super::pingpong_r(steps, r);
            let low = ProjectionEngine::new(&space_for(&src, 2))
                .best_fold(&[0, 1]).1.time_us;
            let space = space_for(&src, 4);
            let high = ProjectionEngine::new(&space).best_fold(&[0, 1]).1.time_us;
            prop_assert!(high <= low,
                "cap 4 projects {}us, worse than cap 2's {}us", high, low);
        }

        /// A degree whose accumulated halo no longer fits the block (the
        /// codegen geometry rule `2·T·Σr < block edge`) projects to
        /// infinite time — the search can never pick what codegen must
        /// reject.
        #[test]
        fn illegal_geometry_projects_to_infinity(
            r in 2usize..=3,
        ) {
            // Two members of radius r: degree 8 accumulates D = 8·2r ≥ 32
            // of halo per side in a 32-wide block.
            let space = space_for(&super::pingpong_r(16, r), 8);
            let engine = ProjectionEngine::new(&space);
            let c = engine.group_cost_at(&[0, 1], 8);
            prop_assert!(c.time_us.is_infinite());
        }
    }
}

/// The search's verdict on every fold of every time loop of `program` at
/// degrees 2..=4 — finite projected time or not — is codegen's:
/// `TemporalAnalysis::new(..).smem_bytes(block)` at the block the search
/// assumes. Returns the verdicts.
fn agreed_fold_verdicts(program: &Program, label: &str) -> Vec<bool> {
    let plan = ExecutablePlan::from_program(program).expect("plan");
    let precedence = Precedence::build(program, &plan).expect("graphs");
    let device = DeviceSpec::k20x();
    let profile = Profiler::analytic(device.clone())
        .profile_with_plan(program, &plan)
        .expect("profile");
    let decisions = sf_analysis::filter::identify_targets(
        &profile.metadata.perf,
        &profile.metadata.ops,
        &profile.metadata.device,
        &sf_analysis::filter::FilterConfig::default(),
    );
    let mut space =
        SearchSpace::from_precedence(program, &plan, &profile, &decisions, device, &precedence)
            .expect("space");
    space.max_temporal = 4;
    let engine = ProjectionEngine::new(&space);
    let storage = Storage::new(&precedence.ddg);
    let mut resolver = Resolver::new(program, &plan, &storage);
    let mut verdicts = Vec::new();
    for (li, span) in space.loops.iter().enumerate() {
        if space.temporal_group(&span.units).is_none() {
            continue;
        }
        let resolved: Vec<_> = span
            .units
            .iter()
            .map(|&u| resolver.resolve(&space.units[u].mref).expect("resolves"))
            .collect();
        let refs: Vec<_> = resolved.iter().map(|(k, l)| (&**k, &**l)).collect();
        let block = assumed_block(&space, &span.units);
        for fold in 2..=4 {
            let priced = engine.group_cost_at(&span.units, fold).time_us.is_finite();
            let codegen = TemporalAnalysis::new(&refs, "t", space.smem_limit, fold, &plan.allocs)
                .and_then(|a| a.smem_bytes(block));
            assert_eq!(
                priced,
                codegen.is_ok(),
                "{label} loop {li} at degree {fold}, block {block}: codegen says {codegen:?}"
            );
            verdicts.push(priced);
        }
    }
    verdicts
}

#[test]
fn the_search_prices_a_fold_exactly_when_codegen_emits_it() {
    for name in ["mitgcm-ts", "scale-les-ts"] {
        let app = sf_apps::app_by_name(name, &sf_apps::AppConfig::test()).expect("known app");
        assert!(
            !agreed_fold_verdicts(&app.program, name).is_empty(),
            "{name} has no loop"
        );
    }
    // Radius-1 members on a 32 × 8 block: degree 2 accumulates a halo of
    // exactly half the block's height (2·D == b), which codegen folds and
    // the search must not price out; degree 4 does not fit.
    let src = pingpong(8).replace("dim3(2, 1), dim3(32, 32)", "dim3(2, 4), dim3(32, 8)");
    let p = parse_program(&src).unwrap();
    assert_eq!(
        agreed_fold_verdicts(&p, "half-block halo"),
        [true, false, false]
    );
    let plan = ExecutablePlan::from_program(&p).unwrap();
    let mut group = GroupPlan::of(vec![MemberRef::original(0), MemberRef::original(1)]);
    group.temporal = 2;
    let tplan = TransformPlan::new(DeviceSpec::k20x(), CodegenMode::Auto, false, vec![group]);
    let out = transform_program(&p, &plan, &tplan).unwrap();
    assert!(out.degradations.is_empty(), "{:?}", out.degradations);
    assert_eq!(out.plan.groups[0].temporal, 2);
    assert_equivalent(&p, &out.program);
}

#[test]
fn opaque_host_loops_are_rejected() {
    // A non-launch statement inside the time loop makes it opaque: the
    // transform must refuse rather than silently flatten.
    let src = r#"
__global__ void relax(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      b[k][j][i] = 0.5 * a[k][j][i];
    }
  }
}
void host() {
  int nx = 32; int ny = 16; int nz = 2;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(a);
  for (int t = 0; t < 4; t++) {
    relax<<<dim3(2, 2), dim3(16, 8)>>>(a, b, nx, ny, nz);
    cudaMemcpyD2H(b);
  }
}
"#;
    let p = parse_program(src).unwrap();
    let plan = ExecutablePlan::from_program(&p).unwrap();
    assert!(plan.opaque_loops);
    let tplan = TransformPlan::new(
        DeviceSpec::k20x(),
        CodegenMode::Auto,
        false,
        vec![GroupPlan::of(vec![MemberRef::original(0)])],
    );
    let err = transform_program(&p, &plan, &tplan).unwrap_err();
    assert!(err.0.contains("loops"), "unexpected error: {}", err.0);
}
