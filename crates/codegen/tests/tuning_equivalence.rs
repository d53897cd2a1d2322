//! The block tuner prices candidate shapes with the profiler's own launch
//! pricer instead of generating a kernel per candidate. Two oracles keep
//! that honest:
//!
//! - **equivalence** — the regenerate-and-price loop the tuner replaced
//!   lives on here, built from the public generators and the profiler: emit
//!   every legal candidate, price each emitted launch with an analytic
//!   profile, keep those that neither lower occupancy nor launch more
//!   threads, and take the strictly fastest. It must pick the same block
//!   and produce the same kernel, arguments, report and note for every
//!   group the pipeline plans for every app analog on every registry
//!   device (and for every adjacent launch window, for breadth);
//! - **fidelity** — for *every* legal candidate block, not just the winner,
//!   the price (registers, shared bytes, occupancy, modelled µs) equals
//!   what the profiler measures on the kernel actually emitted at that
//!   block.

use proptest::prelude::*;
use sf_analysis::access::KernelAccess;
use sf_apps::{app_by_name, AppConfig, APP_NAMES};
use sf_codegen::fuse::{FusedKernel, GroupAnalysis};
use sf_codegen::temporal::TemporalAnalysis;
use sf_codegen::tuning::{kernel_occupancy, tune_block, Analysis, TuneNote};
use sf_codegen::{fission_kernel, CodegenError, CodegenMode, GroupPlan, MemberRef};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::occupancy::{candidate_blocks, occupancy};
use sf_gpusim::profiler::{estimate_regs_per_thread, LaunchPricer, Profiler};
use sf_gpusim::registry::DeviceRegistry;
use sf_gpusim::TimingModel;
use sf_minicuda::ast::{Dim3Expr, Expr, HostStmt, Kernel, LaunchArg};
use sf_minicuda::host::{AllocInfo, Dim3, ExecutablePlan, HostValue, LaunchRecord, ResolvedArg};
use sf_minicuda::{parse_program, Program};
use stencilfuse::{Pipeline, PipelineConfig, Stage};

/// The modelled µs the profiler charges one execution of `fused` launched
/// at `block`: an analytic profile of a program that declares `allocs` and
/// the kernel's temporal shadows (shaped like their bases, as the host
/// rewriter declares them) and launches the kernel once. `None` when the
/// launch cannot execute.
fn profiler_us(
    fused: &FusedKernel,
    block: Dim3,
    allocs: &[AllocInfo],
    device: &DeviceSpec,
) -> Option<f64> {
    let alloc = |name: &str, base: &AllocInfo| HostStmt::Alloc {
        name: name.to_string(),
        elem: base.elem,
        extents: base.extents.iter().map(|&e| Expr::Int(e as i64)).collect(),
    };
    let mut host: Vec<HostStmt> = allocs.iter().map(|a| alloc(&a.name, a)).collect();
    for arg in &fused.args {
        if let ResolvedArg::Array(name) = arg {
            if name.ends_with("__tb") {
                host.push(alloc(name, &declared(allocs, name).expect("shadowed base")));
            }
        }
    }
    let dim = |d: Dim3| Dim3Expr::literal(d.x as i64, d.y as i64, d.z as i64);
    let args = fused.args.iter().map(|a| match a {
        ResolvedArg::Array(n) => LaunchArg::Array(n.clone()),
        ResolvedArg::Scalar(HostValue::Int(v)) => LaunchArg::Scalar(Expr::Int(*v)),
        ResolvedArg::Scalar(HostValue::Float(v)) => LaunchArg::Scalar(Expr::Float(*v)),
    });
    host.push(HostStmt::Launch {
        kernel: fused.kernel.name.clone(),
        grid: dim(fused.grid),
        block: dim(block),
        args: args.collect(),
    });
    let program = Program {
        kernels: vec![fused.kernel.clone()],
        host,
    };
    let profile = Profiler::analytic(device.clone()).profile(&program).ok()?;
    Some(profile.costs[0].total_us())
}

/// The allocation the host rewriter declares for `name`: one of `allocs`,
/// or a temporal shadow shaped like its base.
fn declared(allocs: &[AllocInfo], name: &str) -> Option<AllocInfo> {
    let base = name.strip_suffix("__tb").unwrap_or(name);
    let a = allocs.iter().find(|a| a.name == base)?;
    Some(AllocInfo {
        name: name.to_string(),
        ..a.clone()
    })
}

/// Threads a launch runs, idle lanes included.
fn coverage(fused: &FusedKernel, block: Dim3) -> u64 {
    fused.grid.count() * block.count()
}

/// The tuner as a regenerating loop: emit the kernel at every candidate
/// shape, measure each one's occupancy and price it with the profiler,
/// keep the candidates that neither lower occupancy nor launch more
/// threads than the initial block, and take the strictly fastest (ties to
/// the first).
fn regenerate_and_price(
    initial_block: Dim3,
    device: &DeviceSpec,
    allocs: &[AllocInfo],
    emit: impl Fn(Dim3) -> Result<FusedKernel, CodegenError>,
) -> Result<(FusedKernel, TuneNote), CodegenError> {
    let base = emit(initial_block)?;
    let occ_before = kernel_occupancy(&base.kernel, initial_block, device)?;
    let us_before = profiler_us(&base, initial_block, allocs, device).unwrap_or(f64::INFINITY);
    let cover = coverage(&base, initial_block);
    let mut best: Option<(FusedKernel, Dim3, f64, f64)> = None;
    for cand in candidate_blocks(device) {
        if cand == initial_block {
            continue;
        }
        let Ok(fused) = emit(cand) else {
            continue;
        };
        let Ok(occ) = kernel_occupancy(&fused.kernel, cand, device) else {
            continue;
        };
        if occ == 0.0 || occ < occ_before || coverage(&fused, cand) > cover {
            continue;
        }
        let Some(us) = profiler_us(&fused, cand, allocs, device) else {
            continue;
        };
        let to_beat = best.as_ref().map_or(us_before, |b| b.2);
        if us < to_beat * (1.0 - 1e-9) {
            best = Some((fused, cand, us, occ));
        }
    }
    let (best, block_after, us_after, occ_after) =
        best.unwrap_or((base, initial_block, us_before, occ_before));
    let note = TuneNote {
        kernel: best.kernel.name.clone(),
        occupancy_before: occ_before,
        occupancy_after: occ_after,
        block_before: initial_block,
        block_after,
        us_before,
        us_after,
        tuned: block_after != initial_block,
    };
    Ok((best, note))
}

/// Owned members of one group (fission products are built on the spot).
type Members = Vec<(Kernel, LaunchRecord)>;

fn borrow(members: &Members) -> Vec<(&Kernel, &LaunchRecord)> {
    members.iter().map(|(k, l)| (k, l)).collect()
}

/// Resolve a plan group the way the host rewriter does (minus instance
/// renaming, which only changes array names).
fn resolve(program: &Program, plan: &ExecutablePlan, group: &GroupPlan) -> Members {
    group
        .members
        .iter()
        .map(|m: &MemberRef| {
            let launch = &plan.launches[m.seq];
            let kernel = program
                .kernel(&launch.kernel)
                .expect("launched kernel exists");
            match m.fission_component {
                None => (kernel.clone(), launch.clone()),
                Some(c) => {
                    let product =
                        fission_kernel(kernel).expect("planned fission applies")[c].clone();
                    let args: Vec<ResolvedArg> = product
                        .kept_params
                        .iter()
                        .map(|&i| launch.args[i].clone())
                        .collect();
                    let launch = LaunchRecord {
                        kernel: product.kernel.name.clone(),
                        args,
                        ..launch.clone()
                    };
                    (product.kernel, launch)
                }
            }
        })
        .collect()
}

/// What the corpus exercised, so a vacuous pass is a failure.
#[derive(Debug, Default)]
struct Coverage {
    merged: usize,
    concat: usize,
    temporal: usize,
    retuned: usize,
    rejected: usize,
}

/// Tune `analysis` codelessly: the kernel and its note, or the error that
/// failed the group or kept its initial kernel.
fn tune_codelessly<A: Analysis>(
    analysis: Result<A, CodegenError>,
    initial: Dim3,
    device: &DeviceSpec,
    alloc_of: &dyn Fn(&str) -> Option<AllocInfo>,
) -> Result<(FusedKernel, TuneNote), CodegenError> {
    let (kernel, tuned) = tune_block(&analysis?, initial, device, alloc_of, None)?;
    Ok((kernel, tuned?))
}

/// Tune a group spatially both ways — codelessly and by regenerating —
/// and require one answer.
fn tune_spatial(
    refs: &[(&Kernel, &LaunchRecord)],
    mode: CodegenMode,
    device: &DeviceSpec,
    allocs: &[AllocInfo],
    what: &str,
) -> Result<(FusedKernel, TuneNote), CodegenError> {
    let initial = refs[0].1.block;
    let alloc_of = |name: &str| allocs.iter().find(|a| a.name == name).cloned();
    let analysis = || GroupAnalysis::new(refs, mode, "fused_0", device.smem_per_block_max);
    let tuned = tune_codelessly(analysis(), initial, device, &alloc_of);
    let oracle = regenerate_and_price(initial, device, allocs, |block| analysis()?.emit(block));
    assert_eq!(tuned, oracle, "{what} on {} ({mode:?})", device.name);
    tuned
}

/// Spatial tuning of `members` must match the oracle in both codegen modes.
fn check_spatial(
    members: &Members,
    plan: &ExecutablePlan,
    device: &DeviceSpec,
    seen: &mut Coverage,
    what: &str,
) {
    for mode in [CodegenMode::Auto, CodegenMode::Manual] {
        match tune_spatial(&borrow(members), mode, device, &plan.allocs, what) {
            Ok((fused, note)) => {
                if fused.report.merged {
                    seen.merged += 1;
                } else {
                    seen.concat += 1;
                }
                seen.retuned += usize::from(note.tuned);
            }
            Err(_) => seen.rejected += 1,
        }
    }
}

/// Temporal tuning of `members` at degree `fold` must match the oracle.
fn check_temporal(
    members: &Members,
    plan: &ExecutablePlan,
    fold: u32,
    device: &DeviceSpec,
    seen: &mut Coverage,
    what: &str,
) {
    let refs = borrow(members);
    let initial = members[0].1.block;
    let cap = device.smem_per_block_max;
    let alloc_of = |name: &str| declared(&plan.allocs, name);
    let analysis = || TemporalAnalysis::new(&refs, "fused_0", cap, fold, &plan.allocs);
    let tuned = tune_codelessly(analysis(), initial, device, &alloc_of);
    let oracle = regenerate_and_price(initial, device, &plan.allocs, |block| {
        analysis()?.emit(block)
    });
    assert_eq!(tuned, oracle, "{what} on {} (degree {fold})", device.name);
    match tuned {
        Ok((_, note)) => {
            seen.temporal += 1;
            seen.retuned += usize::from(note.tuned);
        }
        Err(_) => seen.rejected += 1,
    }
}

fn test_app(name: &str) -> (Program, ExecutablePlan) {
    let app = app_by_name(name, &AppConfig::test()).expect("registered app");
    let plan = ExecutablePlan::from_program(&app.program).expect("app plans");
    (app.program, plan)
}

#[test]
fn every_planned_group_tunes_as_the_regenerating_loop_did() {
    let mut seen = Coverage::default();
    for name in APP_NAMES {
        let (program, plan) = test_app(name);
        for device in DeviceRegistry::builtin().devices() {
            let mut config = PipelineConfig::quick(device.clone());
            config.functional_profile = false;
            config.verify = false;
            config.run_until = Some(Stage::Search);
            if name.ends_with("-ts") {
                config = config.with_max_temporal(4);
            }
            let result = Pipeline::new(program.clone(), config)
                .and_then(|p| p.run())
                .expect("search completes");
            let planned = result.planned().expect("the search lowered a plan");
            for (gi, group) in planned.groups.iter().enumerate() {
                if group.members.len() < 2 {
                    continue;
                }
                let members = resolve(&program, &plan, group);
                let what = format!("{name} group {gi}");
                check_spatial(&members, &plan, device, &mut seen, &what);
                if group.temporal > 1 {
                    check_temporal(&members, &plan, group.temporal, device, &mut seen, &what);
                }
            }
        }
    }
    assert!(seen.merged > 50 && seen.retuned > 20, "{seen:?}");
    assert!(seen.concat > 0 && seen.temporal > 0, "{seen:?}");
}

/// Breadth beyond what the search happens to pick: every window of two and
/// three adjacent launches, fusable or not (a rejection must be the same
/// rejection), and every whole time loop at degrees 2 and 4.
#[test]
fn adjacent_launch_windows_tune_as_the_regenerating_loop_did() {
    let mut seen = Coverage::default();
    let registry = DeviceRegistry::builtin();
    for name in APP_NAMES {
        let (program, plan) = test_app(name);
        let member = |seq: usize| {
            let launch = plan.launches[seq].clone();
            let kernel = program
                .kernel(&launch.kernel)
                .expect("launched kernel exists");
            (kernel.clone(), launch)
        };
        for device in ["k20x", "hawaii"].map(|d| registry.resolve(d).expect("built-in")) {
            for width in [2, 3] {
                for start in 0..plan.launches.len().saturating_sub(width - 1) {
                    let members: Members = (start..start + width).map(member).collect();
                    let what = format!("{name} launches {start}..{}", start + width);
                    check_spatial(&members, &plan, &device, &mut seen, &what);
                }
            }
            for (li, host_loop) in plan.loops.iter().enumerate() {
                let members: Members = host_loop.seqs.iter().copied().map(member).collect();
                for fold in [2, 4] {
                    let what = format!("{name} loop {li}");
                    check_temporal(&members, &plan, fold, &device, &mut seen, &what);
                }
            }
        }
    }
    assert!(seen.merged > 100 && seen.rejected > 100, "{seen:?}");
    assert!(
        seen.concat > 0 && seen.temporal > 0 && seen.retuned > 50,
        "{seen:?}"
    );
}

// ---------------------------------------------------------------------
// Generated groups: one per block-dependent rule, and the fidelity corpus
// ---------------------------------------------------------------------

/// A star stencil of radius `r` over `src`.
fn star(src: &str, r: i64) -> String {
    format!(
        "{src}[k][j][i - {r}] + {src}[k][j][i + {r}] + {src}[k][j - {r}][i] + {src}[k][j + {r}][i]"
    )
}

fn kernel_src(name: &str, params: &str, guard: &str, stmt: &str) -> String {
    format!(
        "__global__ void {name}({params}, int nx, int ny, int nz) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if ({guard}) {{
    for (int k = 0; k < nz; k++) {{
      {stmt}
    }}
  }}
}}
"
    )
}

fn interior(r: i64) -> String {
    format!("i >= {r} && i < nx - {r} && j >= {r} && j < ny - {r}")
}

/// Host section: allocate `arrays` on an `nx`×`ny`×4 domain and launch
/// `launches` under `block`, optionally inside a `steps`-trip time loop.
fn host_src(
    arrays: &[&str],
    launches: &[(&str, &str)],
    (nx, ny): (u32, u32),
    block: Dim3,
    steps: Option<u32>,
) -> String {
    let mut src = format!("void host() {{\n  int nx = {nx}; int ny = {ny}; int nz = 4;\n");
    for a in arrays {
        src += &format!("  double* {a} = cudaAlloc3D(nz, ny, nx);\n  cudaMemcpyH2D({a});\n");
    }
    if let Some(steps) = steps {
        src += &format!("  for (int t = 0; t < {steps}; t++) {{\n");
    }
    let (gx, gy) = (nx.div_ceil(block.x), ny.div_ceil(block.y));
    for (kernel, args) in launches {
        src += &format!(
            "  {kernel}<<<dim3({gx}, {gy}), dim3({}, {})>>>({args}, nx, ny, nz);\n",
            block.x, block.y
        );
    }
    if steps.is_some() {
        src += "  }\n";
    }
    src + "}\n"
}

/// A generated group: the program and its one multi-member group.
struct Generated {
    program: Program,
    plan: ExecutablePlan,
}

impl Generated {
    fn parse(src: &str) -> Generated {
        let program = parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let plan = ExecutablePlan::from_program(&program).expect("generated host plans");
        Generated { program, plan }
    }

    fn members(&self) -> Vec<(&Kernel, &LaunchRecord)> {
        self.plan
            .launches
            .iter()
            .map(|l| (self.program.kernel(&l.kernel).expect("launched kernel"), l))
            .collect()
    }
}

/// Complex merged fusion: `prod` (radius `r` over `u`) feeds `cons` (radius
/// `q` over `f`, plus `u`), so `u` is staged read-only and `f` as a flow
/// tile; `extra` appends a pointwise third member.
fn merged_group(r: i64, q: i64, extra: bool, domain: (u32, u32), block: Dim3) -> Generated {
    let mut src = kernel_src(
        "prod",
        "const double* __restrict__ u, double* f",
        &interior(r),
        &format!("f[k][j][i] = 0.25 * ({});", star("u", r)),
    );
    src += &kernel_src(
        "cons",
        "const double* __restrict__ f, const double* __restrict__ u, double* g",
        &interior(r + q),
        &format!("g[k][j][i] = {} + u[k][j][i];", star("f", q)),
    );
    let mut launches = vec![("prod", "u, f"), ("cons", "f, u, g")];
    if extra {
        src += &kernel_src(
            "scale",
            "const double* __restrict__ u, double* h",
            "i < nx && j < ny",
            "h[k][j][i] = 2.0 * u[k][j][i] + 1.0;",
        );
        launches.push(("scale", "u, h"));
    }
    src += &host_src(&["u", "f", "g", "h"], &launches, domain, block, None);
    Generated::parse(&src)
}

/// Concatenation: a radius-`r` blur next to a member that cannot merge — a
/// second sweep, or (`tiled`) a hand-tiled kernel with its own shared tile
/// and barrier, which an exact-fit launch leaves unguarded.
fn concat_group(r: i64, tiled: bool, domain: (u32, u32), block: Dim3) -> Generated {
    let mut src = kernel_src(
        "blur",
        "const double* __restrict__ u, double* v",
        &interior(r),
        &format!("v[k][j][i] = 0.25 * ({});", star("u", r)),
    );
    src += if tiled {
        "__global__ void other(const double* __restrict__ u, double* w, int nx, int ny, int nz) {
  __shared__ double s[8][16];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  for (int k = 0; k < nz; k++) {
    s[threadIdx.y][threadIdx.x] = u[k][j][i];
    __syncthreads();
    w[k][j][i] = s[threadIdx.y][threadIdx.x] * 2.0;
  }
}
"
    } else {
        "__global__ void other(const double* __restrict__ u, double* w, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { w[k][j][i] = u[k][j][i]; }
    for (int k = 0; k < nz; k++) { w[k][j][i] = w[k][j][i] + 1.0; }
  }
}
"
    };
    let launches = [("blur", "u, v"), ("other", "u, w")];
    src += &host_src(&["u", "v", "w"], &launches, domain, block, None);
    Generated::parse(&src)
}

/// A ping-pong time loop: `blur` (radius `r`) then a pointwise `relax`.
fn temporal_group(r: i64, domain: (u32, u32), block: Dim3) -> Generated {
    let mut src = kernel_src(
        "blur",
        "const double* __restrict__ a, double* b",
        &interior(r),
        &format!("b[k][j][i] = 0.25 * ({});", star("a", r)),
    );
    src += &kernel_src(
        "relax",
        "const double* __restrict__ b, double* a",
        "i < nx && j < ny",
        "a[k][j][i] = 0.5 * b[k][j][i] + 1.0;",
    );
    let launches = [("blur", "a, b"), ("relax", "b, a")];
    src += &host_src(&["a", "b"], &launches, domain, block, Some(8));
    Generated::parse(&src)
}

/// A candidate the rule rejects must be priced out, `emit` must refuse it
/// with the same reason, and the tuner must still agree with the oracle.
#[test]
fn each_block_dependent_rule_prices_candidates_out() {
    let device = DeviceSpec::k20x();
    let cap = device.smem_per_block_max;
    let (domain, initial) = ((64, 32), Dim3::new(16, 8, 1));
    let spatial_agrees = |g: &Generated, device: &DeviceSpec| {
        tune_spatial(
            &g.members(),
            CodegenMode::Auto,
            device,
            &g.plan.allocs,
            "generated group",
        )
        .expect("the initial block is legal")
    };

    // Halo wider than half the block: radius 3 needs at least 6 rows.
    let g = merged_group(3, 1, false, domain, Dim3::new(8, 8, 1));
    let analysis = GroupAnalysis::new(&g.members(), CodegenMode::Auto, "fused_0", cap).unwrap();
    let thin = Dim3::new(128, 4, 1);
    let err = analysis.smem_bytes(thin).unwrap_err();
    assert!(
        err.0
            .contains("halo radius of `u` too large for block 128x4"),
        "{err}"
    );
    assert_eq!(analysis.emit(thin).unwrap_err(), err);
    let (_, note) = spatial_agrees(&g, &device);
    assert!(note.tuned && note.block_after.y >= 6, "{note:?}");

    // Footprint over the device cap: two 4 KiB-class tiles on a 4 KiB device.
    let small = DeviceSpec {
        smem_per_block_max: 4096,
        ..DeviceSpec::k20x()
    };
    let g = merged_group(1, 1, false, domain, initial);
    let analysis = GroupAnalysis::new(&g.members(), CodegenMode::Auto, "fused_0", 4096).unwrap();
    let wide = Dim3::new(32, 8, 1);
    let err = analysis.smem_bytes(wide).unwrap_err();
    assert!(
        err.0.contains("B shared memory, device limit 4096 B"),
        "{err}"
    );
    assert_eq!(analysis.emit(wide).unwrap_err(), err);
    let (_, note) = spatial_agrees(&g, &small);
    assert!(
        analysis.smem_bytes(note.block_after).unwrap() <= 4096,
        "{note:?}"
    );

    // The same rules on the temporal generator: degree 4 of a radius-1
    // chain accumulates a 4-cell halo.
    let g = temporal_group(1, domain, initial);
    let analysis = TemporalAnalysis::new(&g.members(), "fused_0", cap, 4, &g.plan.allocs).unwrap();
    let err = analysis.smem_bytes(Dim3::new(128, 4, 1)).unwrap_err();
    assert!(
        err.0.contains("accumulated temporal halo 4x4 too large"),
        "{err}"
    );
    let analysis = TemporalAnalysis::new(&g.members(), "fused_0", 4096, 4, &g.plan.allocs).unwrap();
    let err = analysis.smem_bytes(Dim3::new(32, 8, 1)).unwrap_err();
    assert!(
        err.0.contains("B shared memory, device limit 4096 B"),
        "{err}"
    );
    assert_eq!(analysis.emit(Dim3::new(32, 8, 1)).unwrap_err(), err);

    // A member with barriers under a padded coverage: the 16x8 domain fits
    // 16x8 and 8x4 blocks exactly, but a 32-wide block overshoots it.
    let g = concat_group(1, true, (16, 8), Dim3::new(8, 4, 1));
    let analysis = GroupAnalysis::new(&g.members(), CodegenMode::Auto, "fused_0", cap).unwrap();
    assert_eq!(analysis.smem_bytes(Dim3::new(16, 8, 1)), Ok(8 * 16 * 8));
    let err = analysis.smem_bytes(Dim3::new(32, 8, 1)).unwrap_err();
    assert!(
        err.0
            .contains("member `other` contains barriers but needs a bounds guard"),
        "{err}"
    );
    assert_eq!(analysis.emit(Dim3::new(32, 8, 1)).unwrap_err(), err);
    let (fused, note) = spatial_agrees(&g, &device);
    assert!(!fused.report.merged && note.tuned, "{note:?}");
    assert!(
        16 % note.block_after.x == 0 && 8 % note.block_after.y == 0,
        "{note:?}"
    );
}

/// For the initial block and every candidate: a shape `smem_bytes` rejects
/// is one `emit` rejects for the same reason, and a shape it prices is one
/// whose emitted kernel measures exactly the price — the base kernel's
/// registers, the predicted shared bytes, hence the same occupancy, and the
/// modelled µs the base kernel's pricer quotes for the shape's grid, which
/// the profiler charges the kernel emitted at that shape.
fn assert_prices_match(
    device: &DeviceSpec,
    initial: Dim3,
    allocs: &[AllocInfo],
    smem_bytes: impl Fn(Dim3) -> Result<usize, CodegenError>,
    grid_of: impl Fn(Dim3) -> Dim3,
    emit: impl Fn(Dim3) -> Result<FusedKernel, CodegenError>,
) {
    let measure = |kernel: &Kernel| {
        let ka = KernelAccess::analyze(kernel).expect("generated kernels analyze");
        (
            estimate_regs_per_thread(kernel, &ka),
            ka.smem_bytes_per_block(),
        )
    };
    let Ok(base) = emit(initial) else {
        return;
    };
    let (regs, _) = measure(&base.kernel);
    let model = TimingModel::new(device.clone());
    let ka = KernelAccess::analyze(&base.kernel).expect("generated kernels analyze");
    let alloc_of = |name: &str| declared(allocs, name);
    let pricer = LaunchPricer::bind(&model, &base.kernel, &ka, &base.args, &alloc_of)
        .expect("the base launch binds");
    let mut legal = 0;
    for block in std::iter::once(initial).chain(candidate_blocks(device)) {
        let emitted = emit(block);
        match smem_bytes(block) {
            Err(reason) => assert_eq!(emitted.err(), Some(reason), "block {block:?}"),
            Ok(smem) => {
                let fused = emitted.unwrap_or_else(|e| panic!("priced block {block:?}: {e}"));
                let kernel = &fused.kernel;
                assert_eq!(measure(kernel), (regs, smem), "block {block:?}");
                let predicted = occupancy(device, block.count() as u32, regs, smem)
                    .map_or(0.0, |o| o.occupancy);
                assert_eq!(kernel_occupancy(kernel, block, device), Ok(predicted));
                assert_eq!(grid_of(block), fused.grid, "block {block:?}");
                let priced = pricer
                    .cost(grid_of(block), block, smem)
                    .map(|c| c.total_us());
                let charged = profiler_us(&fused, block, allocs, device);
                assert_eq!(priced, charged, "block {block:?}");
                legal += 1;
            }
        }
    }
    assert!(legal > 1, "only the initial block was legal");
}

fn registry_device() -> impl Strategy<Value = DeviceSpec> {
    let n = DeviceRegistry::builtin().devices().len();
    (0..n).prop_map(|i| DeviceRegistry::builtin().devices()[i].clone())
}

fn domain_and_block() -> impl Strategy<Value = ((u32, u32), Dim3)> {
    (0usize..3, 0usize..2, 0usize..5).prop_map(|(x, y, b)| {
        let (bx, by) = [(16, 8), (32, 4), (8, 8), (32, 8), (64, 2)][b];
        (([32, 64, 96][x], [16, 32][y]), Dim3::new(bx, by, 1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merged_prices_match_the_emitted_kernels(
        device in registry_device(),
        (domain, block) in domain_and_block(),
        r in 1i64..=3,
        q in 1i64..=2,
        extra in 0u8..2,
        manual in 0u8..2,
    ) {
        let g = merged_group(r, q, extra == 1, domain, block);
        let mode = if manual == 1 { CodegenMode::Manual } else { CodegenMode::Auto };
        let analysis =
            GroupAnalysis::new(&g.members(), mode, "fused_0", device.smem_per_block_max).unwrap();
        assert_prices_match(
            &device,
            block,
            &g.plan.allocs,
            |b| analysis.smem_bytes(b),
            |b| analysis.grid(b),
            |b| analysis.emit(b),
        );
    }

    #[test]
    fn concat_prices_match_the_emitted_kernels(
        device in registry_device(),
        (domain, block) in domain_and_block(),
        r in 1i64..=3,
        tiled in 0u8..2,
    ) {
        // The hand-tiled member only exists at its exact-fit launch.
        let g = if tiled == 1 {
            concat_group(r, true, (16, 8), Dim3::new(8, 4, 1))
        } else {
            concat_group(r, false, domain, block)
        };
        let initial = g.plan.launches[0].block;
        let analysis = GroupAnalysis::new(
            &g.members(),
            CodegenMode::Auto,
            "fused_0",
            device.smem_per_block_max,
        )
        .unwrap();
        assert_prices_match(
            &device,
            initial,
            &g.plan.allocs,
            |b| analysis.smem_bytes(b),
            |b| analysis.grid(b),
            |b| analysis.emit(b),
        );
    }

    #[test]
    fn temporal_prices_match_the_emitted_kernels(
        device in registry_device(),
        (domain, block) in domain_and_block(),
        r in 1i64..=2,
        fold in prop_oneof![Just(2u32), Just(4u32)],
    ) {
        let g = temporal_group(r, domain, block);
        let analysis = TemporalAnalysis::new(
            &g.members(),
            "fused_0",
            device.smem_per_block_max,
            fold,
            &g.plan.allocs,
        )
        .unwrap();
        assert_prices_match(
            &device,
            block,
            &g.plan.allocs,
            |b| analysis.smem_bytes(b),
            |b| analysis.grid(b),
            |b| analysis.emit(b),
        );
    }
}
