//! The traffic binding: [`BoundTraffic::bind`] evaluates a launch's
//! shape-independent half once, and [`BoundTraffic::at`] prices any
//! `(grid, block)`. Both must agree with the per-block traffic model they
//! replaced — kept here as the reference, verbatim but for its name and
//! the argument slice `bind_launch` now takes —
//! for every launch of every application analog, of the fused kernels of
//! their adjacent launch pairs and of the fuzzer's generated programs, at
//! the launch's own shape and at every candidate block shape of the tuner.

use proptest::prelude::*;
use sf_analysis::access::{
    bind_launch, AccessError, ArrayAccess, Bnd, BoundTraffic, IdxBase, KernelAccess, Traffic,
};
use sf_apps::{app_by_name, AppConfig, APP_NAMES};
use sf_codegen::{CodegenMode, GroupAnalysis};
use sf_gpusim::occupancy::candidate_blocks;
use sf_gpusim::registry::DeviceRegistry;
use sf_minicuda::ast::{Kernel, Program};
use sf_minicuda::host::{AllocInfo, Dim3, ExecutablePlan, LaunchRecord};
use std::collections::HashMap;

/// The per-block traffic model before the binding split.
fn reference_traffic(
    ka: &KernelAccess,
    kernel: &Kernel,
    launch: &LaunchRecord,
    alloc_of: &dyn Fn(&str) -> Option<AllocInfo>,
) -> Result<Traffic, AccessError> {
    let (scalars, array_map) = bind_launch(kernel, &launch.args)?;
    let mut t = Traffic::default();

    let bx = launch.block.x as i64;
    let by = launch.block.y as i64;

    let z_blocks = launch.grid.z as u64;

    for sweep in &ka.sweeps {
        // Guard bounds in effect for this sweep.
        let gx_lo = eval_opt(&sweep.guard.x_lo, &scalars, 0)?;
        let gx_hi = eval_opt(&sweep.guard.x_hi, &scalars, i64::MAX)?;
        let gy_lo = eval_opt(&sweep.guard.y_lo, &scalars, 0)?;
        let gy_hi = eval_opt(&sweep.guard.y_hi, &scalars, i64::MAX)?;

        let (k_lo, k_hi) = match &sweep.k_range {
            Some((lo, hi)) => (lo.eval(&scalars)?, hi.eval(&scalars)?),
            None => (0, 1),
        };
        let k_extent = (k_hi - k_lo).max(0);

        // Group accesses per (array, is_write). Each access contributes its
        // own per-axis absolute range (its region guard applied), and the
        // group footprint is the bounding box of the union per block.
        let mut groups: HashMap<(String, bool), Vec<&ArrayAccess>> = HashMap::new();
        for a in &sweep.accesses {
            groups
                .entry((a.array.clone(), a.is_write))
                .or_default()
                .push(a);
        }

        // Iteration sites for this sweep (whole launch).
        let launch_x = bx * launch.grid.x as i64;
        let launch_y = by * launch.grid.y as i64;
        let site_x = range_len(clip((0, launch_x), (gx_lo, gx_hi)));
        let site_y = range_len(clip((0, launch_y), (gy_lo, gy_hi)));
        t.sites += (site_x * site_y) as u64 * k_extent as u64 * z_blocks;
        t.flops +=
            sweep.flops_per_site * (site_x * site_y) as u64 * k_extent.max(1) as u64 * z_blocks;

        for ((param_array, is_write), accs) in groups {
            let Some(actual) = array_map.get(&param_array) else {
                continue;
            };
            let Some(alloc) = alloc_of(actual) else {
                return Err(AccessError(format!("unknown allocation `{actual}`")));
            };
            let rank = alloc.extents.len();
            let conservative = accs.iter().any(|a| a.pats.len() != rank);

            // Evaluate each access's region bounds once.
            struct EvalRegion {
                x: (i64, i64),
                y: (i64, i64),
                k: (i64, i64),
            }
            let mut regions = Vec::with_capacity(accs.len());
            for a in &accs {
                regions.push(EvalRegion {
                    x: (
                        eval_opt(&a.region.x_lo, &scalars, i64::MIN / 4)?,
                        eval_opt(&a.region.x_hi, &scalars, i64::MAX / 4)?,
                    ),
                    y: (
                        eval_opt(&a.region.y_lo, &scalars, i64::MIN / 4)?,
                        eval_opt(&a.region.y_hi, &scalars, i64::MAX / 4)?,
                    ),
                    k: (
                        eval_opt(&a.region.k_lo, &scalars, i64::MIN / 4)?,
                        eval_opt(&a.region.k_hi, &scalars, i64::MAX / 4)?,
                    ),
                });
            }

            let mut bytes_per_block_sum: u64 = 0;
            if conservative {
                bytes_per_block_sum = (alloc.len() * alloc.elem.size_bytes()) as u64;
            } else {
                // Sum footprints over all (x, y) blocks.
                for gx in 0..launch.grid.x as i64 {
                    for gy in 0..launch.grid.y as i64 {
                        // Per-axis envelope: (base tag, lo, hi) with base
                        // mismatches widening to the whole axis.
                        let mut envelope: Vec<Option<(IdxBase, i64, i64)>> = vec![None; rank];
                        for (a, reg) in accs.iter().zip(&regions) {
                            let mut ranges: Vec<(i64, i64)> = Vec::with_capacity(rank);
                            let mut empty = false;
                            for (ax, pat) in a.pats.iter().enumerate() {
                                let extent = alloc.extents[ax] as i64;
                                let r = match &pat.base {
                                    IdxBase::X => {
                                        let r = clip(
                                            clip((gx * bx, (gx + 1) * bx), (gx_lo, gx_hi)),
                                            reg.x,
                                        );
                                        (r.0 + pat.off, r.1 + pat.off)
                                    }
                                    IdxBase::Y => {
                                        let r = clip(
                                            clip((gy * by, (gy + 1) * by), (gy_lo, gy_hi)),
                                            reg.y,
                                        );
                                        (r.0 + pat.off, r.1 + pat.off)
                                    }
                                    IdxBase::Vert => {
                                        let r = clip((k_lo, k_hi), reg.k);
                                        (r.0 + pat.off, r.1 + pat.off)
                                    }
                                    IdxBase::Inner(v) => {
                                        match sweep.inner_loops.iter().find(|l| &l.var == v) {
                                            Some(l) => (
                                                l.lo.eval(&scalars)? + pat.off,
                                                l.hi.eval(&scalars)? + pat.off,
                                            ),
                                            None => (0, extent),
                                        }
                                    }
                                    IdxBase::TidX => (pat.off, bx + pat.off),
                                    IdxBase::TidY => (pat.off, by + pat.off),
                                    IdxBase::Const => (pat.off, pat.off + 1),
                                    IdxBase::Unknown => (0, extent),
                                };
                                let r = clip(r, (0, extent));
                                if range_len(r) == 0 {
                                    empty = true;
                                    break;
                                }
                                ranges.push(r);
                            }
                            if empty {
                                continue;
                            }
                            for (ax, r) in ranges.into_iter().enumerate() {
                                let extent = alloc.extents[ax] as i64;
                                match &mut envelope[ax] {
                                    slot @ None => {
                                        *slot = Some((a.pats[ax].base.clone(), r.0, r.1));
                                    }
                                    Some((base, lo, hi)) => {
                                        if *base != a.pats[ax].base {
                                            *base = IdxBase::Unknown;
                                            *lo = 0;
                                            *hi = extent;
                                        } else {
                                            *lo = (*lo).min(r.0);
                                            *hi = (*hi).max(r.1);
                                        }
                                    }
                                }
                            }
                        }
                        let mut elems: i64 = 1;
                        for slot in &envelope {
                            let len = match slot {
                                None => 0,
                                Some((_, lo, hi)) => (hi - lo).max(0),
                            };
                            elems *= len;
                            if elems == 0 {
                                break;
                            }
                        }
                        bytes_per_block_sum +=
                            (elems.max(0) as u64) * alloc.elem.size_bytes() as u64;
                    }
                }
                bytes_per_block_sum *= z_blocks;
            }

            let entry = t.per_array.entry(actual.clone()).or_insert((0, 0));
            if is_write {
                entry.1 += bytes_per_block_sum;
                t.write_bytes += bytes_per_block_sum;
            } else {
                entry.0 += bytes_per_block_sum;
                t.read_bytes += bytes_per_block_sum;
            }
        }
    }
    Ok(t)
}

fn eval_opt(
    b: &Option<Bnd>,
    scalars: &HashMap<String, i64>,
    default: i64,
) -> Result<i64, AccessError> {
    match b {
        Some(b) => b.eval(scalars),
        None => Ok(default),
    }
}

fn clip(r: (i64, i64), bounds: (i64, i64)) -> (i64, i64) {
    (r.0.max(bounds.0), r.1.min(bounds.1))
}

fn range_len(r: (i64, i64)) -> i64 {
    (r.1 - r.0).max(0)
}

/// The launch at its own shape and at every candidate block of every
/// registry device, each with the grid that covers the launch's threads.
fn shapes(launch: &LaunchRecord) -> Vec<(Dim3, Dim3)> {
    let (nx, ny) = (
        launch.grid.x * launch.block.x,
        launch.grid.y * launch.block.y,
    );
    let mut out = vec![(launch.grid, launch.block)];
    for device in DeviceRegistry::builtin().devices() {
        for block in candidate_blocks(device) {
            let grid = Dim3::new(nx.div_ceil(block.x), ny.div_ceil(block.y), launch.grid.z);
            if !out.contains(&(grid, block)) {
                out.push((grid, block));
            }
        }
    }
    out
}

/// Bind once, then price every shape; each must equal the reference run on
/// a launch record of that shape. Returns how many shapes were compared.
fn check_launch(
    kernel: &Kernel,
    launch: &LaunchRecord,
    alloc_of: &dyn Fn(&str) -> Option<AllocInfo>,
) -> usize {
    let Ok(ka) = KernelAccess::analyze(kernel) else {
        return 0;
    };
    let bound = BoundTraffic::bind(&ka, kernel, &launch.args, alloc_of);
    let mut compared = 0;
    for (grid, block) in shapes(launch) {
        let reshaped = LaunchRecord {
            grid,
            block,
            ..launch.clone()
        };
        let reference = reference_traffic(&ka, kernel, &reshaped, alloc_of);
        let (bound, reference) = match (&bound, reference) {
            (Ok(bound), Ok(reference)) => (bound, reference),
            (Err(a), Err(b)) => {
                assert_eq!(a, &b, "`{}`: both refuse, for one reason", kernel.name);
                return compared;
            }
            (bound, reference) => panic!(
                "`{}` at {grid}x{block}: bound {:?}, reference {:?}",
                kernel.name,
                bound.as_ref().err(),
                reference.err()
            ),
        };
        let traffic = bound.traffic(grid, block);
        assert_eq!(traffic, reference, "`{}` at {grid} x {block}", kernel.name);
        let totals = bound.at(grid, block);
        assert_eq!(
            (
                totals.read_bytes,
                totals.write_bytes,
                totals.flops,
                totals.sites
            ),
            (
                reference.read_bytes,
                reference.write_bytes,
                reference.flops,
                reference.sites
            ),
            "`{}` at {grid} x {block}",
            kernel.name
        );
        compared += 1;
    }
    compared
}

/// Every launch of `program`.
fn check_program(program: &Program) -> usize {
    let Ok(plan) = ExecutablePlan::from_program(program) else {
        return 0;
    };
    let alloc_of = |n: &str| plan.alloc(n).cloned();
    plan.launches
        .iter()
        .filter_map(|l| Some((program.kernel(&l.kernel)?, l)))
        .map(|(k, l)| check_launch(k, l, &alloc_of))
        .sum()
}

#[test]
fn binding_agrees_with_the_per_block_model_on_the_analogs_and_their_fusions() {
    let mut compared = 0;
    let mut fused = 0;
    for name in APP_NAMES {
        let app = app_by_name(name, &AppConfig::test()).expect("registered app");
        compared += check_program(&app.program);
        let plan = ExecutablePlan::from_program(&app.program).expect("app plans");
        let alloc_of = |n: &str| plan.alloc(n).cloned();
        for pair in plan.launches.windows(2) {
            let members: Vec<(&Kernel, &LaunchRecord)> = pair
                .iter()
                .filter_map(|l| Some((app.program.kernel(&l.kernel)?, l)))
                .collect();
            let analysis = GroupAnalysis::new(&members, CodegenMode::Auto, "fused", 48 * 1024);
            let Ok(f) = analysis.and_then(|a| a.emit(pair[0].block)) else {
                continue;
            };
            let launch = LaunchRecord {
                seq: 0,
                kernel: f.kernel.name.clone(),
                grid: f.grid,
                block: f.block,
                args: f.args.clone(),
                repeat: 1,
            };
            compared += check_launch(&f.kernel, &launch, &alloc_of);
            fused += 1;
        }
    }
    assert!(
        compared > 1000 && fused > 10,
        "{compared} shapes, {fused} fused kernels"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn binding_agrees_with_the_per_block_model_on_generated_programs(seed in 0u64..4096) {
        let g = sf_fuzz::generate(seed, &sf_fuzz::GenConfig::default());
        check_program(&g.program);
    }
}
