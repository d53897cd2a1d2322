//! The codeless performance-projection objective and the dynamic penalty
//! function (§4.1).
//!
//! The objective consumes only metadata (per-array DRAM bytes, flops,
//! register/shared-memory estimates) plus the device model, and returns the
//! projected GFLOPS of a candidate grouping — matching the paper's
//! black-box contract ("receives individual solutions as an input and
//! returns the float value of a projected performance bound in GFLOPS").
//!
//! The penalty follows §4.1: shared-memory violations by groups that
//! contain a *fissionable* kernel are penalized lightly (`C_SM` relaxation:
//! fission can free the capacity), while violations with no fission escape
//! are penalized hard.

use crate::genome::{Groups, Individual};
use crate::projection::{Pricer, ProjectionEngine};
use crate::space::SearchSpace;
use sf_gpusim::timing::{LaunchProfile, TimingModel};

/// Relative penalty multipliers for constraint violations.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct Penalty {
    /// Per shared-memory violation with a fission escape (C_SM relaxation).
    pub soft: f64,
    /// Per violation without one.
    pub hard: f64,
    /// Confidence-aware widening: how strongly a multi-member group is
    /// discounted per unit of measurement dispersion among its members. A
    /// fusion justified by noisy numbers may be justified by jitter alone,
    /// so the search hedges toward groupings backed by stable measurements.
    /// 0 disables the widening. The default is a hedge, not a veto: under
    /// the standard noise model (~10% runtime jitter) it discounts a fused
    /// group by a few percent — enough to break ties toward stable
    /// evidence, not enough to reject a clearly profitable fusion.
    pub noise_aversion: f64,
}

impl Default for Penalty {
    fn default() -> Self {
        Penalty {
            soft: 0.85,
            hard: 0.40,
            noise_aversion: 0.35,
        }
    }
}

/// Fraction of an array's read traffic that survives as halo overhead when
/// the read is served from a shared-memory tile filled by an earlier fused
/// segment.
pub const FLOW_HALO_FRACTION: f64 = 0.15;

/// The projected cost of one group.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct GroupCost {
    pub time_us: f64,
    pub flops: u64,
    pub smem_bytes: usize,
    /// Shared memory demand exceeds the device capacity.
    pub smem_violation: bool,
    /// A member of the violating group can be fissioned.
    pub fission_escape: bool,
    /// Worst relative measurement dispersion among the members — a pure
    /// function of the member set, so it is safe to cache with the cost.
    pub max_dispersion: f64,
}

/// Project the cost of executing `members` as one fused kernel at temporal
/// degree `fold`.
///
/// At `fold == 1` this is the plain spatial projection. At higher degrees
/// the group is costed as one temporally folded launch covering `fold`
/// host loop iterations — staged reads are paid once (inflated by the
/// grown halo), writes land once, flops multiply by the degree and the
/// redundant-recompute ratio — and the resulting time is amortized back to
/// *per loop iteration*, so it compares directly against the spatial cost
/// under the same host repeat weight. A degree whose accumulated halo no
/// longer fits the block projects to infinite time (never selected).
pub fn group_cost(
    space: &SearchSpace,
    members: &[usize],
    model: &TimingModel,
    fold: u32,
) -> GroupCost {
    use std::collections::BTreeMap;
    let units: Vec<&crate::space::Unit> = members.iter().map(|&m| &space.units[m]).collect();

    // Per-array maxima across members.
    let mut reads: BTreeMap<&str, u64> = BTreeMap::new();
    let mut writes: BTreeMap<&str, u64> = BTreeMap::new();
    let mut read_count: BTreeMap<&str, usize> = BTreeMap::new();
    let mut written_in_group: BTreeMap<&str, usize> = BTreeMap::new();
    for (pos, u) in units.iter().enumerate() {
        for (a, (r, w)) in &u.ops.bytes_per_array {
            if *r > 0 {
                let e = reads.entry(a).or_insert(0);
                *e = (*e).max(*r);
                *read_count.entry(a).or_insert(0) += 1;
            }
            if *w > 0 {
                let e = writes.entry(a).or_insert(0);
                *e = (*e).max(*w);
                written_in_group.entry(a).or_insert(pos);
            }
        }
    }

    let mut read_dram: u64 = 0;
    let mut write_dram: u64 = 0;
    let mut smem_bytes: usize = 0;
    let bx = units
        .first()
        .map(|u| {
            // The canonical 2-D block: x stays 32-ish in the supported
            // class; derive from threads (approximate shape 32 × t/32).
            let t = u.threads_per_block.max(32);
            (32i64, (t / 32) as i64)
        })
        .unwrap_or((32, 8));
    for (a, &r) in &reads {
        let flow = written_in_group.contains_key(a);
        let shared_read = read_count[a] >= 2 || flow;
        if flow {
            read_dram += (r as f64 * FLOW_HALO_FRACTION) as u64;
        } else {
            read_dram += r;
        }
        // Tile estimate for staged arrays (3-D shapes only).
        if shared_read && units.len() > 1 {
            let radius = units
                .iter()
                .flat_map(|u| &u.ops.shapes)
                .filter(|s| s.array == *a && s.rank == 3)
                .map(|s| (s.radius[1], s.radius[2]))
                .fold((0i64, 0i64), |acc, (ry, rx)| (acc.0.max(ry), acc.1.max(rx)));
            let (ry, rx) = radius;
            smem_bytes += ((bx.1 + 2 * ry) * (bx.0 + 2 * rx) * 8) as usize;
        }
    }
    for &w in writes.values() {
        write_dram += w;
    }
    let dram_bytes = read_dram + write_dram;

    let flops: u64 = units.iter().map(|u| u.perf.flops).sum();
    let divergent: u64 = units.iter().map(|u| u.perf.divergent_evals).sum();
    let depth: u64 = units
        .iter()
        .map(|u| u.ops.loop_sizes.iter().sum::<i64>().max(0) as u64)
        .max()
        .unwrap_or(1);
    let regs: u32 = (16 + units
        .iter()
        .map(|u| u.perf.regs_per_thread.saturating_sub(16))
        .sum::<u32>())
    .min(255);
    let blocks = units.iter().map(|u| u.blocks).max().unwrap_or(1);
    let threads = units
        .iter()
        .map(|u| u.threads_per_block)
        .max()
        .unwrap_or(128);

    let mut smem_violation = smem_bytes > space.smem_limit;
    let fission_escape = units.iter().any(|u| {
        let original = u.parent.map_or(u.id, |p| p);
        space.units[original].fissionable() && u.mref.fission_component.is_none()
    });

    // For timing, clamp shared memory into the launchable range; the
    // violation is handled by the penalty, not by an unlaunchable config.
    let clamped_smem = smem_bytes.min(space.smem_limit);
    let profile = LaunchProfile {
        dram_bytes,
        flops,
        blocks,
        threads_per_block: threads,
        regs_per_thread: regs,
        smem_per_block: clamped_smem,
        divergent_evals: divergent,
        depth,
    };
    let mut time_us = model
        .launch_cost(&profile)
        .map(|c| c.total_us())
        .unwrap_or(f64::INFINITY);

    if fold > 1 {
        // Execution order of the folded steps: member unit ids ascend with
        // host sequence order (temporal groups never contain fission
        // products, see `SearchSpace::temporal_group`).
        let mut ordered = units.clone();
        ordered.sort_by_key(|u| u.id);
        let radii: Vec<(i64, i64)> = ordered
            .iter()
            .map(|u| {
                u.ops
                    .shapes
                    .iter()
                    .filter(|s| s.rank == 3 && s.read)
                    .map(|s| (s.radius[1], s.radius[2]))
                    .fold((0i64, 0i64), |acc, (ry, rx)| (acc.0.max(ry), acc.1.max(rx)))
            })
            .collect();
        let (sum_ry, sum_rx) = radii.iter().fold((0i64, 0i64), |a, r| (a.0 + r.0, a.1 + r.1));
        let (dy, dx) = (i64::from(fold) * sum_ry, i64::from(fold) * sum_rx);
        if 2 * dx >= bx.0 || 2 * dy >= bx.1 {
            // The accumulated halo no longer fits the block: the code
            // generator rejects this geometry, so the degree must never
            // win the argmin.
            time_us = f64::INFINITY;
        } else {
            let base_area = (bx.0 * bx.1) as f64;
            let halo_area = ((bx.0 + 2 * dx) * (bx.1 + 2 * dy)) as f64;
            // Step `s` computes the region every later step still needs:
            // the region widths are suffix sums of the per-step radii.
            let steps = fold as usize * radii.len();
            let mut recompute_sum = 0.0;
            let (mut wy, mut wx) = (0i64, 0i64);
            for s in (0..steps).rev() {
                recompute_sum += ((bx.0 + 2 * wx) * (bx.1 + 2 * wy)) as f64;
                let (ry, rx) = radii[s % radii.len()];
                wy += ry;
                wx += rx;
            }
            // Only the arrays written inside the group are staged through
            // shared tiles sized to the full accumulated halo.
            let t_smem = writes.len() * (((bx.0 + 2 * dx) * (bx.1 + 2 * dy)) as usize) * 8;
            smem_bytes = t_smem;
            smem_violation = t_smem > space.smem_limit;
            if smem_violation {
                // Unlike spatial staging (a soft penalty the code generator
                // can still launch), an over-limit temporal tile is a hard
                // structural reject in codegen — the degree must never win
                // the argmin.
                time_us = f64::INFINITY;
            } else {
                let tf = sf_gpusim::timing::TemporalFold {
                    fold,
                    halo_read_ratio: halo_area / base_area,
                    recompute_ratio: recompute_sum / (steps as f64 * base_area),
                    smem_per_block: t_smem,
                };
                let folded = profile.folded(read_dram, write_dram, &tf);
                // One folded launch covers `fold` host iterations: amortize
                // so the cost compares per-iteration against the spatial
                // rung.
                time_us = model
                    .launch_cost(&folded)
                    .map(|c| c.total_us() / f64::from(fold))
                    .unwrap_or(f64::INFINITY);
            }
        }
    }

    let max_dispersion = units
        .iter()
        .map(|u| u.perf.measure.dispersion)
        .fold(0.0, f64::max);

    GroupCost {
        time_us,
        flops,
        smem_bytes,
        smem_violation,
        fission_escape,
        max_dispersion,
    }
}

/// The arrays the projection expects the code generator to stage in shared
/// memory for this group, mirroring the staging rule in [`group_cost`]: an
/// input read by at least two members, or one consumed from a value
/// produced inside the group. Singleton groups stage nothing.
pub fn staged_arrays(space: &SearchSpace, members: &[usize]) -> Vec<String> {
    use std::collections::{BTreeMap, BTreeSet};
    if members.len() < 2 {
        return Vec::new();
    }
    let mut read_count: BTreeMap<&str, usize> = BTreeMap::new();
    let mut written: BTreeSet<&str> = BTreeSet::new();
    for &m in members {
        for (a, (r, w)) in &space.units[m].ops.bytes_per_array {
            if *r > 0 {
                *read_count.entry(a).or_insert(0) += 1;
            }
            if *w > 0 {
                written.insert(a);
            }
        }
    }
    read_count
        .iter()
        .filter(|(a, &c)| c >= 2 || written.contains(*a))
        .map(|(a, _)| (*a).to_string())
        .collect()
}

/// Host repeat weight of a group: its most-repeated member's.
fn repeat_of(space: &SearchSpace, members: &[usize]) -> f64 {
    let repeats = members.iter().map(|&m| space.units[m].repeat);
    repeats.max().unwrap_or(1) as f64
}

/// The penalized fitness of a grouping: projected GFLOPS of the whole
/// program under these `groups` (an individual's, see [`Groups`]), scaled
/// down per constraint violation. Groups are priced in ascending group id,
/// members ascending (the sums below are `f64`: their order is part of the
/// result), through the island's `pricer`.
pub fn fitness_with(pricer: &mut Pricer<'_>, groups: &Groups, penalty: &Penalty) -> f64 {
    let space = pricer.space();
    let mut total_flops = 0.0f64;
    let mut total_time = 0.0f64;
    let mut scale = 1.0f64;
    for k in 0..groups.len() {
        let members = groups.members(k);
        let repeat = repeat_of(space, members);
        let cost = pricer.group_cost(members);
        total_flops += cost.flops as f64 * repeat;
        total_time += cost.time_us * repeat;
        if cost.smem_violation {
            scale *= if cost.fission_escape {
                penalty.soft
            } else {
                penalty.hard
            };
        }
        // Confidence-aware widening: only fusions (≥ 2 members) pay it —
        // leaving a noisy kernel alone is the safe default, committing to a
        // grouping on its numbers is not. Floored so even very noisy groups
        // keep a nonzero fitness and can be compared.
        if members.len() >= 2 && cost.max_dispersion > 0.0 {
            scale *= (1.0 - penalty.noise_aversion * cost.max_dispersion).clamp(0.25, 1.0);
        }
    }
    if !total_time.is_finite() || total_time <= 0.0 {
        return 0.0;
    }
    // GFLOPS = flops / (µs × 1e3).
    (total_flops / (total_time * 1e3)) * scale
}

/// Uncached convenience wrapper around [`fitness_with`] for one-off
/// evaluations; the search proper shares one engine across the whole run.
pub fn fitness(space: &SearchSpace, ind: &Individual, penalty: &Penalty) -> f64 {
    let engine = ProjectionEngine::new(space);
    let mut pricer = engine.pricer(0);
    fitness_with(&mut pricer, &groups_of(ind), penalty)
}

/// `ind`'s groups, for the one-off wrappers.
fn groups_of(ind: &Individual) -> Groups {
    let mut groups = Groups::default();
    groups.regroup(ind);
    groups
}

/// Projected end-to-end runtime (µs) of a grouping, ignoring penalties.
pub fn projected_time_us_with(pricer: &mut Pricer<'_>, groups: &Groups) -> f64 {
    let space = pricer.space();
    let times = (0..groups.len()).map(|k| {
        let members = groups.members(k);
        pricer.group_cost(members).time_us * repeat_of(space, members)
    });
    times.sum()
}

/// Uncached convenience wrapper around [`projected_time_us_with`].
pub fn projected_time_us(space: &SearchSpace, ind: &Individual) -> f64 {
    let engine = ProjectionEngine::new(space);
    let mut pricer = engine.pricer(0);
    projected_time_us_with(&mut pricer, &groups_of(ind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::Individual;
    use crate::space::tests::space_for;

    const SHARED_READERS: &str = r#"
__global__ void r1(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void r2(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] + 1.0; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 16;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  r1<<<dim3(4, 4), dim3(16, 8)>>>(u, a, nx, ny, nz);
  r2<<<dim3(4, 4), dim3(16, 8)>>>(u, b, nx, ny, nz);
}
"#;

    #[test]
    fn fusing_shared_readers_improves_fitness() {
        let space = space_for(SHARED_READERS);
        let singles = Individual::singletons(&space);
        let f0 = fitness(&space, &singles, &Penalty::default());
        let mut fused = singles.clone();
        assert!(fused.try_merge(&space, 0, 1));
        let f1 = fitness(&space, &fused, &Penalty::default());
        assert!(
            f1 > f0,
            "fused fitness {f1} must beat singleton fitness {f0}"
        );
        assert!(projected_time_us(&space, &fused) < projected_time_us(&space, &singles));
    }

    #[test]
    fn group_cost_charges_tiles() {
        let space = space_for(SHARED_READERS);
        let engine = ProjectionEngine::new(&space);
        let single = engine.group_cost(&[0]);
        assert_eq!(single.smem_bytes, 0);
        let pair = engine.group_cost(&[0, 1]);
        assert!(pair.smem_bytes > 0, "staged u must charge a tile");
        assert!(!pair.smem_violation);
        assert_eq!(staged_arrays(&space, &[0, 1]), vec!["u".to_string()]);
        assert!(staged_arrays(&space, &[0]).is_empty());
    }

    #[test]
    fn dispersion_widens_the_penalty_for_fused_groups() {
        let mut space = space_for(SHARED_READERS);
        let mut fused = Individual::singletons(&space);
        assert!(fused.try_merge(&space, 0, 1));
        let clean = fitness(&space, &fused, &Penalty::default());
        // The same fusion justified by noisy measurements is worth less.
        space.units[0].perf.measure.dispersion = 0.20;
        let noisy = fitness(&space, &fused, &Penalty::default());
        assert!(
            noisy < clean,
            "noisy fusion {noisy} must score below clean fusion {clean}"
        );
        // Singletons pay no widening: solo kernels are the safe default.
        let singles = Individual::singletons(&space);
        let s_clean = {
            let mut s2 = space_for(SHARED_READERS);
            s2.units[0].perf.measure.dispersion = 0.0;
            fitness(&s2, &Individual::singletons(&s2), &Penalty::default())
        };
        let s_noisy = fitness(&space, &singles, &Penalty::default());
        assert_eq!(s_noisy, s_clean);
        // Turning the knob off restores the clean score.
        let off = fitness(
            &space,
            &fused,
            &Penalty {
                noise_aversion: 0.0,
                ..Penalty::default()
            },
        );
        assert_eq!(off, clean);
    }

    #[test]
    fn group_cost_tracks_worst_member_dispersion() {
        let mut space = space_for(SHARED_READERS);
        space.units[0].perf.measure.dispersion = 0.08;
        space.units[1].perf.measure.dispersion = 0.17;
        let engine = ProjectionEngine::new(&space);
        assert_eq!(engine.group_cost(&[0]).max_dispersion, 0.08);
        assert_eq!(engine.group_cost(&[0, 1]).max_dispersion, 0.17);
    }

    #[test]
    fn fitness_is_deterministic() {
        let space = space_for(SHARED_READERS);
        let ind = Individual::singletons(&space);
        let a = fitness(&space, &ind, &Penalty::default());
        let b = fitness(&space, &ind, &Penalty::default());
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod fission_benefit_tests {
    use super::*;
    use crate::genome::Individual;
    use crate::space::tests::space_for;

    /// A fat kernel whose register pressure tanks occupancy: the objective
    /// must value its fission products above the original (the paper's
    /// fission-driven mechanism for AWP-ODC-GPU / B-CALM).
    const FAT: &str = r#"
__global__ void fat(const double* __restrict__ a, const double* __restrict__ b,
                    double* x, double* y, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      double t0 = a[k][j][i];
      double t1 = t0 * 1.01; double t2 = t1 * 1.01; double t3 = t2 * 1.01;
      double t4 = t3 * 1.01; double t5 = t4 * 1.01; double t6 = t5 * 1.01;
      double t7 = t6 * 1.01; double t8 = t7 * 1.01; double t9 = t8 * 1.01;
      double u0 = b[k][j][i];
      double u1 = u0 * 1.01; double u2 = u1 * 1.01; double u3 = u2 * 1.01;
      double u4 = u3 * 1.01; double u5 = u4 * 1.01; double u6 = u5 * 1.01;
      double u7 = u6 * 1.01; double u8 = u7 * 1.01; double u9 = u8 * 1.01;
      double v1 = t9 + 0.5; double v2 = v1 + 0.5; double v3 = v2 + 0.5;
      double v4 = v3 + 0.5; double v5 = v4 + 0.5; double v6 = v5 + 0.5;
      double w1 = u9 + 0.5; double w2 = w1 + 0.5; double w3 = w2 + 0.5;
      double w4 = w3 + 0.5; double w5 = w4 + 0.5; double w6 = w5 + 0.5;
      double v7 = v6 * 2.0; double v8 = v7 * 2.0; double v9 = v8 * 2.0;
      double w7 = w6 * 2.0; double w8 = w7 * 2.0; double w9 = w8 * 2.0;
      double va = v9 + 1.0; double vb = va + 1.0; double vc = vb + 1.0;
      double wa = w9 + 1.0; double wb = wa + 1.0; double wc = wb + 1.0;
      double vd = vc * 1.5; double ve = vd * 1.5; double vf = ve * 1.5;
      double wd = wc * 1.5; double we = wd * 1.5; double wf = we * 1.5;
      x[k][j][i] = vf;
      y[k][j][i] = wf;
    }
  }
}
void host() {
  int nx = 256; int ny = 32; int nz = 16;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* x = cudaAlloc3D(nz, ny, nx);
  double* y = cudaAlloc3D(nz, ny, nx);
  fat<<<dim3(8, 4), dim3(32, 8)>>>(a, b, x, y, nx, ny, nz);
}
"#;

    #[test]
    fn fission_of_register_heavy_kernel_improves_fitness() {
        let space = space_for(FAT);
        assert!(space.units[0].fissionable(), "fat kernel must be separable");
        // Low occupancy before fission.
        assert!(space.units[0].perf.occupancy < 0.5);
        let original = Individual::singletons(&space);
        let f0 = fitness(&space, &original, &Penalty::default());
        let mut split = original.clone();
        split.fission(&space, 0);
        let f1 = fitness(&space, &split, &Penalty::default());
        assert!(
            f1 > f0,
            "fission must improve projected GFLOPS ({f1:.2} vs {f0:.2})"
        );
    }
}

#[cfg(test)]
mod penalty_tests {
    use super::*;
    use crate::genome::Individual;
    use crate::space::tests::space_for;

    /// Wide-radius readers of many shared arrays: fusing them all demands
    /// more shared memory than a block can hold.
    const SMEM_HEAVY: &str = r#"
__global__ void r0(const double* __restrict__ u0, const double* __restrict__ u1,
                   const double* __restrict__ u2, const double* __restrict__ u3,
                   double* o0, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 12 && i < nx - 12 && j >= 12 && j < ny - 12) {
    for (int k = 0; k < nz; k++) {
      o0[k][j][i] = u0[k][j][i+12] + u0[k][j+12][i] + u1[k][j][i-12] + u1[k][j-12][i]
                  + u2[k][j+12][i] + u2[k][j][i+12] + u3[k][j-12][i] + u3[k][j][i-12];
    }
  }
}
__global__ void r1(const double* __restrict__ u0, const double* __restrict__ u1,
                   const double* __restrict__ u2, const double* __restrict__ u3,
                   double* o1, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 12 && i < nx - 12 && j >= 12 && j < ny - 12) {
    for (int k = 0; k < nz; k++) {
      o1[k][j][i] = u0[k][j][i-12] + u0[k][j-12][i] + u1[k][j][i+12] + u1[k][j+12][i]
                  + u2[k][j-12][i] + u2[k][j][i-12] + u3[k][j+12][i] + u3[k][j][i+12];
    }
  }
}
void host() {
  int nx = 256; int ny = 64; int nz = 8;
  double* u0 = cudaAlloc3D(nz, ny, nx);
  double* u1 = cudaAlloc3D(nz, ny, nx);
  double* u2 = cudaAlloc3D(nz, ny, nx);
  double* u3 = cudaAlloc3D(nz, ny, nx);
  double* o0 = cudaAlloc3D(nz, ny, nx);
  double* o1 = cudaAlloc3D(nz, ny, nx);
  r0<<<dim3(8, 8), dim3(32, 8)>>>(u0, u1, u2, u3, o0, nx, ny, nz);
  r1<<<dim3(8, 8), dim3(32, 8)>>>(u0, u1, u2, u3, o1, nx, ny, nz);
}
"#;

    #[test]
    fn smem_violation_is_detected_and_penalized() {
        let space = space_for(SMEM_HEAVY);
        let engine = crate::projection::ProjectionEngine::new(&space);
        let pair = engine.group_cost(&[0, 1]);
        // 4 staged tiles of (8+24)x(32+24) doubles ≈ 4×14KB > 48KB.
        // (each array is read with both x and y offsets of 12)
        assert!(pair.smem_violation, "smem {}B", pair.smem_bytes);
        // Neither kernel is fissionable → hard penalty.
        assert!(!pair.fission_escape);
        let mut fused = Individual::singletons(&space);
        assert!(fused.try_merge(&space, 0, 1));
        let singles = Individual::singletons(&space);
        let f_fused = fitness(&space, &fused, &Penalty::default());
        let f_single = fitness(&space, &singles, &Penalty::default());
        assert!(
            f_fused < f_single,
            "violating fusion must be penalized below singletons \
             ({f_fused:.2} vs {f_single:.2})"
        );
    }

    #[test]
    fn soft_penalty_is_gentler_than_hard() {
        let space = space_for(SMEM_HEAVY);
        let mut fused = Individual::singletons(&space);
        assert!(fused.try_merge(&space, 0, 1));
        let gentle = fitness(
            &space,
            &fused,
            &Penalty {
                soft: 0.9,
                hard: 0.9,
                ..Penalty::default()
            },
        );
        let harsh = fitness(
            &space,
            &fused,
            &Penalty {
                soft: 0.4,
                hard: 0.4,
                ..Penalty::default()
            },
        );
        assert!(gentle > harsh);
    }
}
