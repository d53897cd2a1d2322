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
use crate::params::SearchConfig;
use crate::projection::{Pricer, ProjectionEngine};
use crate::space::SearchSpace;
use sf_gpusim::timing::{LaunchProfile, TimingModel};
use sf_minicuda::host::Dim3;

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
    /// The code generator fuses the members at this degree. A group it
    /// would refuse (and emit unfused) projects to infinite time, so it
    /// never wins.
    pub fusable: bool,
}

/// The block a group's price assumes: 32 wide, as deep as its first
/// member's threads allow. The one guess left in the price (codegen's tuner
/// picks its own block); the spatial tiles and the temporal rule use it.
pub fn assumed_block(space: &SearchSpace, members: &[usize]) -> Dim3 {
    let threads = members
        .first()
        .map_or(256, |&m| space.units[m].threads_per_block.max(32));
    Dim3::new(32, threads / 32, 1)
}

/// Project the cost of executing `members` as one fused kernel at temporal
/// degree `fold`.
///
/// What the kernel stages is codegen's decision, asked, not re-derived: at
/// `fold == 1` the tiles of [`SearchSpace::decision`]; at higher degrees
/// one folded launch of the loop's [`sf_codegen::TemporalChain`] covering
/// `fold` host iterations, at its [`geometry`](sf_codegen::TemporalChain::geometry)
/// — staged reads paid once (inflated by the grown halo), writes once,
/// flops times the degree and the recompute ratio —
/// amortized back to *per loop iteration*, so it compares directly with
/// the spatial cost under the same host repeat weight. A group or degree
/// codegen refuses (at the [`assumed_block`]) projects to infinite time.
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
    for u in &units {
        for (a, (r, w)) in &u.ops.bytes_per_array {
            if *r > 0 {
                let e = reads.entry(a).or_insert(0);
                *e = (*e).max(*r);
            }
            if *w > 0 {
                let e = writes.entry(a).or_insert(0);
                *e = (*e).max(*w);
            }
        }
    }
    // A read of an array the group writes is served on chip but for its
    // halo.
    let read_dram: u64 = reads
        .iter()
        .map(|(a, &r)| {
            if writes.contains_key(a) {
                (r as f64 * FLOW_HALO_FRACTION) as u64
            } else {
                r
            }
        })
        .sum();
    let write_dram: u64 = writes.values().sum();

    let flops: u64 = units.iter().map(|u| u.perf.flops).sum();
    let divergent: u64 = units.iter().map(|u| u.perf.divergent_evals).sum();
    let depth: u64 = units
        .iter()
        .map(|u| u.ops.loop_sizes.iter().sum::<i64>().max(0) as u64)
        .max()
        .unwrap_or(1);
    let regs: u32 = (16
        + units
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
    let mut profile = LaunchProfile {
        dram_bytes: read_dram + write_dram,
        flops,
        blocks,
        threads_per_block: threads,
        regs_per_thread: regs,
        smem_per_block: 0,
        divergent_evals: divergent,
        depth,
    };
    let launch_us = |profile: &LaunchProfile| {
        let cost = model.launch_cost(profile);
        cost.map(|c| c.total_us()).unwrap_or(f64::INFINITY)
    };

    let block = assumed_block(space, members);
    // The time and shared bytes of the kernel codegen emits, `None` if it
    // refuses to.
    let priced = if fold == 1 {
        let smem_bytes = match members.len() {
            0 | 1 => Some(0),
            _ => space.decision(members).ok().map(|d| d.footprint(block)),
        };
        // For timing, clamp shared memory into the launchable range; the
        // violation is handled by the penalty, not by an unlaunchable config.
        smem_bytes.map(|smem_bytes| {
            profile.smem_per_block = smem_bytes.min(space.smem_limit);
            (launch_us(&profile), smem_bytes)
        })
    } else {
        let chain = space
            .temporal_group(members)
            .and_then(|li| space.loops[li].chain.as_ref().ok());
        chain.and_then(|chain| {
            let tf = chain.geometry(fold, block, space.smem_limit).ok()?;
            // One folded launch covers `fold` host iterations: amortize so
            // the cost compares per-iteration against the spatial rung.
            let folded = profile.folded(read_dram, write_dram, &tf);
            Some((launch_us(&folded) / f64::from(fold), tf.smem_per_block))
        })
    };
    let (time_us, smem_bytes) = priced.unwrap_or((f64::INFINITY, 0));

    GroupCost {
        time_us,
        flops,
        smem_bytes,
        smem_violation: smem_bytes > space.smem_limit,
        fission_escape: units.iter().any(|u| {
            let original = u.parent.map_or(u.id, |p| p);
            space.units[original].fissionable() && u.mref.fission_component.is_none()
        }),
        fusable: priced.is_some(),
    }
}

/// Host repeat weight of a group: its most-repeated member's.
fn repeat_of(space: &SearchSpace, members: &[usize]) -> f64 {
    let repeats = members.iter().map(|&m| space.units[m].repeat);
    repeats.max().unwrap_or(1) as f64
}

/// One group's share of a grouping's fitness: its flops and time, each
/// weighted by the group's host repeat, and the factor its shared-memory
/// penalty scales the whole program's fitness by (1 where none applies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Terms {
    /// Flops × repeat.
    pub flops: f64,
    /// Projected µs × repeat (infinite for a group codegen refuses).
    pub time_us: f64,
    /// The shared-memory penalty: soft with a fission escape, else hard.
    pub smem: f64,
}

/// `members`' [`Terms`], priced through `pricer` under `config`'s penalty
/// weights.
pub fn group_terms(pricer: &mut Pricer<'_>, members: &[usize], config: &SearchConfig) -> Terms {
    let repeat = repeat_of(pricer.space(), members);
    let cost = pricer.group_cost(members);
    let smem = match (cost.smem_violation, cost.fission_escape) {
        (false, _) => 1.0,
        (true, true) => config.penalty_soft,
        (true, false) => config.penalty_hard,
    };
    Terms {
        flops: cost.flops as f64 * repeat,
        time_us: cost.time_us * repeat,
        smem,
    }
}

/// Projected GFLOPS of a whole program from its summed [`Terms`] and the
/// product of their factors.
pub fn gflops(total_flops: f64, total_time_us: f64, scale: f64) -> f64 {
    if !total_time_us.is_finite() || total_time_us <= 0.0 {
        return 0.0;
    }
    // GFLOPS = flops / (µs × 1e3). A program without flops still ranks
    // its groupings by time: counting one flop keeps every grouping the
    // code generator can emit above one it cannot (infinite time, 0).
    (total_flops.max(1.0) / (total_time_us * 1e3)) * scale
}

/// The penalized fitness of a grouping: projected GFLOPS of the whole
/// program under these `groups` (an individual's, see [`Groups`]), scaled
/// down per constraint violation. Groups are priced in ascending group id,
/// members ascending (the sums below are `f64`: their order is part of the
/// result), through the island's `pricer`.
pub fn fitness_with(pricer: &mut Pricer<'_>, groups: &Groups, config: &SearchConfig) -> f64 {
    let mut total_flops = 0.0f64;
    let mut total_time = 0.0f64;
    let mut scale = 1.0f64;
    for k in 0..groups.len() {
        let terms = group_terms(pricer, groups.members(k), config);
        total_flops += terms.flops;
        total_time += terms.time_us;
        scale *= terms.smem;
    }
    gflops(total_flops, total_time, scale)
}

/// Uncached convenience wrapper around [`fitness_with`] for one-off
/// evaluations; the search proper shares one engine across the whole run.
pub fn fitness(space: &SearchSpace, ind: &Individual, config: &SearchConfig) -> f64 {
    let engine = ProjectionEngine::new(space);
    let mut pricer = engine.pricer(0);
    fitness_with(&mut pricer, &groups_of(ind), config)
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
        let f0 = fitness(&space, &singles, &SearchConfig::default());
        let mut fused = singles.clone();
        assert!(fused.try_merge(&space, 0, 1));
        let f1 = fitness(&space, &fused, &SearchConfig::default());
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
        let staged = space.decision(&[0, 1]).unwrap();
        let names: Vec<&str> = staged
            .tiles()
            .iter()
            .map(|t| space.arrays.name(t.array))
            .collect();
        assert_eq!(names, ["u"]);
        assert_eq!(
            pair.smem_bytes,
            staged.footprint(assumed_block(&space, &[0, 1]))
        );
    }

    #[test]
    fn fitness_is_deterministic() {
        let space = space_for(SHARED_READERS);
        let ind = Individual::singletons(&space);
        let a = fitness(&space, &ind, &SearchConfig::default());
        let b = fitness(&space, &ind, &SearchConfig::default());
        assert_eq!(a, b);
    }
}

#[cfg(test)]
pub(crate) mod fission_benefit_tests {
    use super::*;
    use crate::genome::Individual;
    use crate::space::tests::space_for;

    /// A fat kernel whose register pressure tanks occupancy: the objective
    /// must value its fission products above the original (the paper's
    /// fission-driven mechanism for AWP-ODC-GPU / B-CALM).
    pub(crate) const FAT: &str = r#"
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
        let f0 = fitness(&space, &original, &SearchConfig::default());
        let mut split = original.clone();
        split.fission(&space, 0);
        let f1 = fitness(&space, &split, &SearchConfig::default());
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
        let f_fused = fitness(&space, &fused, &SearchConfig::default());
        let f_single = fitness(&space, &singles, &SearchConfig::default());
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
            &SearchConfig {
                penalty_soft: 0.9,
                penalty_hard: 0.9,
                ..SearchConfig::default()
            },
        );
        let harsh = fitness(
            &space,
            &fused,
            &SearchConfig {
                penalty_soft: 0.4,
                penalty_hard: 0.4,
                ..SearchConfig::default()
            },
        );
        assert!(gentle > harsh);
    }
}
