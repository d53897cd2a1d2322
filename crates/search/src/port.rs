//! Cross-device plan portability: raising a lowered [`TransformPlan`] back
//! to a genome.
//!
//! A plan emitted on one device is a grouping of [`sf_plan::MemberRef`]s —
//! device-independent identities. To port it, the new device's
//! [`SearchSpace`] is built as usual and the old plan's fissions and groups
//! are re-applied over it *with repair*: merges the new device cannot
//! sustain (e.g. a shared-memory budget the wavefront-64 part does not
//! have) are simply skipped, so the raised genome is always feasible. The
//! result is elite-injected into the initial population
//! ([`crate::islands::IslandOptions::seeds`]), and a reduced-budget search ([`crate::params::SearchConfig::for_port`])
//! re-tunes from there instead of from scratch.

use crate::genome::Individual;
use crate::space::SearchSpace;
use sf_plan::{MemberRef, TransformPlan};
use std::collections::BTreeMap;

/// Raise `plan` to a feasible genome over `space`.
///
/// Deterministic: fissions are applied in the plan's declared order, group
/// merges in plan order, members within a group in plan order. Members the
/// space does not know (a program mismatch) and merges that are infeasible
/// on this device are skipped — the port path's repair — so the returned
/// individual is always feasible, possibly dropping back toward singletons
/// where the old grouping cannot be expressed.
pub fn raise_plan(space: &SearchSpace, plan: &TransformPlan) -> Individual {
    let by_mref: BTreeMap<MemberRef, usize> =
        space.units.iter().map(|u| (u.mref, u.id)).collect();
    let mut ind = Individual::singletons(space);

    // Re-apply fissions; a launch the new space cannot fission stays whole.
    for &seq in &plan.fissions {
        if let Some(&unit) = by_mref.get(&MemberRef::original(seq)) {
            ind.fission(space, unit);
        }
    }

    // Re-apply groupings, merging each group's later members into its
    // first; `try_merge` reverts infeasible merges, which is the repair.
    for group in &plan.groups {
        let units: Vec<usize> = group
            .members
            .iter()
            .filter_map(|m| by_mref.get(m).copied())
            .filter(|&u| ind.group(u).is_some())
            .collect();
        if let Some((&first, rest)) = units.split_first() {
            for &u in rest {
                ind.try_merge(space, first, u);
            }
        }
    }
    ind
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gga::lower_plan;
    use crate::islands::{search_islands, IslandOptions};
    use crate::params::SearchConfig;
    use crate::projection::ProjectionEngine;
    use crate::space::tests::space_for;
    use sf_gpusim::DeviceSpec;
    use sf_plan::CodegenMode;

    const CHAIN: &str = r#"
__global__ void k1(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = a[k][j][i] + 1.0; } }
}
__global__ void k2(const double* __restrict__ b, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = b[k][j][i] * 2.0; } }
}
__global__ void k3(const double* __restrict__ c, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { d[k][j][i] = c[k][j][i] - 3.0; } }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  k1<<<dim3(2, 2), dim3(16, 8)>>>(a, b, nx, ny, nz);
  k2<<<dim3(2, 2), dim3(16, 8)>>>(b, c, nx, ny, nz);
  k3<<<dim3(2, 2), dim3(16, 8)>>>(c, d, nx, ny, nz);
}
"#;

    #[test]
    fn raise_inverts_lowering() {
        let space = space_for(CHAIN);
        let mut ind = Individual::singletons(&space);
        assert!(ind.try_merge(&space, 0, 1));
        assert!(ind.try_merge(&space, 0, 2));
        let engine = ProjectionEngine::new(&space);
        let plan = lower_plan(&engine, &ind, CodegenMode::Auto, false);
        let raised = raise_plan(&space, &plan);
        assert_eq!(raised, ind);
    }

    #[test]
    fn raise_onto_other_device_is_feasible_and_seedable() {
        // Lower on one device, raise on every other registry device.
        let space_src = space_for(CHAIN);
        let mut ind = Individual::singletons(&space_src);
        assert!(ind.try_merge(&space_src, 0, 1));
        let engine = ProjectionEngine::new(&space_src);
        let plan = lower_plan(&engine, &ind, CodegenMode::Auto, false);

        for dev in sf_gpusim::DeviceRegistry::builtin().devices() {
            let space = space_for_device(CHAIN, dev.clone());
            let raised = raise_plan(&space, &plan);
            assert!(raised.feasible(&space), "infeasible on {}", dev.name);
            assert_eq!(raised.fusion_groups().len(), 1, "lost group on {}", dev.name);
            // Seeded search accepts and keeps determinism.
            let cfg = SearchConfig::quick().for_port();
            let opts = IslandOptions {
                seeds: vec![raised],
                ..IslandOptions::default()
            };
            let a = search_islands(&space, &cfg, &opts).result;
            let b = search_islands(&space, &cfg, &opts).result;
            assert_eq!(a.plan, b.plan, "nondeterministic port on {}", dev.name);
        }
    }

    #[test]
    fn unknown_members_and_infeasible_merges_are_repaired() {
        let space = space_for(CHAIN);
        let mut ind = Individual::singletons(&space);
        assert!(ind.try_merge(&space, 0, 1));
        assert!(ind.try_merge(&space, 0, 2));
        let engine = ProjectionEngine::new(&space);
        let mut plan = lower_plan(&engine, &ind, CodegenMode::Auto, false);
        // A member the program does not have is skipped, not fatal.
        plan.groups[0].members.push(sf_plan::MemberRef::original(99));
        let raised = raise_plan(&space, &plan);
        assert!(raised.feasible(&space));
        assert_eq!(raised.fusion_groups().len(), 1);
    }

    fn space_for_device(src: &str, device: DeviceSpec) -> SearchSpace {
        crate::space::tests::space_for_device(src, device)
    }
}
