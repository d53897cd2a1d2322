//! Stencil-shape summaries derived from the access analysis.

use crate::access::{IdxBase, KernelAccess};
use crate::metadata::StencilShape;
use std::collections::BTreeMap;

/// Summarize the stencil shape per array from a kernel's access analysis.
/// Offsets are aggregated across all sweeps.
pub fn stencil_shapes(ka: &KernelAccess) -> Vec<StencilShape> {
    #[derive(Default)]
    struct Agg {
        rank: usize,
        // per-axis set of offsets (bases folded away; shape is about spread)
        offsets: Vec<BTreeMap<i64, ()>>,
        points: BTreeMap<Vec<i64>, ()>,
        read: bool,
        written: bool,
    }
    let mut per_array: BTreeMap<String, Agg> = BTreeMap::new();
    for sweep in &ka.sweeps {
        for acc in &sweep.accesses {
            let a = per_array.entry(acc.array.clone()).or_default();
            a.rank = a.rank.max(acc.pats.len());
            if a.offsets.len() < acc.pats.len() {
                a.offsets.resize_with(acc.pats.len(), BTreeMap::new);
            }
            let mut point = Vec::with_capacity(acc.pats.len());
            for (ax, p) in acc.pats.iter().enumerate() {
                // Constant indices do not contribute to the radius: they
                // select planes rather than offsetting the iteration point.
                let off = match p.base {
                    IdxBase::Const | IdxBase::Unknown => 0,
                    _ => p.off,
                };
                a.offsets[ax].insert(off, ());
                point.push(off);
            }
            a.points.insert(point, ());
            if acc.is_write {
                a.written = true;
            } else {
                a.read = true;
            }
        }
    }
    per_array
        .into_iter()
        .map(|(array, agg)| StencilShape {
            array,
            rank: agg.rank,
            radius: agg
                .offsets
                .iter()
                .map(|axis| axis.keys().map(|o| o.abs()).max().unwrap_or(0))
                .collect(),
            points: agg.points.len(),
            written: agg.written,
            read: agg.read,
        })
        .collect()
}

/// The maximum stencil radius (any array, any axis) of a kernel — the halo
/// width complex fusion must load.
pub fn max_radius(ka: &KernelAccess) -> i64 {
    stencil_shapes(ka)
        .iter()
        .flat_map(|s| s.radius.iter().copied())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::KernelAccess;
    use sf_minicuda::builder::jacobi3d_kernel;

    #[test]
    fn jacobi_is_7_point_radius_1() {
        let k = jacobi3d_kernel("j", "u", "v");
        let ka = KernelAccess::analyze(&k).unwrap();
        let shapes = stencil_shapes(&ka);
        let u = shapes.iter().find(|s| s.array == "u").unwrap();
        assert_eq!(u.points, 7);
        assert_eq!(u.radius, vec![1, 1, 1]);
        assert!(u.read && !u.written);
        let v = shapes.iter().find(|s| s.array == "v").unwrap();
        assert_eq!(v.points, 1);
        assert!(v.written && !v.read);
        assert_eq!(max_radius(&ka), 1);
    }

    #[test]
    fn wide_stencil_radius() {
        let src = r#"
__global__ void wide(const double* __restrict__ u, double* v, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 2 && i < nx - 2 && j < ny) {
    for (int k = 0; k < nz; k++) {
      v[k][j][i] = u[k][j][i-2] + u[k][j][i+2];
    }
  }
}
"#;
        let k = sf_minicuda::parse_kernel(src).unwrap();
        let ka = KernelAccess::analyze(&k).unwrap();
        assert_eq!(max_radius(&ka), 2);
    }
}

#[cfg(test)]
mod shape_edge_tests {
    use super::*;
    use crate::access::KernelAccess;

    #[test]
    fn planar_boundary_kernel_shape() {
        let src = r#"
__global__ void bc(double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    a[0][j][i] = a[1][j][i] * 0.5;
  }
}
"#;
        let k = sf_minicuda::parse_kernel(src).unwrap();
        let ka = KernelAccess::analyze(&k).unwrap();
        let shapes = stencil_shapes(&ka);
        let a = shapes.iter().find(|s| s.array == "a").unwrap();
        // Constant plane indices contribute no radius.
        assert_eq!(a.radius[0], 0);
        assert!(a.read && a.written);
    }

    #[test]
    fn asymmetric_offsets_take_max_abs() {
        let src = r#"
__global__ void up(const double* __restrict__ u, double* v, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 3 && i < nx - 1 && j < ny) {
    for (int k = 0; k < nz; k++) {
      v[k][j][i] = u[k][j][i-3] + u[k][j][i+1];
    }
  }
}
"#;
        let k = sf_minicuda::parse_kernel(src).unwrap();
        let ka = KernelAccess::analyze(&k).unwrap();
        assert_eq!(max_radius(&ka), 3);
        let shapes = stencil_shapes(&ka);
        let u = shapes.iter().find(|s| s.array == "u").unwrap();
        assert_eq!(u.points, 2);
    }
}
