//! Extraction of per-launch read/write sets, the common input to both
//! graphs (the paper's "scanning host code" + static analysis step).

use sf_minicuda::ast::{Kernel, Param, Program};
use sf_minicuda::host::{AllocInfo, LaunchRecord, ResolvedArg};
use sf_minicuda::visit;
use std::collections::BTreeSet;

/// Actual arrays read and written by one launch.
#[derive(Debug, Clone, PartialEq, Default)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct LaunchAccesses {
    pub reads: BTreeSet<String>,
    pub writes: BTreeSet<String>,
    /// Writes that cover the array's entire extent. Only these may start a
    /// redundant array instance (§3.2.3) — a partial overwrite (e.g. a
    /// boundary kernel writing one plane) must keep feeding the existing
    /// instance, or later readers would lose the untouched elements.
    pub full_writes: BTreeSet<String>,
}

impl LaunchAccesses {
    /// Whether the launch reads or writes `array`.
    pub fn touches(&self, array: &str) -> bool {
        self.reads.contains(array) || self.writes.contains(array)
    }
}

/// Lookup from array name to its allocation record, when one is known.
pub type AllocLookup<'a> = &'a dyn Fn(&str) -> Option<AllocInfo>;

/// Compute the actual arrays a launch reads/writes, by mapping the kernel's
/// parameter-level read/write sets through the launch bindings. Compound
/// assignments count as both. When `alloc_of` is provided, writes covering
/// the whole allocation are additionally recorded in `full_writes`.
pub fn launch_accesses(
    kernel: &Kernel,
    launch: &LaunchRecord,
    alloc_of: Option<AllocLookup<'_>>,
) -> LaunchAccesses {
    let param_reads = visit::arrays_read(&kernel.body);
    let param_writes = visit::arrays_written(&kernel.body);
    // Compound assignments read their target too.
    let mut compound_reads = Vec::new();
    visit::walk_stmts(&kernel.body, &mut |s| {
        if let sf_minicuda::ast::Stmt::Assign {
            target: sf_minicuda::ast::LValue::Index { array, .. },
            op,
            ..
        } = s
        {
            if *op != sf_minicuda::ast::AssignOp::Assign {
                compound_reads.push(array.clone());
            }
        }
    });

    // Per-array write bytes from the footprint analysis (full coverage
    // check). Failure to analyze simply means no full_writes claims.
    let traffic = alloc_of.and_then(|f| {
        let ka = sf_analysis::access::KernelAccess::analyze(kernel).ok()?;
        sf_analysis::access::launch_traffic(&ka, kernel, launch, f).ok()
    });

    let mut out = LaunchAccesses::default();
    for (p, a) in kernel.params.iter().zip(&launch.args) {
        if let (Param::Array { name, .. }, ResolvedArg::Array(actual)) = (p, a) {
            if param_reads.contains(name) || compound_reads.contains(name) {
                out.reads.insert(actual.clone());
            }
            if param_writes.contains(name) {
                out.writes.insert(actual.clone());
                if let (Some(t), Some(f)) = (&traffic, alloc_of) {
                    if let (Some(&(_, wbytes)), Some(alloc)) = (t.per_array.get(actual), f(actual))
                    {
                        if wbytes as usize >= alloc.size_bytes() {
                            out.full_writes.insert(actual.clone());
                        }
                    }
                }
            }
        }
    }
    out
}

/// Per-launch accesses for a whole plan.
pub fn all_accesses(
    program: &Program,
    launches: &[LaunchRecord],
) -> Result<Vec<LaunchAccesses>, String> {
    launches
        .iter()
        .map(|l| {
            let k = program
                .kernel(&l.kernel)
                .ok_or_else(|| format!("unknown kernel `{}`", l.kernel))?;
            Ok(launch_accesses(k, l, None))
        })
        .collect()
}

/// Per-launch accesses with full-write detection against the plan's
/// allocations.
pub fn all_accesses_with_allocs(
    program: &Program,
    plan: &sf_minicuda::host::ExecutablePlan,
) -> Result<Vec<LaunchAccesses>, String> {
    let alloc_of = |n: &str| plan.alloc(n).cloned();
    plan.launches
        .iter()
        .map(|l| {
            let k = program
                .kernel(&l.kernel)
                .ok_or_else(|| format!("unknown kernel `{}`", l.kernel))?;
            Ok(launch_accesses(k, l, Some(&alloc_of)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::host::ExecutablePlan;
    use sf_minicuda::parse_program;

    #[test]
    fn maps_params_to_actuals() {
        let src = r#"
__global__ void k(const double* __restrict__ a, double* b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { b[i] += a[i]; }
}
void host() {
  int n = 32;
  double* x = cudaAlloc1D(n);
  double* y = cudaAlloc1D(n);
  k<<<1, 32>>>(x, y, n);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let acc = launch_accesses(&p.kernels[0], &plan.launches[0], None);
        assert!(acc.reads.contains("x"));
        // compound assignment: y both read and written
        assert!(acc.reads.contains("y"));
        assert!(acc.writes.contains("y"));
        assert!(!acc.writes.contains("x"));
    }

    #[test]
    fn full_write_detection() {
        let src = r#"
__global__ void full(double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { a[k][j][i] = 1.0; }
  }
}
__global__ void plane(double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { a[0][j][i] = 2.0; }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* a = cudaAlloc3D(nz, ny, nx);
  full<<<dim3(2, 2), dim3(16, 8)>>>(a, nx, ny, nz);
  plane<<<dim3(2, 2), dim3(16, 8)>>>(a, nx, ny, nz);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let accs = all_accesses_with_allocs(&p, &plan).unwrap();
        assert!(accs[0].full_writes.contains("a"));
        assert!(!accs[1].full_writes.contains("a"));
        assert!(accs[1].writes.contains("a"));
    }
}
