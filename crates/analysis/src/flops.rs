//! FLOP attribution: which share of a kernel's floating-point work belongs
//! to each data array (part of the paper's operations metadata: "FLOPs
//! related to each data array").

use sf_minicuda::ast::*;
use sf_minicuda::visit;
use std::collections::BTreeMap;

/// Attribute the flops of each assignment to the array it writes. Local
/// scalar computations feeding stores are charged to the stored array at
/// the point of use (approximation: flops in an assignment body count
/// toward the target array; declarations count toward nothing until used).
pub fn flops_per_array(kernel: &Kernel) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let arrays: Vec<String> = kernel
        .array_params()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let floats = crate::access::float_locals(&kernel.body);
    visit::walk_stmts(&kernel.body, &mut |s| {
        if let Stmt::Assign {
            target: LValue::Index { array, .. },
            op,
            value,
        } = s
        {
            if arrays.contains(array) {
                let mut flops = crate::access::expr_flops(value, &floats);
                if *op != AssignOp::Assign {
                    flops += 1;
                }
                *out.entry(array.clone()).or_insert(0) += flops;
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::parse_kernel;

    #[test]
    fn attributes_flops_to_written_arrays() {
        let k = parse_kernel(
            r#"
__global__ void k(const double* __restrict__ u, double* v, double* w, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    v[i] = u[i] * 2.0 + 1.0;
    w[i] += u[i];
  }
}
"#,
        )
        .unwrap();
        let f = flops_per_array(&k);
        assert_eq!(f.get("v"), Some(&2));
        // w: += adds one op
        assert_eq!(f.get("w"), Some(&1));
        assert_eq!(f.get("u"), None);
    }

    #[test]
    fn intrinsics_cost_more() {
        let k = parse_kernel(
            r#"
__global__ void k(double* v, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { v[i] = exp(1.0); }
}
"#,
        )
        .unwrap();
        let f = flops_per_array(&k);
        assert_eq!(f.get("v"), Some(&8));
    }
}
