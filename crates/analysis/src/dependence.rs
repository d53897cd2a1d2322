//! Intra-kernel array-to-array dependence (§4.1, Algorithm 2).
//!
//! Two arrays are *dependent* when altering the values of one can have a
//! side effect on the values of the other. The paper determines this with a
//! statement-granularity polyhedral analysis; we use the equivalent
//! dataflow formulation for our language class: a statement writing array
//! `A` whose right-hand side (transitively, through local scalars) reads
//! array `B` makes `A` depend on `B`. Dependence edges are undirected for
//! the purposes of fission grouping; the connected components of the
//! resulting graph are the separable groups of Algorithm 2.

use sf_minicuda::ast::*;
use sf_minicuda::visit;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The undirected dependence graph among a kernel's global arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDependenceGraph {
    /// All global arrays the kernel touches, sorted.
    pub nodes: Vec<String>,
    /// Adjacency sets (symmetric).
    pub edges: BTreeMap<String, BTreeSet<String>>,
}

/// Flow-insensitive taint of local scalars by source arrays, iterated to a
/// fixpoint (locals can feed locals). Public so the fission code generator
/// can decide which local declarations belong to which component.
pub fn local_taint(
    body: &[Stmt],
    arrays: &BTreeSet<String>,
) -> BTreeMap<String, BTreeSet<String>> {
    let mut taint: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    loop {
        let mut changed = false;
        visit::walk_stmts(body, &mut |s| {
            let (name, value): (&str, &Expr) = match s {
                Stmt::VarDecl {
                    name,
                    init: Some(e),
                    ..
                } => (name, e),
                Stmt::Assign {
                    target: LValue::Var(name),
                    value,
                    ..
                } => (name, value),
                _ => return,
            };
            let sources = expr_sources(value, arrays, &taint);
            let entry = taint.entry(name.to_string()).or_default();
            for src in sources {
                if entry.insert(src) {
                    changed = true;
                }
            }
        });
        if !changed {
            break;
        }
    }
    taint
}

impl ArrayDependenceGraph {
    /// Build the graph for a kernel.
    pub fn build(kernel: &Kernel) -> ArrayDependenceGraph {
        let arrays: BTreeSet<String> = kernel
            .array_params()
            .iter()
            .map(|s| s.to_string())
            .collect();

        let taint = local_taint(&kernel.body, &arrays);

        // Touched arrays (some parameters may be unused).
        let mut touched: BTreeSet<String> = BTreeSet::new();
        visit::walk_stmts(&kernel.body, &mut |s| {
            if let Stmt::Assign {
                target: LValue::Index { array, .. },
                ..
            } = s
            {
                if arrays.contains(array) {
                    touched.insert(array.clone());
                }
            }
        });
        visit::walk_exprs(&kernel.body, &mut |e| {
            if let Expr::Index { array, .. } = e {
                if arrays.contains(array) {
                    touched.insert(array.clone());
                }
            }
        });

        let mut edges: BTreeMap<String, BTreeSet<String>> = touched
            .iter()
            .map(|a| (a.clone(), BTreeSet::new()))
            .collect();

        // A write to `A` from sources {B, ...} links A—B.
        visit::walk_stmts(&kernel.body, &mut |s| {
            if let Stmt::Assign {
                target: LValue::Index { array, indices },
                op,
                value,
            } = s
            {
                if !arrays.contains(array) {
                    return;
                }
                let mut sources = expr_sources(value, &arrays, &taint);
                for i in indices {
                    sources.extend(expr_sources(i, &arrays, &taint));
                }
                if *op != AssignOp::Assign {
                    sources.insert(array.clone());
                }
                for src in sources {
                    if src != *array {
                        edges.entry(array.clone()).or_default().insert(src.clone());
                        edges.entry(src).or_default().insert(array.clone());
                    }
                }
            }
        });

        ArrayDependenceGraph {
            nodes: edges.keys().cloned().collect(),
            edges,
        }
    }

    /// Connected components via BFS from arbitrary roots (Algorithm 2's
    /// enumeration of disconnected subgraphs). Deterministic: roots are
    /// taken in sorted order. Each component is sorted.
    pub fn components(&self) -> Vec<Vec<String>> {
        let mut remaining: BTreeSet<&String> = self.nodes.iter().collect();
        let mut out = Vec::new();
        while let Some(root) = remaining.iter().next().cloned() {
            let mut comp = BTreeSet::new();
            let mut queue = VecDeque::new();
            queue.push_back(root.clone());
            while let Some(n) = queue.pop_front() {
                if !comp.insert(n.clone()) {
                    continue;
                }
                remaining.remove(&n);
                if let Some(adj) = self.edges.get(&n) {
                    for m in adj {
                        if !comp.contains(m) {
                            queue.push_back(m.clone());
                        }
                    }
                }
            }
            out.push(comp.into_iter().collect());
        }
        out
    }
}

/// Arrays that influence the value of `e`, directly or through tainted
/// locals.
pub fn expr_sources(
    e: &Expr,
    arrays: &BTreeSet<String>,
    taint: &BTreeMap<String, BTreeSet<String>>,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    visit::walk_expr(e, &mut |node| match node {
        Expr::Index { array, .. } if arrays.contains(array) => {
            out.insert(array.clone());
        }
        Expr::Var(n) => {
            if let Some(srcs) = taint.get(n) {
                out.extend(srcs.iter().cloned());
            }
        }
        _ => {}
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::parse_kernel;

    /// The paper's Fig. 3: Kern_A reads S,V to write R,W (group 1) and
    /// reads T,P to write U,Q (group 2) — two separable components.
    const FISSIONABLE: &str = r#"
__global__ void kern_a(const double* __restrict__ s, const double* __restrict__ v,
                       const double* __restrict__ t, const double* __restrict__ p,
                       double* r, double* w, double* u, double* q,
                       int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      r[k][j][i] = s[k][j][i] + 0.5 * v[k][j][i];
      w[k][j][i] = s[k][j][i] - v[k][j][i];
      u[k][j][i] = t[k][j][i] + 0.5 * p[k][j][i];
      q[k][j][i] = t[k][j][i] - p[k][j][i];
    }
  }
}
"#;

    #[test]
    fn finds_separable_components() {
        let k = parse_kernel(FISSIONABLE).unwrap();
        let g = ArrayDependenceGraph::build(&k);
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![
            "r".to_string(),
            "s".to_string(),
            "v".to_string(),
            "w".to_string()
        ]));
        assert!(comps.contains(&vec![
            "p".to_string(),
            "q".to_string(),
            "t".to_string(),
            "u".to_string()
        ]));
    }

    #[test]
    fn local_scalar_taint_links_arrays() {
        let k = parse_kernel(
            r#"
__global__ void k(const double* __restrict__ a, double* b, double* c, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    double t = a[i] * 2.0;
    b[i] = t;
    c[i] = 1.0;
  }
}
"#,
        )
        .unwrap();
        let g = ArrayDependenceGraph::build(&k);
        let comps = g.components();
        // a—b linked through t; c separate.
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec!["a".to_string(), "b".to_string()]));
        assert!(comps.contains(&vec!["c".to_string()]));
    }

    #[test]
    fn compound_assign_links_target_to_sources() {
        let k = parse_kernel(
            r#"
__global__ void k(const double* __restrict__ a, double* b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { b[i] += a[i]; }
}
"#,
        )
        .unwrap();
        let g = ArrayDependenceGraph::build(&k);
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn tight_kernel_is_not_separable() {
        let k = sf_minicuda::builder::jacobi3d_kernel("j", "u", "v");
        let g = ArrayDependenceGraph::build(&k);
        assert_eq!(g.components(), vec![vec!["u".to_string(), "v".to_string()]]);
    }

    #[test]
    fn chained_locals_reach_fixpoint() {
        let k = parse_kernel(
            r#"
__global__ void k(const double* __restrict__ a, double* b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    double t1 = a[i];
    double t2 = 0.0;
    t2 = t1 + 1.0;
    double t3 = t2 * 2.0;
    b[i] = t3;
  }
}
"#,
        )
        .unwrap();
        let g = ArrayDependenceGraph::build(&k);
        assert_eq!(g.components().len(), 1);
    }
}
