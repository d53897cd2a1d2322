//! Canonicalization of fusion members.
//!
//! Before member kernels can be aggregated into one fused kernel, each is
//! rewritten into a canonical form:
//!
//! - array parameters are renamed to the *actual* device arrays the launch
//!   binds (unifying the namespace across members);
//! - scalar parameters are bound to their launch values and folded into a
//!   shared scalar environment (same name + same value ⇒ shared parameter);
//! - the thread-mapping variables are renamed to the canonical `i`/`j`
//!   (their declarations move to the fused prologue);
//! - all other locals get a `_m<idx>` suffix to avoid collisions;
//! - guard and vertical-loop bounds are evaluated to integer literals
//!   (launch configurations are concrete at transformation time — this is
//!   the "aligning code segments to the same loop boundaries by offsetting
//!   indices" step, done in literal space).

use sf_analysis::access::{AccessError, KernelAccess};
use sf_minicuda::ast::*;
use sf_minicuda::host::{HostValue, LaunchRecord, ResolvedArg};
use sf_minicuda::visit;
use std::collections::BTreeMap;

/// A codegen-time error.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonError(pub String);

impl std::fmt::Display for CanonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "canonicalization error: {}", self.0)
    }
}

impl std::error::Error for CanonError {}

impl From<AccessError> for CanonError {
    fn from(e: AccessError) -> Self {
        CanonError(e.0)
    }
}

/// Guard bounds evaluated to absolute integers (already intersected with
/// the member's original launch coverage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct EvalGuard {
    pub x_lo: i64,
    pub x_hi: i64,
    pub y_lo: i64,
    pub y_hi: i64,
}

impl EvalGuard {
    /// Build the literal guard condition `i >= x_lo && i < x_hi && ...`,
    /// omitting checks that are trivially true given the fused launch
    /// coverage.
    pub fn condition(&self, cover_x: i64, cover_y: i64) -> Option<Expr> {
        use sf_minicuda::builder::*;
        let mut conds = Vec::new();
        if self.x_lo > 0 {
            conds.push(ge(var("i"), int(self.x_lo)));
        }
        if self.x_hi < cover_x {
            conds.push(lt(var("i"), int(self.x_hi)));
        }
        if self.y_lo > 0 {
            conds.push(ge(var("j"), int(self.y_lo)));
        }
        if self.y_hi < cover_y {
            conds.push(lt(var("j"), int(self.y_hi)));
        }
        if conds.is_empty() {
            None
        } else {
            Some(all(conds))
        }
    }
}

/// One array binding of a member.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayBind {
    /// Actual device array name (the canonical name after renaming).
    pub actual: String,
    /// Whether this member writes it.
    pub written: bool,
}

/// The extracted structure of a canonicalized member.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub enum MemberStructure {
    /// One vertical sweep `for (k = k_lo; k < k_hi; k++) { body }` under a
    /// rectangular guard; `body` has the loop variable renamed to `k`.
    SingleSweep {
        k_lo: i64,
        k_hi: i64,
        body: Vec<Stmt>,
        has_inner: bool,
    },
    /// Anything else: the member participates in fusion only by
    /// concatenation of its full body.
    Fallback,
}

/// A canonicalized fusion member.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct CanonMember {
    pub seq: usize,
    /// Original kernel name.
    pub name: String,
    /// Canonicalized full body (used for fallback concatenation).
    pub full_body: Vec<Stmt>,
    /// Top-level declarations hoisted out of the sweep (renamed).
    pub hoisted: Vec<Stmt>,
    pub structure: MemberStructure,
    pub guard: EvalGuard,
    /// Arrays this member touches, in first-use order.
    pub arrays: Vec<ArrayBind>,
    /// The member's access analysis, with array names mapped to actuals.
    pub ka: KernelAccess,
    /// Original launch coverage (grid × block) in x and y.
    pub launch_x: i64,
    pub launch_y: i64,
}

/// Canonicalize one member. `canon_scalars` is the shared scalar
/// environment across the group (canonical name → value); it accumulates
/// the scalar parameters the fused kernel needs.
pub fn canonicalize(
    kernel: &Kernel,
    launch: &LaunchRecord,
    member_idx: usize,
    canon_scalars: &mut BTreeMap<String, HostValue>,
) -> Result<CanonMember, CanonError> {
    if kernel.params.len() != launch.args.len() {
        return Err(CanonError(format!(
            "launch of `{}` passes {} args for {} params",
            kernel.name,
            launch.args.len(),
            kernel.params.len()
        )));
    }
    let ka_orig = KernelAccess::analyze(kernel)?;
    let mut body = kernel.body.clone();

    // Scalar values by original param name (for bound evaluation).
    let mut scalar_env: std::collections::HashMap<String, i64> =
        std::collections::HashMap::new();

    // 1. Bind arrays and scalars.
    let mut arrays: Vec<ArrayBind> = Vec::new();
    let mut array_rename: Vec<(String, String)> = Vec::new();
    let written = visit::arrays_written(&kernel.body);
    for (p, a) in kernel.params.iter().zip(&launch.args) {
        match (p, a) {
            (Param::Array { name, .. }, ResolvedArg::Array(actual)) => {
                array_rename.push((name.clone(), actual.clone()));
                arrays.push(ArrayBind {
                    actual: actual.clone(),
                    written: written.contains(name),
                });
            }
            (Param::Scalar { name, .. }, ResolvedArg::Scalar(v)) => {
                if let HostValue::Int(i) = v {
                    scalar_env.insert(name.clone(), *i);
                }
                // Fold into the shared scalar environment.
                let canon_name = match canon_scalars.get(name) {
                    Some(existing) if values_equal(existing, v) => name.clone(),
                    None => {
                        canon_scalars.insert(name.clone(), *v);
                        name.clone()
                    }
                    Some(_) => {
                        let fresh = format!("{name}_m{member_idx}");
                        canon_scalars.insert(fresh.clone(), *v);
                        fresh
                    }
                };
                if canon_name != *name {
                    visit::rename_var(&mut body, name, &canon_name);
                }
            }
            _ => {
                return Err(CanonError(format!(
                    "argument kind mismatch for `{}` of `{}`",
                    p.name(),
                    kernel.name
                )))
            }
        }
    }
    // Two-phase array rename through unique placeholders, in case an actual
    // array name collides with another parameter name.
    for (i, (from, _)) in array_rename.iter().enumerate() {
        visit::rename_array(&mut body, from, &format!("__tmp_arr_{i}"));
    }
    for (i, (_, to)) in array_rename.iter().enumerate() {
        visit::rename_array(&mut body, &format!("__tmp_arr_{i}"), to);
    }

    // 2. Canonicalize mapping variables.
    let roles = sf_analysis::roles::RoleMap::infer(&body);
    let mut mapping_renames: Vec<(String, &str)> = Vec::new();
    for s in &body {
        if let Stmt::VarDecl {
            name,
            init: Some(e),
            ..
        } = s
        {
            // Only direct mapping declarations (contain a builtin).
            let mut has_builtin = false;
            visit::walk_expr(e, &mut |n| {
                if matches!(n, Expr::Builtin(_)) {
                    has_builtin = true;
                }
            });
            if !has_builtin {
                continue;
            }
            match roles.classify(e) {
                Some(sf_analysis::roles::Role::GlobalX { off: 0 }) => {
                    mapping_renames.push((name.clone(), "i"));
                }
                Some(sf_analysis::roles::Role::GlobalY { off: 0 }) => {
                    mapping_renames.push((name.clone(), "j"));
                }
                Some(sf_analysis::roles::Role::TidX { off: 0 }) => {
                    mapping_renames.push((name.clone(), "tx"));
                }
                Some(sf_analysis::roles::Role::TidY { off: 0 }) => {
                    mapping_renames.push((name.clone(), "ty"));
                }
                _ => {}
            }
        }
    }
    let mapping_var_names: Vec<String> =
        mapping_renames.iter().map(|(n, _)| n.clone()).collect();
    for (from, to) in &mapping_renames {
        if from != to {
            visit::rename_var(&mut body, from, to);
        }
    }
    // Drop the mapping declarations (the fused prologue declares them).
    body.retain(|s| {
        !matches!(s, Stmt::VarDecl { name, .. }
            if mapping_var_names.contains(name)
            || ["i", "j", "tx", "ty"].contains(&name.as_str()))
    });

    // 3. Suffix-rename all remaining locals and loop variables.
    let mut local_names: Vec<String> = Vec::new();
    visit::walk_stmts(&body, &mut |s| match s {
        Stmt::VarDecl { name, .. }
            if !local_names.contains(name)
                && !["i", "j", "tx", "ty"].contains(&name.as_str()) =>
        {
            local_names.push(name.clone());
        }
        Stmt::For { var, .. } if !local_names.contains(var) => {
            local_names.push(var.clone());
        }
        _ => {}
    });
    for name in &local_names {
        visit::rename_var(&mut body, name, &format!("{name}_m{member_idx}"));
    }

    // 4. Evaluate guard bounds.
    let launch_x = (launch.grid.x as i64) * (launch.block.x as i64);
    let launch_y = (launch.grid.y as i64) * (launch.block.y as i64);
    let eval_b = |b: &Option<sf_analysis::access::Bnd>, default: i64| -> Result<i64, CanonError> {
        match b {
            Some(b) => Ok(b.eval(&scalar_env)?),
            None => Ok(default),
        }
    };
    let guard = EvalGuard {
        x_lo: eval_b(&ka_orig.guard.x_lo, 0)?.max(0),
        x_hi: eval_b(&ka_orig.guard.x_hi, launch_x)?.min(launch_x),
        y_lo: eval_b(&ka_orig.guard.y_lo, 0)?.max(0),
        y_hi: eval_b(&ka_orig.guard.y_hi, launch_y)?.min(launch_y),
    };

    // 5. Extract the single-sweep structure if the member has it.
    let mut hoisted = Vec::new();
    let structure = extract_structure(&body, &ka_orig, &scalar_env, member_idx, &mut hoisted)?;

    // Map the access analysis to actual array names for offset queries.
    let mut ka = ka_orig.clone();
    for sweep in &mut ka.sweeps {
        for acc in &mut sweep.accesses {
            if let Some((_, actual)) = array_rename.iter().find(|(p, _)| p == &acc.array) {
                acc.array = actual.clone();
            }
        }
    }

    Ok(CanonMember {
        seq: launch.seq,
        name: kernel.name.clone(),
        full_body: body,
        hoisted,
        structure,
        guard,
        arrays,
        ka,
        launch_x,
        launch_y,
    })
}

fn values_equal(a: &HostValue, b: &HostValue) -> bool {
    a.as_f64() == b.as_f64()
}

/// Extract `decls... if (guard) { for (k) { body } }` (plus tolerated decl
/// placement variants); anything else falls back.
fn extract_structure(
    body: &[Stmt],
    ka: &KernelAccess,
    scalar_env: &std::collections::HashMap<String, i64>,
    member_idx: usize,
    hoisted: &mut Vec<Stmt>,
) -> Result<MemberStructure, CanonError> {
    if ka.sweeps.len() != 1 || ka.sweeps[0].k_range.is_none() {
        return Ok(MemberStructure::Fallback);
    }
    let mut sweep_loop: Option<&Stmt> = None;
    let mut fallback = false;
    // Walk the top level, descending through the guard.
    fn scan<'a>(
        stmts: &'a [Stmt],
        hoisted: &mut Vec<Stmt>,
        sweep_loop: &mut Option<&'a Stmt>,
        fallback: &mut bool,
    ) {
        for s in stmts {
            match s {
                Stmt::VarDecl { .. } => hoisted.push(s.clone()),
                Stmt::SharedDecl { .. } => *fallback = true,
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    if !else_body.is_empty() {
                        *fallback = true;
                    } else {
                        scan(then_body, hoisted, sweep_loop, fallback);
                    }
                }
                Stmt::For { .. } => {
                    if sweep_loop.is_some() {
                        *fallback = true;
                    } else {
                        *sweep_loop = Some(s);
                    }
                }
                Stmt::Return => {}
                Stmt::Assign { .. } | Stmt::SyncThreads => *fallback = true,
            }
        }
    }
    scan(body, hoisted, &mut sweep_loop, &mut fallback);
    let Some(Stmt::For {
        var,
        init,
        cond,
        body: loop_body,
        ..
    }) = sweep_loop
    else {
        hoisted.clear();
        return Ok(MemberStructure::Fallback);
    };
    if fallback {
        hoisted.clear();
        return Ok(MemberStructure::Fallback);
    }
    // Hoisted declarations must not depend on the loop variable.
    for h in hoisted.iter() {
        let mut uses_k = false;
        if let Stmt::VarDecl { init: Some(e), .. } = h {
            visit::walk_expr(e, &mut |n| {
                if matches!(n, Expr::Var(v) if v == var) {
                    uses_k = true;
                }
            });
        }
        if uses_k {
            hoisted.clear();
            return Ok(MemberStructure::Fallback);
        }
    }
    // Evaluate literal k bounds. The access analysis ran before renaming,
    // so re-derive from the (renamed) loop header directly.
    let strip = |e: &Expr| -> Option<i64> {
        let b = sf_analysis::access::Bnd::parse(&unsuffix_expr(e, member_idx))?;
        b.eval(scalar_env).ok()
    };
    let (Some(k_lo), Some(k_hi)) = (strip(init), strip_upper(cond, var, member_idx, scalar_env))
    else {
        hoisted.clear();
        return Ok(MemberStructure::Fallback);
    };
    let mut sweep_body = loop_body.clone();
    visit::rename_var(&mut sweep_body, var, "k");

    let has_inner = {
        let mut found = false;
        visit::walk_stmts(&sweep_body, &mut |s| {
            if matches!(s, Stmt::For { .. }) {
                found = true;
            }
        });
        found
    };
    Ok(MemberStructure::SingleSweep {
        k_lo,
        k_hi,
        body: sweep_body,
        has_inner,
    })
}

/// Undo the `_m<idx>` scalar suffixing inside a bound expression so it can
/// be evaluated against the original scalar environment. (Only scalar
/// parameter names appear in bounds; they were renamed only on collision,
/// in which case their value is identical anyway.)
fn unsuffix_expr(e: &Expr, member_idx: usize) -> Expr {
    let suffix = format!("_m{member_idx}");
    let mut out = e.clone();
    visit::rewrite_expr(&mut out, &mut |n| match n {
        Expr::Var(v) if v.ends_with(&suffix) => {
            Some(Expr::Var(v[..v.len() - suffix.len()].to_string()))
        }
        _ => None,
    });
    out
}

fn strip_upper(
    cond: &Expr,
    var: &str,
    member_idx: usize,
    scalar_env: &std::collections::HashMap<String, i64>,
) -> Option<i64> {
    let Expr::Binary { op, lhs, rhs } = cond else {
        return None;
    };
    let Expr::Var(v) = &**lhs else { return None };
    if v != var {
        return None;
    }
    let mut b = sf_analysis::access::Bnd::parse(&unsuffix_expr(rhs, member_idx))?;
    match op {
        BinaryOp::Lt => {}
        BinaryOp::Le => b.off += 1,
        _ => return None,
    }
    b.eval(scalar_env).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::builder::{jacobi3d_kernel, simple_host};
    use sf_minicuda::host::ExecutablePlan;
    use sf_minicuda::Program;

    fn setup() -> (Program, ExecutablePlan) {
        let p = Program {
            kernels: vec![jacobi3d_kernel("step", "u", "v")],
            host: simple_host(
                &["a", "b"],
                &[("step", vec!["a", "b"])],
                (64, 32, 16),
                (16, 8),
            ),
        };
        let plan = ExecutablePlan::from_program(&p).unwrap();
        (p, plan)
    }

    #[test]
    fn binds_arrays_to_actuals() {
        let (p, plan) = setup();
        let mut env = BTreeMap::new();
        let m = canonicalize(&p.kernels[0], &plan.launches[0], 0, &mut env).unwrap();
        assert_eq!(m.arrays.len(), 2);
        assert_eq!(m.arrays[0].actual, "a");
        assert!(!m.arrays[0].written);
        assert_eq!(m.arrays[1].actual, "b");
        assert!(m.arrays[1].written);
        // Scalars folded into shared env.
        assert_eq!(env.len(), 3);
        assert!(matches!(env["nx"], HostValue::Int(64)));
    }

    #[test]
    fn extracts_single_sweep_with_literal_bounds() {
        let (p, plan) = setup();
        let mut env = BTreeMap::new();
        let m = canonicalize(&p.kernels[0], &plan.launches[0], 0, &mut env).unwrap();
        let MemberStructure::SingleSweep {
            k_lo,
            k_hi,
            body,
            has_inner,
        } = &m.structure
        else {
            panic!("expected single sweep, got {:?}", m.structure);
        };
        assert_eq!((*k_lo, *k_hi), (1, 15));
        assert!(!has_inner);
        assert_eq!(body.len(), 1);
        // Guard evaluated: interior of 64x32.
        assert_eq!(m.guard.x_lo, 1);
        assert_eq!(m.guard.x_hi, 63);
        assert_eq!(m.guard.y_lo, 1);
        assert_eq!(m.guard.y_hi, 31);
        // Sweep body references actual arrays and canonical vars.
        let mut txt = String::new();
        for s in body {
            txt.push_str(&sf_minicuda::printer::print_kernel(&Kernel {
                name: "t".into(),
                params: vec![],
                body: vec![s.clone()],
            }));
        }
        assert!(txt.contains("b[k][j][i]"));
        assert!(txt.contains("a[k][j][i]"));
    }

    #[test]
    fn scalar_collision_gets_member_suffix() {
        // Two launches of kernels that pass a coefficient with different
        // values under the same name.
        let src = r#"
__global__ void scale(double* a, int n, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[0][0][i] = c * 2.0; }
}
void host() {
  int n = 32;
  double* a = cudaAlloc3D(1, 1, n);
  scale<<<dim3(2, 1), dim3(16, 1)>>>(a, n, 0.5);
  scale<<<dim3(2, 1), dim3(16, 1)>>>(a, n, 0.75);
}
"#;
        let p = sf_minicuda::parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut env = BTreeMap::new();
        let _m0 = canonicalize(&p.kernels[0], &plan.launches[0], 0, &mut env).unwrap();
        let m1 = canonicalize(&p.kernels[0], &plan.launches[1], 1, &mut env).unwrap();
        assert!(env.contains_key("c"));
        assert!(env.contains_key("c_m1"));
        let txt = {
            let k = Kernel {
                name: "t".into(),
                params: vec![],
                body: m1.full_body.clone(),
            };
            sf_minicuda::printer::print_kernel(&k)
        };
        assert!(txt.contains("c_m1"), "{txt}");
    }

    #[test]
    fn guard_condition_omits_trivial_checks() {
        let g = EvalGuard {
            x_lo: 0,
            x_hi: 64,
            y_lo: 1,
            y_hi: 31,
        };
        let cond = g.condition(64, 32).unwrap();
        let txt = sf_minicuda::printer::print_expr(&cond);
        assert!(!txt.contains('i') || !txt.contains(">= 0"));
        assert!(txt.contains("j >= 1"));
        assert!(txt.contains("j < 31"));
        // Full-domain guard disappears entirely.
        let full = EvalGuard {
            x_lo: 0,
            x_hi: 64,
            y_lo: 0,
            y_hi: 32,
        };
        assert!(full.condition(64, 32).is_none());
    }
}

#[cfg(test)]
mod structure_tests {
    use super::*;
    use sf_minicuda::host::ExecutablePlan;

    /// Members with barriers or multiple sweeps must classify as Fallback.
    #[test]
    fn barrier_kernels_fall_back() {
        let src = r#"
__global__ void tiled(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  __shared__ double s[8][16];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  for (int k = 0; k < nz; k++) {
    s[threadIdx.y][threadIdx.x] = a[k][j][i];
    __syncthreads();
    b[k][j][i] = s[threadIdx.y][threadIdx.x] * 2.0;
  }
}
void host() {
  int nx = 16; int ny = 8; int nz = 4;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  tiled<<<dim3(1, 1), dim3(16, 8)>>>(a, b, nx, ny, nz);
}
"#;
        let p = sf_minicuda::parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut env = BTreeMap::new();
        let m = canonicalize(&p.kernels[0], &plan.launches[0], 0, &mut env).unwrap();
        assert_eq!(m.structure, MemberStructure::Fallback);
    }

    #[test]
    fn two_sweeps_fall_back() {
        let src = r#"
__global__ void two(const double* __restrict__ a, double* b, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { b[k][j][i] = a[k][j][i]; }
    for (int k = 0; k < nz; k++) { c[k][j][i] = a[k][j][i]; }
  }
}
void host() {
  int nx = 16; int ny = 8; int nz = 4;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  two<<<dim3(1, 1), dim3(16, 8)>>>(a, b, c, nx, ny, nz);
}
"#;
        let p = sf_minicuda::parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut env = BTreeMap::new();
        let m = canonicalize(&p.kernels[0], &plan.launches[0], 0, &mut env).unwrap();
        assert_eq!(m.structure, MemberStructure::Fallback);
    }

    #[test]
    fn deep_nest_classifies_single_sweep_with_inner() {
        let src = r#"
__global__ void deep(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      for (int l = 0; l < 3; l++) {
        b[l][k][j][i] = a[l][k][j][i];
      }
    }
  }
}
void host() {
  int nx = 16; int ny = 8; int nz = 4;
  double* a = cudaAlloc4D(3, nz, ny, nx);
  double* b = cudaAlloc4D(3, nz, ny, nx);
  deep<<<dim3(1, 1), dim3(16, 8)>>>(a, b, nx, ny, nz);
}
"#;
        let p = sf_minicuda::parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut env = BTreeMap::new();
        let m = canonicalize(&p.kernels[0], &plan.launches[0], 0, &mut env).unwrap();
        let MemberStructure::SingleSweep { has_inner, k_lo, k_hi, .. } = m.structure else {
            panic!("expected single sweep, got {:?}", m.structure);
        };
        assert!(has_inner);
        assert_eq!((k_lo, k_hi), (0, 4));
    }
}
