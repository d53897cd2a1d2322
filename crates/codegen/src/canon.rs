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

use sf_analysis::access::{AccessError, KernelAccess, Sweep};
use sf_minicuda::ast::*;
use sf_minicuda::host::{HostValue, LaunchRecord, ResolvedArg};
use sf_minicuda::visit;
use std::collections::{BTreeMap, HashMap};

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

/// What a member's own launch fixes before any renaming: the access
/// analysis, the actual array each parameter binds, the evaluated guard
/// and the sweep shape. Canonicalization and the fusion legality facts
/// ([`crate::legality::MemberFacts`]) both start here, so the two cannot
/// disagree about a member.
#[derive(Debug)]
pub(crate) struct Binding<'a> {
    /// The access analysis of the original kernel (parameter names).
    pub(crate) ka: KernelAccess,
    /// `(parameter, actual array)` per array parameter, in parameter order.
    arrays: Vec<(&'a str, &'a str)>,
    pub(crate) guard: EvalGuard,
    /// The one vertical sweep, or `None` when the member can only be
    /// concatenated.
    pub(crate) sweep: Option<SweepShape>,
    launch_x: i64,
    launch_y: i64,
}

/// A single-sweep member's literal vertical range and whether its sweep
/// body nests another loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SweepShape {
    pub(crate) k_lo: i64,
    pub(crate) k_hi: i64,
    pub(crate) has_inner: bool,
}

impl Binding<'_> {
    /// The actual array a parameter binds.
    /// (A name no parameter carries stands for itself.)
    pub(crate) fn actual<'n>(&'n self, param: &'n str) -> &'n str {
        let bound = self.arrays.iter().find(|(p, _)| *p == param);
        bound.map_or(param, |(_, actual)| actual)
    }
}

/// Bind a member's launch: check the arguments against the parameters,
/// analyse the kernel, evaluate its guard and classify its sweep.
pub(crate) fn bind<'a>(
    kernel: &'a Kernel,
    launch: &'a LaunchRecord,
) -> Result<Binding<'a>, CanonError> {
    if kernel.params.len() != launch.args.len() {
        return Err(CanonError(format!(
            "launch of `{}` passes {} args for {} params",
            kernel.name,
            launch.args.len(),
            kernel.params.len()
        )));
    }
    let ka = KernelAccess::analyze(kernel)?;
    let mut scalar_env: HashMap<String, i64> = HashMap::new();
    let mut arrays = Vec::new();
    for (p, a) in kernel.params.iter().zip(&launch.args) {
        match (p, a) {
            (Param::Array { name, .. }, ResolvedArg::Array(actual)) => {
                arrays.push((name.as_str(), actual.as_str()));
            }
            (Param::Scalar { name, .. }, ResolvedArg::Scalar(v)) => {
                if let HostValue::Int(i) = v {
                    scalar_env.insert(name.clone(), *i);
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
    let launch_x = (launch.grid.x as i64) * (launch.block.x as i64);
    let launch_y = (launch.grid.y as i64) * (launch.block.y as i64);
    let eval_b = |b: &Option<sf_analysis::access::Bnd>, default: i64| -> Result<i64, CanonError> {
        match b {
            Some(b) => Ok(b.eval(&scalar_env)?),
            None => Ok(default),
        }
    };
    let guard = EvalGuard {
        x_lo: eval_b(&ka.guard.x_lo, 0)?.max(0),
        x_hi: eval_b(&ka.guard.x_hi, launch_x)?.min(launch_x),
        y_lo: eval_b(&ka.guard.y_lo, 0)?.max(0),
        y_hi: eval_b(&ka.guard.y_hi, launch_y)?.min(launch_y),
    };
    let sweep = sweep_shape(&kernel.body, &ka, &scalar_env);
    Ok(Binding {
        ka,
        arrays,
        guard,
        sweep,
        launch_x,
        launch_y,
    })
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
    let binding = bind(kernel, launch)?;
    Ok(canonicalize_bound(
        kernel,
        launch,
        binding,
        member_idx,
        canon_scalars,
    ))
}

/// [`canonicalize`] a member whose launch is already bound.
pub(crate) fn canonicalize_bound(
    kernel: &Kernel,
    launch: &LaunchRecord,
    binding: Binding<'_>,
    member_idx: usize,
    canon_scalars: &mut BTreeMap<String, HostValue>,
) -> CanonMember {
    let Binding {
        mut ka,
        arrays: bound,
        guard,
        sweep,
        launch_x,
        launch_y,
    } = binding;
    let mut body = kernel.body.clone();

    // 1. Bind arrays and scalars.
    let mut arrays: Vec<ArrayBind> = Vec::new();
    let written = visit::arrays_written(&kernel.body);
    for (p, a) in kernel.params.iter().zip(&launch.args) {
        match (p, a) {
            (Param::Array { name, .. }, ResolvedArg::Array(actual)) => {
                arrays.push(ArrayBind {
                    actual: actual.clone(),
                    written: written.contains(name),
                });
            }
            (Param::Scalar { name, .. }, ResolvedArg::Scalar(v)) => {
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
            _ => unreachable!("`bind` checked every argument's kind"),
        }
    }
    // Two-phase array rename through unique placeholders, in case an actual
    // array name collides with another parameter name.
    for (i, (from, _)) in bound.iter().enumerate() {
        visit::rename_array(&mut body, from, &format!("__tmp_arr_{i}"));
    }
    for (i, (_, to)) in bound.iter().enumerate() {
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
    let mapping_var_names: Vec<String> = mapping_renames.iter().map(|(n, _)| n.clone()).collect();
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
            if !local_names.contains(name) && !["i", "j", "tx", "ty"].contains(&name.as_str()) =>
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

    // 4. The single-sweep structure, as `bind` classified it on the
    //    original body: renaming and dropping declarations leave every
    //    statement's kind where it was, so the same loop is found again.
    let mut hoisted = Vec::new();
    let structure = match sweep {
        Some(SweepShape {
            k_lo,
            k_hi,
            has_inner,
        }) => {
            let mut decls = Vec::new();
            let Some(Stmt::For {
                var,
                body: loop_body,
                ..
            }) = find_sweep(&body, &mut decls)
            else {
                unreachable!("renaming keeps the sweep `bind` found")
            };
            hoisted = decls.into_iter().cloned().collect();
            let mut sweep_body = loop_body.clone();
            visit::rename_var(&mut sweep_body, var, "k");
            MemberStructure::SingleSweep {
                k_lo,
                k_hi,
                body: sweep_body,
                has_inner,
            }
        }
        None => MemberStructure::Fallback,
    };

    // Map the access analysis to actual array names for offset queries.
    for sweep in &mut ka.sweeps {
        for acc in &mut sweep.accesses {
            if let Some((_, actual)) = bound.iter().find(|(p, _)| *p == acc.array) {
                acc.array = actual.to_string();
            }
        }
    }

    CanonMember {
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
    }
}

fn values_equal(a: &HostValue, b: &HostValue) -> bool {
    a.as_f64() == b.as_f64()
}

/// Find `decls... if (guard) { for (k) { body } }` (plus tolerated decl
/// placement variants): the one vertical loop, with the declarations
/// around it pushed to `hoisted`. `None` for anything else — a second
/// loop, a statement outside the loop, an `else`, shared memory.
fn find_sweep<'a>(body: &'a [Stmt], hoisted: &mut Vec<&'a Stmt>) -> Option<&'a Stmt> {
    fn scan<'a>(
        stmts: &'a [Stmt],
        hoisted: &mut Vec<&'a Stmt>,
        sweep_loop: &mut Option<&'a Stmt>,
        fallback: &mut bool,
    ) {
        for s in stmts {
            match s {
                Stmt::VarDecl { .. } => hoisted.push(s),
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
    let mut sweep_loop = None;
    let mut fallback = false;
    scan(body, hoisted, &mut sweep_loop, &mut fallback);
    sweep_loop.filter(|_| !fallback)
}

/// Classify the original body: a single sweep whose bounds (as the access
/// analysis parsed them) evaluate and whose hoisted declarations do not
/// read the loop variable, or `None` (fallback).
fn sweep_shape(
    body: &[Stmt],
    ka: &KernelAccess,
    scalar_env: &HashMap<String, i64>,
) -> Option<SweepShape> {
    let [Sweep {
        k_range: Some((lo, hi)),
        ..
    }] = ka.sweeps.as_slice()
    else {
        return None;
    };
    let mut hoisted = Vec::new();
    let Stmt::For {
        var,
        body: loop_body,
        ..
    } = find_sweep(body, &mut hoisted)?
    else {
        unreachable!("`find_sweep` returns a loop")
    };
    // Hoisted declarations must not depend on the loop variable.
    for h in hoisted {
        let mut uses_k = false;
        if let Stmt::VarDecl { init: Some(e), .. } = h {
            visit::walk_expr(e, &mut |n| {
                if matches!(n, Expr::Var(v) if v == var) {
                    uses_k = true;
                }
            });
        }
        if uses_k {
            return None;
        }
    }
    let mut has_inner = false;
    visit::walk_stmts(loop_body, &mut |s| {
        if matches!(s, Stmt::For { .. }) {
            has_inner = true;
        }
    });
    Some(SweepShape {
        k_lo: lo.eval(scalar_env).ok()?,
        k_hi: hi.eval(scalar_env).ok()?,
        has_inner,
    })
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
        let MemberStructure::SingleSweep {
            has_inner,
            k_lo,
            k_hi,
            ..
        } = m.structure
        else {
            panic!("expected single sweep, got {:?}", m.structure);
        };
        assert!(has_inner);
        assert_eq!((k_lo, k_hi), (0, 4));
    }
}
