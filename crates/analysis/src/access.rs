//! Sweep / access-pattern extraction and the DRAM traffic model.
//!
//! This module is the analytical heart of the reproduction. It recovers the
//! paper's *operations metadata* from a kernel AST — stencil offsets per
//! array, guard bounds, loop sizes, access strides — and derives from it a
//! per-block DRAM footprint:
//!
//! - A **sweep** is one execution of a top-level vertical loop (or the
//!   loop-free statements of a planar kernel). On-chip memory (shared
//!   memory tiles, cache) is assumed to capture all reuse *within* a sweep
//!   — which is what optimized stencil kernels achieve with rolling-plane
//!   buffering — while data does *not* survive from one sweep to the next.
//! - DRAM traffic for a launch is therefore: for every block and every
//!   sweep, the number of unique array elements touched (bounding box of
//!   the stencil-shifted block tile), times element size; reads and writes
//!   accounted separately.
//!
//! This model is exactly what makes the paper's mechanisms visible: fusing
//! two kernels that share an array into one sweep halves that array's
//! traffic; generating the fusion as two back-to-back sweeps (the paper's
//! deep-nested-loop code-generation deficiency, §6.2.2) does not.

use crate::roles::{Role, RoleMap};
use sf_minicuda::ast::*;
use sf_minicuda::host::{AllocInfo, Dim3, HostValue, LaunchRecord, ResolvedArg};
use std::collections::HashMap;
use std::fmt;

/// An analysis error (unsupported construct for the stencil class).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessError(pub String);

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "access analysis error: {}", self.0)
    }
}

impl std::error::Error for AccessError {}

/// An affine bound `base + off` where `base` is a scalar kernel parameter
/// (or absent for constants).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct Bnd {
    pub base: Option<String>,
    pub off: i64,
}

impl Bnd {
    /// A constant bound.
    pub fn constant(v: i64) -> Bnd {
        Bnd { base: None, off: v }
    }

    /// A `param + off` bound.
    pub fn param(name: &str, off: i64) -> Bnd {
        Bnd {
            base: Some(name.to_string()),
            off,
        }
    }

    /// Evaluate against concrete scalar parameter values.
    pub fn eval(&self, scalars: &HashMap<String, i64>) -> Result<i64, AccessError> {
        match &self.base {
            None => Ok(self.off),
            Some(n) => scalars
                .get(n)
                .map(|v| v + self.off)
                .ok_or_else(|| AccessError(format!("unbound scalar `{n}` in bound"))),
        }
    }

    /// Parse an expression of the form `c`, `n`, `n + c`, `n - c`, `c + n`.
    pub fn parse(e: &Expr) -> Option<Bnd> {
        match e {
            Expr::Int(c) => Some(Bnd::constant(*c)),
            Expr::Var(n) => Some(Bnd::param(n, 0)),
            Expr::Binary {
                op: BinaryOp::Add,
                lhs,
                rhs,
            } => match (&**lhs, &**rhs) {
                (Expr::Var(n), Expr::Int(c)) | (Expr::Int(c), Expr::Var(n)) => {
                    Some(Bnd::param(n, *c))
                }
                _ => None,
            },
            Expr::Binary {
                op: BinaryOp::Sub,
                lhs,
                rhs,
            } => match (&**lhs, &**rhs) {
                (Expr::Var(n), Expr::Int(c)) => Some(Bnd::param(n, -*c)),
                _ => None,
            },
            _ => None,
        }
    }
}

impl fmt::Display for Bnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.base, self.off) {
            (None, c) => write!(f, "{c}"),
            (Some(n), 0) => write!(f, "{n}"),
            (Some(n), c) if c > 0 => write!(f, "{n}+{c}"),
            (Some(n), c) => write!(f, "{n}{c}"),
        }
    }
}

/// The iteration base an array index is affine in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IdxBase {
    /// Global x thread index.
    X,
    /// Global y thread index.
    Y,
    /// The sweep's vertical loop variable.
    Vert,
    /// An inner loop variable (deep nests), by name.
    Inner(String),
    /// Block-local `threadIdx.x`.
    TidX,
    /// Block-local `threadIdx.y`.
    TidY,
    /// A constant index (boundary planes).
    Const,
    /// Unclassifiable — analyzed conservatively as touching the whole axis.
    Unknown,
}

/// One classified index position: `base + off`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct IdxPat {
    pub base: IdxBase,
    pub off: i64,
}

/// All accesses to one array within one sweep, as a stencil-offset summary.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct ArrayAccess {
    /// Kernel parameter name of the array.
    pub array: String,
    /// One index pattern per array axis (length = rank at the access site).
    pub pats: Vec<IdxPat>,
    /// Write (assignment target) vs read.
    pub is_write: bool,
    /// Region guard in effect at the access site (inner guards inside the
    /// sweep body, e.g. per-segment guards of fused kernels), *relative to*
    /// the sweep guard. Empty (default) = whole sweep domain.
    pub region: Guard,
}

/// An inner (non-vertical) loop within a sweep.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct InnerLoop {
    pub var: String,
    pub lo: Bnd,
    pub hi: Bnd,
}

/// One sweep: a top-level vertical loop execution, or the loop-free
/// statements of a planar kernel (then `k_range` is `None`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sweep {
    /// Guard bounds in effect for this sweep (the enclosing interior
    /// guard(s) at its nesting point).
    pub guard: Guard,
    /// Vertical loop range `[lo, hi)`, if the sweep has a vertical loop.
    pub k_range: Option<(Bnd, Bnd)>,
    /// Inner loops (deep nests) appearing in this sweep.
    pub inner_loops: Vec<InnerLoop>,
    /// Individual classified accesses.
    pub accesses: Vec<ArrayAccess>,
    /// Whether the sweep contains a `__syncthreads()` barrier.
    pub has_barrier: bool,
    /// Floating-point operations executed per (x, y) site and per vertical
    /// iteration (inner-loop multiplicities included).
    pub flops_per_site: u64,
}

/// Rectangular guard bounds on the global x/y indices; absent bounds mean
/// the full launch extent.
#[derive(Debug, Clone, PartialEq, Default)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct Guard {
    pub x_lo: Option<Bnd>,
    pub x_hi: Option<Bnd>,
    pub y_lo: Option<Bnd>,
    pub y_hi: Option<Bnd>,
    /// Vertical bounds, from region guards like `k >= 2 && k < 14` inside
    /// fused sweeps (absent on ordinary kernel-level guards).
    pub k_lo: Option<Bnd>,
    pub k_hi: Option<Bnd>,
}

impl Guard {
    /// The loosest bound covering both guards (used for the kernel-level
    /// summary when a kernel has several guarded regions).
    pub fn union(&self, other: &Guard) -> Guard {
        fn lo(a: &Option<Bnd>, b: &Option<Bnd>) -> Option<Bnd> {
            match (a, b) {
                (Some(x), Some(y)) if x == y => Some(x.clone()),
                // Differing or absent lower bounds: fall back to 0 (loosest).
                _ => None,
            }
        }
        fn hi(a: &Option<Bnd>, b: &Option<Bnd>) -> Option<Bnd> {
            match (a, b) {
                (Some(x), Some(y)) if x == y => Some(x.clone()),
                _ => None,
            }
        }
        Guard {
            x_lo: lo(&self.x_lo, &other.x_lo),
            x_hi: hi(&self.x_hi, &other.x_hi),
            y_lo: lo(&self.y_lo, &other.y_lo),
            y_hi: hi(&self.y_hi, &other.y_hi),
            k_lo: lo(&self.k_lo, &other.k_lo),
            k_hi: hi(&self.k_hi, &other.k_hi),
        }
    }

    /// Intersect (narrow) with another guard — nested guards compose.
    pub fn intersect(&self, other: &Guard) -> Guard {
        fn pick(a: &Option<Bnd>, b: &Option<Bnd>) -> Option<Bnd> {
            // With at most one guard level per member in the supported
            // class, simply prefer the inner (more specific) bound.
            b.clone().or_else(|| a.clone())
        }
        Guard {
            x_lo: pick(&self.x_lo, &other.x_lo),
            x_hi: pick(&self.x_hi, &other.x_hi),
            y_lo: pick(&self.y_lo, &other.y_lo),
            y_hi: pick(&self.y_hi, &other.y_hi),
            k_lo: pick(&self.k_lo, &other.k_lo),
            k_hi: pick(&self.k_hi, &other.k_hi),
        }
    }
}

/// A `__shared__` tile declaration summary.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct SharedTile {
    pub name: String,
    pub bytes: usize,
}

/// The complete access summary of one kernel.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct KernelAccess {
    pub kernel: String,
    pub guard: Guard,
    pub sweeps: Vec<Sweep>,
    pub shared_tiles: Vec<SharedTile>,
    /// Count of local scalar declarations (input to the register estimate).
    pub local_decls: usize,
}

impl KernelAccess {
    /// Static shared memory per block, in bytes.
    pub fn smem_bytes_per_block(&self) -> usize {
        self.shared_tiles.iter().map(|t| t.bytes).sum()
    }

    /// Analyze a kernel.
    pub fn analyze(kernel: &Kernel) -> Result<KernelAccess, AccessError> {
        let mut roles = RoleMap::infer(&kernel.body);
        let array_params: Vec<String> = kernel
            .array_params()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = KernelAccess {
            kernel: kernel.name.clone(),
            guard: Guard::default(),
            sweeps: Vec::new(),
            shared_tiles: Vec::new(),
            local_decls: 0,
        };
        let floats = float_locals(&kernel.body);
        // Register pressure counts every local declaration, wherever it
        // sits in the nest.
        sf_minicuda::visit::walk_stmts(&kernel.body, &mut |st| {
            if matches!(st, Stmt::VarDecl { .. }) {
                out.local_decls += 1;
            }
        });
        walk_sweep_level(
            &kernel.body,
            &mut roles,
            &array_params,
            &floats,
            &mut out,
            &Guard::default(),
        )?;
        // Kernel-level guard summary: exact when all sweeps agree, loosest
        // cover otherwise (kernels produced by fallback concatenation have
        // several independently-guarded regions).
        if let Some(first) = out.sweeps.first() {
            let mut g = first.guard.clone();
            for s in &out.sweeps[1..] {
                g = g.union(&s.guard);
            }
            out.guard = g;
        }
        Ok(out)
    }
}

/// Walk statements at sweep level (outside any vertical loop), carrying
/// the guard bounds in effect. Each guarded region's planar statements form
/// their own flat sweep; vertical loops become sweeps with the enclosing
/// guard.
fn walk_sweep_level(
    stmts: &[Stmt],
    roles: &mut RoleMap,
    arrays: &[String],
    floats: &std::collections::HashSet<String>,
    out: &mut KernelAccess,
    guard: &Guard,
) -> Result<(), AccessError> {
    let mut flat = Sweep {
        guard: guard.clone(),
        ..Sweep::default()
    };
    for s in stmts {
        match s {
            Stmt::VarDecl { .. } => {
                // Roles were inferred up front; register pressure was
                // counted in `analyze`.
            }
            Stmt::SharedDecl { name, ty, extents } => {
                out.shared_tiles.push(SharedTile {
                    name: name.clone(),
                    bytes: extents.iter().product::<usize>() * ty.size_bytes(),
                });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if else_body.is_empty() {
                    if let Some(g) = parse_guard(cond, roles) {
                        let merged = guard.intersect(&g);
                        walk_sweep_level(then_body, roles, arrays, floats, out, &merged)?;
                        continue;
                    }
                }
                // Not a recognizable guard: analyze both branches as flat
                // statements (conservative).
                collect_in_sweep(
                    std::slice::from_ref(s),
                    roles,
                    arrays,
                    floats,
                    &mut flat,
                    &[],
                )?;
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                if *step != Expr::Int(1) {
                    return Err(AccessError(format!(
                        "non-unit vertical loop step in `{}`",
                        out.kernel
                    )));
                }
                let lo = Bnd::parse(init).ok_or_else(|| {
                    AccessError(format!("unsupported loop bound in `{}`", out.kernel))
                })?;
                let hi = parse_upper_bound(var, cond).ok_or_else(|| {
                    AccessError(format!("unsupported loop cond in `{}`", out.kernel))
                })?;
                roles.set_vert(var);
                let mut sweep = Sweep {
                    guard: guard.clone(),
                    k_range: Some((lo, hi)),
                    ..Sweep::default()
                };
                collect_in_sweep(body, roles, arrays, floats, &mut sweep, &[])?;
                roles.unset(var);
                out.sweeps.push(sweep);
            }
            Stmt::Assign { .. } => {
                collect_in_sweep(
                    std::slice::from_ref(s),
                    roles,
                    arrays,
                    floats,
                    &mut flat,
                    &[],
                )?;
            }
            Stmt::SyncThreads => {
                flat.has_barrier = true;
            }
            Stmt::Return => {}
        }
    }
    if !flat.accesses.is_empty() || flat.flops_per_site > 0 {
        out.sweeps.push(flat);
    }
    Ok(())
}

/// Parse `var < bound` / `var <= bound` into an exclusive upper bound.
fn parse_upper_bound(var: &str, cond: &Expr) -> Option<Bnd> {
    let Expr::Binary { op, lhs, rhs } = cond else {
        return None;
    };
    let Expr::Var(v) = &**lhs else { return None };
    if v != var {
        return None;
    }
    let mut b = Bnd::parse(rhs)?;
    match op {
        BinaryOp::Lt => Some(b),
        BinaryOp::Le => {
            b.off += 1;
            Some(b)
        }
        _ => None,
    }
}

/// Collect accesses, inner loops, barriers and flops inside a sweep body.
/// `inner_stack` carries enclosing inner-loop multiplicity context.
fn collect_in_sweep(
    stmts: &[Stmt],
    roles: &mut RoleMap,
    arrays: &[String],
    floats: &std::collections::HashSet<String>,
    sweep: &mut Sweep,
    inner_stack: &[String],
) -> Result<(), AccessError> {
    collect_in_region(
        stmts,
        roles,
        arrays,
        floats,
        sweep,
        inner_stack,
        &Guard::default(),
    )
}

/// Like [`collect_in_sweep`] but carrying the region guard (per-segment
/// guards inside fused sweeps clip the accesses they cover).
#[allow(clippy::too_many_arguments)]
fn collect_in_region(
    stmts: &[Stmt],
    roles: &mut RoleMap,
    arrays: &[String],
    floats: &std::collections::HashSet<String>,
    sweep: &mut Sweep,
    inner_stack: &[String],
    region: &Guard,
) -> Result<(), AccessError> {
    for s in stmts {
        match s {
            Stmt::VarDecl { name: _, ty, init } => {
                if *ty == ScalarType::I32 {
                    if let Some(e) = init {
                        if let Some(r) = roles.classify(e) {
                            // Derived index variable inside the sweep.
                            let _ = r;
                            roles.scan(std::slice::from_ref(s));
                        }
                    }
                }
                if let Some(e) = init {
                    collect_expr(e, roles, arrays, sweep, region)?;
                    sweep.flops_per_site +=
                        expr_flops(e, floats) * inner_multiplicity(sweep, inner_stack);
                }
            }
            Stmt::SharedDecl { .. } => {
                return Err(AccessError(
                    "shared tiles must be declared at kernel top level".into(),
                ));
            }
            Stmt::Assign { target, op, value } => {
                if let LValue::Index { array, indices } = target {
                    if arrays.contains(array) {
                        let pats = indices.iter().map(|i| classify_index(i, roles)).collect();
                        sweep.accesses.push(ArrayAccess {
                            array: array.clone(),
                            pats,
                            is_write: true,
                            region: region.clone(),
                        });
                        // Compound assignment also reads the target.
                        if *op != AssignOp::Assign {
                            let pats = indices.iter().map(|i| classify_index(i, roles)).collect();
                            sweep.accesses.push(ArrayAccess {
                                array: array.clone(),
                                pats,
                                is_write: false,
                                region: region.clone(),
                            });
                        }
                    }
                    for i in indices {
                        collect_expr(i, roles, arrays, sweep, region)?;
                    }
                }
                collect_expr(value, roles, arrays, sweep, region)?;
                let mult = inner_multiplicity(sweep, inner_stack);
                sweep.flops_per_site += (expr_flops(value, floats)
                    + if *op != AssignOp::Assign { 1 } else { 0 })
                    * mult;
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                collect_expr(cond, roles, arrays, sweep, region)?;
                // A recognizable guard narrows the region for its branch;
                // anything else (and any else branch) keeps the parent.
                let narrowed = if else_body.is_empty() {
                    parse_guard(cond, roles).map(|g| region.intersect(&g))
                } else {
                    None
                };
                let then_region = narrowed.as_ref().unwrap_or(region);
                collect_in_region(
                    then_body,
                    roles,
                    arrays,
                    floats,
                    sweep,
                    inner_stack,
                    then_region,
                )?;
                collect_in_region(else_body, roles, arrays, floats, sweep, inner_stack, region)?;
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                if *step != Expr::Int(1) {
                    return Err(AccessError("non-unit inner loop step".into()));
                }
                let lo = Bnd::parse(init)
                    .ok_or_else(|| AccessError("unsupported inner loop bound".into()))?;
                let hi = parse_upper_bound(var, cond)
                    .ok_or_else(|| AccessError("unsupported inner loop cond".into()))?;
                roles.set_inner(var);
                sweep.inner_loops.push(InnerLoop {
                    var: var.clone(),
                    lo,
                    hi,
                });
                let mut stack = inner_stack.to_vec();
                stack.push(var.clone());
                collect_in_region(body, roles, arrays, floats, sweep, &stack, region)?;
                roles.unset(var);
            }
            Stmt::SyncThreads => sweep.has_barrier = true,
            Stmt::Return => {}
        }
    }
    Ok(())
}

/// Multiplicity contributed by the enclosing inner loops, when their trip
/// counts are compile-time constants; symbolic trip counts contribute a
/// nominal factor (their effect on flops shows up again at evaluation time
/// through the traffic model, so precision here only shifts the roofline).
fn inner_multiplicity(sweep: &Sweep, stack: &[String]) -> u64 {
    let mut m = 1u64;
    for var in stack {
        if let Some(l) = sweep.inner_loops.iter().find(|l| &l.var == var) {
            if l.lo.base.is_none() && l.hi.base.is_none() {
                m *= (l.hi.off - l.lo.off).max(1) as u64;
            } else {
                m *= 8; // nominal factor for symbolic inner loops
            }
        }
    }
    m
}

/// Collect global-array reads inside an expression, tagged with the region
/// guard in effect at the statement.
fn collect_expr(
    e: &Expr,
    roles: &RoleMap,
    arrays: &[String],
    sweep: &mut Sweep,
    region: &Guard,
) -> Result<(), AccessError> {
    let mut err = None;
    sf_minicuda::visit::walk_expr(e, &mut |node| {
        if err.is_some() {
            return;
        }
        if let Expr::Index { array, indices } = node {
            if arrays.contains(array) {
                let pats = indices.iter().map(|i| classify_index(i, roles)).collect();
                sweep.accesses.push(ArrayAccess {
                    array: array.clone(),
                    pats,
                    is_write: false,
                    region: region.clone(),
                });
            }
        }
    });
    match err.take() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Names of all float-typed local variables in a kernel body
/// (flow-insensitive; minicuda kernels do not shadow).
pub fn float_locals(body: &[Stmt]) -> std::collections::HashSet<String> {
    let mut out = std::collections::HashSet::new();
    sf_minicuda::visit::walk_stmts(body, &mut |s| {
        if let Stmt::VarDecl { name, ty, .. } = s {
            if matches!(ty, ScalarType::F64 | ScalarType::F32) {
                out.insert(name.clone());
            }
        }
    });
    out
}

/// Floating-point operations in an expression, counted type-aware: integer
/// index arithmetic is free; only operations on floating operands count
/// (array elements, float literals, float locals, intrinsic results).
/// Returns the flop count; see [`expr_flops_typed`] for the float-ness too.
pub fn expr_flops(e: &Expr, floats: &std::collections::HashSet<String>) -> u64 {
    expr_flops_typed(e, floats).0
}

/// Type-aware flop counting: returns `(flops, is_float)`.
pub fn expr_flops_typed(e: &Expr, floats: &std::collections::HashSet<String>) -> (u64, bool) {
    match e {
        Expr::Int(_) | Expr::Builtin(_) => (0, false),
        Expr::Float(_) => (0, true),
        Expr::Var(n) => (0, floats.contains(n)),
        // Array elements are floating data; index arithmetic is free.
        Expr::Index { .. } => (0, true),
        Expr::Unary { op, operand } => {
            let (f, is_f) = expr_flops_typed(operand, floats);
            match op {
                UnaryOp::Neg if is_f => (f + 1, true),
                UnaryOp::Neg => (f, false),
                UnaryOp::Not => (f, false),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let (lf, l_is) = expr_flops_typed(lhs, floats);
            let (rf, r_is) = expr_flops_typed(rhs, floats);
            let is_f = l_is || r_is;
            if op.is_arithmetic() && is_f {
                (lf + rf + 1, true)
            } else if op.is_arithmetic() {
                (lf + rf, false)
            } else {
                // Comparisons / logic: operand flops count, result is int.
                (lf + rf, false)
            }
        }
        Expr::Call { fun, args } => {
            let f: u64 = args.iter().map(|a| expr_flops_typed(a, floats).0).sum();
            (f + fun.flop_cost(), true)
        }
        Expr::Ternary {
            cond,
            then_val,
            else_val,
        } => {
            let (cf, _) = expr_flops_typed(cond, floats);
            let (tf, t_is) = expr_flops_typed(then_val, floats);
            let (ef, e_is) = expr_flops_typed(else_val, floats);
            (cf + tf + ef, t_is || e_is)
        }
    }
}

/// Classify an index expression into a pattern.
pub fn classify_index(e: &Expr, roles: &RoleMap) -> IdxPat {
    if let Expr::Int(c) = e {
        return IdxPat {
            base: IdxBase::Const,
            off: *c,
        };
    }
    match roles.classify(e) {
        Some(Role::GlobalX { off }) => IdxPat {
            base: IdxBase::X,
            off,
        },
        Some(Role::GlobalY { off }) => IdxPat {
            base: IdxBase::Y,
            off,
        },
        Some(Role::Vert { off }) => IdxPat {
            base: IdxBase::Vert,
            off,
        },
        Some(Role::Inner { var, off }) => IdxPat {
            base: IdxBase::Inner(var),
            off,
        },
        Some(Role::TidX { off }) => IdxPat {
            base: IdxBase::TidX,
            off,
        },
        Some(Role::TidY { off }) => IdxPat {
            base: IdxBase::TidY,
            off,
        },
        None => IdxPat {
            base: IdxBase::Unknown,
            off: 0,
        },
    }
}

/// Parse a conjunction of x/y comparisons into a guard.
fn parse_guard(cond: &Expr, roles: &RoleMap) -> Option<Guard> {
    let mut leaves = Vec::new();
    flatten_and(cond, &mut leaves);
    let mut g = Guard::default();
    for leaf in leaves {
        let Expr::Binary { op, lhs, rhs } = leaf else {
            return None;
        };
        let role = match &**lhs {
            Expr::Var(n) => roles.get(n).cloned()?,
            _ => return None,
        };
        let mut b = Bnd::parse(rhs)?;
        #[derive(Clone, Copy)]
        enum AxisKind {
            X,
            Y,
            K,
        }
        let (axis, var_off) = match role {
            Role::GlobalX { off } => (AxisKind::X, off),
            Role::GlobalY { off } => (AxisKind::Y, off),
            Role::Vert { off } => (AxisKind::K, off),
            _ => return None,
        };
        // (v + var_off) OP bound  ⇒  v OP bound - var_off
        b.off -= var_off;
        let set_hi = |g: &mut Guard, b: Bnd| match axis {
            AxisKind::X => g.x_hi = Some(b),
            AxisKind::Y => g.y_hi = Some(b),
            AxisKind::K => g.k_hi = Some(b),
        };
        let set_lo = |g: &mut Guard, b: Bnd| match axis {
            AxisKind::X => g.x_lo = Some(b),
            AxisKind::Y => g.y_lo = Some(b),
            AxisKind::K => g.k_lo = Some(b),
        };
        match op {
            BinaryOp::Lt => set_hi(&mut g, b),
            BinaryOp::Le => set_hi(
                &mut g,
                Bnd {
                    off: b.off + 1,
                    ..b
                },
            ),
            BinaryOp::Ge => set_lo(&mut g, b),
            BinaryOp::Gt => set_lo(
                &mut g,
                Bnd {
                    off: b.off + 1,
                    ..b
                },
            ),
            _ => return None,
        }
    }
    Some(g)
}

fn flatten_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary {
            op: BinaryOp::And,
            lhs,
            rhs,
        } => {
            flatten_and(lhs, out);
            flatten_and(rhs, out);
        }
        other => out.push(other),
    }
}

// ---------------------------------------------------------------------
// Traffic model
// ---------------------------------------------------------------------

/// Per-launch traffic breakdown (bytes for a single execution of the
/// launch; multiply by `repeat` for aggregate numbers).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Traffic {
    /// Total DRAM read bytes for one execution.
    pub read_bytes: u64,
    /// Total DRAM write bytes for one execution.
    pub write_bytes: u64,
    /// Per actual-array (read, write) bytes.
    pub per_array: HashMap<String, (u64, u64)>,
    /// Total floating-point operations.
    pub flops: u64,
    /// Total iteration sites (x × y × k summed over sweeps) — used by the
    /// boundary-kernel filter.
    pub sites: u64,
}

impl Traffic {
    /// Total DRAM bytes.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// Scalar bindings (param name → value) of one launch.
pub type ScalarBindings = HashMap<String, i64>;
/// Array bindings (param name → actual device array) of one launch.
pub type ArrayBindings = HashMap<String, String>;

/// Bind one launch's arguments to kernel parameters: scalar values and
/// param-name → actual-array mappings.
pub fn bind_launch(
    kernel: &Kernel,
    args: &[ResolvedArg],
) -> Result<(ScalarBindings, ArrayBindings), AccessError> {
    if kernel.params.len() != args.len() {
        return Err(AccessError(format!(
            "launch of `{}` passes {} args for {} params",
            kernel.name,
            args.len(),
            kernel.params.len()
        )));
    }
    let mut scalars = HashMap::new();
    let mut arrays = HashMap::new();
    for (p, a) in kernel.params.iter().zip(args) {
        match (p, a) {
            (Param::Array { name, .. }, ResolvedArg::Array(actual)) => {
                arrays.insert(name.clone(), actual.clone());
            }
            (Param::Scalar { name, .. }, ResolvedArg::Scalar(v)) => {
                if let HostValue::Int(i) = v {
                    scalars.insert(name.clone(), *i);
                }
            }
            _ => {
                return Err(AccessError(format!(
                    "argument kind mismatch for `{}` in launch of `{}`",
                    p.name(),
                    kernel.name
                )))
            }
        }
    }
    Ok((scalars, arrays))
}

/// Compute the DRAM traffic of one launch of an analyzed kernel: the
/// launch's arguments bound once ([`BoundTraffic::bind`]) and priced at its
/// own shape.
///
/// `alloc_of` resolves actual array names to allocation info.
pub fn launch_traffic(
    ka: &KernelAccess,
    kernel: &Kernel,
    launch: &LaunchRecord,
    alloc_of: &dyn Fn(&str) -> Option<AllocInfo>,
) -> Result<Traffic, AccessError> {
    Ok(BoundTraffic::bind(ka, kernel, &launch.args, alloc_of)?.traffic(launch.grid, launch.block))
}

/// The launch-shape-independent half of a launch's traffic: arguments
/// bound, guards, access regions, vertical and inner-loop ranges evaluated
/// and allocations resolved, once. What is left per shape is
/// [`BoundTraffic::at`], which prices any `(grid, block)` without
/// allocating — so a block tuner can price every candidate shape of one
/// kernel for the cost of a few loops over its blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundTraffic {
    /// Actual arrays the groups below charge, in first-touch order.
    arrays: Vec<String>,
    sweeps: Vec<BoundSweep>,
}

/// One sweep of a `BoundTraffic`.
#[derive(Debug, Clone, PartialEq)]
struct BoundSweep {
    /// Sweep guard on the global x / y index (absent bounds open).
    gx: (i64, i64),
    gy: (i64, i64),
    /// Vertical loop length; `None` for a planar sweep.
    k_extent: Option<i64>,
    flops_per_site: u64,
    groups: Vec<BoundGroup>,
}

/// The accesses of one sweep to one array in one direction.
#[derive(Debug, Clone, PartialEq)]
struct BoundGroup {
    /// Index into `BoundTraffic::arrays`.
    array: usize,
    is_write: bool,
    elem_bytes: u64,
    /// Some access's rank disagrees with the allocation: the whole array is
    /// charged once, whatever the shape.
    whole_bytes: Option<u64>,
    accs: Vec<BoundAccess>,
}

/// One access: one evaluated axis per array axis.
#[derive(Debug, Clone, PartialEq)]
struct BoundAccess {
    axes: Vec<BoundAxis>,
}

/// One index position of an access with everything shape-independent
/// evaluated: which base it is affine in (as a tag comparable across
/// accesses) and how its range follows from the block.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BoundAxis {
    tag: u32,
    extent: i64,
    range: AxisRange,
}

/// How one axis's range depends on the launch shape.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AxisRange {
    /// The block's x (y) tile, clipped to `window` (sweep guard ∩ access
    /// region), shifted by `off`.
    X {
        window: (i64, i64),
        off: i64,
    },
    Y {
        window: (i64, i64),
        off: i64,
    },
    /// `threadIdx.x (y) + off`: the block's extent, shifted.
    TidX(i64),
    TidY(i64),
    /// Independent of the shape (vertical, inner loop, constant, unknown).
    Fixed(i64, i64),
}

/// Base tags: an `IdxBase` as a number, inner loops numbered from
/// `TAG_INNER` in order of first appearance.
const TAG_X: u32 = 0;
const TAG_Y: u32 = 1;
const TAG_VERT: u32 = 2;
const TAG_TID_X: u32 = 3;
const TAG_TID_Y: u32 = 4;
const TAG_CONST: u32 = 5;
const TAG_UNKNOWN: u32 = 6;
const TAG_INNER: u32 = 7;

/// Shape-dependent totals of one launch: [`Traffic`] without the
/// per-array breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[allow(missing_docs)] // fields carry the names of `Traffic`'s
pub struct TrafficTotals {
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub flops: u64,
    pub sites: u64,
}

impl TrafficTotals {
    /// Total DRAM bytes.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

impl AxisRange {
    /// The axis range in block `(gx, gy)` of a `bx`×`by` block, clipped to
    /// the array.
    fn at(self, gx: i64, gy: i64, bx: i64, by: i64, extent: i64) -> (i64, i64) {
        let r = match self {
            AxisRange::X { window, off } => shift(clip((gx * bx, (gx + 1) * bx), window), off),
            AxisRange::Y { window, off } => shift(clip((gy * by, (gy + 1) * by), window), off),
            AxisRange::TidX(off) => (off, bx + off),
            AxisRange::TidY(off) => (off, by + off),
            AxisRange::Fixed(lo, hi) => (lo, hi),
        };
        clip(r, (0, extent))
    }
}

fn shift(r: (i64, i64), off: i64) -> (i64, i64) {
    (r.0 + off, r.1 + off)
}

impl BoundAccess {
    /// Whether the access touches anything in block `(gx, gy)`.
    fn active(&self, gx: i64, gy: i64, bx: i64, by: i64) -> bool {
        self.axes
            .iter()
            .all(|a| range_len(a.range.at(gx, gy, bx, by, a.extent)) > 0)
    }
}

impl BoundTraffic {
    /// Bind `args` (one launch's arguments) to `kernel`'s parameters and
    /// evaluate everything about its traffic the launch shape leaves fixed.
    pub fn bind(
        ka: &KernelAccess,
        kernel: &Kernel,
        args: &[ResolvedArg],
        alloc_of: &dyn Fn(&str) -> Option<AllocInfo>,
    ) -> Result<BoundTraffic, AccessError> {
        let (scalars, array_map) = bind_launch(kernel, args)?;
        let mut arrays: Vec<String> = Vec::new();
        let mut inner_names: Vec<&str> = Vec::new();
        let mut sweeps = Vec::with_capacity(ka.sweeps.len());
        for sweep in &ka.sweeps {
            let gx = (
                eval_opt(&sweep.guard.x_lo, &scalars, 0)?,
                eval_opt(&sweep.guard.x_hi, &scalars, i64::MAX)?,
            );
            let gy = (
                eval_opt(&sweep.guard.y_lo, &scalars, 0)?,
                eval_opt(&sweep.guard.y_hi, &scalars, i64::MAX)?,
            );
            let (k_lo, k_hi) = match &sweep.k_range {
                Some((lo, hi)) => (lo.eval(&scalars)?, hi.eval(&scalars)?),
                None => (0, 1),
            };
            // Accesses per (array, direction), in first-access order.
            let mut keyed: Vec<((&str, bool), Vec<&ArrayAccess>)> = Vec::new();
            for a in &sweep.accesses {
                let key = (a.array.as_str(), a.is_write);
                match keyed.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, accs)) => accs.push(a),
                    None => keyed.push((key, vec![a])),
                }
            }
            let mut groups = Vec::with_capacity(keyed.len());
            for ((param_array, is_write), accs) in keyed {
                let Some(actual) = array_map.get(param_array) else {
                    continue;
                };
                let Some(alloc) = alloc_of(actual) else {
                    return Err(AccessError(format!("unknown allocation `{actual}`")));
                };
                let array = match arrays.iter().position(|a| a == actual) {
                    Some(i) => i,
                    None => {
                        arrays.push(actual.clone());
                        arrays.len() - 1
                    }
                };
                let elem_bytes = alloc.elem.size_bytes() as u64;
                let rank = alloc.extents.len();
                let whole = accs.iter().any(|a| a.pats.len() != rank);
                let mut bound = Vec::with_capacity(accs.len());
                for a in &accs {
                    let region = |lo: &Option<Bnd>, hi: &Option<Bnd>| -> Result<_, AccessError> {
                        Ok((
                            eval_opt(lo, &scalars, i64::MIN / 4)?,
                            eval_opt(hi, &scalars, i64::MAX / 4)?,
                        ))
                    };
                    let rx = region(&a.region.x_lo, &a.region.x_hi)?;
                    let ry = region(&a.region.y_lo, &a.region.y_hi)?;
                    let rk = region(&a.region.k_lo, &a.region.k_hi)?;
                    if whole {
                        continue;
                    }
                    let mut axes = Vec::with_capacity(rank);
                    for (ax, pat) in a.pats.iter().enumerate() {
                        let extent = alloc.extents[ax] as i64;
                        let off = pat.off;
                        let (tag, range) = match &pat.base {
                            IdxBase::X => {
                                let window = (gx.0.max(rx.0), gx.1.min(rx.1));
                                (TAG_X, AxisRange::X { window, off })
                            }
                            IdxBase::Y => {
                                let window = (gy.0.max(ry.0), gy.1.min(ry.1));
                                (TAG_Y, AxisRange::Y { window, off })
                            }
                            IdxBase::Vert => {
                                let (lo, hi) = shift(clip((k_lo, k_hi), rk), off);
                                (TAG_VERT, AxisRange::Fixed(lo, hi))
                            }
                            IdxBase::Inner(v) => {
                                let tag = match inner_names.iter().position(|n| n == v) {
                                    Some(i) => i,
                                    None => {
                                        inner_names.push(v);
                                        inner_names.len() - 1
                                    }
                                };
                                let range = match sweep.inner_loops.iter().find(|l| &l.var == v) {
                                    Some(l) => {
                                        shift((l.lo.eval(&scalars)?, l.hi.eval(&scalars)?), off)
                                    }
                                    None => (0, extent),
                                };
                                (TAG_INNER + tag as u32, AxisRange::Fixed(range.0, range.1))
                            }
                            IdxBase::TidX => (TAG_TID_X, AxisRange::TidX(off)),
                            IdxBase::TidY => (TAG_TID_Y, AxisRange::TidY(off)),
                            IdxBase::Const => (TAG_CONST, AxisRange::Fixed(off, off + 1)),
                            IdxBase::Unknown => (TAG_UNKNOWN, AxisRange::Fixed(0, extent)),
                        };
                        axes.push(BoundAxis { tag, extent, range });
                    }
                    bound.push(BoundAccess { axes });
                }
                groups.push(BoundGroup {
                    array,
                    is_write,
                    elem_bytes,
                    whole_bytes: whole.then(|| alloc.len() as u64 * elem_bytes),
                    accs: bound,
                });
            }
            sweeps.push(BoundSweep {
                gx,
                gy,
                k_extent: sweep.k_range.as_ref().map(|_| (k_hi - k_lo).max(0)),
                flops_per_site: sweep.flops_per_site,
                groups,
            });
        }
        Ok(BoundTraffic { arrays, sweeps })
    }

    /// The vertical loop length of each sweep (0 for a planar sweep): the
    /// operations metadata's loop sizes.
    pub fn loop_sizes(&self) -> impl Iterator<Item = i64> + '_ {
        self.sweeps.iter().map(|s| s.k_extent.unwrap_or(0))
    }

    /// Total vertical iterations: the depth of the dependent-latency chain
    /// each thread walks.
    pub fn depth(&self) -> u64 {
        self.loop_sizes().map(|n| n as u64).sum()
    }

    /// The launch's totals under `grid` × `block`, without allocating.
    pub fn at(&self, grid: Dim3, block: Dim3) -> TrafficTotals {
        self.fold(grid, block, |_, _, _| {})
    }

    /// The full [`Traffic`] under `grid` × `block`, per-array breakdown
    /// included.
    pub fn traffic(&self, grid: Dim3, block: Dim3) -> Traffic {
        let mut per_array: HashMap<String, (u64, u64)> = HashMap::new();
        let totals = self.fold(grid, block, |array, is_write, bytes| {
            let entry = per_array
                .entry(self.arrays[array].clone())
                .or_insert((0, 0));
            if is_write {
                entry.1 += bytes;
            } else {
                entry.0 += bytes;
            }
        });
        Traffic {
            read_bytes: totals.read_bytes,
            write_bytes: totals.write_bytes,
            per_array,
            flops: totals.flops,
            sites: totals.sites,
        }
    }

    /// Sum every sweep's sites, flops and group bytes under `grid` ×
    /// `block`, handing each group's bytes to `each`.
    fn fold(
        &self,
        grid: Dim3,
        block: Dim3,
        mut each: impl FnMut(usize, bool, u64),
    ) -> TrafficTotals {
        let mut t = TrafficTotals::default();
        let z_blocks = grid.z as u64;
        let launch_x = block.x as i64 * grid.x as i64;
        let launch_y = block.y as i64 * grid.y as i64;
        for sweep in &self.sweeps {
            let site_x = range_len(clip((0, launch_x), sweep.gx));
            let site_y = range_len(clip((0, launch_y), sweep.gy));
            let k_extent = sweep.k_extent.unwrap_or(1);
            t.sites += (site_x * site_y) as u64 * k_extent as u64 * z_blocks;
            t.flops +=
                sweep.flops_per_site * (site_x * site_y) as u64 * k_extent.max(1) as u64 * z_blocks;
            for g in &sweep.groups {
                let bytes = match g.whole_bytes {
                    Some(bytes) => bytes,
                    None => g.elements(grid, block) * g.elem_bytes * z_blocks,
                };
                each(g.array, g.is_write, bytes);
                if g.is_write {
                    t.write_bytes += bytes;
                } else {
                    t.read_bytes += bytes;
                }
            }
        }
        t
    }
}

impl BoundGroup {
    /// Elements of the group's footprint summed over every (x, y) block:
    /// per block, the per-axis bounding box of the accesses touching it,
    /// an axis whose accesses disagree on their base widening to the whole
    /// axis.
    fn elements(&self, grid: Dim3, block: Dim3) -> u64 {
        let (bx, by) = (block.x as i64, block.y as i64);
        let rank = self.accs.first().map_or(0, |a| a.axes.len());
        let mut sum = 0u64;
        for gx in 0..grid.x as i64 {
            for gy in 0..grid.y as i64 {
                let mut elems: i64 = 1;
                for ax in 0..rank {
                    let mut envelope: Option<(u32, i64, i64)> = None;
                    for a in self.accs.iter().filter(|a| a.active(gx, gy, bx, by)) {
                        let axis = a.axes[ax];
                        let r = axis.range.at(gx, gy, bx, by, axis.extent);
                        envelope = Some(merge(envelope, axis, r));
                    }
                    elems *= envelope.map_or(0, |(_, lo, hi)| (hi - lo).max(0));
                    if elems == 0 {
                        break;
                    }
                }
                sum += elems.max(0) as u64;
            }
        }
        sum
    }
}

/// Widen a per-axis envelope by one access's range; an access with another
/// base widens it to the whole axis.
fn merge(envelope: Option<(u32, i64, i64)>, axis: BoundAxis, r: (i64, i64)) -> (u32, i64, i64) {
    match envelope {
        None => (axis.tag, r.0, r.1),
        Some((tag, _, _)) if tag != axis.tag => (TAG_UNKNOWN, 0, axis.extent),
        Some((tag, lo, hi)) => (tag, lo.min(r.0), hi.max(r.1)),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::builder::{jacobi3d_kernel, simple_host};
    use sf_minicuda::host::ExecutablePlan;
    use sf_minicuda::Program;

    fn jacobi_program() -> (Program, ExecutablePlan) {
        let p = Program {
            kernels: vec![jacobi3d_kernel("jacobi", "u", "v")],
            host: simple_host(
                &["u", "v"],
                &[("jacobi", vec!["u", "v"])],
                (64, 32, 32),
                (16, 8),
            ),
        };
        let plan = ExecutablePlan::from_program(&p).unwrap();
        (p, plan)
    }

    #[test]
    fn analyzes_jacobi_shape() {
        let (p, _) = jacobi_program();
        let ka = KernelAccess::analyze(&p.kernels[0]).unwrap();
        assert_eq!(ka.sweeps.len(), 1);
        let s = &ka.sweeps[0];
        assert!(s.k_range.is_some());
        // 7 reads of u + 1 write of v
        assert_eq!(s.accesses.iter().filter(|a| !a.is_write).count(), 7);
        assert_eq!(s.accesses.iter().filter(|a| a.is_write).count(), 1);
        assert_eq!(ka.guard.x_lo, Some(Bnd::constant(1)));
        assert_eq!(ka.guard.x_hi, Some(Bnd::param("nx", -1)));
        // 0.4*u + 0.1*(sum of 6) = 2 muls + 6 adds ... counted from the tree
        assert!(s.flops_per_site >= 8);
    }

    #[test]
    fn traffic_counts_tile_and_halo() {
        let (p, plan) = jacobi_program();
        let ka = KernelAccess::analyze(&p.kernels[0]).unwrap();
        let launch = &plan.launches[0];
        let alloc_of = |n: &str| plan.alloc(n).cloned();
        let t = launch_traffic(&ka, &p.kernels[0], launch, &alloc_of).unwrap();
        // Writes: interior of 64x32x32 = 62*30*30 elements * 8 bytes.
        assert_eq!(t.write_bytes, 62 * 30 * 30 * 8);
        // Reads: per block, tile+halo in x,y and k range [0,32) (k±1
        // clipped). Must exceed writes (halo overhead) but stay below 2x.
        assert!(t.read_bytes > t.write_bytes);
        assert!(t.read_bytes < 2 * t.write_bytes);
        assert_eq!(t.sites, 62 * 30 * 30);
        assert!(t.flops > 0);
    }

    #[test]
    fn planar_kernel_has_flat_sweep() {
        let src = r#"
__global__ void bc(double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    a[0][j][i] = 1.0;
    a[nz - 1][j][i] = 1.0;
  }
}
"#;
        // `nz - 1` is not a literal index; it classifies as Unknown on that
        // axis for the second store. The first store's k axis is Const 0.
        let k = sf_minicuda::parse_kernel(src).unwrap();
        let ka = KernelAccess::analyze(&k).unwrap();
        assert_eq!(ka.sweeps.len(), 1);
        assert!(ka.sweeps[0].k_range.is_none());
        assert_eq!(ka.sweeps[0].accesses.len(), 2);
    }

    #[test]
    fn deep_nest_inner_loop_extents() {
        let src = r#"
__global__ void deep(const double* __restrict__ q, double* r, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      for (int l = 0; l < 4; l++) {
        r[l][k][j][i] = q[l][k][j][i] * 2.0;
      }
    }
  }
}
"#;
        let k = sf_minicuda::parse_kernel(src).unwrap();
        let ka = KernelAccess::analyze(&k).unwrap();
        assert_eq!(ka.sweeps.len(), 1);
        let s = &ka.sweeps[0];
        assert_eq!(s.inner_loops.len(), 1);
        assert_eq!(s.inner_loops[0].var, "l");
        // flops: 1 mul × inner multiplicity 4
        assert_eq!(s.flops_per_site, 4);
        let acc = s.accesses.iter().find(|a| a.array == "q").unwrap();
        assert_eq!(acc.pats[0].base, IdxBase::Inner("l".into()));
        assert_eq!(acc.pats[1].base, IdxBase::Vert);
    }

    #[test]
    fn shared_tile_bytes() {
        let src = r#"
__global__ void t(double* a, int nx) {
  __shared__ double s[18][18];
  __shared__ double w[16];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  a[i] = 0.0;
}
"#;
        let k = sf_minicuda::parse_kernel(src).unwrap();
        let ka = KernelAccess::analyze(&k).unwrap();
        assert_eq!(ka.smem_bytes_per_block(), (18 * 18 + 16) * 8);
    }

    #[test]
    fn two_sweeps_double_count_shared_reads() {
        // The mechanism behind Fig. 6: the same array read in two separate
        // sweeps is charged twice; in a single sweep, once.
        let two = r#"
__global__ void two(const double* __restrict__ u, double* v, double* w, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { v[k][j][i] = u[k][j][i] * 2.0; }
    for (int k = 0; k < nz; k++) { w[k][j][i] = u[k][j][i] + 1.0; }
  }
}
"#;
        let one = r#"
__global__ void one(const double* __restrict__ u, double* v, double* w, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      v[k][j][i] = u[k][j][i] * 2.0;
      w[k][j][i] = u[k][j][i] + 1.0;
    }
  }
}
"#;
        let host = simple_host(
            &["u", "v", "w"],
            &[("two", vec!["u", "v", "w"])],
            (64, 32, 32),
            (16, 8),
        );
        let p2 = Program {
            kernels: vec![sf_minicuda::parse_kernel(two).unwrap()],
            host: host.clone(),
        };
        let mut host1 = host;
        for s in &mut host1 {
            if let sf_minicuda::ast::HostStmt::Launch { kernel, .. } = s {
                *kernel = "one".into();
            }
        }
        let p1 = Program {
            kernels: vec![sf_minicuda::parse_kernel(one).unwrap()],
            host: host1,
        };
        let plan2 = ExecutablePlan::from_program(&p2).unwrap();
        let plan1 = ExecutablePlan::from_program(&p1).unwrap();
        let ka2 = KernelAccess::analyze(&p2.kernels[0]).unwrap();
        let ka1 = KernelAccess::analyze(&p1.kernels[0]).unwrap();
        let t2 = launch_traffic(&ka2, &p2.kernels[0], &plan2.launches[0], &|n| {
            plan2.alloc(n).cloned()
        })
        .unwrap();
        let t1 = launch_traffic(&ka1, &p1.kernels[0], &plan1.launches[0], &|n| {
            plan1.alloc(n).cloned()
        })
        .unwrap();
        assert_eq!(t2.read_bytes, 2 * t1.read_bytes);
        assert_eq!(t2.write_bytes, t1.write_bytes);
    }
}

#[cfg(test)]
mod guard_algebra_tests {
    use super::*;

    fn g(x_lo: Option<i64>, x_hi: Option<i64>) -> Guard {
        Guard {
            x_lo: x_lo.map(Bnd::constant),
            x_hi: x_hi.map(Bnd::constant),
            ..Guard::default()
        }
    }

    #[test]
    fn union_keeps_only_agreeing_bounds() {
        let a = g(Some(1), Some(63));
        let b = g(Some(1), Some(62));
        let u = a.union(&b);
        assert_eq!(u.x_lo, Some(Bnd::constant(1))); // agree → kept
        assert_eq!(u.x_hi, None); // disagree → loosest (unbounded)
    }

    #[test]
    fn union_with_unbounded_is_unbounded() {
        let a = g(Some(2), Some(62));
        let b = g(None, None);
        let u = a.union(&b);
        assert_eq!(u.x_lo, None);
        assert_eq!(u.x_hi, None);
    }

    #[test]
    fn intersect_prefers_inner_bounds() {
        let outer = g(Some(1), Some(63));
        let inner = g(Some(2), None);
        let m = outer.intersect(&inner);
        assert_eq!(m.x_lo, Some(Bnd::constant(2)));
        assert_eq!(m.x_hi, Some(Bnd::constant(63)));
    }

    #[test]
    fn region_guards_with_vertical_bounds_parse() {
        // A fused-segment guard mixing x, y and k bounds.
        let src = r#"
__global__ void seg(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  for (int k = 0; k < 16; k++) {
    if (i >= 1 && i < 63 && j < 16 && k >= 2 && k < 14) {
      b[k][j][i] = a[k][j][i];
    }
  }
}
"#;
        let kernel = sf_minicuda::parse_kernel(src).unwrap();
        let ka = KernelAccess::analyze(&kernel).unwrap();
        let acc = ka.sweeps[0]
            .accesses
            .iter()
            .find(|a| a.is_write)
            .expect("write access");
        assert_eq!(acc.region.x_lo, Some(Bnd::constant(1)));
        assert_eq!(acc.region.k_lo, Some(Bnd::constant(2)));
        assert_eq!(acc.region.k_hi, Some(Bnd::constant(14)));
    }
}
