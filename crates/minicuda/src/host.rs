//! Host-side evaluation: resolving the `void host()` section into a concrete
//! execution plan (allocations with fixed extents, a launch trace with fixed
//! grid/block dimensions and bound arguments).
//!
//! The plan is what the simulator (`sf-gpusim`) executes and what the DDG /
//! OEG builders in `sf-graphs` consume: the paper's framework likewise scans
//! the host code for kernel invocations and device allocations.

use crate::ast::*;
use std::collections::HashMap;
use std::fmt;

/// An error produced while evaluating host code.
#[derive(Debug, Clone, PartialEq)]
pub struct HostEvalError(pub String);

impl fmt::Display for HostEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host evaluation error: {}", self.0)
    }
}

impl std::error::Error for HostEvalError {}

/// A host-side scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HostValue {
    /// Host integer constant.
    Int(i64),
    /// Host floating constant.
    Float(f64),
}

impl HostValue {
    /// Interpret as f64 (ints promote).
    pub fn as_f64(self) -> f64 {
        match self {
            HostValue::Int(v) => v as f64,
            HostValue::Float(v) => v,
        }
    }

    /// Interpret as i64; errors on non-integral floats.
    pub fn as_i64(self) -> Result<i64, HostEvalError> {
        match self {
            HostValue::Int(v) => Ok(v),
            HostValue::Float(v) => Err(HostEvalError(format!("expected integer, found float {v}"))),
        }
    }
}

/// A device array allocation with concrete extents (slowest-varying first).
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct AllocInfo {
    pub name: String,
    pub elem: ScalarType,
    pub extents: Vec<usize>,
}

impl AllocInfo {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.extents.iter().product()
    }

    /// True when the allocation has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.elem.size_bytes()
    }
}

/// The allocation holding instance `inst` of array `base` when a program's
/// redundant array instances (§3.2.3) are materialized: `x`, 3 → `x__i3`.
/// [`parse_instance`] reads it back.
pub fn instance_name(base: &str, inst: usize) -> String {
    format!("{base}__i{inst}")
}

/// The array and instance an [`instance_name`] names — `x__i3` →
/// `("x", 3)` — or `None` for any other name.
pub fn parse_instance(name: &str) -> Option<(&str, usize)> {
    let (base, inst) = name.rsplit_once("__i")?;
    if inst.is_empty() || !inst.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((base, inst.parse().ok()?))
}

/// A concrete `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// Construct a dim3.
    pub fn new(x: u32, y: u32, z: u32) -> Dim3 {
        Dim3 { x, y, z }
    }

    /// Total count (`x*y*z`).
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// A resolved launch argument.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedArg {
    /// Bound device array (by name into the plan's allocation table).
    Array(String),
    /// Concrete scalar value.
    Scalar(HostValue),
}

/// One resolved kernel invocation.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct LaunchRecord {
    /// Position of this launch in the static host order (used as the stable
    /// invocation id across the whole framework).
    pub seq: usize,
    pub kernel: String,
    pub grid: Dim3,
    pub block: Dim3,
    pub args: Vec<ResolvedArg>,
    /// How many times this static launch executes (product of enclosing
    /// host `Repeat` counts).
    pub repeat: u64,
}

impl LaunchRecord {
    /// Names of the array arguments, in parameter order.
    pub fn array_args(&self) -> Vec<&str> {
        self.args
            .iter()
            .filter_map(|a| match a {
                ResolvedArg::Array(n) => Some(n.as_str()),
                ResolvedArg::Scalar(_) => None,
            })
            .collect()
    }
}

/// A host-level data transfer event (creates precedence in the graphs).
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub enum TransferRecord {
    /// H2D copy arriving before launch with sequence `before_seq`.
    ToDevice { array: String, before_seq: usize },
    /// D2H copy occurring after launch with sequence `after_seq` launches.
    ToHost { array: String, after_seq: usize },
}

/// One host time loop recorded structurally: a top-level `Repeat` whose
/// body is launches only. Transform passes use these records to preserve
/// (or temporally fold) the loop instead of flattening it.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct LoopRecord {
    /// Loop variable name (for regenerating host code).
    pub var: String,
    /// Evaluated iteration count.
    pub count: u64,
    /// Static launch seqs of the loop body, in body order.
    pub seqs: Vec<usize>,
}

/// The host section resolved to concrete numbers: what the paper's metadata
/// gatherer extracts by "scanning host code".
#[derive(Debug, Clone, PartialEq, Default)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct ExecutablePlan {
    pub allocs: Vec<AllocInfo>,
    pub launches: Vec<LaunchRecord>,
    pub transfers: Vec<TransferRecord>,
    /// Final values of host scalars (useful for reporting).
    pub scalars: HashMap<String, HostValue>,
    /// Dynamic launch order: sequence of static launch ids (`seq`) in the
    /// order they execute, with host `Repeat` loops unrolled. Functional
    /// simulation follows this trace; timing uses `repeat` weights instead.
    pub trace: Vec<usize>,
    /// Structural records of top-level, launch-only host `Repeat` loops
    /// (the supported time-loop shape). One entry per such loop with a
    /// nonzero count, in host order.
    pub loops: Vec<LoopRecord>,
    /// True when the host contains a `Repeat` the structural records do
    /// not capture (nested loops, or loops carrying allocs/transfers).
    /// Transform passes must reject such programs rather than flatten them.
    pub opaque_loops: bool,
}

impl ExecutablePlan {
    /// Build a plan by evaluating the host section of a program.
    pub fn from_program(p: &Program) -> Result<ExecutablePlan, HostEvalError> {
        let mut plan = ExecutablePlan::default();
        let mut env: HashMap<String, HostValue> = HashMap::new();
        let trace = eval_host_stmts(&p.host, &mut env, &mut plan, 1, 0)?;
        plan.trace = trace;
        plan.scalars = env;
        Ok(plan)
    }

    /// Look up an allocation by name.
    pub fn alloc(&self, name: &str) -> Option<&AllocInfo> {
        self.allocs.iter().find(|a| a.name == name)
    }
}

fn eval_host_stmts(
    stmts: &[HostStmt],
    env: &mut HashMap<String, HostValue>,
    plan: &mut ExecutablePlan,
    repeat: u64,
    depth: u32,
) -> Result<Vec<usize>, HostEvalError> {
    let mut trace = Vec::new();
    for s in stmts {
        match s {
            HostStmt::LetInt { name, value } => {
                let v = eval_host_expr(value, env)?.as_i64()?;
                env.insert(name.clone(), HostValue::Int(v));
            }
            HostStmt::LetFloat { name, value } => {
                let v = eval_host_expr(value, env)?.as_f64();
                env.insert(name.clone(), HostValue::Float(v));
            }
            HostStmt::Alloc {
                name,
                elem,
                extents,
            } => {
                if plan.alloc(name).is_some() {
                    return Err(HostEvalError(format!("array `{name}` allocated twice")));
                }
                let mut ex = Vec::with_capacity(extents.len());
                for e in extents {
                    let v = eval_host_expr(e, env)?.as_i64()?;
                    if v <= 0 {
                        return Err(HostEvalError(format!(
                            "array `{name}` has non-positive extent {v}"
                        )));
                    }
                    ex.push(v as usize);
                }
                plan.allocs.push(AllocInfo {
                    name: name.clone(),
                    elem: *elem,
                    extents: ex,
                });
            }
            HostStmt::CopyToDevice { array } => {
                require_alloc(plan, array)?;
                plan.transfers.push(TransferRecord::ToDevice {
                    array: array.clone(),
                    before_seq: plan.launches.len(),
                });
            }
            HostStmt::CopyToHost { array } => {
                require_alloc(plan, array)?;
                plan.transfers.push(TransferRecord::ToHost {
                    array: array.clone(),
                    after_seq: plan.launches.len(),
                });
            }
            HostStmt::Launch {
                kernel,
                grid,
                block,
                args,
            } => {
                let grid = eval_dim3(grid, env)?;
                let block = eval_dim3(block, env)?;
                if block.count() == 0 || grid.count() == 0 {
                    return Err(HostEvalError(format!(
                        "launch of `{kernel}` has empty grid or block"
                    )));
                }
                if block.count() > 1024 {
                    return Err(HostEvalError(format!(
                        "launch of `{kernel}` exceeds 1024 threads per block ({})",
                        block.count()
                    )));
                }
                let mut resolved = Vec::with_capacity(args.len());
                for a in args {
                    resolved.push(match a {
                        LaunchArg::Array(n) => {
                            require_alloc(plan, n)?;
                            ResolvedArg::Array(n.clone())
                        }
                        LaunchArg::Scalar(e) => ResolvedArg::Scalar(eval_host_expr(e, env)?),
                    });
                }
                trace.push(plan.launches.len());
                plan.launches.push(LaunchRecord {
                    seq: plan.launches.len(),
                    kernel: kernel.clone(),
                    grid,
                    block,
                    args: resolved,
                    repeat,
                });
            }
            HostStmt::Repeat { var, count, body } => {
                let n = eval_host_expr(count, env)?.as_i64()?;
                if n < 0 {
                    return Err(HostEvalError(format!("negative repeat count {n}")));
                }
                let launch_only = body.iter().all(|s| matches!(s, HostStmt::Launch { .. }));
                let first_seq = plan.launches.len();
                let sub = eval_host_stmts(body, env, plan, repeat * n as u64, depth + 1)?;
                for _ in 0..n {
                    trace.extend_from_slice(&sub);
                }
                if depth == 0 && launch_only && n > 0 {
                    plan.loops.push(LoopRecord {
                        var: var.clone(),
                        count: n as u64,
                        seqs: (first_seq..plan.launches.len()).collect(),
                    });
                } else {
                    plan.opaque_loops = true;
                }
            }
        }
    }
    Ok(trace)
}

fn require_alloc(plan: &ExecutablePlan, name: &str) -> Result<(), HostEvalError> {
    if plan.alloc(name).is_none() {
        return Err(HostEvalError(format!(
            "array `{name}` used before allocation"
        )));
    }
    Ok(())
}

fn eval_dim3(d: &Dim3Expr, env: &HashMap<String, HostValue>) -> Result<Dim3, HostEvalError> {
    let f = |e: &Expr| -> Result<u32, HostEvalError> {
        let v = eval_host_expr(e, env)?.as_i64()?;
        if !(0..=u32::MAX as i64).contains(&v) {
            return Err(HostEvalError(format!("dim3 component {v} out of range")));
        }
        Ok(v as u32)
    };
    Ok(Dim3 {
        x: f(&d.x)?,
        y: f(&d.y)?,
        z: f(&d.z)?,
    })
}

/// Constant-fold a host expression against the host environment. Integer
/// arithmetic follows C semantics (truncating division).
pub fn eval_host_expr(
    e: &Expr,
    env: &HashMap<String, HostValue>,
) -> Result<HostValue, HostEvalError> {
    Ok(match e {
        Expr::Int(v) => HostValue::Int(*v),
        Expr::Float(v) => HostValue::Float(*v),
        Expr::Var(n) => *env
            .get(n)
            .ok_or_else(|| HostEvalError(format!("unknown host variable `{n}`")))?,
        Expr::Unary { op, operand } => {
            let v = eval_host_expr(operand, env)?;
            match (op, v) {
                (UnaryOp::Neg, HostValue::Int(v)) => HostValue::Int(
                    v.checked_neg()
                        .ok_or_else(|| HostEvalError("integer overflow".into()))?,
                ),
                (UnaryOp::Neg, HostValue::Float(v)) => HostValue::Float(-v),
                (UnaryOp::Not, HostValue::Int(v)) => HostValue::Int((v == 0) as i64),
                (UnaryOp::Not, HostValue::Float(_)) => {
                    return Err(HostEvalError("`!` on float".into()))
                }
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_host_expr(lhs, env)?;
            let r = eval_host_expr(rhs, env)?;
            match (l, r) {
                (HostValue::Int(a), HostValue::Int(b)) => {
                    let v = match op {
                        BinaryOp::Add => a.checked_add(b),
                        BinaryOp::Sub => a.checked_sub(b),
                        BinaryOp::Mul => a.checked_mul(b),
                        BinaryOp::Div => {
                            if b == 0 {
                                return Err(HostEvalError("division by zero".into()));
                            }
                            a.checked_div(b)
                        }
                        BinaryOp::Rem => {
                            if b == 0 {
                                return Err(HostEvalError("remainder by zero".into()));
                            }
                            a.checked_rem(b)
                        }
                        BinaryOp::Lt => Some((a < b) as i64),
                        BinaryOp::Le => Some((a <= b) as i64),
                        BinaryOp::Gt => Some((a > b) as i64),
                        BinaryOp::Ge => Some((a >= b) as i64),
                        BinaryOp::Eq => Some((a == b) as i64),
                        BinaryOp::Ne => Some((a != b) as i64),
                        BinaryOp::And => Some((a != 0 && b != 0) as i64),
                        BinaryOp::Or => Some((a != 0 || b != 0) as i64),
                    };
                    HostValue::Int(v.ok_or_else(|| HostEvalError("integer overflow".into()))?)
                }
                (l, r) => {
                    let (a, b) = (l.as_f64(), r.as_f64());
                    match op {
                        BinaryOp::Add => HostValue::Float(a + b),
                        BinaryOp::Sub => HostValue::Float(a - b),
                        BinaryOp::Mul => HostValue::Float(a * b),
                        BinaryOp::Div => HostValue::Float(a / b),
                        BinaryOp::Rem => HostValue::Float(a % b),
                        BinaryOp::Lt => HostValue::Int((a < b) as i64),
                        BinaryOp::Le => HostValue::Int((a <= b) as i64),
                        BinaryOp::Gt => HostValue::Int((a > b) as i64),
                        BinaryOp::Ge => HostValue::Int((a >= b) as i64),
                        BinaryOp::Eq => HostValue::Int((a == b) as i64),
                        BinaryOp::Ne => HostValue::Int((a != b) as i64),
                        BinaryOp::And | BinaryOp::Or => {
                            return Err(HostEvalError("logical op on float".into()))
                        }
                    }
                }
            }
        }
        Expr::Ternary {
            cond,
            then_val,
            else_val,
        } => {
            if eval_host_expr(cond, env)?.as_i64()? != 0 {
                eval_host_expr(then_val, env)?
            } else {
                eval_host_expr(else_val, env)?
            }
        }
        Expr::Call { fun, args } => {
            let vals: Vec<f64> = args
                .iter()
                .map(|a| eval_host_expr(a, env).map(HostValue::as_f64))
                .collect::<Result<_, _>>()?;
            let v = match fun {
                Intrinsic::Sqrt => vals[0].sqrt(),
                Intrinsic::Exp => vals[0].exp(),
                Intrinsic::Log => vals[0].ln(),
                Intrinsic::Fabs => vals[0].abs(),
                Intrinsic::Min => vals[0].min(vals[1]),
                Intrinsic::Max => vals[0].max(vals[1]),
                Intrinsic::Pow => vals[0].powf(vals[1]),
                Intrinsic::Fma => vals[0].mul_add(vals[1], vals[2]),
                Intrinsic::Sin => vals[0].sin(),
                Intrinsic::Cos => vals[0].cos(),
            };
            HostValue::Float(v)
        }
        Expr::Index { .. } | Expr::Builtin(_) => {
            return Err(HostEvalError(
                "array accesses and CUDA builtins are not valid in host expressions".into(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn plan(src: &str) -> ExecutablePlan {
        ExecutablePlan::from_program(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn instance_names_round_trip_and_nothing_else_parses() {
        assert_eq!(instance_name("x", 3), "x__i3");
        assert_eq!(parse_instance("x__i3"), Some(("x", 3)));
        assert_eq!(parse_instance("x__i"), None);
        assert_eq!(parse_instance("x__ix"), None);
        assert_eq!(parse_instance("a__i2__i0"), Some(("a__i2", 0)));
        assert_eq!(
            parse_instance(&instance_name("a__i2", 0)),
            Some(("a__i2", 0))
        );
        assert_eq!(parse_instance("x"), None);
        assert_eq!(parse_instance("x__tb"), None);
    }

    const BASE: &str = r#"
__global__ void k1(double* a, int n) { a[0] = 1.0; }
__global__ void k2(const double* __restrict__ a, double* b, int n) { b[0] = a[0]; }
"#;

    #[test]
    fn resolves_allocs_and_launches() {
        let p = plan(&format!(
            "{BASE}
void host() {{
  int nx = 64;
  double* a = cudaAlloc1D(nx);
  double* b = cudaAlloc1D(nx * 2);
  k1<<<dim3((nx + 31) / 32), 32>>>(a, nx);
  k2<<<2, 32>>>(a, b, nx);
}}"
        ));
        assert_eq!(p.allocs.len(), 2);
        assert_eq!(p.alloc("b").unwrap().extents, vec![128]);
        assert_eq!(p.launches.len(), 2);
        assert_eq!(p.launches[0].grid, Dim3::new(2, 1, 1));
        assert_eq!(p.launches[0].block, Dim3::new(32, 1, 1));
        assert_eq!(p.launches[1].array_args(), vec!["a", "b"]);
        assert_eq!(
            p.launches[0].args[1],
            ResolvedArg::Scalar(HostValue::Int(64))
        );
    }

    /// Integer overflow is an error wherever the host evaluates it:
    /// negation, `MIN * -1`, and `MIN / -1` or `MIN % -1`.
    #[test]
    fn host_integer_overflow_is_an_error() {
        let env = HashMap::from([
            ("m".to_string(), HostValue::Int(i64::MIN)),
            ("d".to_string(), HostValue::Int(-1)),
        ]);
        let var = |n: &str| Box::new(Expr::Var(n.into()));
        let neg = Expr::Unary {
            op: UnaryOp::Neg,
            operand: var("m"),
        };
        let binary = |op| Expr::Binary {
            op,
            lhs: var("m"),
            rhs: var("d"),
        };
        for e in [
            neg,
            binary(BinaryOp::Mul),
            binary(BinaryOp::Div),
            binary(BinaryOp::Rem),
        ] {
            let err = eval_host_expr(&e, &env).unwrap_err();
            assert_eq!(err.0, "integer overflow", "{e:?}");
        }
        let neg_d = Expr::Unary {
            op: UnaryOp::Neg,
            operand: var("d"),
        };
        assert_eq!(eval_host_expr(&neg_d, &env).unwrap(), HostValue::Int(1));
    }

    #[test]
    fn repeat_multiplies() {
        let p = plan(&format!(
            "{BASE}
void host() {{
  int n = 8;
  double* a = cudaAlloc1D(n);
  for (int t = 0; t < 5; t++) {{
    k1<<<1, 8>>>(a, n);
  }}
}}"
        ));
        assert_eq!(p.launches[0].repeat, 5);
        assert_eq!(p.trace, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn trace_interleaves_repeat_bodies() {
        let src = r#"
__global__ void k1(double* a, int n) { a[0] = 1.0; }
__global__ void k2(double* a, int n) { a[1] = 2.0; }
void host() {
  int n = 8;
  double* a = cudaAlloc1D(n);
  for (int t = 0; t < 2; t++) {
    k1<<<1, 8>>>(a, n);
    k2<<<1, 8>>>(a, n);
  }
}
"#;
        let p = plan(src);
        assert_eq!(p.trace, vec![0, 1, 0, 1]);
    }

    #[test]
    fn records_top_level_launch_only_loops() {
        let p = plan(&format!(
            "{BASE}
void host() {{
  int n = 8;
  double* a = cudaAlloc1D(n);
  double* b = cudaAlloc1D(n);
  k1<<<1, 8>>>(a, n);
  for (int t = 0; t < 4; t++) {{
    k2<<<1, 8>>>(a, b, n);
    k1<<<1, 8>>>(b, n);
  }}
}}"
        ));
        assert!(!p.opaque_loops);
        assert_eq!(
            p.loops,
            vec![LoopRecord {
                var: "t".into(),
                count: 4,
                seqs: vec![1, 2],
            }]
        );
        assert_eq!(p.launches[1].repeat, 4);
    }

    #[test]
    fn nested_or_mixed_loops_are_opaque() {
        let p = plan(&format!(
            "{BASE}
void host() {{
  int n = 8;
  double* a = cudaAlloc1D(n);
  for (int t = 0; t < 2; t++) {{
    for (int s = 0; s < 3; s++) {{
      k1<<<1, 8>>>(a, n);
    }}
  }}
}}"
        ));
        assert!(p.opaque_loops);
        // The inner loop is not top-level; nothing is recorded structurally.
        assert!(p.loops.is_empty());
        assert_eq!(p.launches[0].repeat, 6);

        let p = plan(&format!(
            "{BASE}
void host() {{
  int n = 8;
  double* a = cudaAlloc1D(n);
  for (int t = 0; t < 2; t++) {{
    int m = 4;
    k1<<<1, 8>>>(a, m);
  }}
}}"
        ));
        assert!(p.opaque_loops);
        assert!(p.loops.is_empty());
    }

    #[test]
    fn rejects_use_before_alloc() {
        let err = ExecutablePlan::from_program(
            &parse_program(&format!(
                "{BASE}
void host() {{
  k1<<<1, 8>>>(a, 8);
}}"
            ))
            .unwrap(),
        );
        // `a` was never allocated; parser classifies it as a scalar var, and
        // host eval rejects the unknown variable.
        assert!(err.is_err());
    }

    #[test]
    fn rejects_oversized_block() {
        let err = ExecutablePlan::from_program(
            &parse_program(&format!(
                "{BASE}
void host() {{
  double* a = cudaAlloc1D(8);
  k1<<<1, dim3(64, 32)>>>(a, 8);
}}"
            ))
            .unwrap(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn c_like_integer_division() {
        let p = plan(&format!(
            "{BASE}
void host() {{
  int n = 7;
  double* a = cudaAlloc1D((n + 3) / 4);
  k1<<<1, 8>>>(a, n);
}}"
        ));
        assert_eq!(p.alloc("a").unwrap().extents, vec![2]);
    }

    #[test]
    fn transfers_record_positions() {
        let p = plan(&format!(
            "{BASE}
void host() {{
  double* a = cudaAlloc1D(8);
  double* b = cudaAlloc1D(8);
  cudaMemcpyH2D(a);
  k2<<<1, 8>>>(a, b, 8);
  cudaMemcpyD2H(b);
}}"
        ));
        assert_eq!(
            p.transfers,
            vec![
                TransferRecord::ToDevice {
                    array: "a".into(),
                    before_seq: 0
                },
                TransferRecord::ToHost {
                    array: "b".into(),
                    after_seq: 1
                }
            ]
        );
    }
}
