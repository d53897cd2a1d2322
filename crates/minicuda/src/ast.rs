//! Abstract syntax tree for the minicuda language.
//!
//! The AST is deliberately plain data (`Clone`, `PartialEq`) so the
//! transformation passes in `sf-codegen` can freely duplicate, splice and
//! rewrite subtrees, the way the paper's framework manipulates the ROSE AST.

/// A scalar (non-pointer) type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// 64-bit IEEE floating point (`double`). All paper experiments run in
    /// double precision.
    F64,
    /// 32-bit IEEE floating point (`float`).
    F32,
    /// 32-bit signed integer (`int`).
    I32,
}

impl ScalarType {
    /// Size of one element in bytes, as it occupies device memory.
    pub fn size_bytes(self) -> usize {
        match self {
            ScalarType::F64 => 8,
            ScalarType::F32 => 4,
            ScalarType::I32 => 4,
        }
    }

    /// The C spelling of the type.
    pub fn c_name(self) -> &'static str {
        match self {
            ScalarType::F64 => "double",
            ScalarType::F32 => "float",
            ScalarType::I32 => "int",
        }
    }
}

/// One of the three axes of a CUDA `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// The x axis (fastest-varying; warp dimension).
    X,
    /// The y axis.
    Y,
    /// The z axis.
    Z,
}

impl Axis {
    /// `x`, `y` or `z`.
    pub fn name(self) -> &'static str {
        match self {
            Axis::X => "x",
            Axis::Y => "y",
            Axis::Z => "z",
        }
    }

    /// All three axes in order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];
}

/// The CUDA built-in index variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `threadIdx.{x,y,z}`
    ThreadIdx(Axis),
    /// `blockIdx.{x,y,z}`
    BlockIdx(Axis),
    /// `blockDim.{x,y,z}`
    BlockDim(Axis),
    /// `gridDim.{x,y,z}`
    GridDim(Axis),
}

impl Builtin {
    /// The CUDA spelling, e.g. `threadIdx.x`.
    pub fn c_name(self) -> String {
        match self {
            Builtin::ThreadIdx(a) => format!("threadIdx.{}", a.name()),
            Builtin::BlockIdx(a) => format!("blockIdx.{}", a.name()),
            Builtin::BlockDim(a) => format!("blockDim.{}", a.name()),
            Builtin::GridDim(a) => format!("gridDim.{}", a.name()),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e`.
    Not,
}

/// Binary operators, including comparisons and logical connectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinaryOp {
    /// The C spelling of the operator.
    pub fn c_name(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::And => "&&",
            BinaryOp::Or => "||",
        }
    }

    /// True for `+ - * / %`.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem
        )
    }
}

/// The fixed set of math intrinsics callable from kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `sqrt(x)`
    Sqrt,
    /// `exp(x)`
    Exp,
    /// `log(x)` (natural logarithm)
    Log,
    /// `fabs(x)`
    Fabs,
    /// `min(a, b)` / `fmin`
    Min,
    /// `max(a, b)` / `fmax`
    Max,
    /// `pow(a, b)`
    Pow,
    /// `fma(a, b, c)` — fused multiply-add
    Fma,
    /// `sin(x)`
    Sin,
    /// `cos(x)`
    Cos,
}

impl Intrinsic {
    /// Look up an intrinsic by its C name.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "sqrt" => Intrinsic::Sqrt,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "fabs" => Intrinsic::Fabs,
            "min" | "fmin" => Intrinsic::Min,
            "max" | "fmax" => Intrinsic::Max,
            "pow" => Intrinsic::Pow,
            "fma" => Intrinsic::Fma,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            _ => return None,
        })
    }

    /// The C spelling.
    pub fn c_name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Fabs => "fabs",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Pow => "pow",
            Intrinsic::Fma => "fma",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
        }
    }

    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Min | Intrinsic::Max | Intrinsic::Pow => 2,
            Intrinsic::Fma => 3,
            _ => 1,
        }
    }

    /// Floating-point operation cost used by the FLOP counters; transcendental
    /// functions are charged a fixed multiple of an add, following the common
    /// convention used by roofline analyses.
    pub fn flop_cost(self) -> u64 {
        match self {
            Intrinsic::Min | Intrinsic::Max | Intrinsic::Fabs => 1,
            Intrinsic::Fma => 2,
            Intrinsic::Sqrt => 4,
            Intrinsic::Exp | Intrinsic::Log | Intrinsic::Sin | Intrinsic::Cos | Intrinsic::Pow => 8,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Float(f64),
    /// Reference to a scalar variable or parameter.
    Var(String),
    /// Multidimensional array access `a[e0][e1]...`; `array` may name a
    /// device array parameter or a `__shared__` tile.
    Index { array: String, indices: Vec<Expr> },
    /// A CUDA built-in such as `threadIdx.x`.
    Builtin(Builtin),
    /// Unary operation.
    Unary { op: UnaryOp, operand: Box<Expr> },
    /// Binary operation.
    Binary {
        op: BinaryOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Intrinsic call.
    Call { fun: Intrinsic, args: Vec<Expr> },
    /// Ternary conditional `c ? a : b`.
    Ternary {
        cond: Box<Expr>,
        then_val: Box<Expr>,
        else_val: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for a binary expression.
    pub fn bin(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience constructor for an index expression.
    pub fn idx(array: impl Into<String>, indices: Vec<Expr>) -> Expr {
        Expr::Index {
            array: array.into(),
            indices,
        }
    }
}

/// Compound-assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
}

impl AssignOp {
    /// The C spelling.
    pub fn c_name(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
            AssignOp::SubAssign => "-=",
            AssignOp::MulAssign => "*=",
        }
    }
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum LValue {
    /// Scalar variable.
    Var(String),
    /// Array element.
    Index { array: String, indices: Vec<Expr> },
}

impl LValue {
    /// The name of the variable or array being written.
    pub fn base_name(&self) -> &str {
        match self {
            LValue::Var(n) => n,
            LValue::Index { array, .. } => array,
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Stmt {
    /// Local scalar declaration, e.g. `int i = blockIdx.x*blockDim.x+threadIdx.x;`.
    VarDecl {
        name: String,
        ty: ScalarType,
        init: Option<Expr>,
    },
    /// `__shared__ double s[A][B];` — a statically-sized shared-memory tile.
    SharedDecl {
        name: String,
        ty: ScalarType,
        extents: Vec<usize>,
    },
    /// Assignment or compound assignment.
    Assign {
        target: LValue,
        op: AssignOp,
        value: Expr,
    },
    /// `if (cond) { ... } else { ... }` (else branch may be empty).
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    /// `for (int v = init; v < bound; v += step)`-style loop. The condition
    /// and step are general expressions/statements in the grammar but are
    /// stored in this canonical shape, matching the loops the paper's static
    /// analysis supports.
    For {
        var: String,
        init: Expr,
        cond: Expr,
        /// The additive step applied to `var` each iteration (`v += step`).
        step: Expr,
        body: Vec<Stmt>,
    },
    /// `__syncthreads();`
    SyncThreads,
    /// `return;` — used by early-exit bounds guards.
    Return,
}

/// A kernel parameter: either a device array pointer or a scalar.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Param {
    /// `const double* __restrict__ a` / `double* a`.
    Array {
        name: String,
        elem: ScalarType,
        /// `true` when declared `const` (read-only within the kernel).
        is_const: bool,
    },
    /// `int nx`, `double dt`, ...
    Scalar { name: String, ty: ScalarType },
}

impl Param {
    /// The parameter's name.
    pub fn name(&self) -> &str {
        match self {
            Param::Array { name, .. } | Param::Scalar { name, .. } => name,
        }
    }

    /// Whether the parameter is a device array pointer.
    pub fn is_array(&self) -> bool {
        matches!(self, Param::Array { .. })
    }
}

/// A `__global__` kernel definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// The kernel's name (unique within a program).
    pub name: String,
    /// Parameters in declaration order (arrays and scalars interleaved).
    pub params: Vec<Param>,
    /// The kernel body.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Names of all array parameters, in declaration order.
    pub fn array_params(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter(|p| p.is_array())
            .map(|p| p.name())
            .collect()
    }

    /// Names of all scalar parameters, in declaration order.
    pub fn scalar_params(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter(|p| !p.is_array())
            .map(|p| p.name())
            .collect()
    }

    /// Look up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name() == name)
    }
}

/// A concrete or symbolic `dim3` used in a launch configuration; each
/// component is an expression over host variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Dim3Expr {
    /// The x component.
    pub x: Expr,
    /// The y component.
    pub y: Expr,
    /// The z component.
    pub z: Expr,
}

impl Dim3Expr {
    /// A `dim3` with all components given as literals.
    pub fn literal(x: i64, y: i64, z: i64) -> Dim3Expr {
        Dim3Expr {
            x: Expr::Int(x),
            y: Expr::Int(y),
            z: Expr::Int(z),
        }
    }
}

/// An argument in a kernel launch: the name of a host array or an integer /
/// float expression over host variables.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchArg {
    /// Pass a device array by name.
    Array(String),
    /// Pass a scalar value.
    Scalar(Expr),
}

/// A statement in the host section.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
// variant fields are self-describing
// Host sections are a handful of statements; boxing `Launch` to shrink the
// enum would complicate every construction and match site for no gain.
#[allow(clippy::large_enum_variant)]
pub enum HostStmt {
    /// `int nx = 1280;` — host integer constant.
    LetInt { name: String, value: Expr },
    /// `double dt = 0.1;` — host floating constant.
    LetFloat { name: String, value: Expr },
    /// `double* u = cudaAlloc3D(nz, ny, nx);` — device array allocation;
    /// extents are listed slowest-varying first (matching index order).
    Alloc {
        name: String,
        elem: ScalarType,
        extents: Vec<Expr>,
    },
    /// `cudaMemcpyH2D(u);` — marks a host-to-device transfer (DDG edge).
    CopyToDevice { array: String },
    /// `cudaMemcpyD2H(u);` — marks a device-to-host transfer (DDG edge).
    CopyToHost { array: String },
    /// `k<<<grid, block>>>(args...);`
    Launch {
        kernel: String,
        grid: Dim3Expr,
        block: Dim3Expr,
        args: Vec<LaunchArg>,
    },
    /// `for (int it = 0; it < steps; it += 1) { ... }` — host-side time loop.
    Repeat {
        var: String,
        count: Expr,
        body: Vec<HostStmt>,
    },
}

/// A complete minicuda translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Kernel definitions, in source order.
    pub kernels: Vec<Kernel>,
    /// The `void host()` section (empty when the program has none).
    pub host: Vec<HostStmt>,
}

impl Program {
    /// Look up a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Total IR statement count: every kernel-body statement (recursing
    /// through `if`/`for` bodies) plus every host statement (recursing
    /// through `Repeat` bodies). This is the program's IR-size measure for
    /// resource governance — a compile bomb is rejected on this number
    /// before any analysis walks the tree.
    pub fn statement_count(&self) -> u64 {
        fn device(body: &[Stmt]) -> u64 {
            body.iter()
                .map(|s| {
                    1 + match s {
                        Stmt::If {
                            then_body,
                            else_body,
                            ..
                        } => device(then_body) + device(else_body),
                        Stmt::For { body, .. } => device(body),
                        _ => 0,
                    }
                })
                .sum()
        }
        fn host(body: &[HostStmt]) -> u64 {
            body.iter()
                .map(|s| {
                    1 + match s {
                        HostStmt::Repeat { body, .. } => host(body),
                        _ => 0,
                    }
                })
                .sum()
        }
        self.kernels.iter().map(|k| device(&k.body)).sum::<u64>() + host(&self.host)
    }

    /// All launches in host order, flattening `Repeat` bodies once (i.e. the
    /// static launch sequence, not the dynamic trace).
    pub fn static_launches(&self) -> Vec<&HostStmt> {
        fn walk<'a>(stmts: &'a [HostStmt], out: &mut Vec<&'a HostStmt>) {
            for s in stmts {
                match s {
                    HostStmt::Launch { .. } => out.push(s),
                    HostStmt::Repeat { body, .. } => walk(body, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.host, &mut out);
        out
    }
}
