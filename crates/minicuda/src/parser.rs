//! Recursive-descent parser for minicuda.
//!
//! The grammar is a CUDA-C subset; see the crate docs for the supported
//! constructs. Expressions use precedence climbing with the standard C
//! precedence table (restricted to the operators minicuda supports).

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::token::{SpannedTok, Tok};

/// Recursive-descent parser over a token stream.
pub struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Names of device arrays allocated so far in the host section; used to
    /// classify launch arguments as arrays vs scalars.
    host_arrays: Vec<String>,
}

impl Parser {
    /// Create a parser over a lexed token stream (must end with `Tok::Eof`).
    pub fn new(toks: Vec<SpannedTok>) -> Parser {
        Parser {
            toks,
            pos: 0,
            host_arrays: Vec::new(),
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].tok
    }

    fn peek_at(&self, n: usize) -> &Tok {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].tok.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let t = &self.toks[self.pos.min(self.toks.len() - 1)];
        ParseError::new(msg, t.line, t.col).with_len(t.len)
    }

    fn expect(&mut self, want: Tok) -> Result<()> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                want.describe(),
                self.peek().describe()
            )))
        }
    }

    fn eat(&mut self, want: Tok) -> bool {
        if *self.peek() == want {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    /// Parse an entire translation unit.
    pub fn parse_program(mut self) -> Result<Program> {
        let mut kernels: Vec<Kernel> = Vec::new();
        let mut host = Vec::new();
        loop {
            match self.peek() {
                Tok::KwGlobal => {
                    let k = self.parse_kernel()?;
                    if kernels.iter().any(|e| e.name == k.name) {
                        return Err(self.err(format!("duplicate kernel definition `{}`", k.name)));
                    }
                    kernels.push(k);
                }
                Tok::KwVoid => {
                    host = self.parse_host()?;
                    // Host section must come last.
                    self.expect(Tok::Eof)?;
                    break;
                }
                Tok::Eof => break,
                other => {
                    return Err(self.err(format!(
                        "expected `__global__` kernel or `void host()`, found {}",
                        other.describe()
                    )))
                }
            }
        }
        Ok(Program { kernels, host })
    }

    /// Parse exactly one kernel and require EOF after it.
    pub fn parse_single_kernel(mut self) -> Result<Kernel> {
        let k = self.parse_kernel()?;
        self.expect(Tok::Eof)?;
        Ok(k)
    }

    // ------------------------------------------------------------------
    // Kernels
    // ------------------------------------------------------------------

    fn parse_kernel(&mut self) -> Result<Kernel> {
        self.expect(Tok::KwGlobal)?;
        self.expect(Tok::KwVoid)?;
        let name = self.expect_ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                params.push(self.parse_param()?);
                if self.eat(Tok::Comma) {
                    continue;
                }
                self.expect(Tok::RParen)?;
                break;
            }
        }
        let body = self.parse_block()?;
        Ok(Kernel { name, params, body })
    }

    fn parse_scalar_type(&mut self) -> Result<ScalarType> {
        match self.bump() {
            Tok::KwDouble => Ok(ScalarType::F64),
            Tok::KwFloat => Ok(ScalarType::F32),
            Tok::KwInt => Ok(ScalarType::I32),
            other => Err(self.err(format!("expected type, found {}", other.describe()))),
        }
    }

    fn parse_param(&mut self) -> Result<Param> {
        let is_const = self.eat(Tok::KwConst);
        let ty = self.parse_scalar_type()?;
        if self.eat(Tok::Star) {
            let _ = self.eat(Tok::KwRestrict);
            let name = self.expect_ident()?;
            Ok(Param::Array {
                name,
                elem: ty,
                is_const,
            })
        } else {
            if is_const {
                return Err(self.err("`const` scalar parameters are not supported"));
            }
            let name = self.expect_ident()?;
            Ok(Param::Scalar { name, ty })
        }
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(Tok::RBrace) {
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    /// A block `{ ... }` or a single statement (for `if`/`for` bodies).
    fn parse_block_or_stmt(&mut self) -> Result<Vec<Stmt>> {
        if *self.peek() == Tok::LBrace {
            self.parse_block()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        match self.peek().clone() {
            Tok::KwShared => self.parse_shared_decl(),
            Tok::KwDouble | Tok::KwFloat | Tok::KwInt => self.parse_var_decl(),
            Tok::KwIf => self.parse_if(),
            Tok::KwFor => self.parse_for(),
            Tok::KwSyncthreads => {
                self.bump();
                self.expect(Tok::LParen)?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::SyncThreads)
            }
            Tok::KwReturn => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return)
            }
            Tok::Ident(_) => {
                let s = self.parse_assign()?;
                self.expect(Tok::Semi)?;
                Ok(s)
            }
            other => Err(self.err(format!("expected statement, found {}", other.describe()))),
        }
    }

    fn parse_shared_decl(&mut self) -> Result<Stmt> {
        self.expect(Tok::KwShared)?;
        let ty = self.parse_scalar_type()?;
        let name = self.expect_ident()?;
        let mut extents = Vec::new();
        while self.eat(Tok::LBracket) {
            match self.bump() {
                Tok::Int(v) if v > 0 => extents.push(v as usize),
                other => {
                    return Err(self.err(format!(
                        "shared tile extents must be positive integer literals, found {}",
                        other.describe()
                    )))
                }
            }
            self.expect(Tok::RBracket)?;
        }
        if extents.is_empty() {
            return Err(self.err("shared tile must have at least one extent"));
        }
        self.expect(Tok::Semi)?;
        Ok(Stmt::SharedDecl { name, ty, extents })
    }

    fn parse_var_decl(&mut self) -> Result<Stmt> {
        let ty = self.parse_scalar_type()?;
        let name = self.expect_ident()?;
        let init = if self.eat(Tok::Assign) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(Stmt::VarDecl { name, ty, init })
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        self.expect(Tok::KwIf)?;
        self.expect(Tok::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(Tok::RParen)?;
        let then_body = self.parse_block_or_stmt()?;
        let else_body = if self.eat(Tok::KwElse) {
            if *self.peek() == Tok::KwIf {
                vec![self.parse_if()?]
            } else {
                self.parse_block_or_stmt()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn parse_for(&mut self) -> Result<Stmt> {
        self.expect(Tok::KwFor)?;
        self.expect(Tok::LParen)?;
        self.expect(Tok::KwInt)?;
        let var = self.expect_ident()?;
        self.expect(Tok::Assign)?;
        let init = self.parse_expr()?;
        self.expect(Tok::Semi)?;
        let cond = self.parse_expr()?;
        self.expect(Tok::Semi)?;
        let step = self.parse_for_step(&var)?;
        self.expect(Tok::RParen)?;
        let body = self.parse_block_or_stmt()?;
        Ok(Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        })
    }

    /// Accepts `v++`, `v += e`, and `v = v + e`; canonicalizes to the
    /// additive step expression.
    fn parse_for_step(&mut self, var: &str) -> Result<Expr> {
        let name = self.expect_ident()?;
        if name != var {
            return Err(self.err(format!(
                "for-loop step must update the loop variable `{var}`, found `{name}`"
            )));
        }
        match self.bump() {
            Tok::PlusPlus => Ok(Expr::Int(1)),
            Tok::PlusEq => self.parse_expr(),
            Tok::Assign => {
                // v = v + e
                let lhs = self.expect_ident()?;
                if lhs != var {
                    return Err(self.err("for-loop step must be of form `v = v + e`"));
                }
                self.expect(Tok::Plus)?;
                self.parse_expr()
            }
            other => Err(self.err(format!(
                "unsupported for-loop step, found {}",
                other.describe()
            ))),
        }
    }

    fn parse_assign(&mut self) -> Result<Stmt> {
        let name = self.expect_ident()?;
        let target = if *self.peek() == Tok::LBracket {
            let mut indices = Vec::new();
            while self.eat(Tok::LBracket) {
                indices.push(self.parse_expr()?);
                self.expect(Tok::RBracket)?;
            }
            LValue::Index {
                array: name,
                indices,
            }
        } else {
            LValue::Var(name)
        };
        let op = match self.bump() {
            Tok::Assign => AssignOp::Assign,
            Tok::PlusEq => AssignOp::AddAssign,
            Tok::MinusEq => AssignOp::SubAssign,
            Tok::StarEq => AssignOp::MulAssign,
            Tok::PlusPlus => {
                return Ok(Stmt::Assign {
                    target,
                    op: AssignOp::AddAssign,
                    value: Expr::Int(1),
                })
            }
            Tok::MinusMinus => {
                return Ok(Stmt::Assign {
                    target,
                    op: AssignOp::SubAssign,
                    value: Expr::Int(1),
                })
            }
            other => {
                return Err(self.err(format!(
                    "expected assignment operator, found {}",
                    other.describe()
                )))
            }
        };
        let value = self.parse_expr()?;
        Ok(Stmt::Assign { target, op, value })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    /// Parse a full expression (entry point also used by the host parser).
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<Expr> {
        let cond = self.parse_bin(0)?;
        if self.eat(Tok::Question) {
            let then_val = self.parse_ternary()?;
            self.expect(Tok::Colon)?;
            let else_val = self.parse_ternary()?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_val: Box::new(then_val),
                else_val: Box::new(else_val),
            })
        } else {
            Ok(cond)
        }
    }

    fn bin_op(tok: &Tok) -> Option<(BinaryOp, u8)> {
        Some(match tok {
            Tok::OrOr => (BinaryOp::Or, 1),
            Tok::AndAnd => (BinaryOp::And, 2),
            Tok::EqEq => (BinaryOp::Eq, 3),
            Tok::Ne => (BinaryOp::Ne, 3),
            Tok::Lt => (BinaryOp::Lt, 4),
            Tok::Le => (BinaryOp::Le, 4),
            Tok::Gt => (BinaryOp::Gt, 4),
            Tok::Ge => (BinaryOp::Ge, 4),
            Tok::Plus => (BinaryOp::Add, 5),
            Tok::Minus => (BinaryOp::Sub, 5),
            Tok::Star => (BinaryOp::Mul, 6),
            Tok::Slash => (BinaryOp::Div, 6),
            Tok::Percent => (BinaryOp::Rem, 6),
            _ => return None,
        })
    }

    fn parse_bin(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = Self::bin_op(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_bin(prec + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        match self.peek() {
            Tok::Minus => {
                self.bump();
                // Fold negation of literals so `-1.5` round-trips as a
                // negative literal rather than a unary node.
                Ok(match self.parse_unary()? {
                    Expr::Float(v) => Expr::Float(-v),
                    Expr::Int(v) => Expr::Int(-v),
                    operand => Expr::Unary {
                        op: UnaryOp::Neg,
                        operand: Box::new(operand),
                    },
                })
            }
            Tok::Not => {
                self.bump();
                Ok(Expr::Unary {
                    op: UnaryOp::Not,
                    operand: Box::new(self.parse_unary()?),
                })
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::LParen => {
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => self.parse_ident_expr(name),
            other => Err(self.err(format!("expected expression, found {}", other.describe()))),
        }
    }

    fn parse_ident_expr(&mut self, name: String) -> Result<Expr> {
        // Built-in index variables: `threadIdx.x` etc.
        let builtin_kind = matches!(
            name.as_str(),
            "threadIdx" | "blockIdx" | "blockDim" | "gridDim"
        );
        if builtin_kind {
            self.expect(Tok::Dot)?;
            let axis_name = self.expect_ident()?;
            let axis = match axis_name.as_str() {
                "x" => Axis::X,
                "y" => Axis::Y,
                "z" => Axis::Z,
                other => return Err(self.err(format!("unknown dim3 axis `{other}`"))),
            };
            let b = match name.as_str() {
                "threadIdx" => Builtin::ThreadIdx(axis),
                "blockIdx" => Builtin::BlockIdx(axis),
                "blockDim" => Builtin::BlockDim(axis),
                _ => Builtin::GridDim(axis),
            };
            return Ok(Expr::Builtin(b));
        }
        // Intrinsic call.
        if *self.peek() == Tok::LParen {
            let Some(fun) = Intrinsic::from_name(&name) else {
                return Err(self.err(format!("unknown function `{name}`")));
            };
            self.bump(); // (
            let mut args = Vec::new();
            if !self.eat(Tok::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if self.eat(Tok::Comma) {
                        continue;
                    }
                    self.expect(Tok::RParen)?;
                    break;
                }
            }
            if args.len() != fun.arity() {
                return Err(self.err(format!(
                    "`{name}` takes {} argument(s), got {}",
                    fun.arity(),
                    args.len()
                )));
            }
            return Ok(Expr::Call { fun, args });
        }
        // Array access.
        if *self.peek() == Tok::LBracket {
            let mut indices = Vec::new();
            while self.eat(Tok::LBracket) {
                indices.push(self.parse_expr()?);
                self.expect(Tok::RBracket)?;
            }
            return Ok(Expr::Index {
                array: name,
                indices,
            });
        }
        Ok(Expr::Var(name))
    }

    // ------------------------------------------------------------------
    // Host section
    // ------------------------------------------------------------------

    fn parse_host(&mut self) -> Result<Vec<HostStmt>> {
        self.expect(Tok::KwVoid)?;
        self.expect(Tok::KwHost)?;
        self.expect(Tok::LParen)?;
        self.expect(Tok::RParen)?;
        self.parse_host_block()
    }

    fn parse_host_block(&mut self) -> Result<Vec<HostStmt>> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(Tok::RBrace) {
            stmts.push(self.parse_host_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_host_stmt(&mut self) -> Result<HostStmt> {
        match self.peek().clone() {
            Tok::KwInt => {
                self.bump();
                let name = self.expect_ident()?;
                self.expect(Tok::Assign)?;
                let value = self.parse_expr()?;
                self.expect(Tok::Semi)?;
                Ok(HostStmt::LetInt { name, value })
            }
            Tok::KwDouble | Tok::KwFloat => {
                let ty = self.parse_scalar_type()?;
                if self.eat(Tok::Star) {
                    let name = self.expect_ident()?;
                    self.expect(Tok::Assign)?;
                    let alloc_fn = self.expect_ident()?;
                    let ndims = match alloc_fn.as_str() {
                        "cudaAlloc1D" => 1,
                        "cudaAlloc2D" => 2,
                        "cudaAlloc3D" => 3,
                        "cudaAlloc4D" => 4,
                        other => {
                            return Err(self.err(format!("expected cudaAllocND, found `{other}`")))
                        }
                    };
                    self.expect(Tok::LParen)?;
                    let mut extents = Vec::new();
                    loop {
                        extents.push(self.parse_expr()?);
                        if self.eat(Tok::Comma) {
                            continue;
                        }
                        self.expect(Tok::RParen)?;
                        break;
                    }
                    if extents.len() != ndims {
                        return Err(self.err(format!(
                            "`{alloc_fn}` takes {ndims} extents, got {}",
                            extents.len()
                        )));
                    }
                    self.expect(Tok::Semi)?;
                    self.host_arrays.push(name.clone());
                    Ok(HostStmt::Alloc {
                        name,
                        elem: ty,
                        extents,
                    })
                } else {
                    let name = self.expect_ident()?;
                    self.expect(Tok::Assign)?;
                    let value = self.parse_expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(HostStmt::LetFloat { name, value })
                }
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen)?;
                self.expect(Tok::KwInt)?;
                let var = self.expect_ident()?;
                self.expect(Tok::Assign)?;
                let start = self.parse_expr()?;
                if start != Expr::Int(0) {
                    return Err(self.err("host time loops must start at 0"));
                }
                self.expect(Tok::Semi)?;
                // cond: var < count
                let v2 = self.expect_ident()?;
                if v2 != var {
                    return Err(self.err("host loop condition must test the loop variable"));
                }
                self.expect(Tok::Lt)?;
                let count = self.parse_expr()?;
                self.expect(Tok::Semi)?;
                let v3 = self.expect_ident()?;
                if v3 != var {
                    return Err(self.err("host loop step must update the loop variable"));
                }
                self.expect(Tok::PlusPlus)?;
                self.expect(Tok::RParen)?;
                let body = self.parse_host_block()?;
                Ok(HostStmt::Repeat { var, count, body })
            }
            Tok::Ident(name) => {
                self.bump();
                match name.as_str() {
                    "cudaMemcpyH2D" | "cudaMemcpyD2H" => {
                        self.expect(Tok::LParen)?;
                        let array = self.expect_ident()?;
                        self.expect(Tok::RParen)?;
                        self.expect(Tok::Semi)?;
                        if name == "cudaMemcpyH2D" {
                            Ok(HostStmt::CopyToDevice { array })
                        } else {
                            Ok(HostStmt::CopyToHost { array })
                        }
                    }
                    _ => self.parse_launch(name),
                }
            }
            other => Err(self.err(format!(
                "expected host statement, found {}",
                other.describe()
            ))),
        }
    }

    fn parse_launch(&mut self, kernel: String) -> Result<HostStmt> {
        self.expect(Tok::LaunchOpen)?;
        let grid = self.parse_dim3()?;
        self.expect(Tok::Comma)?;
        let block = self.parse_dim3()?;
        self.expect(Tok::LaunchClose)?;
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                args.push(self.parse_launch_arg()?);
                if self.eat(Tok::Comma) {
                    continue;
                }
                self.expect(Tok::RParen)?;
                break;
            }
        }
        self.expect(Tok::Semi)?;
        Ok(HostStmt::Launch {
            kernel,
            grid,
            block,
            args,
        })
    }

    fn parse_dim3(&mut self) -> Result<Dim3Expr> {
        if self.eat(Tok::KwDim3) {
            self.expect(Tok::LParen)?;
            let x = self.parse_expr()?;
            let y = if self.eat(Tok::Comma) {
                self.parse_expr()?
            } else {
                Expr::Int(1)
            };
            let z = if self.eat(Tok::Comma) {
                self.parse_expr()?
            } else {
                Expr::Int(1)
            };
            self.expect(Tok::RParen)?;
            Ok(Dim3Expr { x, y, z })
        } else {
            // A bare expression means a 1-D dim3, as in CUDA.
            let x = self.parse_expr()?;
            Ok(Dim3Expr {
                x,
                y: Expr::Int(1),
                z: Expr::Int(1),
            })
        }
    }

    fn parse_launch_arg(&mut self) -> Result<LaunchArg> {
        // An identifier that names an allocated device array is an array
        // argument; anything else is a scalar expression.
        if let Tok::Ident(name) = self.peek().clone() {
            let next_is_simple = matches!(self.peek_at(1), Tok::Comma | Tok::RParen);
            if next_is_simple && self.host_arrays.iter().any(|a| a == &name) {
                self.bump();
                return Ok(LaunchArg::Array(name));
            }
        }
        Ok(LaunchArg::Scalar(self.parse_expr()?))
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;
    use crate::{parse_kernel, parse_program};

    const DIFFUSE: &str = r#"
__global__ void diffuse(const double* __restrict__ u, double* v,
                        int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 1; k < nz - 1; k++) {
      v[k][j][i] = c * u[k][j][i]
                 + 0.125 * (u[k][j][i+1] + u[k][j][i-1]
                          + u[k][j+1][i] + u[k][j-1][i]);
    }
  }
}
"#;

    #[test]
    fn parses_stencil_kernel() {
        let k = parse_kernel(DIFFUSE).unwrap();
        assert_eq!(k.name, "diffuse");
        assert_eq!(k.params.len(), 6);
        assert_eq!(k.array_params(), vec!["u", "v"]);
        assert_eq!(k.scalar_params(), vec!["nx", "ny", "nz", "c"]);
        // body: i decl, j decl, if
        assert_eq!(k.body.len(), 3);
        let Stmt::If { then_body, .. } = &k.body[2] else {
            panic!("expected if statement");
        };
        let Stmt::For { var, .. } = &then_body[0] else {
            panic!("expected vertical loop");
        };
        assert_eq!(var, "k");
    }

    #[test]
    fn const_marks_read_only_param() {
        let k = parse_kernel(DIFFUSE).unwrap();
        let Some(Param::Array { is_const, .. }) = k.param("u") else {
            panic!()
        };
        assert!(is_const);
        let Some(Param::Array { is_const, .. }) = k.param("v") else {
            panic!()
        };
        assert!(!is_const);
    }

    #[test]
    fn parses_program_with_host() {
        let src = format!(
            "{DIFFUSE}\n{}",
            r#"
void host() {
  int nx = 64; int ny = 32; int nz = 32;
  double c = 0.5;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* v = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(u);
  diffuse<<<dim3((nx + 15) / 16, (ny + 15) / 16), dim3(16, 16)>>>(u, v, nx, ny, nz, c);
  cudaMemcpyD2H(v);
}
"#
        );
        let p = parse_program(&src).unwrap();
        assert_eq!(p.kernels.len(), 1);
        assert_eq!(p.host.len(), 9);
        let launches = p.static_launches();
        assert_eq!(launches.len(), 1);
        let HostStmt::Launch { kernel, args, .. } = launches[0] else {
            panic!()
        };
        assert_eq!(kernel, "diffuse");
        assert_eq!(args.len(), 6);
        assert!(matches!(&args[0], LaunchArg::Array(a) if a == "u"));
        assert!(matches!(&args[2], LaunchArg::Scalar(Expr::Var(v)) if v == "nx"));
    }

    #[test]
    fn parses_shared_and_sync() {
        let src = r#"
__global__ void tile(double* a, int nx) {
  __shared__ double s[18][18];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  s[threadIdx.y][threadIdx.x] = a[0][i];
  __syncthreads();
  a[0][i] = s[threadIdx.y][threadIdx.x];
}
"#;
        let k = parse_kernel(src).unwrap();
        assert!(matches!(
            &k.body[0],
            Stmt::SharedDecl { name, extents, .. } if name == "s" && extents == &vec![18, 18]
        ));
        assert!(k.body.contains(&Stmt::SyncThreads));
    }

    #[test]
    fn precedence_is_c_like() {
        let k = parse_kernel("__global__ void p(double* a) { a[0] = 1.0 + 2.0 * 3.0; }").unwrap();
        let Stmt::Assign { value, .. } = &k.body[0] else {
            panic!()
        };
        // Must parse as 1 + (2*3).
        let Expr::Binary {
            op: BinaryOp::Add,
            rhs,
            ..
        } = value
        else {
            panic!("expected top-level add, got {value:?}")
        };
        assert!(matches!(
            **rhs,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn ternary_parses() {
        let k = parse_kernel("__global__ void p(double* a, int n) { a[0] = n > 0 ? 1.0 : 2.0; }")
            .unwrap();
        let Stmt::Assign { value, .. } = &k.body[0] else {
            panic!()
        };
        assert!(matches!(value, Expr::Ternary { .. }));
    }

    #[test]
    fn intrinsics_check_arity() {
        assert!(parse_kernel("__global__ void p(double* a) { a[0] = sqrt(2.0); }").is_ok());
        assert!(parse_kernel("__global__ void p(double* a) { a[0] = sqrt(2.0, 3.0); }").is_err());
        assert!(parse_kernel("__global__ void p(double* a) { a[0] = frobnicate(2.0); }").is_err());
    }

    #[test]
    fn compound_assignment() {
        let k = parse_kernel("__global__ void p(double* a, int i) { a[i] += 2.0; a[i] *= 3.0; }")
            .unwrap();
        assert!(matches!(
            &k.body[0],
            Stmt::Assign {
                op: AssignOp::AddAssign,
                ..
            }
        ));
        assert!(matches!(
            &k.body[1],
            Stmt::Assign {
                op: AssignOp::MulAssign,
                ..
            }
        ));
    }

    #[test]
    fn for_step_forms() {
        for step in ["k++", "k += 1", "k = k + 1"] {
            let src = format!(
                "__global__ void p(double* a, int n) {{ for (int k = 0; k < n; {step}) a[k] = 0.0; }}"
            );
            let k = parse_kernel(&src).unwrap();
            let Stmt::For { step, .. } = &k.body[0] else {
                panic!()
            };
            assert_eq!(step, &Expr::Int(1));
        }
    }

    #[test]
    fn error_reports_position() {
        let err = parse_kernel("__global__ void p(double* a) {\n  a[0] = @;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn host_time_loop() {
        let src = r#"
__global__ void k(double* a, int n) { a[0] = 1.0; }
void host() {
  int n = 8;
  double* a = cudaAlloc1D(n);
  for (int t = 0; t < 10; t++) {
    k<<<1, 32>>>(a, n);
  }
}
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.static_launches().len(), 1);
        assert!(matches!(&p.host[2], HostStmt::Repeat { .. }));
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
__global__ void p(double* a, int n) {
  if (n > 0) { a[0] = 1.0; } else if (n < 0) { a[0] = 2.0; } else { a[0] = 3.0; }
}
"#;
        let k = parse_kernel(src).unwrap();
        let Stmt::If { else_body, .. } = &k.body[0] else {
            panic!()
        };
        assert!(matches!(&else_body[0], Stmt::If { .. }));
    }
}
#[cfg(test)]
mod program_validation_tests {
    use crate::parse_program;

    #[test]
    fn duplicate_kernel_names_rejected() {
        let src = r#"
__global__ void k(double* a, int n) { a[0] = 1.0; }
__global__ void k(double* a, int n) { a[0] = 2.0; }
"#;
        let err = parse_program(src).unwrap_err();
        assert!(err.message.contains("duplicate kernel"), "{err}");
    }

    #[test]
    fn duplicate_param_names_are_callers_problem_but_parse() {
        // The parser is permissive here; the interpreter rejects aliasing
        // at launch time (documented restriction).
        let src = "__global__ void k(double* a, double* a, int n) { a[0] = 1.0; }";
        assert!(parse_program(src).is_ok());
    }
}

#[cfg(test)]
mod launch_arg_tests {
    use crate::ast::*;
    use crate::parse_program;

    #[test]
    fn negative_scalar_launch_args() {
        let src = r#"
__global__ void k(double* a, int off, double w) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  a[i] = w;
}
void host() {
  int n = 32;
  double* a = cudaAlloc1D(n);
  k<<<1, 32>>>(a, -4, -0.5);
}
"#;
        let p = parse_program(src).unwrap();
        let HostStmt::Launch { args, .. } = &p.host[2] else {
            panic!()
        };
        assert_eq!(args[1], LaunchArg::Scalar(Expr::Int(-4)));
        assert_eq!(args[2], LaunchArg::Scalar(Expr::Float(-0.5)));
    }

    #[test]
    fn expression_launch_args_and_grids() {
        let src = r#"
__global__ void k(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  a[0] = 1.0;
}
void host() {
  int n = 40;
  double* a = cudaAlloc1D(n);
  k<<<(n + 31) / 32, 32>>>(a, n * 2 - 8);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = crate::host::ExecutablePlan::from_program(&p).unwrap();
        assert_eq!(plan.launches[0].grid.x, 2);
        assert_eq!(
            plan.launches[0].args[1],
            crate::host::ResolvedArg::Scalar(crate::host::HostValue::Int(72))
        );
    }

    #[test]
    fn errors_carry_the_offending_token_span() {
        // The stray literal `3.14` starts at line 2, column 3 and is 4
        // characters wide; statement parsing fails on exactly that token.
        let src = "__global__ void k(double* a) {\n  3.14;\n}\nvoid host() { }";
        let err = parse_program(src).unwrap_err();
        assert_eq!((err.line, err.col, err.len), (2, 3, 4));
        assert!(
            err.message.contains("expected statement"),
            "message: {}",
            err.message
        );
        let rendered = err.render(src);
        assert!(rendered.contains("2 |   3.14;"));
        assert!(rendered.contains("^^^^"));
    }
}
