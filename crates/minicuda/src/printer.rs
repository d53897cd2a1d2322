//! Unparser: turns the AST back into readable minicuda/CUDA-like source.
//!
//! The paper emphasizes that generated kernels are "highly readable" thanks
//! to the source-manipulation tool; this module is the analogous piece. The
//! printer is exercised by round-trip tests (`parse ∘ print ∘ parse` is the
//! identity on ASTs).

use crate::ast::*;
use std::fmt::Write;

/// Print a whole translation unit.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for k in &p.kernels {
        out.push_str(&print_kernel(k));
        out.push('\n');
    }
    if !p.host.is_empty() {
        out.push_str("void host() {\n");
        for s in &p.host {
            print_host_stmt(&mut out, s, 1);
        }
        out.push_str("}\n");
    }
    out
}

/// Print one kernel definition.
pub fn print_kernel(k: &Kernel) -> String {
    let mut out = String::new();
    let params = k
        .params
        .iter()
        .map(print_param)
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "__global__ void {}({}) {{", k.name, params);
    for s in &k.body {
        print_stmt(&mut out, s, 1);
    }
    out.push_str("}\n");
    out
}

fn print_param(p: &Param) -> String {
    match p {
        Param::Array {
            name,
            elem,
            is_const,
        } => {
            let c = if *is_const { "const " } else { "" };
            format!("{c}{}* __restrict__ {name}", elem.c_name())
        }
        Param::Scalar { name, ty } => format!("{} {name}", ty.c_name()),
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match s {
        Stmt::VarDecl { name, ty, init } => {
            match init {
                Some(e) => {
                    let _ = write!(out, "{} {name} = ", ty.c_name());
                    write_expr(out, e);
                    out.push_str(";\n");
                }
                None => {
                    let _ = writeln!(out, "{} {name};", ty.c_name());
                }
            };
        }
        Stmt::SharedDecl { name, ty, extents } => {
            let dims: String = extents.iter().map(|e| format!("[{e}]")).collect();
            let _ = writeln!(out, "__shared__ {} {name}{dims};", ty.c_name());
        }
        Stmt::Assign { target, op, value } => {
            match target {
                LValue::Var(n) => out.push_str(n),
                LValue::Index { array, indices } => write_index(out, array, indices),
            }
            out.push(' ');
            out.push_str(op.c_name());
            out.push(' ');
            write_expr(out, value);
            out.push_str(";\n");
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            out.push_str("if (");
            write_expr(out, cond);
            out.push_str(") {\n");
            for t in then_body {
                print_stmt(out, t, level + 1);
            }
            indent(out, level);
            if else_body.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for t in else_body {
                    print_stmt(out, t, level + 1);
                }
                indent(out, level);
                out.push_str("}\n");
            }
        }
        Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        } => {
            let step_str = if *step == Expr::Int(1) {
                format!("{var}++")
            } else {
                format!("{var} += {}", print_expr(step))
            };
            let _ = writeln!(
                out,
                "for (int {var} = {}; {}; {step_str}) {{",
                print_expr(init),
                print_expr(cond)
            );
            for t in body {
                print_stmt(out, t, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::SyncThreads => out.push_str("__syncthreads();\n"),
        Stmt::Return => out.push_str("return;\n"),
    }
}

/// Operator precedence for parenthesization; mirrors the parser's table.
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Ternary { .. } => 0,
        Expr::Binary { op, .. } => match op {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq | BinaryOp::Ne => 3,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => 4,
            BinaryOp::Add | BinaryOp::Sub => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => 6,
        },
        Expr::Unary { .. } => 7,
        _ => 8,
    }
}

/// Print an expression with minimal parentheses.
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

/// [`print_expr`] appended to `out`: one buffer for the whole tree, where
/// printing each subexpression to its own string copies a node's text once
/// per enclosing level.
fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Float(v) => {
            let start = out.len();
            let _ = write!(out, "{v}");
            // Keep float literals parseable as floats.
            let s = &out[start..];
            if !(s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN")) {
                out.push_str(".0");
            }
        }
        Expr::Var(n) => out.push_str(n),
        Expr::Index { array, indices } => write_index(out, array, indices),
        Expr::Builtin(b) => out.push_str(&b.c_name()),
        Expr::Unary { op, operand } => {
            out.push(match op {
                UnaryOp::Neg => '-',
                UnaryOp::Not => '!',
            });
            write_operand(out, operand, prec(operand) < 7);
        }
        Expr::Binary { op, lhs, rhs } => {
            let my = prec(e);
            write_operand(out, lhs, prec(lhs) < my);
            out.push(' ');
            out.push_str(op.c_name());
            out.push(' ');
            // Right operand needs parens at equal precedence too (left
            // associativity), and always for non-commutative safety.
            write_operand(out, rhs, prec(rhs) <= my);
        }
        Expr::Call { fun, args } => {
            out.push_str(fun.c_name());
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a);
            }
            out.push(')');
        }
        Expr::Ternary {
            cond,
            then_val,
            else_val,
        } => {
            write_operand(out, cond, true);
            out.push_str(" ? ");
            write_operand(out, then_val, true);
            out.push_str(" : ");
            write_operand(out, else_val, true);
        }
    }
}

/// `e`, parenthesized if `parens`.
fn write_operand(out: &mut String, e: &Expr, parens: bool) {
    if parens {
        out.push('(');
        write_expr(out, e);
        out.push(')');
    } else {
        write_expr(out, e);
    }
}

/// `array[i0][i1]…`.
fn write_index(out: &mut String, array: &str, indices: &[Expr]) {
    out.push_str(array);
    for i in indices {
        out.push('[');
        write_expr(out, i);
        out.push(']');
    }
}

fn print_dim3(d: &Dim3Expr) -> String {
    format!(
        "dim3({}, {}, {})",
        print_expr(&d.x),
        print_expr(&d.y),
        print_expr(&d.z)
    )
}

fn print_host_stmt(out: &mut String, s: &HostStmt, level: usize) {
    indent(out, level);
    match s {
        HostStmt::LetInt { name, value } => {
            let _ = writeln!(out, "int {name} = {};", print_expr(value));
        }
        HostStmt::LetFloat { name, value } => {
            let _ = writeln!(out, "double {name} = {};", print_expr(value));
        }
        HostStmt::Alloc {
            name,
            elem,
            extents,
        } => {
            let args = extents
                .iter()
                .map(print_expr)
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "{}* {name} = cudaAlloc{}D({args});",
                elem.c_name(),
                extents.len()
            );
        }
        HostStmt::CopyToDevice { array } => {
            let _ = writeln!(out, "cudaMemcpyH2D({array});");
        }
        HostStmt::CopyToHost { array } => {
            let _ = writeln!(out, "cudaMemcpyD2H({array});");
        }
        HostStmt::Launch {
            kernel,
            grid,
            block,
            args,
        } => {
            let a = args
                .iter()
                .map(|arg| match arg {
                    LaunchArg::Array(n) => n.clone(),
                    LaunchArg::Scalar(e) => print_expr(e),
                })
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "{kernel}<<<{}, {}>>>({a});",
                print_dim3(grid),
                print_dim3(block)
            );
        }
        HostStmt::Repeat { var, count, body } => {
            let _ = writeln!(
                out,
                "for (int {var} = 0; {var} < {}; {var}++) {{",
                print_expr(count)
            );
            for t in body {
                print_host_stmt(out, t, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{parse_program, printer::print_program, reparse};

    const SRC: &str = r#"
__global__ void diffuse(const double* __restrict__ u, double* v,
                        int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  __shared__ double s[18][18];
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 1; k < nz - 1; k++) {
      s[threadIdx.y][threadIdx.x] = u[k][j][i];
      __syncthreads();
      v[k][j][i] = c * s[threadIdx.y][threadIdx.x] + fabs(-1.0) * min(u[k][j][i+1], 2.0);
    }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 32;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* v = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(u);
  for (int t = 0; t < 4; t++) {
    diffuse<<<dim3((nx + 15) / 16, (ny + 15) / 16), dim3(16, 16)>>>(u, v, nx, ny, nz, 0.5);
  }
  cudaMemcpyD2H(v);
}
"#;

    #[test]
    fn round_trip_is_identity() {
        let p = parse_program(SRC).unwrap();
        let p2 = reparse(&p).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn double_round_trip_text_is_stable() {
        let p = parse_program(SRC).unwrap();
        let s1 = print_program(&p);
        let p2 = parse_program(&s1).unwrap();
        let s2 = print_program(&p2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn parenthesization_preserves_structure() {
        let src = r#"
__global__ void p(double* a, int n) {
  a[0] = (1.0 + 2.0) * 3.0 - 4.0 / (5.0 - 6.0);
  a[1] = 1.0 - (2.0 - 3.0);
  a[2] = -(1.0 + 2.0);
}
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p, reparse(&p).unwrap());
    }
}
