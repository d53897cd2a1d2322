//! Programmatic AST construction helpers.
//!
//! The application generators in `sf-apps` and the code generator in
//! `sf-codegen` assemble kernels from these combinators rather than pasting
//! strings, exactly as the paper's framework assembles new kernels by
//! splicing AST fragments.

use crate::ast::*;

/// `e1 + e2`
pub fn add(lhs: Expr, rhs: Expr) -> Expr {
    Expr::bin(BinaryOp::Add, lhs, rhs)
}

/// `e1 - e2`
pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
    Expr::bin(BinaryOp::Sub, lhs, rhs)
}

/// `e1 * e2`
pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
    Expr::bin(BinaryOp::Mul, lhs, rhs)
}

/// `e1 / e2`
pub fn div(lhs: Expr, rhs: Expr) -> Expr {
    Expr::bin(BinaryOp::Div, lhs, rhs)
}

/// `e1 && e2`
pub fn and(lhs: Expr, rhs: Expr) -> Expr {
    Expr::bin(BinaryOp::And, lhs, rhs)
}

/// Conjunction of several conditions (`c0 && c1 && ...`). Panics on empty.
pub fn all(conds: Vec<Expr>) -> Expr {
    let mut it = conds.into_iter();
    let first = it.next().expect("all() needs at least one condition");
    it.fold(first, and)
}

/// `e1 < e2`
pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
    Expr::bin(BinaryOp::Lt, lhs, rhs)
}

/// `e1 >= e2`
pub fn ge(lhs: Expr, rhs: Expr) -> Expr {
    Expr::bin(BinaryOp::Ge, lhs, rhs)
}

/// Integer literal.
pub fn int(v: i64) -> Expr {
    Expr::Int(v)
}

/// Float literal.
pub fn flt(v: f64) -> Expr {
    Expr::Float(v)
}

/// Variable reference.
pub fn var(name: &str) -> Expr {
    Expr::Var(name.to_string())
}

/// `i + c` with constant folding of the `c == 0` case.
pub fn offset(base: Expr, c: i64) -> Expr {
    match c {
        0 => base,
        c if c > 0 => add(base, int(c)),
        c => sub(base, int(-c)),
    }
}

/// 3-D stencil access `a[k+dk][j+dj][i+di]` against loop/thread index
/// variables named `k`, `j`, `i`.
pub fn at3(array: &str, dk: i64, dj: i64, di: i64) -> Expr {
    Expr::idx(
        array,
        vec![
            offset(var("k"), dk),
            offset(var("j"), dj),
            offset(var("i"), di),
        ],
    )
}

/// 3-D access against a fixed k-plane: `a[plane][j+dj][i+di]`. Boundary
/// kernels read and write fixed planes instead of the loop index `k`.
pub fn at3_plane(array: &str, plane: i64, dj: i64, di: i64) -> Expr {
    Expr::idx(
        array,
        vec![int(plane), offset(var("j"), dj), offset(var("i"), di)],
    )
}

/// Assignment to a fixed k-plane: `a[plane][j][i] = value;`.
pub fn store3_plane(array: &str, plane: i64, value: Expr) -> Stmt {
    Stmt::Assign {
        target: LValue::Index {
            array: array.into(),
            indices: vec![int(plane), var("j"), var("i")],
        },
        op: AssignOp::Assign,
        value,
    }
}

/// A symmetric star stencil of arbitrary radius over `input` (generalizes
/// [`stencil7`], which is the `radius == 1` case): the center point weighted
/// by `center_w` plus six axis neighbors per ring `d in 1..=radius`, each
/// ring weighted by `neighbor_w / d`.
pub fn stencil_cross(input: &str, radius: i64, center_w: f64, neighbor_w: f64) -> Expr {
    let mut e = mul(flt(center_w), at3(input, 0, 0, 0));
    for d in 1..=radius {
        let ring = [
            at3(input, 0, 0, d),
            at3(input, 0, 0, -d),
            at3(input, 0, d, 0),
            at3(input, 0, -d, 0),
            at3(input, d, 0, 0),
            at3(input, -d, 0, 0),
        ]
        .into_iter()
        .reduce(add)
        .expect("six ring points");
        e = add(e, mul(flt(neighbor_w / d as f64), ring));
    }
    e
}

/// The standard horizontal thread mapping prologue:
/// `int i = blockIdx.x*blockDim.x + threadIdx.x;` (+ same for `j`/y).
pub fn thread_mapping_2d() -> Vec<Stmt> {
    vec![
        Stmt::VarDecl {
            name: "i".into(),
            ty: ScalarType::I32,
            init: Some(add(
                mul(
                    Expr::Builtin(Builtin::BlockIdx(Axis::X)),
                    Expr::Builtin(Builtin::BlockDim(Axis::X)),
                ),
                Expr::Builtin(Builtin::ThreadIdx(Axis::X)),
            )),
        },
        Stmt::VarDecl {
            name: "j".into(),
            ty: ScalarType::I32,
            init: Some(add(
                mul(
                    Expr::Builtin(Builtin::BlockIdx(Axis::Y)),
                    Expr::Builtin(Builtin::BlockDim(Axis::Y)),
                ),
                Expr::Builtin(Builtin::ThreadIdx(Axis::Y)),
            )),
        },
    ]
}

/// Bounds guard `if (i >= lo && i < hi_i && j >= lo && j < hi_j) { body }`
/// where the bounds are expressed against scalar params `nx`, `ny` with an
/// interior margin `radius` (0 for full-domain kernels).
pub fn interior_guard(radius: i64, body: Vec<Stmt>) -> Stmt {
    let cond = if radius == 0 {
        all(vec![lt(var("i"), var("nx")), lt(var("j"), var("ny"))])
    } else {
        all(vec![
            ge(var("i"), int(radius)),
            lt(var("i"), sub(var("nx"), int(radius))),
            ge(var("j"), int(radius)),
            lt(var("j"), sub(var("ny"), int(radius))),
        ])
    };
    Stmt::If {
        cond,
        then_body: body,
        else_body: Vec::new(),
    }
}

/// The canonical vertical loop `for (int k = lo; k < nz - lo; k++) { body }`.
pub fn vertical_loop(radius: i64, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        var: "k".into(),
        init: int(radius),
        cond: lt(var("k"), offset(var("nz"), -radius)),
        step: int(1),
        body,
    }
}

/// Assignment `target_array[k][j][i] = value;`.
pub fn store3(array: &str, value: Expr) -> Stmt {
    Stmt::Assign {
        target: LValue::Index {
            array: array.into(),
            indices: vec![var("k"), var("j"), var("i")],
        },
        op: AssignOp::Assign,
        value,
    }
}

/// Standard parameter list for a 3-D stencil kernel: the given arrays (reads
/// marked const) followed by `int nx, int ny, int nz`.
pub fn params_3d(reads: &[&str], writes: &[&str]) -> Vec<Param> {
    let mut params = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for r in reads {
        if !writes.contains(r) && !seen.contains(r) {
            seen.push(r);
            params.push(Param::Array {
                name: (*r).into(),
                elem: ScalarType::F64,
                is_const: true,
            });
        }
    }
    for w in writes {
        params.push(Param::Array {
            name: (*w).into(),
            elem: ScalarType::F64,
            is_const: false,
        });
    }
    for n in ["nx", "ny", "nz"] {
        params.push(Param::Scalar {
            name: n.into(),
            ty: ScalarType::I32,
        });
    }
    params
}

/// A symmetric 7-point (radius-1) Laplacian-style stencil expression over
/// `input`, weighted by literal coefficients.
pub fn stencil7(input: &str, center_w: f64, neighbor_w: f64) -> Expr {
    let neighbors = vec![
        at3(input, 0, 0, 1),
        at3(input, 0, 0, -1),
        at3(input, 0, 1, 0),
        at3(input, 0, -1, 0),
        at3(input, 1, 0, 0),
        at3(input, -1, 0, 0),
    ];
    let sum = neighbors
        .into_iter()
        .reduce(add)
        .expect("non-empty neighbor list");
    add(
        mul(flt(center_w), at3(input, 0, 0, 0)),
        mul(flt(neighbor_w), sum),
    )
}

/// A full 3-D Jacobi-style kernel writing `out = stencil7(in)` on the
/// interior, with the standard mapping, guard and vertical loop.
pub fn jacobi3d_kernel(name: &str, input: &str, output: &str) -> Kernel {
    let mut body = thread_mapping_2d();
    body.push(interior_guard(
        1,
        vec![vertical_loop(
            1,
            vec![store3(output, stencil7(input, 0.4, 0.1))],
        )],
    ));
    Kernel {
        name: name.into(),
        params: params_3d(&[input], &[output]),
        body,
    }
}

/// Host boilerplate: allocate `arrays` as nz×ny×nx f64 grids and launch each
/// listed kernel once over an `(nx/bx, ny/by)` grid of `bx×by` blocks.
/// All kernels must take `(arrays..., nx, ny, nz)` in [`params_3d`] order.
pub fn simple_host(
    arrays: &[&str],
    launches: &[(&str, Vec<&str>)],
    (nx, ny, nz): (i64, i64, i64),
    (bx, by): (i64, i64),
) -> Vec<HostStmt> {
    let mut host = vec![
        HostStmt::LetInt {
            name: "nx".into(),
            value: int(nx),
        },
        HostStmt::LetInt {
            name: "ny".into(),
            value: int(ny),
        },
        HostStmt::LetInt {
            name: "nz".into(),
            value: int(nz),
        },
    ];
    for a in arrays {
        host.push(HostStmt::Alloc {
            name: (*a).into(),
            elem: ScalarType::F64,
            extents: vec![var("nz"), var("ny"), var("nx")],
        });
    }
    for a in arrays {
        host.push(HostStmt::CopyToDevice { array: (*a).into() });
    }
    for (kernel, args) in launches {
        host.push(launch_3d(kernel, args, (bx, by)));
    }
    for a in arrays {
        host.push(HostStmt::CopyToHost { array: (*a).into() });
    }
    host
}

/// One `kernel<<<ceil(nx/bx) x ceil(ny/by), (bx, by)>>>(args..., nx, ny, nz)`
/// host statement in the [`params_3d`] calling convention.
pub fn launch_3d(kernel: &str, args: &[&str], (bx, by): (i64, i64)) -> HostStmt {
    let mut launch_args: Vec<LaunchArg> =
        args.iter().map(|a| LaunchArg::Array((*a).into())).collect();
    for n in ["nx", "ny", "nz"] {
        launch_args.push(LaunchArg::Scalar(var(n)));
    }
    HostStmt::Launch {
        kernel: kernel.into(),
        grid: Dim3Expr {
            x: div(add(var("nx"), int(bx - 1)), int(bx)),
            y: div(add(var("ny"), int(by - 1)), int(by)),
            z: int(1),
        },
        block: Dim3Expr::literal(bx, by, 1),
        args: launch_args,
    }
}

/// Host boilerplate with a time loop: like [`simple_host`] but the launches
/// split into a prologue (run once), a `for (t = 0; t < steps; t++)` body,
/// and an epilogue (run once), in that order.
pub fn looped_host(
    arrays: &[&str],
    prologue: &[(&str, Vec<&str>)],
    steps: i64,
    body: &[(&str, Vec<&str>)],
    epilogue: &[(&str, Vec<&str>)],
    (nx, ny, nz): (i64, i64, i64),
    (bx, by): (i64, i64),
) -> Vec<HostStmt> {
    let mut host = vec![
        HostStmt::LetInt {
            name: "nx".into(),
            value: int(nx),
        },
        HostStmt::LetInt {
            name: "ny".into(),
            value: int(ny),
        },
        HostStmt::LetInt {
            name: "nz".into(),
            value: int(nz),
        },
    ];
    for a in arrays {
        host.push(HostStmt::Alloc {
            name: (*a).into(),
            elem: ScalarType::F64,
            extents: vec![var("nz"), var("ny"), var("nx")],
        });
    }
    for a in arrays {
        host.push(HostStmt::CopyToDevice { array: (*a).into() });
    }
    for (kernel, args) in prologue {
        host.push(launch_3d(kernel, args, (bx, by)));
    }
    host.push(HostStmt::Repeat {
        var: "t".into(),
        count: int(steps),
        body: body
            .iter()
            .map(|(kernel, args)| launch_3d(kernel, args, (bx, by)))
            .collect(),
    });
    for (kernel, args) in epilogue {
        host.push(launch_3d(kernel, args, (bx, by)));
    }
    for a in arrays {
        host.push(HostStmt::CopyToHost { array: (*a).into() });
    }
    host
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::ExecutablePlan;
    use crate::{reparse, Program};

    #[test]
    fn jacobi_kernel_round_trips() {
        let k = jacobi3d_kernel("jacobi", "u", "v");
        let p = Program {
            kernels: vec![k],
            host: simple_host(
                &["u", "v"],
                &[("jacobi", vec!["u", "v"])],
                (64, 32, 32),
                (16, 8),
            ),
        };
        let p2 = reparse(&p).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn simple_host_evaluates() {
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
        assert_eq!(plan.allocs.len(), 2);
        assert_eq!(plan.alloc("u").unwrap().extents, vec![32, 32, 64]);
        assert_eq!(plan.launches.len(), 1);
        assert_eq!(plan.launches[0].grid.x, 4);
        assert_eq!(plan.launches[0].grid.y, 4);
    }

    #[test]
    fn stencil_cross_radius_one_matches_stencil7() {
        assert_eq!(stencil_cross("u", 1, 0.4, 0.1), stencil7("u", 0.4, 0.1));
    }

    #[test]
    fn plane_accessors_round_trip() {
        let mut body = thread_mapping_2d();
        body.push(interior_guard(
            0,
            vec![store3_plane("a", 0, mul(flt(0.5), at3_plane("a", 1, 0, 0)))],
        ));
        let k = Kernel {
            name: "bc".into(),
            params: params_3d(&[], &["a"]),
            body,
        };
        let p = Program {
            kernels: vec![k],
            host: simple_host(&["a"], &[("bc", vec!["a"])], (32, 16, 4), (16, 8)),
        };
        assert_eq!(p, reparse(&p).unwrap());
    }

    #[test]
    fn looped_host_round_trips_and_records_loop() {
        let p = Program {
            kernels: vec![
                jacobi3d_kernel("fwd", "u", "v"),
                jacobi3d_kernel("bwd", "v", "u"),
            ],
            host: looped_host(
                &["u", "v"],
                &[],
                6,
                &[("fwd", vec!["u", "v"]), ("bwd", vec!["v", "u"])],
                &[],
                (64, 32, 16),
                (16, 8),
            ),
        };
        assert_eq!(p, reparse(&p).unwrap());
        let plan = ExecutablePlan::from_program(&p).unwrap();
        assert!(!plan.opaque_loops);
        assert_eq!(plan.loops.len(), 1);
        assert_eq!(plan.loops[0].count, 6);
        assert_eq!(plan.loops[0].seqs, vec![0, 1]);
        assert_eq!(plan.trace.len(), 12);
    }

    #[test]
    fn offset_folds_zero() {
        assert_eq!(offset(var("i"), 0), var("i"));
        assert_eq!(offset(var("i"), -2), sub(var("i"), int(2)));
    }

    #[test]
    fn params_dedupe_read_write_overlap() {
        let params = params_3d(&["u", "v"], &["v"]);
        // u const, v mutable, plus 3 scalars.
        assert_eq!(params.len(), 5);
        assert!(matches!(
            &params[0],
            Param::Array { name, is_const: true, .. } if name == "u"
        ));
        assert!(matches!(
            &params[1],
            Param::Array { name, is_const: false, .. } if name == "v"
        ));
    }
}
