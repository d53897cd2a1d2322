//! Kernel compilation: resolve variable names to slots and array names to
//! table indices once per kernel, type the slots, and split every
//! expression into the half that may run column-wise over the block and the
//! half that must stay in thread order.
//!
//! **Slot typing.** A name whose every declaration in the kernel is `int`
//! (scalar `int` parameters, `int` locals, `for` variables) is an *int
//! slot*: assignments coerce to the declared type and an uninitialised
//! declaration holds the declared type's zero, so such a slot is an `i64`
//! for its whole life and the interpreter stores it as a column
//! ([`CExpr::ISlot`]). Every other name — `double`/`float` scalars, and a
//! name declared with two different types, which keeps each declaration's
//! type for its own assignments — is a dynamically typed value slot
//! ([`CExpr::Slot`]).
//!
//! **Pure-int subtrees.** A subtree built only from integer literals, int
//! slots, builtins, wrapping `+ - *`, comparisons, `&& || !` and ternaries
//! of those touches no counter, hazard log, memory cell or trap, so *when*
//! it is evaluated is unobservable. [`compile`] replaces every maximal
//! such subtree with [`CExpr::Col`] and emits a [`ColOp`] program that the
//! interpreter runs once per statement execution over all lanes. `/` and
//! `%` (they trap), unary `-` (it counts a flop), loads and anything
//! float stay in the tree and are evaluated per thread, in thread order.
//! Name lookups here hash; the interpreter's hot path does not.

use crate::interp::ExecError;
use sf_minicuda::ast::*;
use std::collections::HashMap;

/// Where a scalar lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRef {
    /// Column of the block's integer state (statically `int`).
    Int(u16),
    /// Per-thread dynamically typed value slot.
    Val(u16),
}

impl SlotRef {
    /// The expression that reads this slot.
    fn read(self) -> CExpr {
        match self {
            SlotRef::Int(s) => CExpr::ISlot(s),
            SlotRef::Val(s) => CExpr::Slot(s),
        }
    }
}

/// An operand of a column operation: one `i64` per lane.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ColSrc {
    Const(i64),
    /// An int slot's column.
    Slot(u16),
    Builtin(Builtin),
    /// A register written by an earlier op of the same program (always a
    /// higher index than the reading op's `dst`).
    Reg(u16),
}

/// One column-wise operation over every lane of the block.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ColOp {
    Copy {
        dst: u16,
        a: ColSrc,
    },
    /// `! a` as 0/1.
    Not {
        dst: u16,
        a: ColSrc,
    },
    /// Wrapping `+ - *`, comparisons and `&& ||` as 0/1 (never `/ %`).
    Bin {
        op: BinaryOp,
        dst: u16,
        a: ColSrc,
        b: ColSrc,
    },
    /// `c != 0 ? t : e`.
    Select {
        dst: u16,
        c: ColSrc,
        t: ColSrc,
        e: ColSrc,
    },
}

/// A compiled expression with all names resolved.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum CExpr {
    I(i64),
    F(f64),
    /// Dynamically typed local variable / scalar parameter slot.
    Slot(u16),
    /// Int slot (column of the block's integer state).
    ISlot(u16),
    Builtin(Builtin),
    /// Result register of a pure-int subtree the statement's column
    /// program computed.
    Col(u16),
    /// Global array element (index into the launch's bound-array table).
    Global { array: u16, idx: Vec<CExpr> },
    /// Shared tile element (index into the block's tile table).
    Shared { tile: u16, idx: Vec<CExpr> },
    Un {
        op: UnaryOp,
        e: Box<CExpr>,
    },
    Bin {
        op: BinaryOp,
        l: Box<CExpr>,
        r: Box<CExpr>,
    },
    Call {
        fun: Intrinsic,
        args: Vec<CExpr>,
    },
    Ternary {
        c: Box<CExpr>,
        t: Box<CExpr>,
        e: Box<CExpr>,
    },
}

/// A compiled statement. `cols` is the column program that runs over the
/// whole block before the statement's per-thread part; the expressions
/// read its results through [`CExpr::Col`]. A pure-int `If`/`For`
/// condition, `For` init/step, or right-hand side of an int-slot `SetSlot`
/// is always a bare `Col`.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum CStmt {
    SetSlot {
        slot: SlotRef,
        /// Declared type of the assigned name at this statement.
        ty: ScalarType,
        cols: Vec<ColOp>,
        e: CExpr,
    },
    StoreGlobal {
        array: u16,
        idx: Vec<CExpr>,
        op: AssignOp,
        cols: Vec<ColOp>,
        e: CExpr,
    },
    StoreShared {
        tile: u16,
        idx: Vec<CExpr>,
        op: AssignOp,
        cols: Vec<ColOp>,
        e: CExpr,
    },
    If {
        cols: Vec<ColOp>,
        cond: CExpr,
        then_body: Vec<CStmt>,
        else_body: Vec<CStmt>,
    },
    For {
        slot: SlotRef,
        init_cols: Vec<ColOp>,
        init: CExpr,
        cond_cols: Vec<ColOp>,
        cond: CExpr,
        step_cols: Vec<ColOp>,
        step: CExpr,
        body: Vec<CStmt>,
    },
    Sync,
    Return,
}

/// A compiled kernel.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct CompiledKernel {
    pub name: String,
    /// Number of scalar slots per thread (locals + scalar params).
    pub nslots: usize,
    /// How many of them are int slots (columns); the rest are value slots.
    pub int_slots: usize,
    /// Column registers the largest statement's column program needs.
    pub col_regs: usize,
    /// Scalar parameter slots in parameter order.
    pub scalar_param_slots: Vec<(SlotRef, ScalarType)>,
    /// Array parameter names in parameter order (bound at launch).
    pub array_params: Vec<String>,
    /// Shared tiles: (extents, element count).
    pub tiles: Vec<(Vec<usize>, usize)>,
    pub body: Vec<CStmt>,
}

/// May `e` be evaluated at any time, for any lane, with no observable
/// effect? (Module docs: pure-int subtrees.)
fn is_pure(e: &CExpr) -> bool {
    use BinaryOp::*;
    match e {
        CExpr::I(_) | CExpr::ISlot(_) | CExpr::Builtin(_) => true,
        CExpr::Bin { op, l, r } => !matches!(op, Div | Rem) && is_pure(l) && is_pure(r),
        CExpr::Un {
            op: UnaryOp::Not,
            e,
        } => is_pure(e),
        CExpr::Ternary { c, t, e } => is_pure(c) && is_pure(t) && is_pure(e),
        _ => false,
    }
}

/// Builds one statement part's column program. A subtree rooted at
/// register `dst` evaluates its operands into `dst + 1 ..`, so ops only
/// ever read registers above the one they write, and the roots of one
/// program take consecutive registers from 0.
#[derive(Default)]
struct ColProgram {
    ops: Vec<ColOp>,
    roots: u16,
    /// Registers used so far (the kernel-wide maximum sizes the pool).
    regs: usize,
}

impl ColProgram {
    fn emit(&mut self, e: &CExpr, dst: u16) -> ColSrc {
        let op = match e {
            CExpr::I(v) => return ColSrc::Const(*v),
            CExpr::ISlot(s) => return ColSrc::Slot(*s),
            CExpr::Builtin(b) => return ColSrc::Builtin(*b),
            CExpr::Un { e, .. } => ColOp::Not {
                dst,
                a: self.emit(e, dst + 1),
            },
            CExpr::Bin { op, l, r } => ColOp::Bin {
                op: *op,
                dst,
                a: self.emit(l, dst + 1),
                b: self.emit(r, dst + 2),
            },
            CExpr::Ternary { c, t, e } => ColOp::Select {
                dst,
                c: self.emit(c, dst + 1),
                t: self.emit(t, dst + 2),
                e: self.emit(e, dst + 3),
            },
            _ => unreachable!("emit is only called on pure-int subtrees"),
        };
        self.push(dst, op)
    }

    fn push(&mut self, dst: u16, op: ColOp) -> ColSrc {
        self.regs = self.regs.max(dst as usize + 1);
        self.ops.push(op);
        ColSrc::Reg(dst)
    }

    /// Put a pure-int `e` into a fresh root register (a bare leaf through
    /// a copy, so the consumer always reads a register).
    fn root(&mut self, e: &CExpr) -> CExpr {
        let dst = self.roots;
        self.roots += 1;
        let a = self.emit(e, dst);
        if !matches!(a, ColSrc::Reg(_)) {
            self.push(dst, ColOp::Copy { dst, a });
        }
        CExpr::Col(dst)
    }

    /// Replace every maximal pure-int subtree of `e` that has at least
    /// one operator with a register; leaves stay leaves.
    fn lower(&mut self, e: CExpr) -> CExpr {
        let leaf = matches!(e, CExpr::I(_) | CExpr::ISlot(_) | CExpr::Builtin(_));
        if is_pure(&e) {
            return if leaf { e } else { self.root(&e) };
        }
        let lower_all = |p: &mut Self, v: Vec<CExpr>| v.into_iter().map(|x| p.lower(x)).collect();
        match e {
            CExpr::Global { array, idx } => CExpr::Global {
                array,
                idx: lower_all(self, idx),
            },
            CExpr::Shared { tile, idx } => CExpr::Shared {
                tile,
                idx: lower_all(self, idx),
            },
            CExpr::Un { op, e } => CExpr::Un {
                op,
                e: Box::new(self.lower(*e)),
            },
            CExpr::Bin { op, l, r } => CExpr::Bin {
                op,
                l: Box::new(self.lower(*l)),
                r: Box::new(self.lower(*r)),
            },
            CExpr::Call { fun, args } => CExpr::Call {
                fun,
                args: lower_all(self, args),
            },
            CExpr::Ternary { c, t, e } => CExpr::Ternary {
                c: Box::new(self.lower(*c)),
                t: Box::new(self.lower(*t)),
                e: Box::new(self.lower(*e)),
            },
            leaf => leaf,
        }
    }

    /// Lower an expression a whole-block loop consumes (a condition, or
    /// what is assigned to an int slot): pure-int ⇒ a bare register.
    fn lower_whole(&mut self, e: CExpr) -> CExpr {
        if is_pure(&e) {
            self.root(&e)
        } else {
            self.lower(e)
        }
    }
}

struct Compiler<'k> {
    kernel: &'k Kernel,
    /// Per declared name: is every one of its declarations `int`?
    int_names: HashMap<&'k str, bool>,
    /// Each name's slot, and its declared type at the current point of
    /// the walk.
    slots: HashMap<String, (SlotRef, ScalarType)>,
    int_slots: u16,
    val_slots: u16,
    col_regs: usize,
    arrays: HashMap<String, u16>,
    tiles: HashMap<String, u16>,
    tile_shapes: Vec<(Vec<usize>, usize)>,
}

/// Record every declaration's type: a name is an int slot iff all of its
/// declarations are `int`.
fn scan_declarations<'k>(stmts: &'k [Stmt], int_names: &mut HashMap<&'k str, bool>) {
    fn declare<'k>(int_names: &mut HashMap<&'k str, bool>, name: &'k str, ty: ScalarType) {
        *int_names.entry(name).or_insert(true) &= ty == ScalarType::I32;
    }
    for s in stmts {
        match s {
            Stmt::VarDecl { name, ty, .. } => declare(int_names, name, *ty),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                scan_declarations(then_body, int_names);
                scan_declarations(else_body, int_names);
            }
            Stmt::For { var, body, .. } => {
                declare(int_names, var, ScalarType::I32);
                scan_declarations(body, int_names);
            }
            _ => {}
        }
    }
}

impl<'k> Compiler<'k> {
    /// Declare `name` with type `ty` here; allocates its slot on first sight.
    fn declare(&mut self, name: &str, ty: ScalarType) -> Result<SlotRef, ExecError> {
        if let Some(known) = self.slots.get_mut(name) {
            known.1 = ty;
            return Ok(known.0);
        }
        if self.slots.len() >= u16::MAX as usize {
            return Err(ExecError::trap(format!(
                "too many locals in `{}`",
                self.kernel.name
            )));
        }
        let s = if self.int_names.get(name).copied().unwrap_or(false) {
            self.int_slots += 1;
            SlotRef::Int(self.int_slots - 1)
        } else {
            self.val_slots += 1;
            SlotRef::Val(self.val_slots - 1)
        };
        self.slots.insert(name.to_string(), (s, ty));
        Ok(s)
    }

    /// Finish one statement part's column program.
    fn finish(&mut self, program: ColProgram) -> Vec<ColOp> {
        self.col_regs = self.col_regs.max(program.regs);
        program.ops
    }

    fn exprs(&mut self, es: &[Expr]) -> Result<Vec<CExpr>, ExecError> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn expr(&mut self, e: &Expr) -> Result<CExpr, ExecError> {
        Ok(match e {
            Expr::Int(v) => CExpr::I(*v),
            Expr::Float(v) => CExpr::F(*v),
            Expr::Var(n) => match self.slots.get(n) {
                Some((slot, _)) => slot.read(),
                None => {
                    return Err(ExecError::trap(format!(
                        "unknown variable `{n}` in `{}`",
                        self.kernel.name
                    )))
                }
            },
            Expr::Builtin(b) => CExpr::Builtin(*b),
            Expr::Index { array, indices } => {
                let idx = self.exprs(indices)?;
                if let Some(&a) = self.arrays.get(array) {
                    CExpr::Global { array: a, idx }
                } else if let Some(&t) = self.tiles.get(array) {
                    CExpr::Shared { tile: t, idx }
                } else {
                    return Err(ExecError::trap(format!(
                        "read of unknown array `{array}` in `{}`",
                        self.kernel.name
                    )));
                }
            }
            Expr::Unary { op, operand } => CExpr::Un {
                op: *op,
                e: Box::new(self.expr(operand)?),
            },
            Expr::Binary { op, lhs, rhs } => CExpr::Bin {
                op: *op,
                l: Box::new(self.expr(lhs)?),
                r: Box::new(self.expr(rhs)?),
            },
            Expr::Call { fun, args } => CExpr::Call {
                fun: *fun,
                args: self.exprs(args)?,
            },
            Expr::Ternary {
                cond,
                then_val,
                else_val,
            } => CExpr::Ternary {
                c: Box::new(self.expr(cond)?),
                t: Box::new(self.expr(then_val)?),
                e: Box::new(self.expr(else_val)?),
            },
        })
    }

    /// `slot = e`, coerced to `ty`.
    fn set_slot(&mut self, slot: SlotRef, ty: ScalarType, e: CExpr) -> CStmt {
        let mut p = ColProgram::default();
        let e = match slot {
            SlotRef::Int(_) => p.lower_whole(e),
            SlotRef::Val(_) => p.lower(e),
        };
        CStmt::SetSlot {
            slot,
            ty,
            cols: self.finish(p),
            e,
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<CStmt>, ExecError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                Stmt::VarDecl { name, ty, init } => {
                    let e = match init {
                        Some(e) => self.expr(e)?,
                        // Uninitialised: zero of the declared type.
                        None if *ty == ScalarType::I32 => CExpr::I(0),
                        None => CExpr::F(0.0),
                    };
                    let slot = self.declare(name, *ty)?;
                    out.push(self.set_slot(slot, *ty, e));
                }
                Stmt::SharedDecl { name, ty, extents } => {
                    let _ = ty;
                    let t = self.tile_shapes.len() as u16;
                    self.tiles.insert(name.clone(), t);
                    self.tile_shapes
                        .push((extents.clone(), extents.iter().product()));
                }
                Stmt::Assign { target, op, value } => {
                    let e = self.expr(value)?;
                    match target {
                        LValue::Var(n) => {
                            let Some(&(slot, ty)) = self.slots.get(n) else {
                                return Err(ExecError::trap(format!(
                                    "assignment to undeclared variable `{n}` in `{}`",
                                    self.kernel.name
                                )));
                            };
                            // Scalar assignment compiles to SetSlot with a
                            // synthetic compound expression when needed.
                            let compound = match op {
                                AssignOp::Assign => None,
                                AssignOp::AddAssign => Some(BinaryOp::Add),
                                AssignOp::SubAssign => Some(BinaryOp::Sub),
                                AssignOp::MulAssign => Some(BinaryOp::Mul),
                            };
                            let e = match compound {
                                None => e,
                                Some(op) => CExpr::Bin {
                                    op,
                                    l: Box::new(slot.read()),
                                    r: Box::new(e),
                                },
                            };
                            out.push(self.set_slot(slot, ty, e));
                        }
                        LValue::Index { array, indices } => {
                            let idx = self.exprs(indices)?;
                            let mut p = ColProgram::default();
                            let idx = idx.into_iter().map(|i| p.lower(i)).collect();
                            let e = p.lower(e);
                            let cols = self.finish(p);
                            if let Some(&a) = self.arrays.get(array) {
                                out.push(CStmt::StoreGlobal {
                                    array: a,
                                    idx,
                                    op: *op,
                                    cols,
                                    e,
                                });
                            } else if let Some(&t) = self.tiles.get(array) {
                                out.push(CStmt::StoreShared {
                                    tile: t,
                                    idx,
                                    op: *op,
                                    cols,
                                    e,
                                });
                            } else {
                                return Err(ExecError::trap(format!(
                                    "write to unknown array `{array}` in `{}`",
                                    self.kernel.name
                                )));
                            }
                        }
                    }
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let mut p = ColProgram::default();
                    let cond = p.lower_whole(self.expr(cond)?);
                    let cols = self.finish(p);
                    let then_body = self.stmts(then_body)?;
                    let else_body = self.stmts(else_body)?;
                    out.push(CStmt::If {
                        cols,
                        cond,
                        then_body,
                        else_body,
                    });
                }
                Stmt::For {
                    var,
                    init,
                    cond,
                    step,
                    body,
                } => {
                    let init = self.expr(init)?;
                    let slot = self.declare(var, ScalarType::I32)?;
                    let cond = self.expr(cond)?;
                    let step = self.expr(step)?;
                    let mut lower_part = |e| {
                        let mut p = ColProgram::default();
                        let e = p.lower_whole(e);
                        (self.finish(p), e)
                    };
                    let (init_cols, init) = lower_part(init);
                    let (cond_cols, cond) = lower_part(cond);
                    let (step_cols, step) = lower_part(step);
                    let body = self.stmts(body)?;
                    out.push(CStmt::For {
                        slot,
                        init_cols,
                        init,
                        cond_cols,
                        cond,
                        step_cols,
                        step,
                        body,
                    });
                }
                Stmt::SyncThreads => out.push(CStmt::Sync),
                Stmt::Return => out.push(CStmt::Return),
            }
        }
        Ok(out)
    }
}

/// Compile a kernel.
pub fn compile(kernel: &Kernel) -> Result<CompiledKernel, ExecError> {
    let mut int_names = HashMap::new();
    for p in &kernel.params {
        if let Param::Scalar { name, ty } = p {
            int_names.insert(name.as_str(), *ty == ScalarType::I32);
        }
    }
    scan_declarations(&kernel.body, &mut int_names);
    let mut c = Compiler {
        kernel,
        int_names,
        slots: HashMap::new(),
        int_slots: 0,
        val_slots: 0,
        col_regs: 0,
        arrays: HashMap::new(),
        tiles: HashMap::new(),
        tile_shapes: Vec::new(),
    };
    let mut scalar_param_slots = Vec::new();
    let mut array_params = Vec::new();
    for p in &kernel.params {
        match p {
            Param::Array { name, .. } => {
                c.arrays.insert(name.clone(), array_params.len() as u16);
                array_params.push(name.clone());
            }
            Param::Scalar { name, ty } => {
                let slot = c.declare(name, *ty)?;
                scalar_param_slots.push((slot, *ty));
            }
        }
    }
    let body = c.stmts(&kernel.body)?;
    Ok(CompiledKernel {
        name: kernel.name.clone(),
        nslots: c.slots.len(),
        int_slots: c.int_slots as usize,
        col_regs: c.col_regs,
        scalar_param_slots,
        array_params,
        tiles: c.tile_shapes,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::parse_kernel;

    #[test]
    fn compiles_stencil_kernel() {
        let k = parse_kernel(
            r#"
__global__ void s(const double* __restrict__ u, double* v, int nx, double c) {
  __shared__ double t[16];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < nx) {
    t[threadIdx.x] = u[i];
    __syncthreads();
    v[i] = c * t[threadIdx.x];
  }
}
"#,
        )
        .unwrap();
        let c = compile(&k).unwrap();
        assert_eq!(c.array_params, vec!["u", "v"]);
        assert_eq!(c.scalar_param_slots.len(), 2); // nx, c
        assert_eq!(c.tiles.len(), 1);
        // slots: nx, c, i — nx and i are int columns.
        assert_eq!(c.nslots, 3);
        assert_eq!(c.int_slots, 2);
        // `int i = ...` and `if (i < nx)` are whole-block column programs.
        let CStmt::SetSlot { slot, cols, e, .. } = &c.body[0] else {
            panic!("expected the declaration of i, got {:?}", c.body[0]);
        };
        assert_eq!(*slot, SlotRef::Int(1));
        assert_eq!((cols.len(), e), (2, &CExpr::Col(0)));
        let CStmt::If { cols, cond, .. } = &c.body[1] else {
            panic!("expected the guard, got {:?}", c.body[1]);
        };
        assert_eq!((cols.len(), cond), (1, &CExpr::Col(0)));
        assert_eq!(c.col_regs, 2);
    }

    #[test]
    fn rejects_unknown_names() {
        let k = parse_kernel(
            "__global__ void b(double* a, int n) { a[0] = zzz; }",
        )
        .unwrap();
        assert!(compile(&k).is_err());
    }

    #[test]
    fn compound_scalar_assign_compiles() {
        let k = parse_kernel(
            r#"
__global__ void c(double* a, int n) {
  double acc = 0.0;
  acc += 2.0;
  acc *= 3.0;
  a[0] = acc;
}
"#,
        )
        .unwrap();
        let c = compile(&k).unwrap();
        assert_eq!(c.nslots, 2); // n, acc

        // `acc += x` on a double stays a float assignment.
        let CStmt::SetSlot { slot, ty, .. } = &c.body[1] else {
            panic!("expected acc += 2.0, got {:?}", c.body[1]);
        };
        assert_eq!((*slot, *ty), (SlotRef::Val(0), ScalarType::F64));
    }

    #[test]
    fn traps_flops_loads_and_floats_stay_out_of_the_columns() {
        let k = parse_kernel(
            r#"
__global__ void k(double* a, int n) {
  int i = threadIdx.x;
  int h = n / 2;
  int m = -i;
  double x = a[i + 1] * 2.0;
  a[(i < n) ? i : 0] = (i % 2 == 0) ? x : a[i - 1];
}
"#,
        )
        .unwrap();
        let c = compile(&k).unwrap();
        let set = |n: usize| match &c.body[n] {
            CStmt::SetSlot { cols, e, .. } => (cols.clone(), e.clone()),
            other => panic!("expected a SetSlot, got {other:?}"),
        };
        // `n / 2` traps on zero and `-i` counts a flop: per thread.
        assert!(set(1).0.is_empty() && matches!(set(1).1, CExpr::Bin { .. }));
        assert!(set(2).0.is_empty() && matches!(set(2).1, CExpr::Un { .. }));
        // The load stays in the tree; only its index is a column.
        let (cols, e) = set(3);
        assert_eq!(cols.len(), 1);
        assert!(matches!(e, CExpr::Bin { .. }));
        // Store: the index ternary is one column program (compare +
        // select); `i % 2` keeps its comparison per thread while `i - 1`
        // under the lazily evaluated arm is computed for every lane.
        let CStmt::StoreGlobal { idx, cols, e, .. } = &c.body[4] else {
            panic!("expected the store, got {:?}", c.body[4]);
        };
        assert_eq!(idx, &[CExpr::Col(0)]);
        assert_eq!(cols.len(), 3);
        let CExpr::Ternary {
            c: cond, e: arm, ..
        } = e
        else {
            panic!("expected a ternary, got {e:?}");
        };
        assert!(matches!(
            **cond,
            CExpr::Bin {
                op: BinaryOp::Eq,
                ..
            }
        ));
        assert!(
            matches!(&**arm, CExpr::Global { idx, .. } if idx[..] == [CExpr::Col(1)]),
            "{arm:?}"
        );
    }

    #[test]
    fn a_name_declared_with_two_types_is_a_value_slot_with_per_declaration_coercion() {
        let k = parse_kernel(
            r#"
__global__ void k(double* a, int n) {
  int m = 1;
  m = 2.5;
  if (n > 0) { double m = 0.5; m = 3; }
  a[0] = m;
}
"#,
        )
        .unwrap();
        let c = compile(&k).unwrap();
        assert_eq!(c.int_slots, 1, "only n: {c:?}");
        let ty_of = |s: &CStmt| match s {
            CStmt::SetSlot { slot, ty, .. } => (*slot, *ty),
            other => panic!("expected a SetSlot, got {other:?}"),
        };
        assert_eq!(ty_of(&c.body[0]), (SlotRef::Val(0), ScalarType::I32));
        assert_eq!(ty_of(&c.body[1]), (SlotRef::Val(0), ScalarType::I32));
        let CStmt::If { then_body, .. } = &c.body[2] else {
            panic!("expected the if, got {:?}", c.body[2]);
        };
        assert_eq!(ty_of(&then_body[0]), (SlotRef::Val(0), ScalarType::F64));
        assert_eq!(ty_of(&then_body[1]), (SlotRef::Val(0), ScalarType::F64));
    }
}
