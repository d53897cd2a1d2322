//! Kernel compilation: resolve variable names to slots and array names to
//! table indices once per kernel, type the slots and expressions, and mark
//! which statement parts may run column-wise over the block.
//!
//! **Slot typing.** A name whose every declaration in the kernel is `int`
//! (scalar `int` parameters, `int` locals, `for` variables) is an *int
//! slot*, and one whose every declaration is `double` or `float` is a
//! *float slot*: assignments coerce to the declared type and an
//! uninitialised declaration holds the declared type's zero, so such a slot
//! holds one type for its whole life and the interpreter stores it as a
//! column — `i64` ([`CExpr::ISlot`]) or `f64` ([`CExpr::FSlot`]). A name
//! declared with two different types keeps each declaration's type for its
//! own assignments, so it is a dynamically typed value slot
//! ([`CExpr::Slot`]).
//!
//! **Pure-int subtrees.** A subtree built only from integer literals, int
//! slots, builtins, wrapping `+ - *`, comparisons, `&& || !` and ternaries
//! of those touches no counter, hazard log, memory cell or trap, so *when*
//! it is evaluated is unobservable. [`compile`] replaces every maximal
//! such subtree with [`CExpr::Col`] and emits a [`ColOp`] program that the
//! interpreter runs once per statement execution over all lanes.
//!
//! **Statically typed parts.** What is left — loads, float arithmetic,
//! `/ %`, unary `-`, intrinsics — is observable, but when every node of a
//! part has one type for every lane (`static_type`: no value slot, no
//! ternary whose arms differ in type, no float operand of `&& ||`, no
//! float index, no shared index of the wrong rank) the interpreter may
//! evaluate it once over the active lanes and commit the counters only if
//! no lane would trap or report a hazard. Such a right-hand side, store
//! index or condition is marked `columns`; every other part runs per
//! thread in thread order. A shared store whose right-hand side or index
//! reads its own tile is never marked: the per-thread order of those reads
//! and writes is what its hazard reports describe. Name lookups here hash;
//! the interpreter's hot path does not.

use crate::interp::ExecError;
use sf_minicuda::ast::*;
use std::collections::HashMap;

/// Where a scalar lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRef {
    /// Column of the block's integer state (statically `int`).
    Int(u16),
    /// Column of the block's float state (statically `double`/`float`).
    Float(u16),
    /// Per-thread dynamically typed value slot.
    Val(u16),
}

impl SlotRef {
    /// The expression that reads this slot.
    fn read(self) -> CExpr {
        match self {
            SlotRef::Int(s) => CExpr::ISlot(s),
            SlotRef::Float(s) => CExpr::FSlot(s),
            SlotRef::Val(s) => CExpr::Slot(s),
        }
    }
}

/// The one type an expression has in every lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty {
    Int,
    Float,
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
    /// Float slot (column of the block's float state).
    FSlot(u16),
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
/// whole block before the statement's own part; the expressions read its
/// results through [`CExpr::Col`]. A pure-int `If`/`For` condition, `For`
/// init/step, or right-hand side of an int-slot `SetSlot` is always a bare
/// `Col`. `columns` marks a part that is statically typed (module docs):
/// for a store, its indices and right-hand side together.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum CStmt {
    SetSlot {
        slot: SlotRef,
        /// Declared type of the assigned name at this statement.
        ty: ScalarType,
        cols: Vec<ColOp>,
        e: CExpr,
        columns: bool,
    },
    StoreGlobal {
        array: u16,
        idx: Vec<CExpr>,
        op: AssignOp,
        cols: Vec<ColOp>,
        e: CExpr,
        columns: bool,
    },
    StoreShared {
        tile: u16,
        idx: Vec<CExpr>,
        op: AssignOp,
        cols: Vec<ColOp>,
        e: CExpr,
        columns: bool,
    },
    If {
        cols: Vec<ColOp>,
        cond: CExpr,
        columns: bool,
        then_body: Vec<CStmt>,
        else_body: Vec<CStmt>,
    },
    For {
        slot: SlotRef,
        init_cols: Vec<ColOp>,
        init: CExpr,
        cond_cols: Vec<ColOp>,
        cond: CExpr,
        cond_columns: bool,
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
    /// How many of them are int slots and float slots (columns); the rest
    /// are value slots.
    pub int_slots: usize,
    pub float_slots: usize,
    /// Column registers the largest statement's column program needs.
    pub col_regs: usize,
    /// Registers the largest column-wise part needs (module docs of
    /// `interp`: a node evaluates into its register, its operands into the
    /// ones above it).
    pub part_regs: usize,
    /// Scalar parameter slots in parameter order.
    pub scalar_param_slots: Vec<(SlotRef, ScalarType)>,
    /// Array parameter names in parameter order (bound at launch).
    pub array_params: Vec<String>,
    /// Shared tiles: (extents, element count).
    pub tiles: Vec<(Vec<usize>, usize)>,
    pub body: Vec<CStmt>,
}

/// The type `e` has in every lane, or `None` when a lane's type depends on
/// its values or the expression always traps (module docs: statically
/// typed parts). `tiles` are the shared tiles' shapes, for the rank check.
pub(crate) fn static_type(e: &CExpr, tiles: &[(Vec<usize>, usize)]) -> Option<Ty> {
    use BinaryOp::*;
    let ty = |e: &CExpr| static_type(e, tiles);
    let ints = |es: &[CExpr]| es.iter().all(|i| ty(i) == Some(Ty::Int));
    match e {
        CExpr::I(_) | CExpr::ISlot(_) | CExpr::Builtin(_) | CExpr::Col(_) => Some(Ty::Int),
        CExpr::F(_) | CExpr::FSlot(_) => Some(Ty::Float),
        CExpr::Slot(_) => None,
        CExpr::Global { idx, .. } => (idx.len() <= 4 && ints(idx)).then_some(Ty::Float),
        CExpr::Shared { tile, idx } => {
            (idx.len() == tiles[*tile as usize].0.len() && ints(idx)).then_some(Ty::Float)
        }
        CExpr::Un {
            op: UnaryOp::Neg,
            e,
        } => ty(e),
        CExpr::Un { e, .. } => ty(e).map(|_| Ty::Int),
        CExpr::Bin { op, l, r } => match (ty(l)?, ty(r)?) {
            (Ty::Int, Ty::Int) => Some(Ty::Int),
            _ if matches!(op, And | Or) => None,
            _ if op.is_arithmetic() => Some(Ty::Float),
            _ => Some(Ty::Int),
        },
        CExpr::Call { args, .. } => args.iter().all(|a| ty(a).is_some()).then_some(Ty::Float),
        CExpr::Ternary { c, t, e } => {
            ty(c)?;
            let t = ty(t)?;
            (ty(e)? == t).then_some(t)
        }
    }
}

/// Registers a column-wise evaluation of `e` rooted at register `dst`
/// needs: every node takes its own, and operand `j` of a node at `r` is
/// evaluated at `r + 1 + j`.
fn part_regs(e: &CExpr, dst: usize) -> usize {
    let under = |es: &[CExpr]| {
        es.iter()
            .enumerate()
            .map(|(j, x)| part_regs(x, dst + 1 + j))
            .max()
            .unwrap_or(0)
    };
    (dst + 1).max(match e {
        CExpr::Global { idx, .. } | CExpr::Shared { idx, .. } => under(idx),
        CExpr::Call { args, .. } => under(args),
        CExpr::Un { e, .. } => part_regs(e, dst + 1),
        CExpr::Bin { l, r, .. } => part_regs(l, dst + 1).max(part_regs(r, dst + 2)),
        CExpr::Ternary { c, t, e } => part_regs(c, dst + 1)
            .max(part_regs(t, dst + 2))
            .max(part_regs(e, dst + 3)),
        _ => 0,
    })
}

/// Does `e` load from shared tile `tile`?
fn reads_tile(e: &CExpr, tile: u16) -> bool {
    let any = |es: &[CExpr]| es.iter().any(|x| reads_tile(x, tile));
    match e {
        CExpr::Shared { tile: t, idx } => *t == tile || any(idx),
        CExpr::Global { idx, .. } => any(idx),
        CExpr::Call { args, .. } => any(args),
        CExpr::Un { e, .. } => reads_tile(e, tile),
        CExpr::Bin { l, r, .. } => reads_tile(l, tile) || reads_tile(r, tile),
        CExpr::Ternary { c, t, e } => {
            reads_tile(c, tile) || reads_tile(t, tile) || reads_tile(e, tile)
        }
        _ => false,
    }
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

/// Which types a name is declared with: [`INT`] and/or [`FLOAT`] bits.
type Declared = u8;
const INT: Declared = 1;
const FLOAT: Declared = 2;

fn declared(ty: ScalarType) -> Declared {
    match ty {
        ScalarType::I32 => INT,
        ScalarType::F32 | ScalarType::F64 => FLOAT,
    }
}

struct Compiler<'k> {
    kernel: &'k Kernel,
    /// Per declared name: the types of all of its declarations.
    declared: HashMap<&'k str, Declared>,
    /// Each name's slot, and its declared type at the current point of
    /// the walk.
    slots: HashMap<String, (SlotRef, ScalarType)>,
    int_slots: u16,
    float_slots: u16,
    val_slots: u16,
    col_regs: usize,
    part_regs: usize,
    arrays: HashMap<String, u16>,
    tiles: HashMap<String, u16>,
    tile_shapes: Vec<(Vec<usize>, usize)>,
}

/// Record every declaration's type: a name is an int (float) slot iff all
/// of its declarations are `int` (`double`/`float`).
fn scan_declarations<'k>(stmts: &'k [Stmt], names: &mut HashMap<&'k str, Declared>) {
    for s in stmts {
        match s {
            Stmt::VarDecl { name, ty, .. } => *names.entry(name).or_insert(0) |= declared(*ty),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                scan_declarations(then_body, names);
                scan_declarations(else_body, names);
            }
            Stmt::For { var, body, .. } => {
                *names.entry(var).or_insert(0) |= INT;
                scan_declarations(body, names);
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
        let (count, slot): (_, fn(u16) -> SlotRef) =
            match self.declared.get(name).copied().unwrap_or(0) {
                INT => (&mut self.int_slots, SlotRef::Int),
                FLOAT => (&mut self.float_slots, SlotRef::Float),
                _ => (&mut self.val_slots, SlotRef::Val),
            };
        *count += 1;
        let s = slot(*count - 1);
        self.slots.insert(name.to_string(), (s, ty));
        Ok(s)
    }

    /// Finish one statement part's column program.
    fn finish(&mut self, program: ColProgram) -> Vec<ColOp> {
        self.col_regs = self.col_regs.max(program.regs);
        program.ops
    }

    /// Is the part made of `roots` (root `j` evaluated at register `j`)
    /// statically typed, with every root but the last an index? Sizes the
    /// register file when it is.
    fn columns(&mut self, roots: &[&CExpr]) -> bool {
        let Some((last, idx)) = roots.split_last() else {
            return false;
        };
        let typed = |e: &CExpr| static_type(e, &self.tile_shapes);
        if typed(last).is_none() || idx.iter().any(|i| typed(i) != Some(Ty::Int)) {
            return false;
        }
        let regs = roots.iter().enumerate().map(|(j, e)| part_regs(e, j));
        self.part_regs = self.part_regs.max(regs.max().unwrap_or(0));
        true
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

    /// `slot = e`, coerced to `ty`. A value slot is assigned per thread.
    fn set_slot(&mut self, slot: SlotRef, ty: ScalarType, e: CExpr) -> CStmt {
        let mut p = ColProgram::default();
        let e = match slot {
            SlotRef::Int(_) => p.lower_whole(e),
            SlotRef::Float(_) | SlotRef::Val(_) => p.lower(e),
        };
        CStmt::SetSlot {
            slot,
            ty,
            cols: self.finish(p),
            columns: !matches!(slot, SlotRef::Val(_)) && self.columns(&[&e]),
            e,
        }
    }

    /// A whole-block part (a condition, a `for` init or step): its column
    /// program, the lowered expression, and whether the rest is statically
    /// typed.
    fn whole_part(&mut self, e: CExpr) -> (Vec<ColOp>, CExpr, bool) {
        let mut p = ColProgram::default();
        let e = p.lower_whole(e);
        let columns = self.columns(&[&e]);
        (self.finish(p), e, columns)
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
                            let idx: Vec<CExpr> = idx.into_iter().map(|i| p.lower(i)).collect();
                            let e = p.lower(e);
                            let cols = self.finish(p);
                            let roots: Vec<&CExpr> = idx.iter().chain([&e]).collect();
                            if let Some(&a) = self.arrays.get(array) {
                                let columns = idx.len() <= 4 && self.columns(&roots);
                                out.push(CStmt::StoreGlobal {
                                    array: a,
                                    idx,
                                    op: *op,
                                    cols,
                                    e,
                                    columns,
                                });
                            } else if let Some(&t) = self.tiles.get(array) {
                                let columns = idx.len() == self.tile_shapes[t as usize].0.len()
                                    && !roots.iter().any(|r| reads_tile(r, t))
                                    && self.columns(&roots);
                                out.push(CStmt::StoreShared {
                                    tile: t,
                                    idx,
                                    op: *op,
                                    cols,
                                    e,
                                    columns,
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
                    let cond = self.expr(cond)?;
                    let (cols, cond, columns) = self.whole_part(cond);
                    let then_body = self.stmts(then_body)?;
                    let else_body = self.stmts(else_body)?;
                    out.push(CStmt::If {
                        cols,
                        cond,
                        columns,
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
                    // An init or step that is not a bare column (it traps,
                    // loads or counts a flop) is rare enough to stay per
                    // thread.
                    let (init_cols, init, _) = self.whole_part(init);
                    let (cond_cols, cond, cond_columns) = self.whole_part(cond);
                    let (step_cols, step, _) = self.whole_part(step);
                    let body = self.stmts(body)?;
                    out.push(CStmt::For {
                        slot,
                        init_cols,
                        init,
                        cond_cols,
                        cond,
                        cond_columns,
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
    let mut names = HashMap::new();
    for p in &kernel.params {
        if let Param::Scalar { name, ty } = p {
            names.insert(name.as_str(), declared(*ty));
        }
    }
    scan_declarations(&kernel.body, &mut names);
    let mut c = Compiler {
        kernel,
        declared: names,
        slots: HashMap::new(),
        int_slots: 0,
        float_slots: 0,
        val_slots: 0,
        col_regs: 0,
        part_regs: 0,
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
        float_slots: c.float_slots as usize,
        col_regs: c.col_regs,
        part_regs: c.part_regs,
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

        // `acc += x` on a double stays a float assignment to a float
        // column, evaluated column-wise.
        let CStmt::SetSlot {
            slot, ty, columns, ..
        } = &c.body[1]
        else {
            panic!("expected acc += 2.0, got {:?}", c.body[1]);
        };
        assert_eq!(
            (*slot, *ty, *columns),
            (SlotRef::Float(0), ScalarType::F64, true)
        );
        assert_eq!(c.float_slots, 1);
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

    /// Which parts are marked `columns`: statically typed ones only, and
    /// never a shared store that reads its own tile.
    #[test]
    fn statically_typed_parts_are_marked_columns() {
        let k = parse_kernel(
            r#"
__global__ void k(double* a, int n, double x) {
  __shared__ double s[64];
  __shared__ double t[64];
  int i = threadIdx.x;
  double d = x * a[i] + sqrt(-x);
  int m = 1;
  double m = 0.5;
  a[i] = (i > 2) ? a[i - 1] / 2 : -d;
  a[i] = m + 1.0;
  a[i] = (i > 2) ? 1 : 2.0;
  a[i] = (x && 1) * 2.0;
  a[x] = 1.0;
  s[i] = t[i] * 2.0;
  s[i] = s[63 - i];
  if (a[i] > 0.0) { t[i] += 1; }
}
"#,
        )
        .unwrap();
        let c = compile(&k).unwrap();
        let columns = |s: &CStmt| match s {
            CStmt::SetSlot { columns, .. }
            | CStmt::StoreGlobal { columns, .. }
            | CStmt::StoreShared { columns, .. }
            | CStmt::If { columns, .. } => *columns,
            other => panic!("unexpected {other:?}"),
        };
        let marks: Vec<bool> = c.body.iter().map(columns).collect();
        assert_eq!(
            marks,
            [
                true,  // int i
                true,  // double d: float column, loads, an intrinsic
                false, // int m: a value slot is assigned per thread
                false, // double m
                true,  // a ternary of two floats, `/` by an int
                false, // reads the value slot m
                false, // arms of two types
                false, // a float operand of `&&`
                false, // a float index
                true,  // a shared store reading another tile
                false, // a shared store reading its own tile
                true,  // a float condition
            ]
        );
        assert_eq!((c.int_slots, c.float_slots, c.nslots), (2, 2, 5));
        let CStmt::If { then_body, .. } = &c.body[11] else {
            panic!("expected the if, got {:?}", c.body[11]);
        };
        assert!(
            columns(&then_body[0]),
            "`t[i] += 1` reads t only through `+=`"
        );
        assert!(c.part_regs >= 4, "{}", c.part_regs);
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
