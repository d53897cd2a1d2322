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
//! **Statement parts.** Each right-hand side, store (its indices and
//! right-hand side together), condition, and `for` init and step is a
//! *part* with a [`Part`] marker. A part is `Pure` when it is built only
//! from integer literals, int slots, builtins, wrapping `+ - *`,
//! comparisons, `&& || !` and ternaries of those (`is_pure`): it touches no
//! counter, hazard log, memory cell or trap, so *when* and in which lanes it
//! is evaluated is unobservable, and the interpreter evaluates it over every
//! lane of the block. A store is never `Pure`. What else may appear — loads,
//! float arithmetic, `/ %`, unary `-`, intrinsics — is observable, but when
//! every node of a part has one type for every lane (`static_type`: no
//! value slot, no ternary whose arms differ in type, no float operand of
//! `&& ||`, no float index, no shared index of the wrong rank) the part is
//! `Typed`: the interpreter may evaluate it once over the active lanes and
//! commit the counters only if no lane would trap or report a hazard. Every
//! other part runs `PerThread`, in thread order. A shared store whose
//! right-hand side or index reads its own tile is never `Typed`: the
//! per-thread order of those reads and writes is what its hazard reports
//! describe. Name lookups here hash; the interpreter's hot path does not.
//!
//! **Guard conjuncts.** A `Pure` `if` condition inside a `for` body may run
//! many times per block, and most of what it tests does not change between
//! runs. Its top-level `&&` operands are *conjuncts* ([`Conjunct`]),
//! interned across the kernel so structurally equal ones share an id, each
//! with the int slots it reads; the `if` carries their ids, and the
//! interpreter keeps one truth mask per conjunct and recomputes it only
//! when the block changes or a slot it reads is written. An `if` outside
//! every loop runs at most once per block and keeps no ids.

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
    /// Global array element (index into the launch's bound-array table).
    Global {
        array: u16,
        idx: Vec<CExpr>,
    },
    /// Shared tile element (index into the block's tile table).
    Shared {
        tile: u16,
        idx: Vec<CExpr>,
    },
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

/// How the interpreter evaluates one statement part (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Per thread in thread order, in the one evaluator.
    PerThread,
    /// Once over the active lanes, committed only if no lane would trap or
    /// report a hazard.
    Typed,
    /// Once over every lane of the block, with nothing to commit.
    Pure,
}

/// A compiled statement: its expressions and the [`Part`] each runs as.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum CStmt {
    SetSlot {
        slot: SlotRef,
        /// Declared type of the assigned name at this statement.
        ty: ScalarType,
        e: CExpr,
        part: Part,
    },
    StoreGlobal {
        array: u16,
        idx: Vec<CExpr>,
        op: AssignOp,
        e: CExpr,
        part: Part,
    },
    StoreShared {
        tile: u16,
        idx: Vec<CExpr>,
        op: AssignOp,
        e: CExpr,
        part: Part,
    },
    If {
        cond: CExpr,
        part: Part,
        /// Ids of the condition's conjuncts ([`CompiledKernel::conjuncts`]),
        /// when it is memoized (module docs); empty when `cond` runs as
        /// `part` says.
        conjuncts: Vec<u32>,
        then_body: Vec<CStmt>,
        else_body: Vec<CStmt>,
    },
    For {
        slot: SlotRef,
        init: CExpr,
        init_part: Part,
        cond: CExpr,
        cond_part: Part,
        step: CExpr,
        step_part: Part,
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
    /// The memoized guard conjuncts, indexed by the ids `CStmt::If` holds.
    pub conjuncts: Vec<Conjunct>,
    pub body: Vec<CStmt>,
}

/// One top-level `&&` operand of a memoized guard (module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Conjunct {
    /// The pure expression.
    pub expr: CExpr,
    /// The int slots it reads, each once: a write to one of them makes its
    /// truth mask stale.
    pub reads: Vec<u16>,
}

/// The type `e` has in every lane, or `None` when a lane's type depends on
/// its values or the expression always traps (module docs: statically
/// typed parts). `tiles` are the shared tiles' shapes, for the rank check.
pub(crate) fn static_type(e: &CExpr, tiles: &[(Vec<usize>, usize)]) -> Option<Ty> {
    use BinaryOp::*;
    let ty = |e: &CExpr| static_type(e, tiles);
    let ints = |es: &[CExpr]| es.iter().all(|i| ty(i) == Some(Ty::Int));
    match e {
        CExpr::I(_) | CExpr::ISlot(_) | CExpr::Builtin(_) => Some(Ty::Int),
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
/// effect? (Module docs: statement parts.)
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

/// The top-level `&&` operands of `e`, left to right.
fn split_and<'e>(e: &'e CExpr, out: &mut Vec<&'e CExpr>) {
    match e {
        CExpr::Bin {
            op: BinaryOp::And,
            l,
            r,
        } => {
            split_and(l, out);
            split_and(r, out);
        }
        _ => out.push(e),
    }
}

/// Add the int slots the pure `e` reads to `out`, each once.
fn int_reads(e: &CExpr, out: &mut Vec<u16>) {
    match e {
        CExpr::ISlot(s) if !out.contains(s) => out.push(*s),
        CExpr::Un { e, .. } => int_reads(e, out),
        CExpr::Bin { l, r, .. } => {
            int_reads(l, out);
            int_reads(r, out);
        }
        CExpr::Ternary { c, t, e } => {
            int_reads(c, out);
            int_reads(t, out);
            int_reads(e, out);
        }
        _ => {}
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
    part_regs: usize,
    arrays: HashMap<String, u16>,
    tiles: HashMap<String, u16>,
    tile_shapes: Vec<(Vec<usize>, usize)>,
    /// `for` bodies the walk is inside.
    loop_depth: u32,
    conjuncts: Vec<Conjunct>,
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

    /// How the part made of `roots` runs (root `j` evaluated at register
    /// `j`; every root but the last an index). Sizes the register file
    /// unless it runs per thread.
    fn part(&mut self, roots: &[&CExpr]) -> Part {
        let Some((last, idx)) = roots.split_last() else {
            return Part::PerThread;
        };
        let typed = |e: &CExpr| static_type(e, &self.tile_shapes);
        if typed(last).is_none() || idx.iter().any(|i| typed(i) != Some(Ty::Int)) {
            return Part::PerThread;
        }
        let regs = roots.iter().enumerate().map(|(j, e)| part_regs(e, j));
        self.part_regs = self.part_regs.max(regs.max().unwrap_or(0));
        // A store (a part with indices) writes memory: never pure.
        if idx.is_empty() && is_pure(last) {
            Part::Pure
        } else {
            Part::Typed
        }
    }

    /// The ids of the pure `cond`'s conjuncts, each interned: a
    /// structurally equal conjunct seen before keeps its id.
    fn intern_conjuncts(&mut self, cond: &CExpr) -> Vec<u32> {
        let mut ops = Vec::new();
        split_and(cond, &mut ops);
        ops.into_iter()
            .map(|e| {
                if let Some(id) = self.conjuncts.iter().position(|c| c.expr == *e) {
                    return id as u32;
                }
                let mut reads = Vec::new();
                int_reads(e, &mut reads);
                self.conjuncts.push(Conjunct {
                    expr: e.clone(),
                    reads,
                });
                self.conjuncts.len() as u32 - 1
            })
            .collect()
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

    /// How `e` is assigned to `slot`: a value slot is assigned per thread.
    fn slot_part(&mut self, slot: SlotRef, e: &CExpr) -> Part {
        match slot {
            SlotRef::Val(_) => Part::PerThread,
            SlotRef::Int(_) | SlotRef::Float(_) => self.part(&[e]),
        }
    }

    /// `slot = e`, coerced to `ty`.
    fn set_slot(&mut self, slot: SlotRef, ty: ScalarType, e: CExpr) -> CStmt {
        let part = self.slot_part(slot, &e);
        CStmt::SetSlot { slot, ty, e, part }
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
                            let roots: Vec<&CExpr> = idx.iter().chain([&e]).collect();
                            if let Some(&a) = self.arrays.get(array) {
                                let part = match idx.len() <= 4 {
                                    true => self.part(&roots),
                                    false => Part::PerThread,
                                };
                                out.push(CStmt::StoreGlobal {
                                    array: a,
                                    idx,
                                    op: *op,
                                    e,
                                    part,
                                });
                            } else if let Some(&t) = self.tiles.get(array) {
                                let batch = idx.len() == self.tile_shapes[t as usize].0.len()
                                    && !roots.iter().any(|r| reads_tile(r, t));
                                let part = match batch {
                                    true => self.part(&roots),
                                    false => Part::PerThread,
                                };
                                out.push(CStmt::StoreShared {
                                    tile: t,
                                    idx,
                                    op: *op,
                                    e,
                                    part,
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
                    let part = self.part(&[&cond]);
                    let conjuncts = match part == Part::Pure && self.loop_depth > 0 {
                        true => self.intern_conjuncts(&cond),
                        false => Vec::new(),
                    };
                    let then_body = self.stmts(then_body)?;
                    let else_body = self.stmts(else_body)?;
                    out.push(CStmt::If {
                        cond,
                        part,
                        conjuncts,
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
                    // The init is assigned like a declaration's; the step is
                    // added to an int, so a float step traps per thread.
                    let init_part = self.slot_part(slot, &init);
                    let cond_part = self.part(&[&cond]);
                    let step_part = match static_type(&step, &self.tile_shapes) {
                        Some(Ty::Int) => self.slot_part(slot, &step),
                        _ => Part::PerThread,
                    };
                    // An error ends the compile, depth and all.
                    self.loop_depth += 1;
                    let body = self.stmts(body)?;
                    self.loop_depth -= 1;
                    out.push(CStmt::For {
                        slot,
                        init,
                        init_part,
                        cond,
                        cond_part,
                        step,
                        step_part,
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
        part_regs: 0,
        arrays: HashMap::new(),
        tiles: HashMap::new(),
        tile_shapes: Vec::new(),
        loop_depth: 0,
        conjuncts: Vec::new(),
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
        part_regs: c.part_regs,
        scalar_param_slots,
        array_params,
        tiles: c.tile_shapes,
        conjuncts: c.conjuncts,
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
        // `int i = ...` and `if (i < nx)` run over the whole block; the
        // stores load and write memory.
        let CStmt::SetSlot { slot, .. } = &c.body[0] else {
            panic!("expected the declaration of i, got {:?}", c.body[0]);
        };
        assert_eq!(*slot, SlotRef::Int(1));
        let CStmt::If { then_body, .. } = &c.body[1] else {
            panic!("expected the guard, got {:?}", c.body[1]);
        };
        assert_eq!(parts(&c.body), [Part::Pure, Part::Pure]);
        assert_eq!(parts(then_body), [Part::Typed, Part::Typed]);
        assert_eq!(c.part_regs, 5, "`c * t[threadIdx.x]` at register 1");
    }

    /// Every part of `stmts` (a `for` gives its init, condition and step),
    /// barriers skipped.
    fn parts(stmts: &[CStmt]) -> Vec<Part> {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                CStmt::SetSlot { part, .. }
                | CStmt::StoreGlobal { part, .. }
                | CStmt::StoreShared { part, .. }
                | CStmt::If { part, .. } => out.push(*part),
                CStmt::For {
                    init_part,
                    cond_part,
                    step_part,
                    ..
                } => out.extend([*init_part, *cond_part, *step_part]),
                CStmt::Sync | CStmt::Return => {}
            }
        }
        out
    }

    /// Only a pure `if` inside a loop is memoized; its `&&` conjuncts are
    /// interned across the kernel, each with the int slots it reads.
    #[test]
    fn guards_inside_loops_carry_interned_conjuncts() {
        let k = parse_kernel(
            r#"
__global__ void g(double* a, int nx, int nz) {
  int i = threadIdx.x;
  if (i < nx && i > 0) { a[i] = 1.0; }
  for (int k = 0; k < nz; k++) {
    if (i < nx && (i > 0 && k < i)) { a[i] = 2.0; }
    if (k < i && i < nx) { a[i] = 3.0; }
    if (a[i] > 0.0) { a[i] = 4.0; }
  }
}
"#,
        )
        .unwrap();
        let c = compile(&k).unwrap();
        let ids = |s: &CStmt| match s {
            CStmt::If { conjuncts, .. } => conjuncts.clone(),
            other => panic!("expected an if, got {other:?}"),
        };
        assert!(ids(&c.body[1]).is_empty(), "outside every loop");
        let CStmt::For { body, .. } = &c.body[2] else {
            panic!("expected the loop, got {:?}", c.body[2]);
        };
        assert_eq!(ids(&body[0]), [0, 1, 2], "split through nested `&&`");
        assert_eq!(ids(&body[1]), [2, 0], "the same conjuncts keep their ids");
        assert!(ids(&body[2]).is_empty(), "a typed condition");
        // Slots: nx 0, nz 1, i 2, k 3.
        let reads: Vec<&[u16]> = c.conjuncts.iter().map(|j| &j.reads[..]).collect();
        assert_eq!(reads, [&[2, 0][..], &[2], &[3, 2]]);
    }

    #[test]
    fn rejects_unknown_names() {
        let k = parse_kernel("__global__ void b(double* a, int n) { a[0] = zzz; }").unwrap();
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
        let CStmt::SetSlot { slot, ty, part, .. } = &c.body[1] else {
            panic!("expected acc += 2.0, got {:?}", c.body[1]);
        };
        assert_eq!(
            (*slot, *ty, *part),
            (SlotRef::Float(0), ScalarType::F64, Part::Typed)
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
  a[i] = i + 1;
  if (i < n && !(i == 3) || n ? i * 2 : 0) { h = 1.5; }
  if (i % 2) { x = 0; }
  for (int j = 0; j < n; j++) { m = j; }
  for (int j = n / 2; j < a[0]; j += -n) { m = 0; }
  for (int j = 0; j < 2; j += 1.5) { m = 0; }
}
"#,
        )
        .unwrap();
        let c = compile(&k).unwrap();
        use Part::*;
        assert_eq!(
            parts(&c.body),
            [
                Pure,      // int i
                Typed,     // `n / 2` traps on zero
                Typed,     // `-i` counts a flop
                Typed,     // a load and a float
                Typed,     // `%`, loads
                Typed,     // a store is never pure
                Pure,      // `&& || !`, comparisons, a ternary
                Typed,     // `%`
                Pure,      // for: init,
                Pure,      // condition
                Pure,      // and step
                Typed,     // `n / 2`
                Typed,     // a load
                Typed,     // unary `-`
                Pure,      // for: init,
                Pure,      // condition
                PerThread, // and a float step, which traps per thread
            ]
        );
        let CStmt::If { then_body, .. } = &c.body[6] else {
            panic!("expected the if, got {:?}", c.body[6]);
        };
        assert_eq!(parts(then_body), [Typed], "`h = 1.5` converts a float");
    }

    /// Which parts are not per thread: statically typed ones only, and
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
        use Part::*;
        assert_eq!(
            parts(&c.body),
            [
                Pure,      // int i
                Typed,     // double d: float column, loads, an intrinsic
                PerThread, // int m: a value slot is assigned per thread
                PerThread, // double m
                Typed,     // a ternary of two floats, `/` by an int
                PerThread, // reads the value slot m
                PerThread, // arms of two types
                PerThread, // a float operand of `&&`
                PerThread, // a float index
                Typed,     // a shared store reading another tile
                PerThread, // a shared store reading its own tile
                Typed,     // a float condition
            ]
        );
        assert_eq!((c.int_slots, c.float_slots, c.nslots), (2, 2, 5));
        let CStmt::If { then_body, .. } = &c.body[11] else {
            panic!("expected the if, got {:?}", c.body[11]);
        };
        assert_eq!(
            parts(then_body),
            [Typed],
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
