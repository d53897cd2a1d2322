//! Functional SIMT interpreter.
//!
//! Executes a kernel launch block-by-block. Within a block, all threads run
//! in lockstep one statement at a time with **two-phase commit** (every
//! active thread evaluates its right-hand side and target address before
//! any thread writes), which realizes warp-synchronous parallel semantics
//! across the whole block. `__syncthreads()` is legal only in uniform
//! control flow (as in CUDA); divergent branches execute both paths under
//! active masks and are counted per warp for the divergence statistics the
//! timing model consumes.
//!
//! Kernels are compiled ([`crate::compile`]) to slot-resolved, slot-typed
//! form before execution. Int and float slots are columns (`i64` / `f64`,
//! one element per lane), `threadIdx` is a table built once per launch, and
//! each statement part (a right-hand side, a store's indices, a condition,
//! a `for` init or step) runs in one of two evaluators, as its
//! [`Part`] marker says:
//!
//! - the **column evaluator** (`Machine::col`) evaluates a pure or
//!   statically typed part once over a selection of lanes. A node evaluates
//!   into its own register column and its operands into the registers
//!   above it; arithmetic runs over every lane of the block when at least
//!   half are selected (such loops vectorise) and over the selected lanes'
//!   indices otherwise, loads only over the lanes selected, and each
//!   ternary arm over the lanes that take it, so an untaken arm never
//!   loads. A **pure** part (integer leaves, wrapping `+ - *`, comparisons,
//!   `&& || !`, ternaries) touches no counter, hazard log, memory cell or
//!   trap, so it runs over every lane of the block whatever the mask, and
//!   its result is applied under the mask. A **typed** part runs over the
//!   active lanes: each index column is range-checked once (its minimum and
//!   maximum over the lanes), flops and reads are charged as *active lanes
//!   × ops* to a pending tally, and the hazard checks run over the offsets
//!   in tight loops. It **commits** — tally, shared-read log, stores — only
//!   if no lane would trap (out of bounds, an int `/ %` by zero or
//!   overflow) and no lane would report a hazard the launch's list still
//!   has room for;
//! - otherwise nothing was committed, and the statement runs **per thread
//!   in thread order** from the unchanged state in the one evaluator
//!   (`Machine::eval`), which is the only source of trap and hazard text.
//!   So the lowest faulting thread is the one reported, and hazard strings,
//!   their order and the cap of 16 are what thread-major evaluation always
//!   produced. An untyped part (a value slot, a ternary whose arms differ
//!   in type) always takes this path.
//!
//! Both paths pin which NaN a commutative `+`/`*` returns (`nan_first`),
//! since a vectorised loop may hand the hardware the operands in the other
//! order. The footprint sets are the one thing a part touches before it
//! commits: inserting into a set is idempotent and the per-thread rerun
//! reads a superset, so the result is the same.
//!
//! There is no unchecked mode: bounds, hazard and race checks run on every
//! access at this speed. Block-sized state (columns, registers, lane
//! selections, masks, tiles, the hazard logs) is pooled across statements,
//! blocks and launches; bound arrays are checked out of [`GlobalMemory`]
//! for the duration of a launch.
//!
//! The interpreter also performs the checks the paper relies on:
//! - output verification — callers compare memory images of original vs
//!   transformed programs;
//! - shared-memory race detection (conflicting writes from different warps
//!   between barriers);
//! - cross-block global hazards (a block reading an element written by a
//!   different block in the same launch — invalid inter-block communication
//!   that temporal blocking must avoid).

use crate::compile::{compile, CExpr, CStmt, CompiledKernel, Part, SlotRef};
use crate::memory::{DeviceArray, GlobalMemory};
use sf_minicuda::ast::*;
use sf_minicuda::host::{Dim3, ExecutablePlan, HostValue, LaunchRecord, ResolvedArg};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// What went wrong in an [`ExecError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecErrorKind {
    /// The program or its launch is at fault: an out-of-bounds access, a
    /// division by zero, a barrier in divergent control flow, bad
    /// arguments.
    Trap,
    /// [`Interpreter::step_limit`] ran out: `used` steps were needed.
    #[allow(missing_docs)] // fields carry descriptive names
    StepBudget { used: u64, limit: u64 },
}

/// A runtime error during simulated execution: the message and its kind.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError(pub String, pub ExecErrorKind);

impl ExecError {
    pub(crate) fn trap(message: impl Into<String>) -> ExecError {
        ExecError(message.into(), ExecErrorKind::Trap)
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// A runtime scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub enum Value {
    I(i64),
    F(f64),
}

impl Value {
    fn as_f64(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
        }
    }

    fn as_i64(self) -> Result<i64, ExecError> {
        match self {
            Value::I(v) => Ok(v),
            Value::F(v) => Err(ExecError::trap(format!("expected integer value, got {v}"))),
        }
    }

    fn truthy(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
        }
    }
}

/// Counters from executing one launch.
#[derive(Debug, Clone, Default, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct LaunchStats {
    /// Floating-point operations executed (intrinsics weighted).
    pub flops: u64,
    /// Global-memory element reads / writes (raw access counts).
    pub global_reads: u64,
    pub global_writes: u64,
    /// Shared-memory element reads / writes.
    pub shared_reads: u64,
    pub shared_writes: u64,
    /// Statements issued per warp (instruction proxy).
    pub warp_instructions: u64,
    /// Conditional-branch evaluations per warp, and how many were divergent.
    pub branch_evals: u64,
    pub divergent_evals: u64,
    /// Threads launched.
    pub threads: u64,
    /// Unique global elements read / written per (block, sweep) window —
    /// the footprint the DRAM traffic model predicts (tracked only when
    /// `track_footprint` is set).
    pub footprint_read_elems: u64,
    pub footprint_write_elems: u64,
    /// Race / hazard reports (capped at 16).
    pub hazards: Vec<String>,
}

impl LaunchStats {
    /// Fraction of branch evaluations that diverged.
    pub fn divergence_fraction(&self) -> f64 {
        if self.branch_evals == 0 {
            0.0
        } else {
            self.divergent_evals as f64 / self.branch_evals as f64
        }
    }

    fn add_hazard(&mut self, msg: String) {
        if self.hazards.len() < 16 {
            self.hazards.push(msg);
        }
    }
}

/// The interpreter for one program.
pub struct Interpreter<'p> {
    program: &'p Program,
    /// Track per-(block, sweep) unique-element footprints (slower; used by
    /// validation tests on small grids).
    pub track_footprint: bool,
    /// Detect cross-block read-after-write hazards (slower).
    pub detect_hazards: bool,
    /// Step budget across every launch this interpreter runs: one step
    /// per (block × thread) unit of work, charged before the block
    /// executes. `None` = unbounded. Exhaustion is a structured
    /// [`ExecError`] of kind [`ExecErrorKind::StepBudget`], never a hang —
    /// the resource governor's defense-in-depth against compile-bomb
    /// domains that slip past the static admission checks.
    pub step_limit: Option<u64>,
    steps_used: std::cell::Cell<u64>,
    compiled: RefCell<HashMap<String, Rc<CompiledKernel>>>,
    pools: RefCell<Pools>,
}

impl<'p> Interpreter<'p> {
    /// Create an interpreter over a program.
    pub fn new(program: &'p Program) -> Interpreter<'p> {
        Interpreter {
            program,
            track_footprint: false,
            detect_hazards: false,
            step_limit: None,
            steps_used: std::cell::Cell::new(0),
            compiled: RefCell::new(HashMap::new()),
            pools: RefCell::new(Pools::default()),
        }
    }

    /// Steps consumed so far (against [`Self::step_limit`]).
    pub fn steps_used(&self) -> u64 {
        self.steps_used.get()
    }

    /// The steps a complete [`Self::run_plan`] of `plan` charges, without
    /// executing anything: one per thread of every block of every launch
    /// in the dynamic trace. The count is static, so a caller with a step
    /// budget can turn an oversized grid away before running it.
    pub fn plan_steps(plan: &ExecutablePlan) -> u64 {
        plan.trace
            .iter()
            .map(|&seq| &plan.launches[seq])
            .map(|launch| launch.grid.count().saturating_mul(launch.block.count()))
            .fold(0, u64::saturating_add)
    }

    fn charge_steps(&self, amount: u64) -> Result<(), ExecError> {
        let used = self.steps_used.get().saturating_add(amount);
        self.steps_used.set(used);
        match self.step_limit {
            Some(limit) if used > limit => Err(ExecError(
                format!("interpreter step budget exhausted: {used} steps needed, limit {limit}"),
                ExecErrorKind::StepBudget { used, limit },
            )),
            _ => Ok(()),
        }
    }

    fn compiled_kernel(&self, name: &str) -> Result<Rc<CompiledKernel>, ExecError> {
        if let Some(c) = self.compiled.borrow().get(name) {
            return Ok(c.clone());
        }
        let kernel = self
            .program
            .kernel(name)
            .ok_or_else(|| ExecError::trap(format!("unknown kernel `{name}`")))?;
        let c = Rc::new(compile(kernel)?);
        self.compiled
            .borrow_mut()
            .insert(name.to_string(), c.clone());
        Ok(c)
    }

    /// Execute the full dynamic trace of a plan against a memory image.
    /// Returns per-static-launch aggregated stats (summed over trace
    /// occurrences).
    pub fn run_plan(
        &self,
        plan: &ExecutablePlan,
        memory: &mut GlobalMemory,
    ) -> Result<Vec<LaunchStats>, ExecError> {
        let mut stats: Vec<LaunchStats> = vec![LaunchStats::default(); plan.launches.len()];
        for &seq in &plan.trace {
            let launch = &plan.launches[seq];
            let s = self.run_launch(launch, memory)?;
            merge_stats(&mut stats[seq], s);
        }
        Ok(stats)
    }

    /// Execute one launch.
    pub fn run_launch(
        &self,
        launch: &LaunchRecord,
        memory: &mut GlobalMemory,
    ) -> Result<LaunchStats, ExecError> {
        let ck = self.compiled_kernel(&launch.kernel)?;
        if ck.array_params.len() + ck.scalar_param_slots.len() != launch.args.len() {
            return Err(ExecError::trap(format!(
                "kernel `{}` takes {} params, launch passes {}",
                launch.kernel,
                ck.array_params.len() + ck.scalar_param_slots.len(),
                launch.args.len()
            )));
        }
        // Bind arguments: scalars into the base slot images (an unset slot
        // is the zero of its kind), arrays checked out of global memory.
        let mut base = BaseSlots {
            ints: vec![0; ck.int_slots],
            floats: vec![0.0; ck.float_slots],
            vals: vec![Value::F(0.0); ck.nslots - ck.int_slots - ck.float_slots],
        };
        let mut bound: Vec<(String, DeviceArray)> = Vec::with_capacity(ck.array_params.len());
        let mut scalar_iter = ck.scalar_param_slots.iter();
        let mut ok: Result<(), ExecError> = Ok(());
        for a in &launch.args {
            match a {
                ResolvedArg::Array(actual) => {
                    if bound.iter().any(|(n, _)| n == actual) {
                        ok = Err(ExecError::trap(format!(
                            "array `{actual}` passed twice to `{}` (aliasing is not \
                             supported)",
                            launch.kernel
                        )));
                        break;
                    }
                    match memory.take(actual) {
                        Some(arr) => bound.push((actual.clone(), arr)),
                        None => {
                            ok = Err(ExecError::trap(format!("unknown array `{actual}`")));
                            break;
                        }
                    }
                }
                ResolvedArg::Scalar(v) => {
                    let Some(&(slot, ty)) = scalar_iter.next() else {
                        ok = Err(ExecError::trap(format!(
                            "too many scalar args for `{}`",
                            launch.kernel
                        )));
                        break;
                    };
                    let v = match (ty, v) {
                        (ScalarType::I32, HostValue::Int(i)) => Value::I(*i),
                        (ScalarType::I32, HostValue::Float(f)) => Value::I(*f as i64),
                        (_, v) => Value::F(v.as_f64()),
                    };
                    match (slot, v) {
                        (SlotRef::Int(c), Value::I(i)) => base.ints[c as usize] = i,
                        (SlotRef::Float(c), Value::F(f)) => base.floats[c as usize] = f,
                        (SlotRef::Int(_) | SlotRef::Float(_), _) => {
                            unreachable!("a column slot's every declaration has its type")
                        }
                        (SlotRef::Val(s), v) => base.vals[s as usize] = v,
                    }
                }
            }
        }

        let result = match ok {
            Ok(()) => self.exec_launch(&ck, launch, &base, &mut bound),
            Err(e) => Err(e),
        };
        for (name, arr) in bound {
            memory.put(name, arr);
        }
        result
    }

    fn exec_launch(
        &self,
        ck: &CompiledKernel,
        launch: &LaunchRecord,
        base: &BaseSlots,
        bound: &mut [(String, DeviceArray)],
    ) -> Result<LaunchStats, ExecError> {
        let mut stats = LaunchStats {
            threads: launch.grid.count() * launch.block.count(),
            ..LaunchStats::default()
        };
        let lanes = launch.block.count() as usize;
        let mut pools = self.pools.take();
        pools.prepare_launch(ck, launch.block, bound.len());

        let mut machine = Machine {
            ck,
            kernel_name: &launch.kernel,
            arrays: bound,
            stats: &mut stats,
            block_linear: 0,
            geom: Geometry {
                block_idx: Dim3::new(0, 0, 0),
                block_dim: launch.block,
                grid_dim: launch.grid,
            },
            lanes,
            nvals: base.vals.len(),
            p: pools,
            pending: Pending::default(),
            any_returned: false,
            fp_read: HashSet::new(),
            fp_write: HashSet::new(),
            track_footprint: self.track_footprint,
            detect_hazards: self.detect_hazards,
        };

        let mut run = || {
            let mut block_linear = 0u64;
            for bz in 0..launch.grid.z {
                for by in 0..launch.grid.y {
                    for bx in 0..launch.grid.x {
                        self.charge_steps(lanes as u64)?;
                        machine.reset_block(Dim3::new(bx, by, bz), block_linear, base);
                        let full = std::mem::take(&mut machine.p.full);
                        machine.exec_stmts(&ck.body, &full, true)?;
                        machine.p.full = full;
                        if machine.track_footprint {
                            machine.flush_footprint();
                        }
                        block_linear += 1;
                    }
                }
            }
            Ok::<(), ExecError>(())
        };
        let result = run();
        self.pools.replace(machine.p);
        result.map(|()| stats)
    }
}

fn merge_stats(into: &mut LaunchStats, from: LaunchStats) {
    into.flops += from.flops;
    into.global_reads += from.global_reads;
    into.global_writes += from.global_writes;
    into.shared_reads += from.shared_reads;
    into.shared_writes += from.shared_writes;
    into.warp_instructions += from.warp_instructions;
    into.branch_evals += from.branch_evals;
    into.divergent_evals += from.divergent_evals;
    into.threads += from.threads;
    into.footprint_read_elems += from.footprint_read_elems;
    into.footprint_write_elems += from.footprint_write_elems;
    for h in from.hazards {
        into.add_hazard(h);
    }
}

/// What every thread's scalar slots hold when a block starts: the launch's
/// scalar arguments, zero elsewhere.
struct BaseSlots {
    ints: Vec<i64>,
    floats: Vec<f64>,
    vals: Vec<Value>,
}

/// One value per lane: a constant, or a column.
#[derive(Clone, Copy)]
enum Lanes<'a, T = i64> {
    Const(T),
    Col(&'a [T]),
}

impl<T: Copy> Lanes<'_, T> {
    #[inline]
    fn at(self, t: usize) -> T {
        match self {
            Lanes::Const(c) => c,
            Lanes::Col(col) => col[t],
        }
    }
}

/// `dst[t] = f(a[t])` for every lane.
fn map1<T: Copy, U: Copy>(dst: &mut [U], a: Lanes<'_, T>, f: impl Fn(T) -> U) {
    match a {
        Lanes::Const(x) => dst.fill(f(x)),
        Lanes::Col(a) => {
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = f(x);
            }
        }
    }
}

/// `dst[t] = f(a[t], b[t])` for every lane; a constant operand is never
/// materialised as a column.
fn map2<T: Copy, U: Copy>(dst: &mut [U], a: Lanes<'_, T>, b: Lanes<'_, T>, f: impl Fn(T, T) -> U) {
    match (a, b) {
        (Lanes::Col(a), Lanes::Col(b)) => {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = f(x, y);
            }
        }
        (Lanes::Col(a), Lanes::Const(y)) => map1(dst, Lanes::Col(a), |x| f(x, y)),
        (Lanes::Const(x), b) => map1(dst, b, |y| f(x, y)),
    }
}

/// `dst[t] = f(a[t])` in the lanes `mask` selects.
fn masked<T: Copy, U: Copy>(dst: &mut [U], a: Lanes<'_, T>, mask: &[bool], f: impl Fn(T) -> U) {
    for (t, (d, &m)) in dst.iter_mut().zip(mask).enumerate() {
        if m {
            *d = f(a.at(t));
        }
    }
}

/// Where in the grid the executing block sits.
#[derive(Clone, Copy)]
struct Geometry {
    block_idx: Dim3,
    block_dim: Dim3,
    grid_dim: Dim3,
}

impl Geometry {
    /// A builtin's value in every lane; `tid` is the launch's `threadIdx`
    /// table (x, y and z columns, one after the other).
    fn builtin<'a>(&self, b: Builtin, tid: &'a [i64]) -> Lanes<'a> {
        let pick = |d: Dim3, axis| {
            Lanes::Const(match axis {
                Axis::X => d.x,
                Axis::Y => d.y,
                Axis::Z => d.z,
            } as i64)
        };
        match b {
            Builtin::ThreadIdx(axis) => {
                let lanes = tid.len() / 3;
                Lanes::Col(&tid[axis as usize * lanes..][..lanes])
            }
            Builtin::BlockIdx(axis) => pick(self.block_idx, axis),
            Builtin::BlockDim(axis) => pick(self.block_dim, axis),
            Builtin::GridDim(axis) => pick(self.grid_dim, axis),
        }
    }
}

/// Where a node of a part left its value: a constant, a slot's column, a
/// builtin, or the node's own register. A node's value is never in a
/// register other than its own, which the next operand's evaluation may
/// overwrite.
#[derive(Clone, Copy)]
enum Col {
    I(i64),
    ISlot(u16),
    Builtin(Builtin),
    ITmp(u16),
    F(f64),
    FSlot(u16),
    FTmp(u16),
}

impl Col {
    fn is_float(self) -> bool {
        matches!(self, Col::F(_) | Col::FSlot(_) | Col::FTmp(_))
    }
}

/// A part's evaluation found a lane that would trap or report a hazard:
/// nothing was committed, and the statement runs per thread instead.
struct Fallback;

/// Read access to every column a [`Col`] names, with the part registers
/// visible from `base` up (the ones above the node being computed).
struct Files<'a> {
    n: usize,
    geom: Geometry,
    icols: &'a [i64],
    fcols: &'a [f64],
    tid: &'a [i64],
    itmp: &'a [i64],
    ftmp: &'a [f64],
    base: usize,
}

impl<'a> Files<'a> {
    fn int(&self, c: Col) -> Lanes<'a> {
        let n = self.n;
        match c {
            Col::I(v) => Lanes::Const(v),
            Col::ISlot(s) => Lanes::Col(&self.icols[s as usize * n..][..n]),
            Col::Builtin(b) => self.geom.builtin(b, self.tid),
            Col::ITmp(r) => Lanes::Col(&self.itmp[(r as usize - self.base) * n..][..n]),
            _ => unreachable!("a float where the part is typed int"),
        }
    }

    fn float(&self, c: Col) -> Lanes<'a, f64> {
        let n = self.n;
        match c {
            Col::F(v) => Lanes::Const(v),
            Col::FSlot(s) => Lanes::Col(&self.fcols[s as usize * n..][..n]),
            Col::FTmp(r) => Lanes::Col(&self.ftmp[(r as usize - self.base) * n..][..n]),
            _ => unreachable!("an int operand reaches a float op unconverted"),
        }
    }

    /// `c != 0` in lane `t`, whatever `c`'s type.
    fn truthy(&self, c: Col) -> impl Fn(usize) -> bool + 'a {
        let (i, f) = if c.is_float() {
            (Lanes::Const(0), self.float(c))
        } else {
            (self.int(c), Lanes::Const(0.0))
        };
        move |t| i.at(t) != 0 || f.at(t) != 0.0
    }
}

/// The lanes a part's node runs over, in order, and whether they are dense
/// enough for loops over every lane of the block (which vectorise) to beat
/// visiting just these.
#[derive(Clone, Copy)]
struct Sel<'m> {
    idx: &'m [usize],
    dense: bool,
}

impl<'m> Sel<'m> {
    fn new(idx: &'m [usize], lanes: usize) -> Sel<'m> {
        Sel {
            idx,
            dense: idx.len() * 2 >= lanes,
        }
    }

    fn lanes(self) -> u64 {
        self.idx.len() as u64
    }

    /// `dst[t] = f(a[t])` in the selected lanes (and, dense, in the others).
    fn map1<T: Copy, U: Copy>(self, dst: &mut [U], a: Lanes<'_, T>, f: impl Fn(T) -> U) {
        if self.dense {
            return map1(dst, a, f);
        }
        for &t in self.idx {
            dst[t] = f(a.at(t));
        }
    }

    /// `dst[t] = f(a[t], b[t])` in the selected lanes (and, dense, in the
    /// others).
    fn map2<T: Copy, U: Copy>(
        self,
        dst: &mut [U],
        a: Lanes<'_, T>,
        b: Lanes<'_, T>,
        f: impl Fn(T, T) -> U,
    ) {
        if self.dense {
            return map2(dst, a, b, f);
        }
        for &t in self.idx {
            dst[t] = f(a.at(t), b.at(t));
        }
    }
}

/// The flat offsets of lanes `idx`, in order, into `offs` (`ix` has one
/// index column per extent); `None` when some lane's index is out of range
/// (each index column's minimum and maximum over the lanes are checked
/// once).
fn offsets(
    f: &Files<'_>,
    ix: &[Col],
    extents: &[usize],
    idx: &[usize],
    offs: &mut Vec<usize>,
) -> Option<()> {
    let mut dims = [Lanes::Const(0); 4];
    for (d, &i) in dims.iter_mut().zip(ix) {
        *d = f.int(i);
    }
    let dims = &dims[..ix.len()];
    let (mut lo, mut hi) = ([i64::MAX; 4], [i64::MIN; 4]);
    offs.clear();
    offs.extend(idx.iter().map(|&t| {
        let mut off = 0usize;
        for (d, (&extent, dim)) in extents.iter().zip(dims).enumerate() {
            let i = dim.at(t);
            lo[d] = lo[d].min(i);
            hi[d] = hi[d].max(i);
            off = off.wrapping_mul(extent).wrapping_add(i as usize);
        }
        off
    }));
    let in_range = |d: usize| lo[d] >= 0 && (hi[d] as u64) < extents[d] as u64;
    (idx.is_empty() || (0..ix.len()).all(in_range)).then_some(())
}

/// `scratch` = each selected lane's `(offset, value)`: the right-hand
/// side, or `op` applied to it and the element `old` it replaces.
fn fill_scratch(
    scratch: &mut Vec<(usize, f64)>,
    offs: &[usize],
    rhs: Lanes<'_, f64>,
    op: AssignOp,
    sel: Sel<'_>,
    old: impl Fn(usize) -> f64,
) {
    scratch.clear();
    scratch.extend(sel.idx.iter().zip(offs).map(|(&t, &o)| {
        let v = match op {
            AssignOp::Assign => rhs.at(t),
            _ => apply_assign(op, old(o), rhs.at(t)),
        };
        (o, v)
    }));
}

/// Counters a part charges, committed only with the part.
#[derive(Default)]
struct Pending {
    flops: u64,
    global_reads: u64,
    shared_reads: u64,
}

/// A shared-memory access log entry: the barrier epoch and warp of the last
/// access to a tile cell. Epochs start at 1, so the default never matches.
type LastAccess = (u64, u32);

/// The warp lane `t` belongs to.
fn warp(t: usize) -> u32 {
    (t / 32) as u32
}

/// Would lane `t` race with the access `last` logged in barrier `epoch`?
fn races(last: LastAccess, epoch: u64, t: usize) -> bool {
    last.0 == epoch && last.1 != warp(t)
}

/// Every column a lane-wise loop reads or writes, apart from the tiles
/// and logs so a part can borrow both.
#[derive(Default)]
struct Columns {
    /// Int and float slots, one column each: `icols[slot * lanes + t]`.
    icols: Vec<i64>,
    fcols: Vec<f64>,
    /// `threadIdx.x`, `.y`, `.z` of every lane, built once per launch.
    tid: Vec<i64>,
    /// Part registers, an int and a float column each (a node writes the
    /// one of its type).
    itmp: Vec<i64>,
    ftmp: Vec<f64>,
}

impl Columns {
    /// A read view with the part registers from `base` up.
    fn view(&self, n: usize, geom: Geometry, base: usize) -> Files<'_> {
        Files {
            n,
            geom,
            icols: &self.icols,
            fcols: &self.fcols,
            tid: &self.tid,
            itmp: &self.itmp[base * n..],
            ftmp: &self.ftmp[base * n..],
            base,
        }
    }

    /// Register `dst`'s int and float columns, and a read view of
    /// everything else its operands may live in.
    fn split(&mut self, n: usize, geom: Geometry, dst: u16) -> (&mut [i64], &mut [f64], Files<'_>) {
        let base = dst as usize + 1;
        let (ilo, ihi) = self.itmp.split_at_mut(base * n);
        let (flo, fhi) = self.ftmp.split_at_mut(base * n);
        let files = Files {
            n,
            geom,
            icols: &self.icols,
            fcols: &self.fcols,
            tid: &self.tid,
            itmp: ihi,
            ftmp: fhi,
            base,
        };
        (
            &mut ilo[(base - 1) * n..],
            &mut flo[(base - 1) * n..],
            files,
        )
    }
}

/// Block-sized buffers, reused across statements, blocks and launches so
/// the per-statement path allocates nothing once they are warm.
#[derive(Default)]
struct Pools {
    col: Columns,
    /// Value slots, thread-major: `vals[t * nvals + slot]`.
    vals: Vec<Value>,
    alive: Vec<bool>,
    /// The all-true block mask.
    full: Vec<bool>,
    /// Every lane's index: the selection a pure part runs over.
    all: Vec<usize>,
    /// Free list of mask buffers.
    masks: Vec<Vec<bool>>,
    tiles: Vec<Vec<f64>>,
    /// Last writer / last reader of every tile cell.
    shared_writes: Vec<Vec<LastAccess>>,
    shared_reads: Vec<Vec<LastAccess>>,
    /// Barrier epoch, monotonic over the interpreter's life: a new block is
    /// a new epoch, so the logs above are never cleared.
    epoch: u64,
    /// Per bound array, `1 + block_linear` of the last block that wrote
    /// each element this launch (0 = none); empty until the first write.
    writers: Vec<Vec<u64>>,
    /// Two-phase store scratch: (offset, value).
    scratch: Vec<(usize, f64)>,
    /// A part's offsets of one access, in lane order.
    offs: Vec<usize>,
    /// A part's shared reads `(tile, offset, warp)`, applied to the read
    /// log when it commits.
    reads: Vec<(u16, usize, u32)>,
    /// A shared store's write-log entries as they were, to undo them when
    /// a later lane finds a race.
    undo: Vec<(usize, LastAccess)>,
    /// Free list of lane selections.
    sels: Vec<Vec<usize>>,
}

impl Pools {
    fn prepare_launch(&mut self, ck: &CompiledKernel, block: Dim3, arrays: usize) {
        let lanes = block.count() as usize;
        let c = &mut self.col;
        c.icols.resize(ck.int_slots * lanes, 0);
        c.fcols.resize(ck.float_slots * lanes, 0.0);
        c.itmp.resize(ck.part_regs * lanes, 0);
        c.ftmp.resize(ck.part_regs * lanes, 0.0);
        c.tid.clear();
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            for z in 0..block.z {
                for y in 0..block.y {
                    for x in 0..block.x {
                        c.tid.push(match axis {
                            Axis::X => x,
                            Axis::Y => y,
                            Axis::Z => z,
                        } as i64);
                    }
                }
            }
        }
        self.full.clear();
        self.full.resize(lanes, true);
        self.all.clear();
        self.all.extend(0..lanes);
        self.tiles.resize_with(ck.tiles.len(), Vec::new);
        self.shared_writes.resize_with(ck.tiles.len(), Vec::new);
        self.shared_reads.resize_with(ck.tiles.len(), Vec::new);
        for (n, (_, len)) in ck.tiles.iter().enumerate() {
            self.shared_writes[n].resize(*len, LastAccess::default());
            self.shared_reads[n].resize(*len, LastAccess::default());
        }
        self.writers.resize_with(arrays, Vec::new);
        for w in &mut self.writers {
            w.clear();
        }
    }
}

/// Execution engine for one launch.
struct Machine<'a> {
    ck: &'a CompiledKernel,
    kernel_name: &'a str,
    arrays: &'a mut [(String, DeviceArray)],
    stats: &'a mut LaunchStats,
    block_linear: u64,
    geom: Geometry,
    lanes: usize,
    /// Value slots per thread.
    nvals: usize,
    p: Pools,
    /// The counters of the part being evaluated.
    pending: Pending,
    /// Some thread of this block has executed `return`.
    any_returned: bool,
    fp_read: HashSet<(u16, usize)>,
    fp_write: HashSet<(u16, usize)>,
    track_footprint: bool,
    detect_hazards: bool,
}

impl Machine<'_> {
    fn reset_block(&mut self, block_idx: Dim3, block_linear: u64, base: &BaseSlots) {
        self.geom.block_idx = block_idx;
        self.block_linear = block_linear;
        self.p.alive.clear();
        self.p.alive.resize(self.lanes, true);
        self.any_returned = false;
        for (c, &v) in base.ints.iter().enumerate() {
            self.p.col.icols[c * self.lanes..][..self.lanes].fill(v);
        }
        for (c, &v) in base.floats.iter().enumerate() {
            self.p.col.fcols[c * self.lanes..][..self.lanes].fill(v);
        }
        self.p.vals.clear();
        for _ in 0..self.lanes {
            self.p.vals.extend_from_slice(&base.vals);
        }
        for (tile, (_, len)) in self.p.tiles.iter_mut().zip(&self.ck.tiles) {
            tile.clear();
            tile.resize(*len, 0.0);
        }
        self.p.epoch += 1;
    }

    #[inline]
    fn slot(&self, t: usize, s: SlotRef) -> Value {
        match s {
            SlotRef::Int(c) => Value::I(self.p.col.icols[c as usize * self.lanes + t]),
            SlotRef::Float(c) => Value::F(self.p.col.fcols[c as usize * self.lanes + t]),
            SlotRef::Val(s) => self.p.vals[t * self.nvals + s as usize],
        }
    }

    #[inline]
    fn set_slot(&mut self, t: usize, s: SlotRef, v: Value) {
        // The typing rule the columns rely on: every assignment to a name
        // is coerced to its declared type first.
        match (s, v) {
            (SlotRef::Int(c), Value::I(i)) => self.p.col.icols[c as usize * self.lanes + t] = i,
            (SlotRef::Float(c), Value::F(f)) => self.p.col.fcols[c as usize * self.lanes + t] = f,
            (SlotRef::Int(_) | SlotRef::Float(_), _) => unreachable!("{s:?} assigned {v:?}"),
            (SlotRef::Val(s), v) => self.p.vals[t * self.nvals + s as usize] = v,
        }
    }

    fn take_mask(&mut self) -> Vec<bool> {
        let mut m = self.p.masks.pop().unwrap_or_default();
        m.clear();
        m
    }

    /// Evaluate the pure `e` into register 0 over every lane of the
    /// block, masked or not: nothing in it can trap or be observed, and an
    /// unset slot reads as 0.
    fn pure(&mut self, e: &CExpr) -> Col {
        let all = std::mem::take(&mut self.p.all);
        let v = self.col(e, 0, Sel::new(&all, self.lanes));
        self.p.all = all;
        v.unwrap_or_else(|Fallback| unreachable!("a pure part never falls back"))
    }

    /// The value of the part `e` in `active`'s lanes, at register 0, when
    /// `part` lets it run column-wise and it does not fall back.
    fn value(&mut self, e: &CExpr, part: Part, active: &[bool]) -> Option<Col> {
        match part {
            Part::Pure => Some(self.pure(e)),
            Part::Typed => self.part(active, |m, sel| m.col(e, 0, sel)).ok(),
            Part::PerThread => None,
        }
    }

    /// `out[t] = among[t] && cond(t)`, per thread in thread order when the
    /// condition cannot run column-wise.
    fn truth(
        &mut self,
        cond: &CExpr,
        part: Part,
        among: &[bool],
        out: &mut Vec<bool>,
    ) -> Result<(), ExecError> {
        out.clear();
        if let Some(c) = self.value(cond, part, among) {
            let truthy = self.p.col.view(self.lanes, self.geom, 0).truthy(c);
            out.extend(among.iter().enumerate().map(|(t, &a)| a && truthy(t)));
            return Ok(());
        }
        for (t, &a) in among.iter().enumerate() {
            out.push(a && self.eval(cond, t)?.truthy());
        }
        Ok(())
    }

    /// `slot = e` coerced to `ty`, in the active lanes.
    fn assign(
        &mut self,
        slot: SlotRef,
        ty: ScalarType,
        e: &CExpr,
        part: Part,
        active: &[bool],
    ) -> Result<(), ExecError> {
        if let Some(v) = self.value(e, part, active) {
            self.assign_col(slot, v, active);
            return Ok(());
        }
        for t in (0..active.len()).filter(|&t| active[t]) {
            let v = coerce(self.eval(e, t)?, ty);
            self.set_slot(t, slot, v);
        }
        Ok(())
    }

    /// Write a part's value `v` (of the node at register 0) to the int or
    /// float column `slot` in the active lanes, coerced to its type.
    fn assign_col(&mut self, slot: SlotRef, v: Col, active: &[bool]) {
        let n = self.lanes;
        // Read the value from register 0 (or a constant): a slot column may
        // be the very one assigned.
        let v = match v {
            Col::I(_) | Col::F(_) | Col::ITmp(_) | Col::FTmp(_) => v,
            _ => self.copy_to(v, 0),
        };
        let Columns {
            icols,
            fcols,
            itmp,
            ftmp,
            ..
        } = &mut self.p.col;
        let (int, float) = match v {
            Col::I(c) => (Lanes::Const(c), None),
            Col::F(x) => (Lanes::Const(0), Some(Lanes::Const(x))),
            Col::FTmp(_) => (Lanes::Const(0), Some(Lanes::Col(&ftmp[..n]))),
            _ => (Lanes::Col(&itmp[..n]), None),
        };
        match (slot, float) {
            (SlotRef::Int(c), None) => {
                masked(&mut icols[c as usize * n..][..n], int, active, |x| x)
            }
            (SlotRef::Int(c), Some(f)) => {
                masked(&mut icols[c as usize * n..][..n], f, active, |x| x as i64)
            }
            (SlotRef::Float(c), None) => {
                masked(&mut fcols[c as usize * n..][..n], int, active, |x| x as f64)
            }
            (SlotRef::Float(c), Some(f)) => {
                masked(&mut fcols[c as usize * n..][..n], f, active, |x| x)
            }
            (SlotRef::Val(_), _) => unreachable!("a value slot is assigned per thread"),
        }
    }

    /// Materialise `v` into register `r` (of its type), so it no longer
    /// names a slot column.
    fn copy_to(&mut self, v: Col, r: u16) -> Col {
        let (di, df, files) = self.p.col.split(self.lanes, self.geom, r);
        if v.is_float() {
            map1(df, files.float(v), |x| x);
            Col::FTmp(r)
        } else {
            map1(di, files.int(v), |x| x);
            Col::ITmp(r)
        }
    }

    /// `v`, the value of the node at register `r`, as a float operand: an
    /// int is converted into `r`'s float column.
    fn as_float(&mut self, v: Col, r: u16, sel: Sel<'_>) -> Col {
        match v {
            Col::F(_) | Col::FSlot(_) | Col::FTmp(_) => v,
            Col::I(c) => Col::F(c as f64),
            _ => {
                let (di, df, files) = self.p.col.split(self.lanes, self.geom, r);
                let ints = match v {
                    Col::ITmp(_) => Lanes::Col(&*di),
                    _ => files.int(v),
                };
                sel.map1(df, ints, |x| x as f64);
                Col::FTmp(r)
            }
        }
    }

    /// Evaluate a statically typed part with `f` over `active`'s lanes. On
    /// success its pending counters and shared reads are committed; on a
    /// fallback nothing is, and the caller runs the statement per thread.
    fn part<R>(
        &mut self,
        active: &[bool],
        f: impl FnOnce(&mut Self, Sel<'_>) -> Result<R, Fallback>,
    ) -> Result<R, Fallback> {
        let mut idx = self.p.sels.pop().unwrap_or_default();
        idx.clear();
        idx.extend((0..active.len()).filter(|&t| active[t]));
        self.pending = Pending::default();
        self.p.reads.clear();
        let done = match idx.is_empty() {
            true => Err(Fallback),
            false => f(self, Sel::new(&idx, self.lanes)),
        };
        self.p.sels.push(idx);
        let r = done?;
        let Pending {
            flops,
            global_reads,
            shared_reads,
        } = std::mem::take(&mut self.pending);
        self.stats.flops += flops;
        self.stats.global_reads += global_reads;
        self.stats.shared_reads += shared_reads;
        // The read log ends at each cell's last reader in thread order:
        // the highest warp of the part's readers (pushed only with hazard
        // detection on).
        let (epoch, log) = (self.p.epoch, &mut self.p.shared_reads);
        for &(tile, off, _) in &self.p.reads {
            log[tile as usize][off] = LastAccess::default();
        }
        for &(tile, off, warp) in &self.p.reads {
            let last = &mut log[tile as usize][off];
            if last.0 != epoch || last.1 < warp {
                *last = (epoch, warp);
            }
        }
        Ok(r)
    }

    /// May a part skip hazard checks? Only when the launch's report list
    /// is full: a hazard the per-thread evaluator finds then goes unrecorded.
    fn hazard_room(&self) -> bool {
        self.stats.hazards.len() < 16
    }

    /// Evaluate the statically typed `e` over `sel`'s lanes into register
    /// `dst`, operand `j` of each node into the node's register `+ 1 + j`
    /// (so a register above `dst` never outlives its node).
    fn col(&mut self, e: &CExpr, dst: u16, sel: Sel<'_>) -> Result<Col, Fallback> {
        use BinaryOp::*;
        let (n, geom, lanes) = (self.lanes, self.geom, sel.lanes());
        Ok(match e {
            CExpr::I(v) => Col::I(*v),
            CExpr::F(v) => Col::F(*v),
            CExpr::ISlot(s) => Col::ISlot(*s),
            CExpr::FSlot(s) => Col::FSlot(*s),
            CExpr::Builtin(b) => Col::Builtin(*b),
            CExpr::Slot(_) => unreachable!("a value slot is never statically typed"),
            CExpr::Global { array, idx } => self.load_global(*array, idx, dst, sel)?,
            CExpr::Shared { tile, idx } => self.load_shared(*tile, idx, dst, sel)?,
            CExpr::Un { op, e } => {
                let a = self.col(e, dst + 1, sel)?;
                if *op == UnaryOp::Neg {
                    self.pending.flops += lanes;
                }
                let (di, df, f) = self.p.col.split(n, geom, dst);
                match (op, a.is_float()) {
                    (UnaryOp::Neg, false) => sel.map1(di, f.int(a), i64::wrapping_neg),
                    (UnaryOp::Neg, true) => {
                        sel.map1(df, f.float(a), |x| -x);
                        return Ok(Col::FTmp(dst));
                    }
                    (UnaryOp::Not, false) => sel.map1(di, f.int(a), |x| (x == 0) as i64),
                    (UnaryOp::Not, true) => sel.map1(di, f.float(a), |x| (x == 0.0) as i64),
                }
                Col::ITmp(dst)
            }
            CExpr::Bin { op, l, r } => {
                let a = self.col(l, dst + 1, sel)?;
                let b = self.col(r, dst + 2, sel)?;
                if !a.is_float() && !b.is_float() {
                    let (d, _, f) = self.p.col.split(n, geom, dst);
                    let (a, b) = (f.int(a), f.int(b));
                    match op {
                        Add => sel.map2(d, a, b, i64::wrapping_add),
                        Sub => sel.map2(d, a, b, i64::wrapping_sub),
                        Mul => sel.map2(d, a, b, i64::wrapping_mul),
                        Lt => sel.map2(d, a, b, |x, y| (x < y) as i64),
                        Le => sel.map2(d, a, b, |x, y| (x <= y) as i64),
                        Gt => sel.map2(d, a, b, |x, y| (x > y) as i64),
                        Ge => sel.map2(d, a, b, |x, y| (x >= y) as i64),
                        Eq => sel.map2(d, a, b, |x, y| (x == y) as i64),
                        Ne => sel.map2(d, a, b, |x, y| (x != y) as i64),
                        And => sel.map2(d, a, b, |x, y| (x != 0 && y != 0) as i64),
                        Or => sel.map2(d, a, b, |x, y| (x != 0 || y != 0) as i64),
                        // Only the selected lanes divide: a zero divisor (or
                        // an overflowing quotient) is the per-thread
                        // evaluator's to report.
                        Div | Rem => {
                            let divide = if *op == Div {
                                i64::checked_div
                            } else {
                                i64::checked_rem
                            };
                            for &t in sel.idx {
                                d[t] = divide(a.at(t), b.at(t)).ok_or(Fallback)?;
                            }
                        }
                    }
                    return Ok(Col::ITmp(dst));
                }
                let a = self.as_float(a, dst + 1, sel);
                let b = self.as_float(b, dst + 2, sel);
                if op.is_arithmetic() {
                    self.pending.flops += lanes;
                }
                let (di, df, f) = self.p.col.split(n, geom, dst);
                let (a, b) = (f.float(a), f.float(b));
                match op {
                    Add => sel.map2(df, a, b, |x, y| nan_first(x, y, |x, y| x + y)),
                    Sub => sel.map2(df, a, b, |x, y| x - y),
                    Mul => sel.map2(df, a, b, |x, y| nan_first(x, y, |x, y| x * y)),
                    Div => sel.map2(df, a, b, |x, y| x / y),
                    Rem => sel.map2(df, a, b, |x, y| x % y),
                    Lt => sel.map2(di, a, b, |x, y| (x < y) as i64),
                    Le => sel.map2(di, a, b, |x, y| (x <= y) as i64),
                    Gt => sel.map2(di, a, b, |x, y| (x > y) as i64),
                    Ge => sel.map2(di, a, b, |x, y| (x >= y) as i64),
                    Eq => sel.map2(di, a, b, |x, y| (x == y) as i64),
                    Ne => sel.map2(di, a, b, |x, y| (x != y) as i64),
                    And | Or => unreachable!("a float operand of `&&`/`||` is never typed"),
                }
                if op.is_arithmetic() {
                    Col::FTmp(dst)
                } else {
                    Col::ITmp(dst)
                }
            }
            CExpr::Call { fun, args } => {
                let mut a = [Col::F(0.0); 3];
                for (j, x) in args.iter().enumerate() {
                    let r = dst + 1 + j as u16;
                    let v = self.col(x, r, sel)?;
                    a[j] = self.as_float(v, r, sel);
                }
                self.pending.flops += lanes * fun.flop_cost();
                let (_, d, f) = self.p.col.split(n, geom, dst);
                let [x, y, z] = a.map(|c| f.float(c));
                match fun {
                    Intrinsic::Sqrt => sel.map1(d, x, f64::sqrt),
                    Intrinsic::Exp => sel.map1(d, x, f64::exp),
                    Intrinsic::Log => sel.map1(d, x, f64::ln),
                    Intrinsic::Fabs => sel.map1(d, x, f64::abs),
                    Intrinsic::Min => sel.map2(d, x, y, f64::min),
                    Intrinsic::Max => sel.map2(d, x, y, f64::max),
                    Intrinsic::Pow => sel.map2(d, x, y, f64::powf),
                    Intrinsic::Fma => {
                        for &t in sel.idx {
                            d[t] = x.at(t).mul_add(y.at(t), z.at(t));
                        }
                    }
                    Intrinsic::Sin => sel.map1(d, x, f64::sin),
                    Intrinsic::Cos => sel.map1(d, x, f64::cos),
                }
                Col::FTmp(dst)
            }
            CExpr::Ternary { c, t, e } => {
                let cond = self.col(c, dst + 1, sel)?;
                let mut taken = self.p.sels.pop().unwrap_or_default();
                let mut not_taken = self.p.sels.pop().unwrap_or_default();
                taken.clear();
                not_taken.clear();
                {
                    let truthy = self.p.col.view(n, geom, dst as usize + 1).truthy(cond);
                    for &lane in sel.idx {
                        if truthy(lane) {
                            taken.push(lane);
                        } else {
                            not_taken.push(lane);
                        }
                    }
                }
                let arms = self.arms(t, e, dst, sel, &taken, &not_taken);
                self.p.sels.push(taken);
                self.p.sels.push(not_taken);
                arms?
            }
        })
    }

    /// A ternary's arms, each evaluated over the lanes that take it (an
    /// arm no lane takes is not evaluated at all), selected into register
    /// `dst`.
    fn arms(
        &mut self,
        t: &CExpr,
        e: &CExpr,
        dst: u16,
        sel: Sel<'_>,
        taken: &[usize],
        not_taken: &[usize],
    ) -> Result<Col, Fallback> {
        let n = self.lanes;
        let arm = |m: &mut Self, x: &CExpr, r: u16, idx: &[usize]| {
            let sub = Sel::new(idx, n);
            (!idx.is_empty()).then(|| m.col(x, r, sub)).transpose()
        };
        let tv = arm(self, t, dst + 2, taken)?;
        let ev = arm(self, e, dst + 3, not_taken)?;
        let (di, df, f) = self.p.col.split(n, self.geom, dst);
        match (tv, ev) {
            (Some(a), Some(b)) if a.is_float() => {
                let (a, b) = (f.float(a), f.float(b));
                taken.iter().for_each(|&l| df[l] = a.at(l));
                not_taken.iter().for_each(|&l| df[l] = b.at(l));
            }
            (Some(a), Some(b)) => {
                let (a, b) = (f.int(a), f.int(b));
                taken.iter().for_each(|&l| di[l] = a.at(l));
                not_taken.iter().for_each(|&l| di[l] = b.at(l));
            }
            (Some(a), None) | (None, Some(a)) if a.is_float() => sel.map1(df, f.float(a), |x| x),
            (Some(a), None) | (None, Some(a)) => sel.map1(di, f.int(a), |x| x),
            (None, None) => unreachable!("a part selects at least one lane"),
        }
        Ok(match tv.or(ev) {
            Some(a) if a.is_float() => Col::FTmp(dst),
            _ => Col::ITmp(dst),
        })
    }

    /// Evaluate an access's index columns at registers `first ..`.
    fn indices(&mut self, idx: &[CExpr], first: u16, sel: Sel<'_>) -> Result<[Col; 4], Fallback> {
        let mut ix = [Col::F(0.0); 4];
        for (j, i) in idx.iter().enumerate() {
            ix[j] = self.col(i, first + j as u16, sel)?;
        }
        Ok(ix)
    }

    /// Flatten `sel`'s lanes into `p.offs` from index columns `ix`
    /// evaluated at registers `first ..`; an index out of range in some
    /// lane is a fallback.
    fn flatten(
        &mut self,
        ix: &[Col],
        first: u16,
        extents: &[usize],
        sel: Sel<'_>,
    ) -> Result<(), Fallback> {
        let f = self.p.col.view(self.lanes, self.geom, first as usize);
        offsets(&f, ix, extents, sel.idx, &mut self.p.offs).ok_or(Fallback)
    }

    /// A bound array's extents, when they have the access's rank (typed
    /// global accesses have at most 4 indices).
    fn shape(&self, array: u16, rank: usize) -> Result<[usize; 4], Fallback> {
        let extents = &self.arrays[array as usize].1.info.extents;
        if extents.len() != rank {
            return Err(Fallback);
        }
        let mut shape = [0; 4];
        shape[..rank].copy_from_slice(extents);
        Ok(shape)
    }

    /// Would the reads at `p.offs` in `array` report a cross-block hazard?
    fn global_hazard(&self, array: u16) -> bool {
        if !self.detect_hazards || !self.hazard_room() {
            return false;
        }
        let mine = self.block_linear + 1;
        let writers = &self.p.writers[array as usize];
        // An array nobody wrote this launch has an empty table.
        !writers.is_empty()
            && self
                .p
                .offs
                .iter()
                .any(|&o| writers[o] != 0 && writers[o] != mine)
    }

    fn load_global(
        &mut self,
        array: u16,
        idx: &[CExpr],
        dst: u16,
        sel: Sel<'_>,
    ) -> Result<Col, Fallback> {
        let shape = self.shape(array, idx.len())?;
        let ix = self.indices(idx, dst + 1, sel)?;
        self.flatten(&ix[..idx.len()], dst + 1, &shape[..idx.len()], sel)?;
        if self.global_hazard(array) {
            return Err(Fallback);
        }
        let (_, d, _) = self.p.col.split(self.lanes, self.geom, dst);
        let data = &self.arrays[array as usize].1.data;
        for (&t, &o) in sel.idx.iter().zip(&self.p.offs) {
            d[t] = data[o];
        }
        if self.track_footprint {
            self.fp_read.extend(self.p.offs.iter().map(|&o| (array, o)));
        }
        self.pending.global_reads += sel.lanes();
        Ok(Col::FTmp(dst))
    }

    fn load_shared(
        &mut self,
        tile: u16,
        idx: &[CExpr],
        dst: u16,
        sel: Sel<'_>,
    ) -> Result<Col, Fallback> {
        let ix = self.indices(idx, dst + 1, sel)?;
        let ck = self.ck;
        self.flatten(&ix[..idx.len()], dst + 1, &ck.tiles[tile as usize].0, sel)?;
        let lanes = || sel.idx.iter().copied().zip(&self.p.offs);
        if self.detect_hazards {
            let writes = &self.p.shared_writes[tile as usize];
            let epoch = self.p.epoch;
            if self.hazard_room() && lanes().any(|(t, &o)| races(writes[o], epoch, t)) {
                return Err(Fallback);
            }
            let reads = lanes().map(|(t, &o)| (tile, o, warp(t)));
            self.p.reads.extend(reads);
        }
        let (_, d, _) = self.p.col.split(self.lanes, self.geom, dst);
        let data = &self.p.tiles[tile as usize];
        for (&t, &o) in sel.idx.iter().zip(&self.p.offs) {
            d[t] = data[o];
        }
        self.pending.shared_reads += sel.lanes();
        Ok(Col::FTmp(dst))
    }

    /// A store's indices at registers `0..rank` and its right-hand side,
    /// as a float, at `rank`.
    fn store_operands(
        &mut self,
        idx: &[CExpr],
        e: &CExpr,
        sel: Sel<'_>,
    ) -> Result<([Col; 4], Col), Fallback> {
        let ix = self.indices(idx, 0, sel)?;
        let rank = idx.len() as u16;
        let rhs = self.col(e, rank, sel)?;
        Ok((ix, self.as_float(rhs, rank, sel)))
    }

    /// The part of a global store. On success `p.scratch` holds the
    /// `(offset, value)` writes in lane order.
    fn store_global_part(
        &mut self,
        array: u16,
        idx: &[CExpr],
        op: AssignOp,
        e: &CExpr,
        sel: Sel<'_>,
    ) -> Result<(), Fallback> {
        let shape = self.shape(array, idx.len())?;
        let (ix, rhs) = self.store_operands(idx, e, sel)?;
        self.flatten(&ix[..idx.len()], 0, &shape[..idx.len()], sel)?;
        if op != AssignOp::Assign {
            if self.global_hazard(array) {
                return Err(Fallback);
            }
            if self.track_footprint {
                self.fp_read.extend(self.p.offs.iter().map(|&o| (array, o)));
            }
            self.pending.global_reads += sel.lanes();
        }
        let rhs = self.p.col.view(self.lanes, self.geom, 0).float(rhs);
        let data = &self.arrays[array as usize].1.data;
        fill_scratch(&mut self.p.scratch, &self.p.offs, rhs, op, sel, |o| data[o]);
        Ok(())
    }

    /// The part of a shared store (whose right-hand side and indices never
    /// read its own tile — compile.rs): as [`Self::store_global_part`],
    /// plus the write log, updated in lane order.
    fn store_shared_part(
        &mut self,
        tile: u16,
        idx: &[CExpr],
        op: AssignOp,
        e: &CExpr,
        sel: Sel<'_>,
    ) -> Result<(), Fallback> {
        let (ix, rhs) = self.store_operands(idx, e, sel)?;
        let (t, ck) = (tile as usize, self.ck);
        self.flatten(&ix[..idx.len()], 0, &ck.tiles[t].0, sel)?;
        let (epoch, room) = (self.p.epoch, self.hazard_room());
        let lanes = || sel.idx.iter().copied().zip(&self.p.offs);
        if op != AssignOp::Assign {
            self.pending.shared_reads += sel.lanes();
            if self.detect_hazards {
                // Each lane reads its own target cell: a read-after-write
                // against the writes before the part.
                let writes = &self.p.shared_writes[t];
                if room && lanes().any(|(l, &o)| races(writes[o], epoch, l)) {
                    return Err(Fallback);
                }
                let reads = lanes().map(|(l, &o)| (tile, o, warp(l)));
                self.p.reads.extend(reads);
            }
        } else if self.detect_hazards && room {
            // Write-after-read: nothing in the part reads this tile, so a
            // cell's last reader is the one before the part. (With `op=`
            // the lane's own read is the last one and never races.)
            let last_reads = &self.p.shared_reads[t];
            if lanes().any(|(l, &o)| races(last_reads[o], epoch, l)) {
                return Err(Fallback);
            }
        }
        let Pools {
            col,
            tiles,
            shared_writes,
            offs,
            undo,
            scratch,
            ..
        } = &mut self.p;
        let rhs = col.view(self.lanes, self.geom, 0).float(rhs);
        let data = &tiles[t];
        fill_scratch(scratch, offs, rhs, op, sel, |o| data[o]);
        // Write-write races, in lane order against the log as each lane
        // leaves it; the log is restored if some lane races.
        let log = &mut shared_writes[t];
        undo.clear();
        for (&l, &o) in sel.idx.iter().zip(offs.iter()) {
            if room && races(log[o], epoch, l) {
                for &(o, was) in undo.iter().rev() {
                    log[o] = was;
                }
                return Err(Fallback);
            }
            undo.push((o, log[o]));
            log[o] = (epoch, warp(l));
        }
        Ok(())
    }

    fn count_warp_issue(&mut self, mask: &[bool]) {
        for warp in mask.chunks(32) {
            if warp.iter().any(|&m| m) {
                self.stats.warp_instructions += 1;
            }
        }
    }

    /// Record whether a branch diverged within any warp.
    fn record_branch(&mut self, active: &[bool], taken: &[bool]) -> bool {
        let mut any_div = false;
        for (active, taken) in active.chunks(32).zip(taken.chunks(32)) {
            let mut saw_active = false;
            let mut saw_taken = false;
            let mut saw_not = false;
            for (&a, &t) in active.iter().zip(taken) {
                saw_active |= a;
                saw_taken |= a && t;
                saw_not |= a && !t;
            }
            if saw_active {
                self.stats.branch_evals += 1;
                if saw_taken && saw_not {
                    self.stats.divergent_evals += 1;
                    any_div = true;
                }
            }
        }
        any_div
    }

    fn flush_footprint(&mut self) {
        self.stats.footprint_read_elems += self.fp_read.len() as u64;
        self.stats.footprint_write_elems += self.fp_write.len() as u64;
        self.fp_read.clear();
        self.fp_write.clear();
    }

    fn exec_stmts(
        &mut self,
        stmts: &[CStmt],
        mask: &[bool],
        uniform: bool,
    ) -> Result<(), ExecError> {
        for s in stmts {
            // Combine the control mask with liveness (identical until some
            // thread returns).
            if self.any_returned {
                let mut active = self.take_mask();
                active.extend(mask.iter().zip(&self.p.alive).map(|(&m, &a)| m && a));
                let done = self.exec_stmt(s, &active, uniform);
                self.p.masks.push(active);
                done?;
            } else {
                self.exec_stmt(s, mask, uniform)?;
            }
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &CStmt, active: &[bool], uniform: bool) -> Result<(), ExecError> {
        if !active.iter().any(|&a| a) {
            return Ok(());
        }
        match s {
            CStmt::SetSlot { slot, ty, e, part } => {
                self.count_warp_issue(active);
                self.assign(*slot, *ty, e, *part, active)?;
            }
            CStmt::StoreGlobal {
                array,
                idx,
                op,
                e,
                part,
            } => {
                self.count_warp_issue(active);
                let store =
                    |m: &mut Self, sel: Sel<'_>| m.store_global_part(*array, idx, *op, e, sel);
                if *part == Part::Typed && self.part(active, store).is_ok() {
                    self.write_global(*array);
                } else {
                    self.store_global(*array, idx, *op, e, active)?;
                }
            }
            CStmt::StoreShared {
                tile,
                idx,
                op,
                e,
                part,
            } => {
                self.count_warp_issue(active);
                let store =
                    |m: &mut Self, sel: Sel<'_>| m.store_shared_part(*tile, idx, *op, e, sel);
                if *part == Part::Typed && self.part(active, store).is_ok() {
                    self.write_shared(*tile);
                } else {
                    self.store_shared(*tile, idx, *op, e, active)?;
                }
            }
            CStmt::If {
                cond,
                part,
                then_body,
                else_body,
            } => {
                self.count_warp_issue(active);
                let mut then_mask = self.take_mask();
                self.truth(cond, *part, active, &mut then_mask)?;
                let mut else_mask = self.take_mask();
                else_mask.extend(active.iter().zip(&then_mask).map(|(&a, &t)| a && !t));
                let divergent = self.record_branch(active, &then_mask);
                let sub_uniform = uniform && !divergent;
                if then_mask.iter().any(|&m| m) {
                    self.exec_stmts(then_body, &then_mask, sub_uniform)?;
                }
                if else_mask.iter().any(|&m| m) {
                    self.exec_stmts(else_body, &else_mask, sub_uniform)?;
                }
                self.p.masks.push(then_mask);
                self.p.masks.push(else_mask);
            }
            CStmt::For {
                slot,
                init,
                init_part,
                cond,
                cond_part,
                step,
                step_part,
                body,
            } => {
                self.count_warp_issue(active);
                self.assign(*slot, ScalarType::I32, init, *init_part, active)?;
                // A new top-level sweep: reset the footprint window.
                if uniform && self.track_footprint {
                    self.flush_footprint();
                }
                // Lanes still looping, and those of them running this
                // iteration.
                let mut live = self.take_mask();
                live.extend_from_slice(active);
                let mut iter_mask = self.take_mask();
                loop {
                    self.truth(cond, *cond_part, &live, &mut iter_mask)?;
                    let divergent = self.record_branch(active, &iter_mask);
                    if !iter_mask.iter().any(|&m| m) {
                        break;
                    }
                    self.exec_stmts(body, &iter_mask, uniform && !divergent)?;
                    std::mem::swap(&mut live, &mut iter_mask);
                    if self.any_returned {
                        for (l, &a) in live.iter_mut().zip(&self.p.alive) {
                            *l &= a;
                        }
                    }
                    self.step(*slot, step, *step_part, &live)?;
                }
                self.p.masks.push(live);
                self.p.masks.push(iter_mask);
                if uniform && self.track_footprint {
                    self.flush_footprint();
                }
            }
            CStmt::Sync => {
                if !uniform {
                    return Err(ExecError::trap(
                        "__syncthreads() reached in divergent control flow",
                    ));
                }
                self.count_warp_issue(active);
                self.p.epoch += 1;
            }
            CStmt::Return => {
                for (alive, &a) in self.p.alive.iter_mut().zip(active) {
                    *alive &= !a;
                }
                self.any_returned = true;
            }
        }
        Ok(())
    }

    /// `slot += step` in the lanes `ran`: those that ran the iteration and
    /// did not return from it.
    fn step(
        &mut self,
        slot: SlotRef,
        step: &CExpr,
        part: Part,
        ran: &[bool],
    ) -> Result<(), ExecError> {
        let n = self.lanes;
        if let (SlotRef::Int(c), Some(by)) = (slot, self.value(step, part, ran)) {
            // Read the step from register 0: it may read the slot.
            let by = match by {
                Col::I(_) | Col::ITmp(_) => by,
                _ => self.copy_to(by, 0),
            };
            let Columns { icols, itmp, .. } = &mut self.p.col;
            let by = match by {
                Col::I(d) => Lanes::Const(d),
                _ => Lanes::Col(&itmp[..n]),
            };
            let var = &mut icols[c as usize * n..][..n];
            for (t, (v, &ran)) in var.iter_mut().zip(ran).enumerate() {
                if ran {
                    *v = v.wrapping_add(by.at(t));
                }
            }
            return Ok(());
        }
        for t in (0..n).filter(|&t| ran[t]) {
            let d = self.eval(step, t)?.as_i64()?;
            let cur = self.slot(t, slot).as_i64()?;
            self.set_slot(t, slot, Value::I(cur.wrapping_add(d)));
        }
        Ok(())
    }

    fn global_offset(&mut self, array: u16, idx: &[CExpr], t: usize) -> Result<usize, ExecError> {
        // Evaluate up to 4 indices without allocating.
        let mut vals = [0i64; 4];
        if idx.len() > 4 {
            return Err(ExecError::trap("arrays of rank > 4 are not supported"));
        }
        for (n, e) in idx.iter().enumerate() {
            vals[n] = self.eval(e, t)?.as_i64()?;
        }
        let arr = &self.arrays[array as usize].1;
        arr.offset(&vals[..idx.len()]).ok_or_else(|| {
            ExecError::trap(format!(
                "out-of-bounds access {}{:?} (extents {:?}) in `{}`",
                self.arrays[array as usize].0,
                &vals[..idx.len()],
                arr.info.extents,
                self.kernel_name
            ))
        })
    }

    fn shared_offset(&mut self, tile: u16, idx: &[CExpr], t: usize) -> Result<usize, ExecError> {
        let ck = self.ck;
        let extents = &ck.tiles[tile as usize].0;
        if idx.len() != extents.len() {
            return Err(ExecError::trap(format!(
                "shared tile rank mismatch in `{}`",
                self.kernel_name
            )));
        }
        let mut off = 0usize;
        for (e, &extent) in idx.iter().zip(extents) {
            let i = self.eval(e, t)?.as_i64()?;
            if i < 0 || i as usize >= extent {
                return Err(ExecError::trap(format!(
                    "out-of-bounds shared access index {i} (extent {extent}) in `{}`",
                    self.kernel_name
                )));
            }
            off = off * extent + i as usize;
        }
        Ok(off)
    }

    /// Two-phase global store.
    fn store_global(
        &mut self,
        array: u16,
        idx: &[CExpr],
        op: AssignOp,
        e: &CExpr,
        active: &[bool],
    ) -> Result<(), ExecError> {
        let mut scratch = std::mem::take(&mut self.p.scratch);
        scratch.clear();
        for t in (0..active.len()).filter(|&t| active[t]) {
            let rhs = self.eval(e, t)?;
            let off = self.global_offset(array, idx, t)?;
            let v = if op == AssignOp::Assign {
                rhs.as_f64()
            } else {
                let old = self.arrays[array as usize].1.data[off];
                self.note_global_read(array, off);
                apply_assign(op, old, rhs.as_f64())
            };
            scratch.push((off, v));
        }
        self.p.scratch = scratch;
        self.write_global(array);
        Ok(())
    }

    /// The second phase of a global store: `p.scratch`'s writes, in order.
    fn write_global(&mut self, array: u16) {
        let scratch = &self.p.scratch;
        let data = &mut self.arrays[array as usize].1.data;
        if self.detect_hazards {
            let writers = &mut self.p.writers[array as usize];
            writers.resize(data.len(), 0);
            for &(off, _) in scratch {
                writers[off] = self.block_linear + 1;
            }
        }
        if self.track_footprint {
            self.fp_write
                .extend(scratch.iter().map(|&(off, _)| (array, off)));
        }
        for &(off, v) in scratch {
            data[off] = v;
        }
        self.stats.global_writes += scratch.len() as u64;
    }

    /// Two-phase shared store with write-write race detection.
    fn store_shared(
        &mut self,
        tile: u16,
        idx: &[CExpr],
        op: AssignOp,
        e: &CExpr,
        active: &[bool],
    ) -> Result<(), ExecError> {
        let mut scratch = std::mem::take(&mut self.p.scratch);
        scratch.clear();
        for t in (0..active.len()).filter(|&t| active[t]) {
            let rhs = self.eval(e, t)?;
            let off = self.shared_offset(tile, idx, t)?;
            let v = if op == AssignOp::Assign {
                rhs.as_f64()
            } else {
                self.stats.shared_reads += 1;
                self.note_shared_read(tile, off, t);
                apply_assign(op, self.p.tiles[tile as usize][off], rhs.as_f64())
            };
            // Same-epoch write from a different warp → race.
            let here: LastAccess = (self.p.epoch, (t / 32) as u32);
            let last_write = &mut self.p.shared_writes[tile as usize][off];
            if last_write.0 == here.0 && last_write.1 != here.1 {
                self.stats.add_hazard(format!(
                    "shared write-write race on tile {tile}[{off}] in `{}`",
                    self.kernel_name
                ));
            }
            *last_write = here;
            // Same-epoch *read* by a different warp → write-after-read race.
            // This is the cross-step direction of the hazard: a folded or
            // multi-phase kernel that overwrites a tile cell some other
            // warp consumed since the last barrier is racing on real
            // hardware even though lockstep execution sees the old value.
            let last_read = self.p.shared_reads[tile as usize][off];
            if self.detect_hazards && last_read.0 == here.0 && last_read.1 != here.1 {
                self.stats.add_hazard(format!(
                    "shared write-after-read without barrier on tile {tile}[{off}] in `{}`",
                    self.kernel_name
                ));
            }
            scratch.push((off, v));
        }
        self.p.scratch = scratch;
        self.write_shared(tile);
        Ok(())
    }

    /// The second phase of a shared store: `p.scratch`'s writes, in order.
    fn write_shared(&mut self, tile: u16) {
        let data = &mut self.p.tiles[tile as usize];
        for &(off, v) in &self.p.scratch {
            data[off] = v;
        }
        self.stats.shared_writes += self.p.scratch.len() as u64;
    }

    /// Shared read-after-write hazard: reading a tile cell that a
    /// *different* warp wrote in the *same* barrier epoch is unordered on
    /// real hardware (the lockstep simulator happens to see the value, so
    /// without this check a missing `__syncthreads()` between staging
    /// writes and consumer reads would go undetected).
    fn note_shared_read(&mut self, tile: u16, off: usize, t: usize) {
        if !self.detect_hazards {
            return;
        }
        let here: LastAccess = (self.p.epoch, (t / 32) as u32);
        let last_write = self.p.shared_writes[tile as usize][off];
        if last_write.0 == here.0 && last_write.1 != here.1 {
            self.stats.add_hazard(format!(
                "shared read-after-write without barrier on tile {tile}[{off}] in `{}`",
                self.kernel_name
            ));
        }
        self.p.shared_reads[tile as usize][off] = here;
    }

    fn note_global_read(&mut self, array: u16, off: usize) {
        self.stats.global_reads += 1;
        if self.detect_hazards {
            // An array nobody wrote this launch has an empty table.
            let writer = self.p.writers[array as usize]
                .get(off)
                .copied()
                .unwrap_or(0);
            if writer != 0 && writer != self.block_linear + 1 {
                self.stats.add_hazard(format!(
                    "cross-block read-after-write hazard on {}[{off}] in `{}`",
                    self.arrays[array as usize].0, self.kernel_name
                ));
            }
        }
        if self.track_footprint {
            self.fp_read.insert((array, off));
        }
    }

    /// The one evaluator: thread `t`'s value of `e`, with every load,
    /// counter, hazard check and trap in evaluation order.
    fn eval(&mut self, e: &CExpr, t: usize) -> Result<Value, ExecError> {
        Ok(match e {
            CExpr::I(v) => Value::I(*v),
            CExpr::F(v) => Value::F(*v),
            CExpr::Slot(s) => self.slot(t, SlotRef::Val(*s)),
            CExpr::ISlot(c) => self.slot(t, SlotRef::Int(*c)),
            CExpr::FSlot(c) => self.slot(t, SlotRef::Float(*c)),
            CExpr::Builtin(b) => Value::I(self.geom.builtin(*b, &self.p.col.tid).at(t)),
            CExpr::Global { array, idx } => {
                let off = self.global_offset(*array, idx, t)?;
                let v = self.arrays[*array as usize].1.data[off];
                self.note_global_read(*array, off);
                Value::F(v)
            }
            CExpr::Shared { tile, idx } => {
                let off = self.shared_offset(*tile, idx, t)?;
                self.stats.shared_reads += 1;
                self.note_shared_read(*tile, off, t);
                Value::F(self.p.tiles[*tile as usize][off])
            }
            CExpr::Un { op, e } => {
                let v = self.eval(e, t)?;
                match op {
                    UnaryOp::Neg => {
                        self.stats.flops += 1;
                        match v {
                            Value::I(i) => Value::I(-i),
                            Value::F(f) => Value::F(-f),
                        }
                    }
                    UnaryOp::Not => Value::I(!v.truthy() as i64),
                }
            }
            CExpr::Bin { op, l, r } => {
                let a = self.eval(l, t)?;
                let b = self.eval(r, t)?;
                self.eval_binary(*op, a, b)?
            }
            CExpr::Call { fun, args } => {
                let mut vals = [0.0f64; 3];
                for (n, a) in args.iter().enumerate() {
                    vals[n] = self.eval(a, t)?.as_f64();
                }
                self.stats.flops += fun.flop_cost();
                Value::F(match fun {
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
                })
            }
            CExpr::Ternary { c, t: tv, e: ev } => {
                if self.eval(c, t)?.truthy() {
                    self.eval(tv, t)?
                } else {
                    self.eval(ev, t)?
                }
            }
        })
    }

    fn eval_binary(&mut self, op: BinaryOp, a: Value, b: Value) -> Result<Value, ExecError> {
        use BinaryOp::*;
        if let (Value::I(x), Value::I(y)) = (a, b) {
            return Ok(match op {
                Add => Value::I(x.wrapping_add(y)),
                Sub => Value::I(x.wrapping_sub(y)),
                Mul => Value::I(x.wrapping_mul(y)),
                Div => {
                    if y == 0 {
                        return Err(ExecError::trap("integer division by zero"));
                    }
                    Value::I(x / y)
                }
                Rem => {
                    if y == 0 {
                        return Err(ExecError::trap("integer remainder by zero"));
                    }
                    Value::I(x % y)
                }
                Lt => Value::I((x < y) as i64),
                Le => Value::I((x <= y) as i64),
                Gt => Value::I((x > y) as i64),
                Ge => Value::I((x >= y) as i64),
                Eq => Value::I((x == y) as i64),
                Ne => Value::I((x != y) as i64),
                And => Value::I((x != 0 && y != 0) as i64),
                Or => Value::I((x != 0 || y != 0) as i64),
            });
        }
        let x = a.as_f64();
        let y = b.as_f64();
        if op.is_arithmetic() {
            self.stats.flops += 1;
        }
        Ok(match op {
            Add => Value::F(nan_first(x, y, |x, y| x + y)),
            Sub => Value::F(x - y),
            Mul => Value::F(nan_first(x, y, |x, y| x * y)),
            Div => Value::F(x / y),
            Rem => Value::F(x % y),
            Lt => Value::I((x < y) as i64),
            Le => Value::I((x <= y) as i64),
            Gt => Value::I((x > y) as i64),
            Ge => Value::I((x >= y) as i64),
            Eq => Value::I((x == y) as i64),
            Ne => Value::I((x != y) as i64),
            And | Or => return Err(ExecError::trap("logical op on float")),
        })
    }
}

fn coerce(v: Value, ty: ScalarType) -> Value {
    match ty {
        ScalarType::I32 => match v {
            Value::I(_) => v,
            Value::F(f) => Value::I(f as i64),
        },
        ScalarType::F32 | ScalarType::F64 => Value::F(v.as_f64()),
    }
}

/// The element a compound store leaves: `old op rhs`, and with a NaN on
/// each side the right-hand side's (see [`nan_first`]).
fn apply_assign(op: AssignOp, old: f64, rhs: f64) -> f64 {
    match op {
        AssignOp::Assign => rhs,
        AssignOp::AddAssign => nan_first(rhs, old, |rhs, old| old + rhs),
        AssignOp::SubAssign => old - rhs,
        AssignOp::MulAssign => nan_first(rhs, old, |rhs, old| old * rhs),
    }
}

/// `f(x, y)` for a commutative float op, but `x` itself when it is NaN.
/// IEEE 754 leaves open which NaN operand a result carries and the
/// hardware keeps its first, so two NaNs of different sign gave whichever
/// the compiler happened to put first — and a vectorised column loop may
/// put them the other way round. Pinning the choice keeps the result
/// independent of code generation, identical in both evaluation paths.
#[inline]
fn nan_first(x: f64, y: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
    if x.is_nan() {
        x
    } else {
        f(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::builder::{jacobi3d_kernel, simple_host};
    use sf_minicuda::parse_program;
    use sf_minicuda::Program;

    fn run(src: &str) -> (GlobalMemory, Vec<LaunchStats>) {
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        mem.seed_all(42);
        let interp = Interpreter::new(&p);
        let stats = interp.run_plan(&plan, &mut mem).unwrap();
        (mem, stats)
    }

    #[test]
    fn executes_saxpy() {
        let src = r#"
__global__ void saxpy(const double* __restrict__ x, double* y, int n, double a) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { y[i] = a * x[i] + y[i]; }
}
void host() {
  int n = 100;
  double* x = cudaAlloc1D(n);
  double* y = cudaAlloc1D(n);
  saxpy<<<(n + 31) / 32, 32>>>(x, y, n, 2.0);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        mem.fill_with("x", |i| i as f64);
        mem.fill_with("y", |i| 1.0 + i as f64);
        let interp = Interpreter::new(&p);
        let stats = interp.run_plan(&plan, &mut mem).unwrap();
        let y = &mem.get("y").unwrap().data;
        for (i, yi) in y.iter().enumerate().take(100) {
            assert_eq!(*yi, 2.0 * i as f64 + 1.0 + i as f64);
        }
        assert_eq!(stats[0].flops, 200);
        assert_eq!(stats[0].global_writes, 100);
    }

    #[test]
    fn jacobi_matches_reference() {
        let p = Program {
            kernels: vec![jacobi3d_kernel("jacobi", "u", "v")],
            host: simple_host(
                &["u", "v"],
                &[("jacobi", vec!["u", "v"])],
                (16, 8, 8),
                (8, 4),
            ),
        };
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        mem.seed_all(1);
        let u: Vec<f64> = mem.get("u").unwrap().data.clone();
        let interp = Interpreter::new(&p);
        interp.run_plan(&plan, &mut mem).unwrap();
        let v = &mem.get("v").unwrap().data;
        let (nx, ny) = (16usize, 8usize);
        let at = |k: usize, j: usize, i: usize| u[(k * ny + j) * nx + i];
        let expect = 0.4 * at(1, 1, 1)
            + 0.1
                * (at(1, 1, 2)
                    + at(1, 1, 0)
                    + at(1, 2, 1)
                    + at(1, 0, 1)
                    + at(2, 1, 1)
                    + at(0, 1, 1));
        let got = v[(ny + 1) * nx + 1];
        assert!((got - expect).abs() < 1e-12, "got {got}, want {expect}");
    }

    #[test]
    fn shared_memory_and_barrier() {
        let src = r#"
__global__ void rev(const double* __restrict__ a, double* b, int n) {
  __shared__ double s[32];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  s[threadIdx.x] = a[i];
  __syncthreads();
  b[i] = s[31 - threadIdx.x];
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  double* b = cudaAlloc1D(n);
  rev<<<2, 32>>>(a, b, n);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        mem.fill_with("a", |i| i as f64);
        Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
        let b = &mem.get("b").unwrap().data;
        assert_eq!(b[0], 31.0);
        assert_eq!(b[31], 0.0);
        assert_eq!(b[32], 63.0);
    }

    #[test]
    fn two_phase_commit_allows_parallel_shift() {
        let src = r#"
__global__ void shift(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n - 1) { a[i] = a[i + 1]; }
}
void host() {
  int n = 32;
  double* a = cudaAlloc1D(n);
  shift<<<1, 32>>>(a, n);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        mem.fill_with("a", |i| i as f64);
        Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
        let a = &mem.get("a").unwrap().data;
        for (i, ai) in a.iter().enumerate().take(31) {
            assert_eq!(*ai, (i + 1) as f64);
        }
    }

    #[test]
    fn detects_out_of_bounds() {
        let src = r#"
__global__ void bad(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  a[i + 1] = 0.0;
}
void host() {
  int n = 32;
  double* a = cudaAlloc1D(n);
  bad<<<1, 32>>>(a, n);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let err = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap_err();
        assert!(err.0.contains("out-of-bounds"), "{err}");
    }

    #[test]
    fn memory_restored_after_error() {
        // Even when a launch fails mid-way, the bound arrays must be put
        // back into global memory.
        let src = r#"
__global__ void bad(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  a[i + 1] = 0.0;
}
void host() {
  int n = 32;
  double* a = cudaAlloc1D(n);
  bad<<<1, 32>>>(a, n);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let _ = Interpreter::new(&p).run_plan(&plan, &mut mem);
        assert!(mem.get("a").is_some());
    }

    #[test]
    fn rejects_divergent_barrier() {
        let src = r#"
__global__ void div(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < 16) {
    __syncthreads();
    a[i] = 1.0;
  }
}
void host() {
  int n = 32;
  double* a = cudaAlloc1D(n);
  div<<<1, 32>>>(a, n);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let err = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap_err();
        assert!(err.0.contains("divergent"), "{err}");
    }

    #[test]
    fn counts_divergence_per_warp() {
        let src = r#"
__global__ void g(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = 1.0; }
}
void host() {
  int n = 100;
  double* a = cudaAlloc1D(n);
  g<<<1, 128>>>(a, n);
}
"#;
        let (_, stats) = run(src);
        assert_eq!(stats[0].branch_evals, 4);
        assert_eq!(stats[0].divergent_evals, 1);
        assert!((stats[0].divergence_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn detects_cross_block_hazard() {
        let src = r#"
__global__ void haz(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  a[i] = a[(i + 32) % n];
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  haz<<<2, 32>>>(a, n);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let mut interp = Interpreter::new(&p);
        interp.detect_hazards = true;
        let stats = interp.run_plan(&plan, &mut mem).unwrap();
        assert!(!stats[0].hazards.is_empty());
    }

    /// A missing `__syncthreads()` between staging writes and cross-warp
    /// tile reads is functionally invisible to the lockstep simulator, so
    /// it must surface as a hazard instead of a value difference.
    #[test]
    fn detects_shared_raw_without_barrier() {
        let broken = r#"
__global__ void rev(const double* __restrict__ a, double* b, int n) {
  __shared__ double s[64];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  s[threadIdx.x] = a[i];
  b[i] = s[63 - threadIdx.x];
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  double* b = cudaAlloc1D(n);
  rev<<<1, 64>>>(a, b, n);
}
"#;
        let p = parse_program(broken).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let mut interp = Interpreter::new(&p);
        interp.detect_hazards = true;
        let stats = interp.run_plan(&plan, &mut mem).unwrap();
        assert!(
            stats[0]
                .hazards
                .iter()
                .any(|h| h.contains("read-after-write without barrier")),
            "hazards: {:?}",
            stats[0].hazards
        );

        // The same kernel with the barrier in place is hazard-free.
        let fixed = broken.replace(
            "s[threadIdx.x] = a[i];",
            "s[threadIdx.x] = a[i];\n  __syncthreads();",
        );
        let p = parse_program(&fixed).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let mut interp = Interpreter::new(&p);
        interp.detect_hazards = true;
        let stats = interp.run_plan(&plan, &mut mem).unwrap();
        assert!(
            stats[0].hazards.is_empty(),
            "hazards: {:?}",
            stats[0].hazards
        );
    }

    /// The converse direction: a folded multi-step kernel that *overwrites*
    /// a tile cell another warp consumed since the last barrier. Lockstep
    /// execution reads the old value everywhere, so the miscompile is again
    /// invisible to value comparison — the dropped inter-step barrier must
    /// surface as a write-after-read hazard.
    #[test]
    fn detects_shared_war_across_folded_steps() {
        let broken = r#"
__global__ void fold2(const double* __restrict__ a, double* b, int n) {
  __shared__ double s[64];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  s[threadIdx.x] = a[i];
  __syncthreads();
  double t = s[63 - threadIdx.x];
  s[threadIdx.x] = t + 1.0;
  __syncthreads();
  b[i] = s[threadIdx.x];
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  double* b = cudaAlloc1D(n);
  fold2<<<1, 64>>>(a, b, n);
}
"#;
        let p = parse_program(broken).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let mut interp = Interpreter::new(&p);
        interp.detect_hazards = true;
        let stats = interp.run_plan(&plan, &mut mem).unwrap();
        assert!(
            stats[0]
                .hazards
                .iter()
                .any(|h| h.contains("write-after-read without barrier")),
            "hazards: {:?}",
            stats[0].hazards
        );

        // Restoring the inter-step barrier makes the kernel hazard-free.
        let fixed = broken.replace(
            "s[threadIdx.x] = t + 1.0;",
            "__syncthreads();\n  s[threadIdx.x] = t + 1.0;",
        );
        let p = parse_program(&fixed).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let mut interp = Interpreter::new(&p);
        interp.detect_hazards = true;
        let stats = interp.run_plan(&plan, &mut mem).unwrap();
        assert!(
            stats[0].hazards.is_empty(),
            "hazards: {:?}",
            stats[0].hazards
        );
    }

    #[test]
    fn early_return_deactivates_threads() {
        let src = r#"
__global__ void ret(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= n) { return; }
  a[i] = 2.0;
}
void host() {
  int n = 20;
  double* a = cudaAlloc1D(n);
  ret<<<1, 32>>>(a, n);
}
"#;
        let (mem, stats) = run(src);
        assert_eq!(stats[0].global_writes, 20);
        assert_eq!(mem.get("a").unwrap().data[19], 2.0);
    }

    #[test]
    fn footprint_tracks_unique_elements_per_sweep() {
        let src = r#"
__global__ void two(const double* __restrict__ u, double* v, double* w, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) { v[k][j][i] = u[k][j][i] * 2.0; }
    for (int k = 0; k < nz; k++) { w[k][j][i] = u[k][j][i] + 1.0; }
  }
}
void host() {
  int nx = 16; int ny = 8; int nz = 4;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* v = cudaAlloc3D(nz, ny, nx);
  double* w = cudaAlloc3D(nz, ny, nx);
  two<<<dim3(2, 2), dim3(8, 4)>>>(u, v, w, nx, ny, nz);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let mut interp = Interpreter::new(&p);
        interp.track_footprint = true;
        let stats = interp.run_plan(&plan, &mut mem).unwrap();
        let total = 16 * 8 * 4u64;
        assert_eq!(stats[0].footprint_read_elems, 2 * total);
        assert_eq!(stats[0].footprint_write_elems, 2 * total);
    }

    #[test]
    fn aliased_arrays_rejected() {
        let src = r#"
__global__ void k(const double* __restrict__ a, double* b, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { b[i] = a[i]; }
}
void host() {
  int n = 32;
  double* a = cudaAlloc1D(n);
  k<<<1, 32>>>(a, a, n);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let err = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap_err();
        assert!(err.0.contains("aliasing"), "{err}");
        assert!(mem.get("a").is_some());
    }
}

#[cfg(test)]
mod typing_and_column_tests {
    use super::*;
    use crate::compile::Ty;
    use proptest::prelude::*;
    use sf_minicuda::host::AllocInfo;
    use sf_minicuda::parse_program;

    fn run(src: &str) -> Result<(GlobalMemory, Vec<LaunchStats>), ExecError> {
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let mut interp = Interpreter::new(&p);
        interp.detect_hazards = true;
        let stats = interp.run_plan(&plan, &mut mem)?;
        Ok((mem, stats))
    }

    /// One block of 32 threads over `double* a` of 64 elements.
    fn kernel_on_a(body: &str) -> String {
        format!(
            "__global__ void k(double* a, int n) {{\n  int i = threadIdx.x;\n{body}\n}}\n\
             void host() {{\n  int n = 64;\n  double* a = cudaAlloc1D(n);\n  k<<<1, 32>>>(a, n);\n}}\n"
        )
    }

    /// Assigning to an `int` local used to make it a float
    /// (`expected integer value, got 1`).
    #[test]
    fn assigning_to_an_int_local_keeps_it_an_int() {
        let (mem, _) = run(&kernel_on_a("  int m = 0;\n  m = i + 1;\n  a[m] = 7.0;")).unwrap();
        let a = &mem.get("a").unwrap().data;
        assert_eq!((a[0], a[1], a[32], a[33]), (0.0, 7.0, 7.0, 0.0));

        // Per-thread right-hand sides (a trap-capable `/`, a truncated
        // float) are coerced to the declared type too.
        let (mem, _) = run(&kernel_on_a(
            "  int h = 9;\n  h = h / 2;\n  h += 1.75;\n  h *= 2;\n  a[h] = 1.0 + i;",
        ))
        .unwrap();
        assert_eq!(
            mem.get("a").unwrap().data[10],
            32.0,
            "h = ((9 / 2) + 1) * 2"
        );
    }

    /// `int m;` used to hold `F(0.0)` (`expected integer value, got 0`).
    #[test]
    fn an_uninitialised_int_is_integer_zero() {
        let (mem, _) = run(&kernel_on_a("  int m;\n  a[m + i] = 3.0;")).unwrap();
        assert_eq!(mem.get("a").unwrap().data[31], 3.0);
    }

    #[test]
    fn compound_assignment_to_a_double_stays_float() {
        let (mem, stats) = run(&kernel_on_a(
            "  double acc;\n  acc += 0.5;\n  acc *= 3;\n  a[i] = acc;",
        ))
        .unwrap();
        assert_eq!(mem.get("a").unwrap().data[5], 1.5);
        assert_eq!(stats[0].flops, 2 * 32, "both updates are float arithmetic");
    }

    /// A name declared with two types keeps each declaration's type for
    /// its own assignments (and is evaluated per thread).
    #[test]
    fn a_name_declared_with_two_types_follows_each_declaration() {
        let (mem, _) = run(&kernel_on_a(
            "  int m = 1;\n  m = 2.75;\n  a[m] = 5.0;\n  double m = 0.25;\n  m += 1;\n  a[i + 32] = m;",
        ))
        .unwrap();
        let a = &mem.get("a").unwrap().data;
        assert_eq!(a[2], 5.0, "the int declaration truncates 2.75");
        assert_eq!(a[40], 1.25, "the double declaration does not");
    }

    /// An index that is out of bounds under an arm the thread does not take
    /// is computed (columns run for every lane) but never accessed.
    #[test]
    fn out_of_bounds_under_a_false_ternary_arm_does_not_trap() {
        let (mem, stats) = run(&kernel_on_a(
            "  a[i] = (i > 0) ? a[i - 1] + 1.0 : -1.0;\n  if (i >= 31) { a[i + 1] = (i + 33 < n) ? a[i + 33] : 9.0; }",
        ))
        .unwrap();
        let a = &mem.get("a").unwrap().data;
        assert_eq!((a[0], a[1], a[32]), (-1.0, 1.0, 9.0));
        assert_eq!(stats[0].global_reads, 31, "only the taken arms load");
    }

    /// Two threads fault in one statement: the report is the lowest
    /// thread's, as thread-major evaluation always made it.
    #[test]
    fn out_of_bounds_reports_the_lowest_faulting_thread() {
        let err = run(&kernel_on_a(
            "  if (i == 7 || i == 20) { a[i + 100] = 1.0; }",
        ))
        .unwrap_err();
        assert_eq!(err.0, "out-of-bounds access a[107] (extents [64]) in `k`");
        assert_eq!(err.1, ExecErrorKind::Trap);
        // A trapping `/` ahead of the index faults first within its thread
        // and the lowest thread still wins across threads.
        let err = run(&kernel_on_a("  a[i + 60] = 1 / (i - 2);")).unwrap_err();
        assert_eq!(err.0, "integer division by zero");
    }

    #[test]
    fn hazard_and_trap_strings_are_exact() {
        let shared = |body: &str| {
            format!(
                "__global__ void k(const double* __restrict__ a, double* b, int n) {{\n  \
                 __shared__ double s[64];\n  int i = threadIdx.x;\n{body}\n}}\n\
                 void host() {{\n  int n = 64;\n  double* a = cudaAlloc1D(n);\n  \
                 double* b = cudaAlloc1D(n);\n  k<<<1, 64>>>(a, b, n);\n}}\n"
            )
        };
        let hazards = |src: &str| run(src).unwrap().1.remove(0).hazards;
        assert_eq!(
            hazards(&shared("  s[i] = a[i];\n  b[i] = s[63 - i];")),
            (48..64)
                .rev()
                .map(|c| format!("shared read-after-write without barrier on tile 0[{c}] in `k`"))
                .collect::<Vec<_>>(),
            "in thread order, capped at 16"
        );
        assert_eq!(
            hazards(&shared(
                "  s[i] = a[i];\n  __syncthreads();\n  double t = s[63 - i];\n  s[i] = t + 1.0;"
            ))[0],
            "shared write-after-read without barrier on tile 0[0] in `k`"
        );
        assert_eq!(
            hazards(&shared(
                "  s[i % 32] = a[i];\n  __syncthreads();\n  b[i] = s[i % 32];"
            )),
            (0..16)
                .map(|c| format!("shared write-write race on tile 0[{c}] in `k`"))
                .collect::<Vec<_>>(),
            "one report per raced cell, capped at 16"
        );
        let cross = "__global__ void haz(double* a, int n) {\n  \
                     int i = blockIdx.x * blockDim.x + threadIdx.x;\n  a[i] = a[(i + 32) % n];\n}\n\
                     void host() {\n  int n = 64;\n  double* a = cudaAlloc1D(n);\n  haz<<<2, 32>>>(a, n);\n}\n";
        assert_eq!(
            hazards(cross)[0],
            "cross-block read-after-write hazard on a[0] in `haz`"
        );
        let err = run(&shared("  if (i < 16) { __syncthreads(); }")).unwrap_err();
        assert_eq!(err.0, "__syncthreads() reached in divergent control flow");
        assert_eq!(err.to_string(), format!("execution error: {}", err.0));
    }

    #[test]
    fn step_budget_exhaustion_is_structured() {
        let src = kernel_on_a("  a[i] = 1.0;").replace("k<<<1, 32>>>", "k<<<2, 32>>>");
        let p = parse_program(&src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let mut interp = Interpreter::new(&p);
        interp.step_limit = Some(40);
        let err = interp.run_plan(&plan, &mut mem).unwrap_err();
        assert_eq!(
            err.1,
            ExecErrorKind::StepBudget {
                used: 64,
                limit: 40
            }
        );
        assert_eq!(
            err.0,
            "interpreter step budget exhausted: 64 steps needed, limit 40"
        );
        assert_eq!(interp.steps_used(), 64);
    }

    #[test]
    fn plan_steps_is_what_a_full_run_charges() {
        // Two launch shapes inside a host loop: the static count covers
        // the dynamic trace, not the static launch list.
        let src = r#"
__global__ void k(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { a[i] = a[i] + 1.0; }
}
void host() {
  int n = 64;
  double* a = cudaAlloc1D(n);
  for (int t = 0; t < 3; t++) {
    k<<<2, 32>>>(a, n);
    k<<<1, 32>>>(a, n);
  }
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        assert_eq!(Interpreter::plan_steps(&plan), 3 * (64 + 32));
        let mut mem = GlobalMemory::from_plan(&plan);
        let interp = Interpreter::new(&p);
        interp.run_plan(&plan, &mut mem).unwrap();
        assert_eq!(interp.steps_used(), Interpreter::plan_steps(&plan));
    }

    /// A deterministic stream for the generator below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Mostly small (so comparisons go both ways), sometimes extreme
        /// (so `+ - *` wrap).
        fn value(&mut self) -> i64 {
            match self.below(8) {
                0 => i64::MAX - self.below(3) as i64,
                1 => i64::MIN + self.below(3) as i64,
                _ => self.below(9) as i64 - 4,
            }
        }
    }

    /// A random pure-int tree over `int p0, p1` and the builtins.
    fn pure_tree(rng: &mut Rng, depth: u32) -> Expr {
        use BinaryOp::*;
        if depth == 0 || rng.below(5) == 0 {
            return match rng.below(4) {
                0 => Expr::Int(rng.value()),
                1 => {
                    let axis = [Axis::X, Axis::Y, Axis::Z][rng.below(3) as usize];
                    Expr::Builtin(match rng.below(4) {
                        0 => Builtin::ThreadIdx(axis),
                        1 => Builtin::BlockIdx(axis),
                        2 => Builtin::BlockDim(axis),
                        _ => Builtin::GridDim(axis),
                    })
                }
                _ => *var(["p0", "p1"][rng.below(2) as usize]),
            };
        }
        let shape = rng.below(13);
        let mut sub = || Box::new(pure_tree(rng, depth - 1));
        match shape {
            0 => Expr::Unary {
                op: UnaryOp::Not,
                operand: sub(),
            },
            1 => Expr::Ternary {
                cond: sub(),
                then_val: sub(),
                else_val: sub(),
            },
            n => Expr::Binary {
                op: [Add, Sub, Mul, Lt, Le, Gt, Ge, Eq, Ne, And, Or][n as usize - 2],
                lhs: sub(),
                rhs: sub(),
            },
        }
    }

    /// Float values worth meeting: ordinary, signed zeros, NaNs of both
    /// signs, infinities.
    fn float_value(rng: &mut Rng) -> f64 {
        match rng.below(10) {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => f64::INFINITY,
            3 => -0.0,
            4 => 0.0,
            _ => (rng.below(2001) as f64 - 1000.0) / 250.0,
        }
    }

    fn var(name: &str) -> Box<Expr> {
        Box::new(Expr::Var(name.into()))
    }

    fn tid() -> Expr {
        Expr::Builtin(Builtin::ThreadIdx(Axis::X))
    }

    fn bin(op: BinaryOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    /// An int index: mostly near the lane's own, sometimes any int tree
    /// (which is mostly out of range).
    fn index(rng: &mut Rng, depth: u32) -> Expr {
        match rng.below(4) {
            0 => typed_tree(rng, Ty::Int, depth),
            _ => bin(BinaryOp::Add, tid(), Expr::Int(rng.below(5) as i64)),
        }
    }

    /// A random tree of static type `ty` over `int p0, p1`, `double f0,
    /// f1`, loads of `a[5][32]`, `b[160]` and tile `s1[160]`, with every
    /// node kind a part evaluates.
    fn any_ty(rng: &mut Rng) -> Ty {
        if rng.below(2) == 0 {
            Ty::Int
        } else {
            Ty::Float
        }
    }

    fn typed_tree(rng: &mut Rng, ty: Ty, depth: u32) -> Expr {
        use BinaryOp::*;
        if depth == 0 || rng.below(4) == 0 {
            return match (ty, rng.below(4)) {
                (Ty::Int, 0) => Expr::Int(rng.below(7) as i64 - 3),
                (Ty::Int, 1) => tid(),
                (Ty::Int, _) => *var(["p0", "p1"][rng.below(2) as usize]),
                (Ty::Float, 0) => Expr::Float(float_value(rng)),
                (Ty::Float, 1) => *var(["f0", "f1"][rng.below(2) as usize]),
                (Ty::Float, 2) => Expr::Index {
                    array: "a".into(),
                    indices: vec![
                        bin(Div, tid(), Expr::Int(32)),
                        bin(Rem, index(rng, depth.saturating_sub(1)), Expr::Int(32)),
                    ],
                },
                (Ty::Float, _) => Expr::Index {
                    array: ["b", "s1"][rng.below(2) as usize].into(),
                    indices: vec![index(rng, depth.saturating_sub(1))],
                },
            };
        }
        // A subtree of type `ty`, or of either type.
        let sub = |rng: &mut Rng, ty: Option<Ty>| {
            let ty = ty.unwrap_or_else(|| any_ty(rng));
            Box::new(typed_tree(rng, ty, depth - 1))
        };
        match (ty, rng.below(6)) {
            (_, 0) => Expr::Ternary {
                cond: sub(rng, None),
                then_val: sub(rng, Some(ty)),
                else_val: sub(rng, Some(ty)),
            },
            (_, 1) => Expr::Unary {
                op: UnaryOp::Neg,
                operand: sub(rng, Some(ty)),
            },
            (Ty::Int, 2) => Expr::Unary {
                op: UnaryOp::Not,
                operand: sub(rng, None),
            },
            (Ty::Int, 3) => Expr::Binary {
                op: [Lt, Le, Gt, Ge, Eq, Ne][rng.below(6) as usize],
                lhs: sub(rng, None),
                rhs: sub(rng, None),
            },
            (Ty::Int, _) => Expr::Binary {
                op: [Add, Sub, Mul, Div, Rem, And, Or][rng.below(7) as usize],
                lhs: sub(rng, Some(Ty::Int)),
                rhs: sub(rng, Some(Ty::Int)),
            },
            (Ty::Float, 2) => {
                let fun = [
                    Intrinsic::Sqrt,
                    Intrinsic::Exp,
                    Intrinsic::Log,
                    Intrinsic::Fabs,
                    Intrinsic::Min,
                    Intrinsic::Max,
                    Intrinsic::Pow,
                    Intrinsic::Fma,
                    Intrinsic::Sin,
                    Intrinsic::Cos,
                ][rng.below(10) as usize];
                Expr::Call {
                    fun,
                    args: (0..fun.arity()).map(|_| *sub(rng, None)).collect(),
                }
            }
            (Ty::Float, _) => {
                // At least one float operand makes the op float.
                let (l, r) = match rng.below(3) {
                    0 => (Ty::Float, Ty::Int),
                    1 => (Ty::Int, Ty::Float),
                    _ => (Ty::Float, Ty::Float),
                };
                Expr::Binary {
                    op: [Add, Sub, Mul, Div, Rem][rng.below(5) as usize],
                    lhs: sub(rng, Some(l)),
                    rhs: sub(rng, Some(r)),
                }
            }
        }
    }

    /// A random pure-int tree, or a typed tree of type `ty` (either type
    /// when `None`).
    fn pure_or_typed(rng: &mut Rng, ty: Option<Ty>, depth: u32) -> Expr {
        match rng.below(2) {
            0 => pure_tree(rng, depth),
            _ => {
                let ty = ty.unwrap_or_else(|| any_ty(rng));
                typed_tree(rng, ty, depth)
            }
        }
    }

    /// `for (int j = init; -4 < j && j < 4 && cond; j += 1 + (x != 0))`
    /// over a one-statement body: at most eight iterations, with a typed or
    /// pure init, condition and step.
    fn for_stmt(rng: &mut Rng, depth: u32) -> Stmt {
        use BinaryOp::*;
        let j = || *var("j");
        let bounds = bin(And, bin(Lt, Expr::Int(-4), j()), bin(Lt, j(), Expr::Int(4)));
        let init = pure_or_typed(rng, None, depth);
        let cond = bin(And, bounds, pure_or_typed(rng, Some(Ty::Int), depth));
        let x = pure_or_typed(rng, None, depth);
        let step = bin(Add, Expr::Int(1), bin(Ne, x, Expr::Int(0)));
        let body = loop {
            match typed_stmt(rng) {
                Stmt::For { .. } => continue,
                s => break vec![s],
            }
        };
        Stmt::For {
            var: "j".into(),
            init,
            cond,
            step,
            body,
        }
    }

    /// A random statement whose parts are statically typed or pure: an
    /// assignment to an int or float slot, a (compound) store to `a`, `b`
    /// or tile `s0`, an `if` on a typed or pure condition that stores to
    /// `b`, or a `for` loop.
    fn typed_stmt(rng: &mut Rng) -> Stmt {
        let depth = 1 + rng.below(4) as u32;
        let op = [
            AssignOp::Assign,
            AssignOp::AddAssign,
            AssignOp::SubAssign,
            AssignOp::MulAssign,
        ][rng.below(4) as usize];
        let assign = |target, op, value| Stmt::Assign { target, op, value };
        match rng.below(10) {
            0 => assign(
                LValue::Var("f0".into()),
                AssignOp::Assign,
                typed_tree(rng, Ty::Float, depth),
            ),
            1 => {
                let ty = any_ty(rng);
                assign(
                    LValue::Var("p0".into()),
                    AssignOp::Assign,
                    typed_tree(rng, ty, depth),
                )
            }
            2 => {
                let ty = any_ty(rng);
                assign(LValue::Var("f1".into()), op, typed_tree(rng, ty, depth))
            }
            3 => {
                let indices = vec![bin(BinaryOp::Div, tid(), Expr::Int(32)), index(rng, depth)];
                let target = LValue::Index {
                    array: "a".into(),
                    indices,
                };
                assign(target, op, typed_tree(rng, Ty::Float, depth))
            }
            4 => {
                let target = LValue::Index {
                    array: "s0".into(),
                    indices: vec![index(rng, depth)],
                };
                assign(target, op, typed_tree(rng, Ty::Float, depth))
            }
            5 | 6 => {
                let store = |v: f64| Stmt::Assign {
                    target: LValue::Index {
                        array: "b".into(),
                        indices: vec![tid()],
                    },
                    op: AssignOp::Assign,
                    value: Expr::Float(v),
                };
                Stmt::If {
                    cond: pure_or_typed(rng, None, depth),
                    then_body: vec![store(1.0)],
                    else_body: vec![store(2.0)],
                }
            }
            7 => {
                let target = ["p0", "p1"][rng.below(2) as usize];
                assign(LValue::Var(target.into()), op, pure_tree(rng, depth))
            }
            8 => for_stmt(rng, depth),
            _ => {
                let target = LValue::Index {
                    array: "b".into(),
                    indices: vec![index(rng, depth)],
                };
                assign(target, op, typed_tree(rng, Ty::Float, depth))
            }
        }
    }

    /// `stmt` inside the kernel the float-column property runs: `m` is
    /// declared `int` and then `double`, so it is a value slot.
    fn float_kernel(stmt: Stmt) -> Kernel {
        let scalar = |name: &str, ty| Param::Scalar {
            name: name.into(),
            ty,
        };
        let array = |name: &str| Param::Array {
            name: name.into(),
            elem: ScalarType::F64,
            is_const: false,
        };
        let decl = |name: &str, ty| Stmt::VarDecl {
            name: name.into(),
            ty,
            init: None,
        };
        let tile = |name: &str| Stmt::SharedDecl {
            name: name.into(),
            ty: ScalarType::F64,
            extents: vec![160],
        };
        Kernel {
            name: "k".into(),
            params: vec![
                array("a"),
                array("b"),
                scalar("p0", ScalarType::I32),
                scalar("p1", ScalarType::I32),
                scalar("f0", ScalarType::F64),
                scalar("f1", ScalarType::F64),
            ],
            body: vec![
                tile("s0"),
                tile("s1"),
                decl("m", ScalarType::I32),
                decl("m", ScalarType::F64),
                stmt,
            ],
        }
    }

    /// Every part of `s` itself (not of the statements it contains).
    fn parts(s: &mut CStmt) -> Vec<&mut Part> {
        match s {
            CStmt::SetSlot { part, .. }
            | CStmt::StoreGlobal { part, .. }
            | CStmt::StoreShared { part, .. }
            | CStmt::If { part, .. } => vec![part],
            CStmt::For {
                init_part,
                cond_part,
                step_part,
                ..
            } => vec![init_part, cond_part, step_part],
            other => panic!("not generated: {other:?}"),
        }
    }

    /// The same statement with every part sent to the per-thread evaluator.
    fn per_thread(s: &CStmt) -> CStmt {
        let mut s = s.clone();
        for part in parts(&mut s) {
            *part = Part::PerThread;
        }
        let flip = |b: &mut Vec<CStmt>| *b = b.iter().map(per_thread).collect();
        match &mut s {
            CStmt::If {
                then_body,
                else_body,
                ..
            } => {
                flip(then_body);
                flip(else_body);
            }
            CStmt::For { body, .. } => flip(body),
            _ => {}
        }
        s
    }

    /// Everything a statement's execution can leave behind, floats as
    /// bits. The footprint sets only count when the statement completes:
    /// a trap ends the launch before they are reported.
    #[derive(Debug, PartialEq)]
    struct Observed {
        result: Result<(), ExecError>,
        stats: LaunchStats,
        arrays: Vec<Vec<u64>>,
        tiles: Vec<Vec<u64>>,
        logs: (Vec<Vec<LastAccess>>, Vec<Vec<LastAccess>>),
        writers: Vec<Vec<u64>>,
        ints: Vec<i64>,
        floats: Vec<u64>,
        vals: Vec<(bool, u64)>,
        /// The read and write footprints.
        footprint: Option<[Vec<(u16, usize)>; 2]>,
    }

    /// Execute `stmt` on one block whose whole state — memory, slots,
    /// tiles, logs, hazard list, mask — is drawn from `seed`.
    fn observe(ck: &CompiledKernel, stmt: &CStmt, seed: u64) -> Observed {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Rng(seed);
        let block = Dim3::new(16 + rng.below(33) as u32, 1 + rng.below(2) as u32, 1);
        let lanes = block.count() as usize;
        let mut arrays: Vec<(String, DeviceArray)> = [("a", vec![5, 32]), ("b", vec![160])]
            .into_iter()
            .map(|(name, extents)| {
                let info = AllocInfo {
                    name: name.into(),
                    elem: ScalarType::F64,
                    extents,
                };
                let mut arr = DeviceArray::new(info);
                arr.data.iter_mut().for_each(|x| *x = float_value(&mut rng));
                (name.to_string(), arr)
            })
            .collect();
        let mut pools = Pools::default();
        pools.prepare_launch(ck, block, arrays.len());
        let mut stats = LaunchStats::default();
        let hazards = [0, 15, 16][rng.below(3) as usize];
        stats.hazards = (0..hazards)
            .map(|h| format!("earlier hazard {h}"))
            .collect();
        let detect_hazards = rng.below(4) != 0;
        let mut m = Machine {
            ck,
            kernel_name: "k",
            arrays: &mut arrays,
            stats: &mut stats,
            block_linear: 0,
            geom: Geometry {
                block_idx: Dim3::new(1, 0, 0),
                block_dim: block,
                grid_dim: Dim3::new(3, 1, 1),
            },
            lanes,
            nvals: ck.nslots - ck.int_slots - ck.float_slots,
            p: pools,
            pending: Pending::default(),
            any_returned: false,
            fp_read: HashSet::new(),
            fp_write: HashSet::new(),
            track_footprint: rng.below(2) == 0,
            detect_hazards,
        };
        let base = BaseSlots {
            ints: vec![0; ck.int_slots],
            floats: vec![0.0; ck.float_slots],
            vals: vec![Value::F(0.0); m.nvals],
        };
        m.reset_block(Dim3::new(1, 0, 0), 1, &base);
        for v in &mut m.p.col.icols {
            *v = rng.below(44) as i64 - 3;
        }
        for v in &mut m.p.col.fcols {
            *v = float_value(&mut rng);
        }
        for v in &mut m.p.vals {
            *v = match rng.below(2) {
                0 => Value::I(rng.below(9) as i64 - 4),
                _ => Value::F(float_value(&mut rng)),
            };
        }
        for tile in &mut m.p.tiles {
            tile.iter_mut().for_each(|x| *x = float_value(&mut rng));
        }
        // The logs hold accesses from this barrier epoch and an older one,
        // by any warp; the writers tables are empty or name this block,
        // another block, or none.
        let epoch = m.p.epoch;
        for log in m.p.shared_writes.iter_mut().chain(&mut m.p.shared_reads) {
            for entry in log.iter_mut() {
                let sparse = rng.below(8) != 0;
                *entry = (epoch - sparse as u64, rng.below(3) as u32);
            }
        }
        for (w, (_, arr)) in m.p.writers.iter_mut().zip(m.arrays.iter()) {
            if rng.below(2) == 0 {
                *w = (0..arr.data.len())
                    .map(|_| [0, 0, 0, 1, 2, 3][rng.below(6) as usize])
                    .collect();
            }
        }
        let density = 1 + rng.below(4);
        let mask: Vec<bool> = (0..lanes).map(|_| rng.below(4) < density).collect();

        let result = m.exec_stmt(stmt, &mask, true);
        let footprint = [&m.fp_read, &m.fp_write].map(|set| {
            let mut elems: Vec<_> = set.iter().copied().collect();
            elems.sort_unstable();
            elems
        });
        Observed {
            footprint: result.is_ok().then_some(footprint),
            result,
            stats: m.stats.clone(),
            arrays: m.arrays.iter().map(|(_, a)| bits(&a.data)).collect(),
            tiles: m.p.tiles.iter().map(|t| bits(t)).collect(),
            logs: (m.p.shared_writes.clone(), m.p.shared_reads.clone()),
            writers: m.p.writers.clone(),
            ints: m.p.col.icols.clone(),
            floats: bits(&m.p.col.fcols),
            vals: m
                .p
                .vals
                .iter()
                .map(|v| match v {
                    Value::I(i) => (false, *i as u64),
                    Value::F(f) => (true, f.to_bits()),
                })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]
        /// A statement whose parts run column-wise leaves exactly what the
        /// per-thread evaluator leaves — memory bits, every counter, the
        /// hazard list, the trap message, the logs, the slots — for random
        /// typed trees (in- and out-of-range loads, ternaries, intrinsics,
        /// int and float columns, NaNs), pure-int trees (wrapping at the
        /// extremes, every lane computed whatever the mask) and `for` loops
        /// under random masks and hazard states.
        #[test]
        fn float_columns_agree_with_the_per_thread_evaluator(seed in 0u64..3000) {
            let mut rng = Rng(seed);
            let kernel = float_kernel(typed_stmt(&mut rng));
            let ck = compile(&kernel).unwrap();
            let stmt = ck.body.last().unwrap();
            let typed = parts(&mut stmt.clone()).iter().all(|p| **p != Part::PerThread);
            prop_assert!(typed, "the generator builds typed or pure parts: {:?}", stmt);
            let state = rng.next();
            let columns = observe(&ck, stmt, state);
            let reference = observe(&ck, &per_thread(stmt), state);
            prop_assert_eq!(columns, reference, "{:?}", kernel.body.last());
        }
    }
}

#[cfg(test)]
mod grid_z_tests {
    use super::*;
    use sf_minicuda::parse_program;

    #[test]
    fn three_dimensional_grids_execute() {
        // Grid z > 1: every (block z, y, x) must execute.
        let src = r#"
__global__ void fill(double* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int plane = blockIdx.z;
  a[plane][0][i] = 1.0 + plane;
}
void host() {
  int n = 32;
  double* a = cudaAlloc3D(4, 1, n);
  fill<<<dim3(1, 1, 4), dim3(32, 1, 1)>>>(a, n);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let stats = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
        assert_eq!(stats[0].global_writes, 4 * 32);
        let a = &mem.get("a").unwrap().data;
        assert_eq!(a[0], 1.0);
        assert_eq!(a[3 * 32], 4.0);
    }

    #[test]
    fn block_z_threads_execute() {
        let src = r#"
__global__ void fill(double* a, int n) {
  int i = threadIdx.x;
  int z = threadIdx.z;
  a[z][0][i] = 7.0;
}
void host() {
  int n = 16;
  double* a = cudaAlloc3D(2, 1, n);
  fill<<<dim3(1), dim3(16, 1, 2)>>>(a, n);
}
"#;
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
        assert!(mem.get("a").unwrap().data.iter().all(|&v| v == 7.0));
    }
}
