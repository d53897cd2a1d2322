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
//! form before execution, and each statement executes in two halves:
//!
//! - its **column program** — the pure-int guard and index subtrees, which
//!   touch no counter, hazard log, memory cell or trap — runs once over
//!   all lanes of the block as tight loops on `i64` columns (int slots are
//!   stored as columns, `threadIdx` is a table built once per launch);
//! - everything observable — loads, stores, flop and access counters, the
//!   hazard logs, traps, two-phase commit — runs **per thread in thread
//!   order** in the one evaluator ([`Machine::eval`]), reading the integer
//!   results from the columns.
//!
//! There is no unchecked mode: bounds, hazard and race checks run on every
//! access at this speed. Block-sized state (columns, masks, tiles, the
//! hazard logs) is pooled across statements, blocks and launches; bound
//! arrays are checked out of [`GlobalMemory`] for the duration of a launch.
//!
//! The interpreter also performs the checks the paper relies on:
//! - output verification — callers compare memory images of original vs
//!   transformed programs;
//! - shared-memory race detection (conflicting writes from different warps
//!   between barriers);
//! - cross-block global hazards (a block reading an element written by a
//!   different block in the same launch — invalid inter-block communication
//!   that temporal blocking must avoid).

use crate::compile::{compile, CExpr, CStmt, ColOp, ColSrc, CompiledKernel, SlotRef};
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
            vals: vec![Value::F(0.0); ck.nslots - ck.int_slots],
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
                        (SlotRef::Int(_), Value::F(_)) => {
                            unreachable!("an int slot's every declaration is `int`")
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
    vals: Vec<Value>,
}

/// One `i64` per lane: a constant, or a column.
#[derive(Clone, Copy)]
enum Lanes<'a> {
    Const(i64),
    Col(&'a [i64]),
}

impl Lanes<'_> {
    #[inline]
    fn at(self, t: usize) -> i64 {
        match self {
            Lanes::Const(c) => c,
            Lanes::Col(col) => col[t],
        }
    }
}

/// `dst[t] = f(a[t])` for every lane.
fn map1(dst: &mut [i64], a: Lanes<'_>, f: impl Fn(i64) -> i64) {
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
fn map2(dst: &mut [i64], a: Lanes<'_>, b: Lanes<'_>, f: impl Fn(i64, i64) -> i64) {
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

/// A shared-memory access log entry: the barrier epoch and warp of the last
/// access to a tile cell. Epochs start at 1, so the default never matches.
type LastAccess = (u64, u32);

/// Block-sized buffers, reused across statements, blocks and launches so
/// the per-statement path allocates nothing once they are warm.
#[derive(Default)]
struct Pools {
    /// Int slots, one column each: `icols[slot * lanes + t]`.
    icols: Vec<i64>,
    /// Value slots, thread-major: `vals[t * nvals + slot]`.
    vals: Vec<Value>,
    /// Column registers: `regs[reg * lanes + t]`.
    regs: Vec<i64>,
    /// `threadIdx.x`, `.y`, `.z` of every lane, built once per launch.
    tid: Vec<i64>,
    alive: Vec<bool>,
    /// The all-true block mask.
    full: Vec<bool>,
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
}

impl Pools {
    fn prepare_launch(&mut self, ck: &CompiledKernel, block: Dim3, arrays: usize) {
        let lanes = block.count() as usize;
        self.icols.resize(ck.int_slots * lanes, 0);
        self.regs.resize(ck.col_regs * lanes, 0);
        self.full.clear();
        self.full.resize(lanes, true);
        self.tid.clear();
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            for z in 0..block.z {
                for y in 0..block.y {
                    for x in 0..block.x {
                        self.tid.push(match axis {
                            Axis::X => x,
                            Axis::Y => y,
                            Axis::Z => z,
                        } as i64);
                    }
                }
            }
        }
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
            self.p.icols[c * self.lanes..][..self.lanes].fill(v);
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
            SlotRef::Int(c) => Value::I(self.p.icols[c as usize * self.lanes + t]),
            SlotRef::Val(s) => self.p.vals[t * self.nvals + s as usize],
        }
    }

    #[inline]
    fn set_slot(&mut self, t: usize, s: SlotRef, v: Value) {
        match s {
            // The typing rule the columns rely on: every assignment to an
            // `int`-declared name is coerced to its declared type first.
            SlotRef::Int(c) => match v {
                Value::I(i) => self.p.icols[c as usize * self.lanes + t] = i,
                Value::F(_) => unreachable!("int slot assigned {v:?}"),
            },
            SlotRef::Val(s) => self.p.vals[t * self.nvals + s as usize] = v,
        }
    }

    fn take_mask(&mut self) -> Vec<bool> {
        let mut m = self.p.masks.pop().unwrap_or_default();
        m.clear();
        m
    }

    /// Run a statement's column program: every op over every lane,
    /// masked or not — nothing here can trap or be observed, and an unset
    /// slot reads as 0.
    fn run_cols(&mut self, ops: &[ColOp]) {
        use BinaryOp::*;
        let n = self.lanes;
        let geom = self.geom;
        let Pools {
            icols, regs, tid, ..
        } = &mut self.p;
        for op in ops {
            let (ColOp::Copy { dst, .. }
            | ColOp::Not { dst, .. }
            | ColOp::Bin { dst, .. }
            | ColOp::Select { dst, .. }) = *op;
            let dst = dst as usize;
            // Operands live in registers above `dst` (compile.rs).
            let (lo, hi) = regs.split_at_mut((dst + 1) * n);
            let d = &mut lo[dst * n..];
            let src = |s: ColSrc| match s {
                ColSrc::Const(c) => Lanes::Const(c),
                ColSrc::Slot(c) => Lanes::Col(&icols[c as usize * n..][..n]),
                ColSrc::Builtin(b) => geom.builtin(b, tid),
                ColSrc::Reg(r) => Lanes::Col(&hi[(r as usize - dst - 1) * n..][..n]),
            };
            match *op {
                ColOp::Copy { a, .. } => map1(d, src(a), |x| x),
                ColOp::Not { a, .. } => map1(d, src(a), |x| (x == 0) as i64),
                ColOp::Bin { op, a, b, .. } => {
                    let (a, b) = (src(a), src(b));
                    match op {
                        Add => map2(d, a, b, i64::wrapping_add),
                        Sub => map2(d, a, b, i64::wrapping_sub),
                        Mul => map2(d, a, b, i64::wrapping_mul),
                        Lt => map2(d, a, b, |x, y| (x < y) as i64),
                        Le => map2(d, a, b, |x, y| (x <= y) as i64),
                        Gt => map2(d, a, b, |x, y| (x > y) as i64),
                        Ge => map2(d, a, b, |x, y| (x >= y) as i64),
                        Eq => map2(d, a, b, |x, y| (x == y) as i64),
                        Ne => map2(d, a, b, |x, y| (x != y) as i64),
                        And => map2(d, a, b, |x, y| (x != 0 && y != 0) as i64),
                        Or => map2(d, a, b, |x, y| (x != 0 || y != 0) as i64),
                        Div | Rem => unreachable!("`/` and `%` trap: never column ops"),
                    }
                }
                ColOp::Select { c, t, e, .. } => {
                    let (c, t, e) = (src(c), src(t), src(e));
                    for (lane, d) in d.iter_mut().enumerate() {
                        *d = if c.at(lane) != 0 {
                            t.at(lane)
                        } else {
                            e.at(lane)
                        };
                    }
                }
            }
        }
    }

    /// `out[t] = among[t] && cond(t)`: a column condition in one pass,
    /// anything else per thread in thread order.
    fn truth(
        &mut self,
        cond: &CExpr,
        among: &[bool],
        out: &mut Vec<bool>,
    ) -> Result<(), ExecError> {
        out.clear();
        if let CExpr::Col(r) = cond {
            let col = &self.p.regs[*r as usize * self.lanes..][..self.lanes];
            out.extend(among.iter().zip(col).map(|(&a, &c)| a && c != 0));
        } else {
            for (t, &a) in among.iter().enumerate() {
                out.push(a && self.eval(cond, t)?.truthy());
            }
        }
        Ok(())
    }

    /// `slot = e` coerced to `ty`, in the active lanes.
    fn assign(
        &mut self,
        slot: SlotRef,
        ty: ScalarType,
        e: &CExpr,
        active: &[bool],
    ) -> Result<(), ExecError> {
        if let (SlotRef::Int(c), CExpr::Col(r)) = (slot, e) {
            let n = self.lanes;
            let dst = &mut self.p.icols[c as usize * n..][..n];
            let src = &self.p.regs[*r as usize * n..][..n];
            for ((d, &s), &a) in dst.iter_mut().zip(src).zip(active) {
                if a {
                    *d = s;
                }
            }
            return Ok(());
        }
        for t in (0..active.len()).filter(|&t| active[t]) {
            let v = coerce(self.eval(e, t)?, ty);
            self.set_slot(t, slot, v);
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
            CStmt::SetSlot { slot, ty, cols, e } => {
                self.count_warp_issue(active);
                self.run_cols(cols);
                self.assign(*slot, *ty, e, active)?;
            }
            CStmt::StoreGlobal {
                array,
                idx,
                op,
                cols,
                e,
            } => {
                self.count_warp_issue(active);
                self.run_cols(cols);
                self.store_global(*array, idx, *op, e, active)?;
            }
            CStmt::StoreShared {
                tile,
                idx,
                op,
                cols,
                e,
            } => {
                self.count_warp_issue(active);
                self.run_cols(cols);
                self.store_shared(*tile, idx, *op, e, active)?;
            }
            CStmt::If {
                cols,
                cond,
                then_body,
                else_body,
            } => {
                self.count_warp_issue(active);
                self.run_cols(cols);
                let mut then_mask = self.take_mask();
                self.truth(cond, active, &mut then_mask)?;
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
                init_cols,
                init,
                cond_cols,
                cond,
                step_cols,
                step,
                body,
            } => {
                self.count_warp_issue(active);
                self.run_cols(init_cols);
                self.assign(*slot, ScalarType::I32, init, active)?;
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
                    if self.any_returned {
                        for (l, &a) in live.iter_mut().zip(&self.p.alive) {
                            *l &= a;
                        }
                    }
                    self.run_cols(cond_cols);
                    self.truth(cond, &live, &mut iter_mask)?;
                    let divergent = self.record_branch(active, &iter_mask);
                    if !iter_mask.iter().any(|&m| m) {
                        break;
                    }
                    self.exec_stmts(body, &iter_mask, uniform && !divergent)?;
                    std::mem::swap(&mut live, &mut iter_mask);
                    self.run_cols(step_cols);
                    self.step(*slot, step, &live)?;
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

    /// `slot += step` in the lanes that ran the iteration and did not
    /// return from it.
    fn step(&mut self, slot: SlotRef, step: &CExpr, ran: &[bool]) -> Result<(), ExecError> {
        let n = self.lanes;
        if let (SlotRef::Int(c), CExpr::Col(r)) = (slot, step) {
            let var = &mut self.p.icols[c as usize * n..][..n];
            let by = &self.p.regs[*r as usize * n..][..n];
            for (((v, &d), &ran), &alive) in var.iter_mut().zip(by).zip(ran).zip(&self.p.alive) {
                if ran && alive {
                    *v = v.wrapping_add(d);
                }
            }
            return Ok(());
        }
        for t in (0..n).filter(|&t| ran[t]) {
            if self.p.alive[t] {
                let d = self.eval(step, t)?.as_i64()?;
                let cur = self.slot(t, slot).as_i64()?;
                self.set_slot(t, slot, Value::I(cur.wrapping_add(d)));
            }
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
        let data = &mut self.arrays[array as usize].1.data;
        if self.detect_hazards {
            let writers = &mut self.p.writers[array as usize];
            writers.resize(data.len(), 0);
            for &(off, _) in &scratch {
                writers[off] = self.block_linear + 1;
            }
        }
        if self.track_footprint {
            self.fp_write
                .extend(scratch.iter().map(|&(off, _)| (array, off)));
        }
        for &(off, v) in &scratch {
            data[off] = v;
        }
        self.stats.global_writes += scratch.len() as u64;
        self.p.scratch = scratch;
        Ok(())
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
        for &(off, v) in &scratch {
            self.p.tiles[tile as usize][off] = v;
        }
        self.stats.shared_writes += scratch.len() as u64;
        self.p.scratch = scratch;
        Ok(())
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
            CExpr::Col(r) => Value::I(self.p.regs[*r as usize * self.lanes + t]),
            CExpr::Builtin(b) => Value::I(self.geom.builtin(*b, &self.p.tid).at(t)),
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
            Add => Value::F(x + y),
            Sub => Value::F(x - y),
            Mul => Value::F(x * y),
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

fn apply_assign(op: AssignOp, old: f64, rhs: f64) -> f64 {
    match op {
        AssignOp::Assign => rhs,
        AssignOp::AddAssign => old + rhs,
        AssignOp::SubAssign => old - rhs,
        AssignOp::MulAssign => old * rhs,
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
            + 0.1 * (at(1, 1, 2) + at(1, 1, 0) + at(1, 2, 1) + at(1, 0, 1) + at(2, 1, 1)
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
            stats[0].hazards.iter().any(|h| h.contains("read-after-write without barrier")),
            "hazards: {:?}",
            stats[0].hazards
        );

        // The same kernel with the barrier in place is hazard-free.
        let fixed = broken.replace("s[threadIdx.x] = a[i];", "s[threadIdx.x] = a[i];\n  __syncthreads();");
        let p = parse_program(&fixed).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        let mut interp = Interpreter::new(&p);
        interp.detect_hazards = true;
        let stats = interp.run_plan(&plan, &mut mem).unwrap();
        assert!(stats[0].hazards.is_empty(), "hazards: {:?}", stats[0].hazards);
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
            stats[0].hazards.iter().any(|h| h.contains("write-after-read without barrier")),
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
        assert!(stats[0].hazards.is_empty(), "hazards: {:?}", stats[0].hazards);
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
    use proptest::prelude::*;
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

    const PARAMS: [&str; 4] = ["p0", "p1", "p2", "p3"];

    /// A random pure-int tree over the four `int` parameters.
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
                _ => Expr::Var(PARAMS[rng.below(4) as usize].into()),
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

    /// The tree as the compiler resolves it, before any column lowering.
    fn resolved(e: &Expr) -> CExpr {
        let sub = |e: &Expr| Box::new(resolved(e));
        match e {
            Expr::Int(v) => CExpr::I(*v),
            Expr::Builtin(b) => CExpr::Builtin(*b),
            Expr::Var(name) => CExpr::ISlot(PARAMS.iter().position(|p| p == name).unwrap() as u16),
            Expr::Unary { op, operand } => CExpr::Un {
                op: *op,
                e: sub(operand),
            },
            Expr::Binary { op, lhs, rhs } => CExpr::Bin {
                op: *op,
                l: sub(lhs),
                r: sub(rhs),
            },
            Expr::Ternary {
                cond,
                then_val,
                else_val,
            } => CExpr::Ternary {
                c: sub(cond),
                t: sub(then_val),
                e: sub(else_val),
            },
            other => unreachable!("not generated: {other:?}"),
        }
    }

    proptest! {
        /// Column evaluation of a pure-int tree equals the per-thread
        /// evaluator on the unlowered tree in *every* lane — the columns
        /// ignore the mask — and the masked assignment touches exactly the
        /// active lanes.
        #[test]
        fn columns_agree_with_the_per_thread_evaluator(seed in 0u64..400) {
            let mut rng = Rng(seed);
            let tree = pure_tree(&mut rng, 5);
            let kernel = Kernel {
                name: "k".into(),
                params: PARAMS
                    .iter()
                    .map(|p| Param::Scalar { name: p.to_string(), ty: ScalarType::I32 })
                    .collect(),
                body: vec![Stmt::VarDecl {
                    name: "r".into(),
                    ty: ScalarType::I32,
                    init: Some(tree.clone()),
                }],
            };
            let ck = compile(&kernel).unwrap();
            let CStmt::SetSlot { slot, ty, cols, e } = &ck.body[0] else {
                panic!("expected `int r = ...`, got {:?}", ck.body[0]);
            };
            prop_assert_eq!(e, &CExpr::Col(0), "a pure-int tree is one column");

            let block = Dim3::new(1 + rng.below(7) as u32, 1 + rng.below(5) as u32, 1 + rng.below(2) as u32);
            let lanes = block.count() as usize;
            let mut pools = Pools::default();
            pools.prepare_launch(&ck, block, 0);
            let mut stats = LaunchStats::default();
            let mut m = Machine {
                ck: &ck,
                kernel_name: "k",
                arrays: &mut [],
                stats: &mut stats,
                block_linear: 0,
                geom: Geometry {
                    block_idx: Dim3::new(0, 0, 0),
                    block_dim: block,
                    grid_dim: Dim3::new(3, 2, 2),
                },
                lanes,
                nvals: 0,
                p: pools,
                any_returned: false,
                fp_read: HashSet::new(),
                fp_write: HashSet::new(),
                track_footprint: false,
                detect_hazards: true,
            };
            let base = BaseSlots { ints: vec![0; ck.int_slots], vals: Vec::new() };
            m.reset_block(Dim3::new(2, 1, 1), 0, &base);
            for v in &mut m.p.icols[..PARAMS.len() * lanes] {
                *v = rng.value();
            }
            let mask: Vec<bool> = (0..lanes).map(|_| rng.below(3) != 0).collect();

            let plain = resolved(&tree);
            let scalar: Vec<i64> = (0..lanes)
                .map(|t| m.eval(&plain, t).unwrap().as_i64().unwrap())
                .collect();
            m.run_cols(cols);
            prop_assert_eq!(&m.p.regs[..lanes], &scalar[..], "tree {:?}", tree);

            m.assign(*slot, *ty, e, &mask).unwrap();
            for t in 0..lanes {
                let want = if mask[t] { scalar[t] } else { 0 };
                prop_assert_eq!(m.slot(t, *slot), Value::I(want), "lane {}", t);
            }
            prop_assert_eq!(m.stats.flops, 0, "integer math is never a flop");
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
