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
//! [`Part`] marker says.
//!
//! **Lane masks** are bitsets of a fixed capacity: 1024 lanes (CUDA's
//! threads per block, which the host plan enforces too) in 64-lane words,
//! lane `t` at bit `t % 64` of word `t / 64`. Liveness, guards, branch and
//! warp counting and a part's lane selection work a word at a time; a
//! launch whose block holds more lanes traps before it runs.
//!
//! - the **column evaluator** (`Machine::col`) evaluates a pure or
//!   statically typed part once over a *selection* of lanes. A node
//!   evaluates into its own register column and its operands into the
//!   registers above it. Registers are compacted over the selection: entry
//!   `i` belongs to its `i`-th lane, so arithmetic, index flattening and the
//!   range check are dense loops over the selected lanes only. A selection
//!   of every lane reads slot and `threadIdx` columns in place; any other
//!   gathers each such column once per part, at its first leaf, into a leaf
//!   column. Loads and stores are the only scatters, through the flattened
//!   offsets; each ternary arm runs over the lanes that take it, so an
//!   untaken arm never loads. A **pure** part (integer leaves, wrapping
//!   `+ - *`, comparisons, `&& || !`, ternaries) touches no counter, hazard
//!   log, memory cell or trap, so it runs over every lane of the block
//!   whatever the mask, and its result is applied under the mask. A
//!   **typed** part runs over the active lanes: each index column is
//!   range-checked in the pass that flattens it, flops and reads are charged
//!   as *active lanes × ops* to a pending tally, and the hazard checks run
//!   over the offsets in tight loops. It **commits** — tally, shared-read
//!   log, stores — only if no lane would trap (out of bounds, an int `/ %`
//!   by zero or overflow) and no lane would report a hazard the launch's
//!   list still has room for;
//! - otherwise nothing was committed, and the statement runs **per thread
//!   in thread order** from the unchanged state in the one evaluator
//!   (`Machine::eval`), which is the only source of trap and hazard text.
//!   So the lowest faulting thread is the one reported, and hazard strings,
//!   their order and the cap of 16 are what thread-major evaluation always
//!   produced. An untyped part (a value slot, a ternary whose arms differ
//!   in type) always takes this path.
//!
//! **Shared-memory logs** hold one word per tile cell, for its last writer
//! and its last reader: a tick of the interpreter's clock (monotonic over
//! its life) above the access's warp (`stamp`). A barrier or a new block
//! starts an epoch at a fresh tick, and an access races with a logged one
//! that is later than the epoch's start and from another warp. A typed part
//! stamps all its accesses with one tick of its own and stages each shared
//! read as one word (cell and warp); on commit each cell takes the larger
//! of its stamp and the part's, which is the part's reader of the highest
//! warp — the last in thread order — since every logged stamp is older.
//!
//! **Memoized guards.** A pure `if` condition inside a `for` body carries
//! the ids of its top-level `&&` conjuncts ([`crate::compile`]). The pools
//! keep one truth mask per conjunct, computed over every lane of the block
//! and stamped with a tick of the same clock. The clock also stamps each
//! block's start (so a new block or launch invalidates every mask) and,
//! in a kernel that has conjuncts, each write of an int slot (`assign_col`,
//! `set_slot`, `step`). A mask is fresh while its stamp is later than the
//! block's start and than the last write of every slot its conjunct reads:
//! one that reads only loop-invariant slots, builtins and scalar parameters
//! is computed once per block, one that reads the loop variable or a slot
//! the body assigns again after each write. The then-mask is the active
//! mask ANDed with the conjuncts' masks. A pure part has no observable
//! effect, so when it is computed is unobservable, and nothing a run
//! reports moves.
//!
//! Both paths pin which NaN a commutative `+`/`*` returns (`nan_first`),
//! since a vectorised loop may hand the hardware the operands in the other
//! order. The footprint sets are the one thing a part touches before it
//! commits: inserting into a set is idempotent and the per-thread rerun
//! reads a superset, so the result is the same.
//!
//! There is no unchecked mode and no switch for one: bounds, hazard and
//! race checks run on every access of every run. Block-sized state
//! (columns, registers, lane selections, tiles, the hazard logs) is pooled
//! across statements, blocks and launches; bound arrays are checked out of
//! [`GlobalMemory`] for the duration of a launch.
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
    /// the footprint the DRAM traffic model predicts, counted only when
    /// [`Interpreter::track_footprint`] is set (0 otherwise).
    pub footprint_read_elems: u64,
    pub footprint_write_elems: u64,
    /// Race / hazard reports (capped at 16); every run checks for them.
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
    /// Track per-(block, sweep) unique-element footprints (slower): the
    /// oracle the DRAM traffic model is tested against, on small grids.
    /// The interpreter's one switch — hazard, race and bounds checks are
    /// not optional.
    pub track_footprint: bool,
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
        let lanes = launch.block.count() as usize;
        if lanes > MAX_LANES {
            return Err(ExecError::trap(format!(
                "block of {lanes} threads in `{}` exceeds the interpreter's limit of {MAX_LANES}",
                launch.kernel
            )));
        }
        let mut stats = LaunchStats {
            threads: launch.grid.count() * launch.block.count(),
            ..LaunchStats::default()
        };
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
            full: Mask::first(lanes),
            alive: Mask::first(lanes),
            any_returned: false,
            fp_read: HashSet::new(),
            fp_write: HashSet::new(),
            track_footprint: self.track_footprint,
        };

        let mut run = || {
            let mut block_linear = 0u64;
            for bz in 0..launch.grid.z {
                for by in 0..launch.grid.y {
                    for bx in 0..launch.grid.x {
                        self.charge_steps(lanes as u64)?;
                        machine.reset_block(Dim3::new(bx, by, bz), block_linear, base);
                        let full = machine.full;
                        machine.exec_stmts(&ck.body, &full, true)?;
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

/// The most lanes a block may have: CUDA's 1024 threads per block, the
/// limit the host plan enforces too. Every lane mask has this capacity.
const MAX_LANES: usize = 1024;

/// A set of lanes of one block, one bit per lane: lane `t` is bit `t % 64`
/// of word `t / 64`. Bits at and above the block's lane count are clear.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Mask([u64; MAX_LANES / 64]);

impl Mask {
    const EMPTY: Mask = Mask([0; MAX_LANES / 64]);

    /// Lanes `0..n`.
    fn first(n: usize) -> Mask {
        let mut m = Mask::EMPTY;
        for (w, word) in m.0.iter_mut().enumerate() {
            *word = match n.saturating_sub(w * 64) {
                r if r >= 64 => u64::MAX,
                r => (1 << r) - 1,
            };
        }
        m
    }

    /// The lanes `t` of the block's `n` where `f(a[t], b[t])` holds.
    fn of(a: Lanes<'_>, b: Lanes<'_>, n: usize, f: impl Fn(i64, i64) -> bool) -> Mask {
        let mut m = Mask::EMPTY;
        for (w, word) in m.0.iter_mut().enumerate().take(n.div_ceil(64)) {
            let t0 = w * 64;
            let bit = |t: usize| (f(a.at(t), b.at(t)) as u64) << (t - t0);
            *word = (t0..n.min(t0 + 64)).fold(0, |bits, t| bits | bit(t));
        }
        m
    }

    fn any(&self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }

    fn set(&mut self, t: usize) {
        self.0[t / 64] |= 1 << (t % 64);
    }

    fn and(mut self, other: &Mask) -> Mask {
        for (w, &o) in self.0.iter_mut().zip(&other.0) {
            *w &= o;
        }
        self
    }

    fn and_not(mut self, other: &Mask) -> Mask {
        for (w, &o) in self.0.iter_mut().zip(&other.0) {
            *w &= !o;
        }
        self
    }

    /// The lanes in the set, in increasing order.
    fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.0,
            w: 0,
            bits: self.0[0],
        }
    }

    /// How many 32-lane warps have a lane in the set.
    fn warps(&self) -> u64 {
        let halves = |w: u64| (w as u32 != 0) as u64 + ((w >> 32) != 0) as u64;
        self.0.iter().map(|&w| halves(w)).sum()
    }
}

/// [`Mask::ones`]: word `w`'s bits not yet visited are `bits`.
struct Ones<'a> {
    words: &'a [u64],
    w: usize,
    bits: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.w += 1;
            self.bits = *self.words.get(self.w)?;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.w * 64 + b)
    }
}

/// One value per entry: a constant, or a column.
#[derive(Clone, Copy)]
enum Lanes<'a, T = i64> {
    Const(T),
    Col(&'a [T]),
}

impl<T: Copy> Lanes<'_, T> {
    #[inline]
    fn at(self, i: usize) -> T {
        match self {
            Lanes::Const(c) => c,
            Lanes::Col(col) => col[i],
        }
    }
}

/// `dst[i] = f(a[i])` for every entry of `dst`.
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

/// `dst[i] = f(a[i], b[i])` for every entry of `dst`; a constant operand is
/// never materialised as a column.
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

/// `x < y` as 1 or 0, from the sign of `x - y` corrected for overflow
/// (Hacker's Delight 2-12). It has no branch and no 64-bit signed compare,
/// which the baseline x86-64 target lacks in vector form, so a loop of
/// these can vectorise.
#[inline]
fn lt(x: i64, y: i64) -> i64 {
    let d = x.wrapping_sub(y);
    ((d ^ ((x ^ y) & (d ^ x))) >> 63) & 1
}

/// `dst[i] = col[lanes[i]]` for every entry of `dst`.
fn gather<T: Copy>(dst: &mut [T], col: &[T], lanes: &[usize]) {
    for (d, &t) in dst.iter_mut().zip(lanes) {
        *d = col[t];
    }
}

/// `dst[t] = f(v)` in each lane `t` of `active`, where `v` is `a`'s entry
/// for the lane: its `i`-th for the `i`-th lane of `active` when `a` is
/// `compact`ed over `active`'s lanes, its `t`-th when `a` spans the block.
/// A word of 64 active lanes is one contiguous loop.
fn scatter<T: Copy, U: Copy>(
    dst: &mut [U],
    a: Lanes<'_, T>,
    active: &Mask,
    compact: bool,
    f: impl Fn(T) -> U,
) {
    let mut i = 0;
    for (w, &word) in active.0.iter().enumerate() {
        let t0 = w * 64;
        let from = if compact { i } else { t0 };
        i += word.count_ones() as usize;
        match (word, a) {
            (0, _) => {}
            (u64::MAX, Lanes::Const(x)) => dst[t0..t0 + 64].fill(f(x)),
            (u64::MAX, Lanes::Col(col)) => {
                for (d, &x) in dst[t0..t0 + 64].iter_mut().zip(&col[from..from + 64]) {
                    *d = f(x);
                }
            }
            (mut bits, _) => {
                let mut from = from;
                while bits != 0 {
                    let t = t0 + bits.trailing_zeros() as usize;
                    dst[t] = f(a.at(if compact { from } else { t }));
                    from += 1;
                    bits &= bits - 1;
                }
            }
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

/// Where a node of a part left its value: a constant; a slot's or
/// `threadIdx`'s column, read in place when the part runs over every lane
/// of the block ([`Space::Block`]) and gathered once per part into a leaf
/// column otherwise ([`Space::Part`]); or the node's own register. A
/// node's value is never in a register other than its own, which the next
/// operand's evaluation may overwrite.
#[derive(Clone, Copy)]
enum Col {
    I(i64),
    ISlot(u16),
    Tid(Axis),
    /// Int leaf `id`: int slot `id`, or `threadIdx` axis `id - int_slots`.
    ILeaf(u16),
    ITmp(u16),
    F(f64),
    FSlot(u16),
    FLeaf(u16),
    FTmp(u16),
}

impl Col {
    fn is_float(self) -> bool {
        matches!(
            self,
            Col::F(_) | Col::FSlot(_) | Col::FLeaf(_) | Col::FTmp(_)
        )
    }
}

/// Which sides of an `if` some active lane takes, and whether some warp
/// splits.
#[derive(Default)]
struct Branch {
    divergent: bool,
    taken: bool,
    not_taken: bool,
}

/// A part's evaluation found a lane that would trap or report a hazard:
/// nothing was committed, and the statement runs per thread instead.
struct Fallback;

/// Read access to every column a [`Col`] names, with the part registers
/// visible from `base` up (the ones above the node being computed). A slot
/// column holds the block's `n` lanes; a register holds up to `n` entries,
/// one per lane of the selection it was computed over.
struct Files<'a> {
    n: usize,
    icols: &'a [i64],
    fcols: &'a [f64],
    tid: &'a [i64],
    ileaf: &'a [i64],
    fleaf: &'a [f64],
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
            Col::Tid(axis) => Lanes::Col(&self.tid[axis as usize * n..][..n]),
            Col::ILeaf(id) => Lanes::Col(&self.ileaf[id as usize * n..][..n]),
            Col::ITmp(r) => Lanes::Col(&self.itmp[(r as usize - self.base) * n..][..n]),
            _ => unreachable!("a float where the part is typed int"),
        }
    }

    fn float(&self, c: Col) -> Lanes<'a, f64> {
        let n = self.n;
        match c {
            Col::F(v) => Lanes::Const(v),
            Col::FSlot(s) => Lanes::Col(&self.fcols[s as usize * n..][..n]),
            Col::FLeaf(s) => Lanes::Col(&self.fleaf[s as usize * n..][..n]),
            Col::FTmp(r) => Lanes::Col(&self.ftmp[(r as usize - self.base) * n..][..n]),
            _ => unreachable!("an int operand reaches a float op unconverted"),
        }
    }

    /// `c != 0` in entry `i`, whatever `c`'s type.
    fn truthy(&self, c: Col) -> impl Fn(usize) -> bool + 'a {
        let (i, f) = if c.is_float() {
            (Lanes::Const(0), self.float(c))
        } else {
            (self.int(c), Lanes::Const(0.0))
        };
        move |t| i.at(t) != 0 || f.at(t) != 0.0
    }
}

/// The lanes a part's node runs over, in increasing order. Its registers
/// are compacted: entry `i` belongs to lane `lanes[i]`.
#[derive(Clone, Copy)]
struct Sel<'m> {
    lanes: &'m [usize],
    space: Space,
}

/// Where a [`Sel`]'s slot and `threadIdx` leaves are read from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Space {
    /// `lanes` is every lane of the block: entry `i` is lane `i`, and a
    /// column is read in place.
    Block,
    /// The lanes of a part that are not every lane: a column is gathered
    /// into its leaf column once per part, at the first leaf that reads it.
    Part,
    /// The lanes taking a ternary's arm: a column is gathered into the
    /// leaf's own register.
    Arm,
}

impl Sel<'_> {
    /// The entries of the selection's registers.
    fn k(self) -> usize {
        self.lanes.len()
    }
}

/// The flat offsets of a selection's `k` entries, in order, into `offs`
/// (`ix` has one index column per extent); `None` when some entry's index
/// is out of range. One pass per index column checks and accumulates; an
/// offset built from an index out of range is never used.
fn offsets(
    f: &Files<'_>,
    ix: &[Col],
    extents: &[usize],
    k: usize,
    offs: &mut Vec<usize>,
) -> Option<()> {
    offs.clear();
    offs.resize(k, 0);
    for (&c, &extent) in ix.iter().zip(extents) {
        // A negative index reads as a huge unsigned one.
        let out = |i: i64| i as u64 >= extent as u64;
        match f.int(c) {
            Lanes::Const(i) => {
                if out(i) {
                    return None;
                }
                offs.iter_mut().for_each(|o| *o = *o * extent + i as usize);
            }
            Lanes::Col(col) => {
                let mut any_out = false;
                for (o, &i) in offs.iter_mut().zip(&col[..k]) {
                    any_out |= out(i);
                    *o = o.wrapping_mul(extent).wrapping_add(i as usize);
                }
                if any_out {
                    return None;
                }
            }
        }
    }
    Some(())
}

/// `scratch` = each entry's `(offset, value)`: the right-hand side, or `op`
/// applied to it and the element `old` it replaces.
fn fill_scratch(
    scratch: &mut Vec<(usize, f64)>,
    offs: &[usize],
    rhs: Lanes<'_, f64>,
    op: AssignOp,
    old: impl Fn(usize) -> f64,
) {
    scratch.clear();
    scratch.extend(offs.iter().enumerate().map(|(i, &o)| {
        let v = match op {
            AssignOp::Assign => rhs.at(i),
            _ => apply_assign(op, old(o), rhs.at(i)),
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

/// Bits of a stamp that hold the warp; a block has at most 32 warps.
const WARP_BITS: u32 = 8;

/// A shared-memory log entry, one word per tile cell: the clock tick of
/// the last access above [`WARP_BITS`], its lane's warp below. `high` may
/// also be a cell index, which is how a part stages its reads.
fn stamp(high: u64, t: usize) -> u64 {
    high << WARP_BITS | (t / 32) as u64
}

/// Would lane `t` race with the access `last` logged? Only an access by
/// another warp since the barrier epoch began at tick `epoch` does. The
/// zero stamp is older than every epoch.
fn races(last: u64, epoch: u64, t: usize) -> bool {
    last >> WARP_BITS > epoch && last & ((1 << WARP_BITS) - 1) != (t / 32) as u64
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
    /// The leaf columns of the part being evaluated, gathered over its
    /// lanes: the int slots then the three `threadIdx` axes, and the float
    /// slots, `lanes` entries apart.
    ileaf: Vec<i64>,
    fleaf: Vec<f64>,
    /// Part registers, an int and a float column each (a node writes the
    /// one of its type), `lanes` entries apart.
    itmp: Vec<i64>,
    ftmp: Vec<f64>,
}

impl Columns {
    /// A read view with the part registers from `base` up.
    fn view(&self, n: usize, base: usize) -> Files<'_> {
        Files {
            n,
            icols: &self.icols,
            fcols: &self.fcols,
            tid: &self.tid,
            ileaf: &self.ileaf,
            fleaf: &self.fleaf,
            itmp: &self.itmp[base * n..],
            ftmp: &self.ftmp[base * n..],
            base,
        }
    }

    /// The int and float slot columns, and a read view of everything else
    /// (leaves, registers and `threadIdx`) to fill them from.
    fn split_slots(&mut self, n: usize) -> (&mut [i64], &mut [f64], Files<'_>) {
        let files = Files {
            n,
            icols: &[],
            fcols: &[],
            tid: &self.tid,
            ileaf: &self.ileaf,
            fleaf: &self.fleaf,
            itmp: &self.itmp,
            ftmp: &self.ftmp,
            base: 0,
        };
        (&mut self.icols, &mut self.fcols, files)
    }

    /// The first `k` entries of register `dst`'s int and float columns,
    /// and a read view of everything else its operands may live in.
    fn split(&mut self, n: usize, k: usize, dst: u16) -> (&mut [i64], &mut [f64], Files<'_>) {
        let base = dst as usize + 1;
        let (ilo, ihi) = self.itmp.split_at_mut(base * n);
        let (flo, fhi) = self.ftmp.split_at_mut(base * n);
        let files = Files {
            n,
            icols: &self.icols,
            fcols: &self.fcols,
            tid: &self.tid,
            ileaf: &self.ileaf,
            fleaf: &self.fleaf,
            itmp: ihi,
            ftmp: fhi,
            base,
        };
        (
            &mut ilo[(base - 1) * n..][..k],
            &mut flo[(base - 1) * n..][..k],
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
    /// Every lane's index: the selection a pure part runs over.
    all: Vec<usize>,
    /// Where each shared tile starts in `smem` and the logs, and (last)
    /// where the tiles end.
    tile_base: Vec<usize>,
    /// Every tile's cells, one tile after the other.
    smem: Vec<f64>,
    /// Last writer / last reader of every tile cell ([`stamp`]).
    shared_writes: Vec<u64>,
    shared_reads: Vec<u64>,
    /// The tick the barrier epoch began at. The clock is monotonic over
    /// the interpreter's life, so the logs above are never cleared.
    epoch: u64,
    /// The tick the part being evaluated stamps its shared accesses with.
    now: u64,
    /// Per bound array, `1 + block_linear` of the last block that wrote
    /// each element this launch (0 = none); empty until the first write.
    writers: Vec<Vec<u64>>,
    /// Two-phase store scratch: (offset, value).
    scratch: Vec<(usize, f64)>,
    /// A part's offsets of one access, in lane order.
    offs: Vec<usize>,
    /// A part's shared reads, each its cell (`tile_base` included) and the
    /// reader's warp packed as [`stamp`] packs a tick: the read log takes
    /// them when the part commits.
    reads: Vec<u64>,
    /// Free list of lane selections.
    sels: Vec<Vec<usize>>,
    /// Per leaf column (the int ones, then the float ones), the tick of
    /// the part it was gathered for.
    leaf_at: Vec<u64>,
    /// One truth mask per guard conjunct of the launch's kernel, and the
    /// tick of the clock each was computed at (module docs: memoized
    /// guards).
    memo: Vec<Mask>,
    memo_at: Vec<u64>,
    /// Per int slot, the tick of its last write.
    written: Vec<u64>,
    /// Monotonic over the interpreter's life.
    clock: u64,
    /// The tick the executing block started at.
    block_start: u64,
}

impl Pools {
    fn prepare_launch(&mut self, ck: &CompiledKernel, block: Dim3, arrays: usize) {
        let lanes = block.count() as usize;
        let c = &mut self.col;
        c.icols.resize(ck.int_slots * lanes, 0);
        c.fcols.resize(ck.float_slots * lanes, 0.0);
        c.ileaf.resize((ck.int_slots + 3) * lanes, 0);
        c.fleaf.resize(ck.float_slots * lanes, 0.0);
        c.itmp.resize(ck.part_regs * lanes, 0);
        c.ftmp.resize(ck.part_regs * lanes, 0.0);
        // Stale until gathered: every tick so far precedes the first part.
        self.leaf_at.resize(ck.int_slots + 3 + ck.float_slots, 0);
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
        self.all.clear();
        self.all.extend(0..lanes);
        self.tile_base.clear();
        let mut cells = 0;
        for (_, len) in &ck.tiles {
            self.tile_base.push(cells);
            cells += len;
        }
        self.tile_base.push(cells);
        self.smem.resize(cells, 0.0);
        // A previous launch's stamps are all older than this launch's
        // first epoch.
        self.shared_writes.resize(cells, 0);
        self.shared_reads.resize(cells, 0);
        self.writers.resize_with(arrays, Vec::new);
        for w in &mut self.writers {
            w.clear();
        }
        // Stale until computed: every tick so far precedes the first
        // block's start.
        self.memo.resize(ck.conjuncts.len(), Mask::EMPTY);
        self.memo_at.resize(ck.conjuncts.len(), 0);
        // A kernel without conjuncts keeps no write stamps.
        let stamped = if ck.conjuncts.is_empty() {
            0
        } else {
            ck.int_slots
        };
        self.written.resize(stamped, 0);
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Int slot `slot` was written: every truth mask computed from it is
    /// stale.
    fn wrote(&mut self, slot: u16) {
        if (slot as usize) < self.written.len() {
            self.written[slot as usize] = self.tick();
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
    /// Every lane of the block, and those that have not returned.
    full: Mask,
    alive: Mask,
    /// Some thread of this block has executed `return`.
    any_returned: bool,
    fp_read: HashSet<(u16, usize)>,
    fp_write: HashSet<(u16, usize)>,
    track_footprint: bool,
}

impl Machine<'_> {
    fn reset_block(&mut self, block_idx: Dim3, block_linear: u64, base: &BaseSlots) {
        self.geom.block_idx = block_idx;
        self.block_linear = block_linear;
        self.alive = self.full;
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
        self.p.smem.fill(0.0);
        self.p.epoch = self.p.tick();
        self.p.block_start = self.p.epoch;
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
            (SlotRef::Int(c), Value::I(i)) => {
                self.p.col.icols[c as usize * self.lanes + t] = i;
                self.p.wrote(c);
            }
            (SlotRef::Float(c), Value::F(f)) => self.p.col.fcols[c as usize * self.lanes + t] = f,
            (SlotRef::Int(_) | SlotRef::Float(_), _) => unreachable!("{s:?} assigned {v:?}"),
            (SlotRef::Val(s), v) => self.p.vals[t * self.nvals + s as usize] = v,
        }
    }

    /// Evaluate the pure `e` into register `dst` over every lane of the
    /// block, masked or not: nothing in it can trap or be observed, and an
    /// unset slot reads as 0.
    fn pure(&mut self, e: &CExpr, dst: u16) -> Col {
        let all = std::mem::take(&mut self.p.all);
        let sel = Sel {
            lanes: &all,
            space: Space::Block,
        };
        let v = self.col(e, dst, sel);
        self.p.all = all;
        v.unwrap_or_else(|Fallback| unreachable!("a pure part never falls back"))
    }

    /// The lanes of the block where the pure `e` is not 0. A comparison at
    /// its root packs its operands straight into the mask.
    fn pure_mask(&mut self, e: &CExpr) -> Mask {
        use BinaryOp::*;
        let n = self.lanes;
        if let CExpr::Bin {
            op: op @ (Lt | Le | Gt | Ge | Eq | Ne),
            l,
            r,
        } = e
        {
            let (a, b) = (self.pure(l, 1), self.pure(r, 2));
            let f = self.p.col.view(n, 1);
            let (a, b) = (f.int(a), f.int(b));
            return match op {
                Lt => Mask::of(a, b, n, |x, y| x < y),
                Le => Mask::of(a, b, n, |x, y| x <= y),
                Gt => Mask::of(a, b, n, |x, y| x > y),
                Ge => Mask::of(a, b, n, |x, y| x >= y),
                Eq => Mask::of(a, b, n, |x, y| x == y),
                _ => Mask::of(a, b, n, |x, y| x != y),
            };
        }
        let v = self.pure(e, 0);
        let v = self.p.col.view(n, 0).int(v);
        Mask::of(v, Lanes::Const(0), n, |x, _| x != 0)
    }

    /// The value of the part `e` at register 0, when `part` lets it run
    /// column-wise and it does not fall back. A `Pure` part's value spans
    /// the block; a `Typed` part's is compacted over `active`'s lanes.
    fn value(&mut self, e: &CExpr, part: Part, active: &Mask) -> Option<Col> {
        match part {
            Part::Pure => Some(self.pure(e, 0)),
            Part::Typed => self.part(active, |m, sel| m.col(e, 0, sel)).ok(),
            Part::PerThread => None,
        }
    }

    /// The lanes of `among` where `cond` holds, per thread in thread order
    /// when the condition cannot run column-wise.
    fn truth(&mut self, cond: &CExpr, part: Part, among: &Mask) -> Result<Mask, ExecError> {
        if part == Part::Pure {
            return Ok(self.pure_mask(cond).and(among));
        }
        let mut out = Mask::EMPTY;
        if let Some(c) = self.value(cond, part, among) {
            let truthy = self.p.col.view(self.lanes, 0).truthy(c);
            for (i, t) in among.ones().enumerate() {
                if truthy(i) {
                    out.set(t);
                }
            }
            return Ok(out);
        }
        for t in among.ones() {
            if self.eval(cond, t)?.truthy() {
                out.set(t);
            }
        }
        Ok(out)
    }

    /// The lanes of `among` where every conjunct `ids` names holds. A
    /// conjunct's truth mask is recomputed, over every lane, only when it
    /// is stale: computed before the block started or before a slot it
    /// reads was last written.
    fn guard(&mut self, ids: &[u32], among: &Mask) -> Mask {
        let ck = self.ck;
        let mut out = *among;
        for &id in ids {
            let (conj, id) = (&ck.conjuncts[id as usize], id as usize);
            let at = self.p.memo_at[id];
            let fresh = at > self.p.block_start
                && conj.reads.iter().all(|&s| self.p.written[s as usize] < at);
            if !fresh {
                self.p.memo[id] = self.pure_mask(&conj.expr);
                self.p.memo_at[id] = self.p.tick();
            }
            out = out.and(&self.p.memo[id]);
        }
        out
    }

    /// `slot = e` coerced to `ty`, in the active lanes.
    fn assign(
        &mut self,
        slot: SlotRef,
        ty: ScalarType,
        e: &CExpr,
        part: Part,
        active: &Mask,
    ) -> Result<(), ExecError> {
        if let Some(v) = self.value(e, part, active) {
            self.assign_col(slot, v, active, part == Part::Typed);
            return Ok(());
        }
        for t in active.ones() {
            let v = coerce(self.eval(e, t)?, ty);
            self.set_slot(t, slot, v);
        }
        Ok(())
    }

    /// Write a part's value `v` (of the node at register 0, `compact`ed
    /// over `active`'s lanes or spanning the block) to the int or float
    /// column `slot` in the active lanes, coerced to its type.
    fn assign_col(&mut self, slot: SlotRef, v: Col, active: &Mask, compact: bool) {
        let n = self.lanes;
        // A slot column may be the very one assigned: read it from
        // register 0 instead.
        let v = match v {
            Col::ISlot(_) | Col::FSlot(_) => self.copy_to(v, 0),
            _ => v,
        };
        let (icols, fcols, files) = self.p.col.split_slots(n);
        let (int, float) = match v.is_float() {
            true => (Lanes::Const(0), Some(files.float(v))),
            false => (files.int(v), None),
        };
        match (slot, float) {
            (SlotRef::Int(c), None) => {
                scatter(
                    &mut icols[c as usize * n..][..n],
                    int,
                    active,
                    compact,
                    |x| x,
                );
                self.p.wrote(c);
            }
            (SlotRef::Int(c), Some(f)) => {
                let col = &mut icols[c as usize * n..][..n];
                scatter(col, f, active, compact, |x| x as i64);
                self.p.wrote(c);
            }
            (SlotRef::Float(c), None) => {
                let col = &mut fcols[c as usize * n..][..n];
                scatter(col, int, active, compact, |x| x as f64)
            }
            (SlotRef::Float(c), Some(f)) => {
                scatter(&mut fcols[c as usize * n..][..n], f, active, compact, |x| x)
            }
            (SlotRef::Val(_), _) => unreachable!("a value slot is assigned per thread"),
        }
    }

    /// Materialise `v`, a column spanning the block, into register `r` (of
    /// its type), so it no longer names a slot column.
    fn copy_to(&mut self, v: Col, r: u16) -> Col {
        let n = self.lanes;
        let (di, df, files) = self.p.col.split(n, n, r);
        if v.is_float() {
            map1(df, files.float(v), |x| x);
            Col::FTmp(r)
        } else {
            map1(di, files.int(v), |x| x);
            Col::ITmp(r)
        }
    }

    /// `v`, the value of the node at register `r` over `k` entries, as a
    /// float operand: an int is converted into `r`'s float column.
    fn as_float(&mut self, v: Col, r: u16, k: usize) -> Col {
        match v {
            _ if v.is_float() => v,
            Col::I(c) => Col::F(c as f64),
            _ => {
                let (di, df, files) = self.p.col.split(self.lanes, k, r);
                let ints = match v {
                    Col::ITmp(_) => Lanes::Col(&*di),
                    _ => files.int(v),
                };
                map1(df, ints, |x| x as f64);
                Col::FTmp(r)
            }
        }
    }

    /// A slot or `threadIdx` column `c` as the leaf at register `dst` of a
    /// part over `sel`, read where `sel`'s [`Space`] says.
    fn leaf(&mut self, c: Col, dst: u16, sel: Sel<'_>) -> Col {
        let (n, k, ints) = (self.lanes, sel.k(), self.ck.int_slots);
        match sel.space {
            Space::Block => c,
            Space::Part => {
                // Leaf columns and their stamps: the int slots, the three
                // `threadIdx` axes, then the float slots.
                let (leaf, id) = match c {
                    Col::ISlot(s) => (Col::ILeaf(s), s as usize),
                    Col::Tid(axis) => {
                        let id = ints + axis as usize;
                        (Col::ILeaf(id as u16), id)
                    }
                    Col::FSlot(s) => (Col::FLeaf(s), ints + 3 + s as usize),
                    _ => unreachable!("a leaf is a slot or `threadIdx`"),
                };
                if self.p.leaf_at[id] != self.p.now {
                    self.p.leaf_at[id] = self.p.now;
                    let Columns {
                        icols,
                        fcols,
                        tid,
                        ileaf,
                        fleaf,
                        ..
                    } = &mut self.p.col;
                    let (src, lanes) = (|i: u16| i as usize * n, sel.lanes);
                    match (c, leaf) {
                        (Col::ISlot(s), Col::ILeaf(l)) => {
                            gather(&mut ileaf[src(l)..][..k], &icols[src(s)..], lanes)
                        }
                        (Col::Tid(axis), Col::ILeaf(l)) => {
                            gather(&mut ileaf[src(l)..][..k], &tid[src(axis as u16)..], lanes)
                        }
                        (_, Col::FLeaf(s)) => {
                            gather(&mut fleaf[src(s)..][..k], &fcols[src(s)..], lanes)
                        }
                        _ => unreachable!("the leaf of a column"),
                    }
                }
                leaf
            }
            Space::Arm => {
                let (di, df, f) = self.p.col.split(n, k, dst);
                if c.is_float() {
                    if let Lanes::Col(col) = f.float(c) {
                        gather(df, col, sel.lanes);
                    }
                    Col::FTmp(dst)
                } else {
                    if let Lanes::Col(col) = f.int(c) {
                        gather(di, col, sel.lanes);
                    }
                    Col::ITmp(dst)
                }
            }
        }
    }

    /// Evaluate a statically typed part with `f` over `active`'s lanes. On
    /// success its pending counters and shared reads are committed; on a
    /// fallback nothing is, and the caller runs the statement per thread.
    fn part<R>(
        &mut self,
        active: &Mask,
        f: impl FnOnce(&mut Self, Sel<'_>) -> Result<R, Fallback>,
    ) -> Result<R, Fallback> {
        let full = *active == self.full;
        let (idx, space) = if full {
            (std::mem::take(&mut self.p.all), Space::Block)
        } else {
            let mut idx = self.p.sels.pop().unwrap_or_default();
            idx.clear();
            idx.extend(active.ones());
            (idx, Space::Part)
        };
        self.pending = Pending::default();
        self.p.reads.clear();
        self.p.now = self.p.tick();
        let done = match idx.is_empty() {
            true => Err(Fallback),
            false => f(self, Sel { lanes: &idx, space }),
        };
        if full {
            self.p.all = idx;
        } else {
            self.p.sels.push(idx);
        }
        let r = done?;
        let Pending {
            flops,
            global_reads,
            shared_reads,
        } = std::mem::take(&mut self.pending);
        self.stats.flops += flops;
        self.stats.global_reads += global_reads;
        self.stats.shared_reads += shared_reads;
        // Each cell's last reader in thread order is the part's reader of
        // the highest warp, and every stamp already logged is older than
        // the part's tick: the larger stamp wins.
        let (log, mask) = (&mut self.p.shared_reads, (1 << WARP_BITS) - 1);
        let now = self.p.now << WARP_BITS;
        for &read in &self.p.reads {
            let cell = &mut log[(read >> WARP_BITS) as usize];
            *cell = (*cell).max(now | read & mask);
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
        let (n, k) = (self.lanes, sel.k());
        let lanes = k as u64;
        Ok(match e {
            CExpr::I(v) => Col::I(*v),
            CExpr::F(v) => Col::F(*v),
            CExpr::ISlot(s) => self.leaf(Col::ISlot(*s), dst, sel),
            CExpr::FSlot(s) => self.leaf(Col::FSlot(*s), dst, sel),
            CExpr::Builtin(Builtin::ThreadIdx(axis)) => self.leaf(Col::Tid(*axis), dst, sel),
            // Every other builtin is uniform over the block.
            CExpr::Builtin(b) => Col::I(self.geom.builtin(*b, &[]).at(0)),
            CExpr::Slot(_) => unreachable!("a value slot is never statically typed"),
            CExpr::Global { array, idx } => self.load_global(*array, idx, dst, sel)?,
            CExpr::Shared { tile, idx } => self.load_shared(*tile, idx, dst, sel)?,
            CExpr::Un { op, e } => {
                let a = self.col(e, dst + 1, sel)?;
                if *op == UnaryOp::Neg {
                    self.pending.flops += lanes;
                }
                let (di, df, f) = self.p.col.split(n, k, dst);
                match (op, a.is_float()) {
                    (UnaryOp::Neg, false) => map1(di, f.int(a), i64::wrapping_neg),
                    (UnaryOp::Neg, true) => {
                        map1(df, f.float(a), |x| -x);
                        return Ok(Col::FTmp(dst));
                    }
                    (UnaryOp::Not, false) => map1(di, f.int(a), |x| (x == 0) as i64),
                    (UnaryOp::Not, true) => map1(di, f.float(a), |x| (x == 0.0) as i64),
                }
                Col::ITmp(dst)
            }
            CExpr::Bin { op, l, r } => {
                let a = self.col(l, dst + 1, sel)?;
                let b = self.col(r, dst + 2, sel)?;
                if !a.is_float() && !b.is_float() {
                    let (d, _, f) = self.p.col.split(n, k, dst);
                    let (a, b) = (f.int(a), f.int(b));
                    match op {
                        Add => map2(d, a, b, i64::wrapping_add),
                        Sub => map2(d, a, b, i64::wrapping_sub),
                        Mul => map2(d, a, b, i64::wrapping_mul),
                        Lt => map2(d, a, b, lt),
                        Le => map2(d, a, b, |x, y| 1 - lt(y, x)),
                        Gt => map2(d, a, b, |x, y| lt(y, x)),
                        Ge => map2(d, a, b, |x, y| 1 - lt(x, y)),
                        Eq => map2(d, a, b, |x, y| (x == y) as i64),
                        Ne => map2(d, a, b, |x, y| (x != y) as i64),
                        And => map2(d, a, b, |x, y| (x != 0 && y != 0) as i64),
                        Or => map2(d, a, b, |x, y| (x != 0 || y != 0) as i64),
                        // Only the selected lanes divide: a zero divisor (or
                        // an overflowing quotient) is the per-thread
                        // evaluator's to report.
                        Div | Rem => {
                            let divide = if *op == Div {
                                i64::checked_div
                            } else {
                                i64::checked_rem
                            };
                            for (i, d) in d.iter_mut().enumerate() {
                                *d = divide(a.at(i), b.at(i)).ok_or(Fallback)?;
                            }
                        }
                    }
                    return Ok(Col::ITmp(dst));
                }
                let a = self.as_float(a, dst + 1, k);
                let b = self.as_float(b, dst + 2, k);
                if op.is_arithmetic() {
                    self.pending.flops += lanes;
                }
                let (di, df, f) = self.p.col.split(n, k, dst);
                let (a, b) = (f.float(a), f.float(b));
                match op {
                    Add => map2(df, a, b, |x, y| nan_first(x, y, |x, y| x + y)),
                    Sub => map2(df, a, b, |x, y| x - y),
                    Mul => map2(df, a, b, |x, y| nan_first(x, y, |x, y| x * y)),
                    Div => map2(df, a, b, |x, y| x / y),
                    Rem => map2(df, a, b, |x, y| x % y),
                    Lt => map2(di, a, b, |x, y| (x < y) as i64),
                    Le => map2(di, a, b, |x, y| (x <= y) as i64),
                    Gt => map2(di, a, b, |x, y| (x > y) as i64),
                    Ge => map2(di, a, b, |x, y| (x >= y) as i64),
                    Eq => map2(di, a, b, |x, y| (x == y) as i64),
                    Ne => map2(di, a, b, |x, y| (x != y) as i64),
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
                    a[j] = self.as_float(v, r, k);
                }
                self.pending.flops += lanes * fun.flop_cost();
                let (_, d, f) = self.p.col.split(n, k, dst);
                let [x, y, z] = a.map(|c| f.float(c));
                match fun {
                    Intrinsic::Sqrt => map1(d, x, f64::sqrt),
                    Intrinsic::Exp => map1(d, x, f64::exp),
                    Intrinsic::Log => map1(d, x, f64::ln),
                    Intrinsic::Fabs => map1(d, x, f64::abs),
                    Intrinsic::Min => map2(d, x, y, f64::min),
                    Intrinsic::Max => map2(d, x, y, f64::max),
                    Intrinsic::Pow => map2(d, x, y, f64::powf),
                    Intrinsic::Fma => {
                        for (i, d) in d.iter_mut().enumerate() {
                            *d = x.at(i).mul_add(y.at(i), z.at(i));
                        }
                    }
                    Intrinsic::Sin => map1(d, x, f64::sin),
                    Intrinsic::Cos => map1(d, x, f64::cos),
                }
                Col::FTmp(dst)
            }
            CExpr::Ternary { c, t, e } => {
                let cond = self.col(c, dst + 1, sel)?;
                // The entries taking each arm.
                let mut taken = self.p.sels.pop().unwrap_or_default();
                let mut not_taken = self.p.sels.pop().unwrap_or_default();
                taken.clear();
                not_taken.clear();
                {
                    let truthy = self.p.col.view(n, dst as usize + 1).truthy(cond);
                    for i in 0..k {
                        if truthy(i) {
                            taken.push(i);
                        } else {
                            not_taken.push(i);
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

    /// A ternary's arms, each evaluated over the entries of `sel` that take
    /// it (an arm no lane takes is not evaluated at all; a literal needs no
    /// lanes), selected into register `dst`. An arm every entry takes is
    /// evaluated at `dst` itself: the condition's value is no longer
    /// needed.
    fn arms(
        &mut self,
        t: &CExpr,
        e: &CExpr,
        dst: u16,
        sel: Sel<'_>,
        taken: &[usize],
        not_taken: &[usize],
    ) -> Result<Col, Fallback> {
        if not_taken.is_empty() {
            return self.col(t, dst, sel);
        }
        if taken.is_empty() {
            return self.col(e, dst, sel);
        }
        let arm = |m: &mut Self, x: &CExpr, r: u16, entries: &[usize]| {
            if let CExpr::I(_) | CExpr::F(_) = x {
                return m.col(x, r, sel);
            }
            let mut lanes = m.p.sels.pop().unwrap_or_default();
            lanes.clear();
            lanes.extend(entries.iter().map(|&i| sel.lanes[i]));
            let sel = Sel {
                lanes: &lanes,
                space: Space::Arm,
            };
            let v = m.col(x, r, sel);
            m.p.sels.push(lanes);
            v
        };
        let tv = arm(self, t, dst + 2, taken)?;
        let ev = arm(self, e, dst + 3, not_taken)?;
        let (di, df, f) = self.p.col.split(self.lanes, sel.k(), dst);
        fn merge<T: Copy>(d: &mut [T], v: Lanes<'_, T>, entries: &[usize]) {
            for (j, &i) in entries.iter().enumerate() {
                d[i] = v.at(j);
            }
        }
        if tv.is_float() {
            merge(df, f.float(tv), taken);
            merge(df, f.float(ev), not_taken);
            Ok(Col::FTmp(dst))
        } else {
            merge(di, f.int(tv), taken);
            merge(di, f.int(ev), not_taken);
            Ok(Col::ITmp(dst))
        }
    }

    /// Evaluate an access's index columns at registers `first ..`.
    fn indices(&mut self, idx: &[CExpr], first: u16, sel: Sel<'_>) -> Result<[Col; 4], Fallback> {
        let mut ix = [Col::F(0.0); 4];
        for (j, i) in idx.iter().enumerate() {
            ix[j] = self.col(i, first + j as u16, sel)?;
        }
        Ok(ix)
    }

    /// Flatten `sel`'s entries into `p.offs` from index columns `ix`
    /// evaluated at registers `first ..`; an index out of range in some
    /// lane is a fallback.
    fn flatten(
        &mut self,
        ix: &[Col],
        first: u16,
        extents: &[usize],
        sel: Sel<'_>,
    ) -> Result<(), Fallback> {
        let f = self.p.col.view(self.lanes, first as usize);
        offsets(&f, ix, extents, sel.k(), &mut self.p.offs).ok_or(Fallback)
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
        if !self.hazard_room() {
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
        let (_, d, _) = self.p.col.split(self.lanes, sel.k(), dst);
        let data = &self.arrays[array as usize].1.data;
        for (d, &o) in d.iter_mut().zip(&self.p.offs) {
            *d = data[o];
        }
        if self.track_footprint {
            self.fp_read.extend(self.p.offs.iter().map(|&o| (array, o)));
        }
        self.pending.global_reads += sel.k() as u64;
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
        let (epoch, base) = (self.p.epoch, self.p.tile_base[tile as usize]);
        let lanes = || sel.lanes.iter().copied().zip(&self.p.offs);
        let writes = &self.p.shared_writes[base..];
        if self.hazard_room() && lanes().any(|(t, &o)| races(writes[o], epoch, t)) {
            return Err(Fallback);
        }
        let reads = lanes().map(|(t, &o)| stamp((base + o) as u64, t));
        self.p.reads.extend(reads);
        let (_, d, _) = self.p.col.split(self.lanes, sel.k(), dst);
        let data = &self.p.smem[base..];
        for (d, &o) in d.iter_mut().zip(&self.p.offs) {
            *d = data[o];
        }
        self.pending.shared_reads += sel.k() as u64;
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
        Ok((ix, self.as_float(rhs, rank, sel.k())))
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
            self.pending.global_reads += sel.k() as u64;
        }
        let rhs = self.p.col.view(self.lanes, 0).float(rhs);
        let data = &self.arrays[array as usize].1.data;
        fill_scratch(&mut self.p.scratch, &self.p.offs, rhs, op, |o| data[o]);
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
        let (epoch, now, room) = (self.p.epoch, self.p.now, self.hazard_room());
        let base = self.p.tile_base[t];
        let lanes = || sel.lanes.iter().copied().zip(&self.p.offs);
        if op != AssignOp::Assign {
            self.pending.shared_reads += sel.k() as u64;
            // Each lane reads its own target cell: a read-after-write
            // against the writes before the part.
            let writes = &self.p.shared_writes[base..];
            if room && lanes().any(|(l, &o)| races(writes[o], epoch, l)) {
                return Err(Fallback);
            }
            let reads = lanes().map(|(l, &o)| stamp((base + o) as u64, l));
            self.p.reads.extend(reads);
        } else if room {
            // Write-after-read: nothing in the part reads this tile, so a
            // cell's last reader is the one before the part. (With `op=`
            // the lane's own read is the last one and never races.)
            let last_reads = &self.p.shared_reads[base..];
            if lanes().any(|(l, &o)| races(last_reads[o], epoch, l)) {
                return Err(Fallback);
            }
        }
        let Pools {
            col,
            smem,
            shared_writes,
            offs,
            scratch,
            ..
        } = &mut self.p;
        let rhs = col.view(self.lanes, 0).float(rhs);
        let data = &smem[base..];
        fill_scratch(scratch, offs, rhs, op, |o| data[o]);
        // Write-write races, in lane order against the log as each lane
        // leaves it. A racing lane falls back without undoing the stamps
        // before it: each is its cell's writers' one warp (a second warp
        // would have raced), and the rerun writes that warp again, in this
        // epoch, before any later lane looks.
        let log = &mut shared_writes[base..];
        for (&l, &o) in sel.lanes.iter().zip(offs.iter()) {
            if room && races(log[o], epoch, l) {
                return Err(Fallback);
            }
            log[o] = stamp(now, l);
        }
        Ok(())
    }

    fn count_warp_issue(&mut self, mask: &Mask) {
        self.stats.warp_instructions += mask.warps();
    }

    /// The per-warp branch counters of an `if` or a loop test over
    /// `active`, whose `taken` lanes are active ones, and which sides some
    /// lane takes.
    fn branch(&mut self, active: &Mask, taken: &Mask) -> Branch {
        let mut out = Branch::default();
        for (&a, &th) in active.0.iter().zip(&taken.0) {
            let not = a & !th;
            for half in [0, 32] {
                let (t, e) = ((th >> half) as u32, (not >> half) as u32);
                if t | e != 0 {
                    self.stats.branch_evals += 1;
                    if t != 0 && e != 0 {
                        self.stats.divergent_evals += 1;
                        out.divergent = true;
                    }
                }
            }
            out.taken |= th != 0;
            out.not_taken |= not != 0;
        }
        out
    }

    fn flush_footprint(&mut self) {
        self.stats.footprint_read_elems += self.fp_read.len() as u64;
        self.stats.footprint_write_elems += self.fp_write.len() as u64;
        self.fp_read.clear();
        self.fp_write.clear();
    }

    fn exec_stmts(&mut self, stmts: &[CStmt], mask: &Mask, uniform: bool) -> Result<(), ExecError> {
        for s in stmts {
            // Combine the control mask with liveness (identical until some
            // thread returns).
            if self.any_returned {
                let active = mask.and(&self.alive);
                self.exec_stmt(s, &active, uniform)?;
            } else {
                self.exec_stmt(s, mask, uniform)?;
            }
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &CStmt, active: &Mask, uniform: bool) -> Result<(), ExecError> {
        if !active.any() {
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
                conjuncts,
                then_body,
                else_body,
            } => {
                self.count_warp_issue(active);
                let then_mask = if conjuncts.is_empty() {
                    self.truth(cond, *part, active)?
                } else {
                    self.guard(conjuncts, active)
                };
                let split = self.branch(active, &then_mask);
                let sub_uniform = uniform && !split.divergent;
                if split.taken {
                    self.exec_stmts(then_body, &then_mask, sub_uniform)?;
                }
                if split.not_taken && !else_body.is_empty() {
                    let else_mask = active.and_not(&then_mask);
                    self.exec_stmts(else_body, &else_mask, sub_uniform)?;
                }
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
                // Lanes still looping.
                let mut live = *active;
                loop {
                    let iter_mask = self.truth(cond, *cond_part, &live)?;
                    let split = self.branch(active, &iter_mask);
                    if !split.taken {
                        break;
                    }
                    self.exec_stmts(body, &iter_mask, uniform && !split.divergent)?;
                    live = iter_mask;
                    if self.any_returned {
                        live = live.and(&self.alive);
                    }
                    self.step(*slot, step, *step_part, &live)?;
                }
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
                self.p.epoch = self.p.tick();
            }
            CStmt::Return => {
                self.alive = self.alive.and_not(active);
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
        ran: &Mask,
    ) -> Result<(), ExecError> {
        let n = self.lanes;
        if let (SlotRef::Int(c), Some(by)) = (slot, self.value(step, part, ran)) {
            // Read the step from register 0 when it is a slot column: it
            // may be the loop variable's.
            let by = match by {
                Col::ISlot(_) => self.copy_to(by, 0),
                _ => by,
            };
            let (icols, _, files) = self.p.col.split_slots(n);
            let by = files.int(by);
            let var = &mut icols[c as usize * n..][..n];
            let compact = part == Part::Typed;
            for (i, t) in ran.ones().enumerate() {
                var[t] = var[t].wrapping_add(by.at(if compact { i } else { t }));
            }
            self.p.wrote(c);
            return Ok(());
        }
        for t in ran.ones() {
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
        active: &Mask,
    ) -> Result<(), ExecError> {
        let mut scratch = std::mem::take(&mut self.p.scratch);
        scratch.clear();
        for t in active.ones() {
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
        let writers = &mut self.p.writers[array as usize];
        writers.resize(data.len(), 0);
        for &(off, _) in scratch {
            writers[off] = self.block_linear + 1;
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
        active: &Mask,
    ) -> Result<(), ExecError> {
        let mut scratch = std::mem::take(&mut self.p.scratch);
        scratch.clear();
        let base = self.p.tile_base[tile as usize];
        for t in active.ones() {
            let rhs = self.eval(e, t)?;
            let off = self.shared_offset(tile, idx, t)?;
            let v = if op == AssignOp::Assign {
                rhs.as_f64()
            } else {
                self.stats.shared_reads += 1;
                self.note_shared_read(tile, off, t);
                apply_assign(op, self.p.smem[base + off], rhs.as_f64())
            };
            // Same-epoch write from a different warp → race.
            let (here, epoch) = (stamp(self.p.tick(), t), self.p.epoch);
            let last_write = &mut self.p.shared_writes[base + off];
            if races(*last_write, epoch, t) {
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
            if races(self.p.shared_reads[base + off], epoch, t) {
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
        let data = &mut self.p.smem[self.p.tile_base[tile as usize]..];
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
        let cell = self.p.tile_base[tile as usize] + off;
        if races(self.p.shared_writes[cell], self.p.epoch, t) {
            self.stats.add_hazard(format!(
                "shared read-after-write without barrier on tile {tile}[{off}] in `{}`",
                self.kernel_name
            ));
        }
        self.p.shared_reads[cell] = stamp(self.p.tick(), t);
    }

    fn note_global_read(&mut self, array: u16, off: usize) {
        self.stats.global_reads += 1;
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
                Value::F(self.p.smem[self.p.tile_base[*tile as usize] + off])
            }
            CExpr::Un { op, e } => {
                let v = self.eval(e, t)?;
                match op {
                    UnaryOp::Neg => {
                        self.stats.flops += 1;
                        match v {
                            Value::I(i) => Value::I(i.wrapping_neg()),
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
                    let q = x.checked_div(y);
                    Value::I(q.ok_or_else(|| ExecError::trap("integer division overflow"))?)
                }
                Rem => {
                    if y == 0 {
                        return Err(ExecError::trap("integer remainder by zero"));
                    }
                    let r = x.checked_rem(y);
                    Value::I(r.ok_or_else(|| ExecError::trap("integer remainder overflow"))?)
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
        let stats = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
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
        let stats = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
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
        let stats = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
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
        let stats = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
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
        let stats = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
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
        let stats = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
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
        let stats = Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
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
        let interp = Interpreter::new(&p);
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

    /// `MIN / -1` and `MIN % -1` trap like a zero divisor: in a typed part,
    /// whose columns leave the overflowing lane to the per-thread
    /// evaluator, and in a per-thread part. Negation wraps in both, as the
    /// typed `+`, `-` and `*` do.
    #[test]
    fn integer_division_overflow_traps() {
        const MIN: &str = "  int m = -9223372036854775807 - 1;\n  int d = -1;\n";
        let typed = |stmt: &str| kernel_on_a(&format!("{MIN}  a[i] = 1.0 + {stmt};"));
        // `m` declared with two types lives in a per-thread value slot.
        let per_thread = |stmt: &str| {
            kernel_on_a(&format!(
                "{MIN}  {stmt}\n  a[i] = 1.0 * m;\n  double m = 0.5;"
            ))
        };
        for (src, trap) in [
            (typed("m / d"), "integer division overflow"),
            (typed("m % d"), "integer remainder overflow"),
            (per_thread("m = m / d;"), "integer division overflow"),
            (per_thread("m = m % d;"), "integer remainder overflow"),
        ] {
            let err = run(&src).unwrap_err();
            assert_eq!(
                (err.0.as_str(), err.1),
                (trap, ExecErrorKind::Trap),
                "{src}"
            );
        }
        for src in [typed("-m"), per_thread("m = -m;")] {
            let (mem, _) = run(&src).unwrap();
            assert_eq!(mem.get("a").unwrap().data[0], i64::MIN as f64, "{src}");
        }
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

    /// A write-write race between lanes 60–63 (warp 1, the first mask word)
    /// and 64–67 (warp 2, the second) of a 512-lane block: the typed store
    /// falls back, and the per-thread rerun reports each cell at its second
    /// writer, in thread order.
    #[test]
    fn a_race_across_a_mask_word_boundary_reports_in_thread_order() {
        let src = "__global__ void k(const double* __restrict__ a, double* b, int n) {\n  \
                   __shared__ double s[64];\n  int i = threadIdx.x;\n  \
                   if (i >= 60 && i < 68) { s[(67 - i) % 4] = a[i]; }\n}\n\
                   void host() {\n  int n = 512;\n  double* a = cudaAlloc1D(n);\n  \
                   double* b = cudaAlloc1D(n);\n  k<<<1, 512>>>(a, b, n);\n}\n";
        let stats = run(src).unwrap().1.remove(0);
        let race = |c| format!("shared write-write race on tile 0[{c}] in `k`");
        assert_eq!(stats.hazards, [3, 2, 1, 0].map(race));
        // `int i` and the `if` issue in all 16 warps, the store in two.
        assert_eq!(
            (stats.shared_writes, stats.warp_instructions),
            (8, 16 + 16 + 2)
        );
    }

    /// A block above the lane masks' capacity is a trap, charged no steps,
    /// with every array back in global memory.
    #[test]
    fn a_block_above_the_lane_capacity_traps() {
        let p = parse_program(&kernel_on_a("  a[i] = 1.0;")).unwrap();
        let mut plan = ExecutablePlan::from_program(&p).unwrap();
        plan.launches[0].block = Dim3::new(MAX_LANES as u32 + 1, 1, 1);
        let mut mem = GlobalMemory::from_plan(&plan);
        let interp = Interpreter::new(&p);
        let err = interp.run_plan(&plan, &mut mem).unwrap_err();
        assert_eq!(
            (err.0.as_str(), err.1),
            (
                "block of 1025 threads in `k` exceeds the interpreter's limit of 1024",
                ExecErrorKind::Trap
            )
        );
        assert_eq!(interp.steps_used(), 0);
        assert!(mem.get("a").is_some());
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

    /// A random pure-int tree over the int slots `names` and the builtins.
    fn pure_tree(rng: &mut Rng, depth: u32, names: &[&str]) -> Expr {
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
                _ => *var(names[rng.below(names.len() as u64) as usize]),
            };
        }
        let shape = rng.below(13);
        let mut sub = || Box::new(pure_tree(rng, depth - 1, names));
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
            0 => pure_tree(rng, depth, &["p0", "p1"]),
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
                assign(
                    LValue::Var(target.into()),
                    op,
                    pure_tree(rng, depth, &["p0", "p1"]),
                )
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
    /// bits. A log entry shows as the warp of an access in the current
    /// barrier epoch, or `None`: the clock ticks the two evaluators stamp
    /// with differ, and nothing but the epoch test and the warp ever reads
    /// them. The footprint sets only count when the statement completes:
    /// a trap ends the launch before they are reported.
    #[derive(Debug, PartialEq)]
    struct Observed {
        result: Result<(), ExecError>,
        stats: LaunchStats,
        arrays: Vec<Vec<u64>>,
        smem: Vec<u64>,
        logs: (Vec<Option<u64>>, Vec<Option<u64>>),
        writers: Vec<Vec<u64>>,
        ints: Vec<i64>,
        floats: Vec<u64>,
        vals: Vec<(bool, u64)>,
        /// The read and write footprints.
        footprint: Option<[Vec<(u16, usize)>; 2]>,
    }

    /// A block shape: 16–48 × 1–2 lanes; above 64 lanes and never a
    /// multiple of 64 (an odd 17–47 × 4–12); or 1024 lanes. `threadIdx.x`
    /// stays below 48, so the generators' indices stay mostly in range.
    fn block_shape(rng: &mut Rng) -> (u64, u64, u64) {
        match rng.below(4) {
            0 | 1 => (16 + rng.below(33), 1 + rng.below(2), 1),
            2 => (17 + 2 * rng.below(16), 4 + rng.below(9), 1),
            _ => (32, 8, 4),
        }
    }

    /// Execute `stmt` on one block whose whole state — memory, slots,
    /// tiles, logs, hazard list, mask — is drawn from `seed`.
    fn observe(ck: &CompiledKernel, stmt: &CStmt, seed: u64) -> Observed {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = Rng(seed);
        let (x, y, z) = block_shape(&mut rng);
        let block = Dim3::new(x as u32, y as u32, z as u32);
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
            full: Mask::first(lanes),
            alive: Mask::first(lanes),
            any_returned: false,
            fp_read: HashSet::new(),
            fp_write: HashSet::new(),
            track_footprint: rng.below(2) == 0,
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
        for x in &mut m.p.smem {
            *x = float_value(&mut rng);
        }
        // The logs hold accesses from this barrier epoch and an older one,
        // by any warp of the block; the writers tables are empty or name
        // this block, another block, or none.
        let (epoch, now) = (m.p.epoch, m.p.tick());
        let warps = lanes.div_ceil(32) as u64;
        for entry in m.p.shared_writes.iter_mut().chain(&mut m.p.shared_reads) {
            let tick = if rng.below(8) != 0 { epoch } else { now };
            *entry = stamp(tick, 32 * rng.below(warps) as usize);
        }
        for (w, (_, arr)) in m.p.writers.iter_mut().zip(m.arrays.iter()) {
            if rng.below(2) == 0 {
                *w = (0..arr.data.len())
                    .map(|_| [0, 0, 0, 1, 2, 3][rng.below(6) as usize])
                    .collect();
            }
        }
        // From one lane in sixteen to every lane, sometimes with a whole
        // 64-lane word off.
        let density = [1, 4, 8, 12, 16][rng.below(5) as usize];
        let mut mask = Mask::EMPTY;
        for t in 0..lanes {
            if rng.below(16) < density {
                mask.set(t);
            }
        }
        if rng.below(4) == 0 {
            mask.0[rng.below(lanes.div_ceil(64) as u64) as usize] = 0;
        }

        let result = m.exec_stmt(stmt, &mask, true);
        let epoch = m.p.epoch;
        let in_epoch = |log: &[u64]| -> Vec<Option<u64>> {
            let warp = |s: u64| s & ((1 << WARP_BITS) - 1);
            log.iter()
                .map(|&s| (s >> WARP_BITS > epoch).then(|| warp(s)))
                .collect()
        };
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
            smem: bits(&m.p.smem),
            logs: (in_epoch(&m.p.shared_writes), in_epoch(&m.p.shared_reads)),
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

    /// `array[g] = array[g] * k + c`: which lanes ran it, and how often,
    /// shows in the element's bits.
    fn mark(array: &str, k: f64, c: f64) -> Stmt {
        let at = || Expr::Index {
            array: array.into(),
            indices: vec![*var("g")],
        };
        let value = bin(BinaryOp::Mul, at(), Expr::Float(k));
        Stmt::Assign {
            target: LValue::Index {
                array: array.into(),
                indices: vec![*var("g")],
            },
            op: AssignOp::Assign,
            value: bin(BinaryOp::Add, value, Expr::Float(c)),
        }
    }

    /// An assignment to `q`: pure, typed int, typed float (all three
    /// column-wise), or per thread (it reads the value slot `m`).
    fn assign_q(rng: &mut Rng) -> Stmt {
        use BinaryOp::*;
        let (q, j) = (|| *var("q"), || *var("j"));
        let value = match rng.below(4) {
            0 => bin(Add, q(), j()),
            1 => bin(
                Rem,
                bin(Add, bin(Mul, q(), Expr::Int(3)), j()),
                Expr::Int(7),
            ),
            2 => bin(Sub, q(), bin(Mul, j(), Expr::Float(1.5))),
            _ => bin(Sub, *var("m"), q()),
        };
        Stmt::Assign {
            target: LValue::Var("q".into()),
            op: AssignOp::Assign,
            value,
        }
    }

    /// `for (int j = -2 .. 0; j < 3; j += 1 or m)` over a guard, then more
    /// guards or assignments to `q`. Each guard's `&&` conjuncts are drawn
    /// from `pool` (so guards repeat them); it marks `a`, some also `b` in
    /// their else branch, and may assign `q`. The body ends by recording
    /// `q` in `b`. The step `m` (which holds 1) runs per thread, `1`
    /// column-wise.
    fn guarded_loop(rng: &mut Rng, pool: &[Expr]) -> Stmt {
        let mut body = Vec::new();
        for s in 0..2 + rng.below(4) {
            if s > 0 && rng.below(4) == 0 {
                body.push(assign_q(rng));
                continue;
            }
            let cond = (0..1 + rng.below(4))
                .map(|_| pool[rng.below(pool.len() as u64) as usize].clone())
                .reduce(|l, r| bin(BinaryOp::And, l, r))
                .expect("at least one conjunct");
            let c = s as f64 + 1.0;
            let mut then_body = vec![mark("a", 3.0, c)];
            if rng.below(2) == 0 {
                then_body.push(assign_q(rng));
            }
            let else_body = match rng.below(2) {
                0 => vec![mark("b", 2.0, c)],
                _ => Vec::new(),
            };
            body.push(Stmt::If {
                cond,
                then_body,
                else_body,
            });
        }
        body.push(Stmt::Assign {
            target: LValue::Index {
                array: "b".into(),
                indices: vec![*var("g")],
            },
            op: AssignOp::AddAssign,
            value: *var("q"),
        });
        Stmt::For {
            var: "j".into(),
            init: Expr::Int(rng.below(3) as i64 - 2),
            cond: bin(BinaryOp::Lt, *var("j"), Expr::Int(3)),
            step: [Expr::Int(1), *var("m")][rng.below(2) as usize].clone(),
            body,
        }
    }

    /// Two launches of two or three blocks each (the first's shape from
    /// `block_shape`, the second's 16–48 × 1–2, different scalar
    /// arguments) of a kernel of one or two guarded loops. The
    /// conjunct pool reads the loop-invariant `p0`, `p1`, `g` and the
    /// builtins, the loop variable `j`, and `q`, which the loops reassign
    /// under partial masks.
    fn guarded_program(rng: &mut Rng) -> Program {
        let launch = |rng: &mut Rng, (x, y, z)| {
            let blocks = 2 + rng.below(2);
            let (p0, p1) = (rng.below(7) as i64 - 3, rng.below(7) as i64 - 3);
            let call = format!("  k<<<{blocks}, dim3({x}, {y}, {z})>>>(a, b, {p0}, {p1});\n");
            (call, blocks * x * y * z)
        };
        // The second launch's block is a small one: the large shapes cost
        // the per-thread reference most.
        let shape = block_shape(rng);
        let (first, m) = launch(rng, shape);
        let small = (16 + rng.below(33), 1 + rng.below(2), 1);
        let (second, n) = launch(rng, small);
        let (launches, n) = (first + &second, m.max(n));
        let src = format!(
            "__global__ void k(double* a, double* b, int p0, int p1) {{ }}\n\
             void host() {{\n  int n = {n};\n  double* a = cudaAlloc1D(n);\n  \
             double* b = cudaAlloc1D(n);\n{launches}}}\n"
        );
        let mut program = parse_program(&src).unwrap();
        let names: [&[&str]; 4] = [&["p0", "p1", "g"], &["j", "p0"], &["q", "p1"], &["j", "q"]];
        let pool: Vec<Expr> = (0..2 + rng.below(6))
            .map(|_| {
                let names = names[rng.below(4) as usize];
                let op = [Lt, Le, Gt, Ge, Eq, Ne][rng.below(6) as usize];
                bin(op, pure_tree(rng, 2, names), pure_tree(rng, 2, names))
            })
            .collect();
        use BinaryOp::*;
        let decl = |name: &str, ty, init| Stmt::VarDecl {
            name: name.into(),
            ty,
            init: Some(init),
        };
        let b = |axis| Expr::Builtin(axis);
        // g = ((blockIdx.x * blockDim.z + threadIdx.z) * blockDim.y
        //       + threadIdx.y) * blockDim.x + threadIdx.x
        let nest = |outer, axis| {
            let scaled = bin(Mul, outer, b(Builtin::BlockDim(axis)));
            bin(Add, scaled, b(Builtin::ThreadIdx(axis)))
        };
        let plane = nest(b(Builtin::BlockIdx(Axis::X)), Axis::Z);
        let g = nest(nest(plane, Axis::Y), Axis::X);
        let mut body = vec![
            // `m` is declared with two types: a value slot, holding int 1.
            decl("m", ScalarType::F64, Expr::Float(0.5)),
            decl("m", ScalarType::I32, Expr::Int(1)),
            decl("g", ScalarType::I32, g),
            decl("q", ScalarType::I32, bin(Sub, tid(), *var("p0"))),
        ];
        for _ in 0..1 + rng.below(2) {
            body.push(guarded_loop(rng, &pool));
        }
        program.kernels[0].body = body;
        program
    }

    /// Every `if` of `stmts` with its conjunct ids dropped: each condition
    /// is evaluated whole, as its part says, every time it runs.
    fn strip_conjuncts(stmts: &mut [CStmt]) {
        for s in stmts {
            match s {
                CStmt::If {
                    conjuncts,
                    then_body,
                    else_body,
                    ..
                } => {
                    conjuncts.clear();
                    strip_conjuncts(then_body);
                    strip_conjuncts(else_body);
                }
                CStmt::For { body, .. } => strip_conjuncts(body),
                _ => {}
            }
        }
    }

    /// What a run leaves: every launch's counters (or the trap) and the
    /// memory image's bits.
    type Run = (Result<Vec<LaunchStats>, ExecError>, Vec<Vec<u64>>);

    /// Run `program` with `ck` as its kernel, footprints on.
    fn run_with(program: &Program, ck: CompiledKernel, seed: u64) -> Run {
        let plan = ExecutablePlan::from_program(program).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        mem.seed_all(seed);
        let mut interp = Interpreter::new(program);
        interp.track_footprint = true;
        interp
            .compiled
            .borrow_mut()
            .insert(ck.name.clone(), Rc::new(ck));
        let stats = interp.run_plan(&plan, &mut mem);
        let bits = ["a", "b"].map(|name| {
            let data = &mem.get(name).unwrap().data;
            data.iter().map(|x| x.to_bits()).collect()
        });
        (stats, bits.to_vec())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        /// A kernel whose guards are memoized leaves exactly what the same
        /// compiled kernel leaves when every guard is evaluated whole —
        /// memory bits, every launch's counters, hazards and footprints —
        /// over two launches of several blocks, with conjuncts that read
        /// loop-invariant slots and builtins, the loop variable (stepped
        /// column-wise or per thread), and a slot the loop body reassigns
        /// under a partial mask column-wise or per thread.
        #[test]
        fn memoized_guards_agree_with_evaluating_every_condition(seed in 0u64..3000) {
            let mut rng = Rng(seed);
            let program = guarded_program(&mut rng);
            let ck = compile(&program.kernels[0]).unwrap();
            prop_assert!(!ck.conjuncts.is_empty(), "the loops hold pure guards");
            let mut whole = ck.clone();
            strip_conjuncts(&mut whole.body);
            let state = rng.next();
            prop_assert_eq!(
                run_with(&program, ck, state),
                run_with(&program, whole, state),
                "{:?}",
                program.kernels[0].body
            );
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
