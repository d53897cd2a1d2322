//! Thread-block-size tuning (§4.2).
//!
//! Tuning happens at code-generation time, never inside the optimization
//! algorithm, and it is *codeless*: a group is analysed once
//! ([`GroupAnalysis`], [`crate::temporal::TemporalAnalysis`]), the kernel —
//! a [`FusedKernel`] either way, a fold priced by its odd launch — is
//! emitted at the initial block, and every candidate shape of
//! [`candidate_blocks`] is priced from that one kernel without generating
//! another. The price is the modelled time an analytic profile charges the
//! emitted launch: one [`LaunchPricer`], the profiler's own, is bound to the
//! initial kernel's launch and asked the cost of each shape, with the
//! analysis's shared-memory footprint for that shape, so the tuner and an
//! analytic profile cannot disagree. A functional profile charges the same
//! model with the flops and divergent branches the interpreter measures,
//! which no codeless price can see (the analytic one counts estimated flops
//! and no divergence); the fuzzer's `tuning-monotone` check holds the
//! generated programs and the application analogs to the pipeline's own
//! profile as well. The kernel is
//! emitted once more, at the winner, reusing what the generator can of the
//! first emission.
//!
//! Occupancy is a utilization proxy, not performance (the paper says so
//! itself), so it is a floor here, not the objective. A candidate is
//! admissible only if the analysis can generate it and it launches, its
//! occupancy is at least the initial block's (so tuning never lowers
//! occupancy, Table 2), and its padded coverage — grid × block threads — is
//! at most the initial block's: the calculator counts every launched warp
//! as resident, and a shape that pads a narrow domain with idle lanes would
//! otherwise buy occupancy the hardware does not have. The tuner takes the
//! admissible candidate priced strictly fastest (by a relative 1e-9), ties
//! going to [`candidate_blocks`] order, and otherwise keeps the initial
//! block.
//!
//! Registers are read off the kernel emitted at the initial block: the
//! estimate counts array parameters, local declarations and tiles, and a
//! block shape changes none of those — only literals in tile extents and
//! halo guards. Tuning is one step of emitting a group, not a second
//! attempt at it: once the kernel at the initial block exists, nothing the
//! tuner does can lose it. Whatever fails after that — the initial kernel
//! using other shared memory than `smem_bytes` priced, a launch the pricer
//! cannot bind, a winner that fails to emit or declares other tiles than
//! it was priced at, or an injected rejection
//! (`FaultPlan::reject_tuned_groups`) — keeps the initial kernel, and
//! [`tune_block`] says why, so the code generator records the step instead
//! of shipping a block the tuner never ranked. The winner is
//! not analysed again: the fidelity oracle (`tests/tuning_equivalence.rs`)
//! holds the kernel emitted at every legal shape to its price, and debug
//! builds recheck its registers.

use crate::fuse::{CodegenError, FusedKernel, GroupAnalysis};
use crate::temporal::TemporalAnalysis;
use sf_analysis::access::KernelAccess;
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::occupancy::{candidate_blocks, occupancy};
use sf_gpusim::profiler::{estimate_regs_per_thread, LaunchPricer};
use sf_gpusim::timing::TimingModel;
use sf_minicuda::ast::{Kernel, Stmt};
use sf_minicuda::host::{AllocInfo, Dim3};

/// The outcome of tuning one fused kernel.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct TuneNote {
    pub kernel: String,
    pub occupancy_before: f64,
    pub occupancy_after: f64,
    pub block_before: Dim3,
    pub block_after: Dim3,
    /// Modelled time of one execution of the launch at each block, µs, as
    /// an analytic profile charges it (infinite if the initial block cannot
    /// launch).
    pub us_before: f64,
    pub us_after: f64,
    /// Whether the tuner changed the block shape.
    pub tuned: bool,
}

/// What tuning made of a group emitted at its initial block: the note on
/// the block it settled on, or why the initial kernel was kept.
pub type Tuned = Result<TuneNote, CodegenError>;

/// A group analysed once and emitted at any block shape: what the tuner
/// prices and regenerates. [`GroupAnalysis`] (spatial fusion) and
/// [`TemporalAnalysis`] (temporal blocking) are the two; both emit a
/// [`FusedKernel`], whose first launch the tuner prices.
pub trait Analysis {
    /// Static shared memory of the kernel generated at `block`, or the
    /// block-dependent legality rule `block` breaks.
    fn smem_bytes(&self, block: Dim3) -> Result<usize, CodegenError>;
    /// The launch grid of the kernel generated at `block`.
    fn grid(&self, block: Dim3) -> Dim3;
    /// Generate the kernel at `block`, free to reuse what it can of
    /// `from`, a kernel this analysis generated at another block.
    fn emit_from(
        &self,
        block: Dim3,
        from: Option<&FusedKernel>,
    ) -> Result<FusedKernel, CodegenError>;
}

impl Analysis for GroupAnalysis {
    fn smem_bytes(&self, block: Dim3) -> Result<usize, CodegenError> {
        GroupAnalysis::smem_bytes(self, block)
    }
    fn grid(&self, block: Dim3) -> Dim3 {
        GroupAnalysis::grid(self, block)
    }
    fn emit_from(&self, block: Dim3, _: Option<&FusedKernel>) -> Result<FusedKernel, CodegenError> {
        self.emit(block)
    }
}

/// The folded right-hand sides, the bulk of a temporal kernel, do not
/// depend on the block, so a re-emission takes them from `from`.
impl Analysis for TemporalAnalysis {
    fn smem_bytes(&self, block: Dim3) -> Result<usize, CodegenError> {
        TemporalAnalysis::smem_bytes(self, block)
    }
    fn grid(&self, block: Dim3) -> Dim3 {
        TemporalAnalysis::grid(self, block)
    }
    fn emit_from(
        &self,
        block: Dim3,
        from: Option<&FusedKernel>,
    ) -> Result<FusedKernel, CodegenError> {
        self.emit_reusing(block, from)
    }
}

/// What the occupancy calculator reads off a generated kernel: estimated
/// registers per thread and static shared memory per block.
fn kernel_resources(kernel: &Kernel) -> Result<(u32, usize), CodegenError> {
    let ka = KernelAccess::analyze(kernel).map_err(|e| CodegenError(e.0))?;
    Ok((
        estimate_regs_per_thread(kernel, &ka),
        ka.smem_bytes_per_block(),
    ))
}

/// Occupancy of a generated kernel under a given launch block.
pub fn kernel_occupancy(
    kernel: &Kernel,
    block: Dim3,
    device: &DeviceSpec,
) -> Result<f64, CodegenError> {
    let (regs, smem) = kernel_resources(kernel)?;
    Ok(occupancy_or_zero(device, block, regs, smem))
}

/// Occupancy with "cannot launch" read as zero, so it never beats a shape
/// that can.
fn occupancy_or_zero(device: &DeviceSpec, block: Dim3, regs: u32, smem: usize) -> f64 {
    occupancy(device, block.count() as u32, regs, smem).map_or(0.0, |o| o.occupancy)
}

/// Padded coverage of a launch: threads launched, idle lanes included.
fn coverage(grid: Dim3, block: Dim3) -> u64 {
    grid.count() * block.count()
}

/// Static shared memory of the tiles a generated kernel declares at its
/// top level, where both generators place them, bytes.
fn declared_smem(kernel: &Kernel) -> usize {
    let tile = |s: &Stmt| match s {
        Stmt::SharedDecl { ty, extents, .. } => extents.iter().product::<usize>() * ty.size_bytes(),
        _ => 0,
    };
    kernel.body.iter().map(tile).sum()
}

/// Emit a group at the block the timing model prices fastest: once at
/// `initial_block` (which fixes the registers and the priced launch), and
/// once more at the admissible candidate priced strictly fastest, if there
/// is one; `alloc_of` resolves the launch's arrays. Only the first
/// emission can fail the group. Whatever fails after it — or `veto`, an
/// injected rejection of the tuned kernel — keeps the kernel emitted at
/// the initial block, and the [`Tuned`] verdict says why.
pub fn tune_block<A: Analysis>(
    analysis: &A,
    initial_block: Dim3,
    device: &DeviceSpec,
    alloc_of: &dyn Fn(&str) -> Option<AllocInfo>,
    veto: Option<CodegenError>,
) -> Result<(FusedKernel, Tuned), CodegenError> {
    let base = analysis.emit_from(initial_block, None)?;
    let retuned = match veto {
        Some(why) => Err(why),
        None => retune(analysis, &base, initial_block, device, alloc_of),
    };
    Ok(match retuned {
        Ok((Some(winner), note)) => (winner, Ok(note)),
        Ok((None, note)) => (base, Ok(note)),
        Err(why) => (base, Err(why)),
    })
}

/// Price every candidate shape against `base`, the kernel emitted at
/// `initial_block`, and emit the winner, if there is one.
fn retune<A: Analysis>(
    analysis: &A,
    base: &FusedKernel,
    initial_block: Dim3,
    device: &DeviceSpec,
    alloc_of: &dyn Fn(&str) -> Option<AllocInfo>,
) -> Result<(Option<FusedKernel>, TuneNote), CodegenError> {
    // The kernel at the initial block must use exactly the shared memory
    // `smem_bytes` prices; its registers are what every shape is priced at.
    let ka = KernelAccess::analyze(&base.kernel).map_err(|e| CodegenError(e.0))?;
    let smem = ka.smem_bytes_per_block();
    let priced = analysis.smem_bytes(initial_block)?;
    if smem != priced {
        return Err(CodegenError(format!(
            "`{}` at block {}x{} uses {smem} B shared memory, priced at {priced} B",
            base.kernel.name, initial_block.x, initial_block.y
        )));
    }
    let model = TimingModel::new(device.clone());
    let pricer = LaunchPricer::bind(&model, &base.kernel, &ka, &base.args, alloc_of)
        .map_err(|e| CodegenError(e.0))?;
    let regs = pricer.regs_per_thread();
    let occupancy_before = occupancy_or_zero(device, initial_block, regs, smem);
    let us_before = pricer
        .cost(base.grid, initial_block, smem)
        .map_or(f64::INFINITY, |c| c.total_us());
    let cover = coverage(base.grid, initial_block);

    let mut best: Option<(Dim3, f64, f64, usize)> = None;
    for block in candidate_blocks(device) {
        if block == initial_block {
            continue;
        }
        let Ok(smem) = analysis.smem_bytes(block) else {
            continue;
        };
        let Some(occ) = occupancy(device, block.count() as u32, regs, smem) else {
            continue;
        };
        let grid = analysis.grid(block);
        if occ.occupancy < occupancy_before || coverage(grid, block) > cover {
            continue;
        }
        let Some(cost) = pricer.cost(grid, block, smem) else {
            continue;
        };
        let us = cost.total_us();
        let to_beat = best.map_or(us_before, |(_, us, _, _)| us);
        if us < to_beat * (1.0 - 1e-9) {
            best = Some((block, us, occ.occupancy, smem));
        }
    }
    let name = &base.kernel.name;
    let winner = match best {
        None => None,
        Some((block, _, _, smem_after)) => {
            let fused = analysis.emit_from(block, Some(base))?;
            let declared = declared_smem(&fused.kernel);
            if declared != smem_after {
                return Err(CodegenError(format!(
                    "`{name}` at block {}x{} declares {declared} B shared memory, \
                     priced at {smem_after} B",
                    block.x, block.y
                )));
            }
            debug_assert_eq!(
                kernel_resources(&fused.kernel),
                Ok((regs, smem_after)),
                "`{name}` at block {block} does not use what it was priced at"
            );
            Some(fused)
        }
    };
    let (block_after, us_after, occupancy_after, _) =
        best.unwrap_or((initial_block, us_before, occupancy_before, smem));
    let note = TuneNote {
        kernel: name.clone(),
        occupancy_before,
        occupancy_after,
        block_before: initial_block,
        block_after,
        us_before,
        us_after,
        tuned: best.is_some(),
    };
    Ok((winner, note))
}
