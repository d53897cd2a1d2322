//! Thread-block-size tuning (§4.2).
//!
//! Tuning happens at code-generation time, never inside the optimization
//! algorithm, and it is *codeless*: a group is analysed once
//! ([`GroupAnalysis`], [`crate::temporal::TemporalAnalysis`]), every
//! candidate block shape is priced by the occupancy-calculator clone
//! ([`best_block_size`]) without generating a kernel for it, and the kernel
//! is emitted once more, at the winner.
//!
//! The calculator needs two numbers per shape. Shared memory is the
//! analysis's closed form `smem_bytes(block) = Σ (bx+2rx)(by+2ry)·8` over the
//! staged tiles, or a rejection when the shape breaks a legality rule.
//! Registers are read off the kernel emitted at the initial block: the
//! estimate counts array parameters, local declarations and tiles, and a
//! block shape changes none of those — only literals in tile extents and
//! halo guards. An emitted kernel that does not use what it was priced at is
//! a [`CodegenError`]: the group goes down the degradation ladder instead of
//! shipping a block the calculator never ranked.

use crate::fuse::{CodegenError, CodegenMode, FusedKernel, GroupAnalysis};
use sf_analysis::access::KernelAccess;
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::occupancy::{best_block_size, occupancy};
use sf_gpusim::profiler::estimate_regs_per_thread;
use sf_minicuda::ast::Kernel;
use sf_minicuda::host::{Dim3, LaunchRecord};

/// The outcome of tuning one fused kernel.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct TuneNote {
    pub kernel: String,
    pub occupancy_before: f64,
    pub occupancy_after: f64,
    pub block_before: Dim3,
    pub block_after: Dim3,
    /// Whether the tuner changed the block shape.
    pub tuned: bool,
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

/// Emit a group at the occupancy-optimal block: once at `initial_block`
/// (which fixes the register estimate), and once more at the shape
/// [`best_block_size`] picks from `smem_bytes`, if that is a different one.
pub(crate) fn tune_block<K>(
    initial_block: Dim3,
    device: &DeviceSpec,
    smem_bytes: impl Fn(Dim3) -> Result<usize, CodegenError>,
    emit: impl Fn(Dim3) -> Result<K, CodegenError>,
    kernel_of: impl Fn(&K) -> &Kernel,
) -> Result<(K, TuneNote), CodegenError> {
    // Emit at `block`; the kernel must use exactly what the block was priced at.
    let emit_priced = |block: Dim3, regs: Option<u32>| {
        let fused = emit(block)?;
        let kernel = kernel_of(&fused);
        let emitted = kernel_resources(kernel)?;
        let priced = (regs.unwrap_or(emitted.0), smem_bytes(block)?);
        if emitted != priced {
            return Err(CodegenError(format!(
                "`{}` at block {}x{} uses {} registers and {} B shared memory, \
                 priced at {} and {} B",
                kernel.name, block.x, block.y, emitted.0, emitted.1, priced.0, priced.1
            )));
        }
        let occupancy = occupancy_or_zero(device, block, emitted.0, emitted.1);
        Ok((fused, emitted.0, occupancy))
    };
    let (base, regs, occupancy_before) = emit_priced(initial_block, None)?;
    let (block_after, _) = best_block_size(device, initial_block, regs, |b| smem_bytes(b).ok());
    let tuned = block_after != initial_block;
    let (best, occupancy_after) = if tuned {
        let (best, _, occupancy_after) = emit_priced(block_after, Some(regs))?;
        (best, occupancy_after)
    } else {
        (base, occupancy_before)
    };
    let note = TuneNote {
        kernel: kernel_of(&best).name.clone(),
        occupancy_before,
        occupancy_after,
        block_before: initial_block,
        block_after,
        tuned,
    };
    Ok((best, note))
}

/// Generate a fused kernel at the occupancy-optimal block size.
pub fn fuse_group_tuned(
    members: &[(&Kernel, &LaunchRecord)],
    initial_block: Dim3,
    mode: CodegenMode,
    name: &str,
    device: &DeviceSpec,
) -> Result<(FusedKernel, TuneNote), CodegenError> {
    let group = GroupAnalysis::new(members, mode, name, device.smem_per_block_max)?;
    tune_block(
        initial_block,
        device,
        |block| group.smem_bytes(block),
        |block| group.emit(block),
        |fused| &fused.kernel,
    )
}
