//! A clone of the CUDA occupancy calculator.
//!
//! Active blocks per SM are limited by four resources: the block slots, the
//! thread slots, the register file, and shared memory. The paper's
//! thread-block tuner (§4.2) "enumerates all possible sizes of thread block
//! and substitutes in a series of equations using the same method as in the
//! CUDA occupancy calculator tool"; [`candidate_blocks`] is that
//! enumeration, and the tuner (`sf_codegen::tuning`) keeps occupancy as a
//! floor while it ranks the shapes by modelled time.

use crate::device::DeviceSpec;
use sf_minicuda::host::Dim3;

/// The result of an occupancy computation.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct OccupancyResult {
    /// Active blocks per SM.
    pub active_blocks_per_sm: u32,
    /// Active warps per SM.
    pub active_warps_per_sm: u32,
    /// Occupancy = active warps / max warps, in [0, 1].
    pub occupancy: f64,
    /// Which resource limits the block count.
    pub limiter: Limiter,
}

/// The resource limiting occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub enum Limiter {
    BlockSlots,
    ThreadSlots,
    Registers,
    SharedMemory,
}

fn round_up(v: u32, granularity: u32) -> u32 {
    if granularity == 0 {
        v
    } else {
        v.div_ceil(granularity) * granularity
    }
}

/// Compute occupancy for a block of `threads_per_block` threads using
/// `regs_per_thread` registers and `smem_per_block` bytes of static shared
/// memory. Returns `None` for configurations that cannot launch at all.
pub fn occupancy(
    device: &DeviceSpec,
    threads_per_block: u32,
    regs_per_thread: u32,
    smem_per_block: usize,
) -> Option<OccupancyResult> {
    if threads_per_block == 0
        || threads_per_block > device.max_threads_per_block
        || regs_per_thread > device.max_regs_per_thread
        || smem_per_block > device.smem_per_block_max
    {
        return None;
    }
    let warps_per_block = threads_per_block.div_ceil(device.warp_size);

    let by_blocks = device.max_blocks_per_sm;
    let by_threads = device.max_warps_per_sm() / warps_per_block;
    // Registers are allocated per warp with granularity.
    let regs_per_warp = round_up(
        regs_per_thread.max(1) * device.warp_size,
        device.reg_alloc_granularity,
    );
    let by_regs = device.regs_per_sm / (regs_per_warp * warps_per_block);
    let smem_alloc = if smem_per_block == 0 {
        0
    } else {
        round_up(smem_per_block as u32, device.smem_alloc_granularity as u32) as usize
    };
    let by_smem = device
        .smem_per_sm
        .checked_div(smem_alloc)
        .map_or(u32::MAX, |b| b as u32);

    let (active, limiter) = [
        (by_blocks, Limiter::BlockSlots),
        (by_threads, Limiter::ThreadSlots),
        (by_regs, Limiter::Registers),
        (by_smem, Limiter::SharedMemory),
    ]
    .into_iter()
    .min_by_key(|(v, _)| *v)
    .expect("non-empty limiter list");

    if active == 0 {
        return None;
    }
    let active_warps = active * warps_per_block;
    Some(OccupancyResult {
        active_blocks_per_sm: active,
        active_warps_per_sm: active_warps,
        occupancy: active_warps as f64 / device.max_warps_per_sm() as f64,
        limiter,
    })
}

/// Candidate 2-D block shapes enumerated by the tuner. The x extent stays a
/// multiple of the warp size where possible (coalescing); the supported
/// stencil class maps x to the contiguous axis. Halo-friendly shapes (wider
/// y) come first: the tuner breaks a tie in modelled time by this order,
/// and among equally fast shapes a thin y extent multiplies per-block halo
/// traffic.
pub fn candidate_blocks(device: &DeviceSpec) -> Vec<Dim3> {
    let mut out = Vec::new();
    for &by in &[8u32, 4, 16, 2, 32, 1] {
        for &bx in &[32u32, 64, 128, 256, 16, 8] {
            let t = bx * by;
            // Anything below one warp/wavefront wastes lanes outright —
            // on a wavefront-64 part a 32-thread block is half idle.
            if t >= device.warp_size && t <= device.max_threads_per_block {
                out.push(Dim3::new(bx, by, 1));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_occupancy_small_footprint() {
        let d = DeviceSpec::k20x();
        let o = occupancy(&d, 256, 32, 0).unwrap();
        // 2048/256 = 8 blocks, 64 warps → occupancy 1.0
        assert_eq!(o.active_blocks_per_sm, 8);
        assert!((o.occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn register_pressure_limits() {
        let d = DeviceSpec::k20x();
        let o = occupancy(&d, 256, 128, 0).unwrap();
        assert_eq!(o.limiter, Limiter::Registers);
        assert!(o.occupancy < 0.5);
    }

    #[test]
    fn shared_memory_limits() {
        let d = DeviceSpec::k20x();
        // 24 KiB per block → 2 blocks per SM regardless of threads.
        let o = occupancy(&d, 128, 24, 24 * 1024).unwrap();
        assert_eq!(o.limiter, Limiter::SharedMemory);
        assert_eq!(o.active_blocks_per_sm, 2);
    }

    #[test]
    fn oversized_block_cannot_launch() {
        let d = DeviceSpec::k20x();
        assert!(occupancy(&d, 2048, 32, 0).is_none());
        assert!(occupancy(&d, 256, 32, 64 * 1024).is_none());
    }

    #[test]
    fn occupancy_is_monotone_in_registers() {
        let d = DeviceSpec::k20x();
        let mut last = 2.0;
        for regs in [16u32, 32, 64, 96, 128, 192, 255] {
            let o = occupancy(&d, 256, regs, 0).unwrap();
            assert!(o.occupancy <= last + 1e-12);
            last = o.occupancy;
        }
    }

    #[test]
    fn wavefront64_candidates_never_go_sub_wavefront() {
        let hawaii = DeviceSpec::hawaii();
        for c in candidate_blocks(&hawaii) {
            assert!(
                c.x * c.y >= hawaii.warp_size,
                "{}x{} is below one wavefront",
                c.x,
                c.y
            );
        }
        // Kepler still enumerates its 32-thread shapes.
        let k = DeviceSpec::k20x();
        assert!(candidate_blocks(&k).iter().any(|c| c.x * c.y == 32));
    }
}

/// Occupancy-calculator invariants over *every* registry device — the
/// wavefront-64 and Volta entries exercise granularities and caps the
/// Kepler-only unit tests never reach.
#[cfg(test)]
mod props {
    use super::*;
    use crate::registry::DeviceRegistry;
    use proptest::prelude::*;

    fn registry_device() -> impl Strategy<Value = DeviceSpec> {
        let n = DeviceRegistry::builtin().devices().len();
        (0..n).prop_map(|i| DeviceRegistry::builtin().devices()[i].clone())
    }

    proptest! {
        /// Active warps never exceed the device maximum, occupancy stays in
        /// (0, 1], and the reported limiter really is binding: granting one
        /// more block would overflow at least the limiting resource.
        #[test]
        fn occupancy_within_device_limits(
            d in registry_device(),
            threads in 1u32..=1024,
            regs in 0u32..=255,
            smem in 0usize..=96 * 1024,
        ) {
            let Some(o) = occupancy(&d, threads, regs, smem) else {
                // Unlaunchable is only legal past a hard per-block cap or
                // when some resource admits zero blocks; re-deriving the
                // zero-block case is the calculator itself, so just check
                // the caps when inputs are within them all.
                return;
            };
            prop_assert!(o.active_blocks_per_sm >= 1);
            prop_assert!(o.active_warps_per_sm <= d.max_warps_per_sm());
            prop_assert!(o.occupancy > 0.0 && o.occupancy <= 1.0 + 1e-12);
            prop_assert!(o.active_blocks_per_sm <= d.max_blocks_per_sm);

            // Limiter consistency: one more block violates the limiting
            // resource's budget.
            let warps_per_block = threads.div_ceil(d.warp_size);
            let one_more = o.active_blocks_per_sm + 1;
            match o.limiter {
                Limiter::BlockSlots => prop_assert!(one_more > d.max_blocks_per_sm),
                Limiter::ThreadSlots => {
                    prop_assert!(one_more * warps_per_block > d.max_warps_per_sm())
                }
                Limiter::Registers => {
                    let regs_per_warp = (regs.max(1) * d.warp_size)
                        .div_ceil(d.reg_alloc_granularity)
                        * d.reg_alloc_granularity;
                    prop_assert!(
                        u64::from(one_more) * u64::from(regs_per_warp) * u64::from(warps_per_block)
                            > u64::from(d.regs_per_sm)
                    );
                }
                Limiter::SharedMemory => {
                    let gran = d.smem_alloc_granularity;
                    let alloc = smem.div_ceil(gran) * gran;
                    prop_assert!(one_more as usize * alloc > d.smem_per_sm);
                }
            }
        }

        /// More resource use never raises occupancy (monotone in registers
        /// and in shared memory) on any registry device.
        #[test]
        fn occupancy_is_monotone_in_resources(
            d in registry_device(),
            threads in 1u32..=1024,
            regs in 0u32..=254,
            smem in 0usize..=32 * 1024 - 256,
        ) {
            if let (Some(a), Some(b)) = (
                occupancy(&d, threads, regs, smem),
                occupancy(&d, threads, regs + 1, smem),
            ) {
                prop_assert!(b.occupancy <= a.occupancy + 1e-12);
            }
            if let (Some(a), Some(b)) = (
                occupancy(&d, threads, regs, smem),
                occupancy(&d, threads, regs, smem + 256),
            ) {
                prop_assert!(b.occupancy <= a.occupancy + 1e-12);
            }
        }
    }
}
