//! Analytic timing model.
//!
//! Runtime of a launch is driven by the same mechanisms the paper's
//! performance analysis rests on:
//!
//! ```text
//! t = max(t_mem, t_comp) + t_latency + t_launch
//!
//! t_mem     = DRAM bytes / effective bandwidth
//! t_comp    = flops × (1 + divergence) / peak throughput
//! t_latency = unhidden memory latency (matters only at low occupancy —
//!             the paper's "latency problems (poor computation and memory
//!             overlapping)" for Fluam, §6.2.2)
//! t_launch  = per-launch overhead (fusion removes launches)
//! ```
//!
//! Effective bandwidth scales with achieved occupancy up to a saturation
//! point and with how many SMs the grid can cover — which is how
//! thread-block tuning (§4.2) and the shared-memory capacity pressure of
//! fusion show up in runtime.

use crate::device::DeviceSpec;
use crate::occupancy::{self, OccupancyResult};
use serde::{Deserialize, Serialize};
use sf_minicuda::host::Dim3;

/// Inputs describing one launch for timing purposes.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchProfile {
    /// DRAM bytes moved (reads + writes) per execution.
    pub dram_bytes: u64,
    /// Floating-point operations per execution.
    pub flops: u64,
    /// Number of thread blocks.
    pub blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Estimated registers per thread.
    pub regs_per_thread: u32,
    /// Static shared memory per block, bytes.
    pub smem_per_block: usize,
    /// Number of divergent warp-branch evaluations per execution. Each
    /// divergent branch forces the warp to execute both paths; the timing
    /// model charges a fixed flop-equivalent per occurrence.
    pub divergent_evals: u64,
    /// Total vertical iterations (sum of sweep loop extents) — the depth of
    /// the dependent-latency chain each thread walks.
    pub depth: u64,
}

/// The runtime breakdown of one launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct LaunchCost {
    pub mem_us: f64,
    pub comp_us: f64,
    pub latency_us: f64,
    pub overhead_us: f64,
    pub occupancy: f64,
    pub active_blocks_per_sm: u32,
}

impl LaunchCost {
    /// Total runtime in microseconds.
    pub fn total_us(&self) -> f64 {
        self.mem_us.max(self.comp_us) + self.latency_us + self.overhead_us
    }
}

/// Cost geometry of one temporal fold: how a kernel that folds `fold` host
/// time-loop iterations into a single launch trades DRAM traffic against
/// redundant halo recompute and shared-memory pressure (AN5D-style
/// temporal blocking; DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalFold {
    /// Degree `T`: host iterations folded per launch (≥ 1).
    pub fold: u32,
    /// Staged-read traffic multiplier `(bx+2Dx)(by+2Dy) / (bx·by)` — the
    /// tile-halo area ratio at the full grown halo `D = T·Σr`. Always ≥ 1.
    pub halo_read_ratio: f64,
    /// Flop multiplier from redundant halo recompute, averaged over the
    /// fold's steps (each step s computes a region widened by the halo
    /// still to be consumed by later steps). Always ≥ 1.
    pub recompute_ratio: f64,
    /// Shared-memory bytes per block of the folded kernel (tiles for every
    /// touched array at the grown halo).
    pub smem_per_block: usize,
}

impl LaunchProfile {
    /// The per-**invocation** profile of temporally folding `fold`
    /// iterations of this per-iteration profile: staged reads are paid once
    /// (inflated by the halo area), writes land once, useful flops multiply
    /// by the degree and the redundant-recompute ratio, and the folded
    /// kernel's shared-memory footprint replaces the original one (which is
    /// how the fold's occupancy pressure reaches the cost model). The
    /// read/write byte split is passed explicitly because the profile only
    /// stores the sum.
    pub fn folded(&self, read_bytes: u64, write_bytes: u64, f: &TemporalFold) -> LaunchProfile {
        LaunchProfile {
            dram_bytes: (read_bytes as f64 * f.halo_read_ratio).ceil() as u64 + write_bytes,
            flops: (self.flops as f64 * f.fold as f64 * f.recompute_ratio).ceil() as u64,
            divergent_evals: self.divergent_evals * u64::from(f.fold),
            smem_per_block: f.smem_per_block,
            ..self.clone()
        }
    }
}

/// The timing model bound to a device.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct TimingModel {
    pub device: DeviceSpec,
    /// Unhidden DRAM round-trip latency per vertical iteration at zero
    /// occupancy, microseconds. Copied from the descriptor so tests can
    /// still override it per model instance.
    pub dram_latency_us: f64,
    /// Flop-equivalent cost charged per divergent warp-branch evaluation
    /// (the warp executes both paths: roughly one re-issued statement per
    /// lane). Copied from the descriptor.
    pub divergence_flop_cost: f64,
}

impl TimingModel {
    /// Standard model for a device: every knob, including the latency and
    /// divergence weights, comes from the descriptor.
    pub fn new(device: DeviceSpec) -> TimingModel {
        let dram_latency_us = device.dram_latency_us;
        let divergence_flop_cost = device.divergence_flop_cost;
        TimingModel {
            device,
            dram_latency_us,
            divergence_flop_cost,
        }
    }

    /// Occupancy for a launch profile; `None` if the block cannot launch.
    pub fn occupancy(&self, p: &LaunchProfile) -> Option<OccupancyResult> {
        occupancy::occupancy(
            &self.device,
            p.threads_per_block,
            p.regs_per_thread,
            p.smem_per_block,
        )
    }

    /// Effective DRAM bandwidth in bytes/µs, given occupancy and grid size.
    pub fn effective_bandwidth(&self, occ: f64, blocks: u64) -> f64 {
        let sat = (occ / self.device.bw_saturation_occupancy).min(1.0);
        // A grid smaller than the SM count cannot use the whole chip.
        let coverage = (blocks as f64 / self.device.sm_count as f64).min(1.0);
        self.device.mem_bw_gbps * 1e3 * self.device.bw_efficiency * sat * coverage
    }

    /// Cost of one execution of a launch. Returns `None` when the
    /// configuration cannot launch (occupancy zero).
    pub fn launch_cost(&self, p: &LaunchProfile) -> Option<LaunchCost> {
        let occ = self.occupancy(p)?;
        let bw = self.effective_bandwidth(occ.occupancy, p.blocks);
        let mem_us = p.dram_bytes as f64 / bw.max(1e-9);
        let div_flops = p.divergent_evals as f64 * self.divergence_flop_cost;
        let comp_us = (p.flops as f64 + div_flops) / (self.device.peak_dp_gflops * 1e3);
        // Unhidden latency: each vertical iteration of each wave pays the
        // DRAM round trip scaled by how far occupancy is below the hiding
        // threshold.
        let unhidden = (1.0 - occ.occupancy / self.device.bw_saturation_occupancy).max(0.0);
        let waves = (p.blocks as f64
            / (self.device.sm_count as f64 * occ.active_blocks_per_sm as f64))
            .ceil()
            .max(1.0);
        let depth = p.depth.max(1) as f64;
        let latency_us = waves * depth * self.dram_latency_us * unhidden;
        Some(LaunchCost {
            mem_us,
            comp_us,
            latency_us,
            overhead_us: self.device.launch_overhead_us,
            occupancy: occ.occupancy,
            active_blocks_per_sm: occ.active_blocks_per_sm,
        })
    }

    /// Convenience: build a profile from launch dims.
    #[allow(clippy::too_many_arguments)]
    pub fn profile(
        grid: Dim3,
        block: Dim3,
        dram_bytes: u64,
        flops: u64,
        regs_per_thread: u32,
        smem_per_block: usize,
        divergent_evals: u64,
        depth: u64,
    ) -> LaunchProfile {
        LaunchProfile {
            dram_bytes,
            flops,
            blocks: grid.count(),
            threads_per_block: block.count() as u32,
            regs_per_thread,
            smem_per_block,
            divergent_evals,
            depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TimingModel {
        TimingModel::new(DeviceSpec::k20x())
    }

    fn base_profile() -> LaunchProfile {
        LaunchProfile {
            dram_bytes: 100_000_000, // 100 MB
            flops: 10_000_000,
            blocks: 2048,
            threads_per_block: 256,
            regs_per_thread: 32,
            smem_per_block: 0,
            divergent_evals: 0,
            depth: 32,
        }
    }

    #[test]
    fn memory_bound_kernel_time_tracks_bytes() {
        let m = model();
        let p = base_profile();
        let c = m.launch_cost(&p).unwrap();
        assert!(c.mem_us > c.comp_us);
        let mut p2 = p.clone();
        p2.dram_bytes /= 2;
        let c2 = m.launch_cost(&p2).unwrap();
        assert!((c2.mem_us - c.mem_us / 2.0).abs() < 1e-6);
        assert!(c2.total_us() < c.total_us());
    }

    #[test]
    fn full_occupancy_hides_latency() {
        let m = model();
        let c = m.launch_cost(&base_profile()).unwrap();
        assert!(c.occupancy >= 0.99);
        assert_eq!(c.latency_us, 0.0);
    }

    #[test]
    fn low_occupancy_exposes_latency() {
        let m = model();
        let mut p = base_profile();
        p.regs_per_thread = 200; // crush occupancy
        p.blocks = 14;
        let c = m.launch_cost(&p).unwrap();
        assert!(c.occupancy < 0.2);
        assert!(c.latency_us > 0.0);
    }

    #[test]
    fn divergence_inflates_compute() {
        let m = model();
        let mut p = base_profile();
        p.dram_bytes = 1000; // make compute dominant
        let c0 = m.launch_cost(&p).unwrap();
        p.divergent_evals = p.flops / 256; // one divergent branch per 256 flops
        let c1 = m.launch_cost(&p).unwrap();
        // Integer truncation of the eval count keeps this just under 2x.
        assert!((c1.comp_us / c0.comp_us - 2.0).abs() < 1e-4);
    }

    #[test]
    fn small_grids_get_less_bandwidth() {
        let m = model();
        let full = m.effective_bandwidth(1.0, 10_000);
        let tiny = m.effective_bandwidth(1.0, 7);
        assert!(tiny < full / 1.9);
    }

    #[test]
    fn unlaunchable_configuration_is_none() {
        let m = model();
        let mut p = base_profile();
        p.smem_per_block = 64 * 1024;
        assert!(m.launch_cost(&p).is_none());
    }

    #[test]
    fn timing_knobs_come_from_the_descriptor() {
        let mut d = DeviceSpec::k20x();
        d.dram_latency_us = 0.7;
        d.divergence_flop_cost = 64.0;
        let m = TimingModel::new(d);
        assert_eq!(m.dram_latency_us, 0.7);
        assert_eq!(m.divergence_flop_cost, 64.0);
        // Wavefront-64 boards charge divergence across twice the lanes.
        let hawaii = TimingModel::new(DeviceSpec::hawaii());
        let kepler = TimingModel::new(DeviceSpec::k20x());
        assert!(hawaii.divergence_flop_cost > kepler.divergence_flop_cost);
    }

    #[test]
    fn temporal_fold_amortizes_traffic_on_memory_bound_launches() {
        let m = model();
        let p = base_profile(); // memory-bound: mem_us >> comp_us
        let spatial = m.launch_cost(&p).unwrap().total_us();
        // Fold 4 iterations: reads staged once with a 30% halo inflation,
        // writes once, 40% redundant recompute, 24 KB of tiles.
        let fold = TemporalFold {
            fold: 4,
            halo_read_ratio: 1.3,
            recompute_ratio: 1.4,
            smem_per_block: 24 * 1024,
        };
        let folded = p.folded(60_000_000, 40_000_000, &fold);
        let per_iter = m.launch_cost(&folded).unwrap().total_us() / 4.0;
        assert!(
            per_iter < spatial,
            "folded per-iteration {per_iter} vs spatial {spatial}"
        );
        // Useful work is unchanged; the saved DRAM traffic is where the
        // speedup comes from.
        assert!(folded.dram_bytes < 2 * p.dram_bytes);
        assert_eq!(folded.flops, (p.flops as f64 * 4.0 * 1.4).ceil() as u64);
    }

    #[test]
    fn temporal_fold_smem_pressure_reaches_occupancy() {
        let m = model();
        let p = base_profile();
        let occ0 = m.launch_cost(&p).unwrap().occupancy;
        let fold = TemporalFold {
            fold: 2,
            halo_read_ratio: 1.2,
            recompute_ratio: 1.1,
            smem_per_block: 40 * 1024,
        };
        let folded = p.folded(60_000_000, 40_000_000, &fold);
        let occ1 = m.launch_cost(&folded).unwrap().occupancy;
        assert!(occ1 < occ0, "{occ1} !< {occ0}");
        // Tiles past the per-block capacity cannot launch at all.
        let too_big = p.folded(
            60_000_000,
            40_000_000,
            &TemporalFold {
                smem_per_block: 64 * 1024,
                ..fold
            },
        );
        assert!(m.launch_cost(&too_big).is_none());
    }

    #[test]
    fn launch_overhead_counts() {
        let m = model();
        let mut p = base_profile();
        p.dram_bytes = 0;
        p.flops = 0;
        let c = m.launch_cost(&p).unwrap();
        assert!((c.total_us() - m.device.launch_overhead_us).abs() < 1e-9);
    }
}
