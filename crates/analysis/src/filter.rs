//! Target-kernel identification (§3.2.2, §5.2).
//!
//! All kernels stay in the DDG/OEG (precedence can flow through them), but
//! two kinds are tagged ineligible for fusion:
//! - compute-bound kernels (roofline test), and
//! - boundary kernels (small iteration counts over array subsets).
//!
//! A programmer-guided filter may additionally exclude latency-bound
//! kernels that the roofline test mistakes for memory-bound (the Fluam
//! anomaly of §6.2.2).

use crate::metadata::{Confidence, DeviceMetadata, KernelClass, OpsMetadata, PerfMetadata};
use crate::roofline;
use serde::{Deserialize, Serialize};

/// A kernel is a boundary kernel when its iteration-site count is below
/// this fraction of the largest site count among the program's kernels.
pub const BOUNDARY_FRACTION: f64 = 0.10;

/// Runtime must exceed `LATENCY_SLACK × max(mem_time, compute_time)` to flag
/// a kernel latency-bound. The threshold discriminates genuine overlap
/// problems (long dependent load chains) from kernels that are merely
/// occupancy-limited by register pressure — the latter sit around 2–4× the
/// roofline bound and *should* stay fusion/fission targets.
pub const LATENCY_SLACK: f64 = 6.5;

/// Filtering knobs. Defaults follow the paper's automated behavior.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Detect latency-bound kernels (programmer-guided mode only; the
    /// automated filter leaves this off, reproducing the Fluam anomaly).
    pub detect_latency_bound: bool,
}

/// Why a kernel was excluded (or kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterReason {
    /// Memory-bound full-domain stencil: a fusion target.
    Target,
    /// Excluded: compute-bound by the roofline test.
    ComputeBound,
    /// Excluded: boundary kernel (small iteration subset).
    Boundary,
    /// Excluded: latency-bound (guided mode only).
    LatencyBound,
    /// Excluded: the robust profiler classified its measurements
    /// [`Confidence::Unreliable`], so any roofline verdict would rest on
    /// numbers that are mostly noise. Quarantined from the fusion space.
    Unreliable,
}

/// The filter decision for one kernel invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FilterDecision {
    /// Static launch id the decision applies to.
    pub seq: usize,
    /// Kernel name.
    pub kernel: String,
    /// Why the kernel was kept or excluded.
    pub reason: FilterReason,
    /// Operational intensity that informed the decision.
    pub oi: f64,
}

impl FilterDecision {
    /// Whether the kernel remains a fusion target.
    pub fn is_target(&self) -> bool {
        self.reason == FilterReason::Target
    }

    /// Map to the metadata-level class.
    pub fn class(&self) -> KernelClass {
        match self.reason {
            FilterReason::Target => KernelClass::MemoryBound,
            FilterReason::ComputeBound => KernelClass::ComputeBound,
            FilterReason::Boundary => KernelClass::Boundary,
            FilterReason::LatencyBound => KernelClass::LatencyBound,
            FilterReason::Unreliable => KernelClass::Unreliable,
        }
    }
}

/// Run the filter over all kernel invocations of a program.
///
/// `perf` and `ops` must be parallel (same launches in the same order).
pub fn identify_targets(
    perf: &[PerfMetadata],
    ops: &[OpsMetadata],
    device: &DeviceMetadata,
    config: &FilterConfig,
) -> Vec<FilterDecision> {
    assert_eq!(perf.len(), ops.len(), "perf/ops metadata must be parallel");
    let max_sites = ops.iter().map(|o| o.sites).max().unwrap_or(0);
    perf.iter()
        .zip(ops)
        .map(|(p, o)| {
            debug_assert_eq!(p.seq, o.seq);
            let oi = p.operational_intensity();
            // Quarantine comes first: an unreliable measurement invalidates
            // every verdict derived from it, roofline included.
            let reason = if p.measure.confidence == Confidence::Unreliable {
                FilterReason::Unreliable
            } else if roofline::classify(p, device) == roofline::RooflineRegion::ComputeBound {
                FilterReason::ComputeBound
            } else if max_sites > 0 && (o.sites as f64) < BOUNDARY_FRACTION * max_sites as f64 {
                FilterReason::Boundary
            } else if config.detect_latency_bound
                && roofline::is_latency_bound(p, device, LATENCY_SLACK)
            {
                FilterReason::LatencyBound
            } else {
                FilterReason::Target
            };
            FilterDecision {
                seq: p.seq,
                kernel: p.kernel.clone(),
                reason,
                oi,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn device() -> DeviceMetadata {
        DeviceMetadata {
            name: "test".into(),
            sm_count: 14,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            smem_per_sm: 49152,
            smem_per_block_max: 49152,
            peak_dp_gflops: 1310.0,
            mem_bw_gbps: 250.0,
            launch_overhead_us: 5.0,
        }
    }

    fn perf(seq: usize, flops: u64, bytes: u64, runtime_us: f64) -> PerfMetadata {
        PerfMetadata {
            kernel: format!("k{seq}"),
            seq,
            runtime_us,
            gflops: 0.0,
            eff_bw_gbps: 0.0,
            smem_per_block: 0,
            regs_per_thread: 32,
            active_threads: 1 << 16,
            active_blocks_per_sm: 8,
            occupancy: 0.5,
            dram_read_bytes: bytes,
            dram_write_bytes: 0,
            flops,
            divergent_evals: 0,
            divergence: 0.0,
            measure: Default::default(),
        }
    }

    fn ops(seq: usize, sites: u64) -> OpsMetadata {
        OpsMetadata {
            kernel: format!("k{seq}"),
            seq,
            loop_sizes: vec![32],
            sites,
            bytes_per_array: BTreeMap::new(),
        }
    }

    #[test]
    fn filters_compute_bound_and_boundary() {
        let d = device();
        let perf = vec![
            perf(0, 1_000_000, 1_000_000, 10.0),   // memory-bound target
            perf(1, 100_000_000, 1_000_000, 10.0), // compute-bound
            perf(2, 10_000, 10_000, 1.0),          // boundary (tiny sites)
        ];
        let ops = vec![ops(0, 1_000_000), ops(1, 1_000_000), ops(2, 2_000)];
        let out = identify_targets(&perf, &ops, &d, &FilterConfig::default());
        assert_eq!(out[0].reason, FilterReason::Target);
        assert_eq!(out[1].reason, FilterReason::ComputeBound);
        assert_eq!(out[2].reason, FilterReason::Boundary);
        assert!(out[0].is_target());
        assert!(!out[1].is_target());
    }

    #[test]
    fn unreliable_measurements_are_quarantined_first() {
        let d = device();
        // Would be a clean memory-bound target, but the robust profiler
        // marked its measurements untrustworthy.
        let mut p = perf(0, 1_000_000, 1_000_000, 10.0);
        p.measure.confidence = Confidence::Unreliable;
        let out = identify_targets(&[p], &[ops(0, 1_000_000)], &d, &FilterConfig::default());
        assert_eq!(out[0].reason, FilterReason::Unreliable);
        assert!(!out[0].is_target());
        assert_eq!(out[0].class(), KernelClass::Unreliable);
    }

    #[test]
    fn latency_detection_only_when_enabled() {
        let d = device();
        // 1MB at 250GB/s = 4us; runtime 40us → latency-bound
        let perf = vec![perf(0, 1000, 1_000_000, 40.0)];
        let ops_v = vec![ops(0, 1_000_000)];
        let auto = identify_targets(&perf, &ops_v, &d, &FilterConfig::default());
        assert_eq!(auto[0].reason, FilterReason::Target);
        let guided = identify_targets(
            &perf,
            &ops_v,
            &d,
            &FilterConfig {
                detect_latency_bound: true,
            },
        );
        assert_eq!(guided[0].reason, FilterReason::LatencyBound);
    }
}
