//! The three metadata artifacts exchanged between the framework and the
//! programmer (§3.2.1): performance metadata, operations metadata and device
//! metadata. All are serializable so the pipeline can emit them as the text
//! files the paper describes, and the programmer (or a test) can amend them
//! before the next stage.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-kernel-invocation performance metadata, as gathered from a profiled
/// run of the instrumented program (the paper uses `nvprof`; we use the
/// `sf-gpusim` profiler).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct PerfMetadata {
    /// Kernel name.
    pub kernel: String,
    /// Static launch id this row describes.
    pub seq: usize,
    /// Measured runtime of one execution, microseconds.
    pub runtime_us: f64,
    /// Achieved GFLOPS.
    pub gflops: f64,
    /// Effective memory throughput, GB/s.
    pub eff_bw_gbps: f64,
    /// Static shared memory per thread block, bytes.
    pub smem_per_block: usize,
    /// Estimated registers per thread.
    pub regs_per_thread: u32,
    /// Number of threads launched.
    pub active_threads: u64,
    /// Active blocks per streaming multiprocessor.
    pub active_blocks_per_sm: u32,
    /// Achieved occupancy in [0, 1].
    pub occupancy: f64,
    /// DRAM bytes read per execution.
    pub dram_read_bytes: u64,
    /// DRAM bytes written per execution.
    pub dram_write_bytes: u64,
    /// Floating-point operations per execution.
    pub flops: u64,
    /// Divergent warp-branch evaluations per execution.
    pub divergent_evals: u64,
    /// Fraction of warp branch evaluations that diverged, in [0, 1].
    pub divergence: f64,
    /// Measurement-quality summary: how trustworthy the numbers above are.
    pub measure: MeasureQuality,
}

impl PerfMetadata {
    /// Operational intensity (FLOP / DRAM byte).
    pub fn operational_intensity(&self) -> f64 {
        let bytes = (self.dram_read_bytes + self.dram_write_bytes) as f64;
        if bytes == 0.0 {
            f64::INFINITY
        } else {
            self.flops as f64 / bytes
        }
    }
}

/// Confidence classification of one launch's measurements, derived from the
/// worst relative dispersion across its aggregated metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Confidence {
    /// Low dispersion: the measurement can be trusted as-is.
    Stable,
    /// Noticeable run-to-run scatter: usable, but plans built on it should
    /// hedge (the search widens its fusion penalty for such kernels).
    Noisy,
    /// Too few surviving samples or excessive scatter: the numbers are not
    /// trustworthy and the kernel is quarantined out of the fusion space.
    Unreliable,
}

/// Where an aggregated metric value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Provenance {
    /// Aggregated from profiled repetitions on the first attempt.
    Measured,
    /// Measured, but at least one repetition hit a transient profiler
    /// failure and was retried.
    Remeasured,
    /// Robust aggregation rejected too many samples (or none survived);
    /// the value collapsed to the analytic model's estimate.
    AnalyticFallback,
    /// Classified [`Confidence::Unreliable`]: the value is reported but the
    /// launch is excluded from transformation decisions.
    Quarantined,
}

/// Measurement-quality summary attached to every [`PerfMetadata`] row by
/// the robust profiler: sample counts, dispersion, a confidence interval on
/// the runtime, and the confidence/provenance classification downstream
/// stages key off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasureQuality {
    /// Profiling repetitions that produced a usable sample.
    pub samples: u32,
    /// Samples rejected as outliers across all aggregated metrics.
    pub outliers_rejected: u32,
    /// Worst relative dispersion across metrics (robust sigma / median).
    pub dispersion: f64,
    /// Lower bound of the ~95% confidence interval on `runtime_us`.
    pub ci_low_us: f64,
    /// Upper bound of the ~95% confidence interval on `runtime_us`.
    pub ci_high_us: f64,
    /// Confidence classification derived from `dispersion` and `samples`.
    pub confidence: Confidence,
    /// Where the aggregated values came from.
    pub provenance: Provenance,
}

impl Default for MeasureQuality {
    /// The single-shot exact-measurement default: one sample, zero
    /// dispersion, a degenerate confidence interval, fully trusted.
    fn default() -> Self {
        MeasureQuality {
            samples: 1,
            outliers_rejected: 0,
            dispersion: 0.0,
            ci_low_us: 0.0,
            ci_high_us: 0.0,
            confidence: Confidence::Stable,
            provenance: Provenance::Measured,
        }
    }
}

/// Per-launch operations metadata from static analysis (§3.2.1): the loop
/// sizes, iteration sites and DRAM bytes per array the filter and the
/// search read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct OpsMetadata {
    pub kernel: String,
    pub seq: usize,
    /// Evaluated vertical loop sizes per sweep (0 for planar sweeps).
    pub loop_sizes: Vec<i64>,
    /// Iteration sites per execution.
    pub sites: u64,
    /// DRAM bytes per actual array (read, write) for one execution —
    /// consumed by the codeless performance-projection objective.
    pub bytes_per_array: BTreeMap<String, (u64, u64)>,
}

/// Device metadata, the `deviceQuery` analog (§3.2.1). Mirrors the fields
/// the objective function needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct DeviceMetadata {
    pub name: String,
    pub sm_count: u32,
    pub warp_size: u32,
    pub max_threads_per_sm: u32,
    pub max_blocks_per_sm: u32,
    pub max_threads_per_block: u32,
    pub regs_per_sm: u32,
    pub max_regs_per_thread: u32,
    /// Shared memory available per SM, bytes.
    pub smem_per_sm: usize,
    /// Maximum shared memory per block, bytes.
    pub smem_per_block_max: usize,
    /// Peak double-precision throughput, GFLOPS.
    pub peak_dp_gflops: f64,
    /// Peak DRAM bandwidth, GB/s.
    pub mem_bw_gbps: f64,
    /// Kernel launch overhead, microseconds.
    pub launch_overhead_us: f64,
}

impl DeviceMetadata {
    /// Roofline ridge point in FLOP/byte: kernels with lower operational
    /// intensity are memory-bound on this device.
    pub fn ridge_flop_per_byte(&self) -> f64 {
        self.peak_dp_gflops / self.mem_bw_gbps
    }
}

/// The framework's classification of a kernel invocation (§3.2.2 / §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelClass {
    /// Memory-bound stencil kernel: eligible for fusion.
    MemoryBound,
    /// Compute-bound: kept in the graphs but ineligible for fusion.
    ComputeBound,
    /// Boundary kernel (few iterations over array subsets): ineligible.
    Boundary,
    /// Latency-bound (poor compute/memory overlap): *looks* memory-bound to
    /// the roofline test; only a programmer-guided filter excludes it.
    LatencyBound,
    /// Measurements too noisy to trust ([`Confidence::Unreliable`]):
    /// quarantined out of the fusion space regardless of its roofline class.
    Unreliable,
}

/// The bundle of metadata for one program on one device: what stage 1 of
/// the pipeline emits (three "files": perf, ops, device).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct MetadataBundle {
    pub perf: Vec<PerfMetadata>,
    pub ops: Vec<OpsMetadata>,
    pub device: DeviceMetadata,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_perf() -> PerfMetadata {
        PerfMetadata {
            kernel: "k".into(),
            seq: 0,
            runtime_us: 100.0,
            gflops: 50.0,
            eff_bw_gbps: 180.0,
            smem_per_block: 2048,
            regs_per_thread: 32,
            active_threads: 65536,
            active_blocks_per_sm: 8,
            occupancy: 0.75,
            dram_read_bytes: 8_000_000,
            dram_write_bytes: 2_000_000,
            flops: 5_000_000,
            divergent_evals: 0,
            divergence: 0.0,
            measure: MeasureQuality::default(),
        }
    }

    #[test]
    fn operational_intensity() {
        let p = sample_perf();
        assert!((p.operational_intensity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_traffic_is_infinite_oi() {
        let mut p = sample_perf();
        p.dram_read_bytes = 0;
        p.dram_write_bytes = 0;
        assert!(p.operational_intensity().is_infinite());
    }

    #[test]
    fn measure_quality_defaults_to_trusted_single_shot() {
        let q = MeasureQuality::default();
        assert_eq!(q.samples, 1);
        assert_eq!(q.confidence, Confidence::Stable);
        assert_eq!(q.provenance, Provenance::Measured);
        assert_eq!(q.dispersion, 0.0);
    }

    #[test]
    fn measure_quality_round_trips_through_json() {
        let mut p = sample_perf();
        p.measure = MeasureQuality {
            samples: 5,
            outliers_rejected: 1,
            dispersion: 0.12,
            ci_low_us: 90.0,
            ci_high_us: 110.0,
            confidence: Confidence::Noisy,
            provenance: Provenance::Remeasured,
        };
        let s = serde_json::to_string(&p).unwrap();
        let p2: PerfMetadata = serde_json::from_str(&s).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn metadata_round_trips_through_json() {
        let p = sample_perf();
        let s = serde_json::to_string(&p).unwrap();
        let p2: PerfMetadata = serde_json::from_str(&s).unwrap();
        assert_eq!(p, p2);
    }
}
