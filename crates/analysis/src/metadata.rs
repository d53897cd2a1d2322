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
    fn metadata_round_trips_through_json() {
        let p = sample_perf();
        let s = serde_json::to_string(&p).unwrap();
        let p2: PerfMetadata = serde_json::from_str(&s).unwrap();
        assert_eq!(p, p2);
    }
}
