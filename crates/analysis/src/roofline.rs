//! The Roofline classifier (§3.2.2): compute-bound kernels are identified
//! by mapping their operational intensity (FLOP/byte) against the device's
//! ridge point and are excluded from the fusion search.

use crate::metadata::{DeviceMetadata, PerfMetadata};

/// Where a kernel sits on the roofline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RooflineRegion {
    /// Below the ridge: bounded by memory bandwidth.
    MemoryBound,
    /// At or above the ridge: bounded by compute throughput.
    ComputeBound,
}

/// Classify a kernel by operational intensity against the device ridge.
pub fn classify(perf: &PerfMetadata, device: &DeviceMetadata) -> RooflineRegion {
    if perf.operational_intensity() >= device.ridge_flop_per_byte() {
        RooflineRegion::ComputeBound
    } else {
        RooflineRegion::MemoryBound
    }
}

/// The attainable GFLOPS for a given operational intensity on a device —
/// the roofline curve itself. Used in reports.
pub fn attainable_gflops(oi: f64, device: &DeviceMetadata) -> f64 {
    (oi * device.mem_bw_gbps).min(device.peak_dp_gflops)
}

/// A kernel is *latency-bound* when its measured runtime is much larger
/// than both its bandwidth-bound and compute-bound time estimates: neither
/// resource is saturated, so the kernel is limited by dependency stalls and
/// poor overlap. The paper's Fluam case study (§6.2.2) shows such kernels
/// falsely appear memory-bound to the automated filter; the programmer-
/// guided filter uses this predicate to catch them.
pub fn is_latency_bound(perf: &PerfMetadata, device: &DeviceMetadata, slack: f64) -> bool {
    let bytes = (perf.dram_read_bytes + perf.dram_write_bytes) as f64;
    let mem_time_us = bytes / (device.mem_bw_gbps * 1e3); // GB/s → bytes/us
    let compute_time_us = perf.flops as f64 / (device.peak_dp_gflops * 1e3);
    perf.runtime_us > slack * mem_time_us.max(compute_time_us)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn perf(flops: u64, bytes: u64, runtime_us: f64) -> PerfMetadata {
        PerfMetadata {
            kernel: "k".into(),
            seq: 0,
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

    #[test]
    fn low_oi_is_memory_bound() {
        let d = device();
        // ridge = 1310/250 = 5.24 flop/byte
        let p = perf(1_000_000, 1_000_000, 100.0);
        assert_eq!(classify(&p, &d), RooflineRegion::MemoryBound);
    }

    #[test]
    fn high_oi_is_compute_bound() {
        let d = device();
        let p = perf(100_000_000, 1_000_000, 100.0);
        assert_eq!(classify(&p, &d), RooflineRegion::ComputeBound);
    }

    #[test]
    fn roofline_curve_saturates() {
        let d = device();
        assert!((attainable_gflops(1.0, &d) - 250.0).abs() < 1e-9);
        assert!((attainable_gflops(100.0, &d) - 1310.0).abs() < 1e-9);
    }

    #[test]
    fn latency_bound_detection() {
        let d = device();
        // mem time = 1e6 / 250e3 = 4us; compute trivial; runtime 40us
        let p = perf(1000, 1_000_000, 40.0);
        assert!(is_latency_bound(&p, &d, 4.0));
        let p2 = perf(1000, 1_000_000, 5.0);
        assert!(!is_latency_bound(&p2, &d, 4.0));
    }
}
