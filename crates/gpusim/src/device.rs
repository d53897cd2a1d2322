//! Device descriptors for the simulated GPUs.
//!
//! Parameters follow the published Kepler datasheets (the two boards the
//! paper's evaluation uses) plus model knobs that have no hardware
//! counterpart (bandwidth-saturation occupancy, divergence weight). Every
//! device-dependent rule in the workspace — occupancy granularities,
//! warp/wavefront width, shared-memory caps, timing-model knobs — reads
//! these fields; nothing outside this struct may assume Kepler values.
//!
//! Descriptors are collected into a [`crate::registry::DeviceRegistry`]
//! and identified across plans and caches by [`DeviceSpec::fingerprint`].

use serde::{Deserialize, Serialize};
use sf_analysis::metadata::DeviceMetadata;
use sf_core::fnv1a64;

/// A simulated GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct DeviceSpec {
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    pub warp_size: u32,
    pub max_threads_per_sm: u32,
    pub max_blocks_per_sm: u32,
    pub max_threads_per_block: u32,
    /// Register file per SM (32-bit registers).
    pub regs_per_sm: u32,
    pub max_regs_per_thread: u32,
    /// Register allocation granularity per warp.
    pub reg_alloc_granularity: u32,
    /// Shared memory per SM, bytes (Kepler: 48 KiB in the largest split).
    pub smem_per_sm: usize,
    /// Maximum static shared memory per block, bytes.
    pub smem_per_block_max: usize,
    /// Shared memory allocation granularity, bytes.
    pub smem_alloc_granularity: usize,
    /// Peak double-precision throughput, GFLOPS.
    pub peak_dp_gflops: f64,
    /// Peak DRAM bandwidth, GB/s.
    pub mem_bw_gbps: f64,
    /// Kernel launch overhead, microseconds.
    pub launch_overhead_us: f64,
    /// Occupancy at which DRAM bandwidth saturates: below this, effective
    /// bandwidth scales down linearly (Kepler needs roughly half the
    /// maximum resident warps in flight to cover DRAM latency).
    pub bw_saturation_occupancy: f64,
    /// Fraction of peak effective bandwidth reachable by a fully-saturated
    /// kernel (ECC and DRAM inefficiency).
    pub bw_efficiency: f64,
    /// Seconds of execution per warp-instruction issue — the latency term
    /// that makes low-parallelism kernels latency-bound.
    pub issue_latency_us: f64,
    /// Unhidden DRAM round-trip latency per vertical iteration at zero
    /// occupancy, microseconds (timing-model knob).
    pub dram_latency_us: f64,
    /// Flop-equivalent cost charged per divergent warp-branch evaluation:
    /// the warp executes both paths, so roughly one re-issued statement per
    /// lane — wider wavefronts pay proportionally more.
    pub divergence_flop_cost: f64,
}

impl DeviceSpec {
    /// Tesla K20X (GK110): 14 SMs, 6 GB GDDR5 at 250 GB/s, 1.31 TFLOPS DP.
    pub fn k20x() -> DeviceSpec {
        DeviceSpec {
            name: "K20X".into(),
            sm_count: 14,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            reg_alloc_granularity: 256,
            smem_per_sm: 48 * 1024,
            smem_per_block_max: 48 * 1024,
            smem_alloc_granularity: 256,
            peak_dp_gflops: 1310.0,
            mem_bw_gbps: 250.0,
            launch_overhead_us: 6.0,
            bw_saturation_occupancy: 0.5,
            bw_efficiency: 0.75,
            issue_latency_us: 0.0009,
            dram_latency_us: 0.35,
            divergence_flop_cost: 256.0,
        }
    }

    /// Tesla K40 (GK110B): 15 SMs, 12 GB GDDR5 at 288 GB/s, 1.43 TFLOPS DP.
    pub fn k40() -> DeviceSpec {
        DeviceSpec {
            name: "K40".into(),
            sm_count: 15,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            reg_alloc_granularity: 256,
            smem_per_sm: 48 * 1024,
            smem_per_block_max: 48 * 1024,
            smem_alloc_granularity: 256,
            peak_dp_gflops: 1430.0,
            mem_bw_gbps: 288.0,
            launch_overhead_us: 6.0,
            bw_saturation_occupancy: 0.5,
            bw_efficiency: 0.75,
            issue_latency_us: 0.0009,
            dram_latency_us: 0.35,
            divergence_flop_cost: 256.0,
        }
    }

    /// AMD Hawaii-class accelerator (FirePro W9100 datasheet): 44 CUs,
    /// wavefront 64, 64 KiB LDS per CU with a 32 KiB per-workgroup cap,
    /// 2.62 TFLOPS DP, 320 GB/s. The wavefront-64 entry exercises every
    /// occupancy rule Kepler's warp-32 defaults would hide.
    pub fn hawaii() -> DeviceSpec {
        DeviceSpec {
            name: "Hawaii".into(),
            sm_count: 44,
            warp_size: 64,
            max_threads_per_sm: 2560, // 40 wavefronts × 64 lanes per CU
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            regs_per_sm: 262144, // 4 SIMDs × 256 VGPRs × 64 lanes
            max_regs_per_thread: 255,
            reg_alloc_granularity: 256, // 4 VGPRs per wavefront
            smem_per_sm: 64 * 1024,
            smem_per_block_max: 32 * 1024,
            smem_alloc_granularity: 512,
            peak_dp_gflops: 2620.0,
            mem_bw_gbps: 320.0,
            launch_overhead_us: 8.0,
            bw_saturation_occupancy: 0.5,
            bw_efficiency: 0.7,
            issue_latency_us: 0.0012,
            dram_latency_us: 0.4,
            divergence_flop_cost: 512.0, // both paths across 64 lanes
        }
    }

    /// Tesla V100 (GV100): 80 SMs, 96 KiB configurable shared memory,
    /// 7.8 TFLOPS DP, 900 GB/s HBM2 — the third occupancy data point, with
    /// block-slot and shared-memory limits unlike either Kepler board.
    pub fn v100() -> DeviceSpec {
        DeviceSpec {
            name: "V100".into(),
            sm_count: 80,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            reg_alloc_granularity: 256,
            smem_per_sm: 96 * 1024,
            smem_per_block_max: 96 * 1024,
            smem_alloc_granularity: 256,
            peak_dp_gflops: 7800.0,
            mem_bw_gbps: 900.0,
            launch_overhead_us: 4.0,
            bw_saturation_occupancy: 0.4,
            bw_efficiency: 0.8,
            issue_latency_us: 0.0005,
            dram_latency_us: 0.3,
            divergence_flop_cost: 256.0,
        }
    }

    /// Look up a built-in device by (case-insensitive) name. Thin wrapper
    /// over the built-in [`crate::registry::DeviceRegistry`]; callers that
    /// also want user descriptor files should hold a registry instead.
    pub fn by_name(name: &str) -> Option<DeviceSpec> {
        crate::registry::DeviceRegistry::builtin()
            .resolve(name)
            .ok()
    }

    /// Sanity-check a descriptor (user files arrive through here): every
    /// count nonzero, per-block caps within per-SM caps, ratio knobs in
    /// (0, 1], timing knobs positive where the model divides by them.
    pub fn validate(&self) -> Result<(), String> {
        let name = self.name.trim();
        if name.is_empty() {
            return Err("device name must be non-empty".into());
        }
        if name.chars().any(|c| c.is_whitespace()) {
            return Err(format!("device name `{name}` must not contain whitespace"));
        }
        let nonzero_u32 = [
            ("sm_count", self.sm_count),
            ("warp_size", self.warp_size),
            ("max_threads_per_sm", self.max_threads_per_sm),
            ("max_blocks_per_sm", self.max_blocks_per_sm),
            ("max_threads_per_block", self.max_threads_per_block),
            ("regs_per_sm", self.regs_per_sm),
            ("max_regs_per_thread", self.max_regs_per_thread),
            ("reg_alloc_granularity", self.reg_alloc_granularity),
        ];
        for (field, v) in nonzero_u32 {
            if v == 0 {
                return Err(format!("device `{name}`: {field} must be nonzero"));
            }
        }
        if self.smem_per_sm == 0 || self.smem_alloc_granularity == 0 {
            return Err(format!(
                "device `{name}`: shared-memory size and granularity must be nonzero"
            ));
        }
        if self.max_threads_per_block > self.max_threads_per_sm {
            return Err(format!(
                "device `{name}`: max_threads_per_block ({}) exceeds max_threads_per_sm ({})",
                self.max_threads_per_block, self.max_threads_per_sm
            ));
        }
        if !self.max_threads_per_sm.is_multiple_of(self.warp_size) {
            return Err(format!(
                "device `{name}`: max_threads_per_sm ({}) is not a multiple of warp_size ({})",
                self.max_threads_per_sm, self.warp_size
            ));
        }
        if self.smem_per_block_max > self.smem_per_sm {
            return Err(format!(
                "device `{name}`: smem_per_block_max ({}) exceeds smem_per_sm ({})",
                self.smem_per_block_max, self.smem_per_sm
            ));
        }
        let positive_f64 = [
            ("peak_dp_gflops", self.peak_dp_gflops),
            ("mem_bw_gbps", self.mem_bw_gbps),
            ("issue_latency_us", self.issue_latency_us),
        ];
        for (field, v) in positive_f64 {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "device `{name}`: {field} must be positive and finite"
                ));
            }
        }
        let nonneg_f64 = [
            ("launch_overhead_us", self.launch_overhead_us),
            ("dram_latency_us", self.dram_latency_us),
            ("divergence_flop_cost", self.divergence_flop_cost),
        ];
        for (field, v) in nonneg_f64 {
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "device `{name}`: {field} must be non-negative and finite"
                ));
            }
        }
        for (field, v) in [
            ("bw_saturation_occupancy", self.bw_saturation_occupancy),
            ("bw_efficiency", self.bw_efficiency),
        ] {
            if !v.is_finite() || v <= 0.0 || v > 1.0 {
                return Err(format!("device `{name}`: {field} must be in (0, 1]"));
            }
        }
        Ok(())
    }

    /// Stable identity of the descriptor: lowercase name plus a 64-bit
    /// FNV-1a over every model-relevant field, formatted canonically. Any
    /// edit to any field — including the timing knobs — changes the
    /// fingerprint, so plans and cache entries bound to the old descriptor
    /// invalidate cleanly.
    pub fn fingerprint(&self) -> String {
        let material = format!(
            "device-spec v2 name={} sm={} warp={} tsm={} bsm={} tblk={} regs={} maxreg={} \
             reggran={} smem={} smemblk={} smemgran={} gflops={:?} bw={:?} launch={:?} \
             sat={:?} eff={:?} issue={:?} dram={:?} div={:?}",
            self.name,
            self.sm_count,
            self.warp_size,
            self.max_threads_per_sm,
            self.max_blocks_per_sm,
            self.max_threads_per_block,
            self.regs_per_sm,
            self.max_regs_per_thread,
            self.reg_alloc_granularity,
            self.smem_per_sm,
            self.smem_per_block_max,
            self.smem_alloc_granularity,
            self.peak_dp_gflops,
            self.mem_bw_gbps,
            self.launch_overhead_us,
            self.bw_saturation_occupancy,
            self.bw_efficiency,
            self.issue_latency_us,
            self.dram_latency_us,
            self.divergence_flop_cost,
        );
        format!(
            "{}-{:016x}",
            self.name.to_ascii_lowercase(),
            fnv1a64(material.as_bytes())
        )
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Export the device-metadata "file" (§3.2.1, `deviceQuery` analog).
    pub fn metadata(&self) -> DeviceMetadata {
        DeviceMetadata {
            name: self.name.clone(),
            sm_count: self.sm_count,
            warp_size: self.warp_size,
            max_threads_per_sm: self.max_threads_per_sm,
            max_blocks_per_sm: self.max_blocks_per_sm,
            max_threads_per_block: self.max_threads_per_block,
            regs_per_sm: self.regs_per_sm,
            max_regs_per_thread: self.max_regs_per_thread,
            smem_per_sm: self.smem_per_sm,
            smem_per_block_max: self.smem_per_block_max,
            peak_dp_gflops: self.peak_dp_gflops,
            mem_bw_gbps: self.mem_bw_gbps,
            launch_overhead_us: self.launch_overhead_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kepler_parameters() {
        let d = DeviceSpec::k20x();
        assert_eq!(d.max_warps_per_sm(), 64);
        assert!(d.metadata().ridge_flop_per_byte() > 5.0);
        let d40 = DeviceSpec::k40();
        assert!(d40.mem_bw_gbps > d.mem_bw_gbps);
        assert!(d40.peak_dp_gflops > d.peak_dp_gflops);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(DeviceSpec::by_name("K20X").unwrap().sm_count, 14);
        assert_eq!(DeviceSpec::by_name("k40").unwrap().sm_count, 15);
        assert_eq!(DeviceSpec::by_name("Hawaii").unwrap().warp_size, 64);
        assert_eq!(DeviceSpec::by_name("v100").unwrap().sm_count, 80);
        assert!(DeviceSpec::by_name("h100").is_none());
    }

    #[test]
    fn builtins_validate() {
        for d in [
            DeviceSpec::k20x(),
            DeviceSpec::k40(),
            DeviceSpec::hawaii(),
            DeviceSpec::v100(),
        ] {
            d.validate().unwrap_or_else(|e| panic!("{}: {e}", d.name));
        }
    }

    #[test]
    fn validate_rejects_broken_descriptors() {
        let mut d = DeviceSpec::k20x();
        d.warp_size = 0;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::k20x();
        d.smem_per_block_max = d.smem_per_sm + 1;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::k20x();
        d.max_threads_per_block = d.max_threads_per_sm + 1;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::k20x();
        d.bw_efficiency = 1.5;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::k20x();
        d.name = "two words".into();
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::k20x();
        d.peak_dp_gflops = f64::NAN;
        assert!(d.validate().is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let d = DeviceSpec::k20x();
        assert_eq!(d.fingerprint(), DeviceSpec::k20x().fingerprint());
        assert!(d.fingerprint().starts_with("k20x-"));
        assert_ne!(d.fingerprint(), DeviceSpec::k40().fingerprint());
        // Editing *any* field — even a pure timing knob — changes identity.
        let mut edited = DeviceSpec::k20x();
        edited.dram_latency_us += 0.01;
        assert_ne!(d.fingerprint(), edited.fingerprint());
        let mut edited = DeviceSpec::k20x();
        edited.smem_alloc_granularity = 128;
        assert_ne!(d.fingerprint(), edited.fingerprint());
    }
}

#[cfg(test)]
mod metadata_tests {
    use super::*;

    #[test]
    fn metadata_exports_all_fields() {
        let d = DeviceSpec::k20x();
        let md = d.metadata();
        assert_eq!(md.sm_count, d.sm_count);
        assert_eq!(md.smem_per_block_max, d.smem_per_block_max);
        assert_eq!(md.peak_dp_gflops, d.peak_dp_gflops);
        assert_eq!(md.launch_overhead_us, d.launch_overhead_us);
    }

    #[test]
    fn k40_is_uniformly_faster() {
        // Both resources grow K20X → K40, so any launch should cost less.
        use crate::timing::{LaunchProfile, TimingModel};
        let p = LaunchProfile {
            dram_bytes: 50_000_000,
            flops: 20_000_000,
            blocks: 1024,
            threads_per_block: 256,
            regs_per_thread: 32,
            smem_per_block: 4096,
            divergent_evals: 100,
            depth: 16,
        };
        let t20 = TimingModel::new(DeviceSpec::k20x())
            .launch_cost(&p)
            .unwrap()
            .total_us();
        let t40 = TimingModel::new(DeviceSpec::k40())
            .launch_cost(&p)
            .unwrap()
            .total_us();
        assert!(t40 < t20, "K40 {t40} should beat K20X {t20}");
    }
}
