//! The profiler: the framework's `nvprof` + instrumentation analog.
//!
//! Profiling a program produces the per-launch performance metadata and
//! operations metadata bundles of §3.2.1. A *functional* profile actually
//! executes the program on the simulator (one instrumented run, as in the
//! paper) to measure flops and warp divergence exactly — and that run's
//! final memory image is what the pipeline's verifier compares, so each
//! program executes once per compile; an analytic profile skips execution
//! and uses the static estimates (useful for large problem sizes).

use crate::device::DeviceSpec;
use crate::interp::{ExecError, Interpreter, LaunchStats};
use crate::memory::GlobalMemory;
use crate::timing::{LaunchCost, LaunchProfile, TimingModel};
use sf_analysis::access::{self, BoundTraffic, KernelAccess};
use sf_analysis::metadata::{MetadataBundle, OpsMetadata, PerfMetadata};
use sf_minicuda::ast::{Kernel, Program};
use sf_minicuda::host::{AllocInfo, Dim3, ExecutablePlan, LaunchRecord, ResolvedArg};
use std::collections::HashMap;

/// A structured profiling error: what failed and which kernel launch was
/// being measured (when known).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Kernel being profiled when the error occurred, if known.
    pub kernel: Option<String>,
    /// Static launch sequence number being profiled, if known.
    pub seq: Option<usize>,
}

impl ProfileError {
    /// A profiling error with no attribution yet.
    pub fn msg(message: impl Into<String>) -> ProfileError {
        ProfileError {
            message: message.into(),
            kernel: None,
            seq: None,
        }
    }

    /// Attach the kernel name the failure belongs to.
    pub fn for_kernel(mut self, kernel: impl Into<String>) -> ProfileError {
        self.kernel = Some(kernel.into());
        self
    }

    /// Attach the static launch sequence number the failure belongs to.
    pub fn at_seq(mut self, seq: usize) -> ProfileError {
        self.seq = Some(seq);
        self
    }
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "profile error: {}", self.message)?;
        match (&self.kernel, self.seq) {
            (Some(k), Some(seq)) => write!(f, " (kernel `{k}`, launch #{seq})"),
            (Some(k), None) => write!(f, " (kernel `{k}`)"),
            (None, Some(seq)) => write!(f, " (launch #{seq})"),
            (None, None) => Ok(()),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<ExecError> for ProfileError {
    /// A trap (an out-of-bounds access, a division by zero, an unknown
    /// kernel) and an exhausted step budget are both properties of the
    /// program: the same run fails the same way every time.
    fn from(e: ExecError) -> Self {
        ProfileError::msg(e.0)
    }
}

impl From<access::AccessError> for ProfileError {
    fn from(e: access::AccessError) -> Self {
        ProfileError::msg(e.0)
    }
}

/// The result of profiling a program on a device.
#[derive(Debug, Clone)]
pub struct ProgramProfile {
    /// The §3.2.1 metadata bundle (perf + ops + device).
    pub metadata: MetadataBundle,
    /// Per-static-launch modeled cost breakdowns.
    pub costs: Vec<LaunchCost>,
    /// Modeled end-to-end device time (costs weighted by repeat counts), µs.
    pub total_runtime_us: f64,
    /// Hazards reported by the functional run, if any.
    pub hazards: Vec<String>,
}

impl ProgramProfile {
    /// Modeled runtime of one static launch (single execution), µs.
    /// Returns `None` when `seq` is not a static launch of this profile.
    pub fn runtime_us(&self, seq: usize) -> Option<f64> {
        self.costs.get(seq).map(|c| c.total_us())
    }
}

/// Estimate registers per thread from kernel structure: a base cost plus
/// pressure from live array pointers, local scalars and shared tiles. This
/// reproduces the fused-kernel register-pressure effect that constrains
/// occupancy.
pub fn estimate_regs_per_thread(kernel: &Kernel, ka: &KernelAccess) -> u32 {
    let arrays = kernel.array_params().len() as u32;
    let locals = ka.local_decls as u32;
    let tiles = ka.shared_tiles.len() as u32;
    (16 + 2 * arrays + (3 * locals) / 2 + 2 * tiles).min(255)
}

/// What a launch is charged for beyond its shape: DRAM bytes, flops and
/// divergent branch evaluations per execution.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // fields carry the names of `LaunchProfile`'s
pub struct Charge {
    pub dram_bytes: u64,
    pub flops: u64,
    pub divergent_evals: u64,
}

/// One launch of one kernel, bound once and priced at any shape: the one
/// pricer behind both the profiler and the block tuner, so the two cannot
/// disagree. [`LaunchPricer::bind`] evaluates everything the shape leaves
/// fixed — the traffic binding, the latency-chain depth, the register
/// estimate — and [`LaunchPricer::cost`] answers the modelled cost of one
/// execution under any `(grid, block)` and shared-memory footprint.
#[derive(Debug, Clone)]
pub struct LaunchPricer<'m> {
    model: &'m TimingModel,
    traffic: BoundTraffic,
    depth: u64,
    regs: u32,
}

impl<'m> LaunchPricer<'m> {
    /// Bind a launch of `kernel` (analysed as `ka`) with `args`; `alloc_of`
    /// resolves the actual arrays.
    pub fn bind(
        model: &'m TimingModel,
        kernel: &Kernel,
        ka: &KernelAccess,
        args: &[ResolvedArg],
        alloc_of: &dyn Fn(&str) -> Option<AllocInfo>,
    ) -> Result<LaunchPricer<'m>, access::AccessError> {
        let traffic = BoundTraffic::bind(ka, kernel, args, alloc_of)?;
        Ok(LaunchPricer {
            model,
            depth: traffic.depth(),
            traffic,
            regs: estimate_regs_per_thread(kernel, ka),
        })
    }

    /// The bound traffic.
    pub fn traffic(&self) -> &BoundTraffic {
        &self.traffic
    }

    /// Estimated registers per thread of the kernel.
    pub fn regs_per_thread(&self) -> u32 {
        self.regs
    }

    /// Modelled cost of one execution under `grid` × `block` with `smem`
    /// bytes of shared memory per block, as an analytic profile charges it
    /// (estimated flops, no divergence). `None` when the shape cannot
    /// launch.
    pub fn cost(&self, grid: Dim3, block: Dim3, smem: usize) -> Option<LaunchCost> {
        let t = self.traffic.at(grid, block);
        let charged = Charge {
            dram_bytes: t.total_bytes(),
            flops: t.flops,
            divergent_evals: 0,
        };
        self.charge(grid, block, smem, charged)
    }

    /// Modelled cost of one execution under `grid` × `block` with `smem`
    /// bytes of shared memory per block, charged `charged`.
    pub fn charge(
        &self,
        grid: Dim3,
        block: Dim3,
        smem: usize,
        charged: Charge,
    ) -> Option<LaunchCost> {
        self.model.launch_cost(&LaunchProfile {
            dram_bytes: charged.dram_bytes,
            flops: charged.flops,
            blocks: grid.count(),
            threads_per_block: block.count() as u32,
            regs_per_thread: self.regs,
            smem_per_block: smem,
            divergent_evals: charged.divergent_evals,
            depth: self.depth,
        })
    }
}

/// The profiler.
#[derive(Debug, Clone)]
pub struct Profiler {
    /// The device to model.
    pub device: DeviceSpec,
    /// Run the program functionally (measured flops/divergence, hazard
    /// checks) in addition to the static analysis.
    pub functional: bool,
}

impl Profiler {
    /// Seed for the functional run's input data.
    pub const SEED: u64 = 42;

    /// A functional profiler on the given device.
    pub fn new(device: DeviceSpec) -> Profiler {
        Profiler {
            device,
            functional: true,
        }
    }

    /// Analytic-only profiler (no execution).
    pub fn analytic(device: DeviceSpec) -> Profiler {
        Profiler {
            device,
            functional: false,
        }
    }

    /// Profile a program: one instrumented run plus static analysis.
    pub fn profile(&self, program: &Program) -> Result<ProgramProfile, ProfileError> {
        let plan =
            ExecutablePlan::from_program(program).map_err(|e| ProfileError::msg(e.to_string()))?;
        self.profile_with_plan(program, &plan)
    }

    /// Profile with a pre-computed plan.
    pub fn profile_with_plan(
        &self,
        program: &Program,
        plan: &ExecutablePlan,
    ) -> Result<ProgramProfile, ProfileError> {
        self.profile_with_image(program, plan)
            .map(|(profile, _)| profile)
    }

    /// Profile with a pre-computed plan, handing back the final memory
    /// image of the functional run beside the profile (`None` for an
    /// analytic profile, which executes nothing). The run starts from
    /// `seed_all(Self::SEED)`, so the image and [`ProgramProfile::hazards`]
    /// are exactly what a verification run from the same seed would
    /// produce.
    pub fn profile_with_image(
        &self,
        program: &Program,
        plan: &ExecutablePlan,
    ) -> Result<(ProgramProfile, Option<GlobalMemory>), ProfileError> {
        // Optional functional run (exact flops + divergence + hazards).
        let mut measured: Option<Vec<LaunchStats>> = None;
        let mut hazards = Vec::new();
        let mut image = None;
        if self.functional {
            let mut mem = GlobalMemory::from_plan(plan);
            mem.seed_all(Self::SEED);
            let stats = Interpreter::new(program).run_plan(plan, &mut mem)?;
            for s in &stats {
                hazards.extend(s.hazards.iter().cloned());
            }
            measured = Some(stats);
            image = Some(mem);
        }
        // Occurrences of each static launch in the dynamic trace.
        let mut occurrences: Vec<u64> = vec![0; plan.launches.len()];
        for &seq in &plan.trace {
            occurrences[seq] += 1;
        }

        // Analyze each distinct kernel once.
        let mut analyses: HashMap<String, KernelAccess> = HashMap::new();
        for k in &program.kernels {
            analyses.insert(k.name.clone(), KernelAccess::analyze(k)?);
        }

        let alloc_of = |n: &str| plan.alloc(n).cloned();
        let mut perf = Vec::new();
        let mut ops = Vec::new();
        let mut costs = Vec::new();
        let mut total_us = 0.0;
        for launch in &plan.launches {
            let kernel = program.kernel(&launch.kernel).ok_or_else(|| {
                ProfileError::msg("unknown kernel")
                    .for_kernel(&launch.kernel)
                    .at_seq(launch.seq)
            })?;
            let stats = measured
                .as_ref()
                .map(|stats| (&stats[launch.seq], occurrences[launch.seq].max(1)));
            let ka = &analyses[&launch.kernel];
            let (p, o, cost) = self.profile_launch(kernel, ka, launch, &alloc_of, stats)?;
            total_us += p.runtime_us * launch.repeat as f64;
            perf.push(p);
            ops.push(o);
            costs.push(cost);
        }

        let profile = ProgramProfile {
            metadata: MetadataBundle {
                perf,
                ops,
                device: self.device.metadata(),
            },
            costs,
            total_runtime_us: total_us,
            hazards,
        };
        Ok((profile, image))
    }

    /// The metadata and modelled cost of one launch of `kernel` (analysed
    /// as `ka`), priced alone: `alloc_of` resolves its arrays, and
    /// `measured` carries the functional run's statistics with the
    /// launch's occurrence count (`None` charges the analytic estimate).
    pub fn profile_launch(
        &self,
        kernel: &Kernel,
        ka: &KernelAccess,
        launch: &LaunchRecord,
        alloc_of: &dyn Fn(&str) -> Option<AllocInfo>,
        measured: Option<(&LaunchStats, u64)>,
    ) -> Result<(PerfMetadata, OpsMetadata, LaunchCost), ProfileError> {
        let attribute = |e: ProfileError| e.for_kernel(&launch.kernel).at_seq(launch.seq);
        let model = TimingModel::new(self.device.clone());
        let pricer = LaunchPricer::bind(&model, kernel, ka, &launch.args, alloc_of)
            .map_err(|e| attribute(e.into()))?;
        let traffic = pricer.traffic().traffic(launch.grid, launch.block);
        let regs = pricer.regs_per_thread();
        let smem = ka.smem_bytes_per_block();

        // Measured or estimated divergence / flops.
        let (flops_exec, divergent_evals, div_fraction) = match measured {
            Some((s, occ)) => (
                s.flops / occ,
                s.divergent_evals / occ,
                s.divergence_fraction(),
            ),
            None => (traffic.flops, 0, 0.0),
        };
        let charged = Charge {
            dram_bytes: traffic.total_bytes(),
            flops: flops_exec,
            divergent_evals,
        };
        let cost = pricer
            .charge(launch.grid, launch.block, smem, charged)
            .ok_or_else(|| {
                attribute(ProfileError::msg(format!(
                    "launch cannot execute on {} (block {} with {} B shared, {} regs)",
                    self.device.name, launch.block, smem, regs
                )))
            })?;
        let runtime_us = cost.total_us();
        let perf = PerfMetadata {
            kernel: launch.kernel.clone(),
            seq: launch.seq,
            runtime_us,
            gflops: flops_exec as f64 / runtime_us.max(1e-12) / 1e3,
            eff_bw_gbps: traffic.total_bytes() as f64 / runtime_us.max(1e-12) / 1e3,
            smem_per_block: smem,
            regs_per_thread: regs,
            active_threads: launch.grid.count() * launch.block.count(),
            active_blocks_per_sm: cost.active_blocks_per_sm,
            occupancy: cost.occupancy,
            dram_read_bytes: traffic.read_bytes,
            dram_write_bytes: traffic.write_bytes,
            flops: flops_exec,
            divergent_evals,
            divergence: div_fraction,
            measure: Default::default(),
        };
        let ops = OpsMetadata {
            kernel: launch.kernel.clone(),
            seq: launch.seq,
            loop_sizes: pricer.traffic().loop_sizes().collect(),
            sites: traffic.sites,
            bytes_per_array: traffic
                .per_array
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        };
        Ok((perf, ops, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_minicuda::builder::{jacobi3d_kernel, simple_host};
    use sf_minicuda::Program;

    fn jacobi_program() -> Program {
        Program {
            kernels: vec![
                jacobi3d_kernel("step1", "u", "v"),
                jacobi3d_kernel("step2", "v", "w"),
            ],
            host: simple_host(
                &["u", "v", "w"],
                &[("step1", vec!["u", "v"]), ("step2", vec!["v", "w"])],
                (64, 32, 16),
                (16, 8),
            ),
        }
    }

    #[test]
    fn profiles_program() {
        let p = jacobi_program();
        let prof = Profiler::new(DeviceSpec::k20x());
        let out = prof.profile(&p).unwrap();
        assert_eq!(out.metadata.perf.len(), 2);
        assert_eq!(out.metadata.ops.len(), 2);
        assert!(out.total_runtime_us > 0.0);
        assert!(out.hazards.is_empty());
        let p0 = &out.metadata.perf[0];
        assert!(p0.runtime_us > 0.0);
        assert!(p0.occupancy > 0.0);
        assert!(p0.dram_read_bytes > 0);
        // Memory-bound stencil: OI well under the Kepler ridge (~5.2).
        assert!(p0.operational_intensity() < 5.0);
    }

    #[test]
    fn the_functional_run_hands_back_its_final_image() {
        let p = jacobi_program();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let prof = Profiler::new(DeviceSpec::k20x());
        let (profile, image) = prof.profile_with_image(&p, &plan).unwrap();
        let mut mem = GlobalMemory::from_plan(&plan);
        mem.seed_all(Profiler::SEED);
        Interpreter::new(&p).run_plan(&plan, &mut mem).unwrap();
        assert_eq!(
            image,
            Some(mem),
            "the image of a plain run from the profiler's seed"
        );
        let front = prof.profile_with_plan(&p, &plan).unwrap();
        assert_eq!(profile.metadata.perf, front.metadata.perf);
        let (_, none) = Profiler::analytic(DeviceSpec::k20x())
            .profile_with_image(&p, &plan)
            .unwrap();
        assert!(none.is_none(), "an analytic profile executes nothing");
    }

    #[test]
    fn the_pricer_charges_what_an_analytic_profile_does() {
        let p = jacobi_program();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let device = DeviceSpec::k20x();
        let profile = Profiler::analytic(device.clone()).profile(&p).unwrap();
        let model = TimingModel::new(device);
        let alloc_of = |n: &str| plan.alloc(n).cloned();
        for launch in &plan.launches {
            let kernel = p.kernel(&launch.kernel).unwrap();
            let ka = KernelAccess::analyze(kernel).unwrap();
            let pricer = LaunchPricer::bind(&model, kernel, &ka, &launch.args, &alloc_of).unwrap();
            let cost = pricer.cost(launch.grid, launch.block, ka.smem_bytes_per_block());
            assert_eq!(cost, Some(profile.costs[launch.seq]));
            // A block the device cannot launch has no price.
            let huge = Dim3::new(2048, 1, 1);
            assert_eq!(pricer.cost(launch.grid, huge, 0), None);
        }
    }

    #[test]
    fn runtime_lookup_is_total() {
        let out = Profiler::new(DeviceSpec::k20x())
            .profile(&jacobi_program())
            .unwrap();
        assert!(out.runtime_us(0).unwrap() > 0.0);
        assert!(out.runtime_us(1).unwrap() > 0.0);
        assert!(out.runtime_us(99).is_none());
    }

    #[test]
    fn profile_errors_carry_attribution() {
        let e = ProfileError::msg("boom").for_kernel("k").at_seq(3);
        assert_eq!(e.to_string(), "profile error: boom (kernel `k`, launch #3)");
        assert_eq!(
            ProfileError::msg("plain").to_string(),
            "profile error: plain"
        );
    }

    #[test]
    fn analytic_and_functional_agree_on_traffic() {
        let p = jacobi_program();
        let f = Profiler::new(DeviceSpec::k20x()).profile(&p).unwrap();
        let a = Profiler::analytic(DeviceSpec::k20x()).profile(&p).unwrap();
        for (pf, pa) in f.metadata.perf.iter().zip(&a.metadata.perf) {
            assert_eq!(pf.dram_read_bytes, pa.dram_read_bytes);
            assert_eq!(pf.dram_write_bytes, pa.dram_write_bytes);
        }
    }

    #[test]
    fn measured_flops_close_to_analytic() {
        let p = jacobi_program();
        let f = Profiler::new(DeviceSpec::k20x()).profile(&p).unwrap();
        let a = Profiler::analytic(DeviceSpec::k20x()).profile(&p).unwrap();
        for (pf, pa) in f.metadata.perf.iter().zip(&a.metadata.perf) {
            let ratio = pf.flops as f64 / pa.flops as f64;
            assert!(
                (0.8..1.25).contains(&ratio),
                "measured {} vs analytic {}",
                pf.flops,
                pa.flops
            );
        }
    }

    #[test]
    fn register_estimate_grows_with_kernel_size() {
        let k1 = jacobi3d_kernel("a", "u", "v");
        let ka1 = KernelAccess::analyze(&k1).unwrap();
        let r1 = estimate_regs_per_thread(&k1, &ka1);
        // A kernel with more arrays should estimate more registers.
        let src = r#"
__global__ void big(const double* __restrict__ a, const double* __restrict__ b,
                    const double* __restrict__ c, const double* __restrict__ d,
                    double* e, double* f, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      double t1 = a[k][j][i] + b[k][j][i];
      double t2 = c[k][j][i] + d[k][j][i];
      e[k][j][i] = t1 * t2;
      f[k][j][i] = t1 - t2;
    }
  }
}
"#;
        let k2 = sf_minicuda::parse_kernel(src).unwrap();
        let ka2 = KernelAccess::analyze(&k2).unwrap();
        let r2 = estimate_regs_per_thread(&k2, &ka2);
        assert!(r2 > r1);
    }
}
