//! Pipeline configuration.

use sf_analysis::filter::FilterConfig;
use sf_codegen::{CodegenMode, TransformPlan};
use sf_core::FaultPlan;
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_search::SearchConfig;

/// The pipeline stages, in order (the paper's Figure 2 workflow). The
/// programmer can execute up to / from any stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub enum Stage {
    Metadata,
    Filter,
    Graphs,
    Search,
    NewGraphs,
    Codegen,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 6] = [
        Stage::Metadata,
        Stage::Filter,
        Stage::Graphs,
        Stage::Search,
        Stage::NewGraphs,
        Stage::Codegen,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Metadata => "metadata",
            Stage::Filter => "filter",
            Stage::Graphs => "graphs",
            Stage::Search => "search",
            Stage::NewGraphs => "new-graphs",
            Stage::Codegen => "codegen",
        }
    }
}

/// How the pipeline reacts to degradable failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Walk the degradation ladder (temporal fusion → spatial fusion →
    /// unfused copies → original program) and record each step, so a run
    /// always produces a valid result. The default.
    #[default]
    Degrade,
    /// Surface the first degradable failure as an error instead of
    /// degrading (for CI and debugging).
    Strict,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct PipelineConfig {
    pub device: DeviceSpec,
    /// Automated vs manual-oracle code generation.
    pub mode: CodegenMode,
    /// Enable the lazy-fission moves in the search (§4.1).
    pub enable_fission: bool,
    /// Tune thread-block sizes of generated kernels (§4.2).
    pub block_tuning: bool,
    pub filter: FilterConfig,
    pub search: SearchConfig,
    /// Profile with a functional run (exact flops/divergence) vs analytic.
    pub functional_profile: bool,
    /// Skip stage 1 and use this metadata bundle instead (the paper's
    /// "execute from a given stage" with programmer-amended metadata
    /// files). Launch costs are reconstructed from the bundle's runtimes.
    pub preloaded_metadata: Option<sf_analysis::metadata::MetadataBundle>,
    /// Replay this transform plan instead of running the analysis/search
    /// stages (2–5): codegen consumes the plan directly, so a run can be
    /// reproduced byte-for-byte without re-searching (`sfc --from-plan`).
    /// Rejected with a structured device-mismatch error when the plan's
    /// device fingerprint differs from [`Self::device`] — porting a plan
    /// across devices is the explicit [`Self::port_plan`] path instead.
    pub preloaded_plan: Option<TransformPlan>,
    /// Port this plan (emitted on some *other* device) to [`Self::device`]:
    /// the plan is raised to a genome over the new device's search space
    /// and elite-injected into a reduced-budget search
    /// (`SearchConfig::for_port`), re-running thread-block tuning and
    /// re-projection on the new device (`sfc --port-plan`).
    pub port_plan: Option<TransformPlan>,
    /// Verify the transformed program's output against the original.
    pub verify: bool,
    /// Stop after this stage (None = run to completion).
    pub run_until: Option<Stage>,
    /// Degrade-or-fail policy for recoverable errors.
    pub degrade: DegradePolicy,
    /// Measurement repetitions per profiling invocation, aggregated with
    /// median + MAD outlier rejection (1 = single-shot exact profile).
    pub profile_reps: u32,
    /// Synthetic measurement noise applied to profiled metrics (`None` =
    /// exact measurements). Seeded and fully deterministic.
    pub noise: Option<sf_gpusim::noise::NoiseModel>,
    /// Deterministic fault injection (testing only; `None` injects
    /// nothing). The pipeline's stages read it, and a batch driver arms its
    /// plan store with its `cache` section.
    pub faults: Option<FaultPlan>,
    /// Write a search checkpoint here at every migration epoch (at any
    /// island count). Deliberately *not* part of [`Self::cache_fingerprint`]:
    /// where a run checkpoints cannot change the plan it produces.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Resume the search from this checkpoint when it exists and verifies
    /// (`sfc --resume`). Also excluded from the cache fingerprint: a
    /// resumed run converges to the byte-identical plan.
    pub resume_path: Option<std::path::PathBuf>,
    /// Resource budgets enforced by the per-request governor: heap bytes,
    /// IR size, interpreter steps, search-space caps. The default is
    /// [`sf_core::Limits::unlimited`] (no admission checks, identical
    /// behavior to a pre-governor build); services pass
    /// [`sf_core::Limits::service`] or explicit caps (`sfc --mem-budget`,
    /// `sfd --mem-budget`). Part of the cache fingerprint: budgets steer
    /// the degradation ladder and therefore the plan.
    pub budget: sf_core::Limits,
}

impl PipelineConfig {
    /// The paper's fully automated configuration (fission + tuning on).
    pub fn automated(device: DeviceSpec) -> PipelineConfig {
        PipelineConfig {
            device,
            mode: CodegenMode::Auto,
            enable_fission: true,
            block_tuning: true,
            filter: FilterConfig::default(),
            search: SearchConfig::default(),
            functional_profile: true,
            verify: true,
            run_until: None,
            preloaded_metadata: None,
            preloaded_plan: None,
            port_plan: None,
            degrade: DegradePolicy::Degrade,
            profile_reps: 1,
            noise: None,
            faults: None,
            checkpoint_path: None,
            resume_path: None,
            budget: sf_core::Limits::unlimited(),
        }
    }

    /// Automated, with the scaled-down search used by tests and examples.
    pub fn quick(device: DeviceSpec) -> PipelineConfig {
        PipelineConfig {
            search: SearchConfig::quick(),
            ..PipelineConfig::automated(device)
        }
    }

    /// Fusion-only ablation (no fission moves).
    pub fn without_fission(mut self) -> PipelineConfig {
        self.enable_fission = false;
        self.search = self.search.without_fission();
        self
    }

    /// The parameters this run searches with: [`Self::search`] stamped
    /// with the run's codegen settings (`mode`, `block_tuning`) so the plan
    /// the search lowers reflects them, and with the fission rates zeroed
    /// when fission is off.
    pub fn search_config(&self) -> SearchConfig {
        let search = SearchConfig {
            mode: self.mode,
            block_tuning: self.block_tuning,
            ..self.search.clone()
        };
        if self.enable_fission {
            search
        } else {
            search.without_fission()
        }
    }

    /// Disable block tuning.
    pub fn without_tuning(mut self) -> PipelineConfig {
        self.block_tuning = false;
        self
    }

    /// Use the manual-oracle code generator (the paper's hand-fused
    /// comparison baseline).
    pub fn manual_oracle(mut self) -> PipelineConfig {
        self.mode = CodegenMode::Manual;
        self
    }

    /// Fail on the first degradable error instead of walking the ladder.
    pub fn strict(mut self) -> PipelineConfig {
        self.degrade = DegradePolicy::Strict;
        self
    }

    /// Arm the deterministic fault injector with a plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> PipelineConfig {
        self.faults = Some(plan);
        self
    }

    /// Replay a previously emitted transform plan (skips stages 2–5).
    pub fn with_plan(mut self, plan: TransformPlan) -> PipelineConfig {
        self.preloaded_plan = Some(plan);
        self
    }

    /// Port a plan emitted on another device to this configuration's
    /// device: elite-seeded, reduced-budget re-search plus fresh
    /// block tuning (see [`Self::port_plan`]).
    pub fn with_port_plan(mut self, plan: TransformPlan) -> PipelineConfig {
        self.port_plan = Some(plan);
        self.search = self.search.for_port();
        self
    }

    /// Profile with `reps` repetitions per invocation (robust aggregation).
    pub fn with_profile_reps(mut self, reps: u32) -> PipelineConfig {
        self.profile_reps = reps.max(1);
        self
    }

    /// Inject the standard seeded measurement-noise model (10% jitter, 5%
    /// outliers, dropped counters, transient repetition failures).
    pub fn with_noise_seed(mut self, seed: u64) -> PipelineConfig {
        self.noise = Some(sf_gpusim::noise::NoiseModel::standard(seed));
        self
    }

    /// The profiler a run prices with (before any repetition or noise):
    /// functional — the program executes on the interpreter, and measured
    /// flops and divergence are charged — or analytic.
    pub fn profiler(&self) -> Profiler {
        if self.functional_profile {
            Profiler::new(self.device.clone())
        } else {
            Profiler::analytic(self.device.clone())
        }
    }

    /// Allow the search to fold whole-loop fusion groups up to temporal
    /// degree `n` (1 = the default, temporal blocking disabled; the run is
    /// then decision-identical to a pre-temporal build).
    pub fn with_max_temporal(mut self, n: u32) -> PipelineConfig {
        self.search.max_temporal = n.max(1);
        self
    }

    /// Shard the search population across `n` supervised islands.
    pub fn with_islands(mut self, n: usize) -> PipelineConfig {
        self.search = self.search.with_islands(n);
        self
    }

    /// Checkpoint the search at every migration epoch.
    pub fn with_checkpoint(mut self, path: impl Into<std::path::PathBuf>) -> PipelineConfig {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Resume (and keep checkpointing) a killed search from `path`.
    pub fn with_resume(mut self, path: impl Into<std::path::PathBuf>) -> PipelineConfig {
        let path = path.into();
        self.resume_path = Some(path.clone());
        self.checkpoint_path = Some(path);
        self
    }

    /// Enforce these resource budgets (see [`Self::budget`]).
    pub fn with_budget(mut self, budget: sf_core::Limits) -> PipelineConfig {
        self.budget = budget;
        self
    }

    /// A stable fingerprint of every configuration field that can change
    /// the compiled plan — part of the material the plan cache hashes into
    /// its content-addressed key (together with the canonical source text
    /// and the cache/plan schema versions).
    ///
    /// Built from `Debug` renderings, which are deterministic for these
    /// plain-data types. The fingerprint deliberately over-approximates:
    /// a representational change (field rename, reordering) alters it and
    /// costs a spurious cache miss, while a wrong hit would require two
    /// *different* configurations to render identically — which is exactly
    /// what distinct `Debug` output rules out.
    ///
    /// The fault plan's store section is left out, for the reason that
    /// keeps [`Self::checkpoint_path`] out: a store fault cannot change the
    /// compiled plan. A plan with store faults only fingerprints as no
    /// plan, so a store armed with faults files its entries under the keys
    /// a fault-free run reads.
    pub fn cache_fingerprint(&self) -> String {
        let faults = self.faults.as_ref().map(|f| FaultPlan {
            cache: sf_core::CacheFaults::default(),
            ..f.clone()
        });
        let preloaded_metadata = self
            .preloaded_metadata
            .as_ref()
            .map(|m| serde_json::to_string(m).unwrap_or_else(|e| format!("unserializable: {e}")));
        let preloaded_plan = self.preloaded_plan.as_ref().map(|p| p.to_json());
        let port_plan = self.port_plan.as_ref().map(|p| p.to_json());
        format!(
            "device={};mode={:?};fission={};tuning={};filter={:?};search={:?};\
             functional={};verify={};until={:?};degrade={:?};reps={};\
             noise={:?};faults={:?};budget={:?};metadata={:?};plan={:?};port={:?}",
            self.device.fingerprint(),
            self.mode,
            self.enable_fission,
            self.block_tuning,
            self.filter,
            self.search,
            self.functional_profile,
            self.verify,
            self.run_until,
            self.degrade,
            self.profile_reps,
            self.noise,
            faults.filter(|f| !f.is_empty()),
            self.budget,
            preloaded_metadata,
            preloaded_plan,
            port_plan,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_order() {
        assert!(Stage::Metadata < Stage::Codegen);
        assert_eq!(Stage::ALL.len(), 6);
    }

    #[test]
    fn cache_fingerprint_separates_plan_relevant_fields() {
        let base = PipelineConfig::automated(DeviceSpec::k20x());
        let fp = base.cache_fingerprint();
        assert_eq!(
            fp,
            base.clone().cache_fingerprint(),
            "fingerprint is stable"
        );
        assert_ne!(fp, base.clone().without_tuning().cache_fingerprint());
        assert_ne!(fp, base.clone().without_fission().cache_fingerprint());
        assert_ne!(fp, base.clone().manual_oracle().cache_fingerprint());
        assert_ne!(fp, base.clone().with_noise_seed(7).cache_fingerprint());
        assert_ne!(fp, base.clone().strict().cache_fingerprint());
        let mut until = base.clone();
        until.run_until = Some(Stage::Search);
        assert_ne!(fp, until.cache_fingerprint());
        assert_ne!(
            fp,
            PipelineConfig::automated(DeviceSpec::k40()).cache_fingerprint()
        );
        // Island count changes the plan the search converges to → included.
        assert_ne!(fp, base.clone().with_islands(4).cache_fingerprint());
        // So does the temporal ceiling (it rides inside the search config).
        assert_ne!(fp, base.clone().with_max_temporal(4).cache_fingerprint());
        // The device part is the registry fingerprint: editing any
        // descriptor field (same name) invalidates cached plans.
        let mut edited = base.clone();
        edited.device.mem_bw_gbps += 1.0;
        assert_ne!(fp, edited.cache_fingerprint());
        // A port seed steers the search → included.
        let seed = TransformPlan::new(
            DeviceSpec::k20x(),
            CodegenMode::Auto,
            false,
            vec![sf_codegen::GroupPlan::singleton(
                sf_codegen::MemberRef::original(0),
            )],
        );
        assert_ne!(fp, base.clone().with_port_plan(seed).cache_fingerprint());
        // Budgets steer the degradation ladder → included.
        assert_ne!(
            fp,
            base.clone()
                .with_budget(sf_core::Limits::service())
                .cache_fingerprint()
        );
        // Checkpoint placement can never change the plan → excluded.
        assert_eq!(
            fp,
            base.clone()
                .with_checkpoint("/tmp/x.ckpt")
                .cache_fingerprint()
        );
        assert_eq!(
            fp,
            base.clone().with_resume("/tmp/x.ckpt").cache_fingerprint()
        );
    }

    /// The fault-free fingerprint, re-pinned when the profile retry count
    /// (`retries=`) and the search's `eval_retries` left it, and again when
    /// the filter's two thresholds became constants: a change here turns
    /// every cached plan into a miss. A plan with store faults only
    /// must fingerprint the same.
    #[test]
    fn fault_free_fingerprint_is_pinned() {
        const FAULT_FREE: &str = "device=k20x-4576dd2780694130;mode=Auto;fission=true;tuning=true;\
            filter=FilterConfig { detect_latency_bound: false };\
            search=SearchConfig { population: 100, generations: 500, \
            tournament: 3, elites: 4, crossover_rate: 0.7, p_merge: 0.5, p_split: 0.15, \
            p_move: 0.25, p_fission: 0.15, p_defission: 0.05, penalty_soft: 0.85, \
            penalty_hard: 0.4, init_merges: 3, seed: 20150615, stagnation_window: 0, \
            max_wall_ms: 0, max_evaluations: 0, mode: Auto, block_tuning: false, \
            islands: 1, migration_interval: 8, migrants: 2, max_temporal: 1 };\
            functional=true;verify=true;until=None;degrade=Degrade;reps=1;noise=None;\
            faults=None;budget=unlimited;metadata=None;plan=None;port=None";
        let base = PipelineConfig::automated(DeviceSpec::k20x());
        assert_eq!(base.cache_fingerprint(), FAULT_FREE);
        let store_only = FaultPlan {
            cache: sf_core::CacheFaults {
                bit_flip: Some(3),
                kill_at_step: Some(2),
                ..sf_core::CacheFaults::default()
            },
            ..FaultPlan::default()
        };
        assert_eq!(
            base.clone()
                .with_faults(store_only.clone())
                .cache_fingerprint(),
            FAULT_FREE
        );
        // A stage fault next to the store faults still changes the key.
        let staged = FaultPlan {
            interpreter_trap: true,
            ..store_only
        };
        assert_ne!(base.with_faults(staged).cache_fingerprint(), FAULT_FREE);
    }

    #[test]
    fn ablation_builders() {
        let c = PipelineConfig::automated(DeviceSpec::k20x()).without_fission();
        assert!(!c.enable_fission);
        assert_eq!(c.search.p_fission, 0.0);
        let c2 = PipelineConfig::automated(DeviceSpec::k20x()).manual_oracle();
        assert_eq!(c2.mode, CodegenMode::Manual);
    }
}
