//! The staged transformation pipeline with programmer intervention points.
//!
//! The driver maintains an *always-valid* invariant: under the default
//! [`DegradePolicy::Degrade`] it returns either a verified transformed
//! program or the original program unchanged. Recoverable failures walk a
//! degradation ladder (temporal fusion → spatial fusion → unfused copies →
//! original program) and every step is recorded in the stage reports;
//! [`DegradePolicy::Strict`] surfaces the first degradable error instead.
//!
//! [`Pipeline::run_with`] is a loop over [`Stage::ALL`] calling one function
//! per stage, all of one signature, over one private run context (`Run`)
//! that owns everything a run threads between its stages. The loop — not
//! the stages — owns the stop check, the preloaded-plan skip of stages 2–5
//! and the single exit, `Run::finish`, the only place a
//! [`TransformResult`] is built.

use crate::config::{DegradePolicy, PipelineConfig, Stage};
use crate::error::{ErrorKind, PipelineError, Recoverability};
use crate::report::StageReport;
use crate::verify::{verify_executions, Execution, Side, Verification, VerifyFailure};
use sf_analysis::filter::{identify_targets, FilterDecision};
use sf_analysis::metadata::MetadataBundle;
use sf_codegen::{
    transform_program_with, CodegenError, GroupFailure, TransformOutput, TransformPlan,
};
use sf_core::{Accounted, FaultPlan, ResourceGovernor, ResourceKind};
use sf_gpusim::noise::NoiseModel;
use sf_gpusim::profiler::{ProfileError, Profiler, ProgramProfile};
use sf_gpusim::robust::{RobustProfile, RobustProfiler};
use sf_gpusim::{GlobalMemory, Interpreter};
use sf_graphs::{dot, Precedence};
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::Program;
use sf_search::{
    raise_plan, search_islands, IslandOptions, IslandSearchResult, SearchConfig, SearchResult,
    SearchSpace,
};
use std::borrow::Cow;
use std::sync::Arc;

/// An intervention hook amending one stage artifact in place.
pub type Hook<'a, T> = Option<Box<dyn Fn(&mut T) + 'a>>;

/// Programmer intervention hooks, applied to each stage's artifact before
/// the next stage consumes it (§3.2: "the programmer can intervene by
/// changing the output of any given stage before passing it to the next").
#[derive(Default)]
pub struct Interventions<'a> {
    /// Amend the metadata bundle after stage 1.
    pub amend_metadata: Hook<'a, MetadataBundle>,
    /// Amend the target-filter decisions after stage 2 (e.g. exclude the
    /// latency-bound Fluam kernels, §6.2.2).
    pub amend_decisions: Hook<'a, Vec<FilterDecision>>,
    /// Amend the lowered transform plan (the "new OEG") before code
    /// generation.
    pub amend_plan: Hook<'a, TransformPlan>,
}

/// The end-to-end result.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct TransformResult {
    /// The transformed program (equals the original if the pipeline stopped
    /// before codegen, or if a degradation kept the original).
    pub program: Program,
    /// Modeled end-to-end device time of the original program, µs.
    pub original_time_us: f64,
    /// Modeled time of the transformed program, µs.
    pub transformed_time_us: f64,
    /// `original / transformed` (1.0 when codegen did not run).
    pub speedup: f64,
    /// Output verification (when enabled and codegen ran).
    pub verification: Option<Verification>,
    /// Per-stage reports with inefficiency hints and degradations.
    pub reports: Vec<StageReport>,
    /// Stage artifacts.
    pub metadata: Option<MetadataBundle>,
    pub decisions: Vec<FilterDecision>,
    pub ddg_dot: String,
    pub oeg_dot: String,
    /// The new OEG (winning grouping rendered with fusion clusters).
    pub new_oeg_dot: String,
    pub search: Option<SearchResult>,
    pub transform: Option<TransformOutput>,
    /// Profiles of both programs (same profiler settings).
    pub original_profile: Option<ProgramProfile>,
    pub transformed_profile: Option<ProgramProfile>,
}

impl TransformResult {
    /// All degradations recorded across the stage reports, in stage order.
    pub fn degradations(&self) -> Vec<&crate::report::Degradation> {
        self.reports
            .iter()
            .flat_map(|r| r.degradations.iter())
            .collect()
    }

    /// The transform plan the search lowered, with the projection's
    /// annotations. `None` if the run stopped before the search or replayed
    /// a preloaded plan.
    pub fn planned(&self) -> Option<&TransformPlan> {
        self.search.as_ref().map(|s| &s.plan)
    }

    /// The as-executed plan: codegen's annotated copy (staged arrays, tuned
    /// blocks, observed precedence). `None` if codegen did not run.
    pub fn executed_plan(&self) -> Option<&TransformPlan> {
        self.transform.as_ref().map(|t| &t.plan)
    }
}

/// The pipeline driver.
#[derive(Debug)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct Pipeline {
    pub program: Program,
    pub plan: ExecutablePlan,
    pub config: PipelineConfig,
}

/// Sanity-check a metadata bundle before the analysis stages consume it.
fn validate_metadata(metadata: &MetadataBundle, launches: usize) -> Result<(), String> {
    if metadata.perf.len() != launches {
        return Err(format!(
            "metadata describes {} launches, program has {launches}",
            metadata.perf.len()
        ));
    }
    for p in &metadata.perf {
        if !p.runtime_us.is_finite() || p.runtime_us < 0.0 {
            return Err(format!(
                "kernel `{}` #{}: non-finite or negative runtime {:?} µs",
                p.kernel, p.seq, p.runtime_us
            ));
        }
        if !p.occupancy.is_finite() || p.occupancy < 0.0 {
            return Err(format!(
                "kernel `{}` #{}: invalid occupancy {:?}",
                p.kernel, p.seq, p.occupancy
            ));
        }
    }
    Ok(())
}

impl Pipeline {
    /// Create a pipeline for a program.
    pub fn new(program: Program, config: PipelineConfig) -> Result<Pipeline, PipelineError> {
        let plan = ExecutablePlan::from_program(&program)?;
        if plan.launches.is_empty() {
            return Err(PipelineError::fatal(
                Stage::Metadata,
                ErrorKind::Config("program has no kernel launches".into()),
            ));
        }
        Ok(Pipeline {
            program,
            plan,
            config,
        })
    }

    /// Fully automated run (no interventions).
    pub fn run(&self) -> Result<TransformResult, PipelineError> {
        self.run_with(&Interventions::default())
    }

    /// Run with programmer interventions: the paper's Figure-2 workflow as
    /// a loop. Three rules belong to the loop and to no stage:
    ///
    /// 1. **replay** — a preloaded plan stands in for stages 2–5 (they do
    ///    not run, so `run_until` cannot name one of them);
    /// 2. **stop** — the run ends after the stage `run_until` names;
    /// 3. **one exit** — however the run ends (ran to completion, stopped
    ///    early, or a keep-original rung fired), `Run::finish` builds the
    ///    result from the artifacts the context holds by then.
    pub fn run_with(&self, hooks: &Interventions) -> Result<TransformResult, PipelineError> {
        let mut run = Run::new(self, hooks);
        let mut kept_original = false;
        for stage in Stage::ALL {
            if let Some(plan) = &self.config.preloaded_plan {
                if (Stage::Filter..=Stage::NewGraphs).contains(&stage) {
                    if stage == Stage::NewGraphs {
                        run.replay(plan)?;
                    }
                    continue;
                }
            }
            let mut report = StageReport::new(stage);
            let next = match stage {
                Stage::Metadata => run.metadata(&mut report),
                Stage::Filter => run.filter(&mut report),
                Stage::Graphs => run.graphs(&mut report),
                Stage::Search => run.search(&mut report),
                Stage::NewGraphs => run.new_graphs(&mut report),
                Stage::Codegen => run.codegen(&mut report),
            }?;
            run.reports.push(report);
            kept_original = matches!(next, Next::KeepOriginal);
            if kept_original || self.config.run_until.is_some_and(|until| until <= stage) {
                break;
            }
        }
        Ok(run.finish(kept_original))
    }
}

/// What a stage tells the driver loop.
enum Next {
    /// The stage's artifacts are in the context; go on.
    Continue,
    /// The last rung of the ladder fired: everything learned so far is
    /// kept, but the emitted program is the unchanged original.
    KeepOriginal,
}

/// An artifact an earlier stage left in the context (the loop runs the
/// stages in order, so a missing one is a bug in the driver).
fn made<T>(artifact: &Option<T>) -> &T {
    artifact
        .as_ref()
        .expect("an earlier stage produced this artifact")
}

/// Everything one run threads between its stages: the run-scoped services
/// and the artifacts, as they appear.
struct Run<'a> {
    program: &'a Program,
    plan: &'a ExecutablePlan,
    cfg: &'a PipelineConfig,
    hooks: &'a Interventions<'a>,
    /// The run's fault plan. Each stage reads its own fields in place; the
    /// store section is the batch driver's, never read here.
    faults: FaultPlan,
    /// One request-scoped child of the process-wide governor per run.
    /// Every size this run is about to commit to is checked *before* the
    /// corresponding stage allocates or recurses, so a compile bomb
    /// (thousand-launch loop, near-u32::MAX domain, pathologically deep
    /// chain) is rejected with structured attribution instead of
    /// exhausting the process. With the default unlimited budget every
    /// check is a no-op.
    governor: Arc<ResourceGovernor>,
    /// Owns repetition, noise injection, retry with virtual backoff, and
    /// median+MAD aggregation. With one rep, no noise, and no injected rep
    /// failures it is a strict passthrough. Both programs are profiled
    /// through it, so the original/transformed comparison is apples to
    /// apples: both sides see the same measurement conditions.
    robust: RobustProfiler,
    reports: Vec<StageReport>,
    original_profile: Option<ProgramProfile>,
    /// The final memory image of the original's functional profile, kept
    /// for the verifier (see [`Run::keep_image`]) until verification ends
    /// or the run finishes.
    original_image: Option<Accounted<GlobalMemory>>,
    metadata: Option<MetadataBundle>,
    decisions: Vec<FilterDecision>,
    ddg_dot: String,
    oeg_dot: String,
    new_oeg_dot: String,
    /// Stage 3's precedence model — access sets, DDG, OEG — the one the
    /// search, the new OEG and code generation all read.
    precedence: Option<Precedence>,
    search: Option<SearchResult>,
    /// The plan codegen executes: lowered by the search (and possibly
    /// amended), or preloaded.
    tplan: Option<TransformPlan>,
    transform: Option<TransformOutput>,
    transformed_profile: Option<ProgramProfile>,
    verification: Option<Verification>,
}

impl<'a> Run<'a> {
    fn new(pipeline: &'a Pipeline, hooks: &'a Interventions<'a>) -> Run<'a> {
        let cfg = &pipeline.config;
        let faults = cfg.faults.clone().unwrap_or_default();
        let robust = RobustProfiler::new(
            cfg.profiler(),
            cfg.profile_reps,
            cfg.noise
                .clone()
                .or_else(|| faults.noise_seed.map(NoiseModel::standard)),
        )
        .with_forced_transients(faults.rep_failures);
        Run {
            program: &pipeline.program,
            plan: &pipeline.plan,
            cfg,
            hooks,
            faults,
            governor: ResourceGovernor::process().child(cfg.budget),
            robust,
            reports: Vec::new(),
            original_profile: None,
            original_image: None,
            metadata: None,
            decisions: Vec::new(),
            ddg_dot: String::new(),
            oeg_dot: String::new(),
            new_oeg_dot: String::new(),
            precedence: None,
            search: None,
            tplan: None,
            transform: None,
            transformed_profile: None,
            verification: None,
        }
    }

    /// The single exit. The transformed program is adopted only when
    /// codegen committed its artifacts and no keep-original rung fired;
    /// every other ending — stopped early, no profile, search budget gone,
    /// codegen or verification failed, transform modeled slower — returns
    /// the original program at the original's time with whatever artifacts
    /// exist by then.
    fn finish(self, kept_original: bool) -> TransformResult {
        let original_time = self
            .original_profile
            .as_ref()
            .map_or(0.0, |p| p.total_runtime_us);
        let (program, transformed_time, speedup) =
            match (&self.transform, &self.transformed_profile) {
                (Some(t), Some(p)) if !kept_original => {
                    let time = p.total_runtime_us;
                    (t.program.clone(), time, original_time / time.max(1e-12))
                }
                _ => (self.program.clone(), original_time, 1.0),
            };
        TransformResult {
            program,
            original_time_us: original_time,
            transformed_time_us: transformed_time,
            speedup,
            verification: self.verification,
            reports: self.reports,
            metadata: self.metadata,
            decisions: self.decisions,
            ddg_dot: self.ddg_dot,
            oeg_dot: self.oeg_dot,
            new_oeg_dot: self.new_oeg_dot,
            search: self.search,
            transform: self.transform,
            original_profile: self.original_profile,
            transformed_profile: self.transformed_profile,
        }
    }

    /// The one degrade-or-fail rule. A degradable failure is the run's
    /// error under [`DegradePolicy::Strict`]; under `Degrade` it is a
    /// recorded step down the ladder and the stage carries on at the lower
    /// rung.
    fn degrade_or_fail(
        &self,
        r: &mut StageReport,
        err: PipelineError,
        scope: &str,
        action: impl Into<String>,
        reason: impl Into<String>,
    ) -> Result<(), PipelineError> {
        self.fail_if_strict(err)?;
        r.degrade(scope, action, reason);
        Ok(())
    }

    /// The policy half of [`Self::degrade_or_fail`], for the one lower rung
    /// that is taken without a record.
    fn fail_if_strict(&self, err: PipelineError) -> Result<(), PipelineError> {
        match self.cfg.degrade {
            DegradePolicy::Strict => Err(err),
            DegradePolicy::Degrade => Ok(()),
        }
    }

    /// The last rung: record why and tell the loop to finish with the
    /// original program.
    fn fall_back_to_original(
        &self,
        r: &mut StageReport,
        err: PipelineError,
        what: &str,
        reason: String,
    ) -> Result<Next, PipelineError> {
        let action = format!("kept the original program ({what})");
        self.degrade_or_fail(r, err, "pipeline", action, reason)?;
        Ok(Next::KeepOriginal)
    }

    /// Admission: record a size this run is about to commit to, or reject
    /// the run — nothing has been built yet that a lower rung could keep.
    /// A level kind records its peak; a balance (interpreter steps) is
    /// charged, so the runs that follow draw on what is left.
    fn admit(&self, stage: Stage, kind: ResourceKind, n: u64) -> Result<(), PipelineError> {
        let admitted = if kind.is_level() {
            self.governor.record_peak(kind, n)
        } else {
            self.governor.charge(kind, n)
        };
        admitted.map_err(|e| PipelineError {
            class: Recoverability::Fatal,
            ..PipelineError::from(e).at(stage)
        })
    }

    /// The interpreter steps profiling `plan` executes: its static count
    /// under a functional profile, none under an analytic one.
    fn profile_steps(&self, plan: &ExecutablePlan) -> u64 {
        if self.cfg.functional_profile {
            Interpreter::plan_steps(plan)
        } else {
            0
        }
    }

    /// Keep a functional profile's final memory image for the verifier,
    /// held as an accounted `heap-bytes` charge. Nothing is kept when
    /// verification is off, and an image the budget has no room for is
    /// simply dropped: the verifier then executes that side itself.
    fn keep_image(
        &self,
        image: Option<GlobalMemory>,
        plan: &ExecutablePlan,
    ) -> Option<Accounted<GlobalMemory>> {
        let image = image.filter(|_| self.cfg.verify)?;
        let bytes = GlobalMemory::plan_bytes(plan);
        Accounted::new(image, &self.governor, ResourceKind::HeapBytes, bytes).ok()
    }

    /// Profile once. A profile is a pure function of the program and the
    /// run's fault plan — a trap, an unlaunchable configuration or the
    /// robust profiler's lost repetitions come out the same on every call —
    /// so nothing retries it. Without a profile the only valid result is
    /// the original program: `Ok(None)` is that keep-original rung,
    /// recorded in `r`.
    fn profile(
        &self,
        r: &mut StageReport,
        what: &str,
        profile: impl FnOnce() -> Result<RobustProfile, ProfileError>,
    ) -> Result<Option<RobustProfile>, PipelineError> {
        match profile() {
            Ok(profiled) => Ok(Some(profiled)),
            Err(e) => {
                let err = PipelineError::from(e).at(r.stage);
                let why = err.to_string();
                self.fall_back_to_original(r, err, what, why).map(|_| None)
            }
        }
    }

    /// Close `r` into the run's reports and start a fresh one for the same
    /// stage (the search stage writes up to three).
    fn seal(&mut self, r: &mut StageReport) {
        let fresh = StageReport::new(r.stage);
        self.reports.push(std::mem::replace(r, fresh));
    }

    // ---------------- stage 1: metadata ----------------
    fn metadata(&mut self, r: &mut StageReport) -> Result<Next, PipelineError> {
        let (program, plan, cfg) = (self.program, self.plan, self.cfg);
        self.admit(r.stage, ResourceKind::Launches, plan.trace.len() as u64)?;
        self.admit(
            r.stage,
            ResourceKind::IrStatements,
            program.statement_count(),
        )?;
        let cells = sf_gpusim::GlobalMemory::plan_cells(plan);
        self.admit(r.stage, ResourceKind::DomainCells, cells)?;

        let original_profile = match &cfg.preloaded_metadata {
            // "Execute from" the metadata stage: trust the (possibly
            // programmer-amended) bundle and reconstruct the end-to-end
            // time from its per-launch runtimes.
            Some(bundle) => {
                // Checked at the door: the ladder's restore below falls
                // back to this same bundle, so no policy can absorb a bad
                // one.
                validate_metadata(bundle, plan.launches.len()).map_err(|why| {
                    let why = format!("preloaded metadata: {why}");
                    PipelineError::fatal(Stage::Metadata, ErrorKind::Config(why))
                })?;
                let total: f64 = bundle
                    .perf
                    .iter()
                    .zip(&plan.launches)
                    .map(|(p, l)| p.runtime_us * l.repeat as f64)
                    .sum();
                ProgramProfile {
                    metadata: bundle.clone(),
                    costs: Vec::new(),
                    total_runtime_us: total,
                    hazards: Vec::new(),
                }
            }
            None => {
                // Profiling executes the program, and its step count is
                // static: a grid no budget could finish is turned away
                // here rather than discovered by running it. (A preloaded
                // bundle, the other arm, executes nothing.)
                let steps = self.profile_steps(plan);
                self.admit(r.stage, ResourceKind::InterpreterSteps, steps)?;
                let profile = || self.robust.profile_with_plan(program, plan);
                let Some(rp) = self.profile(r, "no profile available", profile)? else {
                    return Ok(Next::KeepOriginal);
                };
                if self.robust.is_active() {
                    r.line(format!(
                        "robust profiling: {} repetition(s), {} lost, \
                         {} transient rep failure(s) retried ({} µs virtual backoff)",
                        rp.reps, rp.lost_reps, rp.transient_failures, rp.virtual_backoff_us
                    ));
                    let (stable, noisy, unreliable) = rp.confidence_counts();
                    r.line(format!(
                        "measurement confidence: {stable} stable, {noisy} noisy, \
                         {unreliable} unreliable"
                    ));
                    if unreliable > 0 {
                        r.hint(format!(
                            "{unreliable} launch(es) with unreliable measurements \
                             will be quarantined from the fusion space"
                        ));
                    }
                }
                self.original_image = self.keep_image(rp.image, plan);
                rp.profile
            }
        };
        let mut metadata = original_profile.metadata.clone();
        if let Some(f) = &self.hooks.amend_metadata {
            f(&mut metadata);
        }
        let corrupted_by_injection = self.faults.corrupt_metadata;
        if corrupted_by_injection {
            for p in &mut metadata.perf {
                p.runtime_us = f64::NAN;
                p.occupancy = -1.0;
            }
        }
        if let Err(why) = validate_metadata(&metadata, plan.launches.len()) {
            let kind = if corrupted_by_injection {
                ErrorKind::Injected(why.clone())
            } else {
                ErrorKind::Config(why.clone())
            };
            self.degrade_or_fail(
                r,
                PipelineError::degradable(Stage::Metadata, kind),
                "metadata bundle",
                "discarded corrupt metadata; restored the profiled bundle",
                why,
            )?;
            // Discard the corrupt amendments and restore the bundle the
            // profiler produced.
            metadata = original_profile.metadata.clone();
            validate_metadata(&metadata, plan.launches.len())
                .map_err(|bad| PipelineError::fatal(Stage::Metadata, ErrorKind::Config(bad)))?;
        }
        r.line(format!(
            "{} kernel invocations profiled on {}; modeled device time {:.1} µs",
            metadata.perf.len(),
            metadata.device.name,
            original_profile.total_runtime_us
        ));
        for h in &original_profile.hazards {
            r.hint(format!("hazard in original program: {h}"));
        }
        self.metadata = Some(metadata);
        self.original_profile = Some(original_profile);
        Ok(Next::Continue)
    }

    /// Stages 2–5 lower the winning grouping to a transform plan; a
    /// preloaded plan replays straight into codegen instead, so a prior run
    /// can be reproduced without re-searching.
    fn replay(&mut self, pplan: &TransformPlan) -> Result<(), PipelineError> {
        pplan.validate(self.plan.launches.len()).map_err(|e| {
            PipelineError::fatal(Stage::NewGraphs, ErrorKind::Config(e.to_string()))
        })?;
        // Replaying a plan on a different device would silently project
        // and codegen with the wrong device model; reject it as a
        // structured mismatch (the port path re-targets explicitly).
        let configured = self.cfg.device.fingerprint();
        if pplan.device_fingerprint != configured {
            return Err(PipelineError::fatal(
                Stage::NewGraphs,
                ErrorKind::DeviceMismatch {
                    plan: pplan.device_fingerprint.clone(),
                    configured,
                },
            ));
        }
        let mut r = StageReport::new(Stage::NewGraphs);
        r.line(format!(
            "replaying preloaded transform plan: {}",
            pplan.summary()
        ));
        self.reports.push(r);
        self.tplan = Some(pplan.clone());
        Ok(())
    }

    // ---------------- stage 2: filter ----------------
    fn filter(&mut self, r: &mut StageReport) -> Result<Next, PipelineError> {
        let metadata = made(&self.metadata);
        let mut decisions = identify_targets(
            &metadata.perf,
            &metadata.ops,
            &metadata.device,
            &self.cfg.filter,
        );
        if let Some(f) = &self.hooks.amend_decisions {
            f(&mut decisions);
            // One decision per launch is what every later stage indexes by.
            if decisions.len() != self.plan.launches.len() {
                return Err(PipelineError::fatal(
                    Stage::Filter,
                    ErrorKind::Config(format!(
                        "amended filter decisions describe {} launches, program has {}",
                        decisions.len(),
                        self.plan.launches.len()
                    )),
                ));
            }
        }
        let targets = decisions.iter().filter(|d| d.is_target()).count();
        r.line(format!(
            "{targets} of {} invocations are fusion targets",
            decisions.len()
        ));
        for d in &decisions {
            if !d.is_target() {
                r.line(format!(
                    "excluded {}#{}: {:?} (OI {:.3})",
                    d.kernel, d.seq, d.reason, d.oi
                ));
            }
        }
        // Inefficiency hint: suspiciously slow memory-bound kernels.
        for (d, p) in decisions.iter().zip(&metadata.perf) {
            if d.is_target() && sf_analysis::roofline::is_latency_bound(p, &metadata.device, 4.0) {
                r.hint(format!(
                    "{}#{} may be latency-bound (runtime far above roofline bound); \
                         consider excluding it in guided mode",
                    d.kernel, d.seq
                ));
            }
        }
        self.decisions = decisions;
        Ok(Next::Continue)
    }

    // ---------------- stage 3: graphs ----------------
    fn graphs(&mut self, r: &mut StageReport) -> Result<Next, PipelineError> {
        let precedence = Precedence::build(self.program, self.plan)
            .map_err(|e| PipelineError::fatal(Stage::Graphs, ErrorKind::Graph(e)))?;
        let Precedence { ddg, oeg, .. } = &precedence;
        let name_of = |seq: usize| oeg.kernels[seq].clone();
        self.ddg_dot = dot::ddg_to_dot(ddg, &name_of);
        self.oeg_dot = dot::oeg_to_dot(&oeg.transitive_reduction(), None);
        // Longest precedence chain in the OEG (in launches). Edges run
        // i < j, so ascending key order is already topological for the
        // DP; a hostile deep-chain program trips the budget here,
        // before the search builds a space over it.
        let precedence_depth = {
            let mut depth = vec![1u64; oeg.len()];
            for &(i, j) in oeg.edges.keys() {
                depth[j] = depth[j].max(depth[i] + 1);
            }
            depth.into_iter().max().unwrap_or(0)
        };
        self.admit(r.stage, ResourceKind::PrecedenceDepth, precedence_depth)?;
        r.line(format!(
            "longest precedence chain: {precedence_depth} launch(es)"
        ));
        r.line(format!(
            "DDG: {} kernel nodes, {} array nodes, {} edges; OEG: {} edges",
            ddg.kernel_count(),
            ddg.array_count(),
            ddg.edges.len(),
            oeg.edges.len()
        ));
        r.line(format!(
            "{} array sharing sets",
            ddg.array_sharing_sets().len()
        ));
        for line in &ddg.report {
            r.line(format!("graph optimization: {line}"));
        }
        self.precedence = Some(precedence);
        Ok(Next::Continue)
    }

    /// Governed search admission: exhaustion here walks its own rungs of
    /// the degradation ladder instead of failing — rung 1 shrinks the GA
    /// budget, rung 2 reduces the search to one island and halves the
    /// population, rung 3 (`None`) skips the search entirely. Returns the
    /// population bytes charged while the search runs.
    fn admit_search(
        &self,
        r: &mut StageReport,
        search_cfg: &mut SearchConfig,
    ) -> Result<Option<u64>, PipelineError> {
        let budget = |e: sf_core::ResourceError| {
            let reason = e.to_string();
            (PipelineError::from(e).at(Stage::Search), reason)
        };
        let targets = self.decisions.iter().filter(|d| d.is_target()).count() as u64;
        // 2^(t-1) ordered chains is a cheap lower bound on the grouping
        // space over t fusion targets — when even the bound blows the
        // cap, the configured GA budget is oversized for this scope.
        let candidate_estimate = 1u64 << targets.saturating_sub(1).min(63);
        match self
            .governor
            .would_exceed(ResourceKind::CandidateSet, candidate_estimate)
        {
            Some(e) => {
                let (err, reason) = budget(e);
                let before = (
                    search_cfg.population,
                    search_cfg.generations,
                    search_cfg.max_evaluations,
                );
                search_cfg.population = search_cfg.population.min(16);
                search_cfg.generations = search_cfg.generations.min(8);
                search_cfg.max_evaluations = search_cfg.max_evaluations.min(256);
                let shrunk = format!(
                    "shrank the GA budget: population {} → {}, generations {} → {}, \
                     max evaluations {} → {}",
                    before.0,
                    search_cfg.population,
                    before.1,
                    search_cfg.generations,
                    before.2,
                    search_cfg.max_evaluations
                );
                self.degrade_or_fail(r, err, "search budget", shrunk, reason)?;
            }
            None => {
                let _ = self
                    .governor
                    .record_peak(ResourceKind::CandidateSet, candidate_estimate);
            }
        }
        // Rung 2: estimated resident population bytes across islands. Only
        // giving up islands is a recorded step; halving the population of
        // a one-island search is not.
        let genome_bytes = 48u64 * self.plan.launches.len() as u64;
        let over = |cfg: &SearchConfig| {
            let bytes = cfg.population as u64 * genome_bytes * cfg.islands.max(1) as u64;
            (
                bytes,
                self.governor
                    .would_exceed(ResourceKind::PopulationBytes, bytes),
            )
        };
        if let (_, Some(e)) = over(search_cfg) {
            let (err, reason) = budget(e);
            if search_cfg.islands > 1 {
                let one_island = format!(
                    "reduced the search to one island ({} islands → 1)",
                    search_cfg.islands
                );
                self.degrade_or_fail(r, err, "search budget", one_island, reason)?;
                search_cfg.islands = 1;
            } else {
                self.fail_if_strict(err)?;
            }
            while search_cfg.population > 8 && over(search_cfg).1.is_some() {
                search_cfg.population /= 2;
            }
        }
        // Rung 3: even the minimum viable search exceeds the budget.
        let (bytes, exceeded) = over(search_cfg);
        if let Some(e) = exceeded {
            let (err, reason) = budget(e);
            self.fall_back_to_original(r, err, "search budget exhausted", reason)?;
            return Ok(None);
        }
        self.governor
            .charge(ResourceKind::PopulationBytes, bytes)
            .map_err(|e| PipelineError::from(e).at(Stage::Search))?;
        Ok(Some(bytes))
    }

    // ---------------- stage 4: search ----------------
    fn search(&mut self, r: &mut StageReport) -> Result<Next, PipelineError> {
        let (program, plan, cfg) = (self.program, self.plan, self.cfg);
        // The search consumes the (possibly programmer-amended) metadata.
        let space = match SearchSpace::from_precedence(
            program,
            plan,
            made(&self.metadata),
            &self.decisions,
            cfg.device.clone(),
            made(&self.precedence),
        ) {
            Ok(space) => space,
            // The fission pre-step prices each product alone; a product
            // the profiler cannot price keeps the original.
            Err(e) => {
                let err = PipelineError::from(e).at(Stage::Search);
                let why = err.to_string();
                return self.fall_back_to_original(r, err, "no search space", why);
            }
        };
        let mut search_cfg = cfg.search_config();
        let Some(population_bytes) = self.admit_search(r, &mut search_cfg)? else {
            return Ok(Next::KeepOriginal);
        };
        if !r.degradations.is_empty() {
            self.seal(r);
        }
        // Plan-port seeding: raise the source plan's grouping onto this
        // device's search space (repairing anything infeasible here) and
        // inject it into the initial population as an elite.
        let mut seeds = Vec::new();
        if let Some(port) = &cfg.port_plan {
            port.validate(plan.launches.len()).map_err(|e| {
                PipelineError::fatal(Stage::Search, ErrorKind::Config(e.to_string()))
            })?;
            let seed = raise_plan(&space, port);
            r.line(format!(
                "porting plan from device `{}`: seeded search with its raised genome \
                 ({} fusion groups)",
                port.device_fingerprint,
                seed.groups().len()
            ));
            self.seal(r);
            seeds.push(seed);
        }
        // One driver for every run: `islands = 1` is the classic serial
        // GGA, under the same supervision, budgets and checkpointing.
        let opts = IslandOptions {
            faults: self.faults.clone(),
            checkpoint_path: cfg.checkpoint_path.clone(),
            resume_path: cfg.resume_path.clone(),
            seeds,
        };
        let supervised = search_islands(&space, &search_cfg, &opts);
        // The population is resident only while the search runs.
        self.governor
            .credit(ResourceKind::PopulationBytes, population_bytes);
        self.report_search(r, &supervised)?;
        self.search = Some(supervised.result);
        Ok(Next::Continue)
    }

    fn report_search(
        &self,
        r: &mut StageReport,
        supervised: &IslandSearchResult,
    ) -> Result<(), PipelineError> {
        let result = &supervised.result;
        r.line(format!(
            "GGA ran {} generations, {} evaluations; projection {:.2} → {:.2} GFLOPS",
            result.generations_run, result.evaluations, result.baseline_gflops, result.best_gflops
        ));
        r.line(format!(
            "{} fusion groups; {:.3} fissions per generation; stop reason: {}",
            result.best.fusion_groups().len(),
            result.fissions_per_generation,
            result.stop_reason.name()
        ));
        let greedy = &result.greedy;
        r.line(format!(
            "greedy seed: {} groups, {:.2} µs projected; the winner is {:+.2}% over it",
            greedy.individual.groups().len(),
            greedy.time_us,
            (result.best_gflops / greedy.gflops - 1.0) * 100.0
        ));
        r.line(format!("lowered plan: {}", result.plan.summary()));
        r.line(format!(
            "projection cache: {} hits / {} misses ({:.1}% hit rate, {} distinct groups)",
            result.projection.hits,
            result.projection.misses,
            result.projection.hit_rate() * 100.0,
            result.projection.entries
        ));
        if result.best_gflops <= result.baseline_gflops * 1.001 {
            r.hint("search found no grouping better than the original program");
        }
        r.line(format!(
            "supervised island search: {} island(s), {} epoch(s), \
             {} checkpoint(s) written",
            supervised.islands, supervised.epochs_run, supervised.checkpoints_written
        ));
        if let Some(e) = supervised.resumed_from_epoch {
            r.line(format!("resumed from the epoch-{e} checkpoint"));
        }
        if let Some(e) = supervised.killed_at_epoch {
            r.line(format!("stopped by an injected kill after epoch {e}"));
        }
        let panic = |what: String| PipelineError::degradable(Stage::Search, ErrorKind::Panic(what));
        for d in &supervised.degradations {
            let err = panic(format!("{}: {} ({})", d.scope, d.action, d.reason));
            self.degrade_or_fail(r, err, &d.scope, d.action.clone(), d.reason.clone())?;
        }
        if result.poisoned_evaluations > 0 {
            let n = result.poisoned_evaluations;
            self.degrade_or_fail(
                r,
                panic(format!(
                    "{n} candidate evaluation(s) panicked and were scored as poisoned"
                )),
                "candidate evaluations",
                format!("scored {n} poisoned candidate(s) with penalty fitness"),
                "objective evaluation panicked (caught at the isolation boundary)",
            )?;
        }
        Ok(())
    }

    // ---------------- stage 5: new graphs ----------------
    fn new_graphs(&mut self, r: &mut StageReport) -> Result<Next, PipelineError> {
        let launches = self.plan.launches.len();
        let mut tplan = made(&self.search).plan.clone();
        if let Some(f) = &self.hooks.amend_plan {
            f(&mut tplan);
            tplan.validate(launches).map_err(|e| {
                PipelineError::fatal(Stage::NewGraphs, ErrorKind::Config(e.to_string()))
            })?;
        }
        // Render the new OEG: original nodes with fusion clusters.
        let mut group_of: Vec<usize> = (0..launches).collect();
        for (gi, g) in tplan.groups.iter().enumerate() {
            for m in &g.members {
                group_of[m.seq] = launches + gi;
            }
        }
        let oeg = &made(&self.precedence).oeg;
        self.new_oeg_dot = dot::oeg_to_dot(&oeg.transitive_reduction(), Some(&group_of));
        r.line(format!(
            "new program: {} launches ({} in the original)",
            tplan.groups.len(),
            launches
        ));
        self.tplan = Some(tplan);
        Ok(Next::Continue)
    }

    // ---------------- stage 6: codegen ----------------
    fn codegen(&mut self, r: &mut StageReport) -> Result<Next, PipelineError> {
        // Instance numbering is stage 3's. A replay ran no stage 3, so it
        // builds that half of the artifact (and no OEG, which it never reads).
        let instances = match &self.precedence {
            Some(precedence) => Ok(Cow::Borrowed(&precedence.ddg)),
            None => Precedence::instances(self.program, self.plan)
                .map(Cow::Owned)
                .map_err(CodegenError),
        };
        let transform = instances.and_then(|instances| {
            let tplan = made(&self.tplan);
            transform_program_with(self.program, self.plan, tplan, &instances, &self.faults)
        });
        let transform = match transform {
            Ok(t) => t,
            Err(e) => {
                let err = PipelineError::from(e);
                let why = err.to_string();
                return self.fall_back_to_original(r, err, "code generation failed", why);
            }
        };
        // A plan the search lowered never degrades to unfused: the search
        // prices a group codegen would refuse as unfusable. Only an amended
        // plan or an injected codegen fault takes the bottom rung.
        let faults = &self.faults;
        let injected = !faults.reject_groups.is_empty() || !faults.panic_groups.is_empty();
        debug_assert!(
            self.search.is_none()
                || self.hooks.amend_plan.is_some()
                || injected
                || transform.unfused().next().is_none(),
            "codegen emitted groups of a search-lowered plan unfused: {:?}",
            transform.degradations
        );
        // Per-group degradation-ladder steps recorded by the generator.
        for d in &transform.degradations {
            let kind = match d.failure {
                GroupFailure::Panicked => ErrorKind::Panic(d.reason.clone()),
                GroupFailure::Rejected => ErrorKind::Codegen(CodegenError(d.reason.clone())),
            };
            self.degrade_or_fail(
                r,
                PipelineError::degradable(Stage::Codegen, kind).for_group(d.group),
                &format!("group {}", d.group),
                d.action.clone(),
                d.reason.clone(),
            )?;
        }

        // The re-profile executes the transformed program, so its steps are
        // charged first; a budget the stage-1 profile left too little of
        // keeps the original, as an exhausted verification does.
        let tplan = ExecutablePlan::from_program(&transform.program)
            .map_err(|e| ProfileError::msg(e.to_string()));
        let steps = tplan.as_ref().map_or(0, |tplan| self.profile_steps(tplan));
        if let Err(e) = self.governor.charge(ResourceKind::InterpreterSteps, steps) {
            let why = e.to_string();
            let err = PipelineError::from(e).at(Stage::Codegen);
            return self.fall_back_to_original(r, err, "re-profile budget exhausted", why);
        }
        let reprofile = || {
            let tplan = tplan.as_ref().map_err(ProfileError::clone)?;
            self.robust.profile_with_plan(&transform.program, tplan)
        };
        let what = "transformed program could not be profiled";
        let Some(rp) = self.profile(r, what, reprofile)? else {
            return Ok(Next::KeepOriginal);
        };
        let tplan = tplan.as_ref().expect("the re-profile executed this plan");
        let transformed_image = self.keep_image(rp.image, tplan);
        if self.robust.is_active() && rp.transient_failures > 0 {
            r.line(format!(
                "robust re-profiling: {} transient rep failure(s) retried \
                 ({} µs virtual backoff)",
                rp.transient_failures, rp.virtual_backoff_us
            ));
        }
        let transformed_profile = rp.profile;
        r.line(format!(
            "{} new kernels generated; modeled device time {:.1} µs",
            transform.new_kernel_count, transformed_profile.total_runtime_us
        ));
        for d in transform.unfused() {
            r.hint(format!(
                "group {} could not be fused and fell back to unfused members: {}",
                d.group, d.reason
            ));
        }
        for rep in &transform.reports {
            if !rep.merged {
                r.hint(format!(
                    "group {:?} was concatenated without sweep merging (deep nested \
                     loops / mismatched structure): no inter-member reuse generated",
                    rep.members
                ));
            }
        }
        for t in &transform.tuning {
            if t.tuned {
                r.line(format!(
                    "tuned `{}` block {} → {} ({:.2} → {:.2} µs, occupancy {:.2} → {:.2})",
                    t.kernel,
                    t.block_before,
                    t.block_after,
                    t.us_before,
                    t.us_after,
                    t.occupancy_before,
                    t.occupancy_after
                ));
            }
        }

        let verification = if self.cfg.verify {
            let run = transformed_image.as_deref().map(|image| Execution {
                image,
                hazards: &transformed_profile.hazards,
            });
            let side = Side {
                program: &transform.program,
                plan: tplan,
                run,
            };
            match self.verify(r, side)? {
                Some(v) => Some(v),
                None => return Ok(Next::KeepOriginal),
            }
        } else {
            None
        };

        // From here on the transform, its profile and its verification are
        // artifacts of the run whichever program is adopted.
        let original_time = made(&self.original_profile).total_runtime_us;
        let transformed_time = transformed_profile.total_runtime_us;
        self.transform = Some(transform);
        self.transformed_profile = Some(transformed_profile);
        self.verification = verification;
        if self.cfg.degrade == DegradePolicy::Degrade && transformed_time > original_time {
            // Always-valid invariant: never adopt a transform whose modeled
            // time is worse than the original's.
            r.degrade(
                "pipeline",
                "kept the original program (transform modeled slower)",
                format!("{transformed_time:.1} µs vs original {original_time:.1} µs"),
            );
            return Ok(Next::KeepOriginal);
        }
        Ok(Next::Continue)
    }

    /// Check the transformed program's output against the original's: the
    /// verdict compares the two profiles' final images (both runs started
    /// from the profiler's seed) and folds in both profiles' hazards. A side
    /// no profile executed — analytic profile, preloaded metadata, an image
    /// the heap budget refused — is executed by the governed verifier from
    /// the same seed, its image charged before it exists and its run drawing
    /// on what is left of the step budget, so a hostile program can neither
    /// OOM nor hang the verification. The kept original image is released
    /// here. `Ok(None)` is a keep-original rung, recorded in `r`.
    fn verify(
        &mut self,
        r: &mut StageReport,
        transformed: Side,
    ) -> Result<Option<Verification>, PipelineError> {
        let original_image = self.original_image.take();
        let trapped = self.faults.interpreter_trap;
        let outcome = if trapped {
            Err(VerifyFailure::Failed(
                "injected interpreter trap during verification".to_string(),
            ))
        } else {
            let run = original_image.as_deref().map(|image| Execution {
                image,
                hazards: &made(&self.original_profile).hazards,
            });
            let original = Side {
                program: self.program,
                plan: self.plan,
                run,
            };
            verify_executions(original, transformed, Profiler::SEED, &self.governor)
        };
        let failed = |kind| PipelineError::degradable(Stage::Codegen, kind);
        let (err, what, why) = match outcome {
            Ok(v) if v.passed() => return Ok(Some(v)),
            Ok(v) => {
                let why = format!(
                    "output mismatch: {}",
                    v.failure().unwrap_or_else(|| "unknown".into())
                );
                (
                    failed(ErrorKind::Verify(why.clone())),
                    "verification failed",
                    why,
                )
            }
            Err(VerifyFailure::Exhausted(e)) => {
                let why = e.to_string();
                let err = PipelineError::from(e).at(Stage::Codegen);
                (err, "verification budget exhausted", why)
            }
            Err(VerifyFailure::Failed(msg)) => {
                let kind = if trapped {
                    ErrorKind::Injected(msg.clone())
                } else {
                    ErrorKind::Verify(msg.clone())
                };
                (failed(kind), "verification could not run", msg)
            }
        };
        self.fall_back_to_original(r, err, what, why).map(|_| None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use sf_core::IslandFaults;
    use sf_gpusim::device::DeviceSpec;
    use sf_minicuda::parse_program;
    use std::cell::Cell;

    const APP: &str = r#"
__global__ void stage1(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void stage2(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] + 1.0; } }
}
__global__ void stage3(const double* __restrict__ a, const double* __restrict__ b, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = a[k][j][i] - b[k][j][i]; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 8;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(u);
  stage1<<<dim3(4, 4), dim3(16, 8)>>>(u, a, nx, ny, nz);
  stage2<<<dim3(4, 4), dim3(16, 8)>>>(u, b, nx, ny, nz);
  stage3<<<dim3(4, 4), dim3(16, 8)>>>(a, b, c, nx, ny, nz);
  cudaMemcpyD2H(c);
}
"#;

    #[test]
    fn end_to_end_automated_transformation() {
        let p = parse_program(APP).unwrap();
        let pipeline = Pipeline::new(p, PipelineConfig::quick(DeviceSpec::k20x())).unwrap();
        let result = pipeline.run().unwrap();
        assert!(result.speedup > 1.0, "speedup was {:.3}", result.speedup);
        let v = result.verification.as_ref().unwrap();
        assert!(v.passed(), "verification failed: {v:?}");
        assert_eq!(result.reports.len(), 6);
        assert!(result.new_oeg_dot.contains("cluster"));
        assert!(result.degradations().is_empty());
        // Fewer launches than the original.
        let new_launches = result.program.static_launches().len();
        assert!(new_launches < 3);
    }

    #[test]
    fn run_until_stops_early() {
        let p = parse_program(APP).unwrap();
        let mut cfg = PipelineConfig::quick(DeviceSpec::k20x());
        cfg.run_until = Some(Stage::Filter);
        let pipeline = Pipeline::new(p.clone(), cfg).unwrap();
        let result = pipeline.run().unwrap();
        assert_eq!(result.speedup, 1.0);
        assert_eq!(result.program, p);
        assert!(result.search.is_none());
        assert_eq!(result.reports.len(), 2);
    }

    #[test]
    fn guided_intervention_changes_outcome() {
        let p = parse_program(APP).unwrap();
        let pipeline = Pipeline::new(p, PipelineConfig::quick(DeviceSpec::k20x())).unwrap();
        // Intervene: mark stage2 ineligible. The search must then leave it
        // out of any fusion group.
        let hooks = Interventions {
            amend_decisions: Some(Box::new(|ds: &mut Vec<FilterDecision>| {
                for d in ds.iter_mut() {
                    if d.kernel == "stage2" {
                        d.reason = sf_analysis::filter::FilterReason::ComputeBound;
                    }
                }
            })),
            ..Interventions::default()
        };
        let result = pipeline.run_with(&hooks).unwrap();
        let search = result.search.as_ref().unwrap();
        for group in search.best.fusion_groups() {
            for u in group {
                assert_ne!(u, 1, "stage2 must stay unfused after intervention");
            }
        }
        assert!(result.verification.unwrap().passed());
    }

    #[test]
    fn empty_program_is_rejected() {
        let p = parse_program("void host() { int n = 4; double* a = cudaAlloc1D(n); }").unwrap();
        let err = Pipeline::new(p, PipelineConfig::quick(DeviceSpec::k20x())).unwrap_err();
        assert_eq!(err.stage, Stage::Metadata);
        assert_eq!(err.class, crate::error::Recoverability::Fatal);
    }

    #[test]
    fn injected_codegen_panic_degrades_to_a_valid_program() {
        let p = parse_program(APP).unwrap();
        let faults = FaultPlan {
            panic_groups: (0..8).collect(),
            ..FaultPlan::default()
        };
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_faults(faults);
        let result = Pipeline::new(p, cfg).unwrap().run().unwrap();
        // Every fusion attempt panicked, so all groups degraded to unfused
        // members — still a valid, verified (or original) program.
        assert!(!result.degradations().is_empty());
        assert!(result.speedup >= 1.0);
        if let Some(v) = &result.verification {
            assert!(v.passed());
        }
    }

    #[test]
    fn strict_mode_surfaces_the_injected_panic() {
        let p = parse_program(APP).unwrap();
        let faults = FaultPlan {
            panic_groups: (0..8).collect(),
            ..FaultPlan::default()
        };
        let cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_faults(faults)
            .strict();
        let err = Pipeline::new(p, cfg).unwrap().run().unwrap_err();
        assert_eq!(err.stage, Stage::Codegen);
        assert_eq!(err.class, crate::error::Recoverability::Degradable);
        assert!(
            matches!(err.kind, ErrorKind::Panic(_)),
            "kind: {:?}",
            err.kind
        );
    }

    #[test]
    fn corrupt_metadata_is_restored_in_degrade_mode() {
        let p = parse_program(APP).unwrap();
        let faults = FaultPlan {
            corrupt_metadata: true,
            ..FaultPlan::default()
        };
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_faults(faults.clone());
        let result = Pipeline::new(p.clone(), cfg).unwrap().run().unwrap();
        assert!(result
            .degradations()
            .iter()
            .any(|d| d.stage == Stage::Metadata));
        assert!(result.speedup > 1.0, "restored metadata still transforms");
        assert!(result.verification.unwrap().passed());

        let strict_cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_faults(faults)
            .strict();
        let err = Pipeline::new(p, strict_cfg).unwrap().run().unwrap_err();
        assert_eq!(err.stage, Stage::Metadata);
        assert!(matches!(err.kind, ErrorKind::Injected(_)));
    }

    #[test]
    fn interpreter_trap_keeps_the_original_program() {
        let p = parse_program(APP).unwrap();
        let faults = FaultPlan {
            interpreter_trap: true,
            ..FaultPlan::default()
        };
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_faults(faults);
        let result = Pipeline::new(p.clone(), cfg).unwrap().run().unwrap();
        assert_eq!(result.program, p);
        assert_eq!(result.speedup, 1.0);
        assert!(result
            .degradations()
            .iter()
            .any(|d| d.stage == Stage::Codegen));
    }

    /// Stage 1 of a run over `APP` (which keeps the original's image), then
    /// its verifier handed the profile image of `APP`'s transform with
    /// `edit` applied.
    fn verify_edited_image(
        config: PipelineConfig,
        edit: impl Fn(&mut GlobalMemory),
    ) -> (Result<Option<Verification>, PipelineError>, StageReport) {
        let p = parse_program(APP).unwrap();
        let quick = PipelineConfig::quick(DeviceSpec::k20x());
        let transformed = Pipeline::new(p.clone(), quick)
            .unwrap()
            .run()
            .unwrap()
            .program;
        assert_ne!(transformed, p, "APP fuses");
        let tplan = ExecutablePlan::from_program(&transformed).unwrap();
        let pipeline = Pipeline::new(p, config).unwrap();
        let hooks = Interventions::default();
        let mut run = Run::new(&pipeline, &hooks);
        let mut r = StageReport::new(Stage::Metadata);
        assert!(matches!(run.metadata(&mut r), Ok(Next::Continue)));
        assert!(
            run.original_image.is_some(),
            "stage 1 keeps the original's image"
        );
        let rp = run.robust.profile_with_plan(&transformed, &tplan).unwrap();
        let mut image = rp.image.expect("a functional profile");
        edit(&mut image);
        let side = Side {
            program: &transformed,
            plan: &tplan,
            run: Some(Execution {
                image: &image,
                hazards: &rp.profile.hazards,
            }),
        };
        let mut r = StageReport::new(Stage::Codegen);
        let outcome = run.verify(&mut r, side);
        assert!(
            run.original_image.is_none(),
            "verification releases the image"
        );
        (outcome, r)
    }

    #[test]
    fn the_verdict_reads_the_kept_images() {
        let quick = || PipelineConfig::quick(DeviceSpec::k20x());
        let (outcome, r) = verify_edited_image(quick(), |_| {});
        assert!(outcome.unwrap().unwrap().passed());
        assert!(r.degradations.is_empty());

        // One flipped element of the transformed program's image.
        let flip = |image: &mut GlobalMemory| image.get_mut("c").unwrap().data[7] += 1.0;
        let (outcome, r) = verify_edited_image(quick(), flip);
        assert!(outcome.unwrap().is_none(), "a keep-original rung");
        assert_eq!(r.degradations.len(), 1);
        let d = &r.degradations[0];
        assert_eq!(d.action, "kept the original program (verification failed)");
        assert_eq!(d.reason, "output mismatch: max abs diff 1e0 in Some(\"c\")");

        let err = verify_edited_image(quick().strict(), flip).0.unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Verify(_)), "{err}");
        assert_eq!(err.exit_code(), 7);
    }

    /// The original races across blocks: the profiles' hazards fail the
    /// verification with the text the parent's second pair of runs gave.
    #[test]
    fn a_cross_block_read_fails_verification_from_the_profiles_hazards() {
        const CROSS_BLOCK: &str = r#"
__global__ void smear(double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 8 && i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = a[k][j][i - 8] * 0.5; } }
}
__global__ void scale(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void shift(const double* __restrict__ b, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = b[k][j][i] + 1.0; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 2;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* u = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(a);
  cudaMemcpyH2D(u);
  smear<<<dim3(4, 4), dim3(16, 8)>>>(a, nx, ny, nz);
  scale<<<dim3(4, 4), dim3(16, 8)>>>(u, b, nx, ny, nz);
  shift<<<dim3(4, 4), dim3(16, 8)>>>(b, c, nx, ny, nz);
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(c);
}
"#;
        let p = parse_program(CROSS_BLOCK).unwrap();
        let quick = || PipelineConfig::quick(DeviceSpec::k20x());
        let result = Pipeline::new(p.clone(), quick()).unwrap().run().unwrap();
        assert_eq!(result.program, p);
        let profiled = result.original_profile.as_ref().unwrap().hazards.len();
        assert_eq!(
            profiled, 16,
            "the stage-1 profile saw the race (capped per launch)"
        );
        let degradations = result.degradations();
        assert_eq!(degradations.len(), 1, "{degradations:?}");
        assert_eq!(
            degradations[0].action,
            "kept the original program (verification failed)"
        );
        assert_eq!(degradations[0].reason, "output mismatch: 32 hazard(s)");

        let err = Pipeline::new(p, quick().strict())
            .unwrap()
            .run()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "pipeline error [codegen stage, verify, degradable]: output mismatch: 32 hazard(s)"
        );
        assert_eq!(err.exit_code(), 7);
    }

    #[test]
    fn island_search_runs_end_to_end_and_is_deterministic() {
        let p = parse_program(APP).unwrap();
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_islands(2);
        let r1 = Pipeline::new(p.clone(), cfg.clone())
            .unwrap()
            .run()
            .unwrap();
        let r2 = Pipeline::new(p, cfg).unwrap().run().unwrap();
        assert!(r1.verification.as_ref().unwrap().passed());
        assert!(r1.degradations().is_empty());
        assert_eq!(
            r1.planned().unwrap().to_json(),
            r2.planned().unwrap().to_json(),
            "island search must be deterministic per seed"
        );
        assert!(r1.reports.iter().any(|rep| rep
            .lines
            .iter()
            .any(|l| l.contains("supervised island search: 2 island(s)"))));
    }

    #[test]
    fn island_quarantine_degrades_but_still_produces_a_valid_result() {
        let p = parse_program(APP).unwrap();
        let faults = FaultPlan {
            islands: IslandFaults {
                panic_at: [(0usize, 1usize)].into_iter().collect(),
                ..IslandFaults::default()
            },
            ..FaultPlan::default()
        };
        let cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_islands(2)
            .with_faults(faults.clone());
        let result = Pipeline::new(p.clone(), cfg).unwrap().run().unwrap();
        assert!(result
            .degradations()
            .iter()
            .any(|d| d.stage == Stage::Search && d.scope.contains("island")));
        if let Some(v) = &result.verification {
            assert!(v.passed());
        }

        let strict_cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_islands(2)
            .with_faults(faults)
            .strict();
        let err = Pipeline::new(p, strict_cfg).unwrap().run().unwrap_err();
        assert_eq!(err.stage, Stage::Search);
        assert_eq!(err.class, crate::error::Recoverability::Degradable);
    }

    #[test]
    fn checkpointed_pipeline_resumes_to_the_identical_plan() {
        let p = parse_program(APP).unwrap();
        let dir = std::env::temp_dir().join(format!("sf-core-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("search.ckpt");

        let base = PipelineConfig::quick(DeviceSpec::k20x()).with_islands(2);
        let golden = Pipeline::new(p.clone(), base.clone())
            .unwrap()
            .run()
            .unwrap();

        // Kill after the first checkpoint epoch, then resume.
        let kill_faults = FaultPlan {
            islands: IslandFaults {
                kill_at_epoch: Some(0),
                ..IslandFaults::default()
            },
            ..FaultPlan::default()
        };
        let killed_cfg = base.clone().with_checkpoint(&ckpt).with_faults(kill_faults);
        let _ = Pipeline::new(p.clone(), killed_cfg).unwrap().run().unwrap();
        assert!(ckpt.exists());

        let resumed_cfg = base.with_resume(&ckpt);
        let resumed = Pipeline::new(p, resumed_cfg).unwrap().run().unwrap();
        assert_eq!(
            resumed.planned().unwrap().to_json(),
            golden.planned().unwrap().to_json(),
            "resume must converge to the uninterrupted plan"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn island_faults_reach_one_island_runs() {
        let p = parse_program(APP).unwrap();
        let run = |islands: IslandFaults| {
            let faults = FaultPlan {
                islands,
                ..FaultPlan::default()
            };
            let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_faults(faults);
            Pipeline::new(p.clone(), cfg).unwrap().run().unwrap()
        };
        let island_degradations = |r: &TransformResult| {
            r.degradations()
                .iter()
                .filter(|d| d.stage == Stage::Search && d.scope == "island 0")
                .count()
        };

        // The only island dies before scoring anything: the baseline plan
        // (all singletons) is the result, so the original kernels are kept.
        let r = run(IslandFaults {
            panic_at: [(0, 0)].into_iter().collect(),
            ..IslandFaults::default()
        });
        assert_eq!(island_degradations(&r), 1);
        assert!(r.search.as_ref().unwrap().best.fusion_groups().is_empty());
        assert_eq!(r.program.kernels, p.kernels);

        // A stall after one completed epoch: the last-good elites merge,
        // and they already beat the baseline.
        let interval = SearchConfig::quick().migration_interval;
        let r = run(IslandFaults {
            stall_at: [(0, interval + 1)].into_iter().collect(),
            ..IslandFaults::default()
        });
        assert_eq!(island_degradations(&r), 1);
        let search = r.search.as_ref().unwrap();
        assert_eq!(search.generations_run, interval);
        assert!(search.best_gflops > search.baseline_gflops);
        assert!(r.verification.as_ref().unwrap().passed());

        // A kill is a budget stop with the best plan so far, not a fault.
        let r = run(IslandFaults {
            kill_at_epoch: Some(0),
            ..IslandFaults::default()
        });
        assert_eq!(island_degradations(&r), 0);
        let search = r.search.as_ref().unwrap();
        assert_eq!(search.stop_reason, sf_search::StopReason::BudgetExhausted);
        search.plan.validate(3).expect("killed run's plan is valid");
        assert!(r.verification.as_ref().unwrap().passed());
    }

    #[test]
    fn resource_budget_rejects_compile_bombs_with_attribution() {
        use sf_core::{Limits, ResourceKind};
        let p = parse_program(APP).unwrap();
        let cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_budget(Limits::unlimited().cap(ResourceKind::Launches, 2));
        let err = Pipeline::new(p.clone(), cfg).unwrap().run().unwrap_err();
        assert_eq!(err.kind.label(), "resource-exhausted");
        assert_eq!(err.class, crate::error::Recoverability::Fatal);
        assert!(err.to_string().contains("`launches`"), "{err}");

        let cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_budget(Limits::unlimited().cap(ResourceKind::DomainCells, 100));
        let err = Pipeline::new(p, cfg).unwrap().run().unwrap_err();
        assert!(err.to_string().contains("`domain-cells`"), "{err}");
    }

    #[test]
    fn search_budget_rungs_degrade_instead_of_failing() {
        use sf_core::{Limits, ResourceKind};
        let p = parse_program(APP).unwrap();
        // Rung 1: a tiny candidate-set cap shrinks the GA budget, but the
        // run still transforms and verifies.
        let cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_budget(Limits::unlimited().cap(ResourceKind::CandidateSet, 1));
        let r = Pipeline::new(p.clone(), cfg).unwrap().run().unwrap();
        assert!(
            r.degradations().iter().any(|d| d.scope == "search budget"),
            "{:?}",
            r.degradations()
        );
        if let Some(v) = &r.verification {
            assert!(v.passed());
        }

        // Rung 3: a population budget below the minimum viable search
        // keeps the original program (still a valid result).
        let cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_budget(Limits::unlimited().cap(ResourceKind::PopulationBytes, 10));
        let r = Pipeline::new(p.clone(), cfg).unwrap().run().unwrap();
        assert_eq!(r.program, p);
        assert_eq!(r.speedup, 1.0);
        assert!(r
            .degradations()
            .iter()
            .any(|d| d.reason.contains("population-bytes")));

        // Strict mode surfaces the rung as a structured error instead.
        let cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_budget(Limits::unlimited().cap(ResourceKind::PopulationBytes, 10))
            .strict();
        let err = Pipeline::new(p, cfg).unwrap().run().unwrap_err();
        assert_eq!(err.kind.label(), "resource-exhausted");
        assert_eq!(err.stage, Stage::Search);
    }

    #[test]
    fn service_budget_leaves_a_typical_transform_unchanged() {
        use sf_minicuda::printer::print_program;
        let p = parse_program(APP).unwrap();
        let base = Pipeline::new(p.clone(), PipelineConfig::quick(DeviceSpec::k20x()))
            .unwrap()
            .run()
            .unwrap();
        let governed = Pipeline::new(
            p,
            PipelineConfig::quick(DeviceSpec::k20x()).with_budget(sf_core::Limits::service()),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(
            governed.degradations().is_empty(),
            "{:?}",
            governed.degradations()
        );
        assert_eq!(
            print_program(&base.program),
            print_program(&governed.program),
            "service limits must not change a legitimate transform"
        );
    }

    #[test]
    fn a_run_without_a_fault_plan_injects_nothing() {
        let p = parse_program(APP).unwrap();
        let pipeline = Pipeline::new(p, PipelineConfig::quick(DeviceSpec::k20x())).unwrap();
        let hooks = Interventions::default();
        let run = Run::new(&pipeline, &hooks);
        assert!(run.faults.is_empty());
        assert!(!run.faults.interpreter_trap);
        assert!(!run.robust.is_active(), "no injected noise or rep failures");
    }

    /// An out-of-bounds access traps the same way on every run, so nothing
    /// retries it: the program executes once.
    #[test]
    fn a_trapping_profile_executes_once() {
        // Only the last thread of the last block reads past `a`.
        let source = APP.replacen("a[k][j][i] - b", "a[k][j + i / 63][i] - b", 1);
        let p = parse_program(&source).unwrap();
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).strict();
        let pipeline = Pipeline::new(p, cfg).unwrap();
        let hooks = Interventions::default();
        let run = Run::new(&pipeline, &hooks);
        let steps = Cell::new(0);
        let profile = || {
            let interp = Interpreter::new(run.program);
            let mut mem = GlobalMemory::from_plan(run.plan);
            let outcome = interp.run_plan(run.plan, &mut mem);
            steps.set(steps.get() + interp.steps_used());
            outcome?;
            run.robust.profile_with_plan(run.program, run.plan)
        };
        let mut r = StageReport::new(Stage::Metadata);
        let err = run
            .profile(&mut r, "no profile available", profile)
            .unwrap_err();
        assert_eq!(err.class, crate::error::Recoverability::Degradable, "{err}");
        assert!(
            err.to_string()
                .contains("out-of-bounds access a[0, 32, 63]"),
            "{err}"
        );
        assert_eq!(steps.get(), Interpreter::plan_steps(run.plan));
    }

    /// Lost repetitions are drawn from the run's fault plan, and the draw
    /// starts afresh on every call, so a second call would lose them again:
    /// the profile is called once and the run keeps the original program.
    #[test]
    fn a_lost_reps_profile_executes_once() {
        let p = parse_program(APP).unwrap();
        let faults = FaultPlan {
            rep_failures: 100,
            ..FaultPlan::default()
        };
        let cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_faults(faults)
            .strict();
        let pipeline = Pipeline::new(p, cfg).unwrap();
        let hooks = Interventions::default();
        let run = Run::new(&pipeline, &hooks);
        let calls = Cell::new(0);
        let profile = || {
            calls.set(calls.get() + 1);
            run.robust.profile_with_plan(run.program, run.plan)
        };
        let mut r = StageReport::new(Stage::Metadata);
        let err = run
            .profile(&mut r, "no profile available", profile)
            .unwrap_err();
        assert_eq!(err.class, crate::error::Recoverability::Degradable, "{err}");
        assert!(err.to_string().contains("retries exhausted"), "{err}");
        assert_eq!(calls.get(), 1);
    }
}

#[cfg(test)]
mod temporal_pipeline_tests {
    use super::*;
    use crate::config::PipelineConfig;
    use sf_gpusim::device::DeviceSpec;
    use sf_minicuda::parse_program;

    /// The canonical temporal candidate: a radius-1 Jacobi ping-pong pair
    /// inside an 8-iteration host time loop.
    const PINGPONG: &str = r#"
__global__ void step_ab(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) {
      b[k][j][i] = 0.2 * (a[k][j][i] + a[k][j][i+1] + a[k][j][i-1] + a[k][j+1][i] + a[k][j-1][i]);
    }
  }
}
__global__ void step_ba(const double* __restrict__ b, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) {
      a[k][j][i] = 0.2 * (b[k][j][i] + b[k][j][i+1] + b[k][j][i-1] + b[k][j+1][i] + b[k][j-1][i]);
    }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 4;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(a);
  cudaMemcpyH2D(b);
  for (int t = 0; t < 8; t++) {
    step_ab<<<dim3(2, 1), dim3(32, 32)>>>(a, b, nx, ny, nz);
    step_ba<<<dim3(2, 1), dim3(32, 32)>>>(b, a, nx, ny, nz);
  }
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(b);
}
"#;

    #[test]
    fn temporal_pipeline_end_to_end() {
        let p = parse_program(PINGPONG).unwrap();
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_max_temporal(4);
        let result = Pipeline::new(p, cfg).unwrap().run().unwrap();
        let v = result.verification.as_ref().unwrap();
        assert!(v.passed(), "verification failed: {v:?}");
        let plan = result.executed_plan().expect("plan emitted");
        assert!(
            plan.groups.iter().any(|g| g.temporal >= 2),
            "expected a temporally folded group, got {:?}",
            plan.groups
        );
        // The folded program launches one fused kernel, twice per collapsed
        // loop iteration.
        assert_eq!(result.program.kernels.len(), 1);
    }

    #[test]
    fn default_config_never_folds_the_loop() {
        let p = parse_program(PINGPONG).unwrap();
        let result = Pipeline::new(p.clone(), PipelineConfig::quick(DeviceSpec::k20x()))
            .unwrap()
            .run()
            .unwrap();
        let plan = result.executed_plan().expect("plan emitted");
        assert!(
            plan.groups.iter().all(|g| g.temporal == 1),
            "{:?}",
            plan.groups
        );
        assert!(result.verification.unwrap().passed());
        // The loop-carried hard edge forbids fusing the pair spatially, so
        // both kernels survive untouched.
        assert_eq!(result.program.kernels.len(), 2);
    }

    #[test]
    fn temporal_runs_are_deterministic() {
        let p = parse_program(PINGPONG).unwrap();
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_max_temporal(4);
        let a = Pipeline::new(p.clone(), cfg.clone())
            .unwrap()
            .run()
            .unwrap();
        let b = Pipeline::new(p, cfg).unwrap().run().unwrap();
        assert_eq!(
            sf_minicuda::printer::print_program(&a.program),
            sf_minicuda::printer::print_program(&b.program)
        );
        let (pa, pb) = (a.executed_plan().unwrap(), b.executed_plan().unwrap());
        assert_eq!(pa.to_json(), pb.to_json());
    }
}
