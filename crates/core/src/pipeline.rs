//! The staged transformation pipeline with programmer intervention points.
//!
//! The driver maintains an *always-valid* invariant: under the default
//! [`DegradePolicy::Degrade`] it returns either a verified transformed
//! program or the original program unchanged. Recoverable failures walk a
//! degradation ladder (complex fusion → simple fusion → unfused copies →
//! original program) and every step is recorded in the stage reports;
//! [`DegradePolicy::Strict`] surfaces the first degradable error instead.

use crate::config::{DegradePolicy, PipelineConfig, Stage};
use crate::error::{ErrorKind, PipelineError};
use crate::faults::FaultInjector;
use crate::report::StageReport;
use crate::verify::{verify_equivalence_governed, Verification, VerifyFailure};
use sf_core::{ResourceGovernor, ResourceKind};
use sf_analysis::filter::{identify_targets, FilterDecision};
use sf_analysis::metadata::MetadataBundle;
use sf_codegen::{
    transform_program_with, CodegenFaults, GroupFailure, TransformOutput, TransformPlan,
};
use sf_gpusim::noise::NoiseModel;
use sf_gpusim::profiler::{ProfileError, Profiler, ProgramProfile};
use sf_gpusim::robust::RobustProfiler;
use sf_graphs::build::all_accesses_with_allocs;
use sf_graphs::{dot, Ddg, Oeg};
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::Program;
use sf_search::{
    raise_plan, search_islands, Individual, IslandOptions, SearchConfig, SearchResult, SearchSpace,
};

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
    /// Amend the GA parameter file before the search runs.
    pub amend_search_config: Hook<'a, SearchConfig>,
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

/// Profile with bounded retry for transient failures (including injected
/// ones). Returns the profile and how many retries were needed. A
/// deterministic (non-transient) profile error short-circuits: retrying an
/// unknown kernel or an unlaunchable configuration cannot help.
fn profile_with_retry<T>(
    profile: impl Fn() -> Result<T, ProfileError>,
    injector: &FaultInjector,
    retries: u32,
    stage: Stage,
) -> Result<(T, u32), PipelineError> {
    // The shared retry ladder (sf_core::retry) — the same policy the
    // robust profiler and the batch driver's publish path run on.
    let policy = sf_core::RetryPolicy {
        max_retries: retries,
        ..sf_core::RetryPolicy::default()
    };
    let outcome = policy.run(
        |_| {
            let injected = injector.take_profiler_failure();
            let result = if injected {
                Err(ProfileError::transient("injected transient profiler failure"))
            } else {
                profile()
            };
            result.map_err(|e| {
                if injected {
                    PipelineError::transient(stage, ErrorKind::Injected(e.to_string()))
                } else {
                    PipelineError::from(e).at(stage)
                }
            })
        },
        |err| err.class == crate::error::Recoverability::Transient,
    );
    outcome.result.map(|p| (p, outcome.attempts - 1))
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

    /// Run with programmer interventions.
    pub fn run_with(&self, hooks: &Interventions) -> Result<TransformResult, PipelineError> {
        let cfg = &self.config;
        let strict = cfg.degrade == DegradePolicy::Strict;
        let injector = match &cfg.faults {
            Some(plan) => FaultInjector::new(plan.clone()),
            None => FaultInjector::inactive(),
        };
        let mut reports = Vec::new();
        let stop_after = |s: Stage| cfg.run_until.is_some_and(|u| u <= s);

        // ---------------- admission: the resource governor ----------------
        // One request-scoped child of the process-wide governor per run.
        // Every size this run is about to commit to is checked *before* the
        // corresponding stage allocates or recurses, so a compile bomb
        // (thousand-launch loop, near-u32::MAX domain, pathologically deep
        // chain) is rejected with structured attribution instead of
        // exhausting the process. With the default unlimited budget every
        // check below is a no-op.
        let governor = ResourceGovernor::process().child(cfg.budget);
        let exhausted = |e: sf_core::ResourceError| ErrorKind::ResourceExhausted {
            resource: e.resource.name().to_string(),
            used: e.used,
            limit: e.limit,
        };
        governor
            .record_peak(ResourceKind::Launches, self.plan.trace.len() as u64)
            .map_err(|e| PipelineError::fatal(Stage::Metadata, exhausted(e)))?;
        governor
            .record_peak(ResourceKind::IrStatements, self.program.statement_count())
            .map_err(|e| PipelineError::fatal(Stage::Metadata, exhausted(e)))?;
        governor
            .record_peak(
                ResourceKind::DomainCells,
                sf_gpusim::GlobalMemory::plan_cells(&self.plan),
            )
            .map_err(|e| PipelineError::fatal(Stage::Metadata, exhausted(e)))?;

        // ---------------- stage 1: metadata ----------------
        let profiler = if cfg.functional_profile {
            Profiler::new(cfg.device.clone())
        } else {
            Profiler::analytic(cfg.device.clone())
        };
        // The robust wrapper owns repetition, noise injection, retry with
        // virtual backoff, and median+MAD aggregation. With one rep, no
        // noise, and no injected rep failures it is a strict passthrough.
        let robust = RobustProfiler::new(
            profiler.clone(),
            cfg.profile_reps,
            cfg.noise
                .clone()
                .or_else(|| injector.noise_seed().map(NoiseModel::standard)),
        )
        .with_forced_transients(injector.rep_failures());
        let mut meta_report = StageReport::new(Stage::Metadata);
        let original_profile = match &cfg.preloaded_metadata {
            // "Execute from" the metadata stage: trust the (possibly
            // programmer-amended) bundle and reconstruct the end-to-end
            // time from its per-launch runtimes.
            Some(bundle) => {
                if bundle.perf.len() != self.plan.launches.len() {
                    return Err(PipelineError::fatal(
                        Stage::Metadata,
                        ErrorKind::Config(format!(
                            "preloaded metadata describes {} launches, program has {}",
                            bundle.perf.len(),
                            self.plan.launches.len()
                        )),
                    ));
                }
                let total: f64 = bundle
                    .perf
                    .iter()
                    .zip(&self.plan.launches)
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
                let attempt = profile_with_retry(
                    || robust.profile_with_plan(&self.program, &self.plan),
                    &injector,
                    cfg.profile_retries,
                    Stage::Metadata,
                );
                match attempt {
                    Ok((rp, used)) => {
                        if used > 0 {
                            meta_report.line(format!(
                                "profiler recovered after {used} transient failure(s)"
                            ));
                        }
                        if robust.is_active() {
                            meta_report.line(format!(
                                "robust profiling: {} repetition(s), {} lost, \
                                 {} transient rep failure(s) retried ({} µs virtual backoff)",
                                rp.reps, rp.lost_reps, rp.transient_failures, rp.virtual_backoff_us
                            ));
                            let (stable, noisy, unreliable) = rp.confidence_counts();
                            meta_report.line(format!(
                                "measurement confidence: {stable} stable, {noisy} noisy, \
                                 {unreliable} unreliable"
                            ));
                            if unreliable > 0 {
                                meta_report.hint(format!(
                                    "{unreliable} launch(es) with unreliable measurements \
                                     will be quarantined from the fusion space"
                                ));
                            }
                        }
                        rp.profile
                    }
                    Err(e) => {
                        if strict {
                            return Err(e);
                        }
                        // Last rung of the ladder: with no profile at all,
                        // the only valid result is the original program.
                        meta_report.degrade(
                            "pipeline",
                            "kept the original program (no profile available)",
                            e.to_string(),
                        );
                        reports.push(meta_report);
                        return Ok(TransformResult {
                            program: self.program.clone(),
                            original_time_us: 0.0,
                            transformed_time_us: 0.0,
                            speedup: 1.0,
                            verification: None,
                            reports,
                            metadata: None,
                            decisions: Vec::new(),
                            ddg_dot: String::new(),
                            oeg_dot: String::new(),
                            new_oeg_dot: String::new(),
                            search: None,
                            transform: None,
                            original_profile: None,
                            transformed_profile: None,
                        });
                    }
                }
            }
        };
        let mut metadata = original_profile.metadata.clone();
        if let Some(f) = &hooks.amend_metadata {
            f(&mut metadata);
        }
        let corrupted_by_injection = injector.corrupt_metadata(&mut metadata);
        if let Err(why) = validate_metadata(&metadata, self.plan.launches.len()) {
            let kind = if corrupted_by_injection {
                ErrorKind::Injected(why.clone())
            } else {
                ErrorKind::Config(why.clone())
            };
            if strict {
                return Err(PipelineError::degradable(Stage::Metadata, kind));
            }
            // Degrade: discard the corrupt amendments and restore the
            // bundle the profiler produced.
            metadata = original_profile.metadata.clone();
            if let Err(still_bad) = validate_metadata(&metadata, self.plan.launches.len()) {
                return Err(PipelineError::fatal(
                    Stage::Metadata,
                    ErrorKind::Config(still_bad),
                ));
            }
            meta_report.degrade(
                "metadata bundle",
                "discarded corrupt metadata; restored the profiled bundle",
                why,
            );
        }
        meta_report.line(format!(
            "{} kernel invocations profiled on {}; modeled device time {:.1} µs",
            metadata.perf.len(),
            metadata.device.name,
            original_profile.total_runtime_us
        ));
        for h in &original_profile.hazards {
            meta_report.hint(format!("hazard in original program: {h}"));
        }
        reports.push(meta_report);
        if stop_after(Stage::Metadata) {
            return Ok(self.partial(reports, Some(metadata), Vec::new(), original_profile));
        }

        // Stages 2–5 lower the winning grouping to a transform plan; a
        // preloaded plan replays straight into codegen instead, so a prior
        // run can be reproduced without re-searching.
        let (decisions, ddg_dot, oeg_dot, new_oeg_dot, search_result, tplan) = if let Some(pplan) =
            &cfg.preloaded_plan
        {
            pplan.validate(self.plan.launches.len()).map_err(|e| {
                PipelineError::fatal(Stage::NewGraphs, ErrorKind::Config(e.to_string()))
            })?;
            // Replaying a plan on a different device would silently project
            // and codegen with the wrong device model; reject it as a
            // structured mismatch (the port path re-targets explicitly).
            let configured = cfg.device.fingerprint();
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
            reports.push(r);
            (
                Vec::new(),
                String::new(),
                String::new(),
                String::new(),
                None,
                pplan.clone(),
            )
        } else {
            // ---------------- stage 2: filter ----------------
            let mut decisions =
                identify_targets(&metadata.perf, &metadata.ops, &metadata.device, &cfg.filter);
            if let Some(f) = &hooks.amend_decisions {
                f(&mut decisions);
            }
            {
                let mut r = StageReport::new(Stage::Filter);
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
                    if d.is_target()
                        && sf_analysis::roofline::is_latency_bound(p, &metadata.device, 4.0)
                    {
                        r.hint(format!(
                            "{}#{} may be latency-bound (runtime far above roofline bound); \
                         consider excluding it in guided mode",
                            d.kernel, d.seq
                        ));
                    }
                }
                reports.push(r);
            }
            if stop_after(Stage::Filter) {
                return Ok(self.partial(reports, Some(metadata), decisions, original_profile));
            }

            // ---------------- stage 3: graphs ----------------
            let accesses = all_accesses_with_allocs(&self.program, &self.plan)
                .map_err(|e| PipelineError::fatal(Stage::Graphs, ErrorKind::Graph(e)))?;
            let ddg = Ddg::build(&accesses);
            let kernel_names: Vec<String> = self
                .plan
                .launches
                .iter()
                .map(|l| l.kernel.clone())
                .collect();
            let oeg = Oeg::build(kernel_names.clone(), &accesses, &ddg, &self.plan.transfers);
            let name_of = |seq: usize| kernel_names[seq].clone();
            let ddg_dot = dot::ddg_to_dot(&ddg, &name_of);
            let oeg_dot = dot::oeg_to_dot(&oeg.transitive_reduction(), None);
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
            governor
                .record_peak(ResourceKind::PrecedenceDepth, precedence_depth)
                .map_err(|e| PipelineError::fatal(Stage::Graphs, exhausted(e)))?;
            {
                let mut r = StageReport::new(Stage::Graphs);
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
                reports.push(r);
            }
            if stop_after(Stage::Graphs) {
                let mut out = self.partial(reports, Some(metadata), decisions, original_profile);
                out.ddg_dot = ddg_dot;
                out.oeg_dot = oeg_dot;
                return Ok(out);
            }

            // ---------------- stage 4: search ----------------
            // The search consumes the (possibly programmer-amended) metadata.
            let search_profile = ProgramProfile {
                metadata: metadata.clone(),
                costs: original_profile.costs.clone(),
                total_runtime_us: original_profile.total_runtime_us,
                hazards: Vec::new(),
            };
            let space = SearchSpace::build(
                &self.program,
                &self.plan,
                &search_profile,
                &decisions,
                cfg.device.clone(),
            )
            .map_err(|e| PipelineError::from(e).at(Stage::Search))?;
            let mut search_cfg = cfg.search.clone();
            // The plan the search lowers must reflect this run's codegen
            // settings.
            search_cfg.mode = cfg.mode;
            search_cfg.block_tuning = cfg.block_tuning;
            if !cfg.enable_fission {
                search_cfg = search_cfg.without_fission();
            }
            if let Some(f) = &hooks.amend_search_config {
                f(&mut search_cfg);
            }
            // Governed search admission: exhaustion here walks its own
            // rungs of the degradation ladder instead of failing — rung 1
            // shrinks the GA budget, rung 2 reduces the search to one island and
            // halves the population, rung 3 skips the search entirely and
            // keeps the original program. Strict mode surfaces the first
            // tripped rung as a structured error.
            let mut gov_report = StageReport::new(Stage::Search);
            let targets = decisions.iter().filter(|d| d.is_target()).count() as u64;
            // 2^(t-1) ordered chains is a cheap lower bound on the grouping
            // space over t fusion targets — when even the bound blows the
            // cap, the configured GA budget is oversized for this scope.
            let candidate_estimate = 1u64 << targets.saturating_sub(1).min(63);
            if let Some(e) = governor.would_exceed(ResourceKind::CandidateSet, candidate_estimate)
            {
                if strict {
                    return Err(PipelineError::degradable(Stage::Search, exhausted(e)));
                }
                let before = (
                    search_cfg.population,
                    search_cfg.generations,
                    search_cfg.max_evaluations,
                );
                search_cfg.population = search_cfg.population.min(16);
                search_cfg.generations = search_cfg.generations.min(8);
                search_cfg.max_evaluations = search_cfg.max_evaluations.min(256);
                gov_report.degrade(
                    "search budget",
                    format!(
                        "shrank the GA budget: population {} → {}, generations {} → {}, \
                         max evaluations {} → {}",
                        before.0,
                        search_cfg.population,
                        before.1,
                        search_cfg.generations,
                        before.2,
                        search_cfg.max_evaluations
                    ),
                    e.to_string(),
                );
            } else {
                let _ = governor.record_peak(ResourceKind::CandidateSet, candidate_estimate);
            }
            // Rung 2: estimated resident population bytes across islands.
            let genome_bytes = 48u64 * self.plan.launches.len() as u64;
            let pop_bytes =
                |pop: usize, islands: usize| pop as u64 * genome_bytes * islands.max(1) as u64;
            if let Some(e) = governor.would_exceed(
                ResourceKind::PopulationBytes,
                pop_bytes(search_cfg.population, search_cfg.islands),
            ) {
                if strict {
                    return Err(PipelineError::degradable(Stage::Search, exhausted(e)));
                }
                if search_cfg.islands > 1 {
                    gov_report.degrade(
                        "search budget",
                        format!(
                            "reduced the search to one island ({} islands → 1)",
                            search_cfg.islands
                        ),
                        e.to_string(),
                    );
                    search_cfg.islands = 1;
                }
                while search_cfg.population > 8
                    && governor
                        .would_exceed(
                            ResourceKind::PopulationBytes,
                            pop_bytes(search_cfg.population, search_cfg.islands),
                        )
                        .is_some()
                {
                    search_cfg.population /= 2;
                }
            }
            // Rung 3: even the minimum viable search exceeds the budget —
            // skip the search; the original program is the valid result.
            let search_population_bytes = pop_bytes(search_cfg.population, search_cfg.islands);
            if let Some(e) =
                governor.would_exceed(ResourceKind::PopulationBytes, search_population_bytes)
            {
                if strict {
                    return Err(PipelineError::degradable(Stage::Search, exhausted(e)));
                }
                gov_report.degrade(
                    "pipeline",
                    "kept the original program (search budget exhausted)",
                    e.to_string(),
                );
                reports.push(gov_report);
                let mut out = self.partial(reports, Some(metadata), decisions, original_profile);
                out.ddg_dot = ddg_dot;
                out.oeg_dot = oeg_dot;
                return Ok(out);
            }
            governor
                .charge(ResourceKind::PopulationBytes, search_population_bytes)
                .map_err(|e| PipelineError::degradable(Stage::Search, exhausted(e)))?;
            if !gov_report.degradations.is_empty() || !gov_report.lines.is_empty() {
                reports.push(gov_report);
            }
            // Plan-port seeding: raise the source plan's grouping onto this
            // device's search space (repairing anything infeasible here) and
            // inject it into the initial population as an elite.
            let mut seeds: Vec<Individual> = Vec::new();
            if let Some(port) = &cfg.port_plan {
                port.validate(self.plan.launches.len()).map_err(|e| {
                    PipelineError::fatal(Stage::Search, ErrorKind::Config(e.to_string()))
                })?;
                let seed = raise_plan(&space, port);
                let mut r = StageReport::new(Stage::Search);
                r.line(format!(
                    "porting plan from device `{}`: seeded search with its raised genome \
                     ({} fusion groups)",
                    port.device_fingerprint,
                    seed.groups().len()
                ));
                reports.push(r);
                seeds.push(seed);
            }
            // One driver for every run: `islands = 1` is the classic serial
            // GGA, under the same supervision, budgets and checkpointing.
            let opts = IslandOptions {
                poison: injector.poison_evaluations().clone(),
                faults: injector.island_faults().clone(),
                checkpoint_path: cfg.checkpoint_path.clone(),
                resume_path: cfg.resume_path.clone(),
                seeds,
            };
            let supervised = search_islands(&space, &search_cfg, &opts);
            let result = &supervised.result;
            // The population is resident only while the search runs.
            governor.credit(ResourceKind::PopulationBytes, search_population_bytes);
            if strict {
                if let Some(d) = supervised.degradations.first() {
                    return Err(PipelineError::degradable(
                        Stage::Search,
                        ErrorKind::Panic(format!("{}: {} ({})", d.scope, d.action, d.reason)),
                    ));
                }
                if result.poisoned_evaluations > 0 {
                    return Err(PipelineError::degradable(
                        Stage::Search,
                        ErrorKind::Panic(format!(
                            "{} candidate evaluation(s) panicked and were scored as poisoned",
                            result.poisoned_evaluations
                        )),
                    ));
                }
            }
            {
                let mut r = StageReport::new(Stage::Search);
                r.line(format!(
                    "GGA ran {} generations, {} evaluations; projection {:.2} → {:.2} GFLOPS",
                    result.generations_run,
                    result.evaluations,
                    result.baseline_gflops,
                    result.best_gflops
                ));
                r.line(format!(
                    "{} fusion groups; {:.3} fissions per generation; stop reason: {}",
                    result.best.fusion_groups().len(),
                    result.fissions_per_generation,
                    result.stop_reason.name()
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
                for d in &supervised.degradations {
                    r.degrade(d.scope.clone(), d.action.clone(), d.reason.clone());
                }
                if result.poisoned_evaluations > 0 {
                    r.degrade(
                        "candidate evaluations",
                        format!(
                            "scored {} poisoned candidate(s) with penalty fitness",
                            result.poisoned_evaluations
                        ),
                        "objective evaluation panicked (caught at the isolation boundary)",
                    );
                }
                reports.push(r);
            }
            let result = supervised.result;
            let mut tplan = result.plan.clone();
            if stop_after(Stage::Search) {
                let mut out = self.partial(reports, Some(metadata), decisions, original_profile);
                out.search = Some(result);
                out.ddg_dot = ddg_dot;
                out.oeg_dot = oeg_dot;
                return Ok(out);
            }

            // ---------------- stage 5: new graphs ----------------
            if let Some(f) = &hooks.amend_plan {
                f(&mut tplan);
                tplan.validate(self.plan.launches.len()).map_err(|e| {
                    PipelineError::fatal(Stage::NewGraphs, ErrorKind::Config(e.to_string()))
                })?;
            }
            // Render the new OEG: original nodes with fusion clusters.
            let new_oeg_dot = {
                let mut group_of: Vec<usize> = (0..self.plan.launches.len()).collect();
                for (gi, g) in tplan.groups.iter().enumerate() {
                    for m in &g.members {
                        group_of[m.seq] = self.plan.launches.len() + gi;
                    }
                }
                dot::oeg_to_dot(&oeg.transitive_reduction(), Some(&group_of))
            };
            {
                let mut r = StageReport::new(Stage::NewGraphs);
                r.line(format!(
                    "new program: {} launches ({} in the original)",
                    tplan.groups.len(),
                    self.plan.launches.len()
                ));
                reports.push(r);
            }
            if stop_after(Stage::NewGraphs) {
                let mut out = self.partial(reports, Some(metadata), decisions, original_profile);
                out.search = Some(result);
                out.ddg_dot = ddg_dot;
                out.oeg_dot = oeg_dot;
                out.new_oeg_dot = new_oeg_dot;
                return Ok(out);
            }
            (
                decisions,
                ddg_dot,
                oeg_dot,
                new_oeg_dot,
                Some(result),
                tplan,
            )
        };

        // ---------------- stage 6: codegen ----------------
        let cg_faults = CodegenFaults {
            reject_groups: injector.reject_groups().clone(),
            panic_groups: injector.panic_groups().clone(),
            reject_tuned_groups: injector.reject_tuned_groups().clone(),
        };
        let mut cg_report = StageReport::new(Stage::Codegen);
        // The keep-original rung: everything the pipeline learned so far is
        // preserved, but the emitted program is the unchanged original.
        let keep_original = |mut cg_report: StageReport,
                             mut reports: Vec<StageReport>,
                             search: Option<SearchResult>,
                             scope: &str,
                             action: &str,
                             reason: String|
         -> TransformResult {
            cg_report.degrade(scope, action, reason);
            reports.push(cg_report);
            let mut out = self.partial(
                reports,
                Some(metadata.clone()),
                decisions.clone(),
                original_profile.clone(),
            );
            out.search = search;
            out.ddg_dot = ddg_dot.clone();
            out.oeg_dot = oeg_dot.clone();
            out.new_oeg_dot = new_oeg_dot.clone();
            out
        };

        let transform = match transform_program_with(&self.program, &self.plan, &tplan, &cg_faults)
        {
            Ok(t) => t,
            Err(e) => {
                let err = PipelineError::from(e);
                if strict {
                    return Err(err);
                }
                return Ok(keep_original(
                    cg_report,
                    reports,
                    search_result,
                    "pipeline",
                    "kept the original program (code generation failed)",
                    err.to_string(),
                ));
            }
        };
        // Per-group degradation-ladder steps recorded by the generator.
        for d in &transform.degradations {
            if strict {
                let kind = match d.failure {
                    GroupFailure::Panicked => ErrorKind::Panic(d.reason.clone()),
                    GroupFailure::Rejected => {
                        ErrorKind::Codegen(sf_codegen::CodegenError(d.reason.clone()))
                    }
                };
                return Err(PipelineError::degradable(Stage::Codegen, kind).for_group(d.group));
            }
            cg_report.degrade(
                format!("group {}", d.group),
                d.action.clone(),
                d.reason.clone(),
            );
        }

        // Re-profile under the same robust wrapper (same noise model, same
        // rep count) so the original/transformed comparison is apples to
        // apples: both sides see the same measurement conditions.
        let transformed_profile = match profile_with_retry(
            || robust.profile(&transform.program),
            &injector,
            cfg.profile_retries,
            Stage::Codegen,
        ) {
            Ok((rp, used)) => {
                if used > 0 {
                    cg_report.line(format!(
                        "profiler recovered after {used} transient failure(s)"
                    ));
                }
                if robust.is_active() && rp.transient_failures > 0 {
                    cg_report.line(format!(
                        "robust re-profiling: {} transient rep failure(s) retried \
                         ({} µs virtual backoff)",
                        rp.transient_failures, rp.virtual_backoff_us
                    ));
                }
                rp.profile
            }
            Err(e) => {
                if strict {
                    return Err(e);
                }
                return Ok(keep_original(
                    cg_report,
                    reports,
                    search_result,
                    "pipeline",
                    "kept the original program (transformed program could not be profiled)",
                    e.to_string(),
                ));
            }
        };
        cg_report.line(format!(
            "{} new kernels generated; modeled device time {:.1} µs",
            transform.new_kernel_count, transformed_profile.total_runtime_us
        ));
        for (gi, why) in &transform.fallbacks {
            cg_report.hint(format!(
                "group {gi} could not be fused and fell back to unfused members: {why}"
            ));
        }
        for rep in &transform.reports {
            if !rep.merged {
                cg_report.hint(format!(
                    "group {:?} was concatenated without sweep merging (deep nested \
                     loops / mismatched structure): no inter-member reuse generated",
                    rep.members
                ));
            }
        }
        for t in &transform.tuning {
            if t.tuned {
                cg_report.line(format!(
                    "tuned `{}` block {} → {} (occupancy {:.2} → {:.2})",
                    t.kernel, t.block_before, t.block_after, t.occupancy_before, t.occupancy_after
                ));
            }
        }

        let verification = if cfg.verify {
            // The governed verifier charges both memory images as accounted
            // heap bytes before materializing either, and both interpreter
            // runs draw from the scope's step budget — a hostile program
            // can neither OOM nor hang the verification.
            let outcome = if injector.interpreter_trap() {
                Err(VerifyFailure::Failed(
                    "injected interpreter trap during verification".to_string(),
                ))
            } else {
                verify_equivalence_governed(&self.program, &transform.program, 99, &governor)
            };
            match outcome {
                Ok(v) if v.passed() => Some(v),
                Ok(v) => {
                    let why = format!(
                        "output mismatch: {}",
                        v.failure().unwrap_or_else(|| "unknown".into())
                    );
                    if strict {
                        return Err(PipelineError::degradable(
                            Stage::Codegen,
                            ErrorKind::Verify(why),
                        ));
                    }
                    return Ok(keep_original(
                        cg_report,
                        reports,
                        search_result,
                        "pipeline",
                        "kept the original program (verification failed)",
                        why,
                    ));
                }
                Err(VerifyFailure::Exhausted(e)) => {
                    if strict {
                        return Err(PipelineError::degradable(Stage::Codegen, exhausted(e)));
                    }
                    return Ok(keep_original(
                        cg_report,
                        reports,
                        search_result,
                        "pipeline",
                        "kept the original program (verification budget exhausted)",
                        e.to_string(),
                    ));
                }
                Err(VerifyFailure::Failed(msg)) => {
                    let kind = if injector.interpreter_trap() {
                        ErrorKind::Injected(msg.clone())
                    } else {
                        ErrorKind::Verify(msg.clone())
                    };
                    if strict {
                        return Err(PipelineError::degradable(Stage::Codegen, kind));
                    }
                    return Ok(keep_original(
                        cg_report,
                        reports,
                        search_result,
                        "pipeline",
                        "kept the original program (verification could not run)",
                        msg,
                    ));
                }
            }
        } else {
            None
        };

        let original_time = original_profile.total_runtime_us;
        let transformed_time = transformed_profile.total_runtime_us;
        if !strict && transformed_time > original_time {
            // Always-valid invariant: never adopt a transform whose modeled
            // time is worse than the original's. The verified transform and
            // its profile stay available as artifacts.
            cg_report.degrade(
                "pipeline",
                "kept the original program (transform modeled slower)",
                format!("{transformed_time:.1} µs vs original {original_time:.1} µs"),
            );
            reports.push(cg_report);
            return Ok(TransformResult {
                program: self.program.clone(),
                original_time_us: original_time,
                transformed_time_us: original_time,
                speedup: 1.0,
                verification,
                reports,
                metadata: Some(metadata),
                decisions,
                ddg_dot,
                oeg_dot,
                new_oeg_dot,
                search: search_result,
                transform: Some(transform),
                original_profile: Some(original_profile),
                transformed_profile: Some(transformed_profile),
            });
        }
        reports.push(cg_report);
        Ok(TransformResult {
            program: transform.program.clone(),
            original_time_us: original_time,
            transformed_time_us: transformed_time,
            speedup: original_time / transformed_time.max(1e-12),
            verification,
            reports,
            metadata: Some(metadata),
            decisions,
            ddg_dot,
            oeg_dot,
            new_oeg_dot,
            search: search_result,
            transform: Some(transform),
            original_profile: Some(original_profile),
            transformed_profile: Some(transformed_profile),
        })
    }

    fn partial(
        &self,
        reports: Vec<StageReport>,
        metadata: Option<MetadataBundle>,
        decisions: Vec<FilterDecision>,
        original_profile: ProgramProfile,
    ) -> TransformResult {
        TransformResult {
            program: self.program.clone(),
            original_time_us: original_profile.total_runtime_us,
            transformed_time_us: original_profile.total_runtime_us,
            speedup: 1.0,
            verification: None,
            reports,
            metadata,
            decisions,
            ddg_dot: String::new(),
            oeg_dot: String::new(),
            new_oeg_dot: String::new(),
            search: None,
            transform: None,
            original_profile: Some(original_profile),
            transformed_profile: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::faults::FaultPlan;
    use sf_gpusim::device::DeviceSpec;
    use sf_minicuda::parse_program;

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

    #[test]
    fn island_search_runs_end_to_end_and_is_deterministic() {
        let p = parse_program(APP).unwrap();
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_islands(2);
        let r1 = Pipeline::new(p.clone(), cfg.clone()).unwrap().run().unwrap();
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
            islands: sf_search::IslandFaults {
                panic_at: [(0usize, 1usize)].into_iter().collect(),
                ..sf_search::IslandFaults::default()
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
        let golden = Pipeline::new(p.clone(), base.clone()).unwrap().run().unwrap();

        // Kill after the first checkpoint epoch, then resume.
        let kill_faults = FaultPlan {
            islands: sf_search::IslandFaults {
                kill_at_epoch: Some(0),
                ..sf_search::IslandFaults::default()
            },
            ..FaultPlan::default()
        };
        let killed_cfg = base
            .clone()
            .with_checkpoint(&ckpt)
            .with_faults(kill_faults);
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
        let run = |islands: sf_search::IslandFaults| {
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
        let r = run(sf_search::IslandFaults {
            panic_at: [(0, 0)].into_iter().collect(),
            ..sf_search::IslandFaults::default()
        });
        assert_eq!(island_degradations(&r), 1);
        assert!(r.search.as_ref().unwrap().best.fusion_groups().is_empty());
        assert_eq!(r.program.kernels, p.kernels);

        // A stall after one completed epoch: the last-good elites merge,
        // and they already beat the baseline.
        let interval = SearchConfig::quick().migration_interval;
        let r = run(sf_search::IslandFaults {
            stall_at: [(0, interval + 1)].into_iter().collect(),
            ..sf_search::IslandFaults::default()
        });
        assert_eq!(island_degradations(&r), 1);
        let search = r.search.as_ref().unwrap();
        assert_eq!(search.generations_run, interval);
        assert!(search.best_gflops > search.baseline_gflops);
        assert!(r.verification.as_ref().unwrap().passed());

        // A kill is a budget stop with the best plan so far, not a fault.
        let r = run(sf_search::IslandFaults {
            kill_at_epoch: Some(0),
            ..sf_search::IslandFaults::default()
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
        assert!(governed.degradations().is_empty(), "{:?}", governed.degradations());
        assert_eq!(
            print_program(&base.program),
            print_program(&governed.program),
            "service limits must not change a legitimate transform"
        );
    }

    #[test]
    fn transient_profiler_failures_are_retried() {
        let p = parse_program(APP).unwrap();
        let faults = FaultPlan {
            profiler_failures: 2,
            ..FaultPlan::default()
        };
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_faults(faults);
        assert_eq!(cfg.profile_retries, 2);
        let result = Pipeline::new(p, cfg).unwrap().run().unwrap();
        // Retries absorbed the transient failures: full transform, no
        // degradation.
        assert!(result.speedup > 1.0);
        assert!(result.degradations().is_empty());
        assert!(result.reports[0]
            .lines
            .iter()
            .any(|l| l.contains("transient failure")));
    }

    #[test]
    fn exhausted_profiler_retries_degrade_to_original() {
        let p = parse_program(APP).unwrap();
        let faults = FaultPlan {
            profiler_failures: 10,
            ..FaultPlan::default()
        };
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_faults(faults.clone());
        let result = Pipeline::new(p.clone(), cfg).unwrap().run().unwrap();
        assert_eq!(result.program, p);
        assert_eq!(result.speedup, 1.0);
        assert!(!result.degradations().is_empty());

        let strict_cfg = PipelineConfig::quick(DeviceSpec::k20x())
            .with_faults(faults)
            .strict();
        let err = Pipeline::new(p, strict_cfg).unwrap().run().unwrap_err();
        assert_eq!(err.class, crate::error::Recoverability::Transient);
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
        assert!(plan.groups.iter().all(|g| g.temporal == 1), "{:?}", plan.groups);
        assert!(result.verification.unwrap().passed());
        // The loop-carried hard edge forbids fusing the pair spatially, so
        // both kernels survive untouched.
        assert_eq!(result.program.kernels.len(), 2);
    }

    #[test]
    fn temporal_runs_are_deterministic() {
        let p = parse_program(PINGPONG).unwrap();
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_max_temporal(4);
        let a = Pipeline::new(p.clone(), cfg.clone()).unwrap().run().unwrap();
        let b = Pipeline::new(p, cfg).unwrap().run().unwrap();
        assert_eq!(
            sf_minicuda::printer::print_program(&a.program),
            sf_minicuda::printer::print_program(&b.program)
        );
        let (pa, pb) = (a.executed_plan().unwrap(), b.executed_plan().unwrap());
        assert_eq!(pa.to_json(), pb.to_json());
    }
}
