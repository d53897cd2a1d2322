//! One compile, two ways.
//!
//! [`compile`] is what a user runs: source text in, `Pipeline::run`,
//! transformed source and plan JSON out. Every end-to-end number times it
//! (or `BatchDriver`, which wraps it).
//!
//! [`compile_staged`] is the same work as a sequence of calls into each
//! layer's public entry points with a span around each call. It exists
//! only for the traced run, and its plan and output bytes are compared to
//! [`compile`]'s for the same input so that the per-layer numbers are
//! known to describe the program the pipeline actually compiles.
//! README.md lists the entry points; renaming one needs a benchmark issue.

use crate::trace::Tracer;
use sf_analysis::filter::identify_targets;
use sf_codegen::transform_program;
use sf_gpusim::profiler::{Profiler, ProgramProfile};
use sf_graphs::build::all_accesses_with_allocs;
use sf_graphs::{Ddg, Oeg};
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::printer::print_program;
use sf_minicuda::{parse_program, Program};
use sf_plan::TransformPlan;
use sf_search::{search, search_islands, IslandOptions, SearchSpace};
use stencilfuse::{verify_equivalence, Pipeline, PipelineConfig};

/// The seed `Pipeline::run` hands the verifier.
const VERIFY_SEED: u64 = 99;

/// What one compile hands back to the user.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiled {
    /// The plan the search lowered (`None` on a replay: no search ran).
    pub lowered_plan: Option<String>,
    /// The as-executed plan — what `sfc --emit-plan` writes and `sfd` caches.
    pub plan: String,
    /// The transformed program text.
    pub output: String,
    /// Modelled original ÷ transformed device time.
    pub speedup: f64,
    /// The in-pipeline verification verdict (`None` when verification is off).
    pub verified: Option<bool>,
    /// Steps down the degradation ladder the run recorded.
    pub degradations: usize,
}

/// Compile `source` the way `sfc` does.
pub fn compile(source: &str, config: &PipelineConfig) -> Result<Compiled, String> {
    let program = parse_program(source).map_err(|e| e.to_string())?;
    let result = Pipeline::new(program, config.clone())
        .and_then(|p| p.run())
        .map_err(|e| e.to_string())?;
    let plan = result
        .executed_plan()
        .ok_or("the pipeline stopped before code generation")?
        .to_json();
    Ok(Compiled {
        lowered_plan: result.planned().map(TransformPlan::to_json),
        plan,
        output: print_program(&result.program),
        speedup: result.speedup,
        verified: result.verification.as_ref().map(|v| v.passed()),
        degradations: result.degradations().len(),
    })
}

/// Interpreter steps of one functional run: one per thread per launch in
/// the dynamic trace (the unit `Interpreter::steps_used` charges).
fn interpreter_steps(plan: &ExecutablePlan) -> u64 {
    plan.trace
        .iter()
        .map(|&seq| plan.launches[seq].grid.count() * plan.launches[seq].block.count())
        .sum()
}

/// What the staged stages 1–6 produce from a parsed program.
pub struct Staged {
    pub program: Program,
    pub lowered: Option<TransformPlan>,
    pub executed: TransformPlan,
    pub speedup: f64,
    pub verified: Option<bool>,
    pub degradations: usize,
}

/// Stages 1–6 of `Pipeline::run` for a configuration without hooks,
/// faults, noise or budgets (none of which a benchmark workload sets),
/// one span per layer call.
pub fn pipeline_staged(
    tr: &mut Tracer,
    program: &Program,
    config: &PipelineConfig,
) -> Result<Staged, String> {
    let plan = tr
        .span("minicuda.exec_plan", |_| {
            ExecutablePlan::from_program(program)
        })
        .map_err(|e| e.to_string())?;

    // Stage 1: metadata.
    let (profiler, profile_span, reprofile_span) = if config.functional_profile {
        let p = Profiler::new(config.device.clone());
        tr.count("gpusim.interp.steps", interpreter_steps(&plan));
        (p, "gpusim.profile", "gpusim.reprofile")
    } else {
        let p = Profiler::analytic(config.device.clone());
        (p, "gpusim.profile_analytic", "gpusim.profile_analytic")
    };
    let original: ProgramProfile = tr
        .span(profile_span, |_| profiler.profile_with_plan(program, &plan))
        .map_err(|e| e.to_string())?;

    let (lowered, tplan) = match &config.preloaded_plan {
        Some(replayed) => (None, replayed.clone()),
        None => {
            // Stage 2: filter.
            let metadata = &original.metadata;
            let decisions = tr.span("analysis.filter", |_| {
                identify_targets(
                    &metadata.perf,
                    &metadata.ops,
                    &metadata.device,
                    &config.filter,
                )
            });
            let targets = decisions.iter().filter(|d| d.is_target()).count();
            tr.count("analysis.filter.targets", targets as u64);

            // Stage 3: graphs.
            let (ddg_edges, oeg_edges) = tr.span("graphs.build", |_| {
                let accesses = all_accesses_with_allocs(program, &plan)?;
                let ddg = Ddg::build(&accesses);
                let kernels = plan.launches.iter().map(|l| l.kernel.clone()).collect();
                let oeg = Oeg::build(kernels, &accesses, &ddg, &plan.transfers);
                Ok::<_, String>((ddg.edges.len(), oeg.edges.len()))
            })?;
            tr.count("graphs.ddg_edges", ddg_edges as u64);
            tr.count("graphs.oeg_edges", oeg_edges as u64);

            // Stage 4: search.
            let space = tr
                .span("search.space", |_| {
                    SearchSpace::build(program, &plan, &original, &decisions, config.device.clone())
                })
                .map_err(|e| e.to_string())?;
            tr.count("search.space.units", space.units.len() as u64);
            let mut search_config = config.search.clone();
            search_config.mode = config.mode;
            search_config.block_tuning = config.block_tuning;
            if !config.enable_fission {
                search_config = search_config.without_fission();
            }
            let (prefix_evals, prefix_gens, result) = if search_config.islands > 1 {
                let r = tr.span("search.islands", |_| {
                    search_islands(&space, &search_config, &IslandOptions::default())
                });
                if let Some(d) = r.degradations.first() {
                    return Err(format!(
                        "island search degraded: {} ({})",
                        d.action, d.reason
                    ));
                }
                (
                    "search.islands.evaluations",
                    "search.islands.generations",
                    r.result,
                )
            } else {
                let r = tr.span("search.gga", |_| search(&space, &search_config));
                ("search.gga.evaluations", "search.gga.generations", r)
            };
            tr.count(prefix_evals, result.evaluations);
            tr.count(prefix_gens, result.generations_run as u64);
            tr.count("search.projection.hits", result.projection.hits);
            tr.count("search.projection.misses", result.projection.misses);
            (Some(result.plan.clone()), result.plan)
        }
    };

    // Stage 6: code generation, re-profile, verification.
    let transform = tr
        .span("codegen.transform", |_| {
            transform_program(program, &plan, &tplan)
        })
        .map_err(|e| e.to_string())?;
    tr.count(
        "codegen.fused_groups",
        transform.plan.fusion_group_count() as u64,
    );
    tr.count("codegen.degradations", transform.degradations.len() as u64);
    tr.count(
        "codegen.launches_out",
        transform.program.static_launches().len() as u64,
    );

    // Both functional runs of the transformed program execute this many
    // interpreter steps.
    let transformed_steps = ExecutablePlan::from_program(&transform.program)
        .map(|p| interpreter_steps(&p))
        .map_err(|e| e.to_string())?;
    if config.functional_profile {
        tr.count("gpusim.interp.steps", transformed_steps);
    }
    let transformed = tr
        .span(reprofile_span, |_| profiler.profile(&transform.program))
        .map_err(|e| e.to_string())?;

    let verified = if config.verify {
        let verdict = tr.span("core.verify", |_| {
            verify_equivalence(program, &transform.program, VERIFY_SEED)
        })?;
        tr.count(
            "gpusim.interp.steps",
            interpreter_steps(&plan) + transformed_steps,
        );
        Some(verdict.passed())
    } else {
        None
    };

    // The always-valid rule: a failed verification or a transform modelled
    // slower than the original keeps the original program.
    let (original_us, transformed_us) = (original.total_runtime_us, transformed.total_runtime_us);
    let keep_original = verified == Some(false) || transformed_us > original_us;
    let degradations = transform.degradations.len() + usize::from(keep_original);
    Ok(Staged {
        program: if keep_original {
            program.clone()
        } else {
            transform.program
        },
        lowered,
        executed: transform.plan,
        speedup: if keep_original {
            1.0
        } else {
            original_us / transformed_us.max(1e-12)
        },
        verified,
        degradations,
    })
}

/// [`compile`] as a staged, traced sequence. Additionally round-trips the
/// executed plan through its JSON form, which is how `sfc --from-plan` and
/// the cache consume it.
pub fn compile_staged(
    tr: &mut Tracer,
    source: &str,
    config: &PipelineConfig,
) -> Result<Compiled, String> {
    let program = tr
        .span("minicuda.parse", |_| parse_program(source))
        .map_err(|e| e.to_string())?;
    tr.count("minicuda.parse.bytes", source.len() as u64);
    let staged = pipeline_staged(tr, &program, config)?;
    let plan = tr.span("plan.encode", |_| staged.executed.to_json());
    tr.count("plan.bytes", plan.len() as u64);
    let decoded = tr
        .span("plan.decode", |_| TransformPlan::from_json(&plan))
        .map_err(|e| e.to_string())?;
    if decoded.to_json() != plan {
        return Err("plan JSON does not survive a decode/encode round trip".into());
    }
    let output = tr.span("minicuda.print", |_| print_program(&staged.program));
    tr.count("codegen.output_bytes", output.len() as u64);
    Ok(Compiled {
        lowered_plan: staged.lowered.as_ref().map(TransformPlan::to_json),
        plan,
        output,
        speedup: staged.speedup,
        verified: staged.verified,
        degradations: staged.degradations,
    })
}
