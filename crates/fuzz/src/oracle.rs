//! The differential oracle: push a generated program through the full
//! pipeline and check every equivalence obligation the framework makes.
//!
//! The checks run in a fixed order and the first failure wins, so a
//! failing seed always reports the *earliest* broken invariant:
//!
//! 1. `executable` — the generated host section resolves to an
//!    [`ExecutablePlan`] (a failure here is a generator bug).
//! 2. `self-equivalence` — the untransformed program is equivalent to
//!    itself on the gpusim interpreter with hazard detection on. This
//!    catches generator-introduced races or NaN before blaming the
//!    pipeline.
//! 3. `pipeline-run` — a full `Degrade`-policy run must return `Ok`
//!    (by contract, every degradable failure walks the ladder).
//! 4. `search-legality` — the search prices a group codegen would not
//!    fuse as unfusable, so no group of a fault-free run's plan may be
//!    emitted unfused.
//! 5. `search-floor` — elitism keeps the first population's baseline and
//!    greedy seed, so a fault-free run's plan projects at least the
//!    fitness of both.
//! 6. `tuning-monotone` — block tuning never makes a kernel worse: the
//!    executed plan re-emitted with tuning off must price each tuned
//!    kernel's launches no faster, at no lower occupancy and with no fewer
//!    launched threads than the tuned program does, and the tuned program
//!    as a whole no slower. Both programs are priced by the run's own
//!    profiler — functional, so the measured flops and divergence the
//!    tuner's codeless (analytic) price cannot see are charged too.
//! 7. `hidden-miscompile` — no degradation step may be a verification
//!    failure in disguise: under `Degrade`, a miscompile surfaces as
//!    "kept the original program (verification failed)", which the
//!    oracle treats as a codegen bug, not a degradation.
//! 8. `pipeline-verification` — the pipeline's own verification, when
//!    it ran, must pass.
//! 9. `differential` — an *independent* `verify_equivalence` of the
//!    result program against the original, with a different data seed
//!    than the pipeline used.
//! 10. `plan-roundtrip` — the executed [`TransformPlan`] must survive
//!     JSON serialization unchanged.
//! 11. `replay-run` / `replay-divergence` — re-running codegen from the
//!     emitted plan (`--from-plan` replay, stages 2–5 skipped) must
//!     succeed and reproduce the transformed program byte-for-byte.
//! 12. `ladder-*` — fault-injected runs must walk each degradation rung
//!     (tuned → untuned, fused → unfused, verification trap → original)
//!     and still end in a verified program or the untouched original.
//! 13. `cache-*` (opt-in via [`OracleOptions::cache`]) — the emitted plan
//!     must round-trip through the persistent plan cache and replay
//!     byte-identically from the cached payload, and a store armed with
//!     the seed's cache faults (torn write, bit flip, version skew, stale
//!     lock, kill) must stay readable and recover the slot — corruption is
//!     quarantined, never served and never fatal.
//! 14. `islands-*` (opt-in via [`OracleOptions::islands`]) — the
//!     supervised island search must be deterministic (two runs agree
//!     byte for byte), must *degrade* rather than fail under the seed's
//!     island faults (panicked/stalled islands quarantined, no hidden
//!     miscompile), and a search killed at a checkpoint epoch must resume
//!     to the byte-identical program the uninterrupted run produces.
//! 15. `devices-*` (opt-in via [`OracleOptions::devices`]) — cross-device
//!     plan portability: the plan compiled on one registry device must
//!     *refuse* to replay on every other device (a structured
//!     device-mismatch, not a silent wrong-device projection), and
//!     porting it (`--port-plan`) to each other device must produce a
//!     program that passes the differential oracle and replays
//!     byte-identically on its own device.

use sf_codegen::transform_program;
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_minicuda::ast::Program;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::printer::print_program;
use sf_plan::TransformPlan;
use sf_search::SearchConfig;
use stencilfuse::{verify_equivalence, FaultPlan, Pipeline, PipelineConfig, TransformResult};

/// One oracle failure: which check tripped, what it saw, and (when a
/// plan was in play) the offending plan as JSON.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// Stable check name (`"differential"`, `"replay-divergence"`, ...).
    pub check: &'static str,
    /// Human-readable detail.
    pub detail: String,
    /// The `TransformPlan` active when the check failed, as JSON.
    pub plan_json: Option<String>,
}

impl OracleFailure {
    fn new(check: &'static str, detail: impl Into<String>) -> OracleFailure {
        OracleFailure {
            check,
            detail: detail.into(),
            plan_json: None,
        }
    }

    fn with_plan(mut self, plan: Option<&TransformPlan>) -> OracleFailure {
        self.plan_json = plan.map(|p| p.to_json());
        self
    }
}

/// Which optional oracle checks to run on top of the always-on core.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleOptions {
    /// Run the `cache-*` checks: the plan cache must round-trip the
    /// emitted plan, replay it byte-identically, and survive the seed's
    /// injected cache faults without serving corruption or failing.
    pub cache: bool,
    /// Run the `islands-*` checks: the supervised island search must be
    /// deterministic, degrade (not fail) under seeded island faults, and
    /// resume a killed search to the byte-identical program.
    pub islands: bool,
    /// Run the `devices-*` checks: a plan compiled on one registry device
    /// must be rejected (structured device-mismatch) when replayed on any
    /// other device, and porting it there must verify differentially and
    /// replay byte-identically.
    pub devices: bool,
    /// Run the `temporal-*` checks: with the temporal dimension enabled
    /// (degree caps 2 and 4) the pipeline must verify, agree with the
    /// interpreter differentially, hold `tuning-monotone` with the tuned
    /// temporal rung in play, replay and re-run byte-identically, never
    /// stamp a degree above the cap, and degrade (not miscompile) under the
    /// fault ladder; a cap of 1 must reproduce the pre-temporal schedule
    /// deterministically.
    pub temporal: bool,
}

/// The pipeline configuration the fuzzer drives: the quick automated
/// pipeline with the fuzz search profile (small, watchdog-free, seeded
/// per program so search trajectories vary across the corpus).
pub fn config(seed: u64) -> PipelineConfig {
    config_for(seed, DeviceSpec::k20x())
}

/// [`config`] for an arbitrary registry device (the `devices-*` checks).
pub fn config_for(seed: u64, device: DeviceSpec) -> PipelineConfig {
    let mut cfg = PipelineConfig::quick(device);
    cfg.search = SearchConfig::fuzz(seed);
    cfg
}

fn degradation_smells_like_miscompile(action: &str, reason: &str) -> bool {
    action.contains("verification failed") || reason.contains("output mismatch")
}

/// Run every always-on oracle check on one generated program. `Ok(())`
/// means the whole pipeline held its contract for this program.
pub fn check_program(program: &Program, seed: u64) -> Result<(), OracleFailure> {
    check_program_with(program, seed, OracleOptions::default())
}

/// [`check_program`] plus the optional checks selected by `opts`.
pub fn check_program_with(
    program: &Program,
    seed: u64,
    opts: OracleOptions,
) -> Result<(), OracleFailure> {
    check_core(program, seed)?;
    if opts.cache {
        check_plan_cache(program, seed)?;
    }
    if opts.islands {
        check_islands(program, seed)?;
    }
    if opts.devices {
        check_devices(program, seed)?;
    }
    if opts.temporal {
        check_temporal(program, seed)?;
    }
    Ok(())
}

fn check_core(program: &Program, seed: u64) -> Result<(), OracleFailure> {
    // 1. executable
    if let Err(e) = ExecutablePlan::from_program(program) {
        return Err(OracleFailure::new(
            "executable",
            format!("generated host section is not executable: {e}"),
        ));
    }

    // 2. self-equivalence (generator sanity: no races, no NaN)
    match verify_equivalence(program, program, seed ^ 0xA5) {
        Err(e) => {
            return Err(OracleFailure::new(
                "self-equivalence",
                format!("could not interpret the untransformed program: {e}"),
            ))
        }
        Ok(v) if !v.passed() => {
            return Err(OracleFailure::new(
                "self-equivalence",
                format!(
                    "untransformed program fails against itself: {}",
                    v.failure().unwrap_or_else(|| "unknown".into())
                ),
            ))
        }
        Ok(_) => {}
    }

    // 3. pipeline-run
    let pipeline = match Pipeline::new(program.clone(), config(seed)) {
        Ok(p) => p,
        Err(e) => {
            return Err(OracleFailure::new(
                "pipeline-run",
                format!("pipeline rejected the program: {e}"),
            ))
        }
    };
    let result = match pipeline.run() {
        Ok(r) => r,
        Err(e) => {
            return Err(OracleFailure::new(
                "pipeline-run",
                format!("Degrade-policy run returned an error: {e}"),
            ))
        }
    };

    // 4. search-legality: the search only chooses groups codegen fuses,
    //    so a fault-free run emits no group of its plan unfused.
    if let Some(d) = result.transform.as_ref().and_then(|t| t.unfused().next()) {
        return Err(OracleFailure::new(
            "search-legality",
            format!(
                "codegen emitted group {} of the search's plan unfused: {}",
                d.group, d.reason
            ),
        )
        .with_plan(result.planned()));
    }

    // 5. search-floor: the baseline and the greedy seed stand in the first
    //    population, and elitism never loses the best of it.
    if let Some(search) = &result.search {
        let floor = search.baseline_gflops.max(search.greedy.gflops);
        let got = search.plan.projected_gflops.unwrap_or(f64::NEG_INFINITY);
        if got.is_nan() || got < floor {
            return Err(OracleFailure::new(
                "search-floor",
                format!(
                    "the plan projects {got} GFLOPS, below the greedy seed's {} or the \
                     baseline's {}",
                    search.greedy.gflops, search.baseline_gflops
                ),
            )
            .with_plan(Some(&search.plan)));
        }
    }

    // 6. tuning-monotone
    check_tuning_monotone(program, &result, &config(seed).profiler())?;

    // 7. hidden-miscompile
    for d in result.degradations() {
        if degradation_smells_like_miscompile(&d.action, &d.reason) {
            return Err(OracleFailure::new(
                "hidden-miscompile",
                format!(
                    "degradation hides a verification failure: {} ({})",
                    d.action, d.reason
                ),
            )
            .with_plan(result.executed_plan().or_else(|| result.planned())));
        }
    }

    // 8. pipeline-verification
    if let Some(v) = &result.verification {
        if !v.passed() {
            return Err(OracleFailure::new(
                "pipeline-verification",
                format!(
                    "pipeline verification failed: {}",
                    v.failure().unwrap_or_else(|| "unknown".into())
                ),
            )
            .with_plan(result.executed_plan()));
        }
    }

    // 9. differential (independent re-verification, different data seed)
    match verify_equivalence(program, &result.program, seed ^ 0xD1FF) {
        Err(e) => {
            return Err(OracleFailure::new(
                "differential",
                format!("could not interpret the transformed program: {e}"),
            )
            .with_plan(result.executed_plan()))
        }
        Ok(v) if !v.passed() => {
            return Err(OracleFailure::new(
                "differential",
                format!(
                    "transformed program diverges from the original: {}",
                    v.failure().unwrap_or_else(|| "unknown".into())
                ),
            )
            .with_plan(result.executed_plan()))
        }
        Ok(_) => {}
    }

    // 10/11. plan round-trip + replay
    if let Some(plan) = result.executed_plan().or_else(|| result.planned()) {
        match TransformPlan::from_json(&plan.to_json()) {
            Err(e) => {
                return Err(OracleFailure::new(
                    "plan-roundtrip",
                    format!("plan JSON does not parse back: {e}"),
                )
                .with_plan(Some(plan)))
            }
            Ok(back) if &back != plan => {
                return Err(OracleFailure::new(
                    "plan-roundtrip",
                    "plan JSON round trip changed the plan".to_string(),
                )
                .with_plan(Some(plan)))
            }
            Ok(_) => {}
        }
        check_replay(program, &result, plan, seed)?;
    }

    // 12. degradation ladder under injected faults
    check_ladder(program, seed)?;

    Ok(())
}

/// Re-emit `result`'s executed plan with block tuning off and require the
/// tuner's contract of the tuned program: profiled by `profiler` (the
/// run's own), every launch of a tuned kernel prices no slower, runs at no
/// lower occupancy and launches no more threads than the same launch at
/// its initial block, and the whole program prices no slower.
pub fn check_tuning_monotone(
    program: &Program,
    result: &TransformResult,
    profiler: &Profiler,
) -> Result<(), OracleFailure> {
    let (Some(plan), Some(transform)) = (result.executed_plan(), &result.transform) else {
        return Ok(());
    };
    if !plan.block_tuning || transform.tuning.is_empty() {
        return Ok(());
    }
    let fail = |detail: String| OracleFailure::new("tuning-monotone", detail).with_plan(Some(plan));
    let untuned_plan = TransformPlan {
        block_tuning: false,
        ..plan.clone()
    };
    let untuned = ExecutablePlan::from_program(program)
        .map_err(|e| e.to_string())
        .and_then(|exec| {
            transform_program(program, &exec, &untuned_plan).map_err(|e| e.to_string())
        })
        .map_err(|e| fail(format!("the plan does not re-emit untuned: {e}")))?;
    let profile = |p: &Program| {
        let exec = ExecutablePlan::from_program(p).map_err(|e| e.to_string())?;
        let profile = profiler
            .profile_with_plan(p, &exec)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((exec, profile))
    };
    let (tuned_exec, tuned) =
        profile(&result.program).map_err(|e| fail(format!("tuned program: {e}")))?;
    let (untuned_exec, untuned) =
        profile(&untuned.program).map_err(|e| fail(format!("untuned program: {e}")))?;
    for note in &transform.tuning {
        let launches = |exec: &ExecutablePlan| -> Vec<usize> {
            let of = exec.launches.iter().filter(|l| l.kernel == note.kernel);
            of.map(|l| l.seq).collect()
        };
        let (after, before) = (launches(&tuned_exec), launches(&untuned_exec));
        if after.len() != before.len() || after.is_empty() {
            return Err(fail(format!(
                "`{}` launches {} time(s) tuned, {} untuned",
                note.kernel,
                after.len(),
                before.len()
            )));
        }
        for (&a, &b) in after.iter().zip(&before) {
            let (la, lb) = (&tuned_exec.launches[a], &untuned_exec.launches[b]);
            let us = (tuned.costs[a].total_us(), untuned.costs[b].total_us());
            let occ = (tuned.costs[a].occupancy, untuned.costs[b].occupancy);
            let threads = (
                la.grid.count() * la.block.count(),
                lb.grid.count() * lb.block.count(),
            );
            if us.0 > us.1 || occ.0 < occ.1 || threads.0 > threads.1 {
                return Err(fail(format!(
                    "`{}` tuned to block {} prices {} µs at occupancy {} over {} threads; \
                     at block {} it priced {} µs at occupancy {} over {} threads",
                    note.kernel, la.block, us.0, occ.0, threads.0, lb.block, us.1, occ.1, threads.1
                )));
            }
        }
    }
    if tuned.total_runtime_us > untuned.total_runtime_us {
        return Err(fail(format!(
            "the tuned program prices {} µs, untuned {} µs",
            tuned.total_runtime_us, untuned.total_runtime_us
        )));
    }
    Ok(())
}

/// Replay the emitted plan through `--from-plan` codegen and require the
/// transformed program byte-for-byte.
fn check_replay(
    program: &Program,
    result: &TransformResult,
    plan: &TransformPlan,
    seed: u64,
) -> Result<(), OracleFailure> {
    let replay_cfg = config(seed).with_plan(plan.clone());
    let replay = Pipeline::new(program.clone(), replay_cfg)
        .and_then(|p| p.run())
        .map_err(|e| {
            OracleFailure::new("replay-run", format!("plan replay failed: {e}"))
                .with_plan(Some(plan))
        })?;
    let first = print_program(&result.program);
    let second = print_program(&replay.program);
    if first != second {
        return Err(OracleFailure::new(
            "replay-divergence",
            format!(
                "plan replay produced a different program ({} vs {} bytes)",
                first.len(),
                second.len()
            ),
        )
        .with_plan(Some(plan)));
    }
    Ok(())
}

/// Force each degradation rung with blanket fault plans and require the
/// ladder contract: the run still succeeds, and the result is either a
/// verified transformed program or the untouched original — never a
/// silently wrong one.
fn check_ladder(program: &Program, seed: u64) -> Result<(), OracleFailure> {
    check_ladder_at(program, seed, 1)
}

/// [`check_ladder`] with the temporal dimension capped at `max_temporal`
/// (1 = the spatial-only ladder `spatial → unfused`; above 1 a folded
/// group walks `temporal → spatial → unfused`, each attempt tuned and
/// kept at its initial block when the tuner is rejected).
fn check_ladder_at(program: &Program, seed: u64, max_temporal: u32) -> Result<(), OracleFailure> {
    let all: std::collections::BTreeSet<usize> = (0..8).collect();
    let names: [&'static str; 3] = if max_temporal > 1 {
        [
            "temporal-ladder-tuned-reject",
            "temporal-ladder-reject",
            "temporal-ladder-panic",
        ]
    } else {
        ["ladder-tuned-reject", "ladder-reject", "ladder-panic"]
    };
    let rungs: [(&'static str, FaultPlan); 3] = [
        (
            names[0],
            FaultPlan {
                reject_tuned_groups: all.clone(),
                ..FaultPlan::default()
            },
        ),
        (
            names[1],
            FaultPlan {
                reject_groups: all.clone(),
                ..FaultPlan::default()
            },
        ),
        (
            names[2],
            FaultPlan {
                panic_groups: all,
                ..FaultPlan::default()
            },
        ),
    ];
    for (check, faults) in rungs {
        let mut cfg = config(seed)
            .with_faults(faults)
            .with_max_temporal(max_temporal);
        // Tune every attempt, so the tuned-reject pass has a tuner to reject.
        cfg.block_tuning = true;
        let result = Pipeline::new(program.clone(), cfg)
            .and_then(|p| p.run())
            .map_err(|e| {
                OracleFailure::new(
                    check,
                    format!("faulted run did not degrade, it failed: {e}"),
                )
            })?;
        for d in result.degradations() {
            if degradation_smells_like_miscompile(&d.action, &d.reason) {
                return Err(OracleFailure::new(
                    check,
                    format!("faulted run hid a miscompile: {} ({})", d.action, d.reason),
                )
                .with_plan(result.executed_plan().or_else(|| result.planned())));
            }
        }
        let verified = result.verification.as_ref().is_some_and(|v| v.passed());
        let kept_original = result.program == *program;
        if !verified && !kept_original {
            return Err(OracleFailure::new(
                check,
                "faulted run produced an unverified program that is not the original".to_string(),
            )
            .with_plan(result.executed_plan().or_else(|| result.planned())));
        }
    }
    Ok(())
}

/// Opt-in temporal check (`--temporal`): the pipeline contract must hold
/// with the temporal-blocking dimension live. A degree cap of 1 must
/// reproduce the pre-temporal schedule deterministically and never stamp
/// a degree above 1; for caps 2 and 4 the Degrade-policy run must
/// succeed, hide no miscompile, verify (or keep the original), agree
/// with an independent interpretation, stay within the cap, round-trip
/// and replay its plan byte-for-byte, and re-run byte-identically
/// (plans are byte-deterministic per seed). Finally the fault ladder is
/// walked with the temporal attempt in play.
fn check_temporal(program: &Program, seed: u64) -> Result<(), OracleFailure> {
    let run = |check: &'static str, cap: u32| -> Result<TransformResult, OracleFailure> {
        Pipeline::new(program.clone(), config(seed).with_max_temporal(cap))
            .and_then(|p| p.run())
            .map_err(|e| OracleFailure::new(check, format!("temporal run (cap {cap}) failed: {e}")))
    };

    // Cap 1: the pre-temporal schedule, byte-deterministic, degree-free.
    let base_a = run("temporal-identity", 1)?;
    let base_b = run("temporal-identity", 1)?;
    if print_program(&base_a.program) != print_program(&base_b.program) {
        return Err(OracleFailure::new(
            "temporal-identity",
            "two cap-1 runs disagree byte for byte".to_string(),
        )
        .with_plan(base_a.executed_plan().or_else(|| base_a.planned())));
    }
    if let Some(plan) = base_a.executed_plan().or_else(|| base_a.planned()) {
        if plan.groups.iter().any(|g| g.temporal != 1) {
            return Err(OracleFailure::new(
                "temporal-identity",
                "cap-1 run stamped a temporal degree above 1".to_string(),
            )
            .with_plan(Some(plan)));
        }
    }

    for cap in [2u32, 4] {
        let result = run("temporal-run", cap)?;
        for d in result.degradations() {
            if degradation_smells_like_miscompile(&d.action, &d.reason) {
                return Err(OracleFailure::new(
                    "temporal-miscompile",
                    format!(
                        "temporal run (cap {cap}) hid a verification failure: {} ({})",
                        d.action, d.reason
                    ),
                )
                .with_plan(result.executed_plan().or_else(|| result.planned())));
            }
        }
        let verified = result.verification.as_ref().is_some_and(|v| v.passed());
        let kept_original = result.program == *program;
        if !verified && !kept_original {
            return Err(OracleFailure::new(
                "temporal-verification",
                format!("cap-{cap} run produced an unverified program that is not the original"),
            )
            .with_plan(result.executed_plan().or_else(|| result.planned())));
        }
        match verify_equivalence(program, &result.program, seed ^ 0x7e30 ^ u64::from(cap)) {
            Err(e) => {
                return Err(OracleFailure::new(
                    "temporal-differential",
                    format!("could not interpret the cap-{cap} program: {e}"),
                )
                .with_plan(result.executed_plan()))
            }
            Ok(v) if !v.passed() => {
                return Err(OracleFailure::new(
                    "temporal-differential",
                    format!(
                        "cap-{cap} program diverges from the original: {}",
                        v.failure().unwrap_or_else(|| "unknown".into())
                    ),
                )
                .with_plan(result.executed_plan()))
            }
            Ok(_) => {}
        }
        check_tuning_monotone(program, &result, &config(seed).profiler())?;
        if let Some(plan) = result.executed_plan().or_else(|| result.planned()) {
            if plan
                .groups
                .iter()
                .any(|g| g.temporal < 1 || g.temporal > cap)
            {
                return Err(OracleFailure::new(
                    "temporal-cap",
                    format!("plan stamped a degree outside 1..={cap}"),
                )
                .with_plan(Some(plan)));
            }
            match TransformPlan::from_json(&plan.to_json()) {
                Err(e) => {
                    return Err(OracleFailure::new(
                        "temporal-plan-roundtrip",
                        format!("temporal plan JSON does not parse back: {e}"),
                    )
                    .with_plan(Some(plan)))
                }
                Ok(back) if &back != plan => {
                    return Err(OracleFailure::new(
                        "temporal-plan-roundtrip",
                        "temporal plan JSON round trip changed the plan".to_string(),
                    )
                    .with_plan(Some(plan)))
                }
                Ok(_) => {}
            }
            let replay_cfg = config(seed).with_max_temporal(cap).with_plan(plan.clone());
            let replay = Pipeline::new(program.clone(), replay_cfg)
                .and_then(|p| p.run())
                .map_err(|e| {
                    OracleFailure::new(
                        "temporal-replay",
                        format!("temporal plan replay failed: {e}"),
                    )
                    .with_plan(Some(plan))
                })?;
            if print_program(&result.program) != print_program(&replay.program) {
                return Err(OracleFailure::new(
                    "temporal-replay",
                    format!("cap-{cap} plan replay produced a different program"),
                )
                .with_plan(Some(plan)));
            }
        }
        let again = run("temporal-determinism", cap)?;
        let plans_agree = match (
            result.executed_plan().or_else(|| result.planned()),
            again.executed_plan().or_else(|| again.planned()),
        ) {
            (Some(a), Some(b)) => a.to_json() == b.to_json(),
            (None, None) => true,
            _ => false,
        };
        if print_program(&result.program) != print_program(&again.program) || !plans_agree {
            return Err(OracleFailure::new(
                "temporal-determinism",
                format!("two cap-{cap} runs disagree (program or plan bytes)"),
            )
            .with_plan(result.executed_plan().or_else(|| result.planned())));
        }
    }

    // The fault ladder with the temporal attempt in play.
    check_ladder_at(program, seed, 2)
}

/// Opt-in cache check: the persistent plan cache must be a faithful,
/// fault-tolerant transport for the emitted plan. A clean store must
/// round-trip the payload and replay it to the same bytes the pipeline
/// produced; a store armed with the seed's cache-fault mix must either
/// serve the intact payload or quarantine-and-recover — a torn or flipped
/// entry served as a hit would silently replay a wrong plan.
fn check_plan_cache(program: &Program, seed: u64) -> Result<(), OracleFailure> {
    use sf_cache::{CacheErrorKind, CacheKey, Lookup, PlanStore, StoreOptions};
    use sf_core::CacheFaults;
    use std::time::Duration;

    let result = Pipeline::new(program.clone(), config(seed))
        .and_then(|p| p.run())
        .map_err(|e| OracleFailure::new("cache-run", format!("pipeline run failed: {e}")))?;
    let Some(plan) = result.executed_plan().or_else(|| result.planned()) else {
        return Ok(()); // nothing to cache: the program had no fusible groups
    };
    let payload = plan.to_json();
    let key = CacheKey::derive(&print_program(program), "k20x", "fuzz-oracle");
    let dir = std::env::temp_dir().join(format!("sf-fuzz-cache-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let zero_timeout = |faults: CacheFaults| StoreOptions {
        lock_timeout: Duration::ZERO,
        faults,
        ..StoreOptions::default()
    };
    let fail = |check: &'static str, detail: String| {
        let _ = std::fs::remove_dir_all(&dir);
        Err(OracleFailure::new(check, detail).with_plan(Some(plan)))
    };

    // Clean round trip + replay from the cached payload.
    {
        let store = match PlanStore::open(&dir) {
            Ok(s) => s,
            Err(e) => return fail("cache-roundtrip", format!("store did not open: {e}")),
        };
        if let Err(e) = store.publish(&key, &payload) {
            return fail("cache-roundtrip", format!("publish failed: {e}"));
        }
        let served = match store.lookup(&key) {
            Ok(Lookup::Hit(entry)) => entry.payload,
            other => {
                return fail(
                    "cache-roundtrip",
                    format!("lookup after publish: {other:?}"),
                )
            }
        };
        if served != payload {
            return fail(
                "cache-roundtrip",
                "served payload differs from published".into(),
            );
        }
        let cached = match TransformPlan::from_json(&served) {
            Ok(p) => p,
            Err(e) => {
                return fail(
                    "cache-replay",
                    format!("cached payload does not parse: {e}"),
                )
            }
        };
        let replay = match Pipeline::new(program.clone(), config(seed).with_plan(cached))
            .and_then(|p| p.run())
        {
            Ok(r) => r,
            Err(e) => return fail("cache-replay", format!("cached plan did not replay: {e}")),
        };
        if print_program(&replay.program) != print_program(&result.program) {
            return fail(
                "cache-replay",
                "replay from the cache diverged from the pipeline's program".into(),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Seeded fault mix: the store must degrade, never lie and never die.
    let faults = FaultPlan::seeded(seed).cache;
    {
        let store = match PlanStore::open_with(&dir, zero_timeout(faults)) {
            Ok(s) => s,
            Err(e) => {
                return fail(
                    "cache-fault-open",
                    format!("faulted store did not open: {e}"),
                )
            }
        };
        // A publish that fails under a live process (a full disk) is an
        // environment condition, not a serving failure: the batch driver
        // notes it on a request that still succeeds. What must hold instead
        // is that the failed write left nothing behind. A simulated crash
        // is different — it leaves every file exactly where it was.
        let failed_alive = match store.publish(&key, &payload) {
            Ok(_) => false,
            Err(e) => e.kind != CacheErrorKind::Killed,
        };
        // Whatever the fault left behind, a lookup must not error and must
        // not serve bytes that differ from the published payload.
        match store.lookup(&key) {
            Ok(Lookup::Hit(entry)) if entry.payload != payload => {
                return fail(
                    "cache-fault-integrity",
                    "corrupted payload served as a hit".into(),
                )
            }
            Ok(Lookup::Recovered { reason, .. }) if failed_alive => {
                return fail(
                    "cache-fault-publish",
                    format!("a failed publish left a bad entry behind: {reason}"),
                )
            }
            Ok(_) => {}
            Err(e) => return fail("cache-fault-lookup", format!("lookup errored: {e}")),
        }
        if failed_alive {
            match store.verify_integrity() {
                Ok((_, 0)) => {}
                other => {
                    return fail(
                        "cache-fault-publish",
                        format!("store does not verify after a failed publish: {other:?}"),
                    )
                }
            }
            let orphans = std::fs::read_dir(dir.join("tmp")).map_or(0, |files| files.count());
            if orphans > 0 {
                return fail(
                    "cache-fault-publish",
                    format!("a failed publish left {orphans} file(s) under tmp/"),
                );
            }
        }
    }
    // "Reboot" clean (breaking any crash-leaked lock) and recover the slot.
    {
        let store = match PlanStore::open_with(&dir, zero_timeout(CacheFaults::default())) {
            Ok(s) => s,
            Err(e) => return fail("cache-fault-reopen", format!("reopen failed: {e}")),
        };
        if let Err(e) = store.publish(&key, &payload) {
            return fail("cache-fault-recovery", format!("slot did not recover: {e}"));
        }
        match store.lookup(&key) {
            Ok(Lookup::Hit(entry)) if entry.payload == payload => {}
            other => {
                return fail(
                    "cache-fault-recovery",
                    format!("recovered slot does not serve the payload: {other:?}"),
                )
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Opt-in island check: a sharded (`islands = 2`) search must keep every
/// promise the one-island search makes, plus its own three. Determinism: two
/// island runs with the same seed agree byte for byte (the canonical
/// merge makes the thread schedule unobservable). Supervision: a run
/// whose islands panic/stall/get killed by the seed's fault plan must
/// *degrade* — quarantine the island, keep the elites, finish with a
/// verified program (or the untouched original), and never smuggle a
/// verification failure through a degradation. Resume: a search killed at
/// its first checkpoint epoch must continue from the snapshot to the
/// byte-identical program the uninterrupted run produced.
fn check_islands(program: &Program, seed: u64) -> Result<(), OracleFailure> {
    let island_cfg = || {
        let mut cfg = config(seed);
        cfg.search.islands = 2;
        cfg.search.migration_interval = 4;
        cfg.search.migrants = 1;
        cfg
    };
    let run =
        |check: &'static str, cfg: PipelineConfig| -> Result<TransformResult, OracleFailure> {
            Pipeline::new(program.clone(), cfg)
                .and_then(|p| p.run())
                .map_err(|e| OracleFailure::new(check, format!("island run failed: {e}")))
        };

    // Determinism across runs (and, in CI, across RAYON_NUM_THREADS —
    // thread count is an env var, so the matrix lives in separate
    // processes there).
    let first = run("islands-run", island_cfg())?;
    let second = run("islands-run", island_cfg())?;
    if print_program(&first.program) != print_program(&second.program) {
        return Err(OracleFailure::new(
            "islands-determinism",
            "two island runs with the same seed produced different programs".to_string(),
        )
        .with_plan(first.executed_plan().or_else(|| first.planned())));
    }
    if first.executed_plan() != second.executed_plan() {
        return Err(OracleFailure::new(
            "islands-determinism",
            "two island runs with the same seed executed different plans".to_string(),
        )
        .with_plan(first.executed_plan().or_else(|| first.planned())));
    }

    // Seeded island faults (or, when the seed drew none, a guaranteed
    // panic) must degrade, never fail, and never hide a miscompile.
    let mut island_faults = FaultPlan::seeded(seed).islands;
    if island_faults == sf_core::IslandFaults::default() {
        island_faults
            .panic_at
            .insert((seed % 2) as usize, (seed % 3) as usize);
    }
    let faulted_cfg = island_cfg().with_faults(FaultPlan {
        islands: island_faults,
        ..FaultPlan::default()
    });
    let faulted = run("islands-faulted", faulted_cfg)?;
    for d in faulted.degradations() {
        if degradation_smells_like_miscompile(&d.action, &d.reason) {
            return Err(OracleFailure::new(
                "islands-faulted",
                format!("island run hid a miscompile: {} ({})", d.action, d.reason),
            )
            .with_plan(faulted.executed_plan().or_else(|| faulted.planned())));
        }
    }
    let verified = faulted.verification.as_ref().is_some_and(|v| v.passed());
    let kept_original = faulted.program == *program;
    if !verified && !kept_original {
        return Err(OracleFailure::new(
            "islands-faulted",
            "faulted island run produced an unverified program that is not the original"
                .to_string(),
        )
        .with_plan(faulted.executed_plan().or_else(|| faulted.planned())));
    }

    // Kill at the first checkpoint epoch, then resume: byte-identical to
    // the uninterrupted run.
    let dir = std::env::temp_dir().join(format!("sf-fuzz-islands-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return Err(OracleFailure::new(
            "islands-resume",
            format!("could not create checkpoint dir: {e}"),
        ));
    }
    let ckpt = dir.join("search.ckpt");
    let finish = |r: Result<(), OracleFailure>| {
        let _ = std::fs::remove_dir_all(&dir);
        r.map_err(|f| f.with_plan(first.executed_plan().or_else(|| first.planned())))
    };
    let killed_cfg = island_cfg().with_checkpoint(&ckpt).with_faults(FaultPlan {
        islands: sf_core::IslandFaults {
            kill_at_epoch: Some(0),
            ..sf_core::IslandFaults::default()
        },
        ..FaultPlan::default()
    });
    if let Err(f) = run("islands-resume", killed_cfg) {
        return finish(Err(f));
    }
    if !ckpt.exists() {
        return finish(Err(OracleFailure::new(
            "islands-resume",
            "killed run left no checkpoint behind".to_string(),
        )));
    }
    let resumed = match run("islands-resume", island_cfg().with_resume(&ckpt)) {
        Ok(r) => r,
        Err(f) => return finish(Err(f)),
    };
    if print_program(&resumed.program) != print_program(&first.program) {
        return finish(Err(OracleFailure::new(
            "islands-resume",
            "resumed search diverged from the uninterrupted run".to_string(),
        )));
    }
    finish(Ok(()))
}

/// Opt-in cross-device check: compile the program on the first registry
/// device, then for every other device require (a) the source plan is
/// *rejected* when replayed there — the structured device-mismatch, never
/// a silent wrong-device projection; (b) porting it there (`--port-plan`
/// semantics: elite-seeded reduced search) succeeds, passes an independent
/// differential verification, and the ported plan replays byte-identically
/// on its own device.
fn check_devices(program: &Program, seed: u64) -> Result<(), OracleFailure> {
    let registry = sf_gpusim::DeviceRegistry::builtin();
    let devices = registry.devices();
    let source_device = devices[0].clone();
    let source = Pipeline::new(program.clone(), config_for(seed, source_device.clone()))
        .and_then(|p| p.run())
        .map_err(|e| {
            OracleFailure::new("devices-source", format!("source-device run failed: {e}"))
        })?;
    let Some(plan) = source.executed_plan().or_else(|| source.planned()) else {
        return Ok(()); // nothing portable: the program had no fusible groups
    };

    for target in &devices[1..] {
        // (a) Cross-device replay must be a structured rejection.
        let replay_cfg = config_for(seed, target.clone()).with_plan(plan.clone());
        match Pipeline::new(program.clone(), replay_cfg).and_then(|p| p.run()) {
            Ok(_) => {
                return Err(OracleFailure::new(
                    "devices-mismatch",
                    format!(
                        "plan for {} replayed on {} instead of being rejected",
                        source_device.name, target.name
                    ),
                )
                .with_plan(Some(plan)))
            }
            Err(e) if e.kind.label() == "device-mismatch" => {}
            Err(e) => {
                return Err(OracleFailure::new(
                    "devices-mismatch",
                    format!(
                        "cross-device replay on {} failed, but not as a device mismatch: {e}",
                        target.name
                    ),
                )
                .with_plan(Some(plan)))
            }
        }

        // (b) The port path re-targets explicitly and must hold the full
        // contract on the target device.
        let port_cfg = config_for(seed, target.clone()).with_port_plan(plan.clone());
        let ported = Pipeline::new(program.clone(), port_cfg)
            .and_then(|p| p.run())
            .map_err(|e| {
                OracleFailure::new(
                    "devices-port",
                    format!("port to {} failed: {e}", target.name),
                )
                .with_plan(Some(plan))
            })?;
        match verify_equivalence(program, &ported.program, seed ^ 0xDE5) {
            Err(e) => {
                return Err(OracleFailure::new(
                    "devices-differential",
                    format!("ported program on {} does not interpret: {e}", target.name),
                )
                .with_plan(ported.executed_plan()))
            }
            Ok(v) if !v.passed() => {
                return Err(OracleFailure::new(
                    "devices-differential",
                    format!(
                        "ported program on {} diverges from the original: {}",
                        target.name,
                        v.failure().unwrap_or_else(|| "unknown".into())
                    ),
                )
                .with_plan(ported.executed_plan()))
            }
            Ok(_) => {}
        }
        if let Some(ported_plan) = ported.executed_plan().or_else(|| ported.planned()) {
            let replay = Pipeline::new(
                program.clone(),
                config_for(seed, target.clone()).with_plan(ported_plan.clone()),
            )
            .and_then(|p| p.run())
            .map_err(|e| {
                OracleFailure::new(
                    "devices-replay",
                    format!("ported plan did not replay on {}: {e}", target.name),
                )
                .with_plan(Some(ported_plan))
            })?;
            if print_program(&replay.program) != print_program(&ported.program) {
                return Err(OracleFailure::new(
                    "devices-replay",
                    format!(
                        "ported plan replay on {} diverged from the ported program",
                        target.name
                    ),
                )
                .with_plan(Some(ported_plan)));
            }
        }
    }
    Ok(())
}
