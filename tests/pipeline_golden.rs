//! Golden fixture for the pipeline driver: everything a caller of
//! [`Pipeline::run`] can observe about *how a run ended*, for every way a
//! run can end. For each of the eight application analogs
//! (`PipelineConfig::quick` on the K20X, degree cap 4 on the `-ts` pair):
//!
//! - the full run, and `run_until` = each of the five early stages;
//! - a `with_plan` replay of the full run's executed plan;
//! - `FaultPlan::seeded(0..32)` under `Degrade` and under `Strict`;
//! - the endings no seeded plan reaches, under both policies: a profile
//!   that loses every repetition, one tight cap per governed resource (the
//!   population caps at two islands, so every search-budget rung fires),
//!   a `heap-bytes` cap with room for one memory image of the original
//!   program but not for two, a replay and a port on another device, a
//!   run with verification off and a run from the full run's metadata
//!   bundle.
//!
//! One line per case in `tests/golden/pipeline/<app>.txt`. An `Ok` run
//! records hashes of the printed program, the executed-or-planned plan
//! JSON, every rendered [`StageReport`] and the stage artifacts, the bits
//! of the three modeled times, and which artifact fields are present; an
//! `Err` run records stage, class, kind label and the full `Display` text.
//!
//! The fixture was generated at the commit *before* `run_with` became a
//! loop over stage functions, so a restructuring of the driver that is
//! meant to keep behaviour must leave it untouched. (One intended change
//! since: the `cap-interpreter-steps-8-*` rows became the stage-1
//! rejection when the functional profiles joined that budget; the rungs
//! they used to reach are pinned in `tests/resource_governance.rs`.) The
//! `cap-heap-bytes-*` rows were generated at the parent of the change that
//! lets the verifier compare the profiles' memory images: the image the
//! profile keeps and the one the verifier then cannot make must add up to
//! the same refusal the parent's two up-front images did. The rows of the
//! five spatial analogs were re-blessed when the block tuner began ranking
//! shapes by modelled time: their tuned kernels and the codegen report's
//! `tuned` lines (now with µs) moved, their errors did not. The `fault-*`
//! rows were re-blessed when nothing deterministic was retried any more:
//! a seed whose plan drew the retired whole-profile failures lost the
//! metadata report's recovery line, and a poisoned evaluation is scored at
//! once (a search degradation, and under `Strict` a stop at the search
//! stage); `profiler-exhausted-*` became `lost-reps-*`, the ending it
//! stood for. Every other row passed untouched. The `lost-reps-*` rows were
//! re-blessed again when the transient class was retired: a lost profile
//! is degradable, so its class and the degradation line naming it moved.
//! The `artifacts` column of every row that carries a metadata bundle was
//! re-blessed when the operations metadata dropped the six summaries no
//! stage read (stencil shapes, sweeps, nest depth, shared arrays, FLOPs
//! per array, access stride); no other column of any row moved.
//!
//! To regenerate after an intentional change to a report line, a
//! degradation or a plan: `UPDATE_GOLDEN=1 cargo test --test pipeline_golden`

use sf_apps::{AppConfig, APP_NAMES};
use sf_core::{Limits, ResourceKind};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::GlobalMemory;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::printer::print_program;
use sf_minicuda::Program;
use std::fmt::Write as _;
use std::path::PathBuf;
use stencilfuse::{FaultPlan, Pipeline, PipelineConfig, PipelineError, Stage, TransformResult};

const FAULT_SEEDS: u64 = 32;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pipeline")
}

/// FNV-1a, rendered as 16 hex digits.
fn hash(text: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

fn rendered_reports(r: &TransformResult) -> String {
    r.reports.iter().map(|rep| rep.to_string()).collect()
}

/// Every stage artifact a caller can read off the result, as one text.
fn rendered_artifacts(r: &TransformResult) -> String {
    let mut out = String::new();
    if let Some(m) = &r.metadata {
        out += &serde_json::to_string(m).expect("metadata serializes");
    }
    let _ = write!(out, "|{:?}", r.decisions);
    let _ = write!(out, "|{}|{}|{}", r.ddg_dot, r.oeg_dot, r.new_oeg_dot);
    if let Some(plan) = r.planned() {
        let _ = write!(out, "|{}", plan.to_json());
    }
    for profile in [&r.original_profile, &r.transformed_profile]
        .into_iter()
        .flatten()
    {
        let _ = write!(out, "|{:016x}", profile.total_runtime_us.to_bits());
    }
    if let Some(v) = &r.verification {
        let _ = write!(out, "|verified={}", v.passed());
    }
    out
}

fn present(r: &TransformResult) -> String {
    let fields = [
        ("metadata", r.metadata.is_some()),
        ("decisions", !r.decisions.is_empty()),
        ("ddg", !r.ddg_dot.is_empty()),
        ("oeg", !r.oeg_dot.is_empty()),
        ("new-oeg", !r.new_oeg_dot.is_empty()),
        ("search", r.search.is_some()),
        ("transform", r.transform.is_some()),
        ("original-profile", r.original_profile.is_some()),
        ("transformed-profile", r.transformed_profile.is_some()),
        ("verification", r.verification.is_some()),
    ];
    let names: Vec<&str> = fields.iter().filter(|f| f.1).map(|f| f.0).collect();
    if names.is_empty() {
        "none".to_string()
    } else {
        names.join(",")
    }
}

fn digest(outcome: &Result<TransformResult, PipelineError>) -> String {
    match outcome {
        Ok(r) => {
            let plan = r.executed_plan().or_else(|| r.planned());
            format!(
                "ok program={} plan={} reports={}x{} degradations={} artifacts={} \
                 times={:016x}/{:016x} speedup={:016x} some={}",
                hash(&print_program(&r.program)),
                plan.map_or("none".to_string(), |p| hash(&p.to_json())),
                r.reports.len(),
                hash(&rendered_reports(r)),
                r.degradations().len(),
                hash(&rendered_artifacts(r)),
                r.original_time_us.to_bits(),
                r.transformed_time_us.to_bits(),
                r.speedup.to_bits(),
                present(r),
            )
        }
        Err(e) => format!(
            "err stage={} class={} kind={} display={e}",
            e.stage.name(),
            e.class.name(),
            e.kind.label()
        ),
    }
}

fn run(program: &Program, config: PipelineConfig) -> Result<TransformResult, PipelineError> {
    Pipeline::new(program.clone(), config).and_then(|p| p.run())
}

/// `(case name, digest line, rendered reports for the failure message)`.
type Case = (String, String, String);

fn case(name: String, outcome: Result<TransformResult, PipelineError>) -> Case {
    let detail = outcome.as_ref().map(rendered_reports).unwrap_or_default();
    (name, digest(&outcome), detail)
}

/// `AppConfig::test()`'s kernel counts on a 32×8×2 domain: the driver's
/// paths do not depend on the extents, and the 71+ runs per analog stay
/// affordable in a debug build.
fn domain() -> AppConfig {
    AppConfig {
        nx: 32,
        ny: 8,
        nz: 2,
        ..AppConfig::test()
    }
}

fn cases(name: &str) -> Vec<Case> {
    let app = sf_apps::app_by_name(name, &domain()).expect("registered analog");
    let program = &app.program;
    let mut base = PipelineConfig::quick(DeviceSpec::k20x());
    if name.ends_with("-ts") {
        base = base.with_max_temporal(4);
    }

    let mut out = Vec::new();
    let full = run(program, base.clone());
    let replayed = full
        .as_ref()
        .ok()
        .and_then(|r| r.executed_plan().or_else(|| r.planned()).cloned());
    let metadata = full.as_ref().ok().and_then(|r| r.metadata.clone());
    out.push(case("full".into(), full));
    for stage in &Stage::ALL[..5] {
        let mut config = base.clone();
        config.run_until = Some(*stage);
        out.push(case(
            format!("until-{}", stage.name()),
            run(program, config),
        ));
    }
    let plan = replayed.expect("the full run produced a plan to replay");
    out.push(case(
        "replay".into(),
        run(program, base.clone().with_plan(plan.clone())),
    ));
    for seed in 0..FAULT_SEEDS {
        let faulted = base.clone().with_faults(FaultPlan::seeded(seed));
        out.push(case(
            format!("fault-{seed:02}-degrade"),
            run(program, faulted.clone()),
        ));
        out.push(case(
            format!("fault-{seed:02}-strict"),
            run(program, faulted.strict()),
        ));
    }

    // The ways a run can end that no seeded fault plan reaches.
    let mut both_policies = |name: &str, config: PipelineConfig| {
        out.push(case(
            format!("{name}-degrade"),
            run(program, config.clone()),
        ));
        out.push(case(
            format!("{name}-strict"),
            run(program, config.strict()),
        ));
    };
    let lost_reps = FaultPlan {
        rep_failures: 100,
        ..FaultPlan::default()
    };
    both_policies("lost-reps", base.clone().with_faults(lost_reps));
    for (kind, cap) in [
        (ResourceKind::Launches, 1),
        (ResourceKind::PrecedenceDepth, 1),
        (ResourceKind::CandidateSet, 1),
        (ResourceKind::PopulationBytes, 10),
        (ResourceKind::PopulationBytes, 8192),
        (ResourceKind::InterpreterSteps, 8),
    ] {
        // Two islands only where the ladder's "one island" rung takes them
        // away again: a search that really runs on two reports projection
        // cache counters that race by one.
        let islands = if kind == ResourceKind::PopulationBytes {
            2
        } else {
            1
        };
        let budget = Limits::unlimited().cap(kind, cap);
        both_policies(
            &format!("cap-{}-{cap}", kind.name()),
            base.clone().with_islands(islands).with_budget(budget),
        );
    }
    // Room for one memory image of the original program, not for two.
    let image = GlobalMemory::plan_bytes(&ExecutablePlan::from_program(program).expect("plan"));
    let budget = Limits::unlimited().cap(ResourceKind::HeapBytes, image);
    both_policies(
        &format!("cap-heap-bytes-{image}"),
        base.clone().with_budget(budget),
    );
    let mut k40 = PipelineConfig::quick(DeviceSpec::k40());
    k40.search = base.search.clone();
    out.push(case(
        "replay-on-another-device".into(),
        run(program, k40.clone().with_plan(plan.clone())),
    ));
    out.push(case(
        "port-to-k40".into(),
        run(program, k40.with_port_plan(plan)),
    ));
    let mut unverified = base.clone();
    unverified.verify = false;
    out.push(case("no-verify".into(), run(program, unverified)));
    let mut from_metadata = base;
    from_metadata.preloaded_metadata = metadata;
    out.push(case("from-metadata".into(), run(program, from_metadata)));
    out
}

/// One analog's cases against its golden (or the golden rewritten).
fn check_app(name: &str, update: bool) -> Vec<String> {
    let actual = cases(name);
    let path = golden_dir().join(format!("{name}.txt"));
    if update {
        std::fs::create_dir_all(golden_dir()).expect("mkdir tests/golden/pipeline");
        let text: String = actual
            .iter()
            .map(|(n, d, _)| format!("{n}\t{d}\n"))
            .collect();
        std::fs::write(&path, text).expect("write golden");
        return Vec::new();
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden `{}` unreadable ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let golden: Vec<(&str, &str)> = text.lines().filter_map(|l| l.split_once('\t')).collect();
    let mut failures = Vec::new();
    if golden.len() != actual.len() {
        failures.push(format!(
            "{name}: {} cases, golden has {}",
            actual.len(),
            golden.len()
        ));
    }
    for ((gname, gdigest), (aname, adigest, detail)) in golden.iter().zip(&actual) {
        if gname != aname || gdigest != adigest {
            failures.push(format!(
                "{name} / {aname}:\n  golden   {gname}\t{gdigest}\n  this run {aname}\t{adigest}\n{detail}"
            ));
        }
    }
    failures
}

#[test]
fn pipeline_outcomes_match_goldens() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    // The analogs are independent: one thread each.
    let failures: Vec<String> = std::thread::scope(|scope| {
        let apps: Vec<_> = APP_NAMES
            .iter()
            .map(|name| scope.spawn(move || check_app(name, update)))
            .collect();
        apps.into_iter()
            .flat_map(|app| app.join().expect("analog thread panicked"))
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} pipeline outcome(s) moved:\n{}",
        failures.len(),
        failures
            .iter()
            .take(6)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
}
