//! Trustworthy profiling under noise: the acceptance criteria for the
//! robust measurement subsystem, checked on the paper's application
//! analogs.
//!
//! * Same noise seed, same repetition count → byte-identical programs
//!   and transform plans (measurement noise is seeded, never wall-clock).
//! * Under the standard noise model (10% jitter, 5% heavy-tailed
//!   outliers, dropped counters, transients) the plan selected for
//!   mitgcm and awp-odc still verifies, and its *noise-free* projected
//!   runtime with block tuning off is within 15% of the plan selected
//!   without noise: the search ranks plans untuned, so that is the drift
//!   its robustness owns. Tuning never makes either plan slower.
//! * Injected per-repetition transient failures under `Degrade` never
//!   abort the pipeline, even stacked with whole-invocation failures
//!   beyond the retry budget.

use sf_apps::AppConfig;
use sf_gpusim::device::DeviceSpec;
use sf_plan::TransformPlan;
use stencilfuse::{FaultPlan, Pipeline, PipelineConfig, TransformResult};

fn app_program(name: &str) -> sf_minicuda::ast::Program {
    sf_apps::app_by_name(name, &AppConfig::test())
        .expect("known app")
        .program
}

fn run(name: &str, cfg: PipelineConfig) -> TransformResult {
    Pipeline::new(app_program(name), cfg)
        .expect("valid program")
        .run()
        .expect("degrade-mode run completes")
}

fn noisy_cfg(seed: u64) -> PipelineConfig {
    PipelineConfig::quick(DeviceSpec::k20x())
        .with_profile_reps(5)
        .with_noise_seed(seed)
}

#[test]
fn noisy_runs_are_byte_identical_across_repeats() {
    for name in ["mitgcm", "awp-odc"] {
        let a = run(name, noisy_cfg(42));
        let b = run(name, noisy_cfg(42));
        assert_eq!(a.program, b.program, "{name}: programs diverged");
        assert_eq!(
            a.executed_plan().map(|p| p.to_json()),
            b.executed_plan().map(|p| p.to_json()),
            "{name}: plans diverged"
        );
        assert_eq!(a.speedup, b.speedup, "{name}: modeled speedup diverged");
    }
}

/// Replay `plan` noise-free with block tuning on and off: the modelled
/// transformed device times (tuned, untuned).
fn replayed_times(name: &str, plan: &TransformPlan) -> (f64, f64) {
    let replay = |plan: TransformPlan| {
        run(
            name,
            PipelineConfig::quick(DeviceSpec::k20x()).with_plan(plan),
        )
        .transformed_time_us
    };
    let untuned = TransformPlan {
        block_tuning: false,
        ..plan.clone()
    };
    (replay(plan.clone()), replay(untuned))
}

#[test]
fn noisy_plan_verifies_and_projects_close_to_noise_free() {
    for name in ["mitgcm", "awp-odc"] {
        let baseline = run(name, PipelineConfig::quick(DeviceSpec::k20x()));
        assert!(
            baseline.verification.as_ref().expect("verified").passed(),
            "{name}: noise-free run must verify"
        );
        let noisy = run(name, noisy_cfg(7));
        assert!(
            noisy.verification.as_ref().expect("verified").passed(),
            "{name}: plan chosen under noise must still verify"
        );
        assert!(
            noisy.speedup >= 1.0,
            "{name}: noisy run degraded below original"
        );

        // Project both plans under noise-free measurement by replaying them.
        // The search ranks plans untuned (the tuner runs after it), so its
        // robustness is the untuned drift; tuning may only help each plan.
        let (base_tuned, base_untuned) = replayed_times(
            name,
            baseline.executed_plan().expect("baseline executed a plan"),
        );
        let (noisy_tuned, noisy_untuned) = replayed_times(
            name,
            noisy.executed_plan().expect("noisy run executed a plan"),
        );
        assert_eq!(
            base_tuned, baseline.transformed_time_us,
            "{name}: replay reproduces"
        );
        for (which, tuned, untuned) in [
            ("noise-free", base_tuned, base_untuned),
            ("noisy", noisy_tuned, noisy_untuned),
        ] {
            assert!(
                tuned <= untuned,
                "{name}: the {which} plan prices {tuned:.1} µs tuned, {untuned:.1} µs untuned"
            );
        }
        let drift = (noisy_untuned - base_untuned).abs() / base_untuned;
        assert!(
            drift <= 0.15,
            "{name}: noisy plan projects {noisy_untuned:.1} µs untuned vs noise-free \
             {base_untuned:.1} µs ({:.0}% drift)",
            drift * 100.0
        );
    }
}

#[test]
fn transient_rep_failures_never_abort_under_degrade() {
    // Per-rep transients stay inside the robust profiler's retry budget.
    let plan = FaultPlan {
        rep_failures: 2,
        noise_seed: Some(9),
        ..FaultPlan::default()
    };
    let cfg = PipelineConfig::quick(DeviceSpec::k20x())
        .with_profile_reps(3)
        .with_faults(plan);
    let r = run("mitgcm", cfg);
    assert!(r.speedup >= 1.0);

    // Losing every repetition (failures beyond the retry budget) fails
    // the profile, and the run still completes — at worst it keeps the
    // original program.
    let plan = FaultPlan {
        rep_failures: 100,
        noise_seed: Some(9),
        ..FaultPlan::default()
    };
    let program = app_program("mitgcm");
    let cfg = PipelineConfig::quick(DeviceSpec::k20x())
        .with_profile_reps(3)
        .with_faults(plan);
    let r = Pipeline::new(program.clone(), cfg)
        .expect("valid program")
        .run()
        .expect("Degrade never aborts on transient profiler failures");
    match &r.verification {
        Some(v) => assert!(v.passed()),
        None => assert_eq!(r.program, program),
    }
}

#[test]
fn different_noise_seeds_may_differ_but_all_stay_sound() {
    for seed in [1u64, 2, 3] {
        let r = run("mitgcm", noisy_cfg(seed));
        assert!(r.speedup >= 1.0, "seed {seed}: degraded below original");
        match &r.verification {
            Some(v) => assert!(v.passed(), "seed {seed}: verification failed"),
            None => assert_eq!(
                r.program,
                app_program("mitgcm"),
                "seed {seed}: unverified result must be the original"
            ),
        }
    }
}
