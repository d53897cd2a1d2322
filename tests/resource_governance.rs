//! Suite-level contract of the resource-governance arc (`DESIGN.md` §14):
//!
//! - every compile-bomb archetype is rejected under the service budget
//!   with structured attribution naming the exact budget it tripped,
//!   while the degenerate-but-legal 1-cell domain survives;
//! - the service budget is *calibrated*: every paper application analog
//!   runs through the full pipeline under it without a single
//!   resource-driven degradation — the budgets catch bombs, not apps;
//! - the chaos soak holds all of its invariants in-process (the CI job
//!   runs the long wall-capped version through the binary);
//! - budget exhaustion surfaces through the batch driver as a structured
//!   failure that feeds the `resource-exhausted` breaker class;
//! - the `interpreter-steps` budget covers every functional run: too small
//!   for the original's profile is a front-door rejection, too small for
//!   the transformed program's re-profile keeps the original;
//! - a verified functional compile executes each program once — the
//!   verifier compares the two profiles' images — so it is charged
//!   `original + transformed` steps, exactly what a `no-verify` compile is
//!   (the verifier's own two runs used to double that).

use sf_apps::{all_apps, AppConfig, APP_NAMES};
use sf_core::{BreakerConfig, Limits, ResourceKind};
use sf_fuzz::{hostile, Archetype, SoakConfig, ARCHETYPES};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::Interpreter;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::printer::print_program;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use stencilfuse::{
    BatchDriver, BatchOptions, BatchRequest, BatchStatus, ErrorKind, Pipeline, PipelineConfig,
    Recoverability, Stage,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sf-govern-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_hostile_archetype_keeps_its_contract() {
    for archetype in ARCHETYPES {
        hostile::check(archetype).unwrap_or_else(|detail| panic!("{detail}"));
    }
}

#[test]
fn service_budget_admits_every_application_analog() {
    // Calibration: the budgets must reject bombs, not legitimate apps.
    // Every analog runs to completion under `Limits::service()` — never
    // an admission rejection. The only budget allowed to bite at all is
    // the search rung (the GA shrinks gracefully and says so); when it
    // does not, the governed run must be byte-for-byte the unbudgeted
    // outcome.
    for app in all_apps(&AppConfig::test()) {
        let run = |budget: Limits| {
            let config = PipelineConfig::quick(DeviceSpec::k20x()).with_budget(budget);
            Pipeline::new(app.program.clone(), config)
                .expect("valid program")
                .run()
                .unwrap_or_else(|e| {
                    panic!("{}: failed under the service budget: {e}", app.paper.name)
                })
        };
        let governed = run(Limits::service());
        assert!(
            governed.speedup >= 1.0,
            "{}: governed run regressed below 1.0x",
            app.paper.name
        );
        let search_rungs: Vec<_> = governed
            .degradations()
            .iter()
            .filter(|d| d.scope == "search budget")
            .map(|d| d.action.clone())
            .collect();
        for d in governed.degradations() {
            assert!(
                d.scope == "search budget" || !d.reason.contains("budget exhausted"),
                "{}: non-search resource degradation under the service budget: {} ({})",
                app.paper.name,
                d.action,
                d.reason
            );
        }
        if search_rungs.is_empty() {
            let free = run(Limits::unlimited());
            assert_eq!(
                governed.speedup, free.speedup,
                "{}: the service budget changed the outcome without reporting a rung",
                app.paper.name
            );
        }
    }
}

#[test]
fn bombs_through_the_batch_driver_feed_the_resource_breaker_class() {
    // A fleet of compile bombs must not only fail with attribution — the
    // repeated structured failures must trip the `resource-exhausted`
    // breaker class so further submissions are rejected with backpressure
    // instead of burning admission checks forever.
    let dir = scratch_dir("breaker");
    let mut driver = BatchDriver::new(
        &dir,
        PipelineConfig::quick(DeviceSpec::k20x()).with_budget(Limits::service()),
        BatchOptions {
            breaker: Some(BreakerConfig {
                threshold: 2,
                ..BreakerConfig::default()
            }),
            ..BatchOptions::default()
        },
    )
    .expect("driver");
    let source = hostile::source(Archetype::ThousandLaunches);
    for i in 0..2 {
        driver
            .submit(BatchRequest::new(format!("bomb-{i}"), source.clone()))
            .expect("admitted while the breaker is closed");
    }
    let report = driver.run();
    assert_eq!(report.failures(), 2);
    for o in &report.outcomes {
        let err = o.error.as_ref().expect("structured failure");
        assert!(
            matches!(
                &err.kind,
                ErrorKind::ResourceExhausted { resource, .. } if resource == ResourceKind::Launches.name()
            ),
            "bomb failed without launches attribution: {err}"
        );
    }
    let rejected = driver
        .submit(BatchRequest::new("bomb-3", source))
        .expect_err("breaker must be open after repeated resource failures");
    assert_eq!(
        rejected.breaker_class.as_deref(),
        Some("resource-exhausted")
    );
    assert!(rejected.retry_after_ms.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn soak_holds_its_invariants_in_process() {
    let dir = scratch_dir("soak");
    let cfg = SoakConfig {
        seed: 42,
        rounds: 2,
        max_wall_secs: 0,
        dir: dir.clone(),
        // Shared test process: other tests charge the same root governor
        // under non-service budgets, so the global high-water assertion
        // belongs to the binary run (CI soak job), not here.
        strict_high_water: false,
    };
    let report = sf_fuzz::run_soak(&cfg).unwrap_or_else(|v| panic!("soak violation: {v}"));
    assert_eq!(report.rounds, 2);
    assert!(
        report.hostile_rejected >= 2,
        "the chaos round carries bombs"
    );
    assert!(
        report.benign_identical >= 6,
        "reference round, benign round, and the final reconciliation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_lock_liveness_survives_two_governed_drivers() {
    // Two drivers over one store directory (the two-concurrent-services
    // shape): both batches complete, the winner publishes, the loser
    // reads — the pid+start-time liveness rule never lets one service
    // steal a live peer's lock, and the quota holds across both.
    let dir = scratch_dir("two-drivers");
    let source = r#"
__global__ void heat(const double* __restrict__ u, double* v, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { v[j][i] = u[j][i] * 0.5; }
}
__global__ void scale(const double* __restrict__ v, double* w, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { w[j][i] = v[j][i] + 3.0; }
}
void host() {
  int nx = 64; int ny = 32;
  double* u = cudaAlloc2D(ny, nx);
  double* v = cudaAlloc2D(ny, nx);
  double* w = cudaAlloc2D(ny, nx);
  cudaMemcpyH2D(u);
  heat<<<dim3(4, 4), dim3(16, 8)>>>(u, v, nx, ny);
  scale<<<dim3(4, 4), dim3(16, 8)>>>(v, w, nx, ny);
  cudaMemcpyD2H(w);
}
"#;
    let mk = || {
        BatchDriver::new(
            &dir,
            PipelineConfig::quick(DeviceSpec::k20x()).with_budget(Limits::service()),
            BatchOptions {
                cache_quota: Some(64 * 1024),
                lock_timeout: Duration::from_millis(50),
                ..BatchOptions::default()
            },
        )
        .expect("driver")
    };
    let (mut a, mut b) = (mk(), mk());
    a.submit(BatchRequest::new("a", source)).unwrap();
    b.submit(BatchRequest::new("b", source)).unwrap();
    let (ra, rb) = (a.run(), b.run());
    for (tag, rep) in [("a", &ra), ("b", &rb)] {
        assert_eq!(
            rep.failures(),
            0,
            "driver {tag} failed: {:?}",
            rep.summary()
        );
    }
    // Whichever ran second was served from (or raced cleanly with) the
    // first's publish; both plans must agree byte for byte.
    assert_eq!(ra.outcomes[0].plan_json, rb.outcomes[0].plan_json);
    let statuses: Vec<&str> = [&ra, &rb]
        .iter()
        .map(|r| r.outcomes[0].status.label())
        .collect();
    assert!(
        statuses
            .iter()
            .all(|s| matches!(*s, "hit" | "compiled" | "recovered")),
        "unexpected statuses: {statuses:?}"
    );
    assert!(!matches!(ra.outcomes[0].status, BatchStatus::Failed));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 3-D producer→consumer pair that fuses into one kernel.
const FUSABLE_PAIR: &str = r#"
__global__ void scale(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void shift(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = a[k][j][i] + 1.0; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 2;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(u);
  scale<<<dim3(4, 4), dim3(16, 8)>>>(u, a, nx, ny, nz);
  shift<<<dim3(4, 4), dim3(16, 8)>>>(a, b, nx, ny, nz);
  cudaMemcpyD2H(b);
}
"#;

/// The steps one functional run of `program` executes.
fn static_steps(program: &sf_minicuda::Program) -> u64 {
    Interpreter::plan_steps(&ExecutablePlan::from_program(program).expect("host code evaluates"))
}

fn steps_capped(cap: u64) -> PipelineConfig {
    let budget = Limits::unlimited().cap(ResourceKind::InterpreterSteps, cap);
    PipelineConfig::quick(DeviceSpec::k20x()).with_budget(budget)
}

#[test]
fn a_step_budget_below_the_original_profile_is_rejected_at_the_front_door() {
    let program = sf_minicuda::parse_program(FUSABLE_PAIR).unwrap();
    let steps = static_steps(&program);
    assert_eq!(
        steps,
        2 * 16 * 128,
        "two launches of 16 blocks x 128 threads"
    );
    for config in [steps_capped(steps - 1), steps_capped(steps - 1).strict()] {
        let err = Pipeline::new(program.clone(), config)
            .unwrap()
            .run()
            .unwrap_err();
        assert_eq!(
            (err.stage, err.class),
            (Stage::Metadata, Recoverability::Fatal),
            "{err}"
        );
        assert_eq!(
            err.kind,
            ErrorKind::ResourceExhausted {
                resource: "interpreter-steps".into(),
                used: steps,
                limit: steps - 1,
            }
        );
        assert_eq!(err.exit_code(), 10);
    }
    // Nothing executes without a functional profile, so nothing is charged
    // at admission: the verifier has no profile image to compare and runs
    // both programs itself, where the same cap stops it — keeping the
    // original program.
    let mut analytic = steps_capped(steps - 1);
    analytic.functional_profile = false;
    let kept = Pipeline::new(program.clone(), analytic)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(kept.program, program);
    assert!(kept
        .degradations()
        .iter()
        .any(|d| d.action.contains("verification budget")));
}

#[test]
fn a_step_budget_the_original_profile_uses_up_keeps_the_original_program() {
    let program = sf_minicuda::parse_program(FUSABLE_PAIR).unwrap();
    let free = Pipeline::new(program.clone(), steps_capped(u64::MAX))
        .unwrap()
        .run()
        .unwrap();
    assert_ne!(
        free.program, program,
        "the pair fuses when nothing is capped"
    );
    let (original, transformed) = (static_steps(&program), static_steps(&free.program));
    // One functional run per program — the two profiles, whose images the
    // verifier compares — is enough for a verified compile ...
    let both = original + transformed;
    let enough = Pipeline::new(program.clone(), steps_capped(both))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(enough.program, free.program);
    assert!(
        enough.degradations().is_empty(),
        "{:?}",
        enough.degradations()
    );
    assert!(enough.verification.as_ref().is_some_and(|v| v.passed()));
    // ... and anything less stops at the re-profile, the run that no
    // longer fits.
    for cap in [original, both - 1] {
        let kept = Pipeline::new(program.clone(), steps_capped(cap))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(kept.program, program, "cap {cap}");
        assert_eq!(kept.speedup, 1.0, "cap {cap}");
        let degradations = kept.degradations();
        assert_eq!(degradations.len(), 1, "cap {cap}: {degradations:?}");
        let rung = "re-profile budget exhausted";
        assert!(
            degradations[0].action.contains(rung),
            "cap {cap}: {}",
            degradations[0].action
        );
        assert!(
            degradations[0].reason.contains("interpreter-steps"),
            "cap {cap}"
        );

        let err = Pipeline::new(program.clone(), steps_capped(cap).strict())
            .unwrap()
            .run()
            .unwrap_err();
        assert_eq!(
            (err.stage, err.class),
            (Stage::Codegen, Recoverability::Degradable),
            "{err}"
        );
        assert!(
            matches!(&err.kind, ErrorKind::ResourceExhausted { resource, limit, .. }
                if resource == "interpreter-steps" && *limit == cap),
            "cap {cap}: {err}"
        );
    }
}

#[test]
fn a_compile_executes_each_program_once_verified_or_not() {
    // What the run's governor is charged, read off its step cap: a compile
    // whose cap is exactly `plan_steps(original) + plan_steps(transformed)`
    // runs as if uncapped (so nothing beyond that is charged), and one step
    // less is refused at the re-profile (so that charge completes the sum).
    // The parent charged a verified compile twice that: the verifier ran
    // both programs again.
    let domain = AppConfig {
        nx: 32,
        ny: 8,
        nz: 2,
        ..AppConfig::test()
    };
    for name in APP_NAMES {
        let program = sf_apps::app_by_name(name, &domain)
            .expect("known analog")
            .program;
        for verify in [true, false] {
            let config = |cap: u64| {
                let mut config = steps_capped(cap);
                config.verify = verify;
                if name.ends_with("-ts") {
                    config = config.with_max_temporal(4);
                }
                config
            };
            let run = |cap| {
                Pipeline::new(program.clone(), config(cap))
                    .unwrap()
                    .run()
                    .unwrap()
            };
            let free = run(u64::MAX);
            assert_eq!(
                free.verification.as_ref().map(|v| v.passed()),
                verify.then_some(true)
            );
            let transformed = &free.transform.as_ref().expect("codegen ran").program;
            let both = static_steps(&program) + static_steps(transformed);

            let exact = run(both);
            let case = format!("{name}, verify {verify}, cap {both}");
            assert_eq!(
                print_program(&exact.program),
                print_program(&free.program),
                "{case}"
            );
            assert_eq!(exact.degradations(), free.degradations(), "{case}");
            assert_eq!(exact.verification, free.verification, "{case}");

            let short = run(both - 1);
            let last = short.degradations().last().map(|d| d.action.clone());
            assert_eq!(
                last.as_deref(),
                Some("kept the original program (re-profile budget exhausted)"),
                "{case}"
            );
        }
    }
}
