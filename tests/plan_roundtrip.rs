//! The transform plan is the pipeline's exchange format: whatever the
//! search lowers must survive a JSON round trip unchanged, and replaying
//! a plan (the `sfc --from-plan` path) must reproduce the transformed
//! program byte for byte — no re-search, no drift.

use proptest::prelude::*;
use sf_apps::AppConfig;
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::printer::print_program;
use sf_plan::{CodegenMode, TransformPlan};
use sf_search::{lower_plan, Individual, ProjectionEngine, SearchSpace};
use stencilfuse::{Pipeline, PipelineConfig};

fn space_for(name: &str) -> (sf_apps::App, ExecutablePlan, SearchSpace) {
    let app = sf_apps::app_by_name(name, &AppConfig::test()).expect("known app");
    let plan = ExecutablePlan::from_program(&app.program).expect("plan");
    let device = DeviceSpec::k20x();
    let profile = Profiler::analytic(device.clone())
        .profile_with_plan(&app.program, &plan)
        .expect("profile");
    let decisions = sf_analysis::filter::identify_targets(
        &profile.metadata.perf,
        &profile.metadata.ops,
        &profile.metadata.device,
        &sf_analysis::filter::FilterConfig::default(),
    );
    let space =
        SearchSpace::build(&app.program, &plan, &profile, &decisions, device).expect("space");
    (app, plan, space)
}

/// Apply a seeded sequence of merge/fission moves, keeping feasibility.
fn random_individual(space: &SearchSpace, seed: u64) -> Individual {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ind = Individual::singletons(space);
    for _ in 0..30 {
        match rng.gen_range(0..3) {
            0 => {
                let units = ind.active_units();
                let a = units[rng.gen_range(0..units.len())];
                let b = units[rng.gen_range(0..units.len())];
                if a != b {
                    let _ = ind.try_merge(space, a, b);
                }
            }
            1 => {
                let originals: Vec<usize> = space
                    .units
                    .iter()
                    .filter(|u| u.parent.is_none() && u.fissionable())
                    .map(|u| u.id)
                    .collect();
                if !originals.is_empty() {
                    let v = originals[rng.gen_range(0..originals.len())];
                    if ind.group(v).is_some() {
                        ind.fission(space, v);
                    }
                }
            }
            _ => {
                let groups = ind.fusion_groups();
                if !groups.is_empty() {
                    let g = &groups[rng.gen_range(0..groups.len())];
                    let victim = g[rng.gen_range(0..g.len())];
                    let fresh = ind.fresh_group_id();
                    ind.set_group(victim, fresh);
                }
            }
        }
        assert!(ind.feasible(space));
    }
    ind
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Genome → plan → JSON → plan → codegen equals the direct
    /// genome → plan → codegen path on random valid individuals.
    #[test]
    fn lowered_plan_round_trips_and_codegen_agrees(seed in 0u64..500) {
        let (app, plan, space) = space_for("awp-odc");
        let ind = random_individual(&space, seed);
        let engine = ProjectionEngine::new(&space);
        let tplan = lower_plan(&engine, &ind, CodegenMode::Auto, false);
        tplan.validate(plan.launches.len()).expect("lowered plan valid");

        let rehydrated = TransformPlan::from_json(&tplan.to_json()).expect("round trips");
        prop_assert_eq!(&rehydrated, &tplan);

        let direct = sf_codegen::transform_program(&app.program, &plan, &tplan)
            .expect("direct codegen");
        let replayed = sf_codegen::transform_program(&app.program, &plan, &rehydrated)
            .expect("replayed codegen");
        prop_assert_eq!(
            print_program(&direct.program),
            print_program(&replayed.program),
            "codegen diverged after a JSON round trip"
        );
    }
}

/// Version-2 plans (the schema before the temporal degree existed) must
/// keep replaying. `tests/golden/compat/` freezes the `mitgcm-ts` analog's
/// plan at `--quick --max-temporal 1` three ways: as version 3, as version
/// 2 (no `temporal` field), and as version 1 (no device fingerprint
/// either). The v2 file decodes to its v3 twin with every group at the
/// identity degree, both replay to the same program, and v1 is refused
/// with its version named.
#[test]
fn v2_plan_upgrades_and_replays_identically() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compat");
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("frozen plan");
    let v2 = read("v2.plan.json");
    assert!(!v2.contains("\"temporal\""), "a v2 plan has no degrees");
    let twin = TransformPlan::from_json(&read("v3.plan.json")).expect("v3 plan decodes");
    let upgraded = TransformPlan::from_json(&v2).expect("v2 plan decodes");
    assert!(upgraded.groups.iter().all(|g| g.temporal == 1));
    assert_eq!(upgraded, twin, "upgrade must yield the identity degrees");

    let app = sf_apps::app_by_name("mitgcm-ts", &AppConfig::test()).expect("known app");
    let replay = |plan: TransformPlan| {
        let cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_plan(plan);
        let result = Pipeline::new(app.program.clone(), cfg)
            .expect("valid")
            .run()
            .expect("replay runs");
        assert!(result.verification.expect("verified").passed());
        print_program(&result.program)
    };
    assert_eq!(
        replay(twin),
        replay(upgraded),
        "v2-upgraded replay diverges from its v3 twin's"
    );

    let v1 = TransformPlan::from_json(&read("v1.plan.json")).expect_err("v1 is refused");
    assert!(v1.0.contains("plan version 1"), "{v1}");
}

/// Full-pipeline replay: the as-executed plan from a complete run, fed
/// back through `PipelineConfig::with_plan` (the `--from-plan` path),
/// must reproduce the transformed program byte for byte on multiple apps.
#[test]
fn replayed_plan_reproduces_the_run_exactly() {
    for name in ["mitgcm", "awp-odc"] {
        let app = sf_apps::app_by_name(name, &AppConfig::test()).expect("known app");
        let first = Pipeline::new(
            app.program.clone(),
            PipelineConfig::quick(DeviceSpec::k20x()),
        )
        .expect("valid")
        .run()
        .expect("pipeline runs");
        let executed = first.executed_plan().expect("codegen ran").clone();

        // Round trip through JSON exactly as `sfc --emit-plan`/`--from-plan` do.
        let rehydrated = TransformPlan::from_json(&executed.to_json()).expect("round trips");
        let replay_cfg = PipelineConfig::quick(DeviceSpec::k20x()).with_plan(rehydrated);
        let second = Pipeline::new(app.program.clone(), replay_cfg)
            .expect("valid")
            .run()
            .expect("replay runs");

        assert_eq!(
            print_program(&first.program),
            print_program(&second.program),
            "{name}: replayed program differs from the searched run"
        );
        assert!(second.search.is_none(), "{name}: replay must not re-search");
        assert!(
            second
                .verification
                .as_ref()
                .expect("replay is verified")
                .passed(),
            "{name}: replay failed verification"
        );
        // The replayed run's as-executed plan matches what it was given.
        assert_eq!(second.executed_plan(), Some(&executed));
    }
}
