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
/// keep replaying: a v2 file is a v3 file minus every `temporal` field
/// with the version restamped, and decoding one upgrades every group to
/// the identity degree and reproduces the exact program the v3 plan does.
#[test]
fn v2_plan_upgrades_and_replays_identically() {
    let app = sf_apps::app_by_name("mitgcm", &AppConfig::test()).expect("known app");
    let first = Pipeline::new(
        app.program.clone(),
        PipelineConfig::quick(DeviceSpec::k20x()),
    )
    .expect("valid")
    .run()
    .expect("pipeline runs");
    let executed = first.executed_plan().expect("codegen ran").clone();
    assert!(executed.groups.iter().all(|g| g.temporal == 1));

    // Regress the serialized plan to schema v2 the way an old build wrote
    // it: no group carries a `temporal` field and the version says 2.
    let v3 = executed.to_json();
    let v2: String = v3
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"temporal\""))
        .collect::<Vec<_>>()
        .join("\n")
        .replacen("\"version\": 3", "\"version\": 2", 1);
    assert_ne!(v2, v3, "the regression surgery must change the text");

    let upgraded = TransformPlan::from_json(&v2).expect("v2 plan decodes");
    assert!(upgraded.groups.iter().all(|g| g.temporal == 1));
    assert_eq!(upgraded, executed, "upgrade must yield the identity degrees");

    let second = Pipeline::new(
        app.program.clone(),
        PipelineConfig::quick(DeviceSpec::k20x()).with_plan(upgraded),
    )
    .expect("valid")
    .run()
    .expect("v2 replay runs");
    assert_eq!(
        print_program(&first.program),
        print_program(&second.program),
        "v2-upgraded replay diverges from the original run"
    );
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
        let replay_cfg =
            PipelineConfig::quick(DeviceSpec::k20x()).with_plan(rehydrated);
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
