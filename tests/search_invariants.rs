//! Invariants of the grouped GA: feasibility is preserved by every
//! operator sequence, results are deterministic per seed, fitness never
//! regresses across generations (elitism), and the winning grouping is
//! always executable by the code generator.

use proptest::prelude::*;
use sf_apps::AppConfig;
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::Profiler;
use sf_minicuda::host::ExecutablePlan;
use sf_search::{search, Individual, SearchConfig, SearchSpace};

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

#[test]
fn best_individual_is_feasible_and_codegen_executable() {
    for name in ["mitgcm", "awp-odc", "bcalm"] {
        let (app, plan, space) = space_for(name);
        let result = search(&space, &SearchConfig::quick());
        assert!(result.best.feasible(&space), "{name}: infeasible winner");
        // The lowered plan must validate and go through codegen and verify.
        result
            .plan
            .validate(plan.launches.len())
            .expect("lowered plan is valid");
        let out = sf_codegen::transform_program(&app.program, &plan, &result.plan)
            .expect("codegen succeeds");
        let v = stencilfuse::verify_equivalence(&app.program, &out.program, 7)
            .expect("both run");
        assert!(v.passed(), "{name}: {v:?}");
    }
}

#[test]
fn elitism_makes_best_fitness_monotone() {
    let (_, _, space) = space_for("mitgcm");
    let result = search(&space, &SearchConfig::quick());
    for w in result.history.windows(2) {
        assert!(
            w[1] >= w[0] - 1e-12,
            "best fitness regressed: {} -> {}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn search_deterministic_per_seed_across_runs() {
    let (_, _, space) = space_for("awp-odc");
    let a = search(&space, &SearchConfig::quick());
    let b = search(&space, &SearchConfig::quick());
    assert_eq!(a.best, b.best);
    assert_eq!(a.history, b.history);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random operator sequences on individuals keep feasibility.
    #[test]
    fn random_moves_preserve_feasibility(seed in 0u64..1000) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (_, _, space) = space_for("awp-odc");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ind = Individual::singletons(&space);
        for _ in 0..40 {
            match rng.gen_range(0..4) {
                0 => {
                    let units = ind.active_units();
                    let a = units[rng.gen_range(0..units.len())];
                    let b = units[rng.gen_range(0..units.len())];
                    if a != b {
                        let _ = ind.try_merge(&space, a, b);
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
                            ind.fission(&space, v);
                        }
                    }
                }
                2 => {
                    let fissioned = ind.fissioned().to_vec();
                    if !fissioned.is_empty() {
                        let v = fissioned[rng.gen_range(0..fissioned.len())];
                        // Defission only when products are singletons.
                        let singles = space.units[v].products.iter().all(|p| {
                            ind.group(*p).is_some_and(|g| {
                                ind.pairs().filter(|&(_, x)| x == g).count() == 1
                            })
                        });
                        if singles {
                            ind.defission(&space, v);
                        }
                    }
                }
                _ => {
                    // Split a random fusion group member out.
                    let groups = ind.fusion_groups();
                    if !groups.is_empty() {
                        let g = &groups[rng.gen_range(0..groups.len())];
                        let victim = g[rng.gen_range(0..g.len())];
                        let fresh = ind.fresh_group_id();
                        ind.set_group(victim, fresh);
                    }
                }
            }
            prop_assert!(ind.feasible(&space), "move broke feasibility");
        }
        // Fitness must be finite and non-negative for any feasible state.
        let f = sf_search::objective::fitness(
            &space,
            &ind,
            &sf_search::objective::Penalty::default(),
        );
        prop_assert!(f.is_finite() && f >= 0.0);
    }
}
