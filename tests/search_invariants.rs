//! Invariants of the grouped GA: feasibility is preserved by every
//! operator sequence, results are deterministic per seed, fitness never
//! regresses across generations (elitism), the winning grouping is always
//! executable by the code generator, the space's precedence edges are the
//! graphs stage's, its fusion legality verdict is codegen's, and the
//! greedy seed's incremental table merges what full re-pricing merges.

use proptest::prelude::*;
use sf_analysis::FilterDecision;
use sf_apps::AppConfig;
use sf_codegen::fuse::GroupAnalysis;
use sf_codegen::{CodegenMode, Resolver, Storage};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::{Profiler, ProgramProfile};
use sf_graphs::Precedence;
use sf_minicuda::host::ExecutablePlan;
use sf_minicuda::Program;
use sf_search::genome::{Groups, Quotient};
use sf_search::objective::{assumed_block, fitness_with};
use sf_search::seed::{greedy, TIE};
use sf_search::{search, Individual, ProjectionEngine, SearchConfig, SearchSpace};
use std::collections::BTreeSet;

/// The analytic profile and default filter decisions the spaces are built from.
fn profiled(program: &Program, plan: &ExecutablePlan) -> (ProgramProfile, Vec<FilterDecision>) {
    let profile = Profiler::analytic(DeviceSpec::k20x())
        .profile_with_plan(program, plan)
        .expect("profile");
    let decisions = sf_analysis::filter::identify_targets(
        &profile.metadata.perf,
        &profile.metadata.ops,
        &profile.metadata.device,
        &sf_analysis::filter::FilterConfig::default(),
    );
    (profile, decisions)
}

fn space_for(name: &str) -> (sf_apps::App, ExecutablePlan, SearchSpace) {
    let app = sf_apps::app_by_name(name, &AppConfig::test()).expect("known app");
    let plan = ExecutablePlan::from_program(&app.program).expect("plan");
    let (profile, decisions) = profiled(&app.program, &plan);
    let device = DeviceSpec::k20x();
    let space =
        SearchSpace::build(&app.program, &plan, &profile, &decisions, device).expect("space");
    (app, plan, space)
}

/// `SearchSpace::build` analyses the program itself; the pipeline builds the
/// space from stage 3's precedence model. Both must be the same space, and
/// its original-unit edges must be that model's OEG.
#[test]
fn unit_edges_are_the_graphs_stages_oeg() {
    use sf_fuzz::{generate, GenConfig};
    let looped = GenConfig {
        p_time_loop: 1.0,
        ..GenConfig::default()
    };
    let analogs = sf_apps::APP_NAMES.iter().map(|name| {
        let app = sf_apps::app_by_name(name, &AppConfig::test()).expect("known app");
        (name.to_string(), app.program)
    });
    let corpora = [("flat", GenConfig::default()), ("looped", looped)];
    let generated = corpora.iter().flat_map(|(corpus, cfg)| {
        (0..100).map(move |seed| (format!("{corpus} seed {seed}"), generate(seed, cfg).program))
    });
    for (label, program) in analogs.chain(generated) {
        let plan = ExecutablePlan::from_program(&program).expect("plan");
        let (profile, decisions) = profiled(&program, &plan);
        let device = DeviceSpec::k20x();
        let precedence = Precedence::build(&program, &plan).expect("graphs");
        let own = SearchSpace::build(&program, &plan, &profile, &decisions, device.clone())
            .expect("self-built space");
        let staged = SearchSpace::from_precedence(
            &program,
            &plan,
            &profile.metadata,
            &decisions,
            device,
            &precedence,
        )
        .expect("space from the graphs stage");
        assert_eq!(own.units, staged.units, "{label}");
        assert_eq!(own.edges, staged.edges, "{label}");
        // Original units are the launches: apart from the space's own
        // loop-boundary pins, their edges are the OEG's.
        for a in 0..plan.launches.len() {
            for b in a + 1..plan.launches.len() {
                let hard = staged.edges.get(&(a, b)).map(|e| e.hard);
                if staged.units[a].loop_id != staged.units[b].loop_id {
                    assert_eq!(hard, Some(true), "{label}: loop boundary {a} | {b}");
                } else {
                    let oeg = precedence.oeg.edges.get(&(a, b)).map(|e| e.is_hard());
                    assert_eq!(hard, oeg, "{label}: launches {a} → {b}");
                }
            }
        }
    }
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
        let v = stencilfuse::verify_equivalence(&app.program, &out.program, 7).expect("both run");
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
        let f = sf_search::objective::fitness(&space, &ind, &SearchConfig::default());
        prop_assert!(f.is_finite() && f >= 0.0);
    }
}

/// A program's search space with what codegen resolves its members
/// against, under both codegen modes.
struct Legality {
    label: String,
    program: Program,
    plan: ExecutablePlan,
    precedence: Precedence,
    auto: SearchSpace,
    manual: SearchSpace,
    /// Unit ids in execution order (a product at its parent's position).
    order: Vec<usize>,
}

/// The eight analogs and a flat and a looped generated corpus.
fn legality_cases() -> &'static [Legality] {
    use sf_fuzz::{generate, GenConfig};
    static CASES: std::sync::OnceLock<Vec<Legality>> = std::sync::OnceLock::new();
    CASES.get_or_init(|| {
        let analogs = sf_apps::APP_NAMES.iter().map(|name| {
            let app = sf_apps::app_by_name(name, &AppConfig::test()).expect("known app");
            (name.to_string(), app.program)
        });
        let looped = GenConfig {
            p_time_loop: 1.0,
            ..GenConfig::default()
        };
        let corpora = [("flat", GenConfig::default()), ("looped", looped)];
        let generated = corpora.iter().flat_map(|(corpus, cfg)| {
            (0..40).map(move |seed| (format!("{corpus} seed {seed}"), generate(seed, cfg).program))
        });
        analogs
            .chain(generated)
            .map(|(label, program)| {
                let plan = ExecutablePlan::from_program(&program).expect("plan");
                let (profile, decisions) = profiled(&program, &plan);
                let precedence = Precedence::build(&program, &plan).expect("graphs");
                let auto = SearchSpace::from_precedence(
                    &program,
                    &plan,
                    &profile.metadata,
                    &decisions,
                    DeviceSpec::k20x(),
                    &precedence,
                )
                .expect("space");
                let manual = SearchSpace {
                    mode: CodegenMode::Manual,
                    ..auto.clone()
                };
                let mut order: Vec<usize> = (0..auto.units.len()).collect();
                order.sort_by_key(|&u| {
                    let m = auto.units[u].mref;
                    (m.seq, m.fission_component)
                });
                Legality {
                    label,
                    program,
                    plan,
                    precedence,
                    auto,
                    manual,
                    order,
                }
            })
            .collect()
    })
}

/// The search's verdict on `members` (unit ids in execution order), after
/// checking that it is codegen's: `GroupAnalysis::new` on the members
/// codegen resolves accepts them exactly when the search does, and the
/// tiles the search prices (array, `rx`, `ry`) are the ones codegen's
/// kernel stages — at the search's assumed block, or where codegen refuses
/// that block, at the first member's own launch block.
fn agreed_verdict(case: &Legality, members: &[usize], mode: CodegenMode) -> bool {
    let space = match mode {
        CodegenMode::Auto => &case.auto,
        CodegenMode::Manual => &case.manual,
    };
    let storage = Storage::new(&case.precedence.ddg);
    let mut resolver = Resolver::new(&case.program, &case.plan, &storage);
    let resolved: Vec<_> = members
        .iter()
        .map(|&u| resolver.resolve(&space.units[u].mref).expect("resolves"))
        .collect();
    let refs: Vec<_> = resolved.iter().map(|(k, l)| (&**k, &**l)).collect();
    let codegen = GroupAnalysis::new(&refs, mode, "g", space.smem_limit);
    // The search asks with a group's unit ids ascending, as a genome
    // holds them (products come after every original).
    let mut ids = members.to_vec();
    ids.sort_unstable();
    let search = space.decision(&ids);
    assert_eq!(
        search.is_ok(),
        codegen.is_ok(),
        "{}: members {members:?} ({mode:?}): codegen says {:?}",
        case.label,
        codegen.err()
    );
    let (Ok(search), Ok(codegen)) = (search, codegen) else {
        return false;
    };
    let blocks = [assumed_block(space, &ids), refs[0].1.block];
    let kernel = blocks.into_iter().find_map(|b| codegen.emit(b).ok());
    let kernel = kernel.expect("codegen emits the group at one of the blocks");
    let staged: Vec<_> = kernel
        .report
        .staged
        .iter()
        .map(|s| (s.array.as_str(), s.rx, s.ry))
        .collect();
    let priced: Vec<_> = search
        .tiles()
        .iter()
        .map(|t| (space.arrays.name(t.array), t.rx, t.ry))
        .collect();
    assert_eq!(
        priced, staged,
        "{}: members {members:?} ({mode:?})",
        case.label
    );
    true
}

/// Every window of two to four consecutive units of every analog, in both
/// modes: the verdicts agree, and the predicate both accepts and refuses.
#[test]
fn the_search_refuses_exactly_the_groups_codegen_refuses_on_the_analogs() {
    let (mut accepted, mut refused) = (0, 0);
    for case in &legality_cases()[..sf_apps::APP_NAMES.len()] {
        for width in 2..=4 {
            for window in case.order.windows(width) {
                for mode in [CodegenMode::Auto, CodegenMode::Manual] {
                    if agreed_verdict(case, window, mode) {
                        accepted += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random subsets of a 16-unit stretch of execution order (originals
    /// and fission products alike) of an analog or a generated program:
    /// the search's verdict is `GroupAnalysis::new(..).is_ok()` on the
    /// members codegen resolves.
    #[test]
    fn the_search_asks_codegens_legality_predicate(
        case in 0usize..1000,
        start in 0usize..1000,
        mask in 3u32..65536,
        manual in 0u8..2,
    ) {
        let cases = legality_cases();
        let case = &cases[case % cases.len()];
        let from = start % case.order.len();
        let members: Vec<usize> = case.order[from..]
            .iter()
            .take(16)
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, &u)| u)
            .collect();
        if members.len() >= 2 {
            let mode = [CodegenMode::Auto, CodegenMode::Manual][manual as usize];
            agreed_verdict(case, &members, mode);
        }
    }
}

/// `case`'s automated space with only the originals `from..from + width`
/// (and their fission products) eligible: a window the greedy seed may
/// fuse in.
fn window(case: &Legality, from: usize, width: usize) -> SearchSpace {
    let mut space = case.auto.clone();
    let originals = space.units.iter().filter(|u| u.parent.is_none()).count();
    let from = from % originals;
    for unit in &mut space.units {
        unit.eligible &= (from..from + width).contains(&unit.parent.unwrap_or(unit.id));
    }
    space
}

/// The greedy seed's start: the originals, or with `fission` every
/// eligible fissionable original replaced by its products.
fn start(space: &SearchSpace, fission: bool) -> Individual {
    let mut ind = Individual::singletons(space);
    for unit in space
        .units
        .iter()
        .filter(|u| fission && u.eligible && u.fissionable())
    {
        ind.fission(space, unit.id);
    }
    ind
}

/// The greedy seed without its table: every round re-prices every
/// feasible pair of groups that share an array through `fitness_with`,
/// and merges the first pair in key order within the tie factor of the
/// round's best, while that best beats the current fitness by more than
/// it. Returns the merges and the final genome.
fn reference_greedy(
    space: &SearchSpace,
    config: &SearchConfig,
    mut ind: Individual,
) -> (Vec<(usize, usize)>, Individual) {
    let engine = ProjectionEngine::new(space);
    let mut pricer = engine.pricer(0);
    let mut fitness = |ind: &Individual| {
        let mut groups = Groups::default();
        groups.regroup(ind);
        fitness_with(&mut pricer, &groups, config)
    };
    let mut merges = Vec::new();
    loop {
        let current = fitness(&ind);
        let groups: Vec<Vec<usize>> = ind.groups().into_iter().map(|(_, m)| m).collect();
        let arrays: Vec<BTreeSet<&str>> = groups
            .iter()
            .map(|members| {
                let names = members
                    .iter()
                    .flat_map(|&u| space.units[u].ops.bytes_per_array.keys());
                names.map(String::as_str).collect()
            })
            .collect();
        let mut candidates = Vec::new();
        for i in 0..groups.len() {
            for j in i + 1..groups.len() {
                if arrays[i].is_disjoint(&arrays[j]) {
                    continue;
                }
                let (a, b) = (
                    groups[i][0].min(groups[j][0]),
                    groups[i][0].max(groups[j][0]),
                );
                let mut merged = ind.clone();
                if merged.try_merge(space, a, b) {
                    candidates.push(((a, b), fitness(&merged), merged));
                }
            }
        }
        candidates.sort_by_key(|c| c.0);
        let best = candidates
            .iter()
            .map(|c| c.1)
            .fold(f64::NEG_INFINITY, f64::max);
        if candidates.is_empty() || best <= current * (1.0 + TIE) {
            return (merges, ind);
        }
        let (key, _, merged) = candidates
            .into_iter()
            .find(|c| c.1 * (1.0 + TIE) >= best)
            .expect("the best ties itself");
        merges.push(key);
        ind = merged;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The greedy seed's incremental table is exact: on a 2–16-unit window
    /// of an analog or a generated program, from the originals or from
    /// every original fissioned, it merges what re-pricing every feasible
    /// related pair each round merges, in the same order.
    #[test]
    fn the_greedy_seed_merges_what_full_repricing_merges(
        analog in 0u8..2,
        case in 0usize..1000,
        start_at in 0usize..1000,
        width in 2usize..=16,
        fission in 0u8..2,
    ) {
        // Half the draws from the eight analogs, half from the corpora.
        let (analogs, generated) = legality_cases().split_at(sf_apps::APP_NAMES.len());
        let cases = if analog == 1 { analogs } else { generated };
        let space = window(&cases[case % cases.len()], start_at, width);
        let from = start(&space, fission == 1);
        prop_assert!(from.feasible(&space), "every start is feasible");
        let config = SearchConfig::default();
        let engine = ProjectionEngine::new(&space);
        let mut q = Quotient::new(&space);
        let seed = greedy(&mut engine.pricer(0), &mut q, &config, from.clone());
        let (merges, ind) = reference_greedy(&space, &config, from);
        prop_assert_eq!(&seed.merges, &merges);
        prop_assert_eq!(&seed.individual, &ind);
        prop_assert!(seed.individual.feasible(&space));
    }
}
