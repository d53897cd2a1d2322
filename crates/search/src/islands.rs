//! The search driver: the GGA generation loop, run as supervised islands.
//!
//! This is the only generation loop in the crate. The population is
//! sharded into `config.islands` islands that evolve independently and
//! exchange elites at fixed migration epochs; the classic serial search is
//! the `islands = 1` case of the same loop (one island, no migration), so
//! budgets, poisoned candidates, supervision and checkpointing behave the
//! same whether or not the run is sharded.
//!
//! 1. **Parallel wall-clock.** Islands step through a whole migration
//!    epoch concurrently (`rayon`), with objective evaluation *serial
//!    inside* each island — the paper's parallel objective evaluation is
//!    the `islands > 1` case: one worker per island per epoch, never a
//!    thread spawn per generation for ~1 µs evaluations. A worker owns
//!    its island's cost cache and scratch buffers for the whole epoch
//!    (one lock, taken before the first generation), so islands share
//!    nothing mutable while they run.
//! 2. **Supervision.** Every island epoch runs under
//!    [`sf_gpusim::isolate::isolated`]. An island that panics or stalls
//!    is *quarantined*: its epoch-start state is frozen, its last-good
//!    elites still enter the final merge, and the incident is reported as
//!    a [`SearchDegradation`] — the search degrades to fewer islands (at
//!    `islands = 1`: to the last-good elites, or the untransformed
//!    baseline) instead of aborting.
//! 3. **Determinism.** Island `i` owns the RNG stream
//!    `seed ^ finalize(i·φ)` — island 0 continues the run seed's own
//!    stream, so a one-island run is the plain seeded GGA. Inside an
//!    island the rules are that GGA's: elites come from a stable
//!    score-only sort, the generation's best is `gga::argmax` (the last
//!    maximum) — goldens and cached plans pin both. The genome's total order
//!    breaks fitness ties only where islands meet — migration and the
//!    final merge — so the winning plan is byte-identical for a given
//!    seed regardless of `RAYON_NUM_THREADS` (the wall-clock watchdog,
//!    when enabled, is the one documented exception: *where* a run stops
//!    may vary, never *how* it got there).
//!
//! At every migration epoch the full search state can be checkpointed
//! ([`crate::checkpoint`]); a killed run resumed from its last checkpoint
//! replays the exact trajectory of the uninterrupted run.
//!
//! The `search.islands` injection site reads the run's [`FaultPlan`]
//! ([`IslandOptions::faults`]) in place: `poison_evaluations` panics chosen
//! objective calls, and the plan's `islands` section panics or stalls an
//! island at a generation, tears a checkpoint, or kills the run after one.

use crate::checkpoint::{
    load_checkpoint, save_checkpoint, CheckpointLoad, CheckpointState, CHECKPOINT_VERSION,
};
use crate::genome::{Individual, Quotient, View};
use crate::gga::{self, SearchResult, StopReason};
use crate::objective::{self, Penalty};
use crate::params::SearchConfig;
use crate::projection::{Pricer, ProjectionEngine, ProjectionStats};
use crate::seed;
use crate::space::SearchSpace;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Content, DeError, Deserialize, Serialize};
use sf_core::FaultPlan;
use sf_gpusim::isolate::isolated;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// One rung of the search-stage degradation ladder: something went wrong,
/// the search absorbed it, and this records what and why.
///
/// The strings deliberately describe *supervision* events (quarantines,
/// unusable checkpoints) — they must never read like a miscompile, so the
/// fuzzer's oracle can tell benign degradation from a correctness bug.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchDegradation {
    /// What degraded (e.g. `"island 2"`, `"search checkpoint"`).
    pub scope: String,
    /// What the supervisor did about it.
    pub action: String,
    /// The underlying cause.
    pub reason: String,
}

/// Knobs for one supervised island run.
#[derive(Debug, Clone, Default)]
pub struct IslandOptions {
    /// The run's fault plan: the search reads `poison_evaluations` and the
    /// `islands` section.
    pub faults: FaultPlan,
    /// Write a checkpoint here at every migration epoch.
    pub checkpoint_path: Option<PathBuf>,
    /// Resume from this checkpoint if it exists and verifies.
    pub resume_path: Option<PathBuf>,
    /// Elite seed individuals injected into island 0's initial population
    /// — the plan-port path: a plan lowered on one device is raised to a
    /// genome and planted here, so the search starts from a known-good
    /// grouping instead of from scratch. Seeds that are infeasible in this
    /// space (or duplicates) are skipped; the rest of the population is
    /// filled exactly like an unseeded run. Part of the run fingerprint, so
    /// a checkpoint from a differently-seeded run is rejected rather than
    /// silently continued.
    pub seeds: Vec<Individual>,
}

/// What [`search_islands`] returns: the merged [`SearchResult`] plus the
/// supervision record.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // fields carry descriptive names; see the type doc
pub struct IslandSearchResult {
    pub result: SearchResult,
    /// Quarantines and checkpoint incidents, in occurrence order.
    pub degradations: Vec<SearchDegradation>,
    /// Effective island count after clamping to the population size.
    pub islands: usize,
    /// Migration epochs completed (including the one a kill stopped at).
    pub epochs_run: usize,
    pub checkpoints_written: usize,
    /// Set when the run continued from a verified checkpoint.
    pub resumed_from_epoch: Option<usize>,
    /// Set when an injected kill fault stopped the run early.
    pub killed_at_epoch: Option<usize>,
    /// Per-island busy time (whole milliseconds of the microseconds spent
    /// inside `advance_epoch`), indexed by island. The island critical
    /// path — `max` of these plus
    /// whatever the driver spends migrating/merging/checkpointing — is the
    /// search-stage wall time on a machine with one free worker per
    /// island; the benchmark harness uses it to report island speedup
    /// independently of how many cores the measuring host happens to have.
    pub island_wall_ms: Vec<u64>,
}

/// An island's private RNG stream. Serializes as the generator's four raw
/// xoshiro256** words, which fully determine the stream.
#[derive(Debug, Clone)]
pub(crate) struct IslandRng(pub(crate) SmallRng);

impl PartialEq for IslandRng {
    fn eq(&self, other: &IslandRng) -> bool {
        self.0.state() == other.0.state()
    }
}

impl Serialize for IslandRng {
    fn serialize(&self) -> Content {
        self.0.state().to_vec().serialize()
    }
}

impl Deserialize for IslandRng {
    fn deserialize(content: &Content) -> Result<IslandRng, DeError> {
        let words: [u64; 4] = Vec::<u64>::deserialize(content)?
            .try_into()
            .map_err(|_| DeError::custom("an island RNG is exactly four state words"))?;
        Ok(IslandRng(SmallRng::from_state(words)))
    }
}

/// The state of one island — everything the epoch loop reads, which is
/// also exactly what a checkpoint stores per island.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandState {
    pub(crate) index: usize,
    /// False once quarantined; a dead island never advances again.
    pub(crate) alive: bool,
    pub(crate) rng: IslandRng,
    pub(crate) population: Vec<Individual>,
    /// Empty until the island's first epoch evaluates the initial
    /// population.
    pub(crate) scores: Vec<f64>,
    /// Island-local evaluation count; doubles as the next local
    /// evaluation index for deterministic poison injection.
    pub(crate) evaluations: u64,
    /// This island's share of `max_evaluations` (0 = unlimited); the
    /// shares of all islands sum exactly to the configured budget.
    pub(crate) eval_budget: u64,
    /// Busy time inside `advance_epoch`, in microseconds — what the
    /// wall-clock watchdog charges against `max_wall_ms`.
    pub(crate) wall_spent_us: u64,
    pub(crate) poisoned: u64,
    pub(crate) generations_run: usize,
    pub(crate) history: Vec<f64>,
    pub(crate) fission_moves: u64,
    pub(crate) retained_fissions: u64,
    pub(crate) stagnant: usize,
    /// A *normal* stop (schedule done, plateau, budget). Distinct from
    /// quarantine: a stopped island still migrates and merges live state.
    pub(crate) stop: Option<StopReason>,
    /// Last-good elites, refreshed after every completed epoch; all a
    /// quarantined island contributes to the merge.
    pub(crate) elite_scores: Vec<f64>,
    pub(crate) elites: Vec<Individual>,
}

/// The run seed xor the splitmix64 finalizer of `island·φ`: each island
/// gets an independent, reproducible RNG stream, and island 0 (whose mix
/// is 0) continues the run seed's own stream.
fn island_seed(seed: u64, island: u64) -> u64 {
    let mut z = island.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seed ^ z ^ (z >> 31)
}

/// Split `total` into `n` shares that sum to `total` exactly (earlier
/// shares take the remainder). `total == 0` means unlimited for everyone.
pub(crate) fn split_evenly(total: u64, n: usize) -> Vec<u64> {
    let n = n.max(1);
    if total == 0 {
        return vec![0; n];
    }
    let base = total / n as u64;
    let rem = (total % n as u64) as usize;
    (0..n).map(|i| base + u64::from(i < rem)).collect()
}

/// Binds a checkpoint to this exact run: the full search configuration
/// plus the shape of the search space. Anything else at resume is
/// rejected rather than silently continued.
fn run_fingerprint(space: &SearchSpace, config: &SearchConfig, seeds: &[Individual]) -> String {
    format!(
        "search {config:?} | units {} edges {} smem {} | device {:?} | seeds {seeds:?}",
        space.units.len(),
        space.edges.len(),
        space.smem_limit,
        space.device,
    )
}

/// Rank population indices best-first inside one island: a stable sort on
/// the score alone, so ties keep population order (the GGA's elite rule).
fn by_score(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite fitness"));
    order
}

/// Rank population indices best-first where islands meet (migration):
/// score descending, fitness ties broken by the genome's total order
/// (smaller wins).
fn rank_desc(scores: &[f64], population: &[Individual]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .expect("finite fitness")
            .then_with(|| population[a].cmp(&population[b]))
    });
    order
}

/// Evaluate the population whose views are `views` serially, isolating
/// panics per candidate: every evaluation gets an island-local index (for
/// deterministic fault injection), and a candidate whose evaluation panics
/// is scored `gga::POISONED_FITNESS`. The objective is a pure function of
/// the candidate, so a second evaluation would panic again: none is made.
fn evaluate_island(
    pricer: &mut Pricer<'_>,
    views: &[View],
    penalty: &Penalty,
    poison: &BTreeSet<u64>,
    state: &mut IslandState,
) -> Vec<f64> {
    debug_assert_eq!(views.len(), state.population.len());
    let tag = (state.index as u64) << 40;
    views
        .iter()
        .map(|view| {
            let idx = tag | state.evaluations;
            state.evaluations += 1;
            isolated(|| {
                if poison.contains(&idx) {
                    panic!("injected poisoned candidate at evaluation {idx}");
                }
                objective::fitness_with(pricer, &view.groups, penalty)
            })
            .unwrap_or_else(|_| {
                state.poisoned += 1;
                gga::POISONED_FITNESS
            })
        })
        .collect()
}

/// What an island carries from epoch to epoch beside its state: each
/// member's view, in population order, and the buffers the next
/// generation is bred into. Never checkpointed — a fresh or resumed
/// island builds its views once — and never read again once the island
/// is quarantined.
#[derive(Debug, Default)]
struct Carried {
    views: Vec<View>,
    bred: Vec<Individual>,
    bred_views: Vec<View>,
}

/// A live island's carried views and buffers.
fn carried_of(lock: &mut Mutex<Carried>) -> &mut Carried {
    lock.get_mut()
        .expect("only a quarantined island's lock is poisoned, and the epoch loop skips it")
}

/// Advance one island through up to `gens` generations (one migration
/// epoch). `carried.views[i]` is `state.population[i]`'s view, and still
/// is on return. Runs inside the supervisor; an `Err` is a detected stall,
/// a panic is caught by the caller's `isolated` wrapper — both quarantine.
fn advance_epoch(
    engine: &ProjectionEngine<'_>,
    config: &SearchConfig,
    penalty: &Penalty,
    opts: &IslandOptions,
    state: &mut IslandState,
    carried: &mut Carried,
    gens: usize,
) -> Result<(), String> {
    let started = Instant::now();
    let poison = &opts.faults.poison_evaluations;
    // The island's cost cache and scratch buffers, held for the whole
    // epoch: the generation loop below takes no lock.
    let mut pricer = engine.pricer(state.index);
    let mut q = Quotient::new(engine.space());
    let Carried {
        views,
        bred,
        bred_views,
    } = carried;
    if state.scores.is_empty() {
        state.scores = evaluate_island(&mut pricer, views, penalty, poison, state);
    }
    // Watchdog budgets, checked at generation boundaries only so the
    // trajectory for a given seed is unchanged — just where it stops.
    let out_of_budget = |state: &IslandState| {
        let wall_us = state.wall_spent_us + started.elapsed().as_micros() as u64;
        (state.eval_budget > 0 && state.evaluations >= state.eval_budget)
            || (config.max_wall_ms > 0 && wall_us >= config.max_wall_ms.saturating_mul(1000))
    };
    for _ in 0..gens {
        if state.stop.is_some() {
            break;
        }
        if out_of_budget(state) {
            state.stop = Some(StopReason::BudgetExhausted);
            break;
        }
        let faults = &opts.faults.islands;
        if faults.stall_at.get(&state.index) == Some(&state.generations_run) {
            return Err(format!(
                "island {} stalled at generation {} and blew its supervision budget (injected)",
                state.index, state.generations_run
            ));
        }
        if faults.panic_at.get(&state.index) == Some(&state.generations_run) {
            panic!(
                "injected island fault: panic at generation {}",
                state.generations_run
            );
        }

        state.generations_run += 1;
        let prev_best = state.scores[gga::argmax(&state.scores)];
        let shard = state.population.len();
        bred.resize_with(shard, Individual::default);
        bred_views.resize_with(shard, View::default);
        // Elites survive unchanged, views and all.
        let elites = by_score(&state.scores)
            .into_iter()
            .take(config.elites.min(shard));
        for (slot, i) in elites.enumerate() {
            bred[slot].clone_from(&state.population[i]);
            bred_views[slot].clone_from(&views[i]);
        }
        for slot in config.elites.min(shard)..shard {
            gga::breed(
                &mut pricer,
                &mut q,
                config,
                &state.population,
                views,
                &state.scores,
                &mut state.rng.0,
                &mut state.fission_moves,
                &mut bred[slot],
                &mut bred_views[slot],
            );
        }
        // The next generation and its views take the place of the last,
        // whose buffers the one after reuses.
        std::mem::swap(&mut state.population, bred);
        std::mem::swap(views, bred_views);
        state.scores = evaluate_island(&mut pricer, views, penalty, poison, state);
        let best = gga::argmax(&state.scores);
        state.history.push(state.scores[best]);
        state.retained_fissions += state.population[best].fissioned().len() as u64;

        if config.stagnation_window > 0 {
            if state.scores[best] <= prev_best + 1e-12 {
                state.stagnant += 1;
                if state.stagnant >= config.stagnation_window {
                    state.stop = Some(StopReason::Plateaued);
                }
            } else {
                state.stagnant = 0;
            }
        }
    }
    if state.stop.is_none() && state.generations_run >= config.generations {
        state.stop = Some(StopReason::Converged);
    }
    state.wall_spent_us += started.elapsed().as_micros() as u64;
    debug_assert_eq!(stale_view(&mut q, state, views), None);
    Ok(())
}

/// The first member of `state` whose carried view is not the one a
/// rebuild gives, as `(member, reason)`; `None` when every view is current.
fn stale_view(
    q: &mut Quotient<'_>,
    state: &IslandState,
    views: &[View],
) -> Option<(usize, String)> {
    if views.len() != state.population.len() {
        let lengths = format!(
            "{} views for {} members",
            views.len(),
            state.population.len()
        );
        return Some((views.len().min(state.population.len()), lengths));
    }
    state
        .population
        .iter()
        .zip(views)
        .enumerate()
        .find_map(|(i, (ind, view))| {
            let fresh = q.view(ind);
            (*view != fresh).then(|| {
                (
                    i,
                    format!("carried {view:?}, rebuilt {fresh:?} for {ind:?}"),
                )
            })
        })
}

/// Debug builds, and this crate's tests in any profile, check every
/// island's carried views after every epoch: the epoch loop's rebuilds
/// (seeds, a resumed checkpoint, migrants) are only sound if nothing else
/// can leave a view behind its genome.
const CHECK_VIEWS: bool = cfg!(any(test, debug_assertions));

/// Refresh an island's last-good elite set from its current population.
fn refresh_elites(config: &SearchConfig, state: &mut IslandState) {
    if state.scores.is_empty() {
        return;
    }
    let keep = config.elites.max(1).min(state.population.len());
    let order = by_score(&state.scores);
    state.elite_scores = order.iter().take(keep).map(|&i| state.scores[i]).collect();
    state.elites = order
        .iter()
        .take(keep)
        .map(|&i| state.population[i].clone())
        .collect();
}

/// Ring migration among alive islands: each sends copies of its top
/// `migrants` to the next alive island, which replaces its worst members.
/// Packets are collected from the pre-migration states first, so the
/// result is independent of application order. Returns the
/// `(island, member)` slots a migrant took, whose views are now stale.
fn migrate(config: &SearchConfig, states: &mut [IslandState]) -> Vec<(usize, usize)> {
    let alive: Vec<usize> = states
        .iter()
        .filter(|s| s.alive && !s.scores.is_empty())
        .map(|s| s.index)
        .collect();
    if alive.len() < 2 || config.migrants == 0 {
        return Vec::new();
    }
    let packets: Vec<(usize, Vec<(f64, Individual)>)> = alive
        .iter()
        .enumerate()
        .map(|(pos, &from)| {
            let dest = alive[(pos + 1) % alive.len()];
            let s = &states[from];
            let order = rank_desc(&s.scores, &s.population);
            let take = config.migrants.min(s.population.len());
            let payload = order
                .iter()
                .take(take)
                .map(|&i| (s.scores[i], s.population[i].clone()))
                .collect();
            (dest, payload)
        })
        .collect();
    let mut arrived = Vec::new();
    for (dest, payload) in packets {
        let s = &mut states[dest];
        for (score, ind) in payload {
            let order = rank_desc(&s.scores, &s.population);
            let worst = *order.last().expect("non-empty island");
            if score > s.scores[worst] || (score == s.scores[worst] && ind < s.population[worst]) {
                s.population[worst] = ind;
                s.scores[worst] = score;
                arrived.push((dest, worst));
            }
        }
    }
    arrived
}

/// Run the search: `config.islands` supervised islands (1 = the classic
/// serial GGA, as one island with nothing to migrate to). [`gga::search`]
/// is this with default options.
pub fn search_islands(
    space: &SearchSpace,
    config: &SearchConfig,
    opts: &IslandOptions,
) -> IslandSearchResult {
    // The temporal ceiling and the codegen mode live on the space
    // (feasibility, projection and the fingerprint consult them); stamp the
    // configured values before anything reads them. At the defaults (1,
    // automated) the space is untouched — the temporal dimension vanishes
    // and the run is identical to a pre-temporal one.
    let stamped;
    let space = if space.max_temporal == config.max_temporal && space.mode == config.mode {
        space
    } else {
        stamped = SearchSpace {
            max_temporal: config.max_temporal,
            mode: config.mode,
            ..space.clone()
        };
        &stamped
    };
    let fingerprint = run_fingerprint(space, config, &opts.seeds);
    let penalty = Penalty {
        soft: config.penalty_soft,
        hard: config.penalty_hard,
        ..Penalty::default()
    };
    // Clamp so every island holds at least two individuals.
    let n = config.islands.max(1).min((config.population / 2).max(1));
    // One projection engine for the whole run: the timing model is built
    // once, and group costs are memoized across individuals and
    // generations, per island. The driver prices through island 0's cache.
    let engine = ProjectionEngine::with_islands(space, n);
    let mut q = Quotient::new(space);
    let singles = Individual::singletons(space);
    let singles_view = q.view(&singles);
    // The baseline is isolated like any other evaluation; a poisoned
    // baseline scores 0 (no projection improvement claimed over it).
    let baseline_gflops =
        isolated(|| objective::fitness_with(&mut engine.pricer(0), &singles_view.groups, &penalty))
            .unwrap_or(0.0);
    // The greedy fusion champions, priced through island 0's cache so the
    // first generation starts warm. A pure function of the space, so a
    // resumed run rebuilds the same ones for its report.
    let fission = config.p_fission > 0.0;
    let champions = seed::greedy_seeds(&mut engine.pricer(0), &mut q, &penalty, fission);
    let interval = config.migration_interval.max(1);
    let total_epochs = config.generations.div_ceil(interval).max(1);

    let mut degradations: Vec<SearchDegradation> = Vec::new();
    let mut resumed_from_epoch = None;
    let mut prior_hits = 0u64;
    let mut prior_misses = 0u64;
    let mut start_epoch = 0usize;
    let mut states: Option<Vec<IslandState>> = None;

    // ---- resume ----
    if let Some(path) = &opts.resume_path {
        match load_checkpoint(path, &fingerprint) {
            CheckpointLoad::Missing => {}
            CheckpointLoad::Rejected(reason) => degradations.push(SearchDegradation {
                scope: "search checkpoint".into(),
                action: "ignored unusable checkpoint; restarted the search from scratch".into(),
                reason,
            }),
            CheckpointLoad::Resumed(ckpt) if ckpt.islands.len() == n => {
                start_epoch = ckpt.epoch + 1;
                resumed_from_epoch = Some(ckpt.epoch);
                prior_hits = ckpt.prior_hits;
                prior_misses = ckpt.prior_misses;
                degradations = ckpt.degradations;
                states = Some(ckpt.islands);
            }
            CheckpointLoad::Resumed(_) => degradations.push(SearchDegradation {
                scope: "search checkpoint".into(),
                action: "ignored unusable checkpoint; restarted the search from scratch".into(),
                reason: "checkpoint island state is malformed".into(),
            }),
        }
    }

    // A resumed population's views are rebuilt once; a fresh one's are
    // built with it. Each island's are carried behind a lock only so the
    // parallel step can take them through a shared reference: nothing
    // contends for it.
    let mut views: Vec<Vec<View>> = match &states {
        Some(states) => states
            .iter()
            .map(|s| s.population.iter().map(|ind| q.view(ind)).collect())
            .collect(),
        None => Vec::with_capacity(n),
    };

    // ---- fresh start ----
    let mut states = states.unwrap_or_else(|| {
        let budgets = split_evenly(config.max_evaluations, n);
        let base = config.population / n;
        let rem = config.population % n;
        (0..n)
            .map(|i| {
                let shard = base + usize::from(i < rem);
                let mut rng = SmallRng::seed_from_u64(island_seed(config.seed, i as u64));
                let mut population = Vec::with_capacity(shard);
                let mut island_views = Vec::with_capacity(shard);
                population.push(singles.clone());
                island_views.push(singles_view.clone());
                if i == 0 {
                    // Elite injection: the port seeds, then the greedy
                    // champions, land on one island so migration spreads
                    // them, never displacing the all-singletons baseline.
                    let greedy = champions.iter().map(|g| &g.individual);
                    for seed in opts.seeds.iter().chain(greedy) {
                        if population.len() >= shard {
                            break;
                        }
                        if q.feasible(seed) && !population.contains(seed) {
                            population.push(seed.clone());
                            island_views.push(q.view(seed));
                        }
                    }
                }
                while population.len() < shard {
                    let mut ind = singles.clone();
                    let mut view = singles_view.clone();
                    for _ in 0..config.init_merges {
                        gga::mutate_merge(&mut q, &mut ind, &mut view, &mut rng);
                    }
                    population.push(ind);
                    island_views.push(view);
                }
                views.push(island_views);
                IslandState {
                    index: i,
                    alive: true,
                    rng: IslandRng(rng),
                    population,
                    scores: Vec::new(),
                    evaluations: 0,
                    eval_budget: budgets[i],
                    wall_spent_us: 0,
                    poisoned: 0,
                    generations_run: 0,
                    history: Vec::new(),
                    fission_moves: 0,
                    retained_fissions: 0,
                    stagnant: 0,
                    stop: None,
                    elite_scores: Vec::new(),
                    elites: Vec::new(),
                }
            })
            .collect()
    });

    let mut carried: Vec<Mutex<Carried>> = views
        .into_iter()
        .map(|views| {
            Mutex::new(Carried {
                views,
                ..Carried::default()
            })
        })
        .collect();

    // ---- epoch loop ----
    let mut epochs_run = 0usize;
    let mut checkpoints_written = 0usize;
    let mut killed_at_epoch = None;
    for epoch in start_epoch..total_epochs {
        let runnable = states.iter().any(|s| s.alive && s.stop.is_none());
        if !runnable {
            break;
        }
        let gens = interval.min(config.generations.saturating_sub(epoch * interval));

        // Parallel supervised step: each island advances one epoch on a
        // clone of its state; a panic or stall discards the clone, so the
        // quarantined island keeps its coherent epoch-start state (what it
        // carried is never read again). An island that does not run is
        // left as it is (`None`).
        let stepped: Vec<Result<Option<IslandState>, (usize, String)>> = states
            .par_iter()
            .map(|s| {
                if !s.alive || s.stop.is_some() {
                    return Ok(None);
                }
                let attempt = isolated(|| {
                    let mut next = s.clone();
                    let mut carried = carried[s.index].lock().expect(
                        "only a quarantined island's lock is poisoned, and it never runs again",
                    );
                    advance_epoch(
                        &engine,
                        config,
                        &penalty,
                        opts,
                        &mut next,
                        &mut carried,
                        gens,
                    )
                    .map(|()| next)
                });
                match attempt {
                    Ok(Ok(next)) => Ok(Some(next)),
                    Ok(Err(stall)) => Err((s.index, stall)),
                    Err(panic_msg) => Err((s.index, format!("panicked: {panic_msg}"))),
                }
            })
            .collect();
        for outcome in stepped {
            match outcome {
                Ok(None) => {}
                Ok(Some(next)) => {
                    let slot = next.index;
                    states[slot] = next;
                }
                Err((index, reason)) => {
                    states[index].alive = false;
                    degradations.push(SearchDegradation {
                        scope: format!("island {index}"),
                        action: "quarantined the island; its last-good elites still merge".into(),
                        reason,
                    });
                }
            }
        }

        for (island, member) in migrate(config, &mut states) {
            let views = &mut carried_of(&mut carried[island]).views;
            q.rebuild(&mut views[member], &states[island].population[member]);
        }
        for s in states.iter_mut() {
            if s.alive {
                refresh_elites(config, s);
            }
        }
        if CHECK_VIEWS {
            for s in states.iter().filter(|s| s.alive) {
                let views = &carried_of(&mut carried[s.index]).views;
                if let Some((member, why)) = stale_view(&mut q, s, views) {
                    panic!("epoch {epoch}: island {} member {member}: {why}", s.index);
                }
            }
        }
        epochs_run += 1;

        // ---- checkpoint ----
        if let Some(path) = &opts.checkpoint_path {
            let stats = engine.stats();
            let snapshot = CheckpointState {
                version: CHECKPOINT_VERSION,
                fingerprint: fingerprint.clone(),
                epoch,
                prior_hits: prior_hits + stats.hits,
                prior_misses: prior_misses + stats.misses,
                degradations: degradations.clone(),
                islands: states.clone(),
            };
            let torn = opts.faults.islands.torn_checkpoint_at_epoch == Some(epoch);
            match save_checkpoint(path, &snapshot, torn) {
                Ok(()) => checkpoints_written += 1,
                Err(e) => degradations.push(SearchDegradation {
                    scope: "search checkpoint".into(),
                    action: "skipped this epoch's checkpoint; the search continues".into(),
                    reason: e.to_string(),
                }),
            }
        }
        if opts.faults.islands.kill_at_epoch == Some(epoch) {
            killed_at_epoch = Some(epoch);
            break;
        }
    }

    // ---- canonical merge ----
    // Scan islands in index order; a live island contributes its champion
    // (the generation's best), a quarantined one its last-good elites. Across
    // islands a strictly greater score wins; exact ties fall to the
    // smaller genome.
    let mut best: Option<(f64, &Individual)> = None;
    for s in &states {
        let pool: Vec<(f64, &Individual)> = if s.alive {
            // `max_by` keeps the last maximum, exactly like `gga::argmax`.
            let scored = s.scores.iter().copied().zip(s.population.iter());
            scored
                .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite fitness"))
                .into_iter()
                .collect()
        } else {
            s.elite_scores
                .iter()
                .copied()
                .zip(s.elites.iter())
                .collect()
        };
        for (score, ind) in pool {
            let better = match best {
                None => true,
                Some((bs, bi)) => score > bs || (score == bs && ind < bi),
            };
            if better {
                best = Some((score, ind));
            }
        }
    }
    let (best_gflops, best) = match best {
        Some((s, i)) => (s, i.clone()),
        // Every island died before producing elites: fall back to the
        // untransformed baseline rather than failing the stage.
        None => (baseline_gflops, singles.clone()),
    };

    let generations_run = states.iter().map(|s| s.generations_run).max().unwrap_or(0);
    let mut history = Vec::with_capacity(generations_run);
    for g in 0..generations_run {
        let gen_best = states
            .iter()
            .filter_map(|s| s.history.get(g).copied())
            .fold(f64::NEG_INFINITY, f64::max);
        history.push(gen_best);
    }
    let evaluations: u64 = states.iter().map(|s| s.evaluations).sum();
    let poisoned: u64 = states.iter().map(|s| s.poisoned).sum();
    let retained: u64 = states.iter().map(|s| s.retained_fissions).sum();
    let moves: u64 = states.iter().map(|s| s.fission_moves).sum();
    let total_gens: u64 = states.iter().map(|s| s.generations_run as u64).sum();

    let stop_reason = if killed_at_epoch.is_some()
        || states
            .iter()
            .any(|s| s.stop == Some(StopReason::BudgetExhausted))
    {
        StopReason::BudgetExhausted
    } else if states
        .iter()
        .all(|s| !s.alive || s.stop == Some(StopReason::Converged))
        && states.iter().any(|s| s.alive)
    {
        StopReason::Converged
    } else {
        StopReason::Plateaued
    };

    // The fitter seed stands for them in the report; the first on a tie.
    let greedy = champions
        .into_iter()
        .reduce(|best, seed| {
            if seed.gflops > best.gflops {
                seed
            } else {
                best
            }
        })
        .expect("every run has a greedy seed");
    let mut plan = gga::lower_plan(&engine, &best, config.mode, config.block_tuning);
    plan.projected_gflops = Some(best_gflops);
    let stats = engine.stats();
    let projection = ProjectionStats {
        hits: stats.hits + prior_hits,
        misses: stats.misses + prior_misses,
        entries: stats.entries,
    };
    IslandSearchResult {
        result: SearchResult {
            best,
            plan,
            projection,
            history,
            baseline_gflops,
            best_gflops,
            greedy,
            fissions_per_generation: retained as f64 / total_gens.max(1) as f64,
            fission_moves_per_generation: moves as f64 / total_gens.max(1) as f64,
            generations_run,
            evaluations,
            stop_reason,
            poisoned_evaluations: poisoned,
        },
        degradations,
        islands: n,
        epochs_run,
        checkpoints_written,
        resumed_from_epoch,
        killed_at_epoch,
        island_wall_ms: states.iter().map(|s| s.wall_spent_us / 1000).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::tests::space_for;
    use sf_core::IslandFaults;
    use std::collections::BTreeMap;

    /// A plan whose only faults are `islands`.
    fn island_faults(islands: IslandFaults) -> FaultPlan {
        FaultPlan {
            islands,
            ..FaultPlan::default()
        }
    }

    const CHAIN4: &str = r#"
__global__ void k1(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void k2(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] + 1.0; } }
}
__global__ void k3(const double* __restrict__ a, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = a[k][j][i] - 3.0; } }
}
__global__ void k4(const double* __restrict__ b, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { d[k][j][i] = b[k][j][i] * 0.5; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 16;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  k1<<<dim3(4, 4), dim3(16, 8)>>>(u, a, nx, ny, nz);
  k2<<<dim3(4, 4), dim3(16, 8)>>>(u, b, nx, ny, nz);
  k3<<<dim3(4, 4), dim3(16, 8)>>>(a, c, nx, ny, nz);
  k4<<<dim3(4, 4), dim3(16, 8)>>>(b, d, nx, ny, nz);
}
"#;

    fn island_config(islands: usize) -> SearchConfig {
        SearchConfig {
            population: 16,
            generations: 12,
            migration_interval: 4,
            migrants: 1,
            stagnation_window: 0,
            ..SearchConfig::default()
        }
        .with_islands(islands)
    }

    fn plan_bytes(r: &IslandSearchResult) -> String {
        serde_json::to_string(&r.result.plan).unwrap()
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sf-search-islands-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn island_search_is_deterministic_and_returns_a_valid_plan() {
        let space = space_for(CHAIN4);
        let cfg = island_config(3);
        let a = search_islands(&space, &cfg, &IslandOptions::default());
        let b = search_islands(&space, &cfg, &IslandOptions::default());
        assert_eq!(a.result.best, b.result.best);
        assert_eq!(plan_bytes(&a), plan_bytes(&b));
        assert!(a.result.best.feasible(&space));
        assert!(a.degradations.is_empty());
        assert_eq!(a.islands, 3);
        assert_eq!(a.epochs_run, 3);
        assert_eq!(a.result.stop_reason, StopReason::Converged);
        assert!(a.result.best_gflops >= a.result.baseline_gflops);
        a.result.plan.validate(4).expect("lowered plan is valid");
    }

    #[test]
    fn budgets_split_island_local_and_sum_to_the_serial_budget() {
        // The unit invariant: shares sum exactly, 0 stays unlimited.
        assert_eq!(split_evenly(100, 4), vec![25, 25, 25, 25]);
        assert_eq!(split_evenly(10, 3), vec![4, 3, 3]);
        assert_eq!(split_evenly(10, 3).iter().sum::<u64>(), 10);
        assert_eq!(split_evenly(0, 4), vec![0, 0, 0, 0]);

        // Behavioral: with the same total budget, serial-shaped (1 island)
        // and 4 islands both stop on budget, and neither overshoots by
        // more than one generation of evaluations per island.
        let space = space_for(CHAIN4);
        let budget = 64u64;
        for islands in [1usize, 4] {
            let cfg = SearchConfig {
                max_evaluations: budget,
                generations: 1000,
                ..island_config(islands)
            };
            let r = search_islands(&space, &cfg, &IslandOptions::default());
            assert_eq!(r.result.stop_reason, StopReason::BudgetExhausted);
            let shard = cfg.population.div_ceil(islands) as u64;
            let slack = islands as u64 * shard;
            assert!(
                r.result.evaluations >= budget && r.result.evaluations <= budget + slack,
                "islands={islands}: {} evaluations for budget {budget}",
                r.result.evaluations
            );
        }
    }

    #[test]
    fn panicked_island_is_quarantined_and_the_search_degrades() {
        let space = space_for(CHAIN4);
        let cfg = island_config(3);
        let opts = IslandOptions {
            faults: island_faults(IslandFaults {
                panic_at: BTreeMap::from([(1, 5)]),
                ..IslandFaults::default()
            }),
            ..IslandOptions::default()
        };
        let r = search_islands(&space, &cfg, &opts);
        assert_eq!(r.degradations.len(), 1);
        assert_eq!(r.degradations[0].scope, "island 1");
        assert!(r.degradations[0].reason.contains("panicked"));
        assert!(r.result.best.feasible(&space));
        r.result
            .plan
            .validate(4)
            .expect("degraded run still lowers");
        // Supervision reports must never read like a miscompile.
        assert!(!r.degradations[0].action.contains("verification failed"));
        assert!(!r.degradations[0].reason.contains("output mismatch"));
    }

    #[test]
    fn stalled_island_is_quarantined_with_a_stall_reason() {
        let space = space_for(CHAIN4);
        let cfg = island_config(2);
        let opts = IslandOptions {
            faults: island_faults(IslandFaults {
                stall_at: BTreeMap::from([(0, 6)]),
                ..IslandFaults::default()
            }),
            ..IslandOptions::default()
        };
        let r = search_islands(&space, &cfg, &opts);
        assert_eq!(r.degradations.len(), 1);
        assert_eq!(r.degradations[0].scope, "island 0");
        assert!(r.degradations[0].reason.contains("stalled"));
        assert!(r.result.best.feasible(&space));
        // Island 0 froze at its epoch-start state; island 1 carried on to
        // the full schedule.
        assert_eq!(r.result.generations_run, cfg.generations);
    }

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_plan_at_every_epoch() {
        let space = space_for(CHAIN4);
        for islands in [1, 3] {
            kill_and_resume_at_every_epoch(&space, &island_config(islands));
        }
    }

    fn kill_and_resume_at_every_epoch(space: &SearchSpace, cfg: &SearchConfig) {
        let dir = scratch(&format!("kill-resume-{}", cfg.islands));

        let golden = search_islands(space, cfg, &IslandOptions::default());
        let golden_bytes = plan_bytes(&golden);
        assert_eq!(golden.epochs_run, 3);

        for epoch in 0..golden.epochs_run {
            let ckpt = dir.join(format!("epoch{epoch}.ckpt"));
            let killed = search_islands(
                space,
                cfg,
                &IslandOptions {
                    checkpoint_path: Some(ckpt.clone()),
                    faults: island_faults(IslandFaults {
                        kill_at_epoch: Some(epoch),
                        ..IslandFaults::default()
                    }),
                    ..IslandOptions::default()
                },
            );
            assert_eq!(killed.killed_at_epoch, Some(epoch));
            assert!(ckpt.exists(), "epoch {epoch}: checkpoint written");

            let resumed = search_islands(
                space,
                cfg,
                &IslandOptions {
                    checkpoint_path: Some(ckpt.clone()),
                    resume_path: Some(ckpt.clone()),
                    ..IslandOptions::default()
                },
            );
            assert_eq!(resumed.resumed_from_epoch, Some(epoch));
            assert_eq!(
                plan_bytes(&resumed),
                golden_bytes,
                "kill at epoch {epoch}: resumed plan diverged"
            );
            assert_eq!(resumed.result.best, golden.result.best);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_checkpoint_restarts_from_scratch_with_a_degradation() {
        let space = space_for(CHAIN4);
        let cfg = island_config(2);
        let dir = scratch("torn");
        let ckpt = dir.join("search.ckpt");

        let golden = search_islands(&space, &cfg, &IslandOptions::default());
        let killed = search_islands(
            &space,
            &cfg,
            &IslandOptions {
                checkpoint_path: Some(ckpt.clone()),
                faults: island_faults(IslandFaults {
                    torn_checkpoint_at_epoch: Some(1),
                    kill_at_epoch: Some(1),
                    ..IslandFaults::default()
                }),
                ..IslandOptions::default()
            },
        );
        assert_eq!(killed.killed_at_epoch, Some(1));

        let resumed = search_islands(
            &space,
            &cfg,
            &IslandOptions {
                resume_path: Some(ckpt.clone()),
                ..IslandOptions::default()
            },
        );
        // The torn file is detected, the run restarts, and the restart is
        // the deterministic fresh trajectory.
        assert_eq!(resumed.resumed_from_epoch, None);
        assert_eq!(resumed.degradations.len(), 1);
        assert_eq!(resumed.degradations[0].scope, "search checkpoint");
        assert!(resumed.degradations[0].reason.contains("torn"));
        assert_eq!(plan_bytes(&resumed), plan_bytes(&golden));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_against_a_different_config_is_rejected() {
        let space = space_for(CHAIN4);
        let cfg = island_config(2);
        let dir = scratch("foreign");
        let ckpt = dir.join("search.ckpt");
        let _ = search_islands(
            &space,
            &cfg,
            &IslandOptions {
                checkpoint_path: Some(ckpt.clone()),
                ..IslandOptions::default()
            },
        );
        let other = SearchConfig {
            seed: 777,
            ..cfg.clone()
        };
        let r = search_islands(
            &space,
            &other,
            &IslandOptions {
                resume_path: Some(ckpt.clone()),
                ..IslandOptions::default()
            },
        );
        assert_eq!(r.resumed_from_epoch, None);
        assert_eq!(r.degradations.len(), 1);
        assert!(r.degradations[0].reason.contains("key"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_checkpoint_restarts_from_scratch_with_the_version_named() {
        let space = space_for(CHAIN4);
        let cfg = island_config(1);
        let dir = scratch("v1");
        let ckpt = dir.join("search.ckpt");
        crate::checkpoint::tests::write_v1_checkpoint(&ckpt, "any run");

        let golden = search_islands(&space, &cfg, &IslandOptions::default());
        let resumed = search_islands(
            &space,
            &cfg,
            &IslandOptions {
                resume_path: Some(ckpt.clone()),
                ..IslandOptions::default()
            },
        );
        assert_eq!(resumed.resumed_from_epoch, None);
        assert_eq!(resumed.degradations.len(), 1);
        assert_eq!(resumed.degradations[0].scope, "search checkpoint");
        assert!(resumed.degradations[0]
            .action
            .contains("restarted the search from scratch"));
        assert!(resumed.degradations[0].reason.contains("schema version 1"));
        assert_eq!(plan_bytes(&resumed), plan_bytes(&golden));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn search_is_the_one_island_run() {
        let space = space_for(CHAIN4);
        let cfg = island_config(1);
        let r = search_islands(&space, &cfg, &IslandOptions::default());
        assert_eq!(r.islands, 1);
        assert!(r.degradations.is_empty());
        let plain = gga::search(&space, &cfg);
        assert_eq!(r.result.best, plain.best);
        assert_eq!(r.result.plan, plain.plan);
        assert_eq!(r.result.history, plain.history);
    }

    #[test]
    fn all_islands_dead_falls_back_to_the_baseline() {
        let space = space_for(CHAIN4);
        let cfg = island_config(2);
        let opts = IslandOptions {
            faults: island_faults(IslandFaults {
                panic_at: BTreeMap::from([(0, 0), (1, 0)]),
                ..IslandFaults::default()
            }),
            ..IslandOptions::default()
        };
        let r = search_islands(&space, &cfg, &opts);
        assert_eq!(r.degradations.len(), 2);
        assert_eq!(r.result.best, Individual::singletons(&space));
        assert_eq!(r.result.best_gflops, r.result.baseline_gflops);
        r.result.plan.validate(4).expect("baseline plan lowers");
    }

    #[test]
    fn island_cache_counts_are_a_function_of_the_seed() {
        // Each island prices through its own cache, so the counters (which
        // every checkpoint carries as `prior_hits` / `prior_misses`) no
        // longer depend on which worker reached a shared entry first.
        let space = space_for(CHAIN4);
        let cfg = island_config(3);
        let first = search_islands(&space, &cfg, &IslandOptions::default());
        for _ in 0..3 {
            let again = search_islands(&space, &cfg, &IslandOptions::default());
            assert_eq!(again.result.projection, first.result.projection);
        }
        // Same groups priced as on one shared cache; only who missed moved.
        let one = search_islands(&space, &island_config(1), &IslandOptions::default());
        assert!(first.result.projection.misses > one.result.projection.misses);
    }

    /// The epoch loop checks every island's carried views after every epoch
    /// (`CHECK_VIEWS` is on in this crate's tests, in any profile), so each
    /// run below panics if a member's view ever differs from a rebuild:
    /// through migration at one and three islands, a run resumed from the
    /// checkpoint of a kill at epoch 2, a seeded (`--port-plan`) start, and
    /// poisoned evaluations.
    #[test]
    fn carried_views_survive_the_island_machinery() {
        let space = space_for(CHAIN4);
        let longer = |islands| SearchConfig {
            generations: 24,
            ..island_config(islands)
        };
        let run = |cfg: &SearchConfig, opts: &IslandOptions| {
            let r = search_islands(&space, cfg, opts);
            assert!(r.degradations.is_empty(), "{:?}", r.degradations);
            r
        };
        for islands in [1, 3] {
            assert_eq!(
                run(&longer(islands), &IslandOptions::default()).epochs_run,
                6
            );
        }

        let dir = scratch("carried-views");
        let ckpt = dir.join("search.ckpt");
        let kill = IslandOptions {
            checkpoint_path: Some(ckpt.clone()),
            faults: island_faults(IslandFaults {
                kill_at_epoch: Some(2),
                ..IslandFaults::default()
            }),
            ..IslandOptions::default()
        };
        assert_eq!(run(&longer(3), &kill).killed_at_epoch, Some(2));
        let resume = IslandOptions {
            resume_path: Some(ckpt),
            ..IslandOptions::default()
        };
        let resumed = run(&longer(3), &resume);
        assert_eq!(
            (resumed.resumed_from_epoch, resumed.epochs_run),
            (Some(2), 3)
        );
        let _ = std::fs::remove_dir_all(&dir);

        let mut seed = Individual::singletons(&space);
        assert!(seed.try_merge(&space, 0, 2) && seed.try_merge(&space, 1, 3));
        let seeded = IslandOptions {
            seeds: vec![seed],
            ..IslandOptions::default()
        };
        run(&longer(1).for_port(), &seeded);

        let poisoned = IslandOptions {
            faults: FaultPlan {
                poison_evaluations: BTreeSet::from([1, 7, 13, (1 << 40) | 3]),
                ..FaultPlan::default()
            },
            ..IslandOptions::default()
        };
        let r = run(&longer(3), &poisoned);
        assert_eq!(r.result.poisoned_evaluations, 4);
    }

    /// The fingerprint binds every checkpoint to its run, and it is built
    /// from `Debug` text — the genome's included, for a seeded
    /// (`--port-plan`) run. These are the strings the build before the
    /// flat genome produced; a change here orphans every checkpoint on
    /// disk as "belongs to a different search configuration".
    #[test]
    fn run_fingerprint_text_is_pinned() {
        const K20X: &str = " | device DeviceSpec { name: \"K20X\", sm_count: 14, warp_size: 32, \
             max_threads_per_sm: 2048, max_blocks_per_sm: 16, max_threads_per_block: 1024, \
             regs_per_sm: 65536, max_regs_per_thread: 255, reg_alloc_granularity: 256, \
             smem_per_sm: 49152, smem_per_block_max: 49152, smem_alloc_granularity: 256, \
             peak_dp_gflops: 1310.0, mem_bw_gbps: 250.0, launch_overhead_us: 6.0, \
             bw_saturation_occupancy: 0.5, bw_efficiency: 0.75, issue_latency_us: 0.0009, \
             dram_latency_us: 0.35, divergence_flop_cost: 256.0 }";
        let space = space_for(CHAIN4);
        let unseeded = "search SearchConfig { population: 16, generations: 12, tournament: 3, \
             elites: 4, crossover_rate: 0.7, p_merge: 0.5, p_split: 0.15, p_move: 0.25, \
             p_fission: 0.15, p_defission: 0.05, penalty_soft: 0.85, penalty_hard: 0.4, \
             init_merges: 3, seed: 20150615, stagnation_window: 0, max_wall_ms: 0, \
             max_evaluations: 0, mode: Auto, block_tuning: false, \
             islands: 2, migration_interval: 4, migrants: 1, \
             max_temporal: 1 } | units 4 edges 2 smem 49152";
        assert_eq!(
            run_fingerprint(&space, &island_config(2), &[]),
            format!("{unseeded}{K20X} | seeds []")
        );

        // A seeded run: one original fissioned, a product fused downstream.
        let space = space_for(crate::space::tests::SRC);
        let mut split = Individual::singletons(&space);
        split.fission(&space, 0);
        let product = space.units[0].products[0];
        assert!(split.try_merge(&space, product, 1));
        let seeds = [Individual::singletons(&space), split];
        let seeded = "search SearchConfig { population: 24, generations: 20, tournament: 3, \
             elites: 4, crossover_rate: 0.7, p_merge: 0.5, p_split: 0.15, p_move: 0.25, \
             p_fission: 0.15, p_defission: 0.05, penalty_soft: 0.85, penalty_hard: 0.4, \
             init_merges: 3, seed: 20150615, stagnation_window: 6, max_wall_ms: 0, \
             max_evaluations: 0, mode: Auto, block_tuning: false, \
             islands: 1, migration_interval: 8, migrants: 2, \
             max_temporal: 1 } | units 4 edges 2 smem 49152";
        let genomes = "[Individual { fissioned: {}, group_of: {0: 0, 1: 1} }, \
             Individual { fissioned: {0}, group_of: {1: 2, 2: 2, 3: 3} }]";
        assert_eq!(
            run_fingerprint(&space, &SearchConfig::quick().for_port(), &seeds),
            format!("{seeded}{K20X} | seeds {genomes}")
        );
    }
}
