//! The grouped genetic algorithm (§5.4): operators, result type, lowering.
//!
//! Falkenauer-style GGA: chromosomes are partitions; crossover injects
//! whole groups from one parent into the other with repair; mutations
//! merge/split/move at group granularity; fission/defission moves realize
//! the lazy-fission relaxation. The generation loop that drives these
//! operators lives in [`crate::islands`] — one loop for every run, the
//! classic serial search being its `islands = 1` case.
//!
//! The paper spends >90 % of its search in the objective. Here the
//! projection is memoized (two cache probes per evaluation), so the
//! operators — above all the feasibility check behind every move — are
//! the search's cost. They therefore work on the flat genome and its
//! carried [`View`] over an island's reusable [`Quotient`] (see
//! [`crate::genome`]): a merge is decided locally on the view, any other
//! move proposes its groups, checks them without a regroup and commits
//! them only if they pass, and a child is bred into buffers the island
//! reuses every generation. Every operator draws from the RNG in a fixed
//! order, including draws whose result is then rejected: a given stream
//! always yields the same child.

use crate::genome::{Groups, Individual, Quotient, View};
use crate::islands::{search_islands, IslandOptions};
use crate::objective;
use crate::params::SearchConfig;
use crate::projection::{Pricer, ProjectionEngine, ProjectionStats};
use crate::seed::Greedy;
use crate::space::SearchSpace;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use sf_codegen::legality::Tile;
use sf_plan::{CodegenMode, GroupPlan, GroupProjection, PrecedenceClass, TransformPlan};

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum StopReason {
    /// Ran its full generation schedule.
    Converged,
    /// Watchdog: wall-clock or evaluation budget hit; the best-so-far
    /// individual was returned early.
    BudgetExhausted,
    /// Early stop: best fitness stagnated for `stagnation_window`
    /// generations.
    Plateaued,
}

impl StopReason {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::BudgetExhausted => "budget-exhausted",
            StopReason::Plateaued => "plateaued",
        }
    }
}

/// Fitness assigned to a candidate whose evaluation panicked (after bounded
/// retry): strictly below every real projection (which is >= 0 GFLOPS), so
/// a poisoned candidate can never win but the search carries on.
pub(crate) const POISONED_FITNESS: f64 = -1.0;

/// The outcome of a search run.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct SearchResult {
    pub best: Individual,
    /// The winning grouping lowered to the typed plan IR: groups in
    /// quotient-topological (execution) order, annotated with the
    /// projection's expectations — ready for the code generator.
    pub plan: TransformPlan,
    /// Projection-cache counters for the whole run.
    pub projection: ProjectionStats,
    /// Best fitness per generation.
    pub history: Vec<f64>,
    /// Projected GFLOPS of the all-singletons baseline and of the winner.
    pub baseline_gflops: f64,
    pub best_gflops: f64,
    /// The greedy seed the first population held ([`crate::seed`]).
    pub greedy: Greedy,
    /// Average number of fissioned kernels retained in the generation-best
    /// individual (the Table 1 "avg fissions per generation" analog: how
    /// actively the winning lineage uses fission).
    pub fissions_per_generation: f64,
    /// Raw fission moves applied across all offspring, per generation
    /// (churn, including moves selection later discards).
    pub fission_moves_per_generation: f64,
    pub generations_run: usize,
    pub evaluations: u64,
    /// Why the run ended.
    pub stop_reason: StopReason,
    /// Candidates whose evaluation panicked and, after bounded retry, were
    /// scored with `POISONED_FITNESS` instead of aborting the search.
    pub poisoned_evaluations: u64,
}

/// Run the search: [`search_islands`] with no faults, checkpoint or seeds,
/// keeping only the merged result.
pub fn search(space: &SearchSpace, config: &SearchConfig) -> SearchResult {
    search_islands(space, config, &IslandOptions::default()).result
}

/// Lower an individual to the typed [`TransformPlan`] IR: fusion groups in
/// quotient-topological (execution) order, each annotated with what the
/// projection expects of it — precedence class, staged arrays, projected
/// per-group cost — plus the projected end-to-end runtime. The caller
/// stamps `projected_gflops` (the penalized fitness) separately.
pub fn lower_plan(
    engine: &ProjectionEngine<'_>,
    ind: &Individual,
    mode: CodegenMode,
    block_tuning: bool,
) -> TransformPlan {
    let space = engine.space();
    let mut pricer = engine.pricer(0);
    let mut q = Quotient::new(space);
    let order = q
        .topo_order(ind)
        .expect("winning individual must be feasible");
    let groups = order
        .iter()
        .map(|&k| {
            let members = q.groups.members(k);
            // The best temporal degree for this group (1 = no folding) and
            // the cost projected at that degree — the same argmin the
            // fitness function saw, so the plan records the decision the
            // search actually optimized for.
            let (fold, cost) = pricer.best_fold(members);
            assert!(
                cost.fusable,
                "the search chose a group codegen will not fuse"
            );
            // Members must be in *execution* order: products carry their
            // parent's seq (unit ids do not reflect host order).
            let mut mrefs: Vec<_> = members.iter().map(|&u| space.units[u].mref).collect();
            mrefs.sort_by_key(|m| (m.seq, m.fission_component));
            let mut gp = GroupPlan::of(mrefs);
            gp.temporal = fold;
            // Any dependence between two members means the fused segments
            // must execute in order. (A hard edge is intra-group only for
            // whole-loop temporal candidates, whose ping-pong anti
            // dependences codegen legalizes with shadow arrays; every other
            // edge is a soft flow/anti dependence handled with staging.)
            gp.precedence = if members
                .iter()
                .any(|&a| members.iter().any(|&b| space.edges.contains_key(&(a, b))))
            {
                PrecedenceClass::PrecedenceAware
            } else {
                PrecedenceClass::Simple
            };
            gp.staged_arrays = staged_arrays(space, members, fold);
            gp.projection = Some(GroupProjection {
                time_us: cost.time_us,
                flops: cost.flops,
                smem_bytes: cost.smem_bytes as u64,
            });
            gp
        })
        .collect();
    let mut plan = TransformPlan::new(space.device.clone(), mode, block_tuning, groups);
    plan.projected_time_us = Some(objective::projected_time_us_with(&mut pricer, &q.groups));
    plan
}

/// The arrays codegen stages for `members` at temporal degree `fold`: the
/// tiles of their [`SearchSpace::decision`], or every array the chain writes.
fn staged_arrays(space: &SearchSpace, members: &[usize], fold: u32) -> Vec<String> {
    match space
        .temporal_group(members)
        .map(|li| &space.loops[li].chain)
    {
        Some(Ok(chain)) if fold > 1 => chain.written.clone(),
        _ if members.len() < 2 => Vec::new(),
        _ => {
            let decision = space.decision(members).expect("a lowered group is fusable");
            let name = |t: &Tile| space.arrays.name(t.array).to_string();
            decision.tiles().iter().map(name).collect()
        }
    }
}

/// Breed one offspring: tournament selection, optional group-injection
/// crossover, then the fixed mutation sequence. The exact draw order is
/// load-bearing: a given RNG stream always yields the same child.
/// `views[i]` is `population[i]`'s view; the child is bred into `child`
/// and its view into `view` (both buffers are overwritten).
#[allow(clippy::too_many_arguments)] // the island's buffers, each its own
pub(crate) fn breed(
    pricer: &mut Pricer<'_>,
    q: &mut Quotient<'_>,
    config: &SearchConfig,
    population: &[Individual],
    views: &[View],
    scores: &[f64],
    rng: &mut SmallRng,
    fission_moves: &mut u64,
    child: &mut Individual,
    view: &mut View,
) {
    let a = tournament(scores, config.tournament, rng);
    child.clone_from(&population[a]);
    if rng.gen_bool(config.crossover_rate) {
        let b = tournament(scores, config.tournament, rng);
        crossover(q, child, view, &views[a], &views[b], rng);
    } else {
        view.clone_from(&views[a]);
    }
    // Mutations.
    if rng.gen_bool(config.p_merge) {
        mutate_merge(q, child, view, rng);
    }
    if rng.gen_bool(config.p_split) {
        mutate_split(q, child, view, rng);
    }
    if rng.gen_bool(config.p_move) {
        mutate_move(q, child, view, rng);
    }
    if config.p_fission > 0.0
        && rng.gen_bool(config.p_fission)
        && mutate_fission(pricer, q, child, view, rng)
    {
        *fission_moves += 1;
    }
    if config.p_defission > 0.0 && rng.gen_bool(config.p_defission) {
        mutate_defission(q, child, view, rng);
    }
    debug_assert!(q.feasible(child));
}

/// Index of the best score — the *last* maximum on exact ties.
pub(crate) fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite fitness"))
        .map(|(i, _)| i)
        .expect("non-empty population")
}

fn tournament(scores: &[f64], k: usize, rng: &mut SmallRng) -> usize {
    let mut best = rng.gen_range(0..scores.len());
    for _ in 1..k.max(1) {
        let c = rng.gen_range(0..scores.len());
        if scores[c] > scores[best] {
            best = c;
        }
    }
    best
}

/// A uniformly drawn fusion group (two or more members) of `groups`, as a
/// group index; `None`, and no draw, when there is none.
fn draw_fusion(groups: &Groups, rng: &mut SmallRng) -> Option<usize> {
    let fusions = groups.fusions().count();
    if fusions == 0 {
        return None;
    }
    groups.fusions().nth(rng.gen_range(0..fusions))
}

/// Group-injection crossover on a clone of parent A (`child`; `a` is A's
/// view): try to impose a random fusion group of B (read off B's view)
/// onto it, re-grouping those members together when every one of them is
/// active in the child and the result stays feasible. A donor that already
/// is one of the child's groups only takes a fresh id. The child's view is
/// left in `view`.
pub(crate) fn crossover(
    q: &mut Quotient<'_>,
    child: &mut Individual,
    view: &mut View,
    a: &View,
    b: &View,
    rng: &mut SmallRng,
) {
    let donor = draw_fusion(&b.groups, rng).map(|k| b.groups.members(k));
    // All donor members must be active in the child (same fission state).
    let donor = donor.filter(|donor| donor.iter().all(|&u| child.group(u).is_some()));
    let injected = donor.is_some_and(|donor| {
        let g = a.groups.fresh_gid();
        let k = a
            .groups
            .index_of(donor[0])
            .expect("donor members are active");
        if a.groups.members(k) == donor {
            view.clone_from(a);
            view.rename(child, k, g);
            return true;
        }
        q.proposal.regather(&a.groups, donor, g);
        q.settle_gathered(child, view, donor, g)
    });
    if !injected {
        view.clone_from(a);
    }
}

pub(crate) fn mutate_merge(
    q: &mut Quotient<'_>,
    ind: &mut Individual,
    view: &mut View,
    rng: &mut SmallRng,
) {
    let space = q.space();
    q.picks.clear();
    let eligible = ind
        .pairs()
        .map(|(u, _)| u)
        .filter(|&u| space.units[u].eligible);
    q.picks.extend(eligible);
    let active = q.picks.len();
    if active < 2 {
        return;
    }
    // A few attempts to find a feasible merge.
    for _ in 0..4 {
        let x = q.picks[rng.gen_range(0..active)];
        let y = q.picks[rng.gen_range(0..active)];
        if x != y && q.try_merge_in(ind, view, x, y) {
            return;
        }
    }
}

pub(crate) fn mutate_split(
    q: &mut Quotient<'_>,
    ind: &mut Individual,
    view: &mut View,
    rng: &mut SmallRng,
) {
    let Some(k) = draw_fusion(&view.groups, rng) else {
        return;
    };
    // Move a random member out into a fresh singleton. Splitting the middle
    // of a flow chain out of its group creates a quotient cycle (the two
    // remaining halves wrap around the singleton), so check and revert.
    let &victim = view.groups.members(k).choose(rng).expect("non-empty group");
    let fresh = view.groups.fresh_gid();
    q.try_gather(ind, view, &[victim], fresh);
}

/// Move a random member of a fusion group to another unit's group: split
/// it out, then merge that group into the split-off singleton. One full
/// check of the final state — the split alone may be cyclic, so the local
/// merge rule has no feasible base here.
pub(crate) fn mutate_move(
    q: &mut Quotient<'_>,
    ind: &mut Individual,
    view: &mut View,
    rng: &mut SmallRng,
) {
    let space = q.space();
    let Some(k) = draw_fusion(&view.groups, rng) else {
        return;
    };
    let &victim = view.groups.members(k).choose(rng).expect("non-empty group");
    q.picks.clear();
    let others = ind.pairs().map(|(u, _)| u).filter(|&u| u != victim);
    q.picks.extend(others.filter(|&u| space.units[u].eligible));
    if q.picks.is_empty() {
        return;
    }
    let target = q.picks[rng.gen_range(0..q.picks.len())];
    // The victim and the rest of the target's group (which may be the
    // victim's own) gather in a fresh group, all of them eligible or none.
    let groups = &view.groups;
    let j = groups.index_of(target).expect("targets are active");
    let rest = groups.members(j).iter().copied().filter(|&u| u != victim);
    let eligible = |u: usize| space.units[u].eligible;
    if !eligible(victim) || !rest.clone().all(eligible) {
        return;
    }
    let fresh = groups.fresh_gid();
    if j == k {
        // The victim's own group, gathered again: it only takes a fresh id.
        view.rename(ind, k, fresh);
        return;
    }
    let mut units = std::mem::take(&mut q.picks);
    units.clear();
    units.extend(rest.clone().filter(|&u| u < victim));
    units.push(victim);
    units.extend(rest.filter(|&u| u > victim));
    q.try_gather(ind, view, &units, fresh);
    q.picks = units;
}

/// The lazy-fission move (§4.1): split a member of a group whose
/// shared-memory demand violates the capacity constraint (the dynamic
/// penalty's relaxation). A genome with no such group is not fissioned:
/// where fission pays on its own, the fissioned greedy seed
/// ([`crate::seed::greedy_seeds`]) brings it into the population.
pub(crate) fn mutate_fission(
    pricer: &mut Pricer<'_>,
    q: &mut Quotient<'_>,
    ind: &mut Individual,
    view: &mut View,
    rng: &mut SmallRng,
) -> bool {
    let space = q.space();
    let splittable = |&u: &usize| space.units[u].parent.is_none() && space.units[u].fissionable();
    // Find violating groups first.
    q.picks.clear();
    for k in 0..view.groups.len() {
        let members = view.groups.members(k);
        if pricer.group_cost(members).smem_violation {
            q.picks.extend(members.iter().copied().filter(splittable));
        }
    }
    if q.picks.is_empty() {
        return false;
    }
    let victim = q.picks[rng.gen_range(0..q.picks.len())];
    // Remember the victim's group so products can rejoin it.
    let old_group = ind.group(victim);
    let saved = ind.clone();
    ind.fission(space, victim);
    let family = std::iter::once(victim).chain(space.units[victim].products.iter().copied());
    q.propose(view, ind, family);
    if !q.settle(view) {
        *ind = saved;
        return false;
    }
    // Try to put each product back into the old group (keeps the locality
    // the group had, minus the separable parts).
    let rep = old_group.and_then(|g| view.groups.find(g));
    if let Some(k) = rep {
        let rep = view.groups.members(k)[0];
        for &p in &space.units[victim].products {
            let _ = q.try_merge_in(ind, view, rep, p);
        }
    }
    true
}

pub(crate) fn mutate_defission(
    q: &mut Quotient<'_>,
    ind: &mut Individual,
    view: &mut View,
    rng: &mut SmallRng,
) {
    let space = q.space();
    if ind.fissioned().is_empty() {
        return;
    }
    let victim = ind.fissioned()[rng.gen_range(0..ind.fissioned().len())];
    let products = &space.units[victim].products;
    // Only when all products are singletons (nothing is lost).
    let all_single = products.iter().all(|&p| {
        let k = view.groups.index_of(p);
        view.groups
            .members(k.expect("products of a fissioned unit are active"))
            .len()
            == 1
    });
    if all_single {
        // The reunified original carries the union of its products' edges,
        // which can re-create a quotient cycle the split avoided — check
        // and revert.
        let saved = ind.clone();
        ind.defission(space, victim);
        q.propose(
            view,
            ind,
            std::iter::once(victim).chain(products.iter().copied()),
        );
        if !q.settle(view) {
            *ind = saved;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::tests::space_for;
    use std::collections::BTreeSet;

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

    #[test]
    fn search_finds_fusions_and_improves_projection() {
        let space = space_for(CHAIN4);
        let result = search(&space, &SearchConfig::quick());
        assert!(result.best_gflops > result.baseline_gflops);
        assert!(!result.best.fusion_groups().is_empty());
        assert!(result.best.feasible(&space));
        assert_eq!(result.history.len(), result.generations_run);
        // The memoized projection must absorb nearly all lookups: a run
        // revisits the same groupings constantly.
        assert!(
            result.projection.hit_rate() > 0.9,
            "cache ineffective: {:?}",
            result.projection
        );
        assert_eq!(result.plan.projected_gflops, Some(result.best_gflops));
        assert!(result.plan.projected_time_us.unwrap() > 0.0);
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let space = space_for(CHAIN4);
        let a = search(&space, &SearchConfig::quick());
        let b = search(&space, &SearchConfig::quick());
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_gflops, b.best_gflops);
        let c = search(
            &space,
            &SearchConfig {
                seed: 7,
                ..SearchConfig::quick()
            },
        );
        // Different seed may differ (not asserted equal), but must be valid.
        assert!(c.best.feasible(&space));
    }

    #[test]
    fn groups_come_out_in_execution_order() {
        let space = space_for(CHAIN4);
        let result = search(&space, &SearchConfig::quick());
        // Every group's members exist; flattened members cover all units
        // exactly once.
        let mut seen = std::collections::BTreeSet::new();
        for g in &result.plan.groups {
            for m in &g.members {
                assert!(seen.insert((m.seq, m.fission_component)));
            }
        }
        // The lowered plan must also pass its own structural validation
        // against the program's launch count (4 kernels in CHAIN4).
        result.plan.validate(4).expect("lowered plan is valid");
        // Every group carries the projection's cost annotation.
        assert!(result.plan.groups.iter().all(|g| g.projection.is_some()));
    }

    /// Two copy kernels (no flops at all), the consumer reading the
    /// producer's output one plane ahead, which codegen will not fuse.
    const COPY_AHEAD: &str = r#"
__global__ void produce(const double* __restrict__ x, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = x[k][j][i]; } }
}
__global__ void consume(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz - 1; k++) { b[k][j][i] = a[k + 1][j][i]; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 16;
  double* x = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  produce<<<dim3(4, 4), dim3(16, 8)>>>(x, a, nx, ny, nz);
  consume<<<dim3(4, 4), dim3(16, 8)>>>(a, b, nx, ny, nz);
}
"#;

    #[test]
    fn a_group_codegen_refuses_is_never_lowered() {
        let space = space_for(COPY_AHEAD);
        let engine = ProjectionEngine::new(&space);
        let pair = engine.group_cost(&[0, 1]);
        assert!(!pair.fusable);
        assert_eq!(pair.time_us, f64::INFINITY);
        // Every grouping projects 0 GFLOPS here, yet the fused pair (the
        // smaller genome, which a tie would pick) must still lose.
        let result = search(&space, &SearchConfig::quick());
        assert!(result.best.fusion_groups().is_empty());
        assert_eq!(result.plan.groups.len(), 2);
    }

    #[test]
    fn fission_disabled_means_no_fission_moves() {
        let space = space_for(CHAIN4);
        let result = search(&space, &SearchConfig::quick().without_fission());
        assert_eq!(result.fissions_per_generation, 0.0);
        assert!(result.best.fissioned().is_empty());
    }

    #[test]
    fn evaluation_budget_stops_early_with_best_so_far() {
        let space = space_for(CHAIN4);
        let cfg = SearchConfig {
            max_evaluations: 50,
            stagnation_window: 0,
            ..SearchConfig::quick()
        };
        let r = search(&space, &cfg);
        assert_eq!(r.stop_reason, StopReason::BudgetExhausted);
        // population 24: initial batch + two generations overshoot the
        // budget at the next boundary check.
        assert!(r.generations_run < cfg.generations);
        assert!(r.evaluations <= 24 * 3);
        assert!(r.best.feasible(&space));
        assert!(r.best_gflops >= r.baseline_gflops * 0.999);
    }

    #[test]
    fn wall_clock_budget_stops_early() {
        let space = space_for(CHAIN4);
        let cfg = SearchConfig {
            population: 200,
            generations: 100_000,
            stagnation_window: 0,
            max_wall_ms: 5,
            ..SearchConfig::default()
        };
        let r = search(&space, &cfg);
        assert_eq!(r.stop_reason, StopReason::BudgetExhausted);
        assert!(r.generations_run < cfg.generations);
        assert!(r.best.feasible(&space));
    }

    #[test]
    fn wall_clock_budget_counts_sub_millisecond_epochs() {
        let space = space_for(CHAIN4);
        // Population 8 at four generations per epoch: in an optimized build
        // every epoch is far shorter than a millisecond, so a watchdog that
        // truncates each epoch to whole milliseconds never fires and the
        // full 100 000 generation schedule runs (a debug build's slower
        // epochs round up often enough to hide that).
        let cfg = SearchConfig {
            population: 8,
            generations: 100_000,
            migration_interval: 4,
            stagnation_window: 0,
            max_wall_ms: 5,
            ..SearchConfig::default()
        };
        let r = search_islands(&space, &cfg, &IslandOptions::default());
        assert_eq!(r.result.stop_reason, StopReason::BudgetExhausted);
        assert!(r.result.generations_run < cfg.generations);
        assert!(r.result.best.feasible(&space));
    }

    #[test]
    fn generous_budgets_do_not_misfire() {
        let space = space_for(CHAIN4);
        let cfg = SearchConfig {
            max_wall_ms: 3_600_000,
            max_evaluations: 100_000_000,
            ..SearchConfig::quick()
        };
        let r = search(&space, &cfg);
        assert_ne!(r.stop_reason, StopReason::BudgetExhausted);
    }

    #[test]
    fn stagnation_reports_plateaued() {
        let space = space_for(CHAIN4);
        let cfg = SearchConfig {
            stagnation_window: 1,
            ..SearchConfig::quick()
        };
        let r = search(&space, &cfg);
        assert_eq!(r.stop_reason, StopReason::Plateaued);
    }

    #[test]
    fn full_schedule_reports_converged() {
        let space = space_for(CHAIN4);
        let cfg = SearchConfig {
            stagnation_window: 0,
            ..SearchConfig::quick()
        };
        let r = search(&space, &cfg);
        assert_eq!(r.stop_reason, StopReason::Converged);
        assert_eq!(r.generations_run, cfg.generations);
        assert_eq!(r.poisoned_evaluations, 0);
    }

    #[test]
    fn fully_poisoned_search_completes_without_panicking() {
        let space = space_for(CHAIN4);
        // Poison every index the search reaches: every candidate scores
        // POISONED_FITNESS, yet the search must run to a normal stop.
        let opts = IslandOptions {
            faults: sf_core::FaultPlan {
                poison_evaluations: (0..20_000).collect(),
                ..sf_core::FaultPlan::default()
            },
            ..IslandOptions::default()
        };
        let r = search_islands(&space, &SearchConfig::quick(), &opts).result;
        assert!(r.poisoned_evaluations > 0);
        assert!(r.best.feasible(&space));
        assert_eq!(r.history.len(), r.generations_run);
    }

    #[test]
    fn sparse_poison_scores_each_hit_once_and_the_search_completes() {
        let space = space_for(CHAIN4);
        // A handful of poisoned indices: each hit scores POISONED_FITNESS
        // at once — a second evaluation would panic the same way — and the
        // search spends no extra evaluation on it.
        let opts = IslandOptions {
            faults: sf_core::FaultPlan {
                poison_evaluations: BTreeSet::from([1u64, 7, 13]),
                ..sf_core::FaultPlan::default()
            },
            ..IslandOptions::default()
        };
        // The full schedule either way, so both runs make the same count.
        let cfg = SearchConfig {
            stagnation_window: 0,
            ..SearchConfig::quick()
        };
        let clean = search(&space, &cfg);
        let faulty = search_islands(&space, &cfg, &opts).result;
        assert_eq!(faulty.poisoned_evaluations, 3);
        assert_eq!(faulty.evaluations, clean.evaluations);
        assert_eq!(faulty.generations_run, cfg.generations);
        assert!(faulty.best.feasible(&space));
    }
}

#[cfg(test)]
mod operator_tests {
    use super::*;
    use crate::space::tests::space_for;
    use rand::SeedableRng;

    const PAIRS: &str = r#"
__global__ void p1(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void p2(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] + 1.0; } }
}
__global__ void p3(const double* __restrict__ v, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = v[k][j][i] - 1.0; } }
}
__global__ void p4(const double* __restrict__ v, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { d[k][j][i] = v[k][j][i] * 0.5; } }
}
void host() {
  int nx = 64; int ny = 16; int nz = 8;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* v = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  p1<<<dim3(4, 2), dim3(16, 8)>>>(u, a, nx, ny, nz);
  p2<<<dim3(4, 2), dim3(16, 8)>>>(u, b, nx, ny, nz);
  p3<<<dim3(4, 2), dim3(16, 8)>>>(v, c, nx, ny, nz);
  p4<<<dim3(4, 2), dim3(16, 8)>>>(v, d, nx, ny, nz);
}
"#;

    /// [`crossover`] onto a clone of `a`.
    fn crossover_of(
        q: &mut Quotient<'_>,
        a: &Individual,
        b: &Individual,
        rng: &mut SmallRng,
    ) -> Individual {
        let (mut child, parent, donor) = (a.clone(), q.view(a), q.view(b));
        crossover(q, &mut child, &mut View::default(), &parent, &donor, rng);
        child
    }

    #[test]
    fn crossover_transplants_a_donor_group() {
        let space = space_for(PAIRS);
        let mut a = Individual::singletons(&space);
        let mut b = Individual::singletons(&space);
        assert!(b.try_merge(&space, 2, 3)); // donor group {p3, p4}
        let mut rng = SmallRng::seed_from_u64(1);
        let mut q = Quotient::new(&space);
        let child = crossover_of(&mut q, &a, &b, &mut rng);
        assert!(child.feasible(&space));
        assert_eq!(child.group(2), child.group(3));
        // Crossover must not disturb unrelated units.
        assert_ne!(child.group(0), child.group(1));
        // And it is not destructive of the recipient's own groups:
        assert!(a.try_merge(&space, 0, 1));
        let child2 = crossover_of(&mut q, &a, &b, &mut rng);
        assert_eq!(child2.group(0), child2.group(1));
        assert_eq!(child2.group(2), child2.group(3));
    }

    #[test]
    fn merge_mutation_respects_eligibility() {
        let space = space_for(PAIRS);
        let mut ind = Individual::singletons(&space);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut q = Quotient::new(&space);
        let mut view = q.view(&ind);
        for _ in 0..50 {
            mutate_merge(&mut q, &mut ind, &mut view, &mut rng);
            assert!(ind.feasible(&space));
        }
        // With 4 eligible independent units, merges must have happened.
        assert!(!ind.fusion_groups().is_empty());
    }

    #[test]
    fn split_mutation_never_leaves_infeasible_state() {
        let space = space_for(PAIRS);
        let mut ind = Individual::singletons(&space);
        assert!(ind.try_merge(&space, 0, 1));
        assert!(ind.try_merge(&space, 2, 3));
        let mut rng = SmallRng::seed_from_u64(5);
        let mut q = Quotient::new(&space);
        let mut view = q.view(&ind);
        for _ in 0..20 {
            mutate_split(&mut q, &mut ind, &mut view, &mut rng);
            assert!(ind.feasible(&space));
        }
    }
}

#[cfg(test)]
mod temporal_tests {
    use super::*;
    use crate::space::tests::space_for;

    /// A radius-1 Jacobi ping-pong pair inside an 8-iteration host time
    /// loop — the canonical temporal-blocking candidate: loop-carried anti
    /// dependences forbid spatial fusion, shadow-array folding legalizes it.
    const PINGPONG: &str = r#"
__global__ void step_ab(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) {
      b[k][j][i] = 0.2 * (a[k][j][i] + a[k][j][i+1] + a[k][j][i-1] + a[k][j+1][i] + a[k][j-1][i]);
    }
  }
}
__global__ void step_ba(const double* __restrict__ b, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 0; k < nz; k++) {
      a[k][j][i] = 0.2 * (b[k][j][i] + b[k][j][i+1] + b[k][j][i-1] + b[k][j+1][i] + b[k][j-1][i]);
    }
  }
}
void host() {
  int nx = 64; int ny = 32; int nz = 4;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  cudaMemcpyH2D(a);
  cudaMemcpyH2D(b);
  for (int t = 0; t < 8; t++) {
    step_ab<<<dim3(2, 1), dim3(32, 32)>>>(a, b, nx, ny, nz);
    step_ba<<<dim3(2, 1), dim3(32, 32)>>>(b, a, nx, ny, nz);
  }
  cudaMemcpyD2H(a);
  cudaMemcpyD2H(b);
}
"#;

    #[test]
    fn search_discovers_the_temporal_fold() {
        let space = space_for(PINGPONG);
        let config = SearchConfig {
            max_temporal: 4,
            ..SearchConfig::quick()
        };
        let result = search(&space, &config);
        // The ping-pong pair must end up in one whole-loop group with a
        // temporal degree above the identity: the folded projection saves
        // the intermediate round-trip, so the argmin picks it.
        let fused: Vec<_> = result
            .plan
            .groups
            .iter()
            .filter(|g| g.is_fusion())
            .collect();
        assert_eq!(fused.len(), 1, "groups: {:?}", result.plan.groups);
        assert_eq!(fused[0].members.len(), 2);
        assert!(
            fused[0].temporal >= 2,
            "expected a temporal degree above 1, got {}",
            fused[0].temporal
        );
        // Only ping-pong-divisible degrees are legal for the 8-iteration loop.
        assert!(8 % (2 * fused[0].temporal as u64) == 0);
        result.plan.validate(2).expect("lowered plan validates");
        assert!(result.best_gflops > result.baseline_gflops);
    }

    #[test]
    fn temporal_search_is_deterministic_per_seed() {
        let space = space_for(PINGPONG);
        let config = SearchConfig {
            max_temporal: 4,
            ..SearchConfig::quick()
        };
        let a = search(&space, &config);
        let b = search(&space, &config);
        assert_eq!(a.best, b.best);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.best_gflops, b.best_gflops);
    }

    #[test]
    fn max_temporal_one_keeps_the_pretemporal_schedule() {
        let space = space_for(PINGPONG);
        // With the temporal dimension disabled, the loop-carried hard edge
        // has no exemption: the pair can never fuse, every group stays at
        // the identity degree, and repeated runs agree exactly.
        let a = search(&space, &SearchConfig::quick());
        let b = search(&space, &SearchConfig::quick());
        assert_eq!(a.plan, b.plan);
        assert!(a.plan.groups.iter().all(|g| g.temporal == 1));
        assert!(a.best.fusion_groups().is_empty());
    }

    #[test]
    fn best_fold_prefers_folding_and_respects_geometry() {
        let mut space = space_for(PINGPONG);
        space.max_temporal = 4;
        let engine = ProjectionEngine::new(&space);
        let (fold, cost) = engine.best_fold(&[0, 1]);
        let spatial = engine.group_cost_at(&[0, 1], 1);
        assert!(fold >= 2, "folding must beat the spatial projection");
        assert!(cost.time_us < spatial.time_us);
        // A degree whose accumulated halo exceeds the block projects to
        // infinite time: per-member radius 1, two members, so degree 8
        // would need a 2×(8×2) = 32-wide halo in a 32-wide block.
        space.max_temporal = 16;
        let engine = ProjectionEngine::new(&space);
        let wide = engine.group_cost_at(&[0, 1], 8);
        assert!(wide.time_us.is_infinite());
    }
}
