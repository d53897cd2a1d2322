//! The greedy fusion seeds: steepest-ascent passes over the pairs of
//! groups that share an array, run before the first generation. Their
//! champions join island 0's initial population as elites, in the slot
//! `--port-plan` seeds use, so the GGA only has to improve on them.
//!
//! Candidates are the paper's simple and complex fusion opportunities: two
//! groups are related when some member of each names the same array in
//! its operations metadata (`Unit::ops.bytes_per_array`, read or written).
//! A pass starts from a genome of singletons, and each round merges the
//! related pair whose merge gives the best whole-program fitness — the
//! exact penalized objective of [`objective::fitness_with`], not just time.
//! It stops when no candidate beats the current fitness by more than a
//! factor `1 + 1e-12`. A run climbs from the originals, and — when it may
//! fission and the program is fission-driven (fissioning every fissionable
//! original projects better than the original program) — once more from
//! that fissioned program ([`greedy_seeds`]): a fission whose products pay
//! off only once they fuse elsewhere is two moves, and no single merge or
//! fission is worth taking first.
//!
//! Pricing is incremental. Every live group's [`Terms`] and every
//! candidate pair's union terms are cached; a candidate's fitness is the
//! running totals with its two groups swapped for their union — O(1)
//! arithmetic, no pricer call. A merge re-prices only the pairs of the
//! merged group, and every union goes through island 0's [`Pricer`], so
//! the GA starts with a warm cache. The table holds the related pairs
//! only, never an n × n matrix.
//!
//! Feasibility is the GGA's own local merge rule ([`Quotient::try_merge_in`]
//! on a carried [`View`], eligibility included), asked only of the pair a
//! round picks. A refused pair leaves the table until one of its two
//! groups changes: a merge elsewhere only contracts the quotient, so it
//! cannot make the pair feasible again.
//!
//! Ties go to the first maximal pair in (smallest unit of one group,
//! smallest unit of the other) order, where "maximal" is within the same
//! factor `1 + 1e-12` of the round's best — so rounding in the running
//! totals never decides a tie, and a seed is a pure function of the space,
//! the penalty weights and its start.

use crate::genome::{Individual, Quotient, View};
use crate::objective::{self, group_terms, Terms};
use crate::params::SearchConfig;
use crate::projection::Pricer;
use std::collections::{BTreeMap, BTreeSet};

/// A merge must beat the current fitness by more than this factor, and a
/// candidate within it of a round's best ties with it.
pub const TIE: f64 = 1e-12;

/// What the greedy pass built.
#[derive(Debug, Clone, PartialEq)]
pub struct Greedy {
    /// The seed genome: its start, merged by the pass.
    pub individual: Individual,
    /// Its penalized fitness ([`objective::fitness_with`]).
    pub gflops: f64,
    /// Its projected end-to-end runtime, µs, ignoring penalties.
    pub time_us: f64,
    /// The merges in order, each as the smallest units `(a, b)` of its two
    /// groups (`b`'s joins `a`'s id).
    pub merges: Vec<(usize, usize)>,
    /// Unions priced: one per related pair the table ever held.
    pub unions_priced: usize,
}

/// Running totals of a grouping's [`Terms`]: flops, finite time, how many
/// groups project to infinite time, and the product of the factors.
#[derive(Debug, Clone, Copy)]
struct Totals {
    flops: f64,
    time_us: f64,
    infinite: usize,
    scale: f64,
}

impl Totals {
    fn add(&mut self, terms: &Terms) {
        self.flops += terms.flops;
        if terms.time_us.is_finite() {
            self.time_us += terms.time_us;
        } else {
            self.infinite += 1;
        }
        self.scale *= terms.smem;
    }

    /// These totals with the groups priced `a` and `b` replaced by their
    /// union, priced `ab`.
    fn merged(mut self, a: &Terms, b: &Terms, ab: &Terms) -> Totals {
        for part in [a, b] {
            self.flops -= part.flops;
            if part.time_us.is_finite() {
                self.time_us -= part.time_us;
            } else {
                self.infinite -= 1;
            }
            self.scale /= part.smem;
        }
        self.add(ab);
        self
    }

    /// [`objective::fitness_with`] of the grouping these total.
    fn gflops(&self) -> f64 {
        if self.infinite > 0 {
            return 0.0;
        }
        objective::gflops(self.flops, self.time_us, self.scale)
    }
}

/// The ordered key of the pair of groups whose smallest units are `a`, `b`.
fn key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

/// A run's greedy seeds: the climb from the originals and, when the run
/// may fission (`config.p_fission > 0`) and the program is fission-driven —
/// replacing every fissionable original by its products projects better
/// than the original program — the climb from that fissioned program.
pub fn greedy_seeds(
    pricer: &mut Pricer<'_>,
    q: &mut Quotient<'_>,
    config: &SearchConfig,
) -> Vec<Greedy> {
    let space = pricer.space();
    let originals = Individual::singletons(space);
    let mut fissioned = originals.clone();
    for unit in space.units.iter().filter(|u| u.eligible && u.fissionable()) {
        fissioned.fission(space, unit.id);
    }
    let mut fitness =
        |ind: &Individual| objective::fitness_with(pricer, &q.view(ind).groups, config);
    let fission_driven = config.p_fission > 0.0
        && fissioned != originals
        && fitness(&fissioned) > fitness(&originals);
    let mut seeds = vec![greedy(pricer, q, config, originals)];
    if fission_driven {
        seeds.push(greedy(pricer, q, config, fissioned));
    }
    seeds
}

/// Climb from `start`, a genome of singletons (see the module docs). Any
/// such genome is feasible: precedence edges run forward in host order, and
/// a fission family shares its parent's position.
pub fn greedy(
    pricer: &mut Pricer<'_>,
    q: &mut Quotient<'_>,
    config: &SearchConfig,
    start: Individual,
) -> Greedy {
    let space = pricer.space();
    let mut ind = start;
    let mut view = q.view(&ind);
    let eligible: Vec<usize> = ind
        .pairs()
        .map(|(u, _)| u)
        .filter(|&u| space.units[u].eligible)
        .collect();

    // Per group, by its smallest unit: its terms and the groups it shares
    // an array with.
    let mut terms: Vec<Option<Terms>> = vec![None; space.units.len()];
    let mut related: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); space.units.len()];
    let mut totals = Totals {
        flops: 0.0,
        time_us: 0.0,
        infinite: 0,
        scale: 1.0,
    };
    for k in 0..view.groups.len() {
        let members = view.groups.members(k);
        debug_assert_eq!(members.len(), 1, "the climb starts from singletons");
        let t = group_terms(pricer, members, config);
        totals.add(&t);
        terms[members[0]] = Some(t);
    }
    let mut users: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &u in &eligible {
        for array in space.units[u].ops.bytes_per_array.keys() {
            users.entry(array).or_default().push(u);
        }
    }
    for units in users.values() {
        for (i, &a) in units.iter().enumerate() {
            for &b in &units[i + 1..] {
                related[a].insert(b);
                related[b].insert(a);
            }
        }
    }

    // The candidate table: every related pair not refused since its last
    // change, with its union's terms.
    let mut pairs: BTreeMap<(usize, usize), Terms> = BTreeMap::new();
    let mut union = Vec::new();
    let mut unions_priced = 0;
    let mut price = |pricer: &mut Pricer<'_>, view: &View, a: usize, b: usize| {
        let groups = &view.groups;
        let of = |u: usize| groups.members(groups.index_of(u).expect("live groups are active"));
        union.clear();
        union.extend_from_slice(of(a));
        union.extend_from_slice(of(b));
        union.sort_unstable();
        unions_priced += 1;
        group_terms(pricer, &union, config)
    };
    for &a in &eligible {
        for &b in related[a].range(a + 1..) {
            pairs.insert((a, b), price(pricer, &view, a, b));
        }
    }

    let mut merges = Vec::new();
    let mut ranked: Vec<(f64, (usize, usize))> = Vec::new();
    let live = |terms: &[Option<Terms>], u: usize| terms[u].expect("a live group has terms");
    while let Some((a, b)) = {
        ranked.clear();
        ranked.extend(pairs.iter().map(|(&(a, b), ab)| {
            let merged = totals.merged(&live(&terms, a), &live(&terms, b), ab);
            (merged.gflops(), (a, b))
        }));
        pick(&mut ranked, totals.gflops(), |(a, b)| {
            let merged = q.try_merge_in(&mut ind, &mut view, a, b);
            if !merged {
                pairs.remove(&(a, b));
            }
            merged
        })
    } {
        // `b`'s group joined `a`'s, whose smallest unit `a` still is.
        let union = pairs
            .remove(&(a, b))
            .expect("the picked pair is a candidate");
        totals = totals.merged(&live(&terms, a), &live(&terms, b), &union);
        terms[a] = Some(union);
        terms[b] = None;
        merges.push((a, b));
        let mut neighbours = std::mem::take(&mut related[a]);
        neighbours.append(&mut related[b]);
        neighbours.remove(&a);
        neighbours.remove(&b);
        for &c in &neighbours {
            pairs.remove(&key(a, c));
            pairs.remove(&key(b, c));
            related[c].remove(&b);
            related[c].insert(a);
        }
        for &c in &neighbours {
            pairs.insert(key(a, c), price(pricer, &view, a, c));
        }
        related[a] = neighbours;
    }

    let gflops = objective::fitness_with(pricer, &view.groups, config);
    let time_us = objective::projected_time_us_with(pricer, &view.groups);
    Greedy {
        individual: ind,
        gflops,
        time_us,
        merges,
        unions_priced,
    }
}

/// One round's pick from `ranked` (candidates with their fitness after the
/// merge, in key order): the first key within [`TIE`] of the best, if the
/// best beats `current` by more than [`TIE`] and `merge` takes it; a pick
/// `merge` refuses leaves, and the next best is asked. `None` when no
/// candidate is left to beat `current`.
fn pick(
    ranked: &mut Vec<(f64, (usize, usize))>,
    current: f64,
    mut merge: impl FnMut((usize, usize)) -> bool,
) -> Option<(usize, usize)> {
    // Best first; the sort is stable, so equal fitness stays in key order.
    ranked.sort_by(|x, y| y.0.total_cmp(&x.0));
    loop {
        let &(best, _) = ranked.first()?;
        if best <= current * (1.0 + TIE) {
            return None;
        }
        let tied = ranked
            .iter()
            .take_while(|(f, _)| f * (1.0 + TIE) >= best)
            .count();
        let at = (0..tied)
            .min_by_key(|&i| ranked[i].1)
            .expect("the best ties itself");
        let (_, candidate) = ranked.remove(at);
        if merge(candidate) {
            return Some(candidate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::ProjectionEngine;
    use crate::space::tests::space_for;

    /// Two readers of `u`, each feeding a consumer of its own output.
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

    fn run(space: &crate::space::SearchSpace) -> Greedy {
        let engine = ProjectionEngine::new(space);
        let mut q = Quotient::new(space);
        let mut pricer = engine.pricer(0);
        greedy(
            &mut pricer,
            &mut q,
            &SearchConfig::default(),
            Individual::singletons(space),
        )
    }

    #[test]
    fn the_seed_fuses_related_kernels_and_beats_the_baseline() {
        let space = space_for(CHAIN4);
        let seed = run(&space);
        assert!(!seed.merges.is_empty(), "{seed:?}");
        assert!(seed.individual.feasible(&space));
        let engine = ProjectionEngine::new(&space);
        let mut pricer = engine.pricer(0);
        let mut q = Quotient::new(&space);
        let singles = q.view(&Individual::singletons(&space));
        let baseline =
            objective::fitness_with(&mut pricer, &singles.groups, &SearchConfig::default());
        assert!(seed.gflops > baseline, "{} vs {baseline}", seed.gflops);
        assert_eq!(seed, run(&space), "the seed is a function of the space");
    }

    #[test]
    fn a_fission_driven_program_gets_a_fissioned_seed_when_the_run_may_fission() {
        let space = space_for(crate::objective::fission_benefit_tests::FAT);
        let engine = ProjectionEngine::new(&space);
        let mut q = Quotient::new(&space);
        let mut seeds = |config: SearchConfig| greedy_seeds(&mut engine.pricer(0), &mut q, &config);
        let fissioned: Vec<Vec<usize>> = seeds(SearchConfig::default())
            .iter()
            .map(|s| s.individual.fissioned().to_vec())
            .collect();
        assert_eq!(fissioned, [vec![], vec![0]]);
        assert_eq!(
            seeds(SearchConfig::default().without_fission()).len(),
            1,
            "a fusion-only run climbs from the originals alone"
        );
        let plain = space_for(CHAIN4);
        let engine = ProjectionEngine::new(&plain);
        let mut q = Quotient::new(&plain);
        let seeds = greedy_seeds(&mut engine.pricer(0), &mut q, &SearchConfig::default());
        assert_eq!(seeds.len(), 1, "nothing to fission");
    }

    #[test]
    fn ineligible_units_stay_singletons() {
        let mut space = space_for(CHAIN4);
        for unit in &mut space.units {
            unit.eligible = false;
        }
        let seed = run(&space);
        assert_eq!(seed.individual, Individual::singletons(&space));
        assert_eq!((seed.merges.len(), seed.unions_priced), (0, 0));
    }

    #[test]
    fn ties_go_to_the_first_key_within_the_tie_factor_and_refusals_leave() {
        let mut ranked = vec![(2.0, (0, 3)), (3.0, (1, 2)), (3.0 * (1.0 - 1e-13), (0, 5))];
        let mut asked = Vec::new();
        let got = pick(&mut ranked, 1.0, |key| {
            asked.push(key);
            key != (0, 5)
        });
        assert_eq!(got, Some((1, 2)));
        assert_eq!(asked, [(0, 5), (1, 2)]);
        let mut flat = vec![(1.0 + 1e-13, (0, 1))];
        assert_eq!(pick(&mut flat, 1.0, |_| true), None, "no strict gain");
    }
}
