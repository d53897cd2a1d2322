//! The memoized projection engine: one shared [`TimingModel`] per search
//! run plus content-addressed caches of [`GroupCost`]s.
//!
//! GGA offspring share most of their groups with their parents —
//! crossover and mutation touch only a few groups per child — so almost
//! every cost the objective asks for has been projected before (a 99.8 %
//! hit rate on the benchmark's search). A group's projected cost depends
//! only on its member units (fission state is carried by the unit ids
//! themselves: a product is a distinct unit), so the cost is cached under
//! the *sorted member set* and reused across individuals and generations.
//! Mutating a group changes its member set and therefore its key — a
//! stale cost can never be reused.
//!
//! There is one cache per island. An island's worker takes its cache's
//! lock once per epoch ([`ProjectionEngine::pricer`]) and prices every
//! group of that epoch through the [`Pricer`] it got back, so no lock is
//! taken inside a generation and each island's hit and miss counts are a
//! function of its own trajectory alone. Island 0's cache also serves the
//! driver (the baseline, plan lowering) and the engine's own convenience
//! lookups. A hit allocates nothing: the members arrive sorted, a
//! singleton is an index into a per-unit table, and a larger group is
//! looked up by the borrowed slice.

use crate::objective::{group_cost, GroupCost};
use crate::space::SearchSpace;
use sf_gpusim::timing::TimingModel;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Content-addressed cache key of one group: its member unit ids, sorted,
/// plus the temporal-blocking degree the cost was projected at.
///
/// Unit ids already encode the fission state (an original launch and each
/// of its fission products are distinct units), and the projected cost of
/// a group is a pure function of its member set and degree, so nothing
/// else belongs in the key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey(Vec<usize>, u32);

impl GroupKey {
    /// Canonical key for `members` at the identity degree (sorted copy).
    pub fn of(members: &[usize]) -> GroupKey {
        GroupKey::at(members, 1)
    }

    /// Canonical key for `members` at temporal degree `fold`.
    pub fn at(members: &[usize], fold: u32) -> GroupKey {
        let mut k = members.to_vec();
        k.sort_unstable();
        GroupKey(k, fold)
    }
}

/// What a key is hashed and compared by. Both an owned [`GroupKey`] and a
/// borrowed `(members, fold)` pair are one, so the map can be probed with
/// the caller's slice (`HashMap::get` takes any `Q` with `K: Borrow<Q>`).
trait KeyParts {
    fn parts(&self) -> (&[usize], u32);
}

impl KeyParts for GroupKey {
    fn parts(&self) -> (&[usize], u32) {
        (&self.0, self.1)
    }
}

impl KeyParts for (&[usize], u32) {
    fn parts(&self) -> (&[usize], u32) {
        *self
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for GroupKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (members, fold) = self.parts();
        for &m in members {
            state.write_u64(m as u64);
        }
        state.write_u64(u64::from(fold));
    }
}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyParts).hash(state);
    }
}

/// FNV-1a over whole words. The keys are short runs of small integers the
/// search itself produced, so neither SipHash's flooding resistance nor
/// its per-key set-up cost buys anything here.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Cache counters of one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)] // fields carry descriptive names; see the type doc
pub struct ProjectionStats {
    pub hits: u64,
    pub misses: u64,
    /// Distinct groups currently cached.
    pub entries: usize,
}

impl ProjectionStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One island's memoized group costs and its lookup counters.
#[derive(Default)]
struct CostCache {
    /// Singleton groups at the identity degree, by unit id.
    singles: Vec<Option<GroupCost>>,
    /// Every other `(members, degree)`.
    groups: HashMap<GroupKey, GroupCost, BuildHasherDefault<Fnv>>,
    hits: u64,
    misses: u64,
}

/// Shared projection state for one search run: the timing model (built once
/// from the device spec) and the per-island memoized group costs.
pub struct ProjectionEngine<'a> {
    space: &'a SearchSpace,
    model: TimingModel,
    caches: Vec<Mutex<CostCache>>,
}

impl<'a> ProjectionEngine<'a> {
    /// Build a one-island engine (constructs the run's single
    /// [`TimingModel`]).
    pub fn new(space: &'a SearchSpace) -> ProjectionEngine<'a> {
        ProjectionEngine::with_islands(space, 1)
    }

    /// Build the engine with one cost cache per island.
    pub fn with_islands(space: &'a SearchSpace, islands: usize) -> ProjectionEngine<'a> {
        let cache = || CostCache {
            singles: vec![None; space.units.len()],
            ..CostCache::default()
        };
        ProjectionEngine {
            space,
            model: TimingModel::new(space.device.clone()),
            caches: (0..islands.max(1)).map(|_| Mutex::new(cache())).collect(),
        }
    }

    /// The search space this engine projects for.
    pub fn space(&self) -> &'a SearchSpace {
        self.space
    }

    /// The shared timing model.
    pub fn model(&self) -> &TimingModel {
        &self.model
    }

    /// Lock `island`'s cost cache for a stretch of lookups — an island's
    /// whole epoch. Do not ask the engine itself for a cost or for its
    /// [`Self::stats`] while holding a pricer: those take the same locks.
    pub fn pricer(&self, island: usize) -> Pricer<'_> {
        // A worker that panics mid-epoch poisons its lock. The cache is
        // still sound — a cost is computed before it is inserted and the
        // counters are plain integers — so take it back.
        let cache = self.caches[island].lock();
        Pricer {
            engine: self,
            cache: cache.unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// [`Pricer::group_cost`] through island 0's cache.
    pub fn group_cost(&self, members: &[usize]) -> GroupCost {
        self.pricer(0).group_cost(members)
    }

    /// [`Pricer::group_cost_at`] through island 0's cache.
    pub fn group_cost_at(&self, members: &[usize], fold: u32) -> GroupCost {
        self.pricer(0).group_cost_at(members, fold)
    }

    /// [`Pricer::best_fold`] through island 0's cache.
    pub fn best_fold(&self, members: &[usize]) -> (u32, GroupCost) {
        self.pricer(0).best_fold(members)
    }

    /// Current counters: lookups summed over the islands, entries counted
    /// once however many islands cached them.
    pub fn stats(&self) -> ProjectionStats {
        let caches: Vec<_> = (0..self.caches.len()).map(|i| self.pricer(i).cache).collect();
        let singles = (0..self.space.units.len())
            .filter(|&u| caches.iter().any(|c| c.singles[u].is_some()))
            .count();
        let groups: HashSet<&GroupKey> = caches.iter().flat_map(|c| c.groups.keys()).collect();
        ProjectionStats {
            hits: caches.iter().map(|c| c.hits).sum(),
            misses: caches.iter().map(|c| c.misses).sum(),
            entries: singles + groups.len(),
        }
    }
}

/// Exclusive use of one island's cost cache (see
/// [`ProjectionEngine::pricer`]).
pub struct Pricer<'e> {
    engine: &'e ProjectionEngine<'e>,
    cache: MutexGuard<'e, CostCache>,
}

impl<'e> Pricer<'e> {
    /// The search space being priced.
    pub fn space(&self) -> &'e SearchSpace {
        self.engine.space
    }

    /// The cost of the group at its best temporal degree — the projection
    /// the fitness function sees. For ordinary groups this is the plain
    /// spatial cost; for a whole-loop temporal candidate every eligible
    /// degree is projected (memoized per degree) and the cheapest wins.
    pub fn group_cost(&mut self, members: &[usize]) -> GroupCost {
        self.best_fold(members).1
    }

    /// Memoized [`group_cost`] at one explicit temporal degree.
    pub fn group_cost_at(&mut self, members: &[usize], fold: u32) -> GroupCost {
        if !members.is_sorted() {
            // Only a caller outside the search: a genome's groups arrive
            // sorted.
            return self.group_cost_at(&GroupKey::at(members, fold).0, fold);
        }
        let (engine, cache) = (self.engine, &mut *self.cache);
        // A singleton at the identity degree lives in the per-unit table.
        let single = match (members, fold) {
            (&[unit], 1) => Some(unit),
            _ => None,
        };
        let cached = match single {
            Some(unit) => cache.singles[unit],
            None => cache.groups.get(&(members, fold) as &dyn KeyParts).copied(),
        };
        if let Some(cost) = cached {
            cache.hits += 1;
            return cost;
        }
        let cost = group_cost(engine.space, members, &engine.model, fold);
        cache.misses += 1;
        match single {
            Some(unit) => cache.singles[unit] = Some(cost),
            None => drop(cache.groups.insert(GroupKey(members.to_vec(), fold), cost)),
        }
        cost
    }

    /// Scan the identity degree plus every eligible temporal degree for
    /// this group and return the winner — deterministic argmin on projected
    /// time, ties broken toward the *smallest* degree (so the identity is
    /// never displaced without a strict improvement).
    pub fn best_fold(&mut self, members: &[usize]) -> (u32, GroupCost) {
        let space = self.engine.space;
        let mut best = (1u32, self.group_cost_at(members, 1));
        if let Some(li) = space.temporal_group(members) {
            // A candidate held together only by the temporal exemption —
            // it carries an intra-group hard edge — has no legal spatial
            // identity: at degree 1 codegen would be asked to fuse across
            // a loop-carried anti dependence and reject. Price the
            // identity as infinite so a group whose every eligible degree
            // is also illegal (geometry or shared memory) never wins.
            let hard_inside = members.iter().any(|&a| {
                members
                    .iter()
                    .any(|&b| space.edges.get(&(a, b)).is_some_and(|e| e.hard))
            });
            if hard_inside {
                best.1.time_us = f64::INFINITY;
            }
            for t in space.temporal_degrees(li) {
                let cost = self.group_cost_at(members, t);
                if cost.time_us < best.1.time_us {
                    best = (t, cost);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::tests::space_for;

    const TRIO: &str = r#"
__global__ void t1(const double* __restrict__ u, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { a[k][j][i] = u[k][j][i] * 2.0; } }
}
__global__ void t2(const double* __restrict__ u, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = u[k][j][i] + 1.0; } }
}
__global__ void t3(const double* __restrict__ u, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = u[k][j][i] - 1.0; } }
}
void host() {
  int nx = 64; int ny = 32; int nz = 16;
  double* u = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  t1<<<dim3(4, 4), dim3(16, 8)>>>(u, a, nx, ny, nz);
  t2<<<dim3(4, 4), dim3(16, 8)>>>(u, b, nx, ny, nz);
  t3<<<dim3(4, 4), dim3(16, 8)>>>(u, c, nx, ny, nz);
}
"#;

    #[test]
    fn cache_hits_repeat_lookups_and_matches_direct_costs() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::new(&space);
        let direct = group_cost(&space, &[0, 1], engine.model(), 1);
        let first = engine.group_cost(&[0, 1]);
        let second = engine.group_cost(&[0, 1]);
        assert_eq!(first, direct);
        assert_eq!(second, direct);
        let s = engine.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn key_is_order_insensitive() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::new(&space);
        let a = engine.group_cost(&[0, 1]);
        let b = engine.group_cost(&[1, 0]);
        assert_eq!(a, b);
        assert_eq!(engine.stats().entries, 1);
    }

    #[test]
    fn mutated_groups_never_reuse_stale_costs() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::new(&space);
        // Seed the cache with the fused pair.
        engine.group_cost(&[0, 1]);
        // "Mutate" the group four ways; each variant must be projected
        // fresh (a different key, hence a cache miss) and must match the
        // direct uncached computation exactly.
        for members in [vec![0], vec![1], vec![0, 2], vec![0, 1, 2]] {
            let got = engine.group_cost(&members);
            let want = group_cost(&space, &members, engine.model(), 1);
            assert_eq!(got, want, "members {members:?}");
        }
        let s = engine.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 5);
        assert_eq!(s.entries, 5);
    }

    #[test]
    fn each_island_prices_through_its_own_cache_and_entries_count_once() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::with_islands(&space, 2);
        for island in [0, 1, 1] {
            let mut pricer = engine.pricer(island);
            pricer.group_cost(&[0, 1]);
            pricer.group_cost(&[2]);
        }
        engine.pricer(1).group_cost(&[0, 2]);
        // The engine's own lookups go through island 0's cache.
        assert_eq!(engine.group_cost(&[1, 0]), engine.pricer(1).group_cost(&[0, 1]));
        let s = engine.stats();
        // Island 0 missed {0,1} and {2} once each; island 1 missed both
        // again, then {0,2}; every repeat was a hit.
        assert_eq!((s.hits, s.misses), (4, 5));
        // {0,1}, {2}, {0,2}: distinct groups, however many islands hold them.
        assert_eq!(s.entries, 3);
    }

    #[test]
    fn a_worker_that_panics_mid_epoch_leaves_its_cache_usable() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::new(&space);
        let died = sf_gpusim::isolate::isolated(|| {
            let mut pricer = engine.pricer(0);
            pricer.group_cost(&[0, 1]);
            panic!("island fault");
        });
        assert!(died.is_err());
        // The lock is poisoned; the cost it guarded is still there.
        engine.group_cost(&[0, 1]);
        let s = engine.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn hit_rate_reflects_traffic() {
        let space = space_for(TRIO);
        let engine = ProjectionEngine::new(&space);
        assert_eq!(engine.stats().hit_rate(), 0.0);
        engine.group_cost(&[0]);
        for _ in 0..9 {
            engine.group_cost(&[0]);
        }
        let s = engine.stats();
        assert!((s.hit_rate() - 0.9).abs() < 1e-12, "{s:?}");
    }
}
