//! The grouping genome and its feasibility rules.
//!
//! An individual is (a) the set of originals currently replaced by their
//! fission products, and (b) a partition of the active units into groups.
//! Groups are the genes of a grouped GA: operators act on whole groups.
//!
//! The encoding is flat — a group id per unit id in one dense vector — so
//! cloning a genome is a `memcpy` and a lookup is an index. Everything an
//! operator or the objective asks *about* a genome (its groups and their
//! members, whether the quotient graph is acyclic, its execution order)
//! is answered by a [`Quotient`]: buffers an island allocates once and
//! refills per genome, so the search's inner loop does not allocate.
//!
//! # Invariants that pin a seeded trajectory
//!
//! Plans, checkpoints and goldens are reproducible only because every
//! consumer sees a genome the same way. These must survive any change to
//! the encoding:
//!
//! - groups are visited in **ascending group id**, members in **ascending
//!   unit id** ([`Groups`]); the objective's `f64` sums and every
//!   operator's candidate lists are built in that order;
//! - [`Individual::fresh_group_id`] is `max + 1` over the ids in use *at
//!   the moment of the call* — [`Individual::fission`] asks after it has
//!   removed the parent;
//! - `Ord` is lexicographic over the ascending fission set, then over the
//!   ascending `(unit, group)` pairs of the **active** units, a shorter
//!   sequence first (the dense vector itself does not order this way);
//! - the serialized form is `{"fissioned":[…],"group_of":[[unit,gid],…]}`
//!   and `Debug` prints `Individual { fissioned: {…}, group_of: {0: 0} }`:
//!   checkpoints carry the former, the run fingerprint the latter;
//! - a topological order breaks ties toward the group holding the
//!   smallest unit id.

use crate::space::SearchSpace;
use serde::{Content, DeError, Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// The group id of a unit that is not active.
const INACTIVE: usize = usize::MAX;

/// Largest unit id a serialized genome may name. The dense vector is sized
/// by the largest active unit, so a checkpoint must not get to choose an
/// allocation; real spaces are three orders of magnitude below this.
const MAX_UNIT: usize = 1 << 20;

/// One candidate solution.
///
/// Totally ordered (see the module docs) so island merges and migrant
/// selection can break fitness ties deterministically, and serializable so
/// checkpoints can snapshot whole populations.
#[derive(Clone, PartialEq, Eq)]
pub struct Individual {
    /// Original unit ids replaced by their products, ascending.
    fissioned: Vec<usize>,
    /// Group id per unit id, [`INACTIVE`] for units that are not active.
    /// Never ends in an inactive entry, so equal genomes are equal vectors.
    group_of: Vec<usize>,
}

impl Individual {
    /// The all-singletons individual over the original units.
    pub fn singletons(space: &SearchSpace) -> Individual {
        let originals = space.units.iter().filter(|u| u.parent.is_none());
        Individual::from_parts([], originals.map(|u| (u.id, u.id)))
    }

    /// The individual with this fission set and these `(unit, group)`
    /// assignments (a later assignment of the same unit wins).
    pub fn from_parts(
        fissioned: impl IntoIterator<Item = usize>,
        group_of: impl IntoIterator<Item = (usize, usize)>,
    ) -> Individual {
        let mut fissioned: Vec<usize> = fissioned.into_iter().collect();
        fissioned.sort_unstable();
        fissioned.dedup();
        let mut ind = Individual {
            fissioned,
            group_of: Vec::new(),
        };
        for (unit, gid) in group_of {
            ind.set_group(unit, gid);
        }
        ind
    }

    /// Original unit ids currently replaced by their products, ascending.
    pub fn fissioned(&self) -> &[usize] {
        &self.fissioned
    }

    /// The group of `unit`, `None` when the unit is not active.
    pub fn group(&self, unit: usize) -> Option<usize> {
        self.group_of.get(unit).copied().filter(|&g| g != INACTIVE)
    }

    /// Put `unit` into group `gid`, activating it if need be.
    pub fn set_group(&mut self, unit: usize, gid: usize) {
        assert_ne!(gid, INACTIVE, "group id reserved for inactive units");
        if unit >= self.group_of.len() {
            self.group_of.resize(unit + 1, INACTIVE);
        }
        self.group_of[unit] = gid;
    }

    fn deactivate(&mut self, unit: usize) {
        if let Some(slot) = self.group_of.get_mut(unit) {
            *slot = INACTIVE;
        }
        while self.group_of.last() == Some(&INACTIVE) {
            self.group_of.pop();
        }
    }

    /// The `(unit, group)` pairs of the active units, ascending by unit.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let all = self.group_of.iter().copied().enumerate();
        all.filter(|&(_, g)| g != INACTIVE)
    }

    /// Active unit ids (originals not fissioned + products of fissioned).
    pub fn active_units(&self) -> Vec<usize> {
        self.pairs().map(|(u, _)| u).collect()
    }

    /// `(group id, members)` per group, ascending — for reports and tests;
    /// the search reads groups through a [`Quotient`].
    pub fn groups(&self) -> Vec<(usize, Vec<usize>)> {
        let mut groups = Groups::default();
        groups.regroup(self);
        (0..groups.len())
            .map(|k| (groups.gid(k), groups.members(k).to_vec()))
            .collect()
    }

    /// Groups with at least two members.
    pub fn fusion_groups(&self) -> Vec<Vec<usize>> {
        let groups = self.groups().into_iter().map(|(_, members)| members);
        groups.filter(|m| m.len() > 1).collect()
    }

    /// A fresh group id not currently in use: one past the largest.
    pub fn fresh_group_id(&self) -> usize {
        self.pairs().map(|(_, g)| g).max().map_or(0, |m| m + 1)
    }

    /// Replace an original unit by its fission products (each initially a
    /// singleton). No-op if the unit has no products or is already split.
    pub fn fission(&mut self, space: &SearchSpace, unit: usize) {
        let products = &space.units[unit].products;
        let Err(at) = self.fissioned.binary_search(&unit) else {
            return;
        };
        if products.is_empty() {
            return;
        }
        self.deactivate(unit);
        self.fissioned.insert(at, unit);
        let base = self.fresh_group_id();
        for (g, &p) in (base..).zip(products) {
            self.set_group(p, g);
        }
    }

    /// Put a fissioned original back, removing its products.
    pub fn defission(&mut self, space: &SearchSpace, unit: usize) {
        let Ok(at) = self.fissioned.binary_search(&unit) else {
            return;
        };
        self.fissioned.remove(at);
        for &p in &space.units[unit].products {
            self.deactivate(p);
        }
        let g = self.fresh_group_id();
        self.set_group(unit, g);
    }

    /// [`Quotient::feasible`] over a throw-away quotient.
    pub fn feasible(&self, space: &SearchSpace) -> bool {
        Quotient::new(space).feasible(self)
    }

    /// Topological order of the group ids (ties toward the group holding
    /// the smallest unit id); `None` when the quotient has a cycle.
    pub fn topo_order(&self, space: &SearchSpace) -> Option<Vec<usize>> {
        let mut q = Quotient::new(space);
        let order = q.topo_order(self)?;
        Some(order.into_iter().map(|k| q.groups.gid(k)).collect())
    }

    /// [`Quotient::try_merge`] over a throw-away quotient.
    pub fn try_merge(&mut self, space: &SearchSpace, a: usize, b: usize) -> bool {
        Quotient::new(space).try_merge(self, a, b)
    }
}

impl Ord for Individual {
    fn cmp(&self, other: &Individual) -> Ordering {
        let fissions = self.fissioned.cmp(&other.fissioned);
        fissions.then_with(|| self.pairs().cmp(other.pairs()))
    }
}

impl PartialOrd for Individual {
    fn partial_cmp(&self, other: &Individual) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Prints as a set and a map — `run_fingerprint` formats seed genomes with
/// `{:?}`, so this text binds every seeded checkpoint to its run.
impl fmt::Debug for Individual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let set = fmt::from_fn(|f| f.debug_set().entries(&self.fissioned).finish());
        let map = fmt::from_fn(|f| f.debug_map().entries(self.pairs()).finish());
        f.debug_struct("Individual")
            .field("fissioned", &set)
            .field("group_of", &map)
            .finish()
    }
}

impl Serialize for Individual {
    fn serialize(&self) -> Content {
        let pairs = self.pairs().map(|(u, g)| (u.serialize(), g.serialize()));
        Content::Map(vec![
            (Content::Str("fissioned".into()), self.fissioned.serialize()),
            (Content::Str("group_of".into()), Content::Map(pairs.collect())),
        ])
    }
}

impl Deserialize for Individual {
    fn deserialize(content: &Content) -> Result<Individual, DeError> {
        let fissioned = Vec::<usize>::deserialize(content.field("Individual", "fissioned")?)?;
        let pairs: Vec<(usize, usize)> = match content.field("Individual", "group_of")? {
            Content::Map(entries) => entries
                .iter()
                .map(|(u, g)| Ok((usize::deserialize(u)?, usize::deserialize(g)?)))
                .collect::<Result<_, DeError>>()?,
            // JSON has no integer keys: the map travels as `[unit, gid]` pairs.
            pairs => Vec::deserialize(pairs)?,
        };
        if let Some((u, g)) = pairs.iter().find(|&&(u, g)| u > MAX_UNIT || g == INACTIVE) {
            return Err(DeError::custom(format!(
                "genome assignment [{u}, {g}] is out of range"
            )));
        }
        Ok(Individual::from_parts(fissioned, pairs))
    }
}

/// The groups of one genome as sorted `(group id, unit)` runs: groups in
/// ascending id, members in ascending unit id — the one order every
/// consumer of a genome visits it in. Refilled in place per genome.
#[derive(Debug, Default)]
pub struct Groups {
    /// Scratch: the genome's `(gid, unit)` pairs, sorted.
    runs: Vec<(usize, usize)>,
    /// Group id per group.
    gids: Vec<usize>,
    /// Group `k`'s members are `members[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    members: Vec<usize>,
    /// Group index per unit id ([`INACTIVE`] for inactive units).
    index_of: Vec<usize>,
}

impl Groups {
    /// Refill from `ind`.
    pub fn regroup(&mut self, ind: &Individual) {
        self.runs.clear();
        self.runs.extend(ind.pairs().map(|(u, g)| (g, u)));
        self.runs.sort_unstable();
        self.gids.clear();
        self.starts.clear();
        self.members.clear();
        self.index_of.clear();
        self.index_of.resize(ind.group_of.len(), INACTIVE);
        for (at, &(gid, unit)) in self.runs.iter().enumerate() {
            if self.gids.last() != Some(&gid) {
                self.gids.push(gid);
                self.starts.push(at);
            }
            self.index_of[unit] = self.gids.len() - 1;
            self.members.push(unit);
        }
        self.starts.push(self.runs.len());
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.gids.len()
    }

    /// True for the empty genome.
    pub fn is_empty(&self) -> bool {
        self.gids.is_empty()
    }

    /// Group id of group `k` (groups are indexed in ascending id).
    pub fn gid(&self, k: usize) -> usize {
        self.gids[k]
    }

    /// Members of group `k`, ascending.
    pub fn members(&self, k: usize) -> &[usize] {
        &self.members[self.starts[k]..self.starts[k + 1]]
    }

    /// Index of the group holding `unit`, `None` when it is not active.
    pub fn index_of(&self, unit: usize) -> Option<usize> {
        self.index_of.get(unit).copied().filter(|&k| k != INACTIVE)
    }

    /// Indices of the groups with at least two members, ascending.
    pub fn fusions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&k| self.members(k).len() > 1)
    }
}

/// The quotient of the precedence graph under a genome's grouping, built
/// over buffers that are allocated once (per island, per epoch) and
/// refilled per genome: the [`Groups`], one `u64` bitset row of successors
/// per group, in-degrees and a ready list. One construction answers both
/// questions the search asks of it — is it acyclic ([`Self::feasible`]),
/// and in which order do the groups execute ([`Self::topo_order`]).
#[derive(Debug)]
pub struct Quotient<'a> {
    space: &'a SearchSpace,
    /// `space.edges` as `(from, to, hard)`, flattened once.
    edges: Vec<(usize, usize, bool)>,
    /// Refilled by every method below; an operator that wants a genome's
    /// groups calls `groups.regroup` itself.
    pub groups: Groups,
    /// Row `k` (of `groups.len().div_ceil(64)` words): bit `s` set when
    /// some edge leads from group `k` to group `s`.
    adjacency: Vec<u64>,
    in_degree: Vec<usize>,
    ready: Vec<usize>,
    /// Per group: may it carry a hard edge (a whole-loop temporal
    /// candidate)? Decided at most once per feasibility check.
    exempt: Vec<Option<bool>>,
    /// The units [`Self::try_merge`] moved, for its revert.
    moved: Vec<usize>,
    /// Scratch for the GGA operators' candidate lists.
    pub(crate) picks: Vec<usize>,
}

impl<'a> Quotient<'a> {
    /// Empty buffers over `space`.
    pub fn new(space: &'a SearchSpace) -> Quotient<'a> {
        Quotient {
            space,
            edges: space.edges.iter().map(|(&(a, b), e)| (a, b, e.hard)).collect(),
            groups: Groups::default(),
            adjacency: Vec::new(),
            in_degree: Vec::new(),
            ready: Vec::new(),
            exempt: Vec::new(),
            moved: Vec::new(),
            picks: Vec::new(),
        }
    }

    /// The space this quotient is taken over.
    pub fn space(&self) -> &'a SearchSpace {
        self.space
    }

    /// OEG feasibility: no hard edge inside a group, and the quotient of
    /// the precedence subgraph over active units is acyclic.
    ///
    /// Exception: a group that exactly covers one recorded host time loop
    /// (a temporal-fold candidate, see [`SearchSpace::temporal_group`])
    /// may carry intra-group hard edges — the loop-carried anti
    /// dependences of a ping-pong chain are exactly what temporal folding
    /// legalizes with shadow arrays. With the temporal dimension disabled
    /// (`max_temporal == 1`) no exemption applies.
    pub fn feasible(&mut self, ind: &Individual) -> bool {
        self.groups.regroup(ind);
        self.exempt.clear();
        self.exempt.resize(self.groups.len(), None);
        for &(a, b, hard) in &self.edges {
            if !hard {
                continue;
            }
            let Some(k) = self.groups.index_of(a) else {
                continue;
            };
            if self.groups.index_of(b) != Some(k) {
                continue;
            }
            let (space, groups) = (self.space, &self.groups);
            let exempt = *self.exempt[k]
                .get_or_insert_with(|| space.temporal_group(groups.members(k)).is_some());
            if !exempt {
                return false;
            }
        }
        self.link();
        self.kahn(false, |_| {})
    }

    /// Group indices (into [`Self::groups`]) in execution order: Kahn's
    /// algorithm, ties toward the group holding the smallest unit id;
    /// `None` when the quotient has a cycle.
    pub fn topo_order(&mut self, ind: &Individual) -> Option<Vec<usize>> {
        self.groups.regroup(ind);
        self.link();
        let mut order = Vec::with_capacity(self.groups.len());
        self.kahn(true, |k| order.push(k)).then_some(order)
    }

    /// The one quotient construction: adjacency rows and in-degrees of the
    /// current [`Self::groups`].
    fn link(&mut self) {
        let m = self.groups.len();
        let words = m.div_ceil(64);
        self.adjacency.clear();
        self.adjacency.resize(m * words, 0);
        self.in_degree.clear();
        self.in_degree.resize(m, 0);
        for &(a, b, _) in &self.edges {
            let (Some(from), Some(to)) = (self.groups.index_of(a), self.groups.index_of(b)) else {
                continue;
            };
            if from == to {
                continue;
            }
            let word = &mut self.adjacency[from * words + to / 64];
            if *word & (1 << (to % 64)) == 0 {
                *word |= 1 << (to % 64);
                self.in_degree[to] += 1;
            }
        }
    }

    /// Kahn's algorithm over the linked quotient (consumes the in-degrees):
    /// `visit` every group reachable in dependence order, true when that
    /// was all of them. `ordered` takes the ready group with the smallest
    /// first member each step; otherwise the most recently readied one.
    fn kahn(&mut self, ordered: bool, mut visit: impl FnMut(usize)) -> bool {
        let groups = &self.groups;
        let words = groups.len().div_ceil(64);
        self.ready.clear();
        self.ready
            .extend((0..groups.len()).filter(|&k| self.in_degree[k] == 0));
        let mut visited = 0;
        while !self.ready.is_empty() {
            let at = if ordered {
                let first_member = |&at: &usize| groups.members(self.ready[at])[0];
                let first = (0..self.ready.len()).min_by_key(first_member);
                first.expect("ready is non-empty")
            } else {
                self.ready.len() - 1
            };
            let k = self.ready.swap_remove(at);
            visit(k);
            visited += 1;
            for w in 0..words {
                let mut successors = self.adjacency[k * words + w];
                while successors != 0 {
                    let s = w * 64 + successors.trailing_zeros() as usize;
                    successors &= successors - 1;
                    self.in_degree[s] -= 1;
                    if self.in_degree[s] == 0 {
                        self.ready.push(s);
                    }
                }
            }
        }
        visited == groups.len()
    }

    /// Try to merge the groups of units `a` and `b`; reverts and returns
    /// false if the result is infeasible.
    pub fn try_merge(&mut self, ind: &mut Individual, a: usize, b: usize) -> bool {
        let (Some(ga), Some(gb)) = (ind.group(a), ind.group(b)) else {
            return false;
        };
        if ga == gb {
            return false;
        }
        // Ineligible units stay singletons.
        let space = self.space;
        let merging = |&(_, g): &(usize, usize)| g == ga || g == gb;
        if ind.pairs().filter(merging).any(|(u, _)| !space.units[u].eligible) {
            return false;
        }
        self.moved.clear();
        let from_b = ind.pairs().filter(|&(_, g)| g == gb);
        self.moved.extend(from_b.map(|(u, _)| u));
        for &u in &self.moved {
            ind.set_group(u, ga);
        }
        let feasible = self.feasible(ind);
        if !feasible {
            for &u in &self.moved {
                ind.set_group(u, gb);
            }
        }
        feasible
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::tests::space_for;

    const CHAIN: &str = r#"
__global__ void k1(const double* __restrict__ a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { b[k][j][i] = a[k][j][i] + 1.0; } }
}
__global__ void k2(const double* __restrict__ b, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { c[k][j][i] = b[k][j][i] * 2.0; } }
}
__global__ void k3(const double* __restrict__ c, double* d, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) { for (int k = 0; k < nz; k++) { d[k][j][i] = c[k][j][i] - 3.0; } }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  double* d = cudaAlloc3D(nz, ny, nx);
  k1<<<dim3(2, 2), dim3(16, 8)>>>(a, b, nx, ny, nz);
  k2<<<dim3(2, 2), dim3(16, 8)>>>(b, c, nx, ny, nz);
  k3<<<dim3(2, 2), dim3(16, 8)>>>(c, d, nx, ny, nz);
}
"#;

    #[test]
    fn singletons_are_feasible() {
        let space = space_for(CHAIN);
        let ind = Individual::singletons(&space);
        assert!(ind.feasible(&space));
        assert_eq!(ind.active_units().len(), 3);
    }

    #[test]
    fn skip_fusion_creates_quotient_cycle() {
        let space = space_for(CHAIN);
        let mut ind = Individual::singletons(&space);
        // Grouping k1 with k3 while k2 stays outside: infeasible.
        assert!(!ind.try_merge(&space, 0, 2));
        // State reverted.
        assert!(ind.feasible(&space));
        assert_eq!(ind.fusion_groups().len(), 0);
        // Chain fusion k1+k2 then +k3 is fine.
        assert!(ind.try_merge(&space, 0, 1));
        assert!(ind.try_merge(&space, 0, 2));
        assert_eq!(ind.fusion_groups().len(), 1);
    }

    #[test]
    fn topo_order_follows_flow() {
        let space = space_for(CHAIN);
        let mut ind = Individual::singletons(&space);
        assert!(ind.try_merge(&space, 1, 2));
        let order = ind.topo_order(&space).unwrap();
        // k1's group before the {k2,k3} group.
        let g1 = ind.group(0).unwrap();
        let g23 = ind.group(1).unwrap();
        let p1 = order.iter().position(|&g| g == g1).unwrap();
        let p23 = order.iter().position(|&g| g == g23).unwrap();
        assert!(p1 < p23);
    }

    #[test]
    fn fission_and_defission_round_trip() {
        let space = space_for(
            r#"
__global__ void pair(const double* __restrict__ x, const double* __restrict__ y,
                     double* a, double* b, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      a[k][j][i] = x[k][j][i] * 2.0;
      b[k][j][i] = y[k][j][i] + 1.0;
    }
  }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* x = cudaAlloc3D(nz, ny, nx);
  double* y = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  pair<<<dim3(2, 2), dim3(16, 8)>>>(x, y, a, b, nx, ny, nz);
}
"#,
        );
        let mut ind = Individual::singletons(&space);
        let before = ind.clone();
        ind.fission(&space, 0);
        assert_eq!(ind.group(0), None);
        assert_eq!(ind.active_units().len(), 2);
        assert!(ind.feasible(&space));
        ind.defission(&space, 0);
        assert_eq!(ind.active_units(), before.active_units());
    }
}

/// The genome as it was before the flat encoding — a `BTreeSet` of
/// fissions, a `BTreeMap` of groups, a `groups()` map per question and
/// Kahn's algorithm over `BTreeSet`s — kept verbatim as the model the flat
/// one is checked against.
#[cfg(test)]
mod model {
    use crate::space::SearchSpace;
    use serde::{Deserialize, Serialize};
    use std::collections::{BTreeMap, BTreeSet};

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
    pub struct Individual {
        pub fissioned: BTreeSet<usize>,
        pub group_of: BTreeMap<usize, usize>,
    }

    impl Individual {
        pub fn singletons(space: &SearchSpace) -> Individual {
            let originals = space.units.iter().filter(|u| u.parent.is_none());
            Individual {
                fissioned: BTreeSet::new(),
                group_of: originals.map(|u| (u.id, u.id)).collect(),
            }
        }

        pub fn groups(&self) -> BTreeMap<usize, Vec<usize>> {
            let mut out: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (&u, &g) in &self.group_of {
                out.entry(g).or_default().push(u);
            }
            out
        }

        pub fn fresh_group_id(&self) -> usize {
            self.group_of.values().max().map_or(0, |m| m + 1)
        }

        pub fn fission(&mut self, space: &SearchSpace, unit: usize) {
            let u = &space.units[unit];
            if u.products.is_empty() || self.fissioned.contains(&unit) {
                return;
            }
            self.group_of.remove(&unit);
            self.fissioned.insert(unit);
            let base = self.fresh_group_id();
            for (g, &p) in (base..).zip(u.products.iter()) {
                self.group_of.insert(p, g);
            }
        }

        pub fn defission(&mut self, space: &SearchSpace, unit: usize) {
            if !self.fissioned.remove(&unit) {
                return;
            }
            for &p in &space.units[unit].products {
                self.group_of.remove(&p);
            }
            let g = self.fresh_group_id();
            self.group_of.insert(unit, g);
        }

        pub fn feasible(&self, space: &SearchSpace) -> bool {
            let mut exempt: BTreeMap<usize, bool> = BTreeMap::new();
            for (&(a, b), e) in &space.edges {
                if !e.hard {
                    continue;
                }
                if let (Some(&ga), Some(&gb)) = (self.group_of.get(&a), self.group_of.get(&b)) {
                    if ga == gb {
                        let ok = *exempt.entry(ga).or_insert_with(|| {
                            let members: Vec<usize> = self
                                .group_of
                                .iter()
                                .filter(|(_, &g)| g == ga)
                                .map(|(&u, _)| u)
                                .collect();
                            space.temporal_group(&members).is_some()
                        });
                        if !ok {
                            return false;
                        }
                    }
                }
            }
            self.topo_order(space).is_some()
        }

        pub fn topo_order(&self, space: &SearchSpace) -> Option<Vec<usize>> {
            let groups = self.groups();
            let gids: Vec<usize> = groups.keys().copied().collect();
            let gidx: BTreeMap<usize, usize> =
                gids.iter().enumerate().map(|(i, &g)| (g, i)).collect();
            let m = gids.len();
            let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m];
            let mut indeg = vec![0usize; m];
            for &(a, b) in space.edges.keys() {
                let (Some(&ga), Some(&gb)) = (self.group_of.get(&a), self.group_of.get(&b)) else {
                    continue;
                };
                if ga == gb {
                    continue;
                }
                let (ia, ib) = (gidx[&ga], gidx[&gb]);
                if adj[ia].insert(ib) {
                    indeg[ib] += 1;
                }
            }
            let min_member: Vec<usize> = gids
                .iter()
                .map(|g| *groups[g].iter().min().expect("non-empty group"))
                .collect();
            let mut ready: BTreeSet<(usize, usize)> = (0..m)
                .filter(|&i| indeg[i] == 0)
                .map(|i| (min_member[i], i))
                .collect();
            let mut order = Vec::with_capacity(m);
            while let Some(&(mm, i)) = ready.iter().next() {
                ready.remove(&(mm, i));
                order.push(gids[i]);
                for &s in &adj[i] {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        ready.insert((min_member[s], s));
                    }
                }
            }
            (order.len() == m).then_some(order)
        }

        pub fn try_merge(&mut self, space: &SearchSpace, a: usize, b: usize) -> bool {
            let (Some(&ga), Some(&gb)) = (self.group_of.get(&a), self.group_of.get(&b)) else {
                return false;
            };
            if ga == gb {
                return false;
            }
            let groups = self.groups();
            for &u in groups[&ga].iter().chain(&groups[&gb]) {
                if !space.units[u].eligible {
                    return false;
                }
            }
            let saved = self.group_of.clone();
            for u in &groups[&gb] {
                self.group_of.insert(*u, ga);
            }
            if self.feasible(space) {
                true
            } else {
                self.group_of = saved;
                false
            }
        }
    }
}

#[cfg(test)]
mod model_tests {
    use super::{model, Individual, Quotient};
    use crate::space::tests::synthetic_space;
    use crate::space::SearchSpace;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A random precedence DAG: originals in host order, a few of them with
    /// fission families, forward edges (a third of them hard, none inside
    /// a family), sometimes a host time loop over a run of originals with
    /// the temporal dimension on, sometimes an ineligible unit.
    fn random_space(rng: &mut SmallRng) -> SearchSpace {
        let originals = rng.gen_range(3..12);
        let mut families = Vec::new();
        for parent in 0..originals {
            if rng.gen_bool(0.3) {
                families.push((parent, rng.gen_range(2..4)));
            }
        }
        let loops = if rng.gen_bool(0.5) {
            let from = rng.gen_range(0..originals - 1);
            let to = rng.gen_range(from + 2..=originals);
            vec![(from..to).collect()]
        } else {
            Vec::new()
        };
        let mut space = synthetic_space(originals, &families, &[], &loops);
        let seq = |u: usize| space.units[u].parent.unwrap_or(u);
        let density = [0.1, 0.3, 0.6][rng.gen_range(0..3usize)];
        let mut edges = Vec::new();
        for a in 0..space.units.len() {
            for b in 0..space.units.len() {
                if seq(a) < seq(b) && rng.gen_bool(density) {
                    edges.push((a, b, rng.gen_bool(0.33)));
                }
            }
        }
        space = synthetic_space(originals, &families, &edges, &loops);
        space.max_temporal = if rng.gen_bool(0.5) { 1 } else { 4 };
        if rng.gen_bool(0.3) {
            let u = rng.gen_range(0..space.units.len());
            space.units[u].eligible = false;
        }
        space
    }

    /// One genome in both encodings, moved in lock step.
    struct Pair {
        flat: Individual,
        model: model::Individual,
    }

    impl Pair {
        /// One random operator — including ones that leave the genome
        /// infeasible, and ones aimed at inactive units.
        fn step(&mut self, space: &SearchSpace, q: &mut Quotient<'_>, rng: &mut SmallRng) {
            let units = space.units.len();
            let (a, b) = (rng.gen_range(0..units), rng.gen_range(0..units));
            match rng.gen_range(0..6) {
                0 => assert_eq!(
                    q.try_merge(&mut self.flat, a, b),
                    self.model.try_merge(space, a, b),
                    "try_merge({a}, {b})"
                ),
                1 => {
                    self.flat.fission(space, a);
                    self.model.fission(space, a);
                }
                2 => {
                    self.flat.defission(space, a);
                    self.model.defission(space, a);
                }
                // Split `a` out into a fresh group.
                3 if self.flat.group(a).is_some() => {
                    let fresh = self.flat.fresh_group_id();
                    assert_eq!(fresh, self.model.fresh_group_id());
                    self.flat.set_group(a, fresh);
                    self.model.group_of.insert(a, fresh);
                }
                // Drop `a` into `b`'s group, legal or not.
                4 if self.flat.group(a).is_some() => {
                    if let Some(g) = self.flat.group(b) {
                        self.flat.set_group(a, g);
                        self.model.group_of.insert(a, g);
                    }
                }
                // Gather a whole time loop into one group: the temporal
                // exemption's shape (when every body unit is active).
                5 if !space.loops.is_empty() => {
                    let fresh = self.flat.fresh_group_id();
                    for &u in &space.loops[0].units {
                        if self.flat.group(u).is_some() {
                            self.flat.set_group(u, fresh);
                            self.model.group_of.insert(u, fresh);
                        }
                    }
                }
                _ => {}
            }
        }

        fn check(&self, space: &SearchSpace, q: &mut Quotient<'_>) {
            let (flat, model) = (&self.flat, &self.model);
            assert_eq!(q.feasible(flat), model.feasible(space), "feasible: {flat:?}");
            assert_eq!(flat.feasible(space), model.feasible(space));
            assert_eq!(flat.topo_order(space), model.topo_order(space), "{flat:?}");
            let order = q.topo_order(flat);
            let by_id = order.map(|o| o.iter().map(|&k| q.groups.gid(k)).collect::<Vec<_>>());
            assert_eq!(by_id, model.topo_order(space));
            // Group and member iteration order.
            let groups: Vec<(usize, Vec<usize>)> = model.groups().into_iter().collect();
            assert_eq!(flat.groups(), groups);
            q.groups.regroup(flat);
            let walked: Vec<(usize, Vec<usize>)> = (0..q.groups.len())
                .map(|k| (q.groups.gid(k), q.groups.members(k).to_vec()))
                .collect();
            assert_eq!(walked, groups);
            for (k, (_, members)) in groups.iter().enumerate() {
                assert!(members.iter().all(|&u| q.groups.index_of(u) == Some(k)));
            }
            let pairs: Vec<(usize, usize)> = model.group_of.iter().map(|(&u, &g)| (u, g)).collect();
            assert_eq!(flat.pairs().collect::<Vec<_>>(), pairs);
            assert_eq!(flat.active_units(), model.group_of.keys().copied().collect::<Vec<_>>());
            let fissioned: Vec<usize> = model.fissioned.iter().copied().collect();
            assert_eq!(flat.fissioned(), fissioned);
            assert_eq!(flat.fresh_group_id(), model.fresh_group_id());
            // The two texts other code depends on, and the way back.
            let json = serde_json::to_string(flat).unwrap();
            assert_eq!(json, serde_json::to_string(model).unwrap());
            assert_eq!(&serde_json::from_str::<Individual>(&json).unwrap(), flat);
            assert_eq!(format!("{flat:?}"), format!("{model:?}"));
            assert_eq!(format!("{flat:#?}"), format!("{model:#?}"));
            assert_eq!(flat, &Individual::from_parts(fissioned, pairs));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Two genomes, each moved through a random operator sequence in
        /// both encodings: after every step both encodings agree on
        /// everything a genome can be asked, and on how the two compare.
        #[test]
        fn flat_genome_agrees_with_the_tree_model_after_every_operator(seed in 0u64..1 << 32) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let space = random_space(&mut rng);
            let mut q = Quotient::new(&space);
            let start = || Pair {
                flat: Individual::singletons(&space),
                model: model::Individual::singletons(&space),
            };
            let mut pairs = [start(), start()];
            for _ in 0..60 {
                let moved = rng.gen_range(0..2usize);
                pairs[moved].step(&space, &mut q, &mut rng);
                pairs[moved].check(&space, &mut q);
                let [x, y] = &pairs;
                prop_assert_eq!(x.flat.cmp(&y.flat), x.model.cmp(&y.model));
                prop_assert_eq!(y.flat.cmp(&x.flat), y.model.cmp(&x.model));
                prop_assert_eq!(x.flat == y.flat, x.model == y.model);
            }
        }
    }

    /// A chain `0 → 1 → … → groups` (plus word-crossing shortcuts) grouped
    /// into exactly `groups` groups by merging two units: the two ends of
    /// the chain (a cycle through every other group, when there is one) or
    /// its last two units (still a chain).
    fn chain(groups: usize, merge_ends: bool) -> (SearchSpace, Individual, model::Individual) {
        let units = groups + 1;
        let mut edges: Vec<(usize, usize, bool)> = (1..units).map(|u| (u - 1, u, false)).collect();
        edges.extend((64..units).map(|u| (u - 64, u, false)));
        edges.extend((2..units).step_by(7).map(|u| (0, u, false)));
        let space = synthetic_space(units, &[], &edges, &[]);
        let mut flat = Individual::singletons(&space);
        let mut model = model::Individual::singletons(&space);
        let (moved, into) = if merge_ends { (groups, 0) } else { (groups, groups - 1) };
        flat.set_group(moved, into);
        model.group_of.insert(moved, into);
        (space, flat, model)
    }

    #[test]
    fn quotients_at_bitset_word_boundaries_match_the_model() {
        for groups in [1usize, 63, 64, 65, 130] {
            for merge_ends in [false, true] {
                let (space, flat, model) = chain(groups, merge_ends);
                let mut q = Quotient::new(&space);
                q.groups.regroup(&flat);
                assert_eq!(q.groups.len(), groups);
                let acyclic = !merge_ends || groups == 1;
                assert_eq!(q.feasible(&flat), acyclic, "{groups} groups, ends {merge_ends}");
                assert_eq!(model.feasible(&space), acyclic);
                let order = flat.topo_order(&space);
                assert_eq!(order, model.topo_order(&space));
                if acyclic {
                    // A chain executes in chain order: each group's id is
                    // its first unit.
                    assert_eq!(order.unwrap(), (0..groups).collect::<Vec<_>>());
                }
                // The same buffers, reused for a smaller and a larger
                // quotient, answer as fresh ones do.
                for other in [groups / 2 + 1, groups + 7] {
                    let (space2, flat2, model2) = chain(other, merge_ends);
                    let mut q2 = Quotient::new(&space2);
                    q2.feasible(&Individual::singletons(&space2));
                    assert_eq!(q2.feasible(&flat2), model2.feasible(&space2));
                    assert_eq!(flat2.topo_order(&space2), model2.topo_order(&space2));
                }
            }
        }
    }

    #[test]
    fn ties_in_the_topological_order_go_to_the_smallest_unit() {
        // 3 → 0 and nothing else: 1 and 2 are ready from the start and go
        // first, in unit order, although 3's group has the smallest id
        // once it holds unit 0's successor... and 0 follows 3.
        let space = synthetic_space(4, &[], &[(3, 0, false)], &[]);
        let mut ind = Individual::singletons(&space);
        assert_eq!(ind.topo_order(&space), Some(vec![1, 2, 3, 0]));
        // Group ids do not decide: give unit 1 the largest id.
        ind.set_group(1, 9);
        assert_eq!(ind.topo_order(&space), Some(vec![9, 2, 3, 0]));
    }

    #[test]
    fn order_puts_the_shorter_genome_first_not_the_sentinel() {
        // As maps: {0:0, 1:1} is a strict prefix of {0:0, 1:1, 2:2}, and
        // {0:0, 2:2} comes after both ((2, 2) > (1, 1)) — a dense vector
        // with a max-value sentinel at unit 1 would sort it last for the
        // wrong reason and a derived order would put the prefix last.
        let short = Individual::from_parts([], [(0, 0), (1, 1)]);
        let long = Individual::from_parts([], [(0, 0), (1, 1), (2, 2)]);
        let gap = Individual::from_parts([], [(0, 0), (2, 2)]);
        assert!(short < long && long < gap && short < gap);
        // The fission set decides first.
        let split = Individual::from_parts([0], [(1, 1)]);
        assert!(long < split && Individual::from_parts([], []) < short);
        // Equality ignores how the vector got its length.
        let mut grown = long.clone();
        grown.set_group(7, 3);
        grown.deactivate(7);
        assert_eq!(grown, long);
    }

    #[test]
    fn text_forms_are_the_tree_encodings() {
        let ind = Individual::from_parts([0], [(1, 2), (2, 2), (3, 3)]);
        assert_eq!(
            format!("{ind:?}"),
            "Individual { fissioned: {0}, group_of: {1: 2, 2: 2, 3: 3} }"
        );
        let json = serde_json::to_string(&ind).unwrap();
        assert_eq!(json, r#"{"fissioned": [0],"group_of": [[1,2],[2,2],[3,3]]}"#);
        assert_eq!(serde_json::from_str::<Individual>(&json).unwrap(), ind);
        let empty = Individual::from_parts([], []);
        assert_eq!(format!("{empty:?}"), "Individual { fissioned: {}, group_of: {} }");
        let json = serde_json::to_string(&empty).unwrap();
        assert_eq!(serde_json::from_str::<Individual>(&json).unwrap(), empty);
    }

    #[test]
    fn a_serialized_genome_cannot_size_the_vector_or_name_the_sentinel() {
        for bad in [
            r#"{"fissioned": [],"group_of": [[9999999999,0]]}"#.to_string(),
            format!(r#"{{"fissioned": [],"group_of": [[0,{}]]}}"#, usize::MAX),
        ] {
            let err = serde_json::from_str::<Individual>(&bad).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{err}");
        }
    }
}
