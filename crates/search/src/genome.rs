//! The grouping genome and its feasibility rules.
//!
//! An individual is (a) the set of originals currently replaced by their
//! fission products, and (b) a partition of the active units into groups.
//! Groups are the genes of a grouped GA: operators act on whole groups.
//!
//! The encoding is flat — a group id per unit id in one dense vector — so
//! cloning a genome is a `memcpy` and a lookup is an index. What the search
//! asks *about* a genome (its groups and their members, its quotient's
//! edges) is its [`View`]: the genome's [`Groups`] plus one `u64` bitset row
//! of successors per group.
//!
//! # Where a view lives
//!
//! A view travels with its genome. The island keeps one next to each
//! population member (never inside [`Individual`]), in two buffers it
//! swaps per generation; a child starts from its parent's, every operator
//! moves it along with the genome, and the objective prices the child's
//! final view. Only a genome that arrives from outside the generation
//! loop — the initial seeds, a checkpoint's populations, a migrant — gets
//! a view rebuilt for it ([`Quotient::rebuild`]). Operators either commit
//! a feasible move or leave the genome as it was, so between two
//! operators the view is always that of a feasible genome.
//!
//! # The two checks
//!
//! [`Quotient::feasible`] is the reference: regroup, no hard edge inside a
//! group (bar the temporal exemption), and Kahn's algorithm over the
//! linked quotient. Every move except a merge builds the groups it
//! proposes from the view in one pass ([`Groups::regather`]) and runs the
//! last two steps on them ([`Quotient::settle`]), without a regroup; the
//! view takes them only if they pass. A move that gathers exactly one of
//! the genome's groups again only renames it (`View::rename`): the
//! partition is unchanged, so there is nothing to check.
//!
//! A merge of groups `ga` and `gb` into `M` on a feasible view is decided
//! locally ([`Quotient::try_merge_in`]): it is infeasible iff `M` holds a
//! hard edge and is no temporal-fold candidate, or the quotient has a path
//! `ga ⇝ gb` or `gb ⇝ ga` through a third group. The other groups keep
//! their members, so their hard edges stay admitted; and contracting two
//! nodes of a DAG makes a cycle iff a path of length ≥ 2 joins them — a
//! cycle in the contracted graph must pass through `M` (the rest was
//! acyclic), leave it from one of the two and come back to the other (the
//! same one would be a cycle before), and a direct edge alone contracts to
//! nothing. A move (split a member out, then merge a group into it) keeps
//! the full check: its intermediate split state may be cyclic while the
//! final one is not, so its base is not a feasible view.
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
//! - a carried view is never serialized or compared: it is a function of
//!   its genome, so nothing may depend on it but what a rebuild would give;
//! - a topological order breaks ties toward the group holding the
//!   smallest unit id.

use crate::space::SearchSpace;
use serde::{Content, DeError, Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// The group id of a unit that is not active.
const INACTIVE: usize = usize::MAX;

/// [`Groups::regather`]'s mark for a unit on the move.
const MOVING: usize = usize::MAX - 1;

/// Largest unit id a serialized genome may name. The dense vector is sized
/// by the largest active unit, so a checkpoint must not get to choose an
/// allocation; real spaces are three orders of magnitude below this.
const MAX_UNIT: usize = 1 << 20;

/// One candidate solution.
///
/// Totally ordered (see the module docs) so island merges and migrant
/// selection can break fitness ties deterministically, and serializable so
/// checkpoints can snapshot whole populations.
#[derive(Default, PartialEq, Eq)]
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

/// Field by field, so a population slot reuses its buffers.
impl Clone for Individual {
    fn clone(&self) -> Individual {
        let mut ind = Individual::default();
        ind.clone_from(self);
        ind
    }

    fn clone_from(&mut self, source: &Individual) {
        self.fissioned.clone_from(&source.fissioned);
        self.group_of.clone_from(&source.group_of);
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
            (
                Content::Str("group_of".into()),
                Content::Map(pairs.collect()),
            ),
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

/// The groups of one genome: groups in ascending id, members in ascending
/// unit id — the one order every consumer of a genome visits it in. Built
/// by [`Self::regroup`]; [`Self::regather`] builds the groups of a move
/// from another genome's in one pass.
///
/// One buffer, so copying a view is one `memcpy`: the group index of every
/// unit id (`table` words, `usize::MAX` for inactive units), then every
/// group's members in group order (`size` words), then one `(gid, start)`
/// pair per group — `start` counted from the first member.
#[derive(Debug, Default)]
pub struct Groups {
    /// Scratch: `(gid, unit)` pairs, sorted.
    runs: Vec<(usize, usize)>,
    data: Vec<usize>,
    table: usize,
    size: usize,
}

impl Groups {
    /// Refill from `ind`.
    pub fn regroup(&mut self, ind: &Individual) {
        self.runs.clear();
        self.runs.extend(ind.pairs().map(|(u, g)| (g, u)));
        self.runs.sort_unstable();
        self.fill(ind.group_of.len());
    }

    /// Refill from the sorted `runs`, over a unit table of `table` ids.
    fn fill(&mut self, table: usize) {
        self.table = table;
        self.size = self.runs.len();
        self.data.clear();
        self.data.resize(table + self.size, INACTIVE);
        for (at, &(gid, unit)) in self.runs.iter().enumerate() {
            if at == 0 || self.runs[at - 1].0 != gid {
                self.data.extend([gid, at]);
            }
            self.data[unit] = (self.data.len() - table - self.size) / 2 - 1;
            self.data[table + at] = unit;
        }
    }

    /// Put `unit` into the group with id `gid` (`None`: deactivate it) —
    /// the groups a regroup of the genome so edited would build.
    pub fn place(&mut self, unit: usize, gid: Option<usize>) {
        let mut runs = std::mem::take(&mut self.runs);
        runs.clear();
        for k in 0..self.len() {
            let stay = self.members(k).iter().filter(|&&u| u != unit);
            runs.extend(stay.map(|&u| (self.gid(k), u)));
        }
        if let Some(gid) = gid {
            let at = runs.partition_point(|&run| run < (gid, unit));
            runs.insert(at, (gid, unit));
        }
        self.runs = runs;
        self.fill(self.table.max(unit + 1));
    }

    /// Refill from `from` with `units` (ascending, all active, none of
    /// them in group `gid` yet) moved into group `gid`, which may be a new
    /// one: the groups a regroup of the genome so edited would build, in
    /// one pass over `from` and no sort.
    pub fn regather(&mut self, from: &Groups, units: &[usize], gid: usize) {
        debug_assert!(units.iter().all(|&u| from.index_of(u).is_some()));
        let (table, size) = (from.table, from.size);
        self.table = table;
        self.size = size;
        self.data.clear();
        self.data.extend_from_slice(&from.data[..table]);
        for &u in units {
            self.data[u] = MOVING;
        }
        self.data.resize(table + size, 0);
        let mut cursor = 0;
        let at = from.position(gid);
        for k in 0..at {
            self.keep(from, k, &mut cursor);
        }
        let index = self.len();
        self.data.extend([gid, cursor]);
        if at < from.len() && from.gid(at) == gid {
            // The group's own members, merged with the arrivals (whose
            // marks must last until the groups after it are kept).
            let mut stay = from.members(at).iter().peekable();
            let mut arrive = units.iter().peekable();
            while let Some(&u) = match (stay.peek(), arrive.peek()) {
                (Some(x), Some(y)) if x < y => stay.next(),
                (Some(_), None) => stay.next(),
                _ => arrive.next(),
            } {
                if self.data[u] != MOVING {
                    self.data[u] = index;
                }
                self.data[table + cursor] = u;
                cursor += 1;
            }
            for k in at + 1..from.len() {
                self.keep(from, k, &mut cursor);
            }
        } else {
            self.data[table + cursor..table + cursor + units.len()].copy_from_slice(units);
            cursor += units.len();
            for k in at..from.len() {
                self.keep(from, k, &mut cursor);
            }
        }
        for &u in units {
            self.data[u] = index;
        }
    }

    /// Append `from`'s group `k` without its members marked as moving.
    fn keep(&mut self, from: &Groups, k: usize, cursor: &mut usize) {
        let (start, index, table) = (*cursor, self.len(), self.table);
        for &u in from.members(k) {
            if self.data[u] != MOVING {
                self.data[u] = index;
                self.data[table + *cursor] = u;
                *cursor += 1;
            }
        }
        if *cursor > start {
            self.data.extend([from.gid(k), start]);
        }
    }

    /// Give group `k` the id `gid`, one past every id in use: the group
    /// moves to the last index, its members and every other group stay.
    fn rename_last(&mut self, k: usize, gid: usize) {
        debug_assert!(gid >= self.fresh_gid());
        let (table, size) = (self.table, self.size);
        let (start, end) = (self.start(k), self.end(k));
        let len = end - start;
        self.data[table + start..table + size].rotate_left(len);
        let heads = table + size;
        self.data.drain(heads + 2 * k..heads + 2 * k + 2);
        for head in self.data[heads + 2 * k..].chunks_exact_mut(2) {
            head[1] -= len;
        }
        self.data.extend([gid, size - len]);
        let last = self.len() - 1;
        for at in table + start..table + size - len {
            let u = self.data[at];
            self.data[u] -= 1;
        }
        for at in table + size - len..table + size {
            let u = self.data[at];
            self.data[u] = last;
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        (self.data.len() - self.table - self.size) / 2
    }

    /// True for the empty genome.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Group id of group `k` (groups are indexed in ascending id).
    pub fn gid(&self, k: usize) -> usize {
        self.data[self.table + self.size + 2 * k]
    }

    fn start(&self, k: usize) -> usize {
        self.data[self.table + self.size + 2 * k + 1]
    }

    fn end(&self, k: usize) -> usize {
        let next = self.table + self.size + 2 * k + 3;
        self.data.get(next).copied().unwrap_or(self.size)
    }

    /// The index of the first group whose id is not below `gid`.
    fn position(&self, gid: usize) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.gid(mid) < gid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The index of the group with id `gid`, if it is in use.
    pub fn find(&self, gid: usize) -> Option<usize> {
        let k = self.position(gid);
        (k < self.len() && self.gid(k) == gid).then_some(k)
    }

    /// [`Individual::fresh_group_id`] of the genome these groups are of.
    pub fn fresh_gid(&self) -> usize {
        self.len().checked_sub(1).map_or(0, |k| self.gid(k) + 1)
    }

    /// Members of group `k`, ascending.
    pub fn members(&self, k: usize) -> &[usize] {
        &self.data[self.table + self.start(k)..self.table + self.end(k)]
    }

    /// Index of the group holding `unit`, `None` when it is not active.
    pub fn index_of(&self, unit: usize) -> Option<usize> {
        self.data[..self.table]
            .get(unit)
            .copied()
            .filter(|&k| k != INACTIVE)
    }

    /// Indices of the groups with at least two members, ascending.
    pub fn fusions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&k| self.end(k) - self.start(k) > 1)
    }
}

/// Without the sort scratch, so a carried view reuses its buffer.
impl Clone for Groups {
    fn clone(&self) -> Groups {
        let mut groups = Groups::default();
        groups.clone_from(self);
        groups
    }

    fn clone_from(&mut self, source: &Groups) {
        self.data.clone_from(&source.data);
        self.table = source.table;
        self.size = source.size;
    }
}

/// Equal when they describe the same groups: the scratch and the length
/// of the unit table (trailing inactive units) do not count.
impl PartialEq for Groups {
    fn eq(&self, other: &Groups) -> bool {
        fn active(groups: &Groups) -> &[usize] {
            let table = &groups.data[..groups.table];
            &table[..table
                .iter()
                .rposition(|&k| k != INACTIVE)
                .map_or(0, |u| u + 1)]
        }
        self.size == other.size
            && self.data[self.table..] == other.data[other.table..]
            && active(self) == active(other)
    }
}

/// What the search knows about one genome: its [`Groups`] and its
/// quotient's successor rows. Carried next to the genome and edited with
/// it (see the module docs); a function of the genome, so it is never
/// serialized, never compared by the search, and no part of
/// [`Individual`].
#[derive(Debug, Default, PartialEq)]
pub struct View {
    /// The genome's groups.
    pub groups: Groups,
    /// Row `k` (of `groups.len().div_ceil(64)` words): bit `s` set when
    /// some edge leads from group `k` to group `s`.
    adjacency: Vec<u64>,
}

/// Field by field, so a carried view reuses its buffers.
impl Clone for View {
    fn clone(&self) -> View {
        let mut view = View::default();
        view.clone_from(self);
        view
    }

    fn clone_from(&mut self, source: &View) {
        self.groups.clone_from(&source.groups);
        self.adjacency.clone_from(&source.adjacency);
    }
}

impl View {
    /// Give group `k` a fresh id `gid` (one past every id in use), in `ind`
    /// and in the view. The partition is the same, so a feasible genome
    /// stays feasible without a check: only group `k` moves to the last
    /// index, in the groups and in the adjacency.
    pub(crate) fn rename(&mut self, ind: &mut Individual, k: usize, gid: usize) {
        for &u in self.groups.members(k) {
            ind.set_group(u, gid);
        }
        let (m, words) = (self.groups.len(), self.words());
        self.groups.rename_last(k, gid);
        self.adjacency[k * words..].rotate_left(words);
        for row in self.adjacency.chunks_exact_mut(words) {
            if take_bit(row, k) {
                row[(m - 1) / 64] |= 1 << ((m - 1) % 64);
            }
        }
    }

    fn words(&self) -> usize {
        self.groups.len().div_ceil(64)
    }

    fn row(&self, k: usize) -> &[u64] {
        let words = self.words();
        &self.adjacency[k * words..(k + 1) * words]
    }

    /// Contract group `j` into group `i` in the adjacency: `i` takes `j`'s
    /// successors and predecessors, loses the edges between the two, and
    /// row and column `j` go — the rows a link of the merged groups builds.
    fn contract(&mut self, i: usize, j: usize) {
        let m = self.groups.len();
        let words = self.words();
        let adjacency = &mut self.adjacency;
        let bit = |k: usize| (k / 64, 1u64 << (k % 64));
        for w in 0..words {
            adjacency[i * words + w] |= adjacency[j * words + w];
        }
        let (jw, jb) = bit(j);
        let (iw, ib) = bit(i);
        for r in 0..m {
            if adjacency[r * words + jw] & jb != 0 {
                adjacency[r * words + jw] &= !jb;
                adjacency[r * words + iw] |= ib;
            }
        }
        adjacency[i * words + iw] &= !ib;
        adjacency.drain(j * words..(j + 1) * words);
        for row in adjacency.chunks_exact_mut(words) {
            take_bit(row, j);
        }
        let narrower = (m - 1).div_ceil(64);
        if narrower < words {
            for r in 0..m - 1 {
                for w in 0..narrower {
                    adjacency[r * narrower + w] = adjacency[r * words + w];
                }
            }
            adjacency.truncate((m - 1) * narrower);
        }
    }
}

/// The quotient of the precedence graph under a genome's grouping: the
/// scratch one island allocates once and reuses for every genome — a
/// [`Groups`] for the reference checks and one for a move's proposal, the
/// adjacency rows `link` builds, in-degrees and a ready list for Kahn's
/// algorithm, and the bitset and stack of the local merge's search. One
/// construction answers both questions the search asks of a genome — is
/// it acyclic ([`Self::feasible`], [`Self::settle`]), and in which order
/// do its groups execute ([`Self::topo_order`]).
#[derive(Debug)]
pub struct Quotient<'a> {
    space: &'a SearchSpace,
    /// `space.edges` as `(from, to)`, flattened once.
    edges: Vec<(usize, usize)>,
    /// The hard ones among them, in the same order.
    hard: Vec<(usize, usize)>,
    /// Refilled by [`Self::feasible`] and [`Self::topo_order`].
    pub groups: Groups,
    /// Where [`Self::link`] builds rows; swapped into a view that passes.
    adjacency: Vec<u64>,
    /// The groups a move proposes, built from a view's by the operator
    /// ([`Groups::regather`], or [`Self::propose`]'s edits of a copy) and
    /// committed to it by [`Self::settle`].
    pub(crate) proposal: Groups,
    in_degree: Vec<usize>,
    ready: Vec<usize>,
    /// Per group: may it carry a hard edge (a whole-loop temporal
    /// candidate)? Decided at most once per feasibility check.
    exempt: Vec<Option<bool>>,
    /// The units a merge moves, for its commit or revert.
    moved: Vec<usize>,
    /// The local merge's visited set and stack.
    seen: Vec<u64>,
    stack: Vec<usize>,
    /// Scratch for the GGA operators' candidate lists.
    pub(crate) picks: Vec<usize>,
}

impl<'a> Quotient<'a> {
    /// Empty buffers over `space`.
    pub fn new(space: &'a SearchSpace) -> Quotient<'a> {
        let hard = space.edges.iter().filter(|(_, e)| e.hard);
        Quotient {
            space,
            edges: space.edges.keys().copied().collect(),
            hard: hard.map(|(&ab, _)| ab).collect(),
            groups: Groups::default(),
            adjacency: Vec::new(),
            proposal: Groups::default(),
            in_degree: Vec::new(),
            ready: Vec::new(),
            exempt: Vec::new(),
            moved: Vec::new(),
            seen: Vec::new(),
            stack: Vec::new(),
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
    ///
    /// The reference every other check is derived from: it regroups.
    pub fn feasible(&mut self, ind: &Individual) -> bool {
        let mut groups = std::mem::take(&mut self.groups);
        groups.regroup(ind);
        let feasible = self.acyclic(&groups);
        self.groups = groups;
        feasible
    }

    /// [`Self::feasible`] of the genome the proposal is of, without a
    /// regroup. When it passes, the move is committed: `view` takes the
    /// proposal and its linked adjacency. When it fails, `view` is as it
    /// was.
    pub fn settle(&mut self, view: &mut View) -> bool {
        let proposal = std::mem::take(&mut self.proposal);
        let feasible = self.acyclic(&proposal);
        self.proposal = proposal;
        if feasible {
            std::mem::swap(&mut self.proposal, &mut view.groups);
            std::mem::swap(&mut self.adjacency, &mut view.adjacency);
        }
        feasible
    }

    /// Move `units` (ascending, all active, none in group `gid`) into group
    /// `gid` — in `ind` and as the proposal over `view` — and
    /// [`Self::settle`]; a move that fails is taken back out of `ind`.
    pub(crate) fn try_gather(
        &mut self,
        ind: &mut Individual,
        view: &mut View,
        units: &[usize],
        gid: usize,
    ) -> bool {
        self.proposal.regather(&view.groups, units, gid);
        self.settle_gathered(ind, view, units, gid)
    }

    /// [`Self::settle`] a proposal that gathers `units` into group `gid`,
    /// moving them in `ind` too — and back when it fails.
    pub(crate) fn settle_gathered(
        &mut self,
        ind: &mut Individual,
        view: &mut View,
        units: &[usize],
        gid: usize,
    ) -> bool {
        self.moved.clear();
        for &u in units {
            self.moved
                .push(ind.group(u).expect("gathered units are active"));
            ind.set_group(u, gid);
        }
        if self.settle(view) {
            return true;
        }
        for (&u, &old) in units.iter().zip(&self.moved) {
            ind.set_group(u, old);
        }
        false
    }

    /// Propose `view`'s groups with `units` placed where `ind` now has them
    /// (after a fission or a defission of `ind`).
    pub(crate) fn propose(
        &mut self,
        view: &View,
        ind: &Individual,
        units: impl IntoIterator<Item = usize>,
    ) {
        self.proposal.clone_from(&view.groups);
        for unit in units {
            self.proposal.place(unit, ind.group(unit));
        }
    }

    /// Refill `view` from `ind`: regroup and link.
    pub fn rebuild(&mut self, view: &mut View, ind: &Individual) {
        view.groups.regroup(ind);
        self.link(&view.groups);
        std::mem::swap(&mut self.adjacency, &mut view.adjacency);
    }

    /// A new view of `ind` ([`Self::rebuild`]).
    pub fn view(&mut self, ind: &Individual) -> View {
        let mut view = View::default();
        self.rebuild(&mut view, ind);
        view
    }

    /// The hard-edge rule and Kahn's algorithm over `groups`, leaving the
    /// linked rows in `self.adjacency`.
    fn acyclic(&mut self, groups: &Groups) -> bool {
        self.exempt.clear();
        self.exempt.resize(groups.len(), None);
        for &(a, b) in &self.hard {
            let Some(k) = groups.index_of(a) else {
                continue;
            };
            if groups.index_of(b) != Some(k) {
                continue;
            }
            let space = self.space;
            let exempt = *self.exempt[k]
                .get_or_insert_with(|| space.temporal_group(groups.members(k)).is_some());
            if !exempt {
                return false;
            }
        }
        self.link(groups);
        self.kahn(groups, false, |_| {})
    }

    /// Group indices (into [`Self::groups`]) in execution order: Kahn's
    /// algorithm, ties toward the group holding the smallest unit id;
    /// `None` when the quotient has a cycle.
    pub fn topo_order(&mut self, ind: &Individual) -> Option<Vec<usize>> {
        let mut groups = std::mem::take(&mut self.groups);
        groups.regroup(ind);
        self.link(&groups);
        let mut order = Vec::with_capacity(groups.len());
        let acyclic = self.kahn(&groups, true, |k| order.push(k));
        self.groups = groups;
        acyclic.then_some(order)
    }

    /// The one quotient construction: adjacency rows and in-degrees of
    /// `groups`.
    fn link(&mut self, groups: &Groups) {
        let m = groups.len();
        let words = m.div_ceil(64);
        self.adjacency.clear();
        self.adjacency.resize(m * words, 0);
        self.in_degree.clear();
        self.in_degree.resize(m, 0);
        for &(a, b) in &self.edges {
            let (Some(from), Some(to)) = (groups.index_of(a), groups.index_of(b)) else {
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
    fn kahn(&mut self, groups: &Groups, ordered: bool, mut visit: impl FnMut(usize)) -> bool {
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
    /// false if the result is infeasible. The reference merge: it decides
    /// with [`Self::feasible`], whatever state `ind` is in.
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
        if ind
            .pairs()
            .filter(merging)
            .any(|(u, _)| !space.units[u].eligible)
        {
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

    /// The view indices of the groups of `a` and `b` when those two may be
    /// merged at all: both active, apart, and every member eligible
    /// (ineligible units stay singletons).
    fn mergeable(&self, view: &View, a: usize, b: usize) -> Option<(usize, usize)> {
        let groups = &view.groups;
        let (i, j) = (groups.index_of(a)?, groups.index_of(b)?);
        let units = &self.space.units;
        let mut members = groups.members(i).iter().chain(groups.members(j));
        (i != j && members.all(|&u| units[u].eligible)).then_some((i, j))
    }

    /// [`Self::try_merge`] on a genome whose `view` is current and
    /// feasible, decided locally (see the module docs): the hard-edge rule
    /// for the merged group alone, and no path between the two groups
    /// through a third. On success the genome and the view — groups and
    /// adjacency — are updated in place; on failure nothing is written.
    pub fn try_merge_in(
        &mut self,
        ind: &mut Individual,
        view: &mut View,
        a: usize,
        b: usize,
    ) -> bool {
        let Some((i, j)) = self.mergeable(view, a, b) else {
            return false;
        };
        let groups = &view.groups;
        self.moved.clear();
        self.moved.extend_from_slice(groups.members(j));
        let inside = |u: usize| matches!(groups.index_of(u), Some(k) if k == i || k == j);
        if self.hard.iter().any(|&(x, y)| inside(x) && inside(y)) {
            let merged = self.moved.len();
            self.moved.extend_from_slice(groups.members(i));
            let cover = self.space.temporal_group(&self.moved);
            self.moved.truncate(merged);
            if cover.is_none() {
                return false;
            }
        }
        if self.joined(view, i, j) || self.joined(view, j, i) {
            return false;
        }
        let ga = view.groups.gid(i);
        for &u in &self.moved {
            ind.set_group(u, ga);
        }
        self.proposal.regather(&view.groups, &self.moved, ga);
        view.contract(i, j);
        std::mem::swap(&mut self.proposal, &mut view.groups);
        true
    }

    /// Whether the quotient has a path `from ⇝ to` of length at least two:
    /// a depth-first search over the adjacency bitsets that never takes
    /// the direct edge.
    fn joined(&mut self, view: &View, from: usize, to: usize) -> bool {
        let (tw, tb) = (to / 64, 1u64 << (to % 64));
        self.seen.clear();
        self.seen.extend_from_slice(view.row(from));
        self.seen[tw] &= !tb;
        self.stack.clear();
        push_bits(&mut self.stack, &self.seen, 0);
        while let Some(k) = self.stack.pop() {
            let row = view.row(k);
            if row[tw] & tb != 0 {
                return true;
            }
            for (w, &successors) in row.iter().enumerate() {
                let fresh = successors & !self.seen[w];
                self.seen[w] |= fresh;
                push_bits(&mut self.stack, &[fresh], w);
            }
        }
        false
    }
}

/// Remove bit `k` from the bitset `row` — every higher bit moves down one
/// place — and return whether it was set.
fn take_bit(row: &mut [u64], k: usize) -> bool {
    let (w0, b) = (k / 64, k % 64);
    let was = row[w0] >> b & 1 == 1;
    row[w0] = (row[w0] & ((1 << b) - 1)) | ((row[w0] >> b) >> 1 << b);
    for w in w0 + 1..row.len() {
        row[w - 1] |= (row[w] & 1) << 63;
        row[w] >>= 1;
    }
    was
}

/// Push the index of every bit set in `words` (word `w` of `words` being
/// word `first + w` of a row).
fn push_bits(stack: &mut Vec<usize>, words: &[u64], first: usize) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            stack.push((first + w) * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
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
    use super::{model, Individual, Quotient, View};
    use crate::gga;
    use crate::projection::ProjectionEngine;
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
            assert_eq!(
                q.feasible(flat),
                model.feasible(space),
                "feasible: {flat:?}"
            );
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
            assert_eq!(
                flat.active_units(),
                model.group_of.keys().copied().collect::<Vec<_>>()
            );
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

    /// `ind` in the tree encoding.
    fn model_of(ind: &Individual) -> model::Individual {
        model::Individual {
            fissioned: ind.fissioned().iter().copied().collect(),
            group_of: ind.pairs().collect(),
        }
    }

    /// [`Quotient::try_merge_in`] on a feasible genome and its current
    /// view, checked against the full check ([`Quotient::try_merge`]
    /// decides with [`Quotient::feasible`]) and the tree model's merge.
    fn merge_checked(
        q: &mut Quotient<'_>,
        space: &SearchSpace,
        ind: &mut Individual,
        view: &mut View,
        a: usize,
        b: usize,
    ) -> bool {
        let before = ind.clone();
        let mut reference = ind.clone();
        let expected = q.try_merge(&mut reference, a, b);
        let mut tree = model_of(ind);
        assert_eq!(
            tree.try_merge(space, a, b),
            expected,
            "model merge({a}, {b}) of {ind:?}"
        );
        let local = q.try_merge_in(ind, view, a, b);
        assert_eq!(local, expected, "local merge({a}, {b}) of {before:?}");
        assert_eq!(*ind, reference);
        assert_eq!(model_of(ind), tree);
        local
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Feasible genomes moved by the GGA's own operators, each with its
        /// carried view: after every operator the view is the one a rebuild
        /// gives — the groups a regroup builds, the adjacency `link` builds
        /// — and every local merge verdict is the full check's and the tree
        /// model's.
        #[test]
        fn local_merge_agrees_with_the_full_check(seed in 0u64..1 << 32) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut space = random_space(&mut rng);
            space.max_temporal = rng.gen_range(1..=4);
            let engine = ProjectionEngine::new(&space);
            let mut pricer = engine.pricer(0);
            let mut q = Quotient::new(&space);
            // Fission is lazy, so one genome starts the way a fissioned
            // greedy seed enters a population: every original split.
            let singles = Individual::singletons(&space);
            let mut fissioned = singles.clone();
            for unit in space.units.iter().filter(|u| u.fissionable()) {
                fissioned.fission(&space, unit.id);
            }
            let (start, split) = (q.view(&singles), q.view(&fissioned));
            let mut live = [(singles, start), (fissioned, split)];
            let units = space.units.len();
            for _ in 0..60 {
                let [first, second] = &mut live;
                let ((ind, view), (_, other)) = if rng.gen_bool(0.5) {
                    (first, &*second)
                } else {
                    (second, &*first)
                };
                match rng.gen_range(0..8) {
                    0 | 1 => {
                        let (a, b) = (rng.gen_range(0..units), rng.gen_range(0..units));
                        merge_checked(&mut q, &space, ind, view, a, b);
                    }
                    2 => gga::mutate_merge(&mut q, ind, view, &mut rng),
                    3 => gga::mutate_split(&mut q, ind, view, &mut rng),
                    4 => gga::mutate_move(&mut q, ind, view, &mut rng),
                    5 => {
                        gga::mutate_fission(&mut pricer, &mut q, ind, view, &mut rng);
                    }
                    6 => gga::mutate_defission(&mut q, ind, view, &mut rng),
                    _ => {
                        let parent = view.clone();
                        gga::crossover(&mut q, ind, view, &parent, other, &mut rng);
                    }
                }
                prop_assert_eq!(&*view, &q.view(ind), "{:?}", ind);
                prop_assert!(q.feasible(ind));
                prop_assert!(model_of(ind).feasible(&space));
            }
        }
    }

    /// Singletons of `space` after the reference merges `first` (each must
    /// pass), then a local merge of `a` and `b`, checked as above and
    /// against a rebuilt view; returns its verdict.
    fn merged(space: &SearchSpace, first: &[(usize, usize)], a: usize, b: usize) -> bool {
        let mut q = Quotient::new(space);
        let mut ind = Individual::singletons(space);
        for &(x, y) in first {
            assert!(ind.try_merge(space, x, y), "setup merge({x}, {y})");
        }
        let mut view = q.view(&ind);
        let verdict = merge_checked(&mut q, space, &mut ind, &mut view, a, b);
        assert_eq!(view, q.view(&ind));
        verdict
    }

    #[test]
    fn a_path_through_a_third_group_forbids_a_merge_either_way() {
        // 0 → 1 → 2: the ends are joined through 1, neighbours directly.
        let chain = synthetic_space(3, &[], &[(0, 1, false), (1, 2, false)], &[]);
        let cases = [
            (0, 2, false),
            (2, 0, false),
            (0, 1, true),
            (1, 0, true),
            (2, 1, true),
        ];
        for (a, b, feasible) in cases {
            assert_eq!(merged(&chain, &[], a, b), feasible, "merge({a}, {b})");
        }
        // 0 → {1, 2} → 3 → 4, and 0 → 4 directly: the third group on the
        // path is a fused one, and the direct edge does not make it legal.
        let edges = [
            (0, 1, false),
            (1, 2, false),
            (2, 3, false),
            (3, 4, false),
            (0, 4, false),
        ];
        let space = synthetic_space(5, &[], &edges, &[]);
        for (a, b) in [(0, 3), (3, 0), (0, 4), (4, 0), (2, 4), (4, 1)] {
            assert!(!merged(&space, &[(1, 2)], a, b), "merge({a}, {b})");
        }
        for (a, b) in [(0, 1), (2, 0), (3, 1), (4, 3)] {
            assert!(merged(&space, &[(1, 2)], a, b), "merge({a}, {b})");
        }
    }

    #[test]
    fn a_merge_into_or_out_of_an_exact_cover_keeps_the_temporal_exemption_right() {
        // 0 before a loop over {1, 2, 3}; 1 → 3 is the loop-carried hard
        // edge, which only a group covering the whole body may hold.
        let edges = [
            (0, 1, true),
            (0, 2, true),
            (1, 2, false),
            (2, 3, false),
            (1, 3, true),
        ];
        for cap in 1..=4 {
            let mut space = synthetic_space(4, &[], &edges, &[vec![1, 2, 3]]);
            space.max_temporal = cap;
            let folds = cap >= 2;
            // Neither half holds the hard edge; the whole body does.
            assert!(merged(&space, &[], 1, 2));
            assert_eq!(merged(&space, &[(1, 2)], 3, 1), folds, "cap {cap}");
            assert_eq!(merged(&space, &[(2, 3)], 1, 3), folds, "cap {cap}");
            if folds {
                // Into the cover, and the cover out into another group.
                assert!(!merged(&space, &[(1, 2), (1, 3)], 2, 0));
                assert!(!merged(&space, &[(1, 2), (1, 3)], 0, 3));
            }
            // Half the body with its hard edge is no cover.
            assert!(!merged(&space, &[], 1, 3));
        }
    }

    #[test]
    fn merges_and_renames_across_a_bitset_word_keep_the_view_current() {
        // A 67-unit chain: 67 groups (two words a row) down to 63 (one).
        let edges: Vec<(usize, usize, bool)> = (1..67).map(|u| (u - 1, u, false)).collect();
        let space = synthetic_space(67, &[], &edges, &[]);
        let mut q = Quotient::new(&space);
        let mut ind = Individual::singletons(&space);
        let mut view = q.view(&ind);
        for u in (63..67).rev() {
            assert!(merge_checked(&mut q, &space, &mut ind, &mut view, u - 1, u));
            assert_eq!(view, q.view(&ind), "{} groups", view.groups.len());
        }
        // A rename moves a group to the last index: from the first and the
        // 64th place, at 63 groups and, after a split, at 64 and 65.
        for _ in 0..3 {
            for k in [0, 63] {
                if k < view.groups.len() {
                    let fresh = view.groups.fresh_gid();
                    view.rename(&mut ind, k, fresh);
                    assert_eq!(view, q.view(&ind));
                }
            }
            let fused = view.groups.fusions().next().expect("the merged tail");
            let last = *view.groups.members(fused).last().expect("members");
            let fresh = view.groups.fresh_gid();
            assert!(q.try_gather(&mut ind, &mut view, &[last], fresh));
            assert_eq!(view, q.view(&ind));
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
        let (moved, into) = if merge_ends {
            (groups, 0)
        } else {
            (groups, groups - 1)
        };
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
                assert_eq!(
                    q.feasible(&flat),
                    acyclic,
                    "{groups} groups, ends {merge_ends}"
                );
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
        assert_eq!(
            json,
            r#"{"fissioned": [0],"group_of": [[1,2],[2,2],[3,3]]}"#
        );
        assert_eq!(serde_json::from_str::<Individual>(&json).unwrap(), ind);
        let empty = Individual::from_parts([], []);
        assert_eq!(
            format!("{empty:?}"),
            "Individual { fissioned: {}, group_of: {} }"
        );
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
