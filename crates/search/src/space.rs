//! The search space: units (original target launches plus their precomputed
//! fission products), their metadata, and the unit-level precedence graph.
//!
//! The *lazy fission pre-step* lives here: every eligible launch whose
//! kernel has separable data arrays is fissioned once, the products are
//! profiled (analytically — the codeless objective only needs metadata),
//! and the products join the unit list. The GA starts with the originals
//! active; a fission move swaps an original for its products.

use sf_analysis::filter::FilterDecision;
use sf_analysis::metadata::{OpsMetadata, PerfMetadata};
use sf_codegen::legality::{self, ArrayIds, MemberFacts};
use sf_codegen::{transform_program_with, Storage};
use sf_core::FaultPlan;
use sf_plan::{CodegenMode, GroupPlan, MemberRef, TransformPlan};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::{ProfileError, Profiler, ProgramProfile};
use sf_graphs::build::{all_accesses, LaunchAccesses};
use sf_graphs::{EdgeInfo, Precedence};
use sf_minicuda::ast::Program;
use sf_minicuda::host::{parse_instance, ExecutablePlan};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// One schedulable unit: an original launch or a fission product.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct Unit {
    /// Index in `SearchSpace::units`.
    pub id: usize,
    /// Display label.
    pub label: String,
    /// How the code generator addresses this unit.
    pub mref: MemberRef,
    /// For products: the unit id of the original launch.
    pub parent: Option<usize>,
    /// For originals: unit ids of this launch's fission products.
    pub products: Vec<usize>,
    /// Eligible for fusion (target kernel)?
    pub eligible: bool,
    /// Per-launch performance metadata (one execution).
    pub perf: PerfMetadata,
    /// Operations metadata.
    pub ops: OpsMetadata,
    /// Read/write sets (actual arrays).
    pub accesses: LaunchAccesses,
    /// Launch shape.
    pub blocks: u64,
    pub threads_per_block: u32,
    /// Times this launch executes (host repeat weight).
    pub repeat: u64,
    /// Recorded host time loop containing this launch, if any (products
    /// inherit their parent's loop).
    pub loop_id: Option<usize>,
}

impl Unit {
    /// Whether this original unit can be fissioned.
    pub fn fissionable(&self) -> bool {
        !self.products.is_empty()
    }
}

/// Strip a redundant-instance storage suffix (`x__i3` → `x`).
fn debase(name: &str) -> String {
    parse_instance(name).map_or(name, |(base, _)| base).to_string()
}

/// A precedence edge between units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitEdge {
    /// Fusing across this edge is impossible: the dependence is hard
    /// (`EdgeInfo::is_hard`) or the pair straddles a host time loop boundary.
    pub hard: bool,
}

/// One recorded host time loop, at unit granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSpan {
    /// Evaluated trip count.
    pub count: u64,
    /// Original unit ids of the loop body, in body order.
    pub units: Vec<usize>,
}

/// The complete search space.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct SearchSpace {
    pub units: Vec<Unit>,
    /// Precedence edges (i → j with i earlier), unit ids.
    pub edges: BTreeMap<(usize, usize), UnitEdge>,
    pub device: DeviceSpec,
    /// Shared-memory capacity per block, bytes.
    pub smem_limit: usize,
    /// Recorded host time loops (unit granularity); empty for flat programs.
    pub loops: Vec<LoopSpan>,
    /// Highest temporal-blocking degree the search may assign to a
    /// whole-loop group (1 disables the dimension entirely).
    pub max_temporal: u32,
    /// The codegen mode the lowered plan will be generated in (it decides
    /// which members merge into one sweep, and so which rules apply).
    pub mode: CodegenMode,
    /// Per unit, what codegen's fusion legality rules read of it
    /// ([`SearchSpace::fusable`]), computed once.
    pub facts: Vec<MemberFacts>,
    /// The arrays `facts` name.
    pub arrays: ArrayIds,
}

impl SearchSpace {
    /// If `members` is a temporal-fold candidate — at least two original
    /// units that exactly cover one recorded host time loop, with the
    /// temporal dimension enabled — return the loop index.
    pub fn temporal_group(&self, members: &[usize]) -> Option<usize> {
        if self.max_temporal < 2 || members.len() < 2 {
            return None;
        }
        if members
            .iter()
            .any(|&m| self.units[m].mref.fission_component.is_some())
        {
            return None;
        }
        let li = self.units[members[0]].loop_id?;
        // Equal as multisets: same length, and every member as often in the
        // loop body as in the group.
        let body = &self.loops[li].units;
        let count = |xs: &[usize], x: usize| xs.iter().filter(|&&y| y == x).count();
        let covers = members.len() == body.len()
            && members.iter().all(|&m| count(members, m) == count(body, m));
        covers.then_some(li)
    }

    /// Whether the code generator fuses `members` (two or more units) into
    /// one kernel: `sf_codegen`'s block-independent legality predicate,
    /// asked of the members' facts in execution order.
    pub fn fusable(&self, members: &[usize]) -> bool {
        let mut ordered: Vec<(usize, Option<usize>, &MemberFacts)> = members
            .iter()
            .map(|&u| {
                let m = self.units[u].mref;
                (m.seq, m.fission_component, &self.facts[u])
            })
            .collect();
        ordered.sort_unstable_by_key(|&(seq, component, _)| (seq, component));
        let facts: Vec<&MemberFacts> = ordered.into_iter().map(|(_, _, f)| f).collect();
        legality::check(&facts, self.mode, &self.arrays).is_ok()
    }

    /// Temporal degrees worth projecting for loop `li`: each `T` in
    /// `2..=max_temporal` whose ping-pong pair divides the trip count.
    /// (Geometry — halo growth vs block size — is the cost model's job.)
    pub fn temporal_degrees(&self, li: usize) -> impl Iterator<Item = u32> {
        let count = self.loops[li].count;
        (2..=self.max_temporal).filter(move |&t| count.is_multiple_of(2 * u64::from(t)))
    }

    /// Build the space from a profiled program and its filter decisions,
    /// analysing the program's precedence first.
    ///
    /// `decisions` must be parallel to `plan.launches`.
    pub fn build(
        program: &Program,
        plan: &ExecutablePlan,
        profile: &ProgramProfile,
        decisions: &[FilterDecision],
        device: DeviceSpec,
    ) -> Result<SearchSpace, ProfileError> {
        let precedence = Precedence::build(program, plan).map_err(ProfileError::msg)?;
        Self::from_precedence(program, plan, profile, decisions, device, &precedence)
    }

    /// Build the space over the precedence model the graphs stage made of
    /// `(program, plan)`: units take its access sets, unit edges its
    /// dependence rule.
    ///
    /// `decisions` must be parallel to `plan.launches`.
    pub fn from_precedence(
        program: &Program,
        plan: &ExecutablePlan,
        profile: &ProgramProfile,
        decisions: &[FilterDecision],
        device: DeviceSpec,
        precedence: &Precedence,
    ) -> Result<SearchSpace, ProfileError> {
        assert_eq!(decisions.len(), plan.launches.len());
        let accesses = &precedence.accesses;
        let loop_of: BTreeMap<usize, usize> = plan
            .loops
            .iter()
            .enumerate()
            .flat_map(|(li, l)| l.seqs.iter().map(move |&s| (s, li)))
            .collect();

        // Codegen reads a member bound to the storage it executes on.
        let storage = Storage::new(&precedence.ddg);
        let mut arrays = ArrayIds::default();
        let mut facts: Vec<MemberFacts> = Vec::new();
        let mut units: Vec<Unit> = Vec::new();
        for launch in &plan.launches {
            let seq = launch.seq;
            let kernel = program.kernel(&launch.kernel).expect("kernel exists");
            let mut bound = Cow::Borrowed(launch);
            storage.bind(kernel, &mut bound);
            facts.push(MemberFacts::of(kernel, &bound, &mut arrays));
            units.push(Unit {
                id: seq,
                label: format!("{}#{}", launch.kernel, seq),
                mref: MemberRef::original(seq),
                parent: None,
                products: Vec::new(),
                eligible: decisions[seq].is_target(),
                perf: profile.metadata.perf[seq].clone(),
                ops: profile.metadata.ops[seq].clone(),
                accesses: accesses[seq].clone(),
                blocks: launch.grid.count(),
                threads_per_block: launch.block.count() as u32,
                repeat: launch.repeat,
                loop_id: loop_of.get(&seq).copied(),
            });
        }

        // ---- lazy fission pre-step ----
        // Build one synthetic program with every fissionable target split,
        // profile it analytically, and register the products as units.
        let mut fission_groups: Vec<GroupPlan> = Vec::new();
        let mut product_owner: Vec<Option<(usize, usize)>> = Vec::new(); // per synthetic launch: (parent seq, component)
        for launch in &plan.launches {
            let seq = launch.seq;
            let kernel = program.kernel(&launch.kernel).expect("kernel exists");
            let components = decisions[seq]
                .is_target()
                .then(|| sf_codegen::fission_kernel(kernel))
                .flatten();
            if let Some(components) = components {
                for c in 0..components.len() {
                    fission_groups.push(GroupPlan::singleton(MemberRef::product(seq, c)));
                    product_owner.push(Some((seq, c)));
                }
            } else {
                fission_groups.push(GroupPlan::singleton(MemberRef::original(seq)));
                product_owner.push(None);
            }
        }
        let any_products = product_owner.iter().any(|o| o.is_some());
        if any_products {
            let tplan =
                TransformPlan::new(device.clone(), CodegenMode::Auto, false, fission_groups);
            let out = transform_program_with(
                program,
                plan,
                &tplan,
                &precedence.ddg,
                &FaultPlan::none(),
            )
            .map_err(|e| ProfileError::msg(e.0))?;
            let fission_plan = ExecutablePlan::from_program(&out.program)
                .map_err(|e| ProfileError::msg(e.to_string()))?;
            let fission_profile =
                Profiler::analytic(device.clone()).profile_with_plan(&out.program, &fission_plan)?;
            let fission_accesses = all_accesses(&out.program, &fission_plan.launches)
                .map_err(ProfileError::msg)?;
            for (idx, owner) in product_owner.iter().enumerate() {
                let Some((parent_seq, component)) = owner else {
                    continue;
                };
                let launch = &fission_plan.launches[idx];
                // The pre-step emitted the product bound to its storage.
                let kernel = out.program.kernel(&launch.kernel).expect("product emitted");
                facts.push(MemberFacts::of(kernel, launch, &mut arrays));
                let id = units.len();
                units[*parent_seq].products.push(id);
                // The pre-step program has redundant-instance storage names
                // (`x__i0`); normalize back to base names so product units
                // compare like-for-like with original units.
                let mut ops = fission_profile.metadata.ops[idx].clone();
                ops.bytes_per_array = ops
                    .bytes_per_array
                    .into_iter()
                    .map(|(k, v)| (debase(&k), v))
                    .collect();
                for sh in &mut ops.shapes {
                    sh.array = debase(&sh.array);
                }
                let acc = &fission_accesses[idx];
                let accesses = LaunchAccesses {
                    reads: acc.reads.iter().map(|a| debase(a)).collect(),
                    writes: acc.writes.iter().map(|a| debase(a)).collect(),
                    full_writes: acc.full_writes.iter().map(|a| debase(a)).collect(),
                };
                // Products are profiled analytically, but their trust level
                // is bounded by the parent's measurements: fission must not
                // launder a noisy kernel into a "clean" product.
                let mut perf = fission_profile.metadata.perf[idx].clone();
                perf.measure = units[*parent_seq].perf.measure;
                units.push(Unit {
                    id,
                    label: format!("{}#{}", launch.kernel, parent_seq),
                    mref: MemberRef::product(*parent_seq, *component),
                    parent: Some(*parent_seq),
                    products: Vec::new(),
                    eligible: true,
                    perf,
                    ops,
                    accesses,
                    blocks: launch.grid.count(),
                    threads_per_block: launch.block.count() as u32,
                    repeat: units[*parent_seq].repeat,
                    loop_id: units[*parent_seq].loop_id,
                });
            }
        }

        // ---- unit-level precedence graph ----
        // The dependence rule over unit pairs in host order: a fission
        // product stands at its parent's position with its own access sets
        // (a full DDG/OEG build over all units would mis-apply the
        // redundant-instance optimization to the parent/product aliases).
        // A parent and its own products — or two siblings — are never
        // simultaneously active, so those pairs carry no edge. The space's
        // own rule on top: a fusion group may not straddle a host time loop
        // boundary, so units of different loop membership are pinned apart.
        let seq_of = |u: &Unit| u.parent.unwrap_or(u.mref.seq);
        let mut edges = BTreeMap::new();
        for (a, ua) in units.iter().enumerate() {
            for (b, ub) in units.iter().enumerate() {
                let (sa, sb) = (seq_of(ua), seq_of(ub));
                if sa >= sb {
                    continue;
                }
                let hard = if ua.loop_id != ub.loop_id {
                    Some(true)
                } else {
                    let (earlier, later) = ((sa, &ua.accesses), (sb, &ub.accesses));
                    EdgeInfo::between(&precedence.ddg, &plan.transfers, earlier, later)
                        .map(|dependence| dependence.is_hard())
                };
                if let Some(hard) = hard {
                    edges.insert((a, b), UnitEdge { hard });
                }
            }
        }

        let loops = plan
            .loops
            .iter()
            .map(|l| LoopSpan {
                count: l.count,
                units: l.seqs.clone(),
            })
            .collect();

        arrays.sort(&mut facts);
        let smem_limit = device.smem_per_block_max;
        Ok(SearchSpace {
            units,
            edges,
            device,
            smem_limit,
            loops,
            max_temporal: 1,
            mode: CodegenMode::Auto,
            facts,
            arrays,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sf_analysis::filter::{identify_targets, FilterConfig};
    use sf_minicuda::parse_program;

    pub(crate) const SRC: &str = r#"
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
__global__ void reader(const double* __restrict__ a, double* c, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      c[k][j][i] = a[k][j][i] - 5.0;
    }
  }
}
void host() {
  int nx = 32; int ny = 16; int nz = 8;
  double* x = cudaAlloc3D(nz, ny, nx);
  double* y = cudaAlloc3D(nz, ny, nx);
  double* a = cudaAlloc3D(nz, ny, nx);
  double* b = cudaAlloc3D(nz, ny, nx);
  double* c = cudaAlloc3D(nz, ny, nx);
  pair<<<dim3(2, 2), dim3(16, 8)>>>(x, y, a, b, nx, ny, nz);
  reader<<<dim3(2, 2), dim3(16, 8)>>>(a, c, nx, ny, nz);
}
"#;

    pub(crate) fn space_for(src: &str) -> SearchSpace {
        space_for_device(src, DeviceSpec::k20x())
    }

    pub(crate) fn space_for_device(src: &str, device: DeviceSpec) -> SearchSpace {
        let p = parse_program(src).unwrap();
        let plan = ExecutablePlan::from_program(&p).unwrap();
        let profile = Profiler::analytic(device.clone()).profile(&p).unwrap();
        let decisions = identify_targets(
            &profile.metadata.perf,
            &profile.metadata.ops,
            &profile.metadata.device,
            &FilterConfig::default(),
        );
        SearchSpace::build(&p, &plan, &profile, &decisions, device).unwrap()
    }

    #[test]
    fn builds_units_and_products() {
        let space = space_for(SRC);
        // 2 originals + 2 products of `pair`.
        assert_eq!(space.units.len(), 4);
        let pair = &space.units[0];
        assert_eq!(pair.products.len(), 2);
        assert!(pair.fissionable());
        let prod = &space.units[pair.products[0]];
        assert_eq!(prod.parent, Some(0));
        assert!(prod.perf.dram_read_bytes > 0);
        assert!(prod.perf.dram_read_bytes < pair.perf.dram_read_bytes);
    }

    #[test]
    fn product_edges_connect_to_consumers() {
        let space = space_for(SRC);
        // The product owning `a` must have a flow edge to `reader` (unit 1);
        // the other product must not.
        let pair = &space.units[0];
        let mut saw_flow = 0;
        for &pid in &pair.products {
            if space.edges.contains_key(&(pid, 1)) {
                saw_flow += 1;
            }
        }
        assert_eq!(saw_flow, 1);
        // Parent-product and sibling edges are dropped.
        for &pid in &pair.products {
            assert!(!space.edges.contains_key(&(0, pid)));
            assert!(!space.edges.contains_key(&(pid, 0)));
        }
        assert!(!space
            .edges
            .contains_key(&(pair.products[0], pair.products[1])));
    }

    #[test]
    fn original_flow_edge_exists() {
        let space = space_for(SRC);
        assert!(space.edges.contains_key(&(0, 1)));
        assert!(!space.edges[&(0, 1)].hard);
    }

    /// A space with hand-made structure, for tests of the graph rules
    /// alone: `originals` eligible launches, `families[i] = (parent, n)`
    /// giving `parent` `n` fission products (ids appended in order, as
    /// `build` does), the given `(from, to, hard)` edges, and one host
    /// time loop per entry of `loops` over the listed originals. Every
    /// unit carries the metadata of one real launch, which the graph rules
    /// never read.
    pub(crate) fn synthetic_space(
        originals: usize,
        families: &[(usize, usize)],
        edges: &[(usize, usize, bool)],
        loops: &[Vec<usize>],
    ) -> SearchSpace {
        static TEMPLATE: std::sync::OnceLock<SearchSpace> = std::sync::OnceLock::new();
        let template = TEMPLATE.get_or_init(|| space_for(SRC));
        let loop_of = |u: usize| loops.iter().position(|l| l.contains(&u));
        let mut units: Vec<Unit> = (0..originals)
            .map(|id| Unit {
                id,
                mref: MemberRef::original(id),
                parent: None,
                products: Vec::new(),
                eligible: true,
                loop_id: loop_of(id),
                ..template.units[1].clone()
            })
            .collect();
        for &(parent, n) in families {
            for component in 0..n {
                let id = units.len();
                units[parent].products.push(id);
                units.push(Unit {
                    id,
                    mref: MemberRef::product(parent, component),
                    parent: Some(parent),
                    loop_id: units[parent].loop_id,
                    ..units[parent].clone()
                });
                units[id].products.clear();
            }
        }
        let facts = vec![template.facts[1].clone(); units.len()];
        SearchSpace {
            facts,
            units,
            edges: edges
                .iter()
                .map(|&(a, b, hard)| ((a, b), UnitEdge { hard }))
                .collect(),
            loops: loops
                .iter()
                .map(|l| LoopSpan {
                    count: 8,
                    units: l.clone(),
                })
                .collect(),
            ..template.clone()
        }
    }

    /// `temporal_group` as it was before it stopped allocating: sort both
    /// sides, compare.
    fn temporal_group_by_sorting(space: &SearchSpace, members: &[usize]) -> Option<usize> {
        if space.max_temporal < 2 || members.len() < 2 {
            return None;
        }
        if members
            .iter()
            .any(|&m| space.units[m].mref.fission_component.is_some())
        {
            return None;
        }
        let li = space.units[members[0]].loop_id?;
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        let mut loop_units = space.loops[li].units.clone();
        loop_units.sort_unstable();
        (sorted == loop_units).then_some(li)
    }

    proptest::proptest! {
        /// Any member list — unsorted, with repeats, with products, short
        /// or long of the loop body — gets the answer sorting gave.
        #[test]
        fn temporal_group_answers_as_the_sorting_version_did(
            members in proptest::collection::vec(0usize..9, 0..7),
            body_a in proptest::collection::vec(0usize..7, 0..5),
            cap in 1u32..4,
        ) {
            // Loop 0 over `body_a` (repeats and all), loop 1 over the
            // originals it left out; unit 6 has two products (7, 8).
            let body_b: Vec<usize> = (0..7).filter(|u| !body_a.contains(u)).collect();
            let mut space = synthetic_space(7, &[(6, 2)], &[], &[body_a, body_b]);
            space.max_temporal = cap;
            proptest::prop_assert_eq!(
                space.temporal_group(&members),
                temporal_group_by_sorting(&space, &members)
            );
            for body in [space.loops[0].units.clone(), space.loops[1].units.clone()] {
                let mut reversed = body.clone();
                reversed.reverse();
                for candidate in [body, reversed] {
                    proptest::prop_assert_eq!(
                        space.temporal_group(&candidate),
                        temporal_group_by_sorting(&space, &candidate)
                    );
                }
            }
        }
    }
}
