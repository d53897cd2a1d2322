//! The search space: units (original target launches plus their precomputed
//! fission products), their metadata, and the unit-level precedence graph.
//!
//! The *lazy fission pre-step* lives here. Every unit is read through
//! codegen's [`Resolver`] — the kernel and storage-bound launch codegen
//! emits for it — originals and the fission products of each eligible
//! launch whose kernel has separable data arrays alike. Each product is
//! priced alone from its launch ([`Profiler::profile_launch`], analytically:
//! the codeless objective only needs metadata) and joins the unit list; no
//! program is transformed or executed. The GA starts with the originals
//! active; a fission move swaps an original for its products.

use sf_analysis::access::KernelAccess;
use sf_analysis::filter::FilterDecision;
use sf_analysis::metadata::{MetadataBundle, OpsMetadata, PerfMetadata};
use sf_codegen::hostgen::declared_alloc;
use sf_codegen::legality::{self, ArrayIds, Decision, MemberFacts};
use sf_codegen::{CodegenError, Resolver, Storage, TemporalChain};
use sf_gpusim::device::DeviceSpec;
use sf_gpusim::profiler::{ProfileError, Profiler, ProgramProfile};
use sf_graphs::build::{launch_accesses, LaunchAccesses};
use sf_graphs::{EdgeInfo, Precedence};
use sf_minicuda::ast::Program;
use sf_minicuda::host::{parse_instance, ExecutablePlan};
use sf_plan::{CodegenMode, MemberRef};
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
    parse_instance(name)
        .map_or(name, |(base, _)| base)
        .to_string()
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
    /// What codegen stages to fold the body, or why it never folds it.
    pub chain: Result<TemporalChain, CodegenError>,
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
    /// ([`SearchSpace::decision`]), computed once.
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

    /// Whether and how the code generator fuses `members` (two or more
    /// units) into one kernel: `sf_codegen`'s block-independent
    /// [`legality::check`], asked of the members' facts in execution order.
    pub fn decision(&self, members: &[usize]) -> Result<Decision, CodegenError> {
        let mut ordered: Vec<(usize, Option<usize>, &MemberFacts)> = members
            .iter()
            .map(|&u| {
                let m = self.units[u].mref;
                (m.seq, m.fission_component, &self.facts[u])
            })
            .collect();
        ordered.sort_unstable_by_key(|&(seq, component, _)| (seq, component));
        let facts: Vec<&MemberFacts> = ordered.into_iter().map(|(_, _, f)| f).collect();
        legality::check(&facts, self.mode, &self.arrays)
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
        let metadata = &profile.metadata;
        Self::from_precedence(program, plan, metadata, decisions, device, &precedence)
    }

    /// Build the space over the precedence model the graphs stage made of
    /// `(program, plan)`: units take its access sets, unit edges its
    /// dependence rule, and the original launches `metadata`'s rows.
    ///
    /// `decisions` must be parallel to `plan.launches`.
    pub fn from_precedence(
        program: &Program,
        plan: &ExecutablePlan,
        metadata: &MetadataBundle,
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

        // Every unit is read as codegen reads the member: its kernel (a
        // fission product's own) and its launch bound to the storage it
        // executes on.
        let storage = Storage::new(&precedence.ddg);
        let mut resolver = Resolver::new(program, plan, &storage);
        let bound: Vec<_> = plan
            .launches
            .iter()
            .map(|launch| resolver.resolve(&MemberRef::original(launch.seq)))
            .collect::<Result<_, _>>()
            .map_err(|e| ProfileError::msg(e.0))?;
        let mut arrays = ArrayIds::default();
        let mut facts: Vec<MemberFacts> = Vec::new();
        let mut units: Vec<Unit> = Vec::new();
        for launch in &plan.launches {
            let seq = launch.seq;
            facts.push(MemberFacts::of(&bound[seq].0, &bound[seq].1, &mut arrays));
            units.push(Unit {
                id: seq,
                label: format!("{}#{}", launch.kernel, seq),
                mref: MemberRef::original(seq),
                parent: None,
                products: Vec::new(),
                eligible: decisions[seq].is_target(),
                perf: metadata.perf[seq].clone(),
                ops: metadata.ops[seq].clone(),
                accesses: accesses[seq].clone(),
                blocks: launch.grid.count(),
                threads_per_block: launch.block.count() as u32,
                repeat: launch.repeat,
                loop_id: loop_of.get(&seq).copied(),
            });
        }

        // ---- lazy fission pre-step ----
        // Every fissionable target's products join the unit list, each
        // priced alone from its own launch (analytically — the codeless
        // objective only needs metadata).
        let profiler = Profiler::analytic(device.clone());
        let alloc_of = |array: &str| declared_alloc(plan, array);
        for seq in (0..plan.launches.len()).filter(|&seq| decisions[seq].is_target()) {
            let product = |c| resolver.resolve(&MemberRef::product(seq, c)).ok();
            for (component, (kernel, launch)) in (0..).map_while(product).enumerate() {
                facts.push(MemberFacts::of(&kernel, &launch, &mut arrays));
                let ka = KernelAccess::analyze(&kernel)?;
                let (perf, mut ops, _) =
                    profiler.profile_launch(&kernel, &ka, &launch, &alloc_of, None)?;
                // A product runs on redundant-instance storage (`x__i0`);
                // normalize back to base names so product units compare
                // like-for-like with original units.
                ops.bytes_per_array = ops
                    .bytes_per_array
                    .into_iter()
                    .map(|(k, v)| (debase(&k), v))
                    .collect();
                let acc = launch_accesses(&kernel, &launch, None);
                let accesses = LaunchAccesses {
                    reads: acc.reads.iter().map(|a| debase(a)).collect(),
                    writes: acc.writes.iter().map(|a| debase(a)).collect(),
                    full_writes: acc.full_writes.iter().map(|a| debase(a)).collect(),
                };
                let id = units.len();
                units[seq].products.push(id);
                units.push(Unit {
                    id,
                    label: format!("{}#{}", launch.kernel, seq),
                    mref: MemberRef::product(seq, component),
                    parent: Some(seq),
                    products: Vec::new(),
                    eligible: true,
                    perf,
                    ops,
                    accesses,
                    blocks: launch.grid.count(),
                    threads_per_block: launch.block.count() as u32,
                    repeat: units[seq].repeat,
                    loop_id: units[seq].loop_id,
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
            .map(|l| {
                let body: Vec<_> = l
                    .seqs
                    .iter()
                    .map(|&s| (&*bound[s].0, &*bound[s].1))
                    .collect();
                LoopSpan {
                    count: l.count,
                    units: l.seqs.clone(),
                    chain: TemporalChain::new(&body, &plan.allocs),
                }
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
        space_of(&parse_program(src).unwrap(), device)
    }

    fn space_of(p: &Program, device: DeviceSpec) -> SearchSpace {
        let plan = ExecutablePlan::from_program(p).unwrap();
        let profile = Profiler::analytic(device.clone()).profile(p).unwrap();
        let decisions = identify_targets(
            &profile.metadata.perf,
            &profile.metadata.ops,
            &profile.metadata.device,
            &FilterConfig::default(),
        );
        SearchSpace::build(p, &plan, &profile, &decisions, device).unwrap()
    }

    /// Each product unit, priced alone from the launch codegen's resolver
    /// binds, reads as the whole program codegen emits when it fissions
    /// every fissionable target does under an analytic profile — the way
    /// the space once read its products. The emitted program numbers its
    /// launches afresh, so `seq` is the only field taken from the unit.
    /// Returns the number of products checked and how many of them run on
    /// a redundant array instance.
    fn products_read_as_the_fissioned_program(p: &Program) -> (usize, usize) {
        use sf_codegen::transform_program_with;
        use sf_core::FaultPlan;
        use sf_graphs::build::all_accesses;
        use sf_plan::{GroupPlan, TransformPlan};

        let device = DeviceSpec::k20x();
        let space = space_of(p, device.clone());
        let plan = ExecutablePlan::from_program(p).unwrap();
        let originals = space.units.iter().filter(|u| u.parent.is_none());
        let members: Vec<(usize, MemberRef)> = originals
            .flat_map(|u| match u.fissionable() {
                true => u
                    .products
                    .iter()
                    .map(|&id| (id, space.units[id].mref))
                    .collect(),
                false => vec![(u.id, u.mref)],
            })
            .collect();
        let groups = members
            .iter()
            .map(|&(_, m)| GroupPlan::singleton(m))
            .collect();
        let tplan = TransformPlan::new(device.clone(), CodegenMode::Auto, false, groups);
        let ddg = Precedence::build(p, &plan).unwrap().ddg;
        let out = transform_program_with(p, &plan, &tplan, &ddg, &FaultPlan::none()).unwrap();
        let emitted = ExecutablePlan::from_program(&out.program).unwrap();
        let oracle = Profiler::analytic(device)
            .profile_with_plan(&out.program, &emitted)
            .unwrap()
            .metadata;
        let accesses = all_accesses(&out.program, &emitted.launches).unwrap();
        assert_eq!(emitted.launches.len(), members.len());
        let debased =
            |set: &std::collections::BTreeSet<String>| set.iter().map(|a| debase(a)).collect();
        let (mut checked, mut instanced) = (0, 0);
        for (idx, &(id, mref)) in members.iter().enumerate() {
            if mref.fission_component.is_none() {
                continue;
            }
            let unit = &space.units[id];
            let perf = PerfMetadata {
                seq: unit.perf.seq,
                ..oracle.perf[idx].clone()
            };
            assert_eq!(unit.perf, perf, "{}", unit.label);
            let ops = OpsMetadata {
                seq: unit.ops.seq,
                ..oracle.ops[idx].clone()
            };
            let bytes = &ops.bytes_per_array;
            instanced += usize::from(bytes.keys().any(|a| parse_instance(a).is_some()));
            let bytes_per_array = bytes.iter().map(|(a, &v)| (debase(a), v)).collect();
            let expected = OpsMetadata {
                bytes_per_array,
                ..ops
            };
            assert_eq!(unit.ops, expected, "{}", unit.label);
            let acc = &accesses[idx];
            let expected = LaunchAccesses {
                reads: debased(&acc.reads),
                writes: debased(&acc.writes),
                full_writes: debased(&acc.full_writes),
            };
            assert_eq!(unit.accesses, expected, "{}", unit.label);
            checked += 1;
        }
        (checked, instanced)
    }

    #[test]
    fn a_product_priced_alone_reads_as_the_fissioned_program() {
        let fat = parse_program(crate::objective::fission_benefit_tests::FAT).unwrap();
        assert_eq!(products_read_as_the_fissioned_program(&fat), (2, 0));
        // `over` rewrites `a` after `reader` consumed it, so `pair`'s
        // product writing `a` runs on the redundant instance `a__i0`.
        let over = r#"
__global__ void over(const double* __restrict__ y, double* a, int nx, int ny, int nz) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      a[k][j][i] = y[k][j][i] * 3.0;
    }
  }
}
"#;
        let reader = "  reader<<<dim3(2, 2), dim3(16, 8)>>>(a, c, nx, ny, nz);\n";
        let launch = "  over<<<dim3(2, 2), dim3(16, 8)>>>(y, a, nx, ny, nz);\n";
        let host = SRC.replace(reader, &format!("{reader}{launch}"));
        let instanced = parse_program(&format!("{over}{host}")).unwrap();
        assert_eq!(products_read_as_the_fissioned_program(&instanced), (2, 1));
        let config = sf_apps::AppConfig::test();
        let products: usize = (sf_apps::APP_NAMES.iter())
            .map(|name| sf_apps::app_by_name(name, &config).unwrap().program)
            .map(|program| products_read_as_the_fissioned_program(&program).0)
            .sum();
        assert!(products > 0, "no analog has a fission product");
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
                    chain: Err(CodegenError("no kernels".into())),
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
