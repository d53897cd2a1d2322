//! The Order-of-Execution Graph.
//!
//! Nodes are kernel invocations (static launch ids); a directed edge i→j
//! says j must execute after i. Each edge records *why*, per shared array:
//!
//! - `flow` (read-after-write): fusable — complex fusion inserts barriers
//!   and halo loads (§5.5.3);
//! - `anti` (write-after-read) and `output` (write-after-write): hard
//!   precedence — fusing across them would let the overwrite race the
//!   neighboring-site reads of other threads;
//! - `transfer`: a host D2H/H2D copy pins the order — kernels on opposite
//!   sides cannot fuse.
//!
//! [`EdgeInfo::between`] is the one dependence rule: [`Oeg::build`] runs it
//! per launch pair and the search space per unit pair, so a fusion the
//! search proposes is never one these edges forbid. What a grouping must
//! satisfy over them — no hard edge inside a group, an acyclic quotient —
//! is the grouped GA's own check (`sf_search::genome::Quotient`).

use crate::build::LaunchAccesses;
use crate::ddg::Ddg;
use serde::{Deserialize, Serialize};
use sf_minicuda::host::TransferRecord;
use std::collections::{BTreeMap, BTreeSet};

/// Why an OEG edge exists (one reason per array; an edge aggregates them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub enum EdgeKind {
    Flow,
    Anti,
    Output,
    Transfer,
}

/// Aggregated dependence information on one OEG edge.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EdgeInfo {
    /// Arrays flowing (producer → consumer) along this edge.
    pub flow: BTreeSet<String>,
    /// Arrays with anti dependence.
    pub anti: BTreeSet<String>,
    /// Arrays with output dependence.
    pub output: BTreeSet<String>,
    /// Arrays pinned by a host transfer between the two launches.
    pub transfer: BTreeSet<String>,
}

impl EdgeInfo {
    /// Hard edges cannot be fused across.
    pub fn is_hard(&self) -> bool {
        !self.anti.is_empty() || !self.output.is_empty() || !self.transfer.is_empty()
    }

    /// True when the edge exists only because of data flow (fusable).
    pub fn is_flow_only(&self) -> bool {
        !self.flow.is_empty() && !self.is_hard()
    }

    /// The strongest kind, for display.
    pub fn kind(&self) -> EdgeKind {
        if !self.transfer.is_empty() {
            EdgeKind::Transfer
        } else if !self.output.is_empty() {
            EdgeKind::Output
        } else if !self.anti.is_empty() {
            EdgeKind::Anti
        } else {
            EdgeKind::Flow
        }
    }

    /// The dependence rule: what orders the later of two launches after
    /// the earlier one, `None` when nothing does. Each side is a host
    /// position (launch seq) and the access sets asked about there — the
    /// launch's own, or a fission product's at its parent's position.
    /// Dependences hold at the DDG's array-instance granularity (instances
    /// are numbered per host position), so a redundant instance relaxes the
    /// false ones; a host transfer between the two positions pins every
    /// array both sides touch.
    pub fn between(
        ddg: &Ddg,
        transfers: &[TransferRecord],
        (i, earlier): (usize, &LaunchAccesses),
        (j, later): (usize, &LaunchAccesses),
    ) -> Option<EdgeInfo> {
        let instance = |of: &BTreeMap<(usize, String), usize>, seq: usize, a: &String| {
            of.get(&(seq, a.clone())).copied().unwrap_or(0)
        };
        let read = |seq, a| instance(&ddg.read_instance, seq, a);
        let write = |seq, a| instance(&ddg.write_instance, seq, a);
        let mut info = EdgeInfo::default();
        // Flow: the earlier writes the instance the later reads.
        for a in earlier.writes.intersection(&later.reads) {
            if write(i, a) == read(j, a) {
                info.flow.insert(a.clone());
            }
        }
        // Anti: the earlier reads the instance the later overwrites.
        for a in earlier.reads.intersection(&later.writes) {
            if read(i, a) == write(j, a) {
                info.anti.insert(a.clone());
            }
        }
        // Output: both write the same instance.
        for a in earlier.writes.intersection(&later.writes) {
            if write(i, a) == write(j, a) {
                info.output.insert(a.clone());
            }
        }
        for t in transfers {
            let (array, pos) = match t {
                TransferRecord::ToDevice { array, before_seq } => (array, *before_seq),
                TransferRecord::ToHost { array, after_seq } => (array, *after_seq),
            };
            if i < pos && pos <= j && earlier.touches(array) && later.touches(array) {
                info.transfer.insert(array.clone());
            }
        }
        let ordered = !info.flow.is_empty() || info.is_hard();
        ordered.then_some(info)
    }
}

/// The order-of-execution graph.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Oeg {
    /// Kernel name per launch seq (node count = `kernels.len()`).
    pub kernels: Vec<String>,
    /// Edges i→j with i < j (host order resolves the direction, §3.2.3).
    pub edges: BTreeMap<(usize, usize), EdgeInfo>,
}

impl Oeg {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Build the OEG from access sets (at DDG array-instance granularity so
    /// redundant instances relax false dependences) and host transfers:
    /// [`EdgeInfo::between`] for every launch pair in host order.
    pub fn build(
        kernels: Vec<String>,
        accesses: &[LaunchAccesses],
        ddg: &Ddg,
        transfers: &[TransferRecord],
    ) -> Oeg {
        assert_eq!(kernels.len(), accesses.len());
        let mut edges = BTreeMap::new();
        for (i, earlier) in accesses.iter().enumerate() {
            for (j, later) in accesses.iter().enumerate().skip(i + 1) {
                if let Some(info) = EdgeInfo::between(ddg, transfers, (i, earlier), (j, later)) {
                    edges.insert((i, j), info);
                }
            }
        }
        Oeg { kernels, edges }
    }

    /// Successors of a node.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges.range((i, 0)..(i + 1, 0)).map(|(&(_, j), _)| j)
    }

    /// Is there a path i ⇝ j (i must be < j since edges go forward)?
    pub fn has_path(&self, i: usize, j: usize) -> bool {
        if i == j {
            return true;
        }
        if i > j {
            return false;
        }
        let mut stack = vec![i];
        let mut seen = vec![false; self.len()];
        while let Some(v) = stack.pop() {
            if v == j {
                return true;
            }
            if seen[v] {
                continue;
            }
            seen[v] = true;
            for s in self.successors(v) {
                if s <= j {
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Transitive reduction (for readable DOT output): drop an edge i→j if
    /// another path i ⇝ j exists.
    pub fn transitive_reduction(&self) -> Oeg {
        let mut reduced = self.clone();
        let keys: Vec<(usize, usize)> = self.edges.keys().copied().collect();
        for &(i, j) in &keys {
            // Temporarily remove and test for an alternative path.
            let info = reduced.edges.remove(&(i, j)).expect("edge exists");
            if !reduced.has_path(i, j) {
                reduced.edges.insert((i, j), info);
            }
        }
        reduced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::LaunchAccesses;

    fn acc(reads: &[&str], writes: &[&str]) -> LaunchAccesses {
        LaunchAccesses {
            reads: reads.iter().map(|s| s.to_string()).collect(),
            writes: writes.iter().map(|s| s.to_string()).collect(),
            full_writes: writes.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn build(accs: Vec<LaunchAccesses>) -> Oeg {
        let names = (0..accs.len()).map(|i| format!("k{i}")).collect();
        let ddg = Ddg::build(&accs);
        Oeg::build(names, &accs, &ddg, &[])
    }

    /// The rule asked about launches 0 and 1 of `accs` directly.
    fn between(accs: &[LaunchAccesses], transfers: &[TransferRecord]) -> Option<EdgeInfo> {
        let ddg = Ddg::build(accs);
        EdgeInfo::between(&ddg, transfers, (0, &accs[0]), (1, &accs[1]))
    }

    #[test]
    fn flow_edge_is_fusable() {
        let e = between(&[acc(&["u"], &["v"]), acc(&["v"], &["w"])], &[]).unwrap();
        assert!(e.is_flow_only() && !e.is_hard());
        assert!(e.flow.contains("v"));
        assert_eq!(e.kind(), EdgeKind::Flow);
    }

    #[test]
    fn independent_kernels_have_no_edge() {
        assert_eq!(
            between(&[acc(&["u"], &["v"]), acc(&["u"], &["w"])], &[]),
            None
        );
    }

    #[test]
    fn anti_and_output_edges_are_hard() {
        // k1 reads and writes x (accumulate): same instance → anti vs k0.
        let e = between(&[acc(&["x"], &["y"]), acc(&["z", "x"], &["x"])], &[]).unwrap();
        assert!(e.is_hard() && e.anti.contains("x"));
        assert_eq!(e.kind(), EdgeKind::Anti);
        // Both accumulate into s: output (and flow, and anti) on one instance.
        let e = between(&[acc(&["s"], &["s"]), acc(&["s"], &["s"])], &[]).unwrap();
        assert!(e.is_hard() && e.output.contains("s") && !e.is_flow_only());
        assert_eq!(e.kind(), EdgeKind::Output);
    }

    #[test]
    fn instance_splitting_relaxes_output_dep() {
        // k0 writes tmp, k1 reads tmp, k2 overwrites tmp.
        let oeg = build(vec![
            acc(&["a"], &["tmp"]),
            acc(&["tmp"], &["b"]),
            acc(&["c"], &["tmp"]),
        ]);
        // k0→k2 output dependence removed by instance split, but k1→k2 anti
        // (k1 reads instance 0, k2 writes instance 1 → different instances,
        // so no edge at all).
        assert!(!oeg.edges.contains_key(&(0, 2)));
        assert!(!oeg.edges.contains_key(&(1, 2)));
    }

    #[test]
    fn without_full_writes_scratch_reuse_stays_hard() {
        // The same three launches with no write offered as a full overwrite
        // (what `Precedence` does under a host time loop): one instance, so
        // the output and anti dependences on tmp stand.
        let mut accs = vec![
            acc(&["a"], &["tmp"]),
            acc(&["tmp"], &["b"]),
            acc(&["c"], &["tmp"]),
        ];
        for a in &mut accs {
            a.full_writes.clear();
        }
        let oeg = build(accs);
        assert!(oeg.edges[&(0, 2)].output.contains("tmp"));
        assert!(oeg.edges[&(1, 2)].anti.contains("tmp"));
    }

    #[test]
    fn a_product_asks_at_its_parents_position_with_its_own_sets() {
        // Launch 0 writes a and b, launch 1 reads a. The product of launch 0
        // that owns only b has no edge to launch 1; the one owning a has the
        // parent's flow edge.
        let accs = [acc(&["x", "y"], &["a", "b"]), acc(&["a"], &["c"])];
        let ddg = Ddg::build(&accs);
        let ask =
            |product: &LaunchAccesses| EdgeInfo::between(&ddg, &[], (0, product), (1, &accs[1]));
        assert_eq!(ask(&acc(&["y"], &["b"])), None);
        assert!(ask(&acc(&["x"], &["a"])).unwrap().is_flow_only());
    }

    #[test]
    fn transfer_pins_order() {
        let accs = [acc(&["a"], &["b"]), acc(&["a"], &["c"])];
        // D2H copy of `a` between the launches — both touch `a`.
        let between_them = [TransferRecord::ToHost {
            array: "a".into(),
            after_seq: 1,
        }];
        let e = between(&accs, &between_them).unwrap();
        assert!(e.is_hard() && e.transfer.contains("a"));
        assert_eq!(e.kind(), EdgeKind::Transfer);
        // The same copy after both launches (or before both) orders nothing.
        for pos in [0, 2] {
            let outside = [TransferRecord::ToHost {
                array: "a".into(),
                after_seq: pos,
            }];
            assert_eq!(between(&accs, &outside), None);
        }
    }

    #[test]
    fn transitive_reduction_drops_implied_edges() {
        // Chain a→b→c plus direct a→c flow (k0 writes x read by both).
        let oeg = build(vec![
            acc(&["a"], &["x"]),
            acc(&["x"], &["y"]),
            acc(&["x", "y"], &["z"]),
        ]);
        assert!(oeg.edges.contains_key(&(0, 2)));
        let red = oeg.transitive_reduction();
        assert!(!red.edges.contains_key(&(0, 2)));
        assert!(red.edges.contains_key(&(0, 1)));
        assert!(red.edges.contains_key(&(1, 2)));
    }

    #[test]
    fn has_path_transitive() {
        let oeg = build(vec![
            acc(&["a"], &["b"]),
            acc(&["b"], &["c"]),
            acc(&["c"], &["d"]),
        ]);
        assert!(oeg.has_path(0, 2));
        assert!(!oeg.has_path(2, 0));
    }
}
