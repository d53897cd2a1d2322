//! The Data Dependency Graph (Algorithm 1).
//!
//! Vertices are kernel invocations and data arrays; an edge array→kernel
//! means the kernel reads the array, kernel→array means it writes it. Two
//! graph optimizations from §3.2.3 are applied:
//!
//! - **cycle resolution**: when kernel A reads X / writes Y while kernel B
//!   writes X / reads Y, the DDG contains a cycle; the OEG heuristic breaks
//!   it by the host invocation order, and the DDG records which edges were
//!   demoted;
//! - **redundant array instances**: an array written by several independent
//!   kernels (scratch reuse) is split into one instance per writer so the
//!   false output dependence does not constrain the search.

use crate::build::LaunchAccesses;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A DDG vertex.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DdgNode {
    /// A kernel invocation, by static launch id.
    Kernel(usize),
    /// A data array instance: base name plus instance number (0 unless the
    /// redundant-instance optimization split it).
    Array(String, usize),
}

impl DdgNode {
    /// Display label.
    pub fn label(&self, kernel_name: &dyn Fn(usize) -> String) -> String {
        match self {
            DdgNode::Kernel(seq) => format!("{}#{}", kernel_name(*seq), seq),
            DdgNode::Array(name, 0) => name.clone(),
            DdgNode::Array(name, inst) => format!("{name}'{inst}"),
        }
    }
}

/// The data dependency graph.
#[derive(Debug, Clone, PartialEq, Default)]
#[allow(missing_docs)] // fields/variants carry descriptive names; see the type doc
pub struct Ddg {
    pub nodes: Vec<DdgNode>,
    /// Directed edges (indices into `nodes`).
    pub edges: BTreeSet<(usize, usize)>,
    /// Which array instance each launch reads/writes, after instance
    /// splitting: (launch seq, base array) → instance.
    pub read_instance: BTreeMap<(usize, String), usize>,
    pub write_instance: BTreeMap<(usize, String), usize>,
    /// Report lines describing optimizations applied (shown to the
    /// programmer, §3.2.3).
    pub report: Vec<String>,
}

impl Ddg {
    /// Build the DDG from per-launch access sets (Algorithm 1), applying
    /// the redundant-instance optimization.
    pub fn build(accesses: &[LaunchAccesses]) -> Ddg {
        let mut ddg = Ddg::default();
        let mut node_of: BTreeMap<DdgNode, usize> = BTreeMap::new();

        let intern = |nodes: &mut Vec<DdgNode>,
                      node_of: &mut BTreeMap<DdgNode, usize>,
                      n: DdgNode|
         -> usize {
            if let Some(&i) = node_of.get(&n) {
                return i;
            }
            nodes.push(n.clone());
            node_of.insert(n, nodes.len() - 1);
            nodes.len() - 1
        };

        // Current live instance of each array: bumped whenever a launch
        // overwrites an array previously written by an *unrelated* launch.
        let mut live_instance: BTreeMap<String, usize> = BTreeMap::new();
        // Which launches wrote/read the live instance so far.
        let mut live_writers: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        let mut live_readers: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();

        for (seq, acc) in accesses.iter().enumerate() {
            let k = intern(&mut ddg.nodes, &mut node_of, DdgNode::Kernel(seq));
            for r in &acc.reads {
                let inst = *live_instance.entry(r.clone()).or_insert(0);
                let a = intern(
                    &mut ddg.nodes,
                    &mut node_of,
                    DdgNode::Array(r.clone(), inst),
                );
                ddg.edges.insert((a, k));
                ddg.read_instance.insert((seq, r.clone()), inst);
                live_readers.entry(r.clone()).or_default().insert(seq);
            }
            for w in &acc.writes {
                let mut inst = *live_instance.entry(w.clone()).or_insert(0);
                // Redundant-instance optimization: a fresh (non-reading)
                // overwrite of an array someone else already wrote starts a
                // new instance, breaking the false WAW/WAR chain.
                let overwrite = acc.full_writes.contains(w)
                    && !acc.reads.contains(w)
                    && live_writers
                        .get(w)
                        .map(|ws| !ws.is_empty() && !ws.contains(&seq))
                        .unwrap_or(false);
                if overwrite {
                    inst += 1;
                    live_instance.insert(w.clone(), inst);
                    live_writers.remove(w);
                    live_readers.remove(w);
                    ddg.report.push(format!(
                        "array `{w}`: added redundant instance {inst} at launch {seq} \
                         to relax write-after-write dependencies"
                    ));
                }
                let a = intern(
                    &mut ddg.nodes,
                    &mut node_of,
                    DdgNode::Array(w.clone(), inst),
                );
                ddg.edges.insert((k, a));
                ddg.write_instance.insert((seq, w.clone()), inst);
                live_writers.entry(w.clone()).or_default().insert(seq);
            }
        }

        // Report cycles at array-instance granularity (A writes X reads Y,
        // B writes Y reads X). The OEG resolves them by host order; here we
        // just surface them.
        for (seq, acc) in accesses.iter().enumerate() {
            for (other_seq, other) in accesses.iter().enumerate().skip(seq + 1) {
                let a_w_b_r: Vec<&String> = acc.writes.intersection(&other.reads).collect();
                let b_w_a_r: Vec<&String> = other.writes.intersection(&acc.reads).collect();
                if !a_w_b_r.is_empty() && !b_w_a_r.is_empty() {
                    ddg.report.push(format!(
                        "cycle between launches {seq} and {other_seq} (via {:?} and {:?}); \
                         resolved by host invocation order",
                        a_w_b_r, b_w_a_r
                    ));
                }
            }
        }
        ddg
    }

    /// Number of kernel nodes.
    pub fn kernel_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, DdgNode::Kernel(_)))
            .count()
    }

    /// Number of array-instance nodes.
    pub fn array_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, DdgNode::Array(..)))
            .count()
    }

    /// The *array sharing sets*: for every array instance read by two or
    /// more launches (or written by one and read by others), the set of
    /// launches that could share it through fusion. This is the "number of
    /// array sharing sets" attribute of Table 1.
    pub fn array_sharing_sets(&self) -> Vec<(String, BTreeSet<usize>)> {
        let mut sharers: BTreeMap<(String, usize), BTreeSet<usize>> = BTreeMap::new();
        for ((seq, name), inst) in self
            .read_instance
            .iter()
            .chain(self.write_instance.iter())
            .map(|((s, n), i)| ((*s, n.clone()), *i))
        {
            sharers.entry((name.clone(), inst)).or_default().insert(seq);
        }
        sharers
            .into_iter()
            .filter(|(_, s)| s.len() > 1)
            .map(|((name, inst), s)| {
                let label = if inst == 0 {
                    name
                } else {
                    format!("{name}'{inst}")
                };
                (label, s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(reads: &[&str], writes: &[&str]) -> LaunchAccesses {
        LaunchAccesses {
            reads: reads.iter().map(|s| s.to_string()).collect(),
            writes: writes.iter().map(|s| s.to_string()).collect(),
            // Tests model full-domain writers (the common stencil case).
            full_writes: writes.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn builds_bipartite_edges() {
        let ddg = Ddg::build(&[acc(&["u"], &["v"]), acc(&["v"], &["w"])]);
        assert_eq!(ddg.kernel_count(), 2);
        assert_eq!(ddg.array_count(), 3);
        // u → k0 → v → k1 → w
        assert_eq!(ddg.edges.len(), 4);
    }

    #[test]
    fn sharing_sets_found() {
        let ddg = Ddg::build(&[acc(&["u"], &["v"]), acc(&["u", "v"], &["w"])]);
        let sets = ddg.array_sharing_sets();
        assert_eq!(sets.len(), 2); // u shared, v shared
        let u = sets.iter().find(|(n, _)| n == "u").unwrap();
        assert_eq!(u.1.len(), 2);
    }

    #[test]
    fn redundant_instance_splits_scratch_reuse() {
        // k0 writes tmp; k1 reads tmp; k2 overwrites tmp (scratch reuse);
        // k3 reads tmp. k2's write starts instance 1.
        let ddg = Ddg::build(&[
            acc(&["a"], &["tmp"]),
            acc(&["tmp"], &["b"]),
            acc(&["c"], &["tmp"]),
            acc(&["tmp"], &["d"]),
        ]);
        assert_eq!(ddg.write_instance[&(0, "tmp".to_string())], 0);
        assert_eq!(ddg.read_instance[&(1, "tmp".to_string())], 0);
        assert_eq!(ddg.write_instance[&(2, "tmp".to_string())], 1);
        assert_eq!(ddg.read_instance[&(3, "tmp".to_string())], 1);
        assert!(ddg.report.iter().any(|r| r.contains("redundant instance")));
    }

    #[test]
    fn cycle_is_reported() {
        // A reads X writes Y; B reads Y writes X.
        let ddg = Ddg::build(&[acc(&["x"], &["y"]), acc(&["y"], &["x"])]);
        assert!(ddg.report.iter().any(|r| r.contains("cycle")));
    }

    #[test]
    fn rmw_does_not_split_instances() {
        // Accumulation across kernels (read+write) must keep one instance.
        let ddg = Ddg::build(&[acc(&["a"], &["s"]), acc(&["b", "s"], &["s"])]);
        assert_eq!(ddg.write_instance[&(1, "s".to_string())], 0);
    }
}
