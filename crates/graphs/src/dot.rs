//! DOT emission.
//!
//! The framework emits both graphs as DOT files the programmer can render
//! with GraphViz (§3.2.3–3.2.4). DOT is output only: an amended grouping
//! comes back as a transform plan (`--from-plan`, the `amend_plan` hook).

use crate::ddg::{Ddg, DdgNode};
use crate::oeg::{EdgeKind, Oeg};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render a DDG as DOT. Kernel nodes are boxes, array nodes ellipses.
pub fn ddg_to_dot(ddg: &Ddg, kernel_name: &dyn Fn(usize) -> String) -> String {
    let mut out = String::from("digraph DDG {\n  rankdir=TB;\n");
    for (i, n) in ddg.nodes.iter().enumerate() {
        let (shape, label) = match n {
            DdgNode::Kernel(_) => ("box", n.label(kernel_name)),
            DdgNode::Array(..) => ("ellipse", n.label(kernel_name)),
        };
        let _ = writeln!(out, "  n{i} [shape={shape}, label=\"{label}\"];");
    }
    for &(a, b) in &ddg.edges {
        let _ = writeln!(out, "  n{a} -> n{b};");
    }
    out.push_str("}\n");
    out
}

/// Render an OEG as DOT. Edge styles encode the dependence kind; fissions
/// and fusions in a *new* OEG can be drawn by passing the grouping.
pub fn oeg_to_dot(oeg: &Oeg, group_of: Option<&[usize]>) -> String {
    let mut out = String::from("digraph OEG {\n  rankdir=TB;\n");
    // Group clusters (red dotted boxes in the paper's Figure 1).
    if let Some(groups) = group_of {
        let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (seq, &g) in groups.iter().enumerate() {
            members.entry(g).or_default().push(seq);
        }
        for (g, seqs) in members {
            if seqs.len() > 1 {
                let _ = writeln!(out, "  subgraph cluster_{g} {{ style=dotted; color=red;");
                for s in seqs {
                    let _ = writeln!(out, "    k{s};");
                }
                out.push_str("  }\n");
            }
        }
    }
    for (seq, name) in oeg.kernels.iter().enumerate() {
        let _ = writeln!(out, "  k{seq} [shape=box, label=\"{name}#{seq}\"];");
    }
    for (&(i, j), info) in &oeg.edges {
        let style = match info.kind() {
            EdgeKind::Flow => "solid",
            EdgeKind::Anti => "dashed",
            EdgeKind::Output => "bold",
            EdgeKind::Transfer => "dotted",
        };
        let arrays: Vec<&str> = info
            .flow
            .iter()
            .chain(&info.anti)
            .chain(&info.output)
            .chain(&info.transfer)
            .map(|s| s.as_str())
            .collect();
        let _ = writeln!(
            out,
            "  k{i} -> k{j} [style={style}, label=\"{}\"];",
            arrays.join(",")
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::LaunchAccesses;
    use crate::ddg::Ddg;

    fn acc(reads: &[&str], writes: &[&str]) -> LaunchAccesses {
        LaunchAccesses {
            reads: reads.iter().map(|s| s.to_string()).collect(),
            writes: writes.iter().map(|s| s.to_string()).collect(),
            full_writes: writes.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn sample_oeg() -> Oeg {
        let accs = vec![
            acc(&["a"], &["b"]),
            acc(&["b"], &["c"]),
            acc(&["a"], &["d"]),
        ];
        let ddg = Ddg::build(&accs);
        Oeg::build(
            vec!["k0".into(), "k1".into(), "k2".into()],
            &accs,
            &ddg,
            &[],
        )
    }

    #[test]
    fn ddg_dot_mentions_all_nodes() {
        let accs = vec![acc(&["u"], &["v"]), acc(&["v"], &["w"])];
        let ddg = Ddg::build(&accs);
        let dot = ddg_to_dot(&ddg, &|s| format!("k{s}"));
        for label in ["k0#0", "k1#1", "\"u\"", "\"v\"", "\"w\""] {
            assert!(dot.contains(label), "missing {label} in:\n{dot}");
        }
    }

    #[test]
    fn oeg_dot_draws_edges_and_fusion_clusters() {
        let oeg = sample_oeg();
        let dot = oeg_to_dot(&oeg, Some(&[0, 0, 1]));
        let edges: Vec<&str> = dot.lines().filter(|l| l.contains(" -> ")).collect();
        assert_eq!(edges, ["  k0 -> k1 [style=solid, label=\"b\"];"]);
        // Cluster 0 holds k0 and k1; the singleton group draws no cluster.
        assert!(dot
            .contains("  subgraph cluster_0 { style=dotted; color=red;\n    k0;\n    k1;\n  }\n"));
        assert!(!dot.contains("cluster_1"));
        for seq in 0..3 {
            assert!(dot.contains(&format!("  k{seq} [shape=box, label=\"k{seq}#{seq}\"];")));
        }
    }

    #[test]
    fn edge_styles_encode_kinds() {
        let accs = vec![acc(&["x"], &["y"]), acc(&["z", "x"], &["x"])];
        let ddg = Ddg::build(&accs);
        let oeg = Oeg::build(vec!["a".into(), "b".into()], &accs, &ddg, &[]);
        let dot = oeg_to_dot(&oeg, None);
        assert!(dot.contains("style=dashed")); // anti
    }
}
