//! DOT emission and parsing.
//!
//! The framework emits both graphs as DOT files the programmer can render
//! with GraphViz and *amend* (§3.2.3–3.2.4: "the programmer ... can amend
//! the OEG DOT file and have another run"). The parser accepts the emitted
//! dialect back, so the pipeline's intervention point is a real file-level
//! round trip.

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

/// A programmer-amended OEG read back from DOT: the node set with any
/// grouping clusters, plus the explicit precedence edges. Only the dialect
/// emitted by [`oeg_to_dot`] is accepted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedOeg {
    /// Node seqs in file order.
    pub nodes: Vec<usize>,
    /// Edges (i, j).
    pub edges: Vec<(usize, usize)>,
    /// Cluster groupings: group id → member seqs.
    pub groups: BTreeMap<usize, Vec<usize>>,
}

/// Parse the OEG DOT dialect emitted by [`oeg_to_dot`].
pub fn parse_oeg_dot(src: &str) -> Result<ParsedOeg, String> {
    let mut out = ParsedOeg::default();
    let mut current_cluster: Option<usize> = None;
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty()
            || line.starts_with("digraph")
            || line.starts_with('}')
            || line.starts_with("rankdir")
        {
            if line.starts_with('}') && current_cluster.is_some() {
                current_cluster = None;
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("subgraph cluster_") {
            let id: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            let g = id
                .parse::<usize>()
                .map_err(|_| format!("line {}: bad cluster id", lineno + 1))?;
            current_cluster = Some(g);
            out.groups.entry(g).or_default();
            continue;
        }
        let node_id = |tok: &str| -> Result<usize, String> {
            tok.trim()
                .trim_start_matches('k')
                .trim_end_matches(';')
                .parse::<usize>()
                .map_err(|_| format!("line {}: bad node `{tok}`", lineno + 1))
        };
        if let Some((from, to)) = line.split_once("->") {
            let i = node_id(from)?;
            let j = node_id(to.split('[').next().unwrap_or(to))?;
            out.edges.push((i, j));
        } else if line.starts_with('k') {
            let seq = node_id(line.split('[').next().unwrap_or(line))?;
            if let Some(g) = current_cluster {
                out.groups.entry(g).or_default().push(seq);
            } else if !out.nodes.contains(&seq) {
                out.nodes.push(seq);
            }
        } else if line.starts_with('}') {
            current_cluster = None;
        }
    }
    Ok(out)
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
    fn oeg_dot_round_trips() {
        let oeg = sample_oeg();
        let dot = oeg_to_dot(&oeg, Some(&[0, 0, 1]));
        let parsed = parse_oeg_dot(&dot).unwrap();
        assert_eq!(parsed.edges, vec![(0, 1)]);
        // Cluster 0 holds k0 and k1.
        assert_eq!(parsed.groups[&0], vec![0, 1]);
        // Nodes k0..k2 all present (k2 outside clusters).
        assert!(parsed.nodes.contains(&2));
    }

    #[test]
    fn edge_styles_encode_kinds() {
        let accs = vec![acc(&["x"], &["y"]), acc(&["z", "x"], &["x"])];
        let ddg = Ddg::build(&accs);
        let oeg = Oeg::build(vec!["a".into(), "b".into()], &accs, &ddg, &[]);
        let dot = oeg_to_dot(&oeg, None);
        assert!(dot.contains("style=dashed")); // anti
    }

    #[test]
    fn parse_rejects_garbage_nodes() {
        assert!(parse_oeg_dot("digraph OEG {\n  kX -> k1;\n}").is_err());
    }
}
