//! The lock-order graph: held-while-acquiring edges over lock classes,
//! SCC cycle detection, and a deterministic DOT dump.
//!
//! Nodes are lock classes (`Owner.field`, see [`crate::locks`]); an edge
//! A→B means some function acquires B while holding a guard of A. Any
//! strongly connected component with more than one node — or a
//! self-loop — is a potential ABBA deadlock: two threads entering the
//! component from different sides can each hold the lock the other
//! wants. This mirrors the actor call graph in [`crate::graph`], one
//! layer down the stack, and shares its SCC routine.

use std::path::PathBuf;

use crate::graph::tarjan;
use crate::lint::{Finding, Rule};

/// One held-while-acquiring edge, with provenance for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockEdge {
    /// Class held at the acquisition point.
    pub from: String,
    /// Class being acquired.
    pub to: String,
    /// File containing the acquisition.
    pub file: PathBuf,
    /// Line of the acquisition.
    pub line: u32,
    /// Function (or `caller -> callee` for propagated edges) that
    /// witnessed the pair.
    pub via: String,
}

/// A directed graph over lock classes.
#[derive(Clone, Debug, Default)]
pub struct LockGraph {
    nodes: Vec<String>,
    edges: Vec<LockEdge>,
}

impl LockGraph {
    /// Builds a graph from the full class inventory plus the witnessed
    /// edges. Classes with no edges still appear as isolated DOT nodes,
    /// so the dump doubles as the lock-class table.
    pub fn new(mut nodes: Vec<String>, mut edges: Vec<LockEdge>) -> Self {
        nodes.sort();
        nodes.dedup();
        edges.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        edges.dedup_by(|a, b| a.from == b.from && a.to == b.to);
        LockGraph { nodes, edges }
    }

    /// Lock classes, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Held-while-acquiring edges, sorted by (from, to).
    pub fn edges(&self) -> &[LockEdge] {
        &self.edges
    }

    /// All lock-order cycles: SCCs of more than one class, plus
    /// self-loops. Each cycle lists its classes in DFS order.
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let index: std::collections::HashMap<&str, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            let (Some(&f), Some(&t)) = (index.get(e.from.as_str()), index.get(e.to.as_str()))
            else {
                continue;
            };
            if !adj[f].contains(&t) {
                adj[f].push(t);
            }
        }
        let mut cycles = Vec::new();
        for scc in tarjan(self.nodes.len(), &adj) {
            let cyclic = scc.len() > 1 || (scc.len() == 1 && adj[scc[0]].contains(&scc[0]));
            if cyclic {
                cycles.push(scc.iter().map(|&i| self.nodes[i].clone()).collect());
            }
        }
        cycles
    }

    /// One `lock-order-cycle` finding per cycle, anchored at the first
    /// witnessed edge inside the cycle.
    pub fn cycle_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for cycle in self.cycles() {
            let witness = self
                .edges
                .iter()
                .find(|e| cycle.contains(&e.from) && cycle.contains(&e.to));
            let Some(w) = witness else { continue };
            let mut ring = cycle.clone();
            ring.push(cycle[0].clone());
            out.push(Finding {
                rule: Rule::LockOrderCycle,
                file: w.file.clone(),
                line: w.line,
                excerpt: format!("edge {} -> {} via `{}`", w.from, w.to, w.via),
                detail: format!(
                    "lock-order cycle: {} — threads acquiring these classes in \
                     different orders can deadlock",
                    ring.join(" -> ")
                ),
                item: Some(w.via.clone()),
                class: Some(w.from.clone()),
            });
        }
        out
    }

    /// Renders the graph in Graphviz DOT, deterministically (nodes and
    /// edges sorted) so the output is golden-file testable. Edges are
    /// labeled with the witnessing function.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph lock_order {\n");
        out.push_str("    rankdir=LR;\n");
        out.push_str("    node [shape=box, fontname=\"monospace\"];\n");
        for name in &self.nodes {
            out.push_str(&format!("    \"{name}\";\n"));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "    \"{}\" -> \"{}\" [label=\"{}\"];\n",
                e.from, e.to, e.via
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(from: &str, to: &str) -> LockEdge {
        LockEdge {
            from: from.to_string(),
            to: to.to_string(),
            file: PathBuf::from("x.rs"),
            line: 1,
            via: "f".to_string(),
        }
    }

    #[test]
    fn acyclic_order_has_no_cycles() {
        let g = LockGraph::new(
            vec!["A.a".into(), "B.b".into(), "C.c".into()],
            vec![edge("A.a", "B.b"), edge("B.b", "C.c")],
        );
        assert!(g.cycles().is_empty());
        assert!(g.cycle_findings().is_empty());
    }

    #[test]
    fn abba_is_a_cycle() {
        let g = LockGraph::new(
            vec!["A.a".into(), "B.b".into()],
            vec![edge("A.a", "B.b"), edge("B.b", "A.a")],
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        let findings = g.cycle_findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::LockOrderCycle);
        assert!(findings[0].detail.contains("A.a"));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = LockGraph::new(vec!["A.a".into()], vec![edge("A.a", "A.a")]);
        assert_eq!(g.cycles(), vec![vec!["A.a".to_string()]]);
    }

    #[test]
    fn dot_lists_isolated_nodes_and_sorted_edges() {
        let g = LockGraph::new(
            vec!["Z.z".into(), "A.a".into(), "B.b".into()],
            vec![edge("B.b", "A.a")],
        );
        let dot = g.to_dot();
        let a = dot.find("\"A.a\";").unwrap();
        let z = dot.find("\"Z.z\";").unwrap();
        assert!(a < z, "nodes must be sorted:\n{dot}");
        assert!(dot.contains("\"B.b\" -> \"A.a\" [label=\"f\"];"));
    }
}
