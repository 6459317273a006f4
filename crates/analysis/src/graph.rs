//! The actor call graph: construction, cycle detection, and DOT rendering.
//!
//! Nodes are actor type names; edges come from
//! [`aodb_runtime::Actor::declared_calls`] (or from a fixture edge list —
//! see [`CallGraph::parse_edge_list`]). The analysis of interest is
//! *reentrancy-deadlock* detection: under turn-based execution a cycle of
//! synchronous [`CallKind::Call`] edges deadlocks, because every actor on
//! the cycle is blocking its only turn waiting on the next one. Tarjan's
//! SCC algorithm finds all such cycles in one linear pass.

use std::collections::HashMap;

use aodb_runtime::{ActorTopology, CallDecl, CallKind};

/// Display name of the synthetic wildcard node (see [`CallDecl::ANY`]):
/// the target of edges whose concrete actor type is chosen at runtime
/// (2PC participants, workflow step recipients).
pub const ANY_NODE: &str = "(any)";

/// One edge of the call graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Source actor type name.
    pub from: String,
    /// Target actor type name ([`ANY_NODE`] for wildcard edges).
    pub to: String,
    /// Synchronous call or asynchronous send.
    pub kind: CallKind,
}

/// A directed multigraph over actor type names.
#[derive(Default, Clone, Debug)]
pub struct CallGraph {
    nodes: Vec<String>,
    index: HashMap<String, usize>,
    edges: Vec<Edge>,
}

impl CallGraph {
    /// An empty graph.
    pub fn new() -> Self {
        CallGraph::default()
    }

    /// Builds a graph from exported topology rows (e.g. the concatenation
    /// of `aodb_shm::call_topology()`, `aodb_cattle::call_topology()`, and
    /// `aodb_core::call_topology()`).
    pub fn from_topology(rows: impl IntoIterator<Item = ActorTopology>) -> Self {
        let mut g = CallGraph::new();
        for row in rows {
            g.add_node(row.name);
            for decl in row.calls {
                g.add_edge(row.name, decl.to, decl.kind);
            }
        }
        g
    }

    /// Adds a node (idempotent); returns its index.
    pub fn add_node(&mut self, name: &str) -> usize {
        let name = normalize(name);
        if let Some(&i) = self.index.get(name.as_str()) {
            return i;
        }
        let i = self.nodes.len();
        self.index.insert(name.clone(), i);
        self.nodes.push(name);
        i
    }

    /// Adds an edge, creating endpoints as needed.
    pub fn add_edge(&mut self, from: &str, to: &str, kind: CallKind) {
        self.add_node(from);
        self.add_node(to);
        let edge = Edge {
            from: normalize(from),
            to: normalize(to),
            kind,
        };
        if !self.edges.contains(&edge) {
            self.edges.push(edge);
        }
    }

    /// Node names, in insertion order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Parses a fixture edge list: one `from (call|send) to` triple per
    /// line, `#` comments and blank lines ignored. Used to feed
    /// deliberately bad graphs to `aodb-lint` in tests.
    pub fn parse_edge_list(text: &str) -> Result<CallGraph, String> {
        let mut g = CallGraph::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (from, kind, to) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(f), Some(k), Some(t), None) => (f, k, t),
                _ => {
                    return Err(format!(
                        "line {}: expected `FROM call|send TO`, got `{line}`",
                        lineno + 1
                    ))
                }
            };
            let kind = match kind {
                "call" => CallKind::Call,
                "send" => CallKind::Send,
                other => {
                    return Err(format!(
                        "line {}: unknown edge kind `{other}` (expected `call` or `send`)",
                        lineno + 1
                    ))
                }
            };
            g.add_edge(from, to, kind);
        }
        Ok(g)
    }

    /// Finds all synchronous-call cycles: strongly connected components of
    /// the `Call`-edge subgraph with more than one node, plus `Call`
    /// self-loops. Each cycle is returned as the list of actor names on
    /// it, in graph order. An empty result means the declared topology is
    /// reentrancy-deadlock-free.
    ///
    /// A `Call` edge to the wildcard node is treated conservatively: the
    /// wildcard can stand for any actor, so such an edge is expanded to a
    /// `Call` edge to *every* node before the SCC pass.
    pub fn call_cycles(&self) -> Vec<Vec<String>> {
        let n = self.nodes.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let any = self.index.get(ANY_NODE).copied();
        for e in &self.edges {
            if e.kind != CallKind::Call {
                continue;
            }
            let from = self.index[e.from.as_str()];
            let to = self.index[e.to.as_str()];
            if Some(to) == any {
                // `call` to a dynamically chosen target: may reach anyone.
                for t in 0..n {
                    if !adj[from].contains(&t) {
                        adj[from].push(t);
                    }
                }
            } else if !adj[from].contains(&to) {
                adj[from].push(to);
            }
        }
        let sccs = tarjan(n, &adj);
        let mut cycles = Vec::new();
        for scc in sccs {
            let cyclic = scc.len() > 1 || (scc.len() == 1 && adj[scc[0]].contains(&scc[0]));
            if cyclic {
                cycles.push(scc.iter().map(|&i| self.nodes[i].clone()).collect());
            }
        }
        cycles
    }

    /// Renders the graph in Graphviz DOT, deterministically (nodes and
    /// edges sorted by name) so the output is golden-file testable.
    /// Synchronous calls are solid red edges; asynchronous sends are
    /// dashed gray.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph actor_calls {\n");
        out.push_str("    rankdir=LR;\n");
        out.push_str("    node [shape=box, fontname=\"monospace\"];\n");
        let mut names: Vec<&str> = self.nodes.iter().map(String::as_str).collect();
        names.sort_unstable();
        for name in &names {
            if *name == ANY_NODE {
                out.push_str(&format!(
                    "    \"{name}\" [style=dashed, label=\"any actor\\n(dynamic recipient)\"];\n"
                ));
            } else {
                out.push_str(&format!("    \"{name}\";\n"));
            }
        }
        let mut edges: Vec<&Edge> = self.edges.iter().collect();
        edges.sort_unstable_by_key(|e| (e.from.clone(), e.to.clone(), e.kind != CallKind::Call));
        for e in edges {
            let attrs = match e.kind {
                CallKind::Call => "color=red, label=\"call\"",
                CallKind::Send => "style=dashed, color=gray40, label=\"send\"",
            };
            out.push_str(&format!("    \"{}\" -> \"{}\" [{attrs}];\n", e.from, e.to));
        }
        out.push_str("}\n");
        out
    }
}

/// Maps the runtime's wildcard marker to its display node name.
fn normalize(name: &str) -> String {
    if name == CallDecl::ANY {
        ANY_NODE.to_string()
    } else {
        name.to_string()
    }
}

/// Iterative Tarjan SCC. Returns components in reverse topological order;
/// node order inside a component follows the DFS stack.
pub(crate) fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut state = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false
        };
        n
    ];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;

    for start in 0..n {
        if state[start].visited {
            continue;
        }
        // Explicit DFS frame: (node, next-neighbour cursor).
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor == 0 {
                state[v].visited = true;
                state[v].index = counter;
                state[v].lowlink = counter;
                counter += 1;
                stack.push(v);
                state[v].on_stack = true;
            }
            if let Some(&w) = adj[v].get(*cursor) {
                *cursor += 1;
                if !state[w].visited {
                    frames.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
                }
                if state[v].lowlink == state[v].index {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        state[w].on_stack = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.reverse();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_loop_is_a_call_cycle() {
        let mut g = CallGraph::new();
        g.add_edge("a", "a", CallKind::Call);
        assert_eq!(g.call_cycles(), vec![vec!["a".to_string()]]);
    }

    #[test]
    fn send_self_loop_is_fine() {
        let mut g = CallGraph::new();
        g.add_edge("a", "a", CallKind::Send);
        assert!(g.call_cycles().is_empty());
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = CallGraph::new();
        g.add_edge("a", "b", CallKind::Call);
        g.add_edge("b", "a", CallKind::Call);
        let cycles = g.call_cycles();
        assert_eq!(cycles.len(), 1);
        let mut members = cycles[0].clone();
        members.sort();
        assert_eq!(members, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn diamond_has_no_cycle() {
        let mut g = CallGraph::new();
        g.add_edge("top", "left", CallKind::Call);
        g.add_edge("top", "right", CallKind::Call);
        g.add_edge("left", "bottom", CallKind::Call);
        g.add_edge("right", "bottom", CallKind::Call);
        assert!(g.call_cycles().is_empty());
    }

    #[test]
    fn mixed_kind_cycle_is_not_a_deadlock() {
        // a -call-> b -send-> a: b never blocks, so a's reply eventually
        // arrives.
        let mut g = CallGraph::new();
        g.add_edge("a", "b", CallKind::Call);
        g.add_edge("b", "a", CallKind::Send);
        assert!(g.call_cycles().is_empty());
    }

    #[test]
    fn wildcard_call_is_conservative() {
        // a -call-> (any) and b -call-> a: the wildcard may stand for b,
        // closing the loop.
        let mut g = CallGraph::new();
        g.add_edge("a", CallDecl::ANY, CallKind::Call);
        g.add_edge("b", "a", CallKind::Call);
        assert!(!g.call_cycles().is_empty());
    }

    #[test]
    fn wildcard_send_is_fine() {
        let mut g = CallGraph::new();
        g.add_edge("a", CallDecl::ANY, CallKind::Send);
        g.add_edge("b", "a", CallKind::Call);
        assert!(g.call_cycles().is_empty());
    }

    #[test]
    fn edge_list_round_trip() {
        let g = CallGraph::parse_edge_list(
            "# comment\n\
             a call b\n\
             \n\
             b send c\n",
        )
        .unwrap();
        assert_eq!(g.nodes().len(), 3);
        assert_eq!(g.edges().len(), 2);
        assert!(g.call_cycles().is_empty());
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(CallGraph::parse_edge_list("a calls b").is_err());
        assert!(CallGraph::parse_edge_list("a call").is_err());
    }

    #[test]
    fn dot_is_deterministic_and_marks_kinds() {
        let mut g = CallGraph::new();
        g.add_edge("b", "c", CallKind::Send);
        g.add_edge("a", "b", CallKind::Call);
        let dot = g.to_dot();
        assert!(dot.contains("\"a\" -> \"b\" [color=red, label=\"call\"]"));
        assert!(dot.contains("\"b\" -> \"c\" [style=dashed, color=gray40, label=\"send\"]"));
        // Deterministic: rebuilding in another insertion order gives the
        // same text.
        let mut g2 = CallGraph::new();
        g2.add_edge("a", "b", CallKind::Call);
        g2.add_edge("b", "c", CallKind::Send);
        assert_eq!(dot, g2.to_dot());
    }
}
