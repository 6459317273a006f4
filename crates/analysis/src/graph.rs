//! The actor call graph: construction, cycle detection, and DOT rendering.
//!
//! Nodes are actor type names; edges are the `declared_calls()` entries
//! the parser reads out of each `impl Actor` ([`CallGraph::from_corpus`]),
//! or a fixture edge list ([`CallGraph::parse_edge_list`]). The analysis
//! of interest is *reentrancy-deadlock* detection: under turn-based
//! execution a cycle of synchronous [`CallKind::Call`] edges deadlocks,
//! because every actor on the cycle is blocking its only turn waiting on
//! the next one. Tarjan's SCC algorithm finds all such cycles in one
//! linear pass; that core is shared with the lock-order graph.

use std::collections::HashMap;

use crate::sendsites::Corpus;

/// The wildcard target of `CallDecl::send_any()`, as the source and
/// fixture edge lists spell it: the concrete actor type is chosen at
/// runtime (2PC participants, workflow step recipients).
pub const ANY: &str = "*";

/// Display name of the synthetic wildcard node (see [`ANY`]).
pub const ANY_NODE: &str = "(any)";

/// How an edge is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// Synchronous request/response: the sending turn blocks on the
    /// reply (`CallDecl::call`). Cycles of `Call` edges deadlock.
    Call,
    /// Asynchronous send (`CallDecl::send`/`send_any`): never blocks the
    /// sending turn, so cycles of `Send` edges are safe.
    Send,
}

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
    nodes: Nodes,
    edges: Vec<Edge>,
}

/// The node/edge/SCC core under [`CallGraph`] and
/// [`crate::lockgraph::LockGraph`]: interned node names, and the cycles of
/// an edge set over them.
#[derive(Default, Clone, Debug)]
pub(crate) struct Nodes {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl Nodes {
    /// Interns `name` (idempotent); returns its index.
    pub fn add(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        self.index.insert(name.to_string(), self.names.len());
        self.names.push(name.to_string());
        self.names.len() - 1
    }

    /// The index of `name`, if interned.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Node names, in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The cycles of an edge set: strongly connected components of more
    /// than one node, plus self-loops, each as its node names in DFS
    /// order. Edges are taken in the order given, which fixes that order;
    /// repeated edges are ignored.
    pub fn cycles(&self, edges: impl IntoIterator<Item = (usize, usize)>) -> Vec<Vec<String>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.names.len()];
        for (from, to) in edges {
            if !adj[from].contains(&to) {
                adj[from].push(to);
            }
        }
        tarjan(self.names.len(), &adj)
            .into_iter()
            .filter(|scc| scc.len() > 1 || adj[scc[0]].contains(&scc[0]))
            .map(|scc| scc.iter().map(|&i| self.names[i].clone()).collect())
            .collect()
    }
}

impl CallGraph {
    /// An empty graph.
    pub fn new() -> Self {
        CallGraph::default()
    }

    /// The call graph a corpus declares: one node per parsed `TYPE_NAME`,
    /// one edge per parsed `declared_calls()` entry.
    pub fn from_corpus(corpus: &Corpus) -> Self {
        let mut g = CallGraph::new();
        for actor in corpus.files.iter().flat_map(|f| &f.actors) {
            let Some(name) = &actor.type_name else {
                continue;
            };
            g.add_node(name);
            for decl in &actor.decls {
                g.add_edge(name, &decl.to, decl.kind);
            }
        }
        g
    }

    /// Adds a node (idempotent); returns its index.
    pub fn add_node(&mut self, name: &str) -> usize {
        self.nodes.add(normalize(name))
    }

    /// Adds an edge, creating endpoints as needed.
    pub fn add_edge(&mut self, from: &str, to: &str, kind: CallKind) {
        self.add_node(from);
        self.add_node(to);
        let edge = Edge {
            from: normalize(from).to_string(),
            to: normalize(to).to_string(),
            kind,
        };
        if !self.edges.contains(&edge) {
            self.edges.push(edge);
        }
    }

    /// Node names, in insertion order.
    pub fn nodes(&self) -> &[String] {
        self.nodes.names()
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
        let n = self.nodes.names().len();
        let any = self.nodes.get(ANY_NODE);
        let index = |name: &str| self.nodes.get(name).expect("edge endpoints are nodes");
        let calls = self.edges.iter().filter(|e| e.kind == CallKind::Call);
        self.nodes.cycles(calls.flat_map(|e| {
            let (from, to) = (index(&e.from), index(&e.to));
            // `call` to a dynamically chosen target: may reach anyone.
            let targets = if Some(to) == any { 0..n } else { to..to + 1 };
            targets.map(move |t| (from, t))
        }))
    }

    /// Renders the graph in Graphviz DOT, deterministically (nodes and
    /// edges sorted by name) so the output is golden-file testable.
    /// Synchronous calls are solid red edges; asynchronous sends are
    /// dashed gray.
    pub fn to_dot(&self) -> String {
        let mut out = dot_header("actor_calls");
        let mut names: Vec<&str> = self.nodes().iter().map(String::as_str).collect();
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

/// The opening lines both DOT renderers share.
pub(crate) fn dot_header(graph: &str) -> String {
    format!("digraph {graph} {{\n    rankdir=LR;\n    node [shape=box, fontname=\"monospace\"];\n")
}

/// Maps the wildcard target to its display node name.
fn normalize(name: &str) -> &str {
    if name == ANY {
        ANY_NODE
    } else {
        name
    }
}

/// Iterative Tarjan SCC. Returns components in reverse topological order;
/// node order inside a component follows the DFS stack.
fn tarjan(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
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
        g.add_edge("a", ANY, CallKind::Call);
        g.add_edge("b", "a", CallKind::Call);
        assert!(!g.call_cycles().is_empty());
    }

    #[test]
    fn wildcard_send_is_fine() {
        let mut g = CallGraph::new();
        g.add_edge("a", ANY, CallKind::Send);
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
