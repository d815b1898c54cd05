//! Tree topology bookkeeping plus root-to-all broadcast over a tree.

use crate::message::Message;
use crate::metrics::SimReport;
use crate::network::{Network, NodeLogic, RoundCtx};
use decss_graphs::{EdgeId, Graph, VertexId};

/// A rooted tree overlaying the communication graph: each vertex's parent
/// edge and children. Protocols that run "over a tree" take this as
/// common knowledge (each vertex only uses its own row).
#[derive(Clone, Debug)]
pub struct TreeOverlay {
    /// The root vertex.
    pub root: VertexId,
    /// `parent[v] = (edge, parent)`; `None` for the root.
    pub parent: Vec<Option<(EdgeId, VertexId)>>,
    /// Children ports of each vertex.
    pub children: Vec<Vec<(EdgeId, VertexId)>>,
}

impl TreeOverlay {
    /// Builds the overlay from a set of tree edges and a root.
    ///
    /// # Panics
    ///
    /// Panics if the edges do not form a spanning tree of `g`.
    pub fn from_edges(g: &Graph, root: VertexId, tree_edges: &[EdgeId]) -> Self {
        assert_eq!(tree_edges.len() + 1, g.n(), "not a spanning tree");
        let mut adj: Vec<Vec<(EdgeId, VertexId)>> = vec![Vec::new(); g.n()];
        for &id in tree_edges {
            let e = g.edge(id);
            adj[e.u.index()].push((id, e.v));
            adj[e.v.index()].push((id, e.u));
        }
        let mut parent = vec![None; g.n()];
        let mut children: Vec<Vec<(EdgeId, VertexId)>> = vec![Vec::new(); g.n()];
        let mut seen = vec![false; g.n()];
        seen[root.index()] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        let mut visited = 1usize;
        while let Some(v) = queue.pop_front() {
            for &(e, w) in &adj[v.index()] {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    visited += 1;
                    parent[w.index()] = Some((e, v));
                    children[v.index()].push((e, w));
                    queue.push_back(w);
                }
            }
        }
        assert_eq!(visited, g.n(), "tree edges do not span the graph");
        TreeOverlay { root, parent, children }
    }

    /// Depth of the overlay (max hops root → leaf).
    pub fn depth(&self) -> u32 {
        let mut depth = vec![0u32; self.parent.len()];
        let mut max = 0;
        // Parents are discovered before children in `from_edges`' BFS, but
        // recompute robustly.
        let mut queue = std::collections::VecDeque::from([self.root]);
        while let Some(v) = queue.pop_front() {
            for &(_, c) in &self.children[v.index()] {
                depth[c.index()] = depth[v.index()] + 1;
                max = max.max(depth[c.index()]);
                queue.push_back(c);
            }
        }
        max
    }
}

const TAG_BCAST: u8 = 2;

struct BcastNode {
    parent: Option<(EdgeId, VertexId)>,
    children: Vec<(EdgeId, VertexId)>,
    value: Option<u64>,
    started: bool,
}

impl NodeLogic for BcastNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round == 0 && self.parent.is_none() && !self.started {
            self.started = true;
            let v = self.value.expect("root has the value");
            for &(e, c) in &self.children.clone() {
                ctx.send(e, c, Message::new(TAG_BCAST, [v]));
            }
            return;
        }
        if self.value.is_none() {
            if let Some((_, _, msg)) = ctx.inbox.first() {
                let v = msg.words[0];
                self.value = Some(v);
                for &(e, c) in &self.children.clone() {
                    ctx.send(e, c, Message::new(TAG_BCAST, [v]));
                }
            }
        }
    }
}

/// Broadcasts one word from the overlay root to every vertex.
///
/// Returns each vertex's received value and the metrics; takes exactly
/// `depth` propagation rounds.
pub fn broadcast(g: &Graph, overlay: &TreeOverlay, value: u64) -> (Vec<u64>, SimReport) {
    let mut net = Network::new(g, |v| BcastNode {
        parent: overlay.parent[v.index()],
        children: overlay.children[v.index()].clone(),
        value: (v == overlay.root).then_some(value),
        started: false,
    });
    let report = net.run(2 * g.n() as u64 + 4);
    let values = net
        .nodes()
        .map(|(_, n)| n.value.expect("broadcast reaches every vertex"))
        .collect();
    (values, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::{algo, gen};

    fn overlay_of(g: &Graph, root: VertexId) -> TreeOverlay {
        let mst = algo::minimum_spanning_tree(g).unwrap();
        TreeOverlay::from_edges(g, root, &mst)
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let g = gen::grid(5, 5, 10, 2);
        let overlay = overlay_of(&g, VertexId(0));
        let (values, report) = broadcast(&g, &overlay, 42);
        assert!(values.iter().all(|&v| v == 42));
        assert!(report.rounds as u32 >= overlay.depth());
        assert!(report.rounds as u32 <= overlay.depth() + 2);
    }

    #[test]
    fn overlay_depth_matches_bfs_on_path() {
        let g = gen::path(6);
        let overlay = TreeOverlay::from_edges(&g, VertexId(0), &g.edge_ids().collect::<Vec<_>>());
        assert_eq!(overlay.depth(), 5);
        assert_eq!(overlay.children[0].len(), 1);
        assert!(overlay.parent[0].is_none());
    }

    #[test]
    #[should_panic(expected = "not a spanning tree")]
    fn overlay_rejects_non_tree() {
        let g = gen::cycle(4, 1, 0);
        let _ = TreeOverlay::from_edges(&g, VertexId(0), &[EdgeId(0)]);
    }
}
