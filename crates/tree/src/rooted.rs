//! Rooted spanning trees.
//!
//! A tree edge is identified throughout the workspace by its **child
//! endpoint**: the edge above vertex `v` is "tree edge `v`". This matches
//! the paper's convention `t = {v, p(v)}` and gives tree edges a dense
//! index space (every non-root vertex names exactly one tree edge).

use decss_graphs::{EdgeId, Graph, VertexId};

/// A spanning tree of a graph, rooted and oriented.
///
/// Every per-vertex array is flat: the children of `v` are the slice
/// `order[child_span[v]]`, since the BFS that builds the tree appends a
/// vertex's children to `order` consecutively.
#[derive(Clone, Debug)]
pub struct RootedTree {
    root: VertexId,
    parent: Vec<Option<VertexId>>,
    parent_edge: Vec<Option<EdgeId>>,
    /// `(start, end)` of each vertex's children in `order`.
    child_span: Vec<(u32, u32)>,
    depth: Vec<u32>,
    /// Vertices in BFS order from the root (parents before children).
    order: Vec<VertexId>,
    /// Whether each graph edge is part of the tree.
    is_tree_edge: Vec<bool>,
}

impl RootedTree {
    /// Builds a rooted tree from `tree_edges`, which must form a spanning
    /// tree of `g`. Each vertex's neighbours (and hence its children) are
    /// visited in `tree_edges` order.
    ///
    /// # Panics
    ///
    /// Panics if the edges do not form a spanning tree.
    pub fn new(g: &Graph, root: VertexId, tree_edges: &[EdgeId]) -> Self {
        assert_eq!(
            tree_edges.len() + 1,
            g.n(),
            "a spanning tree of {} vertices needs {} edges, got {}",
            g.n(),
            g.n() - 1,
            tree_edges.len()
        );
        let n = g.n();
        let mut is_tree_edge = vec![false; g.m()];
        // CSR adjacency, filled in `tree_edges` order.
        let mut adj_start = vec![0u32; n + 1];
        for &id in tree_edges {
            assert!(!is_tree_edge[id.index()], "duplicate tree edge {id}");
            is_tree_edge[id.index()] = true;
            let e = g.edge(id);
            adj_start[e.u.index() + 1] += 1;
            adj_start[e.v.index() + 1] += 1;
        }
        for v in 0..n {
            adj_start[v + 1] += adj_start[v];
        }
        let mut fill = adj_start.clone();
        let mut adj = vec![(EdgeId(0), VertexId(0)); 2 * tree_edges.len()];
        for &id in tree_edges {
            let e = g.edge(id);
            adj[fill[e.u.index()] as usize] = (id, e.v);
            fill[e.u.index()] += 1;
            adj[fill[e.v.index()] as usize] = (id, e.u);
            fill[e.v.index()] += 1;
        }
        let mut parent = vec![None; n];
        let mut parent_edge = vec![None; n];
        let mut child_span = vec![(0u32, 0u32); n];
        let mut depth = vec![0u32; n];
        let mut seen = vec![false; n];
        seen[root.index()] = true;
        // `order` doubles as the BFS queue.
        let mut order = Vec::with_capacity(n);
        order.push(root);
        let mut head = 0usize;
        while head < order.len() {
            let v = order[head];
            head += 1;
            let first_child = order.len() as u32;
            let (lo, hi) = (adj_start[v.index()] as usize, adj_start[v.index() + 1] as usize);
            for &(e, w) in &adj[lo..hi] {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    parent[w.index()] = Some(v);
                    parent_edge[w.index()] = Some(e);
                    depth[w.index()] = depth[v.index()] + 1;
                    order.push(w);
                }
            }
            child_span[v.index()] = (first_child, order.len() as u32);
        }
        assert_eq!(order.len(), n, "tree edges do not span the graph");
        RootedTree {
            root,
            parent,
            parent_edge,
            child_span,
            depth,
            order,
            is_tree_edge,
        }
    }

    /// Builds the rooted minimum spanning tree of `g` (Kruskal with edge
    /// id tie-breaking), rooted at vertex 0.
    ///
    /// # Panics
    ///
    /// Panics if `g` is disconnected.
    pub fn mst(g: &Graph) -> Self {
        let tree = decss_graphs::algo::minimum_spanning_tree(g).expect("connected graph");
        RootedTree::new(g, VertexId(0), &tree)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// The root vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Parent of `v`, or `None` for the root.
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        self.parent[v.index()]
    }

    /// The graph edge connecting `v` to its parent.
    pub fn parent_edge(&self, v: VertexId) -> Option<EdgeId> {
        self.parent_edge[v.index()]
    }

    /// Children of `v`.
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        let (start, end) = self.child_span[v.index()];
        &self.order[start as usize..end as usize]
    }

    /// Depth of `v` (root has depth 0).
    pub fn depth(&self, v: VertexId) -> u32 {
        self.depth[v.index()]
    }

    /// Vertices in BFS order (parents before children).
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// Whether a graph edge belongs to the tree.
    pub fn is_tree_edge(&self, e: EdgeId) -> bool {
        self.is_tree_edge[e.index()]
    }

    /// Iterator over non-root vertices, i.e. over tree edges by their
    /// child endpoints.
    pub fn tree_edge_children(&self) -> impl Iterator<Item = VertexId> + '_ {
        let root = self.root;
        self.order.iter().copied().filter(move |&v| v != root)
    }

    /// Number of tree edges (`n − 1`).
    pub fn num_tree_edges(&self) -> usize {
        self.n() - 1
    }

    /// Whether `v` is a *junction*: it has more than one child
    /// (Section 3.2).
    pub fn is_junction(&self, v: VertexId) -> bool {
        self.children(v).len() > 1
    }

    /// The vertices of the path from `v` up to (and including) `anc`.
    ///
    /// # Panics
    ///
    /// Panics if `anc` is not an ancestor of `v`.
    pub fn path_up(&self, v: VertexId, anc: VertexId) -> Vec<VertexId> {
        let mut path = vec![v];
        let mut cur = v;
        while cur != anc {
            cur = self
                .parent(cur)
                .unwrap_or_else(|| panic!("{anc} is not an ancestor of {v}"));
            path.push(cur);
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::figure_tree;
    use decss_graphs::gen;

    #[test]
    fn structure_of_figure_tree() {
        let (_, t) = figure_tree();
        assert_eq!(t.root(), VertexId(0));
        assert_eq!(t.parent(VertexId(4)), Some(VertexId(3)));
        assert_eq!(t.depth(VertexId(4)), 4);
        assert!(t.is_junction(VertexId(2)));
        assert!(!t.is_junction(VertexId(1)));
        assert_eq!(t.num_tree_edges(), 8);
        assert_eq!(t.tree_edge_children().count(), 8);
        assert_eq!(t.children(VertexId(2)).len(), 3);
    }

    #[test]
    fn bfs_order_is_topological() {
        let (_, t) = figure_tree();
        let mut seen = vec![false; t.n()];
        for &v in t.order() {
            if let Some(p) = t.parent(v) {
                assert!(seen[p.index()], "parent of {v} not seen before it");
            }
            seen[v.index()] = true;
        }
    }

    #[test]
    fn path_up_walks_to_ancestor() {
        let (_, t) = figure_tree();
        let p = t.path_up(VertexId(4), VertexId(1));
        assert_eq!(p, vec![VertexId(4), VertexId(3), VertexId(2), VertexId(1)]);
    }

    #[test]
    #[should_panic(expected = "not an ancestor")]
    fn path_up_rejects_non_ancestor() {
        let (_, t) = figure_tree();
        let _ = t.path_up(VertexId(4), VertexId(5));
    }

    #[test]
    fn mst_tree_spans() {
        let g = gen::gnp_two_ec(30, 0.1, 50, 1);
        let t = RootedTree::mst(&g);
        assert_eq!(t.n(), 30);
        assert_eq!(t.num_tree_edges(), 29);
        // Every non-root vertex has a parent edge that is a tree edge.
        for v in t.tree_edge_children() {
            let e = t.parent_edge(v).unwrap();
            assert!(t.is_tree_edge(e));
        }
    }

    #[test]
    #[should_panic(expected = "spanning tree")]
    fn wrong_edge_count_rejected() {
        let g = gen::cycle(4, 1, 0);
        let _ = RootedTree::new(&g, VertexId(0), &[EdgeId(0)]);
    }
}
