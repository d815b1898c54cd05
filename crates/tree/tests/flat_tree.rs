//! Pins the flat tree layer — CSR adjacency and children in
//! `RootedTree`, the light-edge arena in `HeavyLight` — to the
//! straightforward per-vertex-`Vec` construction it replaced: same
//! parents, parent edges, depths, BFS order, per-vertex children order
//! and light-edge lists, on random spanning trees plus a long path and a
//! star.

use decss_graphs::{EdgeId, Graph, VertexId};
use decss_tree::hld::LightEdge;
use decss_tree::{EulerTour, HeavyLight, RootedTree};
use proptest::prelude::*;

/// The per-vertex-`Vec` reference of a rooted tree and its light lists.
struct Reference {
    parent: Vec<Option<VertexId>>,
    parent_edge: Vec<Option<EdgeId>>,
    depth: Vec<u32>,
    order: Vec<VertexId>,
    children: Vec<Vec<VertexId>>,
    light_edges: Vec<Vec<LightEdge>>,
}

impl Reference {
    fn new(g: &Graph, root: VertexId, tree_edges: &[EdgeId]) -> Self {
        let n = g.n();
        let mut adj: Vec<Vec<(EdgeId, VertexId)>> = vec![Vec::new(); n];
        for &id in tree_edges {
            let e = g.edge(id);
            adj[e.u.index()].push((id, e.v));
            adj[e.v.index()].push((id, e.u));
        }
        let mut parent = vec![None; n];
        let mut parent_edge = vec![None; n];
        let mut children: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut depth = vec![0u32; n];
        let mut order = Vec::new();
        let mut seen = vec![false; n];
        seen[root.index()] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &(e, w) in &adj[v.index()] {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    parent[w.index()] = Some(v);
                    parent_edge[w.index()] = Some(e);
                    depth[w.index()] = depth[v.index()] + 1;
                    children[v.index()].push(w);
                    queue.push_back(w);
                }
            }
        }
        let mut size = vec![1u32; n];
        for &v in order.iter().rev() {
            if let Some(p) = parent[v.index()] {
                size[p.index()] += size[v.index()];
            }
        }
        let mut light_edges: Vec<Vec<LightEdge>> = vec![Vec::new(); n];
        for &v in &order {
            if let Some(p) = parent[v.index()] {
                let mut list = light_edges[p.index()].clone();
                if 2 * size[v.index()] < size[p.index()] {
                    list.push(LightEdge {
                        top: p,
                        bottom: v,
                        top_depth: depth[p.index()],
                        bottom_depth: depth[v.index()],
                    });
                }
                light_edges[v.index()] = list;
            }
        }
        Reference { parent, parent_edge, depth, order, children, light_edges }
    }
}

fn assert_matches_reference(g: &Graph, root: VertexId, tree_edges: &[EdgeId]) {
    let tree = RootedTree::new(g, root, tree_edges);
    let hld = HeavyLight::new(&tree, &EulerTour::new(&tree));
    let want = Reference::new(g, root, tree_edges);
    assert_eq!(tree.order(), want.order.as_slice(), "order");
    for v in g.vertices() {
        let i = v.index();
        assert_eq!(tree.parent(v), want.parent[i], "parent of {v}");
        assert_eq!(tree.parent_edge(v), want.parent_edge[i], "parent edge of {v}");
        assert_eq!(tree.depth(v), want.depth[i], "depth of {v}");
        assert_eq!(tree.children(v), want.children[i].as_slice(), "children of {v}");
        assert_eq!(
            hld.light_edges(v),
            want.light_edges[i].as_slice(),
            "light edges of {v}"
        );
        assert_eq!(hld.light_depth(v), want.light_edges[i].len(), "light depth of {v}");
    }
}

/// A random spanning tree on `n` vertices (each vertex joins a random
/// earlier one under a random relabelling), listed in a random order and
/// mixed with random non-tree edges; returns the graph, a random root and
/// the tree edges in their shuffled order.
fn random_tree(n: usize, extra: usize, seed: u64) -> (Graph, VertexId, Vec<EdgeId>) {
    let mut state = seed;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % bound as u64) as usize
    };
    let mut label: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        label.swap(i, next(i + 1));
    }
    let mut pairs: Vec<(u32, u32, bool)> =
        (1..n).map(|i| (label[i], label[next(i)], true)).collect();
    for _ in 0..extra {
        let u = next(n) as u32;
        let v = (u + 1 + next(n - 1) as u32) % n as u32;
        pairs.push((u, v, false));
    }
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, next(i + 1));
    }
    let g = Graph::from_edges(n, pairs.iter().map(|&(u, v, _)| (u, v, 1))).unwrap();
    let mut tree_edges: Vec<EdgeId> = (0..pairs.len())
        .filter(|&i| pairs[i].2)
        .map(|i| EdgeId(i as u32))
        .collect();
    for i in (1..tree_edges.len()).rev() {
        tree_edges.swap(i, next(i + 1));
    }
    let root = VertexId(next(n) as u32);
    (g, root, tree_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_tree_layer_matches_per_vertex_vecs(
        n in 2usize..400,
        extra in 0usize..200,
        seed in 0u64..1_000_000,
    ) {
        let (g, root, tree_edges) = random_tree(n, extra, seed);
        assert_matches_reference(&g, root, &tree_edges);
    }
}

#[test]
fn long_path_matches_reference() {
    let n = 5000u32;
    let g = Graph::from_edges(n as usize, (1..n).map(|i| (i - 1, i, 1))).unwrap();
    let tree_edges: Vec<EdgeId> = g.edge_ids().collect();
    assert_matches_reference(&g, VertexId(0), &tree_edges);
    assert_matches_reference(&g, VertexId(n / 3), &tree_edges);
}

#[test]
fn star_matches_reference() {
    let n = 2000u32;
    let g = Graph::from_edges(n as usize, (1..n).rev().map(|i| (0, i, 1))).unwrap();
    let tree_edges: Vec<EdgeId> = g.edge_ids().collect();
    assert_matches_reference(&g, VertexId(0), &tree_edges);
    assert_matches_reference(&g, VertexId(7), &tree_edges);
}
