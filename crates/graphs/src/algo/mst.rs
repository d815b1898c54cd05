//! Centralized minimum spanning tree (Kruskal) with deterministic
//! tie-breaking.
//!
//! The distributed algorithms of the paper start from an MST computed by
//! Kutten–Peleg in `O(D + sqrt(n) log* n)` rounds. Logically, the tree is
//! unique once ties are broken by edge id, which is what both this oracle
//! and the message-level Borůvka protocol in `decss-congest` do — so they
//! provably produce the same tree and the round ledger can charge the
//! Kutten–Peleg cost while the logic uses this oracle.

use crate::algo::connectivity::UnionFind;
use crate::edge::EdgeId;
use crate::graph::Graph;
use crate::weight::Weight;
use std::fmt;

/// Error returned when the graph has no spanning tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MstError;

impl fmt::Display for MstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph is disconnected: no spanning tree exists")
    }
}

impl std::error::Error for MstError {}

/// Computes the minimum spanning tree, breaking weight ties by edge id.
///
/// Returns the tree's edge ids sorted by id.
///
/// # Errors
///
/// Returns [`MstError`] if the graph is disconnected.
pub fn minimum_spanning_tree(g: &Graph) -> Result<Vec<EdgeId>, MstError> {
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    sort_kruskal(g, &mut order);
    kruskal_scan(g, &order)
}

/// Sorts `ids` into Kruskal order, by `(weight, id)`.
///
/// Sorts precomputed `(weight, id)` pairs, so the comparisons never
/// chase an id into the edge table; ids are unique, so the unstable
/// sort yields the one total order.
pub fn sort_kruskal(g: &Graph, ids: &mut [EdgeId]) {
    let mut keyed: Vec<(Weight, EdgeId)> = ids.iter().map(|&id| (g.weight(id), id)).collect();
    keyed.sort_unstable();
    for (slot, (_, id)) in ids.iter_mut().zip(keyed) {
        *slot = id;
    }
}

/// The Kruskal union-find scan over ids already in [`sort_kruskal`]
/// order. Returns the tree's edge ids sorted by id.
///
/// # Errors
///
/// Returns [`MstError`] if the graph is disconnected.
pub fn kruskal_scan(g: &Graph, sorted: &[EdgeId]) -> Result<Vec<EdgeId>, MstError> {
    let mut uf = UnionFind::new(g.n());
    let mut tree = Vec::with_capacity(g.n().saturating_sub(1));
    for &id in sorted {
        let e = g.edge(id);
        if uf.union(e.u.index(), e.v.index()) {
            tree.push(id);
            if tree.len() + 1 == g.n() {
                break;
            }
        }
    }
    if tree.len() + 1 != g.n() {
        return Err(MstError);
    }
    tree.sort_unstable();
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::connectivity::is_connected_subgraph;

    #[test]
    fn mst_of_triangle_drops_heaviest() {
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, 2), (2, 0, 3)]).unwrap();
        let t = minimum_spanning_tree(&g).unwrap();
        assert_eq!(t, vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    fn mst_breaks_ties_by_edge_id() {
        // Square with all-equal weights: the first three edges win.
        let g = Graph::from_edges(4, [(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 0, 5)]).unwrap();
        let t = minimum_spanning_tree(&g).unwrap();
        assert_eq!(t, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
    }

    #[test]
    fn mst_spans() {
        let g = Graph::from_edges(
            5,
            [(0, 1, 9), (0, 2, 1), (1, 2, 2), (1, 3, 7), (2, 4, 3), (3, 4, 4)],
        )
        .unwrap();
        let t = minimum_spanning_tree(&g).unwrap();
        assert_eq!(t.len(), 4);
        assert!(is_connected_subgraph(&g, t.iter().copied()));
        assert_eq!(g.weight_of(t), 1 + 2 + 3 + 4);
    }

    #[test]
    fn mst_fails_when_disconnected() {
        let g = Graph::from_edges(3, [(0, 1, 1)]).unwrap();
        assert_eq!(minimum_spanning_tree(&g), Err(MstError));
        assert!(!format!("{MstError}").is_empty());
    }

    #[test]
    fn kruskal_order_matches_a_stable_key_sort() {
        let g = Graph::from_edges(
            5,
            [(0, 1, 4), (1, 2, 2), (2, 3, 4), (3, 4, 1), (4, 0, 2), (0, 2, 4)],
        )
        .unwrap();
        let mut got: Vec<EdgeId> = g.edge_ids().collect();
        sort_kruskal(&g, &mut got);
        let mut want: Vec<EdgeId> = g.edge_ids().collect();
        want.sort_by_key(|&id| (g.weight(id), id));
        assert_eq!(got, want);
    }

    #[test]
    fn mst_of_single_vertex_is_empty() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(minimum_spanning_tree(&g).unwrap(), vec![]);
    }
}
