//! Heavy-light decomposition (Definition 5.3 in the paper).
//!
//! An edge `{v, u}` from `u` to its parent `v` is **heavy** if
//! `|T_u| > |T_v| / 2`, light otherwise; every leaf-to-root path crosses
//! at most `log2 n` light edges, and the heavy edges form vertex-disjoint
//! paths. The paper's Theorem 5.3 computes exactly this decomposition
//! distributedly, plus per-vertex lists of the light edges on the root
//! path — which is what makes label-only LCA queries possible (used by
//! the shortcut-based algorithm's subroutines, Lemma 5.5).

use crate::euler::EulerTour;
use crate::rooted::RootedTree;
use decss_graphs::VertexId;

/// A light edge on some root path, in the identifier format of
/// Definition 5.3: both endpoints and both root-path lengths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LightEdge {
    /// The parent-side endpoint.
    pub top: VertexId,
    /// The child-side endpoint.
    pub bottom: VertexId,
    /// Depth of `top`.
    pub top_depth: u32,
    /// Depth of `bottom` (= `top_depth + 1`).
    pub bottom_depth: u32,
}

/// Heavy-light decomposition of a rooted tree.
#[derive(Clone, Debug)]
pub struct HeavyLight {
    /// Whether the edge above `v` is heavy (`false` for the root).
    heavy_above: Vec<bool>,
    /// Top vertex of the heavy path containing `v`.
    head: Vec<VertexId>,
    /// Arena of light-edge lists: `light[light_span[v]]` are the light
    /// edges on the path from `v` to the root, root-most first.
    light: Vec<LightEdge>,
    /// `(start, end)` of each vertex's list in `light`. A vertex below a
    /// heavy edge shares its parent's span; below a light edge it owns a
    /// copy of its parent's list plus that edge.
    light_span: Vec<(u32, u32)>,
}

impl HeavyLight {
    /// Computes the decomposition in `O(n log n)` (dominated by the light
    /// edge lists, which have at most `log2 n` entries each).
    pub fn new(tree: &RootedTree, euler: &EulerTour) -> Self {
        let n = tree.n();
        let mut heavy_above = vec![false; n];
        for v in tree.order().iter().copied() {
            for &c in tree.children(v) {
                // Non-strict variant of the paper's definition (heavy iff
                // `|T_c| >= |T_v| / 2`), so that vertex chains form single
                // heavy paths. Both key properties survive: at most one
                // child can satisfy `2|T_c| >= |T_v|` (two would force
                // `2(|T_v| - 1) >= 2 |T_v|`), and a light edge still at
                // least halves the subtree size, so light depth <= log2 n.
                heavy_above[c.index()] = 2 * euler.subtree_size(c) >= euler.subtree_size(v);
            }
        }
        let mut head = vec![VertexId(0); n];
        let mut light = Vec::new();
        let mut light_span = vec![(0u32, 0u32); n];
        for v in tree.order().iter().copied() {
            match tree.parent(v) {
                None => {
                    head[v.index()] = v;
                }
                Some(p) => {
                    if heavy_above[v.index()] {
                        head[v.index()] = head[p.index()];
                        light_span[v.index()] = light_span[p.index()];
                    } else {
                        head[v.index()] = v;
                        let (start, end) = light_span[p.index()];
                        let own = light.len();
                        light.extend_from_within(start as usize..end as usize);
                        light.push(LightEdge {
                            top: p,
                            bottom: v,
                            top_depth: tree.depth(p),
                            bottom_depth: tree.depth(v),
                        });
                        let offset =
                            |i: usize| u32::try_from(i).expect("light arena within u32 offsets");
                        light_span[v.index()] = (offset(own), offset(light.len()));
                    }
                }
            }
        }
        HeavyLight { heavy_above, head, light, light_span }
    }

    /// Whether the edge above `v` is heavy.
    pub fn is_heavy_above(&self, v: VertexId) -> bool {
        self.heavy_above[v.index()]
    }

    /// Top vertex of the heavy path containing `v`.
    pub fn head(&self, v: VertexId) -> VertexId {
        self.head[v.index()]
    }

    /// The light edges on the path from `v` to the root, root-most first.
    pub fn light_edges(&self, v: VertexId) -> &[LightEdge] {
        let (start, end) = self.light_span[v.index()];
        &self.light[start as usize..end as usize]
    }

    /// Number of light edges above `v` — the "light depth".
    pub fn light_depth(&self, v: VertexId) -> usize {
        self.light_edges(v).len()
    }

    /// LCA of `u` and `v` computed *only* from the two light-edge lists
    /// and depths, the way adjacent vertices do it in Theorem 5.3.
    ///
    /// The LCA lies on the deepest heavy path shared by both root paths:
    /// compare the light-edge lists to find the first position where they
    /// diverge; the LCA is the shallower of the two vertices entering the
    /// diverging paths (or of `u`/`v` themselves if a list is exhausted).
    pub fn lca_from_lists(&self, u: VertexId, u_depth: u32, v: VertexId, v_depth: u32) -> VertexId {
        let lu = self.light_edges(u);
        let lv = self.light_edges(v);
        let mut shared = 0usize;
        while shared < lu.len() && shared < lv.len() && lu[shared] == lv[shared] {
            shared += 1;
        }
        // After the shared prefix, both vertices sit on the same heavy
        // path (the one below the last shared light edge, or the root's
        // path). The first divergent light edge's *top* endpoint is where
        // each root path leaves that heavy path; u itself plays that role
        // if its list is exhausted.
        let (cu, cu_depth) = if shared < lu.len() {
            (lu[shared].top, lu[shared].top_depth)
        } else {
            (u, u_depth)
        };
        let (cv, cv_depth) = if shared < lv.len() {
            (lv[shared].top, lv[shared].top_depth)
        } else {
            (v, v_depth)
        };
        if cu_depth <= cv_depth {
            cu
        } else {
            cv
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lca::LcaOracle;
    use crate::testutil::{binary_tree, figure_tree, path_tree};

    #[test]
    fn path_is_one_heavy_path() {
        let (_, t) = path_tree(10);
        let euler = EulerTour::new(&t);
        let hld = HeavyLight::new(&t, &euler);
        for v in 1..10u32 {
            assert!(hld.is_heavy_above(VertexId(v)), "edge above v{v}");
            assert_eq!(hld.head(VertexId(v)), VertexId(0));
        }
        assert_eq!(hld.light_depth(VertexId(9)), 0);
    }

    #[test]
    fn binary_tree_light_depth_is_logarithmic() {
        let (_, t) = binary_tree(7); // 127 vertices
        let euler = EulerTour::new(&t);
        let hld = HeavyLight::new(&t, &euler);
        for v in t.order().iter().copied() {
            assert!(
                hld.light_depth(v) <= 7,
                "light depth {} exceeds log2(n) at {v}",
                hld.light_depth(v)
            );
        }
    }

    #[test]
    fn every_vertex_has_at_most_one_heavy_child() {
        let (_, t) = figure_tree();
        let euler = EulerTour::new(&t);
        let hld = HeavyLight::new(&t, &euler);
        for v in t.order().iter().copied() {
            let heavy_children = t.children(v).iter().filter(|&&c| hld.is_heavy_above(c)).count();
            assert!(heavy_children <= 1, "vertex {v}");
        }
    }

    #[test]
    fn lca_from_lists_matches_oracle() {
        let (_, t) = binary_tree(5);
        let euler = EulerTour::new(&t);
        let hld = HeavyLight::new(&t, &euler);
        let oracle = LcaOracle::new(&t);
        let n = t.n() as u32;
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (VertexId(a), VertexId(b));
                let got = hld.lca_from_lists(a, t.depth(a), b, t.depth(b));
                assert_eq!(got, oracle.lca(a, b), "lca({a}, {b})");
            }
        }
    }

    #[test]
    fn lca_from_lists_on_figure_tree() {
        let (_, t) = figure_tree();
        let euler = EulerTour::new(&t);
        let hld = HeavyLight::new(&t, &euler);
        let oracle = LcaOracle::new(&t);
        for a in 0..9u32 {
            for b in 0..9u32 {
                let (a, b) = (VertexId(a), VertexId(b));
                assert_eq!(
                    hld.lca_from_lists(a, t.depth(a), b, t.depth(b)),
                    oracle.lca(a, b),
                    "lca({a}, {b})"
                );
            }
        }
    }
}
