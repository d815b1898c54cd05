//! Parallel per-segment convergecast — the message-level primitive
//! behind the paper's segment-local computations (the "short-range"
//! part of Claim 4.6 and the local scans of Section 4.5.1).
//!
//! The spanning tree's edges are partitioned into *segments* (connected
//! edge-subtrees; see `decss_tree::segments`). Every tree edge holds a
//! value; each segment's root must learn the aggregate of its segment's
//! values. All segments run **in parallel**: a vertex forwards its
//! segment-`s` contribution as soon as the children contributions *of
//! segment `s`* have arrived — contributions of other segments terminate
//! at their segment root without gating it. Total rounds ≈ the maximum
//! segment depth, not the tree height: exactly why the decomposition
//! buys `O(√n)` instead of `O(h)`.

use crate::message::Message;
use crate::metrics::SimReport;
use crate::network::{Network, NodeLogic, RoundCtx};
use crate::protocols::convergecast::Agg;
use decss_graphs::{EdgeId, Graph, VertexId};
use std::collections::HashMap;

const TAG_SEG: u8 = 5;

struct SegNode {
    /// Parent port and the segment of the edge above this vertex.
    parent: Option<(EdgeId, VertexId, u32)>,
    /// Value of the edge above this vertex.
    own_value: u64,
    /// Children ports with their edge segments.
    children: Vec<(EdgeId, u32)>,
    /// Outstanding same-segment children.
    pending_same: usize,
    acc: u64,
    op: Agg,
    sent: bool,
    /// Results recorded at this vertex (it is the root of these segments).
    results: HashMap<u32, u64>,
}

impl NodeLogic for SegNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        for &(e, _, ref msg) in ctx.inbox {
            debug_assert_eq!(msg.tag, TAG_SEG);
            let seg = self
                .children
                .iter()
                .find(|&&(ce, _)| ce == e)
                .map(|&(_, s)| s)
                .expect("message arrived over a child edge");
            let value = msg.words[0];
            match self.parent {
                Some((_, _, ps)) if ps == seg => {
                    // Same segment as the edge above: merge and keep
                    // flowing upward.
                    self.acc = self.op.combine(self.acc, value);
                    self.pending_same -= 1;
                }
                _ => {
                    // This vertex is the segment's root: record.
                    let slot = self.results.entry(seg).or_insert(self.op.identity());
                    *slot = self.op.combine(*slot, value);
                }
            }
        }
        if !self.sent && self.pending_same == 0 {
            if let Some((e, p, _)) = self.parent {
                self.sent = true;
                ctx.send(e, p, Message::new(TAG_SEG, [self.acc]));
            }
        }
    }
}

/// Runs the parallel per-segment convergecast.
///
/// * `parent[v]` / `parent_edge[v]`: the rooted spanning tree,
/// * `seg_of_edge[v]`: segment id of the edge above `v` (`u32::MAX`
///   unused for the root),
/// * `values[v]`: the value of the edge above `v`.
///
/// Returns, per segment id, the aggregate of its edge values, plus the
/// metrics.
pub fn segment_convergecast(
    g: &Graph,
    parent: &[Option<VertexId>],
    parent_edge: &[Option<EdgeId>],
    seg_of_edge: &[u32],
    values: &[u64],
    op: Agg,
) -> (HashMap<u32, u64>, SimReport) {
    let n = g.n();
    assert!(parent.len() == n && parent_edge.len() == n && values.len() == n);
    // Children with edge segments, per vertex.
    let mut children: Vec<Vec<(EdgeId, u32)>> = vec![Vec::new(); n];
    for v in 0..n {
        if let (Some(p), Some(e)) = (parent[v], parent_edge[v]) {
            children[p.index()].push((e, seg_of_edge[v]));
        }
    }
    let mut net = Network::new(g, |v| {
        let vi = v.index();
        let my_parent = match (parent[vi], parent_edge[vi]) {
            (Some(p), Some(e)) => Some((e, p, seg_of_edge[vi])),
            _ => None,
        };
        let my_seg = my_parent.map(|(_, _, s)| s);
        let pending_same = children[vi].iter().filter(|&&(_, s)| Some(s) == my_seg).count();
        SegNode {
            parent: my_parent,
            own_value: values[vi],
            children: children[vi].clone(),
            pending_same,
            acc: values[vi],
            op,
            sent: false,
            results: HashMap::new(),
        }
    });
    let report = net.run(2 * n as u64 + 4);
    let mut results: HashMap<u32, u64> = HashMap::new();
    for (_, node) in net.nodes() {
        let _ = node.own_value;
        for (&seg, &val) in &node.results {
            let slot = results.entry(seg).or_insert(op.identity());
            *slot = op.combine(*slot, val);
        }
    }
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::{algo, gen};

    /// Build tree arrays + a two-segment split of a path and check both
    /// aggregates and parallelism.
    #[test]
    fn two_segments_on_a_path() {
        let g = gen::path(9); // edges above v1..v8
        let bfs = algo::bfs_tree(&g, VertexId(0));
        // Segment 0: edges above 1..=4; segment 1: edges above 5..=8.
        let mut seg = vec![u32::MAX; 9];
        for v in 1..=4 {
            seg[v] = 0;
        }
        for v in 5..=8 {
            seg[v] = 1;
        }
        let values: Vec<u64> = (0..9).map(|v| v as u64).collect();
        let (results, report) =
            segment_convergecast(&g, &bfs.parent, &bfs.parent_edge, &seg, &values, Agg::Sum);
        assert_eq!(results[&0], 1 + 2 + 3 + 4);
        assert_eq!(results[&1], 5 + 6 + 7 + 8);
        // Parallelism: rounds ~ segment depth (4), not path length (8).
        assert!(report.rounds <= 6, "rounds = {}", report.rounds);
    }

    #[test]
    fn matches_naive_on_random_trees_and_real_segments() {
        use decss_tree_free::*;
        for seed in 0..4 {
            let g = gen::gnp_two_ec(60, 0.06, 30, seed);
            let (parent, parent_edge, seg_of, max_diam) = mst_segments(&g);
            let values: Vec<u64> = (0..g.n() as u64).map(|i| i * 3 % 17).collect();
            let (results, report) =
                segment_convergecast(&g, &parent, &parent_edge, &seg_of, &values, Agg::Sum);
            // Naive per-segment sums.
            let mut expect: HashMap<u32, u64> = HashMap::new();
            for v in 0..g.n() {
                if seg_of[v] != u32::MAX {
                    *expect.entry(seg_of[v]).or_insert(0) += values[v];
                }
            }
            assert_eq!(results, expect, "seed {seed}");
            // The whole point: rounds bounded by segment diameter, far
            // below tree height on stringy trees.
            assert!(
                report.rounds <= max_diam as u64 + 3,
                "seed {seed}: rounds {} vs max segment diameter {max_diam}",
                report.rounds
            );
        }
    }

    /// Segment construction without depending on decss-tree (which would
    /// be a dependency cycle): greedy chunks of the MST by subtree size.
    mod decss_tree_free {
        use super::*;

        /// `(parent, parent_edge, seg_of, max_diameter)` of a segment chunking.
        pub type Segmentation = (Vec<Option<VertexId>>, Vec<Option<EdgeId>>, Vec<u32>, u32);

        pub fn mst_segments(g: &Graph) -> Segmentation {
            let mst = algo::minimum_spanning_tree(g).unwrap();
            let overlay =
                crate::protocols::broadcast::TreeOverlay::from_edges(g, VertexId(0), &mst);
            let n = g.n();
            let parent: Vec<Option<VertexId>> =
                (0..n).map(|v| overlay.parent[v].map(|(_, p)| p)).collect();
            let parent_edge: Vec<Option<EdgeId>> =
                (0..n).map(|v| overlay.parent[v].map(|(e, _)| e)).collect();
            // Depth-based chunking: segment id = depth / s.
            let s = (n as f64).sqrt().ceil() as u32;
            let mut depth = vec![0u32; n];
            let mut order = vec![VertexId(0)];
            let mut i = 0;
            while i < order.len() {
                let v = order[i];
                i += 1;
                for &(_, c) in &overlay.children[v.index()] {
                    depth[c.index()] = depth[v.index()] + 1;
                    order.push(c);
                }
            }
            let seg_of: Vec<u32> = (0..n)
                .map(|v| {
                    if parent[v].is_none() {
                        u32::MAX
                    } else {
                        depth[v] / s
                    }
                })
                .collect();
            // Max segment "diameter" here = 2s (a band of depth s).
            (parent, parent_edge, seg_of, 2 * s)
        }
    }
}
