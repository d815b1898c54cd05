//! Neighbour label exchange: every vertex ships an `O(log² n)`-bit label
//! (its heavy-light light-edge list, Definition 5.3) to each neighbour,
//! spread over multiple rounds to respect the per-edge word budget.
//! Afterwards each vertex can answer LCA queries with any neighbour
//! *locally* — the message-level realization of Theorem 5.3's claim
//! "each two vertices adjacent in G can know their LCA".
//!
//! Labels are supplied by the caller as flat word lists (the logical
//! pipeline computes them via `decss_tree::HeavyLight`); the protocol is
//! payload-agnostic chunked transfer with per-edge sequencing.

use crate::message::{Message, DEFAULT_BANDWIDTH};
use crate::metrics::SimReport;
use crate::network::{Network, NodeLogic, RoundCtx};
use decss_graphs::{Graph, VertexId};
use std::collections::HashMap;

const TAG_CHUNK: u8 = 8;

/// Words of payload per message (tag + length header + payload must fit
/// the bandwidth budget).
const CHUNK: usize = DEFAULT_BANDWIDTH - 2;

struct ExchangeNode {
    label: Vec<u64>,
    cursor: usize,
    /// Received words per neighbour.
    received: HashMap<VertexId, Vec<u64>>,
    /// Expected total per neighbour (first word of the first chunk).
    expected: HashMap<VertexId, usize>,
}

impl NodeLogic for ExchangeNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        for &(_, from, ref msg) in ctx.inbox {
            debug_assert_eq!(msg.tag, TAG_CHUNK);
            let entry = self.received.entry(from).or_default();
            let mut words = msg.words.as_slice();
            if let std::collections::hash_map::Entry::Vacant(e) = self.expected.entry(from) {
                e.insert(words[0] as usize);
                words = &words[1..];
            }
            entry.extend_from_slice(words);
        }
        // Send the next chunk to every neighbour (same chunk for all —
        // the label does not depend on the recipient).
        if self.cursor <= self.label.len() {
            let mut payload = Vec::with_capacity(CHUNK + 1);
            if self.cursor == 0 {
                payload.push(self.label.len() as u64);
            }
            let end = (self.cursor + CHUNK - payload.len()).min(self.label.len());
            payload.extend_from_slice(&self.label[self.cursor..end]);
            self.cursor = end + usize::from(end == self.label.len());
            // The +1 sentinel above marks "done" once the final words
            // went out (also handles empty labels: header-only message).
            ctx.send_all(&Message::new(TAG_CHUNK, payload));
        }
    }

    fn wants_tick(&self) -> bool {
        self.cursor <= self.label.len()
    }
}

/// Exchanges per-vertex labels between all neighbours.
///
/// Returns, for each vertex, the map `neighbour -> its label`, plus the
/// metrics. Takes `ceil((L+1)/(B-2)) + O(1)` rounds for labels of `L`
/// words under bandwidth `B`.
pub fn exchange_labels(
    g: &Graph,
    labels: &[Vec<u64>],
) -> (Vec<HashMap<VertexId, Vec<u64>>>, SimReport) {
    assert_eq!(labels.len(), g.n(), "one label per vertex");
    let mut net = Network::new(g, |v| ExchangeNode {
        label: labels[v.index()].clone(),
        cursor: 0,
        received: HashMap::new(),
        expected: HashMap::new(),
    });
    let max_len = labels.iter().map(|l| l.len()).max().unwrap_or(0);
    let report = net.run((max_len + 8) as u64 * 2 + 8);
    let out = net
        .nodes()
        .map(|(v, n)| {
            // Every neighbour must have delivered its complete label.
            for &(_, w) in g.neighbors(v) {
                let got = n.received.get(&w).map(|r| r.len()).unwrap_or(0);
                assert_eq!(
                    got,
                    labels[w.index()].len(),
                    "{v} received {got}/{} words from {w}",
                    labels[w.index()].len()
                );
            }
            n.received.clone()
        })
        .collect();
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;

    #[test]
    fn labels_arrive_complete_and_correct() {
        let g = gen::gnp_two_ec(25, 0.12, 10, 6);
        let labels: Vec<Vec<u64>> = (0..g.n())
            .map(|v| (0..(v % 7)).map(|i| (v * 100 + i) as u64).collect())
            .collect();
        let (received, report) = exchange_labels(&g, &labels);
        for v in g.vertices() {
            for &(_, w) in g.neighbors(v) {
                assert_eq!(received[v.index()][&w], labels[w.index()], "label of {w} at {v}");
            }
        }
        assert!(report.max_edge_load <= DEFAULT_BANDWIDTH as u64);
    }

    #[test]
    fn rounds_scale_with_label_length_not_n() {
        let g = gen::cycle(60, 1, 0);
        let labels: Vec<Vec<u64>> = (0..g.n()).map(|_| vec![7u64; 12]).collect();
        let (_, report) = exchange_labels(&g, &labels);
        // 12 words at 2 payload words/round: about 7 rounds.
        assert!(report.rounds <= 12, "rounds = {}", report.rounds);
    }

    /// End-to-end Theorem 5.3: ship heavy-light light-edge lists, then
    /// every pair of adjacent vertices computes the LCA locally from the
    /// exchanged words.
    #[test]
    fn adjacent_lca_from_exchanged_lists() {
        use decss_graphs::algo;
        let g = gen::gnp_two_ec(40, 0.08, 25, 9);
        let mst = algo::minimum_spanning_tree(&g).unwrap();
        // Encode each vertex's light-edge list as flat words:
        // (top, bottom, top_depth, bottom_depth) per entry — computed
        // here with plain tree walks (this crate cannot depend on
        // decss-tree), 4 words per entry as in Definition 5.3.
        let overlay = crate::protocols::broadcast::TreeOverlay::from_edges(&g, VertexId(0), &mst);
        let n = g.n();
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
        // Subtree sizes bottom-up.
        let mut size = vec![1u32; n];
        for v in order.iter().rev() {
            if let Some((_, p)) = overlay.parent[v.index()] {
                size[p.index()] += size[v.index()];
            }
        }
        // Light lists top-down (non-strict heavy rule, as in decss-tree).
        let mut lists: Vec<Vec<u64>> = vec![Vec::new(); n];
        for v in order.iter() {
            if let Some((_, p)) = overlay.parent[v.index()] {
                let heavy = 2 * size[v.index()] >= size[p.index()];
                let mut list = lists[p.index()].clone();
                if !heavy {
                    list.extend([
                        p.0 as u64,
                        v.0 as u64,
                        depth[p.index()] as u64,
                        depth[v.index()] as u64,
                    ]);
                }
                lists[v.index()] = list;
            }
        }
        let (received, _) = exchange_labels(&g, &lists);
        // Local LCA from two lists + depths (the Theorem 5.3 rule).
        let lca_from = |u: VertexId, lu: &[u64], v: VertexId, lv: &[u64]| -> VertexId {
            let mut shared = 0;
            while shared + 4 <= lu.len()
                && shared + 4 <= lv.len()
                && lu[shared..shared + 4] == lv[shared..shared + 4]
            {
                shared += 4;
            }
            let (cu, cud) = if shared < lu.len() {
                (VertexId(lu[shared] as u32), lu[shared + 2] as u32)
            } else {
                (u, depth[u.index()])
            };
            let (cv, cvd) = if shared < lv.len() {
                (VertexId(lv[shared] as u32), lv[shared + 2] as u32)
            } else {
                (v, depth[v.index()])
            };
            if cud <= cvd {
                cu
            } else {
                cv
            }
        };
        // Check every adjacent pair against a parent-walk oracle.
        let naive = |mut a: VertexId, mut b: VertexId| -> VertexId {
            while a != b {
                if depth[a.index()] >= depth[b.index()] {
                    a = overlay.parent[a.index()].expect("non-root").1;
                } else {
                    b = overlay.parent[b.index()].expect("non-root").1;
                }
            }
            a
        };
        for (_, e) in g.edges() {
            let lu = &received[e.u.index()][&e.v]; // v's list held by u
            let lv = &lists[e.u.index()]; // u's own list
            let got = lca_from(e.v, lu, e.u, lv);
            assert_eq!(got, naive(e.u, e.v), "edge {} -- {}", e.u, e.v);
        }
    }
}
