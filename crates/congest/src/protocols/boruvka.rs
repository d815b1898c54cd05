//! Distributed Borůvka minimum spanning tree.
//!
//! Synchronous Borůvka with component-internal flooding: each phase,
//! every component (a) agrees on its id (min vertex id, flooded over the
//! selected tree edges), (b) learns each vertex's neighbouring component
//! ids, (c) floods its minimum-weight outgoing edge (MWOE, ties broken by
//! edge id so the order is total and Borůvka adds no cycles), and (d)
//! merges over the MWOE. Each phase is allotted a fixed window of
//! `2n + 5` rounds (component diameter is at most `n − 1`), and there are
//! at most `ceil(log2 n) + 1` phases.
//!
//! This is the classic `O(n log n)`-round Borůvka, not Kutten–Peleg's
//! `O(D + √n log* n)` algorithm; it exists as the *genuine message-level*
//! MST substrate (see DESIGN.md §3) and to certify that the tree the
//! logical pipeline uses (Kruskal with id tie-breaking) is the one a real
//! distributed execution computes.

use crate::message::Message;
use crate::metrics::SimReport;
use crate::network::{Network, NodeLogic, RoundCtx};
use decss_graphs::{EdgeId, Graph, VertexId};

const TAG_COMP: u8 = 10;
const TAG_HELLO: u8 = 11;
const TAG_CAND: u8 = 12;
const TAG_MERGE: u8 = 13;

/// A candidate outgoing edge: ordered by (weight, edge id).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Cand {
    weight: u64,
    edge: EdgeId,
}

struct BoruvkaNode {
    n: u64,
    comp: u64,
    selected: Vec<EdgeId>,
    /// Newly selected edges to announce/merge bookkeeping.
    is_selected: Vec<bool>,
    neighbour_comp: Vec<(EdgeId, VertexId, Option<u64>)>,
    /// Static weight of each incident edge, aligned with `neighbour_comp`.
    weights: Vec<u64>,
    best: Option<Cand>,
    done: bool,
}

impl BoruvkaNode {
    fn phase_len(&self) -> u64 {
        2 * self.n + 5
    }

    fn send_over_selected(&self, ctx: &mut RoundCtx<'_>, msg: &Message) {
        for &(e, w) in ctx.ports {
            if self.is_selected[e.index()] {
                ctx.send(e, w, msg.clone());
            }
        }
    }
}

impl NodeLogic for BoruvkaNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        if self.done {
            return;
        }
        let n = self.n;
        let local = ctx.round % self.phase_len();

        // Stage boundaries within a phase.
        let hello_at = n + 1; // send comp to all neighbours
        let cand_init_at = n + 2; // compute + start flooding the candidate
        let decide_at = 2 * n + 3; // owner fires the merge
        let merge_recv_at = 2 * n + 4; // merge messages land

        if local == 0 {
            // Phase start: reset per-phase state, flood own comp id.
            self.best = None;
            for entry in &mut self.neighbour_comp {
                entry.2 = None;
            }
            let msg = Message::new(TAG_COMP, [self.comp]);
            self.send_over_selected(ctx, &msg);
            return;
        }

        if local < hello_at {
            // Comp-id min-flooding over selected edges.
            let mut improved = false;
            for (_, _, msg) in ctx.inbox {
                if msg.tag == TAG_COMP && msg.words[0] < self.comp {
                    self.comp = msg.words[0];
                    improved = true;
                }
            }
            if improved {
                let msg = Message::new(TAG_COMP, [self.comp]);
                self.send_over_selected(ctx, &msg);
            }
            return;
        }

        if local == hello_at {
            ctx.send_all(&Message::new(TAG_HELLO, [self.comp]));
            return;
        }

        if local == cand_init_at {
            for &(e, from, ref msg) in ctx.inbox {
                debug_assert_eq!(msg.tag, TAG_HELLO);
                for entry in &mut self.neighbour_comp {
                    if entry.0 == e && entry.1 == from {
                        entry.2 = Some(msg.words[0]);
                    }
                }
            }
            // Local MWOE candidate among edges leaving the component.
            for (i, &(e, _w)) in ctx.ports.iter().enumerate() {
                let other_comp = self.neighbour_comp[i].2.expect("hello from every neighbour");
                if other_comp != self.comp {
                    let cand = Cand { weight: self.weights[i], edge: e };
                    if self.best.is_none_or(|b| cand < b) {
                        self.best = Some(cand);
                    }
                }
            }
            if let Some(b) = self.best {
                let msg = Message::new(TAG_CAND, [b.weight, b.edge.0 as u64]);
                self.send_over_selected(ctx, &msg);
            }
            return;
        }

        if local < decide_at {
            // MWOE min-flooding over selected edges.
            let mut improved = false;
            for (_, _, msg) in ctx.inbox {
                if msg.tag == TAG_CAND {
                    let cand = Cand { weight: msg.words[0], edge: EdgeId(msg.words[1] as u32) };
                    if self.best.is_none_or(|b| cand < b) {
                        self.best = Some(cand);
                        improved = true;
                    }
                }
            }
            if improved {
                let b = self.best.expect("just set");
                let msg = Message::new(TAG_CAND, [b.weight, b.edge.0 as u64]);
                self.send_over_selected(ctx, &msg);
            }
            return;
        }

        if local == decide_at {
            match self.best {
                None => {
                    // The component has no outgoing edge; since the input
                    // graph is connected, it spans — we are finished.
                    self.done = true;
                }
                Some(b) => {
                    // If the component MWOE is one of my incident edges, I
                    // fire the merge over it.
                    if let Some(&(e, to)) = ctx.ports.iter().find(|&&(e, _)| e == b.edge) {
                        self.is_selected[e.index()] = true;
                        if !self.selected.contains(&e) {
                            self.selected.push(e);
                        }
                        ctx.send(e, to, Message::signal(TAG_MERGE));
                    }
                }
            }
            return;
        }

        if local == merge_recv_at {
            for &(e, _, ref msg) in ctx.inbox {
                debug_assert_eq!(msg.tag, TAG_MERGE);
                self.is_selected[e.index()] = true;
                if !self.selected.contains(&e) {
                    self.selected.push(e);
                }
            }
        }
    }

    fn wants_tick(&self) -> bool {
        !self.done
    }
}

/// Runs distributed Borůvka and returns the selected MST edge ids
/// (sorted) plus the metrics.
///
/// # Panics
///
/// Panics if the graph is disconnected (the protocol would stall).
pub fn distributed_mst(g: &Graph) -> (Vec<EdgeId>, SimReport) {
    assert!(
        decss_graphs::algo::is_connected(g),
        "distributed MST needs a connected graph"
    );
    let n = g.n() as u64;
    let mut net = Network::new(g, |v| {
        let ports = g.neighbors(v);
        BoruvkaNode {
            n,
            comp: v.0 as u64,
            selected: Vec::new(),
            is_selected: vec![false; g.m()],
            neighbour_comp: ports.iter().map(|&(e, w)| (e, w, None)).collect(),
            weights: ports.iter().map(|&(e, _)| g.weight(e)).collect(),
            best: None,
            done: false,
        }
    });
    let phases = (g.n() as f64).log2().ceil() as u64 + 2;
    let report = net.run((2 * n + 5) * phases.max(1) + 4);
    let mut edges: Vec<EdgeId> = Vec::new();
    for (_, node) in net.nodes() {
        for &e in &node.selected {
            if !edges.contains(&e) {
                edges.push(e);
            }
        }
    }
    edges.sort_unstable();
    (edges, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::{algo, gen};

    #[test]
    fn boruvka_matches_kruskal_with_distinct_weights() {
        for seed in 0..4 {
            let g = gen::gnp_two_ec(20, 0.15, 1_000_000, seed);
            let (dist, _) = distributed_mst(&g);
            let oracle = algo::minimum_spanning_tree(&g).unwrap();
            assert_eq!(dist, oracle, "seed {seed}");
        }
    }

    #[test]
    fn boruvka_handles_ties_consistently() {
        // All-equal weights: (weight, id) order still yields a unique MST.
        let g = gen::grid(4, 4, 1, 0).unweighted();
        let (dist, _) = distributed_mst(&g);
        assert_eq!(dist.len(), g.n() - 1);
        assert!(algo::is_connected_subgraph(&g, dist.iter().copied()));
        let oracle = algo::minimum_spanning_tree(&g).unwrap();
        assert_eq!(g.weight_of(dist), g.weight_of(oracle));
    }

    #[test]
    fn boruvka_on_single_vertex() {
        let g = Graph::from_edges(1, []).unwrap();
        let (dist, _) = distributed_mst(&g);
        assert!(dist.is_empty());
    }

    use decss_graphs::Graph;
}
