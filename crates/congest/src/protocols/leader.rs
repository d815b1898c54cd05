//! Leader election by minimum-id flooding.
//!
//! Every vertex floods the smallest id it has heard; after `D + O(1)`
//! rounds all vertices agree on the global minimum. Used as the standard
//! opening move of CONGEST algorithms (picking the MST root, electing
//! the coordinator of a fragment) and as another calibration point for
//! the `O(D)` broadcast charge.

use crate::message::Message;
use crate::metrics::SimReport;
use crate::network::{Network, NodeLogic, RoundCtx};
use decss_graphs::{Graph, VertexId};

const TAG_MIN: u8 = 6;

struct LeaderNode {
    best: u64,
    announced: bool,
}

impl NodeLogic for LeaderNode {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        let mut improved = false;
        for (_, _, msg) in ctx.inbox {
            debug_assert_eq!(msg.tag, TAG_MIN);
            if msg.words[0] < self.best {
                self.best = msg.words[0];
                improved = true;
            }
        }
        if !self.announced || improved {
            self.announced = true;
            ctx.send_all(&Message::new(TAG_MIN, [self.best]));
        }
    }
}

/// Elects the minimum-id vertex; every vertex learns the leader.
///
/// Returns the leader id and the metrics.
pub fn elect_leader(g: &Graph) -> (VertexId, SimReport) {
    let mut net = Network::new(g, |v| LeaderNode { best: v.0 as u64, announced: false });
    let report = net.run(2 * g.n() as u64 + 4);
    let leader = net.node(VertexId(0)).best;
    // Everyone must agree.
    for (v, node) in net.nodes() {
        assert_eq!(node.best, leader, "{v} disagrees on the leader");
    }
    (VertexId(leader as u32), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::{algo, gen};

    #[test]
    fn elects_the_minimum_id() {
        let g = gen::gnp_two_ec(30, 0.1, 10, 4);
        let (leader, _) = elect_leader(&g);
        assert_eq!(leader, VertexId(0));
    }

    #[test]
    fn rounds_track_the_diameter() {
        let g = gen::cycle(40, 1, 0);
        let (_, report) = elect_leader(&g);
        let d = algo::diameter(&g) as u64;
        assert!(
            report.rounds >= d && report.rounds <= d + 3,
            "rounds {} vs D {d}",
            report.rounds
        );
    }

    #[test]
    fn single_vertex_is_its_own_leader() {
        let g = decss_graphs::Graph::from_edges(1, []).unwrap();
        let (leader, report) = elect_leader(&g);
        assert_eq!(leader, VertexId(0));
        assert!(report.rounds <= 2);
    }
}
