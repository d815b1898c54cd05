//! Contract checks on the sequential round engine that the unit tests
//! in `src/network.rs` do not cover.

use decss_congest::{Message, Network, NodeLogic, RoundCtx};
use decss_graphs::gen;

/// Oversending purely via `send_all` exercises the uniform-burst fast
/// path's budget check.
struct BurstHog;

impl NodeLogic for BurstHog {
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        if ctx.round == 0 {
            // Three 2-word messages to every neighbour: 6 > 4 words.
            for _ in 0..3 {
                ctx.send_all(&Message::new(0, [1]));
            }
        }
    }
}

#[test]
#[should_panic(expected = "bandwidth exceeded")]
fn sequential_burst_path_enforces_bandwidth() {
    let g = gen::cycle(8, 1, 0);
    let mut net = Network::new(&g, |_| BurstHog);
    net.run(10);
}
