//! The synchronous round simulator.
//!
//! One sequential engine drives every round. It is allocation-free in
//! steady state: inboxes are double-buffered and reused, and bandwidth
//! accounting uses a flat per-edge vector with a touched-edge scratch
//! list. It is the reference the analytic [`crate::ledger`] formulas
//! are calibrated against.

use crate::message::{Message, DEFAULT_BANDWIDTH};
use crate::metrics::SimReport;
use decss_graphs::{EdgeId, Graph, VertexId};

/// One in-flight message: `(edge, sender, message)`, indexed by recipient
/// in the inbox buffers.
type Delivery = (EdgeId, VertexId, Message);

/// Behaviour of one vertex in a protocol.
///
/// A node is driven once per round with the messages delivered that round
/// and may enqueue messages for the next round. The simulator terminates
/// when a round is *quiescent*: no messages were delivered, none were
/// sent, and no node asked to keep ticking.
pub trait NodeLogic {
    /// One synchronous round. Inspect [`RoundCtx::inbox`] and send via
    /// [`RoundCtx::send`].
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>);

    /// Whether this node wants another round even without traffic
    /// (e.g. it is counting down a pipeline delay). Defaults to `false`.
    fn wants_tick(&self) -> bool {
        false
    }
}

/// Tallies of the current node's sends, used to pick the accounting
/// path: a node whose sends all came from [`RoundCtx::send_all`]
/// loads every incident edge uniformly, so its bandwidth check is a
/// single comparison instead of a per-message edge-table walk.
#[derive(Clone, Copy, Default)]
struct SendTally {
    /// Total words per edge contributed by uniform bursts.
    burst_cost: u64,
    /// Messages enqueued by bursts.
    burst_msgs: u64,
    /// Words enqueued by bursts (over all edges).
    burst_words: u64,
    /// Messages enqueued by targeted [`RoundCtx::send`] calls; if any,
    /// the round falls back to exact per-edge accounting.
    singles: u64,
}

/// Per-round view handed to a node.
pub struct RoundCtx<'a> {
    /// This node's id.
    pub me: VertexId,
    /// Current round number (starting at 0).
    pub round: u64,
    /// Incident `(edge, neighbour)` ports, as in the underlying graph.
    pub ports: &'a [(EdgeId, VertexId)],
    /// Messages delivered this round as `(edge, sender, message)`.
    pub inbox: &'a [Delivery],
    outbox: &'a mut Vec<Delivery>,
    tally: SendTally,
}

impl RoundCtx<'_> {
    /// Sends `msg` over `edge` to `to` at the end of this round; it is
    /// delivered at the start of the next round.
    pub fn send(&mut self, edge: EdgeId, to: VertexId, msg: Message) {
        self.tally.singles += 1;
        self.outbox.push((edge, to, msg));
    }

    /// Sends `msg` to every neighbour.
    pub fn send_all(&mut self, msg: &Message) {
        let cost = msg.cost() as u64;
        self.tally.burst_cost += cost;
        self.tally.burst_msgs += self.ports.len() as u64;
        self.tally.burst_words += cost * self.ports.len() as u64;
        for &(e, w) in self.ports {
            self.outbox.push((e, w, msg.clone()));
        }
    }
}

/// The simulator: owns the per-vertex node states and runs rounds until
/// quiescence or a round cap.
pub struct Network<'g, N> {
    graph: &'g Graph,
    nodes: Vec<N>,
    bandwidth: usize,
    report: SimReport,
    /// In-flight messages addressed per recipient for the next round.
    pending: Vec<Vec<Delivery>>,
    /// Double buffer: last round's (already consumed) inbox vectors,
    /// swapped with `pending` at each round start so their capacity is
    /// reused instead of reallocated.
    inboxes: Vec<Vec<Delivery>>,
    /// Per-node send scratch, drained after every `on_round` call.
    outbox: Vec<Delivery>,
    /// Flat per-edge word counts for the node currently being driven
    /// (index = edge id); only the entries listed in `touched` are live.
    edge_load: Vec<u64>,
    /// Edges the current node has sent over, used to reset `edge_load`
    /// without scanning all `m` entries.
    touched: Vec<EdgeId>,
}

impl<'g, N: NodeLogic> Network<'g, N> {
    /// Builds a network where vertex `v` runs `make(v)`.
    pub fn new(graph: &'g Graph, make: impl FnMut(VertexId) -> N) -> Self {
        let nodes: Vec<N> = graph.vertices().map(make).collect();
        Network {
            graph,
            nodes,
            bandwidth: DEFAULT_BANDWIDTH,
            report: SimReport::default(),
            pending: vec![Vec::new(); graph.n()],
            inboxes: vec![Vec::new(); graph.n()],
            outbox: Vec::new(),
            edge_load: vec![0; graph.m()],
            touched: Vec::new(),
        }
    }

    /// Overrides the per-edge per-direction per-round word budget.
    pub fn with_bandwidth(mut self, words: usize) -> Self {
        self.bandwidth = words;
        self
    }

    /// Immutable access to a node's state (e.g. to read results out).
    pub fn node(&self, v: VertexId) -> &N {
        &self.nodes[v.index()]
    }

    /// Iterates over all node states.
    pub fn nodes(&self) -> impl Iterator<Item = (VertexId, &N)> {
        self.nodes.iter().enumerate().map(|(i, n)| (VertexId(i as u32), n))
    }

    /// Executes a single round; returns whether the round was quiescent
    /// (nothing delivered, nothing sent, nobody wants a tick).
    pub fn step(&mut self, round: u64) -> bool {
        let n = self.graph.n();
        // Double buffer: this round's deliveries were accumulated in
        // `pending`; the vectors consumed last round become the new
        // accumulation buffers, keeping their capacity.
        std::mem::swap(&mut self.pending, &mut self.inboxes);
        for buf in &mut self.pending {
            buf.clear();
        }
        let delivered: u64 = self.inboxes.iter().map(|b| b.len() as u64).sum();
        let any_tick = self.nodes.iter().any(|nd| nd.wants_tick());

        let mut sent_any = false;
        for v in 0..n {
            let me = VertexId(v as u32);
            let mut ctx = RoundCtx {
                me,
                round,
                ports: self.graph.neighbors(me),
                inbox: &self.inboxes[v],
                outbox: &mut self.outbox,
                tally: SendTally::default(),
            };
            self.nodes[v].on_round(&mut ctx);
            let tally = ctx.tally;
            if self.outbox.is_empty() {
                continue;
            }
            sent_any = true;
            self.route_outbox(me, tally);
        }

        if delivered == 0 && !sent_any && !any_tick {
            true
        } else {
            self.report.rounds += 1;
            false
        }
    }

    /// Validates, accounts, and routes node `me`'s drained outbox into
    /// the per-recipient `pending` inboxes.
    ///
    /// Two paths, identical semantics:
    /// * every send came from [`RoundCtx::send_all`] (`tally.singles == 0`):
    ///   each incident edge carries exactly `burst_cost` words and
    ///   incidence holds by construction, so one budget comparison covers
    ///   the whole outbox;
    /// * otherwise: exact per-edge accounting on the flat `edge_load`
    ///   vector, with `touched` recording which entries to reset so the
    ///   next node starts clean without a per-node map allocation or an
    ///   O(m) wipe.
    fn route_outbox(&mut self, me: VertexId, tally: SendTally) {
        let bandwidth = self.bandwidth as u64;
        let report = &mut self.report;
        if tally.singles == 0 {
            assert!(
                tally.burst_cost <= bandwidth,
                "bandwidth exceeded on {} by {me}: {} > {} words",
                self.graph.neighbors(me)[0].0,
                tally.burst_cost,
                bandwidth
            );
            report.messages += tally.burst_msgs;
            report.words += tally.burst_words;
            report.max_edge_load = report.max_edge_load.max(tally.burst_cost);
            for (e, to, msg) in self.outbox.drain(..) {
                self.pending[to.index()].push((e, me, msg));
            }
        } else {
            for (e, to, msg) in self.outbox.drain(..) {
                let edge = self.graph.edge(e);
                assert!(
                    edge.has_endpoint(me) && edge.other(me) == to,
                    "{me} tried to send over non-incident edge {e} to {to}"
                );
                let load = &mut self.edge_load[e.index()];
                if *load == 0 {
                    self.touched.push(e);
                }
                *load += msg.cost() as u64;
                assert!(
                    *load <= bandwidth,
                    "bandwidth exceeded on {e} by {me}: {} > {} words",
                    *load,
                    bandwidth
                );
                report.messages += 1;
                report.words += msg.cost() as u64;
                report.max_edge_load = report.max_edge_load.max(*load);
                self.pending[to.index()].push((e, me, msg));
            }
            for e in self.touched.drain(..) {
                self.edge_load[e.index()] = 0;
            }
        }
    }

    /// The metrics accumulated so far.
    pub fn report(&self) -> SimReport {
        self.report
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Runs rounds until quiescence or `max_rounds`.
    ///
    /// Returns the metrics of the run.
    ///
    /// # Panics
    ///
    /// Panics if any vertex exceeds the bandwidth budget on an edge, or if
    /// the protocol fails to quiesce within `max_rounds` (a protocol bug).
    pub fn run(&mut self, max_rounds: u64) -> SimReport {
        for round in 0..max_rounds {
            if self.step(round) {
                return self.report;
            }
        }
        panic!("protocol did not quiesce within {max_rounds} rounds");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;

    /// Every node floods a token once; network must quiesce after 2 rounds.
    struct Flood {
        fired: bool,
        heard: usize,
    }

    impl NodeLogic for Flood {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if !self.fired {
                self.fired = true;
                ctx.send_all(&Message::signal(1));
            }
            self.heard += ctx.inbox.len();
        }
    }

    #[test]
    fn flood_quiesces_and_counts() {
        let g = gen::cycle(5, 1, 0);
        let mut net = Network::new(&g, |_| Flood { fired: false, heard: 0 });
        let report = net.run(10);
        // 5 vertices x 2 neighbours, one burst.
        assert_eq!(report.messages, 10);
        assert!(report.rounds <= 3);
        for (_, node) in net.nodes() {
            assert_eq!(node.heard, 2);
        }
    }

    /// A node that sends too much in one round must trip the budget.
    struct Hog;
    impl NodeLogic for Hog {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round == 0 {
                let (e, w) = ctx.ports[0];
                for _ in 0..10 {
                    ctx.send(e, w, Message::signal(0));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth exceeded")]
    fn bandwidth_is_enforced() {
        let g = gen::cycle(3, 1, 0);
        let mut net = Network::new(&g, |_| Hog);
        net.run(5);
    }

    /// Budget accounting must reset between nodes and between rounds:
    /// sending exactly the budget every round on the same edge is legal.
    struct BudgetEdge;
    impl NodeLogic for BudgetEdge {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round < 3 {
                let (e, w) = ctx.ports[0];
                for _ in 0..DEFAULT_BANDWIDTH {
                    ctx.send(e, w, Message::signal(0));
                }
            }
        }
        fn wants_tick(&self) -> bool {
            false
        }
    }

    #[test]
    fn budget_resets_per_node_and_per_round() {
        let g = gen::cycle(3, 1, 0);
        let mut net = Network::new(&g, |_| BudgetEdge);
        let report = net.run(10);
        assert_eq!(report.max_edge_load, DEFAULT_BANDWIDTH as u64);
        // 3 vertices x 3 rounds x budget messages.
        assert_eq!(report.messages, 3 * 3 * DEFAULT_BANDWIDTH as u64);
    }

    /// Sending over a non-incident edge is a protocol bug.
    struct Liar;
    impl NodeLogic for Liar {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round == 0 && ctx.me == VertexId(0) {
                // Edge 1 is {1,2}; vertex 0 is not an endpoint.
                ctx.send(EdgeId(1), VertexId(2), Message::signal(0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-incident")]
    fn non_incident_send_rejected() {
        let g = gen::cycle(3, 1, 0);
        let mut net = Network::new(&g, |_| Liar);
        net.run(5);
    }

    struct Never;
    impl NodeLogic for Never {
        fn on_round(&mut self, _: &mut RoundCtx<'_>) {}
        fn wants_tick(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn runaway_protocol_is_detected() {
        let g = gen::cycle(3, 1, 0);
        let mut net = Network::new(&g, |_| Never);
        net.run(4);
    }
}
