//! [`SolverSession`]: the reusable front door — registry dispatch,
//! failure injection, validation, timing, and scratch reuse across
//! repeated solves.

use crate::context::SolveCx;
use crate::error::SolveError;
use crate::registry::Registry;
use crate::report::SolveReport;
use crate::request::SolveRequest;
use crate::solvers::{shortcut_config, shortcut_report};
use decss_graphs::fingerprint::graph_fingerprint;
use decss_graphs::{algo, EdgeId, Graph};
use decss_shortcuts::dynamic::{mutate, DeltaError, DynamicInstance, GraphDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// How many [`DynamicInstance`]s a session retains before evicting the
/// lot — each holds a full graph plus decomposition, so the cache is
/// deliberately small; a delta stream touches one or two entries.
const DYNAMIC_CACHE_CAP: usize = 32;

/// A reusable solving session: owns the [`Registry`] and the shared
/// scratch ([`SolveCx`], including the `ShortcutWorkspace`), so repeated
/// solves — scenario sweeps, services under heavy traffic — stop
/// re-allocating per call. One session serves any mix of algorithms and
/// instance sizes; scratch grows to the largest instance seen and is
/// epoch-stamped, so reuse is bit-identical to fresh allocation (pinned
/// by the parity suite's dirty-session tests).
///
/// Delta-stream requests ([`SolveRequest::deltas`]) against the
/// `shortcut` algorithm additionally keep a [`DynamicInstance`] per
/// graph fingerprint, so a stream of mutations re-solves incrementally
/// instead of from scratch; see
/// [`decss_shortcuts::dynamic`] for the engine and its byte-identical
/// guarantee.
#[derive(Default)]
pub struct SolverSession {
    registry: Registry,
    cx: SolveCx,
    /// Retained incremental pipeline state, keyed by the fingerprint of
    /// each instance's *current* (post-mutation) graph.
    dynamic: HashMap<u64, DynamicInstance>,
}

impl SolverSession {
    /// A session over the [standard registry](Registry::standard).
    pub fn new() -> Self {
        SolverSession::default()
    }

    /// A session over a custom registry.
    pub fn with_registry(registry: Registry) -> Self {
        SolverSession { registry, cx: SolveCx::new(), dynamic: HashMap::new() }
    }

    /// The session's registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The session's context (to pre-grow scratch or drive a
    /// [`Solver`](crate::Solver) by hand).
    pub fn context(&mut self) -> &mut SolveCx {
        &mut self.cx
    }

    /// Solves `g` per `req`: resolves the algorithm in the registry,
    /// applies the request's failure injection, runs the solver with the
    /// session scratch, and stamps the report with the instance echo,
    /// validation verdict, and wall-clock time.
    ///
    /// # Errors
    ///
    /// [`SolveError::UnknownAlgorithm`] for unregistered names,
    /// [`SolveError::BadRequest`]/[`SolveError::BadEpsilon`] for
    /// out-of-domain knobs, and whatever the solver itself returns.
    pub fn solve(&mut self, g: &Graph, req: &SolveRequest) -> Result<SolveReport, SolveError> {
        if req.bandwidth == 0 {
            return Err(SolveError::BadRequest("bandwidth must be >= 1".into()));
        }
        if !(req.epsilon.is_finite() && req.epsilon > 0.0) {
            return Err(SolveError::BadEpsilon);
        }
        if !req.deltas.is_empty() && req.fail_edges > 0 {
            // Both rewrite the edge-id space; the combination would make
            // the report's ids ambiguous.
            return Err(SolveError::BadRequest(
                "deltas cannot be combined with fail_edges".into(),
            ));
        }
        if !req.deltas.is_empty() && req.algorithm == "shortcut" {
            return self.solve_deltas_incremental(g, req);
        }
        let solver =
            self.registry
                .get(&req.algorithm)
                .ok_or_else(|| SolveError::UnknownAlgorithm {
                    name: req.algorithm.clone(),
                    known: self.registry.known(),
                })?;
        self.cx.arm(req);
        self.cx.checkpoint()?;

        // Non-shortcut algorithms take deltas too — applied up front,
        // solved from scratch (no retained state to be incremental
        // against). The report's ids live in the mutated id space.
        let mutated;
        let base: &Graph = if req.deltas.is_empty() {
            g
        } else {
            mutated = mutate(g, &req.deltas).map_err(delta_error)?;
            &mutated
        };

        let (damaged, failed_edges);
        let instance: &Graph = if req.fail_edges > 0 {
            let (injected, removed) = inject_failures(base, req.fail_edges, req.seed.unwrap_or(0));
            failed_edges = removed;
            match injected {
                Some(d) => {
                    damaged = d;
                    &damaged
                }
                // Nothing was removable: solve the caller's graph as-is,
                // without having cloned it.
                None => base,
            }
        } else {
            failed_edges = Vec::new();
            base
        };

        // Timed from here so `wall_ms` means the solve itself: rows with
        // and without failure injection stay comparable in sweeps.
        let started = Instant::now();
        let mut report = solver.solve(instance, req, &mut self.cx)?;
        report.valid = algo::two_edge_connected_in(instance, report.edges.iter().copied());
        if !failed_edges.is_empty() {
            // The damaged graph renumbers edges densely; translate the
            // chosen set back into the caller's id space (surviving
            // original ids, in order) so reports round-trip against the
            // input graph (`decss verify --edges ...`). Same edge set,
            // same weight, same validity — only the labels change.
            let mut surviving = Vec::with_capacity(instance.m());
            let mut removed = failed_edges.iter().peekable();
            for e in g.edge_ids() {
                if removed.peek() == Some(&&e) {
                    removed.next();
                } else {
                    surviving.push(e);
                }
            }
            for e in &mut report.edges {
                *e = surviving[e.index()];
            }
        }
        report.params = req.params_echo();
        report.n = instance.n();
        report.m = instance.m();
        report.bandwidth = req.bandwidth;
        report.failed_edges = failed_edges;
        if !req.deltas.is_empty() {
            report.fingerprint = Some(graph_fingerprint(instance));
        }
        report.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(report)
    }

    /// The delta-stream fast path: look up (or build) the
    /// [`DynamicInstance`] for the request's base graph, apply the
    /// batch incrementally, and assemble the exact report the
    /// `shortcut` solver would have produced on the mutated graph.
    fn solve_deltas_incremental(
        &mut self,
        g: &Graph,
        req: &SolveRequest,
    ) -> Result<SolveReport, SolveError> {
        self.cx.arm(req);
        self.cx.checkpoint()?;
        let config = shortcut_config(req);
        // Timed from here so a cold solve honestly includes the one-off
        // decomposition build, like a fresh pipeline run would.
        let started = Instant::now();
        let fp0 = graph_fingerprint(g);
        let mut inst = match self.dynamic.remove(&fp0) {
            Some(inst) => inst,
            None => DynamicInstance::new(g.clone()),
        };
        // Park the base state back under its own key: a clone is O(n+m),
        // so other delta batches against the same base stay incremental
        // instead of paying a full rebuild each.
        self.park(fp0, inst.clone());
        match inst.apply(&req.deltas, &config) {
            Ok((res, stats)) => {
                let mut report = shortcut_report(res, req);
                report.valid =
                    algo::two_edge_connected_in(inst.graph(), report.edges.iter().copied());
                report.params = req.params_echo();
                report.n = inst.graph().n();
                report.m = inst.graph().m();
                report.bandwidth = req.bandwidth;
                report.incremental = Some(stats);
                report.fingerprint = Some(inst.fingerprint());
                report.wall_ms = started.elapsed().as_secs_f64() * 1e3;
                self.park(inst.fingerprint(), inst);
                Ok(report)
            }
            Err(err @ DeltaError::Invalid { .. }) => Err(delta_error(err)),
            Err(DeltaError::NotTwoEdgeConnected) => {
                // The mutation committed: keep the instance around so a
                // later repairing batch can chain off it.
                self.park(inst.fingerprint(), inst);
                Err(SolveError::NotTwoEdgeConnected)
            }
        }
    }

    fn park(&mut self, fp: u64, inst: DynamicInstance) {
        if self.dynamic.len() >= DYNAMIC_CACHE_CAP && !self.dynamic.contains_key(&fp) {
            self.dynamic.clear();
        }
        self.dynamic.insert(fp, inst);
    }
}

fn delta_error(err: DeltaError) -> SolveError {
    match err {
        DeltaError::Invalid { .. } => SolveError::BadRequest(err.to_string()),
        DeltaError::NotTwoEdgeConnected => SolveError::NotTwoEdgeConnected,
    }
}

/// Seeded edge-failure injection: removes up to `k` edges of `g`, chosen
/// in seeded-random order, skipping any whose loss would break
/// 2-edge-connectivity (the drill models a network degrading while it
/// still *has* a 2-ECSS — an infeasible instance would make every run a
/// trivial error). Returns the damaged graph and the removed edges as
/// ids of the **original** graph; the damaged graph re-numbers its edges
/// densely (it is the delete-only case of [`mutate`]'s id compaction).
///
/// Fewer than `k` edges fall when the graph runs out of removable ones
/// (e.g. once it is Hamiltonian-cycle-thin). When *nothing* is removable
/// — a bare cycle, or a bridge-heavy graph that is not 2-edge-connected
/// to begin with — the damaged graph is `None` and the caller keeps
/// borrowing the original, without a clone having been built.
pub fn inject_failures(g: &Graph, k: u32, seed: u64) -> (Option<Graph>, Vec<EdgeId>) {
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Fisher–Yates with the vendored rng (no shuffle helper there).
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }

    let mut alive = vec![true; g.m()];
    let mut removed: Vec<EdgeId> = Vec::new();
    for &e in &order {
        if removed.len() as u32 == k {
            break;
        }
        alive[e.index()] = false;
        if algo::two_edge_connected_in(g, g.edge_ids().filter(|&x| alive[x.index()])) {
            removed.push(e);
        } else {
            alive[e.index()] = true;
        }
    }
    if removed.is_empty() {
        return (None, removed);
    }
    removed.sort_unstable();

    // The damaged graph is exactly the delta machinery's delete batch:
    // survivors keep their relative order, ids compact densely.
    let deltas: Vec<GraphDelta> = removed.iter().map(|&edge| GraphDelta::Delete { edge }).collect();
    let damaged = mutate(g, &deltas).expect("removed ids come from g");
    (Some(damaged), removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;

    #[test]
    fn unknown_algorithm_lists_the_registry() {
        let g = gen::cycle(5, 9, 0);
        let mut session = SolverSession::new();
        match session.solve(&g, &SolveRequest::new("mystery")) {
            Err(SolveError::UnknownAlgorithm { name, known }) => {
                assert_eq!(name, "mystery");
                assert!(known.contains("shortcut"), "{known}");
            }
            other => panic!("expected UnknownAlgorithm, got {other:?}"),
        }
    }

    #[test]
    fn bad_knobs_are_rejected_before_dispatch() {
        let g = gen::cycle(5, 9, 0);
        let mut session = SolverSession::new();
        assert!(matches!(
            session.solve(&g, &SolveRequest::new("improved").bandwidth(0)),
            Err(SolveError::BadRequest(_))
        ));
        assert!(matches!(
            session.solve(&g, &SolveRequest::new("improved").epsilon(0.0)),
            Err(SolveError::BadEpsilon)
        ));
        assert!(matches!(
            session.solve(&g, &SolveRequest::new("shortcut").epsilon(f64::NAN)),
            Err(SolveError::BadEpsilon)
        ));
    }

    #[test]
    fn session_solves_and_stamps_the_report() {
        let g = gen::grid(6, 6, 20, 7);
        let mut session = SolverSession::new();
        let report = session.solve(&g, &SolveRequest::new("improved")).unwrap();
        assert_eq!(report.algorithm, "improved");
        assert_eq!((report.n, report.m), (g.n(), g.m()));
        assert!(report.valid);
        assert!(report.certified_ratio() >= 1.0 - 1e-9);
        assert!(report.rounds.unwrap() > 0);
        assert!(report.wall_ms >= 0.0);
        assert!(report.params.contains("epsilon=0.25"));
    }

    #[test]
    fn failure_injection_removes_edges_and_stays_solvable() {
        let g = gen::grid(6, 6, 20, 7);
        let (damaged, removed) = inject_failures(&g, 4, 11);
        let damaged = damaged.expect("a grid has removable edges");
        assert_eq!(removed.len(), 4);
        assert_eq!(damaged.m(), g.m() - 4);
        assert_eq!(damaged.n(), g.n());
        assert!(algo::is_two_edge_connected(&damaged));
        // Deterministic per seed; different seeds explore different edges.
        let (_, removed_again) = inject_failures(&g, 4, 11);
        assert_eq!(removed, removed_again);

        let mut session = SolverSession::new();
        let report = session
            .solve(&g, &SolveRequest::new("shortcut").fail_edges(4).seed(11))
            .unwrap();
        assert_eq!(report.failed_edges, removed);
        assert_eq!(report.m, g.m() - 4);
        assert!(report.valid);
        // The chosen edges come back in the *original* graph's id space:
        // none of them is a failed edge, and the set round-trips as a
        // 2-ECSS of the original graph directly.
        assert!(report.edges.iter().all(|e| !removed.contains(e)));
        assert!(algo::two_edge_connected_in(&g, report.edges.iter().copied()));
    }

    #[test]
    fn every_solver_reports_infeasible_inputs_cleanly() {
        // Not 2-edge-connected (a path) and outright disconnected: the
        // trait contract promises NotTwoEdgeConnected, never a panic.
        let path = gen::path(5);
        let disconnected = {
            let mut b = decss_graphs::GraphBuilder::new(4);
            b.add_edge(0, 1, 1).unwrap();
            b.add_edge(2, 3, 1).unwrap();
            b.build().unwrap()
        };
        let mut session = SolverSession::new();
        let names: Vec<&str> = session.registry().names().collect();
        for name in names {
            for g in [&path, &disconnected] {
                assert!(
                    matches!(
                        session.solve(g, &SolveRequest::new(name)),
                        Err(SolveError::NotTwoEdgeConnected)
                    ),
                    "{name} must reject infeasible inputs with NotTwoEdgeConnected"
                );
            }
        }
    }

    #[test]
    fn failure_injection_never_breaks_a_thin_cycle() {
        // A bare cycle has no removable edge at all: the short-circuit
        // returns no damaged clone and the caller borrows the original.
        let g = gen::cycle(8, 5, 1);
        let (damaged, removed) = inject_failures(&g, 3, 0);
        assert!(removed.is_empty());
        assert!(damaged.is_none());
        // The session path still solves the intact cycle.
        let mut session = SolverSession::new();
        let report = session
            .solve(&g, &SolveRequest::new("shortcut").fail_edges(3))
            .unwrap();
        assert!(report.valid);
        assert_eq!(report.m, g.m());
        assert!(report.failed_edges.is_empty());
    }

    #[test]
    fn failure_injection_short_circuits_on_bridge_heavy_graphs() {
        // A caterpillar of bridges hanging off one small cycle: every
        // non-cycle edge is a bridge, the graph is not 2EC, so *no* edge
        // is removable (removing a cycle edge adds bridges, removing a
        // bridge disconnects). Nothing should be cloned.
        let mut b = decss_graphs::GraphBuilder::new(8);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        b.add_edge(2, 0, 1).unwrap();
        for (u, v) in [(2, 3), (3, 4), (4, 5), (5, 6), (6, 7)] {
            b.add_edge(u, v, 1).unwrap();
        }
        let g = b.build().unwrap();
        assert!(!algo::is_two_edge_connected(&g));
        let (damaged, removed) = inject_failures(&g, 5, 7);
        assert!(damaged.is_none());
        assert!(removed.is_empty());
    }

    #[test]
    fn delta_requests_are_incompatible_with_fail_edges() {
        let g = gen::grid(5, 5, 16, 2);
        let mut session = SolverSession::new();
        let req = SolveRequest::new("shortcut")
            .fail_edges(2)
            .deltas(vec![GraphDelta::Delete { edge: EdgeId(0) }]);
        assert!(matches!(session.solve(&g, &req), Err(SolveError::BadRequest(_))));
    }

    #[test]
    fn delta_solve_matches_a_fresh_solve_of_the_mutated_graph() {
        let g = gen::grid(8, 8, 24, 7);
        let tree = decss_tree::RootedTree::mst(&g);
        let non_tree = g.edge_ids().find(|&e| !tree.is_tree_edge(e)).unwrap();
        let deltas = vec![GraphDelta::Reweight { edge: non_tree, weight: 999 }];
        let mutated = mutate(&g, &deltas).unwrap();

        let mut session = SolverSession::new();
        let inc = session
            .solve(&g, &SolveRequest::new("shortcut").seed(5).deltas(deltas))
            .unwrap();
        let mut fresh_session = SolverSession::new();
        let fresh = fresh_session
            .solve(&mutated, &SolveRequest::new("shortcut").seed(5))
            .unwrap();
        assert_eq!(inc.edges, fresh.edges);
        assert_eq!(inc.weight, fresh.weight);
        assert_eq!(inc.level_quality, fresh.level_quality);
        assert_eq!(inc.rounds, fresh.rounds);
        assert!(inc.valid);
        let stats = inc.incremental.expect("delta solves carry the block");
        assert!(!stats.fell_back, "{stats:?}");
        assert_eq!(inc.fingerprint, Some(graph_fingerprint(&mutated)));
        assert!(inc.params.contains("deltas=[rw("), "{}", inc.params);
    }

    #[test]
    fn delta_solves_chain_across_requests() {
        // Batch 2 starts from batch 1's mutated graph: the session finds
        // the retained instance under the chained fingerprint and both
        // solves stay identical to fresh runs.
        let g = gen::grid(7, 7, 24, 3);
        let tree = decss_tree::RootedTree::mst(&g);
        let nt: Vec<EdgeId> = g.edge_ids().filter(|&e| !tree.is_tree_edge(e)).collect();
        let d1 = vec![GraphDelta::Reweight { edge: nt[0], weight: 500 }];
        let d2 = vec![GraphDelta::Reweight { edge: nt[1], weight: 700 }];
        let g1 = mutate(&g, &d1).unwrap();
        let g2 = mutate(&g1, &d2).unwrap();

        let mut session = SolverSession::new();
        let r1 = session.solve(&g, &SolveRequest::new("shortcut").deltas(d1)).unwrap();
        assert_eq!(r1.fingerprint, Some(graph_fingerprint(&g1)));
        let r2 = session.solve(&g1, &SolveRequest::new("shortcut").deltas(d2)).unwrap();
        assert_eq!(r2.fingerprint, Some(graph_fingerprint(&g2)));
        let fresh = SolverSession::new()
            .solve(&g2, &SolveRequest::new("shortcut"))
            .unwrap();
        assert_eq!(r2.edges, fresh.edges);
        assert_eq!(r2.weight, fresh.weight);
        // And the base instance was parked: re-solving from the original
        // graph with a different batch still matches fresh.
        let d3 = vec![GraphDelta::Delete { edge: nt[2] }];
        let g3 = mutate(&g, &d3).unwrap();
        if algo::is_two_edge_connected(&g3) {
            let r3 = session.solve(&g, &SolveRequest::new("shortcut").deltas(d3)).unwrap();
            let fresh3 = SolverSession::new()
                .solve(&g3, &SolveRequest::new("shortcut"))
                .unwrap();
            assert_eq!(r3.edges, fresh3.edges);
        }
    }

    #[test]
    fn non_shortcut_algorithms_accept_deltas_without_the_block() {
        let g = gen::grid(6, 6, 20, 7);
        let tree = decss_tree::RootedTree::mst(&g);
        let non_tree = g.edge_ids().find(|&e| !tree.is_tree_edge(e)).unwrap();
        let deltas = vec![GraphDelta::Reweight { edge: non_tree, weight: 321 }];
        let mutated = mutate(&g, &deltas).unwrap();
        let mut session = SolverSession::new();
        let report = session
            .solve(&g, &SolveRequest::new("greedy").deltas(deltas))
            .unwrap();
        let fresh = SolverSession::new()
            .solve(&mutated, &SolveRequest::new("greedy"))
            .unwrap();
        assert_eq!(report.edges, fresh.edges);
        assert_eq!(report.weight, fresh.weight);
        assert!(report.incremental.is_none());
        assert_eq!(report.fingerprint, Some(graph_fingerprint(&mutated)));
    }

    #[test]
    fn invalid_deltas_surface_as_bad_requests() {
        let g = gen::grid(4, 4, 10, 1);
        let mut session = SolverSession::new();
        let req =
            SolveRequest::new("shortcut").deltas(vec![GraphDelta::Delete { edge: EdgeId(10_000) }]);
        match session.solve(&g, &req) {
            Err(SolveError::BadRequest(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
}
