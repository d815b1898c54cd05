//! The traced decomposition: each paper pipeline rebuilt from its
//! crates' public building blocks, called in the pipeline's own order
//! with a span around each call, so the per-layer times add up to the
//! solve they describe. The composed result must equal the
//! `SolverSession` answer (edges, weight, lower bound, rounds);
//! otherwise the spans would time a different computation.

use crate::trace::Tracer;
use decss_congest::ledger::RoundLedger;
use decss_core::forward::forward_phase;
use decss_core::mis::MisContext;
use decss_core::reverse::reverse_delete;
use decss_core::{rounds, TapConfig, Variant, VirtualGraph};
use decss_graphs::{algo, EdgeId, Graph};
use decss_shortcuts::setcover::parallel_greedy_tap;
use decss_shortcuts::tools::ScTools;
use decss_shortcuts::{ShortcutConfig, ShortcutWorkspace};
use decss_solver::{SolveReport, SolveRequest};
use decss_tree::{EulerTour, Layering, LcaOracle, RootedTree, SegmentDecomposition};

/// What a composed pipeline produced, plus the counts its layers did.
#[derive(Default)]
pub struct Composed {
    pub edges: Vec<EdgeId>,
    /// The session's validation, repeated on the composed edges.
    pub valid: bool,
    pub weight: u64,
    pub lower_bound: f64,
    pub rounds: u64,
    pub forward_iterations: u64,
    pub anchors: u64,
    pub virtual_edges: u64,
    pub setcover_repetitions: u64,
    pub fallbacks: u64,
    pub measured_sc: u64,
}

impl Composed {
    /// The decomposition check against the session's report.
    pub fn matches(&self, report: &SolveReport) -> Result<(), String> {
        let same = self.edges == report.edges
            && self.valid == report.valid
            && self.weight == report.weight
            && self.lower_bound == report.lower_bound
            && Some(self.rounds) == report.rounds;
        if same {
            Ok(())
        } else {
            Err(format!(
                "composed pipeline differs from the session solve: valid {} vs {}, \
                 weight {} vs {}, lower bound {} vs {}, rounds {} vs {:?}, {} vs {} edges",
                self.valid,
                report.valid,
                self.weight,
                report.weight,
                self.lower_bound,
                report.lower_bound,
                self.rounds,
                report.rounds,
                self.edges.len(),
                report.edges.len()
            ))
        }
    }
}

/// The MST edges plus an augmentation, sorted, with the MST's weight —
/// the assembly both pipelines end with.
fn mst_plus(g: &Graph, tree: &RootedTree, augmentation: &[EdgeId]) -> (Vec<EdgeId>, u64) {
    let mut edges: Vec<EdgeId> = g.edge_ids().filter(|&e| tree.is_tree_edge(e)).collect();
    let mst_weight = g.weight_of(edges.iter().copied());
    edges.extend(augmentation.iter().copied());
    edges.sort_unstable();
    (edges, mst_weight)
}

/// Theorem 1.1 (`improved` / `basic`): the order of
/// `approximate_two_ecss` and `approximate_tap`, then the session's
/// validation of the answer.
pub fn compose_tap(g: &Graph, req: &SolveRequest, tr: &Tracer, job: u64, root: usize) -> Composed {
    let at = Some(root);
    let variant = match req.algorithm.as_str() {
        "basic" => Variant::Basic,
        _ => Variant::Improved,
    };
    let config = TapConfig { epsilon: req.epsilon, variant };
    assert!(tr.time("graphs.two_ec_check", job, at, || algo::is_two_edge_connected(g)));
    let tree = tr.time("tree.mst", job, at, || RootedTree::mst(g));
    // `approximate_tap` re-checks its input.
    assert!(tr.time("graphs.two_ec_check", job, at, || algo::is_two_edge_connected(g)));
    let lca = tr.time("tree.lca", job, at, || LcaOracle::new(&tree));
    let layering = tr.time("tree.layering", job, at, || Layering::new(&tree));
    let euler = tr.time("tree.euler", job, at, || EulerTour::new(&tree));
    let segments = tr.time("tree.segments", job, at, || SegmentDecomposition::new(&tree, &euler));
    let params = tr.time("core.cost_params", job, at, || {
        rounds::measure(g, tree.root(), &segments)
    });
    let mut ledger = RoundLedger::new();
    rounds::charge_setup(&mut ledger, &params, layering.num_layers());
    let (vg, engine, weights) = tr.time("core.virtual_graph", job, at, || {
        let vg = VirtualGraph::new(g, &tree, &lca);
        let engine = vg.engine(&tree, &lca);
        let weights = vg.weights_f64();
        (vg, engine, weights)
    });
    let fwd = tr.time("core.forward", job, at, || {
        forward_phase(
            &tree,
            &layering,
            &engine,
            &weights,
            config.epsilon_prime(),
            &params,
            &mut ledger,
        )
    });
    let ctx = MisContext {
        tree: &tree,
        lca: &lca,
        layering: &layering,
        segments: &segments,
        engine: &engine,
    };
    let rev = tr.time("core.reverse", job, at, || {
        reverse_delete(&ctx, &fwd, variant, &params, &mut ledger)
    });
    tr.time("core.cover_check", job, at, || {
        let counts = engine.covering_count(&rev.in_b);
        decss_core::verify::max_r_cover(&counts, &fwd.r_edge)
    });
    let chosen: Vec<usize> = (0..vg.len()).filter(|&i| rev.in_b[i]).collect();
    let augmentation = vg.to_graph_edges(chosen);
    let augmentation_weight = g.weight_of(augmentation.iter().copied());
    let dual_lower_bound = fwd.dual_lower_bound_gprime(config.epsilon_prime()) / 2.0;
    let (edges, mst_weight) = mst_plus(g, &tree, &augmentation);
    let valid = tr.time("graphs.validate", job, at, || {
        algo::two_edge_connected_in(g, edges.iter().copied())
    });
    Composed {
        edges,
        valid,
        weight: mst_weight + augmentation_weight,
        lower_bound: (mst_weight as f64).max(dual_lower_bound),
        rounds: ledger.total_rounds(),
        forward_iterations: fwd.iterations as u64,
        anchors: rev.total_anchors as u64,
        virtual_edges: vg.len() as u64,
        ..Composed::default()
    }
}

/// The set-cover configuration the `shortcut` solver derives from a
/// request.
pub fn shortcut_config(req: &SolveRequest) -> ShortcutConfig {
    let mut config = ShortcutConfig::default();
    config.setcover.epsilon = req.epsilon;
    if let Some(seed) = req.seed {
        config.setcover.seed = seed;
    }
    config
}

/// Theorem 1.2 (`shortcut`): the order of `shortcut_two_ecss_with`,
/// then the session's validation of the answer.
pub fn compose_shortcut(
    g: &Graph,
    req: &SolveRequest,
    tr: &Tracer,
    job: u64,
    root: usize,
) -> Composed {
    let at = Some(root);
    let config = shortcut_config(req);
    assert!(tr.time("graphs.two_ec_check", job, at, || algo::is_two_edge_connected(g)));
    let tree = tr.time("tree.mst", job, at, || RootedTree::mst(g));
    let mut ws = ShortcutWorkspace::new(g);
    let tools = tr.time("shortcuts.tools", job, at, || ScTools::new_with(g, &tree, &mut ws));
    let mut ledger = RoundLedger::new();
    ledger.charge("sc.mst", tools.pass_cost());
    let cover = tr
        .time("shortcuts.setcover", job, at, || {
            parallel_greedy_tap(&tools, &config.setcover, &mut ledger, &mut ws)
        })
        .expect("workload instances are 2-edge-connected");
    let (edges, mst_weight) = mst_plus(g, &tree, &cover.chosen);
    let valid = tr.time("graphs.validate", job, at, || {
        algo::two_edge_connected_in(g, edges.iter().copied())
    });
    Composed {
        edges,
        valid,
        weight: mst_weight + cover.weight,
        lower_bound: mst_weight as f64,
        rounds: ledger.total_rounds(),
        setcover_repetitions: cover.repetitions as u64,
        fallbacks: cover.fallbacks as u64,
        measured_sc: tools.measured_sc(),
        ..Composed::default()
    }
}

/// Runs the composed pipeline for `req`'s algorithm under a root span.
pub fn compose(g: &Graph, req: &SolveRequest, tr: &Tracer, job: u64) -> Composed {
    let root = tr.open("pipeline", job, None);
    let out = match req.algorithm.as_str() {
        "shortcut" => compose_shortcut(g, req, tr, job, root),
        _ => compose_tap(g, req, tr, job, root),
    };
    tr.close(root);
    out
}

/// The pipeline's own entry point, untraced: what the session wraps.
pub fn entry(g: &Graph, req: &SolveRequest) {
    match req.algorithm.as_str() {
        "shortcut" => {
            decss_shortcuts::shortcut_two_ecss(g, &shortcut_config(req)).expect("2-edge-connected");
        }
        name => {
            let variant = if name == "basic" {
                Variant::Basic
            } else {
                Variant::Improved
            };
            let config =
                decss_core::TwoEcssConfig { tap: TapConfig { epsilon: req.epsilon, variant } };
            decss_core::approximate_two_ecss(g, &config).expect("2-edge-connected");
        }
    }
}
