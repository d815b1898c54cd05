//! [`SolveRequest`]: the one request schema every solver consumes.

use decss_core::Variant;
use decss_shortcuts::GraphDelta;
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// How much per-phase detail a [`SolveReport`](crate::SolveReport)
/// carries in its `trace` lines.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum TraceLevel {
    /// No trace lines (the default).
    #[default]
    Silent,
    /// One line per structural phase (decomposition sizes, iteration
    /// counts, per-level shortcut quality).
    Summary,
    /// [`TraceLevel::Summary`] plus the full round-ledger breakdown.
    Full,
}

/// A solve request: the algorithm name plus every knob the pipelines
/// share. Build one with the fluent methods and hand it to a
/// [`SolverSession`](crate::SolverSession) (or directly to a
/// [`Solver`](crate::Solver)); unused knobs are ignored by solvers that
/// have no use for them, so one request type serves all pipelines.
///
/// ```
/// use decss_solver::{SolveRequest, TraceLevel};
///
/// let req = SolveRequest::new("shortcut")
///     .seed(7)
///     .bandwidth(4)
///     .trace(TraceLevel::Summary);
/// assert_eq!(req.algorithm, "shortcut");
/// ```
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// Registry name of the algorithm to run (see
    /// [`Registry`](crate::Registry) for the naming contract).
    pub algorithm: String,
    /// The `ε` of the approximation/bucketing schemes (default `0.25`).
    /// Theorem 1.1 solvers tighten their `(4+ε)`/`(8+ε)` TAP guarantee
    /// with it; the shortcut solver uses it for set-cover phase
    /// bucketing; the rest ignore it.
    pub epsilon: f64,
    /// Reverse-delete variant override for the Theorem 1.1 solvers.
    /// `None` (default) keeps the registered solver's own variant
    /// (`improved` → [`Variant::Improved`], `basic` → [`Variant::Basic`]).
    pub variant: Option<Variant>,
    /// RNG seed override for the randomized parts (shortcut set-cover
    /// sampling, failure injection). `None` keeps each solver's
    /// deterministic default.
    pub seed: Option<u64>,
    /// CONGEST bandwidth in `O(log n)`-bit words per edge per round
    /// (default 1, the model the ledger charges). Reports scale their
    /// round counts by it ([`SolveReport::effective_rounds`]): `B` words
    /// pipeline `B`-fold.
    ///
    /// [`SolveReport::effective_rounds`]: crate::SolveReport::effective_rounds
    pub bandwidth: u32,
    /// Edge-failure injection: remove up to this many seeded-random
    /// edges (keeping the graph 2-edge-connected) *before* solving, and
    /// report which ones fell. `0` (default) solves the graph as given.
    /// Mutually exclusive with [`deltas`](SolveRequest::deltas).
    pub fail_edges: u32,
    /// Edge deltas to apply to the input graph before solving, with
    /// [`GraphDelta`]'s pre-batch-id semantics. For the `shortcut`
    /// algorithm the session solves the mutated graph *incrementally*
    /// against its retained
    /// [`DynamicInstance`](decss_shortcuts::DynamicInstance) state (the
    /// report's `incremental` block says what was redone); other
    /// algorithms solve the mutated graph from scratch. Either way the
    /// report's edge ids live in the mutated graph's id space. Empty
    /// (default) solves the graph as given.
    pub deltas: Vec<GraphDelta>,
    /// Wall-clock budget. Solvers poll it at phase boundaries
    /// (best-effort: a phase that is already running completes), and
    /// return [`SolveError::DeadlineExceeded`](crate::SolveError) once
    /// it has passed.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation: set the flag from another thread and
    /// the solve returns [`SolveError::Cancelled`](crate::SolveError)
    /// at its next phase boundary.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Trace verbosity of the resulting report.
    pub trace: TraceLevel,
}

impl SolveRequest {
    /// A request for `algorithm` with every knob at its default.
    pub fn new(algorithm: impl Into<String>) -> Self {
        SolveRequest {
            algorithm: algorithm.into(),
            epsilon: 0.25,
            variant: None,
            seed: None,
            bandwidth: 1,
            fail_edges: 0,
            deltas: Vec::new(),
            deadline: None,
            cancel: None,
            trace: TraceLevel::Silent,
        }
    }

    /// Sets the approximation `ε`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the reverse-delete variant.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = Some(variant);
        self
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the CONGEST bandwidth (words per edge per round, `>= 1`).
    pub fn bandwidth(mut self, bandwidth: u32) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Injects up to `k` seeded edge failures before solving.
    pub fn fail_edges(mut self, k: u32) -> Self {
        self.fail_edges = k;
        self
    }

    /// Applies edge deltas to the graph before solving (incrementally,
    /// for the `shortcut` algorithm).
    pub fn deltas(mut self, deltas: Vec<GraphDelta>) -> Self {
        self.deltas = deltas;
        self
    }

    /// Sets the wall-clock budget.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Attaches a cancellation flag.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Sets the trace verbosity.
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// The config echo reports carry: every knob that shapes the solve,
    /// rendered `key=value`, defaults spelled out.
    pub fn params_echo(&self) -> String {
        let variant = match self.variant {
            None => "default".to_string(),
            Some(v) => format!("{v:?}").to_lowercase(),
        };
        let seed = self.seed.map_or("default".to_string(), |s| s.to_string());
        let mut echo = format!(
            "epsilon={} variant={variant} seed={seed} bandwidth={} fail_edges={}",
            self.epsilon, self.bandwidth, self.fail_edges
        );
        // Appended only when present, so delta-less echoes (and the
        // cache keys / golden pins derived from them) stay unchanged.
        if !self.deltas.is_empty() {
            echo.push_str(" deltas=[");
            for (i, d) in self.deltas.iter().enumerate() {
                if i > 0 {
                    echo.push(',');
                }
                let _ = match *d {
                    GraphDelta::Reweight { edge, weight } => {
                        write!(echo, "rw({},{weight})", edge.0)
                    }
                    GraphDelta::Delete { edge } => write!(echo, "del({})", edge.0),
                    GraphDelta::Insert { u, v, weight } => {
                        write!(echo, "ins({},{},{weight})", u.0, v.0)
                    }
                };
            }
            echo.push(']');
        }
        echo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_every_knob() {
        let flag = Arc::new(AtomicBool::new(false));
        let req = SolveRequest::new("improved")
            .epsilon(0.5)
            .variant(Variant::Basic)
            .seed(9)
            .bandwidth(2)
            .fail_edges(3)
            .deadline(Duration::from_millis(100))
            .cancel_flag(flag.clone())
            .trace(TraceLevel::Full);
        assert_eq!(req.algorithm, "improved");
        assert_eq!(req.epsilon, 0.5);
        assert_eq!(req.variant, Some(Variant::Basic));
        assert_eq!(req.seed, Some(9));
        assert_eq!(req.bandwidth, 2);
        assert_eq!(req.fail_edges, 3);
        assert_eq!(req.deadline, Some(Duration::from_millis(100)));
        assert!(req.cancel.is_some());
        assert_eq!(req.trace, TraceLevel::Full);
        let echo = req.params_echo();
        assert!(echo.contains("epsilon=0.5"), "{echo}");
        assert!(echo.contains("variant=basic"), "{echo}");
        assert!(echo.contains("seed=9"), "{echo}");
    }

    #[test]
    fn delta_echo_is_appended_only_when_present() {
        use decss_graphs::{EdgeId, VertexId};
        let plain = SolveRequest::new("shortcut");
        assert!(!plain.params_echo().contains("deltas"));
        let req = plain.deltas(vec![
            GraphDelta::Reweight { edge: EdgeId(3), weight: 17 },
            GraphDelta::Delete { edge: EdgeId(5) },
            GraphDelta::Insert { u: VertexId(2), v: VertexId(9), weight: 4 },
        ]);
        let echo = req.params_echo();
        assert!(echo.ends_with("deltas=[rw(3,17),del(5),ins(2,9,4)]"), "{echo}");
    }

    #[test]
    fn trace_levels_are_ordered() {
        assert!(TraceLevel::Silent < TraceLevel::Summary);
        assert!(TraceLevel::Summary < TraceLevel::Full);
        assert_eq!(TraceLevel::default(), TraceLevel::Silent);
    }
}
