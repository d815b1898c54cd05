//! The public entry point of the second algorithm (Theorem 1.2):
//! `O(log n)`-approximate weighted 2-ECSS in `Õ(SC(G) + D)` rounds.

use crate::setcover::{parallel_greedy_tap, SetCoverConfig};
use crate::tools::ScTools;
use crate::workspace::ShortcutWorkspace;
use decss_congest::ledger::RoundLedger;
use decss_graphs::{algo, EdgeId, Graph, Weight};
use decss_tree::RootedTree;
use std::fmt;

/// Configuration of the shortcut-based 2-ECSS approximation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShortcutConfig {
    /// Set-cover driver parameters.
    pub setcover: SetCoverConfig,
}

/// Error: the input graph admits no 2-ECSS.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NotTwoEdgeConnected;

impl fmt::Display for NotTwoEdgeConnected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "input graph is not 2-edge-connected")
    }
}

impl std::error::Error for NotTwoEdgeConnected {}

/// Result of the shortcut-based approximation.
#[derive(Clone, Debug)]
pub struct ShortcutResult {
    /// All chosen edges (MST + augmentation).
    pub edges: Vec<EdgeId>,
    /// Weight of the MST part.
    pub mst_weight: Weight,
    /// Weight of the augmentation part.
    pub augmentation_weight: Weight,
    /// Round ledger (shortcut passes, broadcasts, fallbacks).
    pub ledger: RoundLedger,
    /// Measured shortcut quality: worst per-level `α + β` over the
    /// fragment hierarchy — the instance's effective `SC`.
    pub measured_sc: u64,
    /// The measured quality of every hierarchy level (the per-level
    /// `α`/`β`/winning-scheme breakdown behind [`measured_sc`]).
    ///
    /// [`measured_sc`]: ShortcutResult::measured_sc
    pub level_quality: Vec<crate::shortcut::ShortcutQuality>,
    /// Cost of one full tool pass (`Σ_levels (α+β) + O(D)`).
    pub pass_cost: u64,
    /// Sampling repetitions executed.
    pub repetitions: u32,
    /// Deterministic fallbacks used (normally 0).
    pub fallbacks: u32,
}

impl ShortcutResult {
    /// Total weight of the output.
    pub fn total_weight(&self) -> Weight {
        self.mst_weight + self.augmentation_weight
    }

    /// The certified lower bound on the optimal 2-ECSS weight this
    /// pipeline can vouch for: the MST weight (every 2-ECSS contains a
    /// spanning connected subgraph, so it weighs at least the MST).
    pub fn lower_bound(&self) -> f64 {
        self.mst_weight as f64
    }

    /// `total weight / certified lower bound` — comparable with the
    /// Theorem 1.1 results' ratio, though the bound here is weaker (no
    /// dual certificate; the a-priori guarantee is `O(log n)`).
    pub fn certified_ratio(&self) -> f64 {
        decss_graphs::weight::certified_ratio(self.total_weight() as f64, self.lower_bound())
    }
}

/// Runs MST + parallel-greedy tree augmentation over low-congestion
/// shortcuts.
///
/// # Errors
///
/// Returns [`NotTwoEdgeConnected`] if no augmentation exists.
pub fn shortcut_two_ecss(
    g: &Graph,
    config: &ShortcutConfig,
) -> Result<ShortcutResult, NotTwoEdgeConnected> {
    // One workspace for the whole pipeline: shortcut construction and
    // every set-cover probe pass run on the same flat scratch.
    shortcut_two_ecss_with(g, config, &mut ShortcutWorkspace::new(g))
}

/// [`shortcut_two_ecss`] reusing a caller-held workspace — the
/// heavy-traffic entry point (`decss_solver::SolverSession` threads one
/// workspace through repeated solves, so same-size instances allocate no
/// scratch after the first call). Bit-identical to the owning variant on
/// any workspace state: all scratch is epoch-stamped.
pub fn shortcut_two_ecss_with(
    g: &Graph,
    config: &ShortcutConfig,
    ws: &mut ShortcutWorkspace,
) -> Result<ShortcutResult, NotTwoEdgeConnected> {
    if !algo::is_two_edge_connected(g) {
        return Err(NotTwoEdgeConnected);
    }
    let tree = RootedTree::mst(g);
    ws.ensure(g);
    let tools = ScTools::new_with(g, &tree, ws);
    let mut ledger = RoundLedger::new();
    // MST cost (Kutten–Peleg; actually O(SC) with shortcuts, charge the
    // cheaper of the two shapes).
    ledger.charge("sc.mst", tools.pass_cost());
    let cover = parallel_greedy_tap(&tools, &config.setcover, &mut ledger, ws)
        .ok_or(NotTwoEdgeConnected)?;

    let mst_edges: Vec<EdgeId> = g.edge_ids().filter(|&e| tree.is_tree_edge(e)).collect();
    let mst_weight = g.weight_of(mst_edges.iter().copied());
    let mut edges = mst_edges;
    edges.extend(cover.chosen.iter().copied());
    edges.sort_unstable();
    debug_assert!(algo::two_edge_connected_in(g, edges.iter().copied()));
    Ok(ShortcutResult {
        edges,
        mst_weight,
        augmentation_weight: cover.weight,
        measured_sc: tools.measured_sc(),
        level_quality: tools.level_quality.clone(),
        pass_cost: tools.pass_cost(),
        ledger,
        repetitions: cover.repetitions,
        fallbacks: cover.fallbacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;

    #[test]
    fn outputs_are_valid_across_families() {
        for family in [
            gen::Family::SparseRandom,
            gen::Family::Grid,
            gen::Family::OuterplanarDisk,
            gen::Family::Lollipop,
        ] {
            let g = gen::instance(family, 36, 24, 3);
            let res = shortcut_two_ecss(&g, &ShortcutConfig::default())
                .unwrap_or_else(|e| panic!("family {family}: {e}"));
            assert!(
                algo::two_edge_connected_in(&g, res.edges.iter().copied()),
                "family {family}"
            );
            assert!(res.total_weight() >= res.mst_weight);
            assert!(res.ledger.total_rounds() > 0);
            assert!(res.measured_sc > 0);
        }
    }

    #[test]
    fn rejects_non_two_edge_connected() {
        let g = gen::path(6);
        assert_eq!(
            shortcut_two_ecss(&g, &ShortcutConfig::default()).unwrap_err(),
            NotTwoEdgeConnected
        );
    }

    #[test]
    fn nice_topologies_have_smaller_sc_than_lollipops() {
        let nice = gen::outerplanar_disk(144, 1.0, 16, 5);
        let ugly = gen::lollipop_two_ec(144, 16, 5);
        let rn = shortcut_two_ecss(&nice, &ShortcutConfig::default()).unwrap();
        let ru = shortcut_two_ecss(&ugly, &ShortcutConfig::default()).unwrap();
        assert!(
            rn.measured_sc < ru.measured_sc,
            "outerplanar SC {} !< lollipop SC {}",
            rn.measured_sc,
            ru.measured_sc
        );
    }
}
