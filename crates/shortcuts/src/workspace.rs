//! Epoch-stamped flat scratch buffers shared across the shortcut
//! pipeline's hot paths.
//!
//! Every per-part BFS, Steiner-subtree union, and probe pass used to
//! allocate its own `HashMap`/`HashSet`/`VecDeque`; at 10⁵ vertices the
//! allocator and hash churn dominate the wall clock. A
//! [`ShortcutWorkspace`] replaces all of it with flat arrays indexed by
//! `VertexId`/`EdgeId` plus a monotone epoch counter: "clearing" a set
//! is a counter bump, membership is `stamp[i] == epoch`, and the arrays
//! are sized once per graph and reused across parts, levels, and
//! set-cover rounds.
//!
//! The rewrites that use this workspace are pinned bit-identical to the
//! preserved [`crate::naive`] reference implementations by the
//! `flat_equivalence` proptest suite.

use decss_graphs::{EdgeId, Graph, VertexId};

/// Reusable scratch for the shortcut pipeline (sized per graph).
#[derive(Clone, Debug, Default)]
pub struct ShortcutWorkspace {
    /// Monotone epoch counter backing every stamped array.
    epoch: u32,
    /// Per-vertex stamp (BFS visited, Steiner union membership, part
    /// membership — one logical set at a time, distinguished by epoch).
    pub(crate) vstamp: Vec<u32>,
    /// Per-vertex BFS distance, valid where `vstamp` carries the
    /// current BFS epoch.
    pub(crate) dist: Vec<u32>,
    /// Flat BFS queue (head index instead of `VecDeque`).
    pub(crate) queue: Vec<VertexId>,
    /// Per-edge stamp: `H_i` membership / discard marks.
    pub(crate) estamp: Vec<u32>,
    /// Per-edge shortcut load, valid where `lstamp` is current.
    pub(crate) eload: Vec<u32>,
    /// Stamp array for `eload`.
    pub(crate) lstamp: Vec<u32>,
    /// Per-vertex child count inside the current Steiner union.
    pub(crate) child_count: Vec<u32>,
    /// Stamp array for `child_count` / `only_child`.
    pub(crate) ccstamp: Vec<u32>,
    /// The unique union child of a vertex while `child_count == 1`.
    pub(crate) only_child: Vec<(VertexId, EdgeId)>,
    /// Steiner union edges as `(child, edge)` pairs, in naive order.
    pub(crate) steiner_buf: Vec<(VertexId, EdgeId)>,
    /// The current part's `H_i` edge list.
    pub(crate) hi_buf: Vec<EdgeId>,
    /// Per-vertex `u64` value buffers for the probe passes.
    pub(crate) val_a: Vec<u64>,
    /// Second value buffer (aggregate outputs).
    pub(crate) val_b: Vec<u64>,
    /// Third value buffer (`path_load` endpoint counts).
    pub(crate) val_c: Vec<u64>,
    /// Fourth value buffer (`path_load` LCA counts).
    pub(crate) val_d: Vec<u64>,
}

impl ShortcutWorkspace {
    /// A workspace sized for `g`.
    pub fn new(g: &Graph) -> Self {
        let mut ws = ShortcutWorkspace::default();
        ws.ensure(g);
        ws
    }

    /// Grows the stamped arrays to fit `g` (never shrinks; reusing one
    /// workspace across graphs of different sizes is fine).
    pub fn ensure(&mut self, g: &Graph) {
        self.ensure_capacity(g.n(), g.m());
    }

    /// [`ShortcutWorkspace::ensure`] from raw capacities, for callers
    /// without a [`Graph`] at hand (e.g. sizing from a BFS tree:
    /// vertex count + one past the largest edge id that will be
    /// stamped). Kept next to the buffers so every stamped array is
    /// sized in exactly one place.
    pub fn ensure_capacity(&mut self, n: usize, m: usize) {
        if self.vstamp.len() < n {
            self.vstamp.resize(n, 0);
            self.dist.resize(n, 0);
            self.child_count.resize(n, 0);
            self.ccstamp.resize(n, 0);
            self.only_child.resize(n, (VertexId(0), EdgeId(0)));
        }
        if self.estamp.len() < m {
            self.estamp.resize(m, 0);
            self.eload.resize(m, 0);
            self.lstamp.resize(m, 0);
        }
    }

    /// Starts a new logical set: returns a fresh epoch no live stamp
    /// carries. Stamps written under older epochs become stale (their
    /// entries simply never compare equal again).
    pub(crate) fn bump(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            // Wrap: clear every stamp array so stale entries cannot
            // collide with recycled epoch values. Unreachable in
            // practice (4 billion bumps), handled for correctness.
            self.vstamp.fill(0);
            self.estamp.fill(0);
            self.lstamp.fill(0);
            self.ccstamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::gen;

    #[test]
    fn epochs_are_distinct_and_arrays_sized() {
        let g = gen::grid(4, 5, 3, 0);
        let mut ws = ShortcutWorkspace::new(&g);
        assert!(ws.vstamp.len() >= g.n());
        assert!(ws.estamp.len() >= g.m());
        let a = ws.bump();
        let b = ws.bump();
        assert_ne!(a, b);
    }

    #[test]
    fn ensure_grows_for_larger_graphs() {
        let small = gen::cycle(4, 1, 0);
        let big = gen::grid(8, 8, 3, 0);
        let mut ws = ShortcutWorkspace::new(&small);
        ws.ensure(&big);
        assert!(ws.vstamp.len() >= big.n());
        assert!(ws.estamp.len() >= big.m());
    }

    #[test]
    fn wraparound_clears_stamps() {
        let g = gen::cycle(4, 1, 0);
        let mut ws = ShortcutWorkspace::new(&g);
        ws.vstamp[0] = u32::MAX;
        ws.epoch = u32::MAX;
        let e = ws.bump();
        assert_eq!(e, 1);
        assert_eq!(ws.vstamp[0], 0, "stale stamp must not match a recycled epoch");
    }
}
