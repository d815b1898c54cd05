//! Shortcut constructions with *measured* quality.
//!
//! Two constructions are implemented (DESIGN.md §3 documents this as a
//! substitution for the planar-specific constructions of [12, 18]):
//!
//! * **Threshold-BFS** — parts with at least `√n` vertices receive the
//!   whole BFS tree as their `H_i`; smaller parts receive nothing. At
//!   most `√n` parts are big, so `α ≤ √n + O(1)`; big parts reach
//!   diameter `O(D)` through the BFS tree and small parts have at most
//!   `√n` vertices, so `β = O(D + √n)` — the general worst-case bound
//!   of Ghaffari–Haeupler.
//! * **Tree-restricted Steiner** — each part's `H_i` is the minimal
//!   BFS-tree subtree spanning it (the union of tree paths from its
//!   vertices to their common ancestor). This is the tree-restricted
//!   shortcut family of Haeupler–Izumi–Zuzic; on low-treewidth and
//!   outerplanar-like networks its measured congestion stays near-`D`.
//!
//! [`best_shortcut`] returns the cheaper `(α + β)`-quality one,
//! threshold-BFS winning ties. It measures threshold-BFS in full, then
//! runs the tree-restricted pass part by part under an exact
//! branch-and-bound: the running maximum edge load + 1 and the running
//! maximum radius (seeded with the big parts' threshold-BFS radii) never
//! exceed the final `α` and `β`, so the pass is abandoned as soon as
//! their sum reaches threshold-BFS's cost — without changing the chosen
//! scheme or its measured values. The experiments report the measured
//! values.
//!
//! The hot paths run on epoch-stamped flat scratch from a
//! [`ShortcutWorkspace`] (per-part BFS over CSR slices, Steiner unions
//! without hashing); the `*_ws` entry points reuse one workspace across
//! parts and hierarchy levels. The pre-rewrite `HashMap`/`HashSet`
//! implementations are preserved in [`crate::naive`] and the
//! `flat_equivalence` suite pins these rewrites bit-identical to them.

use crate::partition::Partition;
use crate::workspace::ShortcutWorkspace;
use decss_graphs::algo::BfsTree;
use decss_graphs::{EdgeId, Graph, VertexId};

/// Which construction produced a shortcut.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShortcutScheme {
    /// Threshold-BFS (worst-case `O(D + √n)`).
    ThresholdBfs,
    /// Tree-restricted Steiner subtrees.
    TreeRestricted,
}

/// Measured quality of a shortcut for one partition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShortcutQuality {
    /// Maximum number of `G[V_i] + H_i` subgraphs any edge appears in.
    pub alpha: u32,
    /// Maximum over parts of the eccentricity of the part's leader in
    /// `G[V_i] + H_i` (broadcast radius; within a factor 2 of the
    /// diameter bound in the definition).
    pub beta: u32,
    /// The winning construction.
    pub scheme: ShortcutScheme,
}

impl ShortcutQuality {
    /// `α + β`: the per-use round cost of the shortcut.
    pub fn cost(&self) -> u64 {
        self.alpha as u64 + self.beta as u64
    }
}

/// The cheaper of the two constructions for `partition`, threshold-BFS
/// winning ties.
///
/// `bfs` must be a spanning BFS tree of `g` (the shortcut backbone).
pub fn best_shortcut(g: &Graph, bfs: &BfsTree, partition: &Partition) -> ShortcutQuality {
    best_shortcut_ws(g, bfs, partition, &mut ShortcutWorkspace::new(g))
}

/// [`best_shortcut`] reusing a caller-held workspace (the form the
/// fragment-hierarchy loop uses: one workspace across all levels).
///
/// Threshold-BFS is measured first; the tree-restricted pass then runs
/// under its cost as an exact bound and is abandoned once its running
/// lower bound `α_partial + β_partial` reaches it. The result always
/// equals the cheaper of [`threshold_bfs_ws`] and [`tree_restricted_ws`].
pub fn best_shortcut_ws(
    g: &Graph,
    bfs: &BfsTree,
    partition: &Partition,
    ws: &mut ShortcutWorkspace,
) -> ShortcutQuality {
    let mut beta = 0u32;
    // A big part's Steiner edges are a subset of the BFS tree threshold-
    // BFS hands it, so its tree-restricted radius is at least this one.
    let mut big_beta = 0u32;
    let alpha = threshold_pass(g, bfs, partition, ws, |radius, big| {
        beta = beta.max(radius);
        if big {
            big_beta = big_beta.max(radius);
        }
    });
    let thr = ShortcutQuality { alpha, beta, scheme: ShortcutScheme::ThresholdBfs };
    let bound = Bound { cost: thr.cost(), beta_floor: big_beta };
    let mut tr_beta = 0u32;
    match tree_restricted_pass(g, bfs, partition, ws, Some(bound), |radius| {
        tr_beta = tr_beta.max(radius)
    }) {
        Some(alpha) => {
            let tr =
                ShortcutQuality { alpha, beta: tr_beta, scheme: ShortcutScheme::TreeRestricted };
            debug_assert!(tr.cost() < thr.cost());
            tr
        }
        None => thr,
    }
}

/// The threshold-BFS construction.
pub fn threshold_bfs(g: &Graph, bfs: &BfsTree, partition: &Partition) -> ShortcutQuality {
    threshold_bfs_ws(g, bfs, partition, &mut ShortcutWorkspace::new(g))
}

/// [`threshold_bfs`] on a caller-held workspace.
pub fn threshold_bfs_ws(
    g: &Graph,
    bfs: &BfsTree,
    partition: &Partition,
    ws: &mut ShortcutWorkspace,
) -> ShortcutQuality {
    let mut beta = 0u32;
    let alpha = threshold_pass(g, bfs, partition, ws, |radius, _| beta = beta.max(radius));
    ShortcutQuality { alpha, beta, scheme: ShortcutScheme::ThresholdBfs }
}

/// The tree-restricted Steiner construction.
pub fn tree_restricted(g: &Graph, bfs: &BfsTree, partition: &Partition) -> ShortcutQuality {
    tree_restricted_ws(g, bfs, partition, &mut ShortcutWorkspace::new(g))
}

/// [`tree_restricted`] on a caller-held workspace.
pub fn tree_restricted_ws(
    g: &Graph,
    bfs: &BfsTree,
    partition: &Partition,
    ws: &mut ShortcutWorkspace,
) -> ShortcutQuality {
    let mut beta = 0u32;
    let alpha = tree_restricted_pass(g, bfs, partition, ws, None, |radius| beta = beta.max(radius))
        .expect("an unbounded pass always completes");
    ShortcutQuality { alpha, beta, scheme: ShortcutScheme::TreeRestricted }
}

/// The threshold-BFS pass: reports every part's radius, in part order,
/// with whether the part is big (`|V_i| ≥ ⌈√n⌉`, so `H_i` is the whole
/// BFS tree), and returns `α`.
fn threshold_pass(
    g: &Graph,
    bfs: &BfsTree,
    partition: &Partition,
    ws: &mut ShortcutWorkspace,
    mut on_part: impl FnMut(u32, bool),
) -> u32 {
    ws.ensure(g);
    let threshold = (g.n() as f64).sqrt().ceil() as usize;
    // Stamp the BFS tree once: every big part shares it as `H_i`.
    let tree_epoch = ws.bump();
    let mut tree_edges = 0u32;
    for e in bfs.tree_edges() {
        ws.estamp[e.index()] = tree_epoch;
        tree_edges += 1;
    }
    let mut big_parts = 0u32;
    for pi in 0..partition.len() {
        let big = partition.part(pi).len() >= threshold;
        if big {
            big_parts += 1;
        }
        let hi_epoch = big.then_some(tree_epoch);
        on_part(part_radius_ws(g, partition, pi, hi_epoch, ws), big);
    }
    // Each big part loads every BFS-tree edge exactly once, so the
    // maximum tree-edge load is the number of big parts; induced edges
    // count once for their own part.
    if big_parts > 0 && tree_edges > 0 {
        big_parts + 1
    } else {
        1
    }
}

/// The cost a bounded tree-restricted pass has to beat.
#[derive(Clone, Copy, Debug)]
struct Bound {
    /// The rival construction's `α + β`; reaching it abandons the pass.
    cost: u64,
    /// A proven lower bound on the pass's final `β`, seeding `β_partial`.
    beta_floor: u32,
}

/// The tree-restricted pass: reports every part's radius, in part order,
/// and returns `α` (maximum Steiner edge load + 1).
///
/// With a [`Bound`], returns `None` as soon as the running lower bound
/// `α_partial + β_partial` reaches `bound.cost`, where `α_partial` is the
/// maximum load so far + 1 and `β_partial` the maximum radius so far
/// (seeded with `bound.beta_floor`); both only grow towards the final
/// `α` and `β`, so an abandoned pass could not have been strictly cheaper.
fn tree_restricted_pass(
    g: &Graph,
    bfs: &BfsTree,
    partition: &Partition,
    ws: &mut ShortcutWorkspace,
    bound: Option<Bound>,
    mut on_part: impl FnMut(u32),
) -> Option<u32> {
    ws.ensure(g);
    let load_epoch = ws.bump();
    let mut max_load = 0u32;
    let mut beta = bound.map_or(0, |b| b.beta_floor);
    let reached = |max_load: u32, beta: u32| {
        bound.is_some_and(|b| (max_load as u64 + 1) + beta as u64 >= b.cost)
    };
    for pi in 0..partition.len() {
        let hi_epoch = steiner_into(bfs, partition.part(pi), ws);
        for k in 0..ws.hi_buf.len() {
            let e = ws.hi_buf[k].index();
            if ws.lstamp[e] == load_epoch {
                ws.eload[e] += 1;
            } else {
                ws.lstamp[e] = load_epoch;
                ws.eload[e] = 1;
            }
            max_load = max_load.max(ws.eload[e]);
        }
        if reached(max_load, beta) {
            return None;
        }
        let radius = part_radius_ws(g, partition, pi, Some(hi_epoch), ws);
        beta = beta.max(radius);
        if reached(max_load, beta) {
            return None;
        }
        on_part(radius);
    }
    Some(max_load + 1)
}

/// Per-part measurement of one level: both constructions' radii plus
/// their `α` values — the retained state of the incremental solve path
/// (a delta re-runs only the dirty parts' radii and recombines).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LevelRadii {
    /// Threshold-BFS radius of every part, in part order.
    pub thr: Vec<u32>,
    /// Tree-restricted radius of every part, in part order.
    pub tr: Vec<u32>,
    /// Threshold-BFS `α` (big-part count + 1, or 1).
    pub thr_alpha: u32,
    /// Tree-restricted `α` (max Steiner edge load + 1).
    pub tr_alpha: u32,
}

impl LevelRadii {
    /// Recombines exactly as [`best_shortcut_ws`] does: threshold-BFS
    /// wins ties.
    pub fn quality(&self) -> ShortcutQuality {
        let a = ShortcutQuality {
            alpha: self.thr_alpha,
            beta: self.thr.iter().copied().max().unwrap_or(0),
            scheme: ShortcutScheme::ThresholdBfs,
        };
        let b = ShortcutQuality {
            alpha: self.tr_alpha,
            beta: self.tr.iter().copied().max().unwrap_or(0),
            scheme: ShortcutScheme::TreeRestricted,
        };
        if a.cost() <= b.cost() {
            a
        } else {
            b
        }
    }
}

/// Both passes of one level with every part's radius kept (no bound:
/// a delta may later make the tree-restricted side win), so
/// `measure_level_radii(..).quality() == best_shortcut_ws(..)` (pinned
/// by a unit test below).
pub(crate) fn measure_level_radii(
    g: &Graph,
    bfs: &BfsTree,
    partition: &Partition,
    ws: &mut ShortcutWorkspace,
) -> LevelRadii {
    let mut thr = Vec::with_capacity(partition.len());
    let thr_alpha = threshold_pass(g, bfs, partition, ws, |radius, _| thr.push(radius));
    let mut tr = Vec::with_capacity(partition.len());
    let tr_alpha = tree_restricted_pass(g, bfs, partition, ws, None, |radius| tr.push(radius))
        .expect("an unbounded pass always completes");
    LevelRadii { thr, tr, thr_alpha, tr_alpha }
}

/// The minimal BFS-tree subtree spanning `part`: the union of tree paths
/// from each vertex to the part's topmost common ancestor, pruned at
/// already-visited vertices (linear in the Steiner tree size).
pub fn steiner_edges(bfs: &BfsTree, part: &[VertexId]) -> Vec<EdgeId> {
    // Size the workspace from the BFS tree (no graph at hand here);
    // edge ids on root paths are arbitrary graph edges, so cover the
    // largest one we will touch.
    let mut ws = ShortcutWorkspace::default();
    let max_edge = bfs
        .parent_edge
        .iter()
        .flatten()
        .map(|e| e.index())
        .max()
        .map_or(0, |m| m + 1);
    ws.ensure_capacity(bfs.parent.len(), max_edge);
    steiner_into(bfs, part, &mut ws);
    ws.hi_buf.clone()
}

/// Builds the Steiner union into `ws.hi_buf`, stamping the kept edges
/// in `ws.estamp` with the returned epoch (the `H_i` membership test
/// used by [`part_radius_ws`]).
pub(crate) fn steiner_into(bfs: &BfsTree, part: &[VertexId], ws: &mut ShortcutWorkspace) -> u32 {
    // Union of root paths, pruned at already-visited vertices.
    let visit_epoch = ws.bump();
    ws.steiner_buf.clear();
    for &v in part {
        let mut cur = v;
        while ws.vstamp[cur.index()] != visit_epoch {
            ws.vstamp[cur.index()] = visit_epoch;
            match (bfs.parent[cur.index()], bfs.parent_edge[cur.index()]) {
                (Some(p), Some(e)) => {
                    ws.steiner_buf.push((cur, e));
                    cur = p;
                }
                _ => break, // reached the BFS root
            }
        }
    }
    // Per-parent child counts inside the union, plus the unique child
    // while there is only one (what the chain-pruning walk follows).
    let cc_epoch = ws.bump();
    for k in 0..ws.steiner_buf.len() {
        let (c, e) = ws.steiner_buf[k];
        let p = bfs.parent[c.index()].expect("edge has a parent").index();
        if ws.ccstamp[p] == cc_epoch {
            ws.child_count[p] += 1;
        } else {
            ws.ccstamp[p] = cc_epoch;
            ws.child_count[p] = 1;
            ws.only_child[p] = (c, e);
        }
    }
    // Part membership (the visited stamps are no longer needed).
    let part_epoch = ws.bump();
    for &v in part {
        ws.vstamp[v.index()] = part_epoch;
    }
    // Walk down from the BFS root along single chains of non-part
    // vertices, discarding those edges — the tail above the part's
    // common ancestor.
    let discard_epoch = ws.bump();
    let mut cur = bfs.root;
    loop {
        let ci = cur.index();
        if ws.vstamp[ci] == part_epoch || ws.ccstamp[ci] != cc_epoch || ws.child_count[ci] != 1 {
            break;
        }
        let (child, e) = ws.only_child[ci];
        ws.estamp[e.index()] = discard_epoch;
        cur = child;
    }
    let hi_epoch = ws.bump();
    ws.hi_buf.clear();
    for k in 0..ws.steiner_buf.len() {
        let (_, e) = ws.steiner_buf[k];
        if ws.estamp[e.index()] != discard_epoch {
            ws.estamp[e.index()] = hi_epoch;
            ws.hi_buf.push(e);
        }
    }
    hi_epoch
}

/// Eccentricity of part `pi`'s first vertex (its leader) inside
/// `G[V_i] + H_i`, where `H_i` is the edge set stamped with `hi_epoch`
/// in `ws.estamp` (`None` = no shortcut edges). Flat BFS over the CSR
/// adjacency; stops expanding once every part vertex has its distance
/// (BFS distances are final on assignment, so the early exit cannot
/// change the returned maximum).
pub(crate) fn part_radius_ws(
    g: &Graph,
    partition: &Partition,
    pi: usize,
    hi_epoch: Option<u32>,
    ws: &mut ShortcutWorkspace,
) -> u32 {
    let part = partition.part(pi);
    let me = Some(pi as u32);
    let leader = part[0];
    let bfs_epoch = ws.bump();
    ws.queue.clear();
    ws.queue.push(leader);
    ws.vstamp[leader.index()] = bfs_epoch;
    ws.dist[leader.index()] = 0;
    let mut found = 1usize;
    let mut head = 0usize;
    while head < ws.queue.len() && found < part.len() {
        let v = ws.queue[head];
        head += 1;
        let d = ws.dist[v.index()];
        let v_in_part = partition.part_of(v) == me;
        for &(e, w) in g.neighbors(v) {
            let usable = hi_epoch.is_some_and(|he| ws.estamp[e.index()] == he)
                || (v_in_part && partition.part_of(w) == me);
            if usable && ws.vstamp[w.index()] != bfs_epoch {
                ws.vstamp[w.index()] = bfs_epoch;
                ws.dist[w.index()] = d + 1;
                ws.queue.push(w);
                if partition.part_of(w) == me {
                    found += 1;
                }
            }
        }
    }
    // Every part vertex must be reachable (parts are connected, and
    // intra-part edges are always usable).
    debug_assert!(part.iter().all(|v| ws.vstamp[v.index()] == bfs_epoch));
    // Only count the distance to part vertices: the shortcut is used to
    // communicate within the part.
    part.iter().map(|v| ws.dist[v.index()]).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::{algo, gen};
    use std::collections::HashMap;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn singleton_parts_are_free() {
        let g = gen::grid(4, 4, 5, 0);
        let bfs = algo::bfs_tree(&g, v(0));
        let parts: Vec<Vec<VertexId>> = g.vertices().map(|x| vec![x]).collect();
        let p = Partition::new(&g, parts);
        let q = best_shortcut(&g, &bfs, &p);
        assert_eq!(q.beta, 0);
        assert!(q.alpha <= 2);
    }

    #[test]
    fn whole_graph_part_costs_about_diameter() {
        let g = gen::grid(5, 5, 5, 1);
        let bfs = algo::bfs_tree(&g, v(0));
        let p = Partition::new(&g, vec![g.vertices().collect()]);
        let q = best_shortcut(&g, &bfs, &p);
        let d = algo::diameter(&g);
        assert!(q.beta as u32 <= 2 * d + 2, "beta {} vs D {d}", q.beta);
        assert!(q.alpha <= 2);
    }

    #[test]
    fn steiner_tree_spans_the_part() {
        let g = gen::grid(4, 6, 5, 2);
        let bfs = algo::bfs_tree(&g, v(0));
        let part = vec![v(3), v(17), v(22)];
        let edges = steiner_edges(&bfs, &part);
        // The Steiner edges plus nothing else must connect the part.
        let mut uf = decss_graphs::algo::UnionFind::new(g.n());
        for &e in &edges {
            let edge = g.edge(e);
            uf.union(edge.u.index(), edge.v.index());
        }
        assert!(uf.same(3, 17));
        assert!(uf.same(3, 22));
    }

    #[test]
    fn fragment_like_partition_has_bounded_cost_on_outerplanar() {
        // Low-diameter outerplanar graphs: tree-restricted shortcuts stay
        // near D while n grows.
        let g = gen::outerplanar_disk(128, 1.0, 5, 3);
        let bfs = algo::bfs_tree(&g, v(0));
        // Partition = BFS subtrees at depth 2 boundaries (connected parts).
        let mut parts: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        for u in g.vertices() {
            // group by ancestor at depth <= 2
            let mut cur = u;
            while bfs.dist[cur.index()].unwrap() > 2 {
                cur = bfs.parent[cur.index()].unwrap();
            }
            parts.entry(cur).or_default().push(u);
        }
        let p = Partition::new(&g, parts.into_values().collect());
        let q = best_shortcut(&g, &bfs, &p);
        let d = algo::diameter(&g);
        assert!(q.cost() <= (4 * d as u64 + 8) * 4, "cost {} vs D {d}", q.cost());
    }

    #[test]
    fn flat_matches_naive_on_a_fragment_partition() {
        // Spot check here; the full pinning lives in the
        // flat_equivalence proptest suite.
        let g = gen::gnp_two_ec(96, 0.06, 24, 11);
        let tree = decss_tree::RootedTree::mst(&g);
        let euler = decss_tree::EulerTour::new(&tree);
        let hld = decss_tree::HeavyLight::new(&tree, &euler);
        let h = crate::fragments::FragmentHierarchy::new(&tree, &hld);
        let bfs = algo::bfs_tree(&g, tree.root());
        let mut ws = ShortcutWorkspace::new(&g);
        for d in 0..h.num_levels() {
            let p = h.level_partition(&g, d);
            assert_eq!(
                threshold_bfs_ws(&g, &bfs, &p, &mut ws),
                crate::naive::threshold_bfs(&g, &bfs, &p)
            );
            assert_eq!(
                tree_restricted_ws(&g, &bfs, &p, &mut ws),
                crate::naive::tree_restricted(&g, &bfs, &p)
            );
        }
    }

    #[test]
    fn the_bound_stops_losing_passes_early() {
        // Every threshold-BFS win abandons the tree-restricted pass; on
        // the levels where it loses by a margin, the bound should fire
        // long before the last part.
        let mut levels = 0usize;
        let mut early = 0usize;
        for seed in 0..4 {
            for g in [
                gen::grid(20, 20, 24, seed),
                gen::road_mesh_two_ec(400, 24, seed),
                gen::adversarial_shortcut_two_ec(400, 24, seed),
            ] {
                let tree = decss_tree::RootedTree::mst(&g);
                let euler = decss_tree::EulerTour::new(&tree);
                let hld = decss_tree::HeavyLight::new(&tree, &euler);
                let h = crate::fragments::FragmentHierarchy::new(&tree, &hld);
                let bfs = algo::bfs_tree(&g, tree.root());
                let mut ws = ShortcutWorkspace::new(&g);
                for d in 0..h.num_levels() {
                    let p = h.level_partition(&g, d);
                    let thr = threshold_bfs_ws(&g, &bfs, &p, &mut ws);
                    let tr = tree_restricted_ws(&g, &bfs, &p, &mut ws);
                    let mut big_beta = 0;
                    threshold_pass(&g, &bfs, &p, &mut ws, |r, big| {
                        if big {
                            big_beta = big_beta.max(r);
                        }
                    });
                    let bound = Bound { cost: thr.cost(), beta_floor: big_beta };
                    let mut measured = 0usize;
                    let alpha =
                        tree_restricted_pass(&g, &bfs, &p, &mut ws, Some(bound), |_| measured += 1);
                    assert_eq!(alpha.is_some(), tr.cost() < thr.cost(), "level {d}");
                    if alpha.is_none() {
                        levels += 1;
                        if 2 * measured < p.len() {
                            early += 1;
                        }
                    }
                }
            }
        }
        assert!(
            levels > 0 && early * 2 > levels,
            "{early} of {levels} abandoned early"
        );
    }

    #[test]
    fn measured_radii_recombine_to_best_shortcut() {
        for (g, seed) in [
            (gen::gnp_two_ec(96, 0.06, 24, 11), 11),
            (gen::grid(9, 9, 16, 4), 4),
            (gen::outerplanar_disk(80, 1.0, 24, 7), 7),
        ] {
            let tree = decss_tree::RootedTree::mst(&g);
            let euler = decss_tree::EulerTour::new(&tree);
            let hld = decss_tree::HeavyLight::new(&tree, &euler);
            let h = crate::fragments::FragmentHierarchy::new(&tree, &hld);
            let bfs = algo::bfs_tree(&g, tree.root());
            let mut ws = ShortcutWorkspace::new(&g);
            for d in 0..h.num_levels() {
                let p = h.level_partition(&g, d);
                let radii = measure_level_radii(&g, &bfs, &p, &mut ws);
                assert_eq!(
                    radii.quality(),
                    best_shortcut_ws(&g, &bfs, &p, &mut ws),
                    "seed {seed} level {d}"
                );
                assert_eq!(radii.thr.len(), p.len());
                assert_eq!(radii.tr.len(), p.len());
            }
        }
    }
}
