//! Pins the flat scratch-buffer rewrites of the shortcut pipeline
//! bit-identical to the preserved naive reference implementations
//! (`decss_shortcuts::naive`): same `ShortcutQuality` per level, same
//! Steiner edge sets in the same order, same fragment-hierarchy layout.
//!
//! Run under `--release` in CI (like the congest determinism suite);
//! the `*_at_4096` tests are `#[ignore]`d so the debug-mode tier-1 run
//! stays fast — CI executes them with `--include-ignored`.

use decss_graphs::algo::bfs_tree;
use decss_graphs::{gen, Graph};
use decss_shortcuts::fragments::FragmentHierarchy;
use decss_shortcuts::shortcut::{best_shortcut_ws, threshold_bfs_ws, tree_restricted_ws};
use decss_shortcuts::{naive, ShortcutWorkspace};
use decss_tree::{EulerTour, HeavyLight, RootedTree};
use proptest::prelude::*;

const FAMILIES: [&str; 4] = ["ladder", "grid", "outerplanar", "hard-sqrt"];

fn instance(family: &str, n: usize, seed: u64) -> Graph {
    match family {
        // Planar families: ladder (outerplanar-adjacent, long diameter)
        // and the square grid.
        "ladder" => gen::ladder(n, 24, seed),
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            gen::grid(side, side.max(2), 24, seed)
        }
        "outerplanar" => gen::outerplanar_disk(n.max(3), 1.0, 24, seed),
        "hard-sqrt" => gen::hard_sqrt_two_ec(n.max(16), 24, seed),
        other => unreachable!("unknown family {other}"),
    }
}

/// The whole construction stack, naive vs flat, on one instance. The
/// workspace is threaded through every flat call, so this also proves
/// cross-call scratch cleanliness.
fn assert_equivalent(g: &Graph, ws: &mut ShortcutWorkspace) {
    let tree = RootedTree::mst(g);
    let euler = EulerTour::new(&tree);
    let hld = HeavyLight::new(&tree, &euler);
    let bfs = bfs_tree(g, tree.root());

    // Fragment hierarchy: same level/spine layout, same spine_of.
    let flat = FragmentHierarchy::new(&tree, &hld);
    let (naive_levels, naive_spine_of) = naive::fragment_levels(&tree, &hld);
    assert_eq!(flat.num_levels(), naive_levels.len(), "level count");
    for (d, level) in naive_levels.iter().enumerate() {
        assert_eq!(flat.num_fragments(d), level.len(), "fragments at level {d}");
        for (i, spine) in level.iter().enumerate() {
            assert_eq!(flat.spine(d, i), spine.as_slice(), "spine ({d}, {i})");
        }
    }
    assert_eq!(flat.spine_of, naive_spine_of, "spine_of");

    // Both constructions per level: identical measured quality.
    for d in 0..flat.num_levels() {
        let partition = flat.level_partition(g, d);
        assert_eq!(
            threshold_bfs_ws(g, &bfs, &partition, ws),
            naive::threshold_bfs(g, &bfs, &partition),
            "threshold_bfs at level {d}"
        );
        assert_eq!(
            tree_restricted_ws(g, &bfs, &partition, ws),
            naive::tree_restricted(g, &bfs, &partition),
            "tree_restricted at level {d}"
        );
        // Steiner edge sets, part by part, same edges in the same order.
        for (i, part) in partition.parts().enumerate() {
            assert_eq!(
                decss_shortcuts::shortcut::steiner_edges(&bfs, part),
                naive::steiner_edges(&bfs, part),
                "steiner_edges at level {d}, part {i}"
            );
        }
    }

    // The full naive construction path agrees with what ScTools records.
    let tools = decss_shortcuts::tools::ScTools::new_with(g, &tree, ws);
    assert_eq!(
        tools.level_quality,
        naive::level_quality(g, &tree, &hld, &bfs),
        "level_quality"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flat_construction_matches_naive(
        family in 0usize..FAMILIES.len(),
        n in 64usize..320,
        seed in 0u64..1000,
    ) {
        let g = instance(FAMILIES[family], n, seed);
        let mut ws = ShortcutWorkspace::new(&g);
        assert_equivalent(&g, &mut ws);
    }

    /// One workspace across differently-sized instances: `ensure` must
    /// grow the arrays and epochs must not leak between graphs.
    #[test]
    fn one_workspace_across_instances(seed in 0u64..500) {
        let mut ws = ShortcutWorkspace::default();
        for (family, n) in [("outerplanar", 48usize), ("grid", 144), ("hard-sqrt", 64)] {
            let g = instance(family, n, seed);
            ws.ensure(&g);
            assert_equivalent(&g, &mut ws);
        }
    }
}

/// The branch-and-bound in `best_shortcut_ws` is exact: on every
/// hierarchy level it returns the cheaper of the two full constructions,
/// threshold-BFS winning ties. One workspace runs every call on every
/// level of every instance, so each bounded call starts from scratch a
/// previous abandoned pass left dirty.
#[test]
fn bounded_best_shortcut_equals_the_cheaper_construction() {
    let corpus: Vec<(&str, Graph)> = [256usize, 512]
        .into_iter()
        .flat_map(|n| {
            let side = (n as f64).sqrt() as usize;
            (0u64..6).flat_map(move |seed| {
                [
                    ("grid", gen::grid(side, side, 24, seed)),
                    ("roadmesh", gen::road_mesh_two_ec(n, 24, seed)),
                    ("hard-sqrt", gen::hard_sqrt_two_ec(n, 24, seed)),
                    ("adversarial", gen::adversarial_shortcut_two_ec(n, 24, seed)),
                    ("outerplanar", gen::outerplanar_disk(n, 1.0, 24, seed)),
                    ("lollipop", gen::lollipop_two_ec(n, 24, seed)),
                ]
            })
        })
        .collect();
    let mut ws = ShortcutWorkspace::default();
    let (mut tree_wins, mut abandoned) = (0usize, 0usize);
    for (family, g) in &corpus {
        let tree = RootedTree::mst(g);
        let euler = EulerTour::new(&tree);
        let hld = HeavyLight::new(&tree, &euler);
        let hierarchy = FragmentHierarchy::new(&tree, &hld);
        let bfs = bfs_tree(g, tree.root());
        for d in 0..hierarchy.num_levels() {
            let partition = hierarchy.level_partition(g, d);
            let best = best_shortcut_ws(g, &bfs, &partition, &mut ws);
            let thr = threshold_bfs_ws(g, &bfs, &partition, &mut ws);
            let tr = tree_restricted_ws(g, &bfs, &partition, &mut ws);
            let cheaper = if thr.cost() <= tr.cost() { thr } else { tr };
            assert_eq!(best, cheaper, "{family} n={} level {d}", g.n());
            // A tree-restricted pass that cannot win strictly always ends
            // through the bound (at the latest after its last part, where
            // the running bound equals its full cost).
            if best == tr && thr.cost() > tr.cost() {
                tree_wins += 1;
            } else {
                abandoned += 1;
            }
        }
    }
    assert!(tree_wins > 0, "no level where tree-restricted wins");
    assert!(abandoned > 0, "no level where the bound abandons tree-restricted");
}

/// The n=4096 instances the issue pins (release-CI only: the naive
/// reference is HashMap-bound and too slow for the debug tier-1 run).
#[test]
#[ignore = "large instance; run in release CI via --include-ignored"]
fn flat_construction_matches_naive_at_4096() {
    for family in FAMILIES {
        let g = instance(family, 4096, 7);
        let mut ws = ShortcutWorkspace::new(&g);
        assert_equivalent(&g, &mut ws);
    }
}

/// End-to-end pipeline smoke at 4096 on the two scaling families: the
/// flat pipeline must complete and produce a valid 2-ECSS.
#[test]
#[ignore = "large instance; run in release CI via --include-ignored"]
fn pipeline_completes_at_4096() {
    for family in ["grid", "hard-sqrt"] {
        let g = instance(family, 4096, 3);
        let res =
            decss_shortcuts::shortcut_two_ecss(&g, &decss_shortcuts::ShortcutConfig::default())
                .unwrap_or_else(|e| panic!("{family}: {e}"));
        assert!(
            decss_graphs::algo::two_edge_connected_in(&g, res.edges.iter().copied()),
            "{family}: invalid output"
        );
        assert!(res.measured_sc > 0);
    }
}
