//! Wall-clock of the Theorem 1.2 shortcut pipeline after the flat
//! scratch-buffer rewrites, head-to-head against the preserved naive
//! reference paths (`decss_shortcuts::naive`, `NaiveCoverEngine`):
//!
//! * `construct` — per-level shortcut measurement over the fragment
//!   hierarchy (partitions + the cheaper construction, with
//!   tree-restricted measured only as far as it could still win), the
//!   dominant cost of `ScTools::new`; `naive` rows run the old
//!   `HashMap`-based path, which measures both constructions in full.
//! * `fragments` — the hierarchy build alone (flat arena vs per-spine
//!   `Vec`s).
//! * `cover_engine` — four aggregate invocations on a prebuilt engine
//!   (flat strided/epoch-reset scratch vs per-invocation allocations).
//! * `end_to_end` — `shortcut_two_ecss` at the 10⁴/10⁵-vertex scale the
//!   ROADMAP targets (flat only; the ROADMAP "Bigger instances for
//!   Theorem 1.2" envelope rows).
//!
//! Every naive/flat pair is asserted result-identical before timing, so
//! the rows measure the same computation. Measurements dump to
//! `BENCH_shortcut_pipeline.json` (override with `DECSS_BENCH_JSON`)
//! for the perf gate.

use criterion::{criterion_group, BenchmarkId, Criterion};
use decss_graphs::algo::bfs_tree;
use decss_graphs::{gen, Graph, VertexId};
use decss_shortcuts::fragments::FragmentHierarchy;
use decss_shortcuts::shortcut::{best_shortcut_ws, ShortcutQuality};
use decss_shortcuts::{naive, shortcut_two_ecss, ShortcutConfig, ShortcutWorkspace};
use decss_tree::aggregates::naive::NaiveCoverEngine;
use decss_tree::aggregates::{CoverArc, CoverEngine};
use decss_tree::{EulerTour, HeavyLight, LcaOracle, RootedTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FAMILIES: [&str; 2] = ["grid", "hard-sqrt"];
const CONSTRUCT_SIZES: [usize; 2] = [1_000, 10_000];
const FRAGMENT_SIZES: [usize; 2] = [10_000, 100_000];
const COVER_SIZES: [usize; 2] = [1_000, 10_000];
const END_TO_END_SIZES: [usize; 2] = [10_000, 100_000];
const BIG: usize = 100_000;

fn instance(family: &str, n: usize) -> Graph {
    match family {
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            gen::grid(side, side, 32, 0xF00 + n as u64)
        }
        "hard-sqrt" => gen::hard_sqrt_two_ec(n, 32, 0xF00 + n as u64),
        other => unreachable!("unknown family {other}"),
    }
}

struct Prepared {
    g: Graph,
    tree: RootedTree,
    hld: HeavyLight,
    bfs: decss_graphs::algo::BfsTree,
}

fn prepare(family: &str, n: usize) -> Prepared {
    let g = instance(family, n);
    let tree = RootedTree::mst(&g);
    let euler = EulerTour::new(&tree);
    let hld = HeavyLight::new(&tree, &euler);
    let bfs = bfs_tree(&g, tree.root());
    Prepared { g, tree, hld, bfs }
}

/// The flat construction path: hierarchy + per-level partitions +
/// `best_shortcut_ws`, all on one reused workspace.
fn flat_level_quality(p: &Prepared, ws: &mut ShortcutWorkspace) -> Vec<ShortcutQuality> {
    let h = FragmentHierarchy::new(&p.tree, &p.hld);
    (0..h.num_levels())
        .map(|d| {
            let partition = h.level_partition(&p.g, d);
            best_shortcut_ws(&p.g, &p.bfs, &partition, ws)
        })
        .collect()
}

fn bench_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("shortcut_pipeline/construct");
    group.sample_size(10);
    for family in FAMILIES {
        for n in CONSTRUCT_SIZES {
            let p = prepare(family, n);
            let mut ws = ShortcutWorkspace::new(&p.g);
            // The rows must measure the same computation.
            assert_eq!(
                flat_level_quality(&p, &mut ws),
                naive::level_quality(&p.g, &p.tree, &p.hld, &p.bfs),
                "naive/flat divergence on {family}/{n}"
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{family}/{n}"), "naive"),
                &p,
                |b, p| b.iter(|| naive::level_quality(&p.g, &p.tree, &p.hld, &p.bfs)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{family}/{n}"), "flat"),
                &p,
                |b, p| b.iter(|| flat_level_quality(p, &mut ws)),
            );
        }
        // The 10⁵-vertex scaling row the ROADMAP asks for (flat only;
        // the naive path is minutes-per-iteration here).
        let p = prepare(family, BIG);
        let mut ws = ShortcutWorkspace::new(&p.g);
        group.bench_with_input(BenchmarkId::new(format!("{family}/{BIG}"), "flat"), &p, |b, p| {
            b.iter(|| flat_level_quality(p, &mut ws))
        });
    }
    group.finish();
}

fn bench_fragments(c: &mut Criterion) {
    let mut group = c.benchmark_group("shortcut_pipeline/fragments");
    group.sample_size(10);
    for n in FRAGMENT_SIZES {
        let p = prepare("grid", n);
        // Layout equality (the full pinning lives in flat_equivalence).
        let flat = FragmentHierarchy::new(&p.tree, &p.hld);
        let (levels, spine_of) = naive::fragment_levels(&p.tree, &p.hld);
        assert_eq!(flat.num_levels(), levels.len());
        assert_eq!(flat.spine_of, spine_of);
        group.bench_with_input(BenchmarkId::new(format!("{n}"), "naive"), &p, |b, p| {
            b.iter(|| naive::fragment_levels(&p.tree, &p.hld))
        });
        group.bench_with_input(BenchmarkId::new(format!("{n}"), "flat"), &p, |b, p| {
            b.iter(|| FragmentHierarchy::new(&p.tree, &p.hld))
        });
    }
    group.finish();
}

fn bench_cover_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("shortcut_pipeline/cover_engine");
    group.sample_size(10);
    for n in COVER_SIZES {
        let g = gen::sparse_two_ec(n, n / 2, 64, 0xC0 + n as u64);
        let tree = RootedTree::mst(&g);
        let lca = LcaOracle::new(&tree);
        let mut rng = StdRng::seed_from_u64(5);
        let mut arcs = Vec::new();
        while arcs.len() < 2 * n {
            let a = VertexId(rng.gen_range(0..n as u32));
            let d = VertexId(rng.gen_range(0..n as u32));
            if lca.is_proper_ancestor(a, d) {
                arcs.push(CoverArc { anc: a, desc: d });
            }
        }
        let flat = CoverEngine::new(&tree, &lca, arcs.clone());
        let naive_engine = NaiveCoverEngine::new(&tree, &lca, arcs.clone());
        let active: Vec<bool> = (0..arcs.len()).map(|i| i % 3 != 0).collect();
        let keys: Vec<u64> = (0..arcs.len() as u64).map(|i| (i * 37) % 1000).collect();
        let tvals: Vec<f64> = (0..n as u64).map(|i| (i % 17) as f64).collect();
        let tkeys: Vec<u64> = (0..n as u64).map(|i| (i * 13) % 997).collect();
        assert_eq!(flat.covering_count(&active), naive_engine.covering_count(&active));
        assert_eq!(
            flat.covering_argmin(&active, &keys),
            naive_engine.covering_argmin(&active, &keys)
        );
        assert_eq!(flat.covered_min(&tkeys), naive_engine.covered_min(&tkeys));
        // One "round" of engine use: the four aggregate shapes the
        // forward/reverse phases and probes lean on.
        group.bench_function(BenchmarkId::new(format!("{n}"), "naive"), |b| {
            b.iter(|| {
                (
                    naive_engine.covering_count(&active),
                    naive_engine.covering_argmin(&active, &keys),
                    naive_engine.covered_sum(&tvals),
                    naive_engine.covered_min(&tkeys),
                )
            })
        });
        group.bench_function(BenchmarkId::new(format!("{n}"), "flat"), |b| {
            b.iter(|| {
                (
                    flat.covering_count(&active),
                    flat.covering_argmin(&active, &keys),
                    flat.covered_sum(&tvals),
                    flat.covered_min(&tkeys),
                )
            })
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("shortcut_pipeline/end_to_end");
    // Seconds per iteration at 10⁵: few samples, enough for the gate.
    group.sample_size(3);
    for family in FAMILIES {
        for n in END_TO_END_SIZES {
            let g = instance(family, n);
            let res = shortcut_two_ecss(&g, &ShortcutConfig::default())
                .unwrap_or_else(|e| panic!("{family}/{n}: {e}"));
            println!(
                "shortcut_pipeline/end_to_end/{family}/{n}: measured-sc {}, {} rounds, \
                 {} fallbacks per iteration",
                res.measured_sc,
                res.ledger.total_rounds(),
                res.fallbacks
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{family}/{n}"), "flat"),
                &g,
                |b, g| b.iter(|| shortcut_two_ecss(g, &ShortcutConfig::default())),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_construct,
    bench_fragments,
    bench_cover_engine,
    bench_end_to_end
);

// Custom main instead of criterion_main!: after the run it dumps the
// measurements to BENCH_shortcut_pipeline.json for the perf gate.
fn main() {
    let path = std::env::var("DECSS_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shortcut_pipeline.json").to_string()
    });
    let mut c = Criterion::default();
    benches(&mut c);
    decss_bench::benchjson::dump("shortcut_pipeline", &c.measurements, &path);
}
