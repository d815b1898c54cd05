//! Wall-clock of the sequential CONGEST round engine: gossip flood (the
//! message-plumbing stress test — `2m` deliveries per round), BFS-tree
//! construction, and distributed Borůvka (`seq` rows).
//!
//! Besides the console report the run dumps every measurement to
//! `BENCH_congest_rounds.json` (override with `DECSS_BENCH_JSON`) so the
//! perf gate (`bench_gate`) can diff engine performance mechanically.
//!
//! The `naive` flood rows preserve the pre-refactor engine — per-round
//! inbox reallocation, a per-sender `HashMap` for bandwidth accounting,
//! heap-allocated message payloads — as a permanent reference point for
//! what the zero-alloc plumbing buys. They replicate the old `step`
//! loop exactly (same delivery order, same accounting semantics) and
//! are asserted against the real protocol's results each run.
//!
//! Coverage caps (deliberate, not silent): Borůvka is benched at
//! n ∈ {256, 1024} only — its round count grows as `n log n` with
//! `Θ(n)`-round phases, so 10k+ instances take minutes per iteration on
//! the engine; flood and BFS cover the 10^5-vertex regime the ROADMAP
//! targets.

use criterion::{criterion_group, BenchmarkId, Criterion};
use decss_congest::protocols::{bfs, boruvka, flood};
use decss_graphs::{gen, EdgeId, Graph, VertexId};
use std::collections::HashMap;

const FLOOD_SIZES: [usize; 3] = [1_000, 10_000, 100_000];
const BFS_SIZES: [usize; 3] = [1_000, 10_000, 100_000];
const BORUVKA_SIZES: [usize; 2] = [256, 1_024];
const FLOOD_BURSTS: u32 = 8;

fn instance(n: usize) -> Graph {
    // Same family as bench_graph_core: random spanning tree + n/2 chords
    // + cycle closure, ~1.5n edges, irregular degrees.
    gen::sparse_two_ec(n, n / 2, 64, 0xD0D0 + n as u64)
}

// ---------------------------------------------------------------------
// The preserved pre-refactor engine, specialised to the flood workload.
// ---------------------------------------------------------------------

/// Message layout before the inline-payload representation: every
/// payload on the heap.
#[derive(Clone)]
struct OldMsg {
    #[allow(dead_code)]
    tag: u8,
    words: Vec<u64>,
}

impl OldMsg {
    fn cost(&self) -> usize {
        1 + self.words.len()
    }
}

/// The pre-refactor `Network::step` loop driving the gossip-flood
/// protocol: allocates all inbox vectors and a per-sender `HashMap`
/// every round.
fn naive_flood(g: &Graph, bursts: u32) -> (Vec<u64>, u64) {
    let n = g.n();
    let bandwidth = 4u64;
    let mut acc: Vec<u64> = (0..n as u64).collect();
    let mut remaining = vec![bursts; n];
    let mut pending: Vec<Vec<(EdgeId, VertexId, OldMsg)>> = vec![Vec::new(); n];
    let mut rounds = 0u64;
    for round in 0..(bursts as u64 + 4) {
        let inboxes: Vec<Vec<(EdgeId, VertexId, OldMsg)>> =
            std::mem::replace(&mut pending, vec![Vec::new(); n]);
        let delivered: u64 = inboxes.iter().map(|b| b.len() as u64).sum();
        let any_tick = remaining.iter().any(|&r| r > 0);
        let mut outbox: Vec<(EdgeId, VertexId, OldMsg)> = Vec::new();
        let mut sent_any = false;
        for v in 0..n {
            let me = VertexId(v as u32);
            for (_, _, msg) in &inboxes[v] {
                acc[v] ^= msg.words[0].rotate_left((round % 63) as u32);
            }
            if remaining[v] > 0 {
                remaining[v] -= 1;
                let msg = OldMsg { tag: 9, words: vec![acc[v]] };
                for &(e, w) in g.neighbors(me) {
                    outbox.push((e, w, msg.clone()));
                }
            }
            if !outbox.is_empty() {
                sent_any = true;
                let mut per_edge: HashMap<EdgeId, u64> = HashMap::new();
                for (e, to, msg) in outbox.drain(..) {
                    let load = per_edge.entry(e).or_insert(0);
                    *load += msg.cost() as u64;
                    assert!(*load <= bandwidth);
                    pending[to.index()].push((e, me, msg));
                }
            }
        }
        if delivered == 0 && !sent_any && !any_tick {
            return (acc, rounds);
        }
        rounds += 1;
    }
    (acc, rounds)
}

fn bench_flood(c: &mut Criterion) {
    let mut group = c.benchmark_group("congest_rounds/flood");
    // The flood rows back the committed speedup claims; extra samples
    // tighten the mean against CI-container noise (±10-15%).
    group.sample_size(20);
    for n in FLOOD_SIZES {
        let g = instance(n);
        // Cross-check: the preserved old engine and the current one
        // must compute the same accumulators (they are the same
        // protocol), so the timing rows are comparable.
        let (ref_accs, ref_report) = flood::gossip_flood(&g, FLOOD_BURSTS);
        let (naive_accs, _) = naive_flood(&g, FLOOD_BURSTS);
        assert_eq!(ref_accs, naive_accs, "naive flood replica diverged at n = {n}");
        println!(
            "congest_rounds/flood/{n}: {} rounds, {} messages per iteration",
            ref_report.rounds, ref_report.messages
        );
        group.bench_with_input(BenchmarkId::new(format!("{n}"), "naive"), &g, |b, g| {
            b.iter(|| naive_flood(g, FLOOD_BURSTS))
        });
        group.bench_with_input(BenchmarkId::new(format!("{n}"), "seq"), &g, |b, g| {
            b.iter(|| flood::gossip_flood(g, FLOOD_BURSTS))
        });
    }
    group.finish();
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("congest_rounds/bfs");
    group.sample_size(10);
    for n in BFS_SIZES {
        let g = instance(n);
        let (_, report) = bfs::distributed_bfs(&g, VertexId(0));
        println!("congest_rounds/bfs/{n}: {} rounds per iteration", report.rounds);
        group.bench_with_input(BenchmarkId::new(format!("{n}"), "seq"), &g, |b, g| {
            b.iter(|| bfs::distributed_bfs(g, VertexId(0)))
        });
    }
    group.finish();
}

fn bench_boruvka(c: &mut Criterion) {
    let mut group = c.benchmark_group("congest_rounds/boruvka");
    // Long iterations (thousands of rounds): fewer samples keep the run
    // tractable without losing the regression signal.
    group.sample_size(5);
    for n in BORUVKA_SIZES {
        let g = gen::gnp_two_ec(n, 4.0 / n as f64, 1_000, 5);
        let (_, report) = boruvka::distributed_mst(&g);
        println!("congest_rounds/boruvka/{n}: {} rounds per iteration", report.rounds);
        group.bench_with_input(BenchmarkId::new(format!("{n}"), "seq"), &g, |b, g| {
            b.iter(|| boruvka::distributed_mst(g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flood, bench_bfs, bench_boruvka);

// Custom main instead of criterion_main!: after the run it dumps the
// measurements to BENCH_congest_rounds.json for the perf gate.
fn main() {
    let path = std::env::var("DECSS_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_congest_rounds.json").to_string()
    });
    let mut c = Criterion::default();
    benches(&mut c);
    decss_bench::benchjson::dump("congest_rounds", &c.measurements, &path);
}
