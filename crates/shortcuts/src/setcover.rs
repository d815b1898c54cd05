//! The parallel greedy set-cover driver for tree augmentation
//! (Section 5.1; after Berger–Rompel–Shor).
//!
//! Phases sweep the cost-effectiveness target `Δ` down by `(1+ε)`
//! factors; within a phase, sub-phases sweep the maximum multiplicity
//! `d` (how many candidate edges of the current bucket `A` cover a given
//! uncovered tree edge); each sub-phase runs `O(log n)` sampling
//! repetitions with `p = 1/(2d)`, accepting a sample iff it is *good*:
//! it covers at least `Δ/100` new tree edges per unit of weight. Any
//! algorithm that only ever adds good sets is an `O(log n)`-
//! approximation.
//!
//! Every repetition uses the two subroutines of Section 5.3, each one
//! shortcut pass — so the total round complexity is
//! `Õ(SC(G) + D)`.
//!
//! The driver is allocation-flat: candidate LCAs are computed once, and
//! every per-phase buffer (cover counts, bucket, sample, probe outputs)
//! is hoisted and reused through the [`ShortcutWorkspace`].
//!
//! # The sparse cover engine
//!
//! The hot loop used to be the per-repetition cover probe: a sampled
//! set of `O(1)`–`O(100)` candidate edges paid a full `O(n)`
//! fingerprint pass plus an `O(n)` marked sweep, some 1–2 thousand
//! times per solve. The driver now evaluates each repetition *sparsely*
//! on the virtual tree spanned by the sample's endpoints: the XOR of
//! the endpoint fingerprints is constant along each virtual-tree
//! segment, so the covered set is a union of whole segments; the number
//! of *newly* covered (marked) tree edges per segment comes from a
//! Fenwick tree over Euler-tour positions (marked vertices contribute
//! their subtree interval), and accepted samples clear their marked
//! vertices through path-compressed nearest-marked-ancestor pointers
//! instead of an `O(n)` sweep. The logical rounds charged, the RNG draw
//! order, and every produced bit are identical to the dense reference
//! ([`crate::naive::greedy_tap_reference`], pinned by tests); only the
//! local computation got cheaper — cover counts are additionally cached
//! while the marked set is unchanged, and the bucket's maximum load `d`
//! is evaluated on the same virtual-tree skeleton instead of a dense
//! probe plus `O(n)` scan, with the same rounds charged either way.

use crate::probes;
use crate::tools::ScTools;
use crate::workspace::ShortcutWorkspace;
use decss_congest::ledger::RoundLedger;
use decss_congest::protocols::convergecast::Agg;
use decss_graphs::{EdgeId, VertexId, Weight};
use decss_tree::{EulerTour, RootedTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the set-cover driver.
#[derive(Clone, Copy, Debug)]
pub struct SetCoverConfig {
    /// The `ε` of the phase/sub-phase bucketing.
    pub epsilon: f64,
    /// Sampling repetitions per sub-phase (`O(log n)`).
    pub reps: u32,
    /// RNG seed (the algorithm is randomized; Theorem 1.2).
    pub seed: u64,
}

impl Default for SetCoverConfig {
    fn default() -> Self {
        SetCoverConfig { epsilon: 0.25, reps: 24, seed: 0xC0FFEE }
    }
}

/// Result of the set-cover run.
#[derive(Clone, Debug)]
pub struct SetCoverResult {
    /// The chosen augmentation edges.
    pub chosen: Vec<EdgeId>,
    /// Total weight.
    pub weight: Weight,
    /// Sampling repetitions actually executed.
    pub repetitions: u32,
    /// Tree edges covered by the deterministic fallback sweep (0 in the
    /// overwhelmingly common case; the guarantee is probabilistic).
    pub fallbacks: u32,
}

/// Prefix-sum Fenwick update over the difference array `fen[1..]`.
#[inline]
fn fen_add(fen: &mut [i32], i: usize, delta: i32) {
    let mut i = i + 1;
    while i < fen.len() {
        fen[i] += delta;
        i += i & i.wrapping_neg();
    }
}

/// Prefix sum of the difference array over `[0..=i]`.
#[inline]
fn fen_query(fen: &[i32], i: usize) -> i32 {
    let mut i = i + 1;
    let mut s = 0;
    while i > 0 {
        s += fen[i];
        i -= i & i.wrapping_neg();
    }
    s
}

/// The sparse per-repetition cover evaluator.
///
/// Holds the Euler tour of the driver's tree, a Fenwick tree whose
/// point query at `pre(v)` is the number of *marked* vertices on the
/// root path of `v` (marked vertices contribute `+1` over their subtree
/// interval), path-compressed nearest-marked-ancestor pointers, and the
/// virtual-tree scratch reused across repetitions.
struct SparseCover {
    euler: EulerTour,
    fen: Vec<i32>,
    /// `up[v]`: a marked-or-root vertex at or above `v` (lazily
    /// compressed; `up[v] == v` means "not yet resolved").
    up: Vec<u32>,
    /// Per-vertex XOR of incident sample fingerprints (sparsely reset).
    acc: Vec<u64>,
    /// Per-vertex load contribution (`+1` per bucket endpoint, `−2` per
    /// bucket-path LCA; sparsely reset).
    accw: Vec<i64>,
    /// Vertices touched in `acc`/`accw` this call (duplicates kept).
    endpoints: Vec<u32>,
    /// Virtual-tree nodes, sorted by Euler preorder.
    nodes: Vec<VertexId>,
    /// Subtree-XOR accumulator per virtual-tree node.
    sval: Vec<u64>,
    /// Subtree-sum accumulator per virtual-tree node (load variant).
    wsval: Vec<i64>,
    stack: Vec<VertexId>,
    /// Virtual-tree edges `(parent, child, subtree XOR of child)`.
    vt: Vec<(VertexId, VertexId, u64)>,
    /// Compression scratch for `find_marked`.
    chain: Vec<u32>,
}

impl SparseCover {
    fn new(tree: &RootedTree, marked: &[bool]) -> Self {
        let n = tree.n();
        let euler = EulerTour::new(tree);
        // The tour's pre/post share one timer, so positions span
        // [0, 2n); x is in the subtree of v iff pre(v) ≤ pre(x) < post(v).
        let domain = 2 * n;
        let mut fen = vec![0i32; domain + 1];
        for (vi, &m) in marked.iter().enumerate() {
            if m {
                let v = VertexId(vi as u32);
                let lo = euler.pre(v) as usize;
                let hi = euler.post(v) as usize + 1;
                fen[lo + 1] += 1;
                if hi < domain {
                    fen[hi + 1] -= 1;
                }
            }
        }
        // In-place O(n) Fenwick build over the difference array.
        for i in 1..=domain {
            let j = i + (i & i.wrapping_neg());
            if j <= domain {
                fen[j] += fen[i];
            }
        }
        SparseCover {
            euler,
            fen,
            up: (0..n as u32).collect(),
            acc: vec![0; n],
            accw: vec![0; n],
            endpoints: Vec::new(),
            nodes: Vec::new(),
            sval: vec![0; n],
            wsval: vec![0; n],
            stack: Vec::new(),
            vt: Vec::new(),
            chain: Vec::new(),
        }
    }

    /// Records that `v` was unmarked (its subtree interval loses 1).
    fn on_clear(&mut self, v: VertexId) {
        let domain = self.fen.len() - 1;
        let lo = self.euler.pre(v) as usize;
        let hi = self.euler.post(v) as usize + 1;
        fen_add(&mut self.fen, lo, -1);
        if hi < domain {
            fen_add(&mut self.fen, hi, 1);
        }
    }

    /// Number of marked vertices on the root path of `v` (inclusive).
    #[inline]
    fn marked_on_root_path(&self, v: VertexId) -> i32 {
        fen_query(&self.fen, self.euler.pre(v) as usize)
    }

    /// The nearest marked ancestor-or-self of `v` (the root if none),
    /// with path compression over the `up` pointers.
    fn find_marked(&mut self, tree: &RootedTree, marked: &[bool], mut v: VertexId) -> VertexId {
        self.chain.clear();
        loop {
            if marked[v.index()] {
                break;
            }
            let Some(p) = tree.parent(v) else { break };
            self.chain.push(v.0);
            let u = self.up[v.index()];
            v = if u == v.0 { p } else { VertexId(u) };
        }
        for &w in &self.chain {
            self.up[w as usize] = v.0;
        }
        v
    }

    /// One sampling repetition, evaluated on the virtual tree of the
    /// sample's endpoints. Returns `(accepted, marked_changed)`.
    ///
    /// Consumes the RNG (one fingerprint per sample edge, in order) and
    /// charges the ledger (one descendants' XOR pass plus the
    /// broadcast) exactly like the dense probe; the acceptance decision
    /// and the resulting marked set are bit-identical to it — the XOR
    /// of the endpoint fingerprints is constant on each virtual-tree
    /// segment and zero off the skeleton, so even would-be fingerprint
    /// cancellations resolve identically.
    #[allow(clippy::too_many_arguments)]
    fn repetition(
        &mut self,
        tools: &ScTools<'_>,
        sample_edges: &[EdgeId],
        sample: &[u32],
        weights: &[f64],
        delta: f64,
        rng: &mut StdRng,
        ledger: &mut RoundLedger,
        marked: &mut [bool],
        marked_count: &mut usize,
    ) -> (bool, bool) {
        let tree = tools.tree;
        self.endpoints.clear();
        for &id in sample_edges {
            let fp: u64 = rng.gen::<u64>() | 1; // non-zero fingerprint
            let e = tools.graph.edge(id);
            self.acc[e.u.index()] ^= fp;
            self.acc[e.v.index()] ^= fp;
            self.endpoints.push(e.u.0);
            self.endpoints.push(e.v.0);
        }
        // Same logical rounds as the dense probe: one descendants' XOR
        // pass, then the acceptance broadcast.
        ledger.charge("sc.descendants-sum", tools.pass_cost());
        ledger.charge("sc.broadcast", 2 * tools.bfs_depth as u64);

        // Virtual tree over the endpoints plus the root, by preorder.
        self.nodes.clear();
        self.nodes.push(tree.root());
        self.nodes.extend(self.endpoints.iter().map(|&vi| VertexId(vi)));
        let euler = &self.euler;
        self.nodes.sort_unstable_by_key(|&v| euler.pre(v));
        self.nodes.dedup();
        self.stack.clear();
        self.vt.clear();
        let root = tree.root();
        self.sval[root.index()] = self.acc[root.index()];
        self.stack.push(root);
        for k in 1..self.nodes.len() {
            let u = self.nodes[k];
            let l = tools.lca(*self.stack.last().expect("stack holds the root"), u);
            while self.stack.len() >= 2
                && tree.depth(self.stack[self.stack.len() - 2]) >= tree.depth(l)
            {
                let c = self.stack.pop().expect("len checked");
                let p = *self.stack.last().expect("len checked");
                self.vt.push((p, c, self.sval[c.index()]));
                self.sval[p.index()] ^= self.sval[c.index()];
            }
            let top = *self.stack.last().expect("stack nonempty");
            if tree.depth(top) > tree.depth(l) {
                // `l` is a fresh branching vertex between the stack's
                // top two entries: splice it in.
                let c = self.stack.pop().expect("nonempty");
                self.sval[l.index()] = self.acc[l.index()];
                self.vt.push((l, c, self.sval[c.index()]));
                self.sval[l.index()] ^= self.sval[c.index()];
                self.stack.push(l);
            }
            self.sval[u.index()] = self.acc[u.index()];
            self.stack.push(u);
        }
        while self.stack.len() >= 2 {
            let c = self.stack.pop().expect("len checked");
            let p = *self.stack.last().expect("len checked");
            self.vt.push((p, c, self.sval[c.index()]));
            self.sval[p.index()] ^= self.sval[c.index()];
        }

        // newly = marked vertices on segments with non-zero subtree XOR.
        let mut newly = 0i32;
        for &(p, c, s) in &self.vt {
            if s != 0 {
                newly += self.marked_on_root_path(c) - self.marked_on_root_path(p);
            }
        }
        let newly = newly as u32;
        let sample_weight: f64 = sample.iter().map(|&i| weights[i as usize]).sum();
        let accepted = (newly as f64) >= delta / 100.0 * sample_weight;
        if accepted && newly > 0 {
            for idx in 0..self.vt.len() {
                let (p, c, s) = self.vt[idx];
                if s == 0 {
                    continue;
                }
                let stop = tree.depth(p);
                let mut x = self.find_marked(tree, marked, c);
                while tree.depth(x) > stop {
                    marked[x.index()] = false;
                    *marked_count -= 1;
                    self.on_clear(x);
                    let px = tree.parent(x).expect("deeper than an ancestor");
                    x = self.find_marked(tree, marked, px);
                }
            }
        }
        for &vi in &self.endpoints {
            self.acc[vi as usize] = 0;
        }
        (accepted, accepted && newly > 0)
    }

    /// Maximum load `d` of the `bucket` candidates over the marked tree
    /// edges, evaluated on the virtual tree of the bucket's endpoints
    /// and path LCAs.
    ///
    /// The load of a vertex (bucket paths through its parent edge) is
    /// the subtree sum of `+1` per endpoint and `−2` per LCA. That sum
    /// is constant along each virtual-tree segment and zero off the
    /// skeleton, so the maximum over marked vertices is the maximum
    /// segment value among segments holding a marked vertex (a Fenwick
    /// range count). Charges the dense load probe's two descendants'
    /// passes; consumes no RNG; returns exactly the dense maximum.
    fn bucket_d(
        &mut self,
        tools: &ScTools<'_>,
        candidates: &[EdgeId],
        cand_lca: &[VertexId],
        bucket: &[u32],
        ledger: &mut RoundLedger,
    ) -> u32 {
        let tree = tools.tree;
        self.endpoints.clear();
        for &i in bucket {
            let e = tools.graph.edge(candidates[i as usize]);
            let l = cand_lca[i as usize];
            self.accw[e.u.index()] += 1;
            self.accw[e.v.index()] += 1;
            self.accw[l.index()] -= 2;
            self.endpoints.push(e.u.0);
            self.endpoints.push(e.v.0);
            self.endpoints.push(l.0);
        }
        ledger.charge("sc.descendants-sum", tools.pass_cost());
        ledger.charge("sc.descendants-sum", tools.pass_cost());

        self.nodes.clear();
        self.nodes.push(tree.root());
        self.nodes.extend(self.endpoints.iter().map(|&vi| VertexId(vi)));
        let euler = &self.euler;
        self.nodes.sort_unstable_by_key(|&v| euler.pre(v));
        self.nodes.dedup();
        self.stack.clear();
        let root = tree.root();
        self.wsval[root.index()] = self.accw[root.index()];
        self.stack.push(root);
        let mut d = 0i64;
        for k in 1..self.nodes.len() {
            let u = self.nodes[k];
            let l = tools.lca(*self.stack.last().expect("stack holds the root"), u);
            while self.stack.len() >= 2
                && tree.depth(self.stack[self.stack.len() - 2]) >= tree.depth(l)
            {
                let c = self.stack.pop().expect("len checked");
                let p = *self.stack.last().expect("len checked");
                let s = self.wsval[c.index()];
                if s > d && self.marked_on_root_path(c) > self.marked_on_root_path(p) {
                    d = s;
                }
                self.wsval[p.index()] += s;
            }
            let top = *self.stack.last().expect("stack nonempty");
            if tree.depth(top) > tree.depth(l) {
                let c = self.stack.pop().expect("nonempty");
                self.wsval[l.index()] = self.accw[l.index()];
                let s = self.wsval[c.index()];
                if s > d && self.marked_on_root_path(c) > self.marked_on_root_path(l) {
                    d = s;
                }
                self.wsval[l.index()] += s;
                self.stack.push(l);
            }
            self.wsval[u.index()] = self.accw[u.index()];
            self.stack.push(u);
        }
        while self.stack.len() >= 2 {
            let c = self.stack.pop().expect("len checked");
            let p = *self.stack.last().expect("len checked");
            let s = self.wsval[c.index()];
            if s > d && self.marked_on_root_path(c) > self.marked_on_root_path(p) {
                d = s;
            }
            self.wsval[p.index()] += s;
        }
        for &vi in &self.endpoints {
            self.accw[vi as usize] = 0;
        }
        d as u32
    }
}

/// Cover counts (and cost-effectiveness ratios) for the `active`
/// candidates under the current `marked` set: the ancestors' sum of
/// [`probes::marked_cover_counts_into`] plus the same per-candidate
/// `M_u + M_v − 2·M_lca` map, restricted to the candidates that can
/// still enter a bucket.
#[allow(clippy::too_many_arguments)]
fn counts_over_active(
    tools: &ScTools<'_>,
    candidates: &[EdgeId],
    lcas: &[VertexId],
    marked: &[bool],
    active: &[u32],
    weights: &[f64],
    ledger: &mut RoundLedger,
    ws: &mut ShortcutWorkspace,
    counts: &mut [u32],
    ce: &mut [f64],
) {
    let n = tools.tree.n();
    let ShortcutWorkspace { val_a, val_b, .. } = ws;
    val_a.clear();
    val_a.extend((0..n).map(|vi| u64::from(marked[vi])));
    tools.ancestors_sum_into(val_a, Agg::Sum, ledger, val_b);
    let sums: &[u64] = val_b;
    for &i in active {
        let i = i as usize;
        let e = tools.graph.edge(candidates[i]);
        let c = (sums[e.u.index()] + sums[e.v.index()] - 2 * sums[lcas[i].index()]) as u32;
        counts[i] = c;
        ce[i] = c as f64 / weights[i].max(1.0);
    }
}

/// Runs the parallel greedy cover: returns `None` if some tree edge is
/// uncoverable (graph not 2-edge-connected). `ws` provides the flat
/// scratch every probe pass runs on.
///
/// The chosen edges, weight, repetition and fallback counts are
/// bit-identical to the dense reference driver
/// ([`crate::naive::greedy_tap_reference`]).
pub fn parallel_greedy_tap(
    tools: &ScTools<'_>,
    config: &SetCoverConfig,
    ledger: &mut RoundLedger,
    ws: &mut ShortcutWorkspace,
) -> Option<SetCoverResult> {
    let g = tools.graph;
    let tree = tools.tree;
    ws.ensure(g);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let candidates: Vec<EdgeId> = g.edge_ids().filter(|&e| !tree.is_tree_edge(e)).collect();
    let weights: Vec<f64> = candidates.iter().map(|&e| g.weight(e) as f64).collect();
    // Candidate LCAs depend only on the tree: compute them once instead
    // of re-deriving them from the heavy-light labels every phase.
    let cand_lca: Vec<VertexId> = probes::candidate_lcas(tools, &candidates);

    tools.charge_hld_setup(ledger);

    let n = tree.n();
    // marked[v] = tree edge above v still uncovered.
    let mut marked: Vec<bool> =
        (0..n).map(|vi| tree.parent(VertexId(vi as u32)).is_some()).collect();
    let mut marked_count: usize = marked.iter().filter(|&&m| m).count();
    let mut chosen_mask = vec![false; candidates.len()];
    let mut repetitions = 0u32;

    // Reused across phases and repetitions (allocation-free inner loop).
    let mut covered: Vec<bool> = Vec::new();
    let mut counts: Vec<u32> = vec![0; candidates.len()];
    let mut ce: Vec<f64> = vec![0.0; candidates.len()];
    let mut loads: Vec<u32> = Vec::new();
    let mut bucket: Vec<u32> = Vec::new();
    let mut bucket_edges: Vec<EdgeId> = Vec::new();
    let mut bucket_lcas: Vec<VertexId> = Vec::new();
    let mut sample: Vec<u32> = Vec::new();
    let mut sample_edges: Vec<EdgeId> = Vec::new();

    // Feasibility check: every tree edge covered by some candidate.
    {
        probes::covered_mask_into(tools, &candidates, &mut rng, ledger, ws, &mut covered);
        if (0..n).any(|vi| marked[vi] && !covered[vi]) {
            return None;
        }
    }

    let mut cover = SparseCover::new(tree, &marked);
    // Cover counts depend only on the marked set: valid until a sample
    // is accepted. The candidates that can still enter a bucket only
    // shrink (counts are monotone under unmarking, chosen is final), so
    // `active` prunes permanently.
    let mut counts_fresh = false;
    let mut active: Vec<u32> = (0..candidates.len() as u32).collect();

    let eps = config.epsilon;
    let nf = n as f64;
    let w_max = g.max_weight().max(1) as f64;
    // Cost-effectiveness range: at most n covered per unit weight, at
    // least 1/w_max.
    let mut delta = nf;
    let delta_min = 1.0 / w_max;

    while delta >= delta_min / (1.0 + eps) {
        loop {
            if marked_count == 0 {
                break;
            }
            // A: candidates with cost-effectiveness >= delta (1 - eps).
            if counts_fresh {
                // Unchanged marked set ⇒ unchanged counts; the logical
                // pass is still executed, so its rounds are charged.
                ledger.charge("sc.ancestors-sum", tools.pass_cost());
            } else {
                counts_over_active(
                    tools,
                    &candidates,
                    &cand_lca,
                    &marked,
                    &active,
                    &weights,
                    ledger,
                    ws,
                    &mut counts,
                    &mut ce,
                );
                active.retain(|&i| counts[i as usize] > 0 && !chosen_mask[i as usize]);
                counts_fresh = true;
            }
            ledger.charge("sc.broadcast", 2 * tools.bfs_depth as u64);
            bucket.clear();
            let threshold = delta * (1.0 - eps);
            bucket.extend(active.iter().copied().filter(|&i| {
                let i = i as usize;
                !chosen_mask[i] && counts[i] > 0 && ce[i] >= threshold
            }));
            if bucket.is_empty() {
                break;
            }
            // d: maximum multiplicity of bucket edges over marked tree
            // edges. Small buckets go through the sparse virtual-tree
            // evaluator; huge ones fall back to the dense load probe
            // plus marked scan. Same rounds charged, same d either way.
            let d = if bucket.len() * 8 <= n {
                cover.bucket_d(tools, &candidates, &cand_lca, &bucket, ledger).max(1)
            } else {
                bucket_edges.clear();
                bucket_lcas.clear();
                for &i in &bucket {
                    bucket_edges.push(candidates[i as usize]);
                    bucket_lcas.push(cand_lca[i as usize]);
                }
                probes::path_load_into(tools, &bucket_edges, &bucket_lcas, ledger, ws, &mut loads);
                (0..n)
                    .filter(|&vi| marked[vi])
                    .map(|vi| loads[vi])
                    .max()
                    .unwrap_or(0)
                    .max(1)
            };

            let p = 1.0 / (2.0 * d as f64);
            let mut progressed = false;
            for _ in 0..config.reps {
                repetitions += 1;
                sample.clear();
                sample.extend(bucket.iter().copied().filter(|_| rng.gen_bool(p)));
                if sample.is_empty() {
                    continue;
                }
                sample_edges.clear();
                sample_edges.extend(sample.iter().map(|&i| candidates[i as usize]));
                // Goodness test: Δ/100 new covers per unit weight.
                // Small samples go through the sparse virtual-tree
                // evaluator; huge ones fall back to the dense probe.
                // Identical RNG draws, rounds, and outcome either way.
                let (accepted, marked_changed) = if sample_edges.len() * 8 <= n {
                    cover.repetition(
                        tools,
                        &sample_edges,
                        &sample,
                        &weights,
                        delta,
                        &mut rng,
                        ledger,
                        &mut marked,
                        &mut marked_count,
                    )
                } else {
                    probes::covered_mask_into(
                        tools,
                        &sample_edges,
                        &mut rng,
                        ledger,
                        ws,
                        &mut covered,
                    );
                    ledger.charge("sc.broadcast", 2 * tools.bfs_depth as u64);
                    let newly: u32 = (0..n).filter(|&vi| marked[vi] && covered[vi]).count() as u32;
                    let sample_weight: f64 = sample.iter().map(|&i| weights[i as usize]).sum();
                    if (newly as f64) >= delta / 100.0 * sample_weight {
                        for vi in 0..n {
                            if covered[vi] && marked[vi] {
                                marked[vi] = false;
                                marked_count -= 1;
                                cover.on_clear(VertexId(vi as u32));
                            }
                        }
                        (true, newly > 0)
                    } else {
                        (false, false)
                    }
                };
                if accepted {
                    for &i in &sample {
                        chosen_mask[i as usize] = true;
                    }
                    progressed = true;
                    if marked_changed {
                        counts_fresh = false;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        delta /= 1.0 + eps;
    }

    // Deterministic fallback for anything the sampling left uncovered
    // (keeps the output always feasible; counted for the experiments).
    // Each fallback costs one aggregate pass: the marked edge asks for
    // the cheapest covering candidate — the same min-aggregate pattern
    // as the first algorithm's forward phase.
    let mut fallbacks = 0u32;
    if marked_count > 0 {
        let lca_oracle = decss_tree::LcaOracle::new(tree);
        let covers = |id: EdgeId, v: VertexId| -> bool {
            let e = g.edge(id);
            let w = lca_oracle.lca(e.u, e.v);
            (lca_oracle.is_ancestor(v, e.u) || lca_oracle.is_ancestor(v, e.v))
                && lca_oracle.is_proper_ancestor(w, v)
        };
        for vi in 0..n {
            if !marked[vi] {
                continue;
            }
            let v = VertexId(vi as u32);
            ledger.charge("sc.fallback", tools.pass_cost());
            let (_, i) = candidates
                .iter()
                .enumerate()
                .filter(|&(_, &id)| covers(id, v))
                .map(|(i, &id)| (g.weight(id), i))
                .min()
                .expect("feasibility was checked upfront");
            chosen_mask[i] = true;
            fallbacks += 1;
            for x in 0..n {
                if marked[x] && covers(candidates[i], VertexId(x as u32)) {
                    marked[x] = false;
                }
            }
        }
    }

    let chosen: Vec<EdgeId> = (0..candidates.len())
        .filter(|&i| chosen_mask[i])
        .map(|i| candidates[i])
        .collect();
    let weight = g.weight_of(chosen.iter().copied());
    Some(SetCoverResult { chosen, weight, repetitions, fallbacks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decss_graphs::{algo, gen};
    use decss_tree::RootedTree;

    #[test]
    fn cover_is_complete_across_seeds() {
        for seed in 0..5 {
            let g = gen::sparse_two_ec(40, 30, 30, seed);
            let tree = RootedTree::mst(&g);
            let tools = ScTools::new(&g, &tree);
            let mut ledger = RoundLedger::new();
            let mut ws = ShortcutWorkspace::new(&g);
            let config = SetCoverConfig { seed, ..SetCoverConfig::default() };
            let res = parallel_greedy_tap(&tools, &config, &mut ledger, &mut ws).unwrap();
            let tree_edges = g.edge_ids().filter(|&e| tree.is_tree_edge(e));
            let all: Vec<EdgeId> = tree_edges.chain(res.chosen.iter().copied()).collect();
            assert!(algo::two_edge_connected_in(&g, all), "seed {seed}: incomplete cover");
            assert!(res.repetitions > 0);
            assert!(ledger.total_rounds() > 0);
        }
    }

    #[test]
    fn quality_is_within_log_factor_of_exact_on_small_instances() {
        for seed in 0..4 {
            let g = gen::sparse_two_ec(14, 10, 20, seed);
            let tree = RootedTree::mst(&g);
            let tools = ScTools::new(&g, &tree);
            let mut ledger = RoundLedger::new();
            let mut ws = ShortcutWorkspace::new(&g);
            let res = parallel_greedy_tap(&tools, &SetCoverConfig::default(), &mut ledger, &mut ws)
                .unwrap();
            let (_, exact) = decss_baselines::exact_tap(&g, &tree).unwrap();
            // O(log n) with the 100-slack constant of the goodness test:
            // generous but meaningful bound for the test.
            let factor = 100.0 * ((tree.n() as f64).ln() + 1.0);
            assert!(
                (res.weight as f64) <= factor * exact as f64,
                "seed {seed}: {} vs exact {exact}",
                res.weight
            );
        }
    }

    /// The sparse engine against the preserved dense driver: same
    /// chosen edges, same counters, same ledger — across families,
    /// sizes large enough to exercise the virtual-tree path, and seeds.
    mod driver_equivalence {
        use super::*;
        use crate::naive::greedy_tap_reference;

        fn assert_matches_reference(g: &decss_graphs::Graph, seed: u64) {
            let tree = RootedTree::mst(g);
            let tools = ScTools::new(g, &tree);
            let config = SetCoverConfig { seed, ..SetCoverConfig::default() };
            let mut ledger_new = RoundLedger::new();
            let mut ws_new = ShortcutWorkspace::new(g);
            let new = parallel_greedy_tap(&tools, &config, &mut ledger_new, &mut ws_new).unwrap();
            let mut ledger_ref = RoundLedger::new();
            let mut ws_ref = ShortcutWorkspace::new(g);
            let reference =
                greedy_tap_reference(&tools, &config, &mut ledger_ref, &mut ws_ref).unwrap();
            assert_eq!(new.chosen, reference.chosen, "seed {seed}");
            assert_eq!(new.weight, reference.weight, "seed {seed}");
            assert_eq!(new.repetitions, reference.repetitions, "seed {seed}");
            assert_eq!(new.fallbacks, reference.fallbacks, "seed {seed}");
            assert_eq!(
                ledger_new.breakdown().collect::<Vec<_>>(),
                ledger_ref.breakdown().collect::<Vec<_>>(),
                "seed {seed}"
            );
            assert_eq!(ledger_new.total_rounds(), ledger_ref.total_rounds(), "seed {seed}");
        }

        #[test]
        fn matches_on_sparse_instances() {
            for seed in 0..6 {
                assert_matches_reference(&gen::sparse_two_ec(60, 45, 24, seed), seed);
            }
        }

        #[test]
        fn matches_on_structured_families() {
            assert_matches_reference(&gen::grid(20, 20, 24, 11), 3);
            assert_matches_reference(&gen::hard_sqrt_two_ec(400, 24, 12), 5);
            assert_matches_reference(&gen::outerplanar_disk(300, 1.0, 24, 13), 7);
            assert_matches_reference(&gen::gnp_two_ec(200, 0.04, 24, 14), 9);
            assert_matches_reference(&gen::ladder(150, 24, 15), 11);
        }

        #[test]
        fn matches_when_fallbacks_fire() {
            // Tiny instances with few candidates push work into the
            // deterministic fallback sweep on some seeds.
            for seed in 0..8 {
                assert_matches_reference(&gen::sparse_two_ec(12, 4, 24, seed), seed);
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Whatever the instance and seed, the output augments the
            /// MST to 2-edge-connectivity.
            #[test]
            fn cover_is_always_complete(
                n in 10usize..36,
                extra in 4usize..24,
                seed in 0u64..500,
            ) {
                let g = gen::sparse_two_ec(n, extra, 24, seed);
                let tree = RootedTree::mst(&g);
                let tools = ScTools::new(&g, &tree);
                let mut ledger = RoundLedger::new();
                let mut ws = ShortcutWorkspace::new(&g);
                let config = SetCoverConfig { seed, ..SetCoverConfig::default() };
                let res =
                    parallel_greedy_tap(&tools, &config, &mut ledger, &mut ws).unwrap();
                let tree_edges = g.edge_ids().filter(|&e| tree.is_tree_edge(e));
                let all: Vec<EdgeId> =
                    tree_edges.chain(res.chosen.iter().copied()).collect();
                prop_assert!(algo::two_edge_connected_in(&g, all));
                prop_assert_eq!(res.weight, g.weight_of(res.chosen.iter().copied()));
            }

            /// The sparse engine is bit-identical to the dense
            /// reference on arbitrary instances and seeds.
            #[test]
            fn driver_matches_reference(
                n in 10usize..80,
                extra in 4usize..40,
                seed in 0u64..500,
            ) {
                let g = gen::sparse_two_ec(n, extra, 24, seed);
                let tree = RootedTree::mst(&g);
                let tools = ScTools::new(&g, &tree);
                let config = SetCoverConfig { seed, ..SetCoverConfig::default() };
                let mut ledger_new = RoundLedger::new();
                let mut ws_new = ShortcutWorkspace::new(&g);
                let new = parallel_greedy_tap(&tools, &config, &mut ledger_new, &mut ws_new)
                    .unwrap();
                let mut ledger_ref = RoundLedger::new();
                let mut ws_ref = ShortcutWorkspace::new(&g);
                let reference = crate::naive::greedy_tap_reference(
                    &tools, &config, &mut ledger_ref, &mut ws_ref,
                ).unwrap();
                prop_assert_eq!(new.chosen, reference.chosen);
                prop_assert_eq!(new.weight, reference.weight);
                prop_assert_eq!(new.repetitions, reference.repetitions);
                prop_assert_eq!(new.fallbacks, reference.fallbacks);
                prop_assert_eq!(
                    ledger_new.breakdown().collect::<Vec<_>>(),
                    ledger_ref.breakdown().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn infeasible_graph_returns_none() {
        let g = decss_graphs::Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 2, 5)])
            .unwrap();
        let tree =
            RootedTree::new(&g, decss_graphs::VertexId(0), &[EdgeId(0), EdgeId(1), EdgeId(2)]);
        let tools = ScTools::new(&g, &tree);
        let mut ledger = RoundLedger::new();
        let mut ws = ShortcutWorkspace::new(&g);
        assert!(
            parallel_greedy_tap(&tools, &SetCoverConfig::default(), &mut ledger, &mut ws).is_none()
        );
    }
}
