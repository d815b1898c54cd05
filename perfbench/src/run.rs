//! One run of one workload on an in-process `SolveService`: repeated
//! set-up, the timed closed loop, the correctness gate, and the
//! metrics. The HTTP workload lives in `serve.rs` and shares the
//! helpers here.

use crate::layers;
use crate::measure::{self, digest, mean, median, ms_since, Latency};
use crate::trace::Tracer;
use crate::workloads::{self, Job, Workload, CHAIN_STEPS};
use decss_graphs::fingerprint::graph_fingerprint;
use decss_graphs::{algo, Graph};
use decss_service::{EventKind, LogEvent, ServiceConfig, SolveService, Stats};
use decss_solver::{DynamicInstance, SolveError, SolveReport, SolveRequest, SolverSession};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A named value with its unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; any one fails the run.
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Human-readable lines for stderr.
    pub notes: Vec<String>,
}

/// Solve workers, and closed-loop clients, per workload: the machine's
/// cores, capped at two so the offered load is the same on any host.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get()).min(2)
}

/// What the timed phase measured.
pub struct Phase<T> {
    pub start: Instant,
    pub out: Vec<T>,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    pub rss_mb: f64,
}

/// A closed loop: `clients` threads each keep one request in flight
/// and send the next only after the previous answer, until `seconds`
/// have passed; requests in flight then finish. Request `k` (a global
/// counter) is `f(&mut state, k)`, with one `state` per client.
pub fn timed<C, T: Send>(
    clients: usize,
    seconds: f64,
    init: impl Fn(usize) -> C + Sync,
    f: impl Fn(&mut C, u64) -> T + Sync,
) -> Phase<T> {
    let next = AtomicU64::new(0);
    let cpu0 = measure::process_cpu_s();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (next, init, f) = (&next, &init, &f);
                scope.spawn(move || {
                    let mut state = init(c);
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        out.push(f(&mut state, next.fetch_add(1, Ordering::Relaxed)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    Phase {
        start,
        out,
        elapsed_s,
        cpu_s: measure::process_cpu_s() - cpu0,
        rss_mb: measure::peak_rss_mb(),
    }
}

/// Job counts of the timed phase.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    /// OK within the workload's latency limit.
    pub good: u64,
    /// Per request, in ms.
    pub latencies: Vec<f64>,
    /// Per request: when it completed (s into the phase) and its OK jobs.
    pub completions: Vec<(f64, u64)>,
}

impl Tally {
    pub fn request(
        &mut self,
        start: Instant,
        end: Instant,
        phase_start: Instant,
        jobs: u64,
        ok: u64,
        limit_ms: f64,
    ) {
        let latency_ms = (end - start).as_secs_f64() * 1e3;
        self.attempted += jobs;
        self.ok += ok;
        if latency_ms <= limit_ms {
            self.good += ok;
        }
        self.latencies.push(latency_ms);
        self.completions.push(((end - phase_start).as_secs_f64(), ok));
    }

    /// OK jobs per second, as the median over consecutive windows of
    /// `window` completed requests (one window is about one slice of the
    /// workload's cycle, so every window holds the same mix). A burst of
    /// contention from elsewhere slows one or two windows and leaves
    /// the median alone; a run too short for two windows reports the
    /// plain rate.
    pub fn jobs_per_s(&self, window: usize, elapsed_s: f64) -> f64 {
        let mut done = self.completions.clone();
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        let rates: Vec<f64> = done
            .chunks_exact(window)
            .scan(0.0, |since, w| {
                let end = w[w.len() - 1].0;
                let rate = w.iter().map(|c| c.1).sum::<u64>() as f64 / (end - *since);
                *since = end;
                Some(rate)
            })
            .collect();
        if rates.len() < 2 {
            return self.ok as f64 / elapsed_s;
        }
        median(&rates)
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. `window` is the
/// request count of one throughput window (see [`Tally::jobs_per_s`]).
pub fn end_to_end<T>(
    setup_s: &[f64],
    phase: &Phase<T>,
    tally: &Tally,
    window: usize,
    refs: &[SolveReport],
) -> (Metrics, Latency) {
    let lat = measure::summarize(&tally.latencies);
    let ratios: Vec<f64> = refs.iter().map(SolveReport::certified_ratio).collect();
    let rounds: Vec<f64> = refs.iter().filter_map(|r| r.rounds).map(|r| r as f64).collect();
    let attempted = tally.attempted.max(1) as f64;
    let metrics = vec![
        ("setup_s", median(setup_s), "s"),
        ("jobs_per_s", tally.jobs_per_s(window, phase.elapsed_s), "1/s"),
        ("latency_p50_ms", lat.p50, "ms"),
        ("latency_tail_ms", lat.tail, "ms"),
        ("ok_ratio", tally.ok as f64 / attempted, "ratio"),
        ("goodput_share", tally.good as f64 / attempted, "ratio"),
        ("cpu_ms_per_job", phase.cpu_s * 1e3 / attempted, "ms"),
        ("peak_rss_mb", phase.rss_mb, "MiB"),
        ("certified_ratio_mean", mean(&ratios), "ratio"),
        ("rounds_mean", mean(&rounds), "rounds"),
    ];
    (metrics, lat)
}

/// The report with its one nondeterministic field cleared, rendered
/// with every field: what "byte-identical" compares.
pub fn normalized(report: &SolveReport) -> String {
    format!("{:?}", SolveReport { wall_ms: 0.0, ..report.clone() })
}

/// [`normalized`] as a hash, computed without copying the edge list.
fn report_digest(mut report: SolveReport) -> (u64, SolveReport) {
    let edges = std::mem::take(&mut report.edges);
    let wall_ms = std::mem::take(&mut report.wall_ms);
    let d = digest((format!("{report:?}"), &edges));
    report.edges = edges;
    report.wall_ms = wall_ms;
    (d, report)
}

fn reference_digest(report: &SolveReport) -> u64 {
    report_digest(SolveReport { wall_ms: 0.0, ..report.clone() }).0
}

/// The per-answer checks: the returned edges are a 2-edge-connected
/// spanning subgraph of `g` (the benchmark's own copy), their weight is
/// the reported weight, and the certified ratio is within the
/// guarantee wherever the report states one.
pub fn check_report(g: &Graph, r: &SolveReport) -> Result<(), String> {
    if !r.valid {
        return Err("report says invalid".into());
    }
    if !algo::two_edge_connected_in(g, r.edges.iter().copied()) {
        return Err("returned edges are not a 2-edge-connected spanning subgraph".into());
    }
    let weight = g.weight_of(r.edges.iter().copied());
    if weight != r.weight {
        return Err(format!("recomputed weight {weight} != reported {}", r.weight));
    }
    if let Some(guarantee) = r.guarantee {
        if r.certified_ratio() > guarantee {
            return Err(format!(
                "certified ratio {} exceeds the guarantee {guarantee}",
                r.certified_ratio()
            ));
        }
    }
    Ok(())
}

/// Fresh single-threaded `SolverSession` solves of `jobs`, spread over
/// `threads` threads, in job order.
pub fn fresh_solves(
    jobs: &[(Arc<Graph>, SolveRequest)],
    threads: usize,
) -> Vec<Result<SolveReport, SolveError>> {
    let next = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<Result<SolveReport, SolveError>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some((g, req)) = jobs.get(i) else { break };
                *slots[i].lock().expect("slot lock") = Some(SolverSession::new().solve(g, req));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("every job solved"))
        .collect()
}

/// Per-job queue wait and run time (ms) from the service log, for jobs
/// numbered from `first`.
pub fn log_times(events: &[LogEvent], first: u64) -> (Vec<f64>, Vec<f64>) {
    let mut at: HashMap<u64, [Option<u64>; 3]> = HashMap::new();
    for e in events.iter().filter(|e| e.job.0 >= first) {
        let slot = match e.kind {
            EventKind::Submitted => 0,
            EventKind::Started { .. } => 1,
            EventKind::Finished { .. } => 2,
        };
        at.entry(e.job.0).or_default()[slot] = Some(e.at_us);
    }
    let mut wait = Vec::new();
    let mut run = Vec::new();
    for t in at.values() {
        if let [Some(s), Some(b), Some(f)] = *t {
            wait.push((b - s) as f64 / 1e3);
            run.push((f - b) as f64 / 1e3);
        }
    }
    (wait, run)
}

/// Hit ratio of the lookups between two stats snapshots.
pub fn hit_ratio(before: &Stats, after: &Stats) -> f64 {
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    hits as f64 / lookups.max(1) as f64
}

// ---------------------------------------------------------------------
// The service workloads: solve-shortcut, solve-improved, delta-stream.

/// A service workload's inputs after set-up.
struct Inputs {
    /// Distinct jobs in cycle order; request `k` sends `jobs[k % len]`.
    jobs: Vec<Job>,
    /// The graph each job's answer lives on (the mutated graph for a
    /// delta job).
    answers_on: Vec<Arc<Graph>>,
    chains: Vec<workloads::Chain>,
}

fn inputs(w: Workload, seed: u64) -> (Inputs, Vec<Job>) {
    let par = parallelism();
    match w {
        Workload::DeltaStream => {
            let chains = workloads::delta_chains(seed);
            let mut jobs = Vec::new();
            let mut answers_on = Vec::new();
            for s in 0..CHAIN_STEPS {
                for chain in &chains {
                    jobs.push(chain.request(s));
                    answers_on.push(Arc::clone(&chain.states[s + 1]));
                }
            }
            let warmup = chains.iter().map(workloads::Chain::warmup).collect();
            (Inputs { jobs, answers_on, chains }, warmup)
        }
        _ => {
            let jobs = workloads::solve_jobs(w, seed);
            let answers_on = jobs.iter().map(|j| Arc::clone(&j.graph)).collect();
            (
                Inputs { jobs, answers_on, chains: Vec::new() },
                workloads::solve_warmup(w, seed, 2 * par),
            )
        }
    }
}

/// One answer of the timed phase.
struct Answer {
    j: usize,
    start: Instant,
    end: Instant,
    /// The answer's digest (see [`report_digest`]), or the error.
    result: Result<u64, String>,
}

pub fn run_service(o: &Opts) -> Result<Outcome, String> {
    let w = o.workload;
    let par = parallelism();
    // delta-stream: one worker holds the retained instances, one client.
    let (workers, clients) = if w == Workload::DeltaStream {
        (1, 1)
    } else {
        (par, par)
    };
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        let (inputs, warmup) = inputs(w, o.seed);
        // The cache is off: the cycle repeats jobs, and every one of
        // them must be solved.
        let service =
            SolveService::new(ServiceConfig::default().workers(workers).cache_capacity(0));
        let ids =
            service.submit_batch(warmup.iter().map(|j| (Arc::clone(&j.graph), j.req.clone())));
        for result in service.join_all(&ids) {
            result.map_err(|e| format!("warm-up job failed: {e}"))?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((inputs, service));
    }
    let (inputs, service) = state.expect("at least one set-up");
    let first_timed = service.stats().submitted;
    let tracer = o.trace.then(Tracer::new);
    let n_jobs = inputs.jobs.len();
    let firsts: Vec<Mutex<Option<SolveReport>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();

    let phase = timed(
        clients,
        o.seconds,
        |_| (),
        |_, k| {
            let j = k as usize % n_jobs;
            let job = &inputs.jobs[j];
            let start = Instant::now();
            let id = service.submit(Arc::clone(&job.graph), job.req.clone());
            let result = service.join(id);
            let end = Instant::now();
            if let Some(tr) = &tracer {
                tr.record("service.request", k, start, end);
            }
            let result = result.map_err(|e| e.to_string()).map(|outcome| {
                let (d, report) = report_digest(outcome.report);
                firsts[j].lock().expect("first lock").get_or_insert(report);
                d
            });
            Answer { j, start, end, result }
        },
    );
    let stats = service.stats();
    let events = service.log().snapshot();
    drop(service);

    // The correctness gate, outside set-up and the timed phase.
    let mut errors = Vec::new();
    let mut tally = Tally::default();
    let limit = w.latency_limit_ms();
    for a in &phase.out {
        tally.request(a.start, a.end, phase.start, 1, u64::from(a.result.is_ok()), limit);
    }
    let mut per_layer = BTreeMap::new();
    let refs: Vec<SolveReport> = if w != Workload::DeltaStream && o.trace {
        let tr = tracer.as_ref().expect("traced run");
        decompose_solves(w, o.seed, &inputs.jobs, tr, &mut per_layer, &mut errors)
    } else {
        let pairs: Vec<_> = inputs
            .jobs
            .iter()
            .map(|j| (Arc::clone(&j.graph), j.req.clone()))
            .collect();
        fresh_solves(&pairs, par)
            .into_iter()
            .enumerate()
            .filter_map(|(j, r)| {
                r.map_err(|e| errors.push(format!("reference solve of job {j} failed: {e}")))
                    .ok()
            })
            .collect()
    };
    if refs.len() == n_jobs {
        for (j, reference) in refs.iter().enumerate() {
            if let Err(e) = check_report(&inputs.answers_on[j], reference) {
                errors.push(format!("job {j} reference: {e}"));
            }
            if let Some(first) = firsts[j].lock().expect("first lock").as_ref() {
                if let Err(e) = check_report(&inputs.answers_on[j], first) {
                    errors.push(format!("job {j}: {e}"));
                }
                if normalized(first) != normalized(reference) {
                    errors
                        .push(format!("job {j}: the service's report differs from a fresh solve"));
                }
            }
        }
        let want: Vec<u64> = refs.iter().map(reference_digest).collect();
        // A failed job counts against ok_ratio; it is not a wrong answer.
        for a in &phase.out {
            if matches!(a.result, Ok(d) if d != want[a.j]) {
                errors.push(format!("job {}: a repeated answer differs from the reference", a.j));
            }
        }
    }

    // Throughput windows: half a solve cycle (every family and size
    // twice over), one delta cycle.
    let window = if w == Workload::DeltaStream {
        n_jobs
    } else {
        n_jobs / 2
    };
    let (mut metrics, lat) = end_to_end(&setup_s, &phase, &tally, window, &refs);
    let mut notes = vec![format!(
        "{} seed {}: {} requests in {:.2} s, {} distinct jobs, {} workers, {} clients, tail = p{} of {} samples, setup reps {:?}",
        w.name(),
        o.seed,
        tally.attempted,
        phase.elapsed_s,
        n_jobs,
        workers,
        clients,
        lat.tail_pct,
        lat.samples,
        setup_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
    )];
    if let Some(tr) = &tracer {
        if w == Workload::DeltaStream {
            decompose_deltas(o.seed, &inputs, &phase, tr, &mut per_layer, &mut errors);
        }
        let (wait, run) = log_times(&events, first_timed);
        per_layer.insert("service.queue_wait_ms", mean(&wait));
        per_layer.insert("service.run_ms", mean(&run));
        per_layer.insert("service.cache_hit_ratio", stats.hit_rate());
        per_layer.insert("service.cache_bytes", stats.cache_bytes as f64);
        metrics = crate::per_layer_metrics(&per_layer, tr);
        notes.push(crate::write_trace(tr, w, o.seed));
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.attempted - tally.ok,
        errors,
        metrics,
        notes,
    })
}

/// The traced decomposition of every distinct solve job: a fresh
/// session solve (the gate's reference), the pipeline's entry call,
/// and the composed pipeline, each timed; the composed result must
/// equal the session's.
fn decompose_solves(
    w: Workload,
    seed: u64,
    jobs: &[Job],
    tr: &Tracer,
    per_layer: &mut BTreeMap<&'static str, f64>,
    errors: &mut Vec<String>,
) -> Vec<SolveReport> {
    let mut refs = Vec::new();
    let mut counts = layers::Composed::default();
    let (mut solve_ms, mut entry_ms, mut pipeline_ms) = (0.0, 0.0, 0.0);
    for (j, job) in jobs.iter().enumerate() {
        let k = j as u64;
        tr.time("graphs.gen", k, None, || workloads::solve_job_at(w, seed, j));
        tr.time("service.fingerprint", k, None, || graph_fingerprint(&job.graph));
        let t = Instant::now();
        let reference = tr.time("solver.solve", k, None, || {
            SolverSession::new().solve(&job.graph, &job.req)
        });
        solve_ms += ms_since(t);
        let t = Instant::now();
        layers::entry(&job.graph, &job.req);
        entry_ms += ms_since(t);
        let t = Instant::now();
        let composed = layers::compose(&job.graph, &job.req, tr, k);
        pipeline_ms += ms_since(t);
        let reference = match reference {
            Ok(r) => r,
            Err(e) => {
                errors.push(format!("reference solve of job {j} failed: {e}"));
                continue;
            }
        };
        if let Err(e) = composed.matches(&reference) {
            errors.push(format!("job {j}: {e}"));
        }
        tr.time("solver.render", k, None, || reference.to_json());
        counts.forward_iterations += composed.forward_iterations;
        counts.anchors += composed.anchors;
        counts.virtual_edges += composed.virtual_edges;
        counts.setcover_repetitions += composed.setcover_repetitions;
        counts.fallbacks += composed.fallbacks;
        counts.measured_sc += composed.measured_sc;
        refs.push(reference);
    }
    let n = jobs.len() as f64;
    for (name, total) in [
        ("core.forward_iterations", counts.forward_iterations),
        ("core.anchors", counts.anchors),
        ("core.virtual_edges", counts.virtual_edges),
        ("shortcuts.setcover_repetitions", counts.setcover_repetitions),
        ("shortcuts.fallbacks", counts.fallbacks),
        ("shortcuts.measured_sc", counts.measured_sc),
    ] {
        per_layer.insert(name, total as f64 / n);
    }
    per_layer.insert("solver.solve_ms", solve_ms / n);
    per_layer.insert("solver.self_ms", (solve_ms - entry_ms) / n);
    per_layer.insert("trace.compose_ratio", pipeline_ms / solve_ms);
    refs
}

/// The traced decomposition of the delta chains: a warm session walks
/// each chain like the service's worker, and beside it the benchmark's
/// own `DynamicInstance` applies the same batches under spans; both
/// must give the answers the service gave.
fn decompose_deltas(
    seed: u64,
    inputs: &Inputs,
    phase: &Phase<Answer>,
    tr: &Tracer,
    per_layer: &mut BTreeMap<&'static str, f64>,
    errors: &mut Vec<String>,
) {
    let chains = &inputs.chains;
    for c in 0..chains.len() {
        tr.time("graphs.gen", c as u64, None, || workloads::chain_base(seed, c));
    }
    let mut session = SolverSession::new();
    let mut own: Vec<DynamicInstance> = Vec::new();
    for chain in chains {
        let warm = chain.warmup();
        let _ = session.solve(&warm.graph, &warm.req);
        let mut inst = DynamicInstance::new((*chain.states[0]).clone());
        let _ = inst.apply(&warm.req.deltas, &layers::shortcut_config(&warm.req));
        own.push(inst);
    }
    let served: HashMap<usize, u64> = phase
        .out
        .iter()
        .filter_map(|a| a.result.as_ref().ok().map(|&d| (a.j, d)))
        .collect();
    let (mut solve_ms, mut pipeline_ms) = (0.0, 0.0);
    let (mut parts, mut levels, mut fell_back) = (0u64, 0u64, 0u64);
    for (j, job) in inputs.jobs.iter().enumerate() {
        let k = j as u64;
        let c = j % chains.len();
        tr.time("service.fingerprint", k, None, || graph_fingerprint(&job.graph));
        let t = Instant::now();
        let report = tr.time("solver.solve", k, None, || session.solve(&job.graph, &job.req));
        solve_ms += ms_since(t);
        let t = Instant::now();
        let root = tr.open("pipeline", k, None);
        let parked = tr.time("shortcuts.delta_clone", k, Some(root), || own[c].clone());
        let applied = tr.time("shortcuts.delta_apply", k, Some(root), || {
            own[c].apply(&job.req.deltas, &layers::shortcut_config(&job.req))
        });
        drop(parked);
        let valid = match &applied {
            Ok((res, _)) => tr.time("graphs.validate", k, Some(root), || {
                algo::two_edge_connected_in(own[c].graph(), res.edges.iter().copied())
            }),
            Err(_) => false,
        };
        tr.close(root);
        pipeline_ms += ms_since(t);
        match (report, applied) {
            (Ok(report), Ok((res, stats))) => {
                let same = res.edges == report.edges
                    && res.total_weight() == report.weight
                    && res.lower_bound() == report.lower_bound
                    && Some(res.ledger.total_rounds()) == report.rounds
                    && Some(stats) == report.incremental
                    && valid;
                if !same {
                    errors.push(format!(
                        "delta job {j}: the composed apply differs from the session solve"
                    ));
                }
                if served.get(&j).is_some_and(|&d| d != reference_digest(&report)) {
                    errors
                        .push(format!("delta job {j}: the warm session differs from the service"));
                }
                tr.time("solver.render", k, None, || report.to_json());
                parts += u64::from(stats.parts_redone);
                levels += u64::from(stats.levels_redone);
                fell_back += u64::from(stats.fell_back);
            }
            _ => errors.push(format!("delta job {j}: the traced solve failed")),
        }
    }
    let n = inputs.jobs.len() as f64;
    per_layer.insert("shortcuts.parts_redone", parts as f64 / n);
    per_layer.insert("shortcuts.levels_redone", levels as f64 / n);
    per_layer.insert("shortcuts.rebuild_share", fell_back as f64 / n);
    per_layer.insert("solver.solve_ms", solve_ms / n);
    let apply_ms = tr.self_ms().get("shortcuts.delta_apply").map_or(0.0, |&(ms, _)| ms);
    per_layer.insert("solver.self_ms", (solve_ms - apply_ms) / n);
    per_layer.insert("trace.compose_ratio", pipeline_ms / solve_ms);
}
