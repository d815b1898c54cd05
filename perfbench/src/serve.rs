//! serve-mix: an in-process `decss_net` server driven by keep-alive
//! HTTP clients with a seeded mix of `POST /solve` singles and
//! `POST /jobs` batches.

use crate::measure::{mean, ms_since};
use crate::run::{
    self, check_report, end_to_end, fresh_solves, hit_ratio, log_times, Opts, Outcome, Tally,
};
use crate::trace::Tracer;
use crate::workloads::{self, NetRequest, Spec, POOL, SERVE_CACHE, SERVE_CYCLE};
use decss_graphs::fingerprint::graph_fingerprint;
use decss_net::client::read_response;
use decss_net::jobs::{job_row, parse_job_specs, FileAccess, JobSpec};
use decss_net::{NetConfig, NetHandle, NetServer};
use decss_service::{JobId, JobOutcome, ServiceConfig};
use decss_solver::{SolveReport, SolverSession};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests generated per run; the stream wraps if a run gets further.
const REQUESTS: usize = 1024;

/// One keep-alive client connection, reopened when the server closes it.
struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Self {
        Conn { addr, stream: None }
    }

    /// `POST path`; returns the status and body.
    fn post(&mut self, path: &str, body: &str) -> Result<(u16, String), String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let request = format!(
            "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        let response = stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_response(stream));
        match response {
            Ok(r) => {
                if r.header("connection") == Some("close") {
                    self.stream = None;
                }
                Ok((r.status, r.text()))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

struct Served {
    q: usize,
    start: Instant,
    end: Instant,
    response: Result<(u16, String), String>,
}

/// The rows of a response body, in job order.
fn rows(path: &str, body: &str) -> Vec<String> {
    if path == "/solve" {
        return vec![body.trim().to_string()];
    }
    body.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"job\": "))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// A row without its wall-clock field, the one part that may differ.
fn without_wall_ms(row: &str) -> &str {
    row.find(", \"wall_ms\": ").map_or(row, |at| &row[..at])
}

/// The reference for one pool spec: the parsed spec (echo fields,
/// request and the benchmark's own copy of the instance) and a fresh
/// session's report.
struct Reference {
    spec: JobSpec,
    report: SolveReport,
}

impl Reference {
    fn row(&self, index: usize, cache_hit: bool) -> String {
        let outcome = JobOutcome { job: JobId(0), report: self.report.clone(), cache_hit };
        job_row(index, &self.spec, &Ok(outcome)).trim().to_string()
    }
}

fn single(spec: &Spec) -> String {
    workloads::body(std::iter::once(spec.line()))
}

/// The one spec of a single-spec body, parsed as the server parses it;
/// the graph it builds is the benchmark's own copy of the instance (the
/// pins hold the generator to the recorded fingerprints).
fn own_spec(mut parsed: Vec<JobSpec>) -> Result<JobSpec, String> {
    match (parsed.pop(), parsed.is_empty()) {
        (Some(spec), true) => Ok(spec),
        _ => Err("a single-spec body must parse to one job".into()),
    }
}

/// What one set-up builds: the benchmark's own copy of every pool
/// spec (parsed as the server parses it), the request stream, and the
/// running server, warmed up.
struct Setup {
    specs: Vec<Result<JobSpec, String>>,
    requests: Vec<NetRequest>,
    handle: NetHandle,
}

fn start(seed: u64, par: usize) -> Result<Setup, String> {
    let pool = workloads::serve_pool(seed);
    let specs = pool
        .iter()
        .map(|s| parse_job_specs(&single(s), FileAccess::Denied).and_then(own_spec))
        .collect();
    let requests = workloads::serve_requests(&pool, REQUESTS);
    let service = ServiceConfig::default().workers(par).cache_capacity(SERVE_CACHE);
    // One connection worker per client: the same threads serve every
    // request, so memory does not depend on which idle worker a
    // reconnect lands on.
    let net = NetConfig::default().max_connections(par);
    let handle = NetServer::start("127.0.0.1:0", net, service)?;
    let mut conn = Conn::new(handle.addr());
    let warmup = workloads::serve_warmup(seed);
    let last = warmup.len() - 1;
    for (i, body) in warmup.iter().enumerate() {
        let path = if i == last { "/jobs" } else { "/solve" };
        match conn.post(path, body)? {
            (200, text) if !text.contains("\"error\"") => {}
            (status, text) => return Err(format!("warm-up {path} answered {status}: {text}")),
        }
    }
    Ok(Setup { specs, requests, handle })
}

pub fn run_serve(o: &Opts) -> Result<Outcome, String> {
    let par = run::parallelism();
    let mut setup_s = Vec::new();
    let mut state: Option<Setup> = None;
    for _ in 0..run::SETUP_REPS {
        if let Some(setup) = state.take() {
            setup.handle.drain(Duration::ZERO);
        }
        let t = Instant::now();
        state = Some(start(o.seed, par)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Setup { specs, requests, handle } = state.expect("at least one set-up");
    let service = handle.server().service();
    let before = service.stats();
    let tracer = o.trace.then(Tracer::new);

    let addr = handle.addr();
    let phase = run::timed(
        par,
        o.seconds,
        |_| Conn::new(addr),
        |conn, k| {
            let q = k as usize % requests.len();
            let r = &requests[q];
            let start = Instant::now();
            let response = conn.post(r.path, &r.body);
            let end = Instant::now();
            Served { q, start, end, response }
        },
    );
    let after = service.stats();
    let events = service.log().snapshot();
    handle.drain(Duration::ZERO);

    // References and the benchmark's own instance copies, outside
    // set-up and the timed phase.
    let pool = workloads::serve_pool(o.seed);
    let mut errors = Vec::new();
    let mut per_layer = BTreeMap::new();
    let mut parse_build_ms = vec![0.0; pool.len()];
    let refs: Vec<Result<Reference, String>> = match &tracer {
        Some(tr) => decompose(&pool, tr, &mut parse_build_ms),
        None => {
            let pairs: Vec<_> = specs
                .iter()
                .filter_map(|s| s.as_ref().ok().map(|s| (Arc::clone(&s.graph), s.req.clone())))
                .collect();
            let mut reports = fresh_solves(&pairs, par).into_iter();
            specs
                .into_iter()
                .map(|spec| {
                    let spec = spec?;
                    let report = reports.next().expect("one report per parsed spec");
                    Ok(Reference { spec, report: report.map_err(|e| e.to_string())? })
                })
                .collect()
        }
    };
    for (p, r) in refs.iter().enumerate() {
        match r {
            Ok(r) => {
                if let Err(e) = check_report(&r.spec.graph, &r.report) {
                    errors.push(format!("pool spec {p} reference: {e}"));
                }
            }
            Err(e) => errors.push(format!("pool spec {p}: {e}")),
        }
    }

    let limit = o.workload.latency_limit_ms();
    let mut tally = Tally::default();
    let mut rejected = 0u64;
    let mut overhead = Vec::new();
    let mut failures = Vec::new();
    for s in &phase.out {
        let request = &requests[s.q];
        let jobs = request.specs.len() as u64;
        let latency_ms = (s.end - s.start).as_secs_f64() * 1e3;
        if let Some(tr) = &tracer {
            tr.record("net.request", s.q as u64, s.start, s.end);
        }
        let body = match &s.response {
            Ok((200, body)) => body,
            Ok((status, body)) => {
                // Refused or shed: failed jobs, not a wrong answer.
                tally.request(s.start, s.end, phase.start, jobs, 0, limit);
                rejected += u64::from(matches!(status, 429 | 503));
                failures.push(format!("{} answered {status}: {}", request.path, body.trim()));
                continue;
            }
            Err(e) => {
                tally.request(s.start, s.end, phase.start, jobs, 0, limit);
                failures.push(format!("{} failed: {e}", request.path));
                continue;
            }
        };
        let got = rows(request.path, body);
        let ok = got.iter().filter(|row| !row.contains("\"error\"")).count() as u64;
        tally.request(s.start, s.end, phase.start, jobs, ok, limit);
        if got.len() != request.specs.len() {
            errors.push(format!(
                "{} returned {} rows for {} jobs",
                request.path,
                got.len(),
                request.specs.len()
            ));
            continue;
        }
        for (index, (row, &p)) in got.iter().zip(&request.specs).enumerate() {
            if row.contains("\"error\"") {
                failures.push(format!("job failed: {row}"));
                continue;
            }
            let Ok(reference) = &refs[p] else { continue };
            let expected = reference.row(index, row.contains("\"cache_hit\": true"));
            if without_wall_ms(row) != without_wall_ms(&expected) {
                errors.push(format!(
                    "row differs from a fresh solve:\n  got  {row}\n  want {expected}"
                ));
            }
            if request.path == "/solve" {
                let wall_ms = row
                    .rsplit("\"wall_ms\": ")
                    .next()
                    .and_then(|v| v.trim_end_matches('}').parse::<f64>().ok())
                    .unwrap_or(0.0);
                overhead.push(latency_ms - parse_build_ms[p] - wall_ms);
            }
        }
    }
    let reports: Vec<SolveReport> = refs.iter().flatten().map(|r| r.report.clone()).collect();
    let (mut metrics, lat) = end_to_end(&setup_s, &phase, &tally, SERVE_CYCLE, &reports);
    let mut notes = vec![format!(
        "serve-mix seed {}: {} requests ({} jobs) in {:.2} s, {} pool specs, {par} workers, {par} clients, \
         tail = p{} of {} samples, setup reps {:?}",
        o.seed,
        phase.out.len(),
        tally.attempted,
        phase.elapsed_s,
        POOL,
        lat.tail_pct,
        lat.samples,
        setup_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
    )];
    notes.extend(failures.into_iter().take(10));
    if let Some(tr) = &tracer {
        let (wait, run) = log_times(&events, before.submitted);
        let request_ms = mean(&tally.latencies);
        let per_request: Vec<f64> = phase
            .out
            .iter()
            .map(|s| requests[s.q].specs.iter().map(|&p| parse_build_ms[p]).sum())
            .collect();
        per_layer.insert("service.queue_wait_ms", mean(&wait));
        per_layer.insert("service.run_ms", mean(&run));
        per_layer.insert("service.cache_hit_ratio", hit_ratio(&before, &after));
        per_layer.insert("service.cache_bytes", after.cache_bytes as f64);
        per_layer.insert("net.request_ms", request_ms);
        per_layer.insert("net.parse_build_ms", mean(&per_request));
        per_layer.insert("net.overhead_ms", mean(&overhead));
        per_layer.insert("net.rejected", rejected as f64);
        per_layer.insert("share.parse_build", mean(&per_request) / request_ms);
        metrics = crate::per_layer_metrics(&per_layer, tr);
        notes.push(crate::write_trace(tr, o.workload, o.seed));
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.attempted - tally.ok,
        errors,
        metrics,
        notes,
    })
}

/// The traced decomposition of each pool spec, in the order the server
/// handles a request: parse and build the instance, fingerprint it for
/// the cache key, solve (a fresh session: the gate's reference), and
/// render the report.
fn decompose(
    pool: &[Spec],
    tr: &Tracer,
    parse_build_ms: &mut [f64],
) -> Vec<Result<Reference, String>> {
    let mut refs = Vec::new();
    for (p, spec) in pool.iter().enumerate() {
        let k = p as u64;
        let body = single(spec);
        let t = Instant::now();
        let parsed = tr.time("net.parse_build", k, None, || {
            parse_job_specs(&body, FileAccess::Denied)
        });
        parse_build_ms[p] = ms_since(t);
        tr.time("graphs.gen", k, None, || spec.instance());
        let reference = parsed.and_then(own_spec).and_then(|spec| {
            tr.time("service.fingerprint", k, None, || graph_fingerprint(&spec.graph));
            let report = tr
                .time("solver.solve", k, None, || {
                    SolverSession::new().solve(&spec.graph, &spec.req)
                })
                .map_err(|e| e.to_string())?;
            tr.time("solver.render", k, None, || report.to_json());
            Ok(Reference { spec, report })
        });
        refs.push(reference);
    }
    refs
}
