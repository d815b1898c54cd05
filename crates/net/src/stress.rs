//! The fault-injection / chaos harness behind `decss netstress`.
//!
//! Spins a real [`NetServer`] on an ephemeral port, hammers it from
//! seeded chaos threads mixing well-formed traffic with abuse —
//! truncated requests, stalled writers, garbage bytes, mid-response
//! disconnects, duplicate storms, overload waves — optionally under an
//! injected [`FaultPlan`], then drains and verifies the robustness
//! contract:
//!
//! * every completed solve's report is **byte-identical** to a fresh
//!   single-threaded solve of the same spec (modulo `wall_ms` and the
//!   `cache_hit` flag);
//! * well-formed traffic only ever sees 200/422/429/503 — never a
//!   hang, never an unstructured failure;
//! * no connection-slot leaks (`accepted == conns_closed` after drain);
//! * the per-client admission ledger matches the service's audited job
//!   count exactly;
//! * the drain itself is clean (the service log audit passes and the
//!   queue is empty).

use crate::client::{raw_exchange, Client};
use crate::fault::FaultPlan;
use crate::jobs::{self, FileAccess};
use crate::server::{NetConfig, NetServer, NetSummary};
use decss_service::{JobId, JobOutcome, ServiceConfig};
use decss_solver::SolverSession;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Chaos run parameters.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Seed for every chaos thread's operation stream.
    pub seed: u64,
    /// Total chaos operations across all threads.
    pub ops: usize,
    /// Concurrent chaos threads.
    pub threads: usize,
    /// The network tier under test.
    pub net: NetConfig,
    /// The solve pool under test.
    pub service: ServiceConfig,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            seed: 0,
            ops: 120,
            threads: 6,
            // Small pools and a short read deadline: shed paths and the
            // slow-loris cutoff actually fire during the run.
            net: NetConfig::default()
                .max_connections(6)
                .read_timeout(Duration::from_millis(400))
                .write_timeout(Duration::from_millis(800)),
            service: ServiceConfig::default()
                .workers(2)
                .queue_capacity(3)
                .cache_capacity(64),
        }
    }
}

/// What one chaos run observed and concluded.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Operations attempted.
    pub ops: usize,
    /// Well-formed solves answered 200.
    pub solves_ok: u64,
    /// Solve-level errors answered 422.
    pub solve_errors: u64,
    /// 429 responses (shed or quota).
    pub shed_429: u64,
    /// 503 responses (busy / draining).
    pub refused_503: u64,
    /// Structured 4xx/5xx answers to malformed input.
    pub structured_rejections: u64,
    /// Client-side I/O failures (expected under injected faults and
    /// self-inflicted disconnects).
    pub io_errors: u64,
    /// Contract violations — an empty list is the pass verdict.
    pub violations: Vec<String>,
    /// The drain accounting (populated on every run that binds).
    pub summary: Option<NetSummary>,
}

impl ChaosReport {
    /// Whether the run upheld the whole contract.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable run summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "netstress: {} ops | {} ok, {} solve-errors, {} shed(429), {} refused(503), \
             {} structured rejections, {} client io errors\n",
            self.ops,
            self.solves_ok,
            self.solve_errors,
            self.shed_429,
            self.refused_503,
            self.structured_rejections,
            self.io_errors,
        );
        if let Some(summary) = &self.summary {
            out.push_str(&format!(
                "netstress: accepted {} conns, closed {}, slot leaks {}, audited jobs {:?}, \
                 client-ledger jobs {}\n",
                summary.net.accepted,
                summary.net.conns_closed,
                summary.slot_leaks(),
                summary.service.audit,
                summary.accepted_jobs(),
            ));
        }
        match self.violations.len() {
            0 => out.push_str("netstress: PASS (no contract violations)\n"),
            n => {
                out.push_str(&format!("netstress: FAIL ({n} violations)\n"));
                for v in &self.violations {
                    out.push_str(&format!("  - {v}\n"));
                }
            }
        }
        out
    }
}

/// Everything the chaos threads observe, merged at the end into the
/// report: classification counters, contract violations, and every
/// (spec, row) pair a 200 handed back — the byte-identity evidence.
#[derive(Default)]
struct Observed {
    solves_ok: u64,
    solve_errors: u64,
    shed_429: u64,
    refused_503: u64,
    structured_rejections: u64,
    io_errors: u64,
    recorded: Vec<(String, String)>,
    violations: Vec<String>,
}

/// A well-formed single-job document the chaos mix posts to `/solve`.
fn job_line(rng: &mut StdRng, heavy: bool) -> String {
    let algorithm = ["improved", "greedy", "shortcut"][rng.gen_range(0usize..3)];
    let n = if heavy {
        900
    } else {
        [16usize, 36, 64][rng.gen_range(0usize..3)]
    };
    let seed = rng.gen_range(0u64..3);
    format!(
        "{{\"algorithm\": \"{algorithm}\", \"family\": \"grid\", \"n\": {n}, \"seed\": {seed}}}"
    )
}

/// Removes `"key": value` (a flat number/bool value) plus one adjacent
/// comma from a JSON row — the canonicalization that makes service
/// rows comparable to fresh solves (`wall_ms` varies, `cache_hit` is
/// service-only context).
fn strip_field(row: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let Some(start) = row.find(&needle) else {
        return row.to_string();
    };
    let after = &row[start + needle.len()..];
    let value_len = after.find([',', '}']).unwrap_or(after.len());
    let mut end = start + needle.len() + value_len;
    if row[end..].starts_with(',') {
        end += 1;
        if row[end..].starts_with(' ') {
            end += 1;
        }
        format!("{}{}", &row[..start], &row[end..])
    } else {
        // Last field: eat the comma before it instead.
        let head = row[..start].trim_end();
        let start = head.strip_suffix(',').map_or(start, |h| h.len());
        format!("{}{}", &row[..start], &row[end..])
    }
}

fn canonical_row(row: &str) -> String {
    strip_field(&strip_field(row.trim(), "wall_ms"), "cache_hit")
}

/// One `/solve` POST, classified into the observation counters; 200
/// rows are recorded for the byte-identity audit.
fn post_solve(client: &Client, line: &str, observed: &Mutex<Observed>) {
    match client.post("/solve", line) {
        Ok(resp) => {
            let mut obs = observed.lock().expect("observed lock");
            match resp.status {
                200 => {
                    obs.solves_ok += 1;
                    obs.recorded.push((line.to_string(), resp.text()));
                }
                422 => obs.solve_errors += 1,
                429 => obs.shed_429 += 1,
                503 => obs.refused_503 += 1,
                other => obs
                    .violations
                    .push(format!("well-formed solve answered {other}: {}", resp.text().trim())),
            }
        }
        Err(_) => {
            // Injected write faults and overload can sever a response;
            // that is an observation, not a violation — the accounting
            // invariants after drain are the real check.
            observed.lock().expect("observed lock").io_errors += 1;
        }
    }
}

/// Opens a connection, trickles a partial request head, then stalls
/// past the server's read deadline; drains whatever the server says
/// (408 expected) so the reset does not race the server's send.
fn stalled_writer(addr: SocketAddr, read_timeout: Duration) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let _ = stream.set_read_timeout(Some(read_timeout + Duration::from_millis(700)));
    let _ = stream.write_all(b"POST /solve HTT");
    std::thread::sleep(read_timeout + Duration::from_millis(150));
    let mut sink = [0u8; 1024];
    let _ = stream.read(&mut sink);
}

/// Runs the chaos suite against a self-hosted server and returns the
/// verdict.
pub fn chaos(config: StressConfig) -> ChaosReport {
    let mut report = ChaosReport { ops: config.ops, ..ChaosReport::default() };
    let handle = match NetServer::start("127.0.0.1:0", config.net.clone(), config.service.clone()) {
        Ok(h) => h,
        Err(e) => {
            report.violations.push(format!("failed to start server: {e}"));
            return report;
        }
    };
    let addr = handle.addr();
    let observed = Arc::new(Mutex::new(Observed::default()));

    let threads = config.threads.max(1);
    let per_thread = config.ops.div_ceil(threads);
    let mut chaos_threads = Vec::new();
    for t in 0..threads {
        let observed = Arc::clone(&observed);
        let seed = config.seed ^ (0x9e37_79b9 + t as u64);
        let read_timeout = config.net.read_timeout;
        chaos_threads.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let client = Client::new(addr)
                .with_client_id(format!("chaos-{}", t % 3))
                .with_timeout(Duration::from_secs(30));
            for _ in 0..per_thread {
                let roll = rng.gen_range(0u32..100);
                if roll < 40 {
                    // Well-formed solve.
                    let line = job_line(&mut rng, false);
                    post_solve(&client, &line, &observed);
                } else if roll < 50 {
                    // Duplicate storm: the same spec back to back — the
                    // coalescing cache's chance to shine, and identical
                    // answers either way.
                    let line = job_line(&mut rng, false);
                    for _ in 0..3 {
                        post_solve(&client, &line, &observed);
                    }
                } else if roll < 60 {
                    // Overload wave: heavier solves in quick succession
                    // to force queue-full sheds.
                    let line = job_line(&mut rng, true);
                    for _ in 0..2 {
                        post_solve(&client, &line, &observed);
                    }
                } else if roll < 72 {
                    // Truncated request: a prefix of a valid POST, then
                    // vanish. The server must time the slot out, not
                    // leak it.
                    let line = job_line(&mut rng, false);
                    let full = format!(
                        "POST /solve HTTP/1.1\r\ncontent-length: {}\r\n\r\n{line}",
                        line.len()
                    );
                    let cut = rng.gen_range(1usize..full.len());
                    let _ = raw_exchange(addr, &full.as_bytes()[..cut], Duration::from_millis(30));
                } else if roll < 80 {
                    // Garbage bytes: the answer must be a structured
                    // 4xx/5xx or a plain close — never half a reply.
                    let len = rng.gen_range(1usize..48);
                    let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
                    match raw_exchange(addr, &garbage, read_timeout + Duration::from_millis(500)) {
                        Ok(bytes) if bytes.is_empty() => {} // timed out / dropped: fine
                        Ok(bytes) => {
                            let text = String::from_utf8_lossy(&bytes).into_owned();
                            let structured =
                                text.starts_with("HTTP/1.1 4") || text.starts_with("HTTP/1.1 5");
                            let mut obs = observed.lock().expect("observed lock");
                            if structured {
                                obs.structured_rejections += 1;
                            } else {
                                let head: String = text.chars().take(60).collect();
                                obs.violations.push(format!(
                                    "garbage input got a non-structured reply: {head:?}"
                                ));
                            }
                        }
                        Err(_) => {
                            observed.lock().expect("observed lock").io_errors += 1;
                        }
                    }
                } else if roll < 88 {
                    // Stalled writer (slow loris): a few head bytes then
                    // silence past the read deadline. The server must
                    // cut the connection loose (408) — a hang here
                    // stalls this thread and fails the run's own
                    // deadline.
                    stalled_writer(addr, read_timeout);
                } else {
                    // Mid-response disconnect: ask for /stats and slam
                    // the connection shut without reading the reply.
                    if let Ok(mut stream) = TcpStream::connect(addr) {
                        let _ =
                            stream.write_all(b"GET /stats HTTP/1.1\r\nconnection: close\r\n\r\n");
                        drop(stream);
                    }
                }
            }
        }));
    }
    for thread in chaos_threads {
        if thread.join().is_err() {
            report.violations.push("a chaos thread panicked".into());
        }
    }

    // Liveness after the storm: the server must still answer cleanly.
    let probe = Client::new(addr).with_timeout(Duration::from_secs(5));
    let alive = (0..3).any(|_| matches!(probe.get("/healthz"), Ok(r) if r.status == 200));
    if !alive {
        report
            .violations
            .push("server unresponsive to /healthz after the chaos mix".into());
    }

    let summary = handle.drain(Duration::from_millis(20));

    let observed = std::mem::take(&mut *observed.lock().expect("observed lock"));
    report.solves_ok = observed.solves_ok;
    report.solve_errors = observed.solve_errors;
    report.shed_429 = observed.shed_429;
    report.refused_503 = observed.refused_503;
    report.structured_rejections = observed.structured_rejections;
    report.io_errors = observed.io_errors;
    report.violations.extend(observed.violations);

    // Byte-identity: every 200 row must match a fresh single-threaded
    // solve of the same spec, modulo wall_ms and cache_hit. Dedup by
    // spec line — duplicates re-solve identically.
    let mut fresh_rows: HashMap<String, Option<String>> = HashMap::new();
    let mut session = SolverSession::new();
    for (line, row) in &observed.recorded {
        if !fresh_rows.contains_key(line) {
            let doc = format!("[\n{line}\n]");
            let fresh = match jobs::parse_job_specs(&doc, FileAccess::Denied) {
                Ok(mut specs) => {
                    let spec = specs.remove(0);
                    match session.solve(&spec.graph, &spec.req) {
                        Ok(r) => {
                            let outcome = JobOutcome { job: JobId(0), report: r, cache_hit: false };
                            Some(canonical_row(&jobs::job_row(0, &spec, &Ok(outcome))))
                        }
                        Err(e) => {
                            report.violations.push(format!(
                                "spec {line} solved over HTTP but failed fresh: {e}"
                            ));
                            None
                        }
                    }
                }
                Err(e) => {
                    report.violations.push(format!("recorded spec no longer parses: {e}"));
                    None
                }
            };
            fresh_rows.insert(line.clone(), fresh);
        }
        let Some(Some(fresh)) = fresh_rows.get(line) else {
            continue;
        };
        let served = canonical_row(row);
        if &served != fresh {
            report.violations.push(format!(
                "report corruption for {line}:\n  served: {served}\n  fresh:  {fresh}"
            ));
        }
    }

    // Accounting invariants.
    if summary.slot_leaks() != 0 {
        report.violations.push(format!(
            "connection slot leak: accepted {} != closed {}",
            summary.net.accepted, summary.net.conns_closed
        ));
    }
    if summary.net.conns_open != 0 {
        report.violations.push(format!(
            "{} connections still open after drain",
            summary.net.conns_open
        ));
    }
    match &summary.service.audit {
        Ok(audited) => {
            let ledger = summary.accepted_jobs();
            if *audited as u64 != ledger {
                report.violations.push(format!(
                    "client ledger ({ledger}) != audited service jobs ({audited})"
                ));
            }
            if summary.service.stats.submitted != ledger {
                report.violations.push(format!(
                    "service submitted ({}) != client ledger ({ledger})",
                    summary.service.stats.submitted
                ));
            }
        }
        Err(e) => report.violations.push(format!("service log audit failed: {e}")),
    }
    if summary.service.stats.queue_depth != 0 {
        report.violations.push(format!(
            "drain left {} jobs queued",
            summary.service.stats.queue_depth
        ));
    }
    report.summary = Some(summary);
    report
}

/// The seeded fault plan `decss netstress --faults` installs: early
/// accept drops and write severs, so the final liveness probe and the
/// drain run past them.
pub fn default_fault_plan() -> FaultPlan {
    FaultPlan { accept_errors: vec![2, 9, 23], write_errors: vec![3, 11, 28] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_field_handles_middle_and_tail() {
        let row = r#"{"a": 1, "wall_ms": 3.25, "b": true}"#;
        assert_eq!(strip_field(row, "wall_ms"), r#"{"a": 1, "b": true}"#);
        let tail = r#"{"a": 1, "wall_ms": 3.25}"#;
        assert_eq!(strip_field(tail, "wall_ms"), r#"{"a": 1}"#);
        assert_eq!(strip_field(row, "absent"), row);
        let both = r#"{"cache_hit": false, "wall_ms": 9}"#;
        assert_eq!(canonical_row(both), r#"{}"#);
    }

    #[test]
    fn a_small_chaos_run_upholds_the_contract() {
        let config = StressConfig { seed: 7, ops: 24, threads: 3, ..StressConfig::default() };
        let report = chaos(config);
        assert!(report.passed(), "{}", report.render());
        assert!(
            report.solves_ok > 0,
            "the mix must land some real solves\n{}",
            report.render()
        );
    }
}
