//! The decss benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-shortcut --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run sets up several times (reporting the median as
//! `setup_s`), drives the workload closed-loop for `--seconds`, checks
//! every answer against the benchmark's own copy of its instance and a
//! fresh single-threaded solve, and prints one JSON object as the last
//! line of stdout. `--trace 1` prints the per-layer metrics instead and
//! writes its spans to `perfbench/traces/`. See `perfbench/README.md`.

mod layers;
mod measure;
mod run;
mod serve;
mod trace;
mod workloads;

use run::{Metrics, Opts};
use std::collections::BTreeMap;
use trace::Tracer;
use workloads::Workload;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run prints all of them; a layer a workload does not reach
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.gen_ms", "ms"),
    ("graphs.two_ec_check_ms", "ms"),
    ("graphs.validate_ms", "ms"),
    ("tree.mst_ms", "ms"),
    ("tree.lca_ms", "ms"),
    ("tree.layering_ms", "ms"),
    ("tree.euler_ms", "ms"),
    ("tree.segments_ms", "ms"),
    ("core.cost_params_ms", "ms"),
    ("core.virtual_graph_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.reverse_ms", "ms"),
    ("core.cover_check_ms", "ms"),
    ("core.forward_iterations", "count"),
    ("core.anchors", "count"),
    ("core.virtual_edges", "count"),
    ("shortcuts.tools_ms", "ms"),
    ("shortcuts.setcover_ms", "ms"),
    ("shortcuts.setcover_repetitions", "count"),
    ("shortcuts.fallbacks", "count"),
    ("shortcuts.measured_sc", "rounds"),
    ("shortcuts.delta_clone_ms", "ms"),
    ("shortcuts.delta_apply_ms", "ms"),
    ("shortcuts.parts_redone", "count"),
    ("shortcuts.levels_redone", "count"),
    ("shortcuts.rebuild_share", "ratio"),
    ("solver.solve_ms", "ms"),
    ("solver.self_ms", "ms"),
    ("solver.render_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.fingerprint_ms", "ms"),
    ("service.cache_bytes", "bytes"),
    ("net.request_ms", "ms"),
    ("net.parse_build_ms", "ms"),
    ("net.overhead_ms", "ms"),
    ("net.rejected", "count"),
    ("share.shortcuts", "ratio"),
    ("share.core_tree", "ratio"),
    ("share.delta_apply", "ratio"),
    ("share.parse_build", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.compose_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Span names of the timed phase's requests (recorded, not decomposed).
const REQUEST_SPANS: [&str; 2] = ["service.request", "net.request"];

/// The per-layer metrics of a traced run: each `<span>_ms` is the
/// span's self time per job that reached it; `explicit` holds what the
/// run computed itself (counts, log times, ratios).
fn per_layer_metrics(explicit: &BTreeMap<&'static str, f64>, tr: &Tracer) -> Metrics {
    let self_ms = tr.self_ms();
    let total = |keep: &dyn Fn(&str) -> bool| -> f64 {
        self_ms
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(_, &(ms, _))| ms)
            .sum()
    };
    let solve = total(&|n| n == "solver.solve");
    let mut derived: BTreeMap<&'static str, f64> = BTreeMap::new();
    derived.insert("share.shortcuts", total(&|n| n.starts_with("shortcuts.")) / solve);
    derived.insert(
        "share.core_tree",
        total(&|n| n.starts_with("core.") || (n.starts_with("tree.") && n != "tree.mst")) / solve,
    );
    derived.insert("share.delta_apply", total(&|n| n == "shortcuts.delta_apply") / solve);
    let spans = tr.spans();
    let decomposed: Vec<_> = spans.iter().filter(|s| !REQUEST_SPANS.contains(&s.name)).collect();
    let traced_ns: u64 = decomposed
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    derived.insert(
        "trace.overhead_ratio",
        1.0 + decomposed.len() as f64 * Tracer::span_cost_ns() / traced_ns.max(1) as f64,
    );
    derived.insert("trace.spans", spans.len() as f64);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let from_span = name
                .strip_suffix("_ms")
                .and_then(|span| self_ms.get(span))
                .map(|&(ms, jobs)| ms / jobs.max(1) as f64);
            let value = explicit
                .get(name)
                .or(derived.get(name))
                .copied()
                .or(from_span)
                .unwrap_or(0.0);
            // `+ 0.0` turns the -0.0 of an empty sum into 0.
            (name, if value.is_finite() { value + 0.0 } else { 0.0 }, unit)
        })
        .collect()
}

/// Writes the run's spans and says where.
fn write_trace(tr: &Tracer, w: Workload, seed: u64) -> String {
    let path = std::path::PathBuf::from(format!("perfbench/traces/{}-seed{seed}.jsonl", w.name()));
    match tr.write(&path) {
        Ok(()) => format!("{} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => format!("writing {}: {e}", path.display()),
    }
}

fn parse_args() -> Result<Option<Opts>, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-pins") {
        return Ok(None);
    }
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(&flag[2..], value);
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing --{name}"));
    let names = || Workload::ALL.map(Workload::name).join(", ");
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload; options: {}", names()))?;
    let seed = get("seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flags.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    Ok(Some(Opts { workload, seed, seconds, trace }))
}

fn main() {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            workloads::print_pins();
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = workloads::check_pins(opts.workload, opts.seed) {
        eprintln!("perfbench: refusing to run: {e}");
        std::process::exit(2);
    }
    let outcome = match opts.workload {
        Workload::ServeMix => serve::run_serve(&opts),
        _ => run::run_service(&opts),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    for e in outcome.errors.iter().take(20) {
        eprintln!("correctness gate: {e}");
    }
    if outcome.errors.len() > 20 {
        eprintln!("correctness gate: ... {} failures in all", outcome.errors.len());
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = outcome.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
