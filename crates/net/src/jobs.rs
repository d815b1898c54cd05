//! The `decss serve` job/report schema, as a library.
//!
//! The CLI's file mode (`decss serve --jobs`) and the network tier
//! (`POST /solve`, `POST /jobs`) speak *exactly* the same dialect —
//! this module is that dialect, moved out of the binary so both fronts
//! share one parser and one renderer: a JSON array with one job object
//! per line in, a `{"service": ..., "jobs": [...]}` document out.

use decss_graphs::{gen, io, EdgeId, Graph, VertexId};
use decss_service::{JobResult, Stats};
use decss_solver::json::{escape, number_field, string_array_field, string_field};
use decss_solver::{GraphDelta, SolveRequest};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One parsed job spec from a jobs document: the instance, the request,
/// and the echo fields its output row carries.
#[derive(Debug)]
pub struct JobSpec {
    /// Family label or input path (row echo).
    pub family: String,
    /// Requested instance size (row echo; a file instance echoes its n).
    pub requested_n: usize,
    /// The run seed (row echo).
    pub seed: u64,
    /// The instance (shared across identical specs in one document).
    pub graph: Arc<Graph>,
    /// The solve request the job runs.
    pub req: SolveRequest,
}

/// Parses one delta spec — the compact `rw(edge,weight)` / `del(edge)`
/// / `ins(u,v,weight)` vocabulary (long names `reweight` / `delete` /
/// `insert` also accepted) that `params_echo` renders and job documents
/// carry in their `"deltas"` arrays.
pub fn parse_delta(spec: &str) -> Result<GraphDelta, String> {
    let spec = spec.trim();
    let bad =
        || format!("bad delta {spec:?} (expected rw(edge,weight), del(edge), or ins(u,v,weight))");
    let (op, rest) = spec.split_once('(').ok_or_else(bad)?;
    let args: Vec<u64> = rest
        .strip_suffix(')')
        .ok_or_else(bad)?
        .split(',')
        .map(|x| x.trim().parse::<u64>().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    match (op.trim(), args.as_slice()) {
        ("rw" | "reweight", &[edge, weight]) => {
            Ok(GraphDelta::Reweight { edge: EdgeId(edge as u32), weight })
        }
        ("del" | "delete", &[edge]) => Ok(GraphDelta::Delete { edge: EdgeId(edge as u32) }),
        ("ins" | "insert", &[u, v, weight]) => {
            Ok(GraphDelta::Insert { u: VertexId(u as u32), v: VertexId(v as u32), weight })
        }
        _ => Err(bad()),
    }
}

/// [`parse_delta`] over a list.
pub fn parse_deltas<'a>(specs: impl Iterator<Item = &'a str>) -> Result<Vec<GraphDelta>, String> {
    specs.map(parse_delta).collect()
}

/// Splits a `--deltas` list on the commas *between* specs (the commas
/// inside `rw(3,9)` stay put).
pub fn split_delta_list(list: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in list.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(list[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(list[start..].trim());
    out.retain(|s| !s.is_empty());
    out
}

/// Builds a generated instance by family label (the `gen` vocabulary:
/// every `gen::Family`, every atlas family, plus the extra named
/// constructions).
pub fn instance_by_label(family: &str, n: usize, w: u64, seed: u64) -> Result<Graph, String> {
    Ok(match family {
        "broom" => gen::broom_two_ec(n, w, seed),
        "hard-sqrt" => gen::hard_sqrt_two_ec(n, w, seed),
        "tree-chords" => gen::tree_plus_chords(n, n / 2, w, seed),
        other => {
            if let Some(fam) = gen::ATLAS_ALL.into_iter().find(|f| f.label() == other) {
                // The generator itself asserts this; a served job must
                // get an error row, not a worker panic.
                if n < 64 {
                    return Err(format!("atlas family {other} needs n >= 64, got {n}"));
                }
                return Ok(fam.instance(n, w, seed));
            }
            let fam =
                gen::Family::ALL
                    .into_iter()
                    .find(|f| f.label() == other)
                    .ok_or_else(|| {
                        format!(
                        "unknown family {other}; options: {}, {}, broom, hard-sqrt, tree-chords",
                        gen::Family::ALL.map(|f| f.label()).join(", "),
                        gen::ATLAS_ALL.map(|f| f.label()).join(", ")
                    )
                    })?;
            gen::instance(fam, n, w, seed)
        }
    })
}

/// Whether job documents may name `"input"` graph files. The network
/// tier parses with [`FileAccess::Denied`] — a remote client must not
/// be able to probe the server's filesystem; the CLI's file mode keeps
/// [`FileAccess::Allowed`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileAccess {
    /// `"input": "PATH"` specs load the named graph file.
    Allowed,
    /// `"input"` specs are rejected with an explanatory error.
    Denied,
}

/// Parses a jobs document: a JSON array with one job object per line.
/// Each job names an `"algorithm"` plus an instance — either a
/// generated one (`"family"` + `"n"`, optional `"seed"` /
/// `"max_weight"`) or a graph file (`"input"`, subject to `files`) —
/// and optionally the request knobs `"epsilon"`, `"bandwidth"`,
/// `"fail_edges"`, `"deadline_ms"`, and `"deltas"` (an array of
/// `"rw(edge,weight)"` / `"del(edge)"` / `"ins(u,v,weight)"` specs
/// mutating the instance before the solve). Unknown keys are ignored,
/// so recorded documents carrying a retired knob still replay.
/// Identical instance specs share one in-memory graph.
pub fn parse_job_specs(text: &str, files: FileAccess) -> Result<Vec<JobSpec>, String> {
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut graphs: HashMap<String, Arc<Graph>> = HashMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        let at = |msg: String| format!("jobs line {}: {msg}", idx + 1);
        if !line.contains("\"algorithm\"") {
            if line.contains('{') {
                return Err(at("job object lacks an \"algorithm\" field".into()));
            }
            continue; // array brackets / blank lines
        }
        specs.push(parse_job_line(line, files, &mut graphs).map_err(at)?);
    }
    if specs.is_empty() {
        return Err(
            "no job specs found (expected a JSON array with one job object per line)".into(),
        );
    }
    Ok(specs)
}

/// Parses one job-object line of the dialect. `graphs` memoizes
/// instances across calls, so identical specs (including a trace's
/// duplicate storms) share one in-memory graph. Shared by
/// [`parse_job_specs`] and the trace replayer ([`crate::trace`]);
/// errors carry no line number — callers add their own context.
pub fn parse_job_line(
    line: &str,
    files: FileAccess,
    graphs: &mut HashMap<String, Arc<Graph>>,
) -> Result<JobSpec, String> {
    if line.matches('{').count() > 1 {
        // A compacted array (e.g. `jq -c` output) would otherwise
        // silently collapse into one job built from the first
        // occurrence of each field.
        return Err(
            "multiple job objects on one line; the format is one job object per line".into(),
        );
    }
    let algorithm = string_field(line, "algorithm")
        .ok_or_else(|| "malformed \"algorithm\" field".to_string())?;
    // A key that is present but fails the strict `"key": value`
    // scan must error, not silently drop the knob — a swallowed
    // `fail_edges` or `deadline_ms` changes what the job *means*.
    let num = |key: &str| -> Result<Option<f64>, String> {
        match number_field(line, key) {
            Some(v) => Ok(Some(v)),
            None if line.contains(&format!("\"{key}\"")) => {
                Err(format!("malformed \"{key}\" field (expected `\"{key}\": <number>`)"))
            }
            None => Ok(None),
        }
    };
    let mut req = SolveRequest::new(&algorithm);
    if let Some(e) = num("epsilon")? {
        req = req.epsilon(e);
    }
    if let Some(b) = num("bandwidth")? {
        req = req.bandwidth(b as u32);
    }
    if let Some(k) = num("fail_edges")? {
        req = req.fail_edges(k as u32);
    }
    if let Some(ms) = num("deadline_ms")? {
        req = req.deadline(Duration::from_millis(ms as u64));
    }
    match string_array_field(line, "deltas") {
        Some(specs) => {
            req = req.deltas(parse_deltas(specs.iter().map(String::as_str))?);
        }
        None if line.contains("\"deltas\"") => {
            return Err(
                "malformed \"deltas\" field (expected `\"deltas\": [\"rw(edge,weight)\", ...]`)"
                    .into(),
            )
        }
        None => {}
    }
    let seed = match num("seed")? {
        Some(s) => {
            req = req.seed(s as u64);
            s as u64
        }
        None => 0,
    };
    if line.contains("\"input\"") && string_field(line, "input").is_none() {
        return Err("malformed \"input\" field (expected `\"input\": \"PATH\"`)".into());
    }
    let (family, requested_n, graph) = if let Some(path) = string_field(line, "input") {
        if files == FileAccess::Denied {
            return Err(format!(
                "\"input\" graph files are not served over the network (got {path:?}); \
                 use \"family\" + \"n\""
            ));
        }
        let graph = match graphs.get(&path) {
            Some(g) => Arc::clone(g),
            None => {
                let text =
                    std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
                let g =
                    Arc::new(io::parse_graph(&text).map_err(|e| format!("parsing {path}: {e}"))?);
                graphs.insert(path.clone(), Arc::clone(&g));
                g
            }
        };
        (path, graph.n(), graph)
    } else {
        let family = string_field(line, "family")
            .ok_or_else(|| "job needs \"family\" + \"n\" or \"input\"".to_string())?;
        let n =
            num("n")?.ok_or_else(|| format!("family {family:?} needs an \"n\" field"))? as usize;
        let w = num("max_weight")?.map_or(64, |w| w as u64);
        let memo = format!("{family}:{n}:{w}:{seed}");
        let graph = match graphs.get(&memo) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(instance_by_label(&family, n, w, seed)?);
                graphs.insert(memo, Arc::clone(&g));
                g
            }
        };
        (family, n, graph)
    };
    Ok(JobSpec { family, requested_n, seed, graph, req })
}

/// Renders one report row — the schema both `decss serve` output files
/// and HTTP responses carry: echo fields, then either the report or an
/// `"error"` field.
pub fn job_row(index: usize, spec: &JobSpec, result: &JobResult) -> String {
    let echo = format!(
        "\"job\": {index}, \"family\": \"{}\", \"requested_n\": {}, \"seed\": {}",
        escape(&spec.family),
        spec.requested_n,
        spec.seed
    );
    match result {
        Ok(outcome) => format!(
            "    {{{echo}, \"cache_hit\": {}, {}}}",
            outcome.cache_hit,
            outcome.report.json_fields()
        ),
        Err(e) => {
            format!("    {{{echo}, \"error\": \"{}\"}}", escape(&e.to_string()))
        }
    }
}

/// Renders the full batch document: a `"service"` stats header
/// (counters, hit rate, latency histograms, plus the host's core count)
/// and the `"jobs"` rows.
pub fn report_document(stats: &Stats, rows: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    format!(
        "{{\n  \"service\": {{{}, \"nproc\": {nproc}}},\n  \"jobs\": [\n{}\n  ]\n}}\n",
        stats.json_fields(),
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_parsing_denies_input_files() {
        let doc = r#"[
{"algorithm": "improved", "input": "/no/such/dir/instance.graph"}
]"#;
        assert!(parse_job_specs(doc, FileAccess::Allowed).is_err_and(|e| e.contains("reading")));
        let err = parse_job_specs(doc, FileAccess::Denied).unwrap_err();
        assert!(err.contains("not served over the network"), "{err}");
    }

    #[test]
    fn generated_specs_share_graphs_and_echo_fields() {
        let doc = r#"[
{"algorithm": "improved", "family": "grid", "n": 36, "seed": 7},
{"algorithm": "greedy", "family": "grid", "n": 36, "seed": 7}
]"#;
        let specs = parse_job_specs(doc, FileAccess::Denied).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(
            Arc::ptr_eq(&specs[0].graph, &specs[1].graph),
            "identical instances share"
        );
        assert_eq!(
            (specs[0].family.as_str(), specs[0].requested_n, specs[0].seed),
            ("grid", 36, 7)
        );
    }

    #[test]
    fn retired_shards_key_still_replays() {
        // `"shards"` was a request knob once; recorded job and trace
        // files that carry it must parse to the same job and row.
        let with =
            r#"{"algorithm": "shortcut", "family": "grid", "n": 36, "seed": 7, "shards": 4}"#;
        let without = r#"{"algorithm": "shortcut", "family": "grid", "n": 36, "seed": 7}"#;
        let row = |line: &str| {
            let spec = &parse_job_specs(line, FileAccess::Denied).unwrap()[0];
            let mut report = decss_solver::SolverSession::new()
                .solve(&spec.graph, &spec.req)
                .unwrap();
            report.wall_ms = 0.0;
            let outcome = decss_service::JobOutcome {
                job: decss_service::JobId(0),
                report,
                cache_hit: false,
            };
            (spec.req.params_echo(), job_row(0, spec, &Ok(outcome)))
        };
        assert_eq!(row(with), row(without));
    }

    #[test]
    fn delta_vocabulary_round_trips() {
        assert_eq!(
            parse_delta("rw(3, 9)").unwrap(),
            GraphDelta::Reweight { edge: EdgeId(3), weight: 9 }
        );
        assert_eq!(parse_delta("del(5)").unwrap(), GraphDelta::Delete { edge: EdgeId(5) });
        assert!(parse_delta("explode(1)").is_err());
        assert_eq!(split_delta_list("rw(3,9), del(5)"), vec!["rw(3,9)", "del(5)"]);
    }
}
