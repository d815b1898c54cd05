//! End-to-end tests of the `decss` CLI binary.

use std::process::Command;

fn decss(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_decss"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn tempfile(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("decss-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write");
    path
}

#[test]
fn gen_solve_verify_roundtrip() {
    let (graph_text, _, ok) = decss(&["gen", "--family", "grid", "--n", "25", "--seed", "3"]);
    assert!(ok, "gen failed");
    assert!(graph_text.starts_with("p 25 "));
    let path = tempfile("grid.graph", &graph_text);
    let path = path.to_str().expect("utf8 path");

    for algorithm in ["improved", "basic", "shortcut", "greedy", "unweighted"] {
        let (out, err, ok) = decss(&["solve", "--input", path, "--algorithm", algorithm]);
        assert!(ok, "solve {algorithm} failed: {err}");
        assert!(out.contains("valid-2ecss: true"), "{algorithm}: {out}");
        // Feed the reported edges back into verify.
        let edges_line = out
            .lines()
            .find(|l| l.starts_with("edges: "))
            .expect("edges line")
            .trim_start_matches("edges: ")
            .to_string();
        let (vout, verr, vok) = decss(&["verify", "--input", path, "--edges", &edges_line]);
        assert!(vok, "verify after {algorithm} failed: {verr}");
        assert!(vout.contains("valid-2ecss: true"));
    }
}

#[test]
fn verify_rejects_a_tree() {
    let (graph_text, _, _) = decss(&["gen", "--family", "cycle", "--n", "16"]);
    // "cycle" is not a family label; expect failure with a helpful message.
    assert!(graph_text.is_empty());
    let (_, err, ok) = decss(&["gen", "--family", "cycle", "--n", "16"]);
    assert!(!ok);
    assert!(err.contains("unknown family"));

    // Generate a real instance, then verify a non-spanning subset.
    let (text, _, ok) = decss(&["gen", "--family", "sparse-random", "--n", "12", "--seed", "1"]);
    assert!(ok);
    let path = tempfile("sparse.graph", &text);
    let path = path.to_str().expect("utf8 path");
    let (_, err, ok) = decss(&["verify", "--input", path, "--edges", "0,1,2"]);
    assert!(!ok);
    assert!(err.contains("not a spanning 2-edge-connected subgraph"));
}

#[test]
fn scenario_sweeps_the_grid_and_emits_json() {
    let (out, err, ok) = decss(&[
        "scenario",
        "--families",
        "grid,outerplanar",
        "--sizes",
        "36,64",
        "--seeds",
        "0,1",
        "--algorithms",
        "shortcut,improved",
    ]);
    assert!(ok, "scenario failed: {err}");
    // 2 families x 2 sizes x 2 seeds x 2 algorithms = 16 runs.
    assert_eq!(out.matches("\"algorithm\": \"shortcut\"").count(), 8, "{out}");
    assert_eq!(out.matches("\"algorithm\": \"improved\"").count(), 8);
    assert_eq!(out.matches("\"valid\": true").count(), 16);
    assert!(out.contains("\"measured_sc\":"));
    assert!(out.contains("\"certified_ratio\":"));
    assert!(out.contains("\"nproc\":"));
    // Progress goes to stderr, not into the JSON document.
    assert!(err.contains("scenario:"));
    assert!(!out.contains("scenario: grid"));

    // --out writes the same document to a file instead of stdout.
    let path = std::env::temp_dir().join("decss-cli-tests").join("scenario.json");
    std::fs::create_dir_all(path.parent().unwrap()).expect("temp dir");
    let path_str = path.to_str().expect("utf8 path");
    let (out, _, ok) =
        decss(&["scenario", "--families", "grid", "--sizes", "36", "--out", path_str]);
    assert!(ok);
    assert!(out.is_empty(), "JSON must not leak to stdout with --out");
    let written = std::fs::read_to_string(&path).expect("scenario file");
    assert!(written.contains("\"runs\": ["));

    // Unknown algorithms and families are rejected (with the registry
    // vocabulary echoed back).
    let (_, err, ok) = decss(&[
        "scenario",
        "--families",
        "grid",
        "--sizes",
        "16",
        "--algorithms",
        "mystery",
    ]);
    assert!(!ok);
    assert!(err.contains("unknown algorithm"));
    assert!(err.contains("shortcut"), "error should list the registry: {err}");
    let (_, err, ok) = decss(&["scenario", "--families", "mystery", "--sizes", "16"]);
    assert!(!ok);
    assert!(err.contains("unknown family"));
}

#[test]
fn algorithms_lists_the_registry_and_every_name_solves() {
    let (out, _, ok) = decss(&["algorithms"]);
    assert!(ok);
    for name in ["improved", "basic", "shortcut", "greedy", "unweighted", "exact"] {
        assert!(out.contains(name), "algorithms output misses {name}: {out}");
    }

    let (names, _, ok) = decss(&["algorithms", "--names"]);
    assert!(ok);
    let names: Vec<&str> = names.lines().collect();
    assert!(names.len() >= 6, "{names:?}");

    // Every registered name solves a small instance end to end (m = 12
    // on a 3x3 grid, inside even the exact solver's edge cap).
    let (graph_text, _, ok) = decss(&["gen", "--family", "grid", "--n", "9", "--seed", "1"]);
    assert!(ok);
    let path = tempfile("tiny-grid.graph", &graph_text);
    let path = path.to_str().expect("utf8 path");
    for name in &names {
        let (out, err, ok) = decss(&["solve", "--input", path, "--algorithm", name]);
        assert!(ok, "solve {name} failed: {err}");
        assert!(out.contains("valid-2ecss: true"), "{name}: {out}");
        assert!(out.contains("certified-ratio:"), "{name}: {out}");
    }
}

#[test]
fn solve_knobs_json_trace_and_deadline() {
    let (graph_text, _, ok) = decss(&["gen", "--family", "grid", "--n", "36", "--seed", "5"]);
    assert!(ok);
    let path = tempfile("knobs-grid.graph", &graph_text);
    let path = path.to_str().expect("utf8 path");

    // --json emits the canonical SolveReport object.
    let (out, err, ok) = decss(&["solve", "--input", path, "--algorithm", "shortcut", "--json"]);
    assert!(ok, "{err}");
    assert!(out.starts_with('{') && out.trim_end().ends_with('}'), "{out}");
    assert!(out.contains("\"algorithm\": \"shortcut\""));
    assert!(out.contains("\"measured_sc\":"));
    assert!(out.contains("\"edge_ids\": ["));

    // --bandwidth rescales rounds; --fail-edges removes seeded edges;
    // --trace summary adds phase lines.
    let (out, err, ok) = decss(&[
        "solve",
        "--input",
        path,
        "--algorithm",
        "improved",
        "--bandwidth",
        "4",
        "--fail-edges",
        "2",
        "--seed",
        "3",
        "--trace",
        "summary",
    ]);
    assert!(ok, "{err}");
    assert!(out.contains("effective-rounds:"), "{out}");
    assert!(out.contains("failed-edges:"), "{out}");
    assert!(out.contains("trace: layers="), "{out}");
    assert!(out.contains("valid-2ecss: true"), "{out}");

    // The reported edges are in the *original* input's id space even
    // after failure injection — they round-trip through verify.
    let edges_line = out
        .lines()
        .find(|l| l.starts_with("edges: "))
        .expect("edges line")
        .trim_start_matches("edges: ")
        .to_string();
    let (vout, verr, vok) = decss(&["verify", "--input", path, "--edges", &edges_line]);
    assert!(vok, "verify after fail-edges solve failed: {verr}");
    assert!(vout.contains("valid-2ecss: true"));

    // An impossible deadline fails fast with the unified error.
    let (_, err, ok) = decss(&[
        "solve",
        "--input",
        path,
        "--algorithm",
        "improved",
        "--deadline-ms",
        "0",
    ]);
    assert!(!ok);
    assert!(err.contains("deadline"), "{err}");

    // The exact solver's size cap surfaces as a clean error on a big
    // instance (6x6 grid has 60 edges > 22).
    let (_, err, ok) = decss(&["solve", "--input", path, "--algorithm", "exact"]);
    assert!(!ok);
    assert!(err.contains("limited to"), "{err}");
}

#[test]
fn scenario_bandwidth_and_failure_knobs_reach_the_sweep_json() {
    let (out, err, ok) = decss(&[
        "scenario",
        "--families",
        "grid",
        "--sizes",
        "49",
        "--seeds",
        "0,1",
        "--algorithms",
        "shortcut,greedy",
        "--bandwidth",
        "4",
        "--fail-edges",
        "2",
    ]);
    assert!(ok, "scenario failed: {err}");
    assert!(out.contains("\"bandwidth\": 4"), "{out}");
    assert!(out.contains("\"fail_edges\": 2"), "{out}");
    assert!(out.contains("\"effective_rounds\":"), "{out}");
    assert!(out.contains("\"failed_edges\": ["), "{out}");
    // greedy has no round model: rows still render, with no rounds field.
    assert_eq!(out.matches("\"algorithm\": \"greedy\"").count(), 2);
    assert_eq!(out.matches("\"valid\": true").count(), 4, "{out}");
    // Each seed removes its own edges deterministically.
    let (again, _, ok) = decss(&[
        "scenario",
        "--families",
        "grid",
        "--sizes",
        "49",
        "--seeds",
        "0,1",
        "--algorithms",
        "shortcut,greedy",
        "--bandwidth",
        "4",
        "--fail-edges",
        "2",
    ]);
    assert!(ok);
    let strip_wall = |s: &str| {
        s.lines()
            .map(|l| l.split(", \"wall_ms\"").next().unwrap_or(l).to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip_wall(&out), strip_wall(&again), "sweeps must be deterministic");
}

#[test]
fn bad_usage_is_reported() {
    let (_, err, ok) = decss(&[]);
    assert!(!ok);
    assert!(err.contains("usage"));
    let (_, err, ok) = decss(&["solve"]);
    assert!(!ok);
    assert!(err.contains("--input"));
    let (_, err, ok) = decss(&["solve", "--input", "/nonexistent/x.graph"]);
    assert!(!ok);
    assert!(err.contains("reading"));
}

#[test]
fn unknown_flags_are_rejected_per_subcommand() {
    // `--shards` was a solve knob once; it must not be swallowed now.
    let (_, err, code) = decss_code(&["solve", "--input", "g.graph", "--shards", "2"]);
    assert_eq!(code, Some(1));
    assert!(err.contains("unknown flag --shards"), "{err}");
    assert!(err.contains("usage"), "{err}");
    let (_, err, code) = decss_code(&["gen", "--family", "grid", "--n", "9", "--bogus", "3"]);
    assert_eq!(code, Some(1));
    assert!(err.contains("--bogus"), "{err}");
    // A flag valid for one subcommand is still unknown to another.
    let (_, err, code) = decss_code(&["verify", "--input", "g.graph", "--edges", "0", "--json"]);
    assert_eq!(code, Some(1));
    assert!(err.contains("--json"), "{err}");
}

#[test]
fn closed_stdout_exits_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // ~400 KB of output: far more than a pipe buffer, so the writer is
    // still blocked when the reader hangs up after one line.
    let mut child = Command::new(env!("CARGO_BIN_EXE_decss"))
        .args(["gen", "--family", "grid", "--n", "20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("p "), "{first}");
    let out = child.wait_with_output().expect("binary exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a truncated write must not report success");
    assert!(!err.contains("panicked"), "{err}");
}

/// Like [`decss`] but returns the raw exit code — the batch exit
/// contract distinguishes partial failure (2) from infrastructure
/// errors (1).
fn decss_code(args: &[&str]) -> (String, String, Option<i32>) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_decss"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn serve_exit_codes_distinguish_partial_failure_from_infrastructure() {
    // A clean batch exits 0.
    let ok_path = tempfile(
        "jobs-exit-ok.json",
        "[\n{\"algorithm\": \"greedy\", \"family\": \"grid\", \"n\": 16}\n]",
    );
    let (_, _, code) = decss_code(&["serve", "--jobs", ok_path.to_str().unwrap()]);
    assert_eq!(code, Some(0));

    // A batch with a failing job still reports every row, but exits 2.
    let mixed = concat!(
        "[\n",
        "{\"algorithm\": \"greedy\", \"family\": \"grid\", \"n\": 16},\n",
        "{\"algorithm\": \"no-such-algorithm\", \"family\": \"grid\", \"n\": 16}\n",
        "]"
    );
    let mixed_path = tempfile("jobs-exit-mixed.json", mixed);
    let mixed_path = mixed_path.to_str().unwrap();
    let (out, err, code) = decss_code(&["serve", "--jobs", mixed_path]);
    assert_eq!(code, Some(2), "partial failure is exit 2\nstderr: {err}");
    assert_eq!(
        out.matches("\"job\":").count(),
        2,
        "the document covers the whole batch: {out}"
    );
    assert!(out.contains("\"error\""), "{out}");
    assert!(err.contains("1 of 2 jobs failed"), "{err}");

    // --keep-going downgrades partial failure to success.
    let (out, _, code) = decss_code(&["serve", "--jobs", mixed_path, "--keep-going"]);
    assert_eq!(code, Some(0), "--keep-going accepts partial failure");
    assert!(out.contains("\"error\""), "{out}");

    // Infrastructure errors (unreadable input, bad flags) exit 1.
    let (_, err, code) = decss_code(&["serve", "--jobs", "/no/such/jobs.json"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("reading"), "{err}");
    let (_, err, code) = decss_code(&["no-such-subcommand"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("usage"), "{err}");
}

#[test]
fn netstress_smoke_passes_the_contract() {
    let (out, err, code) =
        decss_code(&["netstress", "--seed", "11", "--ops", "12", "--threads", "3"]);
    assert_eq!(code, Some(0), "stdout: {out}\nstderr: {err}");
    assert!(out.contains("netstress: PASS"), "{out}");
}

#[test]
fn trace_gen_is_seed_deterministic_and_replayable() {
    let (text_a, _, code) = decss_code(&["trace", "gen", "--seed", "21", "--jobs", "8"]);
    assert_eq!(code, Some(0));
    let (text_b, _, _) = decss_code(&["trace", "gen", "--seed", "21", "--jobs", "8"]);
    assert_eq!(text_a, text_b, "same seed must emit byte-identical traces");
    let (text_c, _, _) = decss_code(&["trace", "gen", "--seed", "22", "--jobs", "8"]);
    assert_ne!(text_a, text_c, "different seeds must differ");
    assert!(
        text_a.lines().next().unwrap().contains("\"trace_version\""),
        "{text_a}"
    );
    assert_eq!(text_a.lines().filter(|l| l.contains("\"algorithm\"")).count(), 8);

    // Round-trip: the generated trace replays through `serve --trace`
    // with one report row per event and exit 0 even when the trace
    // deliberately includes cancellations or expiries.
    let path = tempfile("trace-roundtrip.jsonl", &text_a);
    let path = path.to_str().unwrap();
    let (out, err, code) = decss_code(&["serve", "--trace", path, "--workers", "2"]);
    assert_eq!(code, Some(0), "stderr: {err}");
    assert_eq!(out.matches("\"job\":").count(), 8, "{out}");
    assert!(out.contains("\"replay\""), "{out}");
    assert!(out.contains("\"tail_ms\""), "{out}");

    // `trace replay --input` runs the same engine.
    let (out2, _, code) = decss_code(&["trace", "replay", "--input", path, "--workers", "2"]);
    assert_eq!(code, Some(0));
    let strip = |doc: &str| {
        doc.lines()
            .filter(|l| l.contains("\"job\""))
            .map(|l| {
                let mut s = l.to_string();
                if let Some(i) = s.find("\"cache_hit\": ") {
                    let j = i + s[i..].find(", ").unwrap() + 2;
                    s.replace_range(i..j, "");
                }
                if let Some(i) = s.find(", \"wall_ms\": ") {
                    let j = i + s[i..].find('}').unwrap();
                    s.replace_range(i..j, "");
                }
                s
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        strip(&out),
        strip(&out2),
        "replay rows are deterministic across entry points"
    );
}

#[test]
fn trace_cmd_rejects_bad_invocations() {
    let (_, err, code) = decss_code(&["trace"]);
    assert_eq!(code, Some(1));
    assert!(err.contains("trace gen"), "{err}");
    let (_, err, code) = decss_code(&["trace", "replay"]);
    assert_eq!(code, Some(1));
    assert!(err.contains("--input"), "{err}");
    let (_, err, code) = decss_code(&["trace", "gen", "--arrival", "nope"]);
    assert_eq!(code, Some(1));
    assert!(err.contains("arrival"), "{err}");
}
