//! Spans for the traced run. The benchmark opens them around its own
//! calls into each crate's public functions; none live inside the
//! program. Spans stay in memory and are written out when the run ends.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, job: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span { name, job, parent, start_ns, end_ns: start_ns });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span lock")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, job, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span measured elsewhere (a client's request, whose
    /// clock the load loop already read).
    pub fn record(&self, name: &'static str, job: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = Span {
            name,
            job,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        };
        self.spans.lock().expect("span lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Self time per span name, in ms, and the number of distinct jobs
    /// the name occurs in: each span's duration minus the part its
    /// children cover (children of one parent never overlap: the
    /// decomposition runs on one thread).
    pub fn self_ms(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut acc: BTreeMap<&'static str, (f64, BTreeSet<u64>)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            let entry = acc.entry(s.name).or_default();
            entry.0 += own as f64 / 1e6;
            entry.1.insert(s.job);
        }
        acc.into_iter()
            .map(|(name, (ms, jobs))| (name, (ms, jobs.len())))
            .collect()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// The cost of one span (open plus close), in ns, measured on an
    /// empty tracer so the recorded spans are untouched.
    pub fn span_cost_ns() -> f64 {
        let probe = Tracer::new();
        const N: usize = 20_000;
        let t = Instant::now();
        for i in 0..N {
            let id = probe.open("probe", i as u64, None);
            probe.close(id);
        }
        t.elapsed().as_nanos() as f64 / N as f64
    }
}
