//! Measurement helpers: the seeded generator the workloads draw from,
//! latency summaries, process CPU time and peak memory.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// SplitMix64: a small seeded generator, so a workload's inputs depend
/// on the run seed and this file alone, not on any crate's stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is irrelevant
    /// at these bounds).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// An independent seed per `(run seed, salt)`, kept below 2^53 so it
/// survives the job dialect's JSON numbers unchanged.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64() >> 11
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// A latency sample summarised as its median and its tail.
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    /// The tail's percentile: the highest of 50, 90, 99 and 99.9 with at
    /// least ten samples beyond it.
    pub tail_pct: f64,
    pub samples: usize,
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn summarize(latencies: &[f64]) -> Latency {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let beyond = |pct: f64| n - ((pct / 100.0) * n as f64).ceil() as usize;
    let tail_pct = [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&pct| beyond(pct) >= 10)
        .unwrap_or(50.0);
    Latency {
        p50: percentile(&sorted, 50.0),
        tail: percentile(&sorted, tail_pct),
        tail_pct,
        samples: n,
    }
}

/// User plus system CPU time of the whole process (every thread, live
/// or exited), from `/proc/self/stat` in clock ticks of 1/100 s.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A content hash, for checking that repeated answers to one job are
/// byte-identical without keeping every answer.
pub fn digest(parts: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=150).map(f64::from).collect();
        let l = summarize(&xs);
        assert_eq!((l.tail_pct, l.tail, l.p50), (90.0, 135.0, 75.0));
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(summarize(&few).tail_pct, 50.0);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(summarize(&many).tail_pct, 99.0);
    }
}
