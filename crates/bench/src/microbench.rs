//! A minimal std-only micro-benchmark harness.
//!
//! The sandbox build has no registry access, so the workspace cannot depend
//! on Criterion. This module provides the small slice of it the benches
//! actually use: warm-up, adaptive batching to a target sample duration, and
//! a min/median/mean report per benchmark.
//!
//! Timing uses `std::time::Instant`, which is monotonic. The harness lives in
//! `cloudsched-bench` (measurement code), never in the simulator: simulated
//! time must stay virtual (lint rule L005).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of timed samples per benchmark.
const SAMPLES: usize = 10;

/// Target wall-clock duration of one sample batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(25);

/// A named group of benchmarks, printed as one table.
pub struct BenchGroup {
    name: String,
    rows: Vec<(String, Stats)>,
}

/// Summary statistics over the per-iteration sample times (nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest sample (ns/iter) — least noise, the headline number.
    pub min_ns: f64,
    /// Median sample (ns/iter).
    pub median_ns: f64,
    /// Mean sample (ns/iter).
    pub mean_ns: f64,
    /// Iterations per sample batch.
    pub iters: u64,
}

impl BenchGroup {
    /// Creates a group titled `name`.
    pub fn new(name: &str) -> Self {
        BenchGroup {
            name: name.to_string(),
            rows: Vec::new(),
        }
    }

    /// Times `f`, recording a row labelled `label`. The closure's return
    /// value is passed through [`black_box`] so the work is not optimized out.
    pub fn bench<T, F: FnMut() -> T>(&mut self, label: &str, mut f: F) -> Stats {
        // Warm-up + calibration: find how many iterations fill the target.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let mut per_iter: Vec<f64> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter.sort_by(f64::total_cmp);
        let stats = Stats {
            min_ns: per_iter[0],
            median_ns: per_iter[per_iter.len() / 2],
            mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
            iters,
        };
        self.rows.push((label.to_string(), stats));
        stats
    }

    /// Prints the group as an aligned table.
    pub fn report(&self) {
        println!("\n== {} ==", self.name);
        println!(
            "{:<40} {:>12} {:>12} {:>12} {:>8}",
            "benchmark", "min", "median", "mean", "iters"
        );
        for (label, s) in &self.rows {
            println!(
                "{:<40} {:>12} {:>12} {:>12} {:>8}",
                label,
                fmt_ns(s.min_ns),
                fmt_ns(s.median_ns),
                fmt_ns(s.mean_ns),
                s.iters
            );
        }
    }
}

/// Formats nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_records() {
        let mut g = BenchGroup::new("test");
        let s = g.bench("sum", || (0..100u64).sum::<u64>());
        assert!(s.min_ns >= 0.0);
        assert!(s.iters >= 1);
        assert_eq!(g.rows.len(), 1);
        g.report();
    }

    #[test]
    fn formatting_units() {
        assert!(fmt_ns(12.0).ends_with("ns"));
        assert!(fmt_ns(12_000.0).ends_with("µs"));
        assert!(fmt_ns(12_000_000.0).ends_with("ms"));
        assert!(fmt_ns(12_000_000_000.0).ends_with(" s"));
    }
}
