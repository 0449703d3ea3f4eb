//! The fleet-scaling benchmark behind `cloudsched bench --suite fleet`:
//! per-machine kernels fanned out over `core::par` — the first workload
//! where `--threads N` buys real wall-clock speedup (`DESIGN.md` §16).
//!
//! Each `(machines, threads)` cell runs the same Monte-Carlo fleet runs —
//! power-of-two-choices dispatch over V-Dover machines on the fleet Table-I
//! scenario — and times the whole thing. Rows are paired by `machines`:
//! every thread count must reproduce the *identical* per-run fleet digests
//! (value bits, completed, events, preemptions, dispatches per machine,
//! plus the quarantine/steal counters), and [`run_fleet_bench`] refuses to
//! emit a report whose rows diverge within a pair. Thread-count invariance
//! is a hard output contract, not a statistical observation.
//!
//! Timing flows through the [`cloudsched_obs::Clock`] seam
//! ([`MonotonicClock`] — the bench crate is the sanctioned wall-clock
//! user, lint rules L005/L006).

use crate::report::{fnv1a, validate, Row, FLEET, FNV_OFFSET};
use crate::SchedulerSpec;
use cloudsched_core::rng::{derive_seed, FLEET_DISPATCH_RUN_OFFSET, SEED_STREAM_FLEET};
use cloudsched_obs::{Clock, MonotonicClock};
use cloudsched_sched::DispatchPolicy;
use cloudsched_sim::{run_fleet, FleetReport, RunOptions, Scheduler};
use cloudsched_workload::FleetScenario;

/// Fleet suite configuration.
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// Per-machine arrival rate of the fleet Table-I scenario (default 8).
    pub lambda: f64,
    /// Scenario horizon (default 250 — the paper's `2000/λ` at λ = 8,
    /// ≈ 2000 jobs per machine).
    pub horizon: f64,
    /// Fleet sizes to sweep (default `[4, 16, 64]`).
    pub machines: Vec<usize>,
    /// Thread counts to pair per fleet size (default `[1, 4]`).
    pub threads: Vec<usize>,
    /// Monte-Carlo fleet runs per cell (default 4).
    pub runs: usize,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        FleetBenchConfig {
            lambda: 8.0,
            horizon: 250.0,
            machines: vec![4, 16, 64],
            threads: vec![1, 4],
            runs: 4,
        }
    }
}

impl FleetBenchConfig {
    /// CI smoke configuration: tiny horizon, fleets of 2 and 4, threads 1
    /// and 2 — fast enough for every commit, still exercising the
    /// serial-vs-threaded digest pairing.
    pub fn quick() -> Self {
        FleetBenchConfig {
            lambda: 6.0,
            horizon: 8.0,
            machines: vec![2, 4],
            threads: vec![1, 2],
            runs: 2,
        }
    }
}

/// Digest of one fleet run: the per-machine observables in machine-index
/// order, then the fleet-level dispatch counters. Everything the digest
/// covers must be a pure function of `(seed, M, policy)`.
pub fn fleet_digest(report: &FleetReport) -> u64 {
    let mut h = FNV_OFFSET;
    for m in &report.per_machine {
        for word in [
            m.report.value.to_bits(),
            m.report.completed as u64,
            m.report.events as u64,
            m.report.preemptions as u64,
            m.report.dispatches as u64,
        ] {
            h = fnv1a(h, word);
        }
    }
    for word in [
        report.quarantined as u64,
        report.steals as u64,
        report.readmitted as u64,
    ] {
        h = fnv1a(h, word);
    }
    h
}

/// One Monte-Carlo fleet run of the suite: instance from run slot `run`,
/// p2c dispatch seeded from the offset run slot, V-Dover (k = 7, δ = 35)
/// per machine.
pub fn fleet_suite_run(
    cfg: &FleetBenchConfig,
    m: usize,
    run: usize,
    threads: usize,
) -> FleetReport {
    let scenario = FleetScenario::table1(cfg.lambda, m).with_horizon(cfg.horizon);
    let seed = derive_seed(SEED_STREAM_FLEET, cfg.lambda, run);
    let instance = scenario
        .generate(seed)
        .expect("fleet scenario generation is infallible for valid configs");
    let mut dispatch = DispatchPolicy::PowerOfTwo.build(derive_seed(
        SEED_STREAM_FLEET,
        cfg.lambda,
        FLEET_DISPATCH_RUN_OFFSET + run,
    ));
    let spec = SchedulerSpec::VDover {
        k: 7.0,
        delta: 35.0,
    };
    let factory = move |_m: usize| -> Box<dyn Scheduler> { spec.build() };
    run_fleet(
        &instance.jobs,
        &instance.machines,
        dispatch.as_mut(),
        &factory,
        RunOptions::lean(),
        threads,
    )
}

/// Runs the full fleet suite: for each fleet size, one cell per thread
/// count, every cell replaying the identical run sequence. `progress`
/// receives one line per completed cell.
///
/// # Panics
/// If two cells of the same fleet size disagree on digest or steal count —
/// output that depends on the thread count is a correctness bug, and the
/// bench refuses to report throughput for it.
pub fn run_fleet_bench(cfg: &FleetBenchConfig, mut progress: impl FnMut(&Row)) -> Vec<Row> {
    let clock = MonotonicClock::new();
    let mut rows: Vec<Row> = Vec::new();
    for &m in &cfg.machines {
        for &threads in &cfg.threads {
            let t0 = clock.now_ns();
            let mut h = FNV_OFFSET;
            let mut steals = 0u64;
            for run in 0..cfg.runs {
                let report = fleet_suite_run(cfg, m, run, threads);
                h = fnv1a(h, fleet_digest(&report));
                steals += report.steals as u64;
            }
            let wall_ns = clock.now_ns().saturating_sub(t0).max(1);
            let row = Row::new(
                &FLEET,
                &[
                    &m,
                    &threads,
                    &cfg.runs,
                    &(wall_ns as f64 / 1e6),
                    &(cfg.runs as f64 / (wall_ns as f64 / 1e9)),
                    &steals,
                    &format!("{h:016x}"),
                    &SEED_STREAM_FLEET,
                ],
            );
            progress(&row);
            rows.push(row);
        }
    }
    validate(&rows).expect("invariant: every thread count yields equal bytes for one fleet size");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{parse, to_json};

    fn tiny() -> FleetBenchConfig {
        FleetBenchConfig {
            lambda: 4.0,
            horizon: 5.0,
            machines: vec![2, 3],
            threads: vec![1, 2],
            runs: 2,
        }
    }

    #[test]
    fn fleet_rows_round_trip_through_the_schema() {
        let rows = run_fleet_bench(&tiny(), |_| {});
        assert_eq!(rows.len(), 4, "2 fleet sizes x 2 thread counts");
        let json = to_json(&rows);
        let back = parse(&json).expect("round trip");
        assert_eq!(back, rows);
    }

    #[test]
    fn digests_pair_within_a_fleet_size_and_differ_across_sizes() {
        let rows = run_fleet_bench(&tiny(), |_| {});
        let digests = |m: &str| -> Vec<&str> {
            rows.iter()
                .filter(|r| r.get("machines") == m)
                .map(|r| r.get("digest"))
                .collect()
        };
        let (d2, d3) = (digests("2"), digests("3"));
        assert!(d2.windows(2).all(|w| w[0] == w[1]));
        assert!(d3.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(d2[0], d3[0], "different fleets, different workloads");
    }
}
