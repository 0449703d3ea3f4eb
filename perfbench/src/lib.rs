//! # cloudsched-perfbench
//!
//! The repository benchmark. One command runs one of four workloads
//! (`table1-sweep`, `kernel-burst`, `serve-wal`, `fleet-p2c`) for a fixed
//! time, checks every output against a reference, and prints every metric
//! with its name and unit, then one JSON result line. `--trace 0` runs the
//! end-to-end measurement with no instrumentation beyond the admission
//! timestamps of `serve-wal`; `--trace 1` interleaves untraced iterations
//! with traced ones, whose wrappers around the library's public traits
//! split the time by layer. See `README.md` in this directory.
//!
//! Every workload is a closed loop driven by one caller. The benchmark
//! generates the inputs from `--seed` through `core::rng::derive_seed`;
//! the library sees only the generated inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod host;
pub mod kernel;
pub mod probe;
pub mod reference;
pub mod report;
pub mod serve;
pub mod stats;
pub mod sweep;

use cloudsched_obs::{Clock, MonotonicClock};
use host::{HostProbe, Reading};
use probe::{Probe, Span};
use report::{MetricDef, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table-I Monte-Carlo sweep.
    Table1Sweep,
    /// A fixed-horizon burst that keeps Θ(n) jobs queued.
    KernelBurst,
    /// Journaled admission service, crashed at the last arrival and
    /// recovered.
    ServeWal,
    /// A 64-machine fleet with power-of-two-choices dispatch.
    FleetP2c,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Table1Sweep,
        Workload::KernelBurst,
        Workload::ServeWal,
        Workload::FleetP2c,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Sweep => "table1-sweep",
            Workload::KernelBurst => "kernel-burst",
            Workload::ServeWal => "serve-wal",
            Workload::FleetP2c => "fleet-p2c",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Size::standard`] is the size `BENCHMARK.json` measures;
/// it is fixed for every commit. [`Size::tiny`] is for the self-test.
#[derive(Debug, Clone, PartialEq)]
pub struct Size {
    /// Table-I instances per sweep iteration.
    pub sweep_runs: usize,
    /// Jobs in each kernel burst.
    pub kernel_n: usize,
    /// Kernel burst instances per seed.
    pub kernel_instances: usize,
    /// Arrivals in the served stream.
    pub serve_arrivals: usize,
    /// Arrivals between snapshots.
    pub serve_snapshot_every: u64,
    /// Fleet size `M`.
    pub fleet_machines: usize,
    /// Fleet scenario horizon.
    pub fleet_horizon: f64,
    /// Fleet runs per iteration.
    pub fleet_runs: usize,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
}

impl Size {
    /// The measured size.
    pub fn standard() -> Size {
        Size {
            sweep_runs: 48,
            kernel_n: 100_000,
            kernel_instances: 3,
            serve_arrivals: 5_000,
            serve_snapshot_every: 1000,
            fleet_machines: 64,
            fleet_horizon: 250.0,
            fleet_runs: 4,
            setup_reps: 5,
        }
    }

    /// A size every workload runs in well under a second.
    pub fn tiny() -> Size {
        Size {
            sweep_runs: 3,
            kernel_n: 2000,
            kernel_instances: 2,
            serve_arrivals: 300,
            serve_snapshot_every: 50,
            fleet_machines: 4,
            fleet_horizon: 20.0,
            fleet_runs: 2,
            setup_reps: 1,
        }
    }
}

/// A journal fault to seed into `serve-wal`: starting at journal
/// operation `at_op` (appends and syncs counted from 0), the next
/// `failures` operations fail. With `failures` below the service's retry
/// budget of 3 the retries absorb it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalFault {
    /// First failing operation.
    pub at_op: u64,
    /// Consecutive failing operations.
    pub failures: u64,
}

/// Everything one benchmark run needs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the measurement runs, seconds (at least one iteration).
    pub seconds: f64,
    /// `false`: the end-to-end run. `true`: the traced run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Directory for journals and the span log; created if missing.
    pub tmp_dir: PathBuf,
    /// Expected combined digest of the reference outputs. `None` takes the
    /// recorded digest for this workload, seed and size, if there is one.
    pub expect_digest: Option<u64>,
    /// A journal fault to seed into `serve-wal`.
    pub journal_fault: Option<JournalFault>,
}

impl Config {
    /// The standard-size configuration the command line runs.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            size: Size::standard(),
            tmp_dir: PathBuf::from(".bench_tmp"),
            expect_digest: None,
            journal_fault: None,
        }
    }
}

/// Output checks: how many were made and how many failed.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Operations that errored or whose output did not match.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records one operation that errored.
    pub fn error(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(what);
    }

    fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// One iteration of a workload's timed unit of work.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Wall time of the timed work, nanoseconds.
    pub wall_ns: u64,
    /// Part of `wall_ns` spent inside journal syncs (`serve-wal`).
    pub sync_ns: u64,
    /// Jobs taken to a terminal state (arrivals through `serve`).
    pub jobs: u64,
    /// Realized value.
    pub value: f64,
    /// Arrived value.
    pub arrived: f64,
    /// Combined digest of the iteration's outputs.
    pub digest: u64,
    /// The iteration's output checks.
    pub checks: Checks,
    /// `serve-wal`: admission latency per arrival, nanoseconds.
    pub admit_ns: Vec<u64>,
    /// `serve-wal`: wall time of recovery, nanoseconds.
    pub recover_ns: u64,
    /// `serve-wal`: journal bytes appended.
    pub journal_bytes: u64,
    /// Traced iterations: per-layer metrics of this iteration.
    pub layers: BTreeMap<&'static str, f64>,
}

/// A prepared workload: inputs and references built, ready to iterate.
pub trait Bench {
    /// Runs the timed unit of work once and checks its outputs. With a
    /// probe, the library is reached through the tracing wrappers.
    fn iterate(&mut self, probe: Option<&Probe>) -> Iteration;
}

/// What a set-up hands back besides the prepared workload.
#[derive(Default)]
pub struct SetupReport {
    /// Checks of the reference outputs against the recorded digests.
    pub checks: Checks,
    /// Combined digest of the reference outputs.
    pub digest: u64,
    /// Per-layer metrics measured during set-up (input generation, for
    /// workloads that generate during set-up).
    pub layers: BTreeMap<&'static str, f64>,
}

fn setup(cfg: &Config, probe: Option<&Probe>) -> Result<(Box<dyn Bench>, SetupReport), String> {
    match cfg.workload {
        Workload::Table1Sweep => sweep::setup(cfg, probe),
        Workload::KernelBurst => kernel::setup(cfg, probe),
        Workload::ServeWal => serve::setup(cfg, probe),
        Workload::FleetP2c => fleet::setup(cfg, probe),
    }
}

/// Records the set-up's generation spans as the `workload.generate`
/// metrics.
pub(crate) fn generation_layers(probe: Option<&Probe>) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    if let Some(p) = probe {
        let calls = p.spans().iter().filter(|s| s.name == GENERATE).count();
        layers.insert("workload.generate.calls", calls as f64);
        layers.insert("workload.generate.ns", p.total_ns(GENERATE) as f64);
    }
    layers
}

/// Span name of an input-generation call.
pub const GENERATE: &str = "workload.generate";

/// Runs `f` inside a span when traced.
pub(crate) fn traced<R>(probe: Option<&Probe>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match probe {
        Some(p) => p.span(name, f),
        None => f(),
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// The reported metrics: the end-to-end set untraced, the per-layer
    /// set traced.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Metrics of the untraced iterations that are not in `metrics`
    /// (`value_fraction` and the serve metrics, untraced), and
    /// `failed_frac`; printed, not part of the result line.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Combined digest of the reference outputs.
    pub reference_digest: u64,
    /// Digest of every untraced iteration.
    pub untraced_digests: Vec<u64>,
    /// Digest of every traced iteration.
    pub traced_digests: Vec<u64>,
    /// Throughput of every untraced iteration in reference seconds, jobs/s,
    /// in run order.
    pub rates: Vec<f64>,
    /// Throughput of every untraced iteration in host seconds, jobs/s.
    pub host_rates: Vec<f64>,
    /// Median host probe reading of the run.
    pub host_probe: Reading,
    /// `serve-wal`: admission latency samples behind the percentiles.
    pub admit_samples: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The traced run's spans, tagged with their iteration.
    pub spans: Vec<(usize, Span)>,
}

/// Peak resident set of this process in MB (10⁶ bytes), from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Runs one benchmark: set-up (repeated, median reported), then
/// iterations until `cfg.seconds` have passed, then the metrics. Every
/// set-up and every untraced iteration is bracketed by host probe readings
/// and reported in reference seconds (see [`host`]).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.tmp_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.tmp_dir.display()))?;
    let clock = MonotonicClock::new();
    let syncs_journal = cfg.workload == Workload::ServeWal;
    let mut host = HostProbe::new(clock, syncs_journal.then_some(cfg.tmp_dir.as_path()));
    let mut readings = Vec::new();
    let mut read = |host: &mut HostProbe| -> Result<Reading, String> {
        let r = host.read()?;
        readings.push(r);
        Ok(r)
    };
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let mut before = read(&mut host)?;
    for _ in 0..cfg.size.setup_reps.max(1) {
        // The previous repetition's workload (and its temp files) goes
        // first, so every repetition sets up from the same state.
        drop(prepared.take());
        let probe = cfg.trace.then(|| Probe::new(clock));
        let t0 = clock.now_ns();
        let (bench, report) = setup(cfg, probe.as_ref())?;
        let host_ns = clock.now_ns().saturating_sub(t0) as f64;
        let after = read(&mut host)?;
        setup_s.push(before.mean(after).reference_ns(host_ns, 0.0) / 1e9);
        before = after;
        checks.absorb(report.checks);
        prepared = Some((bench, report.digest, report.layers));
    }
    let (mut bench, reference_digest, setup_layers) =
        prepared.ok_or("set-up produced no workload")?;

    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut rates = Vec::new();
    let mut spans = Vec::new();
    let start = clock.now_ns();
    let budget_ns = (cfg.seconds.max(0.0) * 1e9) as u64;
    loop {
        let it = bench.iterate(None);
        let after = read(&mut host)?;
        let sync_ns = it.sync_ns.min(it.wall_ns) as f64;
        let reference_ns = before
            .mean(after)
            .reference_ns(it.wall_ns as f64 - sync_ns, sync_ns);
        rates.push(it.jobs as f64 / (reference_ns.max(1.0) / 1e9));
        before = after;
        checks.absorb(it.checks.clone());
        untraced.push(it);
        if cfg.trace {
            let probe = Probe::new(clock);
            let it = bench.iterate(Some(&probe));
            checks.absorb(it.checks.clone());
            spans.extend(probe.spans().into_iter().map(|s| (traced.len(), s)));
            traced.push(it);
            before = read(&mut host)?;
        }
        if clock.now_ns().saturating_sub(start) >= budget_ns {
            break;
        }
    }
    drop(bench);

    // The interquartile mean over the run of each iteration's throughput in
    // reference seconds: the probes take out the host's drift, dropping the
    // outer quarters the rest of its noise.
    let jobs_per_s = stats::interquartile_mean(&rates);
    let host_rates = |its: &[Iteration]| -> Vec<f64> {
        its.iter()
            .map(|i| i.jobs as f64 / (i.wall_ns.max(1) as f64 / 1e9))
            .collect()
    };
    let median_of = |f: fn(&Reading) -> f64| {
        stats::median(&readings.iter().map(f).collect::<Vec<_>>())
    };
    let host_probe = Reading {
        cpu_ns: median_of(|r| r.cpu_ns),
        disk_ns: median_of(|r| r.disk_ns),
    };
    let admit_us: Vec<f64> = untraced
        .iter()
        .flat_map(|i| i.admit_ns.iter().map(|ns| *ns as f64 / 1e3))
        .collect();
    let value: f64 = untraced.iter().map(|i| i.value).sum();
    let arrived: f64 = untraced.iter().map(|i| i.arrived).sum();
    let value_fraction = if arrived > 0.0 { value / arrived } else { 0.0 };
    let mut untraced_metrics: Vec<(&'static str, f64)> = vec![("value_fraction", value_fraction)];
    if !admit_us.is_empty() {
        let arrivals = untraced[0].admit_ns.len().max(1);
        let decile = (arrivals / 10).max(1);
        let part = |range: std::ops::Range<usize>| {
            stats::median(
                &untraced
                    .iter()
                    .flat_map(|i| i.admit_ns.get(range.clone()).unwrap_or(&[]).iter())
                    .map(|ns| *ns as f64 / 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        untraced_metrics.extend([
            ("admit_p50_us", stats::median(&admit_us)),
            ("admit_p99_us", stats::percentile(&admit_us, 99.0)),
            (
                "recover_s",
                stats::median(
                    &untraced
                        .iter()
                        .map(|i| i.recover_ns as f64 / 1e9)
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "journal_bytes_per_arrival",
                untraced[0].journal_bytes as f64 / arrivals as f64,
            ),
            ("sim.service.arrival_us.first_decile", part(0..decile)),
            (
                "sim.service.arrival_us.last_decile",
                part(arrivals - decile..arrivals),
            ),
        ]);
    }

    let metrics: Vec<(&'static MetricDef, f64)> = if cfg.trace {
        let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
        for d in PER_LAYER {
            let samples: Vec<f64> = traced
                .iter()
                .filter_map(|i| i.layers.get(d.name).copied())
                .collect();
            let v = if samples.is_empty() {
                setup_layers.get(d.name).copied().unwrap_or(0.0)
            } else {
                stats::median(&samples)
            };
            values.insert(d.name, v);
        }
        for (name, v) in &untraced_metrics {
            values.insert(name, *v);
        }
        // Traced and untraced iterations alternate, so host time compares
        // them directly.
        let untraced_rate = stats::median(&host_rates(&untraced)).max(f64::MIN_POSITIVE);
        values.insert(
            "bench.tracing_overhead",
            stats::median(&host_rates(&traced)) / untraced_rate - 1.0,
        );
        PER_LAYER
            .iter()
            .map(|d| (d, values.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let e2e = [stats::median(&setup_s), jobs_per_s, peak_rss_mb()?];
        END_TO_END.iter().zip(e2e).collect()
    };

    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    let mut extra: Vec<(&'static str, f64, &'static str)> = untraced_metrics
        .iter()
        .filter(|(n, _)| !metrics.iter().any(|(d, _)| d.name == *n))
        .filter_map(|(n, v)| report::def(n).map(|d| (d.name, *v, d.unit)))
        .collect();
    extra.push(("failed_frac", failed_frac, "ratio"));
    Ok(Outcome {
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        extra,
        reference_digest,
        untraced_digests: untraced.iter().map(|i| i.digest).collect(),
        traced_digests: traced.iter().map(|i| i.digest).collect(),
        rates,
        host_rates: host_rates(&untraced),
        host_probe,
        admit_samples: admit_us.len(),
        failures: checks.failures,
        spans,
    })
}

/// Writes the traced run's spans as JSON lines: iteration, id, parent,
/// name, start, end and self time, nanoseconds.
pub fn write_spans(path: &std::path::Path, spans: &[(usize, Span)]) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut by_iter: BTreeMap<usize, Vec<Span>> = BTreeMap::new();
    for (i, s) in spans {
        by_iter.entry(*i).or_default().push(s.clone());
    }
    for (iter, list) in &by_iter {
        for s in list {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"iter\":{iter},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                probe::self_time(list, s)
            );
        }
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Fills the per-layer metrics that come straight from a tally: capacity,
/// scheduler calls and self time, dispatch, and journal I/O.
pub(crate) fn tally_layers(t: &probe::Tally, layers: &mut BTreeMap<&'static str, f64>) {
    use probe::C;
    let pairs: [(&'static str, u64); 20] = [
        ("capacity.calls", t.get(C::CapCalls)),
        ("capacity.ns", t.get(C::CapNs)),
        ("sched.release.calls", t.get(C::Release)),
        ("sched.completion.calls", t.get(C::Completion)),
        ("sched.deadline_miss.calls", t.get(C::DeadlineMiss)),
        ("sched.timer.calls", t.get(C::Timer)),
        ("sched.handler.ns", t.handler_self_ns()),
        ("sched.snapshot.calls", t.get(C::SnapshotCalls)),
        ("sched.snapshot.ns", t.get(C::SnapshotNs)),
        ("sched.restore.ns", t.get(C::RestoreNs)),
        ("sched.dispatch.calls", t.get(C::DispatchCalls)),
        ("sched.dispatch.ns", t.get(C::DispatchNs)),
        ("obs.journal.appends", t.get(C::JournalAppends)),
        ("obs.journal.append_bytes", t.get(C::JournalAppendBytes)),
        ("obs.journal.append_ns", t.get(C::JournalAppendNs)),
        ("obs.journal.syncs", t.get(C::JournalSyncs)),
        ("obs.journal.sync_ns", t.get(C::JournalSyncNs)),
        (
            "obs.journal.snapshot_records",
            t.get(C::JournalSnapshotRecords),
        ),
        ("obs.journal.snapshot_bytes", t.get(C::JournalSnapshotBytes)),
        ("obs.journal.errors", t.get(C::JournalErrors)),
    ];
    for (name, v) in pairs {
        layers.insert(name, v as f64);
    }
}

/// Converts the `--seed` argument into the first of `count` consecutive
/// run slots, so seed 0 replays slots `0..count` (the checked-in BENCH
/// configurations) and distinct seeds never share a slot.
pub(crate) fn first_slot(seed: u64, count: usize) -> Result<usize, String> {
    usize::try_from(seed)
        .ok()
        .and_then(|s| s.checked_mul(count))
        .filter(|first| first.checked_add(count).is_some())
        .ok_or_else(|| format!("seed {seed} is too large for {count} run slots"))
}

/// Span name of a `simulate_into` call.
pub const SIMULATE: &str = "sim.engine.simulate_into";

/// Simulates `spec` on `instance` in `ws`; through the tracing wrappers,
/// inside a [`SIMULATE`] span, when traced.
pub(crate) fn simulate(
    ws: &mut cloudsched_sim::SimWorkspace,
    instance: &cloudsched_capacity::Instance,
    spec: &cloudsched_bench::SchedulerSpec,
    probe: Option<&Probe>,
) -> cloudsched_sim::RunReport {
    use cloudsched_sim::{simulate_into, RunOptions};
    let mut scheduler = spec.build();
    match probe {
        None => simulate_into(
            ws,
            &instance.jobs,
            &instance.capacity,
            &mut *scheduler,
            RunOptions::lean(),
        ),
        Some(p) => p.span(SIMULATE, || {
            simulate_into(
                ws,
                &instance.jobs,
                &probe::TimedCapacity::new(&instance.capacity, &p.tally, p.clock),
                &mut probe::TimedScheduler::new(&mut *scheduler, &p.tally, p.clock),
                RunOptions::lean(),
            )
        }),
    }
}

/// Engine counters summed over one iteration of single-machine runs.
pub(crate) struct EngineTotals {
    runs0: u64,
    hits0: u64,
    events: u64,
    dispatches: u64,
    preemptions: u64,
}

impl EngineTotals {
    /// Starts counting; `ws` is the iteration's reused workspace.
    pub(crate) fn start(ws: &cloudsched_sim::SimWorkspace) -> Self {
        EngineTotals {
            runs0: ws.runs(),
            hits0: ws.reuse_hits(),
            events: 0,
            dispatches: 0,
            preemptions: 0,
        }
    }

    /// Adds one run's counts.
    pub(crate) fn add(&mut self, r: &cloudsched_sim::RunReport) {
        self.events += r.events as u64;
        self.dispatches += r.dispatches as u64;
        self.preemptions += r.preemptions as u64;
    }

    /// The per-layer metrics of a traced iteration: the tally's, engine
    /// self time, engine counts and workspace reuse.
    pub(crate) fn layers(
        &self,
        ws: &cloudsched_sim::SimWorkspace,
        p: &Probe,
    ) -> BTreeMap<&'static str, f64> {
        let mut layers = BTreeMap::new();
        tally_layers(&p.tally, &mut layers);
        layers.insert("sim.engine.self_ns", p.self_ns(SIMULATE) as f64);
        layers.insert("sim.engine.events", self.events as f64);
        layers.insert("sim.engine.dispatches", self.dispatches as f64);
        layers.insert("sim.engine.preemptions", self.preemptions as f64);
        let runs = ws.runs().saturating_sub(self.runs0).max(1);
        let hits = ws.reuse_hits().saturating_sub(self.hits0);
        layers.insert("sim.engine.reuse_hit_ratio", hits as f64 / runs as f64);
        layers
    }
}
