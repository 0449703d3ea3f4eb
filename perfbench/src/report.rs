//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric the benchmark
//! reports, with the unit and direction `BENCHMARK.json` records for it;
//! the self-test checks the two agree name for name.

use std::fmt::Write as _;

/// One metric: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as printed and as recorded in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as recorded in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of the untraced run, reported on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("jobs_per_s", "jobs/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Metrics of the traced run, reported on every workload (0 where a
/// workload never enters the layer). `value_fraction` and the four serve
/// metrics at the top are measured on the untraced iterations the traced
/// run interleaves.
pub const PER_LAYER: &[MetricDef] = &[
    m("value_fraction", "ratio", "higher"),
    m("admit_p50_us", "us", "lower"),
    m("admit_p99_us", "us", "lower"),
    m("recover_s", "s", "lower"),
    m("journal_bytes_per_arrival", "B", "lower"),
    m("workload.generate.calls", "count", "lower"),
    m("workload.generate.ns", "ns", "lower"),
    m("capacity.calls", "count", "lower"),
    m("capacity.ns", "ns", "lower"),
    m("sched.release.calls", "count", "lower"),
    m("sched.completion.calls", "count", "lower"),
    m("sched.deadline_miss.calls", "count", "lower"),
    m("sched.timer.calls", "count", "lower"),
    m("sched.handler.ns", "ns", "lower"),
    m("sched.snapshot.calls", "count", "lower"),
    m("sched.snapshot.ns", "ns", "lower"),
    m("sched.restore.ns", "ns", "lower"),
    m("sched.dispatch.calls", "count", "lower"),
    m("sched.dispatch.ns", "ns", "lower"),
    m("sim.engine.self_ns", "ns", "lower"),
    m("sim.engine.events", "count", "lower"),
    m("sim.engine.dispatches", "count", "lower"),
    m("sim.engine.preemptions", "count", "lower"),
    m("sim.engine.reuse_hit_ratio", "ratio", "higher"),
    m("sim.service.self_ns", "ns", "lower"),
    m("sim.service.arrival_us.first_decile", "us", "lower"),
    m("sim.service.arrival_us.last_decile", "us", "lower"),
    m("sim.service.admitted", "count", "higher"),
    m("sim.service.rejected", "count", "lower"),
    m("sim.service.recover.header_ns", "ns", "lower"),
    m("sim.service.recover.self_ns", "ns", "lower"),
    m("sim.service.recover.replayed", "count", "lower"),
    m("sim.fleet.dispatch_phase_ns", "ns", "lower"),
    m("sim.fleet.kernel_phase_ns", "ns", "lower"),
    m("sim.fleet.serial_frac", "ratio", "lower"),
    m("sim.fleet.machine_ns.median", "ns", "lower"),
    m("sim.fleet.machine_ns.max", "ns", "lower"),
    m("sim.fleet.kernel_busy_frac", "ratio", "higher"),
    m("sim.fleet.quarantined", "count", "lower"),
    m("sim.fleet.steals", "count", "higher"),
    m("sim.fleet.readmitted", "count", "higher"),
    m("sim.fleet.steal_ratio", "ratio", "higher"),
    m("obs.journal.appends", "count", "lower"),
    m("obs.journal.append_bytes", "B", "lower"),
    m("obs.journal.append_ns", "ns", "lower"),
    m("obs.journal.syncs", "count", "lower"),
    m("obs.journal.sync_ns", "ns", "lower"),
    m("obs.journal.snapshot_records", "count", "lower"),
    m("obs.journal.snapshot_bytes", "B", "lower"),
    m("obs.journal.errors", "count", "lower"),
    m("obs.trace.events", "count", "lower"),
    m("insight.ledger.ns", "ns", "lower"),
    m("bench.tracing_overhead", "ratio", "higher"),
];

/// Looks a metric up by name in both catalogues.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Formats a metric value as a JSON number with every digit measured:
/// Rust's shortest round-trip form, which never uses an exponent.
/// Non-finite values (never produced) become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`, metrics in catalogue order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static MetricDef, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(*v),
            d.unit
        );
    }
    out.push_str("}}");
    out
}
