//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric with its name and unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exit status: 0 when every output check passed, 1 when a
//! check failed or the run could not complete, 2 on a usage error.

#![forbid(unsafe_code)]

use cloudsched_perfbench::{run, write_spans, Config, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload table1-sweep|kernel-burst|serve-wal|fleet-p2c [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = cloudsched_perfbench::reference::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        format!("--seconds: expected a non-negative number, got `{value}`")
                    })?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config::new(workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    println!(
        "{} seed {} {}: {} iterations, reference digest {:016x}",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        outcome.rates.len(),
        outcome.reference_digest
    );
    for (d, v) in &outcome.metrics {
        println!(
            "  {:<40} {:>18} {:<7} ({} is better)",
            d.name,
            format!("{v:.6}"),
            d.unit,
            d.better
        );
    }
    for (name, v, unit) in &outcome.extra {
        println!("  {name:<40} {:>18} {unit}", format!("{v:.6}"));
    }
    for (what, rates) in [
        ("reference", &outcome.rates),
        ("host", &outcome.host_rates),
    ] {
        let mut rates = rates.clone();
        rates.sort_by(f64::total_cmp);
        if let (Some(lo), Some(hi)) = (rates.first(), rates.last()) {
            println!(
                "  per-iteration jobs/s, {what} seconds: min {lo:.1}, median {:.1}, max {hi:.1}",
                cloudsched_perfbench::stats::median(&rates)
            );
        }
    }
    let probe = outcome.host_probe;
    println!(
        "  host probe (median): cpu {:.3} ms (reference {:.3}), disk {:.3} ms (reference {:.3}, 0 = off)",
        probe.cpu_ns / 1e6,
        cloudsched_perfbench::host::CPU_REF_NS / 1e6,
        probe.disk_ns / 1e6,
        cloudsched_perfbench::host::DISK_REF_NS / 1e6
    );
    if outcome.admit_samples > 0 {
        println!("  admission latency samples: {}", outcome.admit_samples);
    }
    if cfg.trace {
        let path = cfg.tmp_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        match write_spans(&path, &outcome.spans) {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: {e}"),
        }
    }
    for f in &outcome.failures {
        println!("  FAILED: {f}");
    }
    println!(
        "{}",
        cloudsched_perfbench::report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
