//! `kernel-burst`: EDF and V-Dover on `kernel_bench::bench_instance`, a
//! fixed-horizon burst of `n` jobs (90 % urgent) on CTMC capacity
//! {0.01, 35}. Every queue holds Θ(n) live jobs, so the ready queues and
//! the event calendar dominate. The instances (one per run slot, several
//! per seed, since each follows its own capacity path and so its own queue
//! depths) are built during set-up; the reference runs the same schedulers
//! on the reference binary-heap event queue. Every iteration runs every
//! instance.

use crate::probe::Probe;
use crate::stats::{combine, Fnv};
use crate::{simulate, traced, Bench, Config, EngineTotals, Iteration, SetupReport, GENERATE};
use cloudsched_bench::{kernel_bench::bench_instance, SchedulerSpec};
use cloudsched_capacity::Instance;
use cloudsched_core::rng::derive_seed;
use cloudsched_obs::{Clock, MonotonicClock};
use cloudsched_sim::{simulate_into, RunOptions, SimWorkspace};

/// Seed stream of the burst instances (`derive_seed`'s stream argument).
const KERNEL_BURST_STREAM: u64 = 0xB0_0057;

/// The `derive_seed` rate argument: the burst has no rate parameter of its
/// own, so the stream is indexed by the seed alone.
const STREAM_RATE: f64 = 0.0;

fn specs() -> [SchedulerSpec; 2] {
    [
        SchedulerSpec::Edf,
        SchedulerSpec::VDover {
            k: 7.0,
            delta: 35.0,
        },
    ]
}

struct Kernel {
    /// Each instance with its reference digest per scheduler.
    instances: Vec<(Instance, Vec<u64>)>,
    ws: SimWorkspace,
}

/// Builds the burst instances and runs the reference schedules.
pub fn setup(cfg: &Config, probe: Option<&Probe>) -> Result<(Box<dyn Bench>, SetupReport), String> {
    let count = cfg.size.kernel_instances.max(1);
    let first = crate::first_slot(cfg.seed, count)?;
    let mut instances = Vec::with_capacity(count);
    for slot in first..first + count {
        let instance = traced(probe, GENERATE, || {
            bench_instance(
                cfg.size.kernel_n,
                derive_seed(KERNEL_BURST_STREAM, STREAM_RATE, slot),
            )
        });
        let reference: Vec<u64> = specs()
            .iter()
            .map(|spec| {
                let mut scheduler = spec.build();
                let report = simulate_into(
                    &mut SimWorkspace::with_reference_queue(),
                    &instance.jobs,
                    &instance.capacity,
                    &mut *scheduler,
                    RunOptions::lean(),
                );
                Fnv::default().report(&report).0
            })
            .collect();
        instances.push((instance, reference));
    }
    let digest = combine(
        &instances
            .iter()
            .flat_map(|(_, r)| r.iter().copied())
            .collect::<Vec<_>>(),
    );
    let mut report = SetupReport {
        digest,
        layers: crate::generation_layers(probe),
        ..SetupReport::default()
    };
    if let Some(expected) = cfg
        .expect_digest
        .or_else(|| crate::reference::recorded(cfg.workload, cfg.seed, &cfg.size))
    {
        report.checks.check(digest == expected, || {
            format!("kernel-burst reference digest {digest:016x}, recorded {expected:016x}")
        });
    }
    let bench = Kernel {
        instances,
        ws: SimWorkspace::new(),
    };
    Ok((Box::new(bench), report))
}

impl Bench for Kernel {
    fn iterate(&mut self, probe: Option<&Probe>) -> Iteration {
        let clock = MonotonicClock::new();
        let mut engine = EngineTotals::start(&self.ws);
        let mut it = Iteration::default();
        let mut digests = Vec::new();
        let t0 = clock.now_ns();
        for (instance, reference) in &self.instances {
            for (spec, expected) in specs().iter().zip(reference) {
                let report = simulate(&mut self.ws, instance, spec, probe);
                let digest = Fnv::default().report(&report).0;
                it.checks.check(digest == *expected, || {
                    format!(
                        "kernel-burst {}: digest {digest:016x} differs from the heap-queue reference",
                        spec.name()
                    )
                });
                digests.push(digest);
                it.jobs += instance.jobs.len() as u64;
                it.value += report.value;
                it.arrived += instance.jobs.total_value();
                engine.add(&report);
                self.ws.recycle(report);
            }
        }
        it.wall_ns = clock.now_ns().saturating_sub(t0);
        it.digest = combine(&digests);
        if let Some(p) = probe {
            it.layers = engine.layers(&self.ws, p);
        }
        it
    }
}
