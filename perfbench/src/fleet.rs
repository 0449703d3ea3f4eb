//! `fleet-p2c`: `FleetScenario::table1(λ = 8, M)` fleets, generated during
//! set-up from consecutive run slots of `SEED_STREAM_FLEET`, as
//! `fleet_bench` seeds them. Every fleet runs power-of-two-choices dispatch
//! and V-Dover (k = 7, δ = 35) per machine, `run_fleet` on 2 threads. Every
//! iteration runs every fleet. The reference runs the same fleets on one
//! thread: fleet output is thread-count invariant.
//!
//! The machines' capacity profiles are concrete `PiecewiseConstant`s
//! inside `run_fleet`, so the capacity layer is not measured here.

use crate::probe::{MachineLog, Probe, TimedDispatch, TimedScheduler, C};
use crate::stats::{combine, median};
use crate::{traced, Bench, Config, Iteration, SetupReport, GENERATE};
use cloudsched_bench::{fleet_digest, SchedulerSpec};
use cloudsched_core::rng::{derive_seed, FLEET_DISPATCH_RUN_OFFSET, SEED_STREAM_FLEET};
use cloudsched_obs::{Clock, MonotonicClock};
use cloudsched_sched::DispatchPolicy;
use cloudsched_sim::{run_fleet, FleetReport, RunOptions, Scheduler};
use cloudsched_workload::{FleetInstance, FleetScenario};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-machine arrival rate.
const LAMBDA: f64 = 8.0;

/// Worker threads of the measured runs.
const THREADS: usize = 2;

const SPEC: SchedulerSpec = SchedulerSpec::VDover {
    k: 7.0,
    delta: 35.0,
};

struct Fleet {
    instances: Vec<(usize, FleetInstance)>,
    reference: Vec<u64>,
}

/// One fleet run of the instance generated for run slot `slot`.
fn run_once(
    slot: usize,
    instance: &FleetInstance,
    threads: usize,
    probe: Option<&Probe>,
) -> (FleetReport, u64) {
    let clock = probe.map_or_else(MonotonicClock::new, |p| p.clock);
    let mut dispatch = DispatchPolicy::PowerOfTwo.build(derive_seed(
        SEED_STREAM_FLEET,
        LAMBDA,
        FLEET_DISPATCH_RUN_OFFSET + slot,
    ));
    let Some(p) = probe else {
        let factory = |_m: usize| -> Box<dyn Scheduler> { SPEC.build() };
        let t0 = clock.now_ns();
        let report = run_fleet(
            &instance.jobs,
            &instance.machines,
            dispatch.as_mut(),
            &factory,
            RunOptions::lean(),
            threads,
        );
        return (report, clock.now_ns().saturating_sub(t0));
    };

    let log: MachineLog = Arc::new(Mutex::new(Vec::new()));
    let first_factory_call = AtomicU64::new(u64::MAX);
    let clock_cost = p.tally.clock_cost_ns();
    let factory = |_m: usize| -> Box<dyn Scheduler> {
        first_factory_call.fetch_min(clock.now_ns(), Ordering::Relaxed);
        Box::new(TimedScheduler::machine(
            SPEC.build(),
            clock,
            clock_cost,
            log.clone(),
        ))
    };
    let mut timed = TimedDispatch::new(dispatch.as_mut(), &p.tally, clock);
    let dispatch_ns0 = p.tally.get(C::DispatchNs);
    let (report, t0, t1) = p.span("sim.fleet.run_fleet", || {
        let t0 = clock.now_ns();
        let report = run_fleet(
            &instance.jobs,
            &instance.machines,
            &mut timed,
            &factory,
            RunOptions::lean(),
            threads,
        );
        let t1 = clock.now_ns();
        let split = first_factory_call.load(Ordering::Relaxed).clamp(t0, t1);
        let dispatch_ns = p.tally.get(C::DispatchNs).saturating_sub(dispatch_ns0);
        p.record("sim.fleet.dispatch_phase", t0, split, dispatch_ns);
        p.record("sim.fleet.kernel_phase", split, t1, 0);
        (report, t0, t1)
    });
    // A poisoned log means a machine panicked, and that panic has already
    // propagated out of `run_fleet`.
    let machines = log.lock().map(|l| l.clone()).unwrap_or_default();
    for m in &machines {
        p.tally.absorb(&m.totals);
        let handler_ns = m.totals[C::HandlerNs as usize];
        p.record("sim.fleet.machine", m.start_ns, m.end_ns, handler_ns);
    }
    (report, t1.saturating_sub(t0))
}

/// Generates the fleets and runs the single-thread reference.
pub fn setup(cfg: &Config, probe: Option<&Probe>) -> Result<(Box<dyn Bench>, SetupReport), String> {
    let runs = cfg.size.fleet_runs;
    let first = crate::first_slot(cfg.seed, runs)?;
    let scenario =
        FleetScenario::table1(LAMBDA, cfg.size.fleet_machines).with_horizon(cfg.size.fleet_horizon);
    let mut instances = Vec::with_capacity(runs);
    for slot in first..first + runs {
        let instance = traced(probe, GENERATE, || {
            scenario.generate(derive_seed(SEED_STREAM_FLEET, LAMBDA, slot))
        })
        .map_err(|e| format!("generating fleet run slot {slot}: {e}"))?;
        instances.push((slot, instance));
    }
    let reference: Vec<u64> = instances
        .iter()
        .map(|(slot, inst)| fleet_digest(&run_once(*slot, inst, 1, None).0))
        .collect();
    let digest = combine(&reference);
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
            format!("fleet-p2c reference digest {digest:016x}, recorded {expected:016x}")
        });
    }
    Ok((
        Box::new(Fleet {
            instances,
            reference,
        }),
        report,
    ))
}

impl Bench for Fleet {
    /// Runs every fleet, so every iteration does the same work and the
    /// per-layer counts are exact sums over the whole set.
    fn iterate(&mut self, probe: Option<&Probe>) -> Iteration {
        let mut it = Iteration::default();
        let mut digests = Vec::new();
        let mut sums = [0u64; 6];
        for (i, (slot, instance)) in self.instances.iter().enumerate() {
            let (report, wall) = run_once(*slot, instance, THREADS, probe);
            let digest = fleet_digest(&report);
            it.checks.check(digest == self.reference[i], || {
                format!(
                    "fleet-p2c run slot {slot}: digest {digest:016x} differs from the one-thread reference"
                )
            });
            digests.push(digest);
            it.wall_ns += wall;
            it.jobs += instance.jobs.len() as u64;
            it.value += report.value;
            it.arrived += instance.jobs.total_value();
            let counts = [
                report.events,
                report.dispatches,
                report.preemptions,
                report.quarantined,
                report.steals,
                report.readmitted,
            ];
            for (sum, c) in sums.iter_mut().zip(counts) {
                *sum += c as u64;
            }
        }
        it.digest = combine(&digests);
        let [events, dispatches, preemptions, quarantined, steals, readmitted] =
            sums.map(|v| v as f64);
        if let Some(p) = probe {
            let layers = &mut it.layers;
            crate::tally_layers(&p.tally, layers);
            let machine_ns: Vec<f64> = p
                .spans()
                .iter()
                .filter(|s| s.name == "sim.fleet.machine")
                .map(|s| s.duration_ns() as f64)
                .collect();
            let machine_sum: f64 = machine_ns.iter().sum();
            let dispatch_phase = p.total_ns("sim.fleet.dispatch_phase") as f64;
            let kernel_phase = p.total_ns("sim.fleet.kernel_phase") as f64;
            let whole = p.total_ns("sim.fleet.run_fleet").max(1) as f64;
            let handler_ns = p.tally.get(C::HandlerNs) as f64;
            let pairs: [(&'static str, f64); 15] = [
                ("sim.engine.self_ns", (machine_sum - handler_ns).max(0.0)),
                ("sim.engine.events", events),
                ("sim.engine.dispatches", dispatches),
                ("sim.engine.preemptions", preemptions),
                ("sim.fleet.dispatch_phase_ns", dispatch_phase),
                ("sim.fleet.kernel_phase_ns", kernel_phase),
                ("sim.fleet.serial_frac", dispatch_phase / whole),
                ("sim.fleet.machine_ns.median", median(&machine_ns)),
                (
                    "sim.fleet.machine_ns.max",
                    machine_ns.iter().copied().fold(0.0, f64::max),
                ),
                (
                    "sim.fleet.kernel_busy_frac",
                    machine_sum / (THREADS as f64 * kernel_phase.max(1.0)),
                ),
                ("sim.fleet.quarantined", quarantined),
                ("sim.fleet.steals", steals),
                ("sim.fleet.readmitted", readmitted),
                ("sim.fleet.steal_ratio", steals / quarantined.max(1.0)),
                ("sched.handler.ns", p.tally.handler_self_ns() as f64),
            ];
            layers.extend(pairs);
        }
        it
    }
}
