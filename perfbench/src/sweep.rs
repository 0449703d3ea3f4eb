//! `table1-sweep`: the paper's Table-I Monte-Carlo sweep.
//!
//! Each iteration generates `PaperScenario::table1(λ = 8)` instances from
//! consecutive run slots of `SEED_STREAM_TABLE1`, as `sweep_bench` seeds
//! them, and replays each through the Table-I panel (Dover at
//! ĉ ∈ {1, 10.5, 24.5, 35} and V-Dover, k = 7, δ = 35) with
//! `simulate_into` on one reused `SimWorkspace`, on one thread. Generation
//! is inside the timed work. The reference is the same panel run with a
//! fresh workspace per simulation.

use crate::probe::Probe;
use crate::stats::{combine, reports_digest};
use crate::{
    simulate, traced, Bench, Checks, Config, EngineTotals, Iteration, SetupReport, GENERATE,
};
use cloudsched_bench::{run_instance, sweep_bench::sweep_specs, SchedulerSpec};
use cloudsched_core::rng::{derive_seed, SEED_STREAM_TABLE1};
use cloudsched_obs::Clock;
use cloudsched_sim::{RunOptions, RunReport, SimWorkspace};
use cloudsched_workload::{PaperScenario, ScenarioInstance};

/// Arrival rate of the Table-I scenario.
const LAMBDA: f64 = 8.0;

struct Sweep {
    scenario: PaperScenario,
    specs: Vec<SchedulerSpec>,
    slots: std::ops::Range<usize>,
    reference: Vec<u64>,
    ws: SimWorkspace,
}

fn generate(
    scenario: &PaperScenario,
    slot: usize,
    probe: Option<&Probe>,
) -> Result<ScenarioInstance, String> {
    traced(probe, GENERATE, || {
        scenario.generate(derive_seed(SEED_STREAM_TABLE1, LAMBDA, slot))
    })
    .map_err(|e| format!("generating run slot {slot}: {e}"))
}

/// Generates the instances once and runs the reference panel.
pub fn setup(cfg: &Config, probe: Option<&Probe>) -> Result<(Box<dyn Bench>, SetupReport), String> {
    let runs = cfg.size.sweep_runs;
    let first = crate::first_slot(cfg.seed, runs)?;
    let scenario = PaperScenario::table1(LAMBDA);
    let specs = sweep_specs();
    let mut reference = Vec::with_capacity(runs);
    for slot in first..first + runs {
        let generated = generate(&scenario, slot, probe)?;
        let reports: Vec<RunReport> = specs
            .iter()
            .map(|spec| run_instance(&generated.instance, spec, RunOptions::lean()))
            .collect();
        reference.push(reports_digest(&reports));
    }
    let digest = combine(&reference);
    let mut checks = Checks::default();
    if let Some(expected) = cfg
        .expect_digest
        .or_else(|| crate::reference::recorded(cfg.workload, cfg.seed, &cfg.size))
    {
        checks.check(digest == expected, || {
            format!("table1-sweep reference digest {digest:016x}, recorded {expected:016x}")
        });
    }
    let bench = Sweep {
        scenario,
        specs,
        slots: first..first + runs,
        reference,
        ws: SimWorkspace::new(),
    };
    Ok((
        Box::new(bench),
        SetupReport {
            checks,
            digest,
            layers: crate::generation_layers(probe),
        },
    ))
}

impl Bench for Sweep {
    fn iterate(&mut self, probe: Option<&Probe>) -> Iteration {
        let clock = cloudsched_obs::MonotonicClock::new();
        let mut engine = EngineTotals::start(&self.ws);
        let mut it = Iteration::default();
        let mut digests = Vec::with_capacity(self.reference.len());
        let t0 = clock.now_ns();
        for (i, slot) in self.slots.clone().enumerate() {
            let generated = match generate(&self.scenario, slot, probe) {
                Ok(g) => g,
                Err(e) => {
                    it.checks.error(e);
                    continue;
                }
            };
            let instance = &generated.instance;
            let reports: Vec<RunReport> = self
                .specs
                .iter()
                .map(|spec| simulate(&mut self.ws, instance, spec, probe))
                .collect();
            let digest = reports_digest(&reports);
            it.checks.check(digest == self.reference[i], || {
                format!(
                    "table1-sweep run slot {slot}: digest {digest:016x} differs from the reference"
                )
            });
            digests.push(digest);
            it.jobs += (instance.jobs.len() * reports.len()) as u64;
            it.arrived += instance.jobs.total_value() * reports.len() as f64;
            for r in reports {
                it.value += r.value;
                engine.add(&r);
                self.ws.recycle(r);
            }
        }
        it.wall_ns = clock.now_ns().saturating_sub(t0);
        it.digest = combine(&digests);
        if let Some(p) = probe {
            it.layers = engine.layers(&self.ws, p);
            it.layers
                .insert("workload.generate.calls", self.slots.len() as f64);
            it.layers
                .insert("workload.generate.ns", p.total_ns(GENERATE) as f64);
        }
        it
    }
}
