//! `serve-wal`: the journaled admission service, crashed and recovered.
//!
//! Set-up generates an admission stream (Poisson λ = 8, Exp(1) workloads,
//! deadline slack U[1.2, 4]·p, value density U[1, 7]) and serves it once
//! uninterrupted and in memory; that run's ledger and commitment audit
//! are the reference rendering. Each iteration serves the stream back to
//! back with V-Dover (k = 7) at constant rate 1 into a `FileJournal`, with
//! a snapshot every `serve_snapshot_every` arrivals and a crash point at
//! the last arrival. Then, as `cloudsched recover` does, it reads the
//! journal, parses its header, recovers and renders; the rendering must
//! equal the reference byte for byte.

use crate::probe::{Probe, Tally, TimedCapacity, TimedJournal, TimedScheduler};
use crate::stats::Fnv;
use crate::{traced, Bench, Config, Iteration, JournalFault, SetupReport, GENERATE};
use cloudsched_capacity::{CapacityProfile, Constant};
use cloudsched_core::rng::{derive_seed, Pcg32};
use cloudsched_obs::{Clock, FileJournal, JournalSink, MonotonicClock};
use cloudsched_sim::{journal_header, recover, serve, ServiceConfig, ServiceOutcome};
use cloudsched_workload::dist::{exponential, uniform};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Seed stream of the admission streams (`derive_seed`'s stream argument).
const SERVE_STREAM: u64 = 0x5E_7A1;

/// Arrival rate of the stream.
const LAMBDA: f64 = 8.0;

/// Importance ratio the service runs V-Dover with.
const K: f64 = 7.0;

/// Capacity rate of the service.
const RATE: f64 = 1.0;

/// Journal directories made by this process, so concurrent set-ups never
/// share one.
static DIRS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Generates `arrivals` JSONL arrival lines, in release order.
pub fn stream(seed: u64, arrivals: usize) -> Result<String, String> {
    let slot = usize::try_from(seed).map_err(|_| format!("seed {seed} is too large"))?;
    let mut rng = Pcg32::seed_from_u64(derive_seed(SERVE_STREAM, LAMBDA, slot));
    let mut out = String::with_capacity(arrivals * 96);
    let mut t = 0.0f64;
    for _ in 0..arrivals {
        t += exponential(&mut rng, LAMBDA);
        let p = exponential(&mut rng, 1.0).max(1e-9);
        let d = t + uniform(&mut rng, 1.2, 4.0) * p;
        let v = uniform(&mut rng, 1.0, 7.0) * p;
        let _ = writeln!(out, "{{\"r\":{t},\"d\":{d},\"p\":{p},\"v\":{v}}}");
    }
    Ok(out)
}

/// The summary `cloudsched serve` and `cloudsched recover` print: the
/// value-loss ledger and the commitment audit.
fn render(outcome: &ServiceOutcome) -> Result<String, String> {
    let ledger = cloudsched_insight::ValueLedger::from_events(&outcome.events)
        .attribute(&outcome.jobs)
        .map_err(|e| format!("ledger: {e}"))?;
    let commitments =
        cloudsched_sim::audit::commitments::audit_commitments(&outcome.decisions, &outcome.events);
    Ok(format!("{}{}", ledger.render(), commitments.render()))
}

/// Digest of a finished service run: its report's observables, then the
/// rendering's bytes.
fn digest(outcome: &ServiceOutcome, rendering: &str) -> Result<u64, String> {
    let report = outcome.report.as_ref().ok_or("the run has no report")?;
    let h = Fnv::default().report(report);
    Ok(rendering.bytes().fold(h, |h, b| h.fold(u64::from(b))).0)
}

/// A journal that fails the operations a [`JournalFault`] names.
struct FaultyJournal<J> {
    inner: J,
    fault: Option<JournalFault>,
    ops: u64,
}

impl<J: JournalSink> FaultyJournal<J> {
    fn step(&mut self) -> std::io::Result<()> {
        let op = self.ops;
        self.ops += 1;
        match self.fault {
            Some(f) if op >= f.at_op && op - f.at_op < f.failures => {
                Err(std::io::Error::other("seeded journal fault"))
            }
            _ => Ok(()),
        }
    }
}

impl<J: JournalSink> JournalSink for FaultyJournal<J> {
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.step()?;
        self.inner.append(line)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.step()?;
        self.inner.sync()
    }
}

struct Serve {
    stream: String,
    arrivals: usize,
    cfg: ServiceConfig,
    reference: String,
    reference_digest: u64,
    dir: PathBuf,
    fault: Option<JournalFault>,
    runs: u64,
}

/// Generates the stream, serves it once in memory for the reference and
/// creates the journal directory.
pub fn setup(cfg: &Config, probe: Option<&Probe>) -> Result<(Box<dyn Bench>, SetupReport), String> {
    let arrivals = cfg.size.serve_arrivals;
    if arrivals == 0 {
        return Err("serve-wal needs at least one arrival".into());
    }
    let text = traced(probe, GENERATE, || stream(cfg.seed, arrivals))?;
    let mut service = ServiceConfig::new("vdover", K);
    service.snapshot_every = cfg.size.serve_snapshot_every;
    let capacity = Constant::new(RATE).map_err(|e| e.to_string())?;
    let mut scheduler = cloudsched_sched::by_name("vdover", K, service.delta, RATE, RATE)
        .map_err(|e| e.to_string())?;
    let outcome = serve(&capacity, &service, scheduler.as_mut(), &text, None)
        .map_err(|e| format!("reference serve: {e}"))?;
    if let Some(err) = &outcome.aborted {
        return Err(format!("reference serve aborted: {err}"));
    }
    let reference = render(&outcome)?;
    let reference_digest = digest(&outcome, &reference)?;
    service.crash_after = Some(arrivals as u64 - 1);

    let dir = cfg.tmp_dir.join(format!(
        "serve-wal-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut report = SetupReport {
        digest: reference_digest,
        layers: crate::generation_layers(probe),
        ..SetupReport::default()
    };
    if let Some(expected) = cfg
        .expect_digest
        .or_else(|| crate::reference::recorded(cfg.workload, cfg.seed, &cfg.size))
    {
        report.checks.check(reference_digest == expected, || {
            format!("serve-wal reference digest {reference_digest:016x}, recorded {expected:016x}")
        });
    }
    let bench = Serve {
        stream: text,
        arrivals,
        cfg: service,
        reference,
        reference_digest,
        dir,
        fault: cfg.journal_fault,
        runs: 0,
    };
    Ok((Box::new(bench), report))
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Best effort: a leftover directory holds only this run's journals.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What recovery hands back.
struct Recovered {
    rendering: String,
    outcome: ServiceOutcome,
}

impl Serve {
    /// `serve` into `journal`, timed; returns the outcome and the wall time.
    fn serve_once<P: CapacityProfile>(
        &self,
        capacity: &P,
        scheduler: &mut dyn cloudsched_sim::Scheduler,
        journal: &mut dyn JournalSink,
        clock: &MonotonicClock,
    ) -> (Result<ServiceOutcome, String>, u64) {
        let t0 = clock.now_ns();
        let out = serve(capacity, &self.cfg, scheduler, &self.stream, Some(journal));
        let wall = clock.now_ns().saturating_sub(t0);
        (out.map_err(|e| format!("serve: {e}")), wall)
    }

    /// Reads the journal back and recovers from it as `cloudsched recover`
    /// does, rendering the ledger and the commitment audit.
    fn recover_once(
        &self,
        path: &std::path::Path,
        probe: Option<&Probe>,
    ) -> Result<Recovered, String> {
        let journal = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let header = traced(probe, "sim.service.journal_header", || {
            journal_header(&journal)
        })
        .map_err(|e| format!("journal header: {e}"))?;
        let capacity = Constant::new(header.rate).map_err(|e| e.to_string())?;
        let mut scheduler = cloudsched_sched::by_name(
            &header.scheduler,
            header.k,
            header.delta,
            header.c_lo,
            header.c_hi,
        )
        .map_err(|e| e.to_string())?;
        let outcome = match probe {
            None => recover(&capacity, scheduler.as_mut(), &journal, &self.stream),
            Some(p) => p.span("sim.service.recover", || {
                recover(
                    &TimedCapacity::new(&capacity, &p.tally, p.clock),
                    &mut TimedScheduler::new(scheduler.as_mut(), &p.tally, p.clock),
                    &journal,
                    &self.stream,
                )
            }),
        }
        .map_err(|e| format!("recover: {e}"))?;
        let rendering = traced(probe, "insight.ledger", || render(&outcome))?;
        Ok(Recovered { rendering, outcome })
    }
}

impl Bench for Serve {
    fn iterate(&mut self, probe: Option<&Probe>) -> Iteration {
        let clock = MonotonicClock::new();
        let mut it = Iteration::default();
        let path = self.dir.join(format!("journal-{}.wal", self.runs));
        self.runs += 1;
        let own_tally = Tally::new();
        let tally = probe.map_or(&own_tally, |p| &p.tally);
        let result = (|| -> Result<(), String> {
            let file = FileJournal::create(&path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            let faulty = FaultyJournal {
                inner: file,
                fault: self.fault,
                ops: 0,
            };
            let mut journal = TimedJournal::new(faulty, tally, clock, probe.is_some());
            let capacity = Constant::new(RATE).map_err(|e| e.to_string())?;
            let mut scheduler = cloudsched_sched::by_name("vdover", K, self.cfg.delta, RATE, RATE)
                .map_err(|e| e.to_string())?;
            let (served, wall) = match probe {
                None => self.serve_once(&capacity, scheduler.as_mut(), &mut journal, &clock),
                Some(p) => p.span("sim.service.serve", || {
                    self.serve_once(
                        &TimedCapacity::new(&capacity, tally, clock),
                        &mut TimedScheduler::new(scheduler.as_mut(), tally, clock),
                        &mut journal,
                        &clock,
                    )
                }),
            };
            it.wall_ns = wall;
            it.jobs = self.arrivals as u64;
            it.admit_ns = std::mem::take(&mut journal.admit_ns);
            it.sync_ns = journal.sync_ns;
            let last_snapshot = journal.last_snapshot_seq;
            drop(journal);
            let served = served?;
            it.checks.check(
                served.crashed && served.arrivals_applied == self.arrivals as u64,
                || {
                    format!(
                        "serve-wal: expected a crash after arrival {}, got crashed={} after {} arrivals",
                        self.arrivals - 1,
                        served.crashed,
                        served.arrivals_applied
                    )
                },
            );
            it.journal_bytes = tally.get(crate::probe::C::JournalAppendBytes);
            let on_disk = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            it.checks.check(on_disk == it.journal_bytes, || {
                format!(
                    "serve-wal: journal holds {on_disk} bytes, {} were appended",
                    it.journal_bytes
                )
            });

            let t0 = clock.now_ns();
            let recovered = self.recover_once(&path, probe)?;
            it.recover_ns = clock.now_ns().saturating_sub(t0);
            let outcome = &recovered.outcome;
            it.digest = digest(outcome, &recovered.rendering)?;
            it.checks.check(
                recovered.rendering == self.reference && it.digest == self.reference_digest,
                || "serve-wal: recovered rendering differs from the uninterrupted reference".into(),
            );
            if let Some(report) = &outcome.report {
                it.value = report.value;
            }
            it.arrived = outcome.jobs.total_value();
            if let Some(p) = probe {
                let layers = &mut it.layers;
                crate::tally_layers(&p.tally, layers);
                let admitted = outcome.decisions.iter().filter(|d| d.admitted).count();
                let replayed = match last_snapshot {
                    Some(seq) => (self.arrivals as u64).saturating_sub(seq + 1),
                    None => self.arrivals as u64,
                };
                let pairs: [(&'static str, f64); 7] = [
                    ("sim.service.self_ns", p.self_ns("sim.service.serve") as f64),
                    ("sim.service.admitted", admitted as f64),
                    (
                        "sim.service.rejected",
                        (outcome.decisions.len() - admitted) as f64,
                    ),
                    (
                        "sim.service.recover.header_ns",
                        p.total_ns("sim.service.journal_header") as f64,
                    ),
                    (
                        "sim.service.recover.self_ns",
                        p.self_ns("sim.service.recover") as f64,
                    ),
                    ("sim.service.recover.replayed", replayed as f64),
                    ("insight.ledger.ns", p.total_ns("insight.ledger") as f64),
                ];
                layers.extend(pairs);
                layers.insert("obs.trace.events", outcome.events.len() as f64);
                if let Some(report) = &outcome.report {
                    layers.insert("sim.engine.events", report.events as f64);
                    layers.insert("sim.engine.dispatches", report.dispatches as f64);
                    layers.insert("sim.engine.preemptions", report.preemptions as f64);
                }
            }
            Ok(())
        })();
        if let Err(e) = result {
            it.checks.error(format!("serve-wal: {e}"));
        }
        let _ = std::fs::remove_file(&path);
        it
    }
}
