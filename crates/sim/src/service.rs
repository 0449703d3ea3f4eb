//! Crash-safe streaming admission service.
//!
//! The batch simulator answers "what value does a policy realise on this
//! instance?"; this module answers the operational question the paper's
//! cloud setting actually poses: jobs *arrive over time*, the scheduler
//! decides admission online, and the process hosting it can die at any
//! instant. The service wraps the streaming kernel seam
//! ([`Kernel::resume`] / `pump_ready` / `admit_job` / `suspend`) in a
//! classic write-ahead-log discipline so that an admission, once
//! journaled, is a *commitment*: after any crash, snapshot restore plus
//! deterministic journal replay reconstructs a run whose final trace —
//! and hence its value-loss ledger — is byte-identical to the run that
//! never crashed.
//!
//! ## Journal format
//!
//! One JSONL file, two line classes distinguished by their first key:
//!
//! * **Service records** start `{"svc":` — the WAL proper. `open` (the
//!   run's configuration), `arrival` (one job's parameters), `decision`
//!   (the admission verdict) and `snapshot` (a [`crate::snapshot`] blob at
//!   a quiescent point). An arrival and its decision are appended in that
//!   order and made durable by one sync *before* any of their effects
//!   apply; a decision counts as made only once that sync returns. An
//!   arrival whose sync never completed is replayed and decided afresh.
//! * **Trace events** start `{"t":` — the byte-stable
//!   [`TraceEvent`] JSONL codec from `cloudsched-obs`, appended in
//!   emission order. On recovery, trace lines *before* the last snapshot
//!   record are the authoritative event prefix; trace lines after it are
//!   discarded and regenerated by replay (they may be partial — the
//!   crash window).
//!
//! ## Determinism and recovery
//!
//! Every admission decision is a pure function of the arrival sequence
//! (the same checks as [`Watchdog::inspect_release`], plus the
//! backpressure rule), so replaying journaled arrivals recomputes
//! byte-identical decisions — recovery verifies this against the
//! journaled verdicts and treats divergence as corruption. Snapshots are
//! only taken when the scheduler supports state capture
//! ([`crate::Scheduler::snapshot_state`]); otherwise recovery simply
//! replays from genesis, which is always correct, just slower.
//!
//! ## Backpressure and stream faults
//!
//! The bounded admission queue (`queue_cap` live jobs) and the corrupt-
//! arrival checks share the [`DegradationPolicy`] semantics: `Degrade`
//! sheds/rejects (the job's value is surrendered, visibly, via service-
//! emitted `Arrival` + `Abandon` / `FaultDetected` trace events),
//! `BestEffort` admits anyway (corrupt admissions are exempt from the
//! commitment audit), and `Strict` aborts the run with the typed
//! [`CoreError`] naming the broken assumption.

use crate::degrade::{DegradationPolicy, Watchdog, WatchdogConfig};
use crate::engine::{Kernel, KernelState, RunOptions};
use crate::report::RunReport;
use crate::scheduler::Scheduler;
use crate::snapshot;
use crate::workspace::SimWorkspace;
use cloudsched_capacity::CapacityProfile;
use cloudsched_core::{CoreError, Job, JobId, JobSet, Time};
use cloudsched_obs::{FaultKind, JournalSink, RetryingJournal, TraceEvent, Tracer};

/// Tunables of one service run. `c_lo` / `c_hi` are not here — they come
/// from the capacity profile's declared bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Factory name of the scheduling policy (journaled so recovery can
    /// rebuild the same scheduler).
    pub scheduler: String,
    /// Importance ratio `k` (drives the value-spike admission check and
    /// the scheduler construction).
    pub k: f64,
    /// Dover's `δ` slack-fraction parameter.
    pub delta: f64,
    /// Maximum admitted-but-unresolved jobs before backpressure engages.
    pub queue_cap: usize,
    /// Take a snapshot after every N arrivals; `0` disables snapshots.
    pub snapshot_every: u64,
    /// What corrupt arrivals and queue overflow do to the run.
    pub policy: DegradationPolicy,
    /// Retry budget per journal operation (see
    /// [`cloudsched_obs::RetryingJournal`]).
    pub journal_attempts: u32,
    /// Seeded crash point: stop abruptly (no drain, no further journal
    /// writes) right after applying the arrival with this 0-based index.
    /// Matches `cloudsched-faults`' `FaultPlan::crash_after` (the faults
    /// crate sits above this one, so the index type is plain here).
    pub crash_after: Option<u64>,
}

impl ServiceConfig {
    /// A config with conventional defaults: unbounded queue, snapshots
    /// off, `Degrade` policy, 3 journal attempts, no crash point.
    pub fn new(scheduler: &str, k: f64) -> Self {
        ServiceConfig {
            scheduler: scheduler.to_string(),
            k,
            delta: 1.0,
            queue_cap: usize::MAX,
            snapshot_every: 0,
            policy: DegradationPolicy::Degrade,
            journal_attempts: 3,
            crash_after: None,
        }
    }
}

/// One arrival of the admission stream: the four job parameters, in
/// non-decreasing release order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Release time `r`.
    pub release: f64,
    /// Firm deadline `d`.
    pub deadline: f64,
    /// Workload `p`.
    pub workload: f64,
    /// Value `v`.
    pub value: f64,
}

/// Why an arrival was admitted or rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Clean arrival within capacity: admitted.
    Admit,
    /// Violates Definition 4 (`d − r < p / c_lo`).
    Inadmissible,
    /// Exact parameter copy of an earlier arrival.
    Duplicate,
    /// Value density exceeds `k ×` the smallest clean density seen.
    ValueSpike,
    /// Backpressure: the bounded admission queue was full.
    Shed,
}

impl DecisionReason {
    /// Stable wire name, used in journal `decision` records.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionReason::Admit => "admit",
            DecisionReason::Inadmissible => "inadmissible",
            DecisionReason::Duplicate => "duplicate",
            DecisionReason::ValueSpike => "value_spike",
            DecisionReason::Shed => "shed",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "admit" => DecisionReason::Admit,
            "inadmissible" => DecisionReason::Inadmissible,
            "duplicate" => DecisionReason::Duplicate,
            "value_spike" => DecisionReason::ValueSpike,
            "shed" => DecisionReason::Shed,
            _ => return None,
        })
    }

    /// `true` when the reason is a stream-corruption fault (as opposed to
    /// a clean admit or a backpressure shed).
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            DecisionReason::Inadmissible | DecisionReason::Duplicate | DecisionReason::ValueSpike
        )
    }

    fn from_fault(kind: FaultKind) -> Option<Self> {
        Some(match kind {
            FaultKind::Inadmissible => DecisionReason::Inadmissible,
            FaultKind::Duplicate => DecisionReason::Duplicate,
            FaultKind::ValueSpike => DecisionReason::ValueSpike,
            _ => return None,
        })
    }

    fn fault_kind(self) -> Option<FaultKind> {
        Some(match self {
            DecisionReason::Inadmissible => FaultKind::Inadmissible,
            DecisionReason::Duplicate => FaultKind::Duplicate,
            DecisionReason::ValueSpike => FaultKind::ValueSpike,
            _ => return None,
        })
    }
}

/// One journaled admission verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceDecision {
    /// 0-based arrival index.
    pub seq: u64,
    /// The job-id slot the arrival occupies (equal to `seq` — rejected
    /// arrivals keep their slot so tables stay id-aligned).
    pub job: JobId,
    /// Whether the job entered the kernel.
    pub admitted: bool,
    /// Why.
    pub reason: DecisionReason,
}

impl ServiceDecision {
    /// An admitted-but-corrupt decision (`BestEffort` policy): exempt
    /// from the commitment audit.
    pub fn is_corrupt_admission(&self) -> bool {
        self.admitted && self.reason.is_fault()
    }
}

/// Everything a finished (or crashed, or aborted) service run produced.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The kernel's run report; `None` when the run crashed at a seeded
    /// crash point (a crashed process reports nothing — that is the
    /// point).
    pub report: Option<RunReport>,
    /// The full trace event stream, in emission order.
    pub events: Vec<TraceEvent>,
    /// One verdict per applied arrival.
    pub decisions: Vec<ServiceDecision>,
    /// All arrivals as jobs (admitted and rejected; ids are arrival
    /// order).
    pub jobs: JobSet,
    /// Arrivals whose effects were applied before the run ended.
    pub arrivals_applied: u64,
    /// `true` when a seeded crash point stopped the run.
    pub crashed: bool,
    /// The typed error a `Strict` policy aborted with, if any.
    pub aborted: Option<CoreError>,
    /// `true` when a snapshot cadence was configured but the scheduler
    /// cannot checkpoint (`snapshot_state` returned `None`): recovery of
    /// this run replays the whole journal from genesis.
    pub snapshot_unsupported: bool,
}

/// The parsed `open` record of a journal: enough to rebuild the scheduler
/// and validate the capacity class before [`recover`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Scheduler factory name.
    pub scheduler: String,
    /// Importance ratio `k`.
    pub k: f64,
    /// Dover `δ`.
    pub delta: f64,
    /// Declared lower class bound of the capacity profile.
    pub c_lo: f64,
    /// Declared upper class bound of the capacity profile.
    pub c_hi: f64,
    /// Rate at `t = 0` (informational; lets a CLI rebuild a constant
    /// profile without a second input).
    pub rate: f64,
    /// Backpressure bound.
    pub queue_cap: usize,
    /// Snapshot cadence.
    pub snapshot_every: u64,
    /// Degradation policy.
    pub policy: DegradationPolicy,
}

impl JournalHeader {
    /// The service config this journal was written under (crash point and
    /// journal retries are harness knobs, not journaled).
    pub fn config(&self) -> ServiceConfig {
        ServiceConfig {
            scheduler: self.scheduler.clone(),
            k: self.k,
            delta: self.delta,
            queue_cap: self.queue_cap,
            snapshot_every: self.snapshot_every,
            policy: self.policy,
            journal_attempts: 1,
            crash_after: None,
        }
    }
}

fn corrupt(line: usize, reason: impl Into<String>) -> CoreError {
    CoreError::CorruptJournal {
        line,
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// Line codecs (flat JSON, byte-deterministic: `{}` float formatting is
// Rust's shortest round-trip form, so parse ∘ render is the identity).
// ---------------------------------------------------------------------

/// Parses an admission stream: one flat JSON object per line,
/// `{"r":R,"d":D,"p":P,"v":V}`. Blank lines are skipped.
pub fn parse_stream(text: &str) -> Result<Vec<Arrival>, CoreError> {
    numbered_lines(text)
        .map(|(lineno, line)| arrival_from(&flat_fields(line, lineno)?, lineno))
        .collect()
}

/// The non-blank lines of a text with their 1-based line numbers, trimmed.
fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, raw.trim()))
        .filter(|(_, line)| !line.is_empty())
}

/// The raw value of `key` in a flat record; `what` names the record in
/// the error.
fn field<'l>(
    fields: &[(&str, &'l str)],
    key: &str,
    lineno: usize,
    what: &str,
) -> Result<&'l str, CoreError> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| corrupt(lineno, format!("{what} is missing key {key:?}")))
}

/// The `r`, `d`, `p`, `v` keys of an admission-stream line or a journal
/// `arrival` record.
fn arrival_from(fields: &[(&str, &str)], lineno: usize) -> Result<Arrival, CoreError> {
    let get = |key: &str| -> Result<f64, CoreError> {
        field(fields, key, lineno, "arrival")?
            .parse::<f64>()
            .ok()
            .filter(|v| !v.is_nan())
            .ok_or_else(|| corrupt(lineno, format!("arrival key {key:?} is not a number")))
    };
    Ok(Arrival {
        release: get("r")?,
        deadline: get("d")?,
        workload: get("p")?,
        value: get("v")?,
    })
}

/// Splits a one-level JSON object into `(key, raw value)` pairs. Values
/// must not contain commas or colons (snapshot blobs, which do, are
/// extracted before this runs).
fn flat_fields(line: &str, lineno: usize) -> Result<Vec<(&str, &str)>, CoreError> {
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| corrupt(lineno, "record is not a flat JSON object"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let (k, v) = part
            .split_once(':')
            .ok_or_else(|| corrupt(lineno, format!("field {part:?} has no key/value colon")))?;
        let key = k.trim().trim_matches('"');
        let value = v.trim().trim_matches('"');
        if key.is_empty() {
            return Err(corrupt(lineno, "record has an empty key"));
        }
        out.push((key, value));
    }
    Ok(out)
}

fn arrival_line(seq: u64, a: &Arrival) -> String {
    format!(
        "{{\"svc\":\"arrival\",\"seq\":{seq},\"r\":{},\"d\":{},\"p\":{},\"v\":{}}}",
        a.release, a.deadline, a.workload, a.value
    )
}

fn decision_line(d: &ServiceDecision) -> String {
    format!(
        "{{\"svc\":\"decision\",\"seq\":{},\"job\":{},\"admit\":{},\"reason\":\"{}\"}}",
        d.seq,
        d.job.0,
        d.admitted,
        d.reason.as_str()
    )
}

fn snapshot_line(seq: u64, blob: &str) -> String {
    format!("{{\"svc\":\"snapshot\",\"seq\":{seq},\"blob\":\"{blob}\"}}")
}

fn snapshot_unsupported_line(seq: u64) -> String {
    format!("{{\"svc\":\"snapshot-unsupported\",\"seq\":{seq}}}")
}

fn open_line(cfg: &ServiceConfig, c_lo: f64, c_hi: f64, rate: f64) -> String {
    format!(
        "{{\"svc\":\"open\",\"version\":1,\"scheduler\":\"{}\",\"k\":{},\"delta\":{},\
         \"c_lo\":{c_lo},\"c_hi\":{c_hi},\"rate\":{rate},\"queue_cap\":{},\
         \"snapshot_every\":{},\"policy\":\"{}\"}}",
        cfg.scheduler,
        cfg.k,
        cfg.delta,
        cfg.queue_cap,
        cfg.snapshot_every,
        cfg.policy.as_str()
    )
}

// ---------------------------------------------------------------------
// WAL wrapper: retries via RetryingJournal, or a no-op when recovery
// replays without writing.
// ---------------------------------------------------------------------

struct Wal<'a> {
    sink: Option<RetryingJournal<&'a mut dyn JournalSink>>,
}

impl<'a> Wal<'a> {
    fn new(sink: Option<&'a mut dyn JournalSink>, attempts: u32) -> Self {
        Wal {
            sink: sink.map(|s| RetryingJournal::new(s, attempts)),
        }
    }

    fn append(&mut self, line: &str) -> Result<(), CoreError> {
        match &mut self.sink {
            Some(j) => j.append(line),
            None => Ok(()),
        }
    }

    fn sync(&mut self) -> Result<(), CoreError> {
        match &mut self.sink {
            Some(j) => j.sync(),
            None => Ok(()),
        }
    }

    fn commit(&mut self, line: &str) -> Result<(), CoreError> {
        match &mut self.sink {
            Some(j) => j.commit(line),
            None => Ok(()),
        }
    }
}

/// An unbounded in-memory trace sink: the service keeps every event both
/// for the journal and for the final ledger.
#[derive(Debug, Default)]
struct VecSink {
    events: Vec<TraceEvent>,
}

impl Tracer for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

enum Step {
    Continue,
    Stop,
}

// ---------------------------------------------------------------------
// The service core: one struct drives both serve and recovery replay, so
// the two code paths cannot diverge.
// ---------------------------------------------------------------------

struct Core<'a, P: CapacityProfile> {
    capacity: &'a P,
    cfg: &'a ServiceConfig,
    c_lo: f64,
    jobs: JobSet,
    decisions: Vec<ServiceDecision>,
    /// Admitted jobs not yet known to be resolved: the queue-cap count
    /// prunes it instead of scanning every past decision.
    live: Vec<JobId>,
    book: Watchdog,
    ws: SimWorkspace,
    st: Option<KernelState>,
    sink: VecSink,
    flushed: usize,
    last_release: f64,
    crashed: bool,
    aborted: Option<CoreError>,
    snapshot_unsupported: bool,
}

impl<'a, P: CapacityProfile> Core<'a, P> {
    /// A core with room for `arrivals` arrivals, so the job and decision
    /// tables a caller keeps in the outcome carry no growth slack.
    fn new(capacity: &'a P, cfg: &'a ServiceConfig, arrivals: usize) -> Self {
        let (c_lo, c_hi) = capacity.bounds();
        let mut ws = SimWorkspace::new();
        ws.begin(0);
        let mut sink = VecSink::default();
        // The batch kernel stamps capacity segment 0 up front; the
        // streaming service owns that stamp because its job table starts
        // empty.
        sink.events.push(TraceEvent::CapacityChange {
            t: Time::ZERO,
            rate: capacity.rate_at(Time::ZERO),
            segment: 0,
        });
        Core {
            capacity,
            cfg,
            c_lo,
            jobs: JobSet::new(Vec::with_capacity(arrivals))
                .expect("invariant: an empty job set is valid"),
            decisions: Vec::with_capacity(arrivals),
            live: Vec::new(),
            book: Watchdog::new(
                cfg.policy,
                c_lo,
                c_hi,
                WatchdogConfig {
                    max_retries: 0,
                    k_limit: Some(cfg.k),
                },
            ),
            ws,
            st: Some(KernelState::streaming(RunOptions::lean(), c_lo, c_hi)),
            sink,
            flushed: 0,
            last_release: 0.0,
            crashed: false,
            aborted: None,
            snapshot_unsupported: false,
        }
    }

    fn flush(&mut self, wal: &mut Wal<'_>) -> Result<(), CoreError> {
        while self.flushed < self.sink.events.len() {
            let line = self.sink.events[self.flushed].to_jsonl();
            wal.append(&line)?;
            self.flushed += 1;
        }
        Ok(())
    }

    /// Applies one arrival end to end: journal the arrival, pump the
    /// kernel to its release instant, decide admission, journal the
    /// decision and sync once, apply its effects, then honour crash points
    /// and the snapshot cadence. Nothing here is O(history).
    ///
    /// `journaled` is the decision a previous life of this run committed
    /// for the same sequence number (recovery passes it); replay must
    /// reproduce it exactly or the journal is declared corrupt.
    fn apply_arrival(
        &mut self,
        sched: &mut dyn Scheduler,
        wal: &mut Wal<'_>,
        seq: u64,
        a: &Arrival,
        journaled: Option<&JournaledDecision>,
    ) -> Result<Step, CoreError> {
        if a.release < self.last_release {
            return Err(CoreError::InvalidParameter {
                name: "release".to_string(),
                value: a.release,
                reason: format!(
                    "arrival {seq} precedes the previous release {}; the admission \
                     stream must be ordered by release time",
                    self.last_release
                ),
            });
        }
        self.last_release = a.release;
        let id = JobId(self.jobs.len() as u64);
        debug_assert_eq!(id.0, seq, "arrival sequence and job-id slots stay aligned");
        let job = Job::new(
            id,
            Time::new(a.release),
            Time::new(a.deadline),
            a.workload,
            a.value,
        )?;

        // WAL: the arrival record goes ahead of its decision; the
        // decision's sync below makes both durable before any effect.
        wal.append(&arrival_line(seq, a))?;

        // Advance the kernel to the arrival instant (events strictly
        // before the release, plus co-timed capacity changes, completions
        // and timers — the same boundary the batch kernel uses).
        let release = job.release;
        {
            let st = self.st.take().expect("invariant: kernel state parked");
            let mut k = Kernel::resume(&mut self.ws, &self.jobs, self.capacity, &mut self.sink, st);
            k.pump_ready(sched, release);
            self.st = Some(k.suspend());
        }

        // Decide. Pure function of the arrival sequence: replayable.
        let fault = self.book.inspect_release(&job);
        let ws = &self.ws;
        self.live.retain(|j| !ws.resolved(j.index()));
        let live = self.live.len();
        let (admitted, reason, abort): (bool, DecisionReason, Option<CoreError>) = match fault {
            Some(f) => {
                let reason = DecisionReason::from_fault(f.kind)
                    .expect("invariant: inspect_release only raises stream-fault kinds");
                match self.cfg.policy {
                    DegradationPolicy::Strict => (false, reason, Some(f.error)),
                    DegradationPolicy::Degrade => (false, reason, None),
                    DegradationPolicy::BestEffort => (true, reason, None),
                }
            }
            None if live >= self.cfg.queue_cap => match self.cfg.policy {
                DegradationPolicy::Strict => (
                    false,
                    DecisionReason::Shed,
                    Some(CoreError::QueueOverflow {
                        seq,
                        live,
                        cap: self.cfg.queue_cap,
                    }),
                ),
                DegradationPolicy::Degrade => (false, DecisionReason::Shed, None),
                DegradationPolicy::BestEffort => (true, DecisionReason::Admit, None),
            },
            None => (true, DecisionReason::Admit, None),
        };
        let decision = ServiceDecision {
            seq,
            job: id,
            admitted,
            reason,
        };
        if let Some((j_admit, j_reason, j_line)) = journaled {
            if *j_admit != admitted || *j_reason != reason {
                return Err(corrupt(
                    *j_line,
                    format!(
                        "journaled decision for arrival {seq} ({} {}) diverges from \
                         deterministic replay ({} {})",
                        if *j_admit { "admit" } else { "reject" },
                        j_reason.as_str(),
                        if admitted { "admit" } else { "reject" },
                        reason.as_str()
                    ),
                ));
            }
        }

        // WAL: one sync makes the arrival and its verdict durable; the
        // verdict counts as made only once it returns.
        wal.commit(&decision_line(&decision))?;
        self.decisions.push(decision);

        // Effects.
        {
            let st = self.st.take().expect("invariant: kernel state parked");
            let mut k = Kernel::resume(&mut self.ws, &self.jobs, self.capacity, &mut self.sink, st);
            if admitted {
                k.admit_job(&job);
            } else {
                k.register_job(&job);
            }
            self.st = Some(k.suspend());
        }
        if admitted {
            self.live.push(id);
        } else {
            // The kernel never releases a rejected job, so the service
            // stamps its lifecycle: every arrival is visible in the
            // trace, and the surrendered value lands in a ledger bucket
            // (fault → corrupt-rejected, shed → expired-in-queue).
            self.sink.events.push(TraceEvent::Arrival {
                t: release,
                job: id,
                laxity: job.laxity_with(release, job.workload, self.c_lo).as_f64(),
            });
            if let Some(kind) = reason.fault_kind() {
                self.sink.events.push(TraceEvent::FaultDetected {
                    t: release,
                    job: id,
                    fault: kind,
                });
            } else {
                self.sink.events.push(TraceEvent::Abandon {
                    t: release,
                    job: id,
                    remaining: job.workload,
                    value: job.value,
                });
            }
        }
        self.jobs.push(job)?;
        self.flush(wal)?;

        if let Some(err) = abort {
            if let Some(kind) = reason.fault_kind() {
                self.sink.events.push(TraceEvent::PolicyAbort {
                    t: release,
                    fault: kind,
                });
            }
            self.st
                .as_mut()
                .expect("invariant: kernel state parked")
                .aborted = Some(err.clone());
            self.aborted = Some(err);
            self.flush(wal)?;
            return Ok(Step::Stop);
        }

        // Seeded crash point: stop dead. No snapshot, no drain, no sync —
        // only what the WAL already made durable survives.
        if self.cfg.crash_after == Some(seq) {
            self.crashed = true;
            return Ok(Step::Stop);
        }

        if self.cfg.snapshot_every > 0 && (seq + 1) % self.cfg.snapshot_every == 0 {
            if let Some(blob) = sched.snapshot_state() {
                let st = self.st.as_ref().expect("invariant: kernel state parked");
                wal.commit(&snapshot_line(seq, &snapshot::encode(st, &self.ws, &blob)))?;
            } else if !self.snapshot_unsupported {
                // A cadence was requested but the scheduler cannot
                // checkpoint: recovery will replay from genesis. Journal
                // that fact once so operators are not silently misled
                // about recovery cost.
                self.snapshot_unsupported = true;
                wal.commit(&snapshot_unsupported_line(seq))?;
            }
        }
        Ok(Step::Continue)
    }

    fn finish(
        mut self,
        sched: &mut dyn Scheduler,
        wal: &mut Wal<'_>,
    ) -> Result<ServiceOutcome, CoreError> {
        let arrivals_applied = self.decisions.len() as u64;
        let report = if self.crashed {
            None
        } else {
            let st = self.st.take().expect("invariant: kernel state parked");
            let k = Kernel::resume(&mut self.ws, &self.jobs, self.capacity, &mut self.sink, st);
            let (report, kernel_abort, _) = k.finish(sched);
            if self.aborted.is_none() {
                self.aborted = kernel_abort;
            }
            self.flush(wal)?;
            wal.sync()?;
            Some(report)
        };
        Ok(ServiceOutcome {
            report,
            events: self.sink.events,
            decisions: self.decisions,
            jobs: self.jobs,
            arrivals_applied,
            crashed: self.crashed,
            aborted: self.aborted,
            snapshot_unsupported: self.snapshot_unsupported,
        })
    }
}

/// Runs the streaming admission service over `stream` (JSONL arrivals),
/// journaling every record through `sink` (pass `None` to run without
/// durability — e.g. to produce a golden run in memory).
///
/// Returns the final report, trace, decisions and jobs; a seeded crash
/// point yields `report: None` with everything applied so far.
pub fn serve<P: CapacityProfile>(
    capacity: &P,
    cfg: &ServiceConfig,
    scheduler: &mut dyn Scheduler,
    stream: &str,
    sink: Option<&mut dyn JournalSink>,
) -> Result<ServiceOutcome, CoreError> {
    let arrivals = parse_stream(stream)?;
    let mut wal = Wal::new(sink, cfg.journal_attempts);
    let (c_lo, c_hi) = capacity.bounds();
    wal.commit(&open_line(cfg, c_lo, c_hi, capacity.rate_at(Time::ZERO)))?;
    let mut core = Core::new(capacity, cfg, arrivals.len());
    for (seq, a) in arrivals.iter().enumerate() {
        match core.apply_arrival(scheduler, &mut wal, seq as u64, a, None)? {
            Step::Continue => {}
            Step::Stop => break,
        }
    }
    core.finish(scheduler, &mut wal)
}

// ---------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------

/// A journaled verdict: `(admitted, reason, 1-based line)`.
type JournaledDecision = (bool, DecisionReason, usize);

/// A parsed journal. The snapshot blob — the largest record — borrows the
/// journal text rather than being copied.
struct ParsedJournal<'a> {
    header: JournalHeader,
    /// Arrival records, indexed by `seq` (the service journals them
    /// densely, in order).
    arrivals: Vec<Arrival>,
    /// Decision records, indexed by `seq`.
    decisions: Vec<JournaledDecision>,
    /// `(line, seq, blob)` of the last snapshot record.
    snapshot: Option<(usize, u64, &'a str)>,
    /// Trace events in journal order.
    trace: Vec<TraceEvent>,
    /// How many of `trace` precede the last snapshot record.
    trace_before_snapshot: usize,
}

/// Parses an `open` record.
fn parse_open(line: &str, lineno: usize) -> Result<JournalHeader, CoreError> {
    let fields = flat_fields(line, lineno)?;
    let get = |key: &str| field(&fields, key, lineno, "open record");
    let num = |key: &str| -> Result<f64, CoreError> {
        get(key)?
            .parse::<f64>()
            .map_err(|_| corrupt(lineno, format!("open record {key:?} is not a number")))
    };
    if get("version")? != "1" {
        return Err(corrupt(lineno, "unsupported journal version"));
    }
    Ok(JournalHeader {
        scheduler: get("scheduler")?.to_string(),
        k: num("k")?,
        delta: num("delta")?,
        c_lo: num("c_lo")?,
        c_hi: num("c_hi")?,
        rate: num("rate")?,
        queue_cap: get("queue_cap")?
            .parse::<usize>()
            .map_err(|_| corrupt(lineno, "open record \"queue_cap\" is not an integer"))?,
        snapshot_every: get("snapshot_every")?
            .parse::<u64>()
            .map_err(|_| corrupt(lineno, "open record \"snapshot_every\" is not an integer"))?,
        policy: DegradationPolicy::parse(get("policy")?)
            .ok_or_else(|| corrupt(lineno, "open record names an unknown degradation policy"))?,
    })
}

/// Classifies one non-blank journal line: `Ok(None)` for a trace event,
/// `Ok(Some(kind))` for a service record, an error for anything else.
fn service_kind(line: &str, lineno: usize) -> Result<Option<&str>, CoreError> {
    if line.starts_with("{\"t\":") {
        return Ok(None);
    }
    if !line.starts_with("{\"svc\":") {
        return Err(corrupt(
            lineno,
            "journal line is neither a service record nor a trace event",
        ));
    }
    line.strip_prefix("{\"svc\":\"")
        .and_then(|rest| rest.split('"').next())
        .map(Some)
        .ok_or_else(|| corrupt(lineno, "service record has no type tag"))
}

/// Checks that a record's `seq` is `expected`: the service journals
/// arrivals and decisions densely, in order.
fn in_sequence(
    fields: &[(&str, &str)],
    expected: usize,
    lineno: usize,
    what: &str,
) -> Result<(), CoreError> {
    let seq = field(fields, "seq", lineno, what)?;
    if seq.parse::<usize>().ok() != Some(expected) {
        return Err(corrupt(
            lineno,
            format!("{what} for seq {seq} is out of sequence (expected {expected})"),
        ));
    }
    Ok(())
}

fn no_open_record() -> CoreError {
    corrupt(1, "journal has no open record")
}

fn parse_journal(journal: &str) -> Result<ParsedJournal<'_>, CoreError> {
    let mut header: Option<JournalHeader> = None;
    let mut arrivals = Vec::new();
    let mut decisions = Vec::new();
    let mut snapshot = None;
    let mut trace = Vec::new();
    let mut trace_before_snapshot = 0;
    for (lineno, line) in numbered_lines(journal) {
        let Some(kind) = service_kind(line, lineno)? else {
            let ev = TraceEvent::parse_jsonl(line).map_err(|e| corrupt(lineno, e))?;
            trace.push(ev);
            continue;
        };
        if header.is_none() && kind != "open" {
            return Err(corrupt(lineno, "service record precedes the open record"));
        }
        match kind {
            "open" => {
                if header.is_some() {
                    return Err(corrupt(lineno, "journal has more than one open record"));
                }
                header = Some(parse_open(line, lineno)?);
            }
            "arrival" => {
                let fields = flat_fields(line, lineno)?;
                in_sequence(&fields, arrivals.len(), lineno, "arrival record")?;
                arrivals.push(arrival_from(&fields, lineno)?);
            }
            "decision" => {
                let fields = flat_fields(line, lineno)?;
                let get = |key: &str| field(&fields, key, lineno, "decision record");
                in_sequence(&fields, decisions.len(), lineno, "decision record")?;
                let admit = match get("admit")? {
                    "true" => true,
                    "false" => false,
                    _ => return Err(corrupt(lineno, "decision record \"admit\" is not a bool")),
                };
                let reason = get("reason")?;
                let reason = DecisionReason::parse(reason).ok_or_else(|| {
                    corrupt(lineno, format!("unknown decision reason {reason:?}"))
                })?;
                decisions.push((admit, reason, lineno));
            }
            "snapshot" => {
                // The blob contains the flat parser's separators, so it
                // is extracted positionally: it is always the last key.
                let (head, blob) = line
                    .split_once("\"blob\":\"")
                    .ok_or_else(|| corrupt(lineno, "snapshot record has no blob"))?;
                let blob = blob
                    .strip_suffix("\"}")
                    .ok_or_else(|| corrupt(lineno, "snapshot record is not terminated"))?;
                let seq = head
                    .split_once("\"seq\":")
                    .and_then(|(_, rest)| rest.trim_end_matches([',', ' ']).parse::<u64>().ok())
                    .ok_or_else(|| corrupt(lineno, "snapshot record has no seq"))?;
                snapshot = Some((lineno, seq, blob));
                trace_before_snapshot = trace.len();
            }
            "snapshot-unsupported" => {
                // Informational: the run's scheduler could not checkpoint,
                // so there is no snapshot to restore — replay handles it.
                field(
                    &flat_fields(line, lineno)?,
                    "seq",
                    lineno,
                    "snapshot-unsupported record",
                )?
                .parse::<u64>()
                .map_err(|_| corrupt(lineno, "snapshot-unsupported record has no seq"))?;
            }
            other => {
                return Err(corrupt(
                    lineno,
                    format!("unknown service record type {other:?}"),
                ));
            }
        }
    }
    Ok(ParsedJournal {
        header: header.ok_or_else(no_open_record)?,
        arrivals,
        decisions,
        snapshot,
        trace,
        trace_before_snapshot,
    })
}

/// Parses just the `open` record of a journal — enough for a caller to
/// rebuild the scheduler (via its factory) and the capacity profile
/// before calling [`recover`]. It reads up to the first service record
/// and no further, so the cost is independent of the journal's length;
/// [`recover`] validates the rest.
pub fn journal_header(journal: &str) -> Result<JournalHeader, CoreError> {
    for (lineno, line) in numbered_lines(journal) {
        match service_kind(line, lineno)? {
            None => continue,
            Some("open") => return parse_open(line, lineno),
            Some(_) => return Err(corrupt(lineno, "service record precedes the open record")),
        }
    }
    Err(no_open_record())
}

/// Recovers a crashed (or merely stopped) service run: restores the last
/// snapshot if one exists, deterministically replays the journal tail,
/// then continues with any arrivals from `stream` the journal never saw,
/// and finishes the run.
///
/// `scheduler` must be a fresh instance of the journaled policy (see
/// [`journal_header`]); its state is restored from the snapshot blob.
/// The recovered run's final trace — and therefore its value-loss
/// ledger — is byte-identical to the same run uninterrupted.
pub fn recover<P: CapacityProfile>(
    capacity: &P,
    scheduler: &mut dyn Scheduler,
    journal: &str,
    stream: &str,
) -> Result<ServiceOutcome, CoreError> {
    let mut parsed = parse_journal(journal)?;
    let (c_lo, c_hi) = capacity.bounds();
    // lint: allow(L001) — capacity-class identity is bit-equality, not tolerance
    if parsed.header.c_lo.to_bits() != c_lo.to_bits()
        // lint: allow(L001) — capacity-class identity is bit-equality, not tolerance
        || parsed.header.c_hi.to_bits() != c_hi.to_bits()
    {
        return Err(corrupt(
            1,
            format!(
                "journal was written for capacity class ({}, {}), not ({c_lo}, {c_hi})",
                parsed.header.c_lo, parsed.header.c_hi
            ),
        ));
    }
    let cfg = parsed.header.config();
    // Stream lines the journal already covers are never parsed.
    let covered = parsed.arrivals.len();
    let mut unjournaled = numbered_lines(stream).skip(covered);
    let mut wal = Wal::new(None, 1);
    let arrivals = numbered_lines(stream).count().max(covered);
    let mut core = Core::new(capacity, &cfg, arrivals);
    let mut trace = std::mem::take(&mut parsed.trace);

    let start_seq = match parsed.snapshot {
        Some((lineno, snap_seq, blob)) => {
            // Rebuild the bookkeeping the snapshot deliberately omits by
            // folding the journaled prefix: jobs, verdicts and the
            // admission book are pure functions of the arrival sequence.
            for seq in 0..=snap_seq {
                let a = parsed.arrivals.get(seq as usize).ok_or_else(|| {
                    corrupt(
                        lineno,
                        format!("snapshot covers arrival {seq} but its record is missing"),
                    )
                })?;
                let job = Job::new(
                    JobId(seq),
                    Time::new(a.release),
                    Time::new(a.deadline),
                    a.workload,
                    a.value,
                )?;
                let _ = core.book.inspect_release(&job);
                core.last_release = a.release;
                let (admitted, reason, _) =
                    parsed.decisions.get(seq as usize).ok_or_else(|| {
                        corrupt(
                            lineno,
                            format!("snapshot covers arrival {seq} but its decision is missing"),
                        )
                    })?;
                core.decisions.push(ServiceDecision {
                    seq,
                    job: JobId(seq),
                    admitted: *admitted,
                    reason: *reason,
                });
                core.jobs.push(job)?;
            }
            let image = snapshot::decode(blob, lineno)?;
            if image.jobs() != core.jobs.len() {
                return Err(corrupt(
                    lineno,
                    format!(
                        "snapshot tables cover {} jobs but the journal prefix has {}",
                        image.jobs(),
                        core.jobs.len()
                    ),
                ));
            }
            scheduler.restore_state(&image.sched_blob)?;
            core.st = Some(image.apply(&mut core.ws));
            let ws = &core.ws;
            core.live = core
                .decisions
                .iter()
                .filter(|d| d.admitted && !ws.resolved(d.job.index()))
                .map(|d| d.job)
                .collect();
            // Trace lines before the snapshot record are the final,
            // authoritative event prefix; later ones are regenerated.
            trace.truncate(parsed.trace_before_snapshot);
            core.sink.events = trace;
            core.flushed = core.sink.events.len();
            snap_seq + 1
        }
        None => {
            drop(trace);
            0
        }
    };

    let mut seq = start_seq;
    loop {
        let a = match parsed.arrivals.get(seq as usize) {
            Some(a) => *a,
            None => match unjournaled.next() {
                Some((lineno, line)) => arrival_from(&flat_fields(line, lineno)?, lineno)?,
                None => break,
            },
        };
        let journaled = parsed.decisions.get(seq as usize);
        match core.apply_arrival(scheduler, &mut wal, seq, &a, journaled)? {
            Step::Continue => {}
            Step::Stop => break,
        }
        seq += 1;
    }
    core.finish(scheduler, &mut wal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_parser_round_trips_arrival_lines() {
        let a = Arrival {
            release: 0.5,
            deadline: 3.25,
            workload: 1.0,
            value: 2.0,
        };
        let line = arrival_line(7, &a);
        assert_eq!(
            line,
            "{\"svc\":\"arrival\",\"seq\":7,\"r\":0.5,\"d\":3.25,\"p\":1,\"v\":2}"
        );
        // The stream format is the same object minus the svc/seq keys.
        let stream =
            "{\"r\":0.5,\"d\":3.25,\"p\":1,\"v\":2}\n\n{\"r\":1,\"d\":2,\"p\":0.5,\"v\":1}\n";
        let parsed = parse_stream(stream).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], a);
        assert_eq!(parsed[1].release, 1.0);
    }

    #[test]
    fn malformed_streams_yield_typed_errors() {
        for bad in [
            "not json",
            "{\"r\":0.5,\"d\":3}",                 // missing keys
            "{\"r\":x,\"d\":3,\"p\":1,\"v\":2}",   // non-number
            "{\"r\":NaN,\"d\":3,\"p\":1,\"v\":2}", // NaN smuggling
        ] {
            assert!(
                matches!(
                    parse_stream(bad),
                    Err(CoreError::CorruptJournal { line: 1, .. })
                ),
                "expected typed parse error for {bad:?}"
            );
        }
    }

    #[test]
    fn decision_reasons_round_trip_their_wire_names() {
        for r in [
            DecisionReason::Admit,
            DecisionReason::Inadmissible,
            DecisionReason::Duplicate,
            DecisionReason::ValueSpike,
            DecisionReason::Shed,
        ] {
            assert_eq!(DecisionReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(DecisionReason::parse("bogus"), None);
        assert!(DecisionReason::Duplicate.is_fault());
        assert!(!DecisionReason::Shed.is_fault());
    }

    #[test]
    fn journal_header_round_trips_the_open_record() {
        let mut cfg = ServiceConfig::new("vdover", 7.0);
        cfg.queue_cap = 64;
        cfg.snapshot_every = 8;
        cfg.policy = DegradationPolicy::BestEffort;
        let line = open_line(&cfg, 1.0, 35.0, 1.0);
        let header = journal_header(&line).unwrap();
        assert_eq!(header.scheduler, "vdover");
        assert_eq!(header.k, 7.0);
        assert_eq!(header.c_lo, 1.0);
        assert_eq!(header.c_hi, 35.0);
        assert_eq!(header.queue_cap, 64);
        assert_eq!(header.snapshot_every, 8);
        assert_eq!(header.policy, DegradationPolicy::BestEffort);
        // The header's config reconstructs the journaled knobs (harness
        // knobs reset).
        let rebuilt = header.config();
        assert_eq!(rebuilt.scheduler, cfg.scheduler);
        assert_eq!(rebuilt.queue_cap, cfg.queue_cap);
        assert_eq!(rebuilt.crash_after, None);
    }

    #[test]
    fn journal_parser_flags_corrupt_records() {
        let open = open_line(&ServiceConfig::new("vdover", 7.0), 1.0, 2.0, 1.0);
        let a = Arrival {
            release: 0.0,
            deadline: 2.0,
            workload: 1.0,
            value: 1.0,
        };
        let arrival = arrival_line(0, &a);
        let cases: &[(String, usize)] = &[
            ("".into(), 1),                                      // no open record
            (format!("{open}\n{open}"), 2),                      // duplicate open
            (format!("{open}\n{{\"svc\":\"weird\"}}"), 2),       // unknown type
            (format!("{open}\nplain text"), 2),                  // unclassifiable
            (
                format!("{open}\n{{\"svc\":\"decision\",\"seq\":0,\"admit\":\"maybe\",\"reason\":\"admit\"}}"),
                2,
            ),
            (
                format!("{open}\n{{\"svc\":\"decision\",\"seq\":0,\"admit\":true,\"reason\":\"bogus\"}}"),
                2,
            ),
            (format!("{arrival}\n{open}"), 1),                  // service record before open
            (format!("{open}\n{arrival}\n{arrival}"), 3),      // duplicate arrival
            (format!("{open}\n{}", arrival_line(1, &a)), 2),    // arrival out of sequence
        ];
        for (journal, at) in cases {
            match parse_journal(journal) {
                Err(CoreError::CorruptJournal { line, .. }) => assert_eq!(line, *at),
                Err(other) => panic!("expected CorruptJournal for {journal:?}, got {other:?}"),
                Ok(_) => panic!("expected CorruptJournal for {journal:?}, got Ok"),
            }
        }
    }

    #[test]
    fn snapshot_records_extract_blob_positionally() {
        let open = open_line(&ServiceConfig::new("vdover", 7.0), 1.0, 2.0, 1.0);
        let blob = "csnap1;kernel,with,commas;and:colons;0;;,,,,;;;sched|blob";
        let journal = format!("{open}\n{}", snapshot_line(4, blob));
        let parsed = parse_journal(&journal).unwrap();
        let (line, seq, got) = parsed.snapshot.expect("snapshot record parsed");
        assert_eq!((line, seq), (2, 4));
        assert_eq!(got, blob);
    }
}
