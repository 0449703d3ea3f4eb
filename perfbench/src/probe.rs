//! Tracing from the outside: wrappers around the library's public traits
//! (`Scheduler`, `CapacityProfile`, `JournalSink`, `Dispatch`) and a span
//! log for the public calls the workloads make.
//!
//! Fine-grained calls (scheduler handlers, capacity queries, journal
//! appends and syncs, dispatch choices) are aggregated into a [`Tally`] of
//! exact counts and summed nanoseconds; the two most frequent kinds are
//! timed one call in [`SAMPLE`]. Coarse calls (`generate`,
//! `simulate_into`, `serve`, `recover`, `run_fleet`, ...) are recorded as
//! [`Span`]s with name, start, end and parent, kept in memory and written
//! when the run ends. A span's self time is its duration minus its child
//! spans and minus the aggregated layer time that accrued inside it.
//!
//! Every wrapper forwards every trait method, defaulted ones included, so
//! a traced run produces the same outputs as an untraced one.
//!
//! Wall time comes only from [`cloudsched_obs::MonotonicClock`].

use cloudsched_capacity::CapacityProfile;
use cloudsched_core::{CoreError, Job, JobId, Time};
use cloudsched_obs::{Clock, JournalSink, MonotonicClock};
use cloudsched_sim::{Decision, Dispatch, FleetLoads, Scheduler, SimContext};
use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// One aggregated counter of a [`Tally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C {
    /// Calls into the capacity profile.
    CapCalls,
    /// Nanoseconds inside the capacity profile (sampled, see [`SAMPLE`]).
    CapNs,
    /// The part of [`C::CapNs`] spent inside scheduler handlers.
    CapInHandlerNs,
    /// `Scheduler::on_release` calls.
    Release,
    /// `Scheduler::on_completion` calls.
    Completion,
    /// `Scheduler::on_deadline_miss` calls.
    DeadlineMiss,
    /// `Scheduler::on_timer` calls.
    Timer,
    /// Nanoseconds inside the four handlers, nested capacity included
    /// (sampled per handler, see [`SAMPLE`]).
    HandlerNs,
    /// `Scheduler::snapshot_state` calls.
    SnapshotCalls,
    /// Nanoseconds inside `Scheduler::snapshot_state`.
    SnapshotNs,
    /// `Scheduler::restore_state` calls.
    RestoreCalls,
    /// Nanoseconds inside `Scheduler::restore_state`.
    RestoreNs,
    /// `Dispatch::choose` calls.
    DispatchCalls,
    /// Nanoseconds inside `Dispatch::choose`.
    DispatchNs,
    /// `JournalSink::append` calls.
    JournalAppends,
    /// Bytes appended to the journal, newline included.
    JournalAppendBytes,
    /// Nanoseconds inside `JournalSink::append`.
    JournalAppendNs,
    /// `JournalSink::sync` calls.
    JournalSyncs,
    /// Nanoseconds inside `JournalSink::sync`.
    JournalSyncNs,
    /// Snapshot records appended.
    JournalSnapshotRecords,
    /// Bytes of snapshot records appended.
    JournalSnapshotBytes,
    /// Journal operations that returned an error (retried or not).
    JournalErrors,
}

/// Number of [`C`] variants.
pub const COUNTERS: usize = 22;

/// Scheduler handlers and capacity queries are timed one call in
/// `SAMPLE` (counted every call); their nanosecond totals are the sampled
/// times scaled by `SAMPLE`. At 100–800 ns per decision, timing every call
/// would cost more than the work it measures.
pub const SAMPLE: u64 = 8;

/// Exact counts and summed nanoseconds, one cell per [`C`]. Single-threaded
/// by design (`Cell`s): a fleet machine owns its own tally on its worker
/// thread and hands the totals back when it is dropped.
#[derive(Debug, Default)]
pub struct Tally {
    cells: [Cell<u64>; COUNTERS],
    in_handler: Cell<bool>,
    clock_cost_ns: u64,
}

impl Tally {
    /// A zeroed tally that charges no clock cost.
    pub fn new() -> Self {
        Tally::default()
    }

    /// A zeroed tally that subtracts `clock_cost_ns`, the cost of one clock
    /// read, from every interval it times.
    pub fn with_clock_cost(clock_cost_ns: u64) -> Self {
        Tally {
            clock_cost_ns,
            ..Tally::default()
        }
    }

    /// The cost of one clock read this tally subtracts.
    pub fn clock_cost_ns(&self) -> u64 {
        self.clock_cost_ns
    }

    /// Nanoseconds from `t0` to `t1`, less the clock read inside them.
    fn interval(&self, t0: u64, t1: u64) -> u64 {
        t1.saturating_sub(t0).saturating_sub(self.clock_cost_ns)
    }

    /// Counts one call in counter `c` and says whether to time it: every
    /// [`SAMPLE`]-th call of a counter is timed.
    fn sample(&self, c: C) -> bool {
        let calls = self.get(c);
        self.add(c, 1);
        calls.is_multiple_of(SAMPLE)
    }

    /// Adds `v` to counter `c`.
    pub fn add(&self, c: C, v: u64) {
        let cell = &self.cells[c as usize];
        cell.set(cell.get().saturating_add(v));
    }

    /// The current value of counter `c`.
    pub fn get(&self, c: C) -> u64 {
        self.cells[c as usize].get()
    }

    /// Every counter, in [`C`] order.
    pub fn values(&self) -> [u64; COUNTERS] {
        std::array::from_fn(|i| self.cells[i].get())
    }

    /// Adds another tally's totals into this one.
    pub fn absorb(&self, other: &[u64; COUNTERS]) {
        for (cell, v) in self.cells.iter().zip(other) {
            cell.set(cell.get().saturating_add(*v));
        }
    }

    /// Layer time that spans subtract from their own duration: scheduler
    /// calls (nested capacity included), capacity outside handlers, journal
    /// I/O and dispatch choices.
    pub fn layer_ns(&self) -> u64 {
        let sched = self.get(C::HandlerNs) + self.get(C::SnapshotNs) + self.get(C::RestoreNs);
        let cap_outside = self
            .get(C::CapNs)
            .saturating_sub(self.get(C::CapInHandlerNs));
        let journal = self.get(C::JournalAppendNs) + self.get(C::JournalSyncNs);
        sched + cap_outside + journal + self.get(C::DispatchNs)
    }

    /// Scheduler handler self time: handler time minus nested capacity time.
    pub fn handler_self_ns(&self) -> u64 {
        self.get(C::HandlerNs)
            .saturating_sub(self.get(C::CapInHandlerNs))
    }
}

/// One recorded span of a public call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in its log.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The public call, e.g. `sim.engine.simulate_into`.
    pub name: &'static str,
    /// Start, nanoseconds on the run's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the run's clock.
    pub end_ns: u64,
    /// Aggregated layer time ([`Tally::layer_ns`]) that accrued inside.
    pub layer_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The traced run's recorder: one clock, one tally, one span log.
#[derive(Debug, Default)]
pub struct Probe {
    /// The only wall clock the benchmark reads.
    pub clock: MonotonicClock,
    /// Aggregated counters of the wrapped traits.
    pub tally: Tally,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Probe {
    /// A recorder anchored at `clock`'s origin. Its tally subtracts the
    /// median cost of one clock read, measured here, from every interval.
    pub fn new(clock: MonotonicClock) -> Self {
        let mut gaps: Vec<f64> = (0..1000)
            .map(|_| {
                let t0 = clock.now_ns();
                clock.now_ns().saturating_sub(t0) as f64
            })
            .collect();
        gaps.sort_by(f64::total_cmp);
        Probe {
            clock,
            tally: Tally::with_clock_cost(gaps[gaps.len() / 2] as u64),
            ..Probe::default()
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn begin(&self, name: &'static str) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.open.borrow().last().copied();
        spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.clock.now_ns(),
            end_ns: 0,
            layer_ns: self.tally.layer_ns(),
        });
        self.open.borrow_mut().push(id);
        id
    }

    fn end(&self, id: usize) {
        let now = self.clock.now_ns();
        let layer = self.tally.layer_ns();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id];
        span.end_ns = now;
        span.layer_ns = layer.saturating_sub(span.layer_ns);
        self.open.borrow_mut().pop();
    }

    /// Records a span measured elsewhere (a fleet machine on a worker
    /// thread) under the currently open span.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, layer_ns: u64) {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.open.borrow().last().copied();
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            layer_ns,
        });
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed self time of every span called `name`: duration minus
    /// child spans minus the aggregated layer time not already inside a
    /// child span.
    pub fn self_ns(&self, name: &str) -> u64 {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_time(&spans, s))
            .sum()
    }
}

/// Self time of `span` within `spans`.
pub fn self_time(spans: &[Span], span: &Span) -> u64 {
    let (child_ns, child_layer) = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .fold((0u64, 0u64), |(d, l), c| {
            (d + c.duration_ns(), l + c.layer_ns)
        });
    span.duration_ns()
        .saturating_sub(child_ns)
        .saturating_sub(span.layer_ns.saturating_sub(child_layer))
}

/// A [`Scheduler`] that counts every call into `inner` and times the
/// handlers one call in [`SAMPLE`] (snapshot and restore every call).
///
/// `S` is any owner of a scheduler (`&mut dyn Scheduler`, a `Box`), `T`
/// any owner of the tally (`&Tally` on one thread, `Box<Tally>` on a
/// fleet worker). A fleet machine also carries a [`MachineLog`] that
/// receives its span and totals on drop.
pub struct TimedScheduler<S, T: Deref<Target = Tally>> {
    inner: S,
    tally: T,
    clock: MonotonicClock,
    machine: Option<(MachineLog, u64)>,
}

impl<S, T: Deref<Target = Tally>> TimedScheduler<S, T> {
    /// Wraps `inner`, counting into `tally`.
    pub fn new(inner: S, tally: T, clock: MonotonicClock) -> Self {
        TimedScheduler {
            inner,
            tally,
            clock,
            machine: None,
        }
    }

    fn handler<D: Scheduler + ?Sized>(
        &mut self,
        which: C,
        f: impl FnOnce(&mut D) -> Decision,
    ) -> Decision
    where
        S: DerefMut<Target = D>,
    {
        self.tally.in_handler.set(true);
        let decision = if self.tally.sample(which) {
            let t0 = self.clock.now_ns();
            let decision = f(&mut *self.inner);
            let dt = self.tally.interval(t0, self.clock.now_ns());
            self.tally.add(C::HandlerNs, dt * SAMPLE);
            decision
        } else {
            f(&mut *self.inner)
        };
        self.tally.in_handler.set(false);
        decision
    }
}

impl<D, S, T> Scheduler for TimedScheduler<S, T>
where
    D: Scheduler + ?Sized,
    S: DerefMut<Target = D>,
    T: Deref<Target = Tally>,
{
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.handler(C::Release, |s| s.on_release(ctx, job))
    }

    fn on_completion(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.handler(C::Completion, |s| s.on_completion(ctx, job))
    }

    fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.handler(C::DeadlineMiss, |s| s.on_deadline_miss(ctx, job))
    }

    fn on_timer(&mut self, ctx: &mut SimContext<'_>, job: JobId, token: u64) -> Decision {
        self.handler(C::Timer, |s| s.on_timer(ctx, job, token))
    }

    fn snapshot_state(&self) -> Option<String> {
        let t0 = self.clock.now_ns();
        let state = self.inner.snapshot_state();
        let t1 = self.clock.now_ns();
        self.tally.add(C::SnapshotCalls, 1);
        self.tally.add(C::SnapshotNs, self.tally.interval(t0, t1));
        state
    }

    fn restore_state(&mut self, state: &str) -> Result<(), CoreError> {
        let t0 = self.clock.now_ns();
        let out = self.inner.restore_state(state);
        let t1 = self.clock.now_ns();
        self.tally.add(C::RestoreCalls, 1);
        self.tally.add(C::RestoreNs, self.tally.interval(t0, t1));
        out
    }
}

/// What a fleet machine's wrapper hands back when it is dropped.
#[derive(Debug, Clone)]
pub struct MachineSpan {
    /// Factory call, nanoseconds on the run's clock.
    pub start_ns: u64,
    /// Wrapper drop, nanoseconds on the run's clock.
    pub end_ns: u64,
    /// The machine's tally totals.
    pub totals: [u64; COUNTERS],
}

/// Shared sink of [`MachineSpan`]s, filled from fleet worker threads.
pub type MachineLog = Arc<Mutex<Vec<MachineSpan>>>;

impl<S> TimedScheduler<S, Box<Tally>> {
    /// A fleet machine's scheduler: its span runs from this call (the
    /// factory call) until the wrapper is dropped, when it lands in `log`.
    pub fn machine(inner: S, clock: MonotonicClock, clock_cost_ns: u64, log: MachineLog) -> Self {
        let start = clock.now_ns();
        TimedScheduler {
            inner,
            tally: Box::new(Tally::with_clock_cost(clock_cost_ns)),
            clock,
            machine: Some((log, start)),
        }
    }
}

impl<S, T: Deref<Target = Tally>> Drop for TimedScheduler<S, T> {
    fn drop(&mut self) {
        if let Some((log, start_ns)) = self.machine.take() {
            let span = MachineSpan {
                start_ns,
                end_ns: self.clock.now_ns(),
                totals: self.tally.values(),
            };
            // A poisoned log means another machine panicked; that panic is
            // already propagating, so this span is simply dropped.
            if let Ok(mut spans) = log.lock() {
                spans.push(span);
            }
        }
    }
}

/// A [`CapacityProfile`] that counts every query to `inner` and times one
/// in [`SAMPLE`].
pub struct TimedCapacity<'t, P: ?Sized> {
    inner: &'t P,
    tally: &'t Tally,
    clock: MonotonicClock,
}

impl<'t, P: CapacityProfile + ?Sized> TimedCapacity<'t, P> {
    /// Wraps `inner`, counting into `tally`.
    pub fn new(inner: &'t P, tally: &'t Tally, clock: MonotonicClock) -> Self {
        TimedCapacity {
            inner,
            tally,
            clock,
        }
    }

    fn timed<R>(&self, f: impl FnOnce(&P) -> R) -> R {
        if !self.tally.sample(C::CapCalls) {
            return f(self.inner);
        }
        let t0 = self.clock.now_ns();
        let out = f(self.inner);
        let dt = self.tally.interval(t0, self.clock.now_ns()) * SAMPLE;
        self.tally.add(C::CapNs, dt);
        if self.tally.in_handler.get() {
            self.tally.add(C::CapInHandlerNs, dt);
        }
        out
    }
}

impl<P: CapacityProfile + ?Sized> CapacityProfile for TimedCapacity<'_, P> {
    fn rate_at(&self, t: Time) -> f64 {
        self.timed(|p| p.rate_at(t))
    }

    fn integrate(&self, a: Time, b: Time) -> f64 {
        self.timed(|p| p.integrate(a, b))
    }

    fn time_to_complete(&self, from: Time, workload: f64) -> Time {
        self.timed(|p| p.time_to_complete(from, workload))
    }

    fn bounds(&self) -> (f64, f64) {
        self.timed(|p| p.bounds())
    }

    fn next_change_after(&self, t: Time) -> Time {
        self.timed(|p| p.next_change_after(t))
    }

    fn delta(&self) -> f64 {
        self.timed(|p| p.delta())
    }

    fn c_lo(&self) -> f64 {
        self.timed(|p| p.c_lo())
    }

    fn c_hi(&self) -> f64 {
        self.timed(|p| p.c_hi())
    }
}

/// A [`Dispatch`] that counts and times every choice of `inner`.
pub struct TimedDispatch<'t> {
    inner: &'t mut dyn Dispatch,
    tally: &'t Tally,
    clock: MonotonicClock,
}

impl<'t> TimedDispatch<'t> {
    /// Wraps `inner`, counting into `tally`.
    pub fn new(inner: &'t mut dyn Dispatch, tally: &'t Tally, clock: MonotonicClock) -> Self {
        TimedDispatch {
            inner,
            tally,
            clock,
        }
    }
}

impl Dispatch for TimedDispatch<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn choose(&mut self, job: &Job, loads: &FleetLoads<'_>) -> usize {
        let t0 = self.clock.now_ns();
        let m = self.inner.choose(job, loads);
        self.tally
            .add(C::DispatchNs, self.tally.interval(t0, self.clock.now_ns()));
        self.tally.add(C::DispatchCalls, 1);
        m
    }
}

/// A [`JournalSink`] that takes the admission timestamps and sync times of
/// the untraced run and, when traced, counts and times every append and
/// sync.
///
/// Admission latency runs from the append of an arrival record to the
/// return of the first successful sync after its decision record: the
/// moment the admission is durable. Untraced, that and the time inside
/// `sync` (which the host's disk sets, see [`crate::host`]) are the only
/// instrumentation: two clock reads per arrival and two per sync.
pub struct TimedJournal<'t, J> {
    inner: J,
    tally: &'t Tally,
    clock: MonotonicClock,
    traced: bool,
    arrival_ns: Option<u64>,
    decided: bool,
    /// Admission latency of every arrival, nanoseconds, arrival order.
    pub admit_ns: Vec<u64>,
    /// Sequence number of the last snapshot record appended.
    pub last_snapshot_seq: Option<u64>,
    /// Wall time inside `sync`, nanoseconds, traced or not.
    pub sync_ns: u64,
}

impl<'t, J: JournalSink> TimedJournal<'t, J> {
    /// Wraps `inner`; `traced` turns on per-call counting and timing.
    pub fn new(inner: J, tally: &'t Tally, clock: MonotonicClock, traced: bool) -> Self {
        TimedJournal {
            inner,
            tally,
            clock,
            traced,
            arrival_ns: None,
            decided: false,
            admit_ns: Vec::new(),
            last_snapshot_seq: None,
            sync_ns: 0,
        }
    }
}

/// The `seq` field of a snapshot record.
fn snapshot_seq(line: &str) -> Option<u64> {
    let rest = line.split_once("\"seq\":")?.1;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

impl<J: JournalSink> JournalSink for TimedJournal<'_, J> {
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        let is_arrival = line.starts_with("{\"svc\":\"arrival\"");
        let t0 = if is_arrival || self.traced {
            self.clock.now_ns()
        } else {
            0
        };
        let out = self.inner.append(line);
        if self.traced {
            let t1 = self.clock.now_ns();
            self.tally.add(C::JournalAppends, 1);
            self.tally
                .add(C::JournalAppendNs, self.tally.interval(t0, t1));
            if out.is_err() {
                self.tally.add(C::JournalErrors, 1);
            }
        }
        if out.is_ok() {
            let bytes = line.len() as u64 + 1;
            self.tally.add(C::JournalAppendBytes, bytes);
            if line.starts_with("{\"svc\":\"snapshot\"") {
                self.tally.add(C::JournalSnapshotRecords, 1);
                self.tally.add(C::JournalSnapshotBytes, bytes);
                self.last_snapshot_seq = snapshot_seq(line);
            }
            if is_arrival {
                self.arrival_ns = Some(t0);
            } else if line.starts_with("{\"svc\":\"decision\"") {
                self.decided = true;
            }
        }
        out
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let t0 = self.clock.now_ns();
        let out = self.inner.sync();
        let durable_decision = out.is_ok() && self.decided;
        let t1 = self.clock.now_ns();
        self.sync_ns += t1.saturating_sub(t0);
        if self.traced {
            self.tally.add(C::JournalSyncs, 1);
            self.tally
                .add(C::JournalSyncNs, self.tally.interval(t0, t1));
            if out.is_err() {
                self.tally.add(C::JournalErrors, 1);
            }
        }
        if durable_decision {
            if let Some(a) = self.arrival_ns.take() {
                self.admit_ns.push(t1.saturating_sub(a));
            }
            self.decided = false;
        }
        out
    }
}
