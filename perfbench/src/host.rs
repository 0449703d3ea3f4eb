//! Host-speed probes: fixed work owned by the benchmark, timed next to
//! every measured stretch so that timings can be stated in reference
//! seconds.
//!
//! The benchmark runs on a shared host whose speed drifts: neighbours
//! contend for the shared cache and the disk, and the same binary has
//! measured up to 1.75× apart within an hour. A run cannot avoid that drift, but
//! it can measure it. Two probes, each a fixed amount of work that no
//! change to the library can alter, run before and after every measured
//! stretch:
//!
//! - the CPU probe fills a 3.2 MB buffer (larger than a core's L2, so it
//!   works in the shared cache as the workloads do) with the same
//!   pseudo-random words every time and sorts it;
//! - the disk probe, used only by workloads that sync a journal, appends
//!   64 lines of 650 bytes (a journal record's size) to a fresh file in the
//!   run's temporary directory, syncing after each as `FileJournal` does.
//!
//! A stretch of `t` host nanoseconds spent on a resource whose probe took
//! `p` nanoseconds around it counts as `t · ref / p` reference
//! nanoseconds, where `ref` is the probe's fixed reference time
//! ([`CPU_REF_NS`], [`DISK_REF_NS`]). A program that gets faster does less
//! work between the probes and shows a higher rate in reference seconds;
//! a host that gets slower slows the probes with it and leaves the rate
//! where it was.

use cloudsched_obs::{Clock, MonotonicClock};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Reference time of the CPU probe, nanoseconds: close to what it takes on
/// the 2-vCPU host the benchmark was defined on.
pub const CPU_REF_NS: f64 = 10e6;

/// Reference time of the disk probe, nanoseconds, likewise.
pub const DISK_REF_NS: f64 = 5e6;

/// Words the CPU probe sorts (8 bytes each).
const CPU_WORDS: usize = 400_000;

/// Synced appends per disk probe, and the bytes of each.
const DISK_SYNCS: usize = 64;
const DISK_LINE: usize = 650;

/// Probe files of concurrent runs in one process (the self-test) differ.
static FILES: AtomicU64 = AtomicU64::new(0);

/// One reading of the probes, nanoseconds; `disk_ns` is 0 when the disk
/// probe is off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// CPU probe time.
    pub cpu_ns: f64,
    /// Disk probe time.
    pub disk_ns: f64,
}

impl Reading {
    /// The mean of two readings: the probe speed across the stretch they
    /// bracket.
    pub fn mean(self, other: Reading) -> Reading {
        Reading {
            cpu_ns: (self.cpu_ns + other.cpu_ns) / 2.0,
            disk_ns: (self.disk_ns + other.disk_ns) / 2.0,
        }
    }

    /// Reference nanoseconds of a stretch of `cpu_ns` host nanoseconds of
    /// computation and `disk_ns` host nanoseconds inside journal syncs.
    pub fn reference_ns(self, cpu_ns: f64, disk_ns: f64) -> f64 {
        cpu_ns * CPU_REF_NS / self.cpu_ns.max(1.0) + disk_ns * DISK_REF_NS / self.disk_ns.max(1.0)
    }
}

/// The probes of one run.
pub struct HostProbe {
    clock: MonotonicClock,
    words: Vec<u64>,
    disk_file: Option<PathBuf>,
}

impl HostProbe {
    /// Probes CPU speed, and disk sync latency in `disk_dir` when given.
    pub fn new(clock: MonotonicClock, disk_dir: Option<&Path>) -> HostProbe {
        HostProbe {
            clock,
            words: vec![0; CPU_WORDS],
            disk_file: disk_dir.map(|dir| {
                dir.join(format!(
                    "host-probe-{}-{}.tmp",
                    std::process::id(),
                    FILES.fetch_add(1, Ordering::Relaxed)
                ))
            }),
        }
    }

    /// Runs the probes once.
    pub fn read(&mut self) -> Result<Reading, String> {
        let cpu_ns = self.cpu()?;
        let disk_ns = match &self.disk_file {
            Some(path) => self.disk(path)?,
            None => 0.0,
        };
        Ok(Reading { cpu_ns, disk_ns })
    }

    fn cpu(&mut self) -> Result<f64, String> {
        let t0 = self.clock.now_ns();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for w in &mut self.words {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        self.words.sort_unstable();
        let ns = self.clock.now_ns().saturating_sub(t0);
        // The sorted buffer is checked, so the work cannot be skipped.
        if self.words.windows(2).any(|w| w[0] > w[1]) {
            return Err("host probe: the CPU probe's sort is out of order".into());
        }
        Ok(ns as f64)
    }

    fn disk(&self, path: &Path) -> Result<f64, String> {
        let io = |e: std::io::Error| format!("host probe {}: {e}", path.display());
        let line = [b'x'; DISK_LINE];
        let mut file = std::fs::File::create(path).map_err(io)?;
        let t0 = self.clock.now_ns();
        for _ in 0..DISK_SYNCS {
            file.write_all(&line).map_err(io)?;
            file.sync_data().map_err(io)?;
        }
        let ns = self.clock.now_ns().saturating_sub(t0);
        drop(file);
        std::fs::remove_file(path).map_err(io)?;
        Ok(ns as f64)
    }
}
