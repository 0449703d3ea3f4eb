//! The benchmark's self-test: every workload at a tiny size, the recorded
//! digests at the standard size, traced against untraced, seeded failures,
//! the metric catalogue against `BENCHMARK.json`, and the lint.

#![forbid(unsafe_code)]

use cloudsched_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use cloudsched_perfbench::{run, Config, JournalFault, Outcome, Size, Workload};
use std::path::{Path, PathBuf};

/// A minimal JSON value, enough to read `BENCHMARK.json` and result lines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn parse_json(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing content after JSON value");
    v
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(fields);
                }
                let Json::Str(key) = value(b, pos) else {
                    panic!("object key is not a string")
                };
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':');
                *pos += 1;
                fields.push((key, value(b, pos)));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b']' {
                    *pos += 1;
                    return Json::Arr(items);
                }
                items.push(value(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => {
            *pos += 1;
            let start = *pos;
            while b[*pos] != b'"' {
                assert_ne!(b[*pos], b'\\', "escapes are not used in these files");
                *pos += 1;
            }
            *pos += 1;
            Json::Str(String::from_utf8(b[start..*pos - 1].to_vec()).expect("utf-8"))
        }
        b't' | b'f' | b'n' => {
            for (word, v) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*pos..].starts_with(word.as_bytes()) {
                    *pos += word.len();
                    return v;
                }
            }
            panic!("bad literal at {pos}");
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ascii");
            Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
        }
    }
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
}

fn tmp_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest")
}

fn config(workload: Workload, size: Size, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 0, 0.0, trace);
    cfg.size = size;
    cfg.tmp_dir = tmp_dir();
    cfg
}

fn run_ok(cfg: &Config) -> Outcome {
    let out = run(cfg).expect("the run completes");
    assert!(
        out.correct && out.failed == 0,
        "{} failed: {:?}",
        cfg.workload.name(),
        out.failures
    );
    out
}

/// The names, units and directions `BENCHMARK.json` records for one
/// metric section.
fn section(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
                m.get("better").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    let expect =
        |defs: &[cloudsched_perfbench::report::MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect()
        };
    assert_eq!(section(&doc, "end_to_end"), expect(END_TO_END));
    assert_eq!(section(&doc, "per_layer"), expect(PER_LAYER));
    let names: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for m in doc.get("end_to_end").arr() {
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}

/// Every workload at the tiny size, untraced and traced: outputs match the
/// reference, traced digests equal untraced ones, and the result line
/// carries exactly the catalogue's metrics with their units.
#[test]
fn every_workload_runs_and_traced_equals_untraced() {
    let doc = benchmark_json();
    for w in Workload::ALL {
        let untraced = run_ok(&config(w, Size::tiny(), false));
        let traced = run_ok(&config(w, Size::tiny(), true));
        assert_eq!(traced.reference_digest, untraced.reference_digest);
        assert!(!traced.traced_digests.is_empty());
        // Every iteration was checked against the reference, which is the
        // untraced output.
        assert_eq!(
            traced.traced_digests,
            traced.untraced_digests,
            "{}: traced output differs from untraced",
            w.name()
        );
        assert_eq!(traced.untraced_digests[0], untraced.untraced_digests[0]);
        for (out, key) in [(&untraced, "end_to_end"), (&traced, "per_layer")] {
            let line = result_line(out.correct, out.attempted, out.failed, &out.metrics);
            let parsed = parse_json(&line);
            assert_eq!(parsed.keys(), ["correct", "attempted", "failed", "metrics"]);
            let printed: Vec<(String, String)> = match parsed.get("metrics") {
                Json::Obj(fields) => fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                    .collect(),
                other => panic!("metrics is not an object: {other:?}"),
            };
            let recorded: Vec<(String, String)> = section(&doc, key)
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect();
            assert_eq!(printed, recorded, "{} {key}", w.name());
        }
        let value = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|(d, _)| d.name == name)
                .map(|(_, v)| *v)
                .expect("metric present")
        };
        assert!(value("sched.release.calls") > 0.0, "{}", w.name());
        assert!(value("sim.engine.events") > 0.0, "{}", w.name());
        if w == Workload::ServeWal {
            assert!(value("obs.journal.syncs") > 0.0);
            assert!(value("obs.journal.snapshot_records") > 0.0);
            assert!(value("admit_p99_us") >= value("admit_p50_us"));
            assert_eq!(value("obs.journal.errors"), 0.0);
        }
        if w == Workload::FleetP2c {
            assert!(value("sched.dispatch.calls") > 0.0);
            assert!(value("sim.fleet.kernel_phase_ns") > 0.0);
        }
    }
}

/// At the standard size and the default seed every workload reproduces its
/// recorded digest; for the sweep and the fleet these are the digests of
/// the checked-in `BENCH_sweep.json` and `BENCH_fleet.json` rows.
#[test]
fn standard_size_reproduces_recorded_digests() {
    for w in Workload::ALL {
        let mut cfg = config(w, Size::standard(), false);
        cfg.size.setup_reps = 1;
        let out = run_ok(&cfg);
        let recorded = cloudsched_perfbench::reference::recorded(w, 0, &Size::standard())
            .expect("seed 0 is recorded");
        assert_eq!(out.reference_digest, recorded, "{}", w.name());
    }
    assert_eq!(
        cloudsched_perfbench::reference::recorded(Workload::Table1Sweep, 0, &Size::standard()),
        Some(0x90d9_9b58_d9fa_abba)
    );
    assert_eq!(
        cloudsched_perfbench::reference::recorded(Workload::FleetP2c, 0, &Size::standard()),
        Some(0x9391_7ba4_3f02_fac0)
    );
}

fn failed_frac(out: &Outcome) -> f64 {
    out.extra
        .iter()
        .find(|(n, _, _)| *n == "failed_frac")
        .map(|(_, v, _)| *v)
        .expect("failed_frac is printed")
}

#[test]
fn seeded_failures_show_in_failed_frac() {
    // A journal that fails beyond the service's retry budget: `serve`
    // returns `JournalWrite` and the iteration counts as failed.
    let mut cfg = config(Workload::ServeWal, Size::tiny(), false);
    cfg.journal_fault = Some(JournalFault {
        at_op: 40,
        failures: 10,
    });
    let out = run(&cfg).expect("the run completes");
    assert!(!out.correct && out.failed >= 1);
    assert!(failed_frac(&out) > 0.0);
    assert!(
        out.failures.iter().any(|f| f.contains("journal")),
        "{:?}",
        out.failures
    );

    // A transient fault the retries absorb: no failed operation, but the
    // traced run counts the error.
    let mut cfg = config(Workload::ServeWal, Size::tiny(), true);
    cfg.journal_fault = Some(JournalFault {
        at_op: 40,
        failures: 1,
    });
    let out = run_ok(&cfg);
    assert_eq!(failed_frac(&out), 0.0);
    let errors = out
        .metrics
        .iter()
        .find(|(d, _)| d.name == "obs.journal.errors")
        .map(|(_, v)| *v);
    assert_eq!(errors, Some(1.0));

    // A digest mismatch against the recorded reference.
    let mut cfg = config(Workload::Table1Sweep, Size::tiny(), false);
    cfg.expect_digest = Some(0xdead_beef);
    let out = run(&cfg).expect("the run completes");
    assert!(!out.correct);
    assert_eq!(out.failed, 1);
    assert!(failed_frac(&out) > 0.0);
}

#[test]
fn seeds_select_disjoint_inputs() {
    let a = cloudsched_perfbench::serve::stream(1, 50).expect("stream");
    let b = cloudsched_perfbench::serve::stream(1, 50).expect("stream");
    let c = cloudsched_perfbench::serve::stream(2, 50).expect("stream");
    assert_eq!(a, b, "the same seed gives the same inputs");
    assert_ne!(a, c);
    let arrivals = cloudsched_sim::parse_stream(&a).expect("valid stream");
    assert!(arrivals.windows(2).all(|w| w[0].release <= w[1].release));
    assert_ne!(
        cloudsched_perfbench::reference::HELD_OUT_SEED,
        cloudsched_perfbench::reference::DEFAULT_SEED
    );
}

/// `cloudsched-lint` is clean on the benchmark's files with an empty
/// baseline, and the determinism rules hold even when the files are
/// judged as a deterministic crate: wall time only through the clock seam
/// (L005/L006), no hash-order iteration (L007), seeds only through
/// `derive_seed` (L009).
#[test]
fn lint_is_clean() {
    let root = manifest_dir();
    assert!(
        !root.join("lint.baseline").exists(),
        "the baseline stays empty"
    );
    let report = cloudsched_lint::run_workspace(root).expect("lint runs");
    assert!(report.files_scanned > 5);
    assert!(report.is_clean(), "{}", report.render());
    let mut files = cloudsched_lint::discover(root).expect("discover");
    for f in &mut files {
        f.crate_name = "workload".into();
    }
    let strict: Vec<_> = cloudsched_lint::check_files(files)
        .into_iter()
        .filter(|f| matches!(f.rule, "L005" | "L006" | "L007" | "L009"))
        .collect();
    assert!(strict.is_empty(), "{strict:?}");
}
