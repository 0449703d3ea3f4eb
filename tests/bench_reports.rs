//! Tier-1 gate on the checked-in benchmark reports: each `BENCH_*.json`
//! must pass the strict schema of `cloudsched_bench::report` and be
//! reproduced byte for byte by writing its parsed rows back out, and a
//! self-diff must match every row with zero regressions.

#![forbid(unsafe_code)]

use cloudsched_bench::report;

fn checked_in(suite: &str) -> String {
    let path = format!("{}/BENCH_{suite}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn checked_in_reports_round_trip_byte_for_byte() {
    for suite in ["kernel", "sweep", "fleet"] {
        let text = checked_in(suite);
        let rows = report::parse(&text).unwrap_or_else(|e| panic!("BENCH_{suite}.json: {e}"));
        assert!(rows.iter().all(|r| r.suite().name == suite));
        assert_eq!(report::to_json(&rows), text, "BENCH_{suite}.json");
    }
}

#[test]
fn checked_in_reports_self_diff_clean() {
    for suite in ["kernel", "sweep", "fleet"] {
        let text = checked_in(suite);
        let rows = report::parse(&text).expect("schema-valid report");
        let diff = cloudsched_insight::diff_reports(&text, &text, 0.0).expect("same suite");
        assert_eq!(diff.suite, suite);
        assert_eq!(diff.regressions(), 0);
        assert!(diff.only_old.is_empty() && diff.only_new.is_empty());
        let metrics = rows[0].suite().metrics().len();
        assert_eq!(diff.deltas.len(), rows.len() * metrics, "{suite}");
    }
}
