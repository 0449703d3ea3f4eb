//! The one schema behind every checked-in benchmark report
//! (`BENCH_kernel.json`, `BENCH_sweep.json`, `BENCH_fleet.json`).
//!
//! A report is a JSON array with one flat object per line. Every row opens
//! with `"bench":"<suite>"`, followed by the suite's columns in table
//! order. A column's kind fixes how its value is spelled and checked;
//! its role tells a diff whether it belongs to the row key, is a metric
//! (and which direction is better), or is a fixed field. A [`Suite`] adds
//! its per-row check and the columns that must agree across rows.
//!
//! [`to_json`] and [`parse`] are the only writer and parser: parsing a
//! checked-in report and writing it back reproduces it byte for byte. The
//! parser is strict — exact field order, exactly one `,` between rows and
//! none after the last, no repeated row key — and runs every value check
//! and cross-row invariant, so it doubles as the schema validator.

use std::collections::BTreeSet;
use std::fmt;

/// How a column's value is spelled and checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A JSON string; when the list is non-empty, one of its entries.
    Str(&'static [&'static str]),
    /// An unsigned integer.
    Int,
    /// A positive unsigned integer.
    PosInt,
    /// A positive finite float, written with exactly 3 decimals.
    F3,
    /// A 64-bit digest, written as a JSON string of 16 hex digits.
    Hex16,
}

/// Which direction of a metric counts as an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Latency and wall time: a rise is a regression.
    Lower,
    /// Throughput: a drop is a regression.
    Higher,
}

/// What a column means to a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// `Key(rank, fmt)`: part of the row key. Key columns render in rank
    /// order, each as `fmt` with `{}` replaced by the value; a value equal
    /// to the column's default is left out.
    Key(u8, &'static str),
    /// `Metric(rank, better)`: compared between reports, in rank order.
    Metric(u8, Better),
    /// Recorded, but neither keyed nor compared.
    Fixed,
}

/// One field of a suite's rows.
#[derive(Debug, Clone, Copy)]
struct Column {
    /// JSON field name.
    name: &'static str,
    /// Spelling and value check.
    kind: Kind,
    /// Meaning to a diff.
    role: Role,
    /// Value of an optional trailing column when a row omits it.
    default: Option<&'static str>,
}

const fn col(name: &'static str, kind: Kind, role: Role) -> Column {
    Column {
        name,
        kind,
        role,
        default: None,
    }
}

/// A benchmark suite's row schema.
#[derive(Debug)]
pub struct Suite {
    /// The `bench` value of every row, and the `BENCH_<name>.json` stem.
    pub name: &'static str,
    /// The fields after `bench`, in report order.
    columns: &'static [Column],
    /// Columns whose values must agree between rows that share the value
    /// of `agree_within` (between all rows when `None`).
    agree: &'static [&'static str],
    /// Grouping column for `agree`.
    agree_within: Option<&'static str>,
    /// Suite-specific check of one row's values.
    check: fn(&Row) -> Result<(), String>,
}

impl Suite {
    /// Metric columns with their better direction, in rank order.
    pub fn metrics(&self) -> Vec<(&'static str, Better)> {
        let mut metrics: Vec<(u8, &'static str, Better)> = self
            .columns
            .iter()
            .filter_map(|c| match c.role {
                Role::Metric(rank, better) => Some((rank, c.name, better)),
                _ => None,
            })
            .collect();
        metrics.sort_by_key(|m| m.0);
        metrics.into_iter().map(|(_, n, b)| (n, b)).collect()
    }
}

/// `BENCH_kernel.json`: per-decision cost of EDF, Dover and V-Dover.
pub static KERNEL: Suite = Suite {
    name: "kernel",
    columns: &[
        col("n", Kind::PosInt, Role::Key(1, "n={}")),
        col("scheduler", Kind::Str(&[]), Role::Key(0, "{}")),
        col("ns_per_decision", Kind::F3, Role::Metric(0, Better::Lower)),
        col("wall_ms", Kind::F3, Role::Metric(1, Better::Lower)),
        col("seed", Kind::Int, Role::Fixed),
        // Heap rows key as `… [heap]`, so a comparison report diffs cleanly
        // against a flat-only one. Reports from before the flat-vs-heap
        // comparison omit the field.
        Column {
            default: Some("flat"),
            ..col("queue", Kind::Str(&["flat", "heap"]), Role::Key(2, "[{}]"))
        },
    ],
    agree: &[],
    agree_within: None,
    check: |_| Ok(()),
};

/// `BENCH_sweep.json`: Table-I panel runs/second, fresh vs reused
/// workspaces. Every cell must produce the same output digest.
pub static SWEEP: Suite = Suite {
    name: "sweep",
    columns: &[
        col("mode", Kind::Str(&["fresh", "reuse"]), Role::Key(0, "{}")),
        col("threads", Kind::PosInt, Role::Key(1, "threads={}")),
        col("runs", Kind::PosInt, Role::Fixed),
        col("wall_ms", Kind::F3, Role::Metric(1, Better::Lower)),
        col("runs_per_sec", Kind::F3, Role::Metric(0, Better::Higher)),
        col("reuse_hits", Kind::Int, Role::Fixed),
        col("digest", Kind::Hex16, Role::Fixed),
        col("seed", Kind::Int, Role::Fixed),
    ],
    agree: &["digest"],
    agree_within: None,
    check: |row| match row.get("reuse_hits") {
        hits if row.get("mode") == "fresh" && hits != "0" => {
            Err(format!("fresh mode cannot report reuse hits, got {hits}"))
        }
        _ => Ok(()),
    },
};

/// `BENCH_fleet.json`: fleet runs/second across fleet sizes and thread
/// counts. Within one fleet size, every thread count must agree on digest
/// and steal count.
pub static FLEET: Suite = Suite {
    name: "fleet",
    columns: &[
        col("machines", Kind::PosInt, Role::Key(0, "M={}")),
        col("threads", Kind::PosInt, Role::Key(1, "threads={}")),
        col("runs", Kind::PosInt, Role::Fixed),
        col("wall_ms", Kind::F3, Role::Metric(1, Better::Lower)),
        col("runs_per_sec", Kind::F3, Role::Metric(0, Better::Higher)),
        col("steals", Kind::Int, Role::Fixed),
        col("digest", Kind::Hex16, Role::Fixed),
        col("seed", Kind::Int, Role::Fixed),
    ],
    agree: &["digest", "steals"],
    agree_within: Some("machines"),
    check: |_| Ok(()),
};

/// One report row: its suite and each column's value as written.
#[derive(Debug, Clone)]
pub struct Row {
    suite: &'static Suite,
    values: Vec<String>,
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.suite.name == other.suite.name && self.values == other.values
    }
}

impl Row {
    /// Builds a row from one value per column of `suite`, in column order.
    /// 3-decimal float columns are written with 3 decimals, the rest as they
    /// display.
    pub fn new(suite: &'static Suite, values: &[&dyn fmt::Display]) -> Row {
        assert_eq!(values.len(), suite.columns.len(), "one value per column");
        let values = suite
            .columns
            .iter()
            .zip(values)
            .map(|(c, v)| spell(c.kind, v))
            .collect();
        Row { suite, values }
    }

    /// The suite this row belongs to.
    pub fn suite(&self) -> &'static Suite {
        self.suite
    }

    /// Column `name`'s value as written, unquoted (`""` for no such column).
    pub fn get(&self, name: &str) -> &str {
        self.suite
            .columns
            .iter()
            .position(|c| c.name == name)
            .map_or("", |i| &self.values[i])
    }

    /// Column `name`'s value as a number (NaN when it is not one).
    pub fn num(&self, name: &str) -> f64 {
        self.get(name).parse().unwrap_or(f64::NAN)
    }

    /// The row key a diff matches rows by, e.g. `EDF n=1000 [heap]`.
    pub fn key(&self) -> String {
        let mut parts: Vec<(u8, String)> = self
            .suite
            .columns
            .iter()
            .zip(&self.values)
            .filter_map(|(c, v)| match c.role {
                Role::Key(rank, fmt) if c.default != Some(v.as_str()) => {
                    Some((rank, fmt.replace("{}", v)))
                }
                _ => None,
            })
            .collect();
        parts.sort_by_key(|p| p.0);
        let parts: Vec<String> = parts.into_iter().map(|p| p.1).collect();
        parts.join(" ")
    }
}

/// The row as one JSON object, in schema field order.
impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{\"bench\":\"{}\"", self.suite.name)?;
        for (c, v) in self.suite.columns.iter().zip(&self.values) {
            match c.kind {
                Kind::Str(_) | Kind::Hex16 => write!(f, ",\"{}\":\"{v}\"", c.name)?,
                _ => write!(f, ",\"{}\":{v}", c.name)?,
            }
        }
        f.write_str("}")
    }
}

/// Serializes rows as a JSON array, one object per line.
pub fn to_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("  {row}{sep}\n"));
    }
    out.push_str("]\n");
    out
}

/// Strictly parses a report written by [`to_json`]; the suite is named by
/// the first row's `bench` field. Returns the rows, or the first violation
/// of the format, a value check or a cross-row invariant.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let mut lines = text.lines().zip(1..);
    match lines.next() {
        None => return Err("empty report".into()),
        Some((first, _)) if first.trim() != "[" => return Err("line 1: expected `[`".into()),
        Some(_) => {}
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut comma = false;
    let mut closed = false;
    for (line, no) in lines {
        let at = |e: String| format!("line {no}: {e}");
        let t = line.trim();
        if closed {
            if !t.is_empty() {
                return Err(at("content after closing `]`".into()));
            }
        } else if t == "]" {
            if comma {
                return Err(at("`,` after the last row".into()));
            }
            closed = true;
        } else {
            if !rows.is_empty() && !comma {
                return Err(at("missing `,` after the previous row".into()));
            }
            let (obj, sep) = t.strip_suffix(',').map_or((t, false), |o| (o, true));
            let suite = rows.first().map(Row::suite);
            rows.push(parse_row(obj, suite).map_err(at)?);
            comma = sep;
        }
    }
    if !closed {
        return Err("missing closing `]`".into());
    }
    if rows.is_empty() {
        return Err("report carries no rows".into());
    }
    validate(&rows)?;
    Ok(rows)
}

/// Checks the cross-row invariants of a report: no row key twice, and the
/// suite's `agree` columns equal within each group.
pub(crate) fn validate(rows: &[Row]) -> Result<(), String> {
    let mut keys = BTreeSet::new();
    for (i, row) in rows.iter().enumerate() {
        let key = row.key();
        if !keys.insert(key.clone()) {
            return Err(format!("row `{key}` appears more than once"));
        }
        let suite = row.suite;
        let anchor = rows[..i]
            .iter()
            .find(|a| suite.agree_within.iter().all(|g| a.get(g) == row.get(g)));
        if let Some(anchor) = anchor {
            if let Some(c) = suite.agree.iter().find(|c| anchor.get(c) != row.get(c)) {
                return Err(format!(
                    "{c} mismatch: `{key}` disagrees with `{}`",
                    anchor.key()
                ));
            }
        }
    }
    Ok(())
}

/// Parses one row object of `suite` (or, for the first row, of the suite
/// its `bench` field names).
fn parse_row(obj: &str, suite: Option<&'static Suite>) -> Result<Row, String> {
    let inner = obj
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("row is not a JSON object")?;
    let mut fields = split_fields(inner).into_iter();
    let bench = match fields.next() {
        Some(f) => unquote(value_of(&f, "bench")?)?.to_string(),
        None => return Err("missing field `bench`".into()),
    };
    let suite = match suite {
        Some(s) if s.name != bench => {
            return Err(format!("bench must be `{}`, got `{bench}`", s.name))
        }
        Some(s) => s,
        None => [&KERNEL, &SWEEP, &FLEET]
            .into_iter()
            .find(|s| s.name == bench)
            .ok_or(format!("unknown bench suite `{bench}`"))?,
    };
    let mut values = Vec::with_capacity(suite.columns.len());
    for c in suite.columns {
        values.push(match (fields.next(), c.default) {
            (Some(f), _) => parse_value(c, value_of(&f, c.name)?)?,
            (None, Some(default)) => default.to_string(),
            (None, None) => return Err(format!("missing field `{}`", c.name)),
        });
    }
    if let Some(extra) = fields.next() {
        return Err(format!("unexpected extra field `{extra}`"));
    }
    let row = Row { suite, values };
    (suite.check)(&row)?;
    Ok(row)
}

/// The value of `"name":value`, or an error naming the field found instead.
fn value_of<'a>(field: &'a str, name: &str) -> Result<&'a str, String> {
    let (k, v) = field
        .split_once(':')
        .ok_or(format!("malformed field `{field}`"))?;
    if k.trim() != format!("\"{name}\"") {
        return Err(format!("expected field `{name}`, found `{}`", k.trim()));
    }
    Ok(v.trim())
}

/// Checks one value against its column's kind; returns it as the writer
/// spells it.
fn parse_value(c: &Column, v: &str) -> Result<String, String> {
    let name = c.name;
    match c.kind {
        Kind::Str(allowed) => {
            let s = unquote(v)?;
            if !allowed.is_empty() && !allowed.contains(&s) {
                return Err(format!("{name} must be one of {allowed:?}, got `{s}`"));
            }
            Ok(s.to_string())
        }
        Kind::Hex16 => {
            let s = unquote(v)?;
            if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("{name} must be 16 hex digits, got `{s}`"));
            }
            Ok(s.to_string())
        }
        Kind::Int | Kind::PosInt => {
            let n: u64 = v.parse().map_err(|e| format!("{name}: {e}"))?;
            if c.kind == Kind::PosInt && n == 0 {
                return Err(format!("{name} must be positive"));
            }
            Ok(spell(c.kind, &n))
        }
        Kind::F3 => {
            let x: f64 = v.parse().map_err(|e| format!("{name}: {e}"))?;
            if !(x.is_finite() && x > 0.0) {
                return Err(format!("{name} must be positive, got {x}"));
            }
            Ok(spell(c.kind, &x))
        }
    }
}

/// A value as the report spells it: fixed 3 decimals for [`Kind::F3`],
/// which keeps rows diff-friendly, plain display otherwise.
fn spell(kind: Kind, v: &dyn fmt::Display) -> String {
    match kind {
        Kind::F3 => format!("{v:.3}"),
        _ => v.to_string(),
    }
}

/// Splits a flat JSON-object body on commas that are not inside strings.
fn split_fields(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            ',' if !in_str => parts.push(std::mem::take(&mut cur)),
            _ => {
                in_str ^= c == '"';
                cur.push(c);
            }
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

fn unquote(s: &str) -> Result<&str, String> {
    s.strip_prefix('"')
        .and_then(|x| x.strip_suffix('"'))
        .ok_or(format!("expected a JSON string, got `{s}`"))
}

/// FNV-1a 64 offset basis: the empty digest the [`Kind::Hex16`] columns
/// start from.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one u64 into an FNV-1a 64 state, byte by byte.
pub(crate) fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(rows: &[&str]) -> String {
        format!("[\n{}\n]\n", rows.join("\n"))
    }

    const EDF: &str = "  {\"bench\":\"kernel\",\"n\":1000,\"scheduler\":\"EDF\",\"ns_per_decision\":1.000,\"wall_ms\":1.000,\"seed\":7,\"queue\":\"flat\"}";
    const VDOVER: &str = "  {\"bench\":\"kernel\",\"n\":1000,\"scheduler\":\"V-Dover\",\"ns_per_decision\":2.000,\"wall_ms\":2.000,\"seed\":7,\"queue\":\"flat\"}";

    #[test]
    fn validator_rejects_malformed_reports() {
        assert!(parse("").is_err());
        assert!(parse("[\n]\n").is_err(), "no rows");
        assert!(parse("[\n  {\"bench\":\"kernel\"}\n]\n").is_err());
        assert!(parse(
            "[\n  {\"bench\":\"k\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":-1,\"wall_ms\":1,\"seed\":7}\n]\n"
        )
        .is_err(), "unknown suite");
        let err = parse(
            "[\n  {\"bench\":\"kernel\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":-1,\"wall_ms\":1,\"seed\":7}\n]\n"
        )
        .expect_err("negative ns/decision");
        assert!(err.contains("ns_per_decision must be positive"), "{err}");
        assert!(parse("[\n  {\"n\":1}\n").is_err(), "unclosed array");
        // Pre-comparison reports (no queue field) parse as flat rows.
        let legacy = parse(
            "[\n  {\"bench\":\"kernel\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":1,\"wall_ms\":1,\"seed\":7}\n]\n"
        ).expect("legacy rows stay valid");
        assert_eq!(legacy[0].get("queue"), "flat");
        assert!(parse(
            "[\n  {\"bench\":\"kernel\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":1,\"wall_ms\":1,\"seed\":7,\"queue\":\"ring\"}\n]\n"
        ).is_err(), "unknown queue backend");
        assert!(parse(
            "[\n  {\"bench\":\"kernel\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":1,\"wall_ms\":1,\"seed\":7,\"queue\":\"heap\",\"x\":1}\n]\n"
        ).is_err(), "extra field after queue");

        // Row separators: exactly one comma between rows, none after the last.
        let edf_c = format!("{EDF},");
        assert_eq!(parse(&kernel(&[&edf_c, VDOVER])).expect("valid").len(), 2);
        let cases: [(&[&str], &str); 5] = [
            (&[EDF, VDOVER], "missing `,`"),
            (&[&format!("{EDF},,"), VDOVER], "not a JSON object"),
            (&[&edf_c, "  ,", VDOVER], "not a JSON object"),
            (&[&edf_c, &format!("{VDOVER},")], "`,` after the last row"),
            (&[&edf_c, EDF], "appears more than once"),
        ];
        for (rows, why) in cases {
            let err = parse(&kernel(rows)).expect_err(why);
            assert!(err.contains(why), "{why}: {err}");
        }
        // The duplicate-and-stray-comma report bench-diff used to half-read.
        let dup = kernel(&[&format!("{EDF},,"), &edf_c]);
        assert!(parse(&dup).is_err());
        // A legacy row without `queue` keys as the same flat row.
        let legacy_edf = EDF.replace(",\"queue\":\"flat\"", "");
        assert!(parse(&kernel(&[&edf_c, &legacy_edf])).is_err());
        // Rows of another suite cannot join a report.
        let sweep = "  {\"bench\":\"sweep\",\"mode\":\"fresh\",\"threads\":1,\"runs\":2,\"wall_ms\":1.000,\"runs_per_sec\":5.000,\"reuse_hits\":0,\"digest\":\"aaaaaaaaaaaaaaaa\",\"seed\":1}";
        let err = parse(&kernel(&[&edf_c, sweep])).expect_err("mixed suites");
        assert!(err.contains("bench must be `kernel`"), "{err}");
    }

    #[test]
    fn validator_rejects_malformed_sweep_reports() {
        assert!(parse("").is_err());
        assert!(parse("[\n]\n").is_err(), "no rows");
        assert!(parse("[\n  {\"bench\":\"sweep\"}\n]\n").is_err());
        let row = |mode: &str, digest: &str| {
            format!(
                "  {{\"bench\":\"sweep\",\"mode\":\"{mode}\",\"threads\":1,\"runs\":2,\"wall_ms\":1.000,\"runs_per_sec\":5.000,\"reuse_hits\":0,\"digest\":\"{digest}\",\"seed\":1}}"
            )
        };
        let good = format!("[\n{},\n{}\n]\n", row("fresh", &"a".repeat(16)), {
            let mut r = row("reuse", &"a".repeat(16));
            r = r.replace("\"reuse_hits\":0", "\"reuse_hits\":1");
            r
        });
        assert_eq!(parse(&good).expect("valid").len(), 2);
        let drift = format!(
            "[\n{},\n{}\n]\n",
            row("fresh", &"a".repeat(16)),
            row("reuse", &"b".repeat(16))
        );
        assert!(parse(&drift).is_err(), "digest drift");
        let hits = format!("[\n{}\n]\n", {
            let mut r = row("fresh", &"a".repeat(16));
            r = r.replace("\"reuse_hits\":0", "\"reuse_hits\":3");
            r
        });
        assert!(parse(&hits).is_err(), "fresh mode with hits");
    }

    #[test]
    fn validator_rejects_malformed_fleet_reports() {
        assert!(parse("").is_err());
        assert!(parse("[\n]\n").is_err(), "no rows");
        assert!(parse("[\n  {\"bench\":\"fleet\"}\n]\n").is_err());
        let row = |threads: usize, steals: u64, digest: &str| {
            format!(
                "  {{\"bench\":\"fleet\",\"machines\":4,\"threads\":{threads},\"runs\":2,\"wall_ms\":1.000,\"runs_per_sec\":5.000,\"steals\":{steals},\"digest\":\"{digest}\",\"seed\":1}}"
            )
        };
        let good = format!(
            "[\n{},\n{}\n]\n",
            row(1, 3, &"a".repeat(16)),
            row(2, 3, &"a".repeat(16))
        );
        assert_eq!(parse(&good).expect("valid").len(), 2);
        let drift = format!(
            "[\n{},\n{}\n]\n",
            row(1, 3, &"a".repeat(16)),
            row(2, 3, &"b".repeat(16))
        );
        assert!(parse(&drift).is_err(), "digest drift");
        let steal_drift = format!(
            "[\n{},\n{}\n]\n",
            row(1, 3, &"a".repeat(16)),
            row(2, 4, &"a".repeat(16))
        );
        assert!(parse(&steal_drift).is_err(), "steal drift");
    }

    #[test]
    fn rows_build_parse_and_key_by_the_table() {
        let heap = Row::new(&KERNEL, &[&1000, &"EDF", &168.71, &0.5109, &7, &"heap"]);
        assert_eq!(
            heap.to_string(),
            "{\"bench\":\"kernel\",\"n\":1000,\"scheduler\":\"EDF\",\"ns_per_decision\":168.710,\"wall_ms\":0.511,\"seed\":7,\"queue\":\"heap\"}"
        );
        assert_eq!(heap.key(), "EDF n=1000 [heap]");
        let flat = Row::new(&KERNEL, &[&1000, &"EDF", &1.0, &1.0, &7, &"flat"]);
        assert_eq!(flat.key(), "EDF n=1000");
        let rows = vec![flat, heap];
        assert_eq!(parse(&to_json(&rows)).expect("round trip"), rows);
        let digest = format!("{:016x}", fnv1a(FNV_OFFSET, 1));
        let sweep = Row::new(&SWEEP, &[&"reuse", &4, &48, &1.0, &2.0, &3, &digest, &1]);
        assert_eq!(sweep.key(), "reuse threads=4");
        let fleet = Row::new(&FLEET, &[&64, &4, &4, &1.0, &2.0, &3, &digest, &1]);
        assert_eq!(fleet.key(), "M=64 threads=4");
        assert_eq!(
            FLEET.metrics(),
            vec![("runs_per_sec", Better::Higher), ("wall_ms", Better::Lower)]
        );
    }
}
