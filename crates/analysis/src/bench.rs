//! Machine-readable benchmark records (`BENCH_*.json`).
//!
//! The sharded-engine performance work is tracked by a committed artifact,
//! `BENCH_sharded_engine.json` at the repository root: every
//! `sharded_engine` bench and `million_node` example run can emit one, and
//! CI compares a fresh smoke run against the committed baseline, failing on
//! a >20 % cycles/s regression. The schema is documented in
//! `EXPERIMENTS.md` ("Benchmark artifact schema").
//!
//! The workspace has no JSON dependency (the vendored `serde` is traits
//! only), so this module hand-rolls both the writer and a reader that is
//! deliberately limited to the exact shape this writer produces: one run
//! object per line. That keeps the pair self-contained and testable.
//!
//! # Example
//!
//! ```
//! use gossip_analysis::bench::{BenchReport, BenchRun};
//!
//! let mut report = BenchReport::new("million_node", "deadbeef");
//! report.push(BenchRun {
//!     label: "ci_smoke".into(),
//!     nodes: 100_000,
//!     shards: 8,
//!     workers: 1,
//!     cycles: 20,
//!     elapsed_s: 1.25,
//!     cycles_per_s: 16.0,
//!     exchanges_per_s: 1.6e6,
//! });
//! let json = report.to_json();
//! let parsed = BenchReport::parse(&json).unwrap();
//! assert_eq!(parsed.runs.len(), 1);
//! assert_eq!(parsed.runs[0].nodes, 100_000);
//! ```

use std::fmt::Write as _;

/// One measured engine configuration: a (nodes, shards, workers) point and
/// its throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Stable name used to match runs across reports (e.g. `ci_smoke`,
    /// `full_10m`, `workers_4`). The regression gate compares runs by label.
    pub label: String,
    /// Network size (live nodes at start).
    pub nodes: usize,
    /// Shard count of the sharded engine.
    pub shards: usize,
    /// Effective worker threads the run used.
    pub workers: usize,
    /// Cycles executed.
    pub cycles: usize,
    /// Wall-clock seconds for the whole run.
    pub elapsed_s: f64,
    /// Throughput: cycles per second.
    pub cycles_per_s: f64,
    /// Throughput: completed push–pull exchanges per second.
    pub exchanges_per_s: f64,
}

/// A benchmark report: provenance plus a list of measured runs.
///
/// Serialises to the `bench_sharded_engine/v1` JSON schema via
/// [`BenchReport::to_json`] / [`BenchReport::write_json`]; reads the same
/// shape back via [`BenchReport::parse`] / [`BenchReport::load`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Which harness produced the report (`million_node`, `sharded_engine`).
    pub bench: String,
    /// Git revision of the tree that was measured, or `"unknown"`.
    pub git_rev: String,
    /// Peak resident set size of the measuring process in bytes, if known.
    /// Process-wide high-water mark: with several runs in one report it
    /// reflects the largest configuration.
    pub peak_rss_bytes: Option<u64>,
    /// The measured configurations.
    pub runs: Vec<BenchRun>,
}

/// Schema identifier written into every report.
pub const SCHEMA: &str = "bench_sharded_engine/v1";

impl BenchReport {
    /// Creates an empty report for the given harness and git revision.
    pub fn new(bench: &str, git_rev: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            git_rev: git_rev.to_string(),
            peak_rss_bytes: None,
            runs: Vec::new(),
        }
    }

    /// Appends a measured run.
    pub fn push(&mut self, run: BenchRun) {
        self.runs.push(run);
    }

    /// Renders the report as pretty-printed JSON, one run object per line
    /// (the shape [`BenchReport::parse`] expects).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", escape(SCHEMA));
        let _ = writeln!(out, "  \"bench\": \"{}\",", escape(&self.bench));
        let _ = writeln!(out, "  \"git_rev\": \"{}\",", escape(&self.git_rev));
        match self.peak_rss_bytes {
            Some(bytes) => {
                let _ = writeln!(out, "  \"peak_rss_bytes\": {bytes},");
            }
            None => {
                let _ = writeln!(out, "  \"peak_rss_bytes\": null,");
            }
        }
        out.push_str("  \"runs\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            let comma = if i + 1 < self.runs.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"label\": \"{}\", \"nodes\": {}, \"shards\": {}, \
                 \"workers\": {}, \"cycles\": {}, \"elapsed_s\": {}, \
                 \"cycles_per_s\": {}, \"exchanges_per_s\": {}}}{comma}",
                escape(&run.label),
                run.nodes,
                run.shards,
                run.workers,
                run.cycles,
                json_f64(run.elapsed_s),
                json_f64(run.cycles_per_s),
                json_f64(run.exchanges_per_s),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report as JSON to `path`.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Parses a report previously produced by [`BenchReport::to_json`].
    ///
    /// This is a schema-bound reader, not a general JSON parser: it relies
    /// on the writer's one-key-per-line layout for the header and
    /// one-object-per-line layout for runs. Returns `None` when the schema
    /// line is missing or names a different schema.
    pub fn parse(json: &str) -> Option<BenchReport> {
        let mut schema_ok = false;
        let mut report = BenchReport::new("", "unknown");
        for line in json.lines() {
            if let Some(value) = string_field(line, "schema") {
                schema_ok = value == SCHEMA;
            } else if let Some(value) = string_field(line, "bench") {
                report.bench = value;
            } else if let Some(value) = string_field(line, "git_rev") {
                report.git_rev = value;
            } else if let Some(raw) = raw_field(line, "peak_rss_bytes") {
                report.peak_rss_bytes = raw.parse::<u64>().ok();
            } else if let Some(label) = string_field(line, "label") {
                // A malformed run line (e.g. a `null` throughput from a
                // non-finite measurement) drops that run, not the report.
                if let Some(run) = parse_run(line, label) {
                    report.runs.push(run);
                }
            }
        }
        schema_ok.then_some(report)
    }

    /// Loads and parses a report from `path`.
    pub fn load(path: &str) -> std::io::Result<Option<BenchReport>> {
        Ok(Self::parse(&std::fs::read_to_string(path)?))
    }

    /// Finds a run by label.
    pub fn run(&self, label: &str) -> Option<&BenchRun> {
        self.runs.iter().find(|r| r.label == label)
    }

    /// Writes the report to `path`, merging with an existing report there:
    /// runs already recorded under labels this report does not re-measure
    /// are kept (so a smoke run, a `--full` run and a worker sweep
    /// accumulate into one artifact), runs re-measured under the same label
    /// are replaced, and the peak RSS keeps the high-water mark. A missing
    /// or foreign-schema file is simply overwritten.
    pub fn merge_into_file(&self, path: &str) -> std::io::Result<()> {
        let mut merged = self.clone();
        if let Ok(Some(existing)) = Self::load(path) {
            for run in existing.runs {
                if merged.run(&run.label).is_none() {
                    merged.push(run);
                }
            }
            merged.peak_rss_bytes = merged.peak_rss_bytes.max(existing.peak_rss_bytes);
        }
        merged.write_json(path)
    }
}

/// One failure of the regression gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Regression {
    /// The label's runs measured different configurations (nodes, shards,
    /// workers or cycles), so their throughputs cannot be compared.
    ConfigMismatch {
        /// The run as committed.
        baseline: BenchRun,
        /// The run as measured now.
        current: BenchRun,
    },
    /// Cycles/s fell below `(1 - tolerance)` of the baseline.
    Slower {
        /// The run's label.
        label: String,
        /// Committed cycles/s.
        was: f64,
        /// Measured cycles/s.
        now: f64,
    },
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Regression::ConfigMismatch {
                baseline: b,
                current: c,
            } => write!(
                f,
                "{}: measured nodes {} shards {} workers {} cycles {}, committed nodes {} \
                 shards {} workers {} cycles {} — not comparable",
                b.label,
                c.nodes,
                c.shards,
                c.workers,
                c.cycles,
                b.nodes,
                b.shards,
                b.workers,
                b.cycles
            ),
            Regression::Slower { label, was, now } => {
                write!(f, "{label}: {now:.2} cycles/s vs committed {was:.2}")
            }
        }
    }
}

/// Compares `current` against `baseline` run-by-run (matched by label) and
/// returns the regressions: every label measured under a different
/// configuration than committed, and every label whose current cycles/s
/// fell below `(1 - tolerance)` of the baseline. Labels present on only one
/// side are ignored — the gate protects tracked configurations, it does not
/// force report shapes to match. An empty result means the gate passes.
pub fn regressions(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
) -> Vec<Regression> {
    let mut failures = Vec::new();
    for base in &baseline.runs {
        let Some(cur) = current.run(&base.label) else {
            continue;
        };
        let config = |r: &BenchRun| (r.nodes, r.shards, r.workers, r.cycles);
        if config(cur) != config(base) {
            failures.push(Regression::ConfigMismatch {
                baseline: base.clone(),
                current: cur.clone(),
            });
        } else if cur.cycles_per_s < base.cycles_per_s * (1.0 - tolerance) {
            failures.push(Regression::Slower {
                label: base.label.clone(),
                was: base.cycles_per_s,
                now: cur.cycles_per_s,
            });
        }
    }
    failures
}

/// Parses one writer-emitted run object line; `None` when any field is
/// missing or unparsable.
fn parse_run(line: &str, label: String) -> Option<BenchRun> {
    Some(BenchRun {
        label,
        nodes: raw_field(line, "nodes")?.parse().ok()?,
        shards: raw_field(line, "shards")?.parse().ok()?,
        workers: raw_field(line, "workers")?.parse().ok()?,
        cycles: raw_field(line, "cycles")?.parse().ok()?,
        elapsed_s: raw_field(line, "elapsed_s")?.parse().ok()?,
        cycles_per_s: raw_field(line, "cycles_per_s")?.parse().ok()?,
        exchanges_per_s: raw_field(line, "exchanges_per_s")?.parse().ok()?,
    })
}

/// Peak resident set size of the current process in bytes, read from
/// `/proc/self/status` (`VmHWM`). Returns `None` off Linux or when the
/// field is missing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// The current git revision (short form), or `"unknown"` when the tree is
/// not a git checkout or git is unavailable.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Formats a float for JSON: finite values print with full precision
/// round-trip, non-finite values become `null` (JSON has no NaN/inf).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        // Guarantee a `.` or exponent so the value reads back as float-ish
        // in strict consumers.
        let s = format!("{value}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Extracts the string value of `"key": "..."` from a line, unescaping the
/// writer's escapes.
fn string_field(line: &str, key: &str) -> Option<String> {
    let raw = raw_field(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let code: String = chars.by_ref().take(4).collect();
                let value = u32::from_str_radix(&code, 16).ok()?;
                out.push(char::from_u32(value)?);
            }
            Some(other) => out.push(other),
            None => return None,
        }
    }
    Some(out)
}

/// Extracts the raw (unparsed) value of `"key": <value>` from a line:
/// everything up to the next top-level `,` or closing brace/bracket.
/// String values keep their surrounding quotes.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = line[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        // A string value: scan to the closing unescaped quote.
        let mut escaped = false;
        for (i, c) in stripped.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                return Some(&rest[..i + 2]);
            }
        }
        None
    } else {
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        let value = rest[..end].trim();
        (!value.is_empty()).then_some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(label: &str, cycles_per_s: f64) -> BenchRun {
        BenchRun {
            label: label.to_string(),
            nodes: 100_000,
            shards: 8,
            workers: 1,
            cycles: 20,
            elapsed_s: 20.0 / cycles_per_s,
            cycles_per_s,
            exchanges_per_s: cycles_per_s * 50_000.0,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = BenchReport::new("million_node", "abc1234");
        report.peak_rss_bytes = Some(1_234_567_890);
        report.push(sample_run("ci_smoke", 16.5));
        report.push(sample_run("full_10m", 0.97));
        let parsed = BenchReport::parse(&report.to_json()).expect("schema matches");
        assert_eq!(parsed, report);
    }

    #[test]
    fn parse_rejects_other_schemas() {
        let mut report = BenchReport::new("million_node", "abc1234");
        report.push(sample_run("ci_smoke", 16.5));
        let json = report.to_json().replace(SCHEMA, "something_else/v9");
        assert_eq!(BenchReport::parse(&json), None);
    }

    #[test]
    fn escaping_survives_round_trip() {
        let report = BenchReport::new("label \"with\" quotes\\and\tescapes", "rev\n");
        let parsed = BenchReport::parse(&report.to_json()).expect("schema matches");
        assert_eq!(parsed.bench, report.bench);
        assert_eq!(parsed.git_rev, report.git_rev);
    }

    #[test]
    fn non_finite_throughput_becomes_null() {
        let mut report = BenchReport::new("b", "r");
        let mut run = sample_run("bad", 1.0);
        run.exchanges_per_s = f64::NAN;
        report.push(run);
        let json = report.to_json();
        assert!(json.contains("\"exchanges_per_s\": null"));
        // The run still parses; the null throughput is dropped with the run
        // (parse of "null" as f64 fails) — the report survives.
        let parsed = BenchReport::parse(&json).expect("schema matches");
        assert!(parsed.runs.is_empty());
    }

    #[test]
    fn regression_gate_flags_only_slowdowns_beyond_tolerance() {
        let mut baseline = BenchReport::new("b", "old");
        baseline.push(sample_run("ci_smoke", 10.0));
        baseline.push(sample_run("full_10m", 1.0));
        baseline.push(sample_run("only_in_baseline", 5.0));

        let mut current = BenchReport::new("b", "new");
        current.push(sample_run("ci_smoke", 8.5)); // -15%: within 20%
        current.push(sample_run("full_10m", 0.5)); // -50%: regression
        current.push(sample_run("only_in_current", 2.0));

        let failures = regressions(&baseline, &current, 0.20);
        assert_eq!(
            failures,
            vec![Regression::Slower {
                label: "full_10m".into(),
                was: 1.0,
                now: 0.5
            }]
        );
    }

    #[test]
    fn regression_gate_fails_a_label_measured_under_another_configuration() {
        let mut baseline = BenchReport::new("b", "old");
        baseline.push(sample_run("ci_smoke", 10.0));
        for (field, change) in [
            (
                "nodes",
                (|r: &mut BenchRun| r.nodes += 1) as fn(&mut BenchRun),
            ),
            ("shards", |r| r.shards += 1),
            ("workers", |r| r.workers += 1),
            ("cycles", |r| r.cycles += 1),
        ] {
            // Faster than committed, yet not comparable: still a failure.
            let mut run = sample_run("ci_smoke", 50.0);
            change(&mut run);
            let mut current = BenchReport::new("b", "new");
            current.push(run.clone());
            let failures = regressions(&baseline, &current, 0.20);
            assert_eq!(
                failures,
                vec![Regression::ConfigMismatch {
                    baseline: baseline.runs[0].clone(),
                    current: run,
                }],
                "{field}"
            );
            assert!(failures[0].to_string().contains("not comparable"));
        }
    }

    #[test]
    fn merge_into_file_keeps_other_labels_and_replaces_same() {
        let path =
            std::env::temp_dir().join(format!("bench_merge_test_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);

        let mut first = BenchReport::new("million_node", "rev1");
        first.peak_rss_bytes = Some(500);
        first.push(sample_run("full_10m", 1.0));
        first.merge_into_file(path).expect("write");

        let mut second = BenchReport::new("million_node", "rev2");
        second.peak_rss_bytes = Some(100);
        second.push(sample_run("ci_smoke", 20.0));
        second.push(sample_run("full_10m", 1.1)); // re-measured: replaces
        second.merge_into_file(path).expect("merge");

        let merged = BenchReport::load(path).expect("read").expect("schema");
        std::fs::remove_file(path).ok();
        assert_eq!(merged.git_rev, "rev2");
        assert_eq!(merged.peak_rss_bytes, Some(500), "high-water mark kept");
        assert_eq!(merged.runs.len(), 2);
        assert_eq!(merged.run("full_10m").unwrap().cycles_per_s, 1.1);
        assert_eq!(merged.run("ci_smoke").unwrap().cycles_per_s, 20.0);
    }

    #[test]
    fn vm_hwm_parses_from_proc_status_format() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(204800 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tbench\n"), None);
    }

    #[test]
    fn peak_rss_is_available_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM in /proc/self/status");
            assert!(rss > 0);
        }
    }
}
