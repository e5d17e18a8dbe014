//! Integration tests for the lint engine.
//!
//! Two subjects:
//!
//! 1. the **fixture tree** under `tests/fixtures/violations/` — a miniature
//!    `crates/` layout seeded with one known violation per rule, pinning the
//!    exact `(file, line, rule)` of every diagnostic plus the allow /
//!    stale-allow / malformed-allow driver behaviour;
//! 2. the **real workspace** — which must stay lint-clean with a current
//!    `SEED_STREAMS.md`, so `cargo test` itself enforces what CI's
//!    `lint-suite` job enforces.

use std::path::Path;

use gossip_lint::{find_workspace_root, json, Engine};

fn fixture_engine() -> Engine {
    let root = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/violations"
    ));
    Engine::load(root).expect("fixture tree loads")
}

/// Every diagnostic the fixture tree must produce, in report order
/// (sorted by file, then line, then rule).
const EXPECTED: &[(&str, usize, &str)] = &[
    ("crates/faults/src/lib.rs", 4, "unsafe-safety"),
    ("crates/net/src/lib.rs", 1, "unsafe-safety"),
    ("crates/net/src/lib.rs", 5, "seed-streams"),
    ("crates/net/src/lib.rs", 9, "seed-streams"),
    ("crates/sim/src/lib.rs", 4, "nondeterminism"),
    ("crates/sim/src/lib.rs", 7, "nondeterminism"),
    ("crates/sim/src/lib.rs", 11, "nondeterminism"),
    ("crates/sim/src/lib.rs", 12, "unwrap"),
    ("crates/sim/src/lib.rs", 18, "stale-allow"),
    ("crates/sim/src/lib.rs", 21, "malformed-allow"),
    ("crates/sim/src/lib.rs", 22, "nondeterminism"),
    ("crates/sim/src/merge.rs", 4, "merge-order"),
    ("crates/sim/src/merge.rs", 14, "merge-order"),
    ("crates/sim/src/merge.rs", 19, "seed-streams"),
    ("crates/sim/src/merge.rs", 23, "merge-order"),
    ("crates/sim/src/telem.rs", 4, "observer-effect"),
    ("crates/sim/src/telem.rs", 8, "observer-effect"),
    ("crates/sim/src/telem.rs", 14, "observer-effect"),
];

#[test]
fn fixture_findings_are_exact() {
    let report = fixture_engine().check();
    let got: Vec<(&str, usize, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule.as_str()))
        .collect();
    assert_eq!(got, EXPECTED, "full findings: {:#?}", report.findings);
    assert_eq!(report.files_checked, 5);
}

#[test]
fn fixture_messages_name_the_offending_token() {
    let report = fixture_engine().check();
    let message_at = |file: &str, line: usize| -> &str {
        &report
            .findings
            .iter()
            .find(|f| f.file == file && f.line == line)
            .expect("finding present")
            .message
    };
    assert!(message_at("crates/sim/src/lib.rs", 7).contains("Instant::now"));
    assert!(message_at("crates/net/src/lib.rs", 5).contains("`label`"));
    assert!(message_at("crates/net/src/lib.rs", 9).contains("net, sim"));
    assert!(message_at("crates/faults/src/lib.rs", 4).contains("SAFETY:"));
    assert!(message_at("crates/net/src/lib.rs", 1).contains("#![forbid(unsafe_code)]"));
    assert!(message_at("crates/sim/src/telem.rs", 4).contains("watchdog_verdict"));
    assert!(message_at("crates/sim/src/telem.rs", 14).contains("MetricsRegistry"));
}

#[test]
fn fixture_allow_suppresses_and_keeps_the_reason() {
    let report = fixture_engine().check();
    assert_eq!(report.suppressed.len(), 1, "{:#?}", report.suppressed);
    let s = &report.suppressed[0];
    assert_eq!(s.finding.file, "crates/sim/src/lib.rs");
    assert_eq!(s.finding.line, 16);
    assert_eq!(s.finding.rule, "nondeterminism");
    assert_eq!(s.reason, "keyed lookup only; never iterated");
    // The suppressed line must not also appear as an active finding.
    assert!(!report
        .findings
        .iter()
        .any(|f| f.file == "crates/sim/src/lib.rs" && f.line == 16));
}

#[test]
fn fixture_registry_drift_is_reported_when_file_is_absent() {
    let engine = fixture_engine();
    let (_, catalog) = engine.check_with_catalog();
    let drift = engine
        .registry_drift(&catalog)
        .expect("drift check reads cleanly")
        .expect("fixture tree has no SEED_STREAMS.md, so drift must fire");
    assert_eq!(drift.rule, "seed-streams");
    assert_eq!(drift.file, "SEED_STREAMS.md");
    assert!(drift.message.contains("write-registry"));
}

#[test]
fn fixture_json_report_round_trips_counts() {
    let report = fixture_engine().check();
    let doc = json::render(&report);
    assert!(doc.contains("\"version\": 1"));
    assert!(
        doc.contains("\"summary\": {\"files_checked\": 5, \"findings\": 18, \"suppressed\": 1}")
    );
    assert!(doc.contains("\"rule\": \"merge-order\""));
    assert!(doc.contains("\"reason\": \"keyed lookup only; never iterated\""));
}

#[test]
fn real_workspace_is_clean_and_registry_is_current() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate sits inside the workspace");
    let engine = Engine::load(&root).expect("workspace loads");
    let (report, catalog) = engine.check_with_catalog();
    assert!(
        report.is_clean(),
        "the workspace must stay lint-clean; findings: {:#?}",
        report.findings
    );
    let drift = engine.registry_drift(&catalog).expect("registry readable");
    assert!(
        drift.is_none(),
        "SEED_STREAMS.md is stale — run `cargo run -p gossip-lint -- write-registry`"
    );
    // Every suppression must still carry a reason (the driver enforces this,
    // but assert it here so the contract is visible in one place).
    for s in &report.suppressed {
        assert!(!s.reason.is_empty(), "{:?}", s.finding);
    }
}
