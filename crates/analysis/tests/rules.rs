//! Integration tests: each rule against its fixture file, suppression
//! round-trips, and — the acceptance criterion of the pass itself — the
//! real workspace analyzing clean.
//!
//! Fixtures live under `tests/fixtures/` (not compiled by cargo; pulled
//! in as text with `include_str!`) and are fed through the same
//! [`cvcp_analysis::analyze_workspace`] entry point the CLI uses, via an
//! in-memory [`Workspace`].

use cvcp_analysis::rules::Violation;
use cvcp_analysis::workspace::{FileKind, SourceFile, Workspace};
use cvcp_analysis::{analyze_root, analyze_workspace};
use std::collections::BTreeMap;
use std::path::Path;

/// A minimal root manifest that satisfies L1.
const ROOT_MANIFEST: &str = r#"
[workspace]
members = []

[workspace.lints.rust]
unsafe_code = "forbid"
"#;

const EXPERIMENTS_MD: &str = "\
# knobs\n\
| knob | meaning |\n\
|------|---------|\n\
| `CVCP_FIXTURE_KNOB` | referenced by the d3 fixture |\n\
| `CVCP_ORPHAN_KNOB` | documented but read by nothing |\n";

fn ws(files: Vec<SourceFile>) -> Workspace {
    Workspace {
        files,
        manifests: Vec::new(),
        vendor_lib_sources: BTreeMap::new(),
        root_manifest: ROOT_MANIFEST.to_string(),
        // No knob table by default: D3's orphan-knob direction would leak
        // findings into every unrelated test. The D3 test opts in.
        experiments_md: None,
        lock_rank_src: None,
    }
}

fn with_knob_table(mut ws: Workspace) -> Workspace {
    ws.experiments_md = Some(EXPERIMENTS_MD.to_string());
    ws
}

fn file(crate_name: &str, rel_path: &str, text: &str) -> SourceFile {
    SourceFile {
        crate_name: crate_name.into(),
        rel_path: rel_path.into(),
        kind: FileKind::Src,
        text: text.into(),
    }
}

fn rules_of(violations: &[Violation]) -> Vec<&str> {
    violations.iter().map(|v| v.rule.as_str()).collect()
}

#[test]
fn d1_fixture_flags_each_hash_collection_outside_tests() {
    let report = analyze_workspace(&ws(vec![file(
        "cvcp-density",
        "crates/density/src/fixture.rs",
        include_str!("fixtures/d1_violation.rs"),
    )]));
    let d1: Vec<&Violation> = report
        .violations
        .iter()
        .filter(|v| v.rule == "D1")
        .collect();
    // use-line (2 idents), return type, constructor — the cfg(test) HashSet
    // uses are skipped.
    assert_eq!(d1.len(), 4, "{:?}", report.violations);
    assert!(d1.iter().all(|v| v.line <= 7), "{d1:?}");
}

#[test]
fn d1_suppressions_round_trip_and_count_as_used() {
    let report = analyze_workspace(&ws(vec![file(
        "cvcp-density",
        "crates/density/src/fixture.rs",
        include_str!("fixtures/d1_allowed.rs"),
    )]));
    // Both the trailing and the standalone allow suppress their site, carry
    // reasons, and are used — nothing at all is reported.
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.allows, 2);
}

#[test]
fn d2_fixture_flags_clock_reads_but_not_type_mentions_or_strings() {
    let report = analyze_workspace(&ws(vec![file(
        "cvcp-engine",
        "crates/engine/src/fixture.rs",
        include_str!("fixtures/d2_violation.rs"),
    )]));
    let d2: Vec<&Violation> = report
        .violations
        .iter()
        .filter(|v| v.rule == "D2")
        .collect();
    // Instant::now and SystemTime on line 9 — not the field type on line 5,
    // not the string literal.
    assert_eq!(d2.len(), 2, "{:?}", report.violations);
    assert!(d2.iter().all(|v| v.line == 9), "{d2:?}");
}

#[test]
fn d2_ignores_exempt_crates() {
    let report = analyze_workspace(&ws(vec![file(
        "cvcp-obs",
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/d2_violation.rs"),
    )]));
    assert!(
        !rules_of(&report.violations).contains(&"D2"),
        "{:?}",
        report.violations
    );
}

#[test]
fn d3_fixture_flags_undocumented_non_cvcp_dynamic_and_orphan() {
    let report = analyze_workspace(&with_knob_table(ws(vec![file(
        "cvcp-experiments",
        "crates/experiments/src/fixture.rs",
        include_str!("fixtures/d3_violations.rs"),
    )])));
    let d3: Vec<&Violation> = report
        .violations
        .iter()
        .filter(|v| v.rule == "D3")
        .collect();
    assert_eq!(d3.len(), 4, "{:?}", report.violations);
    let messages: String = d3
        .iter()
        .map(|v| v.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(messages.contains("CVCP_UNDOCUMENTED_KNOB"), "{messages}");
    assert!(
        messages.contains("non-CVCP variable `\"HOME\"`"),
        "{messages}"
    );
    assert!(messages.contains("non-literal name"), "{messages}");
    // ...and the documented-but-unread knob is flagged on the md side.
    let orphan = d3
        .iter()
        .find(|v| v.file == "EXPERIMENTS.md")
        .expect("orphan knob");
    assert!(
        orphan.message.contains("CVCP_ORPHAN_KNOB"),
        "{}",
        orphan.message
    );
    // The documented and referenced knob is NOT flagged.
    assert!(!messages.contains("CVCP_FIXTURE_KNOB"), "{messages}");
}

#[test]
fn d4_fixture_flags_thread_identity_reads() {
    let report = analyze_workspace(&ws(vec![file(
        "cvcp-core",
        "crates/core/src/fixture.rs",
        include_str!("fixtures/d4_violation.rs"),
    )]));
    let d4: Vec<&Violation> = report
        .violations
        .iter()
        .filter(|v| v.rule == "D4")
        .collect();
    assert_eq!(d4.len(), 2, "{:?}", report.violations);
}

#[test]
fn c1_fixture_flags_reversed_nesting() {
    let report = analyze_workspace(&ws(vec![file(
        "cvcp-engine",
        "crates/engine/src/fixture.rs",
        include_str!("fixtures/c1_reversed.rs"),
    )]));
    let c1: Vec<&Violation> = report
        .violations
        .iter()
        .filter(|v| v.rule == "C1")
        .collect();
    assert_eq!(c1.len(), 1, "{:?}", report.violations);
    assert!(
        c1[0].message.contains("while holding `cache`"),
        "{}",
        c1[0].message
    );
}

#[test]
fn clean_fixture_reports_nothing() {
    let report = analyze_workspace(&ws(vec![file(
        "cvcp-density",
        "crates/density/src/fixture.rs",
        include_str!("fixtures/clean.rs"),
    )]));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn unused_and_reasonless_allows_are_reported() {
    let src = "\
// cvcp: allow(D1, reason = \"nothing here to suppress\")\npub fn clean() {}\n\
pub fn x() -> std::collections::HashMap<u8, u8> { std::collections::HashMap::new() } // cvcp: allow(D1)\n";
    let report = analyze_workspace(&ws(vec![file(
        "cvcp-density",
        "crates/density/src/fixture.rs",
        src,
    )]));
    let rules = rules_of(&report.violations);
    assert!(rules.contains(&"allow-unused"), "{:?}", report.violations);
    assert!(
        rules.contains(&"allow-no-reason"),
        "{:?}",
        report.violations
    );
    // The reasonless allow still suppresses: no D1 violation escapes.
    assert!(!rules.contains(&"D1"), "{:?}", report.violations);
}

/// The acceptance criterion of ISSUE 7: the real workspace is clean under
/// `--deny` with zero unjustified suppressions.
#[test]
fn the_actual_workspace_analyzes_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = analyze_root(root).expect("workspace loads");
    assert!(
        report.is_clean(),
        "workspace has violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files > 100,
        "walker found only {} files",
        report.files
    );
}
