//! `cvcp-analysis` — an offline, std-only static-analysis pass for the
//! CVCP workspace.
//!
//! The paper's contract is that cross-validated selection results are a
//! pure function of (data, constraints, parameters, seed). The type
//! system cannot see the ways that contract erodes — a `HashMap`
//! iteration leaking into a score, a wall-clock read drifting into a
//! result path, an environment knob nobody documented, a mutex acquired
//! against the global order. Each rule here pins one of those:
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `D1` | no `HashMap`/`HashSet` in result-path crates |
//! | `D2` | no `Instant::now`/`SystemTime` outside obs/server/bench |
//! | `D3` | env knobs ↔ EXPERIMENTS.md knob table, synced both ways |
//! | `D4` | no thread-identity / worker-count reads in result paths |
//! | `C1` | static lock-nesting graph obeys the declared rank order |
//! | `L1` | the no-unsafe policy is workspace-owned and universal |
//!
//! Violations are suppressed site-by-site with
//! `// cvcp: allow(<rule>, reason = "...")`; a reason is mandatory and
//! unused allows are themselves violations, so the suppression inventory
//! stays honest. `C1`'s runtime twin is `cvcp_obs::lock_rank`, which
//! asserts the same order on real executions under `debug_assertions`.

pub mod allow;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod workspace;

use allow::AllowSet;
use rules::Violation;
use std::path::Path;
use workspace::{ParsedFile, Workspace};

/// Everything one analysis run produced.
#[derive(Debug)]
pub struct Report {
    pub violations: Vec<Violation>,
    /// Number of `cvcp: allow(...)` suppressions encountered (used or not).
    pub allows: usize,
    /// Number of files scanned.
    pub files: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The rule catalogue, for `--list-rules`.
pub fn rule_catalogue() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "D1",
            "no HashMap/HashSet in result-path crates (data, density, constraints, kmeans, metrics, core)",
        ),
        (
            "D2",
            "no Instant::now/SystemTime clock reads outside obs/server/bench; engine metrics timing needs an allow",
        ),
        (
            "D3",
            "every env::var read names a CVCP_* knob documented in EXPERIMENTS.md, and every documented knob is read",
        ),
        (
            "D4",
            "no thread::current/ThreadId/available_parallelism in result-path crates",
        ),
        (
            "C1",
            "static lock-nesting graph over engine/server/obs/core obeys server-queue(10) < pool-state(20) < cache(30), acyclic, no unregistered lock sites",
        ),
        (
            "L1",
            "unsafe_code=forbid owned by [workspace.lints]; every first-party crate opts in; vendor shims keep #![forbid(unsafe_code)]",
        ),
        (
            "allow-no-reason / allow-unused",
            "every suppression carries a reason and suppresses something",
        ),
    ]
}

/// Runs every rule over pre-loaded workspace content. Split from
/// [`analyze_root`] so tests can feed fixture files without touching disk.
pub fn analyze_workspace(ws: &Workspace) -> Report {
    let parsed: Vec<ParsedFile> = ws.files.iter().cloned().map(ParsedFile::parse).collect();

    // Collect suppressions first: any rule may consult them. Only from
    // files the rules actually scan — `cvcp-analysis` itself documents
    // the allow syntax in prose, and tests/benches are rule-exempt, so
    // allows there could only ever be unused.
    let mut allows = AllowSet::default();
    for p in &parsed {
        if p.file.crate_name == "cvcp-analysis"
            || matches!(
                p.file.kind,
                workspace::FileKind::Test | workspace::FileKind::Bench
            )
        {
            continue;
        }
        let tokens = &p.tokens;
        allows.collect_file(&p.file.rel_path, &p.comments, |line| {
            tokens.iter().map(|t| t.line).find(|&l| l > line)
        });
    }

    let mut violations = Vec::new();
    for p in &parsed {
        rules::rule_d1(p, &allows, &mut violations);
        rules::rule_d2(p, &allows, &mut violations);
        rules::rule_d4(p, &allows, &mut violations);
    }
    rules::rule_d3(
        &parsed,
        ws.experiments_md.as_deref(),
        &allows,
        &mut violations,
    );
    locks::rule_c1(
        &parsed,
        ws.lock_rank_src.as_deref(),
        &allows,
        &mut violations,
    );

    rules::rule_l1(
        &ws.root_manifest,
        &ws.manifests,
        &ws.vendor_lib_sources,
        &mut violations,
    );

    violations.extend(allows.governance_violations());
    violations.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));

    Report {
        violations,
        allows: allows.len(),
        files: parsed.len(),
    }
}

/// Loads the workspace at `root` from disk and analyzes it.
pub fn analyze_root(root: &Path) -> Result<Report, String> {
    let ws = Workspace::load(root)?;
    Ok(analyze_workspace(&ws))
}
