//! Rule C1 — the static half of the lock-discipline contract.
//!
//! The runtime half is `cvcp_obs::lock_rank`: every hot-path mutex is a
//! `RankedMutex` and debug builds assert the declared global order on
//! every acquisition. That catches whatever actually executes; this
//! pass catches what is merely *written* — it extracts every
//! `<receiver>.lock()` site in the concurrency crates, classifies the
//! receiver against a lock-class registry, tracks guard liveness through
//! lexical scopes, and builds the static nesting graph. The build fails
//! on: an unregistered lock site, an acquisition against the declared
//! rank order, same-class nesting (two pool queues!), or any cycle among the
//! unranked leaf classes.
//!
//! This is a *lexical* approximation, and deliberately so: it sees
//! same-function nesting only (a guard cannot outlive its function —
//! `MutexGuard` is not `Send` across the job boundary used here), it
//! treats a `let`-bound guard as live to the end of its block or an
//! explicit `drop(guard)`, and it treats a `.lock().unwrap().method()`
//! chain as a temporary released at the end of the statement. Those are
//! exactly the semantics of the code this repository writes; anything
//! fancier should trip the `unclassified` check and force a registry
//! entry (and a human look).

use crate::allow::AllowSet;
use crate::lexer::Tok;
use crate::rules::Violation;
use crate::workspace::{FileKind, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose `.lock()` sites are extracted.
pub const LOCK_SCOPE_CRATES: &[&str] = &["cvcp-engine", "cvcp-server", "cvcp-obs", "cvcp-core"];

/// A lock class: all mutexes that play the same role share one node in
/// the nesting graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockClass {
    pub name: &'static str,
    /// Declared global rank, for the ranked hot-path classes; `None`
    /// for leaf locks that must simply never participate in a cycle.
    pub rank: Option<u16>,
}

/// Receiver-name registry: (crate, receiver ident at the `.lock()` call)
/// → class. Every lock site in scope must resolve here; adding a mutex
/// without registering it is a C1 violation by construction.
pub fn registry() -> BTreeMap<(&'static str, &'static str), LockClass> {
    let ranked = |name, rank| LockClass {
        name,
        rank: Some(rank),
    };
    let leaf = |name| LockClass { name, rank: None };
    BTreeMap::from([
        // The ranked classes — must match cvcp_obs::lock_rank.
        (("cvcp-server", "state"), ranked("server-queue", 10)),
        // The pool's one two-lane queue; its park condvar waits on the
        // same lock, so there is no second pool rank.
        (("cvcp-engine", "state"), ranked("pool-state", 20)),
        // The artifact cache's one map lock (innermost).
        (("cvcp-engine", "map"), ranked("cache", 30)),
        // Leaf locks: a graph's ready set and observability buffers.
        // The ready set (one per executing graph, with the condvar its
        // waiting thread parks on) is held only to insert or pop jobs and
        // flip the parked flag; tokens are queued after it is released.
        (("cvcp-engine", "ready"), leaf("engine-ready-set")),
        // Per-job closure and outcome slots (one mutex per job; a slot is
        // locked only for a take/store, never across another acquisition).
        (("cvcp-engine", "jobs"), leaf("engine-job-slot")),
        (("cvcp-engine", "outcomes"), leaf("engine-outcome-slot")),
        (("cvcp-engine", "slot"), leaf("engine-outcome-slot")),
        (("cvcp-server", "last_profile"), leaf("server-last-profile")),
        (("cvcp-obs", "buffer"), leaf("trace-buffer")),
        (("cvcp-obs", "b"), leaf("trace-buffer")),
        // Plan-execution result slots (written by engine jobs, reduced
        // under a fresh acquisition; never nested).
        (("cvcp-core", "grid"), leaf("plan-grid")),
        (("cvcp-core", "externals"), leaf("plan-externals")),
        (("cvcp-core", "results"), leaf("plan-results")),
        (("cvcp-core", "callback"), leaf("selection-callback")),
    ])
}

/// One extracted acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    pub file: String,
    pub line: usize,
    pub class: LockClass,
    /// Classes held (lexically) at the moment of acquisition.
    pub held: Vec<LockClass>,
}

/// Parses the declared ranks out of `crates/obs/src/lock_rank.rs`
/// (`pub static NAME: LockRank = LockRank { rank: N, name: "x" }`),
/// returning name → rank.
pub fn declared_ranks(lock_rank_src: &str) -> BTreeMap<String, u16> {
    let mut out = BTreeMap::new();
    let mut rest = lock_rank_src;
    while let Some(pos) = rest.find("LockRank {") {
        let body = &rest[pos..];
        let rank = body
            .find("rank:")
            .and_then(|r| body[r + 5..].split([',', '}']).next())
            .and_then(|s| s.trim().parse::<u16>().ok());
        let name = body.find("name:").and_then(|n| {
            let after = &body[n + 5..];
            let open = after.find('"')?;
            let close = after[open + 1..].find('"')?;
            Some(after[open + 1..open + 1 + close].to_string())
        });
        if let (Some(rank), Some(name)) = (rank, name) {
            out.insert(name, rank);
        }
        rest = &rest[pos + 9..];
    }
    out
}

/// Runs the whole C1 pass over the parsed workspace files.
pub fn rule_c1(
    files: &[ParsedFile],
    lock_rank_src: Option<&str>,
    allows: &AllowSet,
    out: &mut Vec<Violation>,
) {
    let registry = registry();
    let mut sites: Vec<LockSite> = Vec::new();

    for p in files {
        if !LOCK_SCOPE_CRATES.contains(&p.file.crate_name.as_str())
            || p.file.kind != FileKind::Src
            || p.file.rel_path.ends_with("lock_rank.rs")
        {
            // lock_rank.rs IS the guard: it wraps raw mutexes by design.
            continue;
        }
        extract_sites(p, &registry, allows, &mut sites, out);
    }

    // Per-site order checks against the declared ranks.
    let mut edges: BTreeSet<(LockClass, LockClass)> = BTreeSet::new();
    for site in &sites {
        for &held in &site.held {
            edges.insert((held, site.class));
            match (held.rank, site.class.rank) {
                (Some(h), Some(n)) if h >= n && !allows.suppresses("C1", &site.file, site.line) => {
                    out.push(Violation {
                        rule: "C1".into(),
                        file: site.file.clone(),
                        line: site.line,
                        message: format!(
                            "acquires `{}` (rank {n}) while holding `{}` (rank {h}) — violates the declared order server-queue(10) < pool-state(20) < cache(30), and equal ranks never nest",
                            site.class.name, held.name
                        ),
                    });
                }
                _ if held.name == site.class.name
                    && !allows.suppresses("C1", &site.file, site.line) =>
                {
                    out.push(Violation {
                        rule: "C1".into(),
                        file: site.file.clone(),
                        line: site.line,
                        message: format!(
                            "re-acquires lock class `{}` while already holding it — self-deadlock",
                            site.class.name
                        ),
                    });
                }
                _ => {}
            }
        }
    }

    // Global cycle check over the full nesting graph (covers the leaf
    // classes the rank order says nothing about).
    if let Some(cycle) = find_cycle(&edges) {
        out.push(Violation {
            rule: "C1".into(),
            file: "(lock nesting graph)".into(),
            line: 0,
            message: format!("cyclic lock nesting: {}", cycle.join(" -> ")),
        });
    }

    // Cross-check: the registry's ranks must match the runtime guard's
    // declared statics — otherwise this pass validates a fiction.
    if let Some(src) = lock_rank_src {
        let declared = declared_ranks(src);
        for class in registry.values() {
            let Some(rank) = class.rank else { continue };
            match declared.get(class.name) {
                Some(&d) if d == rank => {}
                Some(&d) => out.push(Violation {
                    rule: "C1".into(),
                    file: "crates/obs/src/lock_rank.rs".into(),
                    line: 1,
                    message: format!(
                        "rank drift for `{}`: analysis registry says {rank}, lock_rank.rs declares {d}",
                        class.name
                    ),
                }),
                None => out.push(Violation {
                    rule: "C1".into(),
                    file: "crates/obs/src/lock_rank.rs".into(),
                    line: 1,
                    message: format!(
                        "ranked class `{}` has no LockRank static in lock_rank.rs",
                        class.name
                    ),
                }),
            }
        }
    }
}

/// A live, `let`-bound guard.
#[derive(Debug)]
struct LiveGuard {
    var: String,
    class: LockClass,
}

/// Walks one file's token stream, maintaining a lexical scope stack of
/// live guards, and records every acquisition with the classes held.
fn extract_sites(
    p: &ParsedFile,
    registry: &BTreeMap<(&'static str, &'static str), LockClass>,
    allows: &AllowSet,
    sites: &mut Vec<LockSite>,
    out: &mut Vec<Violation>,
) {
    let toks = &p.tokens;
    let mut scopes: Vec<Vec<LiveGuard>> = vec![Vec::new()];

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            scopes.push(Vec::new());
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            if scopes.len() > 1 {
                scopes.pop();
            }
            i += 1;
            continue;
        }
        // drop(guard) releases early.
        if t.ident() == Some("drop")
            && toks.get(i + 1).is_some_and(|a| a.is_punct('('))
            && toks.get(i + 3).is_some_and(|a| a.is_punct(')'))
        {
            if let Some(var) = toks.get(i + 2).and_then(Tok::ident) {
                for scope in scopes.iter_mut() {
                    scope.retain(|g| g.var != var);
                }
            }
            i += 4;
            continue;
        }
        // <receiver> . lock (
        let is_lock_call = t.is_punct('.')
            && toks.get(i + 1).and_then(Tok::ident) == Some("lock")
            && toks.get(i + 2).is_some_and(|a| a.is_punct('('));
        if !is_lock_call || p.in_test_span(t.line) {
            i += 1;
            continue;
        }
        let receiver = receiver_ident(toks, i);
        let class = receiver.and_then(|r| {
            registry
                .iter()
                .find(|((krate, recv), _)| *krate == p.file.crate_name && *recv == r)
                .map(|(_, &c)| c)
        });
        let Some(class) = class else {
            if !allows.suppresses("C1", &p.file.rel_path, t.line) {
                out.push(Violation {
                    rule: "C1".into(),
                    file: p.file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "unclassified lock site (receiver `{}`) — register it in the cvcp-analysis lock registry",
                        receiver.unwrap_or("<expr>")
                    ),
                });
            }
            i += 3;
            continue;
        };

        let held: Vec<LockClass> = scopes
            .iter()
            .flat_map(|s| s.iter().map(|g| g.class))
            .collect();
        sites.push(LockSite {
            file: p.file.rel_path.clone(),
            line: t.line,
            class,
            held,
        });

        // Guard binding: statement starts with `let <name> [mut] = …` and
        // the expression ends right after `.lock()` plus optional
        // `.expect("…")` / `.unwrap()` — then the guard stays live in this
        // scope. Anything else is a temporary (released at statement end).
        let bound_var = let_bound_var(toks, i).filter(|_| is_bare_guard_expr(toks, i + 2));
        if let Some(var) = bound_var {
            scopes
                .last_mut()
                .expect("scope stack never empty")
                .push(LiveGuard { var, class });
        }
        i += 3;
    }
}

/// The receiver name of `<recv>.lock()`: the identifier directly before
/// the dot, looking through one index expression (`outcomes[job].lock()`
/// resolves to `outcomes`).
fn receiver_ident(toks: &[Tok], dot: usize) -> Option<&str> {
    if dot == 0 {
        return None;
    }
    let mut j = dot - 1;
    if toks[j].is_punct(']') {
        let mut depth = 0usize;
        loop {
            if toks[j].is_punct(']') {
                depth += 1;
            } else if toks[j].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    toks[j].ident()
}

/// Walks back from the `.`-token of a lock call to the start of the
/// statement (past `;`, `{` or `}`); returns the bound variable when the
/// statement begins with `let`.
fn let_bound_var(toks: &[Tok], dot: usize) -> Option<String> {
    let mut j = dot;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    if toks.get(j).and_then(Tok::ident) != Some("let") {
        return None;
    }
    let mut k = j + 1;
    if toks.get(k).and_then(Tok::ident) == Some("mut") {
        k += 1;
    }
    toks.get(k).and_then(Tok::ident).map(str::to_string)
}

/// From the index of the `(` in `.lock(`, returns `true` when the call
/// chain ends the statement after optional `.expect(...)`/`.unwrap()`
/// adapters — i.e. the expression's value IS the guard.
fn is_bare_guard_expr(toks: &[Tok], open_paren: usize) -> bool {
    let mut j = open_paren + 1; // `.lock(` takes no arguments
    if !toks.get(j).is_some_and(|t| t.is_punct(')')) {
        return false;
    }
    j += 1;
    loop {
        match toks.get(j) {
            Some(t) if t.is_punct(';') => return true,
            Some(t) if t.is_punct('.') => {
                let adapter = toks.get(j + 1).and_then(Tok::ident);
                if !matches!(adapter, Some("expect") | Some("unwrap")) {
                    return false;
                }
                // skip the adapter's argument list
                let Some(open) = toks.get(j + 2).filter(|t| t.is_punct('(')) else {
                    return false;
                };
                let _ = open;
                let mut depth = 0usize;
                let mut k = j + 2;
                while k < toks.len() {
                    if toks[k].is_punct('(') {
                        depth += 1;
                    } else if toks[k].is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                j = k + 1;
            }
            Some(t) if t.is_punct('?') => j += 1,
            _ => return false,
        }
    }
}

/// DFS cycle detection over the class graph; returns the cycle's class
/// names when one exists.
fn find_cycle(edges: &BTreeSet<(LockClass, LockClass)>) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges {
        // Self-edges (same-class nesting) are already reported per-site;
        // the graph pass looks for longer cycles.
        if a.name != b.name {
            adj.entry(a.name).or_default().push(b.name);
        }
        adj.entry(b.name).or_default();
    }
    let mut state: BTreeMap<&str, u8> = adj.keys().map(|&k| (k, 0u8)).collect(); // 0=new 1=open 2=done
    let mut stack: Vec<&str> = Vec::new();

    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        state: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        state.insert(node, 1);
        stack.push(node);
        for &next in adj.get(node).into_iter().flatten() {
            match state.get(next).copied().unwrap_or(0) {
                0 => {
                    if let Some(c) = dfs(next, adj, state, stack) {
                        return Some(c);
                    }
                }
                1 => {
                    let from = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[from..].iter().map(|s| s.to_string()).collect();
                    cycle.push(next.to_string());
                    return Some(cycle);
                }
                _ => {}
            }
        }
        stack.pop();
        state.insert(node, 2);
        None
    }

    let nodes: Vec<&str> = adj.keys().copied().collect();
    for node in nodes {
        if state.get(node).copied().unwrap_or(0) == 0 {
            if let Some(c) = dfs(node, &adj, &mut state, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn run(crate_name: &str, src: &str) -> Vec<Violation> {
        let p = ParsedFile::parse(SourceFile {
            crate_name: crate_name.into(),
            rel_path: "crates/x/src/file.rs".into(),
            kind: FileKind::Src,
            text: src.into(),
        });
        let allows = AllowSet::default();
        let mut out = Vec::new();
        rule_c1(&[p], None, &allows, &mut out);
        out
    }

    #[test]
    fn in_order_nesting_is_clean() {
        let out = run(
            "cvcp-engine",
            "fn f(s: &S) {\n    let state = s.state.lock().expect(\"pool\");\n    let m = s.map.lock().expect(\"cache\");\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn reversed_nesting_is_flagged() {
        let out = run(
            "cvcp-engine",
            "fn f(s: &S) {\n    let m = s.map.lock().expect(\"cache\");\n    let state = s.state.lock().expect(\"pool\");\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("while holding"),
            "{}",
            out[0].message
        );
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn same_class_nesting_is_flagged() {
        let out = run(
            "cvcp-engine",
            "fn f(a: &S, b: &S) {\n    let m1 = a.map.lock().unwrap();\n    let m2 = b.map.lock().unwrap();\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("rank 30"), "{}", out[0].message);
    }

    #[test]
    fn drop_releases_the_guard() {
        let out = run(
            "cvcp-engine",
            "fn f(s: &S) {\n    let m = s.map.lock().unwrap();\n    drop(m);\n    let state = s.state.lock().unwrap();\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let out = run(
            "cvcp-engine",
            "fn f(s: &S) {\n    {\n        let m = s.map.lock().unwrap();\n    }\n    let state = s.state.lock().unwrap();\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn chained_temporary_does_not_stay_live() {
        let out = run(
            "cvcp-engine",
            "fn f(s: &S) {\n    let n = s.map.lock().unwrap().len();\n    let state = s.state.lock().unwrap();\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unclassified_receiver_is_flagged() {
        let out = run(
            "cvcp-engine",
            "fn f(s: &S) {\n    let g = s.mystery.lock().unwrap();\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("unclassified"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn cfg_test_sites_are_skipped() {
        let out = run(
            "cvcp-engine",
            "#[cfg(test)]\nmod tests {\n    fn f(s: &S) { let g = s.anything.lock().unwrap(); }\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn leaf_cycle_is_detected() {
        // ready -> jobs in one function, jobs -> ready in another: no
        // rank order violated, but the graph has a cycle.
        let out = run(
            "cvcp-engine",
            "fn f(s: &S) {\n    let a = s.ready.lock().unwrap();\n    let b = s.jobs.lock().unwrap();\n}\nfn g(s: &S) {\n    let b = s.jobs.lock().unwrap();\n    let a = s.ready.lock().unwrap();\n}\n",
        );
        assert!(
            out.iter()
                .any(|v| v.message.contains("cyclic lock nesting")),
            "{out:?}"
        );
    }

    #[test]
    fn declared_rank_parser_reads_lock_rank_statics() {
        let src = r#"
pub static SERVER_QUEUE: LockRank = LockRank { rank: 10, name: "server-queue" };
pub static POOL_STATE: LockRank = LockRank { rank: 20, name: "pool-state" };
"#;
        let ranks = declared_ranks(src);
        assert_eq!(ranks.get("server-queue"), Some(&10));
        assert_eq!(ranks.get("pool-state"), Some(&20));
    }

    #[test]
    fn rank_drift_against_lock_rank_src_is_flagged() {
        let src = r#"pub static POOL_STATE: LockRank = LockRank { rank: 99, name: "pool-state" };"#;
        let allows = AllowSet::default();
        let mut out = Vec::new();
        rule_c1(&[], Some(src), &allows, &mut out);
        assert!(
            out.iter().any(|v| v.message.contains("rank drift")),
            "{out:?}"
        );
    }
}
