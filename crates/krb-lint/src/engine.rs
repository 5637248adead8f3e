//! Workspace walking and whole-tree analysis.

use crate::baseline::{Baseline, BaselineError};
use crate::diag::{Finding, ALL_RULES};
use crate::flow::{analyze_workspace, FileInput, FlowStats};
use crate::lexer::lex;
use crate::rules::{check_file, FileCtx};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into. `fixtures` keeps the lint's own
/// deliberately-bad corpus out of the workspace scan.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// The lint result for a whole tree.
pub struct Report {
    /// Findings NOT suppressed by the baseline.
    pub active: Vec<Finding>,
    /// Findings suppressed by a justified baseline entry.
    pub baselined: Vec<Finding>,
    /// Baseline entries matching nothing (these fail the run).
    pub stale: Vec<String>,
    /// Number of `.rs` files analysed.
    pub files_scanned: usize,
    /// Flow-pass coverage counters (functions, call edges, taint paths)
    /// — the E19 metrics.
    pub flow: FlowStats,
}

impl Report {
    /// Whether the gate passes.
    pub fn clean(&self) -> bool {
        self.active.is_empty() && self.stale.is_empty()
    }

    /// rule × crate violation counts over active + baselined findings,
    /// the table EXPERIMENTS.md E14 records.
    pub fn counts_by_rule_and_crate(&self) -> BTreeMap<&'static str, BTreeMap<String, usize>> {
        let mut m: BTreeMap<&'static str, BTreeMap<String, usize>> = BTreeMap::new();
        for r in ALL_RULES {
            m.entry(r.id()).or_default();
        }
        for f in self.active.iter().chain(&self.baselined) {
            *m.entry(f.rule.id())
                .or_default()
                .entry(crate_of(&f.file).to_string())
                .or_insert(0) += 1;
        }
        m
    }
}

/// The crate a workspace-relative path belongs to: `crates/<name>/…`,
/// the standalone benchmark package under `kbench/`, or the root
/// package.
pub fn crate_of(rel_path: &str) -> &str {
    match rel_path.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(rest),
        None if rel_path.starts_with("kbench/") => "kbench",
        None => "kerberos-limits",
    }
}

/// Analyses one Rust source text as `rel_path`. Exposed for the fixture
/// tests, which lint files outside the tree.
pub fn analyze_source(rel_path: &str, text: &str) -> Vec<Finding> {
    let tokens = lex(text);
    let is_test_file = rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/");
    let ctx = FileCtx { rel_path, is_test_file, tokens: &tokens };
    let mut findings = check_file(&ctx);
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// Walks the workspace at `root`, lints every `.rs` file, and applies
/// `lint-baseline.toml`.
pub fn run(root: &Path) -> io::Result<Result<Report, BaselineError>> {
    let mut rs_files = Vec::new();
    walk(root, root, &mut rs_files)?;
    rs_files.sort();

    let mut all = Vec::new();
    let files_scanned = rs_files.len();
    let mut sources = Vec::with_capacity(rs_files.len());
    for rel in &rs_files {
        let text = fs::read_to_string(root.join(rel))?;
        all.extend(analyze_source(rel, &text));
        sources.push(text);
    }

    // The flow pass needs every file at once (call graph, taint).
    let inputs: Vec<FileInput<'_>> = rs_files
        .iter()
        .zip(&sources)
        .map(|(rel, text)| FileInput { rel_path: rel, crate_name: crate_of(rel), text })
        .collect();
    let design_text = fs::read_to_string(root.join("DESIGN.md")).ok();
    let (flow_findings, flow) =
        analyze_workspace(&inputs, design_text.as_deref().map(|t| ("DESIGN.md", t)));
    all.extend(flow_findings);
    all.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });

    let baseline_text = fs::read_to_string(root.join("lint-baseline.toml")).unwrap_or_default();
    let baseline = match Baseline::parse(&baseline_text) {
        Ok(b) => b,
        Err(e) => return Ok(Err(e)),
    };

    let stale = baseline
        .stale_entries(&all)
        .into_iter()
        .map(|a| format!("{} {} ({})", a.rule.id(), a.file, a.reason))
        .collect();
    let (baselined, active): (Vec<_>, Vec<_>) =
        all.into_iter().partition(|f| baseline.suppresses(f));
    Ok(Ok(Report { active, baselined, stale, files_scanned, flow }))
}

fn walk(root: &Path, dir: &Path, rs_files: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, rs_files)?;
        } else if name.ends_with(".rs") {
            rs_files.push(rel_of(root, &path));
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locates the workspace root: `$CARGO_MANIFEST_DIR/../..` when invoked
/// via cargo, else the first ancestor of the cwd whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_root() -> io::Result<PathBuf> {
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(&md);
        for anc in p.ancestors() {
            if is_workspace_root(anc) {
                return Ok(anc.to_path_buf());
            }
        }
    }
    let cwd = std::env::current_dir()?;
    for anc in cwd.ancestors() {
        if is_workspace_root(anc) {
            return Ok(anc.to_path_buf());
        }
    }
    Err(io::Error::new(io::ErrorKind::NotFound, "no [workspace] Cargo.toml above cwd"))
}

fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .map(|t| t.contains("[workspace]"))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Rule;

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/kerberos/src/kdc.rs"), "kerberos");
        assert_eq!(crate_of("crates/krb-lint/src/main.rs"), "krb-lint");
        assert_eq!(crate_of("src/lib.rs"), "kerberos-limits");
        assert_eq!(crate_of("tests/attack_matrix_golden.rs"), "kerberos-limits");
        assert_eq!(crate_of("kbench/src/layers.rs"), "kbench");
    }

    #[test]
    fn analyze_source_is_deterministic_and_sorted() {
        let src = "fn f() { a.mac == b.mac; c.cksum != d.cksum; }";
        let f = analyze_source("crates/kerberos/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::C001));
        assert!(f[0].col < f[1].col);
    }
}
