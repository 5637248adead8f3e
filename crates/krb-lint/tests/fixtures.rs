//! Golden tests over the fixture corpus.
//!
//! Every rule has a `bad` example (must fire that rule, output matched
//! byte-for-byte against `expected.txt`) and a `good` example (must lint
//! clean). Each fixture is analysed as if it sat at
//! `crates/kerberos/src/<RULE>_bad.rs` — production code of a
//! deterministic crate, the most heavily governed location — so a rule
//! that regresses shows up here before it shows up in the tree.
//!
//! Regenerate the goldens with `KRB_LINT_BLESS=1 cargo test -p krb-lint
//! --test fixtures` after an intentional diagnostic change.

use krb_lint::{analyze_source, analyze_workspace, FileInput, Rule};
use std::fs;
use std::path::PathBuf;

const SOURCE_RULES: &[Rule] = &[Rule::S001, Rule::S002, Rule::S003, Rule::S004, Rule::C001];

/// Rules of the flow pass (`analyze_workspace`): their fixtures form a
/// miniature workspace instead of a lone file.
const FLOW_RULES: &[Rule] = &[Rule::S005, Rule::P003, Rule::A001, Rule::E001];

fn fixture_dir(rule: Rule) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rule.id())
}

fn read(rule: Rule, name: &str) -> String {
    let path = fixture_dir(rule).join(name);
    match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("fixture {} missing: {e}", path.display()),
    }
}

/// Lints a fixture as though it lived in the kerberos crate's src/.
fn lint_fixture(rule: Rule, name: &str) -> Vec<String> {
    let text = read(rule, name);
    let rel = format!("crates/kerberos/src/{}_{}", rule.id(), name);
    analyze_source(&rel, &text).iter().map(|f| f.to_string()).collect()
}

#[test]
fn bad_examples_fire_their_rule_and_match_golden() {
    let bless = std::env::var_os("KRB_LINT_BLESS").is_some();
    for &rule in SOURCE_RULES {
        let rendered = lint_fixture(rule, "bad.rs");
        assert!(
            rendered.iter().any(|l| l.starts_with(rule.id())),
            "{}/bad.rs must trigger {}; got: {rendered:#?}",
            rule.id(),
            rule.id()
        );
        let golden_path = fixture_dir(rule).join("expected.txt");
        let actual = rendered.join("\n") + "\n";
        if bless {
            fs::write(&golden_path, &actual).expect("write golden");
            continue;
        }
        let expected = fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("golden {} missing: {e}", golden_path.display()));
        assert_eq!(
            actual,
            expected,
            "{}/bad.rs diagnostics drifted from expected.txt (KRB_LINT_BLESS=1 to regenerate)",
            rule.id()
        );
    }
}

#[test]
fn good_examples_lint_clean() {
    for &rule in SOURCE_RULES {
        let rendered = lint_fixture(rule, "good.rs");
        assert!(
            rendered.is_empty(),
            "{}/good.rs must lint clean; got: {rendered:#?}",
            rule.id()
        );
    }
}

/// Runs the flow pass over a miniature workspace: the fixture itself
/// placed in the kerberos crate's `src/` (deterministic + hot-path
/// governed), plus the rule's optional `design.md` (E001's registry).
fn lint_flow_fixture(rule: Rule, name: &str) -> Vec<String> {
    let text = read(rule, name);
    let rel = format!("crates/kerberos/src/{}_{name}", rule.id());
    let inputs = [FileInput { rel_path: &rel, crate_name: "kerberos", text: &text }];
    let design = fs::read_to_string(fixture_dir(rule).join("design.md")).ok();
    let (findings, _) = analyze_workspace(&inputs, design.as_deref().map(|d| ("DESIGN.md", d)));
    findings.iter().map(|f| f.to_string()).collect()
}

#[test]
fn flow_bad_examples_fire_their_rule_and_match_golden() {
    let bless = std::env::var_os("KRB_LINT_BLESS").is_some();
    for &rule in FLOW_RULES {
        let rendered = lint_flow_fixture(rule, "bad.rs");
        assert!(
            rendered.iter().any(|l| l.starts_with(rule.id())),
            "{}/bad.rs must trigger {}; got: {rendered:#?}",
            rule.id(),
            rule.id()
        );
        let golden_path = fixture_dir(rule).join("expected.txt");
        let actual = rendered.join("\n") + "\n";
        if bless {
            fs::write(&golden_path, &actual).expect("write golden");
            continue;
        }
        let expected = fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("golden {} missing: {e}", golden_path.display()));
        assert_eq!(
            actual,
            expected,
            "{}/bad.rs diagnostics drifted from expected.txt (KRB_LINT_BLESS=1 to regenerate)",
            rule.id()
        );
    }
}

/// Flow-rule good examples are clean under the flow pass AND the
/// lexical pass — the sanctioned pattern must not trade one rule's
/// finding for another's.
#[test]
fn flow_good_examples_lint_clean() {
    for &rule in FLOW_RULES {
        let flow = lint_flow_fixture(rule, "good.rs");
        assert!(flow.is_empty(), "{}/good.rs must flow-lint clean; got: {flow:#?}", rule.id());
        let lexical = lint_fixture(rule, "good.rs");
        assert!(
            lexical.is_empty(),
            "{}/good.rs must also lexically lint clean; got: {lexical:#?}",
            rule.id()
        );
    }
}

/// The corpus itself is complete: every rule has its pair of examples on
/// disk, so adding a rule without fixtures fails loudly.
#[test]
fn every_rule_has_fixtures() {
    for &rule in krb_lint::ALL_RULES {
        let dir = fixture_dir(rule);
        assert!(dir.join("bad.rs").is_file(), "missing {}/bad.rs", rule.id());
        assert!(dir.join("good.rs").is_file(), "missing {}/good.rs", rule.id());
    }
}
