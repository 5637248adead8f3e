//! The suppression allowlist: `lint-baseline.toml` at the workspace
//! root.
//!
//! Every entry must name a rule, a file, and a justification — an
//! unjustified suppression is itself an error, and so is a *stale* entry
//! (one matching no current finding): the baseline can only shrink, and
//! `verify.sh` fails the moment an entry outlives its reason.
//!
//! The file is a tiny TOML subset (parsed in-tree, per the hermeticity
//! rule): `[[allow]]` table-array headers followed by `key = "value"`
//! string assignments.
//!
//! ```toml
//! [[allow]]
//! rule = "C001"
//! file = "crates/kerberos/src/kdc.rs"
//! reason = "compares a checksum type enum, not MAC material"
//! ```

use crate::diag::{Finding, Rule};

/// Fields of an `[[allow]]` entry mid-parse: rule, file, reason, and the
/// 1-based line of its header (for error reporting).
type PartialEntry = (Option<Rule>, Option<String>, Option<String>, u32);

/// One suppression: all findings of `rule` in `file` are baselined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    /// Rule ID this entry suppresses.
    pub rule: Rule,
    /// Workspace-relative file the suppression is scoped to.
    pub file: String,
    /// Why the suppression is sound. Required.
    pub reason: String,
}

/// A parsed baseline.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// The suppressions, in file order.
    pub allows: Vec<Allow>,
}

/// A baseline syntax or schema problem, with its line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineError {
    /// 1-based line in `lint-baseline.toml`.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

impl Baseline {
    /// Parses baseline text. A missing file is represented by the empty
    /// string and yields an empty baseline.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let mut allows: Vec<Allow> = Vec::new();
        // Fields of the entry currently being assembled.
        let mut current: Option<PartialEntry> = None;
        let err = |line: usize, message: String| BaselineError { line: line as u32 + 1, message };

        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(entry) = current.take() {
                    allows.push(finish_entry(entry)?);
                }
                current = Some((None, None, None, u32::try_from(n).unwrap_or(u32::MAX).saturating_add(1)));
                continue;
            }
            let Some((field, value)) = parse_assignment(line) else {
                return Err(err(n, format!("unrecognised line: `{line}`")));
            };
            let Some(entry) = current.as_mut() else {
                return Err(err(n, format!("`{field}` outside an [[allow]] entry")));
            };
            match field {
                "rule" => {
                    entry.0 = Some(Rule::from_id(&value).ok_or_else(|| {
                        err(n, format!("unknown rule ID `{value}`"))
                    })?)
                }
                "file" => entry.1 = Some(value),
                "reason" => {
                    if value.trim().len() < 10 {
                        return Err(err(
                            n,
                            "a suppression justification must be a real sentence".to_string(),
                        ));
                    }
                    entry.2 = Some(value);
                }
                other => return Err(err(n, format!("unknown key `{other}`"))),
            }
        }
        if let Some(entry) = current.take() {
            allows.push(finish_entry(entry)?);
        }
        Ok(Baseline { allows })
    }

    /// Whether `f` is suppressed by some entry.
    pub fn suppresses(&self, f: &Finding) -> bool {
        self.allows.iter().any(|a| a.rule == f.rule && a.file == f.file)
    }

    /// Entries matching no finding in `all` — stale suppressions that
    /// must be deleted.
    pub fn stale_entries<'a>(&'a self, all: &[Finding]) -> Vec<&'a Allow> {
        self.allows
            .iter()
            .filter(|a| !all.iter().any(|f| a.rule == f.rule && a.file == f.file))
            .collect()
    }
}

fn finish_entry(
    (rule, file, reason, line): PartialEntry,
) -> Result<Allow, BaselineError> {
    let missing = |what: &str| BaselineError {
        line,
        message: format!("[[allow]] entry is missing `{what}` — every suppression must be justified"),
    };
    Ok(Allow {
        rule: rule.ok_or_else(|| missing("rule"))?,
        file: file.ok_or_else(|| missing("file"))?,
        reason: reason.ok_or_else(|| missing("reason"))?,
    })
}

/// Parses `key = "value"`, tolerating a trailing comment.
fn parse_assignment(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    let (value, _) = rest.split_once('"')?;
    Some((key.trim(), value.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: Rule, file: &str) -> Finding {
        Finding { rule, file: file.into(), line: 1, col: 1, message: String::new() }
    }

    #[test]
    fn parses_and_suppresses() {
        let b = Baseline::parse(
            "# comment\n[[allow]]\nrule = \"S005\"\nfile = \"a.rs\"\nreason = \"the report prints the recovered password\"\n",
        )
        .expect("parses");
        assert_eq!(b.allows.len(), 1);
        assert!(b.suppresses(&finding(Rule::S005, "a.rs")));
        assert!(!b.suppresses(&finding(Rule::S002, "a.rs")));
        assert!(!b.suppresses(&finding(Rule::S005, "b.rs")));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let e = Baseline::parse("[[allow]]\nrule = \"C001\"\nfile = \"a.rs\"\n").unwrap_err();
        assert!(e.message.contains("reason"), "{e:?}");
    }

    #[test]
    fn short_reason_is_an_error() {
        let e = Baseline::parse("[[allow]]\nrule = \"C001\"\nfile = \"a.rs\"\nreason = \"meh\"\n")
            .unwrap_err();
        assert!(e.message.contains("justification"), "{e:?}");
    }

    #[test]
    fn stale_entries_are_reported() {
        let b = Baseline::parse(
            "[[allow]]\nrule = \"C001\"\nfile = \"gone.rs\"\nreason = \"this file was fixed already\"\n",
        )
        .expect("parses");
        let stale = b.stale_entries(&[finding(Rule::C001, "other.rs")]);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].file, "gone.rs");
    }

    #[test]
    fn unknown_rule_rejected() {
        assert!(Baseline::parse("[[allow]]\nrule = \"Z999\"\n").is_err());
        // A retired ID is unknown too: its entries must go with the rule.
        assert!(Baseline::parse("[[allow]]\nrule = \"P001\"\n").is_err());
    }
}
