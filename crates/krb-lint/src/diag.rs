//! Rule identities and findings.

use std::fmt;

/// Every rule the engine knows, with a stable ID. IDs are never reused:
/// D001–D003, P001/P002 and H001 were retired into clippy.toml, the
/// crate-root panic lints and `cargo metadata`, and the hot-path
/// allocation rule into the root `tests/alloc_budget.rs` (DESIGN.md
/// "Static invariants"); their numbers stay retired so baselines and
/// EXPERIMENTS.md history keep one meaning.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Rule {
    /// Secret-bearing type derives `Debug`/`Display`/`Serialize`.
    S001,
    /// Secret-named value flows into a formatting/log macro.
    S002,
    /// Hand-written leaking impl (`Display`/`Serialize`, or a `Debug`
    /// impl with no `****` redaction marker) on a secret-bearing type.
    S003,
    /// Secret-named value flows into a trace emission (`emit`, `note`,
    /// `begin_span`, `counter`, ...) without passing through
    /// `fingerprint(...)` redaction.
    S004,
    /// Taint-tracked secret reaches a sink across renames, inline
    /// format captures, or up to 3 call-graph hops (flow-aware sibling
    /// of S002/S004; see [`crate::taint`]).
    S005,
    /// `==`/`!=` on key or MAC material; `ct_eq` is required.
    C001,
    /// Truncating `as u8/u16/u32` cast on a length-named operand inside
    /// an encode/decode-path function of a deterministic crate.
    P003,
    /// Metric-name drift: a name emitted in code is missing from
    /// DESIGN.md's registry table, or vice versa.
    E001,
}

/// All rules, in report order.
pub const ALL_RULES: &[Rule] = &[
    Rule::S001,
    Rule::S002,
    Rule::S003,
    Rule::S004,
    Rule::S005,
    Rule::C001,
    Rule::P003,
    Rule::E001,
];

impl Rule {
    /// The stable ID string.
    pub fn id(self) -> &'static str {
        match self {
            Rule::S001 => "S001",
            Rule::S002 => "S002",
            Rule::S003 => "S003",
            Rule::S004 => "S004",
            Rule::S005 => "S005",
            Rule::C001 => "C001",
            Rule::P003 => "P003",
            Rule::E001 => "E001",
        }
    }

    /// Parses an ID string (as written in `lint-baseline.toml`).
    pub fn from_id(s: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == s)
    }

    /// One-line rationale, shown in the E14 table and DESIGN.md.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::S001 => "secret types must not derive Debug/Display/Serialize",
            Rule::S002 => "key material must not reach format!/log strings",
            Rule::S003 => "hand-written impls on secret types must redact",
            Rule::S004 => "traces carry key fingerprints, never key material",
            Rule::S005 => "secrets must not reach sinks through renames or calls",
            Rule::C001 => "key/MAC comparison must be constant-time (ct_eq)",
            Rule::P003 => "wire lengths convert via try_from, never `as` casts",
            Rule::E001 => "emitted metric names match DESIGN.md's registry",
        }
    }
}

/// One diagnostic: a rule violated at a location.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the specific violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}:{} {}",
            self.rule.id(),
            self.file,
            self.line,
            self.col,
            self.message
        )
    }
}
