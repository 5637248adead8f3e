//! What the rules consider secret, deterministic, and hot-path.
//!
//! This is the lint's registry: the one place future PRs extend when
//! they add a key-carrying type or a new crate. Everything here is data,
//! so the rule implementations stay generic.

/// Types that carry raw key material or key-derived secrets. Deriving
/// `Debug`/`Display`/`Serialize` on any of these is a secrecy leak
/// (S001); hand-written impls must redact (S003).
pub const SECRET_TYPES: &[&str] = &[
    "DesKey",
    "TripleDesKey",
    "KeySchedule",
    "TripleSchedule",
    "ScheduledKey",
    "TaggedKey",
    "SecretBytes",
];

/// Crates whose execution must be a pure function of their inputs: every
/// run replays from a seed, and same-seed traces, fuzz reports, alert
/// streams and lint reports are byte-identical. P003 checks their
/// encode/decode functions for truncating length casts. Their wall-clock,
/// `RandomState` and socket bans live in clippy.toml.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "simnet", "kerberos", "krb-crypto", "attacks", "krb-trace", "krb-fuzz", "krb-gateway",
    "krb-lint", "krb-ids",
];

/// Macros whose arguments become human-readable strings (S002 scans
/// their argument lists for secret-named identifiers).
pub const FORMAT_MACROS: &[&str] = &[
    "println", "print", "eprintln", "eprint", "format", "write", "writeln", "panic", "assert",
    "assert_eq", "assert_ne", "debug_assert", "log", "trace", "debug", "info", "warn", "error",
];

/// Methods whose argument lists become trace events, metrics, or span
/// fields (S004 scans them for secret-named identifiers; an argument
/// wrapped in `fingerprint(...)` is the sanctioned redaction and is
/// skipped).
pub const TRACE_EMIT_CALLS: &[&str] =
    &["emit", "note", "begin_span", "end_span", "counter", "gauge", "observe_us"];

/// Functions whose output is safe to bind even when their inputs are
/// secret: the taint engine ([`crate::taint`]) skips their whole
/// argument group. `fingerprint` is the sanctioned trace redaction;
/// `seal`/`seal_with`/`wrap`/`encrypt` produce ciphertext; `compute`
/// (checksum) produces a MAC, which already lives in a redacting
/// `SecretBytes` container of its own.
pub const SANITIZER_FNS: &[&str] =
    &["fingerprint", "seal", "seal_with", "seal_into", "wrap", "encrypt", "compute"];

/// Methods whose *result* carries no secret even on a tainted receiver:
/// lengths, emptiness, tags, and constant-time comparison verdicts.
pub const SANITIZER_METHODS: &[&str] =
    &["len", "is_empty", "ct_eq", "fingerprint", "tag", "ctype", "kind", "purpose"];

/// The hot-path allocation budget (A001): `(crate, function)` pairs in
/// which any heap allocation is a finding. These are the per-request /
/// per-block inner loops kbench's per-layer timings measure; a stray
/// `clone()` or `format!` here is a throughput regression that no test
/// catches. `Vec::with_capacity` is deliberately NOT flagged — one
/// sized allocation per call is the sanctioned way to produce an owned
/// result (and `extend_from_slice`/`resize` into it do not re-allocate
/// when the capacity was right).
pub const HOT_PATH_FNS: &[(&str, &str)] = &[
    ("kerberos", "seal_with"),
    ("kerberos", "open_with"),
    ("kerberos", "open_into"),
    ("krb-crypto", "encrypt_block"),
    ("krb-crypto", "decrypt_block"),
    ("krb-crypto", "feistel"),
    ("krb-gateway", "handle"),
    ("krb-ids", "index_windows"),
    ("krb-trace", "encode_record"),
];

/// Allocating method calls A001 flags inside a hot-path function.
pub const ALLOC_METHODS: &[&str] =
    &["clone", "to_vec", "to_string", "to_owned", "collect", "into_bytes"];

/// Allocating constructor paths (`Vec::new`, `Box::new`, ...) A001
/// flags inside a hot-path function.
pub const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box", "BTreeMap", "BTreeSet", "VecDeque"];

/// Allocating macros A001 flags inside a hot-path function. `write!`
/// into a pre-sized buffer is deliberately absent: formatting into a
/// reused `String` is the sanctioned fix for `to_string()` churn.
pub const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Whether a function, by name, sits on an encode/decode path — the
/// scope of P003's truncating-cast rule. Length fields on these paths
/// come from or go to the wire, where a silent `as u32` truncation
/// mis-frames the message instead of failing closed.
pub fn is_codec_fn(name: &str) -> bool {
    const INFIX: &[&str] =
        &["encode", "decode", "seal", "open", "wrap", "serialize", "parse", "to_bytes",
          "from_bytes", "to_wire", "from_wire"];
    INFIX.iter().any(|p| name.contains(p)) || name.starts_with("put_") || name.starts_with("take_")
}

/// Whether an identifier plausibly names a length/size (P003's cast
/// operand filter).
pub fn is_len_ident(name: &str) -> bool {
    matches!(name, "len" | "length" | "size" | "count" | "remaining" | "n" | "nbytes")
        || name.ends_with("_len")
        || name.ends_with("_length")
        || name.ends_with("_size")
        || name.ends_with("_count")
}

/// Trace-metric emission methods whose first argument is a metric name
/// literal (E001 checks these against DESIGN.md's registry). `emit`,
/// `note`, and span calls carry event kinds, not metric names, so they
/// are S004's business, not E001's.
pub const METRIC_EMIT_CALLS: &[&str] = &["counter", "gauge", "observe_us"];

/// The DESIGN.md heading under which every metric name must be listed
/// (E001). The section is a table whose first backtick-quoted cell per
/// row is the name.
pub const METRIC_REGISTRY_HEADING: &str = "Metric name registry";

/// Whether a workspace-relative path is test/demo code, exempt from the
/// flow rules: integration tests, benches, and examples (both crate
/// subdirectories and the workspace-level `tests/`/`examples/` trees).
/// The lexical rules keep their narrower historical exemption.
pub fn is_test_path(rel_path: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| rel_path.contains(&format!("/{d}")) || rel_path.starts_with(d))
}

/// Whether an identifier names key material (S002, S004, C001).
pub fn is_secret_ident(name: &str) -> bool {
    matches!(name, "key" | "keys" | "skey" | "session_key")
        || name.ends_with("_key")
        || name.ends_with("_keys")
}

/// Whether an identifier seeds taint (S005): everything
/// [`is_secret_ident`] covers plus passwords, which are the paper's
/// other root secret (the password-guessing exposure, E2).
pub fn is_taint_source_ident(name: &str) -> bool {
    is_secret_ident(name)
        || matches!(name, "password" | "passwd" | "pw")
        || name.ends_with("_password")
}

/// Whether an identifier names MAC/checksum material (C001).
pub fn is_mac_ident(name: &str) -> bool {
    matches!(name, "mac" | "hmac" | "digest" | "cksum" | "checksum")
        || name.ends_with("_mac")
        || name.ends_with("_digest")
        || name.ends_with("_cksum")
        || name.ends_with("_checksum")
}

/// Identifiers that defuse a C001 match: comparing a checksum *type*,
/// key *kind*, purpose tag, or length is not a secret comparison.
pub fn is_cmp_benign(name: &str) -> bool {
    name.contains("type") || matches!(name, "kind" | "purpose" | "len" | "count")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_classifiers() {
        assert!(is_secret_ident("session_key"));
        assert!(is_secret_ident("tgs_key"));
        assert!(!is_secret_ident("keyboard"));
        assert!(!is_secret_ident("monkey"));
        assert!(is_mac_ident("cksum"));
        assert!(!is_mac_ident("checksummed"));
        assert!(is_cmp_benign("ctype"));
        assert!(is_cmp_benign("checksum_type"));
        assert!(!is_cmp_benign("value"));
    }
}
