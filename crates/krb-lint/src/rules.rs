//! The rule implementations: token-stream walks over one source file.
//!
//! Every rule receives a [`FileCtx`] (lexed tokens plus file identity)
//! and appends [`Finding`]s. Rules are deliberately lexical — no type
//! information — so each pattern is tuned against the fixture corpus in
//! `tests/fixtures/` (one bad and one good example per rule) and against
//! the live tree, where every false positive found during bring-up grew
//! the benign-identifier lists in [`crate::config`].

use crate::config::{
    is_cmp_benign, is_mac_ident, is_secret_ident, FORMAT_MACROS, SECRET_TYPES, TRACE_EMIT_CALLS,
};
use crate::diag::{Finding, Rule};
use crate::lexer::{is_keyword, TokKind, Token};

/// One source file, lexed, with enough context to scope rules.
pub struct FileCtx<'a> {
    /// Workspace-relative path (diagnostics use this verbatim).
    pub rel_path: &'a str,
    /// Whole-file test code: under `tests/`, `benches/`, or `examples/`.
    pub is_test_file: bool,
    /// All tokens, whitespace and comments included.
    pub tokens: &'a [Token<'a>],
}

impl FileCtx<'_> {
    fn finding(&self, rule: Rule, tok: &Token<'_>, message: String) -> Finding {
        Finding { rule, file: self.rel_path.to_string(), line: tok.line, col: tok.col, message }
    }
}

/// Indices of significant (non-whitespace, non-comment) tokens.
fn significant(tokens: &[Token<'_>]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(t.kind, TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Byte ranges of test-only code: `#[cfg(test)] mod ... { .. }` bodies
/// and `#[test] fn ... { .. }` bodies.
fn test_regions(ctx: &FileCtx<'_>, sig: &[usize]) -> Vec<(usize, usize)> {
    let toks = ctx.tokens;
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 4 < sig.len() {
        let t = |k: usize| toks[sig[k]].text;
        // #[cfg(test)] or #[test]
        if t(i) == "#" && t(i + 1) == "[" {
            let is_cfg_test = i + 5 < sig.len()
                && t(i + 2) == "cfg"
                && t(i + 3) == "("
                && t(i + 4) == "test"
                && t(i + 5) == ")";
            let is_test_attr = t(i + 2) == "test" && t(i + 3) == "]";
            if is_cfg_test || is_test_attr {
                // Find the next `{` at the item level and take its body.
                if let Some((open, close)) = next_brace_block(toks, sig, i) {
                    regions.push((toks[sig[open]].start, toks[sig[close]].start));
                    i = open; // regions may nest; keep scanning inside
                }
            }
        }
        i += 1;
    }
    regions
}

/// From `from`, finds the next top-level `{` and its matching `}`
/// (indices into `sig`). Tolerates unbalanced files by returning `None`.
fn next_brace_block(toks: &[Token<'_>], sig: &[usize], from: usize) -> Option<(usize, usize)> {
    let mut open = None;
    for (k, &si) in sig.iter().enumerate().skip(from) {
        if toks[si].text == "{" {
            open = Some(k);
            break;
        }
        // A `;` before any `{` means the attribute decorated a
        // body-less item (e.g. `#[test] fn x();` in a trait): no block.
        if toks[si].text == ";" {
            return None;
        }
    }
    let open = open?;
    let mut depth = 0i64;
    for (k, &si) in sig.iter().enumerate().skip(open) {
        match toks[si].text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, k));
                }
            }
            _ => {}
        }
    }
    None
}

fn in_regions(regions: &[(usize, usize)], tok: &Token<'_>) -> bool {
    regions.iter().any(|&(s, e)| tok.start >= s && tok.start <= e)
}

/// Runs every source rule over one file.
pub fn check_file(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let sig = significant(ctx.tokens);
    let tests = test_regions(ctx, &sig);
    let mut out = Vec::new();
    rule_s001_derive_leak(ctx, &sig, &mut out);
    rule_s002_format_leak(ctx, &sig, &tests, &mut out);
    rule_s003_manual_impl(ctx, &sig, &mut out);
    rule_s004_trace_leak(ctx, &sig, &tests, &mut out);
    rule_c001_secret_compare(ctx, &sig, &tests, &mut out);
    out
}

// ---- S001: secret type derives a leaking trait ----

fn rule_s001_derive_leak(ctx: &FileCtx<'_>, sig: &[usize], out: &mut Vec<Finding>) {
    const LEAKY: &[&str] = &["Debug", "Display", "Serialize"];
    let toks = ctx.tokens;
    let t = |k: usize| toks[sig[k]].text;
    let mut i = 0;
    while i + 3 < sig.len() {
        if !(t(i) == "#" && t(i + 1) == "[" && t(i + 2) == "derive" && t(i + 3) == "(") {
            i += 1;
            continue;
        }
        // Collect derived trait names up to the closing `)`.
        let mut leaks: Vec<(&str, usize)> = Vec::new();
        let mut j = i + 4;
        while j < sig.len() && t(j) != ")" {
            if toks[sig[j]].kind == TokKind::Ident && LEAKY.contains(&t(j)) {
                leaks.push((t(j), j));
            }
            j += 1;
        }
        // Skip to the struct/enum name: past `)]`, further attributes,
        // doc comments (not in sig), and visibility.
        let mut k = j + 2; // past `)` and `]`
        while k < sig.len() && t(k) == "#" {
            // another attribute: skip its [...] group
            let mut depth = 0i64;
            k += 1;
            while k < sig.len() {
                match t(k) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        if k < sig.len() && t(k) == "pub" {
            k += 1;
            if k < sig.len() && t(k) == "(" {
                while k < sig.len() && t(k) != ")" {
                    k += 1;
                }
                k += 1;
            }
        }
        if k + 1 < sig.len() && (t(k) == "struct" || t(k) == "enum") {
            let name = t(k + 1);
            if SECRET_TYPES.contains(&name) {
                for (trait_name, at) in &leaks {
                    out.push(ctx.finding(
                        Rule::S001,
                        &toks[sig[*at]],
                        format!(
                            "secret type `{name}` derives `{trait_name}`; write a redacting impl \
                             (or drop it) so key bytes cannot be formatted"
                        ),
                    ));
                }
            }
        }
        i = j;
    }
}

// ---- S002: secret-named identifier inside a formatting macro ----

fn rule_s002_format_leak(
    ctx: &FileCtx<'_>,
    sig: &[usize],
    tests: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    if ctx.is_test_file {
        return;
    }
    let toks = ctx.tokens;
    let t = |k: usize| toks[sig[k]].text;
    let mut i = 0;
    while i + 2 < sig.len() {
        let is_fmt = toks[sig[i]].kind == TokKind::Ident
            && FORMAT_MACROS.contains(&t(i))
            && t(i + 1) == "!"
            && matches!(t(i + 2), "(" | "[" | "{");
        if !is_fmt || in_regions(tests, &toks[sig[i]]) {
            i += 1;
            continue;
        }
        let (open_s, close_s) = (t(i + 2), matching_close(t(i + 2)));
        let mut depth = 0i64;
        let mut j = i + 2;
        while j < sig.len() {
            let s = t(j);
            if s == open_s {
                depth += 1;
            } else if s == close_s {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if toks[sig[j]].kind == TokKind::Ident && is_secret_ident(s) {
                out.push(ctx.finding(
                    Rule::S002,
                    &toks[sig[j]],
                    format!("`{s}` flows into `{}!`: key material must never be formatted", t(i)),
                ));
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
}

fn matching_close(open: &str) -> &'static str {
    match open {
        "(" => ")",
        "[" => "]",
        _ => "}",
    }
}

// ---- S003: hand-written leaking impl on a secret type ----

fn rule_s003_manual_impl(ctx: &FileCtx<'_>, sig: &[usize], out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    let t = |k: usize| toks[sig[k]].text;
    for i in 0..sig.len() {
        if t(i) != "impl" {
            continue;
        }
        // impl [<generics>] Path::To::Trait for Type
        let mut j = i + 1;
        if j < sig.len() && t(j) == "<" {
            let mut depth = 0i64;
            while j < sig.len() {
                match t(j) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Walk the trait path; remember its last identifier.
        let mut trait_name: Option<&str> = None;
        while j < sig.len() {
            if toks[sig[j]].kind == TokKind::Ident && !is_keyword(t(j)) {
                trait_name = Some(t(j));
                j += 1;
            } else if t(j) == "::" {
                j += 1;
            } else {
                break;
            }
        }
        if j >= sig.len() || t(j) != "for" {
            continue; // inherent impl
        }
        j += 1;
        // Type path: last identifier is the type name.
        let mut type_name: Option<(&str, usize)> = None;
        while j < sig.len() {
            if toks[sig[j]].kind == TokKind::Ident && !is_keyword(t(j)) {
                type_name = Some((t(j), j));
                j += 1;
            } else if t(j) == "::" {
                j += 1;
            } else {
                break;
            }
        }
        let (Some(trait_name), Some((type_name, at))) = (trait_name, type_name) else {
            continue;
        };
        if !SECRET_TYPES.contains(&type_name) {
            continue;
        }
        match trait_name {
            "Display" | "Serialize" => out.push(ctx.finding(
                Rule::S003,
                &toks[sig[at]],
                format!("`impl {trait_name} for {type_name}` can expose key bytes; remove it"),
            )),
            "Debug" => {
                // The sanctioned redaction path — but only if the body
                // visibly redacts (a `****` marker in a string literal).
                let redacts = next_brace_block(toks, sig, j).is_some_and(|(open, close)| {
                    sig[open..=close].iter().any(|&si| {
                        toks[si].kind == TokKind::Str && toks[si].text.contains("****")
                    })
                });
                if !redacts {
                    out.push(ctx.finding(
                        Rule::S003,
                        &toks[sig[at]],
                        format!(
                            "`impl Debug for {type_name}` has no `****` redaction marker; \
                             a Debug impl on a secret type must redact"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

// ---- S004: key material in a trace emission ----

/// Traces export to JSONL and render in narrations, so anything passed
/// to an emission method is as public as a log line. The sanctioned way
/// to reference a key in a trace is `fingerprint(...)` (an 8-hex-char
/// digest prefix); arguments inside a `fingerprint(...)` group are
/// therefore exempt, everything else secret-named fires.
fn rule_s004_trace_leak(
    ctx: &FileCtx<'_>,
    sig: &[usize],
    tests: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    if ctx.is_test_file {
        return;
    }
    let toks = ctx.tokens;
    let t = |k: usize| toks[sig[k]].text;
    let mut i = 0;
    while i + 2 < sig.len() {
        let is_call = t(i) == "."
            && toks[sig[i + 1]].kind == TokKind::Ident
            && TRACE_EMIT_CALLS.contains(&t(i + 1))
            && t(i + 2) == "(";
        if !is_call || in_regions(tests, &toks[sig[i + 1]]) {
            i += 1;
            continue;
        }
        let method = t(i + 1);
        let mut depth = 0i64;
        let mut j = i + 2;
        while j < sig.len() {
            let s = t(j);
            if toks[sig[j]].kind == TokKind::Ident
                && s == "fingerprint"
                && j + 1 < sig.len()
                && t(j + 1) == "("
            {
                // The redaction boundary: skip its whole paren group.
                let mut inner = 0i64;
                j += 1;
                while j < sig.len() {
                    match t(j) {
                        "(" => inner += 1,
                        ")" => {
                            inner -= 1;
                            if inner == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else if s == "(" {
                depth += 1;
            } else if s == ")" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if toks[sig[j]].kind == TokKind::Ident && is_secret_ident(s) {
                out.push(ctx.finding(
                    Rule::S004,
                    &toks[sig[j]],
                    format!(
                        "`{s}` flows into trace `.{method}(..)`: traces are exported; \
                         pass fingerprint(&key) instead of key material"
                    ),
                ));
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
}

// ---- C001: non-constant-time comparison of secret material ----

fn rule_c001_secret_compare(
    ctx: &FileCtx<'_>,
    sig: &[usize],
    tests: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    let toks = ctx.tokens;
    for (k, &si) in sig.iter().enumerate() {
        let op = toks[si].text;
        if !(toks[si].kind == TokKind::Punct && (op == "==" || op == "!="))
            || ctx.is_test_file
            || in_regions(tests, &toks[si])
        {
            continue;
        }
        let mut idents = operand_idents(toks, sig, k, Direction::Left);
        idents.extend(operand_idents(toks, sig, k, Direction::Right));
        if idents.iter().any(|n| is_cmp_benign(n)) {
            continue;
        }
        if let Some(hit) =
            idents.iter().find(|n| is_secret_ident(n) || is_mac_ident(n)).copied()
        {
            out.push(ctx.finding(
                Rule::C001,
                &toks[si],
                format!("`{op}` compares `{hit}`: use krb_crypto::ct_eq for key/MAC material"),
            ));
        }
    }
}

enum Direction {
    Left,
    Right,
}

/// Collects the identifiers of the operand expression chain adjacent to
/// the comparison at `sig[k]`, walking through field accesses, paths,
/// index and call groups, and stopping at keywords or statement
/// boundaries. Bounded at 24 tokens so worst cases stay cheap.
fn operand_idents<'a>(
    toks: &[Token<'a>],
    sig: &[usize],
    k: usize,
    dir: Direction,
) -> Vec<&'a str> {
    let mut idents = Vec::new();
    let mut depth = 0i64;
    let mut steps = 0;
    let mut j = k;
    loop {
        match dir {
            Direction::Left => {
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            Direction::Right => {
                j += 1;
                if j >= sig.len() {
                    break;
                }
            }
        }
        steps += 1;
        if steps > 24 {
            break;
        }
        let tok = &toks[sig[j]];
        let s = tok.text;
        let (opens, closes) = match dir {
            Direction::Left => ([")", "]"], ["(", "["]),
            Direction::Right => (["(", "["], [")", "]"]),
        };
        if opens.contains(&s) {
            depth += 1;
            continue;
        }
        if closes.contains(&s) {
            depth -= 1;
            if depth < 0 {
                break; // left the enclosing group
            }
            continue;
        }
        if depth > 0 {
            if tok.kind == TokKind::Ident && !is_keyword(s) {
                idents.push(s);
            }
            continue;
        }
        match tok.kind {
            TokKind::Ident if s == "self" || s == "Self" => {}
            TokKind::Ident if is_keyword(s) => break,
            TokKind::Ident => idents.push(s),
            TokKind::Number | TokKind::Lifetime => {}
            TokKind::Punct if matches!(s, "." | "::" | "&" | "*" | "!") => {}
            _ => break,
        }
    }
    idents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let ctx =
            FileCtx { rel_path: path, is_test_file: path.contains("/tests/"), tokens: &tokens };
        check_file(&ctx)
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = r#"
            fn f() { if got.mac == want.mac { } }
            #[cfg(test)]
            mod tests {
                fn f() { if got.mac == want.mac { } }
            }
        "#;
        let f = run("crates/kerberos/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:#?}");
        assert_eq!((f[0].rule, f[0].line), (Rule::C001, 2));
    }

    #[test]
    fn checksum_type_compare_is_benign() {
        let src = "fn f() { if c.ctype != config.checksum { } }";
        assert!(run("crates/kerberos/src/x.rs", src).is_empty());
    }

    #[test]
    fn mac_value_compare_fires() {
        let src = "fn f() { if recomputed.value == cksum.value { } }";
        let f = run("crates/krb-crypto/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::C001);
    }

    #[test]
    fn redacting_debug_impl_is_allowed() {
        let src = r#"
            impl core::fmt::Debug for DesKey {
                fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                    write!(f, "DesKey(****************)")
                }
            }
        "#;
        assert!(run("crates/krb-crypto/src/x.rs", src).is_empty());
    }

    #[test]
    fn trace_emit_with_raw_key_fires() {
        let src = r#"fn f(tr: &Tracer, session_key: &DesKey) {
            tr.emit(EventKind::TicketIssued, 0, vec![("k", Value::bytes(session_key.bytes()))]);
        }"#;
        let f = run("crates/kerberos/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::S004);
    }

    #[test]
    fn trace_emit_with_fingerprint_is_clean() {
        let src = r#"fn f(tr: &Tracer, session_key: &DesKey) {
            tr.emit(EventKind::TicketIssued, 0, vec![
                ("key_fpr", Value::str(crate::traceview::fingerprint(session_key))),
            ]);
            tr.counter("kdc.issued", name, 1);
        }"#;
        assert!(run("crates/kerberos/src/x.rs", src).is_empty());
    }

    #[test]
    fn non_trace_method_named_like_emit_arg_is_scanned_only_for_trace_calls() {
        // `.push(key)` is not a trace call; S004 must not fire.
        let src = "fn f(v: &mut Vec<u8>, key: u8) { v.push(key); }";
        assert!(run("crates/kerberos/src/x.rs", src).is_empty());
    }

    #[test]
    fn forbidden_in_strings_and_comments_is_ignored() {
        let src = r#"
            // println!("{}", session_key) would leak; so would mac == cksum
            fn f() -> &'static str { "format!(\"{}\", session_key) mac == cksum" }
        "#;
        assert!(run("crates/kerberos/src/x.rs", src).is_empty());
    }
}
