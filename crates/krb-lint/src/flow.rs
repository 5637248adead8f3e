//! The flow-aware pass: whole-workspace analysis over the syntax layer
//! ([`crate::syntax`]), the call graph ([`crate::callgraph`]), and the
//! taint engine ([`crate::taint`]).
//!
//! [`analyze_workspace`] is the single entry point; it runs S005 plus
//! the two structural rules that need function bodies rather than raw
//! tokens:
//!
//! - **P003** — `as u8/u16/u32` on a length-named operand inside an
//!   encode/decode-path function of a deterministic crate. Wire lengths
//!   must fail closed (`u32::try_from`), not silently truncate into a
//!   mis-framed message.
//! - **E001** — drift between metric names emitted in code and the
//!   "Metric name registry" table in DESIGN.md, in both directions.

use crate::callgraph::Graph;
use crate::config::{
    is_codec_fn, is_len_ident, is_test_path, DETERMINISTIC_CRATES, METRIC_EMIT_CALLS,
    METRIC_REGISTRY_HEADING, SPAN_METRIC,
};
use crate::diag::{Finding, Rule};
use crate::lexer::{is_keyword, lex, TokKind, Token};
use crate::syntax::{parse, FileSyntax, FnInfo};
use crate::taint::{check_s005, TaintCtx};
use std::collections::BTreeSet;

/// One workspace file handed to the flow pass.
pub struct FileInput<'a> {
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// Owning crate name.
    pub crate_name: &'a str,
    /// Full source text.
    pub text: &'a str,
}

/// Coverage counters the E19 bench reports.
#[derive(Default, Clone, Copy)]
pub struct FlowStats {
    /// Functions with bodies parsed across the workspace.
    pub functions: usize,
    /// Call sites the graph resolved to a unique definition.
    pub call_edges: usize,
    /// (fn, param) taint summaries expanded by the S005 search.
    pub taint_paths: usize,
}

/// Runs every flow rule over the workspace. `design` is DESIGN.md as
/// (rel_path, text), when present, for E001.
pub fn analyze_workspace(
    files: &[FileInput<'_>],
    design: Option<(&str, &str)>,
) -> (Vec<Finding>, FlowStats) {
    let lexed: Vec<Vec<Token<'_>>> = files.iter().map(|f| lex(f.text)).collect();
    let parsed: Vec<FileSyntax> = lexed.iter().map(|t| parse(t)).collect();
    let with_syntax: Vec<(&str, &str, &FileSyntax)> = files
        .iter()
        .zip(&parsed)
        .map(|(f, p)| (f.rel_path, f.crate_name, p))
        .collect();
    let graph = Graph::build(&with_syntax);
    let meta: Vec<(&str, &str)> = files.iter().map(|f| (f.rel_path, f.crate_name)).collect();
    let ctx = TaintCtx { files: &meta, lexed: &lexed, parsed: &parsed, graph: &graph };

    let mut out = Vec::new();
    let taint = check_s005(&ctx, &mut out);
    check_p003(&ctx, &mut out);
    check_e001(&ctx, design, &mut out);
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });

    let stats = FlowStats {
        functions: parsed.iter().map(|p| p.fns.len()).sum(),
        call_edges: graph.edges,
        taint_paths: taint.paths,
    };
    (out, stats)
}

/// Iterates every production (non-test) function with its file context.
fn production_fns<'a>(
    ctx: &'a TaintCtx<'a>,
) -> impl Iterator<Item = (usize, &'a str, &'a str, usize, &'a FnInfo)> {
    ctx.files.iter().enumerate().flat_map(move |(file, &(rel, krate))| {
        let skip_file = is_test_path(rel);
        ctx.parsed[file].fns.iter().enumerate().filter_map(move |(fn_idx, f)| {
            (!skip_file && !f.is_test).then_some((file, rel, krate, fn_idx, f))
        })
    })
}

/// P003: truncating casts on length operands in codec functions.
fn check_p003(ctx: &TaintCtx<'_>, out: &mut Vec<Finding>) {
    for (file, rel, krate, _, f) in production_fns(ctx) {
        if !DETERMINISTIC_CRATES.contains(&krate) || !is_codec_fn(&f.name) {
            continue;
        }
        let (toks, sig) = ctx.toks_sig(file);
        let t = |k: usize| toks[sig[k]].text;
        for k in f.body.0 + 1..f.body.1.min(sig.len().saturating_sub(1)) {
            if t(k) != "as" || toks[sig[k]].kind != TokKind::Ident {
                continue;
            }
            let target = t(k + 1);
            if !matches!(target, "u8" | "u16" | "u32") {
                continue;
            }
            let Some(culprit) = cast_operand_len_ident(toks, sig, f.body.0, k) else { continue };
            let at = &toks[sig[k]];
            out.push(Finding {
                rule: Rule::P003,
                file: rel.to_string(),
                line: at.line,
                col: at.col,
                message: format!(
                    "`{culprit} as {target}` in codec fn `{}` truncates silently on oversized \
                     input; convert lengths with u32::try_from (fail closed) instead",
                    f.name
                ),
            });
        }
    }
}

/// Walks left from the `as` at `sig[cast]` over one postfix-expression
/// operand; returns the first length-named identifier in it.
fn cast_operand_len_ident(
    toks: &[Token<'_>],
    sig: &[usize],
    body_open: usize,
    cast: usize,
) -> Option<String> {
    let mut depth = 0i64;
    let mut p = cast;
    let mut steps = 0;
    let mut found: Option<String> = None;
    while p > body_open && steps < 24 {
        p -= 1;
        steps += 1;
        let tok = &toks[sig[p]];
        match tok.text {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            "." | "::" | "?" | "&" => {}
            _ if tok.kind == TokKind::Ident && !is_keyword(tok.text) => {
                if found.is_none() && is_len_ident(tok.text) {
                    found = Some(tok.text.to_string());
                }
            }
            _ if tok.kind == TokKind::Number => {}
            _ if depth > 0 => {} // operators inside a call's arguments
            _ => break,          // operator/statement boundary at depth 0
        }
    }
    found
}

/// E001: metric names emitted in code vs DESIGN.md's registry table.
fn check_e001(ctx: &TaintCtx<'_>, design: Option<(&str, &str)>, out: &mut Vec<Finding>) {
    let Some((design_path, design_text)) = design else { return };
    let registry = parse_registry(design_text);
    let registered: BTreeSet<&str> = registry.iter().map(|(n, _)| n.as_str()).collect();

    let mut emitted: BTreeSet<String> = BTreeSet::new();
    for (file, rel, _, _, f) in production_fns(ctx) {
        let (toks, sig) = ctx.toks_sig(file);
        for call in &f.calls {
            if call.is_method && call.callee == SPAN_METRIC.0 {
                emitted.insert(SPAN_METRIC.1.to_string());
                continue;
            }
            if !call.is_method || !METRIC_EMIT_CALLS.contains(&call.callee.as_str()) {
                continue;
            }
            let Some(&(a, b)) = call.args.first() else { continue };
            // First string literal of the first argument is the metric
            // name; a purely dynamic name is out of E001's scope.
            let Some(lit) = (a..b.min(sig.len()))
                .map(|k| &toks[sig[k]])
                .find(|t| t.kind == TokKind::Str)
            else {
                continue;
            };
            let name = lit.text.trim_matches('"').to_string();
            if !registered.contains(name.as_str()) {
                out.push(Finding {
                    rule: Rule::E001,
                    file: rel.to_string(),
                    line: lit.line,
                    col: lit.col,
                    message: format!(
                        "metric `{name}` is emitted here but absent from DESIGN.md's \
                         \"{METRIC_REGISTRY_HEADING}\" table"
                    ),
                });
            }
            emitted.insert(name);
        }
    }
    for (name, line) in &registry {
        if !emitted.contains(name) {
            out.push(Finding {
                rule: Rule::E001,
                file: design_path.to_string(),
                line: *line,
                col: 1,
                message: format!(
                    "registry lists metric `{name}` but no production code emits it; \
                     drop the row or restore the emission"
                ),
            });
        }
    }
}

/// Extracts `(name, line)` rows from DESIGN.md's registry table: under
/// the [`METRIC_REGISTRY_HEADING`] heading, every `|`-row's first
/// backtick-quoted cell, until the next heading.
fn parse_registry(design_text: &str) -> Vec<(String, u32)> {
    let mut rows = Vec::new();
    let mut in_section = false;
    for (i, line) in design_text.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with('#') {
            in_section = trimmed.contains(METRIC_REGISTRY_HEADING);
            continue;
        }
        if !in_section || !trimmed.starts_with('|') {
            continue;
        }
        let Some(open) = trimmed.find('`') else { continue };
        let rest = &trimmed[open + 1..];
        let Some(close) = rest.find('`') else { continue };
        let name = &rest[..close];
        if !name.is_empty() {
            rows.push((name.to_string(), (i + 1) as u32));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str, &str)], design: Option<(&str, &str)>) -> Vec<Finding> {
        let inputs: Vec<FileInput<'_>> = files
            .iter()
            .map(|&(rel_path, crate_name, text)| FileInput { rel_path, crate_name, text })
            .collect();
        analyze_workspace(&inputs, design).0
    }

    #[test]
    fn p003_fires_only_in_codec_fns() {
        let src = r#"
            fn encode_body(buf: &mut Vec<u8>, body: &[u8]) {
                let n = (body.len() as u32).to_be_bytes();
                buf.extend_from_slice(&n);
            }
            fn retry_policy(attempts: usize) -> u32 { attempts as u32 }
        "#;
        let f = run(&[("crates/kerberos/src/encoding.rs", "kerberos", src)], None);
        let p: Vec<_> = f.iter().filter(|x| x.rule == Rule::P003).collect();
        assert_eq!(p.len(), 1, "{f:#?}");
        assert!(p[0].message.contains("encode_body"));
        assert!(p[0].message.contains("len as u32"));
    }

    #[test]
    fn e001_reports_drift_both_ways() {
        let src = r#"fn report(&self) { self.trace.counter("kdc.issued", scope, 1);
                     self.trace.counter("kdc.unlisted", scope, 1); }"#;
        let design = "# Design\n\n## Metric name registry\n\n| name | meaning |\n|---|---|\n\
                      | `kdc.issued` | tickets |\n| `kdc.orphaned` | nothing |\n\n## Next\n";
        let f = run(
            &[("crates/kerberos/src/kdc.rs", "kerberos", src)],
            Some(("DESIGN.md", design)),
        );
        let e: Vec<_> = f.iter().filter(|x| x.rule == Rule::E001).collect();
        assert_eq!(e.len(), 2, "{f:#?}");
        assert!(e.iter().any(|x| x.message.contains("kdc.unlisted") && x.file.ends_with(".rs")));
        assert!(e.iter().any(|x| x.message.contains("kdc.orphaned") && x.file == "DESIGN.md"));
    }

    #[test]
    fn e001_counts_a_span_close_as_its_histogram() {
        let src = "fn end_span(&self) { c.metrics.observe_span(name, scope, dur_us); }";
        let design = "# Design\n\n## Metric name registry\n\n| name | meaning |\n|---|---|\n\
                      | `span.{name}` | span durations |\n\n## Next\n";
        let f = run(
            &[("crates/krb-trace/src/tracer.rs", "krb-trace", src)],
            Some(("DESIGN.md", design)),
        );
        assert!(f.iter().all(|x| x.rule != Rule::E001), "{f:#?}");
    }
}
