//! The workspace call graph: which function does a call site reach?
//!
//! Resolution is by *name*, the only information a lexical parse has,
//! tightened with three heuristics so ambiguity produces silence rather
//! than noise:
//!
//! 1. a leading path segment (`s2k::derive`, `checksum::compute`) must
//!    match the defining file's stem or the defining crate's name;
//! 2. otherwise same-crate definitions win (intra-crate calls are the
//!    common case the taint rules care about);
//! 3. otherwise a cross-crate call resolves only when the name is
//!    defined exactly once in the whole workspace.
//!
//! A name that stays ambiguous after all three is left unresolved — the
//! flow rules treat an unresolved call as a no-op, trading recall for a
//! zero-false-positive edge set.

use crate::syntax::{CallSite, FileSyntax};
use std::collections::BTreeMap;

/// A function, addressed by file index and position within the file.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FnRef {
    /// Index into the workspace file list.
    pub file: usize,
    /// Index into that file's `FileSyntax::fns`.
    pub fn_idx: usize,
}

/// The resolved graph over every file in the workspace.
pub struct Graph {
    /// name → every definition site, in file order.
    by_name: BTreeMap<String, Vec<FnRef>>,
    /// Per-file crate names, aligned with the parse list.
    crates: Vec<String>,
    /// Per-file path stems (`s2k` for `crates/krb-crypto/src/s2k.rs`).
    stems: Vec<String>,
    /// Resolved edges, for the E19 coverage count.
    pub edges: usize,
}

impl Graph {
    /// Indexes every function of every parsed file. `files` pairs each
    /// parse with its (workspace-relative path, crate name).
    pub fn build(files: &[(&str, &str, &FileSyntax)]) -> Graph {
        let mut by_name: BTreeMap<String, Vec<FnRef>> = BTreeMap::new();
        let mut crates = Vec::new();
        let mut stems = Vec::new();
        for (file, (rel_path, crate_name, fs)) in files.iter().enumerate() {
            crates.push(crate_name.to_string());
            stems.push(stem_of(rel_path));
            for (fn_idx, f) in fs.fns.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push(FnRef { file, fn_idx });
            }
        }
        let mut g = Graph { by_name, crates, stems, edges: 0 };
        // Pre-count resolvable edges across the workspace (the E19
        // `call_edges` metric): every call site with a unique target.
        let mut edges = 0;
        for (file, (_, crate_name, fs)) in files.iter().enumerate() {
            for f in &fs.fns {
                for c in &f.calls {
                    if g.resolve(c, crate_name, file).is_some() {
                        edges += 1;
                    }
                }
            }
        }
        g.edges = edges;
        g
    }

    /// Resolves `call` made from `from_crate` (in file `from_file`) to
    /// its unique definition, or `None` when unknown or ambiguous.
    pub fn resolve(&self, call: &CallSite, from_crate: &str, from_file: usize) -> Option<FnRef> {
        if call.is_macro {
            return None;
        }
        let candidates = self.by_name.get(&call.callee)?;
        // 1. Qualified path: the last segment before the name must match
        //    the defining module's file stem or the defining crate.
        if let Some(qual) = call.path.last() {
            let qual_norm = qual.replace('_', "-");
            let matched: Vec<FnRef> = candidates
                .iter()
                .copied()
                .filter(|r| {
                    self.stems[r.file] == *qual
                        || self.crates[r.file] == qual_norm
                        || self.crates[r.file] == *qual
                })
                .collect();
            return match matched.as_slice() {
                [one] => Some(*one),
                _ => None,
            };
        }
        // 2. Same file, then same crate.
        let in_file: Vec<FnRef> =
            candidates.iter().copied().filter(|r| r.file == from_file).collect();
        if let [one] = in_file.as_slice() {
            return Some(*one);
        }
        let in_crate: Vec<FnRef> =
            candidates.iter().copied().filter(|r| self.crates[r.file] == from_crate).collect();
        if let [one] = in_crate.as_slice() {
            return Some(*one);
        }
        if !in_crate.is_empty() {
            return None; // several same-crate definitions: ambiguous
        }
        // 3. Workspace-unique.
        match candidates.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }
}

fn stem_of(rel_path: &str) -> String {
    rel_path
        .rsplit('/')
        .next()
        .unwrap_or(rel_path)
        .trim_end_matches(".rs")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax::parse;

    #[test]
    fn resolves_same_crate_then_unique_then_path() {
        let a = "fn caller() { helper(); s2k::derive(); unique_elsewhere(); }\nfn helper() {}";
        let b = "fn derive() {}";
        let c = "fn unique_elsewhere() {}\nfn helper() {}";
        let ta = lex(a);
        let tb = lex(b);
        let tc = lex(c);
        let (pa, pb, pc) = (parse(&ta), parse(&tb), parse(&tc));
        let files = [
            ("crates/kerberos/src/kdc.rs", "kerberos", &pa),
            ("crates/krb-crypto/src/s2k.rs", "krb-crypto", &pb),
            ("crates/bench/src/lib.rs", "bench", &pc),
        ];
        let g = Graph::build(&files);
        let caller = &pa.fns[0];
        let helper_call = caller.calls.iter().find(|c| c.callee == "helper").unwrap();
        // `helper` exists in kerberos and bench: same-crate wins.
        assert_eq!(g.resolve(helper_call, "kerberos", 0), Some(FnRef { file: 0, fn_idx: 1 }));
        let derive_call = caller.calls.iter().find(|c| c.callee == "derive").unwrap();
        // Path-qualified: the s2k stem picks the krb-crypto definition.
        assert_eq!(g.resolve(derive_call, "kerberos", 0), Some(FnRef { file: 1, fn_idx: 0 }));
        let uniq = caller.calls.iter().find(|c| c.callee == "unique_elsewhere").unwrap();
        // Workspace-unique cross-crate name resolves.
        assert_eq!(g.resolve(uniq, "kerberos", 0), Some(FnRef { file: 2, fn_idx: 0 }));
        assert_eq!(g.edges, 3);
    }

    #[test]
    fn ambiguity_is_silence() {
        let a = "fn f() { dup(); }";
        let b = "fn dup() {}";
        let c = "fn dup() {}";
        let (ta, tb, tc) = (lex(a), lex(b), lex(c));
        let (pa, pb, pc) = (parse(&ta), parse(&tb), parse(&tc));
        let files = [
            ("crates/kerberos/src/x.rs", "kerberos", &pa),
            ("crates/bench/src/lib.rs", "bench", &pb),
            ("crates/testkit/src/lib.rs", "testkit", &pc),
        ];
        let g = Graph::build(&files);
        let call = pa.fns[0].calls.iter().find(|c| c.callee == "dup").unwrap();
        assert_eq!(g.resolve(call, "kerberos", 0), None);
        assert_eq!(g.edges, 0);
    }
}
