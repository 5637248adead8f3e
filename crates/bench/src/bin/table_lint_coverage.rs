//! E14 + E19 — the static-analysis tables. Runs the full workspace lint
//! once and prints the rule × crate violation table (E14, active +
//! baselined) and the flow-pass coverage: findings per rule, functions
//! analysed, call edges resolved, and taint paths walked (E19).
//!
//! `BENCH_lint.json` carries nothing but deterministic counts, so
//! `verify.sh` byte-diffs two back-to-back runs — the analyzer meets the
//! same determinism bar it enforces on the crates it scans.

use bench::{BenchJson, TextTable};
use krb_lint::ALL_RULES;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = match krb_lint::find_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("table_lint_coverage: cannot locate workspace root: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match krb_lint::run(&root) {
        Ok(Ok(r)) => r,
        Ok(Err(b)) => {
            eprintln!("table_lint_coverage: lint-baseline.toml:{}: {}", b.line, b.message);
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("table_lint_coverage: {e}");
            return ExitCode::from(2);
        }
    };

    print_rule_by_crate(&report);

    let mut t = TextTable::new(&["rule", "active", "baselined"]);
    let mut json = BenchJson::new("E19");
    json.int("files_scanned", report.files_scanned as u64)
        .int("functions", report.flow.functions as u64)
        .int("call_edges", report.flow.call_edges as u64)
        .int("taint_paths", report.flow.taint_paths as u64);
    for rule in ALL_RULES {
        let active = report.active.iter().filter(|f| f.rule == *rule).count();
        let baselined = report.baselined.iter().filter(|f| f.rule == *rule).count();
        t.row(&[rule.id().to_string(), active.to_string(), baselined.to_string()]);
        json.int(&format!("findings_{}", rule.id()), (active + baselined) as u64);
    }
    json.flag("clean", report.clean());

    t.print("krb-lint rule coverage (E19)");
    println!(
        "flow pass: {} function(s), {} call edge(s), {} taint path(s) over {} file(s)",
        report.flow.functions, report.flow.call_edges, report.flow.taint_paths,
        report.files_scanned,
    );
    json.write("lint");
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The E14 table: rule × crate violation counts (active + baselined),
/// with each rule's rationale.
fn print_rule_by_crate(report: &krb_lint::Report) {
    let counts = report.counts_by_rule_and_crate();
    let mut crates: Vec<&str> =
        counts.values().flat_map(|m| m.keys().map(String::as_str)).collect();
    crates.sort();
    crates.dedup();
    let mut headers = vec!["rule", "rationale"];
    headers.extend(&crates);
    headers.push("total");
    let mut t = TextTable::new(&headers);
    for rule in ALL_RULES {
        let per = &counts[rule.id()];
        let mut row = vec![rule.id().to_string(), rule.rationale().to_string()];
        for c in &crates {
            let n = per.get(*c).copied().unwrap_or(0);
            row.push(if n == 0 { "·".to_string() } else { n.to_string() });
        }
        row.push(per.values().sum::<usize>().to_string());
        t.row(&row);
    }
    t.print("krb-lint rule × crate violations (E14)");
}
