//! The `krb-lint` binary: lints the workspace and gates `verify.sh`.
//!
//! Exit codes: 0 clean (every finding baselined with a justification,
//! no stale entries), 1 findings or stale baseline entries, 2 usage or
//! I/O errors. The E14/E19 tables come from `cargo run -p bench --bin
//! table_lint_coverage`.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root_arg: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root_arg = args.next(),
            "--help" | "-h" => {
                println!("usage: krb-lint [--root DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("krb-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root_arg.map(Into::into).map(Ok).unwrap_or_else(krb_lint::find_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("krb-lint: cannot locate workspace root: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match krb_lint::run(&root) {
        Ok(Ok(r)) => r,
        Ok(Err(b)) => {
            eprintln!("krb-lint: lint-baseline.toml:{}: {}", b.line, b.message);
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("krb-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if !report.active.is_empty() {
        println!("krb-lint: {} finding(s)", report.active.len());
        for f in &report.active {
            println!("  {f}");
        }
        println!("(fix the finding, or add a justified [[allow]] entry to lint-baseline.toml)");
    }
    if !report.stale.is_empty() {
        println!("\nstale lint-baseline.toml entries (match no current finding — delete them):");
        for s in &report.stale {
            println!("  {s}");
        }
    }
    if report.clean() {
        println!(
            "krb-lint: OK — {} files scanned, 0 active findings, {} baselined suppression(s)",
            report.files_scanned,
            report.baselined.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
