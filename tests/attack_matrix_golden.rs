//! Golden test: the attack × configuration matrix rendered by the code
//! must match the table recorded in EXPERIMENTS.md (E1), byte for byte
//! modulo trailing whitespace. If a protocol or attack change shifts any
//! cell, this fails with a diff — update EXPERIMENTS.md deliberately,
//! not accidentally.

use attacks::matrix::{expected, render_table, run_matrix};

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// Extracts the first fenced code block after the `## E1` heading.
fn golden_table() -> Vec<String> {
    let e1 = EXPERIMENTS.split("## E1").nth(1).expect("EXPERIMENTS.md has an '## E1' section");
    let block = e1.split("```").nth(1).expect("E1 section has a fenced code block");
    block.trim_matches('\n').lines().map(|l| l.trim_end().to_string()).collect()
}

#[test]
fn rendered_matrix_matches_experiments_md() {
    // 0xE1 is the seed the published table was generated with
    // (`table_attack_matrix`); the matrix is seed-independent anyway,
    // which matrix_e2e.rs checks separately.
    let rendered = render_table(&run_matrix(0xE1));
    let rendered: Vec<String> = rendered.trim_end().lines().map(|l| l.trim_end().to_string()).collect();
    let golden = golden_table();
    assert_eq!(
        rendered.len(),
        golden.len(),
        "row count differs\nrendered:\n{}\ngolden:\n{}",
        rendered.join("\n"),
        golden.join("\n"),
    );
    for (i, (r, g)) in rendered.iter().zip(&golden).enumerate() {
        assert_eq!(r, g, "line {} differs\nrendered: {r:?}\ngolden:   {g:?}", i + 1);
    }
}

#[test]
fn matrix_outcomes_match_expected_grid() {
    // Same data, structurally: every run cell agrees with the
    // catalogue's expected grid (42 cells: 14 attacks × 3 configurations).
    let reports = run_matrix(0xE1);
    assert_eq!(reports.len(), 42);
    for r in &reports {
        let want = expected(r.id, r.config)
            .unwrap_or_else(|| panic!("no expectation for {} × {}", r.id, r.config));
        assert_eq!(
            r.succeeded, want,
            "{} × {}: expected {}, attack reported {}",
            r.id,
            r.config,
            if want { "BREACH" } else { "safe" },
            if r.succeeded { "BREACH" } else { "safe" },
        );
    }
}
