#!/usr/bin/env bash
# krb-lint driver.
#
#   scripts/lint.sh            gate mode: exit 0 iff zero active findings
#                              and zero stale baseline entries
#
# The rule × crate violation table (EXPERIMENTS.md E14) and the
# flow-pass coverage counters (E19) come from `cargo run -p bench --bin
# table_lint_coverage`, which also writes BENCH_lint.json. Determinism
# and panic hygiene are checked by clippy (clippy.toml and the crate-root
# lint attributes), and allocations by tests/alloc_budget.rs, not here.
#
# Suppressions live in lint-baseline.toml; every entry needs a
# justification, and entries matching no current finding fail the run,
# so the baseline can only shrink.

set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run -q --offline -p krb-lint -- "$@"
