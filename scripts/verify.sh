#!/usr/bin/env bash
# Tier-1 verification, fully offline:
#   1. hermeticity — cargo resolves nothing but in-tree path packages
#   2. static invariants — krb-lint (secrecy, constant-time compare,
#      wire-length casts, hot-path allocations, metric names) with a
#      justified-suppression baseline
#   3. release build of every target (including benches)
#   4. clippy, warnings denied — this also enforces determinism
#      (clippy.toml) and panic hygiene (crate-root lint attributes)
#   5. full test suite, then the experiment runs below
#
# Usage: scripts/verify.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

# Runs `bench --bin $1` twice: the BENCH_*.json it names on its `wrote`
# line must come out byte-identical across the two same-input runs.
double_run() {
    local bin="$1" out json
    out="$(cargo run -q --release --offline -p bench --bin "$bin")"
    echo "$out"
    json="$(sed -n 's/^wrote //p' <<<"$out")"
    [[ -n "$json" ]] || { echo "$bin wrote no BENCH_*.json"; exit 1; }
    cp "$json" "$json.run1"
    cargo run -q --release --offline -p bench --bin "$bin" >/dev/null
    diff "$json.run1" "$json" \
        || { echo "$json not byte-identical across same-input runs"; exit 1; }
    rm -f "$json.run1"
}

# Fails unless file $1 contains pattern $2.
require() {
    grep -q "$2" "$1" || { echo "$1 missing $2"; exit 1; }
}

echo "== hermeticity (cargo metadata) =="
# Every package cargo resolves, for the workspace and for the standalone
# benchmark package, must be an in-tree path package: anything else
# carries a "source". Offline, a dependency outside the lockfile fails
# resolution outright; capturing the output first lets that failure stop
# the script (inside `if ... | grep` it would be swallowed).
for manifest in Cargo.toml kbench/Cargo.toml; do
    meta="$(cargo metadata --format-version 1 --offline --manifest-path "$manifest")"
    if grep -q '"source":"' <<<"$meta"; then
        echo "$manifest: cargo resolves a non-path package; the build must stay hermetic"
        exit 1
    fi
done
echo "ok: all dependencies are in-tree path dependencies"

echo "== static invariants (krb-lint) =="
# S001-S005 (secrecy, including the flow-aware cross-function taint),
# C001 (constant-time compare), P003 (truncating wire-length casts),
# A001 (hot-path allocations), E001 (metric-name drift against
# DESIGN.md).
cargo run -q --offline -p krb-lint || {
    echo "krb-lint gate failed — fix the findings above, or add a"
    echo "justified [[allow]] entry to lint-baseline.toml"
    exit 1
}

echo "== release build (all targets) =="
cargo build --workspace --release --all-targets --offline

echo "== clippy (warnings denied) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tests =="
cargo test -q --workspace --offline

echo "== trace goldens (determinism + narration) =="
# The observability layer must be purely observational: the pinned A1/V4
# JSONL trace matches its golden byte-for-byte, same-seed runs are
# byte-identical with and without a fault plan, the narrated trace reads
# in paper notation, and the metrics snapshot counts the attack.
cargo test -q -p attacks --test trace_golden --release --offline
# And the interactive narrator drives end-to-end. (Captured, not piped:
# grep -q closing the pipe early would trip pipefail.)
narration="$(scripts/trace.sh --narrate replay)"
echo "$narration" | grep -q 'c -> kdc: AS-REQ' \
    || { echo "trace.sh narration missing protocol steps"; exit 1; }

echo "== fuzz smoke (fixed seed, deterministic, panic-free) =="
# 10k mutated frames against every codec decoder: each input must yield
# Ok or a typed error (a panic fails the run), and two same-seed runs
# must be byte-identical.
scripts/fuzz.sh

echo "== experiment tables (every table_* bin, byte-identical JSON) =="
# Every table bin prints and writes only seed-determined values (the wall
# clock lives in kbench and the `cargo bench` suites), so each
# BENCH_*.json must be byte-identical across two runs, and a changed
# result shows up as a diff of the committed file.
for src in crates/bench/src/bin/table_*.rs; do
    bin="$(basename "$src" .rs)"
    echo "-- $bin"
    double_run "$bin"
done
# E14/E19: the tree is lint-clean (every finding fixed or baselined).
require BENCH_lint.json '"clean": true'
# E20: every designed detector pair fired with >=90% on loud variants,
# and zero alerts on the zero-fault benign workload.
require BENCH_ids.json '"detection_gate": "pass"'
require BENCH_ids.json '"fp_gate": "pass"'
# E17: the preauth-storm campaign scored its legitimate logins.
require BENCH_gateway.json '"preauth_storm.legit_ok"'
# E18: the cluster sim with a mid-run shard-primary crash replays
# identically from its seed.
require BENCH_cluster.json '"deterministic_sim": true'

echo "== chaos soak (pinned fault seeds) =="
# Liveness + safety under a faulted network: ≥5 pinned seeds at ≥10%
# drop+duplicate+reorder, master-KDC crash mid-campaign, E1 verdicts
# bit-identical under faults, replay caught across server restart.
cargo test -q -p attacks --test chaos_soak --release --offline

echo "verify: OK"
