#!/usr/bin/env bash
# Tier-1 verification, fully offline:
#   1. hermeticity — cargo resolves nothing but in-tree path packages
#   2. static invariants — krb-lint (secrecy, constant-time compare,
#      wire-length casts, hot-path allocations, metric names) with a
#      justified-suppression baseline
#   3. release build of every target (including benches)
#   4. clippy, warnings denied — this also enforces determinism
#      (clippy.toml) and panic hygiene (crate-root lint attributes)
#   5. full test suite, then the experiment smoke runs below
#
# Usage: scripts/verify.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

# Runs `bench --bin $1` twice: BENCH_$2.json must come out byte-identical
# across the two same-input runs and contain each remaining argument.
double_run() {
    local bin="$1" json="BENCH_$2.json"
    shift 2
    cargo run --release --offline -p bench --bin "$bin"
    cp "$json" "$json.run1"
    cargo run --release --offline -p bench --bin "$bin"
    diff "$json.run1" "$json" \
        || { echo "$json not byte-identical across same-input runs"; exit 1; }
    rm -f "$json.run1"
    for pattern in "$@"; do
        grep -q "$pattern" "$json" || { echo "$json missing $pattern"; exit 1; }
    done
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

echo "== crypto bench smoke (fast-kernel equivalence + speedup) =="
# One quick pass of the E13 throughput harness: proves the fused-table
# DES kernel bit-exact against the reference (FIPS 81 + differential
# trials), fails if the fast kernel is not faster, and regenerates
# BENCH_crypto.json.
KDC_THROUGHPUT_QUICK=1 cargo run --release --offline -p bench --bin table_kdc_throughput
grep -q '"equivalence": "pass"' BENCH_crypto.json \
    || { echo "BENCH_crypto.json missing equivalence pass"; exit 1; }

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

echo "== gateway overload scenarios (E17) =="
# The four seeded abuse campaigns against the admission-controlled KDC
# front-end: flash crowd, preauth storm, misbehaving herd, crash-restart.
# Each is byte-replayable from its seed; the run regenerates
# BENCH_gateway.json (goodput, shed rate, p99 latency, admission ratios).
cargo run --release --offline -p bench --bin table_gateway_overload
grep -q '"preauth_storm.legit_ok"' BENCH_gateway.json \
    || { echo "BENCH_gateway.json missing preauth-storm scores"; exit 1; }

echo "== cluster scale smoke (E18, quick mode, byte-identical JSON) =="
# The sharded-cluster bench in quick mode: provisions the population,
# gates the batched 4-shard aggregate at >=2x the single-KDC baselines,
# and survives a shard-primary crash mid-workload. The deterministic
# report must be byte-identical across same-seed runs.
CLUSTER_SCALE_QUICK=1 double_run table_cluster_scale cluster '"speedup_gate": "pass"'

echo "== lint coverage (E14/E19, byte-identical JSON) =="
# The lint over the whole tree: BENCH_lint.json holds only deterministic
# counts (findings per rule, functions, call edges, taint paths — the
# wall clock goes to stdout only), so two runs over the same tree must
# produce byte-identical reports, and the tree must be clean (every
# finding fixed or baselined with a justification).
double_run table_lint_coverage lint '"clean": true'

echo "== intrusion detection (E20, gates + byte-identical JSON) =="
# The default krb-ids rule set over the full attack matrix, stealth
# variants, benign and fault-heavy workloads. Detection is a pure
# function of the deterministic wire, so BENCH_ids.json must be
# byte-identical across same-seed runs; then both gates (every designed
# detector pair fired with >=90% on loud variants; zero alerts on the
# zero-fault benign workload). The pinned A1/V4 alert-stream golden
# rides with the test suite (alert_golden).
double_run table_ids_matrix ids '"detection_gate": "pass"' '"fp_gate": "pass"'

echo "== chaos soak (pinned fault seeds) =="
# Liveness + safety under a faulted network: ≥5 pinned seeds at ≥10%
# drop+duplicate+reorder, master-KDC crash mid-campaign, E1 verdicts
# bit-identical under faults, replay caught across server restart.
cargo test -q -p attacks --test chaos_soak --release --offline

echo "verify: OK"
