#!/usr/bin/env bash
# Hermetic verification: the workspace must build and test fully offline
# with zero external crates. Run from anywhere; exits non-zero on the
# first regression (including any external dependency creeping back into
# a Cargo.toml, which would break environments without registry access).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline (warnings are errors)"
RUSTFLAGS="-D warnings" cargo build --release --offline

echo "==> cargo test -q --workspace --offline"
cargo test -q --workspace --offline

echo "==> perfbench self-tests (the benchmark still builds and runs against the fabric API)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> apir-lint over the builtin benchmark specs"
cargo run -q --release --offline -p apir-check --bin apir-lint

echo "==> apir-lint --analyze --strict (APIR6xx semantic analysis, no warnings allowed)"
cargo run -q --release --offline -p apir-check --bin apir-lint -- --analyze --strict > /dev/null

bench_base=$(mktemp) ; chaos_a=$(mktemp) ; chaos_b=$(mktemp) ; analysis_tmp=$(mktemp)
camp_a=$(mktemp) ; camp_b=$(mktemp)
snap_doc=$(mktemp) ; snap_full=$(mktemp) ; snap_resumed=$(mktemp)
resume_full=$(mktemp) ; resume_partial=$(mktemp) ; resume_out=$(mktemp)
trap 'rm -f "$bench_base" "$chaos_a" "$chaos_b" "$analysis_tmp" "$camp_a" "$camp_b" \
  "$snap_doc" "$snap_full" "$snap_resumed" "$resume_full" "$resume_partial" "$resume_out"' EXIT

echo "==> static-analysis baseline drift gate (apir.analysis.report.v1)"
cargo run -q --release --offline -p apir-trace -- analyze --json "$analysis_tmp" > /dev/null
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$analysis_tmp" ANALYSIS_baseline.json; then
  echo "ERROR: ANALYSIS_baseline.json drifted from the committed baseline (keys above)." >&2
  echo "If the analysis change is intentional, regenerate it:" >&2
  echo "  cargo run -p apir-trace -- analyze --json ANALYSIS_baseline.json" >&2
  exit 1
fi

echo "==> static-vs-dynamic validation (bounds sound, predicted cause == measured)"
cargo run -q --release --offline -p apir-trace -- validate-analysis > /dev/null

echo "==> bench baseline smoke (tiny scale; schema + determinism checked by the emitter)"
git show :BENCH_fabric.json > "$bench_base"
cargo run -q --release --offline -p apir-bench --bin figures -- bench
# Wall-clock keys (wall_ms / mcycles_per_sec) measure the host and are
# expected to jitter; every simulated counter must stay byte-identical.
# `apir-trace diff` names exactly which counters moved, unlike the old
# `git diff -I` check, and exits 2 on a schema mismatch.
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine --tolerance-wall "$bench_base" BENCH_fabric.json; then
  echo "ERROR: BENCH_fabric.json drifted from the committed baseline (keys above)." >&2
  echo "If the microarchitectural change is intentional, commit the regenerated file." >&2
  exit 1
fi
git checkout -q -- BENCH_fabric.json

echo "==> scheduler differential gate (dense per-cycle loop vs event wheel)"
cargo test -q --release --offline --test scheduler_equiv

echo "==> chaos suite (campaign-driven fault matrix, all six apps)"
cargo test -q --release --offline --test chaos

echo "==> chaos determinism gate (same seed => byte-identical report)"
cargo run -q --release --offline -p apir-trace -- \
  run SPEC-SSSP --faults 1 --json "$chaos_a" > /dev/null
cargo run -q --release --offline -p apir-trace -- \
  run SPEC-SSSP --faults 1 --json "$chaos_b" > /dev/null
# No wall-key tolerance here: the reports contain no host timings, so
# two same-seed runs must agree on every key.
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$chaos_a" "$chaos_b"; then
  echo "ERROR: two chaos runs with the same seed produced different reports (keys above)." >&2
  exit 1
fi

echo "==> campaign smoke gate (12-cell plan, 8 threads vs 1 thread, byte-identical merge)"
cargo run -q --release --offline -p apir-trace -- \
  campaign tests/plans/smoke12.json --threads 8 --json "$camp_a" > /dev/null 2>&1
cargo run -q --release --offline -p apir-trace -- \
  campaign tests/plans/smoke12.json --threads 1 --json "$camp_b" > /dev/null 2>&1
# The results document has no wall-clock keys, so the two runs must
# agree on every key — the work-stealing schedule must be invisible.
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$camp_a" "$camp_b"; then
  echo "ERROR: an 8-thread campaign diverged from the 1-thread merge (keys above)." >&2
  exit 1
fi

echo "==> snapshot round-trip gate (pause, serialize, restore, byte-identical finish)"
cargo run -q --release --offline -p apir-trace -- \
  run SPEC-BFS --json "$snap_full" > /dev/null
cargo run -q --release --offline -p apir-trace -- \
  snapshot SPEC-BFS --at 400 --out "$snap_doc" > /dev/null
cargo run -q --release --offline -p apir-trace -- \
  restore-run SPEC-BFS "$snap_doc" --json "$snap_resumed" > /dev/null
# The resumed report carries no wall-clock keys: a restored run must be
# indistinguishable from the run it resumed, on every key.
if ! cargo run -q --release --offline -p apir-trace -- \
  diff --machine "$snap_full" "$snap_resumed"; then
  echo "ERROR: a run restored from a snapshot diverged from the uninterrupted run (keys above)." >&2
  exit 1
fi

echo "==> campaign resume gate (torn partial log, 8-thread resume == 1-thread full run)"
cargo run -q --release --offline -p apir-trace -- \
  campaign tests/plans/smoke12.json --threads 1 --out "$resume_full" > /dev/null 2>&1
# Simulate a SIGKILL mid-write: keep five complete records plus the
# first half of the sixth line, with no trailing newline.
head -n 5 "$resume_full" > "$resume_partial"
sed -n 6p "$resume_full" | cut -c1-50 | tr -d '\n' >> "$resume_partial"
cargo run -q --release --offline -p apir-trace -- \
  campaign tests/plans/smoke12.json --threads 8 \
  --resume "$resume_partial" --out "$resume_out" > /dev/null 2>&1
if ! cmp -s "$resume_full" "$resume_out"; then
  echo "ERROR: a resumed campaign diverged from the uninterrupted record stream." >&2
  diff "$resume_full" "$resume_out" | head -5 >&2
  exit 1
fi

echo "==> asserting the dependency graph is apir-only"
external=$(cargo tree --offline --workspace --edges normal,build,dev --prefix none \
  | sed 's/ (\*)$//' | awk 'NF {print $1}' | sort -u | grep -v '^apir' || true)
if [ -n "$external" ]; then
  echo "ERROR: external crates crept into the dependency graph:" >&2
  echo "$external" >&2
  exit 1
fi

echo "verify OK: offline release build + workspace tests passed; dependency graph is apir-only"
