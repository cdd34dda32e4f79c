#!/usr/bin/env bash
# Repo gate: format, build, test, lint. Run before every push.
#
#   scripts/check.sh
#
# The container is offline; --offline keeps cargo from probing crates.io.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== cargo clippy =="
# -D warnings plus a curated pedantic subset. Lossy casts must go through
# coaxial_sim::narrow, hash collections are never iterated (with the
# disallowed-methods list in clippy.toml), every unsafe block carries a
# SAFETY comment, and config structs are passed by reference unless the
# callee stores them. clippy.toml also bans wall-clock and entropy types
# (docs/LINTS.md, "Rules enforced by clippy").
cargo clippy --offline --workspace --all-targets -- \
  -D warnings \
  -D clippy::cast_possible_truncation \
  -D clippy::iter_over_hash_type \
  -D clippy::undocumented_unsafe_blocks \
  -D clippy::large_types_passed_by_value \
  -D clippy::needless_pass_by_value

echo "== benchmark smoke =="
# perf/ is its own workspace, so the workspace-wide test above skips it.
# Its smoke test checks the traced replica, which copies private prefill
# and lockstep details, against RunSpec::run.
cargo test -q --offline --manifest-path perf/Cargo.toml

echo "== checkpoint-stats =="
# Prefill checkpoint smoke test: two identical runs, the second must
# restore from the content-addressed store (exits non-zero otherwise) and
# the hit-rate line below is the sweep-speedup evidence in miniature.
cargo run -q --offline --release --bin coaxial -- checkpoint-stats mcf --instr 8000 --warmup 2000

echo "== gateway smoke =="
# Boot a loopback gateway, prove a served run is byte-identical to the
# CLI's --json report, check /metrics renders, and drain-shutdown cleanly
# (the serve process must exit 0 with its stats line).
BIN=target/release/coaxial
GWDIR=$(mktemp -d)
trap 'rm -rf "$GWDIR"' EXIT
"$BIN" run mcf --config 4x --instr 4000 --warmup 1000 --json > "$GWDIR/cli.json"
"$BIN" serve --addr 127.0.0.1:0 --port-file "$GWDIR/port.txt" --workers 2 \
  > "$GWDIR/serve.log" 2>&1 &
GWPID=$!
for _ in $(seq 1 100); do
  [ -s "$GWDIR/port.txt" ] && break
  sleep 0.1
done
ADDR=$(cat "$GWDIR/port.txt")
"$BIN" http POST "http://$ADDR/v1/run" \
  '{"workload":"mcf","config":"4x","instructions":4000,"warmup":1000}' \
  > "$GWDIR/srv.json"
cmp "$GWDIR/cli.json" "$GWDIR/srv.json"
echo "gateway report is byte-identical to the CLI"
"$BIN" http GET "http://$ADDR/metrics" | grep -q "gateway.queue.depth"
"$BIN" http POST "http://$ADDR/shutdown" ''
wait "$GWPID"
cat "$GWDIR/serve.log"
# A second gateway stops on SIGTERM instead: it must drain, exit 0 and
# print its stats line. `timeout` relays the TERM and kills a gateway
# still running 5 s later, so one that ignores the signal fails the gate
# instead of hanging it.
timeout -k 5 60 "$BIN" serve --addr 127.0.0.1:0 --port-file "$GWDIR/port2.txt" --workers 1 \
  > "$GWDIR/serve2.log" 2>&1 &
GWPID=$!
for _ in $(seq 1 100); do
  [ -s "$GWDIR/port2.txt" ] && break
  sleep 0.1
done
"$BIN" http GET "http://$(cat "$GWDIR/port2.txt")/healthz" | grep -q ok
kill -TERM "$GWPID"
wait "$GWPID"
grep -q "gateway stopped:" "$GWDIR/serve2.log"
echo "gateway stops cleanly on SIGTERM"

echo "== sampling smoke =="
# SMARTS-style interval sampling (DESIGN.md §5i): a sampled run must cover
# a 100x longer per-core horizon than a full-detail Budget::quick run in
# no more than 2x its wall, report a 95% confidence interval in the JSON,
# and stay run-to-run deterministic (byte-identical reports). Each side
# runs three times, interleaved, and the bound compares the minima: one
# slow run on a busy host says nothing about sampling.
full_ms=0
sampled_ms=0
for i in 1 2 3; do
  t0=$(date +%s%N)
  "$BIN" run mcf --config 4x --instr 6000 --warmup 1000 --json > /dev/null
  ms=$(( ($(date +%s%N) - t0) / 1000000 ))
  full_ms=$(( i == 1 || ms < full_ms ? ms : full_ms ))
  t0=$(date +%s%N)
  "$BIN" run mcf --config 4x --instr 600000 --sampled --json > "$GWDIR/sampled$i.json"
  ms=$(( ($(date +%s%N) - t0) / 1000000 ))
  sampled_ms=$(( i == 1 || ms < sampled_ms ? ms : sampled_ms ))
done
grep -q '"sampling":{' "$GWDIR/sampled1.json"
grep -q '"ipc_ci_half":' "$GWDIR/sampled1.json"
cmp "$GWDIR/sampled1.json" "$GWDIR/sampled2.json"
cmp "$GWDIR/sampled1.json" "$GWDIR/sampled3.json"
echo "sampled 100x horizon: ${sampled_ms} ms vs full-detail quick: ${full_ms} ms (min of 3 each)"
if [ "$sampled_ms" -gt $((2 * full_ms)) ]; then
  echo "sampled run exceeded 2x the full-detail quick wall" >&2
  exit 1
fi

echo "== coaxial-lint =="
# Workspace static analysis for the contracts clippy cannot express:
# float cycle math (T02), zero-cost telemetry (Z01), the cross-file
# coverage rules (C01, E01/E02/E03/E04/E05, M01), lock discipline (L01),
# and the unit-of-measure dataflow rules (Q01/Q02/Q03) over the resolved
# symbol graph. Suppressions live in lint-allow.toml; the rule catalog is
# docs/LINTS.md. The JSON and SARIF reports are written next to the text
# run (CI uploads both as artifacts) and the scan must stay inside a
# wall-time budget so the resolver/graph/dataflow tiers never quietly
# turn the gate sluggish — the per-rule breakdown on stderr names the
# rule to optimize when this trips.
lint_start=$SECONDS
cargo run -q --offline -p coaxial-lint --release
LINT_JSON="${LINT_REPORT_PATH:-target/coaxial-lint-report.json}"
cargo run -q --offline -p coaxial-lint --release -- --format json > "$LINT_JSON"
cargo run -q --offline -p coaxial-lint --release -- --format sarif \
  > "${LINT_SARIF_PATH:-target/coaxial-lint-report.sarif}"
lint_wall=$((SECONDS - lint_start))
echo "coaxial-lint wall time: ${lint_wall}s (budget ${LINT_BUDGET_SECS:=20}s)"
if [ "$lint_wall" -gt "$LINT_BUDGET_SECS" ]; then
  echo "coaxial-lint exceeded its ${LINT_BUDGET_SECS}s wall-time budget" >&2
  exit 1
fi
# Per-rule budget over the report's timings_ms map (the dataflow tier's
# Q01 fixpoint is the heaviest single rule — this catches a superlinear
# regression in any one rule long before the whole-scan budget trips).
slow_rules=$(tr ',{}' '\n\n\n' < "$LINT_JSON" \
  | grep -E '^"[A-Z][0-9]+":[0-9.]+$' \
  | awk -F'[":]' -v b="${LINT_RULE_BUDGET_MS:-1000}" '$4 + 0 > b { printf "%s %.0fms\n", $2, $4 }' \
  || true)
if [ -n "$slow_rules" ]; then
  echo "coaxial-lint rules over the ${LINT_RULE_BUDGET_MS:-1000}ms per-rule budget:" >&2
  echo "$slow_rules" >&2
  exit 1
fi

echo "check.sh: all green"
