#!/usr/bin/env bash
# Workspace gate: formatting, lints, tests. Run before every push.
#
# Usage: scripts/check.sh [--offline]
#
# Any argument is forwarded to cargo (the CI container builds with
# --offline against the vendored shims).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check" >&2
cargo fmt --all -- --check

echo "== cargo clippy -D warnings" >&2
cargo clippy "$@" --workspace --all-targets -- -D warnings

echo "== cargo test" >&2
cargo test "$@" --workspace -q

echo "== benchmark unit tests and workload smokes (oracle only, no timing gate)" >&2
# The benchmark (perfbench/) is a package of its own, outside the
# workspace. Its unit tests cover the oracles and the replay; each short
# run must exit 0. mck_verify must reproduce the pinned counts and pass
# verdicts at 1 and 2 threads; netsim_storm and netsim_lossy must
# establish and reconverge every call, end converged and give the same
# digest in every round. Throughput figures are not gated.
cargo test "$@" --release -q --manifest-path perfbench/Cargo.toml
for workload in mck_verify netsim_storm netsim_lossy; do
  cargo run "$@" --release -q --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seconds 3 >/dev/null || {
    status=$?
    echo "perfbench $workload smoke failed its oracle (exit $status)" >&2
    exit "$status"
  }
done

echo "== ipmedia-lint (static analysis over all example models)" >&2
# All passes (AZ1xx–AZ6xx) at deny level, parallel with deterministic
# output, gated against the committed baseline; the SARIF log is a build
# artifact for CI code-scanning upload.
mkdir -p target
cargo run "$@" -q -p ipmedia-analyze --bin ipmedia-lint -- \
  --all-examples --deny warnings --threads "$(nproc)" \
  --baseline lint-baseline.txt --sarif target/ipmedia-lint.sarif

echo "== incremental lint (content-addressed cache, O(changed) re-lint)" >&2
# Cold-lints the committed fleet sample into a fresh cache, swaps in the
# one-program-edit variant of one scenario, and re-lints: the second run
# must miss exactly one scenario (everything else replays from cache) and
# both runs' diagnostic streams must be byte-identical apart from the
# edit — the cache-correctness oracle, exercised through the CLI.
cargo build "$@" --release -q -p ipmedia-analyze --bin ipmedia-lint
LINT_BUDGET_SECS="${LINT_BUDGET_SECS:-120}"
rm -rf target/lint_gate
mkdir -p target/lint_gate/cache
cp examples/fleet/*.ipm target/lint_gate/
run_gate_lint() {
  # Fuzz-generated fleet scenarios legitimately carry findings, so exit 1
  # (findings) is as green as exit 0 here; anything else is a failure.
  local status=0
  timeout "$LINT_BUDGET_SECS" ./target/release/ipmedia-lint \
    --incremental --cache target/lint_gate/cache --jsonl \
    target/lint_gate/fleet_*.ipm 2>/dev/null || status=$?
  if [ "$status" -ne 0 ] && [ "$status" -ne 1 ]; then
    echo "incremental lint gate failed (exit $status)" >&2
    exit "$status"
  fi
}
run_gate_lint > target/lint_gate/cold.jsonl
edited="$(ls examples/fleet/edited/)"
cp "examples/fleet/edited/$edited" target/lint_gate/
run_gate_lint > target/lint_gate/warm.jsonl
grep '"record":"lint_incremental"' target/lint_gate/warm.jsonl \
  | grep -q '"scenario_misses":1' || {
  echo "incremental gate: one-edit re-lint did not miss exactly one scenario:" >&2
  grep '"record":"lint_incremental"' target/lint_gate/warm.jsonl >&2 || true
  exit 1
}
# A fully-warm third pass over the same inputs must reproduce the warm
# diagnostics byte-for-byte with zero pass runs.
run_gate_lint > target/lint_gate/warm2.jsonl
grep '"record":"lint_incremental"' target/lint_gate/warm2.jsonl \
  | grep -q '"scenario_misses":0' || {
  echo "incremental gate: unchanged re-lint was not a full cache hit" >&2
  exit 1
}
diff <(grep '"type":"diag"' target/lint_gate/warm.jsonl) \
     <(grep '"type":"diag"' target/lint_gate/warm2.jsonl) || {
  echo "incremental gate: warm replay diverged from the analyzing run" >&2
  exit 1
}

echo "== verified manifest round trip (lint fingerprints -> live monitor)" >&2
# The registry lints clean, so its emitted manifest marks every scenario
# verified: the monitor must accept the whole registry under it, and must
# flag the same stream as IM401 under an empty manifest — proving the
# unverified-model path can actually fire.
cargo build "$@" --release -q -p ipmedia-bench --bin ipmedia-monitor
MONITOR_BUDGET_SECS="${MONITOR_BUDGET_SECS:-120}"
cargo run "$@" -q -p ipmedia-analyze --bin ipmedia-lint -- \
  --all-examples --incremental --cache target/lint_gate/registry-cache \
  --emit-manifest target/lint_gate/verified-manifest.txt
timeout "$MONITOR_BUDGET_SECS" ./target/release/ipmedia-monitor \
  --verified-manifest target/lint_gate/verified-manifest.txt >/dev/null || {
  echo "monitor rejected the freshly verified manifest (exit $?)" >&2
  exit 1
}
if timeout "$MONITOR_BUDGET_SECS" ./target/release/ipmedia-monitor \
  --verified-manifest /dev/null >/dev/null 2>/dev/null; then
  echo "monitor accepted an unverified model stream (IM401 did not fire)" >&2
  exit 1
fi

echo "== differential validation (analyzer clean => no mck counterexample)" >&2
# Cross-checks every analyzer-clean scenario's covered path classes
# against the model checker and refreshes BENCH_differential.jsonl; the
# matrix carries no wall-clock fields, so a dirty diff after this step
# means the coverage or verdicts actually changed.
cargo build "$@" --release -q -p ipmedia-bench --bin differential
DIFF_BUDGET_SECS="${DIFF_BUDGET_SECS:-240}"
timeout "$DIFF_BUDGET_SECS" ./target/release/differential --threads "$(nproc)" >/dev/null || {
  status=$?
  if [ "$status" -eq 124 ]; then
    echo "differential exceeded the ${DIFF_BUDGET_SECS}s wall-clock budget" >&2
  else
    echo "differential failed (exit $status)" >&2
  fi
  exit "$status"
}

echo "== property-based fuzz (generator -> analyzer <-> checker oracle)" >&2
# A fixed-seed slice of the differential fuzz campaign: seeded scenarios
# through the round-trip, soundness, and completeness oracles. Any
# divergence prints its delta-minimized .ipm reproducer on stderr (and
# the seed to replay with `ipmedia-lint --fuzz`); refreshes
# BENCH_fuzz.json, which carries no wall-clock fields.
cargo build "$@" --release -q -p ipmedia-bench --bin fuzz_differential
FUZZ_BUDGET_SECS="${FUZZ_BUDGET_SECS:-300}"
timeout "$FUZZ_BUDGET_SECS" ./target/release/fuzz_differential --threads "$(nproc)" >/dev/null || {
  status=$?
  if [ "$status" -eq 124 ]; then
    echo "fuzz_differential exceeded the ${FUZZ_BUDGET_SECS}s wall-clock budget" >&2
  else
    echo "fuzz_differential found analyzer<->checker divergences (exit $status)" >&2
  fi
  exit "$status"
}

echo "== fault-matrix smoke (loss x dup/reorder, bounded virtual time)" >&2
cargo run "$@" -q -p ipmedia-bench --bin fault_matrix -- --threads "$(nproc)" >/dev/null

echo "== verification campaign (parallel, wall-clock budget)" >&2
# The 12-model §VIII-A campaign at CI budgets, spread over all cores.
# `timeout` enforces the wall-clock budget: a throughput regression in the
# exploration engine fails the gate instead of silently slowing CI down.
cargo build "$@" --release -q -p ipmedia-mck --bin campaign
CAMPAIGN_BUDGET_SECS="${CAMPAIGN_BUDGET_SECS:-300}"
timeout "$CAMPAIGN_BUDGET_SECS" ./target/release/campaign 0 1 2000000 --threads "$(nproc)" >/dev/null || {
  status=$?
  if [ "$status" -eq 124 ]; then
    echo "campaign exceeded the ${CAMPAIGN_BUDGET_SECS}s wall-clock budget" >&2
  else
    echo "campaign failed (exit $status)" >&2
  fi
  exit "$status"
}

echo "== tracing overhead (zero perturbation + wall-clock budget)" >&2
# Asserts virtual-time latencies are identical traced vs. untraced (hard
# failure) and that the tracer's wall-clock cost stays within
# TRACE_OVERHEAD_BUDGET_PCT; rewrites BENCH_trace.json.
cargo run "$@" --release -q -p ipmedia-bench --bin trace_overhead >/dev/null

echo "== runtime invariant monitor (all scenarios clean + mutant self-test)" >&2
# Every registry scenario must run clean under the live monitor, and the
# planted closed-slot mutant must be flagged as IM102 — proving the gate
# can actually fail.
cargo build "$@" --release -q -p ipmedia-bench --bin ipmedia-monitor
MONITOR_BUDGET_SECS="${MONITOR_BUDGET_SECS:-120}"
timeout "$MONITOR_BUDGET_SECS" ./target/release/ipmedia-monitor >/dev/null || {
  status=$?
  if [ "$status" -eq 124 ]; then
    echo "monitor exceeded the ${MONITOR_BUDGET_SECS}s wall-clock budget" >&2
  else
    echo "monitor found invariant violations (exit $status)" >&2
  fi
  exit "$status"
}
timeout "$MONITOR_BUDGET_SECS" ./target/release/ipmedia-monitor --mutant closed-slot \
  >/dev/null 2>/dev/null || {
  status=$?
  if [ "$status" -eq 124 ]; then
    echo "monitor mutant self-test exceeded the ${MONITOR_BUDGET_SECS}s budget" >&2
  else
    echo "monitor failed to catch the planted closed-slot mutant (exit $status)" >&2
  fi
  exit "$status"
}

echo "== chaos campaign (seeded schedules, monitor-verified recovery)" >&2
# Seeded fault schedules across every registry scenario and schedule
# family on the simulator plus a compressed sweep on the live runtime;
# any post-heal invariant violation fails the gate and the bin prints
# the failing seed with its delta-debugged minimal schedule on stderr.
# Rewrites BENCH_chaos.json.
cargo build "$@" --release -q -p ipmedia-bench --bin chaos_campaign
CHAOS_BUDGET_SECS="${CHAOS_BUDGET_SECS:-240}"
timeout "$CHAOS_BUDGET_SECS" ./target/release/chaos_campaign --threads "$(nproc)" >/dev/null || {
  status=$?
  if [ "$status" -eq 124 ]; then
    echo "chaos campaign exceeded the ${CHAOS_BUDGET_SECS}s wall-clock budget" >&2
  else
    echo "chaos campaign found recovery violations (exit $status)" >&2
  fi
  exit "$status"
}

if [ -n "${STORM_BUDGET_SECS:-}" ]; then
  echo "== call storm (fleet-scale load harness, byte budget, sharded rt speedup gate)" >&2
  # Opt-in: the storm rewrites BENCH_storm.json with wall-clock fields
  # (calls/sec, peak bytes), so it only runs when a budget is set —
  # normal CI runs stay byte-stable. The bin itself fails if any arm
  # leaves a call unestablished, a netsim call costs more than 8 KB of
  # heap, or the sharded rt pipeline is less than 2x the single-inbox
  # baseline measured in the same process.
  cargo build "$@" --release -q -p ipmedia-bench --bin call_storm
  timeout "$STORM_BUDGET_SECS" ./target/release/call_storm >/dev/null || {
    status=$?
    if [ "$status" -eq 124 ]; then
      echo "call storm exceeded the ${STORM_BUDGET_SECS}s wall-clock budget" >&2
    else
      echo "call storm failed an arm, the byte budget or the speedup gate (exit $status)" >&2
    fi
    exit "$status"
  }
else
  echo "== call storm skipped (set STORM_BUDGET_SECS to run)" >&2
fi

if [ -n "${LINT_FLEET_BUDGET_SECS:-}" ]; then
  echo "== lint fleet (10k-scenario incremental re-lint benchmark)" >&2
  # Opt-in: rewrites BENCH_lint.json with wall-clock fields, so it only
  # runs when a budget is set — normal CI runs stay byte-stable. The bin
  # itself fails on any warm cache miss, a non-O(changed) one-edit
  # profile, a dirty re-lint speedup below 100x, or output divergence
  # across 1/2/8 worker threads.
  cargo build "$@" --release -q -p ipmedia-bench --bin ipmedia-lint-fleet
  timeout "$LINT_FLEET_BUDGET_SECS" ./target/release/ipmedia-lint-fleet >/dev/null || {
    status=$?
    if [ "$status" -eq 124 ]; then
      echo "lint fleet exceeded the ${LINT_FLEET_BUDGET_SECS}s wall-clock budget" >&2
    else
      echo "lint fleet failed an incremental-cache assertion (exit $status)" >&2
    fi
    exit "$status"
  }
else
  echo "== lint fleet skipped (set LINT_FLEET_BUDGET_SECS to run)" >&2
fi

echo "all checks passed" >&2
