#!/usr/bin/env bash
# Build the tier-1 test suite under a sanitizer and run it.
#
# The robustness suites (tests/test_jpeg_corrupt.cc in particular) claim
# "no out-of-bounds access on corrupt input"; that claim is only
# machine-checked when the decoder actually runs instrumented. This
# script is that check: a separate build tree configured with
# -DTB_SANITIZE=..., then the full ctest run.
#
# Usage: tools/check.sh [--tsan] [build-dir] [ctest-args...]
#   Default mode is ASan+UBSan in build-asan. With --tsan the suite is
#   built under ThreadSanitizer instead (build-tsan) — the data-race
#   check for the threaded prep executor (docs/CONCURRENCY.md).
#   build-dir defaults to build-asan / build-tsan (kept apart from the
#   plain build).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

sanitize="address+undefined"
default_dir="$repo_root/build-asan"
if [[ "${1:-}" == "--tsan" ]]; then
    sanitize="thread"
    default_dir="$repo_root/build-tsan"
    shift
fi

build_dir="${1:-$default_dir}"
shift || true

# Fail hard on any sanitizer report instead of continuing.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=0}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

cmake -B "$build_dir" -S "$repo_root" \
    -DTB_SANITIZE="$sanitize" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "$@"

# Integrity smoke: with checksum stages enabled, no injected flip may
# escape (docs/ROBUSTNESS.md, "Data integrity & silent corruption").
# Run instrumented so the envelope/validator code is sanitizer-checked.
"$build_dir/bench/integrity_sweep" --smoke

# Simulator perf smoke: runs the incremental solver (lazy flow state,
# completion heap, one solve per event) + the lazy-cancel event queue
# under the sanitizer, so the bit-identity assert and the solver hot path get
# instrumented coverage. The work counters are deterministic, so the
# committed-baseline gate applies unchanged (docs/PERFORMANCE.md).
"$build_dir/bench/sim_perf" --smoke \
    --baseline "$repo_root/BENCH_sim_perf.smoke.json" \
    --out "$build_dir/BENCH_sim_perf.json"

# Chaos smoke: randomized fault+elastic schedules against the global
# invariants (sample conservation, corruption accounting, liveness,
# drains >= preemptions in goodput), instrumented so the membership
# state machine and zero-capacity parking run under the sanitizer
# (docs/ROBUSTNESS.md, "Elastic capacity & graceful degradation").
"$build_dir/bench/elastic_sweep" --smoke

# Ingest smoke: streaming arrivals under overload — disabled-path
# bit-identity, the arrived == admitted + shed + in-flight ledger over
# randomized traffic mixes, and the policy-chain goodput ordering
# (adaptive chains beat a hard stall under a 4x burst), instrumented so
# the admission state machine and write-retry paths run under the
# sanitizer (docs/ROBUSTNESS.md, "Streaming ingest & overload").
"$build_dir/bench/ingest_sweep" --smoke

# Fleet smoke: multi-job scheduling on one shared simulation core —
# one-job fleet == bare-session bit-identity, two-job determinism,
# concurrent pool grants summing exactly to the shared pool, and the
# per-job conservation ledgers under a chaos trace, instrumented so
# the admission/arbitration paths run under the sanitizer
# (docs/FLEET.md).
"$build_dir/bench/fleet_sweep" --smoke

# Fleet fault-tolerance smoke: disabled-path bit-identity, scripted
# host-death grant reclamation, and seeded chaos holding every
# conservation ledger with a byte-identical same-seed replay, and a
# job started one year into the clock completing within an event
# budget (a completion livelock fails instead of hanging),
# instrumented so the kill/freeze/retry paths and the pool-ledger
# panic checks run under the sanitizer (docs/ROBUSTNESS.md, "Fleet
# fault tolerance").
"$build_dir/bench/fleet_fault_sweep" --smoke
