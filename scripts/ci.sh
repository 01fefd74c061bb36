#!/usr/bin/env bash
# CI gate: a fast static stage (scripts/lint.sh: the ldlb_analyze cross-TU
# analyzer — layering, determinism taint, lock discipline, cancellation
# reachability — then ldlb_lint invariant rules, header self-containment,
# clang-tidy; CI always runs it full-tree, never --changed), then build and
# run the full
# test suite twice — a plain RelWithDebInfo build with -DLDLB_WERROR=ON,
# then an AddressSanitizer+UBSan build (see LDLB_SANITIZE in the top
# CMakeLists) — plus a ThreadSanitizer pass over the concurrency-bearing
# suites with the thread pool forced wide, a bounded chaos-soak stage
# (randomized cancel/crash/env-fault/resume/certlog-kill cycles) on the
# plain and ASan trees, a certificate-log streaming stage (a Δ=20 chain
# built once into the append-only log, stream-validated in bounded memory
# with the peak RSS pinned below the fully-resident validator, format
# round-trips, torn-tail resume and env-fault injection smokes), and a
# perf-regression gate that holds the Δ=12 adversary+validate chain within
# 2x of the checked-in canonical-ball-engine baseline. All stages must be
# green.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

# Chaos stage defaults: a fixed seed so CI is reproducible; override with
# LDLB_CHAOS_SEED (the harness prints the seed on start and on failure).
chaos_seed="${LDLB_CHAOS_SEED:-20140721}"

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  # Smoke-run the end-to-end demos so they cannot bit-rot: each exits
  # non-zero if its scenario (fault round-trips, crash/resume byte-identity)
  # stops holding.
  echo "== demo smoke ($dir) =="
  "$dir/examples/fault_injection_demo" > /dev/null
  "$dir/examples/crash_resume_demo" > /dev/null
}

run_chaos() {
  local dir="$1" cycles="$2"
  echo "== chaos soak ($dir, ${cycles} cycles, seed ${chaos_seed}) =="
  if ! LDLB_CHAOS_SEED="$chaos_seed" LDLB_CHAOS_CYCLES="$cycles" \
      LDLB_SLOW_CHECKS=1 \
      "$dir/tests/chaos_soak"; then
    echo "chaos soak failed; reproduce with LDLB_CHAOS_SEED=${chaos_seed}" >&2
    exit 1
  fi
}

# Certificate-log streaming gate: one Δ=20 chain into the append-only log,
# validated with the bounded-memory streaming validator (peak RSS pinned
# below the fully-resident validator's with a 5% margin), format round-trips
# byte-compared, a torn tail resumed to the byte-identical log, and the
# env-fault injection paths pinned to the documented exit code 5.
run_certlog_stream() {
  local dir="$1" tool="$1/examples/certificate_tool"
  local tmp; tmp="$(mktemp -d)"
  echo "== certificate log streaming ($dir, delta 20 bounded-memory validation + torn resume + env faults) =="
  "$tool" generate --log 20 seq "$tmp/d20.log" > /dev/null
  "$tool" verify --stream 20 seq "$tmp/d20.log" > "$tmp/stream.out"
  grep -q "certificate VALID" "$tmp/stream.out"
  "$tool" convert "$tmp/d20.log" "$tmp/d20.txt" > /dev/null
  "$tool" validate 20 seq "$tmp/d20.txt" > "$tmp/resident.out"
  grep -q "certificate VALID" "$tmp/resident.out"
  local stream_kb resident_kb
  stream_kb="$(sed -n 's/^peak_rss_kb=//p' "$tmp/stream.out")"
  resident_kb="$(sed -n 's/^peak_rss_kb=//p' "$tmp/resident.out")"
  echo "   streaming peak ${stream_kb} kB vs resident ${resident_kb} kB"
  if [ -z "$stream_kb" ] || [ -z "$resident_kb" ] ||
     [ "$((stream_kb * 100))" -ge "$((resident_kb * 95))" ]; then
    echo "streaming validation peak RSS is not below the resident validator" >&2
    exit 1
  fi
  # Round-trip: log -> classic -> log reproduces the log byte for byte.
  "$tool" convert "$tmp/d20.txt" "$tmp/d20.rt.log" > /dev/null
  cmp "$tmp/d20.log" "$tmp/d20.rt.log"
  # Torn tail: cut into the last record, rerun generate over the log (it
  # resumes from the salvaged prefix), and demand the repaired file
  # byte-identical to the never-torn one.
  head -c "$(($(stat -c %s "$tmp/d20.log") - 57))" "$tmp/d20.log" \
    > "$tmp/torn.log"
  "$tool" generate --log 20 seq "$tmp/torn.log" > /dev/null
  cmp "$tmp/d20.log" "$tmp/torn.log"
  # Injected environment faults surface as exit 5 — never as log damage
  # (the torn-tail repair path is pinned by the chaos soak, which always
  # checkpoints into the certificate log).
  local rc op
  for op in read:eio:2:verify write:enospc:1:generate fsync:eio:1:generate; do
    rc=0
    case "$op" in
      *:verify)
        "$tool" --inject "${op%:*}" verify --stream 20 seq "$tmp/d20.log" \
          > /dev/null 2>&1 || rc=$? ;;
      *)
        "$tool" --inject "${op%:*}" generate --log 6 seq "$tmp/f.log" \
          > /dev/null 2>&1 || rc=$? ;;
    esac
    if [ "$rc" -ne 5 ]; then
      echo "env-fault injection '$op': expected exit 5, got $rc" >&2
      exit 1
    fi
  done
  # A generate interrupted by the injected fault must leave a store a clean
  # rerun repairs: the rerun resumes from whatever prefix the store
  # salvaged (possibly none) and the log then verifies.
  "$tool" generate --log 6 seq "$tmp/f.log" > /dev/null
  "$tool" verify --stream 6 seq "$tmp/f.log" > /dev/null
  rm -rf "$tmp"
}

echo "== lint =="
scripts/lint.sh

echo "== plain build =="
# Warnings are errors on the primary tree; sanitizer trees keep warnings
# advisory so a sanitizer-specific diagnostic cannot mask a real failure.
run_suite build -DLDLB_WERROR=ON

# Performance gate: the canonical ball engine must keep the Δ=12
# adversary+validate chain within 2x of the checked-in quiet-machine
# baseline (min-of-3, cold ball cache per rep). Catches an accidental
# return to the propagation-era costs (~10x the baseline) while leaving
# headroom for noisy CI neighbours; regenerate the baseline with
# `ldlb_perf_gate --measure` on a quiet machine after intentional changes.
echo "== perf gate (delta 12 canonical ball engine) =="
build/tools/perfgate/ldlb_perf_gate scripts/perf_baseline_delta12_ms.txt
run_chaos build 25
run_certlog_stream build

echo "== address+undefined sanitizer build =="
# Sanitized builds are slower: relax the cancel-latency assertion and run a
# shorter soak so the stage stays bounded.
LDLB_CANCEL_LATENCY_MS="${LDLB_CANCEL_LATENCY_MS:-2000}" \
  run_suite build-asan "-DLDLB_SANITIZE=address;undefined"
run_chaos build-asan 10

# ThreadSanitizer stage: the suites that exercise the thread pool (the
# parallel simulator, speculative adversary, concurrent validator, and the
# serial/parallel byte-identity tests), run with LDLB_THREADS=8 so races
# are reachable even on single-core CI machines. TSan and ASan cannot be
# combined, hence the separate build tree.
echo "== thread sanitizer build =="
cmake -B build-tsan -S . "-DLDLB_SANITIZE=thread"
cmake --build build-tsan -j "$jobs"
LDLB_THREADS=8 LDLB_SLOW_CHECKS=1 \
  LDLB_CANCEL_LATENCY_MS="${LDLB_CANCEL_LATENCY_MS:-2000}" \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" \
  -R 'simulator_test|full_info_test|adversary_test|certificate_test|parallel_determinism_test|cancellation_test|canonical_ball_test'

echo "CI green: lint+analyze, plain (werror), perf-gate, certlog-stream, asan/ubsan, tsan, and chaos-soak stages all pass."
