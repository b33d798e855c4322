#!/usr/bin/env bash
# ThreadSanitizer gate for the parallel tick engine: builds the tsan preset
# and runs the tests that exercise sharded phases, the thread pool and the
# samplers (parallel Poisson draws), plus the shadow-diff equivalence suite
# (incremental vs full control plane under churn / ambient events / UPS,
# with every skip re-derived and checked).
#
#   scripts/tsan.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" \
  --target determinism_test trace_determinism_test scale_determinism_test \
  thread_pool_test thread_pool_stress_test simulation_test churn_test \
  shadow_diff_test rng_test
ctest --test-dir build-tsan --output-on-failure \
  -R '(determinism_test|thread_pool_test|simulation_test|churn_test)'
# Batch-engine race stress (forced worker dispatch, long contended
# schedules) and parallel sampler draws — the tests TSan is pointed at by
# design.
ctest --test-dir build-tsan --output-on-failure -L tsan
ctest --test-dir build-tsan --output-on-failure -L shadow-diff
