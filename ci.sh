#!/usr/bin/env bash
# CI entry point: configure + build the three presets, run the full test
# suite once on the default build (plus the perf smoke label, the
# end-to-end benchmark's own tests, the
# durability and storage acceptance labels, and the scan / service /
# governance / integrity / storage benchmarks writing their BENCH_*.json
# baselines), and re-run the concurrency-sensitive suites (fault injection
# + checkpoint recovery + fused/reference differential + multi-tenant
# isolation + resource governance + durability hardening + buffer-pool
# storage) under ASan/UBSan and TSan.
#
#   ./ci.sh            # everything
#   ./ci.sh default    # one preset only (default | asan-ubsan | tsan)
set -euo pipefail
cd "$(dirname "$0")"

# Extracts a scalar number for "key" from a flat JSON baseline ("key": 1.23).
json_number() {
  local key="$1" file="$2"
  grep -o "\"${key}\": *[0-9.]*" "${file}" | head -n1 | grep -o '[0-9.]*$'
}

# Perf regression gate: a fresh micro_scan run must not fall below the
# floors recorded in the committed BENCH_scan.json baseline (the floors
# are part of the baseline so tightening them is an explicit commit).
check_scan_floors() {
  local baseline="$1" fresh="$2"
  [[ -f "${baseline}" ]] || { echo "    (no committed baseline; skipping floor gate)"; return 0; }
  local vec_floor fus_floor vec_meas fus_meas
  vec_floor="$(json_number vectorized_over_fused "${baseline}")"
  fus_floor="$(json_number fused_over_reference "${baseline}")"
  vec_meas="$(json_number selective_scan_vectorized_speedup "${fresh}")"
  fus_meas="$(json_number selective_scan_fused_speedup "${fresh}")"
  if [[ -z "${vec_floor}" || -z "${fus_floor}" ]]; then
    echo "    (baseline predates the vectorized floors; skipping floor gate)"
    return 0
  fi
  echo "    selective-scan vectorized/fused: ${vec_meas} (floor ${vec_floor})"
  echo "    selective-scan fused/reference:  ${fus_meas} (floor ${fus_floor})"
  awk -v m="${vec_meas}" -v f="${vec_floor}" 'BEGIN { exit (m+0 >= f+0) ? 0 : 1 }' \
    || { echo "FAIL: vectorized selective-scan speedup ${vec_meas} fell below floor ${vec_floor}"; return 1; }
  awk -v m="${fus_meas}" -v f="${fus_floor}" 'BEGIN { exit (m+0 >= f+0) ? 0 : 1 }' \
    || { echo "FAIL: fused selective-scan speedup ${fus_meas} fell below floor ${fus_floor}"; return 1; }
}

# Buffer-pool regression gate: a fresh micro_storage run must keep the
# hit-path ratio under the committed baseline's floor (1.10: the median,
# over interleaved >= 100 ms windows, of a bounded pool that pins but never
# evicts against an unbounded one that takes no pins), agree with the
# unbounded pool under a quarter-size one in every execution mode, and
# stay within 1.5x of the committed peak RSS — the whole point of the pool
# is that a bounded budget bounds memory, so an RSS regression is a
# correctness smell.
check_storage_floors() {
  local baseline="$1" fresh="$2"
  [[ -f "${baseline}" ]] || { echo "    (no committed baseline; skipping floor gate)"; return 0; }
  local max_overhead overhead rss_base rss
  max_overhead="$(json_number hit_overhead_max "${baseline}")"
  rss_base="$(json_number peak_rss_bytes "${baseline}")"
  overhead="$(json_number hit_overhead "${fresh}")"
  rss="$(json_number peak_rss_bytes "${fresh}")"
  if [[ -z "${max_overhead}" ]]; then
    echo "    (baseline predates the storage floors; skipping floor gate)"
    return 0
  fi
  echo "    hit-path bounded/unbounded median: ${overhead} (floor ${max_overhead})"
  echo "    peak RSS: ${rss} bytes (baseline ${rss_base})"
  grep -q '"results_match": true' "${fresh}" \
    || { echo "FAIL: ${fresh} did not record results_match=true"; return 1; }
  awk -v o="${overhead}" -v f="${max_overhead}" 'BEGIN { exit (o+0 < f+0) ? 0 : 1 }' \
    || { echo "FAIL: hit-path overhead ${overhead} breached the ${max_overhead} floor"; return 1; }
  awk -v r="${rss}" -v b="${rss_base}" 'BEGIN { exit (r+0 <= b*1.5) ? 0 : 1 }' \
    || { echo "FAIL: peak RSS ${rss} exceeded 1.5x the committed ${rss_base}"; return 1; }
}

# Integrity regression gate: checksum maintenance must stay under 5%
# overhead on the fig4 loop in every mode, and no arm may perturb the
# fixpoint (micro_integrity exits nonzero on its own, but the gate reads
# the JSON so a stale baseline can never pass silently).
check_integrity_overhead() {
  local fresh="$1"
  local overhead
  overhead="$(json_number overhead_pct "${fresh}")"
  echo "    checksum-maintenance overhead: ${overhead}% (bar <5%)"
  grep -q '"pass": true' "${fresh}" \
    || { echo "FAIL: ${fresh} did not record pass=true"; return 1; }
  awk -v o="${overhead}" 'BEGIN { exit (o+0 < 5.0) ? 0 : 1 }' \
    || { echo "FAIL: checksum overhead ${overhead}% breached the 5% bar"; return 1; }
}

run_preset() {
  local preset="$1"
  echo "==> [${preset}] configure + build"
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" --parallel
  case "${preset}" in
    default)
      echo "==> [${preset}] full test suite"
      ctest --preset default
      echo "==> [${preset}] perf smoke suite"
      ctest --preset default -L perf
      echo "==> [${preset}] end-to-end benchmark self-tests (perfbench)"
      python3 perfbench/test_perfbench.py
      echo "==> [${preset}] vectorized/fused-pipeline scan benchmark"
      cp -f BENCH_scan.json BENCH_scan.baseline.json 2>/dev/null || true
      ./build/bench/micro_scan --json BENCH_scan.json
      echo "==> [${preset}] scan perf floor gate"
      check_scan_floors BENCH_scan.baseline.json BENCH_scan.json
      rm -f BENCH_scan.baseline.json
      echo "==> [${preset}] multi-tenant service benchmark"
      ./build/bench/micro_service --json BENCH_service.json
      echo "==> [${preset}] resource-governance benchmark"
      ./build/bench/micro_governance --json BENCH_governance.json
      echo "==> [${preset}] durability acceptance suite"
      ctest --preset default -L durability
      echo "==> [${preset}] integrity-overhead benchmark"
      ./build/bench/micro_integrity --json BENCH_integrity.json
      echo "==> [${preset}] integrity overhead gate"
      check_integrity_overhead BENCH_integrity.json
      echo "==> [${preset}] paged-storage acceptance suite"
      ctest --preset default -L storage
      echo "==> [${preset}] buffer-pool benchmark + floor gate"
      cp -f BENCH_storage.json BENCH_storage.baseline.json 2>/dev/null || true
      ./build/bench/micro_storage --json BENCH_storage.json
      check_storage_floors BENCH_storage.baseline.json BENCH_storage.json
      rm -f BENCH_storage.baseline.json
      ;;
    *)
      echo "==> [${preset}] resilience|recovery|engine|service|governance|durability|storage suites"
      ctest --preset "${preset}"
      ;;
  esac
}

if [[ $# -gt 0 ]]; then
  run_preset "$1"
else
  for preset in default asan-ubsan tsan; do
    run_preset "${preset}"
  done
fi
echo "==> CI green"
