#!/usr/bin/env bash
# Interrupt/resume smoke test of the campaign subsystem against a real
# process kill (the in-process variant lives in tests/campaign_test.cpp; this
# script exercises the actual std::_Exit path end to end):
#
#   1. run a tiny fig7 campaign with --kill-after so the process hard-exits
#      (exit code 42) about halfway through the unit list,
#   2. run it again with --resume and assert that the completed units were
#      served from the content-addressed store,
#   3. run the same campaign uninterrupted in a separate directory pair,
#   4. assert the killed-and-resumed run's stdout table AND result.json are
#      byte-identical to the uninterrupted run's,
#   5. run fig7 with no campaign flags (the in-process sweep) and assert its
#      table is byte-identical to the uninterrupted campaign run's.
#
# Usage: scripts/campaign_smoke.sh <path-to-fig7_pstationary> [workdir]
set -euo pipefail

bin="${1:?usage: scripts/campaign_smoke.sh <path-to-fig7_pstationary> [workdir]}"
work="${2:-$(mktemp -d)}"
mkdir -p "${work}"

common_flags=(--preset quick --csv --campaign-quiet)
kill_dir="${work}/killed" kill_store="${work}/killed-store"
ref_dir="${work}/reference" ref_store="${work}/reference-store"

echo "campaign smoke: workdir ${work}" >&2

# 1. Kill roughly halfway: quick fig7 decomposes into 60 single-iteration
# units (15 points x 4 iterations).
set +e
"${bin}" "${common_flags[@]}" --campaign-dir "${kill_dir}" --store-dir "${kill_store}" \
  --kill-after 30 > "${work}/killed.out" 2> "${work}/killed.err"
status=$?
set -e
if [[ "${status}" -ne 42 ]]; then
  echo "FAIL: --kill-after run exited ${status}, expected the kill exit code 42" >&2
  exit 1
fi

# 2. Resume: must finish cleanly and serve the killed run's units from the
# store (the manifest records the cache-hit count).
"${bin}" "${common_flags[@]}" --campaign-dir "${kill_dir}" --store-dir "${kill_store}" \
  --resume > "${work}/resumed.out" 2> "${work}/resumed.err"
cache_hits="$(grep -o '"cache_hits": [0-9]*' "${kill_dir}/manifest.json" | grep -o '[0-9]*')"
if [[ "${cache_hits}" -lt 30 ]]; then
  echo "FAIL: resume served only ${cache_hits} units from the store, expected >= 30" >&2
  exit 1
fi

# The resumed run's metrics.json (the deterministic run-metrics layer) must
# agree with the manifest: campaign.units_cached == the units completed before
# the kill. Skipped on MANET_METRICS=0 builds, where the counters report
# "enabled": false and every value is 0.
if [[ ! -f "${kill_dir}/metrics.json" ]]; then
  echo "FAIL: resume did not write ${kill_dir}/metrics.json" >&2
  exit 1
fi
if grep -q '"enabled": true' "${kill_dir}/metrics.json"; then
  units_cached="$(grep -o '"campaign.units_cached": [0-9]*' "${kill_dir}/metrics.json" \
    | grep -o '[0-9]*$')"
  if [[ "${units_cached:-missing}" != "${cache_hits}" ]]; then
    echo "FAIL: metrics campaign.units_cached=${units_cached:-missing}" \
      "!= manifest cache_hits=${cache_hits}" >&2
    exit 1
  fi
else
  echo "campaign smoke: metrics disabled in this build, skipping units_cached check" >&2
fi

# 3. Uninterrupted reference run with its own campaign dir and store.
"${bin}" "${common_flags[@]}" --campaign-dir "${ref_dir}" --store-dir "${ref_store}" \
  > "${work}/reference.out" 2> "${work}/reference.err"

# 4. Bit-identity of the final artifacts.
cmp "${work}/resumed.out" "${work}/reference.out" || {
  echo "FAIL: killed-and-resumed stdout differs from the uninterrupted run" >&2
  exit 1
}
cmp "${kill_dir}/result.json" "${ref_dir}/result.json" || {
  echo "FAIL: killed-and-resumed result.json differs from the uninterrupted run" >&2
  exit 1
}

# 5. The in-process sweep prints the campaign's table.
"${bin}" --preset quick --csv > "${work}/in-process.out" 2> "${work}/in-process.err"
cmp "${work}/in-process.out" "${work}/reference.out" || {
  echo "FAIL: the in-process table differs from the campaign run's" >&2
  exit 1
}

echo "campaign smoke: OK (killed at 30, resumed with ${cache_hits} cache hits," \
  "bit-identical to the uninterrupted and the in-process runs)" >&2
