#!/usr/bin/env bash
# Checks that every AVX2 compilation of a portable distance kernel really
# holds vector code. src/geometry/distance_kernels.hpp compiles each
# elementwise kernel's one loop a second time inside
# kernels::detail::run_avx2<...>; the tests prove that both forms give the
# same bits, but they cannot see a clone that the vectorizer silently left
# scalar (for instance when a store may alias the inputs). This script
# disassembles the built libraries, and the kernel test binary that
# instantiates every kernel at D = 1, 2 and 3, and fails when any run_avx2
# instantiation holds no ymm instruction, or when it finds none at all.
# A build whose baseline ISA already has AVX2 (-march=x86-64-v3) compiles no
# clones, so there is nothing to check in it: its baseline loops are
# vectorized from the same source that a baseline build's clones are.
#
# Usage: scripts/check_avx2_clones.sh <build-dir>
set -euo pipefail

build="${1:?usage: scripts/check_avx2_clones.sh <build-dir>}"

case "$(uname -m)" in
  x86_64 | i?86) ;;
  *)
    echo "check_avx2_clones: not an x86 host, nothing to check" >&2
    exit 0
    ;;
esac

cache="${build}/CMakeCache.txt"
if [[ ! -f "${cache}" ]]; then
  echo "FAIL: no ${cache} (configure and build the project first)" >&2
  exit 1
fi
cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "${cache}")"
flags="$(sed -n 's/^CMAKE_CXX_FLAGS:[A-Z]*=//p' "${cache}")"
# shellcheck disable=SC2086  # the cached flags are a word list
if "${cxx}" ${flags} -dM -E -x c++ /dev/null | grep -q '^#define __AVX2__ '; then
  echo "check_avx2_clones: the baseline ISA of ${build} has AVX2, so it has no AVX2 clones to check"
  exit 0
fi

mapfile -t libs < <(find "${build}/src" -name '*.a' | sort)
kernel_test="${build}/tests/distance_kernels_test"
if [[ "${#libs[@]}" -eq 0 || ! -x "${kernel_test}" ]]; then
  echo "FAIL: no static libraries under ${build}/src or no ${kernel_test}" \
    "(build the project first)" >&2
  exit 1
fi

# One line per instantiation found: "<ymm count> <object> <kernel>".
report="$(
  objdump -d -C --no-show-raw-insn "${libs[@]}" "${kernel_test}" | awk '
    function flush() {
      if (name != "") print ymm, object, name
      name = ""
    }
    /file format/ { flush(); object = $1; sub(/:$/, "", object); next }
    /^[0-9a-f]+ <.*>:$/ {
      flush()
      if (index($0, "kernels::detail::run_avx2<") > 0) {
        name = $0
        sub(/^.*run_avx2</, "", name)
        sub(/\(.*$/, "", name)
        ymm = 0
      }
      next
    }
    name != "" && /%ymm/ { ++ymm }
    END { flush() }
  '
)"

if [[ -z "${report}" ]]; then
  echo "FAIL: no kernels::detail::run_avx2 instantiation in ${build}" >&2
  exit 1
fi

status=0
while read -r ymm object name; do
  if [[ "${ymm}" -eq 0 ]]; then
    echo "FAIL: ${name} (${object}): AVX2 clone holds no ymm instruction" >&2
    status=1
  else
    echo "ok   ${name} (${object}): ${ymm} ymm instructions"
  fi
done <<< "${report}"
exit "${status}"
