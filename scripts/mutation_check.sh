#!/usr/bin/env bash
# Mutation check: proves that the release-v3 ctest selection (the CI leg at
# -march=x86-64-v3) notices each deliberate bug in scripts/mutation_catalog.txt.
#
# Usage: scripts/mutation_check.sh [work-dir]
#
# Copies the repository's tracked and untracked-but-not-ignored files into
# work-dir (default: a fresh temporary directory), builds the release-v3
# preset there and checks that the selection passes unmutated. Then, for each
# catalog entry, it applies the anchored search-and-replace, rebuilds, runs the
# selection, records which tests failed, and restores the file. It fails
# loudly when an anchor is missing or not unique, when a mutant does not
# compile, and when a mutant survives (no test fails). Prints one line per
# mutant and exits non-zero unless every mutant was killed.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
catalog="$root/scripts/mutation_catalog.txt"
work="${1:-$(mktemp -d -t manet-mutation.XXXXXX)}"
jobs="$(nproc)"

# The v3 leg's ctest -R selection, read from CI so the two cannot drift.
selection="$(grep -o "\-R '([^']*CandidateSort[^']*)'" "$root/.github/workflows/ci.yml" |
  sed "s/^-R '//; s/'\$//")"
if [[ -z "$selection" ]]; then
  echo "mutation_check: release-v3 ctest selection not found in ci.yml" >&2
  exit 2
fi

mkdir -p "$work"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do [[ -e "$f" ]] && printf '%s\0' "$f"; done |
  tar -cf - --null -T -) | tar -xf - -C "$work"
build="$work/build/release-v3"
log="$work/mutation.log"
: > "$log"

build_and_test() {
  cmake --build "$build" -j "$jobs" >> "$log" 2>&1 || return 2
  (cd "$work" && ctest --preset release-v3 -j "$jobs" --timeout 600 -R "$selection" \
    >> "$log" 2>&1) || return 1
  return 0
}

failed_tests() {
  sed 's/^[0-9]*://' "$build/Testing/Temporary/LastTestsFailed.log" 2>/dev/null | tr '\n' ' '
}

# Replaces the unique occurrence of $2 by $3 in file $1 (`\n` = line break).
apply_mutation() {
  FILE="$1" FIND="$2" REPLACE="$3" python3 - <<'PY'
import os, sys
path = os.environ["FILE"]
find = os.environ["FIND"].replace("\\n", "\n")
replace = os.environ["REPLACE"].replace("\\n", "\n")
text = open(path).read()
count = text.count(find)
if count != 1:
    sys.exit(f"anchor occurs {count} times in {path}: {find!r}")
open(path, "w").write(text.replace(find, replace))
PY
}

(cd "$work" && cmake --preset release-v3 >> "$log" 2>&1)
echo "mutation_check: baseline build and selection in $work"
if ! build_and_test; then
  echo "mutation_check: the unmutated tree fails (see $log): $(failed_tests)" >&2
  exit 2
fi

survivors=0
broken=0
run_mutant() {
  local id="$1" file="$2" find="$3" replace="$4"
  local target="$work/$file"
  if [[ ! -f "$target" ]]; then
    echo "mutation_check: $id: file $file is gone" >&2
    broken=$((broken + 1))
    return 0
  fi
  cp "$target" "$target.orig"
  if ! apply_mutation "$target" "$find" "$replace"; then
    echo "mutation_check: $id: anchor lost in $file" >&2
    broken=$((broken + 1))
    mv "$target.orig" "$target"
    return 0
  fi
  local status=0
  build_and_test || status=$?
  case "$status" in
    0) echo "SURVIVED $id"; survivors=$((survivors + 1)) ;;
    1) echo "KILLED   $id by: $(failed_tests)" ;;
    *) echo "BROKEN   $id (does not compile, see $log)"; broken=$((broken + 1)) ;;
  esac
  # Restore with a fresh timestamp so the next build recompiles the file.
  mv "$target.orig" "$target"
  touch "$target"
}

id="" file="" find="" replace=""
while IFS= read -r line || [[ -n "$line" ]]; do
  case "$line" in
    "#"* | "") continue ;;
    "mutant: "*) id="${line#mutant: }" ;;
    "file: "*) file="${line#file: }" ;;
    "find: "*) find="${line#find: }" ;;
    "replace:"*)
      replace="${line#replace:}"
      replace="${replace# }"
      run_mutant "$id" "$file" "$find" "$replace"
      id="" file="" find="" replace=""
      ;;
    *) echo "mutation_check: unparsable catalog line: $line" >&2; exit 2 ;;
  esac
done < "$catalog"

# Leave the work tree unmutated and its build current.
cmake --build "$build" -j "$jobs" >> "$log" 2>&1 || true
echo "mutation_check: $survivors survived, $broken broken (log: $log)"
[[ "$survivors" -eq 0 && "$broken" -eq 0 ]]
