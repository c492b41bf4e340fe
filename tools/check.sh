#!/usr/bin/env sh
# One-command local gate: everything the CI lint job blocks on, in
# order of increasing cost. Run from anywhere inside the repo:
#
#   tools/check.sh            # build ef-lint if needed, then lint
#   tools/check.sh --no-build # use existing build/ binaries as-is
#
# Exits non-zero on the first failing stage. clang-format runs only on
# files that differ from origin/main (falling back to HEAD) and is
# skipped with a note when clang-format is not installed.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

build=1
[ "${1:-}" = "--no-build" ] && build=0

if [ "$build" -eq 1 ]; then
    cmake -B build -S . > /dev/null
    cmake --build build -j --target ef_lint > /dev/null
fi

echo "== ef-lint (determinism, scheduler invariants, layering) =="
./build/tools/ef_lint/ef_lint --root . --warn-unused-allow

echo "== clang-format (changed files) =="
if command -v clang-format > /dev/null 2>&1; then
    base=$(git merge-base origin/main HEAD 2> /dev/null ||
        git rev-parse HEAD)
    files=$(git diff --name-only --diff-filter=d "$base" \
        -- '*.h' '*.hpp' '*.cc' '*.cpp' || true)
    if [ -n "$files" ]; then
        echo "$files" | xargs clang-format --dry-run -Werror
    else
        echo "no C++ files changed"
    fi
else
    echo "clang-format not installed — skipped"
fi

echo "check.sh: all gates passed"
