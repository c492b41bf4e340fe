#!/usr/bin/env sh
# One-command local gate: everything the CI lint job blocks on, in
# order of increasing cost. Run from anywhere inside the repo:
#
#   tools/check.sh            # build tools if needed, then lint+audit
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
    cmake --build build -j --target ef_lint ef_audit > /dev/null
fi

echo "== ef-lint =="
./build/tools/ef_lint/ef_lint --root . --jobs 4 --warn-unused-allow

echo "== ef-audit (thread-ownership, layering) =="
./build/tools/ef_audit/ef_audit --root . --jobs 4

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
