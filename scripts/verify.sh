#!/usr/bin/env bash
# Tier-1 verification + sanitizer gate for the PerfIso reproduction.
#
#   1. Plain build: configure, build everything, run all ctest suites
#      (includes the perfiso_lint self-test and the repo-wide lint gate).
#   2. Static analysis: perfiso_lint over the whole tree (determinism &
#      lifetime rules, tools/lint/), plus clang-tidy when it is installed.
#   3. Sanitizer build: the same suite under ASan + UBSan (LeakSanitizer is
#      part of ASan on Linux), so callback-cycle leaks like the IndexServer
#      QueryState bug fail the gate instead of shipping.
#
# Usage: scripts/verify.sh [--skip-sanitizers]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
SKIP_SAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) SKIP_SAN=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "=== tier-1: configure + build + ctest ==="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== static analysis: perfiso_lint (+ clang-tidy when available) ==="
./build/perfiso_lint --root . --json build/lint_report.json

if command -v clang-tidy >/dev/null 2>&1; then
  # clang-tidy wants a compilation database; generate one in a scratch config
  # so the main build dir stays untouched.
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Sources only: headers are covered through HeaderFilterRegex.
  find src bench tools/lint -name '*.cc' | sort | \
    xargs -P "$JOBS" -n 4 clang-tidy -p build-tidy --quiet
else
  echo "clang-tidy not installed; skipping (CI runs it in the lint job)"
fi

if [[ "$SKIP_SAN" == "1" ]]; then
  echo "verify: OK (sanitizer pass skipped)"
  exit 0
fi

echo "=== sanitizer gate: ASan/UBSan/LSan over the full suite ==="
cmake -B build-asan -S . -DPERFISO_SANITIZE=ON
cmake --build build-asan -j "$JOBS"
ASAN_OPTIONS=detect_leaks=1 ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "verify: OK"
