#!/usr/bin/env bash
# Reachability report: which lines of src/**/*.cc do the checked figures,
# the micro-benchmark and the examples never execute?
#
# Configures a Debug --coverage build, runs every bench/fig* binary,
# ablations and micro_overheads at PERFISO_BENCH_SCALE=0.05 plus the six
# examples, then reads the counters back with plain gcov (lcov is not
# needed). Prints one line per source file with its never-executed line
# numbers, and a total. Lines only tests reach are candidates for deletion
# (ROADMAP item 6); error and Validate paths among them usually stay.
#
# Run on demand; it is not a ctest or CI gate. Header-inline functions are
# counted in whichever translation unit gcov attributes them to, so check a
# candidate with a grep before deleting it.
#
# Usage: scripts/reach.sh [BUILD_DIR]   (default: build-reach)
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$(realpath -m "${1:-$ROOT/build-reach}")"
cd "$ROOT"
JOBS="$(nproc)"

BENCHES=(ablations micro_overheads)
for src in bench/fig*.cc; do
  BENCHES+=("$(basename "$src" .cc)")
done
EXAMPLES=()
for src in examples/*.cpp; do
  EXAMPLES+=("$(basename "$src" .cpp)")
done

echo "=== reach: configure + build (Debug, --coverage) in $BUILD ===" >&2
# Atomic counter updates: the benches run scenario rows on several threads,
# and a lost update would let gcov derive a count for a block never run.
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -fprofile-update=atomic" \
  -DCMAKE_EXE_LINKER_FLAGS=--coverage >/dev/null
cmake --build "$BUILD" -j "$JOBS" --target "${BENCHES[@]}" "${EXAMPLES[@]}" >/dev/null
find "$BUILD" -name '*.gcda' -delete

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
for name in "${BENCHES[@]}"; do
  echo "=== reach: bench/$name ===" >&2
  # A failing run (micro_overheads exits 1 when its allocation gate trips)
  # is reported; the lines it reached still count.
  PERFISO_BENCH_SCALE=0.05 PERFISO_BENCH_OUT="$OUT" "$BUILD/bench/$name" >/dev/null ||
    echo "reach: bench/$name exited $?" >&2
done
for name in "${EXAMPLES[@]}"; do
  echo "=== reach: examples/$name ===" >&2
  (cd "$OUT" && "$BUILD/examples/$name" >/dev/null) || echo "reach: examples/$name exited $?" >&2
done

OBJ="$BUILD/CMakeFiles/perfiso.dir"
total=0
executable=0
while IFS= read -r src; do
  # gcov prints the annotated source; keep only the section of the .cc
  # itself (headers it includes get sections of their own).
  read -r never lines counted < <(
    gcov -t -o "$OBJ/$src.o" "$src" 2>/dev/null | awk -v want="$src" '
      /^ *-: *0:Source:/ { sub(/^ *-: *0:Source:/, ""); keep = ($0 == want || $0 ~ ("/" want "$")); next }
      !keep { next }
      {
        split($0, f, ":"); count = f[1]; gsub(/ /, "", count); line = f[2] + 0
        # Template instantiations repeat their lines below the summed one.
        if (count == "-" || line in seen) next
        seen[line] = 1
        n++
        if (count == "#####" || count == "=====") { never++; list = list (list == "" ? "" : ",") line }
      }
      END { printf "%d %s %d\n", never, (list == "" ? "-" : list), n }')
  total=$((total + never))
  executable=$((executable + counted))
  if [[ "$never" -gt 0 ]]; then
    # Collapse consecutive line numbers into ranges.
    ranges="$(tr ',' '\n' <<<"$lines" | awk '
      NR == 1 { lo = hi = $1; next }
      $1 == hi + 1 { hi = $1; next }
      { out = out (out == "" ? "" : ",") (lo == hi ? lo : lo "-" hi); lo = hi = $1 }
      END { out = out (out == "" ? "" : ",") (lo == hi ? lo : lo "-" hi); print out }')"
    printf '%s: %d never executed: %s\n' "$src" "$never" "$ranges"
  fi
done < <(find src -name '*.cc' | sort)
printf 'total: %d of %d executable lines in src/**/*.cc never executed\n' "$total" "$executable"
