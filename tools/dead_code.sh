#!/bin/sh
# Link analysis: lists the library functions that no executable links.
#
# Builds every test, bench, example and corebench executable at -O0 with
# one section per function and links them with --gc-sections, so each
# binary keeps exactly the library functions it can reach. A text symbol
# of libcorebist.a in namespace corebist that no executable defines is
# dead. A member of an explicitly instantiated template counts as live
# when any of its instantiations is linked: names are compared with their
# template arguments stripped. The functions that only test binaries link
# are printed as a notice. Exits 1 when the dead list is not empty.
#
#   tools/dead_code.sh [build-dir]      (default: build-dead)
#
# Run from the repository root. Needs GTest and google-benchmark.
set -eu
export LC_ALL=C

build=${1:-build-dead}
cmake -S corebench -B "$build" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
# corebench adds the library's directory with EXCLUDE_FROM_ALL, so that
# directory's own "all" builds every test, bench and example, in parallel.
cmake --build "$build/corebist" -j "$(nproc)" >/dev/null
cmake --build "$build" -j "$(nproc)" >/dev/null

bins() {  # the executables built from the given sources
  for f in "$@"; do echo "$build/corebist/$(basename "$f" .cpp)"; done
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# "mangled<TAB>demangled name without template arguments", one line per
# corebist text symbol defined in the given files.
symbols() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZZ?N[KVRO]*8corebist/ {print $3}' |
    sort -u >"$work/mangled"
  c++filt <"$work/mangled" |
    sed -e ':a' -e 's/<[^<>]*>//g' -e 'ta' | paste "$work/mangled" -
}
keys() { cut -f2 | sort -u; }

symbols "$build/corebist/libcorebist.a" >"$work/lib"
# shellcheck disable=SC2046
symbols $(bins tests/*.cpp) | keys >"$work/test.k"
# shellcheck disable=SC2046
symbols "$build/corebench" "$build/corebench_selftest" \
  $(bins bench/*.cpp examples/*.cpp) | keys >"$work/other.k"
keys <"$work/lib" >"$work/lib.k"

# Prints the library symbols whose key is listed in file $1, demangled.
list() {
  awk -F'\t' 'NR == FNR {want[$0] = 1; next} $2 in want {print $1}' \
    "$1" "$work/lib" | c++filt | sort -u
}

sort -u "$work/test.k" "$work/other.k" | comm -23 "$work/lib.k" - \
  >"$work/dead.k"
comm -12 "$work/lib.k" "$work/test.k" | comm -23 - "$work/other.k" \
  >"$work/test_only.k"

list "$work/test_only.k" >"$work/test_only"
echo "notice: $(wc -l <"$work/test_only") library functions are linked" \
  "only by test binaries:"
sed 's/^/  /' "$work/test_only"
list "$work/dead.k" >"$work/dead"
if [ -s "$work/dead" ]; then
  echo "error: $(wc -l <"$work/dead") library functions are linked by no" \
    "executable:"
  sed 's/^/  /' "$work/dead"
  exit 1
fi
echo "no unlinked library function"
