#!/bin/sh
# Link analysis: lists the library functions that no executable links.
#
# Builds every test, bench, example and corebench executable at -O0 with
# one section per function and links them with --gc-sections, so each
# binary keeps exactly the library functions it can reach.
# -fkeep-inline-functions makes every object emit its header-inline
# functions too, so an inline function counts like an out-of-line one. A
# text symbol of libcorebist.a in namespace corebist that no executable
# defines is dead. A member of an explicitly instantiated template counts
# as live when any of its instantiations is linked: names are compared with
# their template arguments stripped. What the compiler writes itself is
# left out: a default, copy or move constructor, destructor or copy or move
# assignment the library emits only inline (the implicit members), and a
# lambda's static invoker and function-pointer conversion. The functions
# that only test binaries link are printed as a notice. Exits 1 when the
# dead list is not empty.
#
#   tools/dead_code.sh [build-dir]      (default: build-dead)
#
# Run from the repository root. Needs GTest and google-benchmark.
set -eu
export LC_ALL=C

build=${1:-build-dead}
cmake -S corebench -B "$build" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 -fno-inline -fkeep-inline-functions -ffunction-sections -fdata-sections" \
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

# "mangled<TAB>nm type<TAB>demangled name without template arguments", one
# line per corebist text symbol defined in the given files.
symbols() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZZ?N[KVRO]*8corebist/ {print $3 "\t" $2}' |
    sort -u >"$work/typed"
  cut -f1 "$work/typed" | c++filt |
    sed -e ':a' -e 's/<[^<>]*>//g' -e 'ta' | paste "$work/typed" -
}
keys() { cut -f3 | sort -u; }

symbols "$build/corebist/libcorebist.a" >"$work/lib"
# shellcheck disable=SC2046
symbols $(bins tests/*.cpp) | keys >"$work/test.k"
# shellcheck disable=SC2046
symbols "$build/corebench" "$build/corebench_selftest" \
  $(bins bench/*.cpp examples/*.cpp) | keys >"$work/other.k"

# Compiler-written functions, by the shape of their names. An implicit
# member is "C::C()", "C::C(C const&)", "C::C(C&&)", "C::~C()" or
# "C::operator=(C const&|C&&)"; a name of that shape with a strong (T)
# definition was written out of line, so it stays in. A lambda's "_FUN"
# invoker and "operator R (*)(...)" conversion are written for it too; its
# operator() is not.
keys <"$work/lib" >"$work/all.k"
awk -F'\t' '$2 == "T" {print $3}' "$work/lib" | sort -u >"$work/strong.k"
grep -E -e '(^|::)([A-Za-z_][A-Za-z0-9_]*)::~?\2\(((.*::)?\2( const&|&&))?\)$' \
  -e '(^|::)([A-Za-z_][A-Za-z0-9_]*)::operator=\((.*::)?\2( const&|&&)\)$' \
  -e '#[0-9]+\}::(_FUN\(|operator [^(])' "$work/all.k" |
  comm -23 - "$work/strong.k" >"$work/generated.k"
comm -23 "$work/all.k" "$work/generated.k" >"$work/lib.k"

# Prints the library symbols whose key is listed in file $1, demangled.
list() {
  awk -F'\t' 'NR == FNR {want[$0] = 1; next} $3 in want {print $1}' \
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
