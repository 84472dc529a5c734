#!/usr/bin/env bash
# Census of src/: the out-of-line functions that no shipped binary runs.
#
# Usage: tools/src_census.sh BUILD_DIR ALLOWLIST
#
# BUILD_DIR must be a full build configured with
#   -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
#   "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
#   -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
# so that every function has a section of its own and each executable keeps
# only the functions it can reach. The census takes every global text symbol
# defined in an object under BUILD_DIR/src and lists those that no executable
# other than dbsp_tests keeps. ALLOWLIST names the ones kept on purpose, one
# qualified name (no parameter list) per line, each followed by "# reason";
# blank lines and lines starting with "#" are ignored. Prints the counts and
# every unlisted function; exits 1 if there is one, 2 on a usage error.
set -euo pipefail
export LC_ALL=C

if [[ $# -ne 2 || ! -d $1/src || ! -f $2 ]]; then
    echo "usage: $0 BUILD_DIR ALLOWLIST" >&2
    exit 2
fi
build=$1
allow=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Allowlist entries: the name before "#"; an entry without a reason is an error.
awk '!/^[[:space:]]*(#|$)/ && !/[^[:space:]][[:space:]]+#[[:space:]]*[^[:space:]]/ {
         print "allowlist line " NR " has no \"# reason\": " $0; bad = 1 }
     END { exit bad }' "$allow" >&2 || exit 2
awk '!/^[[:space:]]*(#|$)/ { print $1 }' "$allow" | sort -u > "$tmp/allow"

# "mangled object" for every global text symbol defined in a src/ object.
find "$build/src" -name '*.o' -print0 | sort -z |
    xargs -0 nm -A -P --defined-only |
    awk '$3 == "T" { sub(/:$/, "", $1); print $2, $1 }' | sort -u > "$tmp/src"

# Executables: ELF files with the execute bit, outside CMakeFiles/ trees.
: > "$tmp/kept"
nexe=0
tests_exe=
while IFS= read -r -d '' exe; do
    [[ $(head -c4 "$exe" | od -An -c | tr -d ' ') == '177ELF' ]] || continue
    nexe=$((nexe + 1))
    if [[ $(basename "$exe") == dbsp_tests ]]; then
        tests_exe=$exe
        continue
    fi
    nm -P --defined-only "$exe" | awk '$2 == "T" || $2 == "t" { print $1 }' >> "$tmp/kept"
done < <(find "$build" -type f -perm -u+x -not -path '*/CMakeFiles/*' -print0)
sort -u -o "$tmp/kept" "$tmp/kept"
if [[ -n $tests_exe ]]; then
    nm -P --defined-only "$tests_exe" | awk '$2 == "T" { print $1, "tests" }' | sort -u > "$tmp/tests"
else
    : > "$tmp/tests"
fi

# The symbols no other executable keeps, as "name<TAB>demangled<TAB>object<TAB>
# tests|none", where name is the demangled name without its parameter list and
# "tests" means dbsp_tests keeps it. Constructor and destructor variants
# demangle alike and count once.
join -v 1 "$tmp/src" "$tmp/kept" | join -a 1 -e none -o 1.2,2.2,1.1 - "$tmp/tests" |
    while read -r obj where sym; do
        printf '%s\t%s\t%s\n' "$(c++filt "$sym")" "${obj#"$build"/}" "$where"
    done |
    awk -F'\t' -v OFS='\t' '{ name = $1; gsub(/\[abi:[^]]*\]/, "", name)
                               sub(/\(.*$/, "", name); print name, $0 }' |
    sort -t$'\t' -k2,2 -u > "$tmp/census"
awk -F'\t' 'NR == FNR { ok[$1] = 1; next } !($1 in ok)' "$tmp/allow" "$tmp/census" \
    > "$tmp/unlisted"

total=$(cut -d' ' -f1 "$tmp/src" | c++filt | sort -u | wc -l)
census=$(wc -l < "$tmp/census")
kept_by_none=$(awk -F'\t' '$4 == "none"' "$tmp/census" | wc -l)
unlisted=$(wc -l < "$tmp/unlisted")
echo "census: $total out-of-line functions in src/ objects, $nexe executables"
echo "census: $census kept only by dbsp_tests or by none ($kept_by_none by none)," \
     "$((census - unlisted)) allowlisted, $unlisted unlisted"
cut -f1 "$tmp/census" | sort -u | comm -13 - "$tmp/allow" |
    sed 's/^/census: allowlist entry names no census function: /'
if [[ $unlisted -ne 0 ]]; then
    awk -F'\t' '{ printf "  %-5s %s  [%s]\n", $4, $2, $3 }' "$tmp/unlisted"
    exit 1
fi
