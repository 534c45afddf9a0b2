#!/usr/bin/env bash
# Prints one row of the EXPERIMENTS.md "Size ledger" for the checked-out
# commit: what the repository costs to read, build and ship (ROADMAP aim 2).
#
#   scripts/size_ledger.sh [label]           LoC columns only (what CI runs)
#   scripts/size_ledger.sh --build [label]   also a clean release build into
#                                            an empty target directory: wall
#                                            time and executable bytes
#
# Counts tracked files only (`git ls-files`), so stage new files first.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

build=0
if [ "${1:-}" = "--build" ]; then
    build=1
    shift
fi
label=${1:-$(git rev-parse --short HEAD)}

# Rust LoC outside benchmark/.
total=$(git ls-files -z '*.rs' ':!benchmark' | xargs -0 cat | wc -l)

# Non-test LoC per crate: the lines before the first `#[cfg(test)]` of each
# src/**/*.rs (the whole file when it has no test module).
non_test() {
    git ls-files -z "$1/src" | grep -z '\.rs$' |
        xargs -0 awk 'FNR == 1 { t = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'
}
per_crate=""
for dir in crates/*/; do
    dir=${dir%/}
    per_crate+="${dir#crates/} $(non_test "$dir"), "
done
per_crate+="root $(non_test .)"

# Members of the root [workspace] list.
members=$(awk '/^members *= *\[/ { m = 1 } m { n += gsub(/"[^"]*"/, "") } m && /\]/ { print n; exit }' Cargo.toml)

wall="not measured"
exes="not measured"
if [ "$build" = 1 ]; then
    target=$(mktemp -d)
    trap 'rm -rf "$target"' EXIT
    start=$(date +%s)
    CARGO_TARGET_DIR=$target cargo build --release --workspace --all-targets --offline --quiet
    secs=$(($(date +%s) - start))
    wall="$((secs / 60)) m $((secs % 60)) s"
    exes=$(find "$target/release" -maxdepth 1 -type f -perm -u+x -printf '%s %f\n' |
        awk '{ b += $1; f = f (NR > 1 ? ", " : "") "`" $2 "`" } END { printf "%d B (%d files: %s)", b, NR, f }')
fi

printf '| %s | %s | %s | %s | %s | %s |\n' "$label" "$total" "$per_crate" "$members" "$wall" "$exes"
