#!/usr/bin/env bash
# Prints one row of the EXPERIMENTS.md "Size ledger" for the checked-out
# commit: what the repository costs to read, build and ship (ROADMAP aim 2).
#
#   scripts/size_ledger.sh [label]           LoC columns only (what CI runs)
#   scripts/size_ledger.sh --build [label]   also a clean release build into
#                                            an empty target directory: wall
#                                            time and executable bytes
#   scripts/size_ledger.sh --against <rev>   no row: the non-test LoC of each
#                                            crate at <rev> and here, and the
#                                            difference
#
# Counts tracked files only (`git ls-files`), so stage new files first.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Non-test LoC under a source directory: the lines before the first
# `#[cfg(test)]` of each **/*.rs (the whole file when it has no test
# module). Reads the checkout's tracked files, or revision $2 when given.
non_test() {
    local src=$1 rev=${2:-} f
    if [ -n "$rev" ]; then
        git ls-tree -r -z --name-only "$rev" -- "$src"
    else
        git ls-files -z "$src"
    fi | { grep -z '\.rs$' || true; } |
        while IFS= read -r -d '' f; do
            if [ -n "$rev" ]; then git show "$rev:$f"; else cat "$f"; fi
            echo '=== size_ledger: next file ==='
        done |
        awk '/^=== size_ledger: next file ===$/ { t = 0; next }
             /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'
}

if [ "${1:-}" = "--against" ]; then
    rev=$(git rev-parse --verify --quiet "${2:?--against needs a revision}^{commit}") ||
        { echo "size_ledger.sh: no such revision: $2" >&2; exit 1; }
    printf '%-10s %8s %8s %7s\n' crate "$(git rev-parse --short "$rev")" here delta
    sum_then=0
    sum_now=0
    for crate in $({ ls crates; git ls-tree --name-only "$rev" crates/ | sed 's,^crates/,,'; } | sort -u) root; do
        src=crates/$crate/src
        [ "$crate" = root ] && src=src
        then=$(non_test "$src" "$rev")
        now=$(non_test "$src")
        printf '%-10s %8d %8d %+7d\n' "$crate" "$then" "$now" $((now - then))
        sum_then=$((sum_then + then))
        sum_now=$((sum_now + now))
    done
    printf '%-10s %8d %8d %+7d\n' total "$sum_then" "$sum_now" $((sum_now - sum_then))
    exit 0
fi

build=0
if [ "${1:-}" = "--build" ]; then
    build=1
    shift
fi
label=${1:-$(git rev-parse --short HEAD)}

# Rust LoC outside benchmark/.
total=$(git ls-files -z '*.rs' ':!benchmark' | xargs -0 cat | wc -l)

per_crate=""
for dir in crates/*/; do
    dir=${dir%/}
    per_crate+="${dir#crates/} $(non_test "$dir/src"), "
done
per_crate+="root $(non_test src)"

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
