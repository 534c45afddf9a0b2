#!/usr/bin/env bash
# Runs the mutation catalog: each patch under tests/mutants/ breaks one
# invariant of the real code, and the test its MANIFEST line names must
# fail on it.
#
#   scripts/mutate.sh [--check] [name...]
#
# Exports HEAD once with `git archive` into ${TMPDIR:-/tmp}/retcon-mutate/src,
# with its own target directory beside it (kept and reused by later calls
# while HEAD is unchanged). Runs every manifest test on the unmutated export
# (all must pass), then for each named patch (default: all, in manifest
# order) applies it, runs its test in release, reports one of
#
#   caught             the test failed and its output has the manifest substring
#   wrong-failure      the test failed without it (or the mutant did not build)
#   survived           the test passed
#   no-longer-applies  `git apply --check` rejects the patch
#
# and restores the tree with `git apply -R`. Restoring never re-extracts:
# extracted files carry the commit's mtime, older than the mutant's build,
# so cargo would keep running the mutant. A second unmutated run of every
# manifest test ends the script and catches a stale build. Exits nonzero
# unless every mutant is caught and both unmutated runs pass.
#
# --check only runs `git apply --check` of every patch against the working
# tree, so a change that moves patched code fails fast.
#
# MANIFEST lines are `name | invariant | cargo test arguments | substring`;
# `#` starts a comment. The MANIFEST and patches are read from the working
# tree, so a new patch can be tried before it is committed.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

check=0
if [ "${1:-}" = "--check" ]; then
    check=1
    shift
fi

field() { # field <n> <line>: the n-th `|`-separated field, trimmed
    awk -F'|' -v n="$1" '{ gsub(/^[ \t]+|[ \t]+$/, "", $n); print $n }' <<<"$2"
}

catalog=tests/mutants
entries=$(grep -v '^[[:space:]]*\(#\|$\)' "$catalog/MANIFEST")
names=("$@")
if [ ${#names[@]} -eq 0 ]; then
    mapfile -t names < <(while IFS= read -r line; do field 1 "$line"; done <<<"$entries")
fi
entry() { # entry <name>: the manifest line of a patch
    local line
    while IFS= read -r line; do
        [ "$(field 1 "$line")" = "$1" ] && { echo "$line"; return; }
    done <<<"$entries"
    echo "mutate.sh: no manifest entry for $1" >&2
    exit 1
}

if [ $check -eq 1 ]; then
    status=0
    for name in "${names[@]}"; do
        entry "$name" >/dev/null
        if git apply --check "$catalog/$name.patch" 2>/dev/null; then
            echo "$name: applies"
        else
            echo "$name: no-longer-applies"
            status=1
        fi
    done
    exit $status
fi

base=${TMPDIR:-/tmp}/retcon-mutate
src=$base/src
head=$(git rev-parse HEAD)
# A stamp left by an interrupted run marks the export as possibly mutated.
if [ "$(cat "$base/head" 2>/dev/null)" != "$head" ] || [ -e "$base/applied" ]; then
    rm -rf "$src" "$base/applied"
    mkdir -p "$src"
    # -m: stamp files with the extraction time, so no earlier build of
    # another tree looks fresh to cargo.
    git archive HEAD | tar -x -m -C "$src"
    echo "$head" >"$base/head"
fi
export CARGO_TARGET_DIR=$base/target

run_test() { # run_test <cargo test args> <log>: exit status of the test
    # shellcheck disable=SC2086 # the selector is a word list on purpose
    (cd "$src" && cargo test --release --offline -q $1) >"$2" 2>&1
}

baseline() { # baseline <label>: every distinct manifest test passes unmutated
    local ok=0 sel
    while IFS= read -r sel; do
        if run_test "$sel" "$base/baseline.log"; then
            echo "baseline ($1): pass  $sel"
        else
            echo "baseline ($1): FAIL  $sel"
            tail -n 20 "$base/baseline.log"
            ok=1
        fi
    done < <(while IFS= read -r line; do field 3 "$line"; done <<<"$entries" | sort -u)
    return $ok
}

start=$(date +%s)
status=0
baseline first || status=1
for name in "${names[@]}"; do
    line=$(entry "$name")
    sel=$(field 3 "$line")
    want=$(field 4 "$line")
    patch=$PWD/$catalog/$name.patch
    if ! (cd "$src" && git apply --check "$patch" 2>/dev/null); then
        echo "$name: no-longer-applies"
        status=1
        continue
    fi
    (cd "$src" && git apply "$patch")
    echo "$name" >"$base/applied"
    log=$base/$name.log
    if run_test "$sel" "$log"; then
        result=survived
    elif grep -qF -- "$want" "$log"; then
        result=caught
    else
        result=wrong-failure
    fi
    (cd "$src" && git apply -R "$patch")
    rm "$base/applied"
    echo "$name: $result  ($(field 2 "$line"); $sel)"
    [ $result = caught ] || status=1
done
baseline final || status=1
echo "mutate.sh: $(($(date +%s) - start)) s, exit $status"
exit $status
