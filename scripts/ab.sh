#!/usr/bin/env bash
# Interleaved A/B of `retcon-run` between a revision and the working tree.
#
#   scripts/ab.sh <rev> [pairs] -- <retcon-run args...>
#
# Builds `retcon-run` twice: at <rev>, from a clean export of the revision
# into ${TMPDIR:-/tmp}/retcon-ab/<sha> with its own target directory (kept
# and reused by later calls), and from the working tree. Then runs <pairs>
# (default 10) interleaved pairs in ABBA order — even pairs run the
# revision first, odd pairs the working tree — with the run's output
# discarded, and prints per side the median and quartiles of
#
#   * child CPU seconds: user + system time of the run, from wait4;
#   * peak RSS: the largest VmHWM read from /proc while the run is alive,
#     polled every 2 ms (wait4's ru_maxrss would include the resident set
#     of the interpreter that spawned the run), so growth in a run's last
#     two milliseconds can be missed;
#
# and in how many pairs the working tree was faster and smaller. A run
# that exits nonzero stops the comparison.
#
# Example: scripts/ab.sh HEAD~1 10 -- -w python -c 32 -s RetCon
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

usage() {
    echo "usage: scripts/ab.sh <rev> [pairs] -- <retcon-run args...>" >&2
    exit 1
}
[ $# -ge 2 ] || usage
rev=$(git rev-parse --verify --quiet "$1^{commit}") ||
    { echo "ab.sh: no such revision: $1" >&2; exit 1; }
shift
pairs=10
if [ "$1" != "--" ]; then
    pairs=$1
    shift
fi
[ "${1:-}" = "--" ] || usage
shift
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: pairs must be a positive integer" >&2; exit 1; }

build_args=(build --release --offline --quiet -p retcon-workloads --bin retcon-run)

base=${TMPDIR:-/tmp}/retcon-ab/$rev
if [ ! -x "$base/target/release/retcon-run" ]; then
    rm -rf "$base/src"
    mkdir -p "$base/src"
    git archive "$rev" | tar -x -C "$base/src"
    (cd "$base/src" && CARGO_TARGET_DIR=$base/target cargo "${build_args[@]}")
fi
cargo "${build_args[@]}"
# A copy, so a rebuild of the working tree during the runs changes nothing.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cp target/release/retcon-run "$work/retcon-run"

python3 - "$pairs" "$(git rev-parse --short "$rev")" "$base/target/release/retcon-run" \
    "$work/retcon-run" "$@" <<'EOF'
import os, statistics, subprocess, sys, time

pairs, label, rev_bin, work_bin, args = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]

def run(binary):
    """(child CPU seconds, peak RSS MiB) of one run."""
    p = subprocess.Popen([binary] + args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    hwm_kib = 0
    while True:
        try:
            with open(f"/proc/{p.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        hwm_kib = max(hwm_kib, int(line.split()[1]))
        except OSError:
            pass
        pid, code, ru = os.wait4(p.pid, os.WNOHANG)
        if pid:
            break
        time.sleep(0.002)
    if code != 0:
        sys.exit(f"ab.sh: {binary} {' '.join(args)} exited with status {code}")
    return ru.ru_utime + ru.ru_stime, hwm_kib / 1024

runs = {"rev": [], "work": []}
for i in range(pairs):
    for side in ("rev", "work") if i % 2 == 0 else ("work", "rev"):
        runs[side].append(run(rev_bin if side == "rev" else work_bin))

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q1, q3

print(f"retcon-run {' '.join(args)}: {pairs} pairs, ABBA")
print(f"{'side':<10} {'cpu_s median [q1, q3]':>30} {'peak_rss_MiB median [q1, q3]':>32}")
for side, name in (("rev", label), ("work", "worktree")):
    cpu = quartiles([c for c, _ in runs[side]])
    rss = quartiles([r for _, r in runs[side]])
    print(f"{name:<10} {cpu[0]:>12.4f} [{cpu[1]:.4f}, {cpu[2]:.4f}] {rss[0]:>12.1f} [{rss[1]:.1f}, {rss[2]:.1f}]")
faster = sum(w[0] < r[0] for r, w in zip(runs["rev"], runs["work"]))
smaller = sum(w[1] < r[1] for r, w in zip(runs["rev"], runs["work"]))
cpu_ratio = quartiles([c for c, _ in runs["work"]])[0] / quartiles([c for c, _ in runs["rev"]])[0]
rss_ratio = quartiles([r for _, r in runs["work"]])[0] / quartiles([r for _, r in runs["rev"]])[0]
print(f"worktree/{label}: cpu {cpu_ratio:.3f}, rss {rss_ratio:.3f}; "
      f"worktree faster in {faster}/{pairs} pairs, smaller in {smaller}/{pairs}")
EOF
