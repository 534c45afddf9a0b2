#!/usr/bin/env bash
# Runs a command with its stdout discarded and prints its peak resident
# set size in KiB: the kernel's VmHWM high-water mark, polled from
# /proc/<pid>/status every 10 ms while the command is alive, so no
# /usr/bin/time is needed (growth in the last 10 ms can be missed). Exits
# with the command's status when that is nonzero, printing nothing.
#
#   scripts/peak_rss.sh <cmd> [args...]
#
# Run a built binary, not `cargo run`, or the peak is cargo's.
# Example: scripts/peak_rss.sh target/release/retcon-run -w python -c 32 -s RetCon
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: scripts/peak_rss.sh <cmd> [args...]" >&2; exit 1; }

"$@" > /dev/null &
pid=$!
peak=0
while status=$(cat "/proc/$pid/status" 2>/dev/null) && ! grep -q '^State:.*Z' <<< "$status"; do
    hwm=$(awk '/^VmHWM:/ { print $2 }' <<< "$status")
    if [ -n "$hwm" ] && [ "$hwm" -gt "$peak" ]; then peak=$hwm; fi
    sleep 0.01
done
wait "$pid"
echo "$peak"
