#!/usr/bin/env bash
# Time the tier-1 suite of the checkout in the current directory.
#
#   tools/tier1_time.sh N
#
# Runs `python -m pytest -x -q` with PYTHONPATH=src N times and prints one
# strict-JSON object: per run its wall time, pytest's exit status, the
# number of timed phases and their sum (`--durations=0 --durations-min=0`:
# setup + call + teardown of every test), then the median wall time and
# the median summed durations.  It reports and never gates: the exit status
# is 0 whatever the runs do.  To compare two checkouts, alternate them:
#
#   for i in 1 2 3; do
#       (cd /path/to/parent && /path/to/change/tools/tier1_time.sh 1)
#       (cd /path/to/change && tools/tier1_time.sh 1)
#   done
set -uo pipefail

runs=${1:?usage: tools/tier1_time.sh N}
log=$(mktemp)
trap 'rm -f "$log" "$log".*' EXIT

for ((i = 0; i < runs; i++)); do
    start=$(date +%s.%N)
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q -p no:cacheprovider \
        --durations=0 --durations-min=0 >"$log.$i" 2>&1
    status=$?
    end=$(date +%s.%N)
    echo "$i $status $start $end" >>"$log"
done

python - "$log" <<'EOF'
import json
import re
import statistics
import sys

log = sys.argv[1]
phase = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown) ")
runs = []
for line in open(log):
    index, status, start, end = line.split()
    durations = [
        float(m.group(1)) for m in map(phase.match, open(f"{log}.{index}")) if m
    ]
    runs.append({
        "wall_s": round(float(end) - float(start), 2),
        "exit_status": int(status),
        "timed_phases": len(durations),
        "durations_sum_s": round(sum(durations), 2),
    })
print(json.dumps({
    "runs": runs,
    "median_wall_s": round(statistics.median(r["wall_s"] for r in runs), 2),
    "median_durations_sum_s": round(
        statistics.median(r["durations_sum_s"] for r in runs), 2
    ),
}, indent=2))
EOF
exit 0
