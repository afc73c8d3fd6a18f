#!/usr/bin/env bash
# Alternating parent-vs-change pairs of the end-to-end benchmark.
#
#   tools/bench_pairs.sh PARENT_SRC CHANGE_SRC WORKLOAD[,WORKLOAD...] SEED N
#
# PARENT_SRC and CHANGE_SRC are checkouts (repository roots): each run is
# `python3 benchmarks/e2e/run.py --workload WORKLOAD --seed SEED --trace 0`
# from its own checkout, which benchmarks the `src/` beside it.  Each
# workload of the comma-separated list gets N pairs, run one after the
# other, workload by workload; the parent goes first in even pairs and the
# change in odd ones, so neither side always meets the warmer host.
#
#   git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
#   tools/bench_pairs.sh /tmp/parent . paper-range 1 10
#   tools/bench_pairs.sh /tmp/parent . paper-point,churn-mixed 1 3
#
# Per workload, prints one line per run as it finishes, then for each
# end-to-end metric of CHANGE_SRC's BENCHMARK.json the q1 / median / q3
# of both sides, the ratio of the medians (change / parent), the pairs
# the change wins in the metric's better direction (ties count for
# neither side) and a verdict: `gain` when the change wins at least 9/10
# of the pairs and its median is better than the parent's by more than
# the parent's own q3 - q1, `identical` when every run of both sides
# reads the same, `unresolved` otherwise.  Fewer than 10 pairs are below
# that rule's minimum, and the table says so.  A run with `failed > 0` is
# flagged `FAILED OPS`, and any such run makes the exit status 1.  The
# last line is one strict-JSON list with an entry per workload, in list
# order: its seed and pairs, every run's result, and per metric both
# sides' q1 / median / q3, the ratio, the wins and the verdict.
set -euo pipefail

usage="usage: tools/bench_pairs.sh PARENT_SRC CHANGE_SRC WORKLOAD[,WORKLOAD...] SEED N"
[[ $# -eq 5 ]] || { echo "$usage" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
IFS=, read -r -a workloads <<<"$3"
seed=$4
pairs=$5
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "$usage (N must be a positive integer)" >&2; exit 2; }
for workload in "${workloads[@]}"; do
    [[ -n $workload ]] || { echo "$usage (empty workload name)" >&2; exit 2; }
done
for tree in "$parent" "$change"; do
    [[ -f $tree/benchmarks/e2e/run.py ]] || { echo "no benchmarks/e2e/run.py in $tree" >&2; exit 2; }
done

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT

# run WORKLOAD SIDE PAIR: one benchmark run; its last line (the JSON
# result) is kept.
run() {
    local workload=$1 side=$2 pair=$3 tree
    if [[ $side == parent ]]; then tree=$parent; else tree=$change; fi
    (cd "$tree" && python3 benchmarks/e2e/run.py --workload "$workload" \
        --seed "$seed" --trace 0) | tail -n 1 >"$runs/$workload/$side-$pair.json"
    python3 - "$runs/$workload/$side-$pair.json" "$side" "$pair" <<'EOF'
import json, sys

path, side, pair = sys.argv[1:]
result = json.load(open(path))
metrics = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
flag = "  FAILED OPS" if result["failed"] else ""
print(f"pair {pair:>2} {side:<6} {metrics} attempted={result['attempted']} "
      f"failed={result['failed']}{flag}", flush=True)
EOF
}

# summarize WORKLOAD: the table of its pairs; its comparison (one JSON
# object) goes to $runs/WORKLOAD.json; status 1 if a run failed an op.
summarize() {
    python3 - "$runs/$1" "$pairs" "$change/BENCHMARK.json" "$1" "$seed" <<'EOF'
import json, statistics, sys
from pathlib import Path

runs, pairs, spec = Path(sys.argv[1]), int(sys.argv[2]), json.load(open(sys.argv[3]))
workload, seed = sys.argv[4], int(sys.argv[5])
results = {
    side: [json.loads((runs / f"{side}-{i}.json").read_text()) for i in range(pairs)]
    for side in ("parent", "change")
}


def quartiles(values):
    if len(values) < 2:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


summary = {}
print(f"\n{workload}, seed {seed}:\n{'metric':<20}{'parent q1 / median / q3':>36}{'change q1 / median / q3':>36}"
      f"{'ratio':>8}{'wins':>8}  verdict")
for entry in spec["end_to_end"]:
    name, higher = entry["name"], entry["better"] == "higher"
    parent = [r["metrics"][name]["value"] for r in results["parent"]]
    change = [r["metrics"][name]["value"] for r in results["change"]]
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    side = {
        label: " / ".join(f"{v:.6g}" for v in quartiles(values))
        for label, values in (("parent", parent), ("change", change))
    }
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    ratio = c_med / p_med if p_med else None
    gain = (c_med - p_med) if higher else (p_med - c_med)
    if parent == change:
        verdict = "identical"
    elif 10 * wins >= 9 * pairs and gain > p_q3 - p_q1:
        verdict = "gain"
    else:
        verdict = "unresolved"
    ratio_text = "n/a" if ratio is None else f"{ratio:.3f}"
    print(f"{name:<20}{side['parent']:>36}{side['change']:>36}{ratio_text:>8}"
          f"{f'{wins}/{pairs}':>8}  {verdict}")
    summary[name] = {
        "better": entry["better"],
        "parent": dict(zip(("q1", "median", "q3"), quartiles(parent))),
        "change": dict(zip(("q1", "median", "q3"), quartiles(change))),
        "ratio": ratio,
        "wins": wins,
        "verdict": verdict,
    }
if pairs < 10:
    print(f"note: {pairs} pairs; the gain rule asks for at least 10")
failed = [
    f"{side} pair {i}" for side, rows in results.items()
    for i, row in enumerate(rows) if row["failed"]
]
if failed:
    print(f"FAILED OPS in: {', '.join(failed)}")
Path(f"{runs}.json").write_text(json.dumps(
    {"workload": workload, "seed": seed, "pairs": pairs, "runs": results,
     "metrics": summary, "failed": failed},
    allow_nan=False, separators=(",", ":"),
))
sys.exit(1 if failed else 0)
EOF
}

status=0
for workload in "${workloads[@]}"; do
    mkdir -p "$runs/$workload"
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run "$workload" parent "$i"; run "$workload" change "$i"
        else
            run "$workload" change "$i"; run "$workload" parent "$i"
        fi
    done
    summarize "$workload" || status=1
done

# The last line: every workload's comparison, as one strict-JSON list.
python3 - "$runs" "${workloads[@]}" <<'EOF'
import sys

runs, workloads = sys.argv[1], sys.argv[2:]
print("[" + ",".join(open(f"{runs}/{w}.json").read() for w in workloads) + "]")
EOF
exit "$status"
