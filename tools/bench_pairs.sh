#!/usr/bin/env bash
# Alternating parent-vs-change pairs of the end-to-end benchmark.
#
#   tools/bench_pairs.sh PARENT_SRC CHANGE_SRC WORKLOAD SEED N
#
# PARENT_SRC and CHANGE_SRC are checkouts (repository roots): each run is
# `python3 benchmarks/e2e/run.py --workload WORKLOAD --seed SEED --trace 0`
# from its own checkout, which benchmarks the `src/` beside it.  N pairs
# run one after the other; the parent goes first in even pairs and the
# change in odd ones, so neither side always meets the warmer host.
#
#   git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
#   tools/bench_pairs.sh /tmp/parent . paper-range 1 10
#
# Prints one line per run as it finishes, then for each end-to-end metric
# of CHANGE_SRC's BENCHMARK.json the q1 / median / q3 of both sides, the
# ratio of the medians (change / parent), the pairs the change wins in
# the metric's better direction (ties count for neither side) and a
# verdict: `gain` when the change wins at least 9/10 of the pairs and its
# median is better than the parent's by more than the parent's own
# q3 - q1, `identical` when every run of both sides reads the same,
# `unresolved` otherwise.  Fewer than 10 pairs are below that
# rule's minimum, and the table says so.  A run with `failed > 0` is
# flagged `FAILED OPS`, and any such run makes the exit status 1.  The
# last line is strict JSON: every run's result, and per metric both sides'
# q1 / median / q3, the ratio, the wins and the verdict.
set -euo pipefail

usage="usage: tools/bench_pairs.sh PARENT_SRC CHANGE_SRC WORKLOAD SEED N"
[[ $# -eq 5 ]] || { echo "$usage" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed=$4
pairs=$5
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "$usage (N must be a positive integer)" >&2; exit 2; }
for tree in "$parent" "$change"; do
    [[ -f $tree/benchmarks/e2e/run.py ]] || { echo "no benchmarks/e2e/run.py in $tree" >&2; exit 2; }
done

runs=$(mktemp -d)
trap 'rm -rf "$runs"' EXIT

# run SIDE PAIR: one benchmark run; its last line (the JSON result) is kept.
run() {
    local side=$1 pair=$2 tree
    if [[ $side == parent ]]; then tree=$parent; else tree=$change; fi
    (cd "$tree" && python3 benchmarks/e2e/run.py --workload "$workload" \
        --seed "$seed" --trace 0) | tail -n 1 >"$runs/$side-$pair.json"
    python3 - "$runs/$side-$pair.json" "$side" "$pair" <<'EOF'
import json, sys

path, side, pair = sys.argv[1:]
result = json.load(open(path))
metrics = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
flag = "  FAILED OPS" if result["failed"] else ""
print(f"pair {pair:>2} {side:<6} {metrics} attempted={result['attempted']} "
      f"failed={result['failed']}{flag}", flush=True)
EOF
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run parent "$i"; run change "$i"
    else
        run change "$i"; run parent "$i"
    fi
done

python3 - "$runs" "$pairs" "$change/BENCHMARK.json" "$workload" "$seed" <<'EOF'
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
print(f"\n{'metric':<20}{'parent q1 / median / q3':>36}{'change q1 / median / q3':>36}"
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
# The last line: the whole comparison as strict JSON.
print(json.dumps(
    {"workload": workload, "seed": seed, "pairs": pairs, "runs": results,
     "metrics": summary, "failed": failed},
    allow_nan=False, separators=(",", ":"),
))
sys.exit(1 if failed else 0)
EOF
