#!/usr/bin/env bash
# Capture every seeded, deterministic output of the `repro` CLI into DIR.
#
#   tools/capture_outputs.sh DIR
#
# Drives `python -m repro` under the caller's PYTHONPATH, so the one
# script captures any checkout:
#
#   PYTHONPATH=/path/to/parent-clone/src tools/capture_outputs.sh /tmp/a
#   PYTHONPATH=src                       tools/capture_outputs.sh /tmp/b
#   diff -r /tmp/a /tmp/b      # empty = byte-identical vs parent
#
# Two runs of the same checkout are the determinism check CI makes.
# Each command's stdout lands in DIR/<name>.stdout, its exit code in
# DIR/exit_codes, its --out tree in DIR/<name>/.  stderr is dropped: it
# carries only the "[scale, seed] done in 1.2s" progress lines.  The
# wall-clock and memory readings of the `scale` figure and subcommand are
# stripped; everything left must not move under a refactor.  `--help` of
# the parser and of every subcommand is captured at COLUMNS=100.
#
# `all` is captured twice, serially and with `--parallel 2`: the two --out
# trees must be the same bytes (a figure has one output per seed, whatever
# produced it).  The status of that `diff -r` is the last line of
# DIR/exit_codes and this script's own exit status.
set -uo pipefail

out=${1:?usage: tools/capture_outputs.sh DIR}
mkdir -p "$out"
out=$(cd "$out" && pwd)

# capture NAME ARGS...: stdout + exit code of `repro ARGS...`.
: >"$out/exit_codes"
capture() {
    local name=$1
    shift
    python -m repro "$@" >"$out/$name.stdout" 2>/dev/null
    echo "$name $?" >>"$out/exit_codes"
}

capture list list
capture check check --systems all --seed 0
capture all all --scale smoke --out "$out/all"
capture all-parallel all --scale smoke --parallel 2 --out "$out/all-parallel"
capture run run fig4a fig6a --seed 3 --lph linear --invariants --out "$out/run"
for gate in chaos durability tail hotspot tradeoff; do
    capture "$gate" "$gate" --smoke --seed 0 --out "$out/$gate"
done
capture availability availability --scale smoke --out "$out/availability"
capture scale scale --smoke --seed 0 --out "$out/scale"

# Help text: the top-level parser and every subcommand, at a fixed width.
for cmd in "" list run all availability chaos durability hotspot tradeoff tail \
    scale trace report check; do
    COLUMNS=100 capture "help${cmd:+-$cmd}" $cmd --help
done

# Traces: every system on its native substrate, flat LORM, one lossy replay,
# and the single-hop and ReCord routing tiers hop by hop.
for format in tree jsonl chrome; do
    for system in lorm mercury sword maan; do
        capture "trace-$system.$format" trace --system "$system" --seed 0 --format "$format"
    done
    capture "trace-lorm-chord.$format" \
        trace --system lorm --overlay chord --seed 0 --format "$format"
    capture "trace-lorm-loss.$format" \
        trace --system lorm --seed 0 --loss 0.1 --format "$format"
    capture "trace-maan-singlehop.$format" \
        trace --system maan --overlay singlehop --seed 0 --format "$format"
    capture "trace-sword-record.$format" \
        trace --system sword --overlay record --fanout 4 --seed 0 --format "$format"
done

# The `scale` figure reports wall-clock and memory beside its seeded columns.
for run in all all-parallel scale; do
    rm -f "$out/$run/scale_table.json"
    sed -i '/^note: n=[0-9]*: built in /d' "$out/$run.stdout" "$out/$run/scale.txt"
done

# Serial == parallel, file for file.
diff -r "$out/all" "$out/all-parallel" >&2
status=$?
echo "all-vs-all-parallel $status" >>"$out/exit_codes"
exit $status
