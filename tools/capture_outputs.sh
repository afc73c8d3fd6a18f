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
capture check-named check --systems lorm sword --seed 0
capture check-seed1 check --systems all --seed 1 --queries 12 --churn-events 6
capture check-no-churn check --churn-events 0 --queries 3
# Long join/leave/fail runs between stabilizations: one replication-2 storm
# of 40 events per system, 168 guarded events over the four systems (the
# final stabilization and repair included) -- the path the departures' row
# drops and the bucket handover take.
capture check-churn check --systems all --seed 2 --churn-events 40
capture all all --scale smoke --out "$out/all"
capture all-parallel all --scale smoke --parallel 2 --out "$out/all-parallel"
capture run run fig4a fig6a --seed 3 --lph linear --invariants --out "$out/run"
for gate in chaos durability tail hotspot tradeoff; do
    capture "$gate" "$gate" --smoke --seed 0 --out "$out/$gate"
done
# The hotspot gate at a second seed: its dynamic cells place and read
# hot keys on a different schedule.
capture hotspot-seed1 hotspot --smoke --seed 1 --out "$out/hotspot-seed1"
# The durability sweep under an erasure code with every join, leave, fail
# and repair guarded: joins and leaves must conserve the decodable census.
capture durability-guarded durability --smoke --seed 0 --invariants --policies erasure:2+1
capture availability availability --scale smoke --out "$out/availability"
capture scale scale --smoke --seed 0 --out "$out/scale"
# A long mixed join/leave/fail storm on the compact core: its per-event
# maintenance-message accounting, pinned byte for byte.
capture scale-churn scale --smoke --seed 0 --churn-events 300 --out "$out/scale-churn"

# Help text: the top-level parser and every subcommand, at a fixed width.
for cmd in "" list run all availability chaos durability hotspot tradeoff tail \
    scale trace report check; do
    COLUMNS=100 capture "help${cmd:+-$cmd}" $cmd --help
done

# Traces: every system on its native substrate, flat LORM, lossy replays on
# Cycloid, on Chord (with failover) and on the single-hop tier, the
# single-hop and ReCord routing tiers hop by hop, and the point and at-least
# query shapes over several queries and attributes.
for format in tree jsonl chrome; do
    for system in lorm mercury sword maan; do
        capture "trace-$system.$format" trace --system "$system" --seed 0 --format "$format"
    done
    capture "trace-mercury-point.$format" trace --system mercury --seed 0 \
        --kind point --queries 3 --attributes 3 --format "$format"
    capture "trace-maan-at-least.$format" trace --system maan --seed 0 \
        --kind at-least --queries 2 --format "$format"
    capture "trace-lorm-chord.$format" \
        trace --system lorm --overlay chord --seed 0 --format "$format"
    capture "trace-lorm-loss.$format" \
        trace --system lorm --seed 0 --loss 0.1 --format "$format"
    capture "trace-sword-loss.$format" \
        trace --system sword --seed 0 --queries 4 --loss 0.5 --format "$format"
    capture "trace-maan-singlehop.$format" \
        trace --system maan --overlay singlehop --seed 0 --format "$format"
    capture "trace-maan-singlehop-loss.$format" \
        trace --system maan --overlay singlehop --seed 0 --loss 0.1 --format "$format"
    capture "trace-sword-record.$format" \
        trace --system sword --overlay record --fanout 4 --seed 0 --format "$format"
done

# The `scale` figure reports wall-clock and memory beside its seeded columns.
for run in all all-parallel scale scale-churn; do
    rm -f "$out/$run/scale_table.json"
    sed -i '/^note: n=[0-9]*: built in /d' "$out/$run.stdout" "$out/$run/scale.txt"
done

# `report` over a copy of the stripped `all` tree; only REPORT.md is kept,
# and the path it prints is made relative to DIR.
rm -rf "$out/report"
cp -r "$out/all" "$out/report"
capture report report --out "$out/report"
find "$out/report" -type f ! -name REPORT.md -delete
sed -i "s|$out/||" "$out/report.stdout"

# Serial == parallel, file for file.
diff -r "$out/all" "$out/all-parallel" >&2
status=$?
echo "all-vs-all-parallel $status" >>"$out/exit_codes"
exit $status
