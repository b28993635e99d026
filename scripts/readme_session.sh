#!/usr/bin/env bash
# Run the README quick-start session into a fresh directory: one
# `simulate` replays all five policies at alpha 0.5 so that every
# policy's files are covered, `report` reads the five result files back,
# and a second `simulate` adds DABT at alpha 0 and 1.  A second model,
# with 12 topics in run12, leaves cells of its cost grid unobserved, so
# its DABT and CosTriage replays cover the collaborative fill.  Then
# solve the four bundled backlog pools with both exact variants, and
# print a sha256 manifest of every file it writes (names relative to that
# directory, so two runs compare with diff).  Command output other than
# the solutions goes to stderr.
#
# usage: scripts/readme_session.sh OUT_DIR [COMMAND...]
#   COMMAND runs the CLI; it defaults to the installed `triagelab`
#   console script.  From a checkout without installing:
#     PYTHONPATH=src scripts/readme_session.sh /tmp/a python3 -m triagelab.cli
set -euo pipefail

out=$1
shift
if [ $# -eq 0 ]; then
    set -- triagelab
fi
rm -rf "$out"
mkdir -p "$out"
data="$out/bugs.jsonl"
common=(--data "$data" --boundary 365 --out "$out/run")

{
    python3 "$(dirname "$0")/generate_minicorpus.py" --out "$data"
    "$@" validate "$data"
    "$@" prepare "${common[@]}"
    "$@" train "${common[@]}" --topics 4 --lda-iters 20
    policies=(dabt cbr actual costriage rabt)
    "$@" simulate "${common[@]}" --policy "${policies[@]}" --end 730
    results=()
    for policy in "${policies[@]}"; do
        results+=("$out/run/result_${policy}_a0.5.json")
    done
    "$@" report --out "$out/run" "${results[@]}"
    "$@" simulate "${common[@]}" --policy dabt --alpha 0 1 --end 730
    run12=(--data "$data" --boundary 365 --out "$out/run12")
    "$@" train "${run12[@]}" --topics 12 --lda-iters 20
    "$@" simulate "${run12[@]}" --policy dabt costriage --end 730
} >&2
# The exact search's assignments and node counts at backlog scale
for size in 59 62 66 77; do
    pool="$(dirname "$0")/../tests/data/backlog_pool_$size.json"
    for variant in dabt rabt; do
        "$@" solve "$pool" --variant "$variant" > "$out/run/solve_pool${size}_$variant.json"
    done
done

cd "$out"
sha256sum bugs.jsonl run/* run12/*
