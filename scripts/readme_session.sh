#!/usr/bin/env bash
# Run the README quick-start session into a fresh directory and print a
# sha256 manifest of every file it writes (names relative to that
# directory, so two runs compare with diff).  Command output goes to
# stderr.
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
    "$@" simulate "${common[@]}" --policy dabt --end 730
    "$@" simulate "${common[@]}" --policy cbr --end 730
    "$@" report --out "$out/run" "$out/run/result_dabt_a0.5.json" "$out/run/result_cbr_a0.5.json"
} >&2

cd "$out"
sha256sum bugs.jsonl run/*
