#!/usr/bin/env python3
"""Replay a backlog-scale corpus under DABT and dump its large pools.

    python3 scripts/dump_pools.py OUT_DIR

Generates the seed-7 ``MiniCorpusSpec(test_rate_per_topic=0.5)`` corpus,
trains on it (``--topics 4 --lda-iters 20``, boundary 365) and replays
DABT to day 730, all into a fresh OUT_DIR.  Every assignment instance
of at least 50 bugs handed to the exact search is written as
``pools/pool_<solve>_<bugs>.json``, where ``<solve>`` numbers the
replay's solves from 0; the backlog pools in ``tests/data`` come from
here.  Prints a sha256 manifest of every file it writes (names
relative to OUT_DIR, so two runs compare with diff); the CLI's own
output goes to stderr.  Run from a checkout with ``PYTHONPATH=src`` or
with the package installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import sys
from pathlib import Path

from triagelab import cli, policies
from triagelab.minicorpus import MiniCorpusSpec, generate, write_jsonl

SPEC = MiniCorpusSpec(seed=7, test_rate_per_topic=0.5)
MIN_BUGS = 50


def main(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    (out / "pools").mkdir(parents=True)
    data = out / "bugs.jsonl"
    write_jsonl(generate(SPEC), data)
    common = ["--data", str(data), "--boundary", str(SPEC.boundary_day), "--out", str(out / "run")]
    solve_dabt = policies.solve_dabt
    solves = 0

    def dumping(instance):
        nonlocal solves
        if len(instance.bugs) >= MIN_BUGS:
            name = f"pool_{solves:04d}_{len(instance.bugs)}.json"
            (out / "pools" / name).write_text(instance.to_json())
        solves += 1
        return solve_dabt(instance)

    with contextlib.redirect_stdout(sys.stderr):
        for argv in (
            ["prepare", *common],
            ["train", *common, "--topics", "4", "--lda-iters", "20"],
        ):
            if cli.dispatch(argv) != 0:
                raise SystemExit(f"{argv[0]} failed")
        policies.solve_dabt = dumping
        try:
            argv = ["simulate", *common, "--policy", "dabt", "--end", str(SPEC.end_day)]
            if cli.dispatch(argv) != 0:
                raise SystemExit("simulate failed")
        finally:
            policies.solve_dabt = solve_dabt
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(Path(sys.argv[1]))
