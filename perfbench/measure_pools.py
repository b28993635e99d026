#!/usr/bin/env python3
"""Measure the daily assignment instances that RABT and DABT replays build.

    python3 perfbench/measure_pools.py --seeds 1 2 3 4 5

Run from the root of a source checkout.  For each seed it trains on the
mini and the deps corpus as the benchmark does, replays rabt and dabt,
records every instance handed to the solver and prints, over the
instances with at least one bug: the pool sizes and arcs, and for the
mini corpus's experts and for the other developers the quantiles of
remaining capacity, cost and suitability.  It also prints how many
distinct cost rows each replay's bugs carry (one per topic, as costs
depend on the bug's topic only).  The ``solve`` workload draws its
instances from the quantiles printed under "both"
(workloads.EXPERTS and workloads.OTHERS).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import logging
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out" / "pools"
QUANTILES = np.linspace(0.0, 1.0, 21)


def replay_instances(records, work: Path, end: int) -> list:
    from bench import ALPHA, TRAIN_FLAGS
    from triagelab import cli, policies

    import workloads

    corpus = workloads.write_corpus(records, work)
    common = ("--data", corpus, "--boundary", workloads.BOUNDARY, "--out", work)
    seen = []
    originals = {name: getattr(policies, name) for name in ("solve_dabt", "solve_rabt")}

    def recording(name, fn):
        def wrapper(instance):
            seen.append((name, instance))
            return fn(instance)
        return wrapper

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (("prepare", *common), ("train", *common, *TRAIN_FLAGS)):
            assert cli.dispatch([str(a) for a in argv]) == 0, argv
        for name, fn in originals.items():
            setattr(policies, name, recording(name, fn))
        try:
            for policy in ("rabt", "dabt"):
                argv = ("simulate", *common, "--policy", policy, "--alpha", ALPHA,
                        "--end", end, "--seed", "0")
                assert cli.dispatch([str(a) for a in argv]) == 0, argv
        finally:
            for name, fn in originals.items():
                setattr(policies, name, fn)
    return seen


def summary(seen) -> str:
    """Quantiles over the instances with at least one bug, for the
    experts (EXPERT_IDS) and for the other developers separately; arcs
    over the DABT instances, as RABT drops them."""
    from triagelab.minicorpus import EXPERT_IDS

    instances = [inst for _, inst in seen if inst.bugs]
    sizes = np.bincount([len(inst.bugs) for inst in instances])
    fmt = lambda values: " ".join(f"{v:.4g}" for v in np.quantile(values, QUANTILES))
    dabt = [inst for name, inst in seen if name == "solve_dabt"]
    arcs = sum(len(inst.precedence) for inst in dabt)
    pairs = sum(len(inst.bugs) * (len(inst.bugs) - 1) // 2 for inst in dabt)
    lines = [
        f"{len(instances)} instances with bugs; bugs per instance 1..{len(sizes) - 1}: "
        f"{' '.join(map(str, sizes[1:]))}; DABT: {arcs} arcs over {pairs} bug pairs",
    ]
    for group, member in (("experts", True), ("others", False)):
        caps, costs, suits, maxima = [], [], [], 0
        for inst in instances:
            cols = [k for k, (dev, _) in enumerate(inst.developers)
                    if (dev in EXPERT_IDS) == member]
            caps += [inst.developers[k][1] for k in cols]
            for bug in inst.bugs:
                top = max(bug.s)
                maxima += bug.s.index(top) in cols
                costs += [bug.c[k] for k in cols]
                suits += [bug.s[k] for k in cols if bug.s[k] < top]
        lines += [
            f"{group}: row maximum (1) in this group for {maxima} bugs",
            f"  capacity quantiles 0, 0.05, ..., 1: {fmt(caps)}",
            f"  cost quantiles: {fmt(costs)}",
            f"  suitability quantiles, row maximum left out: {fmt(suits)}",
        ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    logging.getLogger("triagelab").setLevel(logging.ERROR)
    import workloads

    found = {"mini": [], "deps": []}
    for seed in args.seeds:
        for name in found:
            work = OUT / f"{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            if name == "mini":
                records, end = workloads.mini_records(seed), workloads.END
            else:
                records, end = workloads.deps_records(seed)[0], workloads.DEPS_END
            seen = replay_instances(records, work, end)
            rows = {bug.c for _, inst in seen for bug in inst.bugs}
            print(f"{name} seed {seed}: {len(rows)} distinct cost rows")
            found[name] += seen
    for name, instances in found.items():
        print(f"{name}, seeds {' '.join(map(str, args.seeds))}:\n{summary(instances)}")
    print(f"both:\n{summary(found['mini'] + found['deps'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
