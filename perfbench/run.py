#!/usr/bin/env python3
"""triagelab benchmark.

    python3 perfbench/run.py --workload {mini,deps,solve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Inputs come from the seed
alone; the program sees only the files written under .perfbench_out/.

A run sets up its inputs several times (the median is ``setup_s``),
then measures whole passes over the workload's operations: at least one,
and no further pass once it is expected to end after ``--seconds``.
``session_s`` is the median pass.  At 30 seconds (BENCHMARK.json) mini
measures one pass of 17-29 s of wall time, so its ``session_s`` is that
single pass; deps measures two passes of 15-24 s and solve two to four
of 6-14 s.  Both times are scaled to a reference host speed sampled
throughout the run (see hostspeed.py); the wall times are printed above
the result.  Each CLI command or standalone solve is one operation:

- mini:  ``prepare`` + ``train`` and ``simulate`` for all five policies,
  every policy from freshly loaded artifacts, as separate CLI runs do.
- deps:  set-up also trains; a pass simulates cbr and dabt.
- solve: read, parse and solve every instance of the family with DABT
  and with RABT.

Checks run after the timed passes.  With ``--trace 1`` every public
function of each layer is timed from outside (see tracer.py), at least
two passes run, and the deterministic counters must repeat exactly;
``trace.session_s`` minus the untraced ``session_s`` of the same seed
is the tracing overhead.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("mini", "deps", "solve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "triagelab" / "__init__.py").is_file():
        print(f"error: no triagelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("TRIAGELAB_")]:
        del os.environ[key]  # every CLI flag is passed explicitly
    # Dropped cycle-closing arcs are counted by the trace, not printed.
    logging.getLogger("triagelab").setLevel(logging.ERROR)

    from bench import Bench
    from hostspeed import HostMeter
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    meter = HostMeter()
    meter.start()
    result = Bench(args.workload, args.seed, work, tracer, units, meter).run(args.seconds)
    if tracer:
        tracer.write(OUT / f"trace_{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
