#!/usr/bin/env python3
"""Check metamorphic relations of the exact solver on assignment pools.

    python3 scripts/check_relations.py POOL...

Each POOL is an instance file as ``triagelab solve`` reads it.  Each
relation turns a pool into one whose solution must be the same: the
same assignments, the same objective to the last bit (``float.hex``)
and the same node count.  Under DABT and under RABT:

1. shuffle: the bug rows and the developer columns in another order,
   each row and column keeping its id;
2. double: every cost and every capacity times 2;
3. idle developer: one more developer with capacity 0, suitability 0.5
   and each row's largest cost, so that no row's largest suitability or
   smallest cost moves.

And across the two:

4. DABT with alpha 1 and no precedence arcs is RABT, node count
   included.

A shuffle is seeded by the pool's file name, so a pool is checked the
same way whichever pools are listed with it.  Prints the number of
checks and exits 0, or exits 1 at the first difference, naming the pool
and the relation.  Needs only numpy and triagelab: run from a checkout
with ``PYTHONPATH=src`` or with the package installed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

from triagelab.solver import AssignmentInstance, solve_dabt, solve_rabt

SOLVERS = {"DABT": solve_dabt, "RABT": solve_rabt}


def shuffled(instance, rng):
    bugs = rng.sample(instance.bugs, len(instance.bugs))
    cols = rng.sample(range(len(instance.developers)), len(instance.developers))
    return replace(
        instance,
        bugs=[replace(b, s=tuple(b.s[j] for j in cols), c=tuple(b.c[j] for j in cols))
              for b in bugs],
        developers=[instance.developers[j] for j in cols],
    )


def doubled(instance, rng):
    return replace(
        instance,
        bugs=[replace(b, c=tuple(2 * c for c in b.c)) for b in instance.bugs],
        developers=[(d, 2 * cap) for d, cap in instance.developers],
    )


def with_idle_developer(instance, rng):
    idle = max(d for d, _ in instance.developers) + 1
    return replace(
        instance,
        bugs=[replace(b, s=b.s + (0.5,), c=b.c + (max(b.c),)) for b in instance.bugs],
        developers=instance.developers + [(idle, 0.0)],
    )


RELATIONS = {"shuffle": shuffled, "double": doubled, "idle developer": with_idle_developer}


def outcome(solution):
    return sorted(solution.assignments), float(solution.objective_value).hex(), solution.node_count


def check(instance, rng):
    """(checks made, the first relation that fails or None)."""
    checks = 0
    for name, solve in SOLVERS.items():
        expected = outcome(solve(instance))
        for relation, transform in RELATIONS.items():
            checks += 1
            if outcome(solve(transform(instance, rng))) != expected:
                return checks, f"{relation} under {name}"
    checks += 1
    plain = replace(instance, alpha=1.0, precedence=[])
    if outcome(SOLVERS["DABT"](plain)) != outcome(SOLVERS["RABT"](instance)):
        return checks, "DABT at alpha 1 without arcs against RABT"
    return checks, None


def main(paths) -> int:
    total = 0
    for path in map(Path, paths):
        instance = AssignmentInstance.from_json(path.read_text())
        checks, failed = check(instance, random.Random(path.name))
        total += checks
        if failed:
            print(f"error: {path}: {failed}: the solution differs", file=sys.stderr)
            return 1
    print(f"{total} checks on {len(paths)} pools: no difference")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1:]))
