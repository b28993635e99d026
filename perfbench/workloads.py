"""Seeded inputs for the three benchmark workloads.

Every input is a pure function of the workload seed, so the same seed
always gives the same bytes.  The program under test only ever sees
the files written here.

- mini:  the README quick-start corpus (``MiniCorpusSpec`` with the seed).
- deps:  the mini corpus plus injected dependency structure: four
  never-resolved tracking bugs, each heading a layered blocker tree of
  fixed width and depth, blocker chains among test bugs, deliberate
  cycle-closing arcs and REMOVE_BLOCKS events.
- solve: a family of standalone daily assignment instances shaped like
  the pools that rabt and dabt replays of the mini and deps corpora hand
  to the solver, but with 6-7 bugs where replays reach 4.  The shapes
  were measured by measure_pools.py (seeds 1-5, 2372 instances with
  bugs): the corpus's four experts and four other developers differ in
  capacity, cost and suitability, so each group draws its own from the
  quantiles measured for it.  A bug's costs are its topic's row, as in a
  replay (4 distinct rows per trained model), and its suitability row
  peaks at 1 at its topic's expert.  Draws are stratified within an
  instance (one value per equal-probability stratum, in random cells):
  search effort is heavy-tailed per instance, and stratifying keeps the
  family's total steadier across seeds than independent draws.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from triagelab.corpus import BugRecord
from triagelab.minicorpus import MiniCorpusSpec, generate, write_jsonl
from triagelab.solver import AssignmentInstance, InstanceBug

BOUNDARY = 365
END = 730
# deps replays half the test phase: its daily snapshots cost ~7 ms per
# tree, which a full year would make the longest run by far.
DEPS_END = BOUNDARY + 180

# deps: the tree shape is fixed because DependencyGraph.depth enumerates
# every path, so a snapshot costs about width**depth steps per tree.
TREES = 4
TREE_WIDTH = 3
TREE_DEPTH = 8
TREE_CYCLE_DAYS = (BOUNDARY + 30, BOUNDARY + 120)  # head-blocks-leaf arcs
SAME_DAY_CHAIN_P = 0.5  # link two test bugs reported on the same day
NEXT_DAYS_CHAIN_P = 0.1  # link a test bug to one reported 1-3 days later
REMOVE_P = 0.25  # a chain arc is removed again 3 days later
REVERSE_P = 0.1  # a chain arc is followed by its reverse the next day

# solve
# RABT's search grows about fourfold per bug on these shapes: one 9-bug
# instance took up to 2.7 s, one 12-bug instance 75 s.  Many 6-7 bug
# instances keep the family's node total within about 5% across seeds.
SOLVE_SIZES = (6, 7)
SOLVE_PER_SIZE = 100
SOLVE_TOPICS = 4
SOLVE_ARC_P = 0.08  # measured on mini's DABT pools: 20 arcs over 246 bug pairs
SOLVE_ALPHA = 0.5


@dataclasses.dataclass(frozen=True)
class DevGroup:
    """Quantiles 0, 0.05, ..., 1 measured over replay pools (see the
    module docstring); suitability leaves out each row's maximum."""

    size: int
    capacity: tuple
    cost: tuple
    suitability: tuple


EXPERTS = DevGroup(
    size=4,
    capacity=(1, 2.077, 3, 4, 4.875, 5.808, 6.739, 7.5, 8.459, 9.234, 10, 10, 10, 10,
              10, 10, 10, 10, 10, 10, 10),
    cost=(6.233, 8.5, 8.846, 9, 9.12, 9.25, 9.385, 9.577, 9.889, 10.04, 10.5, 11, 11,
          11.5, 12, 12, 12, 13, 13.5, 14, 16),
    suitability=(0.5866, 0.6135, 0.6206, 0.6251, 0.6286, 0.632, 0.6357, 0.6384, 0.6415,
                 0.6449, 0.6482, 0.6514, 0.6556, 0.6592, 0.663, 0.6685, 0.6737, 0.6792,
                 0.6866, 0.6983, 0.7599),
)
OTHERS = DevGroup(
    size=4,
    capacity=(1.057, 7.625, 8.286, 9.143, 9.875, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
              10, 10, 10, 10, 10, 10),
    cost=(2.2, 2.571, 2.625, 2.667, 2.75, 2.8, 2.833, 2.857, 2.889, 3, 3, 3, 3.111, 3.143,
          3.143, 3.25, 3.286, 3.333, 3.429, 3.571, 3.714),
    suitability=(0, 0, 0, 0, 0, 2.784e-07, 0.001955, 0.003982, 0.005403, 0.007074,
                 0.008682, 0.01027, 0.0117, 0.01352, 0.0152, 0.01713, 0.0193, 0.02175,
                 0.02473, 0.02877, 0.06069),
)
SOLVE_GROUPS = (EXPERTS, OTHERS)  # developers 1-4 are the experts, as in the corpus
SOLVE_DEVS = sum(group.size for group in SOLVE_GROUPS)


def mini_records(seed: int) -> list[BugRecord]:
    return generate(MiniCorpusSpec(seed=seed))


@dataclasses.dataclass
class DepsPlan:
    """The injected structure, kept for the generator tests."""

    heads: list  # tracking bug ids
    tree_nodes: list  # every injected tree bug id, heads included
    cycle_arcs: list  # (blocker, blocked) arcs meant to be rejected


def deps_records(seed: int) -> tuple[list[BugRecord], DepsPlan]:
    """The mini corpus of ``seed`` plus injected dependency structure."""
    records = mini_records(seed)
    rng = np.random.default_rng([seed, 1])
    events: dict[int, list] = {r.bug_id: list(r.dependency_events) for r in records}
    next_id = max(events) + 1
    injected = []
    plan = DepsPlan(heads=[], tree_nodes=[], cycle_arcs=[])

    def open_forever(day):
        nonlocal next_id
        bug = BugRecord(
            bug_id=next_id,
            summary="tracking dependency",
            description="umbrella bug kept open across releases",
            component="tracking",
            reported_at=day,
            status_final="OTHER",
        )
        next_id += 1
        injected.append(bug)
        events[bug.bug_id] = []
        plan.tree_nodes.append(bug.bug_id)
        return bug.bug_id

    def add_arc(day, blocker, blocked, kind="ADD_BLOCKS"):
        events[blocker].append((int(day), kind, blocked))

    for t in range(TREES):
        day = BOUNDARY - 60 + 10 * t
        head = open_forever(day)
        plan.heads.append(head)
        above = [head]
        for _ in range(TREE_DEPTH):
            layer = [open_forever(day) for _ in range(TREE_WIDTH)]
            for blocker in layer:
                for blocked in above:
                    add_arc(day, blocker, blocked)
            above = layer
        for cycle_day, leaf in zip(TREE_CYCLE_DAYS, above):
            add_arc(cycle_day, head, leaf)
            plan.cycle_arcs.append((head, leaf))

    # The generator plants one reverse arc of its own.
    plan.cycle_arcs.extend(_planted_reverse_arcs(records))

    test = sorted(
        (r for r in records if r.reported_at > BOUNDARY),
        key=lambda r: (r.reported_at, r.bug_id),
    )
    by_day: dict[int, list] = {}
    for rec in test:
        by_day.setdefault(rec.reported_at, []).append(rec)
    chain = []
    for day in sorted(by_day):
        same = by_day[day]
        for parent, child in zip(same, same[1:]):
            if rng.random() < SAME_DAY_CHAIN_P:
                chain.append((parent, child))
    for parent in test:
        if rng.random() >= NEXT_DAYS_CHAIN_P:
            continue
        later = [
            r for r in test
            if 1 <= r.reported_at - parent.reported_at <= 3
        ]
        if later:
            chain.append((parent, later[int(rng.integers(len(later)))]))
    for parent, child in chain:
        day = child.reported_at
        add_arc(day, parent.bug_id, child.bug_id)
        if rng.random() < REMOVE_P:
            add_arc(day + 3, parent.bug_id, child.bug_id, "REMOVE_BLOCKS")
        if rng.random() < REVERSE_P:
            add_arc(day + 1, child.bug_id, parent.bug_id)
            plan.cycle_arcs.append((child.bug_id, parent.bug_id))

    out = [
        dataclasses.replace(rec, dependency_events=tuple(sorted(events[rec.bug_id])))
        for rec in records + injected
    ]
    out.sort(key=lambda r: (r.reported_at, r.bug_id))
    return out, plan


def _planted_reverse_arcs(records):
    """Arcs that point from a later-reported bug to an earlier one."""
    reported = {r.bug_id: (r.reported_at, r.bug_id) for r in records}
    return [
        (r.bug_id, other)
        for r in records
        for _, kind, other in r.dependency_events
        if kind == "ADD_BLOCKS" and other in reported
        and reported[other] < reported[r.bug_id]
    ]


def solve_family(seed: int) -> list[AssignmentInstance]:
    """SOLVE_PER_SIZE instances of every size in SOLVE_SIZES."""
    rng = np.random.default_rng([seed, 2])
    family = []
    for n in SOLVE_SIZES:
        for _ in range(SOLVE_PER_SIZE):
            topic = rng.permutation(np.arange(n) % SOLVE_TOPICS)
            caps = np.hstack([_draw(rng, g.capacity, 1, g.size)[0] for g in SOLVE_GROUPS])
            costs = np.hstack([_draw(rng, g.cost, SOLVE_TOPICS, g.size) for g in SOLVE_GROUPS])
            s = np.hstack([_draw(rng, g.suitability, n, g.size) for g in SOLVE_GROUPS])
            s[np.arange(n), topic] = 1.0  # the expert of the bug's topic
            bugs = [
                InstanceBug(i + 1, tuple(s[i].tolist()), tuple(costs[topic[i]].tolist()))
                for i in range(n)
            ]
            arcs = [
                (i + 1, j + 1)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < SOLVE_ARC_P
            ]
            family.append(
                AssignmentInstance(
                    bugs=bugs,
                    developers=[(d + 1, cap) for d, cap in enumerate(caps.tolist())],
                    precedence=arcs,
                    alpha=SOLVE_ALPHA,
                )
            )
    return family


def _draw(rng, quantiles, rows, cols):
    """rows x cols values from the distribution with the given quantiles
    0, 0.05, ..., 1: one per equal-probability stratum, in random cells."""
    cells = rows * cols
    u = (rng.permutation(cells) + rng.random(cells)) / cells
    levels = np.linspace(0.0, 1.0, len(quantiles))
    return np.interp(u, levels, quantiles).reshape(rows, cols)


def write_corpus(records, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "bugs.jsonl")
    write_jsonl(records, path)
    return path


def write_family(family, out_dir) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k, instance in enumerate(family):
        path = os.path.join(out_dir, f"instance_{k:04d}.json")
        with open(path, "w") as fh:
            fh.write(instance.to_json())
        paths.append(path)
    return paths
