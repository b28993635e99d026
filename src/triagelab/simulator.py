"""Day-by-day replay engine.

Each simulated day runs a fixed sub-step order: (a) feed the day's
historical events into the dependency graph and the open pool, (b)
complete in-progress work, (c) let the policy decide on the feasible
bugs, (d) enqueue the assignments and start the longest prefix of each
developer's FIFO queue that fits their remaining capacity (a bug that
does not fit holds back every bug behind it), (e) regenerate one
capacity day per developer, capped at the horizon L.

The replay reads no text and no model: suitability and estimated cost
arrive as a FeatureTable, computed once per set of replays that share
a model and a corpus, and each day the policy reads the rows of the
open pool.

Capacity-aware policies (RABT/DABT) only ever assign work that starts
the same day; anything else is a solver contract violation.  CBR and
CosTriage ignore capacity when choosing, so their assignments queue at
the developer until capacity frees up - that queueing is what makes
their overdue and un-fixed counts grow.  The Actual policy replays
history verbatim: historical completion day, no capacity accounting.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .bdg import DependencyGraph
from .errors import ValidationError
from .policies import (
    POLICY_NAMES,
    decide_actual,
    decide_cbr,
    decide_costriage,
    decide_knapsack,
)


@dataclass
class SimConfig:
    policy: str
    boundary_day: int
    end_day: int
    alpha: float = 0.5
    seed: int = 0
    horizon_L: float = 10.0

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ValidationError(f"unknown policy {self.policy!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")
        if not 0 < self.horizon_L < math.inf:
            raise ValidationError(f"horizon L must be finite and positive, not {self.horizon_L}")
        if self.end_day < self.boundary_day:
            raise ValidationError("end_day before boundary_day")


@dataclass
class ReplayCorpus:
    """Everything the replay needs about the bug history."""

    records: list  # every BugRecord, valid or not (the world)
    assignable_ids: set  # cleaned test bugs the policy may assign
    history: dict = field(init=False)

    def __post_init__(self):
        self.history = {r.bug_id: r for r in self.records}


@dataclass
class FeatureTable:
    """Suitability ``S`` (min-max, row max 1) and estimated fixing days
    ``C``, one row per bug in ``bug_ids`` and one column per developer
    in sorted ``dev_ids``."""

    dev_ids: tuple
    bug_ids: tuple
    S: np.ndarray  # (n_bugs, n_devs)
    C: np.ndarray  # (n_bugs, n_devs), strictly positive
    row: dict = field(init=False)  # bug_id -> row index

    def __post_init__(self):
        self.row = {b: i for i, b in enumerate(self.bug_ids)}

    def rows(self, bug_ids) -> list:
        try:
            return [self.row[b] for b in bug_ids]
        except KeyError as exc:
            raise ValidationError(f"bug {exc.args[0]} has no feature row") from exc


def _events_by_day(records):
    """(day -> [(kind, bug, other)]) for opens and arc changes, and
    (day -> [bug]) for historical resolutions."""
    opens: dict[int, list] = {}
    arcs: dict[int, list] = {}
    resolves: dict[int, list] = {}
    for rec in records:
        opens.setdefault(rec.reported_at, []).append(rec.bug_id)
        for day, kind, other in rec.dependency_events:
            arcs.setdefault(day, []).append((kind, rec.bug_id, other))
        if rec.resolved_at is not None:
            resolves.setdefault(rec.resolved_at, []).append(rec.bug_id)
    return opens, arcs, resolves


class Replay:
    """One deterministic policy run over the testing phase.

    The log entry is the only record of an assignment: a developer's
    queue and the in-progress list hold log entries, which carry the
    bug, its estimated cost and its completion day.  ``T`` (remaining
    capacity) and ``queue`` are keyed in the feature table's developer
    order.
    """

    def __init__(self, config: SimConfig, corpus: ReplayCorpus, table: FeatureTable, profiles):
        self.config = config
        self.corpus = corpus
        self.table = table
        self.profiles = profiles
        self.opens, self.arcs, self.hist_resolves = _events_by_day(corpus.records)
        self.graph = DependencyGraph()
        self.day = config.boundary_day
        self.T = dict.fromkeys(table.dev_ids, config.horizon_L)
        self.queue = {d: deque() for d in table.dev_ids}  # FIFO of entries not started
        self.open_pool = set()  # assignable, unassigned
        self.in_progress = []  # started entries
        self.log = []
        self.daily = []
        self.entered = 0  # assignable bugs that entered the pool
        # Replay history through the boundary day to seed the graph.
        for day in sorted(set(self.opens) | set(self.arcs) | set(self.hist_resolves)):
            if day > config.boundary_day:
                break
            self._apply_world_events(day)

    def _apply_world_events(self, day):
        # Assignable bugs reported after the boundary are simulated: they
        # enter the pool and resolve when the simulated developer
        # finishes, not on the historical date.
        simulated = day > self.config.boundary_day
        for bug_id in sorted(self.opens.get(day, ())):
            self.graph.apply_event("OPEN", bug_id)
            if simulated and bug_id in self.corpus.assignable_ids:
                self.open_pool.add(bug_id)
                self.entered += 1
        for kind, bug_id, other in self.arcs.get(day, ()):
            arc_kind = "ADD_ARC" if kind == "ADD_BLOCKS" else "REMOVE_ARC"
            self.graph.apply_event(arc_kind, bug_id, other)
        for bug_id in sorted(self.hist_resolves.get(day, ())):
            if not (simulated and bug_id in self.corpus.assignable_ids):
                self.graph.apply_event("RESOLVE", bug_id)

    def _decide(self, day, feasible):
        cfg = self.config
        if cfg.policy == "actual":
            return decide_actual(day, feasible, self.corpus.history)
        table = self.table
        rows = table.rows(feasible)
        S, C = table.S[rows], table.C[rows]
        if cfg.policy == "cbr":
            return decide_cbr(day, feasible, table.dev_ids, S, C)
        if cfg.policy == "costriage":
            return decide_costriage(day, feasible, table.dev_ids, S, C, cfg.alpha)
        capacities = list(self.T.values())
        variant = "RABT" if cfg.policy == "rabt" else "DABT"
        return decide_knapsack(
            day, feasible, table.dev_ids, S, C, capacities, self.graph, cfg.alpha, variant
        )

    def step_day(self):
        self.day += 1
        day, cfg = self.day, self.config
        self._apply_world_events(day)
        still = []
        for entry in self.in_progress:
            if entry["completion_day"] <= day:
                self.graph.apply_event("RESOLVE", entry["bug_id"])
            else:
                still.append(entry)
        self.in_progress = still

        decision = self._decide(day, sorted(self.open_pool))
        same_batch = {b: d for b, d, _ in decision.assignments}
        actual = cfg.policy == "actual"
        for bug_id, dev_id, cost in decision.assignments:
            rec = self.corpus.history[bug_id]
            parents = self.graph.parents.get(bug_id, ())
            entry = {
                "bug_id": bug_id,
                "dev_id": dev_id,
                "reported_day": rec.reported_at,
                "assigned_day": day,
                "estimated_cost": cost,
                "infeasible": any(same_batch.get(p) != dev_id for p in parents),
                "accurate": rec.component in self.profiles.get(dev_id, ()),
                "component": rec.component,
                # actual replays history with no capacity accounting: the
                # assignee starts at once and may have no profile
                "start_day": day if actual else None,
                "completion_day": rec.resolved_at if actual else None,
            }
            self.open_pool.discard(bug_id)
            self.log.append(entry)
            (self.in_progress if actual else self.queue[dev_id]).append(entry)

        # Start the longest FIFO prefix that fits.  RABT/DABT chose their
        # batch to fit remaining capacity, so their queues must drain.
        for dev_id, queue in self.queue.items():
            while queue and queue[0]["estimated_cost"] <= self.T[dev_id] + 1e-9:
                entry = queue.popleft()
                self.T[dev_id] -= entry["estimated_cost"]
                entry["start_day"] = day
                entry["completion_day"] = day + max(1, math.ceil(entry["estimated_cost"]))
                self.in_progress.append(entry)
            if queue and cfg.policy in ("rabt", "dabt"):
                raise ValidationError(
                    f"solver batch exceeds developer {dev_id}'s remaining capacity"
                )

        for dev_id in self.T:
            self.T[dev_id] = min(self.T[dev_id] + 1.0, cfg.horizon_L)
            if self.T[dev_id] < -1e-9:
                raise ValidationError(f"developer {dev_id} capacity went negative")

        snapshot = self.graph.metrics_snapshot()
        self.daily.append(
            {
                "day": day,
                "mean_depth": snapshot.mean_depth,
                "mean_degree": snapshot.mean_degree,
                "n_nodes": snapshot.n_nodes,
                "n_arcs": snapshot.n_arcs,
                "capacity": {str(d): t for d, t in self.T.items()},
            }
        )

    def run(self):
        while self.day < self.config.end_day:
            self.step_day()
        # Flush: anything unfinished by the end of the horizon stays
        # un-fixed; completion days past the end are cleared.
        for entry in self.log:
            if entry["completion_day"] is not None and entry["completion_day"] > self.config.end_day:
                entry["completion_day"] = None
        return SimResult(
            config=self.config, log=self.log, daily=self.daily, total_entering=self.entered
        )


@dataclass
class SimResult:
    config: SimConfig
    log: list
    daily: list
    total_entering: int


def run_simulation(config: SimConfig, corpus: ReplayCorpus, table: FeatureTable, profiles) -> SimResult:
    """Run one policy over the whole testing phase, deterministically.

    ``table`` must hold a row for every bug the policy decides on (the
    actual policy reads none); ``profiles`` maps each active dev_id, the
    table's columns, to the components of their training-phase fixes.
    """
    if not profiles:
        raise ValidationError("no active developers; refusing to simulate")
    if list(table.dev_ids) != sorted(profiles):
        raise ValidationError("feature table columns differ from the active developers")
    return Replay(config, corpus, table, profiles).run()
