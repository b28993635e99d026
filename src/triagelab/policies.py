"""Daily triage policies behind a uniform decision interface.

Each policy turns the day's open, unassigned bugs into a DailyDecision:
who gets what, at which estimated cost, and which bugs wait.  The
model-driven policies read row-aligned arrays: ``bug_ids`` in ascending
order, and ``S`` (suitability) and ``C`` (estimated days) with one row
per bug and one column per developer in ``dev_ids`` order.  CBR and
CosTriage assign everything immediately (no capacity or precedence);
RABT and DABT delegate to the exact knapsack solver and defer the
rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bdg import topological_order
from .errors import ValidationError
from .solver import (
    DABT,
    RABT,
    AssignmentInstance,
    InstanceBug,
    combined_score,
    solve_dabt,
    solve_rabt,
)

POLICY_NAMES = ("actual", "cbr", "costriage", "rabt", "dabt")


@dataclass(frozen=True)
class DailyDecision:
    day: int
    assignments: tuple  # ((bug_id, dev_id, estimated_cost_days), ...)
    deferred: tuple  # bug ids to call back on later days


def _assign_columns(day, bug_ids, dev_ids, C, cols) -> DailyDecision:
    assignments = tuple(
        (bug_id, dev_ids[j], float(C[i, j]))
        for i, (bug_id, j) in enumerate(zip(bug_ids, cols))
    )
    return DailyDecision(day=day, assignments=assignments, deferred=())


def decide_cbr(day, bug_ids, dev_ids, S, C) -> DailyDecision:
    """Every open bug goes to its most suitable developer, immediately.

    No capacity or precedence checks; ties toward the smallest dev_id
    (the first column).  Costs never steer the choice; they only
    annotate it with the chosen developer's estimated days so the
    simulator can schedule the completion.
    """
    return _assign_columns(day, bug_ids, dev_ids, C, S.argmax(axis=1))


def decide_costriage(day, bug_ids, dev_ids, S, C, alpha: float) -> DailyDecision:
    """argmax of the suitability/cost trade-off per bug, no constraints.

    alpha=1 reduces to CBR; alpha=0 picks the cheapest developer.
    """
    cols = combined_score(S, C, alpha).argmax(axis=1)
    return _assign_columns(day, bug_ids, dev_ids, C, cols)


def decide_actual(day, open_bugs, history) -> DailyDecision:
    """Replay the historical assignee on the historical assignment day.

    ``history`` maps bug_id -> BugRecord.  Bugs whose historical
    assignment day is not today (or who never got one) are deferred.
    """
    assignments = []
    deferred = []
    for bug_id in sorted(open_bugs):
        rec = history[bug_id]
        if rec.assigned_at == day and rec.actual_assignee is not None:
            assignments.append((bug_id, rec.actual_assignee, float(rec.fixing_time)))
        else:
            deferred.append(bug_id)
    return DailyDecision(
        day=day, assignments=tuple(assignments), deferred=tuple(deferred)
    )


def decide_knapsack(
    day, bug_ids, dev_ids, S, C, capacities, graph, alpha: float, variant: str
) -> DailyDecision:
    """Build the day's assignment instance and solve it exactly.

    ``capacities`` holds each developer's remaining capacity in
    ``dev_ids`` order.  DABT keeps precedence arcs among in-instance
    bugs and pre-drops bugs blocked, directly or through a chain, by an
    open parent that is not itself in the instance (e.g. already
    assigned and in progress); such bugs are deferred.  RABT ignores
    dependencies entirely.
    Unassigned bugs are deferred and called back on later days.
    """
    if variant not in (DABT, RABT):
        raise ValidationError(f"unknown solver variant {variant!r}")
    row_of = {bug_id: i for i, bug_id in enumerate(bug_ids)}
    candidates = sorted(row_of)
    deferred = []
    precedence = []
    if variant == DABT:
        # Only a bug with a blocker can be ineligible.  In blocker order a
        # bug's in-pool blockers are decided before it, so one pass also
        # defers the chains an ineligible bug orphans, and no arc falls
        # out of the instance.
        blocked = {b: graph.parents[b] for b in candidates if graph.parents.get(b)}
        eligible = set(candidates).difference(blocked)
        pool = {b: [kid for kid in graph.children.get(b, ()) if kid in blocked] for b in blocked}
        for bug_id in topological_order(pool):
            parents = blocked[bug_id]
            if eligible.issuperset(parents):
                eligible.add(bug_id)
                precedence.extend((parent, bug_id) for parent in parents)
            else:
                deferred.append(bug_id)
        candidates = sorted(eligible)
        precedence.sort(key=lambda arc: (arc[1], arc[0]))

    rows = [row_of[bug_id] for bug_id in candidates]
    instance = AssignmentInstance(
        bugs=[
            InstanceBug(bug_id, tuple(s), tuple(c))
            for bug_id, s, c in zip(candidates, S[rows].tolist(), C[rows].tolist())
        ],
        developers=list(zip(dev_ids, capacities)),
        precedence=precedence,
        alpha=alpha,
    )
    solution = solve_dabt(instance) if variant == DABT else solve_rabt(instance)
    col_of = {d: j for j, d in enumerate(dev_ids)}
    assignments = tuple(
        (bug_id, dev_id, float(C[row_of[bug_id], col_of[dev_id]]))
        for bug_id, dev_id in solution.assignments
    )
    assigned_ids = {b for b, _ in solution.assignments}
    deferred += [b for b in candidates if b not in assigned_ids]
    return DailyDecision(
        day=day, assignments=assignments, deferred=tuple(sorted(deferred))
    )
