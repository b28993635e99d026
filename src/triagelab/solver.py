"""Exact daily-assignment solver.

The DABT objective assigns bugs to developers maximizing
alpha * (s/max(s)) + (1-alpha) * (min(c)/c) per assignment, subject to
per-developer capacity, at-most-one developer per bug, and the
precedence rule that an assigned bug's unresolved in-instance blockers
are assigned to the same developer in the same batch.  RABT maximizes
plain suitability under capacity only.

Solved by depth-first branch and bound.  A node is pruned on the smaller
of two admissible bounds on what the undecided bugs can still add: the
sum of each one's best contribution, ignoring capacity, and the sum over
developers of their m best contributions, where m is how many of the
cheapest undecided bugs fit the developer's remaining capacity (the
cardinality form of the generalized-assignment relaxation; Ross & Soland
1975, Martello & Toth 1990).  Pruning only skips subtrees that hold no
completion the search would accept, so the solution is the one the
first bound alone finds, from fewer nodes.  The search recurses once per
bug, so a pool deeper than Python's recursion limit is refused with a
ValidationError.  A separate vectorized exhaustive-enumeration oracle
exists for verification and never shares code with the search.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from itertools import accumulate, takewhile

import numpy as np

from .errors import ValidationError

DABT = "DABT"
RABT = "RABT"

_EPS = 1e-12
_ORACLE_MAX_BUGS = 12


def combined_score(S: np.ndarray, C: np.ndarray, alpha: float) -> np.ndarray:
    """alpha * s/max(s) + (1-alpha) * min(c)/c per (bug, developer);
    rows are bugs, columns developers."""
    s_max = S.max(axis=-1, keepdims=True)
    c_min = C.min(axis=-1, keepdims=True)
    return alpha * (S / s_max) + (1 - alpha) * (c_min / C)


@dataclass(frozen=True)
class InstanceBug:
    bug_id: int
    s: tuple  # suitability per developer, row max 1
    c: tuple  # cost per developer, strictly positive


@dataclass
class AssignmentInstance:
    bugs: list  # of InstanceBug
    developers: list  # of (dev_id, capacity)
    precedence: list = field(default_factory=list)  # (parent_bug_id, child_bug_id)
    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")
        ids = [b.bug_id for b in self.bugs]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate bug ids in instance")
        for _, cap in self.developers:
            if not 0 <= cap < math.inf:
                raise ValidationError(f"developer capacity {cap} is not finite and non-negative")
        for bug in self.bugs:
            if len(bug.s) != len(self.developers) or len(bug.c) != len(self.developers):
                raise ValidationError(f"bug {bug.bug_id}: row size mismatch")
            if not all(map(math.isfinite, (*bug.s, *bug.c))):
                raise ValidationError(f"bug {bug.bug_id}: suitability and cost must be finite")
            if min(bug.c) <= 0:
                raise ValidationError(f"bug {bug.bug_id}: costs must be positive")
            if self.developers and abs(max(bug.s) - 1.0) > 1e-9:
                raise ValidationError(f"bug {bug.bug_id}: suitability row max must be 1")
        known = set(ids)
        for p, ch in self.precedence:
            if p not in known or ch not in known:
                raise ValidationError(f"precedence arc ({p}, {ch}) references unknown bug")
        if self._has_cycle():
            raise ValidationError("precedence arcs contain a cycle")

    def _has_cycle(self) -> bool:
        children: dict[int, list] = {}
        indeg = {b.bug_id: 0 for b in self.bugs}
        for p, ch in self.precedence:
            children.setdefault(p, []).append(ch)
            indeg[ch] += 1
        queue = [b for b, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for ch in children.get(node, ()):
                indeg[ch] -= 1
                if indeg[ch] == 0:
                    queue.append(ch)
        return seen != len(indeg)

    def contributions(self, variant: str = DABT) -> np.ndarray:
        """(n_bugs, n_devs) objective coefficient matrix."""
        shape = (len(self.bugs), len(self.developers))
        S = np.array([b.s for b in self.bugs], dtype=float).reshape(shape)
        if variant == RABT or S.size == 0:
            return S
        C = np.array([b.c for b in self.bugs], dtype=float).reshape(shape)
        return combined_score(S, C, self.alpha)

    def to_json(self) -> str:
        return json.dumps(
            {
                "alpha": self.alpha,
                "developers": [[d, cap] for d, cap in self.developers],
                "bugs": [
                    {"bug_id": b.bug_id, "s": list(b.s), "c": list(b.c)}
                    for b in self.bugs
                ],
                "precedence": [list(arc) for arc in self.precedence],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "AssignmentInstance":
        obj = json.loads(text)
        return cls(
            bugs=[
                InstanceBug(b["bug_id"], tuple(b["s"]), tuple(b["c"]))
                for b in obj["bugs"]
            ],
            developers=[tuple(d) for d in obj["developers"]],
            precedence=[tuple(a) for a in obj.get("precedence", [])],
            alpha=obj.get("alpha", 0.5),
        )


@dataclass(frozen=True)
class AssignmentSolution:
    assignments: tuple  # sorted ((bug_id, dev_id), ...)
    objective_value: float
    node_count: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "assignments": [list(a) for a in self.assignments],
                "objective_value": self.objective_value,
                "node_count": self.node_count,
            },
            indent=2,
        )


def check_feasible(instance: AssignmentInstance, assignments, variant: str = DABT) -> None:
    """Raise ValidationError unless the assignment set is feasible."""
    by_bug: dict[int, int] = {}
    for bug_id, dev_id in assignments:
        if bug_id in by_bug:
            raise ValidationError(f"bug {bug_id} assigned more than once")
        by_bug[bug_id] = dev_id
    bug_index = {b.bug_id: i for i, b in enumerate(instance.bugs)}
    dev_index = {d: j for j, (d, _) in enumerate(instance.developers)}
    load = {d: 0.0 for d, _ in instance.developers}
    for bug_id, dev_id in by_bug.items():
        if bug_id not in bug_index or dev_id not in dev_index:
            raise ValidationError(f"assignment ({bug_id}, {dev_id}) outside instance")
        load[dev_id] += instance.bugs[bug_index[bug_id]].c[dev_index[dev_id]]
    for dev_id, cap in instance.developers:
        if load[dev_id] > cap + 1e-9:
            raise ValidationError(f"developer {dev_id} over capacity")
    if variant == DABT:
        for parent, child in instance.precedence:
            if child in by_bug and by_bug.get(parent) != by_bug[child]:
                raise ValidationError(
                    f"bug {child} assigned without blocker {parent} on the same developer"
                )


def objective_value(instance: AssignmentInstance, assignments, variant: str = DABT) -> float:
    """Objective of a feasible assignment set (error if infeasible)."""
    check_feasible(instance, assignments, variant)
    contrib = instance.contributions(variant)
    bug_index = {b.bug_id: i for i, b in enumerate(instance.bugs)}
    dev_index = {d: j for j, (d, _) in enumerate(instance.developers)}
    return float(
        sum(contrib[bug_index[b], dev_index[d]] for b, d in assignments)
    )


def _search_order(instance: AssignmentInstance, contrib: np.ndarray, with_precedence: bool):
    """Topological bug order, best-contribution-first among ready bugs."""
    n = len(instance.bugs)
    best = contrib.max(axis=1) if contrib.size else np.zeros(n)
    bug_pos = {b.bug_id: i for i, b in enumerate(instance.bugs)}
    children: dict[int, list] = {i: [] for i in range(n)}
    indeg = [0] * n
    if with_precedence:
        for p, ch in instance.precedence:
            children[bug_pos[p]].append(bug_pos[ch])
            indeg[bug_pos[ch]] += 1
    heap = [
        (-best[i], instance.bugs[i].bug_id, i) for i in range(n) if indeg[i] == 0
    ]
    heapq.heapify(heap)
    order = []
    while heap:
        _, _, i = heapq.heappop(heap)
        order.append(i)
        for ch in children[i]:
            indeg[ch] -= 1
            if indeg[ch] == 0:
                heapq.heappush(heap, (-best[ch], instance.bugs[ch].bug_id, ch))
    return order


def _greedy_incumbent(instance, contrib, order, parents_of, caps):
    """Feasible warm start: best fitting developer per bug in order."""
    remaining = list(caps)
    chosen: dict[int, int] = {}
    value = 0.0
    for i in order:
        bug = instance.bugs[i]
        required = {chosen.get(p, -1) for p in parents_of[i]}
        candidates = range(len(remaining))
        if parents_of[i]:
            if len(required) != 1 or -1 in required:
                continue
            candidates = [required.pop()]
        best_j, best_v = -1, 0.0
        for j in candidates:
            if bug.c[j] <= remaining[j] + _EPS and contrib[i, j] > best_v + _EPS:
                best_j, best_v = j, contrib[i, j]
        if best_j >= 0:
            chosen[i] = best_j
            remaining[best_j] -= bug.c[best_j]
            value += best_v
    return chosen, value


def _capacity_tables(order, contrib_rows, cost_rows, caps):
    """Tables of the capacity-aware bound, over the undecided bugs order[r:].

    ``fits[r][j]`` holds the running sums of developer j's costs, cheapest
    first, while they stay within caps[j] + 2 * slack (no query reaches
    past that); ``gains[r][j][m]`` is the sum of j's m largest
    non-negative contributions.  The search admits each bug with + _EPS
    and `remaining` picks up rounding over a search, so the fit count
    ``bisect_right(fits[r][j], remaining[j] + slack)`` gets slack for both
    (1e-9 is check_feasible's tolerance) and never undercounts a set the
    search would accept.  Returns (fits, gains, slack).
    """
    n = len(order)
    slack = (n + 1) * _EPS + 1e-9
    fits = [None] * (n + 1)
    gains = [None] * (n + 1)
    costs = [[] for _ in caps]  # ascending, over order[r:]
    negated = [[] for _ in caps]  # -max(contribution, 0), ascending
    for r in range(n, -1, -1):
        if r < n:
            i = order[r]
            for j in range(len(caps)):
                insort(costs[j], cost_rows[i][j])
                insort(negated[j], -max(contrib_rows[i][j], 0.0))
        fits_r, gains_r = [], []
        for j, cap in enumerate(caps):
            limit = cap + 2 * slack
            fit = list(takewhile(lambda total: total <= limit, accumulate(costs[j])))
            fits_r.append(fit)
            best = (-g for g in negated[j][: len(fit)])
            gains_r.append(list(accumulate(best, initial=0.0)))
        fits[r], gains[r] = fits_r, gains_r
    return fits, gains, slack


def _branch_and_bound(instance: AssignmentInstance, variant: str) -> AssignmentSolution:
    n = len(instance.bugs)
    D = len(instance.developers)
    if n == 0 or D == 0:
        return AssignmentSolution(assignments=(), objective_value=0.0, node_count=0)
    contrib = instance.contributions(variant)
    with_prec = variant == DABT
    order = _search_order(instance, contrib, with_prec)
    bug_pos = {b.bug_id: i for i, b in enumerate(instance.bugs)}
    parents_of = [[] for _ in range(n)]
    if with_prec:
        for p, ch in instance.precedence:
            parents_of[bug_pos[ch]].append(bug_pos[p])
    caps = [cap for _, cap in instance.developers]
    # The search runs on Python floats: the same IEEE arithmetic as numpy
    # scalars, without their per-operation overhead.
    contrib_rows = contrib.tolist()
    cost_rows = [b.c for b in instance.bugs]

    # suffix_best[r]: capacity-ignoring upper bound on bugs order[r:]
    suffix_best = [0.0] * (n + 1)
    for r in range(n - 1, -1, -1):
        suffix_best[r] = suffix_best[r + 1] + max(max(contrib_rows[order[r]]), 0.0)

    # capacity-aware bound: developer j fits at most the m cheapest
    # undecided bugs into its remaining capacity, so adds at most its m
    # best contributions
    fits, gains, slack = _capacity_tables(order, contrib_rows, cost_rows, caps)

    # per-bug developer option order: contribution desc, then dev_id
    dev_order = []
    for i in range(n):
        js = sorted(
            range(D), key=lambda j: (-contrib[i, j], instance.developers[j][0])
        )
        dev_order.append(js)

    incumbent, best_value = _greedy_incumbent(
        instance, contrib, order, parents_of, caps
    )
    best_choice = dict(incumbent)
    choice: dict[int, int] = {}
    remaining = list(caps)
    node_count = 0

    def dfs(rank: int, value: float):
        # Below the root, entered only when both bounds leave room above
        # best_value + _EPS.
        nonlocal best_value, best_choice, node_count
        node_count += 1
        if rank == n:
            if value > best_value + _EPS:
                best_value = value
                best_choice = dict(choice)
            return
        i = order[rank]
        allowed = dev_order[i]
        if parents_of[i]:
            parent_devs = {choice.get(p, -1) for p in parents_of[i]}
            if len(parent_devs) != 1 or -1 in parent_devs:
                allowed = []
            else:
                allowed = list(parent_devs)
        nxt = rank + 1
        fit, gain, suffix = fits[nxt], gains[nxt], suffix_best[nxt]
        terms = [
            gain[k][bisect_right(fit[k], remaining[k] + slack)] for k in range(D)
        ]
        total = sum(terms)
        row, cost = contrib_rows[i], cost_rows[i]
        for j in allowed:
            c = cost[j]
            if c > remaining[j] + _EPS:
                continue
            child = value + row[j]
            term = gain[j][bisect_right(fit[j], remaining[j] - c + slack)]
            if child + min(suffix, total - terms[j] + term) <= best_value + _EPS:
                continue
            choice[i] = j
            remaining[j] -= c
            dfs(nxt, child)
            remaining[j] += c
            del choice[i]
        if value + min(suffix, total) > best_value + _EPS:
            dfs(nxt, value)  # leave unassigned

    try:
        dfs(0, 0.0)
    except RecursionError:
        raise ValidationError(
            f"a pool of {n} bugs is deeper than the exact search can recurse "
            f"(Python's recursion limit is {sys.getrecursionlimit()})"
        ) from None
    assignments = tuple(
        sorted(
            (instance.bugs[i].bug_id, instance.developers[j][0])
            for i, j in best_choice.items()
        )
    )
    # objective_value raises unless the assignments are feasible
    return AssignmentSolution(
        assignments=assignments,
        objective_value=objective_value(instance, assignments, variant),
        node_count=node_count,
    )


def solve_dabt(instance: AssignmentInstance) -> AssignmentSolution:
    """Optimal precedence-constrained multiple-knapsack assignment."""
    return _branch_and_bound(instance, DABT)


def solve_rabt(instance: AssignmentInstance) -> AssignmentSolution:
    """Optimal suitability-only multiple-knapsack assignment
    (capacity and at-most-one constraints, no precedence)."""
    return _branch_and_bound(instance, RABT)


def brute_force_oracle(instance: AssignmentInstance, variant: str = DABT) -> AssignmentSolution:
    """Exhaustive enumeration of every bug -> {unassigned, dev} map.

    A full assignment is a base-(D+1) code (digit D = unassigned).
    The low ``k`` digits are tabulated once; each chunk then fixes the
    high digits and adds their contribution as scalars.  Independent of
    the branch-and-bound path.  Refuses instances above 12 bugs.
    """
    n = len(instance.bugs)
    D = len(instance.developers)
    if n > _ORACLE_MAX_BUGS:
        raise ValidationError(f"oracle refuses instances with more than {_ORACLE_MAX_BUGS} bugs")
    if n == 0 or D == 0:
        return AssignmentSolution(assignments=(), objective_value=0.0, node_count=0)
    contrib = instance.contributions(variant)  # (n, D)
    costs = np.array([b.c for b in instance.bugs])  # (n, D)
    caps = np.array([cap for _, cap in instance.developers])
    bug_pos = {b.bug_id: i for i, b in enumerate(instance.bugs)}
    arcs = [(bug_pos[p], bug_pos[ch]) for p, ch in instance.precedence]
    if variant != DABT:
        arcs = []

    base = D + 1  # choice D means unassigned
    k = n
    while base**k > (1 << 18):
        k -= 1
    low_total = base**k
    # digit table and per-code value/load for the low k bug positions
    low_codes = np.arange(low_total, dtype=np.int64)
    low_dig = (low_codes[:, None] // base ** np.arange(k)) % base  # (B, k)
    contrib_ext = np.vstack([contrib.T, np.zeros(n)])  # (D+1, n)
    cost_ext = np.vstack([costs.T, np.zeros(n)])
    low_value = np.zeros(low_total)
    low_loads = np.zeros((low_total, D))
    for i in range(k):
        low_value += contrib_ext[low_dig[:, i], i]
        col_cost = cost_ext[low_dig[:, i], i]
        for j in range(D):
            low_loads[:, j] += np.where(low_dig[:, i] == j, col_cost, 0.0)
    # precedence arcs entirely inside the low digits never change
    low_ok = np.ones(low_total, dtype=bool)
    for p, ch in arcs:
        if p < k and ch < k:
            low_ok &= (low_dig[:, ch] == D) | (low_dig[:, ch] == low_dig[:, p])

    best_value = -1.0
    best_code = 0
    checked = 0
    for high in range(base ** (n - k)):
        high_dig = [(high // base**i) % base for i in range(n - k)]
        high_value = sum(contrib_ext[d, k + i] for i, d in enumerate(high_dig))
        high_loads = np.zeros(D)
        for i, d in enumerate(high_dig):
            high_loads += np.where(np.arange(D) == d, cost_ext[d, k + i], 0.0)
        ok = low_ok & np.all(
            low_loads + high_loads <= caps + 1e-9, axis=1
        )
        for p, ch in arcs:
            if p < k and ch < k:
                continue
            dp = low_dig[:, p] if p < k else high_dig[p - k]
            dch = low_dig[:, ch] if ch < k else high_dig[ch - k]
            ok = ok & ((dch == D) | (dch == dp))
        value = np.where(ok, low_value + high_value, -np.inf)
        idx = int(np.argmax(value))
        if value[idx] > best_value + _EPS:
            best_value = float(value[idx])
            best_code = int(high) * low_total + int(low_codes[idx])
        checked += low_total

    digits = [(best_code // base**i) % base for i in range(n)]
    assignments = tuple(
        sorted(
            (instance.bugs[i].bug_id, instance.developers[d][0])
            for i, d in enumerate(digits)
            if d < D
        )
    )
    return AssignmentSolution(
        assignments=assignments,
        objective_value=best_value,
        node_count=checked,
    )
