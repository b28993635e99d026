"""Exact daily-assignment solver.

The DABT objective assigns bugs to developers maximizing
alpha * (s/max(s)) + (1-alpha) * (min(c)/c) per assignment, subject to
per-developer capacity, at-most-one developer per bug, and the
precedence rule that an assigned bug's unresolved in-instance blockers
are assigned to the same developer in the same batch.  RABT maximizes
plain suitability under capacity only.

Solved by depth-first branch and bound over the bugs in
``bdg.topological_order``, best contribution first among ready bugs.  A
branch is pruned on an admissible bound on what the undecided bugs can
still add, read from the suffix table of the node's fit counts (how
many of each developer's distinct costs its remaining capacity admits):

- in general the fit-aware bound: the sum of each one's best
  contribution among the developers it still fits, as if no other
  undecided bug used that capacity (the per-item form of the
  generalized-assignment relaxation; Martello & Toth 1990; it drops
  precedence too).  Each bug's developers are walked best contribution
  first, and the walk stops at the first one it fits;
- when no developer fits its two cheapest bugs (as in backlog pools),
  a column of the free-developer table: the best matching (Kuhn 1955)
  of the undecided bugs to the developers with a positive fit count,
  which a developer holding a bug no longer has.

Pruning only skips subtrees that hold no completion the search would
accept, so the solution is the one an unpruned search finds, from fewer
nodes.  A developer whose capacity fits none of their costs takes no bug
and bounds nothing, so the search leaves their column out and they count
toward neither table.  A table's key is its counts packed into one
Python int (many developers pass 64 bits), each in a bit field just wide
enough for its developer's distinct costs.  A table is built, and its
key decoded to counts, when a node first reaches that key.  Each node
receives its key and table from its parent, and the root computes them
from the capacities: a child's counts are its node's with one entry
lowered, so one addition rewrites that field of the key, and leaving a
bug unassigned keeps them.  Neither bound rises when a count falls, so
the node's own table bounds every child, and that lookup is each
branch's first test.  A child whose fit count does not change reuses its
node's table and passes that test alone; only the others look up a table
of their own.  The search recurses once per bug, so a pool deeper than
Python's recursion limit is refused with a ValidationError.  A separate
vectorized exhaustive-enumeration oracle exists for verification and
never shares code with the search.

An instance arrives as per-bug ``InstanceBug`` rows (the JSON and CLI
face).  ``AssignmentInstance.__post_init__`` checks that every id is an
int and no number a bool, which numpy would read as 0 or 1, and the
rows' lengths, then builds and validates, once, the (bugs x developers)
arrays ``S`` and ``C``, the capacities ``caps`` and the precedence by
row; every reader (``contributions``, ``check_feasible``, the search
and the oracle) reads these, not the rows.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np

from .bdg import topological_order
from .errors import ValidationError

DABT = "DABT"
RABT = "RABT"

_EPS = 1e-12
_ORACLE_MAX_BUGS = 12
_MATCHING_MAX_DEVS = 12  # the free-developer table has 2^D entries per bug


def combined_score(S: np.ndarray, C: np.ndarray, alpha: float) -> np.ndarray:
    """alpha * s/max(s) + (1-alpha) * min(c)/c per (bug, developer);
    rows are bugs, columns developers."""
    s_max = S.max(axis=-1, keepdims=True)
    c_min = C.min(axis=-1, keepdims=True)
    return alpha * (S / s_max) + (1 - alpha) * (c_min / C)


def _row_problem(bug, D):
    """Why one bug's rows give no real (bugs x ``D``) arrays, or None."""
    if len(bug.s) != D or len(bug.c) != D:
        return "row size mismatch"
    try:  # a string, None or a list among the entries
        rows = [np.array(bug.s), np.array(bug.c)]
        if all(row.ndim == 1 and row.dtype.kind in "iuf" for row in rows):
            return None
    except ValueError:
        pass
    return "suitability and cost must be real numbers"


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
    # Built and checked once from the fields above (arrays read-only):
    S: np.ndarray = field(init=False, repr=False, compare=False)  # (n_bugs, n_devs)
    C: np.ndarray = field(init=False, repr=False, compare=False)  # (n_bugs, n_devs)
    caps: np.ndarray = field(init=False, repr=False, compare=False)  # (n_devs,)
    children: dict = field(init=False, repr=False, compare=False)  # row -> rows it blocks

    def __post_init__(self):
        ids = ([("bug id", b.bug_id) for b in self.bugs]
               + [("developer id", d) for d, _ in self.developers]
               + [("precedence bug id", i) for arc in self.precedence for i in arc])
        for what, value in ids:
            if type(value) is not int:
                if isinstance(value, np.integer):
                    raise ValidationError(f"{what} {value!r} is a numpy integer; convert it with int()")
                raise ValidationError(f"{what} {value!r} is not an integer")
        numbers = [("alpha", (self.alpha,)), ("capacity", [cap for _, cap in self.developers])] + [
            (f"bug {b.bug_id}: suitability or cost", (*b.s, *b.c)) for b in self.bugs]
        for what, values in numbers:
            if bool in map(type, values):
                raise ValidationError(f"{what} is true or false, not a number")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")
        row = {b.bug_id: i for i, b in enumerate(self.bugs)}
        if len(row) != len(self.bugs):
            raise ValidationError("duplicate bug ids in instance")
        dev_ids = [d for d, _ in self.developers]
        if len(set(dev_ids)) != len(dev_ids):
            raise ValidationError("duplicate developer ids in instance")
        for _, cap in self.developers:
            if not 0 <= cap < math.inf:
                raise ValidationError(f"developer capacity {cap} is not finite and non-negative")
        D = len(self.developers)
        try:
            S, C = (np.array(rows) if rows else np.empty((0, D))
                    for rows in ([b.s for b in self.bugs], [b.c for b in self.bugs]))
        except ValueError:  # rows of unequal length, or a list among the entries
            S = C = np.empty(0)
        kinds = {S.dtype.kind, C.dtype.kind}
        if S.shape != (len(self.bugs), D) or C.shape != S.shape or kinds - set("iuf"):
            bug, problem = next((b, p) for b in self.bugs if (p := _row_problem(b, D)))
            raise ValidationError(f"bug {bug.bug_id}: {problem}")
        S, C = S.astype(float), C.astype(float)
        checks = [
            (np.isfinite(S).all(axis=1) & np.isfinite(C).all(axis=1),
             "suitability and cost must be finite"),
            ((C > 0).all(axis=1), "costs must be positive"),
            # a bug with no developer has no row max of 1
            (np.abs(S.max(axis=1, initial=-np.inf) - 1.0) <= 1e-9, "suitability row max must be 1"),
        ]
        failed = [(int(ok.argmin()), problem) for ok, problem in checks if not ok.all()]
        if failed:  # the first bug that fails, and its first failed check
            i, problem = min(failed, key=lambda f: f[0])
            raise ValidationError(f"bug {self.bugs[i].bug_id}: {problem}")
        # over the bugs on an arc, the only ones that can lie on a cycle
        children = {row[bug_id]: [] for arc in self.precedence for bug_id in arc if bug_id in row}
        for p, ch in self.precedence:
            if p not in row or ch not in row:
                raise ValidationError(f"precedence arc ({p}, {ch}) references unknown bug")
            children[row[p]].append(row[ch])
        if len(topological_order(children)) != len(children):
            raise ValidationError("precedence arcs contain a cycle")
        caps = np.array([cap for _, cap in self.developers], dtype=float)
        for A in (S, C, caps):
            A.flags.writeable = False
        self.S, self.C, self.caps, self.children = S, C, caps, children

    def contributions(self, variant: str = DABT) -> np.ndarray:
        """(n_bugs, n_devs) objective coefficients; under RABT, the read-only ``S``."""
        if variant == RABT or self.S.size == 0:
            return self.S
        return combined_score(self.S, self.C, self.alpha)

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha,
            "developers": [[d, cap] for d, cap in self.developers],
            "bugs": [{"bug_id": b.bug_id, "s": list(b.s), "c": list(b.c)} for b in self.bugs],
            "precedence": [list(arc) for arc in self.precedence],
        })

    @classmethod
    def from_json(cls, text: str) -> "AssignmentInstance":
        """The instance ``to_json`` writes."""
        obj = json.loads(text)
        return cls(
            bugs=[InstanceBug(b["bug_id"], tuple(b["s"]), tuple(b["c"])) for b in obj["bugs"]],
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
        return json.dumps({
            "assignments": [list(a) for a in self.assignments],
            "objective_value": self.objective_value,
            "node_count": self.node_count,
        })


def check_feasible(instance: AssignmentInstance, assignments, variant: str = DABT) -> None:
    """Raise ValidationError unless the assignment set is feasible."""
    by_bug: dict[int, int] = {}
    for bug_id, dev_id in assignments:
        if bug_id in by_bug:
            raise ValidationError(f"bug {bug_id} assigned more than once")
        by_bug[bug_id] = dev_id
    bug_index = {b.bug_id: i for i, b in enumerate(instance.bugs)}
    dev_index = {d: j for j, (d, _) in enumerate(instance.developers)}
    load = np.zeros(len(instance.developers))
    for bug_id, dev_id in by_bug.items():
        if bug_id not in bug_index or dev_id not in dev_index:
            raise ValidationError(f"assignment ({bug_id}, {dev_id}) outside instance")
        load[dev_index[dev_id]] += instance.C[bug_index[bug_id], dev_index[dev_id]]
    over = load > instance.caps + 1e-9
    if over.any():
        raise ValidationError(f"developer {instance.developers[int(over.argmax())][0]} over capacity")
    if variant == DABT:
        for parent, child in instance.precedence:
            if child in by_bug and by_bug.get(parent) != by_bug[child]:
                raise ValidationError(
                    f"bug {child} assigned without blocker {parent} on the same developer"
                )


def _search_order(instance: AssignmentInstance, contrib: np.ndarray, with_precedence: bool):
    """Bug positions in topological order; among ready bugs the smallest
    key (-best contribution, bug id) goes first."""
    keys = list(zip((-contrib.max(axis=1)).tolist(), [b.bug_id for b in instance.bugs]))
    children = instance.children if with_precedence else {}
    return topological_order({i: children.get(i, ()) for i in range(len(keys))},
                             key=keys.__getitem__)


def _allowed_devs(parents, chosen):
    """Developers a bug with in-instance blockers ``parents`` may go to:
    the single developer all of them went to in ``chosen``, or none when
    they are split or one is unassigned.  A bug without blockers may go
    to any developer."""
    devs = {chosen.get(p, -1) for p in parents}
    return [] if len(devs) != 1 or -1 in devs else list(devs)


def _greedy_incumbent(contrib_rows, cost_rows, order, parents_of, caps, by_id):
    """Feasible warm start: best fitting developer per bug in order, the
    first of ``by_id`` (the columns in dev_id order) among near ties."""
    remaining = list(caps)
    chosen: dict[int, int] = {}
    value = 0.0
    for i in order:
        row, cost, parents = contrib_rows[i], cost_rows[i], parents_of[i]
        best_j, best_v = -1, 0.0
        for j in _allowed_devs(parents, chosen) if parents else by_id:
            if cost[j] <= remaining[j] + _EPS and row[j] > best_v + _EPS:
                best_j, best_v = j, row[j]
        if best_j >= 0:
            chosen[i] = best_j
            remaining[best_j] -= cost[best_j]
            value += best_v
    return chosen, value


def _distinct_costs(C):
    """Each developer's distinct costs in the (n, D) array ``C``,
    ascending.  A bug's level on developer j is the index of its cost
    among them, and it fits j while that level is below j's fit count,
    ``bisect_right(distinct[j], remaining[j] + slack)``, so the
    fit-aware bound depends on ``remaining`` only through the D fit
    counts."""
    return [sorted(set(column)) for column in C.T.tolist()]


def _fit_walks(order, contrib_rows, cost_rows, dev_order, distinct):
    """Per rank r, the developers of bug order[r] with a positive
    contribution, best first (``dev_order``), as (developer, level,
    contribution); a bug with none has an empty walk."""
    return [
        [
            (j, bisect_left(distinct[j], cost_rows[i][j]), contrib_rows[i][j])
            for j in dev_order[i] if contrib_rows[i][j] > 0.0
        ]
        for i in order
    ]


def _fit_table(counts, walks):
    """Fit-aware bound for one vector of fit counts: entry r sums, over the
    undecided bugs order[r:], each one's best non-negative contribution
    among the developers it still fits, which is the contribution of the
    first developer on its walk whose level is below its fit count."""
    table = [0.0] * (len(walks) + 1)
    total = 0.0
    for r in range(len(walks) - 1, -1, -1):
        for j, level, g in walks[r]:
            if level < counts[j]:
                total += g
                break
        table[r] = total
    return table


def _matching_table(order, contrib_rows, cost_rows, caps, slack, blocked):
    """Free-developer bound as an (n + 1, 2^D) array, or None where it
    does not apply: entry ``[r, mask]`` is the best matching of the
    undecided bugs order[r:] into the developers in the bitmask ``mask``,
    over positive contributions and edges with cost <= capacity + slack.

    It applies when D <= _MATCHING_MAX_DEVS and each developer's two
    cheapest costs sum to more than its capacity + slack, so no
    developer takes two bugs.  A developer with a bug on the path then
    fits no other bug and its fit count is 0, so the search reads the
    column of the developers with a positive count.  One exception only
    loosens the bound: a developer whose one bug is its unique cheapest
    and fits twice in its capacity keeps a count of 1.  The bugs in
    ``blocked`` are left out: under DABT a bug with an in-instance
    blocker would need its blocker on the same developer, so it is never
    assigned.  Built once per solve in O(n * 2^D * D).
    """
    D = len(caps)
    if D > _MATCHING_MAX_DEVS or any(
        sum(sorted(column)[:2]) <= cap + slack for column, cap in zip(zip(*cost_rows), caps)
    ):
        return None
    masks = np.arange(1 << D)
    holding = [masks[masks & (1 << j) != 0] for j in range(D)]
    table = np.zeros((len(order) + 1, 1 << D))
    for r in range(len(order) - 1, -1, -1):
        i, rest = order[r], table[r + 1]
        table[r] = rest
        if i in blocked:
            continue
        for j, (g, c, cap) in enumerate(zip(contrib_rows[i], cost_rows[i], caps)):
            if g > 0.0 and c <= cap + slack:
                has = holding[j]
                table[r, has] = np.maximum(table[r, has], g + rest[has ^ (1 << j)])
    return table


def _branch_and_bound(instance: AssignmentInstance, variant: str) -> AssignmentSolution:
    n, D = instance.C.shape
    if n == 0 or D == 0:
        return AssignmentSolution(assignments=(), objective_value=0.0, node_count=0)
    contrib = instance.contributions(variant)
    with_prec = variant == DABT
    order = _search_order(instance, contrib, with_prec)
    parents_of = [[] for _ in range(n)]
    for p, kids in instance.children.items() if with_prec else ():
        for ch in kids:
            parents_of[ch].append(p)

    # The search admits each bug with + _EPS and `remaining` picks up
    # rounding over a search, so a fit test against remaining + slack
    # never drops a bug the search would admit (1e-9 is check_feasible's
    # tolerance).
    slack = (n + 1) * _EPS + 1e-9

    # A developer whose capacity fits none of their costs has a fit count of
    # 0 from the root on and takes nothing: the search runs on the other
    # columns, once the contributions and the order have read every column.
    kept = np.flatnonzero(instance.C.min(axis=0) <= instance.caps + slack)
    contrib, C = contrib[:, kept], instance.C[:, kept]
    dev_ids = [instance.developers[j][0] for j in kept.tolist()]
    caps = instance.caps[kept].tolist()
    # The search runs on Python floats: the same IEEE arithmetic as numpy
    # scalars, without their per-operation overhead.
    contrib_rows = contrib.tolist()
    cost_rows = C.tolist()

    # per-bug developer option order: contribution desc, then dev_id, as
    # one stable sort of the columns taken in dev_id order
    by_id = np.argsort(dev_ids, kind="stable")
    dev_order = by_id[np.argsort(-contrib[:, by_id], axis=1, kind="stable")].tolist()

    # One bound table per vector of fit counts, built when a node first
    # reaches that vector: a free-developer column where that table
    # applies, else the fit-aware table.  Count j is code >> shift[j] & bits[j].
    distinct = _distinct_costs(C)
    widths = [len(costs).bit_length() for costs in distinct]
    bits = [(1 << w) - 1 for w in widths]
    shift = list(accumulate(widths[:-1], initial=0))
    blocked = {i for i in range(n) if parents_of[i]}
    matching = _matching_table(order, contrib_rows, cost_rows, caps, slack, blocked)
    walks = _fit_walks(order, contrib_rows, cost_rows, dev_order, distinct) if matching is None else None
    tables: dict[int, list] = {}

    def build_table(code: int) -> list:
        counts = [code >> s & b for s, b in zip(shift, bits)]
        if matching is None:
            table = _fit_table(counts, walks)
        else:
            mask = sum(1 << j for j, k in enumerate(counts) if k)
            table = matching[:, mask].tolist()
        tables[code] = table
        return table

    # per rank: the bug, its blockers, its developers best first, its rows
    by_rank = [(i, parents_of[i], dev_order[i], contrib_rows[i], cost_rows[i]) for i in order]
    incumbent, best_value = _greedy_incumbent(contrib_rows, cost_rows, order, parents_of, caps,
                                              by_id.tolist())
    best_choice = dict(incumbent)
    choice: dict[int, int] = {}
    remaining = list(caps)
    node_count = 0

    def dfs(rank: int, value: float, code: int, table: list):
        # `code` packs the fit counts of `remaining` at entry, `table` is
        # their bound table.  Below the root, entered only when that bound
        # leaves room above best_value + _EPS.
        nonlocal best_value, best_choice, node_count
        node_count += 1
        if rank == n:
            if value > best_value + _EPS:
                best_value = value
                best_choice = dict(choice)
            return
        i, parents, devs, row, cost = by_rank[rank]
        allowed = _allowed_devs(parents, choice) if parents else devs
        nxt = rank + 1
        # A child's counts are never above the node's, so table[nxt] bounds
        # every child: the cheap test.
        bound = table[nxt]
        for j in allowed:
            c = cost[j]
            if c > remaining[j] + _EPS:
                continue
            child = value + row[j]
            if child + bound <= best_value + _EPS:
                break  # `allowed` runs by contribution, descending
            k = bisect_right(distinct[j], remaining[j] - c + slack)
            now = code >> shift[j] & bits[j]
            if k == now:
                # same counts: the node's table, which the test above read
                child_code, child_table = code, table
            else:
                child_code = code + ((k - now) << shift[j])
                child_table = tables.get(child_code) or build_table(child_code)
                if child + child_table[nxt] <= best_value + _EPS:
                    continue
            choice[i] = j
            remaining[j] -= c
            dfs(nxt, child, child_code, child_table)
            remaining[j] += c
            del choice[i]
        # leave unassigned: same counts, so `bound` is its own bound
        if value + bound > best_value + _EPS:
            dfs(nxt, value, code, table)

    root = sum(bisect_right(costs, cap + slack) << s for costs, cap, s in zip(distinct, caps, shift))
    try:
        dfs(0, 0.0, root, build_table(root))
    except RecursionError:
        raise ValidationError(
            f"a pool of {n} bugs is deeper than the exact search can recurse "
            f"(Python's recursion limit is {sys.getrecursionlimit()})"
        ) from None
    # in bug-id order; the objective sums their contributions left to right
    # by plain float addition (the builtin sum compensates from Python 3.12)
    cells = sorted(best_choice.items(), key=lambda cell: instance.bugs[cell[0]].bug_id)
    assignments = tuple((instance.bugs[i].bug_id, dev_ids[j]) for i, j in cells)
    check_feasible(instance, assignments, variant)
    value = reduce(add, (contrib_rows[i][j] for i, j in cells), 0.0)
    return AssignmentSolution(assignments=assignments, objective_value=value, node_count=node_count)


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
    n, D = instance.C.shape
    if n > _ORACLE_MAX_BUGS:
        raise ValidationError(f"oracle refuses instances with more than {_ORACLE_MAX_BUGS} bugs")
    if n == 0 or D == 0:
        return AssignmentSolution(assignments=(), objective_value=0.0, node_count=0)
    contrib = instance.contributions(variant)  # (n, D)
    costs, caps = instance.C, instance.caps
    arcs = [(p, ch) for p, kids in instance.children.items() for ch in kids] if variant == DABT else []

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
    low_loads = np.zeros((low_total, D + 1))  # column D: the unassigned, at cost 0
    for i in range(k):
        low_value += contrib_ext[low_dig[:, i], i]
        low_loads[low_codes, low_dig[:, i]] += cost_ext[low_dig[:, i], i]
    # precedence arcs entirely inside the low digits never change
    low_ok = np.ones(low_total, dtype=bool)
    for p, ch in arcs:
        if p < k and ch < k:
            low_ok &= (low_dig[:, ch] == D) | (low_dig[:, ch] == low_dig[:, p])

    best_value = -1.0
    best_code = 0
    for high in range(base ** (n - k)):
        high_dig = [(high // base**i) % base for i in range(n - k)]
        high_value = sum(contrib_ext[d, k + i] for i, d in enumerate(high_dig))
        high_loads = np.zeros(D + 1)
        for i, d in enumerate(high_dig):
            high_loads[d] += cost_ext[d, k + i]
        ok = low_ok & np.all(low_loads[:, :D] + high_loads[:D] <= caps + 1e-9, axis=1)
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
        node_count=base**n,  # every code is checked
    )
