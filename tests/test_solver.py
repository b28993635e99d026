import importlib.util
import random
import re
import warnings
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triagelab.bdg import topological_order
from triagelab.errors import ValidationError
from triagelab.solver import (
    _EPS,
    DABT,
    RABT,
    AssignmentInstance,
    AssignmentSolution,
    InstanceBug,
    _branch_and_bound,
    _distinct_costs,
    _fit_table,
    _fit_walks,
    _greedy_incumbent,
    _matching_table,
    _search_order,
    brute_force_oracle,
    check_feasible,
    combined_score,
    solve_dabt,
    solve_rabt,
)


def reference_branch_and_bound(instance, variant):
    """Branch and bound pruned by the capacity-ignoring suffix bound alone;
    the exactness reference for the capacity-aware search."""
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

    suffix_best = np.zeros(n + 1)
    for r in range(n - 1, -1, -1):
        suffix_best[r] = suffix_best[r + 1] + max(contrib[order[r]].max(), 0.0)

    dev_order = []
    for i in range(n):
        js = sorted(
            range(D), key=lambda j: (-contrib[i, j], instance.developers[j][0])
        )
        dev_order.append(js)

    incumbent, best_value = _greedy_incumbent(
        contrib.tolist(), [list(b.c) for b in instance.bugs], order, parents_of, caps,
        sorted(range(D), key=lambda j: instance.developers[j][0]),
    )
    best_choice = dict(incumbent)
    choice = {}
    remaining = list(caps)
    node_count = 0

    def dfs(rank, value):
        nonlocal best_value, best_choice, node_count
        node_count += 1
        if rank == n:
            if value > best_value + _EPS:
                best_value = value
                best_choice = dict(choice)
            return
        if value + suffix_best[rank] <= best_value + _EPS:
            return
        i = order[rank]
        bug = instance.bugs[i]
        allowed = dev_order[i]
        if parents_of[i]:
            parent_devs = {choice.get(p, -1) for p in parents_of[i]}
            if len(parent_devs) != 1 or -1 in parent_devs:
                allowed = []
            else:
                allowed = list(parent_devs)
        for j in allowed:
            if bug.c[j] > remaining[j] + _EPS:
                continue
            choice[i] = j
            remaining[j] -= bug.c[j]
            dfs(rank + 1, value + contrib[i, j])
            remaining[j] += bug.c[j]
            del choice[i]
        dfs(rank + 1, value)

    dfs(0, 0.0)
    assignments = tuple(
        sorted(
            (instance.bugs[i].bug_id, instance.developers[j][0])
            for i, j in best_choice.items()
        )
    )
    return AssignmentSolution(
        assignments=assignments,
        objective_value=reference_objective_value(instance, assignments, variant),
        node_count=node_count,
    )


def reference_contributions(instance, variant):
    """The objective coefficients rebuilt from the InstanceBug tuples: the
    reference for the instance's arrays."""
    shape = (len(instance.bugs), len(instance.developers))
    S = np.array([b.s for b in instance.bugs], dtype=float).reshape(shape)
    if variant == RABT or S.size == 0:
        return S
    C = np.array([b.c for b in instance.bugs], dtype=float).reshape(shape)
    return combined_score(S, C, instance.alpha)


def reference_objective_value(instance, assignments, variant):
    """The objective from the tuple-built coefficients, summed as numpy
    scalars left to right (the builtin sum compensates only exact floats)."""
    check_feasible(instance, assignments, variant)
    contrib = reference_contributions(instance, variant)
    bug_index = {b.bug_id: i for i, b in enumerate(instance.bugs)}
    dev_index = {d: j for j, (d, _) in enumerate(instance.developers)}
    return float(sum(contrib[bug_index[b], dev_index[d]] for b, d in assignments))


def reference_search_order(instance, contrib, with_precedence):
    """Kahn's order over every bug, best contribution then bug id first
    among ready bugs: the reference for the search order."""
    n = len(instance.bugs)
    best = contrib.max(axis=1)
    bug_pos = {b.bug_id: i for i, b in enumerate(instance.bugs)}
    children = {i: [] for i in range(n)}
    for p, ch in instance.precedence if with_precedence else ():
        children[bug_pos[p]].append(bug_pos[ch])
    return topological_order(children, key=lambda i: (-best[i], instance.bugs[i].bug_id))


def milp_optimum(instance, variant):
    """Optimum by scipy's MILP (HiGHS): x[i, j] = 1 assigns bug i to
    developer j; at most one developer per bug, capacity per developer
    and, for DABT, x[child, j] <= x[parent, j] per precedence arc."""
    optimize = pytest.importorskip("scipy.optimize")
    n, D = len(instance.bugs), len(instance.developers)
    s = np.array([b.s for b in instance.bugs], dtype=float)
    cost = np.array([b.c for b in instance.bugs], dtype=float)
    if variant == RABT:
        coef = s
    else:
        a = instance.alpha
        coef = a * s / s.max(axis=1, keepdims=True) + (1 - a) * cost.min(axis=1, keepdims=True) / cost
    rows, upper = [], []
    for i in range(n):
        row = np.zeros((n, D))
        row[i, :] = 1.0
        rows.append(row.ravel())
        upper.append(1.0)
    for j, (_, cap) in enumerate(instance.developers):
        row = np.zeros((n, D))
        row[:, j] = cost[:, j]
        rows.append(row.ravel())
        upper.append(cap)
    if variant == DABT:
        pos = {b.bug_id: i for i, b in enumerate(instance.bugs)}
        for parent, child in instance.precedence:
            for j in range(D):
                row = np.zeros((n, D))
                row[pos[child], j] = 1.0
                row[pos[parent], j] = -1.0
                rows.append(row.ravel())
                upper.append(0.0)
    # HiGHS's default gaps (absolute 1e-6, feasibility 1e-7) are wider
    # than the gaps between near-optimal assignments; scipy passes these
    # options through with a warning that they are not its own.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = optimize.milp(
            -coef.ravel(),
            constraints=optimize.LinearConstraint(np.array(rows), -np.inf, np.array(upper)),
            integrality=np.ones(n * D),
            bounds=optimize.Bounds(0, 1),
            options={
                "mip_rel_gap": 0.0, "mip_abs_gap": 0.0,
                "mip_feasibility_tolerance": 1e-10,
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
    assert res.success, res.message
    return float((coef * np.round(res.x).reshape(n, D)).sum())


def _two_bug_instance(alpha=0.5, caps=(10.0, 10.0), precedence=()):
    bugs = [
        InstanceBug(1, s=(1.0, 0.4), c=(2.0, 4.0)),
        InstanceBug(2, s=(0.5, 1.0), c=(6.0, 3.0)),
    ]
    return AssignmentInstance(
        bugs=bugs,
        developers=[(10, caps[0]), (20, caps[1])],
        precedence=list(precedence),
        alpha=alpha,
    )


def test_hand_objective_two_bugs():
    inst = _two_bug_instance(alpha=0.5)
    sol = solve_dabt(inst)
    # bug 1 -> dev 10: 0.5*1 + 0.5*(2/2) = 1.0; bug 2 -> dev 20: 1.0
    assert sol.assignments == ((1, 10), (2, 20))
    assert sol.objective_value == pytest.approx(2.0)


def test_min_cost_max_suitability_contribution_is_one():
    for alpha in (0.0, 0.3, 0.5, 1.0):
        inst = _two_bug_instance(alpha=alpha)
        contrib = inst.contributions(DABT)
        assert contrib[0, 0] == pytest.approx(1.0)  # bug 1 best on dev 10
        assert contrib[1, 1] == pytest.approx(1.0)  # bug 2 best on dev 20


def test_precedence_forces_same_developer():
    inst = _two_bug_instance(precedence=[(1, 2)])
    sol = solve_dabt(inst)
    devs = dict(sol.assignments)
    if 2 in devs:
        assert devs[2] == devs[1]
    check_feasible(inst, sol.assignments, DABT)


def test_precedence_can_leave_child_unassigned():
    # parent fits nowhere, so the child must stay unassigned under DABT
    bugs = [
        InstanceBug(1, s=(1.0,), c=(9.0,)),
        InstanceBug(2, s=(1.0,), c=(1.0,)),
    ]
    inst = AssignmentInstance(
        bugs=bugs, developers=[(5, 2.0)], precedence=[(1, 2)], alpha=1.0
    )
    assert solve_dabt(inst).assignments == ()
    # RABT ignores precedence and takes the cheap bug
    assert solve_rabt(inst).assignments == ((2, 5),)


def test_capacity_excludes_expensive_assignment():
    bugs = [InstanceBug(1, s=(1.0,), c=(4.0,))]
    inst = AssignmentInstance(bugs=bugs, developers=[(7, 3.0)], alpha=1.0)
    assert solve_dabt(inst).assignments == ()
    inst2 = AssignmentInstance(bugs=bugs, developers=[(7, 4.0)], alpha=1.0)
    assert solve_dabt(inst2).assignments == ((1, 7),)


def test_alpha_one_dependency_free_dabt_equals_rabt():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, D = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        bugs = []
        for i in range(n):
            s = rng.random(D)
            s /= s.max()
            bugs.append(InstanceBug(i, tuple(s), tuple(rng.uniform(0.5, 10, D))))
        inst = AssignmentInstance(
            bugs=bugs,
            developers=[(d, float(rng.uniform(0, 15))) for d in range(D)],
            alpha=1.0,
        )
        assert solve_dabt(inst).objective_value == pytest.approx(
            solve_rabt(inst).objective_value, abs=1e-9
        )


def test_chain_instance_matches_oracle():
    bugs = [
        InstanceBug(1, s=(1.0, 0.2), c=(3.0, 5.0)),
        InstanceBug(2, s=(0.3, 1.0), c=(2.0, 2.0)),
        InstanceBug(3, s=(1.0, 1.0), c=(4.0, 1.0)),
    ]
    inst = AssignmentInstance(
        bugs=bugs,
        developers=[(1, 6.0), (2, 4.0)],
        precedence=[(1, 2), (2, 3)],
        alpha=0.5,
    )
    for variant, solve in ((DABT, solve_dabt), (RABT, solve_rabt)):
        oracle = brute_force_oracle(inst, variant)
        sol = solve(inst)
        assert sol.objective_value == pytest.approx(oracle.objective_value, abs=1e-9)
        check_feasible(inst, sol.assignments, variant)


def test_solver_deterministic():
    inst = _two_bug_instance(caps=(3.0, 3.0), precedence=[(1, 2)])
    assert solve_dabt(inst) == solve_dabt(inst)


def test_instance_validation_errors():
    bug = InstanceBug(1, s=(1.0,), c=(2.0,))
    with pytest.raises(ValidationError):
        AssignmentInstance(bugs=[bug], developers=[(1, 5.0)], alpha=1.5)
    with pytest.raises(ValidationError):
        AssignmentInstance(bugs=[bug, bug], developers=[(1, 5.0)])
    with pytest.raises(ValidationError):
        AssignmentInstance(
            bugs=[InstanceBug(1, s=(0.5,), c=(2.0,))], developers=[(1, 5.0)]
        )  # row max != 1
    with pytest.raises(ValidationError):
        AssignmentInstance(
            bugs=[InstanceBug(1, s=(1.0,), c=(0.0,))], developers=[(1, 5.0)]
        )  # non-positive cost
    with pytest.raises(ValidationError):
        AssignmentInstance(bugs=[bug], developers=[(1, -1.0)])
    with pytest.raises(ValidationError, match="duplicate developer"):
        AssignmentInstance(
            bugs=[InstanceBug(1, s=(1.0, 1.0), c=(2.0, 2.0))],
            developers=[(1, 5.0), (1, 0.0)],
        )
    for cap in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            AssignmentInstance(bugs=[bug], developers=[(1, cap)])
    for s, c in (((float("nan"),), (2.0,)), ((1.0,), (float("nan"),)), ((1.0,), (float("inf"),)),
                 ((float("-inf"),), (2.0,))):
        with pytest.raises(ValidationError, match="bug 1: suitability and cost must be finite"):
            AssignmentInstance(bugs=[InstanceBug(1, s=s, c=c)], developers=[(1, 5.0)])
    for s, c in ((("x",), (2.0,)), (("1.0",), (2.0,)), ((None,), (2.0,)), (([1.0],), (2.0,))):
        with pytest.raises(ValidationError, match="suitability and cost must be real numbers"):
            AssignmentInstance(bugs=[InstanceBug(1, s=s, c=c)], developers=[(1, 5.0)])
    for s, c in (((True,), (2.0,)), ((1.0,), (True,))):
        with pytest.raises(ValidationError,
                           match="^bug 1: suitability or cost is true or false, not a number$"):
            AssignmentInstance(bugs=[InstanceBug(1, s=s, c=c)], developers=[(1, 5.0)])
    for s, c in (((1.0,), (2.0, 2.0)), ((1.0, 1.0), (2.0,))):  # an s row, then a c row, of the wrong length
        with pytest.raises(ValidationError, match="bug 1: row size mismatch"):
            AssignmentInstance(bugs=[InstanceBug(1, s=s, c=c)], developers=[(1, 5.0), (2, 5.0)])
    # the first bug that fails is named, with its first failed check
    rows = [((1.0,), (2.0,)), ((0.5,), (-1.0,)), ((float("nan"),), (2.0,))]
    with pytest.raises(ValidationError, match="^bug 2: costs must be positive$"):
        AssignmentInstance(
            bugs=[InstanceBug(i + 1, s, c) for i, (s, c) in enumerate(rows)], developers=[(1, 5.0)]
        )
    with pytest.raises(ValidationError):
        AssignmentInstance(bugs=[bug], developers=[(1, 5.0)], precedence=[(1, 99)])
    two = [InstanceBug(1, (1.0,), (1.0,)), InstanceBug(2, (1.0,), (1.0,))]
    with pytest.raises(ValidationError):
        AssignmentInstance(
            bugs=two, developers=[(1, 5.0)], precedence=[(1, 2), (2, 1)]
        )  # cyclic


@pytest.mark.parametrize(
    "kwargs,message",
    [
        # a bool among floats makes a float array, which reads it as 0 or 1
        (dict(bugs=[InstanceBug(1, (True, 0.5), (2.0, 2.0))], developers=[(7, True), (8, 5.0)],
              alpha=True), "alpha is true or false, not a number"),
        (dict(bugs=[InstanceBug(1, (1.0, 0.5), (2.0, 2.0))], developers=[(7, True), (8, 5.0)]),
         "capacity is true or false, not a number"),
        (dict(bugs=[InstanceBug(1, (1.0, 0.5), (2.0, False))], developers=[(7, 5.0), (8, 5.0)]),
         "bug 1: suitability or cost is true or false, not a number"),
        (dict(bugs=[InstanceBug(1.0, (1.0,), (2.0,))], developers=[(7, 5.0)]),
         "bug id 1.0 is not an integer"),
        (dict(bugs=[InstanceBug(1, (1.0,), (2.0,)), InstanceBug(2, (1.0,), (2.0,))],
              developers=[(7, 5.0)], precedence=[(1, 2.0)]),
         "precedence bug id 2.0 is not an integer"),
        (dict(bugs=[InstanceBug(np.int64(1), (1.0,), (2.0,))], developers=[(7, 5.0)]),
         "bug id np.int64(1) is a numpy integer; convert it with int()"),
    ],
    ids=["all-three-bools", "capacity-bool", "cost-bool-among-floats", "bug-id-float",
         "precedence-id-float", "bug-id-numpy-int"],
)
def test_direct_construction_refuses_what_from_json_refuses(kwargs, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        AssignmentInstance(**kwargs)


@pytest.mark.parametrize(
    "rows",
    [
        [(([1.0], 2.0), (1.0, 1.0))],  # numpy would raise on the ragged row
        [((1.0, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, [2.0]))],
        [((1.0, 1.0), (1.0, 1.0)), ((1.0, [1.0, 2.0]), (1.0, 1.0))],
        [((1.0, 1.0), (1.0, 1.0)), (([1.0], [1.0]), (1.0, 1.0))],  # a 3-d array
    ],
    ids=["list-entry", "list-cost-second-bug", "long-list-entry", "list-entries"],
)
def test_list_entry_is_a_validation_error_naming_the_bug(rows):
    bugs = [InstanceBug(i + 1, s, c) for i, (s, c) in enumerate(rows)]
    with pytest.raises(ValidationError,
                       match=f"^bug {len(rows)}: suitability and cost must be real numbers$"):
        AssignmentInstance(bugs=bugs, developers=[(1, 5.0), (2, 5.0)])


def test_check_feasible_violations():
    inst = _two_bug_instance(caps=(2.0, 2.0), precedence=[(1, 2)])
    with pytest.raises(ValidationError, match="more than once"):
        check_feasible(inst, [(1, 10), (1, 20)])
    with pytest.raises(ValidationError, match="over capacity"):
        check_feasible(inst, [(2, 10)])  # cost 6 > cap 2
    roomy = _two_bug_instance(caps=(9.0, 9.0), precedence=[(1, 2)])
    with pytest.raises(ValidationError, match="blocker"):
        check_feasible(roomy, [(2, 20)], DABT)
    # same pair passes as RABT (no precedence there), apart from capacity
    check_feasible(
        _two_bug_instance(caps=(9.0, 9.0)).__class__(
            bugs=_two_bug_instance().bugs,
            developers=[(10, 9.0), (20, 9.0)],
            precedence=[(1, 2)],
        ),
        [(2, 20)],
        RABT,
    )


def test_instance_and_solution_json_roundtrip():
    inst = _two_bug_instance(precedence=[(1, 2)])
    again = AssignmentInstance.from_json(inst.to_json())
    assert again.alpha == inst.alpha
    assert [b.bug_id for b in again.bugs] == [1, 2]
    assert again.precedence == [(1, 2)]
    sol = solve_dabt(inst)
    assert solve_dabt(again) == sol
    assert '"assignments"' in sol.to_json()


def test_empty_instance():
    inst = AssignmentInstance(bugs=[], developers=[(1, 5.0)])
    assert solve_dabt(inst) == AssignmentSolution((), 0.0, 0)
    assert brute_force_oracle(inst) == AssignmentSolution((), 0.0, 0)


def test_oracle_refuses_oversized():
    bugs = [InstanceBug(i, (1.0,), (1.0,)) for i in range(13)]
    inst = AssignmentInstance(bugs=bugs, developers=[(1, 100.0)])
    with pytest.raises(ValidationError):
        brute_force_oracle(inst)


# Coarse grids force ties between assignments and cost sums that land
# exactly on a capacity; zero capacities and precedence arcs are drawn too.
_CAPACITY_GRID = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0]


@st.composite
def coarse_instances(draw):
    n = draw(st.integers(1, 8))
    D = draw(st.integers(1, 4))
    bugs = []
    for i in range(n):
        s = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=D, max_size=D))
        s[draw(st.integers(0, D - 1))] = 1.0
        c = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]), min_size=D, max_size=D))
        bugs.append(InstanceBug(i, tuple(s), tuple(c)))
    caps = draw(st.lists(st.sampled_from(_CAPACITY_GRID), min_size=D, max_size=D))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return AssignmentInstance(
        bugs=bugs,
        developers=[(10 + j, cap) for j, cap in enumerate(caps)],
        precedence=sorted(arcs),
        alpha=alpha,
    )


@st.composite
def unit_case_instances(draw):
    """Coarse instances with each capacity drawn below the developer's two
    cheapest costs, so no developer fits two bugs: the free-developer
    bound's case."""
    inst = draw(coarse_instances())
    caps = [
        draw(st.sampled_from([v for v in _CAPACITY_GRID if v < sum(sorted(column)[:2])]))
        for column in zip(*(b.c for b in inst.bugs))
    ]
    return AssignmentInstance(
        bugs=inst.bugs,
        developers=[(d, cap) for (d, _), cap in zip(inst.developers, caps)],
        precedence=inst.precedence,
        alpha=inst.alpha,
    )


def _hexes(values):
    return [float(x).hex() for x in values]


@settings(max_examples=150, deadline=None)
@given(inst=coarse_instances(), variant=st.sampled_from([DABT, RABT]))
def test_arrays_equal_the_tuple_references(inst, variant):
    contrib = inst.contributions(variant)
    assert _hexes(contrib.ravel()) == _hexes(reference_contributions(inst, variant).ravel())
    assert _search_order(inst, contrib, variant == DABT) == reference_search_order(
        inst, contrib, variant == DABT
    )
    solution = solve_dabt(inst) if variant == DABT else solve_rabt(inst)
    # the solution is feasible, and its objective is its contributions
    # added left to right, never a compensated sum
    want = reference_objective_value(inst, solution.assignments, variant)
    assert _hexes([solution.objective_value]) == _hexes([want])


def _assert_search_equals_suffix_reference(inst, variant):
    got = _branch_and_bound(inst, variant)
    want = reference_branch_and_bound(inst, variant)
    assert got.assignments == want.assignments
    assert got.objective_value == want.objective_value  # to the bit
    assert got.node_count <= want.node_count


@settings(max_examples=300, deadline=None)
@given(inst=coarse_instances() | unit_case_instances())
def test_capacity_bound_search_equals_suffix_reference(inst):
    for variant in (DABT, RABT):
        _assert_search_equals_suffix_reference(inst, variant)


# Ten costs, so a developer whose bugs all cost differently has up to
# eight distinct costs and a fit-count field four bits wide.
_WIDE_COST_GRID = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0]


@st.composite
def wide_instances(draw):
    """Up to 16 developers, about half with a distinct cost per bug, so
    the packed fit counts run to 64 bits and more developers than the
    free-developer table takes.  Half the draws have 8 bugs, the most a
    four-bit field needs."""
    n = draw(st.integers(1, 8) | st.just(8))
    D = draw(st.integers(1, 16))
    columns = [
        draw(st.lists(st.sampled_from(_WIDE_COST_GRID), min_size=n, max_size=n,
                      unique=draw(st.booleans())))
        for _ in range(D)
    ]
    bugs = []
    for i in range(n):
        s = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=D, max_size=D))
        s[draw(st.integers(0, D - 1))] = 1.0
        bugs.append(InstanceBug(i, tuple(s), tuple(column[i] for column in columns)))
    caps = draw(st.lists(st.sampled_from(_CAPACITY_GRID), min_size=D, max_size=D))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return AssignmentInstance(
        bugs=bugs,
        developers=[(10 + j, cap) for j, cap in enumerate(caps)],
        precedence=sorted(arcs),
        alpha=draw(st.floats(0.0, 1.0)),
    )


@settings(max_examples=150, deadline=None)
@given(inst=wide_instances(), variant=st.sampled_from([DABT, RABT]))
def test_wide_packed_keys_search_equals_suffix_reference(inst, variant):
    _assert_search_equals_suffix_reference(inst, variant)


@settings(max_examples=150, deadline=None)
@given(inst=unit_case_instances(), data=st.data())
def test_matching_bound_at_root_covers_oracle_optimum(inst, data):
    # The search reads the column of the developers with a positive fit
    # count, so every column must bound the instance in which the
    # developers outside it take nothing.
    caps = [cap for _, cap in inst.developers]
    mask = data.draw(st.integers(0, (1 << len(caps)) - 1))
    masked = AssignmentInstance(
        bugs=inst.bugs,
        developers=[
            (d, cap if mask >> j & 1 else 0.0) for j, (d, cap) in enumerate(inst.developers)
        ],
        precedence=inst.precedence,
        alpha=inst.alpha,
    )
    cost_rows = [b.c for b in inst.bugs]
    slack = (len(inst.bugs) + 1) * _EPS + 1e-9
    for variant in (DABT, RABT):
        contrib = inst.contributions(variant)
        order = _search_order(inst, contrib, variant == DABT)
        # bug ids are positions in coarse instances
        blocked = {child for _, child in inst.precedence} if variant == DABT else set()
        table = _matching_table(order, contrib.tolist(), cost_rows, caps, slack, blocked)
        assert table[0, mask] >= brute_force_oracle(masked, variant).objective_value - 1e-9


def reference_fit_table(counts, order, contrib_rows, levels):
    """The fit-aware bound as a formula: entry r sums, over the bugs
    order[r:], the best of each one's contributions on the developers
    whose level is below their fit count, floored at 0."""
    table = [0.0] * (len(order) + 1)
    for r in range(len(order) - 1, -1, -1):
        i = order[r]
        fitting = (
            g for g, level, count in zip(contrib_rows[i], levels[i], counts) if level < count
        )
        table[r] = table[r + 1] + max(max(fitting, default=0.0), 0.0)
    return table


def _fit_setup(inst, variant):
    """(order, contrib_rows, levels, walks, distinct) as the search builds them."""
    contrib = inst.contributions(variant)
    order = _search_order(inst, contrib, variant == DABT)
    contrib_rows = contrib.tolist()
    dev_ids = [d for d, _ in inst.developers]
    dev_order = [
        sorted(range(len(dev_ids)), key=lambda j: (-row[j], dev_ids[j])) for row in contrib_rows
    ]
    distinct = _distinct_costs(inst.C)
    cost_rows = [list(b.c) for b in inst.bugs]
    # each bug's level: the index of its cost among the developer's distinct costs
    index = [{c: k for k, c in enumerate(sorted(set(column)))} for column in zip(*cost_rows)]
    levels = [[index[j][c] for j, c in enumerate(row)] for row in cost_rows]
    walks = _fit_walks(order, contrib_rows, cost_rows, dev_order, distinct)
    return order, contrib_rows, levels, walks, distinct


@settings(max_examples=150, deadline=None)
@given(inst=coarse_instances(), data=st.data())
def test_fit_bound_at_root_covers_oracle_optimum(inst, data):
    # remaining capacities at or below the caps, on the grid the costs are
    # drawn from, so that many costs land exactly on a remaining capacity
    remaining = [
        data.draw(st.sampled_from([v for v in _CAPACITY_GRID if v <= cap]))
        for _, cap in inst.developers
    ]
    shrunk = AssignmentInstance(
        bugs=inst.bugs,
        developers=[(d, left) for (d, _), left in zip(inst.developers, remaining)],
        precedence=inst.precedence,
        alpha=inst.alpha,
    )
    for variant in (DABT, RABT):
        _, _, _, walks, distinct = _fit_setup(inst, variant)
        slack = (len(inst.bugs) + 1) * _EPS + 1e-9
        counts = [bisect_right(distinct[j], left + slack) for j, left in enumerate(remaining)]
        bound = _fit_table(counts, walks)[0]
        assert bound >= brute_force_oracle(shrunk, variant).objective_value - 1e-9


def _drawn_counts(distinct, data):
    """A fit-count vector drawn anywhere from no cost fitting to every
    cost fitting."""
    return [data.draw(st.integers(0, len(costs))) for costs in distinct]


@settings(max_examples=150, deadline=None)
@given(inst=coarse_instances(), variant=st.sampled_from([DABT, RABT]), data=st.data())
def test_first_fit_table_equals_reference_formula(inst, variant, data):
    order, contrib_rows, levels, walks, distinct = _fit_setup(inst, variant)
    counts = _drawn_counts(distinct, data)
    got = _fit_table(counts, walks)
    want = reference_fit_table(counts, order, contrib_rows, levels)
    assert [x.hex() for x in got] == [x.hex() for x in want]  # to the bit


@settings(max_examples=150, deadline=None)
@given(inst=coarse_instances(), variant=st.sampled_from([DABT, RABT]), data=st.data())
def test_fit_table_never_rises_when_a_count_falls(inst, variant, data):
    # A child's counts are its node's with one entry lowered, so the
    # node's own table bounds every child.
    _, _, _, walks, distinct = _fit_setup(inst, variant)
    counts = _drawn_counts(distinct, data)
    j = data.draw(st.integers(0, len(counts) - 1))
    lowered = list(counts)
    lowered[j] = data.draw(st.integers(0, counts[j]))
    table = _fit_table(counts, walks)
    child = _fit_table(lowered, walks)
    assert all(c <= t for c, t in zip(child, table))


@settings(max_examples=150, deadline=None)
@given(inst=coarse_instances(), variant=st.sampled_from([DABT, RABT]), data=st.data())
def test_fit_table_is_at_most_the_suffix_sum(inst, variant, data):
    # The capacity-ignoring suffix sum of best contributions never prunes
    # a branch that the fit table keeps.
    order, contrib_rows, _, walks, distinct = _fit_setup(inst, variant)
    table = _fit_table(_drawn_counts(distinct, data), walks)
    suffix = 0.0
    for r in range(len(order) - 1, -1, -1):
        suffix += max(max(contrib_rows[order[r]]), 0.0)
        assert table[r] <= suffix


def _above_oracle_family():
    """20 seeded instances of 13-20 bugs, beyond the brute-force oracle."""
    rng = np.random.default_rng(13)
    for _ in range(20):
        n, D = int(rng.integers(13, 21)), int(rng.integers(3, 5))
        bugs = []
        for i in range(n):
            s = rng.random(D)
            s /= s.max()
            bugs.append(InstanceBug(i, tuple(s), tuple(rng.uniform(1, 8, D))))
        yield AssignmentInstance(
            bugs=bugs,
            developers=[(d, float(rng.uniform(0, 12))) for d in range(D)],
            precedence=[
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1
            ],
            alpha=float(rng.random()),
        )


def test_matches_milp_above_oracle_size():
    for inst in _above_oracle_family():
        for variant, solve in ((DABT, solve_dabt), (RABT, solve_rabt)):
            sol = solve(inst)
            check_feasible(inst, sol.assignments, variant)
            assert sol.objective_value == pytest.approx(milp_optimum(inst, variant), abs=1e-9)


def test_key_wider_than_64_bits_matches_milp():
    # 14 bugs x 24 developers with 8 or more distinct costs each: 24
    # four-bit fit-count fields make a 96-bit key, past numpy's ints.
    rng = np.random.default_rng(24)
    n, D = 14, 24
    s = rng.random((n, D)) ** 4
    s /= s.max(axis=1, keepdims=True)
    costs = rng.uniform(1, 8, (n, D)).round(2)
    caps = rng.uniform(0, 4, D).round(2)
    inst = AssignmentInstance(
        bugs=[InstanceBug(i, tuple(s[i].tolist()), tuple(costs[i].tolist())) for i in range(n)],
        developers=[(d, cap) for d, cap in enumerate(caps.tolist())],
        precedence=[(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1],
        alpha=0.5,
    )
    assert sum(len(column).bit_length() for column in _distinct_costs(inst.C)) == 96
    for variant, solve in ((DABT, solve_dabt), (RABT, solve_rabt)):
        sol = solve(inst)
        check_feasible(inst, sol.assignments, variant)
        assert sol.objective_value == pytest.approx(milp_optimum(inst, variant), abs=1e-9)


def test_node_count_on_above_oracle_family_is_pinned():
    # The properties above only check node_count <= the suffix-only
    # reference, and milp checks the answers; a search that prunes less
    # (or differently) but stays optimal shows up only here.
    totals = {DABT: 0, RABT: 0}
    for inst in _above_oracle_family():
        totals[DABT] += solve_dabt(inst).node_count
        totals[RABT] += solve_rabt(inst).node_count
    assert totals == {DABT: 223058, RABT: 281565}


def _eight_developer_family():
    """40 seeded instances of 6-7 bugs x 8 developers: four experts whose
    costs run 6-16 days and capacities 1-10, and four others at 2.2-3.8
    days and 7.5-10, so most developers fit several bugs and a child's
    fit counts often equal its node's.  A bug's costs are its topic's
    row (4 topics) and its suitability peaks at 1 at its topic's
    expert; each bug pair is an arc with probability 0.08."""
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(6, 8))
        topic = rng.permutation(np.arange(n) % 4)
        costs = np.hstack([rng.uniform(6, 16, (4, 4)), rng.uniform(2.2, 3.8, (4, 4))])
        s = np.hstack([rng.uniform(0.58, 0.76, (n, 4)), rng.uniform(0.0, 0.06, (n, 4))])
        s[np.arange(n), topic] = 1.0
        caps = np.hstack([rng.uniform(1, 10, 4), rng.uniform(7.5, 10, 4)])
        yield AssignmentInstance(
            bugs=[
                InstanceBug(i, tuple(s[i].tolist()), tuple(costs[topic[i]].tolist()))
                for i in range(n)
            ],
            developers=[(d, cap) for d, cap in enumerate(caps.tolist())],
            precedence=[(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.08],
            alpha=0.5,
        )


def test_node_count_on_eight_developer_family_is_pinned():
    # The fit-aware table's regime (the pinned family above has D <= 4,
    # the backlog pools take the free-developer table): a change to how
    # a node builds or shares its children's tables must leave these
    # totals as they are.
    totals = {DABT: 0, RABT: 0}
    for k, inst in enumerate(_eight_developer_family()):
        for variant, solve in ((DABT, solve_dabt), (RABT, solve_rabt)):
            sol = solve(inst)
            totals[variant] += sol.node_count
            if k % 8 == 0:
                check_feasible(inst, sol.assignments, variant)
                assert sol.objective_value == pytest.approx(milp_optimum(inst, variant), abs=1e-9)
    assert totals == {DABT: 7583, RABT: 8793}


@pytest.mark.parametrize(
    "name,nodes",
    [
        ("backlog_pool_59.json", {DABT: 292, RABT: 738}),
        ("backlog_pool_66.json", {DABT: 221, RABT: 641}),
        ("backlog_pool_62.json", {DABT: 1264, RABT: 1737}),
        ("backlog_pool_77.json", {DABT: 1529, RABT: 1598}),
    ],
)
def test_backlog_pool_matches_milp(name, nodes):
    # DABT pools of 59-77 bugs across 8 developers, none of whom fits two
    # of its bugs, written by scripts/dump_pools.py (the seed-7 DABT
    # replay of MiniCorpusSpec(test_rate_per_topic=0.5) trained with
    # --topics 4 --lda-iters 20, boundary 365, end 730): backlog scale,
    # far above the 13-20 bugs of the family above.
    inst = AssignmentInstance.from_json((Path(__file__).parent / "data" / name).read_text())
    for variant, solve in ((DABT, solve_dabt), (RABT, solve_rabt)):
        sol = solve(inst)
        check_feasible(inst, sol.assignments, variant)
        assert sol.objective_value == pytest.approx(milp_optimum(inst, variant), abs=1e-9)
        assert sol.node_count == nodes[variant]


def _load_script(name):
    path = Path(__file__).parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_BACKLOG_POOLS = sorted(map(str, (Path(__file__).parent / "data").glob("backlog_pool_*.json")))


def test_backlog_pools_keep_the_metamorphic_relations(capsys):
    # scripts/check_relations.py: the same solution after shuffling rows and
    # columns, doubling costs and capacities, or adding an idle developer,
    # under DABT and RABT; and DABT at alpha 1 without arcs is RABT
    relations = _load_script("check_relations")
    assert len(_BACKLOG_POOLS) == 4
    assert relations.main(_BACKLOG_POOLS) == 0
    assert capsys.readouterr().out == "28 checks on 4 pools: no difference\n"


def test_relations_script_reports_a_solver_that_reads_input_order(monkeypatch, capsys):
    relations = _load_script("check_relations")

    def order_dependent(instance):
        solution = solve_rabt(instance)
        return replace(solution, node_count=solution.node_count + instance.developers[0][0])

    monkeypatch.setitem(relations.SOLVERS, "RABT", order_dependent)
    assert relations.main(_BACKLOG_POOLS[:1]) == 1
    assert capsys.readouterr().err == (
        f"error: {_BACKLOG_POOLS[0]}: shuffle under RABT: the solution differs\n")


def test_a_developer_who_fits_no_bug_leaves_the_search_as_it_is():
    # The first 20 bugs of pool 77 with copies of its first 4 developers
    # fill the free-developer table's 12 columns.  One more developer of
    # capacity 0 (check_relations' idle developer) takes no bug, so the
    # search drops that column and still reads the table: the node counts
    # stay the same, where counting the column would leave the search
    # without the table.
    relations = _load_script("check_relations")
    pool = AssignmentInstance.from_json(
        (Path(__file__).parent / "data" / "backlog_pool_77.json").read_text())
    bugs = pool.bugs[:20]
    ids = {b.bug_id for b in bugs}
    top = max(d for d, _ in pool.developers)
    inst = replace(
        pool,
        bugs=[replace(b, s=b.s + b.s[:4], c=b.c + b.c[:4]) for b in bugs],
        developers=pool.developers + [(top + 1 + j, cap)
                                      for j, (_, cap) in enumerate(pool.developers[:4])],
        precedence=[arc for arc in pool.precedence if set(arc) <= ids],
    )
    idle = relations.with_idle_developer(inst, None)
    assert len(idle.developers) == 13
    for solve, nodes in ((solve_dabt, 169), (solve_rabt, 234)):
        want = relations.outcome(solve(inst))
        assert want[2] == nodes
        assert relations.outcome(solve(idle)) == want


# Backlog-shaped pools: each developer has a few distinct costs and a
# capacity below their two cheapest, so no developer fits two bugs and the
# free-developer table bounds the search; a few arcs run forward.
_BACKLOG_COSTS = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]


@st.composite
def backlog_instances(draw):
    n, D = draw(st.integers(30, 60)), 8
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = [rng.choice(_BACKLOG_COSTS, size=rng.integers(2, 4), replace=False) for _ in range(D)]
    C = np.column_stack([rng.choice(levels, size=n) for levels in costs])
    S = rng.choice([0.0, 0.25, 0.5, 0.75], size=(n, D))
    S[np.arange(n), rng.integers(0, D, size=n)] = 1.0
    caps = [
        float(rng.choice([0.0] + [c for c in _BACKLOG_COSTS if c < sum(sorted(column)[:2])]))
        for column in C.T.tolist()
    ]
    arcs = {tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
            for _ in range(rng.integers(0, 6))}
    return AssignmentInstance(
        bugs=[InstanceBug(i, tuple(S[i].tolist()), tuple(C[i].tolist())) for i in range(n)],
        developers=[(10 + j, cap) for j, cap in enumerate(caps)],
        precedence=sorted(arcs),
        alpha=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
    )


@settings(max_examples=100, deadline=None)
@given(inst=coarse_instances() | unit_case_instances() | backlog_instances(),
       seed=st.integers(0, 2**32 - 1))
def test_random_instances_keep_the_metamorphic_relations(inst, seed):
    # scripts/check_relations.py's seven checks, on random instances up to
    # backlog scale
    relations = _load_script("check_relations")
    assert relations.check(inst, random.Random(seed)) == (7, None)
