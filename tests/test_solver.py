import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triagelab.errors import ValidationError
from triagelab.solver import (
    _EPS,
    DABT,
    RABT,
    AssignmentInstance,
    AssignmentSolution,
    InstanceBug,
    _branch_and_bound,
    _capacity_tables,
    _greedy_incumbent,
    _search_order,
    brute_force_oracle,
    check_feasible,
    objective_value,
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
        instance, contrib, order, parents_of, caps
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
        objective_value=objective_value(instance, assignments, variant),
        node_count=node_count,
    )


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
    for cap in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            AssignmentInstance(bugs=[bug], developers=[(1, cap)])
    for s, c in (((float("nan"),), (2.0,)), ((1.0,), (float("nan"),)), ((1.0,), (float("inf"),))):
        with pytest.raises(ValidationError, match="finite"):
            AssignmentInstance(bugs=[InstanceBug(1, s=s, c=c)], developers=[(1, 5.0)])
    with pytest.raises(ValidationError):
        AssignmentInstance(bugs=[bug], developers=[(1, 5.0)], precedence=[(1, 99)])
    two = [InstanceBug(1, (1.0,), (1.0,)), InstanceBug(2, (1.0,), (1.0,))]
    with pytest.raises(ValidationError):
        AssignmentInstance(
            bugs=two, developers=[(1, 5.0)], precedence=[(1, 2), (2, 1)]
        )  # cyclic


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


def test_objective_value_matches_hand_sum():
    inst = _two_bug_instance(alpha=1.0)
    assert objective_value(inst, [(1, 10), (2, 20)], DABT) == pytest.approx(2.0)
    assert objective_value(inst, [(1, 20)], DABT) == pytest.approx(0.4)


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
    caps = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 6.0]), min_size=D, max_size=D))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return AssignmentInstance(
        bugs=bugs,
        developers=[(10 + j, cap) for j, cap in enumerate(caps)],
        precedence=sorted(arcs),
        alpha=alpha,
    )


@settings(max_examples=300, deadline=None)
@given(inst=coarse_instances())
def test_capacity_bound_search_equals_suffix_reference(inst):
    for variant in (DABT, RABT):
        got = _branch_and_bound(inst, variant)
        want = reference_branch_and_bound(inst, variant)
        assert got.assignments == want.assignments
        assert got.objective_value == want.objective_value  # to the bit
        assert got.node_count <= want.node_count


@settings(max_examples=100, deadline=None)
@given(inst=coarse_instances())
def test_capacity_bound_at_root_covers_oracle_optimum(inst):
    caps = [cap for _, cap in inst.developers]
    for variant in (DABT, RABT):
        contrib = inst.contributions(variant)
        order = _search_order(inst, contrib, variant == DABT)
        fits, gains, slack = _capacity_tables(
            order, contrib.tolist(), [list(b.c) for b in inst.bugs], caps
        )
        bound = sum(
            gains[0][j][bisect_right(fits[0][j], cap + slack)]
            for j, cap in enumerate(caps)
        )
        assert bound >= brute_force_oracle(inst, variant).objective_value - 1e-9


def test_matches_milp_above_oracle_size():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n, D = int(rng.integers(13, 21)), int(rng.integers(3, 5))
        bugs = []
        for i in range(n):
            s = rng.random(D)
            s /= s.max()
            bugs.append(InstanceBug(i, tuple(s), tuple(rng.uniform(1, 8, D))))
        inst = AssignmentInstance(
            bugs=bugs,
            developers=[(d, float(rng.uniform(0, 12))) for d in range(D)],
            precedence=[
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1
            ],
            alpha=float(rng.random()),
        )
        for variant, solve in ((DABT, solve_dabt), (RABT, solve_rabt)):
            sol = solve(inst)
            check_feasible(inst, sol.assignments, variant)
            assert sol.objective_value == pytest.approx(milp_optimum(inst, variant), abs=1e-9)
