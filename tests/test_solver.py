import numpy as np
import pytest

from triagelab.errors import ValidationError
from triagelab.solver import (
    DABT,
    RABT,
    AssignmentInstance,
    AssignmentSolution,
    InstanceBug,
    brute_force_oracle,
    check_feasible,
    objective_value,
    solve_dabt,
    solve_rabt,
)


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
