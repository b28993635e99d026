from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from triagelab import policies, simulator
from triagelab.bdg import ADD_ARC, OPEN, DependencyGraph
from triagelab.errors import ValidationError
from triagelab.policies import (
    decide_actual,
    decide_cbr,
    decide_costriage,
    decide_knapsack,
)
from triagelab.simulator import SimConfig, run_simulation
from triagelab.solver import AssignmentSolution

from conftest import MINI_BOUNDARY, MINI_END, make_bug


def _rows(spec):
    """(bug_ids, S) from {bug_id: {dev_id: s}}; every bug names the same devs."""
    bug_ids = sorted(spec)
    return bug_ids, np.array([[spec[b][d] for d in sorted(spec[b])] for b in bug_ids])


def _costs(bug_ids, per_dev):
    """C with the same {dev_id: days} row for every bug."""
    return np.array([[per_dev[d] for d in sorted(per_dev)] for _ in bug_ids])


def test_cbr_picks_argmax_with_smallest_dev_tie():
    ids, S = _rows({1: {1: 0.4, 2: 1.0}, 2: {1: 1.0, 2: 1.0}})
    decision = decide_cbr(5, ids, (1, 2), S, _costs(ids, {1: 7.0, 2: 8.0}))
    assert decision.assignments == ((1, 2, 8.0), (2, 1, 7.0))
    assert decision.deferred == ()


def test_cbr_cost_lookup_annotates_but_never_steers():
    ids, S = _rows({1: {1: 1.0, 2: 0.9}})
    C = _costs(ids, {1: 50.0, 2: 0.1})  # dev 1 is far more expensive
    decision = decide_cbr(5, ids, (1, 2), S, C)
    assert decision.assignments == ((1, 1, 50.0),)


def test_costriage_alpha_one_equals_cbr():
    ids, S = _rows({1: {1: 0.4, 2: 1.0}, 2: {1: 1.0, 2: 0.2}})
    C = _costs(ids, {1: 9.0, 2: 1.0})
    ct = decide_costriage(5, ids, (1, 2), S, C, alpha=1.0)
    cbr = decide_cbr(5, ids, (1, 2), S, C)
    assert [(b, d) for b, d, _ in ct.assignments] == [
        (b, d) for b, d, _ in cbr.assignments
    ]


def test_costriage_alpha_zero_picks_cheapest():
    ids, S = _rows({1: {1: 1.0, 2: 0.0}})
    decision = decide_costriage(5, ids, (1, 2), S, _costs(ids, {1: 9.0, 2: 3.0}), alpha=0.0)
    assert decision.assignments == ((1, 2, 3.0),)


def test_costriage_combined_score_hand_check():
    # alpha=0.5: dev1 = 0.5*1 + 0.5*(3/9) = 0.667; dev2 = 0.5*0.2 + 0.5*1 = 0.6
    ids, S = _rows({1: {1: 1.0, 2: 0.2}})
    decision = decide_costriage(5, ids, (1, 2), S, _costs(ids, {1: 9.0, 2: 3.0}), alpha=0.5)
    assert decision.assignments == ((1, 1, 9.0),)


def test_costriage_ties_go_to_smallest_dev():
    ids, S = _rows({1: {3: 1.0, 5: 1.0, 9: 0.2}})
    decision = decide_costriage(5, ids, (3, 5, 9), S, _costs(ids, {3: 2.0, 5: 2.0, 9: 2.0}), alpha=0.5)
    assert decision.assignments == ((1, 3, 2.0),)


def test_actual_replays_history_and_defers_rest():
    history = {
        1: make_bug(1, reported=4, assigned=5, resolved=9, dev=3),
        2: make_bug(2, reported=4, assigned=8, resolved=9, dev=4),
        3: make_bug(3, reported=4),
    }
    decision = decide_actual(5, [1, 2, 3], history)
    assert decision.assignments == ((1, 3, 5.0),)
    assert decision.deferred == (2, 3)


def _graph_with(arcs, nodes):
    g = DependencyGraph()
    for n in nodes:
        g.apply_event(OPEN, n)
    for a, b in arcs:
        g.apply_event(ADD_ARC, a, b)
    return g


def test_knapsack_rabt_ignores_dependencies():
    ids, S = _rows({2: {1: 1.0}})
    graph = _graph_with([(1, 2)], [1, 2])
    decision = decide_knapsack(
        5, ids, (1,), S, _costs(ids, {1: 2.0}), [10.0], graph, 0.5, "RABT"
    )
    assert decision.assignments == ((2, 1, 2.0),)


def test_knapsack_dabt_defers_child_of_out_of_instance_parent():
    ids, S = _rows({2: {1: 1.0}})
    graph = _graph_with([(9, 2)], [2, 9])  # parent 9 open but not assignable
    decision = decide_knapsack(
        5, ids, (1,), S, _costs(ids, {1: 2.0}), [10.0], graph, 0.5, "DABT"
    )
    assert decision.assignments == ()
    assert decision.deferred == (2,)


def test_knapsack_dabt_drop_cascades_to_grandchildren():
    # 9 (out of instance) blocks 1 blocks 2: both 1 and 2 must defer
    ids, S = _rows({1: {1: 1.0}, 2: {1: 1.0}})
    graph = _graph_with([(9, 1), (1, 2)], [1, 2, 9])
    decision = decide_knapsack(
        5, ids, (1,), S, _costs(ids, {1: 1.0}), [10.0], graph, 0.5, "DABT"
    )
    assert decision.assignments == ()
    assert sorted(decision.deferred) == [1, 2]


def test_knapsack_dabt_coassigns_parent_and_child():
    ids, S = _rows({1: {1: 1.0, 2: 0.9}, 2: {1: 1.0, 2: 0.9}})
    graph = _graph_with([(1, 2)], [1, 2])
    decision = decide_knapsack(
        5, ids, (1, 2), S, _costs(ids, {1: 2.0, 2: 2.0}), [10.0, 10.0], graph, 0.5, "DABT"
    )
    devs = {b: d for b, d, _ in decision.assignments}
    assert devs[1] == devs[2]


def test_knapsack_defers_what_does_not_fit():
    ids, S = _rows({1: {1: 1.0}, 2: {1: 1.0}})
    graph = _graph_with([], [1, 2])
    decision = decide_knapsack(
        5, ids, (1,), S, _costs(ids, {1: 3.0}), [4.0], graph, 1.0, "RABT"
    )
    assert len(decision.assignments) == 1
    assert len(decision.deferred) == 1


def test_knapsack_unknown_variant_rejected():
    with pytest.raises(ValidationError):
        empty = np.zeros((0, 0))
        decide_knapsack(5, [], (), empty, empty, [], DependencyGraph(), 0.5, "XYZ")


def reference_dabt_pool(bug_ids, graph):
    """DABT's pool as a fixed point: drop every bug with an open blocker
    outside the set until nothing more drops, then keep the arcs among
    what is left, by (child, parent).  Returns (eligible, arcs)."""
    eligible = set(bug_ids)
    changed = True
    while changed:
        changed = False
        for bug_id in sorted(eligible):
            if graph.parents.get(bug_id, set()) - eligible:
                eligible.discard(bug_id)
                changed = True
    arcs = []
    for bug_id in sorted(eligible):
        for parent in sorted(graph.parents.get(bug_id, ())):
            if parent in eligible:
                arcs.append((parent, bug_id))
    return sorted(eligible), arcs


def dabt_instance(bug_ids, graph):
    """The instance decide_knapsack hands to the DABT solver."""
    seen = []

    def capture(instance):
        seen.append(instance)
        return AssignmentSolution(assignments=(), objective_value=0.0)

    bug_ids = sorted(bug_ids)
    S = np.ones((len(bug_ids), 1))
    with mock.patch.object(policies, "solve_dabt", capture):
        decision = decide_knapsack(5, bug_ids, (1,), S, S, [10.0], graph, 0.5, "DABT")
    assert decision.deferred == tuple(bug_ids)  # the stub assigns nothing
    (instance,) = seen
    return [b.bug_id for b in instance.bugs], instance.precedence


def check_against_reference(bug_ids, graph):
    want = reference_dabt_pool(bug_ids, graph)
    assert dabt_instance(bug_ids, graph) == want
    return want


def test_dabt_pool_orphaned_chain_of_outside_blocker():
    # 9 is open but outside the pool: it orphans 1 -> 2 -> 3 and 2 -> 4
    graph = _graph_with([(9, 1), (1, 2), (2, 3), (2, 4), (5, 6), (6, 4)], range(1, 10))
    eligible, arcs = check_against_reference([1, 2, 3, 4, 5, 6, 7], graph)
    assert eligible == [5, 6, 7]
    assert arcs == [(5, 6)]


@given(
    st.integers(1, 14).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n),
            st.sets(st.integers(0, n + 2)),
        )
    )
)
def test_dabt_pool_matches_fixed_point_on_random_dags(case):
    labels, pairs, pool = case
    # arcs run from the smaller position to the larger, so the graph is
    # acyclic whatever the labels; ids n..n+2 are not in the graph
    arcs = [(labels[min(a, b)], labels[max(a, b)]) for a, b in pairs if a != b]
    check_against_reference(pool, _graph_with(arcs, labels))


def _deps_tree(width=3, depth=8):
    """A tracking bug 0 blocked by a layered tree, as in the deps
    benchmark workload: each bug of a layer blocks every bug above it."""
    arcs, above, next_id = [], [0], 1
    for _ in range(depth):
        layer = list(range(next_id, next_id + width))
        next_id += width
        arcs.extend((blocker, blocked) for blocker in layer for blocked in above)
        above = layer
    return arcs, next_id


@given(st.sets(st.integers(0, 24)))
def test_dabt_pool_matches_fixed_point_on_deps_tree(pool):
    arcs, n = _deps_tree()
    check_against_reference(pool, _graph_with(arcs, range(n)))


@pytest.mark.parametrize("policy,name", [("dabt", "solve_dabt"), ("rabt", "solve_rabt")])
def test_replay_hands_the_solver_binding_each_days_pool_and_arcs(mini_env, monkeypatch, policy, name):
    """perfbench's tracer (pool size and arcs per solve), measure_pools.py
    and dump_pools.py read a replay's instances by wrapping the solver as
    ``policies`` binds it: each day's decision must reach that binding
    once, with the day's pool (after DABT's pre-drop) and arcs."""
    seen, want = [], []
    solve, decide = getattr(policies, name), simulator.decide_knapsack

    def recording(instance):
        seen.append(instance)
        return solve(instance)

    def deciding(day, bug_ids, dev_ids, S, C, capacities, graph, alpha, variant):
        want.append(reference_dabt_pool(bug_ids, graph) if policy == "dabt" else (sorted(bug_ids), []))
        return decide(day, bug_ids, dev_ids, S, C, capacities, graph, alpha, variant)

    monkeypatch.setattr(policies, name, recording)
    monkeypatch.setattr(simulator, "decide_knapsack", deciding)
    config = SimConfig(policy=policy, boundary_day=MINI_BOUNDARY, end_day=MINI_END, alpha=0.5,
                       seed=0, horizon_L=mini_env.horizon)
    result = run_simulation(config, mini_env.corpus, mini_env.table, mini_env.profiles)
    assert len(seen) == len(want) == MINI_END - MINI_BOUNDARY
    assert [(len(inst.bugs), len(inst.precedence)) for inst in seen] == [
        (len(pool), len(arcs)) for pool, arcs in want
    ]
    assert [([b.bug_id for b in inst.bugs], inst.precedence) for inst in seen] == want
    assert any(inst.precedence for inst in seen) == (policy == "dabt")
    assert result.log == mini_env.run(policy)[0].log
