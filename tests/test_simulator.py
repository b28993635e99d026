import math

import numpy as np
import pytest

from triagelab import simulator
from triagelab.errors import ValidationError
from triagelab.policies import DailyDecision
from triagelab.simulator import FeatureTable, ReplayCorpus, SimConfig, run_simulation

from conftest import make_bug


class Stub:
    """A fixed feature table (the same suitability and cost row for
    every bug) and matching developer profiles."""

    def __init__(self, suit, costs, components=("core",)):
        dev_ids = sorted(suit)
        bug_ids = tuple(range(1, 10))  # every bug id these tests use
        self.table = FeatureTable(
            dev_ids=tuple(dev_ids),
            bug_ids=bug_ids,
            S=np.tile([suit[d] for d in dev_ids], (len(bug_ids), 1)),
            C=np.tile([costs[d] for d in dev_ids], (len(bug_ids), 1)),
        )
        self.profiles = dict.fromkeys(suit, frozenset(components))

    def run(self, config, corpus):
        return run_simulation(config, corpus, self.table, self.profiles)


def _config(policy, **kw):
    base = dict(policy=policy, boundary_day=10, end_day=30, alpha=0.5, horizon_L=5.0)
    base.update(kw)
    return SimConfig(**base)


def _corpus(records, assignable):
    return ReplayCorpus(records=records, assignable_ids=set(assignable))


def test_simconfig_validation():
    with pytest.raises(ValidationError):
        _config("nonsense")
    with pytest.raises(ValidationError):
        _config("rabt", alpha=1.5)
    for horizon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            _config("rabt", horizon_L=horizon)
    with pytest.raises(ValidationError):
        _config("rabt", end_day=5)


def test_rabt_capacity_trace_single_bug():
    records = [make_bug(1, reported=11, assigned=11, resolved=14, dev=1)]
    stub = Stub(suit={1: 1.0, 2: 0.5}, costs={1: 3.0, 2: 5.0})
    result = stub.run(_config("rabt"), _corpus(records, {1}))
    [entry] = result.log
    assert (entry["dev_id"], entry["assigned_day"], entry["start_day"]) == (1, 11, 11)
    assert entry["completion_day"] == 14  # 11 + ceil(3.0)
    by_day = {d["day"]: d["capacity"] for d in result.daily}
    # day 11: 5 - 3 + 1 regen = 3; then 4; then capped at L = 5
    assert [by_day[d]["1"] for d in (11, 12, 13, 14)] == [3.0, 4.0, 5.0, 5.0]
    assert all(
        0.0 <= cap <= 5.0 for d in result.daily for cap in d["capacity"].values()
    )


def test_fractional_cost_rounds_up_to_whole_days():
    records = [make_bug(1, reported=11, assigned=11, resolved=14, dev=1)]
    stub = Stub(suit={1: 1.0, 2: 0.5}, costs={1: 2.4, 2: 5.0})
    result = stub.run(_config("rabt"), _corpus(records, {1}))
    assert result.log[0]["completion_day"] == 11 + math.ceil(2.4)


def test_cbr_assignments_queue_until_capacity_frees():
    records = [
        make_bug(1, reported=11, assigned=11, resolved=15, dev=1),
        make_bug(2, reported=11, assigned=11, resolved=15, dev=1),
    ]
    stub = Stub(suit={1: 1.0, 2: 0.2}, costs={1: 4.0, 2: 4.0})
    result = stub.run(_config("cbr"), _corpus(records, {1, 2}))
    first, second = sorted(result.log, key=lambda e: e["bug_id"])
    # both chosen on day 11; only the first fits L=5 immediately
    assert (first["assigned_day"], first["start_day"]) == (11, 11)
    assert second["assigned_day"] == 11
    # T after day 11: 1 -> regen 2, 3, 4; 4.0 fits again on day 14
    assert second["start_day"] == 14
    assert second["completion_day"] == 18


def test_fifo_queue_head_holds_back_the_bugs_behind_it():
    records = [make_bug(b, reported=11, assigned=11, resolved=15, dev=1) for b in (1, 2, 3)]
    stub = Stub(suit={1: 1.0, 2: 0.2}, costs={1: 1.0, 2: 5.0})
    stub.table.C[:3, 0] = [4.0, 3.0, 1.0]  # developer 1's cost of bugs 1, 2 and 3
    result = stub.run(_config("cbr"), _corpus(records, {1, 2, 3}))
    log = sorted(result.log, key=lambda e: e["bug_id"])
    assert [e["assigned_day"] for e in log] == [11, 11, 11]
    # bug 3 would fit on day 12 (T = 2), but waits until bug 2 starts
    assert [e["start_day"] for e in log] == [11, 13, 14]
    assert [e["completion_day"] for e in log] == [15, 16, 15]
    by_day = {d["day"]: d["capacity"]["1"] for d in result.daily}
    assert [by_day[d] for d in (11, 12, 13, 14)] == [2.0, 3.0, 1.0, 1.0]


def test_rabt_batch_over_capacity_is_refused(monkeypatch):
    # the solver contract: an exact batch always starts the day it is chosen
    records = [make_bug(1, reported=11, assigned=11, resolved=15, dev=1)]
    stub = Stub(suit={1: 1.0, 2: 0.5}, costs={1: 1.0, 2: 1.0})
    monkeypatch.setattr(
        simulator, "decide_knapsack",
        lambda day, bugs, *rest: DailyDecision(day, tuple((b, 1, 6.0) for b in bugs), ()),
    )
    with pytest.raises(ValidationError, match="exceeds developer 1"):
        stub.run(_config("rabt"), _corpus(records, {1}))


def test_actual_policy_replays_history_verbatim():
    records = [make_bug(1, reported=11, assigned=13, resolved=19, dev=2)]
    stub = Stub(suit={1: 1.0, 2: 0.5}, costs={1: 1.0, 2: 1.0})
    result = stub.run(_config("actual"), _corpus(records, {1}))
    [entry] = result.log
    assert entry["dev_id"] == 2
    assert entry["assigned_day"] == 13
    assert entry["completion_day"] == 19
    assert entry["estimated_cost"] == 7.0  # historical fixing time


def test_unfinished_work_cleared_at_end_of_horizon():
    records = [make_bug(1, reported=29, assigned=29, resolved=33, dev=1)]
    stub = Stub(suit={1: 1.0, 2: 0.5}, costs={1: 4.0, 2: 4.0})
    result = stub.run(_config("rabt"), _corpus(records, {1}))
    assert result.log[0]["completion_day"] is None  # 29 + 4 > end_day 30


def test_total_entering_counts_assignable_test_bugs_only():
    records = [
        make_bug(1, reported=5, assigned=5, resolved=6, dev=1),   # training
        make_bug(2, reported=12, assigned=12, resolved=13, dev=1),
        make_bug(3, reported=14, status="OTHER"),                 # not assignable
    ]
    stub = Stub(suit={1: 1.0, 2: 0.5}, costs={1: 1.0, 2: 1.0})
    result = stub.run(_config("rabt"), _corpus(records, {2}))
    assert result.total_entering == 1


def test_historical_resolution_unblocks_dependent_test_bug():
    # parent is not assignable; it resolves on its historical day and
    # only then may DABT assign the child
    records = [
        make_bug(9, reported=8, assigned=8, resolved=13, dev=1,
                 deps=[(12, "ADD_BLOCKS", 1)]),
        make_bug(1, reported=12, assigned=12, resolved=15, dev=1),
    ]
    stub = Stub(suit={1: 1.0, 2: 0.5}, costs={1: 1.0, 2: 1.0})
    result = stub.run(_config("dabt"), _corpus(records, {1}))
    [entry] = result.log
    assert entry["assigned_day"] == 13  # deferred on day 12, parent resolved day 13
    assert entry["infeasible"] is False


def test_blocker_arc_removed_during_the_replay():
    # bug 9 is never resolved; its arc to bug 1 is removed on day 14
    records = [
        make_bug(9, reported=8, status="OTHER",
                 deps=[(12, "ADD_BLOCKS", 1), (14, "REMOVE_BLOCKS", 1)]),
        make_bug(1, reported=12, assigned=12, resolved=15, dev=1),
    ]
    stub = Stub(suit={1: 1.0, 2: 0.5}, costs={1: 1.0, 2: 1.0})
    for policy, day, infeasible in (("dabt", 14, False), ("rabt", 12, True), ("cbr", 12, True)):
        result = stub.run(_config(policy), _corpus(records, {1}))
        [entry] = result.log
        assert (entry["assigned_day"], entry["infeasible"]) == (day, infeasible), policy
        if policy == "dabt":
            arcs = [(d["day"], d["n_arcs"]) for d in result.daily if d["n_arcs"]]
            assert arcs == [(12, 1), (13, 1)]


def test_accuracy_flag_uses_component_experience():
    records = [
        make_bug(1, reported=11, assigned=11, resolved=12, dev=1, component="ui"),
        make_bug(2, reported=11, assigned=11, resolved=12, dev=1, component="core"),
    ]
    stub = Stub(suit={1: 1.0, 2: 0.5}, costs={1: 1.0, 2: 1.0},
                        components=("core",))
    result = stub.run(_config("rabt"), _corpus(records, {1, 2}))
    flags = {e["bug_id"]: e["accurate"] for e in result.log}
    assert flags == {1: False, 2: True}


def test_no_active_developers_refused():
    stub = Stub(suit={}, costs={})
    with pytest.raises(ValidationError):
        stub.run(_config("rabt"), _corpus([], set()))


def test_simulation_deterministic():
    records = [
        make_bug(i, reported=10 + i % 5, assigned=10 + i % 5, resolved=20, dev=1)
        for i in range(1, 8)
    ]
    stub = Stub(suit={1: 1.0, 2: 0.5}, costs={1: 2.0, 2: 3.0})
    a = stub.run(_config("rabt"), _corpus(records, {1, 2, 3, 4, 5, 6, 7}))
    b = stub.run(_config("rabt"), _corpus(records, {1, 2, 3, 4, 5, 6, 7}))
    assert a.log == b.log
    assert a.daily == b.daily
