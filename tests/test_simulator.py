import math

import numpy as np
import pytest

from triagelab.corpus import DeveloperProfile
from triagelab.errors import ValidationError
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
        self.dev_profiles = {
            d: DeveloperProfile(
                dev_id=d,
                fixed_bug_count=10,
                components_experienced=frozenset(components),
            )
            for d in suit
        }

    def run(self, config, corpus):
        return run_simulation(config, corpus, self.table, self.dev_profiles)


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
    with pytest.raises(ValidationError):
        _config("rabt", horizon_L=0.0)
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
