"""prepare's active developers and the actual replay over them."""

import numpy as np

from triagelab import pipeline
from triagelab.simulator import FeatureTable, SimConfig, run_simulation

from conftest import make_bug

BOUNDARY = 100


def _fixes(dev, n, first_id, reported=1, assigned=True):
    return [
        make_bug(first_id + i, reported=reported, assigned=reported if assigned else None,
                 resolved=reported + 1, dev=dev)
        for i in range(n)
    ]


def _replay_actual(records, cleaned, profiles):
    dev_ids = tuple(sorted(profiles))
    table = FeatureTable(dev_ids=dev_ids, bug_ids=(), S=np.empty((0, len(dev_ids))),
                         C=np.empty((0, len(dev_ids))))
    config = SimConfig(policy="actual", boundary_day=BOUNDARY, end_day=BOUNDARY + 20,
                       horizon_L=5.0)
    corpus = pipeline.replay_corpus(records, cleaned, BOUNDARY)
    return run_simulation(config, corpus, table, profiles)


def test_every_cleaned_training_developer_is_profiled_active():
    # training counts 100/50/30/29 plus eight 1-fix developers: the IQR
    # rule keeps devs 1-4; applied again to the cleaned counts it would
    # keep only devs 1-2
    records = []
    for dev, n in ((1, 100), (2, 50), (3, 30), (4, 29)) + tuple((d, 1) for d in range(11, 19)):
        records += _fixes(dev, n, first_id=1000 * dev)
    records += [
        make_bug(1, reported=110, assigned=110, resolved=111, dev=3),
        make_bug(2, reported=110, assigned=112, resolved=113, dev=4),
    ]
    cleaned, summary, profiles = pipeline.prepare(records, BOUNDARY)
    assert summary.active_dev_ids == frozenset({1, 2, 3, 4})
    assert sorted(profiles) == [1, 2, 3, 4]
    assert [profiles[d].fixed_bug_count for d in (1, 2, 3, 4)] == [100, 50, 30, 29]
    result = _replay_actual(records, cleaned, profiles)
    assert [(e["bug_id"], e["dev_id"], e["completion_day"]) for e in result.log] == [
        (1, 3, 111), (2, 4, 113)
    ]


def test_actual_replays_a_bug_whose_assignee_has_no_profile():
    # dev 5 is active by its resolved fixes, but none has an assignment
    # date, so cleaning leaves it no training bug and no profile
    records = _fixes(1, 10, 100) + _fixes(2, 10, 200) + _fixes(5, 10, 500, assigned=False)
    records.append(make_bug(1, reported=110, assigned=111, resolved=112, dev=5))
    cleaned, summary, profiles = pipeline.prepare(records, BOUNDARY)
    assert 5 in summary.active_dev_ids
    assert sorted(profiles) == [1, 2]
    [entry] = _replay_actual(records, cleaned, profiles).log
    assert (entry["dev_id"], entry["assigned_day"], entry["completion_day"]) == (5, 111, 112)
    assert entry["accurate"] is False
