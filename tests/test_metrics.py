import dataclasses
import json

import pytest

from triagelab.metrics import compare_policies, compute_report, sweep_to_csv
from triagelab.simulator import SimConfig, SimResult


def _entry(bug, dev, reported, completion, cost=2.0, accurate=True, infeasible=False):
    return {
        "bug_id": bug,
        "dev_id": dev,
        "reported_day": reported,
        "assigned_day": reported,
        "estimated_cost": cost,
        "infeasible": infeasible,
        "accurate": accurate,
        "component": "core",
        "start_day": reported,
        "completion_day": completion,
    }


def _result(log, total, daily=(), policy="dabt", alpha=0.5):
    config = SimConfig(policy=policy, boundary_day=0, end_day=100, alpha=alpha,
                       horizon_L=5.0)
    return SimResult(config=config, log=log, daily=list(daily), total_entering=total)


def test_compute_report_hand_counts():
    log = [
        _entry(1, 1, 10, 12),                         # on time
        _entry(2, 1, 10, 20),                         # 10 days > L=5: overdue
        _entry(3, 2, 10, None, accurate=False),       # never finished
        _entry(4, 2, 10, 13, cost=2.4, infeasible=True),
    ]
    daily = [
        {"day": 1, "mean_depth": 0.5, "mean_degree": 0.25, "n_nodes": 4, "n_arcs": 1},
        {"day": 2, "mean_depth": 1.5, "mean_degree": 0.75, "n_nodes": 4, "n_arcs": 3},
    ]
    report = compute_report(_result(log, total=5, daily=daily))
    assert report.n_assigned == 4
    assert report.n_unassigned == 1
    assert report.n_assigned_developers == 2
    assert report.task_mean == pytest.approx(2.0)
    assert report.task_std == pytest.approx(0.0)
    # ceil(2.0)*3 + ceil(2.4) = 9 over 4 bugs
    assert report.mean_fixing_days == pytest.approx(9 / 4)
    # overdue: bug 2 (late), bug 3 (never), plus 1 never-assigned -> 3/5
    assert report.pct_overdue == pytest.approx(60.0)
    # un-fixed: bug 3 plus the never-assigned -> 2/5
    assert report.pct_unfixed == pytest.approx(40.0)
    assert report.accuracy_pct == pytest.approx(75.0)
    assert report.pct_infeasible_assignments == pytest.approx(25.0)
    assert report.mean_bdg_depth == pytest.approx(1.0)
    assert report.mean_bdg_degree == pytest.approx(0.5)


def test_compute_report_empty_run():
    report = compute_report(_result([], total=0))
    assert report.n_assigned == 0
    assert report.pct_overdue == 0.0
    assert report.accuracy_pct == 0.0


def test_report_json_roundtrip():
    report = compute_report(_result([_entry(1, 1, 10, 12)], total=1))
    assert json.loads(report.to_json()) == dataclasses.asdict(report)


def test_compare_policies_csv_and_star():
    a = compute_report(_result([_entry(1, 1, 10, 12)], total=2, alpha=0.0))
    b_log = [_entry(1, 1, 10, 12), _entry(2, 2, 10, 12)]
    b = compute_report(_result(b_log, total=2, alpha=1.0))
    csv_text, table = compare_policies([a, b])
    lines = csv_text.strip().splitlines()
    assert lines[0] == "metric,dabt_a0,dabt_a1"
    assert len(lines) == 13  # header + 12 metric rows
    assert "*" in table  # at least one unique best is flagged
    assert table.splitlines()[0].split() == ["dabt_a0", "dabt_a1"]


def test_compare_policies_labels_distinct_policies_by_name():
    runs = [compute_report(_result([], total=1, policy=p)) for p in ("dabt", "cbr")]
    assert compare_policies(runs)[0].startswith("metric,dabt,cbr\n")


def test_sweep_csv_format():
    text = sweep_to_csv([(0.0, 50.0, 10.0), (1.0, 75.0, 12.5)])
    assert text.splitlines() == [
        "alpha,accuracy_pct,pct_overdue",
        "0.0,50,10",
        "1.0,75,12.5",
    ]
