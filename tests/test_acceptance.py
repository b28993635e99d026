"""Acceptance gate: one test per required property, one PASS/FAIL line each.

The heavy mini-corpus environment (generation, cleaning, training,
policy runs) comes from the session-scoped ``mini_env`` fixture.
"""

import math
import time

import numpy as np
import pytest

from triagelab import pipeline
from triagelab.corpus import clean_bugs
from triagelab.costmodel import build_cost_matrix, fill_missing_cf, fitted_topics
from triagelab.policies import decide_cbr, decide_costriage
from triagelab.simulator import run_simulation, SimConfig
from triagelab.solver import (
    DABT,
    RABT,
    AssignmentInstance,
    InstanceBug,
    brute_force_oracle,
    solve_dabt,
    solve_rabt,
)
from triagelab.textprep import preprocess_text, tfidf_transform

from conftest import FAST_TRAIN, MINI_BOUNDARY, MINI_END, cleaning_fixture_20


def _verdict(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def _random_instance(rng):
    n = int(rng.integers(1, 11))
    D = int(rng.integers(1, 5))
    bugs = []
    for i in range(n):
        s = rng.random(D)
        s /= s.max()
        bugs.append(InstanceBug(i, tuple(s), tuple(rng.uniform(0.5, 10, D))))
    precedence = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15
    ]
    developers = [(d, float(rng.uniform(0, 15))) for d in range(D)]
    alpha = float(rng.choice([0.0, 0.3, 0.5, 1.0]))
    return AssignmentInstance(
        bugs=bugs, developers=developers, precedence=precedence, alpha=alpha
    )


def test_solver_exactness_against_oracle():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        inst = _random_instance(rng)
        for variant, solve in ((DABT, solve_dabt), (RABT, solve_rabt)):
            gap = abs(
                solve(inst).objective_value
                - brute_force_oracle(inst, variant).objective_value
            )
            worst = max(worst, gap)
    elapsed = time.time() - start
    _verdict(
        f"solver exactness: 200 instances, max objective gap {worst:.2e}, "
        f"{elapsed:.1f}s",
        worst <= 1e-9 and elapsed < 60.0,
    )


def test_dependency_safety(mini_env):
    # precondition: the corpus has at least one test bug already blocked
    # on the day it is reported
    blocked_at_report = set()
    by_id = {r.bug_id: r for r in mini_env.records}
    for rec in mini_env.records:
        for day, kind, child in rec.dependency_events:
            if kind != "ADD_BLOCKS" or child not in by_id:
                continue
            ch = by_id[child]
            if day <= ch.reported_at and (
                rec.resolved_at is None or rec.resolved_at >= ch.reported_at
            ):
                blocked_at_report.add(child)
    assert blocked_at_report, "mini-corpus must plant blocked bugs"

    dabt_vals = [
        mini_env.run("dabt", alpha, seed)[1].pct_infeasible_assignments
        for alpha in (0.0, 0.5, 1.0)
        for seed in (0, 1)
    ]
    cbr_val = mini_env.run("cbr")[1].pct_infeasible_assignments
    _verdict(
        f"dependency safety: DABT infeasible {dabt_vals}, CBR {cbr_val:.1f}%",
        all(v == 0.0 for v in dabt_vals) and cbr_val > 0.0,
    )


def test_capacity_law(mini_env):
    horizon = mini_env.horizon
    violations = 0
    for policy in ("cbr", "costriage", "rabt", "dabt"):
        result, _ = mini_env.run(policy)
        for day in result.daily:
            for cap in day["capacity"].values():
                if not (-1e-9 <= cap <= horizon + 1e-9):
                    violations += 1
    _verdict(
        f"capacity law: 0 <= T <= L={horizon} on every day/developer "
        f"({violations} violations)",
        violations == 0,
    )


def test_reduction_identities(mini_env):
    # (a) alpha=1, dependency-free: DABT == RABT objective
    rng = np.random.default_rng(7)
    ok_a = True
    for _ in range(30):
        inst = _random_instance(rng)
        inst = AssignmentInstance(
            bugs=inst.bugs, developers=inst.developers, precedence=[], alpha=1.0
        )
        ok_a &= (
            abs(solve_dabt(inst).objective_value - solve_rabt(inst).objective_value)
            <= 1e-9
        )

    # (b) CosTriage at alpha=1 equals CBR's argmax on every test bug
    table = mini_env.table
    test_bugs = [r for r in mini_env.cleaned if r.reported_at > MINI_BOUNDARY]
    ids = sorted(r.bug_id for r in test_bugs)
    rows = table.rows(ids)
    S, C = table.S[rows], table.C[rows]
    ct = decide_costriage(ids, table.dev_ids, S, C, alpha=1.0)
    cbr = decide_cbr(ids, table.dev_ids, S, C)
    ok_b = [(b, d) for b, d, _ in ct.assignments] == [
        (b, d) for b, d, _ in cbr.assignments
    ]

    # (c) a min-cost, max-suitability match contributes exactly 1.0
    ok_c = True
    for alpha in (0.0, 0.3, 0.5, 1.0):
        inst = AssignmentInstance(
            bugs=[InstanceBug(1, s=(1.0, 0.5), c=(2.0, 4.0))],
            developers=[(1, 10.0), (2, 10.0)],
            alpha=alpha,
        )
        ok_c &= inst.contributions(DABT)[0, 0] == 1.0
    _verdict(
        f"reduction identities: dabt==rabt@alpha=1 {ok_a}, "
        f"costriage@alpha=1==cbr {ok_b}, unit contribution {ok_c}",
        ok_a and ok_b and ok_c,
    )


def test_directional_replication(mini_env):
    t0 = time.time()
    _, dabt = mini_env.run("dabt")
    _, cbr = mini_env.run("cbr")
    _, cost = mini_env.run("costriage")
    elapsed = time.time() - t0
    _verdict(
        f"directional: DABT overdue {dabt.pct_overdue:.1f}% < CBR "
        f"{cbr.pct_overdue:.1f}%; DABT fixing {dabt.mean_fixing_days:.1f}d < "
        f"CosTriage {cost.mean_fixing_days:.1f}d ({elapsed:.0f}s)",
        dabt.pct_overdue < cbr.pct_overdue
        and dabt.mean_fixing_days < cost.mean_fixing_days
        and elapsed < 3 * 300,
    )


def test_sensitivity_shape(mini_env):
    _, low = mini_env.run("dabt", alpha=0.0)
    _, high = mini_env.run("dabt", alpha=1.0)
    _verdict(
        f"sensitivity: accuracy {high.accuracy_pct:.1f}% @a=1 > "
        f"{low.accuracy_pct:.1f}% @a=0; overdue {low.pct_overdue:.1f}% @a=0 <= "
        f"{high.pct_overdue:.1f}% + 5 @a=1",
        high.accuracy_pct > low.accuracy_pct
        and low.pct_overdue <= high.pct_overdue + 5.0,
    )


def test_model_invariants(mini_env):
    models = mini_env.models
    phi_ok = bool(np.all(np.abs(models.topic_model.phi.sum(axis=1) - 1.0) <= 1e-9))
    # the observed means, recomputed from the fitted topics of the training bugs
    train = [r for r in mini_env.train if r.actual_assignee in mini_env.profiles]
    docs = [preprocess_text(r.summary, r.description, r.bug_id) for r in train]
    observed = build_cost_matrix(
        train, fitted_topics(models.topic_model, docs, models.vocab), models.dev_ids,
        models.topic_model.K
    )
    cost_ok = (np.array_equal(models.cost, observed, equal_nan=True)
               and bool(np.all(fill_missing_cf(models.cost)[0] > 0)))
    test_bugs = [r for r in mini_env.cleaned if r.reported_at > MINI_BOUNDARY]
    rows = mini_env.table.rows([r.bug_id for r in test_bugs[:50]])
    suit_ok = bool(np.all(mini_env.table.S[rows].max(axis=1) == 1.0))
    tfidf_ok = True
    for rec in mini_env.train[:50]:
        doc = preprocess_text(rec.summary, rec.description, rec.bug_id)
        row = tfidf_transform(doc, models.vocab)
        if row.any():
            tfidf_ok &= abs(np.linalg.norm(row) - 1.0) <= 1e-12
    _verdict(
        f"model invariants: phi rows {phi_ok}, cost cells {cost_ok}, "
        f"suitability max {suit_ok}, tfidf norm {tfidf_ok}",
        phi_ok and cost_ok and suit_ok and tfidf_ok,
    )


def test_determinism_byte_identical(mini_env):
    models2 = pipeline.train_models(mini_env.train, MINI_BOUNDARY, **FAST_TRAIN)
    m1, m2 = mini_env.models, models2
    artifacts_ok = pipeline.models_to_json(m1) == pipeline.models_to_json(m2)
    config = SimConfig(
        policy="dabt",
        boundary_day=MINI_BOUNDARY,
        end_day=MINI_END,
        alpha=0.5,
        horizon_L=mini_env.horizon,
    )
    table2 = pipeline.feature_table(m2, mini_env.corpus, MINI_BOUNDARY, MINI_END)
    r1 = run_simulation(config, mini_env.corpus, mini_env.table, mini_env.profiles)
    r2 = run_simulation(config, mini_env.corpus, table2, mini_env.profiles)
    runs_ok = pipeline.result_to_json(r1) == pipeline.result_to_json(r2)
    _verdict(
        f"determinism: artifacts byte-identical {artifacts_ok}, "
        f"run logs byte-identical {runs_ok}",
        artifacts_ok and runs_ok,
    )


def test_actual_policy_fidelity(mini_env):
    result, _ = mini_env.run("actual")
    history = mini_env.corpus.history
    mismatches = sum(
        1
        for e in result.log
        if e["dev_id"] != history[e["bug_id"]].actual_assignee
        or (
            e["completion_day"] is not None
            and e["completion_day"] != history[e["bug_id"]].resolved_at
        )
    )
    assignable_with_history = [
        b
        for b in mini_env.corpus.assignable_ids
        if history[b].actual_assignee is not None
    ]
    coverage = len(result.log) / len(assignable_with_history)
    _verdict(
        f"actual fidelity: {len(result.log)} replays, {mismatches} mismatches, "
        f"coverage {coverage:.0%}",
        mismatches == 0 and coverage == 1.0,
    )


def test_data_pipeline_hand_fixture():
    kept, summary = clean_bugs(cleaning_fixture_20())
    threshold_ok = summary.max_fix_threshold == pytest.approx(6.375)
    active_ok = summary.active_dev_ids == frozenset({1, 2})
    counts_ok = summary.counts_by_step == [20, 18, 16, 14, 13]
    _verdict(
        f"data pipeline: threshold {summary.max_fix_threshold} (want 6.375), "
        f"active {sorted(summary.active_dev_ids)} (want [1, 2]), "
        f"counts {summary.counts_by_step}",
        threshold_ok and active_ok and counts_ok,
    )
