"""Shared fixtures: record factory, hand-built cleaning fixture, and a
session-scoped trained mini-corpus environment (generation, cleaning,
training, the feature table, and cached policy runs are expensive, so
they happen once)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from triagelab import pipeline
from triagelab.corpus import BugRecord, split_train_test
from triagelab.metrics import compute_report
from triagelab.minicorpus import MiniCorpusSpec, generate
from triagelab.simulator import SimConfig, run_simulation

MINI_BOUNDARY = 365
MINI_END = 730
FAST_TRAIN = pipeline.TrainSettings(topic_grid=(4,), lda_iters=150)


def make_bug(bug_id, *, reported=1, assigned=None, resolved=None, dev=None,
             status="FIXED", summary="summary words", description="description words",
             component="core", deps=()):
    return BugRecord(
        bug_id=bug_id,
        summary=summary,
        description=description,
        component=component,
        reported_at=reported,
        assigned_at=assigned,
        resolved_at=resolved,
        actual_assignee=dev,
        status_final=status,
        dependency_events=tuple(deps),
    )


def cleaning_fixture_20():
    """20 hand-built records with hand-computable cleaning statistics.

    Developer fix counts over step-1 survivors: dev1=9, dev2=7, dev3=1,
    dev4=1 -> Q1=1, Q3=7.5, IQR=6.5 -> active {1, 2}.  Step-3 survivor
    fixing times sorted: 1,2,2,2,2,3,3,3,3,3,4,4,4,20 -> Q1=2, Q3=3.75
    -> threshold 6.375 -> the 20-day fix drops.  Counts by step:
    [20, 18, 16, 14, 13].
    """
    records = []
    bid = 1

    def add(**kw):
        nonlocal bid
        records.append(make_bug(bid, **kw))
        bid += 1

    # dev1: 7 proper fixes, times 1,2,2,3,3,4,20 (fix = resolved-assigned+1)
    for ft in (1, 2, 2, 3, 3, 4, 20):
        add(reported=10, assigned=10, resolved=10 + ft - 1, dev=1)
    # dev2: 7 proper fixes, times 2,2,3,3,3,4,4
    for ft in (2, 2, 3, 3, 3, 4, 4):
        add(reported=20, assigned=20, resolved=20 + ft - 1, dev=2)
    # dev3, dev4: one fix each (inactive by the IQR rule)
    add(reported=30, assigned=30, resolved=31, dev=3)
    add(reported=30, assigned=30, resolved=32, dev=4)
    # two unresolved / non-fixed reports (step-1 filter)
    add(reported=40, status="OTHER")
    add(reported=40, status="OTHER")
    # dev1: assigned after resolution (step-3 filter)
    add(reported=50, assigned=55, resolved=52, dev=1)
    # dev1: resolved but the assignment date is missing (step-3 filter)
    add(reported=50, resolved=53, dev=1)
    assert len(records) == 20
    return records


@pytest.fixture(scope="session")
def clean20():
    return cleaning_fixture_20()


@pytest.fixture(scope="session")
def mini_records():
    return generate(MiniCorpusSpec())


@pytest.fixture(scope="session")
def mini_env(mini_records):
    """Cleaned + trained mini-corpus environment with one feature table
    shared by every cached policy run."""
    cleaned, summary, profiles = pipeline.prepare(mini_records, MINI_BOUNDARY)
    train, _ = split_train_test(cleaned, MINI_BOUNDARY)
    models = pipeline.train_models(train, profiles, FAST_TRAIN)
    corpus = pipeline.replay_corpus(mini_records, cleaned, MINI_BOUNDARY)
    table = pipeline.feature_table(models, corpus, MINI_BOUNDARY, MINI_END)
    cache = {}

    class Env:
        pass

    env = Env()
    env.records = mini_records
    env.cleaned = cleaned
    env.summary = summary
    env.profiles = profiles
    env.train = train
    env.models = models
    env.corpus = corpus
    env.table = table
    env.horizon = summary.horizon_L

    def run(policy, alpha=0.5, seed=0):
        key = (policy, alpha, seed)
        if key not in cache:
            config = SimConfig(
                policy=policy,
                boundary_day=MINI_BOUNDARY,
                end_day=MINI_END,
                alpha=alpha,
                seed=seed,
                horizon_L=env.horizon,
            )
            result = run_simulation(config, corpus, table, models.dev_profiles)
            cache[key] = (result, compute_report(result))
        return cache[key]

    env.run = run
    return env
