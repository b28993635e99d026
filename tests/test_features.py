"""The feature table against the per-bug path it replaced: each bug
preprocessed, vectorized, scored and min-max normalized on its own,
and its cost looked up one developer column at a time."""

import json
from dataclasses import replace

import numpy as np

from triagelab import pipeline
from triagelab.cli import dispatch
from triagelab.costmodel import GLOBAL_TOPIC, fill_missing_cf, infer_topic
from triagelab.minicorpus import write_jsonl
from triagelab.simulator import ReplayCorpus
from triagelab.textprep import preprocess_text, tfidf_transform

from conftest import MINI_BOUNDARY, MINI_END, make_bug, round_trip


def _reference_rows(models, rec):
    doc = preprocess_text(rec.summary, rec.description, rec.bug_id)
    vec = tfidf_transform(doc, models.vocab)
    linear = models.linear_model
    filled, global_mean = fill_missing_cf(models.cost)
    decisions = linear.decision_values(vec)
    values = decisions[[linear.dev_ids.index(d) for d in models.dev_ids]]
    lo, hi = values.min(), values.max()
    s = np.ones(len(values)) if hi - lo == 0.0 else (values - lo) / (hi - lo)
    topic = infer_topic(models.topic_model, doc, models.vocab)
    c = np.array([
        global_mean if topic == GLOBAL_TOPIC
        else filled[linear.dev_ids.index(d), topic]
        for d in models.dev_ids
    ])
    return s, c, topic


def _assert_matches_reference(table, models, history):
    for i, bug_id in enumerate(table.bug_ids):
        s, c, _ = _reference_rows(models, history[bug_id])
        assert table.S[i].tobytes() == s.tobytes(), bug_id
        assert table.C[i].tobytes() == c.tobytes(), bug_id


def test_table_rows_are_the_entering_bugs(mini_env):
    history = mini_env.corpus.history
    entering = sorted(
        b for b in mini_env.corpus.assignable_ids
        if MINI_BOUNDARY < history[b].reported_at <= MINI_END
    )
    assert mini_env.table.bug_ids == tuple(entering)
    assert mini_env.table.dev_ids == tuple(mini_env.models.dev_ids)
    assert mini_env.table.S.shape == mini_env.table.C.shape == (
        len(entering), len(mini_env.models.dev_ids)
    )


def test_table_bitwise_equals_per_bug_reference(mini_env):
    _assert_matches_reference(mini_env.table, mini_env.models, mini_env.corpus.history)


def test_out_of_vocabulary_bug_costs_the_global_mean(mini_env):
    models = mini_env.models
    records = [
        make_bug(1, reported=MINI_BOUNDARY + 1, summary="qqqq", description="zzzz"),
        next(r for r in mini_env.cleaned if r.reported_at > MINI_BOUNDARY),
    ]
    corpus = ReplayCorpus(records=records, assignable_ids={r.bug_id for r in records})
    table = pipeline.feature_table(models, corpus, MINI_BOUNDARY, MINI_END)
    assert _reference_rows(models, records[0])[2] == GLOBAL_TOPIC
    assert np.all(table.C[table.rows([1])] == fill_missing_cf(models.cost)[1])
    _assert_matches_reference(table, models, corpus.history)


def test_actual_run_builds_no_rows(mini_env, monkeypatch, tmp_path):
    data = tmp_path / "bugs.jsonl"
    write_jsonl(mini_env.records, data)
    pipeline.save_models(mini_env.models, tmp_path)
    built = []
    real = pipeline.feature_table

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(pipeline, "feature_table", recording)
    assert dispatch(["simulate", "--data", str(data), "--boundary", str(MINI_BOUNDARY),
                     "--out", str(tmp_path), "--end", str(MINI_END), "--policy", "actual"]) == 0
    assert [table.bug_ids for table in built] == [()]
    assert (tmp_path / "result_actual_a0.5.json").read_text() == pipeline.result_to_json(
        mini_env.run("actual")[0]
    )


def test_unobserved_cells_reach_the_replay_through_the_file(mini_env):
    """A cell without a training mean is null in model.json, and the
    table fills it from the file as from the models in memory: a topic
    no developer fixed costs the global mean, a lone missing cell the
    collaborative filter's value."""
    cost = mini_env.models.cost.copy()
    cost[1, 0] = np.nan
    cost[:, 2] = np.nan
    models = replace(mini_env.models, cost=cost)
    text = pipeline.models_to_json(models)
    assert [[c is None for c in row] for row in json.loads(text)["cost"]] == \
        np.isnan(cost).tolist()
    table = pipeline.feature_table(models, mini_env.corpus, MINI_BOUNDARY, MINI_END)
    again = pipeline.feature_table(round_trip(models), mini_env.corpus, MINI_BOUNDARY, MINI_END)
    assert (again.S.tobytes(), again.C.tobytes()) == (table.S.tobytes(), table.C.tobytes())
    filled, global_mean = fill_missing_cf(cost)
    history, seen = mini_env.corpus.history, {}
    for i, bug_id in enumerate(table.bug_ids):
        seen.setdefault(_reference_rows(models, history[bug_id])[2], i)
        if 0 in seen and 2 in seen:
            break
    assert table.C[seen[2]].tolist() == [global_mean] * len(models.dev_ids)
    assert table.C[seen[0], 1] == filled[1, 0] != global_mean
    assert table.C[seen[0], 1] != mini_env.table.C[seen[0], 1]
