"""prepare's active developers, the actual replay over them, and the
training topics train_models reads off the fitted LDA."""

import numpy as np

from triagelab import costmodel, pipeline
from triagelab.costmodel import GLOBAL_TOPIC, build_cost_matrix
from triagelab.simulator import FeatureTable, SimConfig, run_simulation
from triagelab.textprep import preprocess_text

from conftest import MINI_BOUNDARY, make_bug

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


def _assert_observed_cells(cost, observed):
    """The models' ``cost`` grid is the ``observed`` grid: NaN in the same
    cells, and the same means in the others."""
    assert np.array_equal(np.isnan(cost), np.isnan(observed))
    assert cost.tobytes() == observed.tobytes()


def _fold_in_forbidden(*args, **kwargs):
    raise AssertionError("training must not fold in a training doc")


def test_training_topics_come_from_the_fit_without_fold_in(monkeypatch):
    # dev 1 fixes network bugs, dev 2 rendering bugs; dev 3's only bug uses
    # words no other bug has, so min_df=2 leaves it no in-vocabulary token
    network = "socket packet timeout proxy"
    render = "pixel font layout glyph"
    records = [
        make_bug(i, reported=1, assigned=1, resolved=i % 3 + 1, dev=dev,
                 summary=text, description=text)
        for i, (dev, text) in enumerate([(1, network)] * 4 + [(2, render)] * 4)
    ]
    records.append(make_bug(99, reported=1, assigned=1, resolved=5, dev=3,
                            summary="zebra quokka", description="narwhal"))
    profiles = dict.fromkeys((1, 2, 3), frozenset({"core"}))
    monkeypatch.setattr(pipeline, "infer_topic", _fold_in_forbidden)
    monkeypatch.setattr(costmodel, "infer_topic", _fold_in_forbidden)
    models = pipeline.train_models(
        records, profiles, 1, pipeline.TrainSettings(topic_grid=(2,), lda_iters=5)
    )
    topics = models.topic_model.doc_topic.argmax(axis=1).tolist()
    _assert_observed_cells(
        models.cost, build_cost_matrix(records, topics[:-1] + [GLOBAL_TOPIC], [1, 2, 3], 2)
    )
    assert np.isnan(models.cost[2]).all()  # dev 3


def _mini_training(env):
    train = [r for r in env.train if r.actual_assignee in env.profiles]
    docs = [preprocess_text(r.summary, r.description, r.bug_id) for r in train]
    return train, docs


def test_mini_cost_cells_average_the_fitted_topics(mini_env):
    train, docs = _mini_training(mini_env)
    vocab, model = mini_env.models.vocab, mini_env.models.topic_model
    assert model.doc_topic.shape == (len(train), model.K)
    assert all(any(t in vocab.index for t in doc.tokens) for doc in docs)
    topics = model.doc_topic.argmax(axis=1).tolist()
    _assert_observed_cells(mini_env.models.cost,
                           build_cost_matrix(train, topics, mini_env.models.dev_ids, model.K))


def test_mini_training_topics_recover_planted_components(mini_env):
    # purity: the share of training bugs whose planted topic t (component
    # comp<t>a or comp<t>b) is the most common one in their fitted topic
    train, _ = _mini_training(mini_env)
    topics = mini_env.models.topic_model.doc_topic.argmax(axis=1)
    planted = np.array([int(r.component[4]) for r in train])
    hits = sum(np.bincount(planted[topics == k]).max()
               for k in np.unique(topics))
    assert hits / len(train) >= 0.95


def test_loaded_models_rewrite_every_file_byte_for_byte(mini_env, tmp_path):
    # the writer and the key table cannot drift apart: what load_models
    # accepts from save_models, save_models writes back unchanged
    first, second = tmp_path / "first", tmp_path / "second"
    pipeline.save_models(mini_env.models, first)
    loaded = pipeline.load_models(first, mini_env.profiles, MINI_BOUNDARY)
    assert loaded.dev_ids == sorted(mini_env.profiles)
    pipeline.save_models(loaded, second)
    assert sorted(p.name for p in first.iterdir()) == ["model.json"]
    assert (second / "model.json").read_bytes() == (first / "model.json").read_bytes()
