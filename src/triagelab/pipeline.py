"""End-to-end wiring: clean -> train -> replay -> report.

``prepare`` cleans the corpus and profiles the active developers;
``save_prepared`` writes the cleaning summary and the profiles for
people to read.  ``train_models`` fits the vocabulary, the suitability
classifier, the topic model and the grid of observed cost means, and
``save_models`` writes them into one ``model.json``, each measured fact
once, checked on load against ``MODEL_SCHEMA``.  A replay computes the
profiles from the data again and takes the models from ``load_models``,
which refuses a file trained at another boundary or for other
developers; ``feature_table`` fills the grid's unobserved cells.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import clean_bugs, developer_profiles, split_train_test
from .costmodel import (
    DEFAULT_GIBBS_ITERS,
    GLOBAL_TOPIC,
    TopicModel,
    build_cost_matrix,
    fill_missing_cf,
    fitted_topics,
    infer_topic,
    select_topic_count,
)
from .errors import ValidationError
from .schema import Spec
from .simulator import FeatureTable, ReplayCorpus, SimConfig, SimResult
from .suitability import DEFAULT_C, LinearModel, predict_suitability, train_classifier
from .textprep import Vocabulary, build_vocabulary, preprocess_text, tfidf_transform

DEFAULT_TOPIC_GRID = tuple(range(5, 55, 5))


@dataclass
class TrainedModels:
    """The trained models, holding what ``model.json`` holds; the
    developers they were trained for are the classifier's."""

    linear_model: LinearModel
    vocab: Vocabulary
    topic_model: TopicModel
    cost: np.ndarray  # (D, K) observed mean fixing days, NaN where none
    boundary_day: int  # the last training day

    @property
    def dev_ids(self):
        return self.linear_model.dev_ids


@dataclass
class TrainSettings:
    topic_grid: tuple = DEFAULT_TOPIC_GRID
    C: float = DEFAULT_C
    seed: int = 0
    lda_iters: int = DEFAULT_GIBBS_ITERS


def prepare(records, boundary_day):
    """Clean the corpus and profile the active developers.

    Returns (cleaned, summary, profiles).  Cleaning keeps only active
    developers' bugs, so profiles maps every developer with a cleaned
    training bug to the components of their training-phase fixes.
    """
    cleaned, summary = clean_bugs(records, boundary_day)
    train, _ = split_train_test(cleaned, boundary_day)
    return cleaned, summary, developer_profiles(train)


def train_models(cleaned_train, profiles, boundary_day, settings: TrainSettings) -> TrainedModels:
    """Fit vocabulary, suitability classifier, topic model, and the grid
    of observed cost means on the cleaned training records, those
    reported up to ``boundary_day``."""
    if not profiles:
        raise ValidationError("no active developers to train on")
    train = [r for r in cleaned_train if r.actual_assignee in profiles]
    docs = [preprocess_text(r.summary, r.description, r.bug_id) for r in train]
    vocab = build_vocabulary(docs)
    X = np.array([tfidf_transform(doc, vocab) for doc in docs])
    linear = train_classifier(X, [r.actual_assignee for r in train], C=settings.C)
    topic_model = select_topic_count(
        docs, vocab, settings.topic_grid, seed=settings.seed, iters=settings.lda_iters
    )
    topics = fitted_topics(topic_model, docs, vocab)
    return TrainedModels(
        linear_model=linear,
        vocab=vocab,
        topic_model=topic_model,
        cost=build_cost_matrix(train, topics, linear.dev_ids, topic_model.K),
        boundary_day=boundary_day,
    )


def replay_corpus(all_records, cleaned, boundary_day) -> ReplayCorpus:
    assignable = {
        r.bug_id for r in cleaned if r.reported_at > boundary_day
    }
    return ReplayCorpus(records=all_records, assignable_ids=assignable)


def feature_table(models: TrainedModels, corpus: ReplayCorpus, boundary_day, end_day) -> FeatureTable:
    """Suitability and estimated cost of every assignable bug reported in
    (boundary_day, end_day], i.e. every bug that enters a replay's pool.

    Each bug's text is preprocessed once and feeds both the classifier
    and the topic fold-in; its cost row is its topic's column of the cost
    grid as ``fill_missing_cf`` fills it, or the global mean for
    GLOBAL_TOPIC.  The columns are the models' one developer order,
    ``dev_ids`` in ``model.json``.
    """
    vocab, history = models.vocab, corpus.history
    bug_ids = sorted(
        b for b in corpus.assignable_ids
        if boundary_day < history[b].reported_at <= end_day
    )
    docs = [preprocess_text(history[b].summary, history[b].description, b) for b in bug_ids]
    X = np.array([tfidf_transform(doc, vocab) for doc in docs]).reshape(len(docs), len(vocab))
    topics = np.array([infer_topic(models.topic_model, doc, vocab) for doc in docs], dtype=int)
    filled, global_mean = fill_missing_cf(models.cost)
    C = filled.T[topics]
    C[topics == GLOBAL_TOPIC] = global_mean
    S = predict_suitability(models.linear_model, X)
    return FeatureTable(dev_ids=tuple(models.dev_ids), bug_ids=tuple(bug_ids), S=S, C=C)


# --- artifact persistence ----------------------------------------------

MODEL_FILE = "model.json"

# Each measured fact once.  dev_ids orders the classifier's and the cost
# grid's rows; a term's position is its column in weights and phi; phi's
# rows are the topics, the cost grid's columns.  weights holds each
# developer's nonzero weights as [column, value] pairs; cost holds each
# developer's mean fixing days on a topic, null where they fixed none.
MODEL_SCHEMA = Spec("obj", {
    "boundary_day": Spec("int"),
    "dev_ids": Spec("list", Spec("int"), unique=(None,)),
    "n_docs": Spec("int", min=1),
    "terms": Spec("list", Spec("list", (Spec("str"), Spec("int", min=1, max="n_docs"))),
                  unique=(0,)),
    "bias": Spec("list", Spec("num"), length="dev_ids"),
    "weights": Spec("list", Spec("list", Spec("list", (Spec("int", min=0, below="terms"),
                                                       Spec("num"))), unique=(0,)),
                    length="dev_ids"),
    "seed": Spec("int", min=0),
    "phi": Spec("list", Spec("list", Spec("num", min=0), length="terms"), min=1),
    "cost": Spec("list", Spec("list", Spec("num?", above=0), length="phi"), length="dev_ids"),
})


def models_to_json(models: TrainedModels) -> str:
    vocab, linear = models.vocab, models.linear_model
    return json.dumps({
        "boundary_day": models.boundary_day,
        "dev_ids": models.dev_ids,
        "n_docs": vocab.n_docs,
        "terms": [[t, vocab.doc_freq[t]] for t in vocab.terms],
        "bias": linear.bias.tolist(),
        "weights": [[[int(i), float(w[i])] for i in np.flatnonzero(w)] for w in linear.weights],
        "seed": models.topic_model.seed,
        "phi": models.topic_model.phi.tolist(),
        "cost": [[None if np.isnan(c) else c for c in row] for row in models.cost.tolist()],
    }, indent=2)


def models_from_json(text) -> TrainedModels:
    """The models ``models_to_json`` wrote."""
    obj = MODEL_SCHEMA.parse(text)
    phi = np.array(obj["phi"], dtype=float)
    if not ((phi.sum(axis=1) > 0).all() and (phi.sum(axis=0) > 0).all()):
        raise ValidationError("every phi row and column must have a positive sum")
    cost = np.array(obj["cost"], dtype=float)  # null -> NaN
    if np.isnan(cost).all():
        raise ValidationError("cost: no observed cell, which the global mean needs")
    dev_ids, terms = obj["dev_ids"], obj["terms"]
    weights = np.zeros((len(dev_ids), len(terms)))
    for row, pairs in zip(weights, obj["weights"]):
        for i, w in pairs:
            row[i] = w
    return TrainedModels(
        linear_model=LinearModel(dev_ids, weights, np.array(obj["bias"], dtype=float)),
        vocab=Vocabulary({t: i for i, (t, _) in enumerate(terms)}, dict(terms), obj["n_docs"]),
        topic_model=TopicModel(phi, obj["seed"]),
        cost=cost,
        boundary_day=obj["boundary_day"],
    )


def profiles_to_json(profiles) -> str:
    return json.dumps([
        {"dev_id": dev, "components_experienced": sorted(components)}
        for dev, components in sorted(profiles.items())
    ], indent=2)


def save_prepared(summary, profiles, out_dir) -> None:
    """Write what ``prepare`` computes: the cleaning summary and the
    developer profiles."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        fh.write(summary.to_json())
    with open(os.path.join(out_dir, "dev_profiles.json"), "w") as fh:
        fh.write(profiles_to_json(profiles))


def save_models(models: TrainedModels, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, MODEL_FILE), "w") as fh:
        fh.write(models_to_json(models))


def read_json_file(path, parse):
    """``parse`` applied to the text of the JSON file at ``path``.  A
    file that is not UTF-8 JSON of the expected shape raises
    ValidationError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (ValueError, LookupError, TypeError, ArithmeticError, RecursionError, MemoryError) as exc:
        raise ValidationError(
            f"{path}: not a valid file ({type(exc).__name__}: {exc})"
        ) from exc


def load_models(out_dir, profiles, boundary_day) -> TrainedModels:
    """The models ``save_models`` wrote to ``out_dir``, to replay the
    data whose active developers ``prepare`` profiled at
    ``boundary_day``.  A file trained at another boundary or for other
    developers raises ValidationError naming it."""
    path = os.path.join(out_dir, MODEL_FILE)
    if not os.path.exists(path):
        raise ValidationError(f"missing artifact {MODEL_FILE}; run `train` first")
    models = read_json_file(path, models_from_json)
    if models.boundary_day != boundary_day:
        raise ValidationError(f"{path}: trained at --boundary {models.boundary_day}, "
                              f"not {boundary_day}; run `train` again")
    trained, active = models.dev_ids, sorted(profiles)  # the file's, the data's
    if trained != active:
        raise ValidationError(f"{path}: developers {trained} are not the data's active "
                              f"developers {active}; run `train` again")
    return models


def result_to_json(result: SimResult) -> str:
    return json.dumps(dict(vars(result), config=asdict(result.config)), indent=2, sort_keys=True)


# The log and daily fields that metrics.compute_report reads, as a
# replay writes them; their other fields are not checked.
RESULT_SCHEMA = Spec("obj", {
    "config": Spec("obj", {
        "policy": Spec("str"), "boundary_day": Spec("int"), "end_day": Spec("int"),
        "alpha": Spec("num"), "seed": Spec("int"), "horizon_L": Spec("num"),
    }),
    "log": Spec("list", Spec("obj", {
        "dev_id": Spec("int"), "reported_day": Spec("int"), "estimated_cost": Spec("num"),
        "completion_day": Spec("int?"), "accurate": Spec("bool"), "infeasible": Spec("bool"),
    }, open=True)),
    "daily": Spec("list", Spec("obj", {"mean_depth": Spec("num"), "mean_degree": Spec("num")},
                               open=True)),
    "total_entering": Spec("int", min="log"),
})


def result_from_json(text) -> SimResult:
    obj = RESULT_SCHEMA.parse(text)
    return SimResult(**dict(obj, config=SimConfig(**obj["config"])))
