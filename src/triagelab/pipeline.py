"""End-to-end wiring: clean -> train artifacts -> replay -> report.

Every stage reads and writes plain JSON artifacts so stages can be
run, inspected, and re-run independently (and compared across
implementations).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import DeveloperProfile, clean_bugs, developer_profiles, split_train_test
from .costmodel import (
    DEFAULT_GIBBS_ITERS,
    GLOBAL_TOPIC,
    TopicModel,
    CostMatrix,
    build_cost_matrix,
    fill_missing_cf,
    fitted_topics,
    infer_topic,
    select_topic_count,
)
from .errors import ValidationError
from .schema import Spec
from .simulator import FeatureTable, ReplayCorpus, SimConfig, SimResult, run_simulation
from .suitability import DEFAULT_C, LinearModel, predict_suitability, train_classifier
from .textprep import Vocabulary, build_vocabulary, preprocess_text, tfidf_transform

DEFAULT_TOPIC_GRID = tuple(range(5, 55, 5))


@dataclass
class TrainedModels:
    """Frozen artifacts from the training phase."""

    linear_model: LinearModel
    vocab: Vocabulary
    topic_model: TopicModel
    cost_matrix: CostMatrix
    dev_profiles: dict  # dev_id -> DeveloperProfile (active set)

    @property
    def dev_ids(self):
        return sorted(self.dev_profiles)


@dataclass
class TrainSettings:
    topic_grid: tuple = DEFAULT_TOPIC_GRID
    C: float = DEFAULT_C
    seed: int = 0
    lda_iters: int = DEFAULT_GIBBS_ITERS


def prepare(records, boundary_day):
    """Clean the corpus and profile the active developers.

    Returns (cleaned, summary, profiles).  Cleaning keeps only active
    developers' bugs, so profiles covers every developer with a cleaned
    training bug, with their training-phase component experience.
    """
    cleaned, summary = clean_bugs(records, boundary_day)
    train, _ = split_train_test(cleaned, boundary_day)
    profiles = {p.dev_id: p for p in developer_profiles(train)}
    return cleaned, summary, profiles


def train_models(cleaned_train, profiles, settings: TrainSettings) -> TrainedModels:
    """Fit vocabulary, suitability classifier, topic model, and cost
    matrix on the cleaned training records."""
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
    dev_ids = sorted(profiles)
    cost = fill_missing_cf(build_cost_matrix(train, topics, dev_ids, topic_model.K), dev_ids)
    return TrainedModels(
        linear_model=linear,
        vocab=vocab,
        topic_model=topic_model,
        cost_matrix=cost,
        dev_profiles=dict(profiles),
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
    and the topic fold-in; its cost row is the filled cost matrix's
    column for its topic, or the global mean for GLOBAL_TOPIC.  The
    columns are the models' one developer order, which ``load_models``
    checks.
    """
    matrix, vocab, history = models.cost_matrix, models.vocab, corpus.history
    bug_ids = sorted(
        b for b in corpus.assignable_ids
        if boundary_day < history[b].reported_at <= end_day
    )
    docs = [preprocess_text(history[b].summary, history[b].description, b) for b in bug_ids]
    X = np.array([tfidf_transform(doc, vocab) for doc in docs]).reshape(len(docs), len(vocab))
    topics = np.array([infer_topic(models.topic_model, doc, vocab) for doc in docs], dtype=int)
    C = matrix.filled.T[topics]
    C[topics == GLOBAL_TOPIC] = matrix.global_mean
    S = predict_suitability(models.linear_model, X)
    return FeatureTable(dev_ids=tuple(models.dev_ids), bug_ids=tuple(bug_ids), S=S, C=C)


def run_policy(config: SimConfig, all_records, cleaned, models: TrainedModels) -> SimResult:
    corpus = replay_corpus(all_records, cleaned, config.boundary_day)
    # the actual policy replays history and reads no table rows
    end_day = config.boundary_day if config.policy == "actual" else config.end_day
    table = feature_table(models, corpus, config.boundary_day, end_day)
    return run_simulation(config, corpus, table, models.dev_profiles)


# --- artifact persistence ----------------------------------------------

PROFILES_SCHEMA = Spec("list", Spec("obj", {
    "dev_id": Spec("int"),
    "components_experienced": Spec("list", Spec("str"), unique=(None,)),
}), unique=("dev_id",))


def profiles_to_json(profiles) -> str:
    return json.dumps([
        {"dev_id": p.dev_id, "components_experienced": sorted(p.components_experienced)}
        for p in sorted(profiles.values(), key=lambda p: p.dev_id)
    ], indent=2)


def profiles_from_json(text) -> dict:
    return {
        p["dev_id"]: DeveloperProfile(p["dev_id"], frozenset(p["components_experienced"]))
        for p in PROFILES_SCHEMA.parse(text)
    }


def save_prepared(summary, profiles, out_dir) -> None:
    """Write what ``prepare`` computes: the cleaning summary, its
    per-step log and the developer profiles."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        fh.write(summary.to_json())
    summary.write_cleaning_log(os.path.join(out_dir, "cleaning_log.csv"))
    with open(os.path.join(out_dir, "dev_profiles.json"), "w") as fh:
        fh.write(profiles_to_json(profiles))


def save_models(models: TrainedModels, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, model in (("vocabulary.json", models.vocab), ("classifier.json", models.linear_model),
                        ("topic_model.json", models.topic_model),
                        ("cost_matrix.json", models.cost_matrix)):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(model.to_json())


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


def load_models(out_dir) -> TrainedModels:
    """The artifacts ``save_models`` and ``save_prepared`` wrote to
    ``out_dir``.  Files that disagree on the topic count, the vocabulary
    size or the developers, as files from two runs can, raise
    ValidationError naming both."""
    def path(name):
        return os.path.join(out_dir, name)

    def read(name, parse):
        if not os.path.exists(path(name)):
            raise ValidationError(f"missing artifact {name}; run `train` first")
        return read_json_file(path(name), parse)

    models = TrainedModels(
        linear_model=read("classifier.json", LinearModel.from_json),
        vocab=read("vocabulary.json", Vocabulary.from_json),
        topic_model=read("topic_model.json", TopicModel.from_json),
        cost_matrix=read("cost_matrix.json", CostMatrix.from_json),
        dev_profiles=read("dev_profiles.json", profiles_from_json),
    )
    topics, n_terms = models.topic_model, len(models.vocab)
    for name, what, value, other, other_what, expected in (
        ("topic_model.json", "K", topics.K, "cost_matrix.json", "K", models.cost_matrix.K),
        ("topic_model.json", "vocab_size", topics.vocab_size, "vocabulary.json", "size", n_terms),
        ("classifier.json", "n_features", models.linear_model.n_features,
         "vocabulary.json", "size", n_terms),
        ("cost_matrix.json", "dev_ids", models.cost_matrix.dev_ids,
         "dev_profiles.json", "developers", models.dev_ids),
        ("classifier.json", "developers", models.linear_model.dev_ids,
         "dev_profiles.json", "developers", models.dev_ids),
    ):
        if value != expected:
            raise ValidationError(
                f"{path(name)}: {what} {value} does not match {path(other)}: "
                f"{other_what} {expected}; run `train` again"
            )
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
