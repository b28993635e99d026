"""End-to-end wiring: clean -> train artifacts -> replay -> report.

Every stage reads and writes plain JSON artifacts so stages can be
run, inspected, and re-run independently (and compared across
implementations).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .corpus import DeveloperProfile, clean_bugs, developer_profiles, split_train_test
from .costmodel import (
    GLOBAL_TOPIC,
    TopicModel,
    CostMatrix,
    build_cost_matrix,
    fill_missing_cf,
    infer_topic,
    select_topic_count,
)
from .errors import ValidationError
from .simulator import FeatureTable, ReplayCorpus, SimConfig, SimResult, run_simulation
from .suitability import LinearModel, predict_suitability, train_classifier
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
    C: float = 1000.0
    seed: int = 0
    lda_iters: int = 1000


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
    topics = [infer_topic(topic_model, doc, vocab) for doc in docs]
    cost = fill_missing_cf(
        build_cost_matrix(train, topics), sorted(profiles), topic_model.K
    )
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
    column for its topic, or the global mean for GLOBAL_TOPIC.
    """
    dev_ids = models.dev_ids
    matrix = models.cost_matrix
    if matrix.dev_ids != dev_ids:
        raise ValidationError("cost matrix developers differ from the active developers")
    global_mean = matrix.global_mean
    bug_ids = sorted(
        b for b in corpus.assignable_ids
        if boundary_day < corpus.history[b].reported_at <= end_day
    )
    S = np.empty((len(bug_ids), len(dev_ids)))
    C = np.empty((len(bug_ids), len(dev_ids)))
    for i, bug_id in enumerate(bug_ids):
        rec = corpus.history[bug_id]
        doc = preprocess_text(rec.summary, rec.description, bug_id)
        row = tfidf_transform(doc, models.vocab)
        S[i] = predict_suitability(models.linear_model, row, dev_ids)
        topic = infer_topic(models.topic_model, doc, models.vocab)
        C[i] = global_mean if topic == GLOBAL_TOPIC else matrix.filled[:, topic]
    return FeatureTable(dev_ids=tuple(dev_ids), bug_ids=tuple(bug_ids), S=S, C=C)


def run_policy(config: SimConfig, all_records, cleaned, models: TrainedModels) -> SimResult:
    corpus = replay_corpus(all_records, cleaned, config.boundary_day)
    # the actual policy replays history and reads no table rows
    end_day = config.boundary_day if config.policy == "actual" else config.end_day
    table = feature_table(models, corpus, config.boundary_day, end_day)
    return run_simulation(config, corpus, table, models.dev_profiles)


# --- artifact persistence ----------------------------------------------

def profiles_to_json(profiles) -> str:
    return json.dumps(
        [
            {
                "dev_id": p.dev_id,
                "fixed_bug_count": p.fixed_bug_count,
                "components_experienced": sorted(p.components_experienced),
            }
            for p in sorted(profiles.values(), key=lambda p: p.dev_id)
        ],
        indent=2,
    )


def profiles_from_json(text) -> dict:
    return {
        obj["dev_id"]: DeveloperProfile(
            dev_id=obj["dev_id"],
            fixed_bug_count=obj["fixed_bug_count"],
            components_experienced=frozenset(obj["components_experienced"]),
        )
        for obj in json.loads(text)
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
    artifacts = {
        "vocabulary.json": models.vocab.to_json(),
        "classifier.json": models.linear_model.to_json(),
        "topic_model.json": models.topic_model.to_json(),
        "cost_matrix.json": models.cost_matrix.to_json(),
    }
    for name, text in artifacts.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)


def read_json_file(path, parse):
    """``parse`` applied to the text of the JSON file at ``path``.  A
    file that is not UTF-8 JSON of the expected shape raises
    ValidationError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (ValueError, KeyError, IndexError, TypeError, ValidationError) as exc:
        raise ValidationError(
            f"{path}: not a valid file ({type(exc).__name__}: {exc})"
        ) from exc


def load_models(out_dir) -> TrainedModels:
    def read(name, parse):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            raise ValidationError(f"missing artifact {name}; run `train` first")
        return read_json_file(path, parse)

    return TrainedModels(
        linear_model=read("classifier.json", LinearModel.from_json),
        vocab=read("vocabulary.json", Vocabulary.from_json),
        topic_model=read("topic_model.json", TopicModel.from_json),
        cost_matrix=read("cost_matrix.json", CostMatrix.from_json),
        dev_profiles=read("dev_profiles.json", profiles_from_json),
    )


def result_to_json(result: SimResult) -> str:
    return json.dumps(
        {
            "config": {
                "policy": result.config.policy,
                "boundary_day": result.config.boundary_day,
                "end_day": result.config.end_day,
                "alpha": result.config.alpha,
                "seed": result.config.seed,
                "horizon_L": result.config.horizon_L,
            },
            "log": result.log,
            "daily": result.daily,
            "total_entering": result.total_entering,
        },
        indent=2,
        sort_keys=True,
    )


# The JSON types of the log and daily fields that metrics.compute_report
# reads, as a replay writes them.
_NUMBER = (int, float)
_LOG_FIELDS = {
    "dev_id": (int,),
    "reported_day": (int,),
    "estimated_cost": _NUMBER,
    "completion_day": (int, type(None)),
    "accurate": (bool,),
    "infeasible": (bool,),
}
_DAILY_FIELDS = {"mean_depth": _NUMBER, "mean_degree": _NUMBER}


def _check_rows(rows, fields, what):
    if not isinstance(rows, list):
        raise ValidationError(f"{what!r} is not a list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValidationError(f"{what} entry {i} is not an object")
        for name, types in fields.items():
            if name not in row:
                raise ValidationError(f"{what} entry {i} has no {name!r}")
            value = row[name]
            if type(value) not in types or (
                type(value) is float and not math.isfinite(value)
            ):
                raise ValidationError(f"{what} entry {i}: bad {name!r} {value!r}")


def result_from_json(text) -> SimResult:
    obj = json.loads(text)
    _check_rows(obj["log"], _LOG_FIELDS, "log")
    _check_rows(obj["daily"], _DAILY_FIELDS, "daily")
    total = obj["total_entering"]
    if type(total) is not int or total < len(obj["log"]):
        raise ValidationError(f"bad 'total_entering' {total!r}")
    return SimResult(
        config=SimConfig(**obj["config"]),
        log=obj["log"],
        daily=obj["daily"],
        total_entering=obj["total_entering"],
    )
