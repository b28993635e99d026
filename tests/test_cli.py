import contextlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triagelab import pipeline
from triagelab.cli import dispatch
from triagelab.corpus import record_to_obj
from triagelab.minicorpus import MiniCorpusSpec, generate, write_jsonl
from triagelab.solver import AssignmentInstance, InstanceBug

from conftest import MINI_BOUNDARY, MINI_END

SMALL = MiniCorpusSpec(
    seed=3,
    boundary_day=120,
    end_day=240,
    train_start=1,
    train_stop=115,
    test_start=121,
    test_stop=200,
    expert_own_fixes=10,
    generalist_fixes_per_topic=4,
    inactive_fixes=3,
    test_rate_per_topic=0.1,
    blocked_fraction=0.15,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "bugs.jsonl"
    write_jsonl(generate(SMALL), data)
    out = root / "out"
    args = ["--data", str(data), "--boundary", "120", "--out", str(out)]
    assert dispatch(["prepare"] + args) == 0
    assert dispatch(["train"] + args + ["--topics", "4", "--lda-iters", "60"]) == 0
    return root, data, out, args


def test_validate_ok(workdir, capsys):
    _, data, _, _ = workdir
    assert dispatch(["validate", str(data)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_prepare_wrote_artifacts(workdir):
    _, _, out, _ = workdir
    counts = json.loads((out / "summary.json").read_text())["counts_by_step"]
    assert len(counts) == 5 and counts == sorted(counts, reverse=True)  # input, 4 steps
    assert not (out / "cleaning_log.csv").exists()
    assert (out / "dev_profiles.json").exists()


def test_train_writes_what_prepare_writes(workdir, tmp_path):
    # out holds prepare then train; trained holds train alone
    _, data, out, _ = workdir
    common = ["--data", str(data), "--boundary", "120", "--out"]
    prepared, trained = tmp_path / "prepared", tmp_path / "trained"
    assert dispatch(["prepare"] + common + [str(prepared)]) == 0
    assert dispatch(["train"] + common + [str(trained), "--topics", "4",
                                          "--lda-iters", "1"]) == 0
    for name in ("summary.json", "dev_profiles.json"):
        expected = (prepared / name).read_bytes()
        assert (out / name).read_bytes() == expected, name
        assert (trained / name).read_bytes() == expected, name


def test_train_wrote_model_artifacts(workdir):
    _, _, out, _ = workdir
    assert (out / "model.json").exists()
    for name in ("vocabulary.json", "classifier.json", "topic_model.json", "cost_matrix.json"):
        assert not (out / name).exists(), name


def test_simulate_and_report(workdir, capsys):
    _, _, out, args = workdir
    for policy in ("dabt", "cbr"):
        code = dispatch(
            ["simulate"] + args + ["--policy", policy, "--end", "240"]
        )
        assert code == 0
    capsys.readouterr()
    code = dispatch(
        ["report", "--out", str(out)]
        + [str(out / "result_dabt_a0.5.json"), str(out / "result_cbr_a0.5.json")]
    )
    assert code == 0
    assert "% overdue bugs" in capsys.readouterr().out
    assert (out / "comparison.csv").exists()


def test_simulate_reruns_identically(workdir):
    _, _, out, args = workdir
    dispatch(["simulate"] + args + ["--policy", "dabt", "--end", "240"])
    first = (out / "result_dabt_a0.5.json").read_bytes()
    dispatch(["simulate"] + args + ["--policy", "dabt", "--end", "240"])
    assert (out / "result_dabt_a0.5.json").read_bytes() == first


def test_alphas_equal_to_six_digits_write_distinct_runs(workdir, tmp_path, capsys):
    _, _, out, args = workdir
    for alpha in ("0.5", "0.5000001"):
        assert dispatch(["simulate"] + args + ["--alpha", alpha, "--end", "240"]) == 0
    for kind, ext in (("result", "json"), ("decisions", "jsonl"), ("daily", "csv"),
                      ("report", "json")):
        assert (out / f"{kind}_dabt_a0.5.{ext}").exists()
        assert (out / f"{kind}_dabt_a0.5000001.{ext}").exists()
    for tag, alpha in (("a0.5", 0.5), ("a0.5000001", 0.5000001)):
        result = json.loads((out / f"result_dabt_{tag}.json").read_text())
        assert result["config"]["alpha"] == alpha
    capsys.readouterr()
    results = [str(out / "result_dabt_a0.5.json"), str(out / "result_dabt_a0.5000001.json")]
    assert dispatch(["report", "--out", str(tmp_path)] + results) == 0
    header = (tmp_path / "comparison.csv").read_text().splitlines()[0]
    assert header == "metric,dabt_a0.5,dabt_a0.5000001"


def test_simulate_alpha_series(workdir, tmp_path, capsys):
    _, _, out, args = workdir
    capsys.readouterr()
    assert dispatch(["simulate"] + args + ["--alpha", "0", "1", "--end", "240"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["dabt_a0", "dabt_a1"]
    for tag, alpha in (("a0", 0.0), ("a1", 1.0)):
        for kind, ext in (("decisions", "jsonl"), ("daily", "csv"), ("report", "json")):
            assert (out / f"{kind}_dabt_{tag}.{ext}").exists()
        result = json.loads((out / f"result_dabt_{tag}.json").read_text())
        assert result["config"]["alpha"] == alpha
    results = [str(out / "result_dabt_a0.json"), str(out / "result_dabt_a1.json")]
    assert dispatch(["report", "--out", str(tmp_path)] + results) == 0
    header = (tmp_path / "comparison.csv").read_text().splitlines()[0]
    assert header == "metric,dabt_a0,dabt_a1"


def test_one_simulate_equals_one_command_per_run(workdir, tmp_path, monkeypatch):
    """One command over every policy and three alphas writes the files
    that fifteen single-run commands write, from one feature table."""
    _, data, out, _ = workdir
    policies, alphas = ["actual", "cbr", "costriage", "rabt", "dabt"], ["0", "0.5", "1"]
    single, together = tmp_path / "single", tmp_path / "together"
    for d in (single, together):
        d.mkdir()
        shutil.copy(out / "model.json", d)

    def run(d, *flags):
        return dispatch(["simulate", "--data", str(data), "--boundary", "120",
                         "--out", str(d), "--end", "240", *flags])

    for policy in policies:
        for alpha in alphas:
            assert run(single, "--policy", policy, "--alpha", alpha) == 0
    built = []
    real = pipeline.feature_table
    monkeypatch.setattr(pipeline, "feature_table", lambda *a: built.append(a) or real(*a))
    assert run(together, "--policy", *policies, "--alpha", *alphas) == 0
    assert len(built) == 1
    names = sorted(p.name for p in together.iterdir())
    assert names == sorted(p.name for p in single.iterdir())
    assert len(names) == 1 + 4 * 15
    for name in names:
        assert (together / name).read_bytes() == (single / name).read_bytes(), name


def test_train_with_more_topics_than_terms(workdir, tmp_path):
    _, data, out, _ = workdir
    V = len(json.loads((out / "model.json").read_text())["terms"])
    other = tmp_path / "out"
    assert dispatch(["train", "--data", str(data), "--boundary", "120", "--out", str(other),
                     "--topics", str(V - 1), str(V), str(V + 1), "--lda-iters", "1"]) == 0
    trained = json.loads((other / "model.json").read_text())
    assert len(trained["terms"]) == V and {len(row) for row in trained["phi"]} == {V}


def test_solve_subcommand(tmp_path, capsys):
    inst = AssignmentInstance(
        bugs=[InstanceBug(1, (1.0,), (2.0,))], developers=[(7, 5.0)], alpha=1.0
    )
    path = tmp_path / "instance.json"
    path.write_text(inst.to_json())
    assert dispatch(["solve", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["assignments"] == [[1, 7]]
    assert dispatch(["solve", str(path), "--variant", "oracle"]) == 0


def test_unknown_subcommand_exits_2(capsys):
    assert dispatch(["frobnicate"]) == 2
    assert dispatch(["simulate", "--no-such-flag"]) == 2
    assert dispatch(["report", "--data", "bugs.jsonl", "result.json"]) == 2


def test_missing_data_is_clean_error(tmp_path, capsys):
    code = dispatch(["simulate", "--data", str(tmp_path / "nope.jsonl"),
                     "--boundary", "10", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", ['{"bug_id": 1}\n', None], ids=["bad-line", "no-file"])
def test_missing_boundary_is_reported_before_the_data_is_read(tmp_path, capsys, content):
    data = tmp_path / "bad.jsonl"
    if content is not None:
        data.write_text(content)
    assert dispatch(["prepare", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
    assert _one_error_line(capsys) == "error: --boundary is required\n"


def test_missing_artifacts_suggest_train(workdir, tmp_path, capsys):
    _, data, _, _ = workdir
    code = dispatch(["simulate", "--data", str(data), "--boundary", "120",
                     "--out", str(tmp_path / "empty")])
    assert code == 1
    assert "train" in capsys.readouterr().err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe not utf-8\n", ("[" * 100_000 + "]" * 100_000 + "\n").encode()],
    ids=["not-utf8", "nested-too-deep"],
)
def test_validate_bad_bytes_is_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(content)
    assert dispatch(["validate", str(path)]) == 1
    assert "line 1" in _one_error_line(capsys)


def test_validate_directory_is_one_error_line(tmp_path, capsys):
    assert dispatch(["validate", str(tmp_path)]) == 1
    _one_error_line(capsys)


def test_simulate_corrupt_artifact_is_one_error_line(workdir, tmp_path, capsys):
    _, data, out, _ = workdir
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    text = (bad / "model.json").read_text()
    (bad / "model.json").write_text(text[: len(text) // 2])
    code = dispatch(["simulate", "--data", str(data), "--boundary", "120",
                     "--out", str(bad), "--end", "240"])
    assert code == 1
    assert "model.json" in _one_error_line(capsys)


def _k6_phi(data, tmp_path):
    other = tmp_path / "k6"
    assert dispatch(["train", "--data", str(data), "--boundary", "120", "--out", str(other),
                     "--topics", "6", "--lda-iters", "1"]) == 0
    return json.loads((other / "model.json").read_text())["phi"]


def _first_weights(obj, index):
    """model.json content whose first developer's first weight moves to
    ``index``, or, for None, appears twice."""
    weights = obj["weights"][0]
    weights = weights[:1] + weights if index is None else [[index, weights[0][1]]] + weights[1:]
    return dict(obj, weights=[weights] + obj["weights"][1:])


def _without_last_developer(obj):
    """model.json content for every developer but the last."""
    return dict(obj, **{key: obj[key][:-1]
                        for key in ("dev_ids", "bias", "weights", "cost")})


def _with_observed_cells(obj):
    """model.json content that also lists each observed mean as a
    [dev_id, topic, value] cell, as the cost file did before the one
    grid."""
    return dict(obj, observed=[[d, k, cost] for d, row in zip(obj["dev_ids"], obj["cost"])
                               for k, cost in enumerate(row) if cost is not None])


def _at(obj, path, edit):
    """Parsed JSON ``obj`` with the value at ``path`` (keys and indices)
    replaced by ``edit`` of it; ``obj`` itself is not changed."""
    if not path:
        return edit(obj)
    head, *rest = path
    copy = list(obj) if isinstance(obj, list) else dict(obj)
    copy[head] = _at(obj[head], rest, edit)
    return copy


def _set(path, value):
    """An edit for the parametrized cases below: ``value`` at ``path``,
    whose last key may be new."""
    *head, last = path

    def put(container):
        copy = list(container) if isinstance(container, list) else dict(container)
        copy[last] = value
        return copy

    return lambda obj, _: _at(obj, head, put)


def _edit(path, change):
    """An edit for the parametrized cases below: ``change`` of the value
    at ``path``."""
    return lambda obj, _: _at(obj, path, change)


def _replays_refuse(data, out, capsys, boundary="120"):
    """The one error line of ``simulate`` with one run and with four on
    the models in ``out``, each of which must exit 1."""
    capsys.readouterr()
    errors = []
    for command in (["simulate"], ["simulate", "--policy", "dabt", "cbr", "--alpha", "0", "1"]):
        code = dispatch(command + ["--data", str(data), "--boundary", boundary,
                                   "--out", str(out), "--end", "240"])
        assert code == 1
        errors.append(_one_error_line(capsys))
    return errors


@pytest.mark.parametrize(
    "edit,other",
    [
        # 6 topics beside a 4-column cost grid
        (lambda obj, k6: dict(obj, phi=k6()), "(len(phi))"),
        (_edit(("phi",), lambda phi: [row[:-1] for row in phi]), "(len(terms))"),
        (_edit(("phi",), lambda phi: phi[:-1]), "(len(phi))"),
        (_edit(("cost",), lambda cost: [row[:-1] for row in cost]), "(len(phi))"),
        # a weight's column past the vocabulary
        (lambda obj, _: _first_weights(obj, len(obj["terms"])), "(len(terms))"),
        (lambda obj, _: _without_last_developer(obj), "data's active developers"),
        (_set(("cost", 0, 0), float("nan")), "cost[0][0]"),
        (_edit(("cost", 0), lambda row: [-3.0] * len(row)), "cost[0][0]"),
        (_edit(("cost",), lambda rows: [[None] * len(row) for row in rows]),
         "cost: no observed cell"),
        # the observed means in the cell-list format, a second copy
        (lambda obj, _: _with_observed_cells(obj), "unknown key 'observed'"),
        (_edit(("phi", 0), lambda row: [float("nan")] * len(row)), "phi[0][0]"),
        (_set(("bias", 0), float("nan")), "bias[0]"),
        (lambda obj, _: _first_weights(obj, -1), "weights[0][0][0]"),
        (lambda obj, _: _first_weights(obj, True), "weights[0][0][0]"),
        (lambda obj, _: _first_weights(obj, None), "repeats an earlier entry"),
        (_set(("terms", 0, 1), -1), "terms[0][1]"),
        (_set(("terms", 0, 1), -5), "terms[0][1]"),
        (_set(("terms", 0, 1), "2"), "terms[0][1]"),
        (_set(("n_docs",), -3), "n_docs"),
        (_set(("seed",), -1), "seed"),
        (_set(("seed",), 1.5), "seed"),
        (_edit(("phi", 0), lambda row: [0.0] * len(row)), "positive sum"),
        (_edit(("phi",), lambda phi: [[0.0] + row[1:] for row in phi]), "positive sum"),
        # one more classifier row than developers
        (_edit(("weights",), lambda rows: rows + rows[:1]), "(len(dev_ids))"),
        (_edit(("dev_ids",), lambda ids: ids[:-1] + ids[:1]), "repeats an earlier entry"),
        (_edit(("dev_ids", 0), str), "dev_ids[0]"),
        (_edit(("dev_ids", 0), float), "dev_ids[0]"),
        # each of these loaded without a word before the files had one schema
        (_set(("bias", 0), "0.25"), "bias[0]"),
        (_set(("phi", 0, 0), True), "phi[0][0]"),
        (_set(("cost", 0, 0), True), "cost[0][0]"),
        (_set(("bias", 0), True), "bias[0]"),
        (_set(("weights", 0, 0, 1), True), "weights[0][0][1]"),
        (_set(("C",), "x"), "unknown key 'C'"),
        (_set(("epochs",), None), "unknown key 'epochs'"),
        (_set(("extra",), 1), "unknown key 'extra'"),
        (_set(("beta_lda",), 7.5), "unknown key 'beta_lda'"),
        # what the four model files before model.json wrote
        (lambda obj, _: dict(obj, vocab_size=len(obj["terms"])), "unknown key 'vocab_size'"),
        (lambda obj, _: dict(obj, n_features=len(obj["terms"])), "unknown key 'n_features'"),
        (lambda obj, _: dict(obj, K=len(obj["phi"])), "unknown key 'K'"),
        (_edit(("terms", 0), lambda term: {"term": term[0], "df": term[1]}),
         "terms[0]: expected a list"),
        (_edit(("terms", 0), lambda term: [term[0], 0, term[1]]), "terms[0]: expected length 2"),
        # what model.json held before it kept only measured values
        (lambda obj, _: dict(obj, provenance=[["OBSERVED"] * len(row) for row in obj["cost"]]),
         "unknown key 'provenance'"),
        (lambda obj, _: dict(obj, alpha_lda=50 / len(obj["phi"])), "unknown key 'alpha_lda'"),
    ],
    ids=["topic-K", "vocab-size", "phi-rows", "filled-width", "n_features", "developers",
         "filled-nan", "filled-negative", "cost-no-observed", "observed-cell-list", "phi-nan",
         "bias-nan", "weight-index-negative", "weight-index-bool", "weight-index-repeated",
         "df-minus-1", "df-minus-5", "df-string", "n_docs-negative", "seed-negative",
         "seed-float", "phi-row-zero",
         "phi-column-zero", "classifier-extra-developer", "developer-repeated",
         "developer-id-string", "developer-id-float",
         "bias-string", "phi-true", "filled-true", "bias-true", "weight-true",
         "C-string", "epochs-null", "extra-key", "beta_lda",
         "old-vocab_size", "old-n_features", "old-K", "term-object", "term-triple",
         "provenance-key", "alpha_lda-key"],
)
def test_mismatched_model_files_are_one_error_line(workdir, tmp_path, capsys, edit, other):
    """A model.json whose parts disagree, such as 6 topics in phi beside
    a 4-column cost grid, or that was trained for other developers, gives
    one error line naming the file and the disagreement, not a traceback;
    so does a NaN or a cost that is not positive, which would otherwise
    replay on wrong numbers, and a key or term format of the files before
    model.json."""
    _, data, out, _ = workdir
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    obj = json.loads((bad / "model.json").read_text())
    (bad / "model.json").write_text(json.dumps(edit(obj, lambda: _k6_phi(data, tmp_path))))
    for err in _replays_refuse(data, bad, capsys):
        assert "model.json" in err and other in err, err


def test_model_trained_at_another_boundary_is_one_error_line(workdir, tmp_path, capsys):
    """A model trained up to day 120 would replay the data split at day
    100 on test bugs it was trained on."""
    _, data, out, _ = workdir
    other = tmp_path / "out"
    shutil.copytree(out, other)
    for err in _replays_refuse(data, other, capsys, boundary="100"):
        assert err == (f"error: {other / 'model.json'}: trained at --boundary 120, not 100; "
                       "run `train` again\n")


def _old_model_files(obj):
    """The four files an older ``train`` wrote, holding model.json
    content ``obj``."""
    V, K = len(obj["terms"]), len(obj["phi"])
    return {
        "vocabulary.json": {"n_docs": obj["n_docs"], "terms": [
            {"term": term, "index": i, "df": df} for i, (term, df) in enumerate(obj["terms"])]},
        "classifier.json": {"n_features": V, "developers": [
            {"dev_id": d, "bias": b, "weights": w}
            for d, b, w in zip(obj["dev_ids"], obj["bias"], obj["weights"])]},
        "topic_model.json": {"K": K, "alpha_lda": 50 / K, "seed": obj["seed"],
                             "vocab_size": V, "phi": obj["phi"]},
        "cost_matrix.json": {"dev_ids": obj["dev_ids"], "K": K, "filled": obj["cost"],
                             "provenance": [["CF" if c is None else "OBSERVED" for c in row]
                                            for row in obj["cost"]]},
    }


def test_old_model_files_ask_for_train(workdir, tmp_path, capsys):
    _, data, out, _ = workdir
    old = tmp_path / "out"
    shutil.copytree(out, old)
    for name, content in _old_model_files(json.loads((old / "model.json").read_text())).items():
        (old / name).write_text(json.dumps(content, indent=2))
    (old / "model.json").unlink()
    for err in _replays_refuse(data, old, capsys):
        assert err.endswith(": missing artifact model.json; run `train` first\n"), err


_RESULTS = ["result_dabt_a0.5.json", "result_cbr_a0.5.json"]


def _simulate(d, data):
    """Replay DABT and CBR from the model in ``d``, writing ``_RESULTS`` there."""
    return ["simulate", "--data", str(data), "--boundary", "120", "--out", str(d),
            "--end", "240", "--policy", "dabt", "cbr"]


# Each kind of JSON file a command reads: its names in the directory, how
# it is parsed and written back, and the command that reads it there.
_READ_FILES = {
    "instance": (["pool.json"], AssignmentInstance.from_json, AssignmentInstance.to_json,
                 lambda d, data: ["solve", str(d / "pool.json")]),
    "model": ([pipeline.MODEL_FILE], pipeline.models_from_json, pipeline.models_to_json,
              _simulate),
    "result": (_RESULTS, pipeline.result_from_json, pipeline.result_to_json,
               lambda d, data: ["report", "--out", str(d), *(str(d / name) for name in _RESULTS)]),
}


@pytest.fixture(scope="module")
def one_line_files(workdir, tmp_path_factory):
    """A directory holding a trained model, two replays' results and a
    backlog pool, each as one line of JSON."""
    _, data, out, _ = workdir
    d = tmp_path_factory.mktemp("one_line")
    shutil.copy(out / pipeline.MODEL_FILE, d)
    shutil.copy(Path(__file__).parent / "data" / "backlog_pool_59.json", d / "pool.json")
    assert dispatch(_simulate(d, data)) == 0
    return d, data


@pytest.mark.parametrize("kind", sorted(_READ_FILES))
def test_indented_files_read_as_one_line_files(one_line_files, tmp_path, capsys, kind):
    # every version before one-line files wrote them with indent=2: they
    # parse to the same objects, and the command that reads them writes
    # the same bytes and prints the same text
    source, data = one_line_files
    names, parse, write, command = _READ_FILES[kind]
    runs = []
    for indent in (None, 2):
        d = tmp_path / f"indent{indent}"
        d.mkdir()
        for name in names:
            text = json.dumps(json.loads((source / name).read_text()), indent=indent)
            (d / name).write_text(text)
        parsed = [write(parse((d / name).read_text())) for name in names]
        capsys.readouterr()
        assert dispatch(command(d, data)) == 0
        written = {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.name not in names}
        runs.append((parsed, written, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == [(source / name).read_text() for name in names]
    assert runs[0][1] or runs[0][2]  # the command wrote or printed something


# Lists whose length no other key fixes, so one entry fewer is still a
# valid file, and numbers that may take any finite value.  A "*" in a
# pattern matches any one step of a path.
_FREE_LISTS = {("weights", "*")}
_ANY_NUMBER = {("bias", "*"), ("weights", "*", "*", 1)}


def _matches(path, patterns):
    return any(len(pattern) == len(path)
               and all(p in ("*", step) for p, step in zip(pattern, path))
               for pattern in patterns)


def _parts(value, path=()):
    """(path, value) for ``value`` and everything inside it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _parts(inner, path + (key,))


def _schema_breaks(obj):
    """(kind, path, edit) for every change to one part of the model.json
    content ``obj`` that its schema forbids.  Every number the writer
    writes as an integer must be one, and the file holds no bool or
    numeric string; its nulls are unobserved cost cells."""
    for path, value in _parts(obj):
        if isinstance(value, dict):
            yield "extra key", path, lambda d: dict(d, extra_key=0)
            for key in value:
                yield "deleted key", path, lambda d, key=key: {k: v for k, v in d.items()
                                                               if k != key}
        elif isinstance(value, list):
            if value and not _matches(path, _FREE_LISTS):
                yield "list one short", path, lambda items: items[:-1]
        else:
            changes = [("bool", True), ("NaN", math.nan), ("inf", math.inf),
                       ("-inf", -math.inf)]
            if type(value) is int:
                changes.append(("int to float", float(value)))
            if type(value) in (int, float):
                changes.append(("numeric string", str(value)))
                if not _matches(path, _ANY_NUMBER):
                    changes.append(("out of range", -1))
            elif value is None:
                changes.append(("out of range", -1))
            else:
                changes.append(("number for a string", 1))
            for kind, new in changes:
                yield kind, path, lambda _, new=new: new


@pytest.fixture(scope="module")
def schema_breaks(workdir, tmp_path_factory):
    """A copy of the trained files, and every schema-breaking change to
    model.json grouped by kind."""
    _, _, out, _ = workdir
    copy = tmp_path_factory.mktemp("mutated") / "out"
    shutil.copytree(out, copy)
    groups = {}
    for kind, path, edit in _schema_breaks(json.loads((out / "model.json").read_text())):
        groups.setdefault(kind, []).append((path, edit))
    return copy, groups


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_schema_breaking_change_is_one_error_line(workdir, schema_breaks, data):
    """One schema-breaking change to any one part of model.json makes
    ``simulate`` print one ``error:`` line naming the file and exit 1,
    never a traceback."""
    _, data_path, _, _ = workdir
    copy, groups = schema_breaks
    kind = data.draw(st.sampled_from(sorted(groups)), label="kind")
    path, edit = data.draw(st.sampled_from(groups[kind]), label="path")
    name = "model.json"
    original = (copy / name).read_text()
    (copy / name).write_text(json.dumps(_at(json.loads(original), path, edit)))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = dispatch(["simulate", "--data", str(data_path), "--boundary", "120",
                             "--out", str(copy), "--end", "240"])
    finally:
        (copy / name).write_text(original)
    text = err.getvalue()
    assert code == 1 and text.startswith("error: ") and text.count("\n") == 1, text
    assert name in text, text


_DAY_FIELDS = ("reported_at", "assigned_at", "resolved_at")
_HISTORY_FIELDS = ("bug_id", "summary", "description", "component", *_DAY_FIELDS,
                   "actual_assignee", "status_final", "dependency_events")
_WRONG_TYPES = (None, True, "x", "7.5", 6.5, [], [1], {}, {"day": 1},
                [[1, "ADD_BLOCKS"]], [[1, "MERGE", 2]], [["x", "ADD_BLOCKS", 2]])


@st.composite
def _history_edit(draw, base, objs):
    """One mutation of one bug of ``objs``, copies of the JSONL objects
    ``base``, applied in place: a dropped key, a wrong type, NaN, 2**63,
    a repeated id, a shifted day or an arc to a bug the history lacks."""
    i = draw(st.integers(0, len(objs) - 1), label="bug")
    obj, was = objs[i], base[i]
    kind = draw(st.sampled_from(["drop", "type", "nan", "2**63", "duplicate", "shift", "arc"]),
                label="kind")
    field = draw(st.sampled_from(_HISTORY_FIELDS), label="field")
    if kind == "drop":
        obj.pop(field, None)
    elif kind == "type":
        obj[field] = draw(st.sampled_from(_WRONG_TYPES), label="value")
    elif kind in ("nan", "2**63"):
        obj[field] = math.nan if kind == "nan" else 2**63
    elif kind == "duplicate":
        obj["bug_id"] = draw(st.sampled_from(base), label="other")["bug_id"]
    elif kind == "shift":
        day = draw(st.sampled_from(_DAY_FIELDS), label="day")
        obj[day] = was.get(day, was["reported_at"]) + draw(st.integers(-400, 400), label="by")
    else:
        unknown = max(o["bug_id"] for o in base) + 1
        action = draw(st.sampled_from(["ADD_BLOCKS", "REMOVE_BLOCKS"]), label="action")
        day = was["reported_at"] + draw(st.integers(-5, 5), label="on")
        obj["dependency_events"] = was["dependency_events"] + [[day, action, unknown]]


@pytest.fixture(scope="module")
def history_objs():
    return [record_to_obj(r) for r in generate(SMALL)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_malformed_history_is_one_error_line_or_a_run(tmp_path_factory, history_objs, data):
    """A bug history with one to three mutated fields makes ``validate``
    and ``prepare`` exit 0, or exit 1 with one ``error:`` line; never a
    traceback."""
    objs = [dict(obj) for obj in history_objs]
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        data.draw(_history_edit(history_objs, objs))
    root = tmp_path_factory.getbasetemp()
    path = root / "mutated.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    for argv in (["validate", str(path)],
                 ["prepare", "--data", str(path), "--boundary", "120",
                  "--out", str(root / "mutated")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = dispatch(argv)
        text = err.getvalue()
        assert code in (0, 1), (argv[0], code, text)
        if code == 1:
            assert text.startswith("error: ") and text.count("\n") == 1, (argv[0], text)


@pytest.mark.parametrize(
    "content", ["not json", '{"x": 1}', '{"config": {"policy": "dabt"}}', "[]"],
    ids=["not-json", "no-config", "partial-config", "list"],
)
def test_report_bad_result_is_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "result_bad.json"
    path.write_text(content)
    assert dispatch(["report", "--out", str(tmp_path), str(path)]) == 1
    assert "result_bad.json" in _one_error_line(capsys)


def _result_obj():
    """A well-formed result file's content: one assignment, one day."""
    return {
        "config": {"policy": "dabt", "boundary_day": 120, "end_day": 121,
                   "alpha": 0.5, "seed": 0, "horizon_L": 10.0},
        "log": [{"bug_id": 9, "dev_id": 1, "reported_day": 121, "assigned_day": 121,
                 "estimated_cost": 2.5, "infeasible": False, "accurate": True,
                 "component": "core", "start_day": 121, "completion_day": None}],
        "daily": [{"day": 121, "mean_depth": 0.0, "mean_degree": 0.0,
                   "n_nodes": 0, "n_arcs": 0, "capacity": {}}],
        "total_entering": 1,
    }


def test_report_reads_well_formed_result(tmp_path):
    # report reads only its result files: no corpus and no model.json
    path = tmp_path / "result_ok.json"
    path.write_text(json.dumps(_result_obj()))
    out = tmp_path / "report"
    assert dispatch(["report", "--out", str(out), str(path)]) == 0
    assert (out / "comparison.csv").read_text().startswith("metric,dabt\n")


@pytest.mark.parametrize(
    "key,value",
    [
        ("log", [1]),
        ("log", {"dev_id": 1}),
        ("log", [{"dev_id": 1}]),
        ("log", [dict(_result_obj()["log"][0], estimated_cost="2")]),
        ("log", [dict(_result_obj()["log"][0], estimated_cost=float("nan"))]),
        ("log", [dict(_result_obj()["log"][0], completion_day=1.5)]),
        ("log", [dict(_result_obj()["log"][0], dev_id=True)]),
        ("daily", [{"day": 1}]),
        ("daily", [{"day": 1, "mean_depth": None, "mean_degree": 0.0}]),
        ("daily", "x"),
        ("total_entering", 0),
        ("total_entering", "1"),
    ],
    ids=["log-int", "log-object", "log-missing-keys", "cost-string", "cost-nan",
         "completion-float", "dev-bool", "daily-missing-keys", "depth-null",
         "daily-string", "total-below-log", "total-string"],
)
def test_report_malformed_result_rows_are_one_error_line(tmp_path, capsys, key, value):
    path = tmp_path / "result_bad.json"
    path.write_text(json.dumps(dict(_result_obj(), **{key: value})))
    assert dispatch(["report", "--out", str(tmp_path), str(path)]) == 1
    assert "result_bad.json" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("train", ["--topics", "abc"], "--topics: expected int, got 'abc'"),
        # the range forms of earlier releases are refused, not misread
        ("train", ["--topics", "5-50:0"], "--topics: expected int, got '5-50:0'"),
        ("train", ["--topics", "4-"], "--topics: expected int, got '4-'"),
        ("train", ["--topics", "-"], "--topics: expected int, got '-'"),
        ("train", ["--topics", "5--50"], "--topics: expected int, got '5--50'"),
        ("train", ["--topics", "5-3"], "--topics: expected int, got '5-3'"),
        ("train", ["--topics", "4", "--lda-iters", "-5"], "LDA iterations"),
        ("train", ["--topics", "4", "--C", "0"], "C must be positive"),
        ("simulate", ["--alpha", "0", "x"], "--alpha: expected float, got 'x'"),
        # 1/(C*n) is 0 for C = inf and overflows to inf for a subnormal C
        ("train", ["--topics", "4", "--C", "inf"], "must be finite and positive"),
        ("train", ["--topics", "4", "--C", "1e-320"], "must be finite and positive"),
        # a NaN horizon never lets work start; an infinite one writes Infinity
        ("simulate", ["--policy", "cbr", "--L", "nan"], "horizon L must be finite"),
        ("simulate", ["--policy", "dabt", "--L", "inf"], "horizon L must be finite"),
        # a sweep: two policies in one command
        ("simulate", ["--policy", "dabt", "cbr", "--L", "inf"], "horizon L must be finite"),
        ("simulate", ["--policy", "dabt", "cbr", "--L", "nan"], "horizon L must be finite"),
    ],
    ids=["topics-abc", "topics-step-0", "topics-no-end", "topics-dash",
         "topics-negative-end", "topics-reversed", "lda-iters-negative", "C-zero", "alphas-x",
         "C-inf", "C-subnormal", "simulate-L-nan", "simulate-L-inf", "sweep-L-inf",
         "sweep-L-nan"],
)
def test_malformed_flag_value_is_one_error_line(workdir, tmp_path, capsys,
                                                command, flags, message):
    _, data, out, _ = workdir
    scratch = tmp_path / "out"
    shutil.copytree(out, scratch)  # a failed run must not touch the shared artifacts
    args = ["--data", str(data), "--boundary", "120", "--out", str(scratch)]
    assert dispatch([command] + args + flags) == 1
    assert message in _one_error_line(capsys)


_INT_FLAGS = [("prepare", "--boundary"), ("simulate", "--end"), ("train", "--seed"),
              ("train", "--lda-iters")]
_FLOAT_FLAGS = [("train", "--C"), ("simulate", "--alpha"), ("simulate", "--L")]


@pytest.mark.parametrize(
    "command,flag,value",
    [(c, f, v) for c, f in _INT_FLAGS for v in ("abc", "7.5")]
    + [(c, f, v) for c, f in _FLOAT_FLAGS for v in ("abc", "1,5")],
)
def test_unconvertible_flag_value_is_one_error_line(capsys, command, flag, value):
    assert dispatch([command, flag, value]) == 1
    err = _one_error_line(capsys)
    assert err.startswith(f"error: {flag}: ") and repr(value) in err
    assert "usage:" not in err


def test_negative_seed_is_one_error_line(workdir, tmp_path, capsys):
    _, data, _, _ = workdir
    args = ["train", "--data", str(data), "--boundary", "120",
            "--out", str(tmp_path / "out"), "--topics", "4", "--lda-iters", "1"]
    assert dispatch(args + ["--seed", "-1"]) == 1
    assert "seed must be non-negative" in _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        '{"developers": [[7, 5.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0], "c": [2.0]}], "developers": [[7, NaN]]}',
        '{"bugs": [{"bug_id": 1, "s": [NaN], "c": [2.0]}], "developers": [[7, 5.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0], "c": [Infinity]}], "developers": [[7, 5.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0, 1.0], "c": [2.0, 2.0]}],'
        ' "developers": [[1, 5.0], [1, 0.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0, 1.0], "c": [2.0]}], "developers": [[1, 5.0], [2, 5.0]]}',
        '{"bugs": [{"bug_id": 1, "s": ["x"], "c": [2.0]}], "developers": [[7, 5.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0], "c": [2.0]}], "developers": [[7, 1' + "0" * 400 + ']]}',
        # an id that is not an integer, or a bool that numpy reads as 0 or 1
        '{"alpha": true, "developers": [[7, true]], "bugs": [{"bug_id": 1.5, "s": [true], "c": [1]}]}',
        '{"bugs": [{"bug_id": 1.0, "s": [1.0], "c": [2.0]}], "developers": [[7, 5.0]]}',
        '{"bugs": [{"bug_id": true, "s": [1.0], "c": [2.0]}], "developers": [[7, 5.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0], "c": [2.0]}], "developers": [[7.5, 5.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0], "c": [2.0]}], "developers": [[true, 5.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0], "c": [2.0]}, {"bug_id": 2, "s": [1.0], "c": [2.0]}],'
        ' "developers": [[7, 5.0]], "precedence": [[1, 2.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0], "c": [2.0]}], "developers": [[7, true]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0], "c": [2.0]}], "developers": [[7, 5.0]], "alpha": true}',
        '{"bugs": [{"bug_id": 1, "s": [true], "c": [2.0]}], "developers": [[7, 5.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0, true], "c": [2.0, 2.0]}],'
        ' "developers": [[7, 5.0], [8, 5.0]]}',
        '{"bugs": [{"bug_id": 1, "s": [1.0], "c": [true]}], "developers": [[7, 5.0]]}',
    ],
    ids=["not-json", "no-bugs", "capacity-nan", "suitability-nan", "cost-infinity",
         "duplicate-developer", "cost-row-short", "suitability-string", "capacity-huge-integer",
         "all-bool", "bug-id-float", "bug-id-bool", "developer-id-float", "developer-id-bool",
         "precedence-id-float", "capacity-bool", "alpha-bool", "suitability-bool",
         "suitability-bool-among-floats", "cost-bool"],
)
def test_solve_bad_instance_is_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "instance.json"
    path.write_text(content)
    assert dispatch(["solve", str(path)]) == 1
    _one_error_line(capsys)


def test_solve_pool_deeper_than_the_search_is_one_error_line(tmp_path, capsys):
    """One developer whose capacity fits 1,000 of 1,100 unit-cost bugs:
    no bound prunes the search before it recurses past the limit."""
    bugs = [InstanceBug(i, (1.0,), (1.0,)) for i in range(1100)]
    inst = AssignmentInstance(bugs=bugs, developers=[(0, 1000.5)])
    path = tmp_path / "instance.json"
    path.write_text(inst.to_json())
    for variant in ("dabt", "rabt"):
        assert dispatch(["solve", str(path), "--variant", variant]) == 1
        assert _one_error_line(capsys) == (
            "error: a pool of 1100 bugs is deeper than the exact search can recurse "
            f"(Python's recursion limit is {sys.getrecursionlimit()})\n"
        )


def test_report_repeated_run_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "result_dabt_a0.5.json"
    path.write_text(json.dumps(_result_obj()))
    assert dispatch(["report", "--out", str(tmp_path), str(path), str(path)]) == 1
    assert "dabt_a0.5" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["prepare", "train", "simulate"])
def test_corpus_without_cleaned_training_bug_is_one_refusal(tmp_path, capsys, command):
    """prepare refuses such a corpus once, for every command that cleans
    one; no flag, --L included, would give it anything to train on."""
    data = tmp_path / "late.jsonl"
    write_jsonl(generate(SMALL)[-5:], data)  # reported after the boundary only
    args = ["--data", str(data), "--boundary", "120", "--out", str(tmp_path / "out")]
    assert dispatch([command] + args) == 1
    assert _one_error_line(capsys) == (
        "error: no bug reported by --boundary 120 survives cleaning "
        "(bugs kept per step: 5 -> 5 -> 0 -> 0 -> 0); nothing to train on\n"
    )
    assert not (tmp_path / "out").exists()


def _dynamic_arch_openblas():
    """Whether numpy's BLAS is an x86-64 OpenBLAS that picks its kernel at
    run time, so that OPENBLAS_CORETYPE can force another one."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not an x86-64 DYNAMIC_ARCH OpenBLAS")
def test_same_bytes_under_a_forced_openblas_kernel(mini_records, tmp_path):
    """The README corpus trained with 12 topics, whose cost grid leaves
    cells to the collaborative fill, and replayed under DABT: the
    classifier's weights and every filled cost give the same bytes under
    OpenBLAS's Prescott kernel, forced, as under the kernel it picks for
    this CPU."""
    data = tmp_path / "bugs.jsonl"
    write_jsonl(mini_records, data)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    files = []
    for coretype in ("Prescott", None):
        out = tmp_path / str(coretype)
        common = ["--data", str(data), "--boundary", str(MINI_BOUNDARY), "--out", str(out)]
        for args in (["train", *common, "--topics", "12", "--lda-iters", "20"],
                     ["simulate", *common, "--policy", "dabt", "--end", str(MINI_END)]):
            subprocess.run([sys.executable, "-m", "triagelab.cli", *args], check=True,
                           capture_output=True, timeout=300,
                           env=dict(env, OPENBLAS_CORETYPE=coretype) if coretype else env)
        files.append([(out / name).read_bytes() for name in ("model.json", "result_dabt_a0.5.json")])
    assert None in sum(json.loads(files[1][0])["cost"], [])  # the fill has cells to fill
    assert files[0] == files[1]
