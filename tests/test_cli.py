import json
import shutil

import pytest

from triagelab.cli import dispatch
from triagelab.minicorpus import MiniCorpusSpec, generate, write_jsonl
from triagelab.solver import AssignmentInstance, InstanceBug

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
    summary = json.loads((out / "summary.json").read_text())
    assert summary["counts_by_step"][0] >= summary["counts_by_step"][-1]
    assert (out / "cleaning_log.csv").read_text().startswith("step,kept_count")
    assert (out / "dev_profiles.json").exists()


def test_train_writes_what_prepare_writes(workdir, tmp_path):
    # out holds prepare then train; trained holds train alone
    _, data, out, _ = workdir
    common = ["--data", str(data), "--boundary", "120", "--out"]
    prepared, trained = tmp_path / "prepared", tmp_path / "trained"
    assert dispatch(["prepare"] + common + [str(prepared)]) == 0
    assert dispatch(["train"] + common + [str(trained), "--topics", "4",
                                          "--lda-iters", "1"]) == 0
    for name in ("summary.json", "cleaning_log.csv", "dev_profiles.json"):
        expected = (prepared / name).read_bytes()
        assert (out / name).read_bytes() == expected, name
        assert (trained / name).read_bytes() == expected, name


def test_train_wrote_model_artifacts(workdir):
    _, _, out, _ = workdir
    for name in ("vocabulary.json", "classifier.json", "topic_model.json",
                 "cost_matrix.json"):
        assert (out / name).exists(), name


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


def test_sweep(workdir):
    _, _, out, args = workdir
    assert dispatch(["sweep"] + args + ["--alphas", "0,1", "--end", "240"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "alpha,accuracy_pct,pct_overdue"
    assert len(lines) == 3


def test_env_var_override(workdir, monkeypatch, capsys):
    _, _, out, args = workdir
    monkeypatch.setenv("TRIAGELAB_POLICY", "rabt")
    assert dispatch(["simulate"] + args + ["--end", "240"]) == 0
    assert "rabt:" in capsys.readouterr().out


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
    text = (bad / "classifier.json").read_text()
    (bad / "classifier.json").write_text(text[: len(text) // 2])
    code = dispatch(["simulate", "--data", str(data), "--boundary", "120",
                     "--out", str(bad), "--end", "240"])
    assert code == 1
    assert "classifier.json" in _one_error_line(capsys)


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
    # report reads only its result files: no corpus and no dev_profiles.json
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
        ("train", ["--topics", "abc"], "--topics 'abc'"),
        ("train", ["--topics", "5-50:0"], "step must be at least 1"),
        ("train", ["--topics", "4", "--lda-iters", "-5"], "LDA iterations"),
        ("train", ["--topics", "4", "--C", "0"], "C must be positive"),
        ("sweep", ["--alphas", "0,x"], "--alphas '0,x'"),
        # 1/(C*n) is 0 for C = inf and overflows to inf for a subnormal C
        ("train", ["--topics", "4", "--C", "inf"], "must be finite and positive"),
        ("train", ["--topics", "4", "--C", "1e-320"], "must be finite and positive"),
    ],
    ids=["topics-abc", "topics-step-0", "lda-iters-negative", "C-zero", "alphas-x",
         "C-inf", "C-subnormal"],
)
def test_malformed_flag_value_is_one_error_line(workdir, tmp_path, capsys,
                                                command, flags, message):
    _, data, out, _ = workdir
    scratch = tmp_path / "out"
    shutil.copytree(out, scratch)  # a failed run must not touch the shared artifacts
    args = ["--data", str(data), "--boundary", "120", "--out", str(scratch)]
    assert dispatch([command] + args + flags) == 1
    assert message in _one_error_line(capsys)


def test_malformed_env_default_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setenv("TRIAGELAB_SEED", "abc")
    assert dispatch(["validate", "x"]) == 1
    assert "TRIAGELAB_SEED" in _one_error_line(capsys)


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


def test_negative_seed_is_one_error_line(workdir, tmp_path, monkeypatch, capsys):
    _, data, _, _ = workdir
    args = ["train", "--data", str(data), "--boundary", "120",
            "--out", str(tmp_path / "out"), "--topics", "4", "--lda-iters", "1"]
    assert dispatch(args + ["--seed", "-1"]) == 1
    assert "seed must be non-negative" in _one_error_line(capsys)
    monkeypatch.setenv("TRIAGELAB_SEED", "-1")
    assert dispatch(args) == 1
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
    ],
    ids=["not-json", "no-bugs", "capacity-nan", "suitability-nan", "cost-infinity"],
)
def test_solve_bad_instance_is_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "instance.json"
    path.write_text(content)
    assert dispatch(["solve", str(path)]) == 1
    _one_error_line(capsys)


def test_solve_pool_deeper_than_the_search_is_one_error_line(tmp_path, capsys):
    bugs = [
        InstanceBug(i, tuple(1.0 if j == i % 3 else 0.5 for j in range(3)),
                    tuple(float(1 + (i * 7 + j) % 3) for j in range(3)))
        for i in range(1100)
    ]
    inst = AssignmentInstance(bugs=bugs, developers=[(d, 40.0) for d in range(3)])
    path = tmp_path / "instance.json"
    path.write_text(inst.to_json())
    assert dispatch(["solve", str(path)]) == 1
    assert "pool of 1100 bugs" in _one_error_line(capsys)


def test_report_repeated_run_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "result_dabt_a0.5.json"
    path.write_text(json.dumps(_result_obj()))
    assert dispatch(["report", "--out", str(tmp_path), str(path), str(path)]) == 1
    assert "dabt_a0.5" in _one_error_line(capsys)


def test_simulate_without_cleaned_training_bug_needs_L(workdir, tmp_path, capsys):
    _, _, out, _ = workdir
    data = tmp_path / "late.jsonl"
    write_jsonl(generate(SMALL)[-5:], data)  # reported after the boundary only
    args = ["--data", str(data), "--boundary", "120", "--out", str(out), "--end", "240"]
    assert dispatch(["simulate"] + args) == 1
    assert "--L" in _one_error_line(capsys)
