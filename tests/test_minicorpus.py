import os
import subprocess
import sys
from pathlib import Path

import pytest

from triagelab.corpus import clean_bugs
from triagelab.minicorpus import (
    EXPERT_IDS,
    GENERALIST_IDS,
    INACTIVE_IDS,
    TOPIC_WORDS,
    MiniCorpusSpec,
    generate,
)


def test_generation_deterministic():
    a = generate(MiniCorpusSpec())
    b = generate(MiniCorpusSpec())
    assert a == b


def test_topic_vocabularies_disjoint():
    seen = set()
    for pool in TOPIC_WORDS:
        assert not (set(pool) & seen)
        seen |= set(pool)


def test_planted_roles_survive_cleaning(mini_records):
    _, summary = clean_bugs(mini_records, boundary_day=365)
    assert summary.active_dev_ids == frozenset(EXPERT_IDS + GENERALIST_IDS)
    assert not summary.active_dev_ids & set(INACTIVE_IDS)
    # the planted outliers and bad-date records actually get filtered
    counts = summary.counts_by_step
    assert counts[0] > counts[1] > counts[-1]


def test_dependency_arcs_present_with_one_cycle(mini_records):
    arcs = [ev for r in mini_records for ev in r.dependency_events]
    assert arcs, "generator must plant blocking arcs"
    pairs = {(r.bug_id, ev[2]) for r in mini_records for ev in r.dependency_events}
    reversed_pairs = {(b, a) for a, b in pairs}
    assert len(pairs & reversed_pairs) == 2  # exactly one planted 2-cycle


def test_sorted_by_report_day(mini_records):
    keys = [(r.reported_at, r.bug_id) for r in mini_records]
    assert keys == sorted(keys)


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_generator_script_refuses_a_bad_seed_with_its_usage_line(tmp_path, seed):
    script = Path(__file__).parent.parent / "scripts" / "generate_minicorpus.py"
    out = tmp_path / "bugs.jsonl"
    run = subprocess.run(
        [sys.executable, str(script), "--seed", seed, "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(script.parent.parent / "src")},
    )
    assert run.returncode == 2
    assert run.stderr.startswith("usage:") and "Traceback" not in run.stderr
    assert "argument --seed" in run.stderr
    assert not out.exists()
