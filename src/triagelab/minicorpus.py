"""Synthetic bug-history generator with planted structure.

Builds a small two-year corpus for end-to-end runs: four disjoint
topic vocabularies, two components per topic, four slow "expert"
developers (one per topic, strong text match), four fast generalists
(weak text match, experienced only in the *a* components), plus
inactive developers, cleaning-filter fodder, and a random DAG of
blocking relations with overlapping lifetimes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .corpus import BugRecord, record_to_obj

N_TOPICS = 4
EXPERT_IDS = [1, 2, 3, 4]  # expert of topic i-1
GENERALIST_IDS = [5, 6, 7, 8]
INACTIVE_IDS = [101, 102, 103, 104, 105, 106, 107, 108]

TOPIC_WORDS = [
    ["render", "pixel", "canvas", "glyph", "font", "redraw", "viewport",
     "scroll", "paint", "cursor", "layout", "sprite"],
    ["socket", "timeout", "packet", "proxy", "handshake", "latency",
     "stream", "buffer", "retry", "gateway", "session", "endpoint"],
    ["parser", "token", "syntax", "grammar", "literal", "bracket",
     "indent", "escape", "quote", "lexer", "newline", "whitespace"],
    ["index", "query", "cache", "shard", "commit", "rollback", "vacuum",
     "ledger", "snapshot", "compact", "tablespace", "replica"],
]
FILLER_WORDS = [
    "issue", "report", "user", "click", "window", "version", "build",
    "update", "error", "crash", "wrong", "slow",
]


@dataclass
class MiniCorpusSpec:
    seed: int = 7
    boundary_day: int = 365
    end_day: int = 730
    train_start: int = 1
    train_stop: int = 350
    test_start: int = 366
    test_stop: int = 700
    expert_own_fixes: int = 26
    expert_off_fixes: int = 4
    generalist_fixes_per_topic: int = 7
    inactive_fixes: int = 11
    test_rate_per_topic: float = 0.15
    blocked_fraction: float = 0.18


def _topic_words(rng, topic, n, topic_share=0.85):
    words = []
    pool = TOPIC_WORDS[topic]
    for _ in range(n):
        if rng.random() < topic_share:
            words.append(pool[rng.integers(len(pool))])
        else:
            words.append(FILLER_WORDS[rng.integers(len(FILLER_WORDS))])
    return words


def _make_text(rng, topic, topic_share=0.85):
    summary = " ".join(_topic_words(rng, topic, int(rng.integers(4, 7)), topic_share))
    description = " ".join(
        _topic_words(rng, topic, int(rng.integers(10, 18)), topic_share)
    )
    return summary, description


def _component(rng, topic, a_only=False):
    suffix = "a" if (a_only or rng.random() < 0.5) else "b"
    return f"comp{topic}{suffix}"


def _expert_fix_days(rng) -> int:
    # Bimodal so the training Q3 (the capacity horizon) sits above the
    # expert mean and experts stay assignable under capacity.
    return int(rng.integers(6, 9)) if rng.random() < 0.5 else int(rng.integers(10, 15))


def _generalist_fix_days(rng) -> int:
    return int(rng.integers(2, 5))


def generate(spec: MiniCorpusSpec | None = None) -> list[BugRecord]:
    spec = spec or MiniCorpusSpec()
    rng = np.random.default_rng(spec.seed)
    records = []
    next_id = 1000

    def add(topic, component, reported, assignee, fix_days, status="FIXED",
            assigned_gap=None, topic_share=0.85, resolved_override=None):
        nonlocal next_id
        bug_id = next_id
        next_id += 1
        reported = int(reported)
        if assignee is not None:
            assignee = int(assignee)
        summary, description = _make_text(rng, topic, topic_share)
        assigned_at = resolved_at = None
        if assignee is not None:
            gap = int(rng.integers(0, 3)) if assigned_gap is None else assigned_gap
            assigned_at = reported + gap
            resolved_at = (
                assigned_at + fix_days - 1
                if resolved_override is None
                else resolved_override
            )
        records.append(
            BugRecord(
                bug_id=bug_id,
                summary=summary,
                description=description,
                component=component,
                reported_at=int(reported),
                assigned_at=assigned_at,
                resolved_at=resolved_at,
                actual_assignee=assignee,
                status_final=status,
            )
        )
        return records[-1]

    # --- training phase ------------------------------------------------
    train_days = np.arange(spec.train_start, spec.train_stop)
    for t, expert in enumerate(EXPERT_IDS):
        for _ in range(spec.expert_own_fixes):
            add(t, _component(rng, t), rng.choice(train_days), expert,
                _expert_fix_days(rng))
        # a little cross-topic history in every component, so expert
        # experience covers the whole component space and the cost
        # matrix has observed cells off the diagonal
        for other in range(N_TOPICS):
            if other == t:
                continue
            for suffix in ("a", "b"):
                add(other, f"comp{other}{suffix}", rng.choice(train_days),
                    expert, _expert_fix_days(rng) + 2)
    for g, generalist in enumerate(GENERALIST_IDS):
        for t in range(N_TOPICS):
            for _ in range(spec.generalist_fixes_per_topic):
                # generalists only ever touch the *a* components and
                # their reports read vaguer (more filler words)
                add(t, f"comp{t}a", rng.choice(train_days), generalist,
                    _generalist_fix_days(rng), topic_share=0.55)
    for dev in INACTIVE_IDS:
        for _ in range(spec.inactive_fixes):
            t = int(rng.integers(N_TOPICS))
            add(t, _component(rng, t), rng.choice(train_days), dev,
                int(rng.integers(2, 15)))

    # cleaning-filter fodder: unresolved/OTHER, bad assignment dates,
    # and fixing-time outliers
    for _ in range(12):
        t = int(rng.integers(N_TOPICS))
        add(t, _component(rng, t), rng.choice(train_days), None, 0,
            status="OTHER")
    for _ in range(3):
        t = int(rng.integers(N_TOPICS))
        day = int(rng.choice(train_days))
        add(t, _component(rng, t), day, int(rng.choice(EXPERT_IDS)), 5,
            assigned_gap=10, resolved_override=day + 2)  # assigned after resolution
    for _ in range(4):
        t = int(rng.integers(N_TOPICS))
        add(t, _component(rng, t), rng.choice(train_days),
            int(rng.choice(EXPERT_IDS)), 200)

    # --- testing phase -------------------------------------------------
    test_bugs = []
    for day in range(spec.test_start, spec.test_stop):
        for t in range(N_TOPICS):
            if rng.random() >= spec.test_rate_per_topic:
                continue
            if rng.random() < 0.8:
                assignee = EXPERT_IDS[t]
                fix_days = _expert_fix_days(rng)
                component = _component(rng, t)
            else:
                assignee = int(rng.choice(GENERALIST_IDS))
                fix_days = _generalist_fix_days(rng)
                component = f"comp{t}a"
            rec = add(t, component, day, assignee, fix_days, assigned_gap=0)
            test_bugs.append(rec)

    # --- dependency arcs ------------------------------------------------
    # A blocked child gets a parent reported earlier whose historical
    # lifetime overlaps the child's report day, so the child is blocked
    # at report time in the replayed world too.
    by_id = {r.bug_id: r for r in records}
    arc_events: dict[int, list] = {}
    for child in test_bugs:
        if rng.random() >= spec.blocked_fraction:
            continue
        candidates = [
            r
            for r in records
            if r.bug_id != child.bug_id
            and r.reported_at < child.reported_at
            and child.reported_at - r.reported_at < 40
            and (r.resolved_at is None or r.resolved_at >= child.reported_at + 2)
        ]
        if not candidates:
            continue
        parent = candidates[int(rng.integers(len(candidates)))]
        arc_events.setdefault(parent.bug_id, []).append(
            (child.reported_at, "ADD_BLOCKS", child.bug_id)
        )
    # one noisy reverse arc; the graph must drop it as a cycle
    if test_bugs:
        for parent_id, events in arc_events.items():
            day, _, child_id = events[0]
            arc_events.setdefault(child_id, []).append(
                (day + 1, "ADD_BLOCKS", parent_id)
            )
            break

    out = []
    for rec in records:
        events = tuple(sorted(arc_events.get(rec.bug_id, ())))
        if events:
            rec = replace(rec, dependency_events=events)
        out.append(rec)
    out.sort(key=lambda r: (r.reported_at, r.bug_id))
    return out


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_obj(rec), sort_keys=True) + "\n")
