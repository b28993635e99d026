"""Corpus ingestion, cleaning, and train/test splitting.

Bug histories arrive as JSON Lines, one bug per line.  Cleaning applies
four filters in a fixed order: resolved status, active assignee, valid
assignment date, and acceptable fixing time (Q3 + 1.5*IQR outlier cut).
Active developers are the ones whose fix count exceeds the IQR of
per-developer fix counts.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError

VALID_STATUSES = ("FIXED", "CLOSED", "OTHER")
DEP_EVENT_KINDS = ("ADD_BLOCKS", "REMOVE_BLOCKS")

_REQUIRED_FIELDS = (
    "bug_id",
    "summary",
    "description",
    "component",
    "reported_at",
    "status_final",
)


@dataclass(frozen=True)
class BugRecord:
    """One bug's static text plus its timestamped lifecycle facts.

    ``dependency_events`` holds ``(day, kind, other_id)`` tuples; a kind
    of ``ADD_BLOCKS`` on bug ``i`` with other ``j`` means an arc i -> j
    (i blocks j) appears on that day.
    """

    bug_id: int
    summary: str
    description: str
    component: str
    reported_at: int
    assigned_at: int | None = None
    resolved_at: int | None = None
    actual_assignee: int | None = None
    status_final: str = "OTHER"
    dependency_events: tuple = ()

    def __post_init__(self):
        if self.status_final not in VALID_STATUSES:
            raise ValidationError(
                f"bug {self.bug_id}: bad status {self.status_final!r}"
            )
        if self.assigned_at is not None and self.assigned_at < self.reported_at:
            raise ValidationError(
                f"bug {self.bug_id}: assigned before reported"
            )
        for ev in self.dependency_events:
            if len(ev) != 3 or ev[1] not in DEP_EVENT_KINDS:
                raise ValidationError(
                    f"bug {self.bug_id}: bad dependency event {ev!r}"
                )

    @property
    def fixing_time(self) -> int | None:
        """resolved_at - assigned_at + 1, or None if either is missing."""
        if self.assigned_at is None or self.resolved_at is None:
            return None
        return self.resolved_at - self.assigned_at + 1

    @property
    def text(self) -> str:
        return f"{self.summary} {self.description}"


@dataclass(frozen=True)
class DeveloperProfile:
    dev_id: int
    fixed_bug_count: int
    components_experienced: frozenset


@dataclass
class DatasetSummary:
    counts_by_step: list  # [input, step1, step2, step3, step4]
    boundary_day: int | None
    horizon_L: float | None
    max_fix_threshold: float | None
    active_dev_ids: frozenset = field(default_factory=frozenset)

    def to_json(self) -> str:
        return json.dumps(
            {
                "counts_by_step": self.counts_by_step,
                "boundary_day": self.boundary_day,
                "horizon_L": self.horizon_L,
                "max_fix_threshold": self.max_fix_threshold,
                "active_dev_ids": sorted(self.active_dev_ids),
            },
            indent=2,
            sort_keys=True,
        )

    def write_cleaning_log(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "kept_count"])
            for step, count in enumerate(self.counts_by_step):
                writer.writerow([step, count])


def quartiles(sample) -> tuple[float, float]:
    """(Q1, Q3) with linear interpolation between order statistics."""
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise ValidationError("empty sample has no quartiles")
    q1, q3 = np.percentile(arr, [25, 75], method="linear")
    return float(q1), float(q3)


def _int(value, name):
    """An integer field: an int, an integral float or an integral
    numeric string.  Bools, fractions, NaN and infinities are rejected,
    not coerced."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name}: expected an integer, got {value!r}")


def _optional_int(obj, name):
    value = obj.get(name)
    return None if value is None else _int(value, name)


def _record_from_obj(obj, line_no):
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", line_no)
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise ParseError(f"missing field {name!r}", line_no)
    try:
        deps = tuple(
            (_int(day, "event day"), kind, _int(other, "event bug"))
            for day, kind, other in obj.get("dependency_events", [])
        )
        return BugRecord(
            bug_id=_int(obj["bug_id"], "bug_id"),
            summary=str(obj["summary"]),
            description=str(obj["description"]),
            component=str(obj["component"]),
            reported_at=_int(obj["reported_at"], "reported_at"),
            assigned_at=_optional_int(obj, "assigned_at"),
            resolved_at=_optional_int(obj, "resolved_at"),
            actual_assignee=_optional_int(obj, "actual_assignee"),
            status_final=obj.get("status_final", "OTHER"),
            dependency_events=deps,
        )
    except (TypeError, ValueError, ValidationError) as exc:
        raise ParseError(str(exc), line_no) from exc


def load_events(path) -> list[BugRecord]:
    """Load a JSONL bug-history file, sorted by report day.

    Raises ParseError (with the offending line number) on malformed
    lines and ValidationError on duplicate bug ids.
    """
    records = []
    seen = set()
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # \n, \r\n and \r, as text mode reads
    for line_no, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc.reason}", line_no) from exc
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_no) from exc
        except RecursionError as exc:
            raise ParseError("invalid JSON: nested too deeply", line_no) from exc
        record = _record_from_obj(obj, line_no)
        if record.bug_id in seen:
            raise ValidationError(f"duplicate bug_id {record.bug_id}")
        seen.add(record.bug_id)
        records.append(record)
    records.sort(key=lambda r: (r.reported_at, r.bug_id))
    return records


def record_to_obj(record: BugRecord) -> dict:
    obj = {
        "bug_id": record.bug_id,
        "summary": record.summary,
        "description": record.description,
        "component": record.component,
        "reported_at": record.reported_at,
        "status_final": record.status_final,
        "dependency_events": [list(ev) for ev in record.dependency_events],
    }
    for name in ("assigned_at", "resolved_at", "actual_assignee"):
        value = getattr(record, name)
        if value is not None:
            obj[name] = value
    return obj


def active_developers(records) -> frozenset:
    """Ids of the developers whose fix count in ``records`` exceeds the
    IQR of all per-developer fix counts.  With a single developer the
    IQR is 0, so any positive count is active.
    """
    counts = Counter(
        r.actual_assignee for r in records if r.actual_assignee is not None
    )
    if not counts:
        return frozenset()
    q1, q3 = quartiles(list(counts.values()))
    return frozenset(dev for dev, n in counts.items() if n > q3 - q1)


def developer_profiles(records) -> list[DeveloperProfile]:
    """One profile per developer with a fix in ``records``, by dev_id."""
    counts: dict[int, int] = {}
    components: dict[int, set] = {}
    for rec in records:
        dev = rec.actual_assignee
        if dev is None:
            continue
        counts[dev] = counts.get(dev, 0) + 1
        components.setdefault(dev, set()).add(rec.component)
    return [
        DeveloperProfile(
            dev_id=dev,
            fixed_bug_count=n,
            components_experienced=frozenset(components[dev]),
        )
        for dev, n in sorted(counts.items())
    ]


def fixing_time_threshold(fixing_times) -> float:
    """Outlier cut Q3 + 1.5 * IQR over a fixing-time sample."""
    q1, q3 = quartiles(fixing_times)
    return q3 + 1.5 * (q3 - q1)


def clean_bugs(records, boundary_day: int | None = None):
    """Apply the four cleaning filters; returns (kept, DatasetSummary).

    Filters, in order:
      1. status FIXED/CLOSED with a resolution date;
      2. assigned to an active developer, computed from the step-1
         survivors reported up to ``boundary_day`` (all of them when it
         is None);
      3. assignment date present and not after resolution;
      4. fixing time within Q3 + 1.5*IQR of the step-3 survivors.

    With a ``boundary_day`` the summary also carries the horizon L of
    the kept training bugs.
    """
    counts = [len(records)]

    step1 = [
        r
        for r in records
        if r.status_final in ("FIXED", "CLOSED") and r.resolved_at is not None
    ]
    counts.append(len(step1))

    pool = step1
    if boundary_day is not None:
        pool = [r for r in step1 if r.reported_at <= boundary_day]
    active = active_developers(pool)
    step2 = [r for r in step1 if r.actual_assignee in active]
    counts.append(len(step2))

    step3 = [
        r
        for r in step2
        if r.assigned_at is not None and r.assigned_at <= r.resolved_at
    ]
    counts.append(len(step3))

    threshold = None
    if step3:
        threshold = fixing_time_threshold([r.fixing_time for r in step3])
    step4 = [r for r in step3 if r.fixing_time <= threshold]
    counts.append(len(step4))

    horizon = None
    if boundary_day is not None:
        train_times = [
            r.fixing_time for r in step4 if r.reported_at <= boundary_day
        ]
        if train_times:
            horizon = compute_horizon_L(train_times)
    summary = DatasetSummary(
        counts_by_step=counts,
        boundary_day=boundary_day,
        horizon_L=horizon,
        max_fix_threshold=threshold,
        active_dev_ids=active,
    )
    return step4, summary


def split_train_test(records, boundary_day: int):
    """Partition records by report day; the boundary day goes to train."""
    train = [r for r in records if r.reported_at <= boundary_day]
    test = [r for r in records if r.reported_at > boundary_day]
    return train, test


def compute_horizon_L(train_fixing_times) -> float:
    """Project horizon: third quartile of training fixing times."""
    if len(train_fixing_times) == 0:
        raise ValidationError("cannot compute horizon from an empty sample")
    _, q3 = quartiles(train_fixing_times)
    return q3
