"""Run-level metric reports and policy comparison tables.

Every number is a pure function of the persisted run logs, so
recomputing a report from disk reproduces it exactly.  Percentages use
all test bugs that entered the policy as the denominator; accuracy and
infeasibility use the assignments.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class MetricsReport:
    policy: str
    alpha: float
    n_assigned: int
    n_unassigned: int
    n_assigned_developers: int
    task_mean: float
    task_std: float
    mean_fixing_days: float
    pct_overdue: float
    pct_unfixed: float
    accuracy_pct: float
    pct_infeasible_assignments: float
    mean_bdg_depth: float
    mean_bdg_degree: float

    def to_json(self) -> str:
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, sort_keys=True)


def compute_report(result) -> MetricsReport:
    """Table-style metric vector for one finished policy run (a
    SimResult).  Accuracy counts the log's ``accurate`` flags, which the
    replay set from the assignee's training-phase component experience.
    """
    log = result.log
    total = result.total_entering
    n_assigned = len(log)
    n_unassigned = total - n_assigned
    horizon = result.config.horizon_L

    per_dev: dict[int, int] = {}
    for entry in log:
        per_dev[entry["dev_id"]] = per_dev.get(entry["dev_id"], 0) + 1
    counts = list(per_dev.values())
    task_mean = float(np.mean(counts)) if counts else 0.0
    task_std = float(np.std(counts)) if counts else 0.0

    durations = [math.ceil(e["estimated_cost"]) for e in log]
    mean_fixing = float(np.mean(durations)) if durations else 0.0

    overdue = sum(
        1
        for e in log
        if e["completion_day"] is None
        or e["completion_day"] - e["reported_day"] > horizon
    )
    overdue += n_unassigned  # never assigned means never completed
    unfixed = sum(1 for e in log if e["completion_day"] is None) + n_unassigned

    accurate = sum(1 for e in log if e["accurate"])
    infeasible = sum(1 for e in log if e["infeasible"])

    depths = [d["mean_depth"] for d in result.daily]
    degrees = [d["mean_degree"] for d in result.daily]

    return MetricsReport(
        policy=result.config.policy,
        alpha=result.config.alpha,
        n_assigned=n_assigned,
        n_unassigned=n_unassigned,
        n_assigned_developers=len(per_dev),
        task_mean=task_mean,
        task_std=task_std,
        mean_fixing_days=mean_fixing,
        pct_overdue=100.0 * overdue / total if total else 0.0,
        pct_unfixed=100.0 * unfixed / total if total else 0.0,
        accuracy_pct=100.0 * accurate / n_assigned if n_assigned else 0.0,
        pct_infeasible_assignments=(
            100.0 * infeasible / n_assigned if n_assigned else 0.0
        ),
        mean_bdg_depth=float(np.mean(depths)) if depths else 0.0,
        mean_bdg_degree=float(np.mean(degrees)) if degrees else 0.0,
    )


# metric -> (label, better-is-lower)
_ROWS = [
    ("n_assigned", "# assigned bugs", False),
    ("n_unassigned", "# un-assigned bugs", True),
    ("n_assigned_developers", "# assigned developers", False),
    ("task_mean", "tasks per developer (mean)", True),
    ("task_std", "tasks per developer (std)", True),
    ("mean_fixing_days", "mean fixing days per bug", True),
    ("pct_overdue", "% overdue bugs", True),
    ("pct_unfixed", "% un-fixed bugs", True),
    ("accuracy_pct", "% accurate assignments", False),
    ("pct_infeasible_assignments", "% infeasible assignments", True),
    ("mean_bdg_depth", "mean BDG depth", True),
    ("mean_bdg_degree", "mean BDG degree", True),
]


def run_tag(policy, alpha) -> str:
    """``<policy>_a<alpha>``, the tag of a run's files.  ``alpha`` is
    written in ``:g`` form (``a0.5``, ``a0``, ``a1``) when that reads back
    as ``alpha``, else as its repr, so distinct alphas get distinct tags."""
    short = f"{alpha:g}"
    return f"{policy}_a{short if float(short) == alpha else repr(float(alpha))}"


def _column_labels(reports) -> list[str]:
    """The policy names when they differ; otherwise each run's tag."""
    names = [r.policy for r in reports]
    if len(set(names)) == len(names):
        return names
    names = [run_tag(r.policy, r.alpha) for r in reports]
    for name in names:
        if names.count(name) > 1:
            raise ValidationError(f"two results are both {name}; compare distinct runs")
    return names


def compare_policies(reports) -> tuple[str, str]:
    """(csv_text, aligned_text) comparison; unique best per row gets *."""
    reports = list(reports)
    names = _column_labels(reports)
    csv_buf = io.StringIO()
    csv_buf.write("metric," + ",".join(names) + "\n")
    lines = []
    width = max(len(label) for _, label, _ in _ROWS) + 2
    lines.append(" " * width + "  ".join(f"{n:>12}" for n in names))
    for attr, label, lower_better in _ROWS:
        values = [getattr(r, attr) for r in reports]
        best = min(values) if lower_better else max(values)
        flags = [
            "*" if v == best and values.count(best) == 1 else " " for v in values
        ]
        csv_buf.write(label.replace(",", ";") + "," + ",".join(f"{v:.4g}" for v in values) + "\n")
        lines.append(
            f"{label:<{width}}"
            + "  ".join(
                f"{v:>11.4g}{f}" for v, f in zip(values, flags)
            )
        )
    return csv_buf.getvalue(), "\n".join(lines)

