"""Independent optimum of a daily assignment instance with scipy's MILP.

x[i, j] = 1 assigns bug i to developer j.  Each bug goes to at most one
developer, each developer's cost stays within capacity and, for DABT,
x[child, j] <= x[parent, j] for every precedence arc.  The objective
coefficients are computed here from the raw rows, not by the solver.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
import warnings

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


def coefficients(instance, variant: str) -> np.ndarray:
    s = np.array([b.s for b in instance.bugs], dtype=float)
    if variant == "RABT":
        return s
    c = np.array([b.c for b in instance.bugs], dtype=float)
    a = instance.alpha
    return a * s / s.max(axis=1, keepdims=True) + (1 - a) * c.min(axis=1, keepdims=True) / c


def optimum(instance, variant: str) -> float:
    n, D = len(instance.bugs), len(instance.developers)
    if n == 0 or D == 0:
        return 0.0
    coef = coefficients(instance, variant)
    cost = np.array([b.c for b in instance.bugs], dtype=float)
    caps = np.array([cap for _, cap in instance.developers], dtype=float)
    rows, upper = [], []
    for i in range(n):
        row = np.zeros((n, D))
        row[i, :] = 1.0
        rows.append(row.ravel())
        upper.append(1.0)
    for j in range(D):
        row = np.zeros((n, D))
        row[:, j] = cost[:, j]
        rows.append(row.ravel())
        upper.append(caps[j])
    if variant == "DABT":
        pos = {b.bug_id: i for i, b in enumerate(instance.bugs)}
        for parent, child in instance.precedence:
            for j in range(D):
                row = np.zeros((n, D))
                row[pos[child], j] = 1.0
                row[pos[parent], j] = -1.0
                rows.append(row.ravel())
                upper.append(0.0)
    # By default HiGHS stops at an absolute gap of 1e-6 and accepts
    # feasibility errors of 1e-7, more than the gaps between the near-zero
    # suitabilities of replay-shaped pools.  scipy passes these options
    # through to HiGHS with a warning that they are not its own.
    with _quiet_stdout(), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(
            -coef.ravel(),
            constraints=LinearConstraint(np.array(rows), -np.inf, np.array(upper)),
            integrality=np.ones(n * D),
            bounds=Bounds(0, 1),
            options={
                "mip_rel_gap": 0.0, "mip_abs_gap": 0.0,
                "mip_feasibility_tolerance": 1e-10,
                "primal_feasibility_tolerance": 1e-10,
                "dual_feasibility_tolerance": 1e-10,
            },
        )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    x = np.round(res.x).reshape(n, D)
    return float((coef * x).sum())


def assignment_value(instance, assignments, variant: str) -> float:
    coef = coefficients(instance, variant)
    bug_pos = {b.bug_id: i for i, b in enumerate(instance.bugs)}
    dev_pos = {d: j for j, (d, _) in enumerate(instance.developers)}
    return float(sum(coef[bug_pos[b], dev_pos[d]] for b, d in assignments))


@contextlib.contextmanager
def _quiet_stdout():
    """HiGHS prints progress notes to file descriptor 1 from C; keep them
    off the benchmark's standard output, whose last line is the result."""
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    try:
        yield
    finally:
        ctypes.CDLL(None).fflush(None)
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)
