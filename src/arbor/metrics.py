"""Trajectory and calibration accuracy metrics."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import as_numbers
from .errors import ConfigError, ContractError, RecordFormatError
from .sim import TRUTH_SENSOR

TIME_MATCH_TOL = 1e-6


@dataclass
class MetricsReport:
    ate_rmse: float
    calib_abs: Optional[list]
    calib_rel: Optional[list]
    final_cost: Optional[float]
    keyframes: int
    wall_time: float


def truth_values(record, n: int, bound=None) -> list:
    """A truth record's data as :func:`checks.as_numbers` reads ``n`` numbers;
    anything else is a RecordFormatError naming the record."""
    try:
        return as_numbers("data", record.data, n, bound)
    except ConfigError as exc:
        raise RecordFormatError(f"bad {record.sensor} record at t={record.t}: {exc}") from None


def compute_ate(estimates, truth_records) -> float:
    """Root-mean-square position error over keyframes, gauge left absolute.

    ``estimates`` is a list of (t, x, y) tuples (heading ignored); every
    timestamp must have a ground-truth pose (x, y, theta) within 1e-6 s.
    """
    poses = sorted((r for r in truth_records if r.sensor == TRUTH_SENSOR), key=lambda r: r.t)
    times = [r.t for r in poses]
    if not estimates:
        raise RecordFormatError("no estimates to score")
    sq_sum = 0.0
    for t, x, y in estimates:
        i = bisect.bisect_left(times, t - TIME_MATCH_TOL)
        if i >= len(times) or abs(times[i] - t) > TIME_MATCH_TOL:
            raise RecordFormatError(f"no ground-truth pose within 1e-6s of t={t}")
        gx, gy, _ = truth_values(poses[i], 3)
        sq_sum += (x - gx) ** 2 + (y - gy) ** 2
    return float(np.sqrt(sq_sum / len(estimates)))


def compute_calib_error(c_est, c_true):
    """Per-component absolute and relative calibration errors."""
    c_est = np.asarray(c_est, dtype=float)
    c_true = np.asarray(c_true, dtype=float)
    if c_est.shape != c_true.shape:
        raise ContractError(
            f"calibration dims disagree: {c_est.shape} vs {c_true.shape}"
        )
    abs_err = np.abs(c_est - c_true)
    rel_err = abs_err / np.abs(c_true)
    return abs_err, rel_err
