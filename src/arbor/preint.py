"""Motion pre-integration with calibration propagation.

Between two keyframes, raw motion samples are folded into a single
pre-integrated delta together with its covariance and its Jacobian with
respect to the calibration parameters.  Per sample the pipeline runs:

1. pre-calibrate       v = f(u, c_bar)            with J_v_u, J_v_c
2. current delta       delta = g(v)               with J_delta_v
3. pre-integrate       D <- D o delta             with J_D_D, J_D_delta
4. covariance          Q <- J_D_D Q J_D_D^T + A Q_u A^T,
                       A = J_D_delta J_delta_v J_v_u
5. calibration chain   J_D_c <- J_D_D J_D_c + J_D_delta J_delta_v J_v_c

Only steps 1-2 are sensor specific; they live in a motion-model object so
the pipeline itself stays generic (composition and the pose retraction come
from :mod:`arbor.manifold`).  The stored delta is re-corrected to first order
for calibration values that moved away from the integration-time guess,
D(c) = D (+) J_D_c (c - c_bar), in one place only: the motion factor's
residual kernel, ``factors._motion``.

High-rate state queries compose the buffer origin pose with the delta
accumulated up to the query time.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CalibrationError,
    ContractError,
    InvalidValueError,
    JoinToleranceError,
    OrderingError,
)
from .manifold import Pose2, pose_compose


@dataclass
class RawMotion:
    """One raw motion sample: timestamp, data vector, and its covariance.

    For a differential drive the data are the two wheel angle increments
    (rad) accumulated since the previous sample.
    """

    t: float
    u: np.ndarray
    q_u: np.ndarray

    def __post_init__(self):
        self.u = np.atleast_1d(np.asarray(self.u, dtype=float))
        self.q_u = np.atleast_2d(np.asarray(self.q_u, dtype=float))
        if not np.all(np.isfinite(self.u)):
            raise InvalidValueError("raw motion data must be finite")
        n = self.u.shape[0]
        if self.q_u.shape != (n, n):
            raise ContractError(f"covariance must be {n}x{n}, got {self.q_u.shape}")


class DiffDriveModel:
    """Differential-drive specialization of the pre-integration pipeline.

    Calibration vector c = (r_left, r_right, separation), all in meters.
    Calibrated data v = (arc length, heading change) so the delta model
    itself is calibration free.
    """

    calib_dim = 3

    def precalibrate(self, u: np.ndarray, c: np.ndarray):
        """v = f(u, c) with Jacobians J_v_u (2x2) and J_v_c (2x3)."""
        c = np.asarray(c, dtype=float)
        if c.shape != (3,):
            raise ContractError(f"diff-drive calibration must have 3 entries, got {c.shape}")
        r_l, r_r, d = c
        if r_l <= 0.0 or r_r <= 0.0 or d <= 0.0:
            raise CalibrationError(f"wheel radii and separation must be positive, got {c}")
        dphi_l, dphi_r = u
        s = 0.5 * (r_l * dphi_l + r_r * dphi_r)
        w = (r_r * dphi_r - r_l * dphi_l) / d
        v = np.array([s, w])
        j_v_u = np.array([[0.5 * r_l, 0.5 * r_r], [-r_l / d, r_r / d]])
        j_v_c = np.array(
            [
                [0.5 * dphi_l, 0.5 * dphi_r, 0.0],
                [-dphi_l / d, dphi_r / d, -w / d],
            ]
        )
        return v, j_v_u, j_v_c

    def compute_delta(self, v: np.ndarray):
        """delta = g(v) under the midpoint-chord motion model, with J_delta_v.

        The chord of the turned arc is traversed at half the heading change,
        which is exact for pure translations and pure rotations.
        """
        s, w = float(v[0]), float(v[1])
        half = 0.5 * w
        c, sn = np.cos(half), np.sin(half)
        delta = Pose2(np.array([s * c, s * sn]), w)
        j_delta_v = np.array([[c, -0.5 * s * sn], [sn, 0.5 * s * c], [0.0, 1.0]])
        return delta, j_delta_v


@dataclass
class PreintEntry:
    """Pipeline state snapshot after integrating one sample."""

    t: float
    u: np.ndarray
    q_u: np.ndarray
    delta_bar: Pose2
    q_delta: np.ndarray
    j_delta_c: np.ndarray


@dataclass
class PreintBuffer:
    """Working set of one pre-integration interval.

    Starts at an origin frame/time with the calibration guess snapshotted
    there; the recursion starts from the identity delta with zero covariance
    and zero calibration Jacobian.  Entries are strictly increasing in time.
    """

    origin_frame: object
    origin_t: float
    c_bar: np.ndarray
    model: DiffDriveModel
    entries: list[PreintEntry] = field(default_factory=list)

    def __post_init__(self):
        self.c_bar = np.asarray(self.c_bar, dtype=float).copy()
        self._times: list[float] = [e.t for e in self.entries]

    @property
    def delta_bar(self) -> Pose2:
        if not self.entries:
            return Pose2.identity()
        return self.entries[-1].delta_bar

    @property
    def q_delta(self) -> np.ndarray:
        if not self.entries:
            return np.zeros((3, 3))
        return self.entries[-1].q_delta

    @property
    def j_delta_c(self) -> np.ndarray:
        if not self.entries:
            return np.zeros((3, self.c_bar.shape[0]))
        return self.entries[-1].j_delta_c


def integrate_step(buf: PreintBuffer, u: RawMotion) -> PreintEntry:
    """Fold one raw sample into the buffer; returns the appended entry."""
    last_t = buf.entries[-1].t if buf.entries else buf.origin_t
    if u.t <= last_t:
        raise OrderingError(f"sample at t={u.t} is not after t={last_t}")

    v, j_v_u, j_v_c = buf.model.precalibrate(u.u, buf.c_bar)
    delta, j_delta_v = buf.model.compute_delta(v)
    delta_bar, j_dd, j_ddelta = pose_compose(buf.delta_bar, delta)

    a = j_ddelta @ j_delta_v @ j_v_u
    q_delta = j_dd @ buf.q_delta @ j_dd.T + a @ u.q_u @ a.T
    q_delta = 0.5 * (q_delta + q_delta.T)
    j_delta_c = j_dd @ buf.j_delta_c + j_ddelta @ j_delta_v @ j_v_c

    entry = PreintEntry(
        t=u.t,
        u=u.u.copy(),
        q_u=u.q_u.copy(),
        delta_bar=delta_bar,
        q_delta=q_delta,
        j_delta_c=j_delta_c,
    )
    buf.entries.append(entry)
    buf._times.append(u.t)
    return entry


def state_at_high_rate(buf: PreintBuffer, x_origin: Pose2, t: float) -> Pose2:
    """Pose at time t: origin boxplus the delta accumulated up to t.

    Holds the last delta beyond the final entry; before the first entry the
    origin pose is returned unchanged.
    """
    if t < buf.origin_t:
        raise OrderingError(f"query t={t} precedes buffer origin t={buf.origin_t}")
    k = bisect.bisect_right(buf._times, t)
    if k == 0:
        return Pose2(x_origin.p.copy(), x_origin.theta)
    out, _, _ = pose_compose(x_origin, buf.entries[k - 1].delta_bar)
    return out


def split_buffer(buf: PreintBuffer, t_split: float, tol: float):
    """Split at the integrated sample nearest t_split (ties go earlier).

    The first part keeps its entries as integrated; the second part
    re-integrates the remaining raw samples from a fresh recursion anchored
    at the split time.  The buffer origin itself is a valid split point,
    yielding an empty first part.
    """
    candidates = [buf.origin_t] + buf._times
    best_idx = 0
    best_gap = abs(candidates[0] - t_split)
    for i, tc in enumerate(candidates[1:], start=1):
        gap = abs(tc - t_split)
        if gap < best_gap - 1e-15:
            best_idx, best_gap = i, gap
    if best_gap > tol:
        raise JoinToleranceError(
            f"no integrated sample within {tol}s of t={t_split} (nearest gap {best_gap:.6g}s)"
        )
    k = best_idx  # number of entries in the first part
    split_t = candidates[best_idx]

    first = PreintBuffer(buf.origin_frame, buf.origin_t, buf.c_bar, buf.model,
                         entries=list(buf.entries[:k]))
    second = PreintBuffer(None, split_t, buf.c_bar, buf.model)
    for entry in buf.entries[k:]:
        integrate_step(second, RawMotion(entry.t, entry.u, entry.q_u))
    return first, second
