"""Residual and Jacobian evaluation for every factor kind.

A factor pins a measurement ``z`` with square-root information ``U``
(upper-triangular, ``U^T U = Q^-1``) to an ordered list of constrained state
blocks.  Residuals are whitened: ``r = U * error``.  Analytic Jacobians come
back with them, always, one column group per constrained block, in order.

Factors are evaluated only in stacks: all factors of one kind over blocks of
the same sizes are the rows of a :class:`FactorStack`, and one numpy kernel
per kind evaluates every row at once.  There is no one-factor path.

The motion factor implements the self-calibrating pre-integration residual.
Its ``z`` is the pre-integrated delta; its :class:`MotionData` holds the
delta's calibration Jacobian ``j_delta_c`` and the calibration guess
``c_bar`` it was integrated with.  The kernel re-corrects the delta to first
order for the current calibration, D(c) = z (+) j_delta_c (c - c_bar), then
compares it against the relative pose of the two frames it links.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DecompositionError, SingularObservationError
from .manifold import ANGLE, wrap_angles

MOTION = "motion"
RANGE_BEARING = "range_bearing"
PRIOR_POSE = "prior_pose"
PRIOR_BLOCK = "prior_block"
RELATIVE_POSE = "relative_pose"

FACTOR_KINDS = (MOTION, RANGE_BEARING, PRIOR_POSE, PRIOR_BLOCK, RELATIVE_POSE)


@dataclass
class MotionData:
    """Calibration terms of a motion factor; the delta itself is ``Factor.z``."""

    j_delta_c: np.ndarray
    c_bar: np.ndarray


@dataclass
class Factor:
    """Measurement residual description bound to the blocks it constrains.

    ``constrained`` lists (node id, block name) pairs whose order fixes the
    order of the block values a kernel reads and of the Jacobian's column
    groups.
    """

    kind: str
    z: np.ndarray
    sqrt_info: np.ndarray
    constrained: list
    aux: Optional[MotionData] = None

    def __post_init__(self):
        if self.kind not in FACTOR_KINDS:
            raise ContractError(f"unknown factor kind {self.kind!r}")
        self.z = np.atleast_1d(np.asarray(self.z, dtype=float))
        self.sqrt_info = np.atleast_2d(np.asarray(self.sqrt_info, dtype=float))
        u = self.sqrt_info
        if u.shape[0] != u.shape[1]:
            raise ContractError("sqrt_info must be square")
        if not (np.isfinite(self.z).all() and np.isfinite(u).all()):
            raise ContractError("z and sqrt_info must be finite")
        if u[_strictly_lower(len(u))].any():
            raise ContractError("sqrt_info must be upper triangular")
        if (u.diagonal() <= 0.0).any():
            raise ContractError("sqrt_info must have a positive diagonal")


@lru_cache(maxsize=None)
def _strictly_lower(n: int):
    """Row and column indices of an n x n matrix's strictly lower triangle."""
    return np.tril_indices(n, -1)


def whiten(q: np.ndarray) -> np.ndarray:
    """Upper-triangular U with U^T U = Q^-1 (square-root information)."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if q.shape[0] != q.shape[1]:
        raise ContractError(f"covariance must be square, got {q.shape}")
    scale = float(np.abs(q).max())
    if not scale < np.inf:  # inf, or NaN, which the max carries
        raise DecompositionError("covariance is not finite")
    # np.allclose costs more than the inverse and the factor together
    if not np.abs(q - q.T).max() <= 1e-9 * max(1.0, scale):
        raise DecompositionError("covariance is not symmetric")
    try:
        inv = np.linalg.inv(q)
        u = np.linalg.cholesky(0.5 * (inv + inv.T)).T
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"covariance is singular or indefinite: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise DecompositionError("covariance is numerically singular")
    return u


class FactorStack:
    """Factors of one kind over blocks of the same sizes, one row each.

    Rows hold the measurement ``z`` (a pose or delta heading wrapped into
    (-pi, pi]), the square-root information and, for motion factors, the
    calibration Jacobian and guess.  ``slots[i]`` lists the rows of the value
    table (see :func:`evaluate`) holding factor ``i``'s blocks, in
    constrained order; ``ids`` tags rows so they can be dropped by tag.
    """

    def __init__(self, kind: str, dims, kinds, factors: Sequence[Factor], slots, ids):
        self.kind = kind
        self.dims = tuple(dims)
        self.kinds = tuple(kinds)
        rows = self._rows(factors, slots, ids)
        for name, value in rows.items():
            setattr(self, name, value)
        self._fields = tuple(rows)

    @property
    def n(self) -> int:
        return len(self.ids)

    def _rows(self, factors, slots, ids) -> dict:
        rows = {
            "z": np.array([f.z for f in factors]),
            "sqrt_info": np.array([f.sqrt_info for f in factors]),
            "slots": np.asarray(slots, dtype=np.intp).reshape(len(factors), len(self.dims)),
            "ids": np.asarray(ids, dtype=np.int64),
        }
        if self.kind in (PRIOR_POSE, RELATIVE_POSE):
            rows["z"][:, 2] = wrap_angles(rows["z"][:, 2])
        if self.kind == MOTION:
            rows["j_delta_c"] = np.array([f.aux.j_delta_c for f in factors])
            rows["c_bar"] = np.array([f.aux.c_bar for f in factors])
        return rows

    def extend(self, factors: Sequence[Factor], slots, ids) -> None:
        """Append one row per factor."""
        for name, rows in self._rows(factors, slots, ids).items():
            setattr(self, name, np.concatenate([getattr(self, name), rows]))

    def drop(self, ids) -> None:
        """Remove the rows tagged with any of ``ids``."""
        # a plain comparison table: np.isin costs more on a few dozen rows
        keep = (self.ids[:, None] != np.asarray(ids)).all(axis=1)
        for name in self._fields:
            setattr(self, name, getattr(self, name)[keep])


def _whitened(u: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nj->ni", u, e)


def _pose_between(pi, ti, pj, tj):
    """Row-wise ``manifold.between``: deltas (n, 3) and d(delta)/d[xi | xj]
    (n, 3, 6)."""
    c, s = np.cos(ti), np.sin(ti)
    dx, dy = pj[:, 0] - pi[:, 0], pj[:, 1] - pi[:, 1]
    d = np.empty((len(c), 3))
    d[:, 0] = c * dx + s * dy
    d[:, 1] = -s * dx + c * dy
    d[:, 2] = wrap_angles(tj - ti)
    zero, one = np.zeros_like(c), np.ones_like(c)
    j = np.array([
        # columns: xi (3), xj (3)
        [-c, -s, -s * dx + c * dy, c, s, zero],
        [s, -c, -c * dx - s * dy, -s, c, zero],
        [zero, zero, -one, zero, zero, one],
    ]).transpose(2, 0, 1)
    return d, j


def _motion(stack: FactorStack, v: np.ndarray):
    """Self-calibrated motion residual between consecutive frames.

    r = U * (D(c) (-) (xj boxminus xi)) with D(c) = z (+) J (c - c_bar) the
    calibration-corrected pre-integrated delta.  Jacobian columns: xi.p,
    xi.o, xj.p, xj.o, c.
    """
    b, j_b = _pose_between(v[:, 0, :2], v[:, 1, 0], v[:, 2, :2], v[:, 3, 0])
    c = v[:, 4, :stack.dims[4]]
    t = np.einsum("nij,nj->ni", stack.j_delta_c, c - stack.c_bar)
    d = stack.z
    e = np.empty_like(b)
    e[:, :2] = d[:, :2] + t[:, :2] - b[:, :2]
    e[:, 2] = wrap_angles(wrap_angles(d[:, 2] + t[:, 2]) - b[:, 2])
    r = _whitened(stack.sqrt_info, e)
    return r, stack.sqrt_info @ np.concatenate([-j_b, stack.j_delta_c], axis=2)


def _range_bearing(stack: FactorStack, v: np.ndarray):
    """Range-bearing of a landmark from a pose through the sensor extrinsics.

    Jacobian columns: x.p, x.o, ext.p, ext.o, landmark.
    """
    px, py, th = v[:, 0, 0], v[:, 0, 1], v[:, 1, 0]
    ex, ey, eth = v[:, 2, 0], v[:, 2, 1], v[:, 3, 0]
    cx, sx = np.cos(th), np.sin(th)
    qx = v[:, 4, 0] - (px + cx * ex - sx * ey)
    qy = v[:, 4, 1] - (py + sx * ex + cx * ey)
    st = th + eth
    cs, ss = np.cos(st), np.sin(st)
    lsx = cs * qx + ss * qy
    lsy = -ss * qx + cs * qy
    rho = np.hypot(lsx, lsy)
    if np.any(rho < 1e-9):
        raise SingularObservationError("landmark coincides with the sensor origin")
    z = stack.z
    e = np.array([z[:, 0] - rho, wrap_angles(z[:, 1] - np.arctan2(lsy, lsx))]).T
    r = _whitened(stack.sqrt_info, e)

    rho2 = rho * rho
    # dh/d(sensor pose): the range ignores heading, the bearing tracks it 1:1
    a0, a1 = -qx / rho, -qy / rho
    b0, b1 = (lsy * cs + lsx * ss) / rho2, (lsy * ss - lsx * cs) / rho2
    # derivative through the extrinsic lever arm and its rotation
    lever0, lever1 = -sx * ex - cx * ey, cx * ex - sx * ey
    zero, one = np.zeros_like(rho), np.ones_like(rho)
    dh = np.array([
        # columns: x.p, x.o, ext.p, ext.o, landmark
        [a0, a1, a0 * lever0 + a1 * lever1, a0 * cx + a1 * sx,
         -a0 * sx + a1 * cx, zero, -a0, -a1],
        [b0, b1, -one + b0 * lever0 + b1 * lever1, b0 * cx + b1 * sx,
         -b0 * sx + b1 * cx, -one, -b0, -b1],
    ]).transpose(2, 0, 1)
    return r, -stack.sqrt_info @ dh


def _prior_pose(stack: FactorStack, v: np.ndarray):
    """Unary pose prior: r = U * (x boxminus z).  Jacobian columns: x.p, x.o."""
    z = stack.z
    d, j = _pose_between(z[:, :2], z[:, 2], v[:, 0, :2], v[:, 1, 0])
    return _whitened(stack.sqrt_info, d), stack.sqrt_info @ j[:, :, 3:]


def _prior_block(stack: FactorStack, v: np.ndarray):
    """Unary block prior: r = U * (x - z), wrapped for an angle block."""
    e = v[:, 0, :stack.dims[0]] - stack.z
    if stack.kinds[0] == ANGLE:
        e[:, 0] = wrap_angles(e[:, 0])
    return _whitened(stack.sqrt_info, e), stack.sqrt_info.copy()


def _relative_pose(stack: FactorStack, v: np.ndarray):
    """Binary relative-pose constraint, e.g. from a loop closure.

    r = U * (z (-) (xj boxminus xi)).  Jacobian columns: xi.p, xi.o,
    xj.p, xj.o.
    """
    b, j_b = _pose_between(v[:, 0, :2], v[:, 1, 0], v[:, 2, :2], v[:, 3, 0])
    z = stack.z
    e = np.empty_like(b)
    e[:, :2] = z[:, :2] - b[:, :2]
    e[:, 2] = wrap_angles(z[:, 2] - b[:, 2])
    return _whitened(stack.sqrt_info, e), -stack.sqrt_info @ j_b


# one kernel per factor kind: (stack, gathered block values) -> (r, J)
_KERNELS = {
    MOTION: _motion,
    RANGE_BEARING: _range_bearing,
    PRIOR_POSE: _prior_pose,
    PRIOR_BLOCK: _prior_block,
    RELATIVE_POSE: _relative_pose,
}


def evaluate(stack: FactorStack, x: np.ndarray):
    """Evaluate every row of a stack on the value table ``x``.

    ``x`` holds one block per row, left-aligned and zero-padded to the
    widest block.  Returns the whitened residuals (n, m) and the Jacobians
    (n, m, sum(dims)), whose columns follow the constrained blocks in order.
    """
    return _KERNELS[stack.kind](stack, x[stack.slots])
