"""Residual and Jacobian evaluation for every factor kind.

A factor pins a measurement ``z`` with square-root information ``U``
(upper-triangular, ``U^T U = Q^-1``) to an ordered list of constrained state
blocks.  Residuals are whitened: ``r = U * error``.  Analytic Jacobians come
back with them, always, one column group per constrained block, in order,
less the sensor-calibration blocks (a range-bearing extrinsic, a motion
intrinsic) when no row of the stack can move them: like a constant
parameter block in Ceres, a fixed calibration gets no Jacobian columns.

Factors are evaluated only in stacks: all factors of one kind over blocks of
the same sizes are the rows of a :class:`FactorStack`, and one numpy kernel
per kind evaluates every row at once.  There is no one-factor path.

Kernels work on contiguous operands.  :func:`evaluate` gathers a stack's
block values with one flat take into a (D, n) array whose rows follow the
blocks' components (for range-bearing: px, py, theta, ex, ey, e_theta, lx,
ly), so each value a kernel reads is one contiguous row.  Kernels fill each
Jacobian in place as (row, column, factor), so each entry is one contiguous
write, and hand it back once as a C-contiguous (n, m, k) array.  Numpy's
gathers, ufuncs and batched ``matmul`` take their slow paths on strided or
transposed views, and this step is the hottest of a solve.

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

# positions of the sensor-calibration blocks among a factor's constrained
# blocks: the range-bearing extrinsic (ext.p, ext.o) and the motion intrinsic
CALIBRATION_BLOCKS = {RANGE_BEARING: (2, 3), MOTION: (4,)}


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

    ``with_calibration`` says whether the kernel computes the Jacobian
    columns of the calibration blocks (:data:`CALIBRATION_BLOCKS`).  A new
    stack computes them; the solver drops them while no row can move them.
    """

    def __init__(self, kind: str, dims, kinds, factors: Sequence[Factor], slots, ids):
        self.kind = kind
        self.dims = tuple(dims)
        self.kinds = tuple(kinds)
        self.with_calibration = True
        rows = self._rows(factors, slots, ids)
        for name, value in rows.items():
            setattr(self, name, value)
        self._fields = tuple(rows)
        self._take_width = None  # the table width ``_take`` was built for

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def jacobian_blocks(self) -> tuple:
        """Positions of the blocks that J has column groups for, in order."""
        every = range(len(self.dims))
        if self.with_calibration:
            return tuple(every)
        return tuple(b for b in every if b not in CALIBRATION_BLOCKS.get(self.kind, ()))

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
        self._take_width = None

    def drop(self, ids) -> None:
        """Remove the rows tagged with any of ``ids``."""
        # a plain comparison table: np.isin costs more on a few dozen rows
        keep = (self.ids[:, None] != np.asarray(ids)).all(axis=1)
        for name in self._fields:
            setattr(self, name, getattr(self, name)[keep])
        self._take_width = None

    def take(self, width: int) -> np.ndarray:
        """Flat indices into a value table ``width`` columns wide that gather
        the stack's block values as (D, n), one row per block component.

        Cached until the rows change or the table has another width.
        """
        if self._take_width != width:
            block_of_col, within = _layout(self.dims, tuple(range(len(self.dims))))
            self._take = self.slots.T[block_of_col] * width + within[:, None]
            self._take_width = width
        return self._take


@lru_cache(maxsize=None)
def _layout(dims: tuple, blocks: tuple):
    """Per column over the blocks at positions ``blocks`` of a stack whose
    blocks have sizes ``dims``: its block's position, and its component
    within the block."""
    return (np.repeat(blocks, [dims[b] for b in blocks]),
            np.concatenate([np.arange(dims[b]) for b in blocks]))


def _whitened(u: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nj->ni", u, e)


def _by_factor(jt: np.ndarray) -> np.ndarray:
    """A Jacobian filled as (row, column, factor), which keeps each entry's
    writes contiguous, as the C-contiguous (factor, row, column) array that
    batched ``matmul`` takes its fast path on."""
    return jt.transpose(2, 0, 1).copy()


# the constant heading row of -d(delta)/d[a | b], broadcast over the factors
_BETWEEN_LAST_ROW = np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0])[:, None]
# the ext.o column of -dh: the range ignores it, the bearing falls by it 1:1
_RB_EXT_O = np.array([0.0, 1.0])[:, None]


def _pose_between(a, b, jt=None):
    """Row-wise ``manifold.between`` of poses given as rows x, y, theta, each
    (n,): the deltas (n, 3).  Given ``jt`` (3, >= 6, n), also writes the
    negated Jacobian -d(delta)/d[a | b] into its first six columns."""
    c, s = np.cos(a[2]), np.sin(a[2])
    dx, dy = b[0] - a[0], b[1] - a[1]
    d = np.empty((len(c), 3))
    d[:, 0] = c * dx + s * dy
    d[:, 1] = -s * dx + c * dy
    d[:, 2] = wrap_angles(b[2] - a[2])
    if jt is not None:
        # d(delta)/da's last column is (d_y, -d_x, -1)
        jt[2, :6] = _BETWEEN_LAST_ROW
        jt[0, 0] = jt[1, 1] = c
        jt[0, 1] = jt[1, 3] = s
        np.negative(d[:, 1], out=jt[0, 2])
        jt[1, 2] = d[:, 0]
        jt[0, 3] = jt[1, 4] = -c
        jt[0, 4] = jt[1, 0] = -s
        jt[:2, 5] = 0.0
    return d


def _motion(stack: FactorStack, v: np.ndarray):
    """Self-calibrated motion residual between consecutive frames.

    r = U * (D(c) (-) (xj boxminus xi)) with D(c) = z (+) J (c - c_bar) the
    calibration-corrected pre-integrated delta.  Jacobian columns: xi.p,
    xi.o, xj.p, xj.o, and c when ``stack.with_calibration``.
    """
    jt = np.empty((3, 9 if stack.with_calibration else 6, v.shape[1]))
    b = _pose_between(v[0:3], v[3:6], jt)
    t = np.einsum("nij,nj->ni", stack.j_delta_c, v[6:].T - stack.c_bar)
    d = stack.z
    e = np.empty_like(b)
    e[:, :2] = d[:, :2] + t[:, :2] - b[:, :2]
    e[:, 2] = wrap_angles(wrap_angles(d[:, 2] + t[:, 2]) - b[:, 2])
    r = _whitened(stack.sqrt_info, e)
    if stack.with_calibration:
        jt[:, 6:] = stack.j_delta_c.transpose(1, 2, 0)
    return r, stack.sqrt_info @ _by_factor(jt)


def _range_bearing(stack: FactorStack, v: np.ndarray):
    """Range-bearing of a landmark from a pose through the sensor extrinsics.

    Jacobian columns: x.p, x.o, ext.p and ext.o when
    ``stack.with_calibration``, landmark.
    """
    px, py, th, ex, ey, eth, lx, ly = v
    cx, sx = np.cos(th), np.sin(th)
    # the mount offset rotated into the world: R(th) (ex, ey)
    cex, sey, sex, cey = cx * ex, sx * ey, sx * ex, cx * ey
    qx = lx - (px + cex - sey)
    qy = ly - (py + sex + cey)
    st = th + eth
    cs, ss = np.cos(st), np.sin(st)
    lsx = cs * qx + ss * qy
    lsy = -ss * qx + cs * qy
    rho = np.hypot(lsx, lsy)
    if (rho < 1e-9).any():
        raise SingularObservationError("landmark coincides with the sensor origin")
    z = stack.z
    e = np.empty((len(rho), 2))
    np.subtract(z[:, 0], rho, out=e[:, 0])
    e[:, 1] = wrap_angles(z[:, 1] - np.arctan2(lsy, lsx))
    r = _whitened(stack.sqrt_info, e)

    # -dh, so that J = U (-dh), which is (-U) dh bit for bit; row 0 is the
    # range, row 1 the bearing.  x.p, the sensor position's:
    jt = np.empty((2, 8 if stack.with_calibration else 5, len(rho)))
    np.divide(qx, rho, out=jt[0, 0])
    np.divide(qy, rho, out=jt[0, 1])
    nrho2 = -rho * rho
    np.divide(lsy * cs + lsx * ss, nrho2, out=jt[1, 0])
    np.divide(lsy * ss - lsx * cs, nrho2, out=jt[1, 1])
    a0, a1, b0, b1 = jt[0, 0], jt[0, 1], jt[1, 0], jt[1, 1]
    # x.o: through the extrinsic lever arm, which reads the extrinsic values
    # whether or not the extrinsic can move; the range ignores the heading,
    # the bearing tracks it 1:1
    lever0, lever1 = -sex - cey, cex - sey
    jt[0, 2] = a0 * lever0 + a1 * lever1
    jt[1, 2] = 1.0 + b0 * lever0 + b1 * lever1
    if stack.with_calibration:
        jt[:, 3] = jt[:, 0] * cx + jt[:, 1] * sx
        jt[:, 4] = jt[:, 1] * cx - jt[:, 0] * sx
        jt[:, 5] = _RB_EXT_O
    np.negative(jt[:, :2], out=jt[:, -2:])
    return r, stack.sqrt_info @ _by_factor(jt)


def _prior_pose(stack: FactorStack, v: np.ndarray):
    """Unary pose prior: r = U * (x boxminus z).  Jacobian columns: x.p, x.o."""
    jt = np.empty((3, 6, v.shape[1]))
    d = _pose_between(stack.z.T, v, jt)
    # U d(delta)/dx == (-U) (-d(delta)/dx), bit for bit
    return _whitened(stack.sqrt_info, d), -stack.sqrt_info @ _by_factor(jt[:, 3:])


def _prior_block(stack: FactorStack, v: np.ndarray):
    """Unary block prior: r = U * (x - z), wrapped for an angle block."""
    e = v.T - stack.z
    if stack.kinds[0] == ANGLE:
        e[:, 0] = wrap_angles(e[:, 0])
    return _whitened(stack.sqrt_info, e), stack.sqrt_info.copy()


def _relative_pose(stack: FactorStack, v: np.ndarray):
    """Binary relative-pose constraint, e.g. from a loop closure.

    r = U * (z (-) (xj boxminus xi)).  Jacobian columns: xi.p, xi.o,
    xj.p, xj.o.
    """
    jt = np.empty((3, 6, v.shape[1]))
    b = _pose_between(v[0:3], v[3:6], jt)
    z = stack.z
    e = np.empty_like(b)
    e[:, :2] = z[:, :2] - b[:, :2]
    e[:, 2] = wrap_angles(z[:, 2] - b[:, 2])
    return _whitened(stack.sqrt_info, e), stack.sqrt_info @ _by_factor(jt)


# one kernel per factor kind: (stack, block values as (D, n) rows) -> (r, J)
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
    (n, m, k), C-contiguous, whose k columns follow the blocks of
    ``stack.jacobian_blocks`` in order: every constrained block, less the
    calibration blocks when the stack is not ``with_calibration``.
    """
    return _KERNELS[stack.kind](stack, x.ravel()[stack.take(x.shape[1])])
