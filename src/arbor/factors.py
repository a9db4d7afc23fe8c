"""Residual and Jacobian evaluation for every factor kind.

A factor pins a measurement ``z`` with square-root information ``U``
(upper-triangular, ``U^T U = Q^-1``) to an ordered list of constrained state
blocks.  Residuals are whitened: ``r = U * error``.  Analytic Jacobians come
back as one block per constrained state block, in order; a generic
central-difference fallback is provided for cross-checking.

The motion factor implements the self-calibrating pre-integration residual:
the stored delta is first re-corrected for the current calibration values,
then compared against the relative pose of the two frames it links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DecompositionError, SingularObservationError
from .manifold import (
    ANGLE,
    Delta2,
    Pose2,
    StateBlock,
    block_plus,
    delta_minus,
    delta_plus,
    normalize_angle,
    pose_between,
)

MOTION = "motion"
RANGE_BEARING = "range_bearing"
PRIOR_POSE = "prior_pose"
PRIOR_BLOCK = "prior_block"
RELATIVE_POSE = "relative_pose"

FACTOR_KINDS = (MOTION, RANGE_BEARING, PRIOR_POSE, PRIOR_BLOCK, RELATIVE_POSE)


@dataclass
class MotionData:
    """Frozen pre-integration results backing a motion factor."""

    delta_bar: Delta2
    q_delta: np.ndarray
    j_delta_c: np.ndarray
    c_bar: np.ndarray


@dataclass
class Factor:
    """Measurement residual description bound to the blocks it constrains.

    ``constrained`` lists (node id, block name) pairs whose order fixes the
    meaning of the values handed to :func:`evaluate` and the order of the
    returned Jacobian blocks.
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
        if np.any(np.abs(np.tril(u, -1)) > 0.0):
            raise ContractError("sqrt_info must be upper triangular")
        if np.any(np.diag(u) <= 0.0):
            raise ContractError("sqrt_info must have a positive diagonal")


@dataclass
class Residual:
    """Whitened residual plus one Jacobian block per constrained block."""

    r: np.ndarray
    jacobians: list


def whiten(q: np.ndarray) -> np.ndarray:
    """Upper-triangular U with U^T U = Q^-1 (square-root information)."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if q.shape[0] != q.shape[1]:
        raise ContractError(f"covariance must be square, got {q.shape}")
    if not np.allclose(q, q.T, rtol=0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(q))))):
        raise DecompositionError("covariance is not symmetric")
    try:
        inv = np.linalg.inv(q)
        u = np.linalg.cholesky(0.5 * (inv + inv.T)).T
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"covariance is singular or indefinite: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise DecompositionError("covariance is numerically singular")
    return u


def _split_pose_cols(j: np.ndarray):
    return j[:, :2], j[:, 2:3]


def residual_motion(xi: Pose2, xj: Pose2, c: np.ndarray, f: Factor) -> Residual:
    """Self-calibrated motion residual between consecutive frames.

    r = U * (D(c) (-) (xj boxminus xi)) with D(c) the calibration-corrected
    pre-integrated delta.  Jacobian blocks: xi.p, xi.o, xj.p, xj.o, c.
    """
    aux = f.aux
    corrected = delta_plus(aux.delta_bar, aux.j_delta_c @ (np.asarray(c, float) - aux.c_bar))
    b, j_b_xi, j_b_xj = pose_between(xi, xj)
    u = f.sqrt_info
    r = u @ delta_minus(corrected, b)
    j_xi = -u @ j_b_xi
    j_xj = -u @ j_b_xj
    j_c = u @ aux.j_delta_c
    return Residual(r, [*_split_pose_cols(j_xi), *_split_pose_cols(j_xj), j_c])


def _range_bearing_terms(px, py, th, ex, ey, eth, lx, ly, f: Factor) -> Residual:
    """Range-bearing of landmark (lx, ly) from pose (px, py, th) through
    extrinsics (ex, ey, eth).  Jacobian blocks: x.p, x.o, ext.p, ext.o, landmark.
    """
    cx, sx = math.cos(th), math.sin(th)
    spx = px + cx * ex - sx * ey
    spy = py + sx * ex + cx * ey
    st = th + eth
    qx, qy = lx - spx, ly - spy
    cs, ss = math.cos(st), math.sin(st)
    lsx = cs * qx + ss * qy
    lsy = -ss * qx + cs * qy
    rho = math.hypot(lsx, lsy)
    if rho < 1e-9:
        raise SingularObservationError("landmark coincides with the sensor origin")
    u = f.sqrt_info
    e = np.array([f.z[0] - rho, normalize_angle(f.z[1] - math.atan2(lsy, lsx))])
    r = u @ e

    rho2 = rho * rho
    # dh/d(sensor pose): the range ignores heading, the bearing tracks it 1:1
    a0, a1 = -qx / rho, -qy / rho
    b0, b1 = (lsy * cs + lsx * ss) / rho2, (lsy * ss - lsx * cs) / rho2
    # derivative through the extrinsic lever arm and its rotation
    lever0, lever1 = -sx * ex - cx * ey, cx * ex - sx * ey
    dh_all = np.array([
        # columns: x.p, x.o, ext.p, ext.o, landmark
        [a0, a1, a0 * lever0 + a1 * lever1, a0 * cx + a1 * sx,
         -a0 * sx + a1 * cx, 0.0, -a0, -a1],
        [b0, b1, -1.0 + b0 * lever0 + b1 * lever1, b0 * cx + b1 * sx,
         -b0 * sx + b1 * cx, -1.0, -b0, -b1],
    ])
    j = -u @ dh_all
    return Residual(r, [j[:, 0:2], j[:, 2:3], j[:, 3:5], j[:, 5:6], j[:, 6:8]])


def residual_prior_pose(x: Pose2, f: Factor) -> Residual:
    """Unary pose prior: r = U * (x boxminus z)."""
    z_pose = Pose2.from_array(f.z)
    d, _, j_x = pose_between(z_pose, x)
    u = f.sqrt_info
    r = u @ d.as_array()
    j = u @ j_x
    return Residual(r, [*_split_pose_cols(j)])


def residual_prior_block(x: np.ndarray, kind: str, f: Factor) -> Residual:
    """Unary block prior: r = U * (x - z), wrapped for angle blocks."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    e = x - f.z
    if kind == ANGLE:
        e = np.array([normalize_angle(e[0])])
    u = f.sqrt_info
    return Residual(u @ e, [u.copy()])


def residual_relative_pose(xi: Pose2, xj: Pose2, f: Factor) -> Residual:
    """Binary relative-pose constraint, e.g. from a loop closure.

    r = U * (z (-) (xj boxminus xi)).  Jacobian blocks: xi.p, xi.o,
    xj.p, xj.o.
    """
    b, j_b_xi, j_b_xj = pose_between(xi, xj)
    u = f.sqrt_info
    r = u @ delta_minus(Delta2.from_array(f.z), b)
    j_xi = -u @ j_b_xi
    j_xj = -u @ j_b_xj
    return Residual(r, [*_split_pose_cols(j_xi), *_split_pose_cols(j_xj)])


def evaluate(factor: Factor, values: Sequence[np.ndarray], kinds: Sequence[str] | None = None) -> Residual:
    """Evaluate a factor on block values given in constrained order."""
    if len(values) != len(factor.constrained):
        raise ContractError(
            f"{factor.kind} factor expects {len(factor.constrained)} blocks, got {len(values)}"
        )
    if factor.kind == MOTION:
        xi = Pose2(values[0], float(values[1][0]))
        xj = Pose2(values[2], float(values[3][0]))
        return residual_motion(xi, xj, values[4], factor)
    if factor.kind == RANGE_BEARING:
        p, o, ep, eo, lm = values
        return _range_bearing_terms(p[0], p[1], float(o[0]),
                                    ep[0], ep[1], float(eo[0]),
                                    lm[0], lm[1], factor)
    if factor.kind == PRIOR_POSE:
        return residual_prior_pose(Pose2(values[0], float(values[1][0])), factor)
    if factor.kind == PRIOR_BLOCK:
        kind = kinds[0] if kinds else "euclidean"
        return residual_prior_block(values[0], kind, factor)
    if factor.kind == RELATIVE_POSE:
        xi = Pose2(values[0], float(values[1][0]))
        xj = Pose2(values[2], float(values[3][0]))
        return residual_relative_pose(xi, xj, factor)
    raise ContractError(f"unknown factor kind {factor.kind!r}")


def numeric_jacobian(residual_fn: Callable, blocks: Sequence[StateBlock], step: float = 1e-6):
    """Central-difference Jacobian blocks of a residual over state blocks.

    Perturbations go through block_plus, so angle blocks are differentiated
    on their tangent and stay continuous across the wrap.
    """
    values = [b.values.copy() for b in blocks]
    r0 = np.atleast_1d(np.asarray(residual_fn(values), dtype=float))
    jacobians = []
    for i, block in enumerate(blocks):
        jac = np.zeros((r0.shape[0], block.tangent_dim))
        for k in range(block.tangent_dim):
            dx = np.zeros(block.tangent_dim)
            dx[k] = step
            hi = list(values)
            lo = list(values)
            hi[i] = block_plus(block, dx)
            lo[i] = block_plus(block, -dx)
            r_hi = np.asarray(residual_fn(hi), dtype=float)
            r_lo = np.asarray(residual_fn(lo), dtype=float)
            jac[:, k] = (r_hi - r_lo) / (2.0 * step)
        jacobians.append(jac)
    return jacobians
