"""Planar rigid transforms and state-block value semantics.

Conventions used throughout the package:

* a planar pose is a tuple of floats ``(x, y, theta)``: ``x`` and ``y`` in
  meters, ``theta`` in radians, kept in ``(-pi, pi]``.  It is both a pose
  that places a body in the world and a rigid motion expressed in the frame
  of the pose it is composed onto; :func:`compose` and :func:`between` code
  its algebra once, and wrap the heading;
* a tangent increment is a plain length-3 array ``(tx, ty, ttheta)`` added
  componentwise, with the angle wrapped.

The tangent convention is additive at the element itself, which for the
split (p, theta) parametrization is exact in the angle component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

EUCLIDEAN = "euclidean"
ANGLE = "angle"

_TAU = math.tau


def normalize_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi].

    Idempotent; pi maps to pi, -pi maps to pi.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ContractError(f"angle must be finite, got {a}")
    r = math.remainder(a, _TAU)
    if r <= -math.pi:
        r += _TAU
    return r


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """:func:`normalize_angle` over each element of a 1-d array.

    The quotient is rounded half to even, as ``math.remainder`` does, and
    ``n * tau`` and the subtraction are exact for ``|n| <= 2``, so results
    match the scalar wrap bit for bit whenever ``|a| < 5 pi``.
    """
    r = a - np.rint(a / _TAU) * _TAU
    # one reduction finds both rare cases: a NaN (from a non-finite angle,
    # which the min carries) and a result on the -pi boundary
    if not r.min(initial=math.pi) > -math.pi:
        if not np.isfinite(r).all():
            raise ContractError(f"angles must be finite, got {a}")
        r[r <= -math.pi] += _TAU
    return r


def rot2(theta: float) -> np.ndarray:
    """2x2 rotation matrix R(theta)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _as_finite_vector(values, n: int | None, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    elif v.ndim != 1:
        raise ContractError(f"{what} must be a vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ContractError(f"{what} must have length {n}, got {v.shape[0]}")
    for x in v.tolist():
        if not math.isfinite(x):
            raise ContractError(f"{what} must be finite, got {v}")
    return v


@dataclass
class StateBlock:
    """Minimal estimable unit: a value vector, its parametrization, a fixed flag.

    Angle blocks hold exactly one value and are normalized on construction.
    Fixed blocks are registered with the solver but never moved by it.
    """

    values: np.ndarray
    kind: str = EUCLIDEAN
    fixed: bool = False

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, ANGLE):
            raise ContractError(f"unknown block kind {self.kind!r}")
        n = 1 if self.kind == ANGLE else None
        self.values = _as_finite_vector(self.values, n, "state block values")
        if self.kind == ANGLE:
            self.values = np.array([normalize_angle(self.values[0])])

    @property
    def tangent_dim(self) -> int:
        return self.values.shape[0]


def compose(a: tuple, b: tuple) -> tuple:
    """a boxplus b on (x, y, theta) floats: advance ``a`` by the motion ``b``
    expressed in a's frame, with the heading wrapped."""
    ax, ay, at = a
    bx, by, bt = b
    c, s = math.cos(at), math.sin(at)
    return ax + c * bx - s * by, ay + s * bx + c * by, normalize_angle(at + bt)


def between(a: tuple, b: tuple) -> tuple:
    """b boxminus a on (x, y, theta) floats: the motion that takes ``a`` to
    ``b`` in a's frame, so that compose(a, between(a, b)) == b."""
    ax, ay, at = a
    bx, by, bt = b
    c, s = math.cos(at), math.sin(at)
    dx, dy = bx - ax, by - ay
    return c * dx + s * dy, -s * dx + c * dy, normalize_angle(bt - at)
