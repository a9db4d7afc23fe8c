"""Finite-difference oracles, pose geometry with Jacobians, and one-factor
evaluation for the test suite.

``central_diff`` differentiates plain arrays with its own angle wrap;
``numeric_jacobian`` differentiates a residual over state blocks, stepping
them with ``block_plus``.  ``pose_compose`` and ``pose_between`` are
``manifold.compose`` and ``between`` on (x, y, theta) tuples, with their
closed-form Jacobians, which the reference recursions and criterion 1 check.
``evaluate_one`` runs one factor through the package's stacked kernels as a
stack of one (``stack_of``).  None of this is on the estimator's path, so it
lives beside the tests that use it.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from arbor.errors import ContractError
from arbor.factors import Factor, FactorStack, evaluate
from arbor.manifold import ANGLE, EUCLIDEAN, StateBlock, between, compose, normalize_angle


def central_diff(fn, x, step=1e-6):
    """Jacobian of fn at x by central differences, one column per coordinate.

    fn maps a 1-d array to a 1-d array.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x), dtype=float)
    jac = np.zeros((f0.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        hi = x.copy()
        lo = x.copy()
        hi[k] += step
        lo[k] -= step
        jac[:, k] = (np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2.0 * step)
    return jac


def wrap_angle(a):
    """Independent wrap into (-pi, pi] via plain arithmetic."""
    r = a - 2.0 * np.pi * np.floor((a + np.pi) / (2.0 * np.pi))
    # floor maps the upper boundary pi to -pi; put it back
    if np.isscalar(r):
        return np.pi if r == -np.pi else r
    r = np.asarray(r)
    r[r == -np.pi] = np.pi
    return r


def delta_diff(d2, d1):
    """Tangent difference d2 - d1 of two motions (x, y, theta), with the
    angle wrapped by :func:`wrap_angle`."""
    return np.array([d2[0] - d1[0], d2[1] - d1[1], wrap_angle(d2[2] - d1[2])])


def block_plus(block: StateBlock, dx) -> np.ndarray:
    """Retract a tangent increment onto a block's values.

    Euclidean blocks add; angle blocks add then wrap.  Returns new values
    without mutating the block.
    """
    dx = np.atleast_1d(np.asarray(dx, dtype=float))
    if dx.shape != (block.tangent_dim,):
        raise ContractError(
            f"tangent has shape {dx.shape}, block expects ({block.tangent_dim},)"
        )
    if block.kind == ANGLE:
        return np.array([normalize_angle(block.values[0] + dx[0])])
    return block.values + dx


def pose_compose(a: tuple, b: tuple):
    """:func:`compose` of two (x, y, theta) tuples, with its Jacobians.

    Returns (a boxplus b, J_a, J_b) with J_a = [[I, R'(a_theta) b_p],
    [0, 1]] and J_b = [[R(a_theta), 0], [0, 1]].
    """
    c, s = math.cos(a[2]), math.sin(a[2])
    bx, by = b[0], b[1]
    j_a = np.array([
        [1.0, 0.0, -s * bx - c * by],
        [0.0, 1.0, c * bx - s * by],
        [0.0, 0.0, 1.0],
    ])
    j_b = np.array([
        [c, -s, 0.0],
        [s, c, 0.0],
        [0.0, 0.0, 1.0],
    ])
    return compose(a, b), j_a, j_b


def pose_between(xi: tuple, xj: tuple):
    """:func:`between` of two (x, y, theta) tuples: (xj boxminus xi, J_xi,
    J_xj)."""
    c, s = math.cos(xi[2]), math.sin(xi[2])
    dx, dy = xj[0] - xi[0], xj[1] - xi[1]
    j_xi = np.array([
        [-c, -s, -s * dx + c * dy],
        [s, -c, -c * dx - s * dy],
        [0.0, 0.0, -1.0],
    ])
    j_xj = np.array([
        [c, s, 0.0],
        [-s, c, 0.0],
        [0.0, 0.0, 1.0],
    ])
    return between(xi, xj), j_xi, j_xj


@dataclass
class Residual:
    """Whitened residual plus one Jacobian block per constrained block."""

    r: np.ndarray
    jacobians: list


def stack_of(factors: Sequence[Factor], values: Sequence[Sequence], kinds=None):
    """A stack of same-kind factors and the value table that it reads.

    ``values[i]`` lists factor i's block values in constrained order, and
    ``kinds`` the blocks' kinds (default euclidean; only a prior on an
    angle block reads it).  Each factor's blocks get their own table rows.
    """
    rows = [[np.atleast_1d(np.asarray(b, dtype=float)) for b in vals] for vals in values]
    dims = tuple(len(b) for b in rows[0])
    for factor, vals in zip(factors, rows):
        if len(vals) != len(factor.constrained):
            raise ContractError(
                f"{factor.kind} factor expects {len(factor.constrained)} blocks, got {len(vals)}"
            )
        if tuple(len(b) for b in vals) != dims:
            raise ContractError("factors of one stack must constrain blocks of the same sizes")
    k = len(dims)
    table = np.zeros((len(rows) * k, max(dims)))
    for i, vals in enumerate(rows):
        for j, b in enumerate(vals):
            table[i * k + j, :len(b)] = b
    stack = FactorStack(factors[0].kind, dims, kinds or (EUCLIDEAN,) * k, factors,
                        np.arange(len(rows) * k), np.arange(len(rows)))
    return stack, table


def evaluate_one(factor: Factor, values: Sequence[np.ndarray],
                 kinds: Sequence[str] | None = None) -> Residual:
    """Evaluate a single factor, as a stack of one, on block values given
    in constrained order."""
    stack, table = stack_of([factor], [values], kinds)
    r, j = evaluate(stack, table)
    ends = list(accumulate(stack.dims))
    return Residual(r[0], [j[0][:, a:b] for a, b in zip([0, *ends], ends)])


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
