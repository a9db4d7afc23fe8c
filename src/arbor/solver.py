"""Built-in sparse Levenberg-Marquardt over the tree's unfixed state blocks.

The solver mirrors the tree through its notification queue: ``sync`` applies
pending add/remove events so the solver-side block and factor sets always
match the live tree.  Columns are assigned only to blocks that are unfixed
and touched by at least one factor; everything else is held constant.

Damping is multiplicative on the diagonal of the normal matrix, which keeps
meter and radian columns comparably conditioned.  Steps are retracted with
block_plus so angle blocks stay on their manifold.  A step is accepted only
if it strictly decreases the cost, so the report's final cost never
exceeds the initial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from . import tree as tree_mod
from .errors import (
    ContractError,
    DivergenceError,
    SingularSystemError,
    SyncError,
)
from .factors import Factor, evaluate
from .manifold import StateBlock, block_plus

CONVERGED_DX = "converged_dx"
CONVERGED_GRAD = "converged_grad"
MAX_ITER = "max_iterations"

_SINGULARITY_RTOL = 1e-13

_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 10.0
_LAMBDA_MAX = 1e8


@dataclass
class SolverOptions:
    max_iterations: int = 50
    lambda_init: float = 1e-4
    tol_dx: float = 1e-10
    tol_grad: float = 1e-12


@dataclass
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    termination: str
    accepted_steps: int


@dataclass
class _BlockEntry:
    kind: str
    dim: int
    fixed: bool
    offset: Optional[int] = None  # None when fixed or untouched


class SolverProblem:
    """Solver-side mirror of the tree's state blocks and factors."""

    def __init__(self, options: SolverOptions | None = None):
        self.options = options or SolverOptions()
        self.blocks: dict = {}   # (NodeId, name) -> _BlockEntry, insertion ordered
        self.factors: dict = {}  # NodeId -> Factor
        self.values: dict = {}   # (NodeId, name) -> current iterate
        self.total_dim = 0
        self._factor_entries: dict = {}  # NodeId -> [(key, _BlockEntry), ...]

    def active_keys(self):
        return [k for k, e in self.blocks.items() if e.offset is not None]


def sync(problem: SolverProblem, tree) -> None:
    """Drain tree notifications into the solver's block/factor sets.

    Also refreshes fixed flags (the window manager flips them in place) and
    reassigns contiguous column offsets to the active blocks.
    """
    for note in tree.drain_notifications():
        if note.action == tree_mod.ADD_BLOCK:
            node_id, name = note.target
            try:
                block = tree.block(node_id, name)
            except Exception as exc:
                raise SyncError(f"add_block for unknown target {note.target}") from exc
            problem.blocks[note.target] = _BlockEntry(block.kind, block.tangent_dim,
                                                      block.fixed)
            problem.values[note.target] = block.values.copy()
        elif note.action == tree_mod.REMOVE_BLOCK:
            if note.target not in problem.blocks:
                raise SyncError(f"remove_block for unknown target {note.target}")
            del problem.blocks[note.target]
            problem.values.pop(note.target, None)
        elif note.action == tree_mod.ADD_FACTOR:
            try:
                payload = tree.node(note.target).payload
            except Exception as exc:
                raise SyncError(f"add_factor for unknown node {note.target}") from exc
            if not isinstance(payload, Factor):
                raise SyncError(f"node {note.target} does not carry a factor")
            problem.factors[note.target] = payload
        elif note.action == tree_mod.REMOVE_FACTOR:
            if note.target not in problem.factors:
                raise SyncError(f"remove_factor for unknown factor {note.target}")
            del problem.factors[note.target]
        else:
            raise SyncError(f"unknown notification action {note.action!r}")

    for key, entry in problem.blocks.items():
        entry.fixed = tree.block(*key).fixed

    problem._factor_entries = {}
    touched = set()
    for fid, factor in problem.factors.items():
        entries = [(tuple(c), problem.blocks[tuple(c)]) for c in factor.constrained]
        problem._factor_entries[fid] = entries
        touched.update(key for key, _ in entries)
    offset = 0
    for key, entry in problem.blocks.items():
        if not entry.fixed and key in touched:
            entry.offset = offset
            offset += entry.dim
        else:
            entry.offset = None
    problem.total_dim = offset


def _factor_terms(problem: SolverProblem, fid, factor: Factor, values: dict):
    entries = problem._factor_entries[fid]
    vals = [values[key] for key, _ in entries]
    kinds = [entry.kind for _, entry in entries]
    return evaluate(factor, vals, kinds)


def total_cost(problem: SolverProblem, values: dict) -> float:
    """Sum of ||r||^2/2 over all factors."""
    cost = 0.0
    for fid, factor in problem.factors.items():
        res = _factor_terms(problem, fid, factor, values)
        cost += 0.5 * float(res.r @ res.r)
    return cost


def _stepped(problem: SolverProblem, values: dict, dx: np.ndarray) -> dict:
    out = dict(values)
    for key, entry in problem.blocks.items():
        if entry.offset is None:
            continue
        sl = dx[entry.offset:entry.offset + entry.dim]
        block = StateBlock(values[key], entry.kind)
        out[key] = block_plus(block, sl)
    return out


def apply_step(problem: SolverProblem, dx: np.ndarray) -> None:
    """Retract a full tangent step onto the problem's current values."""
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (problem.total_dim,):
        raise ContractError(
            f"step has shape {dx.shape}, expected ({problem.total_dim},)"
        )
    problem.values = _stepped(problem, problem.values, dx)


def _linearize(problem: SolverProblem, values: dict):
    """Gradient and block-sparse normal equations.

    Accumulation is by block-coordinate pairs (only the pairs each factor
    actually couples), scattered into the upper triangle and mirrored.
    """
    n = problem.total_dim
    g = np.zeros(n)
    h = np.zeros((n, n))
    for fid, factor in problem.factors.items():
        res = _factor_terms(problem, fid, factor, values)
        active = [(entry, jac)
                  for (_, entry), jac in zip(problem._factor_entries[fid], res.jacobians)
                  if entry.offset is not None]
        for i, (ent_i, jac_i) in enumerate(active):
            oi = ent_i.offset
            g[oi:oi + ent_i.dim] -= jac_i.T @ res.r
            for ent_j, jac_j in active[i:]:
                oj = ent_j.offset
                if oi <= oj:
                    h[oi:oi + ent_i.dim, oj:oj + ent_j.dim] += jac_i.T @ jac_j
                else:
                    h[oj:oj + ent_j.dim, oi:oi + ent_i.dim] += jac_j.T @ jac_i
    lower = np.tril_indices(n, -1)
    h[lower] = h.T[lower]
    return g, h


def hessian_fill_in(problem: SolverProblem) -> float:
    """Fraction of off-diagonal block pairs that some factor couples."""
    n_blocks = len(problem.active_keys())
    if n_blocks == 0:
        return 0.0
    pairs = set()
    for entries in problem._factor_entries.values():
        active = sorted({entry.offset for _, entry in entries if entry.offset is not None})
        pairs.update(combinations(active, 2))
    total_off = n_blocks * (n_blocks - 1) // 2
    if total_off == 0:
        return 1.0
    return len(pairs) / total_off


def lm_solve(problem: SolverProblem, tree) -> SolveReport:
    """Iterate damped normal equations until convergence; write back results."""
    opts = problem.options
    for key in problem.blocks:
        problem.values[key] = tree.block(*key).values.copy()

    if problem.total_dim == 0 or not problem.factors:
        raise ContractError("nothing to solve: no unfixed block touched by a factor")

    values = problem.values
    cost = total_cost(problem, values)
    if not np.isfinite(cost):
        raise DivergenceError(f"initial cost is not finite: {cost}")
    initial_cost = cost

    lam = opts.lambda_init
    iterations = 0
    accepted = 0
    termination = MAX_ITER

    while iterations < opts.max_iterations:
        iterations += 1
        g, h = _linearize(problem, values)

        if iterations == 1:
            eigs = np.linalg.eigvalsh(h)
            if eigs[-1] <= 0.0 or eigs[0] <= _SINGULARITY_RTOL * eigs[-1]:
                raise SingularSystemError(
                    "normal matrix is numerically singular; fix a block or add a prior"
                )

        if np.max(np.abs(g)) < opts.tol_grad:
            termination = CONVERGED_GRAD
            break

        while lam <= _LAMBDA_MAX:
            damped = h + lam * np.diag(np.diag(h))
            try:
                dx = np.linalg.solve(damped, g)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            if not np.all(np.isfinite(dx)):
                lam *= _LAMBDA_UP
                continue
            if np.max(np.abs(dx)) < opts.tol_dx:
                termination = CONVERGED_DX
                break
            candidate = _stepped(problem, values, dx)
            new_cost = total_cost(problem, candidate)
            if not np.isfinite(new_cost):
                raise DivergenceError(f"cost diverged to {new_cost}")
            if new_cost < cost:
                values = candidate
                cost = new_cost
                lam = max(lam / _LAMBDA_DOWN, 1e-12)
                accepted += 1
                break
            lam *= _LAMBDA_UP
        else:
            # damping exhausted without a decreasing step: stalled at a minimum
            termination = CONVERGED_DX
            break
        if termination == CONVERGED_DX:
            break

    problem.values = values
    for key, entry in problem.blocks.items():
        if entry.offset is not None:
            tree.block(*key).values = values[key].copy()

    return SolveReport(
        iterations=iterations,
        initial_cost=initial_cost,
        final_cost=cost,
        termination=termination,
        accepted_steps=accepted,
    )
