"""Built-in sparse Levenberg-Marquardt over the tree's unfixed state blocks.

The solver reads nothing from the tree but its notification stream: ``sync``
applies pending add/remove events, each add carrying its state block or
factor, so the solver-side block and factor sets always match the live tree.
Each block owns a row (slot) of a value table and each factor a row of its
kind's stack, so cost and normal equations take one kernel call per stack.
A solve fills the table from the blocks it was handed, iterates on it alone
and writes the result back to them.  Columns are assigned only to blocks
that are unfixed and touched by at least one factor; everything else is
held constant.  A stack's kernel computes no Jacobian columns for its
sensor-calibration blocks while none of its rows can move them.

Damping is multiplicative on the diagonal of the normal matrix, which keeps
meter and radian columns comparably conditioned.  Steps are retracted by
adding them and wrapping angles, so angle blocks stay on their manifold.  A
step is accepted only if it strictly decreases the cost, so the report's
final cost never exceeds the initial one.  A step whose predicted decrease
(the damped model's, Madsen, Nielsen & Tingleff 2004) is not above machine
epsilon times the cost could not show a decrease in the cost's rounding, so
the solve stops there with ``converged_dx`` without trying it.

Each iterate is evaluated once, the start point too: its cost, which the
solve checks for finiteness, comes from its linearization, and a trial
point's cost and normal equations come from one linearization, kept for the
next iteration if the step is accepted.  A stack with no active column is
evaluated once per solve.  A Cholesky factor of the first normal matrix
rejects a singular problem (a gauge left free) with a SolveError.

The problem owns the memory of the normal equations: two n x n arrays,
resized by ``sync`` only when n changes.  One holds the iterate's H; the
other is a work array, which holds the damped matrix during the step solve
and then the trial point's H, filled in place at the positions of H that
some Jacobian entry reaches; ``sync`` zeroes both.  The two swap roles
when a step is accepted, so a rejected trial never overwrites the iterate's
H, and the iterations allocate no n x n array: arrays of 128 KiB and more
come from freshly mapped pages, which cost more to touch than the bincount
that fills them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tree as tree_mod
from .errors import ContractError, SingularObservationError, SolveError
from .factors import CALIBRATION_BLOCKS, FactorStack, _layout, evaluate
from .manifold import ANGLE, StateBlock, wrap_angles

CONVERGED_DX = "converged_dx"
CONVERGED_GRAD = "converged_grad"
MAX_ITER = "max_iterations"

_SINGULARITY_RTOL = 1e-13

_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 10.0
_LAMBDA_MAX = 1e8

_NO_ENTRIES = np.zeros(0, dtype=np.intp)
_EVERY = slice(None)


@dataclass
class SolverOptions:
    max_iterations: int = 50
    lambda_init: float = 1e-4
    tol_dx: float = 1e-10
    tol_grad: float = 1e-12

    def __post_init__(self):
        if not (math.isfinite(self.lambda_init) and self.lambda_init > 0.0):
            raise ContractError(f"lambda_init must be finite and > 0, got {self.lambda_init}")
        if self.max_iterations < 1:
            raise ContractError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (self.tol_dx >= 0.0 and self.tol_grad >= 0.0):
            raise ContractError(f"tolerances must be >= 0, got {self.tol_dx}, {self.tol_grad}")


@dataclass
class SolveReport:
    iterations: int
    initial_cost: float
    final_cost: float
    termination: str
    accepted_steps: int


@dataclass
class _BlockEntry:
    block: StateBlock             # the tree's own block, as announced
    slot: int                     # row in the value table, stable while the block lives
    offset: Optional[int] = None  # None when fixed or untouched

    @property
    def kind(self) -> str:
        return self.block.kind

    @property
    def dim(self) -> int:
        return self.block.tangent_dim


@dataclass
class _Scatter:
    """Where one stack's Jacobian entries land in g and H (set at sync).

    ``g_at``/``h_at`` pick the entries of Jᵀr (n, k) and JᵀJ (n, k, k),
    flattened, that fall on active columns, where J's k columns cover the
    stack's ``jacobian_blocks``, or all of them (a full slice) when every
    row's blocks are active; ``g_to``/``h_to`` are their flat positions in g
    and H, from which sync ranks the bins H is summed over.
    """

    g_at: np.ndarray
    g_to: np.ndarray
    h_at: np.ndarray
    h_to: np.ndarray


class SolverProblem:
    """Solver-side mirror of the tree's state blocks and factors.

    Factors are also kept as :class:`FactorStack` rows, one stack per kind
    and block layout, which is what the cost and linearization evaluate.
    """

    def __init__(self, options: SolverOptions | None = None):
        self.options = options or SolverOptions()
        self.blocks: dict = {}   # (NodeId, name) -> _BlockEntry, insertion ordered
        self.factors: dict = {}  # NodeId -> Factor
        self.total_dim = 0
        self.stacks: dict = {}   # (kind, dims, block kinds) -> FactorStack
        self._stack_of: dict = {}  # factor NodeId -> its stack's key
        self._scatter: dict = {}   # stack key -> _Scatter
        self._n_slots = 0
        self._free_slots: list = []
        self._width = 1          # widest block, the value table's width
        # per slot: its block's tangent dim and whether it is an angle block
        self._slot_dim = np.zeros(0, dtype=np.intp)
        self._slot_angle = np.zeros(0, dtype=bool)
        # per active column: its block's slot and component; active angle slots
        self._col_slot = np.zeros(0, dtype=np.intp)
        self._col_comp = np.zeros(0, dtype=np.intp)
        self._angle_slots = np.zeros(0, dtype=np.intp)
        self._active: list = []  # the active blocks' entries, in offset order
        # normal equations (see _index_normal_equations): the iterate's H and
        # the work array, the positions of H in _h_at, and per Jacobian entry,
        # over the stacks in order, its column in g and its bin in _h_at
        self._h = np.zeros((0, 0))
        self._work = np.zeros((0, 0))
        self._h_at = _NO_ENTRIES
        self._g_to = _NO_ENTRIES
        self._h_bin = _NO_ENTRIES


def sync(problem: SolverProblem, tree) -> None:
    """Drain tree notifications into the solver's block/factor sets.

    Added factors become stack rows, then removed ones are dropped from
    their stacks, so a factor added and removed in one drain leaves no row.
    Then reassigns contiguous column offsets to the active blocks, reading
    each block's fixed flag (the window manager flips it in place), and maps
    every stack row onto those columns, recording on each stack whether any
    row's calibration block is active.
    """
    added: dict = {}    # stack key -> ([Factor], [slot rows], [ids])
    removed: dict = {}  # stack key -> [ids]
    freed = []
    new_slots = []      # (slot, tangent dim, is angle) of each added block
    for note in tree.drain_notifications():
        if note.action == tree_mod.ADD_BLOCK:
            if problem._free_slots:
                slot = problem._free_slots.pop()
            else:
                slot = problem._n_slots
                problem._n_slots += 1
            block = note.item
            problem._width = max(problem._width, block.tangent_dim)
            problem.blocks[note.target] = _BlockEntry(block, slot)
            new_slots.append((slot, block.tangent_dim, block.kind == ANGLE))
        elif note.action == tree_mod.REMOVE_BLOCK:
            if note.target not in problem.blocks:
                raise ContractError(f"remove_block for unknown target {note.target}")
            # a freed slot is reused only after this drain, once every factor
            # on the removed block is gone
            freed.append(problem.blocks.pop(note.target).slot)
        elif note.action == tree_mod.ADD_FACTOR:
            factor = note.item
            try:
                entries = [problem.blocks[tuple(c)] for c in factor.constrained]
            except KeyError as exc:
                raise ContractError(
                    f"factor {note.target} constrains unknown block {exc}") from None
            key = (factor.kind, tuple(e.dim for e in entries), tuple(e.kind for e in entries))
            factors, slots, ids = added.setdefault(key, ([], [], []))
            factors.append(factor)
            slots.append([e.slot for e in entries])
            ids.append(note.target.index)
            problem.factors[note.target] = factor
            problem._stack_of[note.target] = key
        elif note.action == tree_mod.REMOVE_FACTOR:
            if note.target not in problem.factors:
                raise ContractError(f"remove_factor for unknown factor {note.target}")
            del problem.factors[note.target]
            removed.setdefault(problem._stack_of.pop(note.target), []).append(note.target.index)
        else:
            raise ContractError(f"unknown notification action {note.action!r}")

    for key, (factors, slots, ids) in added.items():
        if key in problem.stacks:
            problem.stacks[key].extend(factors, slots, ids)
        else:
            problem.stacks[key] = FactorStack(*key, factors, slots, ids)
    for key, ids in removed.items():
        problem.stacks[key].drop(ids)
    problem.stacks = {key: s for key, s in problem.stacks.items() if s.n}
    problem._free_slots.extend(freed)
    if new_slots:
        grow = problem._n_slots - len(problem._slot_dim)
        problem._slot_dim = np.concatenate([problem._slot_dim, np.zeros(grow, np.intp)])
        problem._slot_angle = np.concatenate([problem._slot_angle, np.zeros(grow, bool)])
        at, dim, angle = zip(*new_slots)
        problem._slot_dim[list(at)] = dim
        problem._slot_angle[list(at)] = angle

    # a block is active when unfixed and touched by some factor; offsets run
    # over the active blocks in insertion order
    entries = list(problem.blocks.values())
    live = np.array([entry.slot for entry in entries], dtype=np.intp)
    fixed = np.array([entry.block.fixed for entry in entries], dtype=bool)
    touched = np.zeros(problem._n_slots, dtype=bool)
    for stack in problem.stacks.values():
        touched[stack.slots] = True
    slots = live[touched[live] & ~fixed]
    dims = problem._slot_dim[slots]
    ends = np.cumsum(dims)
    problem.total_dim = n = int(ends[-1]) if len(ends) else 0
    offset_of_slot = np.full(problem._n_slots, -1, dtype=np.intp)
    offset_of_slot[slots] = starts = ends - dims
    problem._active = []
    for entry, offset in zip(entries, offset_of_slot[live].tolist()):
        entry.offset = offset if offset >= 0 else None
        if offset >= 0:
            problem._active.append(entry)
    problem._col_slot = np.repeat(slots, dims)
    problem._col_comp = np.arange(n) - np.repeat(starts, dims)
    problem._angle_slots = slots[problem._slot_angle[slots]]
    problem._scatter = {}
    for key, stack in problem.stacks.items():
        offsets = offset_of_slot[stack.slots]
        # kernels skip the calibration columns unless some row can move them
        calibration = CALIBRATION_BLOCKS.get(stack.kind)
        stack.with_calibration = (calibration is not None
                                  and bool((offsets[:, list(calibration)] >= 0).any()))
        problem._scatter[key] = _scatter(stack, offsets, n)
    _index_normal_equations(problem)


def _scatter(stack: FactorStack, offsets: np.ndarray, n: int) -> _Scatter:
    # column of each Jacobian entry: its block's offset plus the component
    # within the block; only entries on active blocks (offset >= 0) are kept
    block_of_col, within = _layout(stack.dims, stack.jacobian_blocks)
    base = offsets[:, block_of_col]
    active = base >= 0
    cols = base + within
    h_to = cols[:, :, None] * n + cols[:, None, :]
    if active.all():  # every entry lands: no gather
        return _Scatter(_EVERY, cols.ravel(), _EVERY, h_to.ravel())
    g_at = active.ravel().nonzero()[0]
    h_at = (active[:, :, None] & active[:, None, :]).ravel().nonzero()[0]
    return _Scatter(g_at, cols.ravel()[g_at], h_at, h_to.ravel()[h_at])


def _index_normal_equations(problem: SolverProblem) -> None:
    """Size and clear the two n x n arrays and index the positions of H that
    the scatter maps reach: ``_h_at``, sorted, and each Jacobian entry's bin
    in it.

    Both arrays are cleared, and both stay zero off those positions: a
    linearization writes only there, and a damped matrix is H plus its
    diagonal.  Either may take the next linearization: a solve that stops
    before its first damped matrix leaves the array it swapped out of H as
    the work array, untouched since sync."""
    n = problem.total_dim
    if problem._work.shape != (n, n):
        problem._h, problem._work = np.empty((n, n)), np.empty((n, n))
    problem._h.fill(0.0)
    work = problem._work.ravel()
    work.fill(0.0)
    scatters = problem._scatter.values()
    problem._g_to = np.concatenate([_NO_ENTRIES, *(sc.g_to for sc in scatters)])
    h_to = np.concatenate([_NO_ENTRIES, *(sc.h_to for sc in scatters)])
    # the work array serves as the table of each position's rank; the ranks
    # it keeps lie on the positions every linearization overwrites
    work[h_to] = 1.0
    problem._h_at = at = (work != 0.0).nonzero()[0]
    work[at] = np.arange(len(at), dtype=float)
    problem._h_bin = work.take(h_to).astype(np.intp)


def _table(problem: SolverProblem) -> np.ndarray:
    """The value table: each block's current values in its slot row,
    left-aligned and zero-padded to the widest block."""
    x = np.zeros((problem._n_slots, problem._width))
    dims = problem._slot_dim.tolist()
    for entry in problem.blocks.values():
        x[entry.slot, :dims[entry.slot]] = entry.block.values
    return x


def total_cost(problem: SolverProblem, x: np.ndarray) -> float:
    """Sum of ||r||^2/2 over all factors at the value table ``x``, as linearized."""
    return _linearize(problem, x, {})[0]


def _stepped(problem: SolverProblem, x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Value table after retracting the tangent step dx onto the active blocks."""
    out = x.copy()
    out[problem._col_slot, problem._col_comp] += dx
    out[problem._angle_slots, 0] = wrap_angles(out[problem._angle_slots, 0])
    return out


def _linearize(problem: SolverProblem, x: np.ndarray, held: dict):
    """Cost, gradient and normal equations at the value table ``x``, one
    kernel call per stack.

    The cost sums every stack in order.  Each stack's Jᵀr and JᵀJ entries on
    active columns are summed into g and H with one bincount each, H's over
    the bins of its reached positions only, and H is written into the
    problem's work array; the cost of a stack with no active column is kept
    in ``held`` and not evaluated again.
    """
    n = problem.total_dim
    cost = 0.0
    g_w, h_w = [], []
    for key, stack in problem.stacks.items():
        if key in held:
            cost += held[key]
            continue
        r, j = evaluate(stack, x)
        stack_cost = 0.5 * float(np.einsum("ij,ij->", r, r))
        cost += stack_cost
        sc = problem._scatter[key]
        if not len(sc.g_to):
            held[key] = stack_cost
            continue
        g_w.append(np.einsum("nmi,nm->ni", j, r).ravel()[sc.g_at])
        # batched matmul is about 2.5x slower on the transposed view
        h_w.append((j.transpose(0, 2, 1).copy() @ j).ravel()[sc.h_at])
    h = problem._work
    if not g_w:
        return cost, np.zeros(n), h
    g = -np.bincount(problem._g_to, np.concatenate(g_w), minlength=n)
    h.ravel()[problem._h_at] = np.bincount(problem._h_bin, np.concatenate(h_w),
                                           minlength=len(problem._h_at))
    return cost, g, h


def lm_solve(problem: SolverProblem) -> SolveReport:
    """Iterate damped normal equations until convergence; write back results."""
    opts = problem.options
    if problem.total_dim == 0 or not problem.factors:
        raise ContractError("nothing to solve: no unfixed block touched by a factor")

    x = _table(problem)
    held: dict = {}  # filled by the first linearization, reused by the rest
    cost, g, h = _linearize(problem, x, held)
    problem._h, problem._work = h, problem._h
    if not np.isfinite(cost):
        raise SolveError(f"initial cost is not finite: {cost}")
    initial_cost = cost

    try:
        pivots = np.diag(np.linalg.cholesky(h)) ** 2
    except np.linalg.LinAlgError:
        pivots = np.zeros(1)
    # a NaN or inf pivot fails too: cholesky returns those without raising
    if not np.min(pivots) > _SINGULARITY_RTOL * np.max(np.diag(h)):
        raise SolveError("normal matrix is numerically singular; fix a block or add a prior")

    lam = opts.lambda_init
    accepted = 0
    termination = MAX_ITER

    for iterations in range(1, opts.max_iterations + 1):
        if np.max(np.abs(g)) < opts.tol_grad:
            termination = CONVERGED_GRAD
            break

        while lam <= _LAMBDA_MAX:
            damped = problem._work
            np.copyto(damped, h)
            damped.flat[::len(h) + 1] += lam * h.diagonal()
            try:
                dx = np.linalg.solve(damped, g)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            if not np.all(np.isfinite(dx)):
                lam *= _LAMBDA_UP
                continue
            # the damped model's decrease g·dx - dxᵀH dx/2, as (H + lam diag H)
            # dx = g; at or below the cost's rounding no step can show one
            predicted = 0.5 * (g @ dx + lam * (h.diagonal() @ (dx * dx)))
            if np.max(np.abs(dx)) < opts.tol_dx or not predicted > np.finfo(float).eps * cost:
                termination = CONVERGED_DX
                break
            candidate = _stepped(problem, x, dx)
            # the trial point's H goes into the work array, over the damped one
            try:
                new_cost, new_g, new_h = _linearize(problem, candidate, held)
            except SingularObservationError:
                # the step put a landmark on a sensor origin: reject it
                lam *= _LAMBDA_UP
                continue
            if not np.isfinite(new_cost):
                raise SolveError(f"cost diverged to {new_cost}")
            if new_cost < cost:
                x, cost, g, h = candidate, new_cost, new_g, new_h
                problem._h, problem._work = h, problem._h
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

    dims = problem._slot_dim.tolist()
    for entry in problem._active:
        entry.block.values = x[entry.slot, :dims[entry.slot]].copy()

    return SolveReport(iterations, initial_cost, cost, termination, accepted)
