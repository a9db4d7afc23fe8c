import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import arbor.runner
import arbor.solver
from arbor import tree as T
from arbor.errors import ContractError, SingularObservationError, SolveError
from arbor.factors import (
    PRIOR_BLOCK,
    PRIOR_POSE,
    RANGE_BEARING,
    RELATIVE_POSE,
    Factor,
)
from arbor.manifold import ANGLE, Pose2, StateBlock, pose_compose
from arbor.runner import build_application, replay
from arbor.sim import load_scenario, simulate, write_jsonl
from arbor.solver import (
    CONVERGED_DX,
    CONVERGED_GRAD,
    SolverOptions,
    SolverProblem,
    _linearize,
    _stepped,
    _table,
    lm_solve,
    sync,
    total_cost,
)

from fdcheck import evaluate_one

DATA = Path(__file__).parent / "data"


def scalar_block_node(tr, value, fixed=False):
    """A landmark whose block ``p`` holds ``value``."""
    return tr.add_landmark(np.atleast_1d(value), fixed=fixed)


def attach_prior_block(tr, sensor, node, name, z, sqrt_info):
    frame = tr.frames()[0] if tr.frames() else tr.add_frame(0.0, Pose2.identity())
    cap = tr.add_capture(frame, 0.0, sensor)
    f = Factor(PRIOR_BLOCK, np.atleast_1d(z), np.atleast_2d(sqrt_info),
               constrained=[(node, name)])
    return tr.add_factor(cap, f)


def fresh():
    tr = T.ProblemTree()
    sensor = tr.add_sensor(None, {"intrinsic": StateBlock(np.ones(1))})
    return tr, sensor


def make_pose_frame(tr, t, pose, fixed=False):
    frame = tr.add_frame(t, pose)
    for block in tr.node(frame).state_blocks.values():
        block.fixed = fixed
    return frame


class TestSync:
    def test_empty_queue_noop(self):
        tr, _ = fresh()
        problem = SolverProblem()
        sync(problem, tr)
        n_blocks = len(problem.blocks)
        sync(problem, tr)
        assert len(problem.blocks) == n_blocks

    def test_add_block(self):
        tr, _ = fresh()
        problem = SolverProblem()
        sync(problem, tr)
        before = len(problem.blocks)
        scalar_block_node(tr, 1.0)
        sync(problem, tr)
        assert len(problem.blocks) == before + 1

    def test_removed_factor_leaves_linearization(self):
        tr, sensor = fresh()
        node = scalar_block_node(tr, 0.0)
        fid = attach_prior_block(tr, sensor, node, "p", 5.0, 1.0)
        problem = SolverProblem()
        sync(problem, tr)
        assert fid in problem.factors
        tr.remove(fid)
        sync(problem, tr)
        assert fid not in problem.factors

    def test_fabricated_notification_rejected(self):
        # an ADD_FACTOR on a block the solver was never told about
        tr, _ = fresh()
        problem = SolverProblem()
        ghost = Factor(PRIOR_BLOCK, np.zeros(1), np.eye(1),
                       constrained=[(T.NodeId(T.LANDMARK, 999), "p")])
        tr._notifications.append(T.Notification(T.ADD_FACTOR, T.NodeId(T.FACTOR, 998), ghost))
        with pytest.raises(ContractError, match="constrains unknown block"):
            sync(problem, tr)


def reference_columns(problem):
    """The column assignment, one block at a time: over the blocks in
    insertion order, each unfixed block touched by a factor takes the next
    ``dim`` columns.  Returns each block's offset (None when inactive), the
    total dim, each column's slot and component, and the active angle slots."""
    touched = {int(slot) for stack in problem.stacks.values() for slot in stack.slots.ravel()}
    offsets, col_slot, col_comp, angle_slots = {}, [], [], []
    offset = 0
    for key, entry in problem.blocks.items():
        if entry.block.fixed or entry.slot not in touched:
            offsets[key] = None
            continue
        offsets[key] = offset
        col_slot += [entry.slot] * entry.dim
        col_comp += range(entry.dim)
        if entry.kind == ANGLE:
            angle_slots.append(entry.slot)
        offset += entry.dim
    return offsets, offset, col_slot, col_comp, angle_slots


class TestSyncMirror:
    """After every ``sync`` the solver holds exactly the tree's live blocks,
    each in its own slot, and factors, and each stack row's slots are its
    factor's blocks.  The columns are those of a per-block reference loop:
    byte-identical estimates depend on their order."""

    @staticmethod
    def assert_mirrors(tr, problem):
        offsets, total_dim, col_slot, col_comp, angle_slots = reference_columns(problem)
        assert {key: entry.offset for key, entry in problem.blocks.items()} == offsets
        assert problem.total_dim == total_dim
        assert problem._col_slot.tolist() == col_slot
        assert problem._col_comp.tolist() == col_comp
        assert problem._angle_slots.tolist() == angle_slots
        assert set(problem.blocks) == {(nid, name) for nid, node in tr._nodes.items()
                                       for name in node.state_blocks}
        assert set(problem.factors) == {nid for nid in tr._nodes if nid.kind == T.FACTOR}
        assert len({entry.slot for entry in problem.blocks.values()}) == len(problem.blocks)
        assert sum(stack.n for stack in problem.stacks.values()) == len(problem.factors)
        for stack in problem.stacks.values():
            for index, slots in zip(stack.ids, stack.slots):
                factor = tr.node(T.NodeId(T.FACTOR, int(index))).payload
                assert list(slots) == [problem.blocks[c].slot for c in factor.constrained]
        for key, entry in problem.blocks.items():
            assert entry.block is tr.block(*key)
            assert entry.offset is None or not entry.block.fixed
        assert tr.check_consistency() == []

    @pytest.mark.parametrize("variant", [T.FIX_OLDEST, T.REMOVE_WITH_PRIOR])
    def test_randomized_sequences(self, variant):
        rng = np.random.default_rng(71)
        tr = T.ProblemTree()
        drains = []
        real_drain = tr.drain_notifications

        def drain():
            drains.append(real_drain())
            return drains[-1]

        tr.drain_notifications = drain
        sensor = tr.add_sensor(None, {"ext_p": StateBlock(np.zeros(2)),
                                      "ext_o": StateBlock(np.zeros(1), ANGLE)})
        policy = T.WindowPolicy(variant, 4)
        problem = SolverProblem()
        for step in range(400):
            frames = tr.frames()
            landmarks = tr.children(tr.map_id, T.LANDMARK)
            frame = frames[int(rng.integers(len(frames)))] if frames else None
            roll = rng.uniform()
            if roll < 0.2 or frame is None:
                tr.add_frame(float(step), Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3)))
                tr.enforce_window(policy)
            elif roll < 0.3:
                tr.add_landmark(rng.uniform(-5, 5, 2))
            elif roll < 0.4:
                name = f"v{step}"
                tr.add_block_to_frame(frame, name, StateBlock(rng.uniform(-1, 1, 1)))
                tr.add_factor(tr.add_capture(frame, float(step), sensor), Factor(
                    PRIOR_BLOCK, np.zeros(1), np.eye(1), constrained=[(frame, name)]))
            elif roll < 0.6 and landmarks:
                lm = landmarks[int(rng.integers(len(landmarks)))]
                tr.add_factor(tr.add_capture(frame, float(step), sensor), Factor(
                    RANGE_BEARING, rng.uniform(0.5, 3.0, 2), np.eye(2),
                    constrained=[(frame, "p"), (frame, "o"), (sensor, "ext_p"),
                                 (sensor, "ext_o"), (lm, "p")]))
            elif roll < 0.7:
                other = frames[int(rng.integers(len(frames)))]
                tr.add_factor(tr.add_capture(frame, float(step), sensor), Factor(
                    RELATIVE_POSE, rng.uniform(-1, 1, 3), np.eye(3),
                    constrained=[(other, "p"), (other, "o"), (frame, "p"), (frame, "o")]))
            elif roll < 0.75:
                tr.add_pose_prior(frame, sensor, np.eye(3))
            elif roll < 0.85:
                tr.remove(frame)
            elif roll < 0.92 and landmarks:
                tr.remove(landmarks[int(rng.integers(len(landmarks)))])
            else:
                factors = [n for n in tr._nodes if n.kind == T.FACTOR]
                if factors:
                    tr.remove(factors[int(rng.integers(len(factors)))])
            if rng.uniform() < 0.3:
                sync(problem, tr)
                self.assert_mirrors(tr, problem)
        sync(problem, tr)
        self.assert_mirrors(tr, problem)
        assert problem.factors and problem.stacks
        # some drain holds both the add and the remove of one target
        assert any({n.target for n in notes if n.action in (T.ADD_BLOCK, T.ADD_FACTOR)}
                   & {n.target for n in notes if n.action in (T.REMOVE_BLOCK, T.REMOVE_FACTOR)}
                   for notes in drains)
        if variant == T.FIX_OLDEST:
            assert any(tr.block(*key).fixed for key in problem.blocks)
        else:
            assert len(tr.frames()) <= 4


class TestTotalCost:
    def test_zero_residuals(self):
        tr, sensor = fresh()
        node = scalar_block_node(tr, 5.0)
        attach_prior_block(tr, sensor, node, "p", 5.0, 1.0)
        problem = SolverProblem()
        sync(problem, tr)
        assert total_cost(problem, _table(problem)) == pytest.approx(0.0)

    def test_hand_value(self):
        # residual (3, 4): cost = ||r||^2 / 2 = 25/2
        tr, sensor = fresh()
        node = tr.add_landmark(np.array([3.0, 4.0]))
        attach_prior_block(tr, sensor, node, "p", np.zeros(2), np.eye(2))
        problem = SolverProblem()
        sync(problem, tr)
        assert total_cost(problem, _table(problem)) == pytest.approx(12.5)

    def test_block_order_invariance(self):
        tr, sensor = fresh()
        a = scalar_block_node(tr, 1.0)
        b = scalar_block_node(tr, 2.0)
        attach_prior_block(tr, sensor, a, "p", 0.0, 1.0)
        attach_prior_block(tr, sensor, b, "p", 0.0, 2.0)
        problem = SolverProblem()
        sync(problem, tr)
        cost = total_cost(problem, _table(problem))
        assert cost == pytest.approx(0.5 * (1.0 + 16.0))


class TestApplyStep:
    """Retraction of a tangent step onto the value table (``_stepped``)."""

    def _problem(self):
        tr, sensor = fresh()
        node = scalar_block_node(tr, 0.0)
        frame = make_pose_frame(tr, 0.0, Pose2(np.zeros(2), math.pi - 0.1))
        fixed = scalar_block_node(tr, 7.0, fixed=True)
        attach_prior_block(tr, sensor, node, "p", 5.0, 1.0)
        cap = tr.add_capture(frame, 0.0, sensor)
        pose_prior = Factor(PRIOR_POSE, np.array([0.0, 0.0, math.pi - 0.1]), np.eye(3),
                            constrained=[(frame, "p"), (frame, "o")])
        tr.add_factor(cap, pose_prior)
        fixed_prior = Factor(PRIOR_BLOCK, np.zeros(1), np.eye(1),
                             constrained=[(fixed, "p")])
        tr.add_factor(cap, fixed_prior)
        problem = SolverProblem()
        sync(problem, tr)
        return tr, problem, node, frame, fixed

    def test_zero_step(self):
        tr, problem, node, _, _ = self._problem()
        before = _table(problem)
        after = _stepped(problem, before, np.zeros(problem.total_dim))
        np.testing.assert_array_equal(after, before)

    def test_angle_wraps(self):
        tr, problem, _, frame, _ = self._problem()
        entry = problem.blocks[(frame, "o")]
        dx = np.zeros(problem.total_dim)
        dx[entry.offset] = 0.2
        x = _stepped(problem, _table(problem), dx)
        assert x[entry.slot, 0] == pytest.approx(-math.pi + 0.1)

    def test_fixed_block_bit_identical(self):
        tr, problem, _, _, fixed = self._problem()
        slot = problem.blocks[(fixed, "p")].slot
        before = _table(problem)
        after = _stepped(problem, before, np.ones(problem.total_dim))
        np.testing.assert_array_equal(after[slot], before[slot])


class TestSolverOptions:
    @pytest.mark.parametrize("kwargs", [
        {"lambda_init": 0.0},
        {"lambda_init": -1e-4},
        {"lambda_init": math.inf},
        {"lambda_init": math.nan},
        {"max_iterations": 0},
        {"tol_dx": -1e-10},
        {"tol_grad": -1e-12},
    ])
    def test_bad_options_raise(self, kwargs):
        with pytest.raises(ContractError):
            SolverOptions(**kwargs)


class TestLmSolve:
    def test_linear_prior_single_step(self):
        # quadratic problem: one damped step lands at the minimum up to the
        # 1e-4 damping bias
        tr, sensor = fresh()
        node = scalar_block_node(tr, 0.0)
        attach_prior_block(tr, sensor, node, "p", 5.0, 1.0)
        problem = SolverProblem(SolverOptions(max_iterations=1))
        sync(problem, tr)
        report = lm_solve(problem)
        assert tr.block(node, "p").values[0] == pytest.approx(5.0, abs=1e-3)
        assert report.accepted_steps == 1
        assert report.final_cost < 1e-6 * report.initial_cost

    def test_two_priors_average(self):
        tr, sensor = fresh()
        node = scalar_block_node(tr, 0.3)
        attach_prior_block(tr, sensor, node, "p", 0.0, 1.0)
        attach_prior_block(tr, sensor, node, "p", 2.0, 1.0)
        problem = SolverProblem(SolverOptions(max_iterations=30))
        sync(problem, tr)
        lm_solve(problem)
        assert tr.block(node, "p").values[0] == pytest.approx(1.0, abs=1e-9)

    def test_linear_problem_matches_dense_oracle(self):
        rng = np.random.default_rng(50)
        tr, sensor = fresh()
        nodes = []
        expected = []
        for _ in range(5):
            n = int(rng.integers(1, 4))
            z_center = rng.uniform(-2, 2, n)
            # unit-scale initial offset: two damped iterations contract the
            # error by 1e-4 * 1e-5, i.e. below 1e-9
            node = tr.add_landmark(z_center + rng.uniform(-0.5, 0.5, n))
            us, zs = [], []
            for _ in range(int(rng.integers(1, 4))):
                a = rng.normal(size=(n, n))
                u = np.linalg.cholesky(a @ a.T + n * np.eye(n)).T
                z = z_center + rng.uniform(-0.3, 0.3, n)
                attach_prior_block(tr, sensor, node, "p", z, u)
                us.append(u)
                zs.append(z)
            # closed-form weighted mean: (sum U^T U)^-1 sum U^T U z
            w = sum(u.T @ u for u in us)
            b = sum((u.T @ u) @ z for u, z in zip(us, zs))
            expected.append(np.linalg.solve(w, b))
            nodes.append(node)
        problem = SolverProblem(SolverOptions(max_iterations=2, tol_dx=1e-14))
        sync(problem, tr)
        report = lm_solve(problem)
        assert report.iterations <= 2
        for node, want in zip(nodes, expected):
            np.testing.assert_allclose(tr.block(node, "p").values, want, atol=1e-9)

    def test_nonlinear_two_frames(self):
        tr, sensor = fresh()
        xi = Pose2(np.array([0.5, -0.2]), 0.4)
        z = Pose2(np.array([1.0, 0.3]), 0.6)
        truth, _, _ = pose_compose(xi, z)
        f_i = make_pose_frame(tr, 0.0, xi)
        f_j = make_pose_frame(tr, 1.0, Pose2(np.array([0.0, 0.0]), 0.0))
        cap = tr.add_capture(f_i, 0.0, sensor)
        tr.add_factor(cap, Factor(
            PRIOR_POSE, xi.as_array(), np.eye(3) * 100.0,
            constrained=[(f_i, "p"), (f_i, "o")]))
        tr.add_factor(cap, Factor(
            RELATIVE_POSE, z.as_array(), np.eye(3) * 10.0,
            constrained=[(f_i, "p"), (f_i, "o"), (f_j, "p"), (f_j, "o")]))
        problem = SolverProblem(SolverOptions(max_iterations=50, tol_dx=1e-14))
        sync(problem, tr)
        report = lm_solve(problem)
        np.testing.assert_allclose(tr.frame_pose(f_j).as_array(), truth.as_array(),
                                   atol=1e-8)
        assert report.final_cost < 1e-12

    def test_gauge_freedom_raises(self):
        tr, sensor = fresh()
        f_i = make_pose_frame(tr, 0.0, Pose2.identity())
        f_j = make_pose_frame(tr, 1.0, Pose2(np.array([1.0, 0.0]), 0.0))
        cap = tr.add_capture(f_i, 0.0, sensor)
        tr.add_factor(cap, Factor(
            RELATIVE_POSE, np.array([1.0, 0.0, 0.0]), np.eye(3),
            constrained=[(f_i, "p"), (f_i, "o"), (f_j, "p"), (f_j, "o")]))
        problem = SolverProblem()
        sync(problem, tr)
        with pytest.raises(SolveError, match="numerically singular"):
            lm_solve(problem)

    def test_gauge_fixed_by_fixing_first_frame(self):
        tr, sensor = fresh()
        f_i = make_pose_frame(tr, 0.0, Pose2.identity(), fixed=True)
        f_j = make_pose_frame(tr, 1.0, Pose2(np.array([0.9, 0.1]), 0.05))
        cap = tr.add_capture(f_i, 0.0, sensor)
        tr.add_factor(cap, Factor(
            RELATIVE_POSE, np.array([1.0, 0.0, 0.0]), np.eye(3),
            constrained=[(f_i, "p"), (f_i, "o"), (f_j, "p"), (f_j, "o")]))
        problem = SolverProblem()
        sync(problem, tr)
        lm_solve(problem)
        np.testing.assert_allclose(tr.frame_pose(f_j).as_array(), [1.0, 0.0, 0.0],
                                   atol=1e-8)
        np.testing.assert_allclose(tr.frame_pose(f_i).as_array(), [0.0, 0.0, 0.0])

    def test_fixed_and_untouched_blocks_never_move(self):
        tr, sensor = fresh()
        node = scalar_block_node(tr, 0.0)
        fixed = scalar_block_node(tr, 7.0, fixed=True)
        untouched = scalar_block_node(tr, 3.0)
        attach_prior_block(tr, sensor, node, "p", 5.0, 1.0)
        attach_prior_block(tr, sensor, fixed, "p", 0.0, 1.0)
        problem = SolverProblem()
        sync(problem, tr)
        lm_solve(problem)
        assert tr.block(fixed, "p").values[0] == 7.0
        assert tr.block(untouched, "p").values[0] == 3.0

    def test_non_finite_initial_cost_raises(self):
        tr, sensor = fresh()
        node = scalar_block_node(tr, 1e200)
        attach_prior_block(tr, sensor, node, "p", 0.0, 1e200)
        problem = SolverProblem()
        sync(problem, tr)
        # the start's linearization overflows in JᵀJ before the cost is checked
        with np.errstate(over="ignore"), \
                pytest.raises(SolveError, match="initial cost is not finite"):
            lm_solve(problem)
        assert tr.block(node, "p").values[0] == 1e200

    def test_inf_in_normal_matrix_raises(self):
        # a prior of sqrt_info 1e200 sits exactly at its value: the cost is
        # 0, but its information overflows to inf on H's diagonal
        tr, sensor = fresh()
        stiff = scalar_block_node(tr, 5.0)
        attach_prior_block(tr, sensor, stiff, "p", 5.0, 1e200)
        node = scalar_block_node(tr, 1.0)
        attach_prior_block(tr, sensor, node, "p", 0.0, 1.0)
        problem = SolverProblem()
        sync(problem, tr)
        with np.errstate(over="ignore"), pytest.raises(SolveError, match="numerically singular"):
            lm_solve(problem)

    def test_nan_in_normal_matrix_raises(self):
        # two priors at their value whose inf off-diagonal information terms
        # have opposite signs: they sum to NaN in H
        tr, sensor = fresh()
        node = tr.add_landmark(np.array([1.0, 2.0]))
        for off in (1e200, -1e200):
            attach_prior_block(tr, sensor, node, "p", np.array([1.0, 2.0]),
                               np.array([[1e200, off], [0.0, 1.0]]))
        problem = SolverProblem()
        sync(problem, tr)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SolveError, match="numerically singular"):
            lm_solve(problem)

    def test_nothing_to_solve(self):
        tr, _ = fresh()
        scalar_block_node(tr, 0.0)
        problem = SolverProblem()
        sync(problem, tr)
        with pytest.raises(ContractError):
            lm_solve(problem)

    def test_report_costs_monotone(self):
        tr, sensor = fresh()
        node = scalar_block_node(tr, 10.0)
        attach_prior_block(tr, sensor, node, "p", 0.0, 1.0)
        attach_prior_block(tr, sensor, node, "p", 1.0, 3.0)
        problem = SolverProblem()
        sync(problem, tr)
        report = lm_solve(problem)
        assert report.final_cost <= report.initial_cost
        assert report.termination in (CONVERGED_DX, CONVERGED_GRAD)


def fill_in(problem):
    """Fraction of off-diagonal pairs of active blocks that some factor couples."""
    n_blocks = sum(e.offset is not None for e in problem.blocks.values())
    pairs = set()
    for factor in problem.factors.values():
        offsets = {problem.blocks[tuple(c)].offset for c in factor.constrained} - {None}
        pairs.update(combinations(sorted(offsets), 2))
    return len(pairs) / (n_blocks * (n_blocks - 1) // 2)


class TestFillIn:
    def test_chain_is_sparse(self):
        # a chain of relative poses leaves most off-diagonal block pairs empty
        tr, sensor = fresh()
        frames = [make_pose_frame(tr, float(k), Pose2(np.array([float(k), 0.0]), 0.0))
                  for k in range(6)]
        cap = tr.add_capture(frames[0], 0.0, sensor)
        tr.add_factor(cap, Factor(
            PRIOR_POSE, np.zeros(3), np.eye(3),
            constrained=[(frames[0], "p"), (frames[0], "o")]))
        for a, b in zip(frames, frames[1:]):
            capn = tr.add_capture(b, tr.node(b).timestamp, sensor)
            tr.add_factor(capn, Factor(
                RELATIVE_POSE, np.array([1.0, 0.0, 0.0]), np.eye(3),
                constrained=[(a, "p"), (a, "o"), (b, "p"), (b, "o")]))
        problem = SolverProblem()
        sync(problem, tr)
        lm_solve(problem)
        # 12 blocks: 6 within-frame pairs plus 4 per relative pose
        assert fill_in(problem) == 26 / 66
        for name in ("p", "o"):
            tr.block(frames[0], name).fixed = True
        sync(problem, tr)
        # 10 blocks: 5 within-frame pairs plus 4 per relative pose not at frame 0
        assert fill_in(problem) == 21 / 45


class TestSingularTrialStep:
    @staticmethod
    def _landmark_problem(start):
        # a fixed pose and sensor observe a free landmark at range 1 straight
        # ahead; a stiff prior pulls the landmark to -lambda_init * start, so
        # the first damped step from ``start`` lands on the sensor origin
        tr, sensor = fresh()
        rb = tr.add_sensor(None, {
            "ext_p": StateBlock(np.zeros(2), fixed=True),
            "ext_o": StateBlock(np.zeros(1), ANGLE, fixed=True),
        })
        frame = make_pose_frame(tr, 0.0, Pose2.identity(), fixed=True)
        landmark = tr.add_landmark(np.array(start, dtype=float))
        cap = tr.add_capture(frame, 0.0, rb)
        tr.add_factor(cap, Factor(
            RANGE_BEARING, np.array([1.0, 0.0]), 1e-3 * np.eye(2),
            constrained=[(frame, "p"), (frame, "o"), (rb, "ext_p"), (rb, "ext_o"),
                         (landmark, "p")]))
        attach_prior_block(tr, sensor, landmark, "p", np.array([-1e-4, 0.0]), 1e3 * np.eye(2))
        problem = SolverProblem(SolverOptions(lambda_init=1e-4))
        sync(problem, tr)
        return tr, problem

    def test_singular_trial_step_rejected(self, monkeypatch):
        tr, problem = self._landmark_problem([1.0, 0.0])
        real = arbor.solver._linearize
        calls, singular = [], []

        def spy(problem, values):
            calls.append(None)
            try:
                return real(problem, values)
            except SingularObservationError:
                singular.append(len(calls))
                raise

        monkeypatch.setattr(arbor.solver, "_linearize", spy)
        report = lm_solve(problem)
        # call 1 linearizes the initial point, call 2 the first trial step
        assert singular == [2]
        assert report.accepted_steps >= 1
        assert report.final_cost <= report.initial_cost

    def test_singular_initial_cost_raises(self):
        tr, problem = self._landmark_problem([0.0, 0.0])
        with pytest.raises(SingularObservationError):
            lm_solve(problem)


class TestOneEvaluationPerIterate:
    def test_each_trial_point_evaluated_once(self, monkeypatch):
        # a free landmark seen once from a fixed pose, far from where the
        # measurement puts it: the solve accepts some steps and rejects others
        tr = T.ProblemTree()
        rb = tr.add_sensor(None, {
            "ext_p": StateBlock(np.zeros(2), fixed=True),
            "ext_o": StateBlock(np.zeros(1), ANGLE, fixed=True),
        })
        frame = make_pose_frame(tr, 0.0, Pose2.identity(), fixed=True)
        landmark = tr.add_landmark(np.array([-3.0, 0.1]))
        cap = tr.add_capture(frame, 0.0, rb)
        tr.add_factor(cap, Factor(
            RANGE_BEARING, np.array([1.0, 0.0]), np.eye(2),
            constrained=[(frame, "p"), (frame, "o"), (rb, "ext_p"), (rb, "ext_o"),
                         (landmark, "p")]))
        problem = SolverProblem()
        sync(problem, tr)
        real_evaluate, real_stepped = arbor.solver.evaluate, arbor.solver._stepped
        calls, trials = [], []

        def evaluate_spy(stack, x, jacobians=True):
            calls.append((x, jacobians))
            return real_evaluate(stack, x, jacobians)

        def stepped_spy(*args):
            trials.append(real_stepped(*args))
            return trials[-1]

        monkeypatch.setattr(arbor.solver, "evaluate", evaluate_spy)
        monkeypatch.setattr(arbor.solver, "_stepped", stepped_spy)
        start = _table(problem)
        report = lm_solve(problem)
        assert 1 <= report.accepted_steps < len(trials)
        np.testing.assert_allclose(tr.block(landmark, "p").values, [1.0, 0.0], atol=1e-9)
        # one linearization of the start, which also gives the initial cost,
        # and one of each trial point; no residual-only sweep
        assert len(problem.stacks) == 1
        assert [j for _, j in calls] == [True] * (1 + len(trials))
        np.testing.assert_array_equal(calls[0][0], start)
        assert all(x is t for (x, _), t in zip(calls[1:], trials, strict=True))


class TestRoundingFloorStop:
    def test_converged_problem_tries_no_trial_point(self, monkeypatch):
        # two disagreeing relative-pose measurements leave a residual at the
        # optimum; once there, no step's predicted decrease exceeds the cost's
        # rounding, so a re-solve with both tolerances at 0 stops at its start
        tr, sensor = fresh()
        xi = Pose2(np.array([0.5, -0.2]), 0.4)
        f_i = make_pose_frame(tr, 0.0, xi)
        f_j = make_pose_frame(tr, 1.0, Pose2(np.array([1.0, 1.0]), 1.0))
        cap = tr.add_capture(f_i, 0.0, sensor)
        tr.add_factor(cap, Factor(
            PRIOR_POSE, xi.as_array(), np.eye(3) * 100.0,
            constrained=[(f_i, "p"), (f_i, "o")]))
        for z in ([1.0, 0.3, 0.6], [1.1, 0.2, 0.65]):
            tr.add_factor(cap, Factor(
                RELATIVE_POSE, np.array(z), np.eye(3) * 10.0,
                constrained=[(f_i, "p"), (f_i, "o"), (f_j, "p"), (f_j, "o")]))
        problem = SolverProblem(SolverOptions(max_iterations=50))
        sync(problem, tr)
        lm_solve(problem)
        converged = {key: e.block.values.copy() for key, e in problem.blocks.items()}

        real = arbor.solver._linearize
        calls = []

        def spy(problem, x):
            calls.append(None)
            return real(problem, x)

        monkeypatch.setattr(arbor.solver, "_linearize", spy)
        problem.options = SolverOptions(max_iterations=50, tol_dx=0.0, tol_grad=0.0)
        report = lm_solve(problem)
        assert report.termination == CONVERGED_DX
        assert report.final_cost > 0.0
        assert (report.iterations, report.accepted_steps, len(calls)) == (1, 0, 1)
        for key, entry in problem.blocks.items():
            assert np.array_equal(entry.block.values, converged[key])


def per_factor_oracle(problem, values):
    """g, H and cost by a plain loop over the factors, one at a time, at
    ``values``, a mapping of block key to values."""
    n = problem.total_dim
    g, h, cost = np.zeros(n), np.zeros((n, n)), 0.0
    for factor in problem.factors.values():
        entries = [problem.blocks[tuple(c)] for c in factor.constrained]
        res = evaluate_one(factor, [values[tuple(c)] for c in factor.constrained],
                           [e.kind for e in entries])
        cost += 0.5 * float(res.r @ res.r)
        active = [(e.offset + np.arange(e.dim), j)
                  for e, j in zip(entries, res.jacobians) if e.offset is not None]
        for cols_i, j_i in active:
            g[cols_i] -= j_i.T @ res.r
            for cols_j, j_j in active:
                h[np.ix_(cols_i, cols_j)] += j_i.T @ j_j
    return g, h, cost


class TestAssemblyOracle:
    """Stacked cost and normal equations against the per-factor oracle."""

    @staticmethod
    def _replayed_problem(config, monkeypatch, tmp_path, duration=15.0):
        scenario = load_scenario((DATA / "window_scenario.yaml").read_text())
        scenario.duration = duration
        captures, _ = simulate(scenario)
        log = tmp_path / "log.jsonl"
        write_jsonl(captures, log)
        synced = []
        real_sync = arbor.runner.sync

        def spy(problem, tree):
            synced.append(problem)
            real_sync(problem, tree)

        monkeypatch.setattr(arbor.runner, "sync", spy)
        estimates, _ = replay(build_application(DATA / config), log)
        return synced[-1], len(estimates)

    @staticmethod
    def _check_against_oracle(problem):
        # away from the optimum, so that the gradient is not just round-off
        rng = np.random.default_rng(60)
        x = _stepped(problem, _table(problem), rng.normal(0.0, 0.05, problem.total_dim))
        values = {key: x[e.slot, :e.dim] for key, e in problem.blocks.items()}
        cost, g, h = _linearize(problem, x)
        g_ref, h_ref, cost_ref = per_factor_oracle(problem, values)
        assert np.max(np.abs(g - g_ref)) <= 1e-9 * np.max(np.abs(g_ref))
        assert np.max(np.abs(h - h_ref)) <= 1e-9 * np.max(np.abs(h_ref))
        assert cost == pytest.approx(cost_ref, rel=1e-9)
        assert total_cost(problem, x) == pytest.approx(cost_ref, rel=1e-9)
        # the same sum in the same order, so LM accepts the same steps
        assert total_cost(problem, x) == cost

    def test_fix_oldest_mixes_fixed_and_active_columns(self, monkeypatch, tmp_path):
        problem, _ = self._replayed_problem("window_fix_config.yaml", monkeypatch, tmp_path)
        mixes = set()
        for factor in problem.factors.values():
            active = [problem.blocks[tuple(c)].offset is not None for c in factor.constrained]
            mixes.add((any(active), all(active)))
        # some factors mix fixed and active columns, some are all fixed
        assert (True, False) in mixes and (False, False) in mixes
        self._check_against_oracle(problem)

    def test_after_remove_with_prior(self, monkeypatch, tmp_path):
        problem, keyframes = self._replayed_problem("window_remove_config.yaml",
                                                    monkeypatch, tmp_path)
        frames = {node for node, _ in problem.blocks if node.kind == T.FRAME}
        assert len(frames) < keyframes
        self._check_against_oracle(problem)
