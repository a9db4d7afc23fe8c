import math

import numpy as np
import pytest

from arbor.errors import ContractError, DecompositionError, SingularObservationError
from arbor.factors import (
    MOTION,
    PRIOR_BLOCK,
    PRIOR_POSE,
    RANGE_BEARING,
    RELATIVE_POSE,
    Factor,
    FactorStack,
    MotionData,
    evaluate,
    whiten,
)
from arbor.manifold import ANGLE, Pose2, StateBlock, pose_compose
from arbor.preint import DiffDriveModel, PreintBuffer, integrate_step, interval_moments

from fdcheck import evaluate_one, numeric_jacobian, stack_of
from test_preint import as_pose

C_NOM = np.array([0.1, 0.1, 0.5])


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def integrated_motion_data(rng, n_steps=8, c_bar=C_NOM):
    buf = PreintBuffer(None, 0.0, c_bar, DiffDriveModel())
    for k in range(n_steps):
        u = tuple(rng.uniform(0.0, 0.2, 2).tolist())
        integrate_step(buf, 0.1 * (k + 1), u, ((1e-4, 0.0), (0.0, 1e-4)))
    q_delta, j_delta_c = interval_moments(buf)
    return buf.tail, q_delta, MotionData(j_delta_c, c_bar.copy())


def motion_factor(rng):
    tail, q_delta, aux = integrated_motion_data(rng)
    u = whiten(q_delta)
    # keep whitening moderate so the finite-difference oracle stays accurate
    scale = np.max(np.abs(u))
    if scale > 10.0:
        u = u * (10.0 / scale)
    return Factor(
        kind=MOTION,
        z=as_pose(tail.delta).as_array(),
        sqrt_info=u,
        constrained=[("fi", "p"), ("fi", "o"), ("fj", "p"), ("fj", "o"), ("s", "intrinsic")],
        aux=aux,
    )


def pose_blocks(pose):
    return [StateBlock(pose.p), StateBlock(np.array([pose.theta]), ANGLE)]


class TestWhiten:
    def test_identity(self):
        np.testing.assert_allclose(whiten(np.eye(3)), np.eye(3))

    def test_diagonal_hand_value(self):
        # inv(diag(4, 9)) = diag(1/4, 1/9); square roots are 1/2, 1/3
        np.testing.assert_allclose(whiten(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]))

    def test_round_trip_random_spd(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            q = random_spd(rng, int(rng.integers(1, 5)))
            u = whiten(q)
            assert np.all(np.abs(np.tril(u, -1)) == 0.0)
            np.testing.assert_allclose(u.T @ u @ q, np.eye(q.shape[0]), atol=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(DecompositionError):
            whiten(np.zeros((2, 2)))

    def test_indefinite_rejected(self):
        with pytest.raises(DecompositionError):
            whiten(np.diag([1.0, -1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(DecompositionError):
            whiten(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_infinite_rejected(self):
        with pytest.raises(DecompositionError, match="not finite"):
            whiten(np.diag([np.inf, 1.0, 1.0]))

    def test_nan_rejected(self):
        q = np.eye(3)
        q[0, 1] = np.nan
        with pytest.raises(DecompositionError, match="not finite"):
            whiten(q)


class TestMotionFactor:
    def test_zero_at_consistent_triple(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            f = motion_factor(rng)
            xi = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi))
            xj, _, _ = pose_compose(xi, Pose2(f.z[:2], f.z[2]))
            res = evaluate_one(f, [xi.p, [xi.theta], xj.p, [xj.theta], C_NOM])
            assert np.max(np.abs(res.r)) < 1e-9

    def test_whitened_perturbation_magnitude(self):
        rng = np.random.default_rng(22)
        tail, _, aux = integrated_motion_data(rng)
        sigma = np.array([0.05, 0.07, 0.02])
        f = Factor(MOTION, as_pose(tail.delta).as_array(), np.diag(1.0 / sigma),
                   constrained=[None] * 5, aux=aux)
        xi = Pose2.identity()
        xj, _, _ = pose_compose(xi, as_pose(tail.delta))
        eps = 1e-3
        res = evaluate_one(f, [xi.p, [xi.theta], xj.p + np.array([eps, 0.0]), [xj.theta], C_NOM])
        assert np.linalg.norm(res.r) == pytest.approx(eps / sigma[0], rel=1e-6)

    def test_whitening_invariance_under_scaling(self):
        rng = np.random.default_rng(23)
        tail, q_delta, aux = integrated_motion_data(rng)
        lam = 16.0
        f1 = Factor(MOTION, as_pose(tail.delta).as_array(), whiten(q_delta),
                    constrained=[None] * 5, aux=aux)
        f2 = Factor(MOTION, as_pose(tail.delta).as_array(), whiten(lam * q_delta),
                    constrained=[None] * 5, aux=aux)
        xi = Pose2(np.array([1.0, -2.0]), 0.3)
        xj = Pose2(np.array([1.5, -1.0]), 0.7)
        vals = [xi.p, [xi.theta], xj.p, [xj.theta], C_NOM * 1.02]
        r1 = evaluate_one(f1, vals).r
        r2 = evaluate_one(f2, vals).r
        np.testing.assert_allclose(r2, r1 / math.sqrt(lam), rtol=1e-9)

    def test_jacobians_match_numeric(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            f = motion_factor(rng)
            xi = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            xj = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            c = C_NOM * rng.uniform(0.9, 1.1, 3)
            blocks = [*pose_blocks(xi), *pose_blocks(xj), StateBlock(c)]
            res = evaluate_one(f, [b.values for b in blocks])
            num = numeric_jacobian(lambda v: evaluate_one(f, v).r, blocks)
            for a, n in zip(res.jacobians, num):
                assert np.max(np.abs(a - n)) < 1e-5


class TestRangeBearingFactor:
    @staticmethod
    def observe(x, ext, landmark):
        # independent forward model written out by hand
        cx, sx = math.cos(x.theta), math.sin(x.theta)
        sp = x.p + np.array([cx * ext.p[0] - sx * ext.p[1], sx * ext.p[0] + cx * ext.p[1]])
        st = x.theta + ext.theta
        d = landmark - sp
        local = np.array(
            [math.cos(st) * d[0] + math.sin(st) * d[1],
             -math.sin(st) * d[0] + math.cos(st) * d[1]]
        )
        return np.array([math.hypot(local[0], local[1]), math.atan2(local[1], local[0])])

    def _factor(self, z, sqrt_info=None):
        return Factor(RANGE_BEARING, z, sqrt_info if sqrt_info is not None else np.eye(2),
                      constrained=[None] * 5)

    def test_zero_at_consistent(self):
        f = self._factor(np.array([1.0, 0.0]))
        res = evaluate_one(f, [np.zeros(2), [0.0], np.zeros(2), [0.0], np.array([1.0, 0.0])])
        np.testing.assert_allclose(res.r, np.zeros(2), atol=1e-12)

    def test_rotated_observation_hand_value(self):
        # robot at origin facing +y sees a landmark straight ahead at range 2
        z = self.observe(Pose2(np.zeros(2), math.pi / 2), Pose2.identity(), np.array([0.0, 2.0]))
        np.testing.assert_allclose(z, [2.0, 0.0], atol=1e-15)

    def test_zero_at_random_consistent(self):
        rng = np.random.default_rng(25)
        for _ in range(1000):
            x = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi))
            ext = Pose2(rng.uniform(-0.5, 0.5, 2), rng.uniform(-np.pi, np.pi))
            landmark = x.p + rng.uniform(-6, 6, 2)
            if np.linalg.norm(landmark - x.p) < 0.5:
                continue
            z = self.observe(x, ext, landmark)
            res = evaluate_one(self._factor(z), [x.p, [x.theta], ext.p, [ext.theta], landmark])
            assert np.max(np.abs(res.r)) < 1e-9

    def test_singular_observation_rejected(self):
        f = self._factor(np.array([0.0, 0.0]))
        with pytest.raises(SingularObservationError):
            evaluate_one(f, [np.zeros(2), [0.0], np.zeros(2), [0.0], np.zeros(2)])

    def test_jacobians_match_numeric(self):
        rng = np.random.default_rng(26)
        done = 0
        while done < 200:
            x = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            ext = Pose2(rng.uniform(-0.5, 0.5, 2), rng.uniform(-1, 1))
            landmark = rng.uniform(-8, 8, 2)
            if np.linalg.norm(landmark - x.p) < 0.8:
                continue
            z = self.observe(x, ext, landmark) + rng.normal(0, 0.1, 2)
            f = self._factor(z, np.diag([4.0, 7.0]))
            blocks = [*pose_blocks(x), *pose_blocks(ext), StateBlock(landmark)]
            res = evaluate_one(f, [b.values for b in blocks])
            num = numeric_jacobian(lambda v: evaluate_one(f, v).r, blocks)
            for a, n in zip(res.jacobians, num):
                assert np.max(np.abs(a - n)) < 1e-5
            done += 1


class TestPriorFactors:
    def test_pose_prior_zero_at_measurement(self):
        z = np.array([1.0, 2.0, 0.5])
        f = Factor(PRIOR_POSE, z, np.eye(3), constrained=[None, None])
        res = evaluate_one(f, [z[:2], [z[2]]])
        np.testing.assert_allclose(res.r, np.zeros(3), atol=1e-12)

    def test_scalar_block_prior(self):
        f = Factor(PRIOR_BLOCK, np.array([0.0]), np.eye(1), constrained=[None])
        res = evaluate_one(f, [np.array([2.0])])
        np.testing.assert_allclose(res.r, [2.0])

    def test_angle_block_prior_wraps(self):
        f = Factor(PRIOR_BLOCK, np.array([math.pi - 0.1]), np.eye(1), constrained=[None])
        res = evaluate_one(f, [np.array([-math.pi + 0.1])], kinds=[ANGLE])
        assert res.r[0] == pytest.approx(0.2)

    def test_pose_prior_jacobian_matches_numeric(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            z = np.array([*rng.uniform(-5, 5, 2), rng.uniform(-3, 3)])
            u = whiten(random_spd(rng, 3))
            f = Factor(PRIOR_POSE, z, u, constrained=[None, None])
            x = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            blocks = pose_blocks(x)
            res = evaluate_one(f, [b.values for b in blocks])
            num = numeric_jacobian(lambda v: evaluate_one(f, v).r, blocks)
            for a, n in zip(res.jacobians, num):
                assert np.max(np.abs(a - n)) < 1e-5

    def test_block_prior_jacobian_matches_numeric(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            z = rng.uniform(-3, 3, n)
            u = whiten(random_spd(rng, n))
            f = Factor(PRIOR_BLOCK, z, u, constrained=[None])
            blocks = [StateBlock(rng.uniform(-3, 3, n))]
            res = evaluate_one(f, [blocks[0].values])
            num = numeric_jacobian(lambda v: evaluate_one(f, v).r, blocks)
            assert np.max(np.abs(res.jacobians[0] - num[0])) < 1e-5


class TestRelativePoseFactor:
    def test_zero_at_consistent(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            xi = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi))
            z = Pose2(rng.uniform(-2, 2, 2), rng.uniform(-np.pi, np.pi))
            xj, _, _ = pose_compose(xi, z)
            f = Factor(RELATIVE_POSE, z.as_array(), np.eye(3), constrained=[None] * 4)
            res = evaluate_one(f, [xi.p, [xi.theta], xj.p, [xj.theta]])
            assert np.max(np.abs(res.r)) < 1e-9

    def test_componentwise_hand_value(self):
        f = Factor(RELATIVE_POSE, np.array([1.0, 0.0, 0.1]), 2.0 * np.eye(3),
                   constrained=[None] * 4)
        res = evaluate_one(f, [np.zeros(2), [0.0], np.array([1.0, 0.0]), [0.0]])
        np.testing.assert_allclose(res.r, [0.0, 0.0, 0.2], atol=1e-12)

    def test_jacobians_match_numeric(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            f = Factor(RELATIVE_POSE, np.array([*rng.uniform(-2, 2, 2), rng.uniform(-3, 3)]),
                       whiten(random_spd(rng, 3)), constrained=[None] * 4)
            xi = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            xj = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
            blocks = [*pose_blocks(xi), *pose_blocks(xj)]
            res = evaluate_one(f, [b.values for b in blocks])
            num = numeric_jacobian(lambda v: evaluate_one(f, v).r, blocks)
            for a, n in zip(res.jacobians, num):
                assert np.max(np.abs(a - n)) < 1e-5


class TestNumericJacobian:
    def test_linear_residual_exact(self):
        blocks = [StateBlock(np.array([1.5]))]
        jac = numeric_jacobian(lambda v: 2.0 * v[0], blocks)
        assert abs(jac[0][0, 0] - 2.0) < 1e-9

    def test_angle_wrap_continuity(self):
        # a wrapped angle residual stays differentiable across the boundary
        z = np.array([math.pi - 0.3])
        f = Factor(PRIOR_BLOCK, z, np.eye(1), constrained=[None])
        block = StateBlock(np.array([math.pi - 1e-7]), ANGLE)
        num = numeric_jacobian(lambda v: evaluate_one(f, v, kinds=[ANGLE]).r, [block])
        res = evaluate_one(f, [block.values], kinds=[ANGLE])
        assert abs(num[0][0, 0] - res.jacobians[0][0, 0]) < 1e-5

    def test_wrong_block_count_rejected(self):
        f = Factor(PRIOR_BLOCK, np.zeros(1), np.eye(1), constrained=[None])
        with pytest.raises(ContractError):
            evaluate_one(f, [np.zeros(1), np.zeros(1)])


class TestFactorValidation:
    def test_lower_triangular_rejected(self):
        with pytest.raises(ContractError):
            Factor(PRIOR_BLOCK, np.zeros(2), np.array([[1.0, 0.0], [0.5, 1.0]]),
                   constrained=[None])

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ContractError):
            Factor(PRIOR_BLOCK, np.zeros(2), np.diag([1.0, -2.0]), constrained=[None])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            Factor("bogus", np.zeros(1), np.eye(1), constrained=[None])

    def test_nan_measurement_and_information_rejected(self):
        with pytest.raises(ContractError, match="finite"):
            Factor(PRIOR_BLOCK, [np.nan], [[np.nan]], [])

    def test_inf_diagonal_rejected(self):
        with pytest.raises(ContractError, match="finite"):
            Factor(PRIOR_BLOCK, np.zeros(2), np.diag([1.0, np.inf]), constrained=[None])

    def test_inf_heading_rejected(self):
        with pytest.raises(ContractError, match="finite"):
            Factor(PRIOR_POSE, np.array([0.0, 0.0, np.inf]), np.eye(3), constrained=[None])

    def test_nan_below_diagonal_rejected(self):
        # abs(nan) > 0 is False, so a lower-triangle test alone lets it through
        with pytest.raises(ContractError, match="finite"):
            Factor(PRIOR_BLOCK, np.zeros(2), np.array([[1.0, 0.0], [np.nan, 1.0]]),
                   constrained=[None])


class TestStacks:
    """Every kind evaluated on stacks of several rows, each row checked alone.

    A kernel that mixes up its row and residual axes still gives the right
    answer on a stack of one; these stacks have four rows.
    """

    N = 4

    @staticmethod
    def _motion(rng):
        xi = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
        xj = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
        return motion_factor(rng), [*pose_blocks(xi), *pose_blocks(xj),
                                    StateBlock(C_NOM * rng.uniform(0.9, 1.1, 3))]

    @staticmethod
    def _range_bearing(rng):
        x = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
        ext = Pose2(rng.uniform(-0.5, 0.5, 2), rng.uniform(-1, 1))
        # at least 1 m from the pose, so at least 0.29 m from the sensor
        a = rng.uniform(-np.pi, np.pi)
        landmark = x.p + rng.uniform(1.0, 6.0) * np.array([math.cos(a), math.sin(a)])
        z = np.array([rng.uniform(0.5, 6.0), rng.uniform(-3.0, 3.0)])
        f = Factor(RANGE_BEARING, z, np.diag(rng.uniform(1.0, 8.0, 2)), constrained=[None] * 5)
        return f, [*pose_blocks(x), *pose_blocks(ext), StateBlock(landmark)]

    @staticmethod
    def _prior_pose(rng):
        z = np.array([*rng.uniform(-5, 5, 2), rng.uniform(-3, 3)])
        f = Factor(PRIOR_POSE, z, whiten(random_spd(rng, 3)), constrained=[None, None])
        return f, pose_blocks(Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3)))

    @staticmethod
    def _prior_block(rng):
        z = rng.uniform(-3, 3, 2)
        f = Factor(PRIOR_BLOCK, z, whiten(random_spd(rng, 2)), constrained=[None])
        return f, [StateBlock(rng.uniform(-3, 3, 2))]

    @staticmethod
    def _prior_angle(rng):
        f = Factor(PRIOR_BLOCK, np.array([rng.uniform(-3, 3)]), np.eye(1) * rng.uniform(1, 5),
                   constrained=[None])
        return f, [StateBlock(np.array([rng.uniform(-3, 3)]), ANGLE)]

    @staticmethod
    def _relative_pose(rng):
        f = Factor(RELATIVE_POSE, np.array([*rng.uniform(-2, 2, 2), rng.uniform(-3, 3)]),
                   whiten(random_spd(rng, 3)), constrained=[None] * 4)
        xi = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
        xj = Pose2(rng.uniform(-5, 5, 2), rng.uniform(-3, 3))
        return f, [*pose_blocks(xi), *pose_blocks(xj)]

    @pytest.mark.parametrize("make", ["_motion", "_range_bearing", "_prior_pose",
                                      "_prior_block", "_prior_angle", "_relative_pose"])
    def test_rows_match_numeric(self, make):
        rng = np.random.default_rng(31)
        instances = [getattr(self, make)(rng) for _ in range(self.N)]
        factors = [f for f, _ in instances]
        kinds = [b.kind for b in instances[0][1]]
        stack, table = stack_of(factors, [[b.values for b in blocks] for _, blocks in instances],
                                kinds)
        r, j = evaluate(stack, table)
        assert r.shape[0] == j.shape[0] == self.N
        for i, (f, blocks) in enumerate(instances):
            one = evaluate_one(f, [b.values for b in blocks], kinds)
            np.testing.assert_allclose(r[i], one.r, rtol=0.0, atol=1e-12)
            num = numeric_jacobian(lambda v: evaluate_one(f, v, kinds).r, blocks)
            assert np.max(np.abs(j[i] - np.hstack(num))) < 1e-5

    def test_one_singular_row_raises(self):
        rng = np.random.default_rng(32)
        instances = [self._range_bearing(rng) for _ in range(self.N)]
        values = [[b.values for b in blocks] for _, blocks in instances]
        # row 2's landmark sits on its sensor origin (zero mount offset)
        values[2][2] = np.zeros(2)
        values[2][4] = values[2][0].copy()
        stack, table = stack_of([f for f, _ in instances], values)
        with pytest.raises(SingularObservationError):
            evaluate(stack, table)

    def test_gather_index_follows_the_stack(self):
        """Extended, cut and read from a wider table, a stack evaluates as a
        freshly built one does, bit for bit: a gather index kept across a
        change of table width reads the wrong values without any error."""
        rng = np.random.default_rng(33)
        instances = [self._range_bearing(rng) for _ in range(6)]
        factors = [f for f, _ in instances]
        values = [[b.values for b in blocks] for _, blocks in instances]
        full, table = stack_of(factors, values)
        stack, _ = stack_of(factors[:4], values[:4])

        def assert_as_fresh(rows, x):
            fresh = FactorStack(RANGE_BEARING, full.dims, full.kinds,
                                [factors[i] for i in rows], full.slots[rows], rows)
            for got, want in zip(evaluate(stack, x), evaluate(fresh, x)):
                np.testing.assert_array_equal(got, want)

        assert_as_fresh([0, 1, 2, 3], table)
        stack.extend(factors[4:], full.slots[4:], [4, 5])
        assert_as_fresh([0, 1, 2, 3, 4, 5], table)
        stack.drop([1, 4])
        assert_as_fresh([0, 2, 3, 5], table)
        # a 3-dim block widens the table: every row moves in the flat layout
        wide = np.zeros((len(table) + 1, 3))
        wide[:-1, :2] = table
        wide[-1] = rng.uniform(-1.0, 1.0, 3)
        assert_as_fresh([0, 2, 3, 5], wide)
