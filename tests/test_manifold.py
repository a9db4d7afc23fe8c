import math

import numpy as np
import pytest

from arbor.errors import ContractError
from arbor.factors import _pose_between
from arbor.manifold import (
    ANGLE,
    EUCLIDEAN,
    StateBlock,
    between,
    compose,
    normalize_angle,
    wrap_angles,
)

from fdcheck import block_plus, central_diff, pose_between, pose_compose, wrap_angle

RNG = np.random.default_rng(20240811)


def random_pose(rng=RNG):
    return (*rng.uniform(-10, 10, 2).tolist(), rng.uniform(-np.pi, np.pi))


def random_delta(rng=RNG):
    return (*rng.uniform(-10, 10, 2).tolist(), rng.uniform(-np.pi, np.pi))


class TestNormalizeAngle:
    def test_zero(self):
        assert normalize_angle(0.0) == 0.0

    def test_pi_boundary_included(self):
        assert normalize_angle(math.pi) == math.pi

    def test_three_pi(self):
        # 3*pi - 2*pi = pi, still in range
        assert normalize_angle(3 * math.pi) == pytest.approx(math.pi)

    def test_minus_pi_maps_to_pi(self):
        assert normalize_angle(-math.pi) == pytest.approx(math.pi)

    def test_idempotent(self):
        for a in RNG.uniform(-50, 50, 200):
            once = normalize_angle(a)
            assert -math.pi < once <= math.pi
            assert normalize_angle(once) == pytest.approx(once, abs=1e-15)

    def test_congruence_mod_tau(self):
        for a in RNG.uniform(-50, 50, 200):
            r = normalize_angle(a)
            assert math.remainder(r - a, math.tau) == pytest.approx(0.0, abs=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError, match="angle must be finite"):
            normalize_angle(float("nan"))
        with pytest.raises(ContractError, match="angle must be finite"):
            normalize_angle(float("inf"))


class TestWrapAngles:
    def test_matches_scalar_wrap_bit_for_bit(self):
        rng = np.random.default_rng(9)
        edges = [k * math.pi for k in range(-4, 5)]
        a = np.concatenate([
            rng.uniform(-5 * math.pi, 5 * math.pi, 20000),
            edges,
            [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)],
        ])
        assert wrap_angles(a).tolist() == [normalize_angle(v) for v in a]

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError, match="angles must be finite"):
            wrap_angles(np.array([0.0, float("nan")]))


class TestPoseCompose:
    def test_identity_left(self):
        out, _, _ = pose_compose((0.0, 0.0, 0.0), (1.0, 2.0, 0.3))
        np.testing.assert_allclose(np.array(out), [1.0, 2.0, 0.3])

    def test_quarter_turn(self):
        # R(pi/2) @ (1, 0) = (0, 1) by hand
        out, _, _ = pose_compose((1.0, 0.0, math.pi / 2), (1.0, 0.0, 0.0))
        np.testing.assert_allclose(np.array(out), [1.0, 1.0, math.pi / 2], atol=1e-15)

    def test_jacobians_match_finite_differences(self):
        for _ in range(1000):
            a, b = random_pose(), random_delta()
            _, j_a, j_b = pose_compose(a, b)

            def f_a(v, b=b):
                out, _, _ = pose_compose(tuple(v), b)
                return np.array(out)

            def f_b(v, a=a):
                out, _, _ = pose_compose(a, tuple(v))
                return np.array(out)

            assert np.max(np.abs(j_a - central_diff(f_a, np.array(a)))) < 1e-5
            assert np.max(np.abs(j_b - central_diff(f_b, np.array(b)))) < 1e-5

    def test_associativity_as_deltas(self):
        for _ in range(200):
            a, b, c = random_delta(), random_delta(), random_delta()
            ab, _, _ = pose_compose(a, b)
            left, _, _ = pose_compose(ab, c)
            bc, _, _ = pose_compose(b, c)
            right, _, _ = pose_compose(a, bc)
            np.testing.assert_allclose(left[:2], right[:2], atol=1e-12)
            assert abs(normalize_angle(left[2] - right[2])) < 1e-12


class TestPoseBetween:
    def test_identity_reference(self):
        d, _, _ = pose_between((0.0, 0.0, 0.0), (1.0, 2.0, math.pi / 4))
        np.testing.assert_allclose(np.array(d), [1.0, 2.0, math.pi / 4])

    def test_hand_rotated(self):
        # difference (0, 1) rotated by -pi/2 gives (1, 0)
        d, _, _ = pose_between((1.0, 1.0, math.pi / 2), (1.0, 2.0, math.pi / 2))
        np.testing.assert_allclose(np.array(d), [1.0, 0.0, 0.0], atol=1e-15)

    def test_round_trip_with_compose(self):
        for _ in range(1000):
            xi, xj = random_pose(), random_pose()
            d, _, _ = pose_between(xi, xj)
            back, _, _ = pose_compose(xi, d)
            np.testing.assert_allclose(back[:2], xj[:2], atol=1e-12)
            assert abs(normalize_angle(back[2] - xj[2])) < 1e-12

    def test_jacobians_match_finite_differences(self):
        for _ in range(1000):
            xi, xj = random_pose(), random_pose()
            _, j_xi, j_xj = pose_between(xi, xj)

            def f_xi(v, xj=xj):
                d, _, _ = pose_between(tuple(v), xj)
                return np.array(d)

            def f_xj(v, xi=xi):
                d, _, _ = pose_between(xi, tuple(v))
                return np.array(d)

            assert np.max(np.abs(j_xi - central_diff(f_xi, np.array(xi)))) < 1e-5
            assert np.max(np.abs(j_xj - central_diff(f_xj, np.array(xj)))) < 1e-5


class TestFloatAndRowWiseForms:
    """``compose`` and ``between`` on floats invert each other, and
    ``between`` matches the row-wise form the factor kernels use."""

    @staticmethod
    def _poses(rng, n):
        return np.column_stack([rng.uniform(-10, 10, (n, 2)), rng.uniform(-np.pi, np.pi, n)])

    def test_between_inverts_compose(self):
        rng = np.random.default_rng(25)
        for a, b in zip(self._poses(rng, 1000).tolist(), self._poses(rng, 1000).tolist()):
            back = between(a, compose(a, b))
            np.testing.assert_allclose(back[:2], b[:2], rtol=0, atol=1e-12)
            assert abs(normalize_angle(back[2] - b[2])) < 1e-12

    def test_between_matches_row_wise(self):
        rng = np.random.default_rng(26)
        a, b = self._poses(rng, 1000), self._poses(rng, 1000)
        rows = _pose_between(a.T, b.T)
        floats = np.array([between(x, y) for x, y in zip(a.tolist(), b.tolist())])
        np.testing.assert_allclose(rows[:, :2], floats[:, :2], rtol=0, atol=1e-12)
        assert np.max(np.abs(wrap_angles(rows[:, 2] - floats[:, 2]))) < 1e-12


class TestStateBlock:
    def test_angle_normalized_on_construction(self):
        b = StateBlock(np.array([4.0]), ANGLE)
        assert b.values[0] == pytest.approx(wrap_angle(4.0))

    def test_angle_must_be_scalar(self):
        with pytest.raises(ContractError):
            StateBlock(np.array([1.0, 2.0]), ANGLE)

    def test_euclidean_rejects_nonfinite(self):
        with pytest.raises(ContractError, match="state block values must be finite"):
            StateBlock(np.array([1.0, float("nan")]))

    def test_block_plus_euclidean(self):
        b = StateBlock(np.array([1.0, 2.0]))
        np.testing.assert_allclose(block_plus(b, np.zeros(2)), [1.0, 2.0])
        np.testing.assert_allclose(block_plus(StateBlock(np.array([0.0])), [3.0]), [3.0])

    def test_block_plus_angle_wraps(self):
        b = StateBlock(np.array([math.pi]), ANGLE)
        out = block_plus(b, np.array([0.2]))
        assert out[0] == pytest.approx(-math.pi + 0.2)

    def test_block_plus_dimension_mismatch(self):
        with pytest.raises(ContractError):
            block_plus(StateBlock(np.array([1.0, 2.0])), np.zeros(3))

    def test_block_plus_does_not_mutate(self):
        b = StateBlock(np.array([1.0, 2.0]))
        block_plus(b, np.ones(2))
        np.testing.assert_allclose(b.values, [1.0, 2.0])


def test_kinds_exported():
    assert EUCLIDEAN == "euclidean"
    assert ANGLE == "angle"
