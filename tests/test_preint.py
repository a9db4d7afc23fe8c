import dataclasses
import math

import numpy as np
import pytest

from arbor.errors import ContractError, JoinToleranceError, RecordFormatError
from arbor.factors import MOTION, Factor, MotionData
from arbor.manifold import Pose2, pose_compose
from arbor.preint import (
    DiffDriveModel,
    PreintBuffer,
    integrate_step,
    nearest_sample,
    split_buffer,
    state_at_high_rate,
)

from fdcheck import central_diff, delta_diff, evaluate_one, wrap_angle

MODEL = DiffDriveModel()
C_NOM = np.array([0.1, 0.1, 0.5])
ZERO_Q = ((0.0, 0.0), (0.0, 0.0))


def make_buffer(c_bar=C_NOM, origin_t=0.0):
    return PreintBuffer(origin_frame=None, origin_t=origin_t, c_bar=c_bar, model=MODEL)


def correction_error(tail, c, c_bar, target):
    """D(c) (-) target, with D(c) the calibration correction of ``tail``'s
    delta to ``c`` as the motion kernel applies it: the kernel's residual
    for unit sqrt_info, xi at the identity and xj = target."""
    factor = Factor(MOTION, as_pose(tail.delta).as_array(), np.eye(3),
                    constrained=[None] * 5, aux=MotionData(tail.j_delta_c, c_bar))
    return evaluate_one(factor, [np.zeros(2), [0.0], target.p, [target.theta], c]).r


def as_pose(delta) -> Pose2:
    """A model's (x, y, theta) step delta as a Pose2."""
    x, y, theta = delta
    return Pose2(np.array([x, y]), theta)


def random_samples(rng, n, dt=0.1, tick_std=0.0, t0=0.0):
    """Wheel increment stream with mixed straight and turning motion, as
    (t, u, q_u) samples for :func:`integrate_step`."""
    samples = []
    var = tick_std**2
    for k in range(n):
        base = rng.uniform(0.02, 0.12)
        turn = rng.uniform(-0.04, 0.04)
        samples.append((t0 + (k + 1) * dt, (base - turn, base + turn), ((var, 0.0), (0.0, var))))
    return samples


class TestPrecalibrate:
    def test_hand_values(self):
        v, _, _ = MODEL.precalibrate(np.array([1.0, 1.0]), C_NOM)
        # ((0.1*1 + 0.1*1)/2, (0.1*1 - 0.1*1)/0.5) = (0.1, 0)
        np.testing.assert_allclose(v, [0.1, 0.0])

    def test_zero_motion(self):
        v, _, _ = MODEL.precalibrate(np.zeros(2), np.array([0.3, 0.2, 1.0]))
        np.testing.assert_allclose(v, [0.0, 0.0])

    def test_invalid_calibration(self):
        with pytest.raises(ContractError, match="wheel radii and separation must be positive"):
            MODEL.precalibrate(np.zeros(2), np.array([0.1, 0.1, 0.0]))
        with pytest.raises(ContractError, match="wheel radii and separation must be positive"):
            MODEL.precalibrate(np.zeros(2), np.array([-0.1, 0.1, 0.5]))

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            u = rng.uniform(-0.5, 0.5, 2)
            c = rng.uniform(0.05, 0.8, 3)
            _, j_u, j_c = MODEL.precalibrate(u, c)
            fd_u = central_diff(lambda uu: MODEL.precalibrate(uu, c)[0], u)
            fd_c = central_diff(lambda cc: MODEL.precalibrate(u, cc)[0], c)
            assert np.max(np.abs(j_u - fd_u)) < 1e-5
            assert np.max(np.abs(j_c - fd_c)) < 1e-5


class TestComputeDelta:
    def test_straight(self):
        d, _ = MODEL.compute_delta(np.array([0.1, 0.0]))
        np.testing.assert_allclose(d, [0.1, 0.0, 0.0])

    def test_turn_in_place(self):
        d, _ = MODEL.compute_delta(np.array([0.0, math.pi / 2]))
        np.testing.assert_allclose(d, [0.0, 0.0, math.pi / 2])

    def test_chord_hand_value(self):
        # (cos(pi/2), sin(pi/2), pi) = (0, 1, pi)
        d, _ = MODEL.compute_delta(np.array([1.0, math.pi]))
        np.testing.assert_allclose(d, [0.0, 1.0, math.pi], atol=1e-15)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            v = np.array([rng.uniform(-1, 1), rng.uniform(-2, 2)])
            _, j = MODEL.compute_delta(v)
            fd = central_diff(lambda vv: MODEL.compute_delta(vv)[0], v)
            assert np.max(np.abs(j - fd)) < 1e-5


class TestIntegrateStep:
    def test_first_step_from_zero_initial(self):
        buf = make_buffer()
        entry = integrate_step(buf, 0.1, (1.0, 1.0), ZERO_Q)
        np.testing.assert_allclose(as_pose(entry.delta).as_array(), [0.1, 0.0, 0.0])
        np.testing.assert_allclose(entry.q_delta, np.zeros((3, 3)))
        # prior J is zero, so the first step is the bare chain
        v, _, j_v_c = MODEL.precalibrate(np.array([1.0, 1.0]), C_NOM)
        _, j_delta_v = MODEL.compute_delta(v)
        _, _, j_dd = pose_compose(Pose2.identity(), as_pose(MODEL.compute_delta(v)[0]))
        np.testing.assert_allclose(entry.j_delta_c, j_dd @ j_delta_v @ j_v_c, atol=1e-12)

    def test_two_straight_steps_compose(self):
        buf = make_buffer()
        integrate_step(buf, 0.1, (1.0, 1.0), ZERO_Q)
        integrate_step(buf, 0.2, (1.0, 1.0), ZERO_Q)
        np.testing.assert_allclose(as_pose(buf.tail.delta).as_array(), [0.2, 0.0, 0.0], atol=1e-15)

    def test_nonmonotonic_rejected(self):
        buf = make_buffer()
        integrate_step(buf, 0.1, (0.0, 0.0), ZERO_Q)
        with pytest.raises(RecordFormatError, match="is not after"):
            integrate_step(buf, 0.1, (0.0, 0.0), ZERO_Q)
        with pytest.raises(RecordFormatError, match="is not after"):
            integrate_step(buf, 0.05, (0.0, 0.0), ZERO_Q)

    def test_covariance_zero_when_noise_free(self):
        rng = np.random.default_rng(5)
        buf = make_buffer()
        for s in random_samples(rng, 30):
            integrate_step(buf, *s)
        np.testing.assert_allclose(buf.tail.q_delta, np.zeros((3, 3)))

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(6)
        buf = make_buffer()
        for s in random_samples(rng, 50, tick_std=0.01):
            integrate_step(buf, *s)
            q = buf.tail.q_delta
            np.testing.assert_allclose(q, q.T, atol=1e-15)
            assert np.min(np.linalg.eigvalsh(q)) > -1e-15

    def test_covariance_against_monte_carlo(self):
        # independent oracle: vectorized noisy re-integration written from
        # the kinematics, compared against the propagated covariance
        rng = np.random.default_rng(7)
        tick_std = 0.01
        samples = random_samples(rng, 50, tick_std=tick_std)
        buf = make_buffer()
        for s in samples:
            integrate_step(buf, *s)

        n_mc = 4000
        r_l, r_r, d = C_NOM
        x = np.zeros(n_mc)
        y = np.zeros(n_mc)
        th = np.zeros(n_mc)
        mc_rng = np.random.default_rng(8)
        for _, u, _ in samples:
            noisy = np.array(u)[None, :] + mc_rng.normal(0.0, tick_std, size=(n_mc, 2))
            arc = 0.5 * (r_l * noisy[:, 0] + r_r * noisy[:, 1])
            turn = (r_r * noisy[:, 1] - r_l * noisy[:, 0]) / d
            cx = arc * np.cos(0.5 * turn)
            cy = arc * np.sin(0.5 * turn)
            x = x + cx * np.cos(th) - cy * np.sin(th)
            y = y + cx * np.sin(th) + cy * np.cos(th)
            th = th + turn
        nominal = as_pose(buf.tail.delta).as_array()
        devs = np.stack([x - nominal[0], y - nominal[1], wrap_angle(th - nominal[2])], axis=1)
        sample_cov = np.cov(devs.T)
        q = buf.tail.q_delta
        rel = np.linalg.norm(sample_cov - q) / np.linalg.norm(q)
        assert rel < 0.15

    def test_one_step_jacobian_chain_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            pre = random_samples(rng, 5)
            u_probe = rng.uniform(-0.3, 0.3, 2)

            def one_step(u_vec):
                buf = make_buffer()
                for s in pre:
                    integrate_step(buf, *s)
                entry = integrate_step(buf, 1.0, tuple(u_vec), ZERO_Q)
                return as_pose(entry.delta).as_array()

            buf = make_buffer()
            for s in pre:
                integrate_step(buf, *s)
            v, j_v_u, _ = MODEL.precalibrate(u_probe, C_NOM)
            delta, j_delta_v = MODEL.compute_delta(v)
            _, _, j_dd = pose_compose(as_pose(buf.tail.delta), as_pose(delta))
            chain = j_dd @ j_delta_v @ j_v_u
            fd = central_diff(one_step, u_probe)
            assert np.max(np.abs(chain - fd)) < 1e-5


class ScaledTwistModel:
    """Alternative motion model: raw (ds, dtheta) with a single scale factor.

    Exercises the pipeline's specialization surface: only pre-calibration
    and the delta model are sensor specific.
    """

    calib_dim = 1

    def precalibrate(self, u, c):
        scale = float(c[0])
        v = (scale * u[0], u[1])
        j_v_u = ((scale, 0.0), (0.0, 1.0))
        j_v_c = ((u[0],), (0.0,))
        return v, j_v_u, j_v_c

    def compute_delta(self, v):
        s, w = float(v[0]), float(v[1])
        half = 0.5 * w
        delta = (s * math.cos(half), s * math.sin(half), w)
        j = ((math.cos(half), -0.5 * s * math.sin(half)),
             (math.sin(half), 0.5 * s * math.cos(half)),
             (0.0, 1.0))
        return delta, j


class HolonomicModel:
    """Third motion model, with three data and three calibrated-data entries:
    body-frame increments (dx, dy, dtheta), the translation scaled by c[0]."""

    calib_dim = 1

    def precalibrate(self, u, c):
        scale = float(c[0])
        v = (scale * u[0], scale * u[1], u[2])
        j_v_u = ((scale, 0.0, 0.0), (0.0, scale, 0.0), (0.0, 0.0, 1.0))
        j_v_c = ((u[0],), (u[1],), (0.0,))
        return v, j_v_u, j_v_c

    def compute_delta(self, v):
        return tuple(v), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class TestAlternativeModel:
    def test_pipeline_is_model_generic(self):
        rng = np.random.default_rng(77)
        c_scale = np.array([1.25])
        buf = PreintBuffer(None, 0.0, c_scale, ScaledTwistModel())
        twists = [np.array([rng.uniform(0.0, 0.2), rng.uniform(-0.3, 0.3)])
                  for _ in range(20)]
        for k, u in enumerate(twists):
            integrate_step(buf, 0.1 * (k + 1), tuple(u), ((1e-4, 0.0), (0.0, 1e-4)))
        # reference: compose the per-sample chords by hand
        x = y = th = 0.0
        for u in twists:
            s, w = 1.25 * u[0], u[1]
            cx, cy = s * math.cos(0.5 * w), s * math.sin(0.5 * w)
            x, y = x + cx * math.cos(th) - cy * math.sin(th), \
                y + cx * math.sin(th) + cy * math.cos(th)
            th += w
        np.testing.assert_allclose(as_pose(buf.tail.delta).as_array(),
                                   [x, y, wrap_angle(th)], atol=1e-12)
        # calibration correction stays first order for the scalar scale too
        eps = 1e-3
        reint = PreintBuffer(None, 0.0, c_scale + eps, ScaledTwistModel())
        for k, u in enumerate(twists):
            integrate_step(reint, 0.1 * (k + 1), tuple(u), ((1e-4, 0.0), (0.0, 1e-4)))
        err = np.linalg.norm(correction_error(buf.tail, c_scale + eps, c_scale,
                                              as_pose(reint.tail.delta)))
        assert err < 10.0 * eps**2

    def test_covariance_chain_with_alternative_model(self):
        buf = PreintBuffer(None, 0.0, np.array([2.0]), ScaledTwistModel())
        for k in range(10):
            integrate_step(buf, 0.1 * (k + 1), (0.1, 0.05), ((1e-4, 0.0), (0.0, 4e-4)))
        q = buf.tail.q_delta
        np.testing.assert_allclose(q, q.T, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(q)) > 0.0
        assert buf.tail.j_delta_c.shape == (3, 1)


def reference_recursion(model, c_bar, samples):
    """The per-step recursion in matrix form, with numpy: the reference for
    the float recursion.  Returns (delta_bar, q_delta, j_delta_c) after each
    sample."""
    delta = Pose2.identity()
    q = np.zeros((3, 3))
    j = np.zeros((3, len(c_bar)))
    out = []
    for _, u, q_u in samples:
        v, j_v_u, j_v_c = model.precalibrate(u, c_bar)
        step, j_delta_v = model.compute_delta(v)
        delta, j_dd, j_ddelta = pose_compose(delta, as_pose(step))
        j_delta_v = np.asarray(j_delta_v)
        a = j_ddelta @ j_delta_v @ np.asarray(j_v_u)
        q = j_dd @ q @ j_dd.T + a @ np.asarray(q_u) @ a.T
        q = 0.5 * (q + q.T)
        j = j_dd @ j + j_ddelta @ j_delta_v @ np.asarray(j_v_c)
        out.append((delta, q, j))
    return out


ORACLE_MODELS = [
    (DiffDriveModel(), C_NOM, 2),
    (ScaledTwistModel(), np.array([1.25]), 2),
    (HolonomicModel(), np.array([0.9]), 3),
]


class TestFloatRecursionOracle:
    """The float recursion against :func:`reference_recursion`: the delta bit
    for bit, the moments to 1e-12 relative."""

    @staticmethod
    def _samples(rng, n_u, n):
        out = []
        for k in range(n):
            a = rng.normal(size=(n_u, n_u))
            out.append((0.1 * (k + 1), tuple(rng.uniform(-0.3, 0.3, n_u).tolist()),
                        tuple(map(tuple, (1e-4 * (a @ a.T + 0.1 * np.eye(n_u))).tolist()))))
        return out

    @staticmethod
    def _assert_matches(entries, reference):
        assert len(entries) == len(reference)
        for entry, (delta, q, j) in zip(entries, reference):
            assert entry.delta == (delta.p[0], delta.p[1], delta.theta)
            assert np.linalg.norm(entry.q_delta - q) <= 1e-12 * np.linalg.norm(q)
            assert np.linalg.norm(entry.j_delta_c - j) <= 1e-12 * np.linalg.norm(j)

    @pytest.mark.parametrize("model, c_bar, n_u", ORACLE_MODELS,
                             ids=["diff_drive", "scaled_twist", "holonomic"])
    def test_random_segments(self, model, c_bar, n_u):
        rng = np.random.default_rng(31)
        for _ in range(20):
            samples = self._samples(rng, n_u, int(rng.integers(1, 60)))
            buf = PreintBuffer(None, 0.0, c_bar, model)
            for smp in samples:
                integrate_step(buf, *smp)
            self._assert_matches(buf.entries, reference_recursion(model, c_bar, samples))

    @pytest.mark.parametrize("model, c_bar, n_u", ORACLE_MODELS,
                             ids=["diff_drive", "scaled_twist", "holonomic"])
    def test_across_split(self, model, c_bar, n_u):
        rng = np.random.default_rng(32)
        for _ in range(20):
            samples = self._samples(rng, n_u, int(rng.integers(2, 60)))
            k = int(rng.integers(0, len(samples)))
            buf = PreintBuffer(None, 0.0, c_bar, model)
            for smp in samples:
                integrate_step(buf, *smp)
            first, second = split_buffer(buf, 0.1 * k, tol=1e-9)
            assert first.entries == buf.entries[:k]
            self._assert_matches(first.entries, reference_recursion(model, c_bar, samples[:k]))
            self._assert_matches(second.entries,
                                 reference_recursion(model, c_bar, samples[k:]))


class TestSegmentComposition:
    def test_split_then_compose_equals_direct(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = rng.integers(5, 40)
            samples = random_samples(rng, int(n), tick_std=0.01)
            k = int(rng.integers(0, n + 1))
            full = make_buffer()
            for s in samples:
                integrate_step(full, *s)
            head = make_buffer()
            for s in samples[:k]:
                integrate_step(head, *s)
            tail = make_buffer(origin_t=samples[k - 1][0] if k else 0.0)
            for s in samples[k:]:
                integrate_step(tail, *s)
            head, tail, full = head.tail, tail.tail, full.tail
            composed, j_a, j_b = pose_compose(as_pose(head.delta), as_pose(tail.delta))
            assert np.max(np.abs(delta_diff(composed, as_pose(full.delta)))) < 1e-12
            # calibration Jacobian transports across the cut by the chain rule
            j_total = j_a @ head.j_delta_c + j_b @ tail.j_delta_c
            np.testing.assert_allclose(j_total, full.j_delta_c, atol=1e-12)


class TestCorrectDelta:
    def _integrated(self, c_bar, rng):
        buf = make_buffer(c_bar=c_bar)
        for s in random_samples(rng, 50):
            integrate_step(buf, *s)
        return buf

    def test_identity_correction(self):
        rng = np.random.default_rng(11)
        buf = self._integrated(C_NOM, rng)
        err = correction_error(buf.tail, C_NOM, C_NOM, as_pose(buf.tail.delta))
        np.testing.assert_allclose(err, np.zeros(3), atol=1e-15)

    def test_zero_jacobian_ignores_calibration(self):
        entry_like = make_buffer()
        integrate_step(entry_like, 0.1, (0.0, 0.0), ZERO_Q)
        tail = dataclasses.replace(entry_like.entries[-1], j=[(0.0, 0.0, 0.0)] * 3)
        err = correction_error(tail, C_NOM * 1.5, C_NOM, as_pose(tail.delta))
        np.testing.assert_allclose(err, np.zeros(3), atol=1e-15)

    def test_first_order_accuracy_slope_two(self):
        rng = np.random.default_rng(12)
        samples = random_samples(rng, 50)
        base = make_buffer()
        for s in samples:
            integrate_step(base, *s)
        direction = np.array([0.7, -0.5, 0.8])
        direction /= np.linalg.norm(direction)
        epsilons = np.logspace(-4, -2, 7)
        errs = []
        for eps in epsilons:
            c = C_NOM + eps * direction
            reint = make_buffer(c_bar=c)
            for s in samples:
                integrate_step(reint, *s)
            errs.append(np.linalg.norm(correction_error(base.tail, c, C_NOM,
                                                        as_pose(reint.tail.delta))))
        slope = np.polyfit(np.log(epsilons), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2


class TestHighRateState:
    def _straight_buffer(self, n=10):
        buf = make_buffer()
        for k in range(n):
            integrate_step(buf, 0.1 * (k + 1), (1.0, 1.0), ZERO_Q)
        return buf

    def test_at_origin_time(self):
        buf = self._straight_buffer()
        x0 = Pose2(np.array([2.0, 3.0]), 0.5)
        out = state_at_high_rate(buf, x0, 0.0)
        np.testing.assert_allclose(out.as_array(), x0.as_array())

    def test_straight_line_entries(self):
        buf = self._straight_buffer()
        x0 = Pose2(np.array([0.0, 0.0]), math.pi / 2)
        for k in range(1, 11):
            out = state_at_high_rate(buf, x0, 0.1 * k)
            # each step advances 0.1 m along the +y heading
            np.testing.assert_allclose(out.as_array(), [0.0, 0.1 * k, math.pi / 2], atol=1e-12)

    def test_holds_last_beyond_buffer(self):
        buf = self._straight_buffer()
        out = state_at_high_rate(buf, Pose2.identity(), 99.0)
        np.testing.assert_allclose(out.as_array(), [1.0, 0.0, 0.0], atol=1e-12)

    def test_before_origin_rejected(self):
        buf = self._straight_buffer()
        with pytest.raises(RecordFormatError, match="precedes buffer origin"):
            state_at_high_rate(buf, Pose2.identity(), -0.01)


class TestSplitBuffer:
    def _buffer(self, n=6, tick_std=0.02):
        rng = np.random.default_rng(13)
        buf = make_buffer()
        for s in random_samples(rng, n, tick_std=tick_std):
            integrate_step(buf, *s)
        return buf

    def test_split_at_exact_entry(self):
        buf = self._buffer(6)
        first, second = split_buffer(buf, 0.3, tol=1e-9)
        assert len(first.entries) == 3 and len(second.entries) == 3
        composed, _, _ = pose_compose(as_pose(first.tail.delta), as_pose(second.tail.delta))
        assert np.max(np.abs(delta_diff(composed, as_pose(buf.tail.delta)))) < 1e-12
        assert second.origin_t == pytest.approx(0.3)

    def test_degenerate_split_at_origin(self):
        buf = self._buffer(6)
        first, second = split_buffer(buf, 0.004, tol=0.01)
        assert len(first.entries) == 0
        assert len(second.entries) == 6
        assert np.max(np.abs(delta_diff(as_pose(second.tail.delta), as_pose(buf.tail.delta)))) < 1e-12

    def test_out_of_tolerance(self):
        buf = self._buffer(6)
        with pytest.raises(JoinToleranceError):
            split_buffer(buf, 0.35, tol=0.01)

    def test_tie_goes_earlier(self):
        buf = self._buffer(6)
        first, _ = split_buffer(buf, 0.25, tol=0.06)
        assert len(first.entries) == 2

    def test_nearest_sample_matches_linear_scan(self):
        # reference: a scan over the origin and entry times in order
        def scan(buf, t):
            times = [buf.origin_t] + [e.t for e in buf.entries]
            k, best = 0, abs(times[0] - t)
            for i, tc in enumerate(times):
                if abs(tc - t) < best - 1e-15:
                    k, best = i, abs(tc - t)
            return k, best

        buf = self._buffer(6)
        queries = [-0.1, 0.0, 0.05, 0.25, 0.3, 0.6, 0.9]
        queries += np.random.default_rng(5).uniform(-0.1, 0.8, 50).tolist()
        for t in queries:
            assert nearest_sample(buf, t) == scan(buf, t)
        assert nearest_sample(make_buffer(origin_t=0.2), 0.3) == (0, pytest.approx(0.1))

    def test_second_part_at_given_calibration(self):
        buf = self._buffer(6)
        c_new = C_NOM * 1.01
        first, second = split_buffer(buf, 0.3, tol=1e-9, c_bar=c_new)
        assert first.c_bar == buf.c_bar
        direct = make_buffer(c_bar=c_new, origin_t=second.origin_t)
        for e in buf.entries[3:]:
            integrate_step(direct, e.t, e.u, e.q_u)
        assert second.c_bar == direct.c_bar
        assert [e.delta for e in second.entries] == [e.delta for e in direct.entries]
        assert second.entries[-1].delta != split_buffer(buf, 0.3, tol=1e-9)[1].entries[-1].delta
