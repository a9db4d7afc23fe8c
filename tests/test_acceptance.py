"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np

from arbor import tree as T
from arbor.config import auto_setup, default_registry, parse_config
from arbor.errors import ConfigError
from arbor.factors import (
    MOTION,
    PRIOR_BLOCK,
    PRIOR_POSE,
    RANGE_BEARING,
    RELATIVE_POSE,
    Factor,
    MotionData,
    evaluate,
    whiten,
)
from arbor.manifold import (
    ANGLE,
    Pose2,
    StateBlock,
    pose_between,
    pose_compose,
)
from arbor.preint import (
    DiffDriveModel,
    PreintBuffer,
    integrate_step,
    state_at_high_rate,
)
from arbor.runner import build_application, replay
from arbor.sim import load_scenario, simulate, write_jsonl

from fdcheck import central_diff, delta_diff, numeric_jacobian, stack_of, wrap_angle
from test_preint import ZERO_Q, as_pose, correction_error, random_samples

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

MODEL = DiffDriveModel()
C_NOM = np.array([0.1, 0.1, 0.5])


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_pose(rng):
    return Pose2(rng.uniform(-10, 10, 2), rng.uniform(-np.pi, np.pi))


def integrated_buffer(rng, n=6, c_bar=C_NOM, tick_std=0.01):
    buf = PreintBuffer(None, 0.0, c_bar, MODEL)
    for s in random_samples(rng, n, tick_std=tick_std):
        integrate_step(buf, *s)
    return buf


def moderate_whiten(q):
    u = whiten(q)
    scale = np.max(np.abs(u))
    return u * (10.0 / scale) if scale > 10.0 else u


class TestCriterion1Jacobians:
    N = 1000
    TOL = 1e-5

    def test_jacobian_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0

        # manifold composition and difference operators
        for _ in range(self.N):
            a, b = random_pose(rng), Pose2(rng.uniform(-10, 10, 2),
                                            rng.uniform(-np.pi, np.pi))
            _, j_a, j_b = pose_compose(a, b)
            fd_a = central_diff(lambda v: pose_compose(Pose2(v[:2], v[2]), b)[0].as_array(),
                                a.as_array())
            fd_b = central_diff(lambda v: pose_compose(a, Pose2(v[:2], v[2]))[0].as_array(),
                                b.as_array())
            worst = max(worst, np.max(np.abs(j_a - fd_a)), np.max(np.abs(j_b - fd_b)))
        for _ in range(self.N):
            xi, xj = random_pose(rng), random_pose(rng)
            _, j_xi, j_xj = pose_between(xi, xj)
            fd_xi = central_diff(lambda v: pose_between(Pose2(v[:2], v[2]), xj)[0].as_array(),
                                 xi.as_array())
            fd_xj = central_diff(lambda v: pose_between(xi, Pose2(v[:2], v[2]))[0].as_array(),
                                 xj.as_array())
            worst = max(worst, np.max(np.abs(j_xi - fd_xi)), np.max(np.abs(j_xj - fd_xj)))

        worst = max(worst, self._factor_block(rng, self._motion_instance))
        worst = max(worst, self._factor_block(rng, self._range_bearing_instance))
        worst = max(worst, self._factor_block(rng, self._prior_pose_instance))
        worst = max(worst, self._factor_block(rng, self._prior_block_instance))
        worst = max(worst, self._factor_block(rng, self._relative_pose_instance))
        worst = max(worst, self._preint_chain(rng))

        elapsed = time.perf_counter() - t0
        ok = worst < self.TOL and elapsed < 30.0
        report(1, ok, f"max |analytic - FD| = {worst:.2e} (< 1e-5), "
                      f"runtime {elapsed:.1f}s (< 30s)")

    def _factor_block(self, rng, make_instance):
        worst = 0.0
        for _ in range(self.N):
            factor, blocks, kinds = make_instance(rng)
            # one stack per factor: perturbed values are written into its table
            stack, table = stack_of([factor], [[b.values for b in blocks]], kinds)

            def residual(values):
                for row, v in enumerate(values):
                    table[row, :len(v)] = v
                return evaluate(stack, table, False)[0][0]

            _, j = evaluate(stack, table)
            analytic = np.split(j[0], np.cumsum(stack.dims)[:-1], axis=1)
            num = numeric_jacobian(residual, blocks)
            for a, n in zip(analytic, num):
                worst = max(worst, np.max(np.abs(a - n)))
        return worst

    @staticmethod
    def _pose_blocks(rng, span=5.0):
        return [StateBlock(rng.uniform(-span, span, 2)),
                StateBlock(np.array([rng.uniform(-3, 3)]), ANGLE)]

    def _motion_instance(self, rng):
        buf = integrated_buffer(rng, n=3)
        tail = buf.entries[-1]
        aux = MotionData(tail.j_delta_c, C_NOM.copy())
        factor = Factor(MOTION, as_pose(tail.delta).as_array(),
                        moderate_whiten(tail.q_delta), constrained=[None] * 5, aux=aux)
        blocks = [*self._pose_blocks(rng), *self._pose_blocks(rng),
                  StateBlock(C_NOM * rng.uniform(0.9, 1.1, 3))]
        return factor, blocks, None

    def _range_bearing_instance(self, rng):
        while True:
            blocks = [*self._pose_blocks(rng),
                      StateBlock(rng.uniform(-0.5, 0.5, 2)),
                      StateBlock(np.array([rng.uniform(-1, 1)]), ANGLE),
                      StateBlock(rng.uniform(-8, 8, 2))]
            if np.linalg.norm(blocks[4].values - blocks[0].values) > 1.0:
                break
        z = np.array([rng.uniform(0.5, 8.0), rng.uniform(-np.pi, np.pi)])
        factor = Factor(RANGE_BEARING, z, np.diag(rng.uniform(0.5, 8.0, 2)),
                        constrained=[None] * 5)
        return factor, blocks, None

    def _prior_pose_instance(self, rng):
        z = np.array([*rng.uniform(-5, 5, 2), rng.uniform(-3, 3)])
        a = rng.normal(size=(3, 3))
        factor = Factor(PRIOR_POSE, z, moderate_whiten(a @ a.T + 3 * np.eye(3)),
                        constrained=[None] * 2)
        return factor, self._pose_blocks(rng), None

    def _prior_block_instance(self, rng):
        n = int(rng.integers(1, 4))
        a = rng.normal(size=(n, n))
        factor = Factor(PRIOR_BLOCK, rng.uniform(-3, 3, n),
                        moderate_whiten(a @ a.T + n * np.eye(n)), constrained=[None])
        return factor, [StateBlock(rng.uniform(-3, 3, n))], ["euclidean"]

    def _relative_pose_instance(self, rng):
        z = np.array([*rng.uniform(-2, 2, 2), rng.uniform(-3, 3)])
        a = rng.normal(size=(3, 3))
        factor = Factor(RELATIVE_POSE, z, moderate_whiten(a @ a.T + 3 * np.eye(3)),
                        constrained=[None] * 4)
        return factor, [*self._pose_blocks(rng), *self._pose_blocks(rng)], None

    def _preint_chain(self, rng):
        worst = 0.0
        for _ in range(self.N):
            pre = random_samples(rng, 3)
            u_probe = rng.uniform(-0.3, 0.3, 2)
            c = C_NOM * rng.uniform(0.8, 1.2, 3)

            def one_step(u_vec):
                buf = PreintBuffer(None, 0.0, c, MODEL)
                for s in pre:
                    integrate_step(buf, *s)
                entry = integrate_step(buf, 1.0, tuple(u_vec), ZERO_Q)
                return as_pose(entry.delta).as_array()

            buf = PreintBuffer(None, 0.0, c, MODEL)
            for s in pre:
                integrate_step(buf, *s)
            v, j_v_u, j_v_c = MODEL.precalibrate(u_probe, c)
            delta, j_delta_v = MODEL.compute_delta(v)
            _, _, j_dd = pose_compose(as_pose(buf.tail.delta), as_pose(delta))
            chain = j_dd @ j_delta_v @ j_v_u
            worst = max(worst, np.max(np.abs(chain - central_diff(one_step, u_probe))))
            fd_c = central_diff(lambda cc: MODEL.precalibrate(u_probe, cc)[0], c)
            worst = max(worst, np.max(np.abs(j_v_c - fd_c)))
        return worst


class TestCriterion2SegmentComposition:
    def test_split_then_compose(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(100):
            samples = random_samples(rng, 50, tick_std=0.01)
            k = int(rng.integers(0, 51))
            full = PreintBuffer(None, 0.0, C_NOM, MODEL)
            head = PreintBuffer(None, 0.0, C_NOM, MODEL)
            tail = PreintBuffer(None, samples[k - 1][0] if k else 0.0, C_NOM, MODEL)
            for s in samples:
                integrate_step(full, *s)
            for s in samples[:k]:
                integrate_step(head, *s)
            for s in samples[k:]:
                integrate_step(tail, *s)
            composed, _, _ = pose_compose(as_pose(head.tail.delta), as_pose(tail.tail.delta))
            worst = max(worst, np.max(np.abs(delta_diff(composed, as_pose(full.tail.delta)))))
        report(2, worst < 1e-12, f"max split-compose mismatch {worst:.2e} (< 1e-12) "
                                 f"over 100 trajectories")


class TestCriterion3CovarianceConsistency:
    def test_monte_carlo(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(303)
        tick_std = 0.01
        samples = random_samples(rng, 50, tick_std=tick_std)
        buf = PreintBuffer(None, 0.0, C_NOM, MODEL)
        for s in samples:
            integrate_step(buf, *s)

        # independent vectorized re-integration oracle
        n_mc = 10_000
        r_l, r_r, d = C_NOM
        mc_rng = np.random.default_rng(304)
        x = np.zeros(n_mc)
        y = np.zeros(n_mc)
        th = np.zeros(n_mc)
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
        devs = np.stack([x - nominal[0], y - nominal[1], wrap_angle(th - nominal[2])],
                        axis=1)
        sample_cov = np.cov(devs.T)
        q = buf.tail.q_delta
        rel = np.linalg.norm(sample_cov - q) / np.linalg.norm(q)
        elapsed = time.perf_counter() - t0
        ok = rel < 0.10 and elapsed < 60.0
        report(3, ok, f"Frobenius relative error {100 * rel:.2f}% (< 10%) over "
                      f"10^4 re-integrations, runtime {elapsed:.1f}s (< 60s)")


class TestCriterion4CorrectionOrder:
    def test_log_log_slope(self):
        rng = np.random.default_rng(404)
        samples = random_samples(rng, 50)
        base = PreintBuffer(None, 0.0, C_NOM, MODEL)
        for s in samples:
            integrate_step(base, *s)
        direction = np.array([0.6, -0.6, 0.53])
        direction /= np.linalg.norm(direction)
        epsilons = np.logspace(-4, -2, 9)
        errs = []
        for eps in epsilons:
            c = C_NOM + eps * direction
            reint = PreintBuffer(None, 0.0, c, MODEL)
            for s in samples:
                integrate_step(reint, *s)
            errs.append(np.linalg.norm(correction_error(base.tail, c, C_NOM,
                                                        as_pose(reint.tail.delta))))
        slope = float(np.polyfit(np.log(epsilons), np.log(errs), 1)[0])
        ok = 1.8 <= slope <= 2.2
        report(4, ok, f"log-log slope {slope:.3f} (2.0 +/- 0.2)")


class TestCriterion5ZeroNoiseEndToEnd:
    def test_demo_scenario(self, tmp_path):
        t0 = time.perf_counter()
        scenario = load_scenario((DATA / "demo_scenario.yaml").read_text())
        caps, truth = simulate(scenario)
        log, truth_p = tmp_path / "log.jsonl", tmp_path / "truth.jsonl"
        write_jsonl(caps, log)
        write_jsonl(truth, truth_p)
        est, metrics = replay(build_application(DATA / "demo_config.yaml"), log, truth_path=truth_p)
        elapsed = time.perf_counter() - t0
        landmarks = sum(1 for r in est if r.sensor == "estimate_landmark")
        ok = (metrics.ate_rmse < 1e-6 and metrics.final_cost < 1e-10
              and metrics.keyframes >= 20 and landmarks >= 20 and elapsed < 10.0)
        report(5, ok, f"ate {metrics.ate_rmse:.2e} m (< 1e-6), final cost "
                      f"{metrics.final_cost:.2e} (< 1e-10), {metrics.keyframes} keyframes, "
                      f"{landmarks} landmarks, runtime {elapsed:.1f}s (< 10s)")


class TestCriterion6SelfCalibration:
    def test_ten_seeds(self, tmp_path):
        t0 = time.perf_counter()
        base = load_scenario((DATA / "calib_scenario.yaml").read_text())
        rels = []
        for seed in range(10):
            scenario = dataclasses.replace(base, seed=seed)
            caps, truth = simulate(scenario)
            log = tmp_path / f"log_{seed}.jsonl"
            truth_p = tmp_path / f"truth_{seed}.jsonl"
            write_jsonl(caps, log)
            write_jsonl(truth, truth_p)
            _, metrics = replay(build_application(DATA / "calib_config.yaml"), log,
                                truth_path=truth_p)
            rels.append(metrics.calib_rel)
        median = np.median(np.array(rels), axis=0)
        elapsed = time.perf_counter() - t0
        ok = bool(np.all(median < 0.01)) and elapsed < 60.0
        report(6, ok, f"median relative error per component "
                      f"{['%.3f%%' % (100 * e) for e in median]} (< 1%), "
                      f"runtime {elapsed:.1f}s (< 60s)")


class TestCriterion7LoopClosureBenefit:
    def test_ten_seeds(self, tmp_path):
        base = load_scenario((DATA / "loop_scenario.yaml").read_text())
        with_loop, without_loop = [], []
        for seed in range(10):
            scenario = dataclasses.replace(base, seed=seed)
            caps, truth = simulate(scenario)
            log = tmp_path / f"log_{seed}.jsonl"
            truth_p = tmp_path / f"truth_{seed}.jsonl"
            write_jsonl(caps, log)
            write_jsonl(truth, truth_p)
            _, m_on = replay(build_application(DATA / "loop_config_on.yaml"), log,
                             truth_path=truth_p)
            _, m_off = replay(build_application(DATA / "loop_config_off.yaml"), log,
                              truth_path=truth_p)
            with_loop.append(m_on.ate_rmse)
            without_loop.append(m_off.ate_rmse)
        med_on = float(np.median(with_loop))
        med_off = float(np.median(without_loop))
        report(7, med_on < med_off,
               f"median ate with loops {med_on:.4f} m < without {med_off:.4f} m")


class TestCriterion8SlidingWindow:
    def _run_policy(self, config, tmp_path):
        tmp_path.mkdir(parents=True, exist_ok=True)
        scenario = load_scenario((DATA / "window_scenario.yaml").read_text())
        caps, truth = simulate(scenario)
        log = tmp_path / "log.jsonl"
        write_jsonl(caps, log)
        stats = []

        def spy(tree, event, _report):
            frames = tree.frames()
            unfixed = sum(1 for f in frames
                          if any(not b.fixed for b in tree.node(f).state_blocks.values()))
            stats.append((len(frames), unfixed))

        replay(build_application(DATA / config), log, on_keyframe=spy)
        return stats

    def test_both_policies(self, tmp_path):
        fix_stats = self._run_policy("window_fix_config.yaml", tmp_path / "a")
        rem_stats = self._run_policy("window_remove_config.yaml", tmp_path / "b")
        n_fix = len(fix_stats)
        n_rem = len(rem_stats)
        fix_ok = all(u <= 5 for _, u in fix_stats)
        rem_ok = all(u <= 5 for _, u in rem_stats)
        rem_total_ok = all(t == 5 for t, _ in rem_stats if t >= 5) and rem_stats[-1][0] == 5
        ok = (n_fix >= 100 and n_rem >= 100 and fix_ok and rem_ok and rem_total_ok)
        report(8, ok, f"fix_oldest: {n_fix} keyframes, max unfixed "
                      f"{max(u for _, u in fix_stats)} (<= 5); remove_with_prior: "
                      f"{n_rem} keyframes, max unfixed {max(u for _, u in rem_stats)}, "
                      f"final frame count {rem_stats[-1][0]} (== 5)")


class TestCriterion9ConsistencyFuzz:
    def test_randomized_sequences(self):
        rng = np.random.default_rng(909)
        tr = T.ProblemTree()
        sensor = tr.add_sensor(None, {"intrinsic": StateBlock(C_NOM.copy())})
        live_blocks, live_factors = set(), set()

        def consume():
            for n in tr.drain_notifications():
                if n.action == T.ADD_BLOCK:
                    live_blocks.add(n.target)
                elif n.action == T.REMOVE_BLOCK:
                    live_blocks.discard(n.target)
                elif n.action == T.ADD_FACTOR:
                    live_factors.add(n.target)
                else:
                    live_factors.discard(n.target)

        consume()
        frames, landmarks = [], []
        violations_seen = 0
        for step in range(1000):
            roll = rng.uniform()
            if roll < 0.3 or not frames:
                frame = tr.add_frame(float(step), Pose2(rng.uniform(-5, 5, 2),
                                                        float(rng.uniform(-3, 3, 1)[0])))
                frames.append(frame)
            elif roll < 0.45:
                landmarks.append(tr.add_landmark(rng.uniform(-5, 5, 2)))
            elif roll < 0.55:
                frame = frames[int(rng.integers(len(frames)))]
                name = f"x{step}"
                tr.add_block_to_frame(frame, name, StateBlock(rng.uniform(-1, 1, 1)))
            elif roll < 0.75 and landmarks:
                frame = frames[int(rng.integers(len(frames)))]
                lm = landmarks[int(rng.integers(len(landmarks)))]
                cap = tr.add_capture(frame, tr.node(frame).timestamp, sensor)
                factor = Factor(RANGE_BEARING, rng.uniform(0.5, 3.0, 2), np.eye(2),
                                constrained=[(frame, "p"), (frame, "o"),
                                             (sensor, "intrinsic"),
                                             (sensor, "intrinsic"), (lm, "p")])
                tr.add_factor(cap, factor)
            elif roll < 0.9 and frames:
                tr.remove(frames.pop(int(rng.integers(len(frames)))))
            elif landmarks:
                tr.remove(landmarks.pop(int(rng.integers(len(landmarks)))))
            if step % 10 == 0:
                consume()
                violations_seen += len(tr.check_consistency())
        consume()
        violations_seen += len(tr.check_consistency())

        tree_blocks = {(nid, name) for nid, node in tr._nodes.items()
                       for name in node.state_blocks}
        tree_factors = {nid for nid in tr._nodes if nid.kind == T.FACTOR}
        conserved = live_blocks == tree_blocks and live_factors == tree_factors
        ok = violations_seen == 0 and conserved
        report(9, ok, f"1000 randomized steps: {violations_seen} violations, "
                      f"notification conservation {'holds' if conserved else 'BROKEN'}")


class TestCriterion10Throughput:
    def test_high_rate_queries(self):
        buf = PreintBuffer(None, 0.0, C_NOM, MODEL)
        for k in range(10_000):
            integrate_step(buf, 0.01 * (k + 1), (0.1, 0.11), ZERO_Q)
        x0 = Pose2(np.zeros(2), 0.0)
        ts = np.random.default_rng(1010).uniform(0.0, 100.0, 10_000)
        t0 = time.perf_counter()
        for t in ts:
            state_at_high_rate(buf, x0, t)
        rate = len(ts) / (time.perf_counter() - t0)
        report(10, rate >= 1e4,
               f"{rate:.0f} queries/s over a 10^4-entry buffer (>= 10^4/s)")


class TestCriterion11ConfigDeterminism:
    def test_golden_tree_and_error_naming(self):
        demo = (DATA / "demo_config.yaml").read_text()
        app = auto_setup(parse_config(demo))
        golden = (GOLDEN / "demo_tree.txt").read_text()
        tree_ok = app.tree.print_tree() == golden

        missing = demo.replace("  max_iterations: 25\n", "")
        try:
            auto_setup(parse_config(missing))
            missing_ok = False
            missing_msg = "no error raised"
        except ConfigError as exc:
            missing_msg = str(exc)
            missing_ok = "solver.max_iterations" in missing_msg

        try:
            default_registry().create("processor", "no_such_processor")
            unknown_ok = False
            unknown_msg = "no error raised"
        except ConfigError as exc:
            unknown_msg = str(exc)
            unknown_ok = ("no_such_processor" in unknown_msg
                          and "motion_diff_drive" in unknown_msg)

        ok = tree_ok and missing_ok and unknown_ok
        report(11, ok, f"golden tree match: {tree_ok}; missing key named: "
                       f"{missing_ok}; unknown type listed: {unknown_ok}")
