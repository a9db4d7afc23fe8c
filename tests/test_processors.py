import math
from pathlib import Path

import numpy as np
import pytest

from arbor import preint
from arbor import processors as P
from arbor import tree as T
from arbor.config import auto_setup, parse_config
from arbor.errors import AlignmentError, ContractError, DecompositionError
from arbor.factors import MOTION, RANGE_BEARING, RELATIVE_POSE, Factor
from arbor.manifold import ANGLE, StateBlock
from arbor.processors import (
    LandmarkTracker,
    LoopCloser,
    MotionProcessor,
    Pipeline,
    Processor,
    RawIdInfo,
    SensorInfo,
    sensor_extrinsic,
)

from arbor.runner import build_application, replay
from arbor.sim import load_scenario, simulate, write_jsonl

from fdcheck import pose_compose
from test_preint import as_pose

C_NOM = np.array([0.1, 0.1, 0.5])
DATA = Path(__file__).parent / "data"
DEMO_CONFIG = DATA / "demo_config.yaml"


def build_tree():
    tr = T.ProblemTree()
    odom = tr.add_sensor(SensorInfo("odom0", "diff_drive", {"tick_std": 0.001}), {
        "ext_p": StateBlock(np.zeros(2), fixed=True),
        "ext_o": StateBlock(np.zeros(1), ANGLE, fixed=True),
        "intrinsic": StateBlock(C_NOM.copy()),
    })
    rb = tr.add_sensor(SensorInfo("rb0", "range_bearing_2d",
                                  {"range_std": 0.02, "bearing_std": 0.01}), {
        "ext_p": StateBlock(np.zeros(2), fixed=True),
        "ext_o": StateBlock(np.zeros(1), ANGLE, fixed=True),
    })
    first = tr.add_frame(0.0, (0.0, 0.0, 0.0))
    return tr, odom, rb, first


def make_motion(tr, odom, first, **thresholds):
    proc = MotionProcessor("odom", odom, "odom0", time_tolerance=0.01, tick_std=0.001,
                           **thresholds)
    proc.initialize(tr, first)
    return proc


def straight_step(r=0.1):
    # both wheels advance 0.1 m / r rad -> 0.1 m arc
    return np.array([0.1 / r, 0.1 / r])


class Stamp(Processor):
    """A processor type the library does not know: it votes on every
    capture of its sensor and logs each keyframe offered to it, with the
    number of captures the frame holds by then."""

    def __init__(self, sensor_name="stamp", log=None):
        self.sensor_name = sensor_name
        self.log = [] if log is None else log

    def process_capture(self, tree, t, data):
        return True

    def attach(self, tree, frame, t):
        self.log.append((self.sensor_name, frame, t, len(tree.children(frame, T.CAPTURE))))
        return True


class Posed(Stamp):
    """A Stamp that also offers a fixed pose estimate."""

    def __init__(self, sensor_name, pose):
        super().__init__(sensor_name)
        self.pose = pose

    def pose_at(self, tree, t):
        return self.pose


class TestMotionProcessor:
    def test_distance_policy_exact_crossing(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=1.0)
        events = []
        for k in range(1, 15):
            ev = proc.process_capture(tr, 0.1 * k, straight_step())
            if ev:
                events.append((k, ev))
        # 10 steps reach exactly 1.0 (not an exceedance); the 11th crosses
        assert events[0][0] == 11

    def test_time_policy_zero_motion(self):
        # the vote fires at the first sample with t - origin_t > 5; a fully
        # motionless interval has a singular covariance, which surfaces as a
        # decomposition error at keyframe time rather than silent jitter
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_time=5.0)
        for k in range(1, 6):
            assert proc.process_capture(tr, 1.0 * k, np.zeros(2)) is None
        with pytest.raises(DecompositionError):
            proc.process_capture(tr, 6.0, np.zeros(2))
        # atomic failure: the vote left no partial keyframe behind
        assert len(tr.frames()) == 1

    def test_time_policy_with_motion(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_time=5.0)
        events = []
        for k in range(1, 10):
            ev = proc.process_capture(tr, 1.0 * k,
                                      straight_step() * (0.1 + 0.02 * (k % 3)))
            if ev:
                events.append(k)
        assert events[0] == 6  # first sample with t - origin_t > 5

    def test_angle_policy(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_angle=0.31)
        events = []
        # arcs: each step turns by (r*dphi_r - r*dphi_l)/d = 0.02 rad
        for k in range(1, 30):
            ev = proc.process_capture(tr, 0.1 * k, np.array([0.95, 1.05]))
            if ev:
                events.append(k)
        assert events[0] == 16  # 15 steps stay at 0.30 < 0.31; the 16th crosses

    def test_removed_origin_is_reported(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=10.0)
        proc.process_capture(tr, 0.1, straight_step())
        tr.remove(first)
        with pytest.raises(ContractError, match="was removed"):
            proc.pose_at(tr, 0.1)

    def test_buffer_reset_after_keyframe(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=0.45)
        pipe = Pipeline(tr, [proc])
        for k in range(1, 6):
            pipe.dispatch("odom0", 0.1 * k, straight_step())
        assert len(proc.buffer.entries) == 0
        np.testing.assert_allclose(np.array(as_pose(proc.buffer.tail.delta)), [0, 0, 0])

    def test_keyframe_carries_motion_factor(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=0.45)
        pipe = Pipeline(tr, [proc])
        events = []
        for k in range(1, 6):
            events += pipe.dispatch("odom0", 0.1 * k, straight_step())
        assert len(events) == 1
        event = events[0]
        factors = tr.factors_referencing(event.frame)
        kinds = [tr.node(f).payload.kind for f in factors]
        assert kinds == [MOTION]
        assert set(tr.node(event.frame).state_blocks) == {"p", "o"}
        # frame seeded by dead reckoning: 0.5 m straight
        np.testing.assert_allclose(np.array(tr.frame_pose(event.frame)),
                                   [0.5, 0.0, 0.0], atol=1e-12)

    def test_join_within_tolerance(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=10.0)
        for k in range(1, 6):
            proc.process_capture(tr, 0.1 * k, straight_step())
        foreign = tr.add_frame(0.305, (0.0, 0.0, 0.0))
        joined = proc.attach(tr, foreign, 0.305)
        assert joined is True
        assert proc.buffer.origin_frame == foreign
        assert len(proc.buffer.entries) == 2  # samples at 0.4, 0.5 re-integrated
        kinds = [tr.node(f).payload.kind for f in tr.factors_referencing(foreign)]
        assert MOTION in kinds

    def test_join_declined_out_of_tolerance(self):
        # no sample within tolerance of 0.35: not ready, so never offered
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=10.0)
        for k in range(1, 6):
            proc.process_capture(tr, 0.1 * k, straight_step())
        assert proc.ready(0.35) is False
        assert proc.ready(0.305) is True

    def test_vote_joins_coincident_frame_instead_of_twin(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=0.45)
        pipe = Pipeline(tr, [proc])
        foreign = None
        events = []
        for k in range(1, 6):
            t = 0.1 * k
            if k == 5:
                # another processor created a frame at the vote's timestamp
                foreign = tr.add_frame(t, (0.0, 0.0, 0.0))
            events += pipe.dispatch("odom0", t, straight_step())
        assert events == []  # joined, never twinned
        assert len(tr.frames()) == 2
        kinds = [tr.node(f).payload.kind for f in tr.factors_referencing(foreign)]
        assert kinds == [MOTION]
        assert proc.buffer.origin_frame == foreign

    def test_vote_after_pending_join_empties_buffer(self):
        # a foreign vote ahead of the data waits; the next sample completes
        # its keyframe and the split hands every integrated sample to the
        # first part
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=10.0, max_angle=1.0, max_time=5.0)
        pipe = Pipeline(tr, [proc, Stamp()])
        for k in range(1, 5):
            pipe.dispatch("odom0", 0.1 * k, straight_step())
        assert pipe.dispatch("stamp", 0.5, None) == []
        assert tr.frames() == [first]  # waiting for the odometry
        (event,) = pipe.dispatch("odom0", 0.5, straight_step())
        foreign = event.frame
        assert proc.buffer.origin_frame == foreign
        assert proc.buffer.entries == []
        kinds = [tr.node(f).payload.kind for f in tr.factors_referencing(foreign)]
        assert kinds == [MOTION]
        np.testing.assert_allclose(np.array(as_pose(proc.buffer.tail.delta)), [0, 0, 0])
        assert pipe.dispatch("odom0", 0.6, straight_step()) == []
        assert len(proc.buffer.entries) == 1

    def test_new_interval_starts_at_current_calibration(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=0.45)
        pipe = Pipeline(tr, [proc])
        for k in range(1, 5):
            pipe.dispatch("odom0", 0.1 * k, straight_step())
        tr.block(odom, "intrinsic").values[:] = C_NOM * 1.01  # a solve moved it
        (event,) = pipe.dispatch("odom0", 0.5, straight_step())
        assert proc.buffer.origin_frame == event.frame
        np.testing.assert_array_equal(proc.buffer.c_bar, C_NOM * 1.01)

    def test_non_positive_calibration_fails_at_split(self):
        # the calibration is checked where a buffer snapshots it: a solve
        # that drives it non-positive fails the next keyframe's split
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=0.45)
        pipe = Pipeline(tr, [proc])
        for k in range(1, 5):
            pipe.dispatch("odom0", 0.1 * k, straight_step())
        tr.block(odom, "intrinsic").values[:] = [0.1, 0.1, -0.5]
        with pytest.raises(ContractError, match="wheel radii and separation must be positive"):
            pipe.dispatch("odom0", 0.5, straight_step())

    def test_vote_on_held_keyframe_joins_it(self):
        # the sample that completes a waiting keyframe also crosses
        # max_dist: the waiting keyframe is made first and the vote joins it,
        # with the new interval at the current calibration
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=0.45)
        pipe = Pipeline(tr, [proc, Stamp()])
        for k in range(1, 5):
            pipe.dispatch("odom0", 0.1 * k, straight_step())
        assert pipe.dispatch("stamp", 0.5, None) == []
        tr.block(odom, "intrinsic").values[:] = C_NOM * 1.01  # a solve moved it
        (event,) = pipe.dispatch("odom0", 0.5, straight_step())
        assert event.t == 0.5
        assert len(tr.frames()) == 2
        kinds = [tr.node(f).payload.kind for f in tr.factors_referencing(event.frame)]
        assert kinds == [MOTION]
        assert proc.buffer.origin_frame == event.frame
        np.testing.assert_array_equal(proc.buffer.c_bar, C_NOM * 1.01)

    def test_moments_once_per_interval(self, tmp_path, monkeypatch):
        # the per-interval Jacobians are evaluated once per motion factor
        # made, plus once per vote that made none, and never per sample
        in_step, jacobian_calls = [], []
        jacobians = preint.DiffDriveModel.jacobians

        def spy_jacobians(model, u, c):
            assert not in_step, "integrate_step evaluated the Jacobians"
            jacobian_calls.append(len(u))
            return jacobians(model, u, c)

        def spy_step(step):
            def wrapped(*args):
                in_step.append(True)
                try:
                    return step(*args)
                finally:
                    in_step.pop()
            return wrapped

        votes = []
        process_capture = P.MotionProcessor.process_capture

        def spy_capture(proc, tree, t, data):
            voted = process_capture(proc, tree, t, data)
            if voted:
                votes.append(t)
            return voted

        monkeypatch.setattr(preint.DiffDriveModel, "jacobians", spy_jacobians)
        monkeypatch.setattr(preint, "integrate_step", spy_step(preint.integrate_step))
        monkeypatch.setattr(P, "integrate_step", spy_step(P.integrate_step))
        monkeypatch.setattr(P.MotionProcessor, "process_capture", spy_capture)

        captures, _ = simulate(load_scenario((DATA / "demo_scenario.yaml").read_text()))
        log = tmp_path / "log.jsonl"
        write_jsonl(captures, log)
        app = build_application(DEMO_CONFIG)
        replay(app, log)
        tr = app.tree
        factor_times = [tr.node(c).timestamp for fr in tr.frames()
                        for c in tr.children(fr, T.CAPTURE)
                        for feature in tr.children(c, T.FEATURE)
                        for f in tr.children(feature, T.FACTOR)
                        if tr.node(f).payload.kind == MOTION]
        assert factor_times and votes
        idle_votes = [t for t in votes if t not in factor_times]
        assert len(jacobian_calls) <= len(factor_times) + len(idle_votes)

    def test_uninitialized_rejected(self):
        tr, odom, _, _ = build_tree()
        proc = MotionProcessor("odom", odom, "odom0", 0.01, 0.001, max_dist=1.0)
        with pytest.raises(ContractError, match="has no origin yet"):
            proc.process_capture(tr, 0.1, straight_step())


def make_tracker(tr, rb, pose=(0.0, 0.0, 0.0), **kw):
    kw.setdefault("min_tracks", 3)
    tracker = LandmarkTracker("tracker", rb, "rb0", time_tolerance=0.01, range_std=0.02,
                              bearing_std=0.01, **kw)
    tracker.initialize(tr, tr.frames()[0], lambda tree, t: pose)
    return tracker


class TestLandmarkTracker:
    def test_empty_map_creates_landmarks(self):
        tr, _, rb, first = build_tree()
        tracker = make_tracker(tr, rb)
        scan = [[0, 1.0, 0.0], [1, 2.0, 1.0], [2, 1.5, -0.5]]
        # votes; joins the t=0 frame
        assert Pipeline(tr, [tracker]).dispatch("rb0", 0.0, scan) == []
        landmarks = tr.children(tr.map_id, T.LANDMARK)
        assert len(landmarks) == 3
        factors = [f for lm in landmarks for f in tr.factors_referencing(lm)]
        assert len(factors) == 3
        assert all(tr.node(f).payload.kind == RANGE_BEARING for f in factors)

    def test_gate_association_exact_inversion(self):
        tr, _, rb, first = build_tree()
        lm = tr.add_landmark(np.array([1.0, 0.0]), RawIdInfo(7))
        tracker = make_tracker(tr, rb, min_tracks=1)
        out = tracker._associate(tr, (0.0, 0.0, 0.0), [[1.0, 0.0]])
        raw_id, z, matched, world = out[0]
        assert matched == lm
        np.testing.assert_allclose(world, [1.0, 0.0], atol=1e-12)

    def test_gate_tie_breaks_to_lowest_index(self):
        tr, _, rb, first = build_tree()
        lm_a = tr.add_landmark(np.array([1.0, 0.1]))
        lm_b = tr.add_landmark(np.array([1.0, -0.1]))
        tracker = make_tracker(tr, rb)
        out = tracker._associate(tr, (0.0, 0.0, 0.0), [[1.0, 0.0]])
        assert out[0][2] == lm_a

    def test_vote_below_min_tracks(self):
        tr, _, rb, first = build_tree()
        # 4 known landmarks straight ahead, min_tracks=5 -> vote
        for k in range(4):
            tr.add_landmark(np.array([1.0 + k, 0.0]), RawIdInfo(k))
        tracker = make_tracker(tr, rb, min_tracks=5)
        scan = [[k, 1.0 + k, 0.0] for k in range(4)]
        tracker.association = "id"
        for k in range(4):
            tracker._by_raw_id[k] = tr.children(tr.map_id, T.LANDMARK)[k]
        assert tracker.process_capture(tr, 0.5, scan) is True

    def test_no_vote_when_tracks_sufficient(self):
        tr, _, rb, first = build_tree()
        lms = []
        for k in range(3):
            lms.append(tr.add_landmark(np.array([1.0 + k, 0.0]), RawIdInfo(k)))
        tracker = make_tracker(tr, rb, min_tracks=3,
                               association="id")
        for k, lm in enumerate(lms):
            tracker._by_raw_id[k] = lm
        event = tracker.process_capture(tr, 0.5, [[k, 1.0 + k, 0.0] for k in range(3)])
        assert event is None
        assert tracker._pending is not None  # buffered until a keyframe

    def test_vote_rearmed_only_when_tracks_recover(self):
        # votes are edge triggered: a second scan short of min_tracks does
        # not vote again until a scan with enough tracks re-arms the vote
        tr, _, rb, first = build_tree()
        tracker = make_tracker(tr, rb, min_tracks=3, association="id")
        for k in range(3):
            tracker._by_raw_id[k] = tr.add_landmark(np.array([1.0 + k, 0.0]), RawIdInfo(k))
        few = [[0, 1.0, 0.0]]
        enough = [[k, 1.0 + k, 0.0] for k in range(3)]
        votes = [tracker.process_capture(tr, 0.1 * k, scan)
                 for k, scan in enumerate([few, few, enough, few, few])]
        assert votes == [True, None, None, True, None]

    def test_gate_association_honours_unseen_window(self):
        # a landmark unseen for more than max_unseen_frames keyframes is no
        # gate candidate, so its observation spawns a fresh landmark
        tr, _, rb, first = build_tree()
        tracker = make_tracker(tr, rb, min_tracks=5, max_unseen_frames=2)
        tracker._kf_count = 10
        stale = tr.add_landmark(np.array([1.0, 0.0]))
        recent = tr.add_landmark(np.array([2.0, 0.0]))
        tracker._last_seen[stale] = 7  # unseen for 3 keyframes
        tracker._last_seen[recent] = 8  # unseen for 2
        out = tracker._associate(tr, (0.0, 0.0, 0.0), [[1.0, 0.0], [2.0, 0.0]])
        assert [o[2] for o in out] == [None, recent]

    def test_unseen_window_spawns_fresh_landmark(self):
        tr, _, rb, first = build_tree()
        tracker = make_tracker(tr, rb, min_tracks=5,
                               association="id", max_unseen_frames=2)
        tracker._kf_count = 10
        stale = tr.add_landmark(np.array([1.0, 0.0]), RawIdInfo(3))
        tracker._by_raw_id[3] = stale
        tracker._last_seen[stale] = 1  # last seen 9 keyframes ago
        out = tracker._associate(tr, (0.0, 0.0, 0.0), [[3, 1.0, 0.0]])
        assert out[0][2] is None


def reference_associate(tracker, tr, pose, scan):
    """Association one observation at a time, each against every candidate."""
    ext_x, ext_y, ext_o = sensor_extrinsic(tr, tracker.sensor_id)
    s, _, _ = pose_compose(pose, (ext_x, ext_y, ext_o))
    landmarks = [lm for lm in tr.children(tr.map_id, T.LANDMARK) if tracker._window_ok(lm)]
    out = []
    for m in scan:
        raw_id = int(m[0]) if len(m) == 3 else None
        rng, brg = float(m[-2]), float(m[-1])
        heading = s[2] + brg
        world = (s[0] + rng * math.cos(heading), s[1] + rng * math.sin(heading))
        matched = None
        if tracker.association == "id":
            lm = tracker._by_raw_id.get(raw_id)
            if lm is not None and lm in tr and tracker._window_ok(lm):
                matched = lm
        elif landmarks:
            best = None
            for lm in landmarks:
                p = tr.block(lm, "p").values
                d = float(np.hypot(p[0] - world[0], p[1] - world[1]))
                if best is None or d < best[0]:
                    best = (d, lm)
            if best[0] <= tracker.gate:
                matched = best[1]
        out.append((raw_id, (rng, brg), matched, world))
    return out


class TestOneShotAssociation:
    """The scan-at-once association against :func:`reference_associate`."""

    def _assert_same(self, tracker, tr, pose, scan):
        out = tracker._associate(tr, pose, scan)
        ref = reference_associate(tracker, tr, pose, scan)
        assert [o[:3] for o in out] == [r[:3] for r in ref]
        assert [tuple(o[3]) for o in out] == [tuple(r[3]) for r in ref]
        return out

    def test_random_scans(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            tr, _, rb, _ = build_tree()
            # mount the sensor away from the robot origin and turned on it,
            # so that every term of the sensor pose's composition counts
            tr.block(rb, "ext_p").values = rng.uniform(-0.5, 0.5, 2)
            tr.block(rb, "ext_o").values = np.array([rng.uniform(-3, 3)])
            for k in range(int(rng.integers(1, 30))):
                tr.add_landmark(rng.uniform(-5, 5, 2), RawIdInfo(k))
            tracker = make_tracker(tr, rb, gate=float(rng.uniform(0.1, 1.0)))
            pose = (*rng.uniform(-2, 2, 2), rng.uniform(-3, 3))
            scan = [[k, rng.uniform(0.2, 6.0), rng.uniform(-3, 3)]
                    for k in range(int(rng.integers(1, 15)))]
            self._assert_same(tracker, tr, pose, scan)

    def test_equidistant_tie_goes_to_lowest_index(self):
        tr, _, rb, _ = build_tree()
        lm_a = tr.add_landmark(np.array([1.0, 0.25]))
        tr.add_landmark(np.array([1.0, -0.25]))
        tracker = make_tracker(tr, rb)
        out = self._assert_same(tracker, tr, (0.0, 0.0, 0.0), [[1.0, 0.0], [2.0, 0.0]])
        assert out[0][2] == lm_a and out[1][2] is None

    def test_distance_at_gate_matches(self):
        tr, _, rb, _ = build_tree()
        lm = tr.add_landmark(np.array([1.5, 0.0]))
        tracker = make_tracker(tr, rb, gate=0.5)
        out = self._assert_same(tracker, tr, (0.0, 0.0, 0.0), [[1.0, 0.0], [0.9999, 0.0]])
        assert out[0][2] == lm and out[1][2] is None

    def test_empty_map(self):
        tr, _, rb, _ = build_tree()
        tracker = make_tracker(tr, rb)
        out = self._assert_same(tracker, tr, (1.0, 2.0, 0.3),
                                [[0, 1.0, 0.0], [1, 2.0, 1.0]])
        assert [o[2] for o in out] == [None, None]

    def test_id_association(self):
        tr, _, rb, _ = build_tree()
        lms = [tr.add_landmark(np.array([5.0 + k, 0.0]), RawIdInfo(k)) for k in range(3)]
        tracker = make_tracker(tr, rb, association="id")
        tracker._by_raw_id = {0: lms[0], 2: lms[2]}
        out = self._assert_same(tracker, tr, (0.0, 0.0, 0.0),
                                [[0, 1.0, 0.0], [1, 5.0, 0.0], [2, 1.0, 1.0], [1.0, 0.0]])
        assert [o[2] for o in out] == [lms[0], None, lms[2], None]


class TestLoopCloser:
    def _frame_with_observations(self, tr, rb, t, pose, obs):
        frame = tr.add_frame(t, pose)
        self._add_scan(tr, rb, frame, obs)
        return frame

    @staticmethod
    def _add_scan(tr, rb, frame, obs):
        t = tr.node(frame).timestamp
        cap = tr.add_capture(frame, t, rb)
        for raw_id, rng, brg in obs:
            landmark = tr.add_landmark(np.zeros(2), RawIdInfo(raw_id))
            tr.add_factor(cap, Factor(
                RANGE_BEARING, np.array([rng, brg]), np.eye(2),
                constrained=[(frame, "p"), (frame, "o"), (rb, "ext_p"), (rb, "ext_o"),
                             (landmark, "p")]), RawIdInfo(raw_id))

    def test_identity_loop(self):
        tr, _, rb, first = build_tree()
        obs = [(0, 1.0, 0.2), (1, 2.0, -0.4), (2, 1.5, 1.0)]
        pose = (0.0, 0.0, 0.0)
        closer = LoopCloser("loop", rb, "rb0", 1.0, 2, 2)
        frames = [self._frame_with_observations(tr, rb, float(k), pose, obs if k in (0, 4) else [])
                  for k in range(5)]
        factor = closer.detect_and_close(tr, frames[4])
        assert factor is not None
        payload = tr.node(factor).payload
        assert payload.kind == RELATIVE_POSE
        np.testing.assert_allclose(payload.z, [0.0, 0.0, 0.0], atol=1e-9)

    def test_quarter_turn_recovered(self):
        tr, _, rb, first = build_tree()
        closer = LoopCloser("loop", rb, "rb0", 1.0, 2, 2)
        # same world points seen from poses rotated by pi/2 about the sensor
        points = [np.array([1.0, 0.3]), np.array([0.4, -1.2]), np.array([-0.8, 0.9])]

        def scan_from(theta):
            out = []
            for i, w in enumerate(points):
                c, s = math.cos(theta), math.sin(theta)
                local = np.array([c * w[0] + s * w[1], -s * w[0] + c * w[1]])
                out.append((i, float(np.linalg.norm(local)),
                            math.atan2(local[1], local[0])))
            return out

        f_a = self._frame_with_observations(tr, rb, 0.0, (0.0, 0.0, 0.0),
                                            scan_from(0.0))
        for k in range(1, 4):
            self._frame_with_observations(tr, rb, float(k), (0.0, 0.0, 0.0), [])
        f_b = self._frame_with_observations(tr, rb, 4.0,
                                            (0.0, 0.0, math.pi / 2),
                                            scan_from(math.pi / 2))
        factor = closer.detect_and_close(tr, f_b)
        assert factor is not None
        np.testing.assert_allclose(tr.node(factor).payload.z, [0.0, 0.0, math.pi / 2],
                                   atol=1e-9)

    def test_mount_off_origin(self):
        # the sensor sits at (0.25, -0.1), turned by 0.6 rad: the scans are
        # in the sensor frame, the factor's z is the robot frame's relative
        # pose, here the second robot pose itself since the first is the origin
        tr, _, rb, first = build_tree()
        m_x, m_y, m_o = 0.25, -0.1, 0.6
        tr.block(rb, "ext_p").values = np.array([m_x, m_y])
        tr.block(rb, "ext_o").values = np.array([m_o])
        points = [np.array([1.0, 0.3]), np.array([0.4, -1.2]), np.array([-0.8, 0.9])]
        robot_b = (0.3, 0.1, math.pi / 3)

        def scan_from(x, y, theta):
            # the sensor's pose in the world, then each point in its frame
            c, s = math.cos(theta), math.sin(theta)
            sx, sy, so = x + c * m_x - s * m_y, y + s * m_x + c * m_y, theta + m_o
            out = []
            for i, (wx, wy) in enumerate(points):
                dx, dy = wx - sx, wy - sy
                lx = math.cos(so) * dx + math.sin(so) * dy
                ly = -math.sin(so) * dx + math.cos(so) * dy
                out.append((i, math.hypot(lx, ly), math.atan2(ly, lx)))
            return out

        self._frame_with_observations(tr, rb, 0.0, (0.0, 0.0, 0.0), scan_from(0.0, 0.0, 0.0))
        for k in range(1, 4):
            self._frame_with_observations(tr, rb, float(k), (0.0, 0.0, 0.0), [])
        f_b = self._frame_with_observations(tr, rb, 4.0, robot_b, scan_from(*robot_b))
        factor = LoopCloser("loop", rb, "rb0", 1.0, 2, 2).detect_and_close(tr, f_b)
        assert factor is not None
        np.testing.assert_allclose(tr.node(factor).payload.z, robot_b, atol=1e-9)

    def test_gap_too_small(self):
        tr, _, rb, first = build_tree()
        obs = [(0, 1.0, 0.2), (1, 2.0, -0.4)]
        closer = LoopCloser("loop", rb, "rb0", 1.0, 5, 2)
        pose = (0.0, 0.0, 0.0)
        f_a = self._frame_with_observations(tr, rb, 0.0, pose, obs)
        f_b = self._frame_with_observations(tr, rb, 1.0, pose, obs)
        assert closer.detect_and_close(tr, f_b) is None

    def test_random_rigid_transform_recovered(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            theta = rng.uniform(-np.pi, np.pi)
            t = rng.uniform(-2, 2, 2)
            b_pts = [rng.uniform(-3, 3, 2) for _ in range(5)]
            c, s = math.cos(theta), math.sin(theta)
            a_pts = [np.array([c * p[0] - s * p[1] + t[0],
                               s * p[0] + c * p[1] + t[1]]) for p in b_pts]
            got_theta, got_t = LoopCloser.align(a_pts, b_pts)
            assert abs(math.remainder(got_theta - theta, math.tau)) < 1e-9
            np.testing.assert_allclose(got_t, t, atol=1e-9)

    def test_each_frame_walked_once(self, monkeypatch):
        # the closing candidate's points come from the search; frame 1 lies
        # outside the radius and frame 3 inside the gap, so neither is walked,
        # and the search goes on past frame 0 to the tree's first frame
        tr, _, rb, first = build_tree()
        obs = [(0, 1.0, 0.2), (1, 2.0, -0.4), (2, 1.5, 1.0)]
        closer = LoopCloser("loop", rb, "rb0", 1.0, 2, 2)
        frames = [self._frame_with_observations(
            tr, rb, float(k), (5.0 if k == 1 else 0.0, 0.0, 0.0),
            obs if k in (0, 4) else []) for k in range(5)]
        walked = []
        observations = LoopCloser._observations

        def spy(self, tree, frame):
            walked.append(frame)
            return observations(self, tree, frame)

        monkeypatch.setattr(LoopCloser, "_observations", spy)
        assert closer.detect_and_close(tr, frames[4]) is not None
        assert walked == [frames[4], frames[2], frames[0], first]

    def test_candidates_read_once(self, monkeypatch):
        # a candidate's observations are read on its first visit only; the
        # current frame's on every call, since a coincident vote can still
        # add a scan to the newest frame; a frame leaving the tree leaves
        # the cache
        tr, _, rb, first = build_tree()
        obs = [(0, 1.0, 0.2), (1, 2.0, -0.4), (2, 1.5, 1.0)]
        late = [(5, 1.0, 0.0), (6, 1.2, 0.3)]
        pose = (0.0, 0.0, 0.0)
        closer = LoopCloser("loop", rb, "rb0", 1.0, 2, 2)
        frames = [self._frame_with_observations(tr, rb, float(k), pose, obs if k == 0 else [])
                  for k in range(3)]
        walked = []
        observations = LoopCloser._observations

        def spy(self, tree, frame):
            walked.append(frame)
            return observations(self, tree, frame)

        def close_from_new_frame(scan):
            frames.append(self._frame_with_observations(tr, rb, float(len(frames)), pose, scan))
            walked.clear()
            factor = closer.detect_and_close(tr, frames[-1])
            return None if factor is None else tr.node(factor).payload.constrained[0][0]

        monkeypatch.setattr(LoopCloser, "_observations", spy)
        assert close_from_new_frame(obs) == frames[0]
        assert walked == [frames[3], frames[1], frames[0], first]
        self._add_scan(tr, rb, frames[3], late)  # a coincident vote's scan
        assert close_from_new_frame(late) is None
        assert walked == [frames[4], frames[2]]
        assert close_from_new_frame(late) == frames[3]
        assert walked == [frames[5], frames[3]]
        tr.remove(frames[0])
        assert close_from_new_frame(late) == frames[4]  # the newer of two ties
        assert walked == [frames[6], frames[4]]
        assert set(closer._seen) == set(tr.frames()[:-2])  # frames[0] is gone

    def test_degenerate_alignment(self):
        with pytest.raises(AlignmentError):
            LoopCloser.align([np.zeros(2)], [np.zeros(2)])
        same = [np.array([1.0, 1.0])] * 3
        with pytest.raises(AlignmentError):
            LoopCloser.align(same, same)


class TestPipeline:
    def test_motion_keyframe_joined_by_tracker(self):
        tr, odom, rb, first = build_tree()
        motion = make_motion(tr, odom, first, max_dist=0.45)
        tracker = LandmarkTracker("tracker", rb, "rb0", min_tracks=1,
                                  time_tolerance=0.01, range_std=0.02, bearing_std=0.01)
        pipe = Pipeline(tr, [motion, tracker])
        pipe.initialize(first)
        # seed the map so the tracker does not vote on its own
        pipe.dispatch("rb0", 0.0, [[0, 1.0, 0.0], [1, 2.0, 0.5]])
        events = []
        for k in range(1, 7):
            pipe.dispatch("rb0", 0.1 * k - 0.001, [[0, 1.0, 0.0], [1, 2.0, 0.5]])
            events += pipe.dispatch("odom0", 0.1 * k, straight_step())
        assert len(events) == 1
        kf = events[0].frame
        kinds = sorted(tr.node(f).payload.kind for f in tr.factors_referencing(kf))
        assert MOTION in kinds and RANGE_BEARING in kinds
        # the joined frame still has exactly the pose blocks
        assert set(tr.node(kf).state_blocks) == {"p", "o"}
        assert tr.check_consistency() == []

    def test_pose_provider_uses_high_rate(self):
        tr, odom, rb, first = build_tree()
        motion = make_motion(tr, odom, first, max_dist=100.0)
        tracker = LandmarkTracker("tracker", rb, "rb0", min_tracks=1,
                                  time_tolerance=0.01, range_std=0.02, bearing_std=0.01)
        pipe = Pipeline(tr, [motion, tracker])
        pipe.initialize(first)
        for k in range(1, 6):
            pipe.dispatch("odom0", 0.1 * k, straight_step())
        pose = pipe.pose_at(tr, 0.5)
        np.testing.assert_allclose(np.array(pose), [0.5, 0.0, 0.0], atol=1e-12)

    def test_pose_falls_back_to_newest_frame(self):
        # no processor offers a pose: the newest frame's holds from its time on
        tr, _, _, first = build_tree()
        newest = tr.add_frame(1.0, (1.0, 2.0, 0.3))
        pipe = Pipeline(tr, [Stamp()])
        pipe.initialize(first)
        for t in (1.0, 2.5):
            np.testing.assert_array_equal(np.array(pipe.pose_at(tr, t)),
                                          np.array(tr.frame_pose(newest)))
        with pytest.raises(ContractError, match="no pose estimate available at t=0.5"):
            pipe.pose_at(tr, 0.5)

    def test_new_frame_takes_pipeline_pose(self):
        # both processors offer a pose and the second votes: the new frame
        # takes Pipeline.pose_at's, the first processor's, not the voter's
        tr, _, _, first = build_tree()
        ahead = Posed("a", (1.0, 0.0, 0.1))
        voter = Posed("b", (5.0, 5.0, -0.2))
        pipe = Pipeline(tr, [ahead, voter])
        pipe.initialize(first)
        (event,) = pipe.dispatch("b", 1.0, None)
        pose = np.array(tr.frame_pose(event.frame))
        np.testing.assert_array_equal(pose, np.array(pipe.pose_at(tr, 1.0)))
        np.testing.assert_array_equal(pose, np.array(ahead.pose))

    def test_held_join_tracker_ahead_of_odometry(self):
        # the scan at 0.5 comes before the odometry sample at 0.5: the
        # tracker votes on its empty map, the motion processor has no sample
        # near 0.5 yet, and its next sample completes the keyframe
        tr, odom, rb, first = build_tree()
        motion = make_motion(tr, odom, first, max_dist=10.0)
        tracker = LandmarkTracker("tracker", rb, "rb0", min_tracks=3,
                                  time_tolerance=0.01, range_std=0.02, bearing_std=0.01)
        pipe = Pipeline(tr, [motion, tracker])
        pipe.initialize(first)
        for k in range(1, 5):
            pipe.dispatch("odom0", 0.1 * k, straight_step())
        assert pipe.dispatch("rb0", 0.5, [[0, 1.0, 0.0], [1, 2.0, 0.5]]) == []
        assert motion.buffer.origin_frame == first
        (event,) = pipe.dispatch("odom0", 0.5, straight_step())
        assert event.t == 0.5
        assert motion.buffer.origin_frame == event.frame
        kinds = sorted(tr.node(f).payload.kind for f in tr.factors_referencing(event.frame))
        assert kinds == [MOTION, RANGE_BEARING, RANGE_BEARING]
        # joined once: the next sample starts the new interval
        assert pipe.dispatch("odom0", 0.6, straight_step()) == []
        assert len(motion.buffer.entries) == 1
        assert len(tr.frames()) == 2
        assert tr.check_consistency() == []

    def test_scan_within_tolerance_after_motion_keyframe_attaches(self):
        tr, odom, rb, first = build_tree()
        motion = make_motion(tr, odom, first, max_dist=0.45)
        tracker = LandmarkTracker("tracker", rb, "rb0", min_tracks=1,
                                  time_tolerance=0.01, range_std=0.02, bearing_std=0.01,
                                  association="id")
        pipe = Pipeline(tr, [motion, tracker])
        pipe.initialize(first)
        pipe.dispatch("rb0", 0.0, [[0, 1.0, 0.0], [1, 2.0, 0.5]])  # map at the first frame
        events = []
        for k in range(1, 6):
            events += pipe.dispatch("odom0", 0.1 * k, straight_step())
            if k == 3:
                pipe.dispatch("rb0", 0.3, [[0, 0.7, 0.0], [1, 1.7, 0.6]])
        assert events == []  # the vote at 0.5 waits: the scan at 0.3 is too old for it
        events += pipe.dispatch("rb0", 0.505, [[0, 0.5, 0.0], [1, 1.5, 0.6]])
        (event,) = events
        assert event.t == 0.5
        kinds = sorted(tr.node(f).payload.kind for f in tr.factors_referencing(event.frame))
        assert kinds == [MOTION, RANGE_BEARING, RANGE_BEARING]
        assert tracker._pending is None
        # a scan past the tolerance of the next keyframe makes it without a
        # scan, before the tracker reads that scan
        for k in range(6, 11):
            events += pipe.dispatch("odom0", 0.1 * k, straight_step())
        assert len(events) == 1
        (late,) = pipe.dispatch("rb0", 1.02, [[0, 0.5, 0.0]])
        events.append(late)
        assert len(events) == 2
        kinds = [tr.node(f).payload.kind for f in tr.factors_referencing(events[1].frame)]
        assert kinds == [MOTION]
        assert tracker._pending[0] == 1.02
        assert pipe._vote is None
        assert tr.check_consistency() == []

    def test_voters_further_votes_dropped_while_its_vote_waits(self):
        # the tracker's tolerance (0.15 s) spans an odometry tick (0.1 s), so
        # the motion vote at 0.3 still waits for a scan when the sample at
        # 0.4 votes again; that vote is dropped, and the scan at 0.42 makes
        # the one frame, at 0.3, with the scan on it
        tr, odom, rb, first = build_tree()
        motion = make_motion(tr, odom, first, max_dist=0.25)
        tracker = LandmarkTracker("tracker", rb, "rb0", time_tolerance=0.15,
                                  range_std=0.02, bearing_std=0.01)
        pipe = Pipeline(tr, [motion, tracker])
        pipe.initialize(first)
        events = []
        for k in range(1, 5):
            events += pipe.dispatch("odom0", 0.1 * k, straight_step())
        assert events == [] and pipe._vote == (0.1 * 3, motion)
        assert motion._vote(motion.buffer.tail)  # the sample at 0.4 voted too
        (event,) = pipe.dispatch("rb0", 0.42, [[0, 1.0, 0.0], [1, 2.0, 0.5]])
        assert event.t == 0.1 * 3
        kinds = sorted(tr.node(f).payload.kind for f in tr.factors_referencing(event.frame))
        assert kinds == [MOTION, RANGE_BEARING, RANGE_BEARING]
        assert len(motion.buffer.entries) == 1  # the sample at 0.4 starts the next interval
        assert pipe._vote is None and len(tr.frames()) == 2
        assert tr.check_consistency() == []

    def test_declined_frame_offered_once(self):
        # 100 Hz odometry votes between 20 Hz scans: the tracker has no scan
        # within tolerance of most keyframes and is offered only the others
        tr, odom, rb, first = build_tree()
        motion = MotionProcessor("odom", odom, "odom0", time_tolerance=0.005,
                                 tick_std=0.001, max_dist=0.075)
        offers = []

        class OfferLog(LandmarkTracker):
            def attach(self, tree, frame, t):
                offers.append(frame)
                return super().attach(tree, frame, t)

        tracker = OfferLog("tracker", rb, "rb0", time_tolerance=0.005,
                           range_std=0.02, bearing_std=0.01)
        pipe = Pipeline(tr, [motion, tracker])
        pipe.initialize(first)
        events = []
        for k in range(1, 101):
            t = 0.01 * k
            if k % 5 == 0:  # the scan goes before the odometry at its tick
                events += pipe.dispatch("rb0", t, [[0, 1.0, 0.0], [1, 2.0, 0.5]])
            events += pipe.dispatch("odom0", t, straight_step(1.0))
        frames = [event.frame for event in events]
        assert len(frames) == 12
        with_scans = [f for f in frames if RANGE_BEARING in
                      [tr.node(x).payload.kind for x in tr.factors_referencing(f)]]
        assert offers == with_scans  # each ready frame once, in order
        assert 0 < len(with_scans) < len(frames)
        assert tr.check_consistency() == []

    def test_motion_not_ready_is_not_offered(self):
        # the tracker votes at 0.25 in an odometry gap: the frame is made on
        # the next sample, past the wait, with the scan and without a motion
        # factor: the motion processor is not ready at 0.25, is not offered
        # the frame, and its buffer stays anchored at the first frame
        app = auto_setup(parse_config(DEMO_CONFIG.read_text()))
        tr, pipe, first = app.tree, app.pipeline, app.first_frame
        motion, _ = pipe.processors
        scan = [[1.0, 0.0], [2.0, 0.5], [1.5, -0.5]]
        events = pipe.dispatch("rb0", 0.0, scan)
        for k in range(1, 21):
            events += pipe.dispatch("odom0", 0.01 * k, [0.05, 0.05])
            if k == 10:
                events += pipe.dispatch("rb0", 0.1, scan)  # re-arms the vote
        events += pipe.dispatch("rb0", 0.25, scan[:2])
        events += pipe.dispatch("odom0", 0.27, [0.05, 0.05])
        events += pipe.dispatch(None, math.inf, None)
        (event,) = events
        assert event.t == 0.25
        kinds = [tr.node(f).payload.kind for f in tr.factors_referencing(event.frame)]
        assert kinds and set(kinds) == {RANGE_BEARING}
        assert motion.buffer.origin_frame == first
        assert tr.check_consistency() == []

    def test_unknown_processor_type_takes_part(self):
        # two processors of a type defined here: a keyframe goes to its
        # voter first, then to the others in installation order
        tr, odom, _, first = build_tree()
        motion = make_motion(tr, odom, first, max_dist=0.45)
        log = []
        pipe = Pipeline(tr, [Stamp("a", log), motion, Stamp("b", log)])
        pipe.initialize(first)
        events = []
        for k in range(1, 8):
            events += pipe.dispatch("odom0", 0.1 * k, straight_step())
        (motion_kf,) = events
        # b's vote is ahead of the odometry, whose next sample completes it
        assert pipe.dispatch("b", 0.8, None) == []
        (b_kf,) = pipe.dispatch("odom0", 0.8, straight_step())
        assert b_kf.t == 0.8
        assert log == [("a", motion_kf.frame, motion_kf.t, 1), ("b", motion_kf.frame, motion_kf.t, 1),
                       ("b", b_kf.frame, 0.8, 0), ("a", b_kf.frame, 0.8, 0)]
        kinds = [tr.node(f).payload.kind for f in tr.factors_referencing(b_kf.frame)]
        assert kinds == [MOTION]
        assert motion.buffer.origin_frame == b_kf.frame
