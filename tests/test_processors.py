import math

import numpy as np
import pytest

from arbor import tree as T
from arbor.errors import AlignmentError, ContractError, DecompositionError
from arbor.factors import MOTION, RANGE_BEARING, RELATIVE_POSE, Factor
from arbor.manifold import ANGLE, Pose2, StateBlock, pose_compose
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

from test_preint import as_pose

C_NOM = np.array([0.1, 0.1, 0.5])


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
    first = tr.add_frame(0.0, Pose2.identity())
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
        np.testing.assert_allclose(as_pose(proc.buffer.tail.delta).as_array(), [0, 0, 0])

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
        np.testing.assert_allclose(tr.frame_pose(event.frame).as_array(),
                                   [0.5, 0.0, 0.0], atol=1e-12)

    def test_join_within_tolerance(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=10.0)
        for k in range(1, 6):
            proc.process_capture(tr, 0.1 * k, straight_step())
        foreign = tr.add_frame(0.305, Pose2.identity())
        joined = proc.attach(tr, foreign, 0.305)
        assert joined is True
        assert proc.buffer.origin_frame == foreign
        assert len(proc.buffer.entries) == 2  # samples at 0.4, 0.5 re-integrated
        kinds = [tr.node(f).payload.kind for f in tr.factors_referencing(foreign)]
        assert MOTION in kinds

    def test_join_declined_out_of_tolerance(self):
        tr, odom, _, first = build_tree()
        proc = make_motion(tr, odom, first, max_dist=10.0)
        for k in range(1, 6):
            proc.process_capture(tr, 0.1 * k, straight_step())
        foreign = tr.add_frame(0.35, Pose2.identity())
        before = tr.print_tree()
        joined = proc.attach(tr, foreign, 0.35)
        assert not joined
        assert tr.print_tree() == before  # decline never mutates

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
                foreign = tr.add_frame(t, Pose2.identity())
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
        np.testing.assert_allclose(as_pose(proc.buffer.tail.delta).as_array(), [0, 0, 0])
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

    def test_uninitialized_rejected(self):
        tr, odom, _, _ = build_tree()
        proc = MotionProcessor("odom", odom, "odom0", 0.01, 0.001, max_dist=1.0)
        with pytest.raises(ContractError, match="has no origin yet"):
            proc.process_capture(tr, 0.1, straight_step())


def make_tracker(tr, rb, pose=Pose2.identity(), **kw):
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
        out = tracker._associate(tr, Pose2.identity(), [[1.0, 0.0]])
        raw_id, z, matched, world = out[0]
        assert matched == lm
        np.testing.assert_allclose(world, [1.0, 0.0], atol=1e-12)

    def test_gate_tie_breaks_to_lowest_index(self):
        tr, _, rb, first = build_tree()
        lm_a = tr.add_landmark(np.array([1.0, 0.1]))
        lm_b = tr.add_landmark(np.array([1.0, -0.1]))
        tracker = make_tracker(tr, rb)
        out = tracker._associate(tr, Pose2.identity(), [[1.0, 0.0]])
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

    def test_unseen_window_spawns_fresh_landmark(self):
        tr, _, rb, first = build_tree()
        tracker = make_tracker(tr, rb, min_tracks=5,
                               association="id", max_unseen_frames=2)
        tracker._kf_count = 10
        stale = tr.add_landmark(np.array([1.0, 0.0]), RawIdInfo(3))
        tracker._by_raw_id[3] = stale
        tracker._last_seen[stale] = 1  # last seen 9 keyframes ago
        out = tracker._associate(tr, Pose2.identity(), [[3, 1.0, 0.0]])
        assert out[0][2] is None


def reference_associate(tracker, tr, pose, scan):
    """Association one observation at a time, each against every candidate."""
    s, _, _ = pose_compose(pose, sensor_extrinsic(tr, tracker.sensor_id))
    landmarks = [lm for lm in tr.children(tr.map_id, T.LANDMARK) if tracker._window_ok(lm)]
    out = []
    for m in scan:
        raw_id = int(m[0]) if len(m) == 3 else None
        rng, brg = float(m[-2]), float(m[-1])
        heading = s.theta + brg
        world = (s.p[0] + rng * math.cos(heading), s.p[1] + rng * math.sin(heading))
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
            for k in range(int(rng.integers(1, 30))):
                tr.add_landmark(rng.uniform(-5, 5, 2), RawIdInfo(k))
            tracker = make_tracker(tr, rb, gate=float(rng.uniform(0.1, 1.0)))
            pose = Pose2(rng.uniform(-2, 2, 2), rng.uniform(-3, 3))
            scan = [[k, rng.uniform(0.2, 6.0), rng.uniform(-3, 3)]
                    for k in range(int(rng.integers(1, 15)))]
            self._assert_same(tracker, tr, pose, scan)

    def test_equidistant_tie_goes_to_lowest_index(self):
        tr, _, rb, _ = build_tree()
        lm_a = tr.add_landmark(np.array([1.0, 0.25]))
        tr.add_landmark(np.array([1.0, -0.25]))
        tracker = make_tracker(tr, rb)
        out = self._assert_same(tracker, tr, Pose2.identity(), [[1.0, 0.0], [2.0, 0.0]])
        assert out[0][2] == lm_a and out[1][2] is None

    def test_distance_at_gate_matches(self):
        tr, _, rb, _ = build_tree()
        lm = tr.add_landmark(np.array([1.5, 0.0]))
        tracker = make_tracker(tr, rb, gate=0.5)
        out = self._assert_same(tracker, tr, Pose2.identity(), [[1.0, 0.0], [0.9999, 0.0]])
        assert out[0][2] == lm and out[1][2] is None

    def test_empty_map(self):
        tr, _, rb, _ = build_tree()
        tracker = make_tracker(tr, rb)
        out = self._assert_same(tracker, tr, Pose2(np.array([1.0, 2.0]), 0.3),
                                [[0, 1.0, 0.0], [1, 2.0, 1.0]])
        assert [o[2] for o in out] == [None, None]

    def test_id_association(self):
        tr, _, rb, _ = build_tree()
        lms = [tr.add_landmark(np.array([5.0 + k, 0.0]), RawIdInfo(k)) for k in range(3)]
        tracker = make_tracker(tr, rb, association="id")
        tracker._by_raw_id = {0: lms[0], 2: lms[2]}
        out = self._assert_same(tracker, tr, Pose2.identity(),
                                [[0, 1.0, 0.0], [1, 5.0, 0.0], [2, 1.0, 1.0], [1.0, 0.0]])
        assert [o[2] for o in out] == [lms[0], None, lms[2], None]


class TestLoopCloser:
    def _frame_with_observations(self, tr, rb, t, pose, obs):
        frame = tr.add_frame(t, pose)
        cap = tr.add_capture(frame, t, rb)
        for raw_id, rng, brg in obs:
            landmark = tr.add_landmark(np.zeros(2), RawIdInfo(raw_id))
            tr.add_factor(cap, Factor(
                RANGE_BEARING, np.array([rng, brg]), np.eye(2),
                constrained=[(frame, "p"), (frame, "o"), (rb, "ext_p"), (rb, "ext_o"),
                             (landmark, "p")]), RawIdInfo(raw_id))
        return frame

    def test_identity_loop(self):
        tr, _, rb, first = build_tree()
        obs = [(0, 1.0, 0.2), (1, 2.0, -0.4), (2, 1.5, 1.0)]
        pose = Pose2(np.zeros(2), 0.0)
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

        f_a = self._frame_with_observations(tr, rb, 0.0, Pose2(np.zeros(2), 0.0),
                                            scan_from(0.0))
        for k in range(1, 4):
            self._frame_with_observations(tr, rb, float(k), Pose2(np.zeros(2), 0.0), [])
        f_b = self._frame_with_observations(tr, rb, 4.0,
                                            Pose2(np.zeros(2), math.pi / 2),
                                            scan_from(math.pi / 2))
        factor = closer.detect_and_close(tr, f_b)
        assert factor is not None
        np.testing.assert_allclose(tr.node(factor).payload.z, [0.0, 0.0, math.pi / 2],
                                   atol=1e-9)

    def test_gap_too_small(self):
        tr, _, rb, first = build_tree()
        obs = [(0, 1.0, 0.2), (1, 2.0, -0.4)]
        closer = LoopCloser("loop", rb, "rb0", 1.0, 5, 2)
        pose = Pose2(np.zeros(2), 0.0)
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
            tr, rb, float(k), Pose2(np.array([5.0 if k == 1 else 0.0, 0.0]), 0.0),
            obs if k in (0, 4) else []) for k in range(5)]
        walked = []
        observations = LoopCloser._observations

        def spy(self, tree, frame):
            walked.append(frame)
            return observations(self, tree, frame)

        monkeypatch.setattr(LoopCloser, "_observations", spy)
        assert closer.detect_and_close(tr, frames[4]) is not None
        assert walked == [frames[4], frames[2], frames[0], first]

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
        np.testing.assert_allclose(pose.as_array(), [0.5, 0.0, 0.0], atol=1e-12)

    def test_pose_falls_back_to_newest_frame(self):
        # no processor offers a pose: the newest frame's holds from its time on
        tr, _, _, first = build_tree()
        newest = tr.add_frame(1.0, Pose2(np.array([1.0, 2.0]), 0.3))
        pipe = Pipeline(tr, [Stamp()])
        pipe.initialize(first)
        for t in (1.0, 2.5):
            np.testing.assert_array_equal(pipe.pose_at(tr, t).as_array(),
                                          tr.frame_pose(newest).as_array())
        with pytest.raises(ContractError, match="no pose estimate available at t=0.5"):
            pipe.pose_at(tr, 0.5)

    def test_new_frame_takes_pipeline_pose(self):
        # both processors offer a pose and the second votes: the new frame
        # takes Pipeline.pose_at's, the first processor's, not the voter's
        tr, _, _, first = build_tree()
        ahead = Posed("a", Pose2(np.array([1.0, 0.0]), 0.1))
        voter = Posed("b", Pose2(np.array([5.0, 5.0]), -0.2))
        pipe = Pipeline(tr, [ahead, voter])
        pipe.initialize(first)
        (event,) = pipe.dispatch("b", 1.0, None)
        pose = tr.frame_pose(event.frame).as_array()
        np.testing.assert_array_equal(pose, pipe.pose_at(tr, 1.0).as_array())
        np.testing.assert_array_equal(pose, ahead.pose.as_array())

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

    def test_declined_frame_offered_once(self):
        # 100 Hz odometry votes between 20 Hz scans: the tracker has no scan
        # within tolerance of most keyframes and declines each once
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
        assert offers == frames  # each once, in order
        with_scans = [f for f in frames if RANGE_BEARING in
                      [tr.node(x).payload.kind for x in tr.factors_referencing(f)]]
        assert 0 < len(with_scans) < len(frames)
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
