"""Front-end processors and the keyframe broadcast/join protocol.

Three processors populate the tree from raw captures:

* the motion processor pre-integrates odometry between keyframes, votes for
  a new keyframe on distance/angle/time thresholds, and emits one motion
  factor per interval (carrying the frozen delta, covariance, and
  calibration Jacobian, so the sensor intrinsics stay estimable);
* the landmark tracker turns range-bearing scans into features, associates
  them to map landmarks (by carried id or by nearest-within-gate), creates
  landmarks for the unmatched, and votes when its track count drops;
* the loop closer compares the raw landmark ids observed from the current
  keyframe against past keyframes nearby, aligns the shared points, and
  adds a relative-pose factor.

Keyframes made by one processor are broadcast to the others, which join by
splitting their buffers (or attaching their pending capture) when the
timestamps agree within their tolerance; a declined join never mutates the
tree.  If a vote lands within tolerance of an existing frame, the voter
joins that frame instead of creating a twin.

Nodes enter the tree only through the ``ProblemTree`` builders
(``add_frame``, ``add_capture``, ``add_factor``, ``add_landmark``, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import tree as T
from .errors import (
    AlignmentError,
    ContractError,
    DecompositionError,
    JoinToleranceError,
    NotFoundError,
    NotReadyError,
    RecordFormatError,
)
from .factors import (
    MOTION,
    RANGE_BEARING,
    RELATIVE_POSE,
    Factor,
    MotionData,
    whiten,
)
from .manifold import Pose2, pose_between, pose_compose, rot2
from .preint import (
    DiffDriveModel,
    PreintBuffer,
    RawMotion,
    integrate_step,
    split_buffer,
    state_at_high_rate,
)


@dataclass
class KeyframePolicy:
    """Positive keyframe vote thresholds; any subset may be enabled."""

    max_dist: Optional[float] = None
    max_angle: Optional[float] = None
    max_time: Optional[float] = None
    min_tracks: Optional[int] = None


@dataclass
class LoopPolicy:
    """Positive loop-closure search bounds."""

    radius: float
    min_frame_gap: int
    min_shared_landmarks: int


@dataclass
class KeyframeEvent:
    t: float
    frame: T.NodeId
    creator: object  # the processor that voted the keyframe


@dataclass
class SensorInfo:
    """Payload of a Sensor node: identity plus noise levels by name.

    The prior sigmas request weak priors on unfixed calibration blocks at
    their configured initial guesses, which keeps self-calibration well
    conditioned before the data pins it down.  Extrinsic priors take
    (sigma_position, sigma_heading).
    """

    name: str
    type_name: str
    noise: dict = field(default_factory=dict)
    intrinsic_prior_sigma: Optional[float] = None
    extrinsic_prior_sigma: Optional[tuple] = None

    def tree_label(self):
        return f"{self.name} [{self.type_name}]"


@dataclass
class ProcessorInfo:
    name: str
    type_name: str
    sensor: T.NodeId

    def tree_label(self):
        return f"{self.name} [{self.type_name}] -> {self.sensor}"


@dataclass
class LandmarkInfo:
    raw_id: Optional[int] = None

    def tree_label(self):
        return "" if self.raw_id is None else f"id={self.raw_id}"


@dataclass
class FeatureInfo:
    """Payload of a tracker feature; its measurement is its factor's ``z``."""

    raw_id: Optional[int] = None

    def tree_label(self):
        return "" if self.raw_id is None else f"id={self.raw_id}"


def sensor_extrinsic(tree, sensor_id) -> Pose2:
    node = tree.node(sensor_id)
    return Pose2(node.state_blocks["ext_p"].values.copy(),
                 float(node.state_blocks["ext_o"].values[0]))


class MotionProcessor:
    """Pre-integrating odometry front-end with a distance/angle/time policy."""

    def __init__(self, name, sensor_id, sensor_name, policy: KeyframePolicy,
                 time_tolerance: float, tick_std: float,
                 model: DiffDriveModel | None = None):
        self.name = name
        self.sensor_id = sensor_id
        self.sensor_name = sensor_name
        self.policy = policy
        self.time_tolerance = float(time_tolerance)
        self.model = model or DiffDriveModel()
        self.q_u = np.eye(2) * tick_std**2
        self.buffer: Optional[PreintBuffer] = None
        # foreign keyframes whose timestamp is ahead of the integrated data;
        # retried as samples arrive, dropped once out of tolerance
        self._pending_joins: list = []

    def initialize(self, tree, origin_frame: T.NodeId):
        """Anchor the first buffer at an existing frame."""
        c_bar = tree.block(self.sensor_id, "intrinsic").values.copy()
        t0 = tree.node(origin_frame).timestamp
        self.buffer = PreintBuffer(origin_frame, t0, c_bar, self.model)

    def high_rate_pose(self, tree, t: float) -> Pose2:
        """Origin frame estimate advanced by the delta integrated up to t."""
        if self.buffer is None:
            raise NotReadyError(f"motion processor {self.name} has no origin yet")
        try:
            origin = tree.frame_pose(self.buffer.origin_frame)
        except NotFoundError as exc:
            # the window manager outran this buffer; n_frames must stay
            # larger than the lag between keyframes and origin re-anchoring
            raise NotReadyError(
                f"origin frame of {self.name} was removed; use a larger window"
            ) from exc
        return state_at_high_rate(self.buffer, origin, t)

    def process_capture(self, tree, t: float, data) -> Optional[KeyframeEvent]:
        if self.buffer is None:
            raise NotReadyError(f"motion processor {self.name} has no origin yet")
        if not isinstance(data, (list, tuple, np.ndarray)):
            raise RecordFormatError(f"bad {self.sensor_name} record at t={t}: "
                                    f"expected a list of wheel ticks, got {data!r}")
        try:
            ticks = tuple(map(float, data))
        except (TypeError, ValueError, OverflowError) as exc:
            raise RecordFormatError(f"bad {self.sensor_name} record at t={t}: {exc}") from exc
        if len(ticks) != len(self.q_u):
            raise RecordFormatError(f"bad {self.sensor_name} record at t={t}: "
                                    f"expected {len(self.q_u)} wheel ticks, got {len(ticks)}")
        integrate_step(self.buffer, RawMotion(t, ticks, self.q_u))
        self._retry_pending_joins(tree, t)
        if not self._vote(t):
            return None
        existing = tree.find_frame_near(t, self.time_tolerance)
        if existing is not None and existing != self.buffer.origin_frame:
            # a coincident frame already exists: join it instead of twinning
            self._try_join(tree, existing, tree.node(existing).timestamp)
            return None
        # whiten before touching the tree: a singular interval covariance
        # (stationary or pure-rotation interval) must fail atomically
        sqrt_info = whiten(self.buffer.q_delta)
        frame = tree.add_frame(t, self.high_rate_pose(tree, t))
        self._attach_segment(tree, frame, self.buffer, sqrt_info)
        self._reset(tree, frame, t)
        return KeyframeEvent(t, frame, self)

    def _vote(self, t: float) -> bool:
        # a pending join may have just emptied the buffer: its tail is then
        # the identity delta at the origin
        x, y, theta = self.buffer.tail.delta
        pol = self.policy
        if pol.max_dist is not None and math.hypot(x, y) > pol.max_dist:
            return True
        if pol.max_angle is not None and abs(theta) > pol.max_angle:
            return True
        if pol.max_time is not None and t - self.buffer.origin_t > pol.max_time:
            return True
        return False

    def _attach_segment(self, tree, frame: T.NodeId, segment: PreintBuffer,
                        sqrt_info: np.ndarray | None):
        """Capture/feature/motion-factor for one pre-integrated interval.

        ``sqrt_info`` is the whitened ``segment.q_delta``, or None for an
        empty segment, which attaches nothing.
        """
        if not segment.entries:
            return
        tail = segment.entries[-1]
        origin = segment.origin_frame
        capture = tree.add_capture(frame, tail.t, self.sensor_id)
        tree.add_factor(capture, Factor(
            kind=MOTION,
            z=np.array(tail.delta),
            sqrt_info=sqrt_info,
            constrained=[(origin, "p"), (origin, "o"),
                         (frame, "p"), (frame, "o"),
                         (self.sensor_id, "intrinsic")],
            aux=MotionData(tail.j_delta_c, segment.c_bar.copy()),
        ))

    def _reset(self, tree, frame: T.NodeId, t: float):
        c_bar = tree.block(self.sensor_id, "intrinsic").values.copy()
        self.buffer = PreintBuffer(frame, t, c_bar, self.model)

    def on_keyframe_broadcast(self, tree, event: KeyframeEvent) -> bool:
        """Join a foreign keyframe by splitting the buffer at its timestamp.

        A frame ahead of the integrated data (its sample has not arrived
        yet) is remembered and joined as soon as a sample within tolerance
        comes in.  Returns whether the frame was joined now.
        """
        if self.buffer is None:
            return False
        t_kf = tree.node(event.frame).timestamp
        if self._try_join(tree, event.frame, t_kf):
            return True
        if t_kf > self.buffer.tail.t:
            self._pending_joins.append((event.frame, t_kf))
        return False

    def _retry_pending_joins(self, tree, t: float):
        still_pending = []
        for frame, t_kf in self._pending_joins:
            if frame not in tree:
                continue
            if abs(t - t_kf) <= self.time_tolerance:
                self._try_join(tree, frame, t_kf)
            elif t < t_kf:
                still_pending.append((frame, t_kf))
        self._pending_joins = still_pending

    def _try_join(self, tree, frame: T.NodeId, t_kf: float) -> bool:
        """Split the buffer at t_kf and attach the first part to the frame.

        Declines, leaving the tree untouched, when no integrated sample lies
        within tolerance or the first part's covariance is singular (a
        one-sample segment carries no usable motion factor).
        """
        try:
            first, second = split_buffer(self.buffer, t_kf, self.time_tolerance)
            sqrt_info = whiten(first.q_delta) if first.entries else None
        except (JoinToleranceError, DecompositionError):
            return False
        self._attach_segment(tree, frame, first, sqrt_info)
        second.origin_frame = frame
        self.buffer = second
        return True


class LandmarkTracker:
    """Range-bearing feature tracker against the landmark map.

    Keeps the latest capture pending between keyframes and attaches its
    features/factors when a keyframe arrives (own vote or join).  Landmarks
    not seen for more than ``max_unseen_frames`` keyframes drop out of the
    association candidates, so revisits spawn fresh landmarks (loop closure
    is then up to the loop processor).
    """

    def __init__(self, name, sensor_id, sensor_name, policy: KeyframePolicy,
                 time_tolerance: float, range_std: float, bearing_std: float,
                 gate: float = 0.5, association: str = "gate",
                 max_unseen_frames: Optional[int] = None,
                 pose_provider: Optional[Callable] = None):
        if association not in ("gate", "id"):
            raise ContractError(f"unknown association mode {association!r}")
        self.name = name
        self.sensor_id = sensor_id
        self.sensor_name = sensor_name
        self.policy = policy
        self.time_tolerance = float(time_tolerance)
        self.sqrt_info = np.diag([1.0 / range_std, 1.0 / bearing_std])
        self.gate = gate
        self.association = association
        self.max_unseen_frames = max_unseen_frames
        self.pose_provider = pose_provider
        self._pending = None  # (t, the associations of _associate)
        self._by_raw_id: dict = {}
        self._last_seen: dict = {}  # landmark NodeId -> keyframe counter
        self._kf_count = 0
        # votes are edge triggered: one keyframe per drop below min_tracks,
        # re-armed once the track count recovers
        self._vote_armed = True

    def _window_ok(self, landmark) -> bool:
        if self.max_unseen_frames is None:
            return True
        return self._kf_count - self._last_seen.get(landmark, self._kf_count) \
            <= self.max_unseen_frames

    def _sensor_pose(self, tree, pose: Pose2) -> Pose2:
        s, _, _ = pose_compose(pose, sensor_extrinsic(tree, self.sensor_id))
        return s

    def _candidates(self, tree):
        """In-window map landmarks, in creation order, and their positions."""
        landmarks = tree.children(tree.map_id, T.LANDMARK)
        if self.max_unseen_frames is not None:
            landmarks = [lm for lm in landmarks if self._window_ok(lm)]
        return landmarks, tree.block_values(landmarks, "p")

    def _associate(self, tree, pose: Pose2, scan):
        """(raw id, (range, bearing), matched landmark or None, world point) per entry."""
        parsed = []
        try:
            for m in scan:
                if len(m) not in (2, 3):
                    raise ValueError(f"entry {m!r} is not [id, range, bearing] "
                                     "or [range, bearing]")
                rng, brg = float(m[-2]), float(m[-1])
                if not (math.isfinite(rng) and math.isfinite(brg)):
                    raise ValueError(f"entry {m!r} is not finite")
                if rng <= 0.0:
                    raise ValueError(f"entry {m!r} has a non-positive range")
                parsed.append((int(m[0]) if len(m) == 3 else None, rng, brg))
        except (TypeError, ValueError, OverflowError) as exc:
            raise RecordFormatError(f"bad {self.sensor_name} scan: {exc}") from exc
        s = self._sensor_pose(tree, pose)
        sx, sy = s.p.tolist()
        worlds = []
        for _, rng, brg in parsed:
            heading = s.theta + brg
            worlds.append((sx + rng * math.cos(heading), sy + rng * math.sin(heading)))
        matched = [None] * len(parsed)
        if self.association == "id":
            for i, (raw_id, _, _) in enumerate(parsed):
                lm = self._by_raw_id.get(raw_id) if raw_id is not None else None
                if lm is not None and lm in tree and self._window_ok(lm):
                    matched[i] = lm
        elif parsed:
            landmarks, points = self._candidates(tree)
            if landmarks:
                # one (observations x landmarks) distance matrix; argmin
                # tie-breaks to the lowest landmark index
                w = np.array(worlds)
                dists = np.hypot(w[:, :1] - points[:, 0], w[:, 1:] - points[:, 1])
                nearest = dists.argmin(axis=1)
                hits = dists[np.arange(len(worlds)), nearest] <= self.gate
                matched = [landmarks[k] if hit else None
                           for k, hit in zip(nearest.tolist(), hits.tolist())]
        return [(raw_id, (rng, brg), lm, world)
                for (raw_id, rng, brg), lm, world in zip(parsed, matched, worlds)]

    def process_capture(self, tree, t: float, data) -> Optional[KeyframeEvent]:
        if self.pose_provider is None:
            raise NotReadyError(f"tracker {self.name} has no pose provider")
        pose = self.pose_provider(tree, t)
        associations = self._associate(tree, pose, data)
        self._pending = (t, associations)
        matched = sum(1 for _, _, lm, _ in associations if lm is not None)
        if self.policy.min_tracks is None:
            return None
        if matched >= self.policy.min_tracks:
            self._vote_armed = True
            return None
        if not self._vote_armed:
            return None
        self._vote_armed = False
        existing = tree.find_frame_near(t, self.time_tolerance)
        if existing is not None:
            self._attach(tree, existing)
            return None
        frame = tree.add_frame(t, pose)
        self._attach(tree, frame)
        return KeyframeEvent(t, frame, self)

    def _attach(self, tree, frame: T.NodeId):
        """Add the pending capture with its features, landmarks and factors."""
        if self._pending is None:
            return
        t, associations = self._pending
        self._pending = None
        self._kf_count += 1
        capture = tree.add_capture(frame, t, self.sensor_id)
        for raw_id, z, matched, world in associations:
            landmark = matched
            if landmark is None:
                landmark = tree.add_landmark(world, LandmarkInfo(raw_id))
            if raw_id is not None:
                self._by_raw_id[raw_id] = landmark
            self._last_seen[landmark] = self._kf_count
            tree.add_factor(capture, Factor(
                kind=RANGE_BEARING,
                z=np.array(z),
                sqrt_info=self.sqrt_info.copy(),
                constrained=[(frame, "p"), (frame, "o"),
                             (self.sensor_id, "ext_p"), (self.sensor_id, "ext_o"),
                             (landmark, "p")],
            ), FeatureInfo(raw_id))

    def on_keyframe_broadcast(self, tree, event: KeyframeEvent) -> bool:
        """Attach the pending capture to a keyframe within tolerance of it."""
        if (self._pending is None
                or abs(self._pending[0] - tree.node(event.frame).timestamp) > self.time_tolerance):
            return False
        self._attach(tree, event.frame)
        return True


class LoopCloser:
    """Closes loops by aligning landmark observations shared with past frames."""

    def __init__(self, name, sensor_id, sensor_name, policy: LoopPolicy,
                 sigma_p: float = 0.05, sigma_o: float = 0.02):
        self.name = name
        self.sensor_id = sensor_id
        self.sensor_name = sensor_name
        self.policy = policy
        self.sqrt_info = np.diag([1.0 / sigma_p, 1.0 / sigma_p, 1.0 / sigma_o])

    def _observations(self, tree, frame: T.NodeId) -> dict:
        """Raw landmark id -> (range, bearing) seen from a frame by our sensor."""
        out = {}
        for capture in tree.children(frame, T.CAPTURE):
            if self.sensor_id not in tree.node(capture).refs:
                continue
            for feature in tree.children(capture, T.FEATURE):
                info = tree.node(feature).payload
                if isinstance(info, FeatureInfo) and info.raw_id is not None:
                    (factor,) = tree.children(feature, T.FACTOR)
                    out[info.raw_id] = tree.node(factor).payload.z
        return out

    @staticmethod
    def _local_points(obs: dict, ids) -> dict:
        return {
            i: np.array([obs[i][0] * math.cos(obs[i][1]),
                         obs[i][0] * math.sin(obs[i][1])])
            for i in ids
        }

    @staticmethod
    def align(points_a: list, points_b: list):
        """Rigid transform (theta, t) with a_i ~= R(theta) b_i + t.

        Rotation from the closed-form planar fit on centered point pairs,
        translation from the centroids.
        """
        if len(points_a) < 2 or len(points_a) != len(points_b):
            raise AlignmentError("alignment needs at least two shared points")
        a = np.asarray(points_a, dtype=float)
        b = np.asarray(points_b, dtype=float)
        a_c = a - a.mean(axis=0)
        b_c = b - b.mean(axis=0)
        dot = float(np.sum(a_c * b_c))
        cross = float(np.sum(b_c[:, 0] * a_c[:, 1] - b_c[:, 1] * a_c[:, 0]))
        if math.hypot(dot, cross) < 1e-12:
            raise AlignmentError("shared points have no spread; rotation is unobservable")
        theta = math.atan2(cross, dot)
        t = a.mean(axis=0) - rot2(theta) @ b.mean(axis=0)
        return theta, t

    def detect_and_close(self, tree, current: T.NodeId) -> Optional[T.NodeId]:
        frames = tree.frames()
        try:
            cur_pos = frames.index(current)
        except ValueError:
            raise NotFoundError(f"{current} is not a live frame") from None
        cur_obs = self._observations(tree, current)
        if not cur_obs:
            return None
        cur_pose = tree.frame_pose(current)

        best = None  # (shared count, -distance) maximized; ties -> older frame
        for pos in range(cur_pos - self.policy.min_frame_gap, -1, -1):
            cand = frames[pos]
            dist = float(np.linalg.norm(tree.frame_pose(cand).p - cur_pose.p))
            if dist > self.policy.radius:
                continue
            shared = sorted(set(cur_obs) & set(self._observations(tree, cand)))
            if len(shared) < self.policy.min_shared_landmarks:
                continue
            key = (len(shared), -dist)
            if best is None or key > best[0]:
                best = (key, cand, shared)
        if best is None:
            return None
        _, cand, shared = best

        cand_obs = self._observations(tree, cand)
        pts_a = self._local_points(cand_obs, shared)
        pts_b = self._local_points(cur_obs, shared)
        theta, t = self.align([pts_a[i] for i in shared], [pts_b[i] for i in shared])

        # sensor-frame transform conjugated into the robot frame: ext o T o ext^-1
        ext = sensor_extrinsic(tree, self.sensor_id)
        ext_inv, _, _ = pose_between(ext, Pose2.identity())
        step1, _, _ = pose_compose(ext, Pose2(t, theta))
        z_robot, _, _ = pose_compose(step1, ext_inv)

        capture = tree.add_capture(current, tree.node(current).timestamp, self.sensor_id)
        return tree.add_factor(capture, Factor(
            kind=RELATIVE_POSE,
            z=z_robot.as_array(),
            sqrt_info=self.sqrt_info.copy(),
            constrained=[(cand, "p"), (cand, "o"), (current, "p"), (current, "o")],
        ))

    def on_keyframe_broadcast(self, tree, event: KeyframeEvent):
        try:
            return self.detect_and_close(tree, event.frame)
        except AlignmentError:
            return None


class Pipeline:
    """Installation-ordered processors sharing one tree.

    Captures are dispatched to the processors bound to their sensor; a
    processor that votes a keyframe finishes its own bookkeeping before the
    event is broadcast to the others, in installation order.
    """

    def __init__(self, tree, processors):
        self.tree = tree
        self.processors = list(processors)
        for proc in self.processors:
            if isinstance(proc, LandmarkTracker) and proc.pose_provider is None:
                proc.pose_provider = self.pose_at

    def pose_at(self, tree, t: float) -> Pose2:
        """Best pose estimate at t: high-rate if a motion buffer covers it,
        else the newest frame at or before t."""
        for proc in self.processors:
            if isinstance(proc, MotionProcessor) and proc.buffer is not None:
                if proc.buffer.origin_t <= t:
                    return proc.high_rate_pose(tree, t)
        try:
            state = tree.state_at(t)
        except NotFoundError as exc:
            raise NotReadyError(f"no pose estimate available at t={t}") from exc
        if "p" not in state or "o" not in state:
            raise NotReadyError("no pose estimate available")
        return Pose2(state["p"], float(state["o"][0]))

    def initialize(self, first_frame: T.NodeId):
        for proc in self.processors:
            if isinstance(proc, MotionProcessor):
                proc.initialize(self.tree, first_frame)

    def dispatch(self, sensor_name: str, t: float, data) -> list:
        """Feed one capture; returns the keyframe events it triggered."""
        events = []
        for proc in self.processors:
            if getattr(proc, "sensor_name", None) != sensor_name:
                continue
            if not hasattr(proc, "process_capture"):
                continue
            event = proc.process_capture(self.tree, t, data)
            if event is not None:
                self.broadcast(event)
                events.append(event)
        return events

    def broadcast(self, event: KeyframeEvent):
        for proc in self.processors:
            if proc is event.creator:
                continue
            if hasattr(proc, "on_keyframe_broadcast"):
                proc.on_keyframe_broadcast(self.tree, event)
