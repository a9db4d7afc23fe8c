"""Front-end processors and the pipeline that owns the keyframe step.

Every processor implements the :class:`Processor` protocol: it reads the
captures of one sensor (``process_capture``, which may vote for a keyframe),
holds its data for a keyframe at t or not (``ready``), attaches that data
(``attach``), and may offer a pose estimate (``pose_at``).  :class:`Pipeline`
codes the keyframe step once.  A vote at t joins the newest frame if that
frame is within the voter's ``time_tolerance``; only the voter takes part.
Otherwise the vote waits until every processor is ready at t, or until a
capture later than t plus the widest ``time_tolerance``, another processor's
vote or the end of the input comes; the voter's own further votes meanwhile
are dropped.  Then it adds a frame at t with ``Pipeline.pose_at``'s pose.  A
keyframe is offered once to each processor ready at its time: the voter
first, then the others in installation order.  ``attach`` declines only when
its data cannot make a factor (the motion processor's singular interval),
and a decline never mutates the tree.

* The motion processor pre-integrates odometry between keyframes, votes on
  distance/angle/time thresholds, and emits one motion factor per interval
  (carrying the frozen delta, covariance, and calibration Jacobian, so the
  sensor intrinsics stay estimable).
* The landmark tracker turns range-bearing scans into features, associates
  them to map landmarks (by carried id or by nearest-within-gate), creates
  landmarks for the unmatched, and votes when its track count drops.
* The loop closer aligns the landmarks a new keyframe shares with a past
  keyframe nearby and adds a relative-pose factor.

Nodes enter the tree only through the ``ProblemTree`` builders.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tree as T
from .errors import (
    AlignmentError,
    ContractError,
    DecompositionError,
    NotFoundError,
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
from .manifold import between, compose, rot2
from .preint import (
    DiffDriveModel,
    PreintBuffer,
    integrate_step,
    interval_moments,
    nearest_sample,
    split_buffer,
    state_at_high_rate,
)


# JSON values that float() and int() read although they are not numbers
_NOT_NUMBERS = frozenset((str, bool))


@dataclass
class KeyframeEvent:
    t: float
    frame: T.NodeId


@dataclass
class SensorInfo:
    """Payload of a Sensor node: identity plus noise levels by name.  The
    priors on its calibration blocks hang on the Sensor node itself."""

    name: str
    type_name: str
    noise: dict = field(default_factory=dict)

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
class RawIdInfo:
    """Payload of a landmark or of a tracker feature: the id its sensor
    reported, if any.  A feature's measurement is its factor's ``z``."""

    raw_id: Optional[int] = None

    def tree_label(self):
        return "" if self.raw_id is None else f"id={self.raw_id}"


def sensor_extrinsic(tree, sensor_id) -> tuple:
    """The sensor's mount on the robot, (x, y, theta) as floats."""
    return tree.frame_pose(sensor_id, "ext_p", "ext_o")


class Processor:
    """What the pipeline calls; every method is a no-op default.  Captures
    of sensor ``sensor_name`` attach to keyframes within ``time_tolerance``."""

    sensor_name: Optional[str] = None
    time_tolerance: float = 0.0

    def initialize(self, tree, first_frame: T.NodeId, pose_at=None):
        """Once, before any capture; ``pose_at(tree, t)`` is the pipeline's."""

    def process_capture(self, tree, t: float, data) -> Optional[bool]:
        """Read one capture; True votes for a keyframe at t."""

    def ready(self, t: float) -> bool:
        """Whether own data for a keyframe at t is in; a vote waits for it."""
        return True

    def attach(self, tree, frame: T.NodeId, t: float) -> bool:
        """Attach own data to the keyframe at t, offered once if ``ready(t)``;
        False, only when the data makes no factor, leaves the tree untouched."""
        return True

    def pose_at(self, tree, t: float) -> Optional[tuple]:
        """Own pose estimate (x, y, theta) at t, if any."""


class MotionProcessor(Processor):
    """Pre-integrating odometry front-end; votes once the interval exceeds
    any of the positive thresholds ``max_dist``, ``max_angle``, ``max_time``
    given."""

    def __init__(self, name, sensor_id, sensor_name, time_tolerance: float, tick_std: float,
                 max_dist: Optional[float] = None, max_angle: Optional[float] = None,
                 max_time: Optional[float] = None):
        self.name = name
        self.sensor_id = sensor_id
        self.sensor_name = sensor_name
        self.max_dist = max_dist
        self.max_angle = max_angle
        self.max_time = max_time
        self.time_tolerance = float(time_tolerance)
        var = tick_std**2
        self.q_u = ((var, 0.0), (0.0, var))  # the ticks' covariance, as rows
        self.buffer: Optional[PreintBuffer] = None
        # the last vote's entry, whitened covariance and calibration
        # Jacobian, for attach to reuse
        self._voted: tuple = (None, None, None)

    def initialize(self, tree, first_frame: T.NodeId, pose_at=None):
        """Anchor the first buffer at an existing frame."""
        c_bar = tree.block(self.sensor_id, "intrinsic").values
        t0 = tree.node(first_frame).timestamp
        self.buffer = PreintBuffer(first_frame, t0, c_bar, DiffDriveModel())

    def pose_at(self, tree, t: float) -> Optional[tuple]:
        """Origin frame estimate advanced by the delta integrated up to t;
        None before the origin."""
        if self.buffer is None or self.buffer.origin_t > t:
            return None
        try:
            origin = tree.frame_pose(self.buffer.origin_frame)
        except NotFoundError as exc:
            # the window manager outran this buffer; n_frames must stay
            # larger than the lag between keyframes and origin re-anchoring
            raise ContractError(
                f"origin frame of {self.name} was removed; use a larger window"
            ) from exc
        return state_at_high_rate(self.buffer, origin, t)

    def process_capture(self, tree, t: float, data) -> Optional[bool]:
        if self.buffer is None:
            raise ContractError(f"motion processor {self.name} has no origin yet")
        try:
            # one pass: a tick that is not a finite number is left out, and
            # the count below reports it
            ticks = tuple([float(u) for u in data
                           if type(u) not in _NOT_NUMBERS and math.isfinite(u)])
        except (TypeError, OverflowError) as exc:
            raise RecordFormatError(f"bad {self.sensor_name} record at t={t}: {exc}") from exc
        if len(ticks) != len(self.q_u) or len(ticks) != len(data):
            raise RecordFormatError(f"bad {self.sensor_name} record at t={t}: "
                                    f"expected {len(self.q_u)} finite wheel ticks, got {data!r}")
        entry = integrate_step(self.buffer, t, ticks, self.q_u)
        if not self._vote(entry):
            return None
        # whiten before any frame exists: a singular interval covariance
        # (stationary or pure-rotation interval) must fail atomically
        self._voted = (entry, *self._moments(self.buffer))
        return True

    def _moments(self, buf):
        """The whitened covariance and the calibration Jacobian of ``buf``'s
        interval.  Ticks too large for them to be finite are a bad record,
        named by the interval's last sample."""
        with np.errstate(over="ignore", invalid="ignore"):
            q, j = interval_moments(buf)
        if not (np.isfinite(q).all() and np.isfinite(j).all()):
            raise RecordFormatError(f"bad {self.sensor_name} record at t={buf.tail.t}: "
                                    "wheel ticks too large for finite interval moments")
        return whiten(q), j

    def _vote(self, entry) -> bool:
        x, y, theta = entry.delta
        if self.max_dist is not None and math.hypot(x, y) > self.max_dist:
            return True
        if self.max_angle is not None and abs(theta) > self.max_angle:
            return True
        if self.max_time is not None and entry.t - self.buffer.origin_t > self.max_time:
            return True
        return False

    def ready(self, t: float) -> bool:
        return nearest_sample(self.buffer, t)[1] <= self.time_tolerance

    def attach(self, tree, frame: T.NodeId, t: float) -> bool:
        """Split the buffer at its sample nearest t, attach the first part's
        motion factor to the frame and restart there at the current
        calibration.  Declines, untouched, when the first part's covariance
        is singular (a one-sample part carries no usable factor)."""
        if frame == self.buffer.origin_frame:
            return True
        c_bar = tree.block(self.sensor_id, "intrinsic").values
        try:
            first, rest = split_buffer(self.buffer, t, c_bar)
            tail = first.entries[-1] if first.entries else None
            voted, sqrt_info, j = self._voted
            if tail is not None and tail is not voted:
                sqrt_info, j = self._moments(first)
        except DecompositionError:
            return False
        if tail is not None:  # an empty first part attaches nothing
            origin = first.origin_frame
            capture = tree.add_capture(frame, tail.t, self.sensor_id)
            tree.add_factor(capture, Factor(
                kind=MOTION,
                z=np.array(tail.delta),
                sqrt_info=sqrt_info,
                constrained=[(origin, "p"), (origin, "o"),
                             (frame, "p"), (frame, "o"),
                             (self.sensor_id, "intrinsic")],
                aux=MotionData(j, np.array(first.c_bar)),
            ))
        rest.origin_frame = frame
        self.buffer = rest
        return True


class LandmarkTracker(Processor):
    """Range-bearing feature tracker against the landmark map.

    Keeps the latest capture pending between keyframes and attaches its
    features/factors to a keyframe within tolerance of it.  With
    ``min_tracks`` it votes once its matched count drops below it.  Landmarks
    not seen for more than ``max_unseen_frames`` keyframes drop out of the
    association candidates, so revisits spawn fresh landmarks (loop closure
    is then up to the loop processor).
    """

    def __init__(self, name, sensor_id, sensor_name, time_tolerance: float,
                 range_std: float, bearing_std: float, min_tracks: Optional[int] = None,
                 gate: float = 0.5, association: str = "gate",
                 max_unseen_frames: Optional[int] = None):
        if association not in ("gate", "id"):
            raise ContractError(f"unknown association mode {association!r}")
        self.name = name
        self.sensor_id = sensor_id
        self.sensor_name = sensor_name
        self.min_tracks = min_tracks
        self.time_tolerance = float(time_tolerance)
        self.sqrt_info = np.diag([1.0 / range_std, 1.0 / bearing_std])
        self.gate = gate
        self.association = association
        self.max_unseen_frames = max_unseen_frames
        self._pose_at = None  # the pipeline's pose estimate, from initialize
        self._pending = None  # (t, the associations of _associate)
        self._by_raw_id: dict = {}
        self._last_seen: dict = {}  # landmark NodeId -> keyframe counter
        self._kf_count = 0
        # votes are edge triggered: one keyframe per drop below min_tracks,
        # re-armed once the track count recovers
        self._vote_armed = True

    def initialize(self, tree, first_frame: T.NodeId, pose_at=None):
        """Take the pose estimate; know the map's landmarks by raw id."""
        self._pose_at = pose_at
        for lm in tree.children(tree.map_id, T.LANDMARK):
            info = tree.node(lm).payload
            if isinstance(info, RawIdInfo) and info.raw_id is not None:
                self._by_raw_id[info.raw_id] = lm

    def _window_ok(self, landmark) -> bool:
        if self.max_unseen_frames is None:
            return True
        return self._kf_count - self._last_seen.get(landmark, self._kf_count) \
            <= self.max_unseen_frames

    def _candidates(self, tree):
        """In-window map landmarks, in creation order, and their positions."""
        landmarks = tree.children(tree.map_id, T.LANDMARK)
        if self.max_unseen_frames is not None:
            landmarks = [lm for lm in landmarks if self._window_ok(lm)]
        return landmarks, tree.block_values(landmarks, "p")

    def _associate(self, tree, pose: tuple, scan):
        """(raw id, (range, bearing), matched landmark or None, world point)
        per entry, for a robot at ``pose`` (x, y, theta)."""
        sx, sy, heading = compose(pose, sensor_extrinsic(tree, self.sensor_id))
        parsed, worlds = [], []
        try:
            for m in scan:
                if not _NOT_NUMBERS.isdisjoint(map(type, m)):
                    bad = next(v for v in m if type(v) in _NOT_NUMBERS)
                    raise ValueError(f"{bad!r} is not a number")
                if len(m) == 2:
                    raw_id = None
                elif len(m) == 3 and m[0] == int(m[0]):
                    raw_id = int(m[0])
                else:
                    raise ValueError(f"entry {m!r} is not [integer id, range, bearing] "
                                     "or [range, bearing]")
                rng, brg = float(m[-2]), float(m[-1])
                if not (math.isfinite(rng) and math.isfinite(brg)):
                    raise ValueError(f"entry {m!r} is not finite")
                if rng <= 0.0:
                    raise ValueError(f"entry {m!r} has a non-positive range")
                parsed.append((raw_id, rng, brg))
                bearing = heading + brg
                worlds.append((sx + rng * math.cos(bearing), sy + rng * math.sin(bearing)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise RecordFormatError(f"bad {self.sensor_name} scan: {exc}") from exc
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
                hits = dists.min(axis=1) <= self.gate
                matched = [landmarks[k] if hit else None
                           for k, hit in zip(dists.argmin(axis=1).tolist(), hits.tolist())]
        return [(raw_id, (rng, brg), lm, world)
                for (raw_id, rng, brg), lm, world in zip(parsed, matched, worlds)]

    def process_capture(self, tree, t: float, data) -> Optional[bool]:
        if self._pose_at is None:
            raise ContractError(f"tracker {self.name} has no pose estimate")
        pose = self._pose_at(tree, t)
        associations = self._associate(tree, pose, data)
        self._pending = (t, associations)
        matched = sum(1 for _, _, lm, _ in associations if lm is not None)
        if self.min_tracks is None:
            return None
        if matched >= self.min_tracks:
            self._vote_armed = True
            return None
        if not self._vote_armed:
            return None
        self._vote_armed = False
        return True

    def ready(self, t: float) -> bool:
        return self._pending is not None and abs(self._pending[0] - t) <= self.time_tolerance

    def attach(self, tree, frame: T.NodeId, t: float) -> bool:
        """Add the pending capture with its features, landmarks and factors."""
        t_capture, associations = self._pending
        self._pending = None
        self._kf_count += 1
        capture = tree.add_capture(frame, t_capture, self.sensor_id)
        for raw_id, z, matched, world in associations:
            landmark = matched
            if landmark is None:
                landmark = tree.add_landmark(world, RawIdInfo(raw_id))
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
            ), RawIdInfo(raw_id))
        return True


class LoopCloser(Processor):
    """Closes loops by aligning landmark observations shared with past frames:
    at least ``min_shared_landmarks``, with a frame at least ``min_frame_gap``
    frames older and within ``radius`` of the new keyframe."""

    def __init__(self, name, sensor_id, sensor_name, radius: float, min_frame_gap: int,
                 min_shared_landmarks: int, sigma_p: float = 0.05, sigma_o: float = 0.02):
        self.name = name
        self.sensor_id = sensor_id
        self.sensor_name = sensor_name
        self.radius = radius
        self.min_frame_gap = min_frame_gap
        self.min_shared_landmarks = min_shared_landmarks
        self.sqrt_info = np.diag([1.0 / sigma_p, 1.0 / sigma_p, 1.0 / sigma_o])
        # candidate frame -> its _observations: a candidate is at least
        # min_frame_gap frames old and never gains a capture, since only the
        # newest frame can be joined by a coincident vote
        self._seen: dict = {}

    def _observations(self, tree, frame: T.NodeId) -> dict:
        """Raw landmark id -> sensor-frame point (x, y) seen from a frame by our sensor."""
        out = {}
        for capture in tree.children(frame, T.CAPTURE):
            if self.sensor_id not in tree.node(capture).refs:
                continue
            for feature in tree.children(capture, T.FEATURE):
                info = tree.node(feature).payload
                if isinstance(info, RawIdInfo) and info.raw_id is not None:
                    (factor,) = tree.children(feature, T.FACTOR)
                    rng, brg = tree.node(factor).payload.z.tolist()
                    out[info.raw_id] = (rng * math.cos(brg), rng * math.sin(brg))
        return out

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
        for gone in [frame for frame in self._seen if frame not in tree]:
            del self._seen[gone]
        cur_obs = self._observations(tree, current)
        # candidates at least min_frame_gap frames older, newest first
        cands = frames[:max(cur_pos - self.min_frame_gap + 1, 0)][::-1]
        if not cur_obs or not cands:
            return None
        cur_p = tree.block(current, "p").values
        offsets = tree.block_values(cands, "p") - cur_p
        # a frame within the radius is within it on each axis too, however
        # the norm below rounds, so this box keeps every frame that norm keeps
        near = np.flatnonzero((np.abs(offsets) <= self.radius).all(axis=1))

        best = None  # (shared count, -distance) maximized; ties -> newer frame
        for k in near.tolist():
            cand = cands[k]
            dist = float(np.linalg.norm(offsets[k]))
            if dist > self.radius:
                continue
            cand_obs = self._seen.get(cand)
            if cand_obs is None:
                cand_obs = self._seen[cand] = self._observations(tree, cand)
            shared = sorted(set(cur_obs) & set(cand_obs))
            if len(shared) < self.min_shared_landmarks:
                continue
            key = (len(shared), -dist)
            if best is None or key > best[0]:
                best = (key, cand, shared, cand_obs)
        if best is None:
            return None
        _, cand, shared, cand_obs = best
        theta, t = self.align([cand_obs[i] for i in shared], [cur_obs[i] for i in shared])

        # sensor-frame transform conjugated into the robot frame: mount o T o mount^-1
        mount = sensor_extrinsic(tree, self.sensor_id)
        z_robot = compose(compose(mount, (*t.tolist(), theta)), between(mount, (0.0, 0.0, 0.0)))

        capture = tree.add_capture(current, tree.node(current).timestamp, self.sensor_id)
        return tree.add_factor(capture, Factor(
            kind=RELATIVE_POSE,
            z=np.array(z_robot),
            sqrt_info=self.sqrt_info.copy(),
            constrained=[(cand, "p"), (cand, "o"), (current, "p"), (current, "o")],
        ))

    def attach(self, tree, frame: T.NodeId, t: float) -> bool:
        """Look for a loop from the new frame; never declines."""
        with contextlib.suppress(AlignmentError):
            self.detect_and_close(tree, frame)
        return True


class Pipeline:
    """Installation-ordered processors sharing one tree; owns the keyframe
    step.  A vote joins the newest frame if it is within the voter's
    ``time_tolerance``; otherwise one vote at a time waits until every
    processor is ``ready``.  A new frame takes :meth:`pose_at`'s pose and is
    offered once to each processor ready at its time, the voter first."""

    def __init__(self, tree, processors):
        self.tree = tree
        self.processors = list(processors)
        self._by_sensor: dict = {}
        for proc in self.processors:
            if proc.sensor_name is not None:
                self._by_sensor.setdefault(proc.sensor_name, []).append(proc)
        # a waiting vote at t makes its frame before any capture after t + _wait
        self._wait = max((proc.time_tolerance for proc in self.processors), default=0.0)
        self._vote: Optional[tuple] = None  # (t, voter) of the waiting vote

    def pose_at(self, tree, t: float) -> tuple:
        """Best pose estimate at t: the first processor's that offers one,
        else the newest frame's, if it is not later than t."""
        for proc in self.processors:
            pose = proc.pose_at(tree, t)
            if pose is not None:
                return pose
        newest = tree.frames()[-1]
        if tree.node(newest).timestamp > t:
            raise ContractError(f"no pose estimate available at t={t}")
        return tree.frame_pose(newest)

    def initialize(self, first_frame: T.NodeId):
        for proc in self.processors:
            proc.initialize(self.tree, first_frame, self.pose_at)

    def dispatch(self, sensor_name: Optional[str], t: float, data) -> list:
        """Feed one capture; returns the keyframe events made by it.

        ``dispatch(None, math.inf, None)`` ends the input: it makes the frame
        of a vote still waiting.
        """
        tree = self.tree
        events = []
        if self._vote is not None and t > self._vote[0] + self._wait:
            events.append(self.broadcast())
        for proc in self._by_sensor.get(sensor_name, ()):
            if proc.process_capture(tree, t, data):
                if self._vote is not None:
                    if self._vote[1] is proc:
                        continue  # the voter's own vote still waits
                    events.append(self.broadcast())
                # join the newest frame if coincident instead of making a twin;
                # frames come in time order, so no older one is nearer
                newest = tree.node(tree.frames()[-1])
                if abs(newest.timestamp - t) <= proc.time_tolerance:
                    self._offer(proc, newest.id, newest.timestamp)
                else:
                    self._vote = (t, proc)
        if self._vote is not None and all(p.ready(self._vote[0]) for p in self.processors):
            events.append(self.broadcast())
        return events

    def broadcast(self) -> KeyframeEvent:
        """Make the waiting vote's frame and offer it to the voter, then to
        the others in installation order."""
        (t, voter), self._vote = self._vote, None
        event = KeyframeEvent(t, self.tree.add_frame(t, self.pose_at(self.tree, t)))
        for proc in [voter] + [p for p in self.processors if p is not voter]:
            self._offer(proc, event.frame, t)
        return event

    def _offer(self, proc, frame: T.NodeId, t: float):
        """The one place a keyframe is offered: to ``proc`` if it is ready at t."""
        if proc.ready(t):
            proc.attach(self.tree, frame, t)
