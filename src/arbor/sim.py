"""Deterministic 2D simulator and the JSONL capture-log format.

Ground truth is integrated on the odometry clock with the same chord
kinematics the wheel model implies, so a noise-free log is exactly
reproducible by the estimator.  Wheel encoder records come from the inverse
kinematics of the commanded arc; range-bearing records list the landmarks
inside the sensor's range and field of view whose noisy range is positive.
Everything is a pure function of the scenario (seed included), so identical
scenarios yield byte-identical logs.

Log format (one JSON object per line): {"t": seconds, "sensor": name,
"data": [...]}. Ground truth reuses the envelope with the reserved sensor
names "truth" (pose), "truth_calib", and "truth_landmark".
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .checks import as_number, read_yaml
from .errors import ConfigError, RecordFormatError

TRUTH_SENSOR = "truth"
TRUTH_CALIB = "truth_calib"
TRUTH_LANDMARK = "truth_landmark"


@dataclass(slots=True)
class CaptureRecord:
    t: float
    sensor: str
    data: list


def jsonl_lines(records):
    """Each record as one line of the log format."""
    return (json.dumps({"t": rec.t, "sensor": rec.sensor, "data": rec.data}) + "\n"
            for rec in records)


def write_files(outputs):
    """Write each (path, lines) pair in turn.  If any write fails, the files
    opened so far are removed before the error propagates, so a failed
    command leaves no partial output behind."""
    opened = []
    try:
        for path, lines in outputs:
            with open(path, "w") as fh:
                opened.append(path)
                fh.writelines(lines)
    except OSError:
        for path in opened:
            os.remove(path)
        raise


def write_jsonl(records, path):
    write_files([(path, jsonl_lines(records))])


# the C scanner that json.loads wraps, and the whitespace loads skips
# before it reports trailing data
_scan_value = json.JSONDecoder().scan_once
_WHITESPACE = json.decoder.WHITESPACE


def _decode_line(line: str):
    """``json.loads(line)`` for a stripped line, with its errors, minus the
    wrapping a line needs no part of."""
    try:
        obj, end = _scan_value(line, 0)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", line, exc.value) from None
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, _WHITESPACE.match(line, end).end())
    return obj


def read_jsonl(path) -> list:
    """The records of a log, one JSON object per non-blank line; a line that
    is not one raises :class:`RecordFormatError` naming its number."""
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _decode_line(line)
                t = obj["t"]
                if type(t) not in (int, float):  # a JSON number; not a bool
                    raise TypeError(f"timestamp {t!r} is not a number")
                t = float(t)
                if not math.isfinite(t):
                    raise ValueError(f"timestamp {t} is not finite")
                records.append(CaptureRecord(t, str(obj["sensor"]), obj["data"]))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise RecordFormatError(f"bad record at line {line_no}: {exc}") from exc
    return records


@dataclass
class OdometrySim:
    name: str
    rate: float
    tick_std: float


@dataclass
class RangeBearingSim:
    name: str
    rate: float
    range_std: float
    bearing_std: float
    max_range: float
    fov: float                      # full width, radians
    extrinsic: tuple = (0.0, 0.0, 0.0)
    emit_ids: bool = True


@dataclass
class ControlSegment:
    duration: float
    v: float     # m/s
    w: float     # rad/s


@dataclass
class SimScenario:
    seed: int
    duration: float
    calibration: np.ndarray         # (r_left, r_right, separation)
    odometry: OdometrySim
    range_bearing: RangeBearingSim
    landmarks: list                 # [(id, x, y), ...]
    control: list                   # [ControlSegment, ...]
    initial_pose: tuple = (0.0, 0.0, 0.0)


def load_scenario(text: str) -> SimScenario:
    """Build a scenario from YAML, generating the landmark field if needed.

    The YAML is read by the parameter server configurations use, so every
    value is checked before anything is simulated, and a malformed scenario
    is a ConfigError naming its key rather than a crash or a NaN in the log.
    Keys the scenario does not use are ignored.  The checks draw no random
    number.
    """
    server = read_yaml(text, "scenario")
    seed = server.number("seed", bound=">=", integer=True)
    duration = server.number("duration", bound=">=")
    calibration = np.array([server.number(f"calibration.{k}")
                            for k in ("r_left", "r_right", "separation")])
    odometry = OdometrySim(server.text("odometry.name"), server.number("odometry.rate"),
                           server.number("odometry.tick_std", 0.0, bound=">="))
    range_bearing = RangeBearingSim(
        name=server.text("range_bearing.name"),
        rate=server.number("range_bearing.rate"),
        range_std=server.number("range_bearing.range_std", 0.0, bound=">="),
        bearing_std=server.number("range_bearing.bearing_std", 0.0, bound=">="),
        max_range=server.number("range_bearing.max_range", 10.0),
        fov=server.number("range_bearing.fov", 2.0 * math.pi),
        extrinsic=tuple(server.numbers("range_bearing.extrinsic", 3, [0.0, 0.0, 0.0])),
        emit_ids=server.flag("range_bearing.emit_ids", True),
    )
    ratio = odometry.rate / range_bearing.rate
    if abs(ratio - round(ratio)) > 1e-9:
        raise ConfigError("odometry.rate must be an integer multiple of range_bearing.rate, "
                          f"got {odometry.rate} and {range_bearing.rate}")
    spec = server.section("landmarks")
    if isinstance(spec, dict):
        count = server.number("landmarks.count", bound=">=", integer=True)
        if count > np.iinfo(np.intp).max // 16:  # numpy's bound on a (count, 2) float array
            raise ConfigError(f"landmarks.count is too large for an array, got {count}")
        area = server.number("landmarks.area", bound=">=")
        center = server.numbers("landmarks.center", 2, [0.0, 0.0])
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-0.5 * area, 0.5 * area, size=(count, 2)) + center
        landmarks = [(i, float(p[0]), float(p[1])) for i, p in enumerate(pts)]
    elif isinstance(spec, list):
        landmarks = []
        for i in range(len(spec)):
            lid, x, y = server.numbers(f"landmarks.{i}", 3)
            landmarks.append((as_number(f"landmarks.{i}.0", lid, None, integer=True), x, y))
    else:
        raise ConfigError(f"landmarks must be a list or a mapping, got {spec!r}")
    # an empty list reads as control.0's keys missing
    control = [ControlSegment(server.number(f"control.{i}.duration", bound=">="),
                              server.number(f"control.{i}.v", bound=None),
                              server.number(f"control.{i}.w", bound=None))
               for i in range(max(server.count("control"), 1))]
    initial = tuple(server.numbers("initial_pose", 3, [0.0, 0.0, 0.0]))
    return SimScenario(seed, duration, calibration, odometry, range_bearing,
                       landmarks, control, initial)


def _control_at(control, t: float):
    elapsed = 0.0
    for seg in control:
        if t < elapsed + seg.duration:
            return seg.v, seg.w
        elapsed += seg.duration
    return control[-1].v, control[-1].w


def _advance_chord(x, y, theta, s, dth):
    half = theta + 0.5 * dth
    return x + s * math.cos(half), y + s * math.sin(half), theta + dth


def _scan(scenario, x, y, theta, rng):
    rb = scenario.range_bearing
    ex, ey, eth = rb.extrinsic
    sx = x + math.cos(theta) * ex - math.sin(theta) * ey
    sy = y + math.sin(theta) * ex + math.cos(theta) * ey
    st = theta + eth
    out = []
    for lid, lx, ly in scenario.landmarks:
        dx, dy = lx - sx, ly - sy
        rng_true = math.hypot(dx, dy)
        if rng_true > rb.max_range:
            continue
        bearing = math.remainder(math.atan2(dy, dx) - st, math.tau)
        if abs(bearing) > 0.5 * rb.fov:
            continue
        r_meas = rng_true + rng.normal(0.0, rb.range_std) if rb.range_std else rng_true
        b_meas = bearing + rng.normal(0.0, rb.bearing_std) if rb.bearing_std else bearing
        # a range sensor reports no return at a non-positive range; the noise
        # is drawn regardless, so the random stream does not depend on it
        if r_meas <= 0.0:
            continue
        if rb.emit_ids:
            out.append([lid, r_meas, b_meas])
        else:
            out.append([r_meas, b_meas])
    return out


def simulate(scenario: SimScenario):
    """Run the scenario; returns (capture records, ground-truth records)."""
    rng = np.random.default_rng(scenario.seed)
    r_l, r_r, d = scenario.calibration
    dt = 1.0 / scenario.odometry.rate
    n_steps = int(round(scenario.duration * scenario.odometry.rate))
    rb_every = int(round(scenario.odometry.rate / scenario.range_bearing.rate))
    tick_std = scenario.odometry.tick_std

    captures: list = []
    truth: list = []
    truth.append(CaptureRecord(0.0, TRUTH_CALIB, [r_l, r_r, d]))
    for lid, lx, ly in scenario.landmarks:
        truth.append(CaptureRecord(0.0, TRUTH_LANDMARK, [lid, lx, ly]))

    x, y, theta = scenario.initial_pose
    truth.append(CaptureRecord(0.0, TRUTH_SENSOR, [x, y, theta]))
    scan = _scan(scenario, x, y, theta, rng)
    if scan:
        captures.append(CaptureRecord(0.0, scenario.range_bearing.name, scan))

    for k in range(1, n_steps + 1):
        t = k * dt
        v, w = _control_at(scenario.control, (k - 1) * dt)
        s, dth = v * dt, w * dt
        # inverse kinematics of the commanded arc
        dphi_l = (s - 0.5 * d * dth) / r_l
        dphi_r = (s + 0.5 * d * dth) / r_r
        if tick_std:
            dphi_l += rng.normal(0.0, tick_std)
            dphi_r += rng.normal(0.0, tick_std)
        x, y, theta = _advance_chord(x, y, theta, s, dth)
        truth.append(CaptureRecord(t, TRUTH_SENSOR, [x, y, theta]))
        # the scan (taken at the post-motion pose) goes before the odometry
        # record at the same tick, so a keyframe voted after integrating the
        # tick finds a scan with exactly its timestamp pending
        if k % rb_every == 0:
            scan = _scan(scenario, x, y, theta, rng)
            if scan:
                captures.append(CaptureRecord(t, scenario.range_bearing.name, scan))
        captures.append(CaptureRecord(t, scenario.odometry.name, [dphi_l, dphi_r]))
    return captures, truth
