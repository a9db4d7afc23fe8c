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

from .checks import as_flag, as_number, as_numbers, as_text, load_yaml
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

    Every number is checked before anything is simulated, so a malformed
    scenario is a ConfigError naming its key rather than a crash or a NaN in
    the log.  The checks draw no random number.
    """
    data = load_yaml(text)
    try:
        seed = as_number("seed", data["seed"], ">=", integer=True)
        duration = as_number("duration", data["duration"], ">=")
        calib = data["calibration"]
        calibration = np.array([as_number(f"calibration.{k}", calib[k])
                                for k in ("r_left", "r_right", "separation")])
        odo = data["odometry"]
        odometry = OdometrySim(as_text("odometry.name", odo["name"]),
                               as_number("odometry.rate", odo["rate"]),
                               as_number("odometry.tick_std", odo.get("tick_std", 0.0), ">="))
        rb = data["range_bearing"]
        range_bearing = RangeBearingSim(
            name=as_text("range_bearing.name", rb["name"]),
            rate=as_number("range_bearing.rate", rb["rate"]),
            range_std=as_number("range_bearing.range_std", rb.get("range_std", 0.0), ">="),
            bearing_std=as_number("range_bearing.bearing_std", rb.get("bearing_std", 0.0), ">="),
            max_range=as_number("range_bearing.max_range", rb.get("max_range", 10.0)),
            fov=as_number("range_bearing.fov", rb.get("fov", 2.0 * math.pi)),
            extrinsic=tuple(as_numbers("range_bearing.extrinsic",
                                       rb.get("extrinsic", [0.0, 0.0, 0.0]), 3)),
            emit_ids=as_flag("range_bearing.emit_ids", rb.get("emit_ids", True)),
        )
        ratio = odometry.rate / range_bearing.rate
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                "odometry rate must be an integer multiple of the range-bearing rate"
            )
        lm_spec = data["landmarks"]
        if isinstance(lm_spec, list):
            landmarks = []
            for i, e in enumerate(lm_spec):
                lid, x, y = as_numbers(f"landmarks.{i}", e, 3)
                landmarks.append((as_number(f"landmarks.{i}.0", lid, None, integer=True), x, y))
        else:
            count = as_number("landmarks.count", lm_spec["count"], ">=", integer=True)
            area = as_number("landmarks.area", lm_spec["area"], ">=")
            center = as_numbers("landmarks.center", lm_spec.get("center", [0.0, 0.0]), 2)
            rng = np.random.default_rng(seed)
            pts = rng.uniform(-0.5 * area, 0.5 * area, size=(count, 2)) + center
            landmarks = [(i, float(p[0]), float(p[1])) for i, p in enumerate(pts)]
        segments = data["control"]
        if not isinstance(segments, list) or not segments:
            raise ConfigError(f"control must list at least one segment, got {segments!r}")
        control = [ControlSegment(as_number(f"control.{i}.duration", c["duration"], ">="),
                                  as_number(f"control.{i}.v", c["v"], None),
                                  as_number(f"control.{i}.w", c["w"], None))
                   for i, c in enumerate(segments)]
        initial = tuple(as_numbers("initial_pose",
                                   data.get("initial_pose", [0.0, 0.0, 0.0]), 3))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
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
