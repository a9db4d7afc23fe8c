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
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigError, RecordFormatError

TRUTH_SENSOR = "truth"
TRUTH_CALIB = "truth_calib"
TRUTH_LANDMARK = "truth_landmark"


@dataclass
class CaptureRecord:
    t: float
    sensor: str
    data: list


def write_jsonl(records, path):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps({"t": rec.t, "sensor": rec.sensor, "data": rec.data}))
            fh.write("\n")


def read_jsonl(path) -> list:
    records = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                t = float(obj["t"])
                if not math.isfinite(t):
                    raise ValueError(f"timestamp {t} is not finite")
                records.append(CaptureRecord(t, str(obj["sensor"]), obj["data"]))
            except (ValueError, KeyError, TypeError) as exc:
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

    def __post_init__(self):
        self.calibration = np.asarray(self.calibration, dtype=float)
        if self.odometry.rate <= 0 or self.range_bearing.rate <= 0:
            raise ConfigError("sensor rates must be positive")
        ratio = self.odometry.rate / self.range_bearing.rate
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                "odometry rate must be an integer multiple of the range-bearing rate"
            )


def load_scenario(text: str) -> SimScenario:
    """Build a scenario from YAML, generating the landmark field if needed."""
    data = yaml.safe_load(text)
    try:
        seed = int(data["seed"])
        duration = float(data["duration"])
        calib = data["calibration"]
        calibration = [float(calib["r_left"]), float(calib["r_right"]),
                       float(calib["separation"])]
        odo = data["odometry"]
        odometry = OdometrySim(str(odo["name"]), float(odo["rate"]),
                               float(odo.get("tick_std", 0.0)))
        rb = data["range_bearing"]
        range_bearing = RangeBearingSim(
            name=str(rb["name"]),
            rate=float(rb["rate"]),
            range_std=float(rb.get("range_std", 0.0)),
            bearing_std=float(rb.get("bearing_std", 0.0)),
            max_range=float(rb.get("max_range", 10.0)),
            fov=float(rb.get("fov", 2.0 * math.pi)),
            extrinsic=tuple(float(v) for v in rb.get("extrinsic", [0.0, 0.0, 0.0])),
            emit_ids=bool(rb.get("emit_ids", True)),
        )
        lm_spec = data["landmarks"]
        if isinstance(lm_spec, list):
            landmarks = [(int(e[0]), float(e[1]), float(e[2])) for e in lm_spec]
        else:
            count = int(lm_spec["count"])
            area = float(lm_spec["area"])
            center = [float(v) for v in lm_spec.get("center", [0.0, 0.0])]
            rng = np.random.default_rng(seed)
            pts = rng.uniform(-0.5 * area, 0.5 * area, size=(count, 2)) + center
            landmarks = [(i, float(p[0]), float(p[1])) for i, p in enumerate(pts)]
        control = [ControlSegment(float(c["duration"]), float(c["v"]), float(c["w"]))
                   for c in data["control"]]
        initial = tuple(float(v) for v in data.get("initial_pose", [0.0, 0.0, 0.0]))
    except (KeyError, TypeError, ValueError) as exc:
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
