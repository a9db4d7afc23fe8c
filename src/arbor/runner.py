"""Replay capture logs through the configured pipeline and score the result.

The runner is the file-level entry point: it builds the problem from a YAML
config, replays a JSONL capture log in time order, lets the window manager
and solver run after every keyframe, and writes the per-keyframe estimates
(plus final landmark and calibration estimates) to a JSONL file.  Frames
dropped by a sliding window keep their last solved estimate, so the output
always covers the whole trajectory.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional

from . import tree as T
from .config import Application, auto_setup, parse_config
from .errors import RecordFormatError
from .metrics import MetricsReport, compute_ate, compute_calib_error, truth_values
from .processors import RawIdInfo
from .sim import TRUTH_CALIB, CaptureRecord, jsonl_lines, read_jsonl, write_files
from .solver import SolverProblem, lm_solve, sync

ESTIMATE_SENSOR = "estimate"
ESTIMATE_LANDMARK = "estimate_landmark"
ESTIMATE_CALIB = "estimate_calib"


def build_application(config_path) -> Application:
    """Config phase of a run: parse the YAML and auto-set-up the problem.

    A config value of the wrong type or range is a :class:`ConfigError`
    naming its key, raised where the parameter server reads it.
    """
    return auto_setup(parse_config(Path(config_path).read_text()))


def replay(app: Application, log_path, out_path=None, truth_path=None,
           metrics_path=None, on_keyframe: Optional[Callable] = None):
    """Data phase of a run: feed a capture log through a built application.

    Records are dispatched one at a time, and each keyframe is solved as soon
    as the dispatch that made it returns: a record sharing its timestamp with
    the record that completes a keyframe is dispatched after that solve.
    """
    t_start = time.perf_counter()
    tree = app.tree
    problem = SolverProblem(app.solver_options)
    records = read_jsonl(log_path)

    sensor_names = set(app.sensors.keys())
    last_t = None
    for rec in records:
        if rec.sensor not in sensor_names:
            raise RecordFormatError(f"log references unknown sensor {rec.sensor!r}")
        if last_t is not None and rec.t < last_t:
            raise RecordFormatError(f"log goes back in time at t={rec.t}")
        last_t = rec.t

    removed = []  # (frame, t, pose) of the frames the window removed
    last_report = None

    # the end record makes the frame of a vote still waiting for data
    for rec in records + [CaptureRecord(math.inf, None, None)]:
        for event in app.pipeline.dispatch(rec.sensor, rec.t, rec.data):
            if app.window_policy is not None:
                removed += tree.enforce_window(app.window_policy)
            sync(problem, tree)
            last_report = lm_solve(problem)
            if on_keyframe is not None:
                on_keyframe(tree, event, last_report)

    live = [(fid, tree.node(fid).timestamp, tree.frame_pose(fid)) for fid in tree.frames()]
    estimates = [
        CaptureRecord(t, ESTIMATE_SENSOR, list(pose))
        for _fid, t, pose in sorted(removed + live, key=lambda e: (e[1], e[0].index))
    ]
    final_t = estimates[-1].t if estimates else 0.0
    out_records = list(estimates)
    for lm in tree.children(tree.map_id, T.LANDMARK):
        info = tree.node(lm).payload
        raw = info.raw_id if isinstance(info, RawIdInfo) and info.raw_id is not None else -1
        p = tree.block(lm, "p").values
        out_records.append(CaptureRecord(final_t, ESTIMATE_LANDMARK,
                                         [raw, float(p[0]), float(p[1])]))
    calib_est = None
    for name, (sensor_id, info) in app.sensors.items():
        if info.type_name == "diff_drive":
            calib_est = tree.block(sensor_id, "intrinsic").values.copy()
            out_records.append(CaptureRecord(final_t, ESTIMATE_CALIB,
                                             [float(v) for v in calib_est]))
            break

    metrics = None
    if truth_path is not None:
        truth = read_jsonl(truth_path)
        ate = compute_ate([(r.t, r.data[0], r.data[1]) for r in estimates], truth)
        calib_abs = calib_rel = None
        c_true = next((r for r in truth if r.sensor == TRUTH_CALIB), None)
        if c_true is not None and calib_est is not None:
            c_true = truth_values(c_true, len(calib_est), ">")  # relative errors divide by it
            abs_err, rel_err = compute_calib_error(calib_est, c_true)
            calib_abs, calib_rel = abs_err.tolist(), rel_err.tolist()
        metrics = MetricsReport(
            ate_rmse=ate,
            calib_abs=calib_abs,
            calib_rel=calib_rel,
            final_cost=None if last_report is None else last_report.final_cost,
            keyframes=len(estimates),
            wall_time=time.perf_counter() - t_start,
        )

    # written last, all or nothing: a failure leaves neither file
    outputs = [(out_path, jsonl_lines(out_records))]
    if metrics is not None:
        outputs.append((metrics_path, [json.dumps(asdict(metrics), indent=2) + "\n"]))
    write_files([(path, lines) for path, lines in outputs if path is not None])

    return out_records, metrics
