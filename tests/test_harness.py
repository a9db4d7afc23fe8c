import copy
import functools
import importlib.util
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml

import arbor.cli
import arbor.processors
import arbor.runner
from arbor.cli import main
from arbor.config import ConfigWarning, auto_setup, parse_config
from arbor.errors import ConfigError, ContractError, RecordFormatError
from arbor.factors import PRIOR_BLOCK
from arbor.metrics import compute_ate, compute_calib_error
from arbor.runner import build_application, replay
from arbor.sim import (
    CaptureRecord,
    load_scenario,
    read_jsonl,
    simulate,
    write_jsonl,
)

DATA = Path(__file__).parent / "data"
PERFBENCH = Path(__file__).parent.parent / "perfbench"

SMALL_SCENARIO = """
seed: 11
duration: 10.0
initial_pose: [0.0, 0.0, 0.0]
calibration: {r_left: 0.1, r_right: 0.1, separation: 0.5}
odometry: {name: odom0, rate: 20.0, tick_std: 0.0}
range_bearing:
  name: rb0
  rate: 20.0
  range_std: 0.0
  bearing_std: 0.0
  max_range: 6.0
  fov: 6.283185307179586
  extrinsic: [0.0, 0.0, 0.0]
  emit_ids: true
landmarks:
  - [0, 2.0, 1.0]
  - [1, 1.0, 2.5]
  - [2, 3.0, 3.0]
  - [3, 0.5, 4.0]
  - [4, 2.5, 4.5]
control:
  - {duration: 10.0, v: 0.4, w: 0.2}
"""


@dataclass(frozen=True)
class Timestamp:
    """A malformed-record case's value for the record's ``t``, not its data."""

    value: object


@pytest.fixture(scope="module")
def small_logs(tmp_path_factory):
    d = tmp_path_factory.mktemp("small")
    caps, truth = simulate(load_scenario(SMALL_SCENARIO))
    log, truth_p = d / "log.jsonl", d / "truth.jsonl"
    write_jsonl(caps, log)
    write_jsonl(truth, truth_p)
    return log, truth_p


class TestSimulate:
    def test_inverse_kinematics_hand_value(self):
        text = SMALL_SCENARIO.replace("rate: 20.0", "rate: 10.0") \
                             .replace("duration: 10.0", "duration: 1.0") \
                             .replace("v: 0.4, w: 0.2", "v: 1.0, w: 0.0")
        caps, _ = simulate(load_scenario(text))
        odo = [c for c in caps if c.sensor == "odom0"]
        assert len(odo) == 10
        for rec in odo:
            # s = 0.1 m per tick; both wheels turn 0.1 / r = 1 rad
            np.testing.assert_allclose(rec.data, [1.0, 1.0])

    def test_same_seed_byte_identical(self, tmp_path):
        scenario = load_scenario(SMALL_SCENARIO)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(simulate(scenario)[0], a)
        write_jsonl(simulate(load_scenario(SMALL_SCENARIO))[0], b)
        assert a.read_bytes() == b.read_bytes()

    def test_landmark_outside_fov_absent(self):
        # half-plane field of view; the landmark behind the robot vanishes
        text = SMALL_SCENARIO.replace("fov: 6.283185307179586", "fov: 3.141592653589793")
        text = text.replace("- [0, 2.0, 1.0]", "- [0, -2.0, 0.0]")
        caps, _ = simulate(load_scenario(text))
        first_scan = next(c for c in caps if c.sensor == "rb0")
        assert 0 not in [int(m[0]) for m in first_scan.data]

    def test_range_limit(self):
        text = SMALL_SCENARIO.replace("max_range: 6.0", "max_range: 2.0")
        caps, _ = simulate(load_scenario(text))
        first_scan = next(c for c in caps if c.sensor == "rb0")
        assert all(m[1] <= 2.0 for m in first_scan.data)

    def test_rate_mismatch_rejected(self):
        text = SMALL_SCENARIO.replace("name: rb0\n  rate: 20.0", "name: rb0\n  rate: 7.0")
        with pytest.raises(ConfigError, match=r"^odometry\.rate .* range_bearing\.rate, "):
            load_scenario(text)


class TestMetrics:
    def test_ate_zero_for_exact(self):
        truth = [CaptureRecord(0.0, "truth", [1.0, 2.0, 0.3])]
        assert compute_ate([(0.0, 1.0, 2.0)], truth) == 0.0

    def test_ate_single_offset(self):
        truth = [CaptureRecord(0.0, "truth", [0.0, 0.0, 0.0])]
        assert compute_ate([(0.0, 3.0, 4.0)], truth) == pytest.approx(5.0)

    def test_ate_two_keyframes(self):
        truth = [CaptureRecord(0.0, "truth", [0.0, 0.0, 0.0]),
                 CaptureRecord(1.0, "truth", [0.0, 0.0, 0.0])]
        ate = compute_ate([(0.0, 1.0, 0.0), (1.0, 0.0, 1.0)], truth)
        assert ate == pytest.approx(1.0)

    def test_ate_unmatched_timestamp(self):
        truth = [CaptureRecord(0.0, "truth", [0.0, 0.0, 0.0])]
        with pytest.raises(RecordFormatError, match="no ground-truth pose within"):
            compute_ate([(0.5, 0.0, 0.0)], truth)

    def test_calib_error_exact(self):
        abs_err, rel_err = compute_calib_error([0.1, 0.1, 0.5], [0.1, 0.1, 0.5])
        np.testing.assert_allclose(abs_err, 0.0)
        np.testing.assert_allclose(rel_err, 0.0)

    def test_calib_error_one_percent(self):
        _, rel_err = compute_calib_error([0.101, 0.1, 0.5], [0.1, 0.1, 0.5])
        np.testing.assert_allclose(rel_err, [0.01, 0.0, 0.0], atol=1e-12)

    def test_calib_error_dim_mismatch(self):
        with pytest.raises(ContractError):
            compute_calib_error([0.1, 0.1], [0.1, 0.1, 0.5])


class TestRunner:
    def test_small_zero_noise_run(self, small_logs, tmp_path):
        log, truth = small_logs
        out = tmp_path / "est.jsonl"
        est, metrics = replay(build_application(DATA / "demo_config.yaml"), log, out_path=out,
                              truth_path=truth)
        assert metrics.ate_rmse < 1e-6
        assert metrics.final_cost < 1e-10
        assert out.exists()
        parsed = read_jsonl(out)
        assert any(r.sensor == "estimate" for r in parsed)
        assert any(r.sensor == "estimate_landmark" for r in parsed)
        assert any(r.sensor == "estimate_calib" for r in parsed)

    def test_empty_log_keeps_initial_frame(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        est, _ = replay(build_application(DATA / "demo_config.yaml"), log)
        poses = [r for r in est if r.sensor == "estimate"]
        assert len(poses) == 1
        np.testing.assert_allclose(poses[0].data, [0.0, 0.0, 0.0])

    def test_unknown_sensor_rejected(self, tmp_path):
        log = tmp_path / "ghost.jsonl"
        log.write_text('{"t": 0.0, "sensor": "ghost", "data": [0.0, 0.0]}\n')
        with pytest.raises(RecordFormatError, match="log references unknown sensor"):
            replay(build_application(DATA / "demo_config.yaml"), log)

    def test_nonmonotonic_log_rejected(self, tmp_path):
        log = tmp_path / "bad.jsonl"
        log.write_text(
            '{"t": 1.0, "sensor": "odom0", "data": [0.1, 0.1]}\n'
            '{"t": 0.5, "sensor": "odom0", "data": [0.1, 0.1]}\n'
        )
        with pytest.raises(RecordFormatError, match="goes back in time"):
            replay(build_application(DATA / "demo_config.yaml"), log)

    def test_blank_lines_skipped(self, tmp_path):
        # blank and whitespace-only lines hold no record, yet count in the
        # line number a bad record is reported at
        log = tmp_path / "log.jsonl"
        rec = '{"t": 0.5, "sensor": "odom0", "data": [0.1, 0.1]}'
        log.write_text(f"\n{rec}\n  \t\n\n{rec}\n\n")
        records = [(r.t, r.sensor, r.data) for r in read_jsonl(log)]
        assert records == [(0.5, "odom0", [0.1, 0.1])] * 2
        log.write_text(f"\n{rec}\n  \n{{\n")
        with pytest.raises(RecordFormatError, match="bad record at line 4:"):
            read_jsonl(log)

    def test_estimate_files_deterministic(self, small_logs, tmp_path):
        log, _ = small_logs
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        replay(build_application(DATA / "demo_config.yaml"), log, out_path=a)
        replay(build_application(DATA / "demo_config.yaml"), log, out_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_processor_names_need_not_be_unique(self, tmp_path):
        # a processor named like another still receives the other's keyframes
        log = tmp_path / "demo_log.jsonl"
        write_jsonl(simulate(load_scenario((DATA / "demo_scenario.yaml").read_text()))[0], log)
        renamed = tmp_path / "renamed.yaml"
        renamed.write_text((DATA / "demo_config.yaml").read_text().replace(
            "  - name: tracker\n", "  - name: odom\n"))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        replay(build_application(DATA / "demo_config.yaml"), log, out_path=a)
        replay(build_application(renamed), log, out_path=b)
        assert renamed.read_text() != (DATA / "demo_config.yaml").read_text()
        assert a.read_bytes() == b.read_bytes()

    def test_every_record_dispatched_once(self, small_logs, monkeypatch):
        log, _ = small_logs
        records = read_jsonl(log)
        seen = []
        original = arbor.processors.Pipeline.dispatch

        def spy(self, sensor_name, t, data):
            seen.append((sensor_name, t))
            return original(self, sensor_name, t, data)

        monkeypatch.setattr(arbor.processors.Pipeline, "dispatch", spy)
        replay(build_application(DATA / "demo_config.yaml"), log)
        # then the end of the input, once
        assert seen == [(r.sensor, r.t) for r in records] + [(None, math.inf)]

    def test_vote_waiting_at_end_of_log_makes_its_keyframe(self, tmp_path, monkeypatch):
        # the last odometry sample votes; the tracker has no scan near it, so
        # the vote waits until the end of the log, whose dispatch returns it
        records = [CaptureRecord(0.0, "rb0", [[0, 1.0, 0.0], [1, 2.0, 0.5], [2, 3.0, -0.5]])]
        records += [CaptureRecord(0.05 * k, "odom0", [1.2, 1.2]) for k in range(1, 6)]
        log = tmp_path / "log.jsonl"
        write_jsonl(records, log)
        returned = []
        original = arbor.processors.Pipeline.dispatch

        def spy(self, sensor_name, t, data):
            events = original(self, sensor_name, t, data)
            returned.extend((sensor_name, event) for event in events)
            return events

        monkeypatch.setattr(arbor.processors.Pipeline, "dispatch", spy)
        solved = []
        est, _ = replay(build_application(DATA / "demo_config.yaml"), log,
                        on_keyframe=lambda tree, event, report: solved.append(event))
        assert returned == [(None, solved[0])]
        assert [event.t for event in solved] == [0.25]
        poses = [r for r in est if r.sensor == "estimate"]
        assert [r.t for r in poses] == [0.0, 0.25]
        np.testing.assert_allclose(poses[1].data, [0.6, 0.0, 0.0], atol=1e-9)

    def test_keyframe_solved_before_next_record_at_its_time(self, tmp_path, monkeypatch):
        # the odometry sample at 0.25 completes a keyframe (the scan at 0.25
        # is in); a second scan at 0.25 follows it in the log
        def scan(x):
            return [[i, math.hypot(px - x, py), math.atan2(py, px - x)]
                    for i, (px, py) in enumerate([(1.0, 0.0), (2.0, 1.0), (3.0, -1.0)])]

        records = [CaptureRecord(0.0, "rb0", scan(0.0))]
        records += [CaptureRecord(0.05 * k, "odom0", [1.2, 1.2]) for k in range(1, 5)]
        records += [CaptureRecord(0.25, "rb0", scan(0.6)), CaptureRecord(0.25, "odom0", [1.2, 1.2]),
                    CaptureRecord(0.25, "rb0", scan(0.6))]
        log = tmp_path / "log.jsonl"
        write_jsonl(records, log)
        seen = []
        dispatch = arbor.processors.Pipeline.dispatch
        solve = arbor.runner.lm_solve

        def dispatch_spy(self, sensor_name, t, data):
            seen.append((sensor_name, t))
            return dispatch(self, sensor_name, t, data)

        def solve_spy(problem):
            seen.append("solve")
            return solve(problem)

        monkeypatch.setattr(arbor.processors.Pipeline, "dispatch", dispatch_spy)
        monkeypatch.setattr(arbor.runner, "lm_solve", solve_spy)
        replay(build_application(DATA / "demo_config.yaml"), log)
        assert seen[-4:] == [("odom0", 0.25), "solve", ("rb0", 0.25), (None, math.inf)]
        assert seen.count("solve") == 1


class TestNonPositiveRange:
    def test_landmark_on_path_replays(self, tmp_path):
        # landmark 9 lies 0.004 m from the path of the high-rate window
        # workload; on seed 45 its noisy range at t=5.8 s comes out negative,
        # which the sensor must not report as a return
        workloads = PERFBENCH / "workloads"
        spec = yaml.safe_load((workloads / "highrate_window_scenario.yaml").read_text())
        # back in its place in the list: the scan draws noise in list order
        spec["landmarks"].insert(9, [9, 2.7470239533821754, 1.0980904861748195])
        assert [e[0] for e in spec["landmarks"][8:11]] == [8, 9, 10]
        spec["seed"] = 45
        spec["duration"] = 10
        captures, _ = simulate(load_scenario(yaml.safe_dump(spec)))
        ranges = [entry[1] for rec in captures if rec.sensor == "rb0" for entry in rec.data]
        assert min(ranges) > 0.0
        log = tmp_path / "log.jsonl"
        write_jsonl(captures, log)
        app = build_application(workloads / "highrate_window_config.yaml")
        out, _ = replay(app, log)
        assert out
        assert app.tree.check_consistency() == []


class TestTracerTargets:
    def test_every_target_resolves(self):
        # a renamed function would silently drop its layer from the traced
        # benchmark instead of failing
        spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                      PERFBENCH / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.TARGETS
        for module_name, path, span in tracer.TARGETS:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                assert hasattr(owner, part), f"{span}: {module_name}.{path} does not resolve"
                owner = getattr(owner, part)
            assert callable(owner), span
        linalg = importlib.import_module("arbor.solver").np.linalg
        for attr, span in tracer.LINALG_TARGETS:
            assert callable(getattr(linalg, attr, None)), span


class TestTracerGuard:
    def test_traced_replay_records_solver_layers(self, small_logs):
        # a refactor that stops calling a wrapped name would zero its layer
        spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                      PERFBENCH / "tracer.py")
        tracer_mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_mod)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            replay(build_application(DATA / "demo_config.yaml"), small_logs[0],
                   on_keyframe=lambda *_: tracer.on_keyframe())
        finally:
            tracer.uninstall()
        assert tracer.missing == []
        totals = tracer.layer_totals()
        for name in ("solver.linearize", "factors.evaluate",
                     "preint.integrate_step", "preint.state_at_high_rate",
                     "processors.motion", "processors.tracker"):
            assert totals.get(name, (0,))[0] > 0, name
        # the start's cost comes from its linearization: no separate sweep
        assert "solver.total_cost" not in totals


class TestExtrinsicSelfCalibration:
    def test_perturbed_extrinsic_recovered(self, tmp_path):
        # truth mounts the sensor at the origin; the config guesses a few
        # centimeters and degrees off and leaves the blocks free to move.
        # planar mount calibration needs more than one path curvature, so
        # the trajectory mixes arcs of both signs with a straight stretch
        scenario = SMALL_SCENARIO.replace(
            "control:\n  - {duration: 10.0, v: 0.4, w: 0.2}\n",
            "control:\n"
            "  - {duration: 4.0, v: 0.4, w: 0.35}\n"
            "  - {duration: 4.0, v: 0.4, w: -0.35}\n"
            "  - {duration: 4.0, v: 0.4, w: 0.0}\n",
        ).replace("duration: 10.0\n", "duration: 12.0\n")
        caps, truth_records = simulate(load_scenario(scenario))
        log = tmp_path / "log.jsonl"
        truth = tmp_path / "truth.jsonl"
        write_jsonl(caps, log)
        write_jsonl(truth_records, truth)
        config = (DATA / "demo_config.yaml").read_text().replace(
            "  - name: rb0\n"
            "    type: range_bearing_2d\n"
            "    extrinsic: {state: [0.0, 0.0, 0.0], fixed: true}\n",
            "  - name: rb0\n"
            "    type: range_bearing_2d\n"
            "    extrinsic: {state: [0.04, -0.03, 0.05], fixed: false, sigma: [0.3, 0.3]}\n",
        )
        cfg = tmp_path / "ext_calib.yaml"
        cfg.write_text(config)
        from arbor.runner import build_application, replay

        app = build_application(cfg)
        _, metrics = replay(app, log, truth_path=truth)
        rb_id, _ = app.sensors["rb0"]
        ext_p = app.tree.block(rb_id, "ext_p").values
        ext_o = app.tree.block(rb_id, "ext_o").values
        assert np.max(np.abs(ext_p)) < 1e-4
        assert abs(ext_o[0]) < 1e-4
        assert metrics.ate_rmse < 1e-4


class TestCli:
    def test_sim_and_run_round_trip(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        truth = tmp_path / "truth.jsonl"
        est = tmp_path / "est.jsonl"
        metrics = tmp_path / "metrics.json"
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(SMALL_SCENARIO)
        assert main(["sim", "--scenario", str(scenario), "--out", str(log),
                     "--truth", str(truth)]) == 0
        assert main(["run", "--config", str(DATA / "demo_config.yaml"),
                     "--log", str(log), "--out", str(est),
                     "--truth", str(truth), "--metrics", str(metrics)]) == 0
        report = json.loads(metrics.read_text())
        assert report["ate_rmse"] < 1e-6
        assert "ate_rmse" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("problem: {dimension: 3}\n")
        log = tmp_path / "log.jsonl"
        log.write_text("")
        est = tmp_path / "est.jsonl"
        assert main(["run", "--config", str(bad), "--log", str(log),
                     "--out", str(est)]) == 2

    @pytest.mark.parametrize("config, old, new, key", [
        ("demo_config.yaml", "    type: none\n", "    type: fix_oldest\n    n_frames: 1\n",
         "problem.tree_manager.n_frames"),
        ("demo_config.yaml", "max_dist: 0.5", "max_dist: -0.5", "max_dist"),
        ("demo_config.yaml", "association: gate", "association: nearest",
         "processors.1.association"),
        ("demo_config.yaml", "max_iterations: 25", "max_iterations: many", "max_iterations"),
        ("demo_config.yaml", "sigma_p: 0.01", "sigma_p: 0.0", "sigma_p"),
        ("demo_config.yaml", "lambda_init: 1.0e-4", "lambda_init: 0", "lambda_init"),
        ("demo_config.yaml", "gate: 0.5", "gate: -1", "gate"),
        ("demo_config.yaml", "tick_std: 0.001", "tick_std: 0.0", "tick_std"),
        ("demo_config.yaml", "tick_std: 0.001", "tick_std: -0.001", "tick_std"),
        ("demo_config.yaml", "range_std: 0.02", "range_std: -0.02", "range_std"),
        ("demo_config.yaml", "time_tolerance: 0.005", "time_tolerance: -1", "time_tolerance"),
        ("demo_config.yaml", "intrinsic: {state: [0.1, 0.1, 0.5], fixed: true}",
         "intrinsic: {state: [0.1, 0.1, 0.5], fixed: false, sigma: 0.0}", "intrinsic.sigma"),
        ("demo_config.yaml", "sigma_p: 0.01", "sigma_p: .nan", "sigma_p"),
        ("demo_config.yaml", "extrinsic: {state: [0.0, 0.0, 0.0], fixed: true}",
         "extrinsic: {state: [0.0, 0.0, 0.0], fixed: false, sigma: .nan}", "extrinsic.sigma"),
        ("demo_config.yaml", "extrinsic: {state: [0.0, 0.0, 0.0], fixed: true}",
         "extrinsic: {state: [0.0, 0.0, 0.0], fixed: false, sigma: [-0.1, 0.1]}",
         "extrinsic.sigma"),
        ("demo_config.yaml", "max_dist: 0.5", "max_dist: .nan", "max_dist"),
        ("demo_config.yaml", "max_dist: 0.5", "max_dist: .inf", "max_dist"),
        ("loop_config_on.yaml", "radius: 2.0", "radius: .nan", "radius"),
        ("demo_config.yaml", "min_tracks: 3", "min_tracks: 2.5", "min_tracks"),
        ("loop_config_on.yaml", "min_frame_gap: 20", "min_frame_gap: 2.7", "min_frame_gap"),
        ("loop_config_on.yaml", "min_shared_landmarks: 4", "min_shared_landmarks: .inf",
         "min_shared_landmarks"),
        ("demo_config.yaml", "    type: none\n", "    type: fix_oldest\n    n_frames: 4.5\n",
         "n_frames"),
        ("loop_config_on.yaml", "assoc_max_unseen: 8", "assoc_max_unseen: 8.5", "assoc_max_unseen"),
        ("demo_config.yaml", "max_iterations: 25", "max_iterations: 2.5", "max_iterations"),
        ("calib_config.yaml", "fixed: false, sigma: 0.05", 'fixed: "false", sigma: 0.05',
         "intrinsic.fixed"),
        ("demo_config.yaml", "extrinsic: {state: [0.0, 0.0, 0.0], fixed: true}",
         "extrinsic: {state: [0.0, 0.0, 0.0], fixed: 0}", "extrinsic.fixed"),
        ("demo_config.yaml", "solver:\n",
         "map:\n  landmarks:\n    - {id: 1, p: [1.0, 2.0], fixed: \"no\"}\nsolver:\n",
         "landmarks.0.fixed"),
        ("demo_config.yaml", "state: [0.1, 0.1, 0.5]", "state: [0.1, -0.1, 0.5]",
         "intrinsic.state"),
        ("demo_config.yaml", "max_iterations: 25", "max_iterations: true", "max_iterations"),
        ("demo_config.yaml", "gate: 0.5", "gate: true", "gate"),
        ("demo_config.yaml", "solver:\n",
         "map:\n  landmarks:\n    - {id: 1, p: [3.0, 2.0, 9.0]}\nsolver:\n",
         "map.landmarks.0.p"),
        ("demo_config.yaml", "solver:\n",
         "map:\n  landmarks:\n    - {id: 1, p: [3.0]}\nsolver:\n", "map.landmarks.0.p"),
        ("demo_config.yaml", "solver:\n",
         "map:\n  landmarks:\n    - {id: 1, p: [3.0, .nan]}\nsolver:\n", "map.landmarks.0.p"),
        ("demo_config.yaml", "solver:\n",
         "map:\n  landmarks:\n    - {id: 1.5, p: [3.0, 2.0]}\nsolver:\n",
         "map.landmarks.0.id"),
        ("demo_config.yaml", "    o: 0.0\n", "    o: true\n", "problem.first_frame.o"),
        ("demo_config.yaml", "p: [0.0, 0.0]\n", "p: [0.0, .nan]\n", "problem.first_frame.p"),
        ("demo_config.yaml", "state: [0.0, 0.0, 0.0]", "state: [0.0, 0.0, .nan]",
         "extrinsic.state"),
        ("demo_config.yaml", "state: [0.1, 0.1, 0.5]", "state: 5", "sensors.0.intrinsic.state"),
        ("demo_config.yaml", "name: odom0", "name: [odom0]", "sensors.0.name"),
        ("demo_config.yaml", "sensor: rb0", "sensor: [rb0]", "processors.1.sensor"),
        ("demo_config.yaml", "type: diff_drive", "type: [diff_drive]", "sensors.0.type"),
        ("demo_config.yaml", "type: motion_diff_drive", "type: [motion_diff_drive]",
         "processors.0.type"),
        ("demo_config.yaml", "type: none", "type: [none]", "problem.tree_manager.type"),
        ("demo_config.yaml", "  - name: odom\n", "  - name: [odom]\n", "processors.0.name"),
        ("demo_config.yaml", "association: gate", "association: [gate]",
         "processors.1.association"),
        ("demo_config.yaml", "type: motion_diff_drive", "type: no_such_processor",
         "processors.0.type"),
        ("demo_config.yaml", "lambda_init: 1.0e-4", "lambda_init: {a: 1}", "solver.lambda_init"),
        ("demo_config.yaml", "extrinsic: {state: [0.0, 0.0, 0.0], fixed: true}",
         "extrinsic: {state: [[0.0], 0.0, 0.0], fixed: true}", "sensors.0.extrinsic.state"),
        ("demo_config.yaml", "  - name: tracker\n", "  - {}\n  - name: tracker\n",
         "processors.1.type"),
        ("demo_config.yaml", "solver:\n",
         "map:\n  landmarks: {a: {id: 1, p: [1.0, 2.0]}}\nsolver:\n", "map.landmarks"),
        # an overflowing variance, and information weights of 1 / 1e-310
        ("demo_config.yaml", "tick_std: 0.001", "tick_std: 1.0e+300", "sensors.0.noise.tick_std"),
        ("demo_config.yaml", "sigma_p: 0.01", "sigma_p: 1.0e-310", "problem.first_frame.sigma_p"),
        ("demo_config.yaml", "bearing_std: 0.01", "bearing_std: 1.0e-310",
         "sensors.1.noise.bearing_std"),
    ], ids=["n_frames", "max_dist", "association", "max_iterations", "sigma_p", "lambda_init",
            "gate", "tick_std_zero", "tick_std_negative", "range_std", "time_tolerance",
            "intrinsic_sigma", "sigma_p_nan", "extrinsic_sigma_nan", "extrinsic_sigma_negative",
            "max_dist_nan", "max_dist_inf", "loop_radius_nan", "min_tracks_fraction",
            "min_frame_gap_fraction", "min_shared_landmarks_inf", "n_frames_fraction",
            "assoc_max_unseen_fraction", "max_iterations_fraction", "intrinsic_fixed_string",
            "extrinsic_fixed_number", "landmark_fixed_string", "intrinsic_state_negative",
            "max_iterations_boolean", "gate_boolean", "landmark_p_long", "landmark_p_short",
            "landmark_p_nan", "landmark_id_fraction", "first_frame_o_boolean",
            "first_frame_p_nan", "extrinsic_state_nan", "intrinsic_state_scalar",
            "sensor_name_list", "processor_sensor_list", "sensor_type_list",
            "processor_type_list", "tree_manager_type_list", "processor_name_list",
            "association_list", "processor_type_unknown", "lambda_init_mapping",
            "extrinsic_state_nested_list", "processor_entry_empty", "landmarks_mapping",
            "tick_std_huge", "sigma_p_tiny", "bearing_std_tiny"])
    def test_bad_config_value_exit_code(self, tmp_path, capsys, config, old, new, key):
        """A bad value exits 2 with a one-line message naming its key."""
        text = (DATA / config).read_text()
        assert old in text
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace(old, new))
        log = tmp_path / "log.jsonl"
        log.write_text("")
        est = tmp_path / "est.jsonl"
        assert main(["run", "--config", str(bad), "--log", str(log),
                     "--out", str(est)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert key in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("old, new, key", [
        ("duration: 10.0\n", "duration: 10.0\n bad_indent: 1\n", "line 4"),
        ("duration: 10.0", "duration: .nan", "duration"),
        ("rate: 20.0, tick_std", "rate: .inf, tick_std", "odometry.rate"),
        ("control:\n  - {duration: 10.0, v: 0.4, w: 0.2}\n", "control: []\n", "control"),
        ("tick_std: 0.0", "tick_std: -1", "odometry.tick_std"),
        ("range_std: 0.0", "range_std: .nan", "range_bearing.range_std"),
        ("v: 0.4", "v: .nan", "control.0.v"),
        ("- [0, 2.0, 1.0]", "- [0, 2.0]", "landmarks.0"),
        ("initial_pose: [0.0, 0.0, 0.0]", "initial_pose: [0.0, 0.0]", "initial_pose"),
        ("r_left: 0.1", "r_left: 0.0", "calibration.r_left"),
        ("seed: 11", "seed: -1", "seed"),
        ("emit_ids: true", 'emit_ids: "no"', "range_bearing.emit_ids"),
        ("{name: odom0,", "{name: [odom0],", "odometry.name"),
        ("name: rb0", "name: {id: rb0}", "range_bearing.name"),
        ("calibration: {r_left: 0.1, r_right: 0.1, separation: 0.5}", "calibration: 0.5",
         "calibration.r_left"),
        ("{name: odom0, rate: 20.0, tick_std: 0.0}", "{rate: 20.0, tick_std: 0.0}",
         "odometry.name"),
        ("{duration: 10.0, v: 0.4, w: 0.2}", "{duration: 10.0, v: 0.4}", "control.0.w"),
        ("name: rb0\n  rate: 20.0", "name: rb0\n  rate: 5.0e-324", "range_bearing.rate"),
        ("landmarks:\n  - [0, 2.0, 1.0]\n  - [1, 1.0, 2.5]\n  - [2, 3.0, 3.0]\n"
         "  - [3, 0.5, 4.0]\n  - [4, 2.5, 4.5]\n",
         "landmarks: {count: 1.0e+19, area: 10.0}\n", "landmarks.count"),
    ], ids=["yaml_syntax", "duration_nan", "odometry_rate_inf", "control_empty",
            "tick_std_negative", "range_std_nan", "control_v_nan", "landmark_short",
            "initial_pose_short", "r_left_zero", "seed_negative", "emit_ids_string",
            "odometry_name_list", "range_bearing_name_mapping", "calibration_scalar",
            "odometry_name_missing", "control_w_missing", "range_bearing_rate_tiny",
            "landmark_count_huge"])
    def test_bad_scenario_exit_code(self, tmp_path, capsys, old, new, key):
        """A bad scenario exits 2 and writes no log; the message names its key."""
        assert old in SMALL_SCENARIO
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(SMALL_SCENARIO.replace(old, new))
        log = tmp_path / "log.jsonl"
        assert main(["sim", "--scenario", str(scenario), "--out", str(log)]) == 2
        assert not log.exists()
        first, *rest = capsys.readouterr().err.strip().splitlines()
        assert first.startswith("error: ") and key in first
        # a YAML syntax error adds the parser's location lines, as `arbor run` does
        assert rest == [] or "invalid YAML" in first

    @pytest.mark.parametrize("flag", ["--out", "--truth"])
    def test_sim_unwritable_output_exit_code(self, tmp_path, capsys, flag):
        """An output in a missing directory exits 3 with one line naming it."""
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(SMALL_SCENARIO)
        paths = {"--out": str(tmp_path / "log.jsonl"), "--truth": str(tmp_path / "truth.jsonl")}
        paths[flag] = str(tmp_path / "missing" / "x.jsonl")
        argv = ["sim", "--scenario", str(scenario)] + [a for kv in paths.items() for a in kv]
        assert main(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and paths[flag] in err[0]
        # a failed sim leaves neither output, whichever one it wrote first
        assert list(tmp_path.iterdir()) == [scenario]

    @pytest.mark.parametrize("flag", ["--truth", "--metrics"])
    def test_run_failure_leaves_no_output(self, small_logs, tmp_path, capsys, flag):
        """A truth log or metrics file that cannot be read or written exits 3
        with one line naming it, and leaves no estimate file behind."""
        log, truth = small_logs
        paths = {"--out": tmp_path / "est.jsonl", "--truth": truth,
                 "--metrics": tmp_path / "metrics.json"}
        paths[flag] = tmp_path / "missing" / "x.json"
        argv = ["run", "--config", str(DATA / "demo_config.yaml"), "--log", str(log)]
        assert main(argv + [str(a) for kv in paths.items() for a in kv]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ") and str(paths[flag]) in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sensor, data", [
        # was an IndexError, a numpy UFuncNoLoopError and a TypeError
        pytest.param("truth", [1.0], id="pose_one_value"),
        pytest.param("truth", "xy", id="pose_string"),
        pytest.param("truth", None, id="pose_null"),
        pytest.param("truth", [True, 0.0, 0.0], id="pose_booleans"),  # scored as 1.0
        pytest.param("truth", [10**400, 0.0, 0.0], id="pose_too_large"),
        pytest.param("truth_calib", ["a", "b", "c"], id="calib_strings"),  # a ValueError
        pytest.param("truth_calib", [0.1, 0.1], id="calib_short"),  # did not name the record
        # scored as inf% and written into the metrics as Infinity
        pytest.param("truth_calib", [0.0, 0.1, 0.5], id="calib_zero"),
        # a capture record rejects strings, so a truth record does too
        pytest.param("truth", ["0.0", "0.0", "0.0"], id="pose_quoted"),
        pytest.param("truth_calib", ["0.1", "0.1", "0.5"], id="calib_quoted"),
    ])
    def test_malformed_truth_record_exit_code(self, small_logs, tmp_path, capsys, sensor, data):
        """A truth record the metrics read exits 3 with one line naming the
        record, and leaves no output."""
        log, truth = small_logs
        records = [json.loads(line) for line in truth.read_text().splitlines()]
        k = next(i for i, rec in enumerate(records) if rec["sensor"] == sensor)
        assert records[k]["t"] == 0.0
        records[k]["data"] = data
        bad = tmp_path / "truth.jsonl"
        bad.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert main(["run", "--config", str(DATA / "demo_config.yaml"), "--log", str(log),
                     "--out", str(tmp_path / "est.jsonl"), "--truth", str(bad),
                     "--metrics", str(tmp_path / "metrics.json")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: bad {sensor} record at t=0.0: ")
        assert list(tmp_path.iterdir()) == [bad]

    def test_metrics_needs_truth(self, tmp_path, capsys, monkeypatch):
        """--metrics without --truth exits 2 before any replay."""
        monkeypatch.setattr(arbor.cli, "replay", None)  # a replay would fail loudly
        log = tmp_path / "log.jsonl"
        log.write_text("")
        metrics = tmp_path / "metrics.json"
        assert main(["run", "--config", str(DATA / "demo_config.yaml"), "--log", str(log),
                     "--out", str(tmp_path / "est.jsonl"), "--metrics", str(metrics)]) == 2
        err = capsys.readouterr().err
        assert "--metrics" in err and "--truth" in err and "Traceback" not in err
        assert not metrics.exists()

    def test_calibration_priors_survive_remove_with_prior(self, tmp_path, monkeypatch):
        """The intrinsic prior hangs on its sensor, so the window never removes it."""
        config = tmp_path / "calib_window.yaml"
        config.write_text((DATA / "calib_config.yaml").read_text().replace(
            "    type: none\n", "    type: remove_with_prior\n    n_frames: 5\n"))
        captures, _ = simulate(load_scenario((DATA / "calib_scenario.yaml").read_text()))
        log = tmp_path / "log.jsonl"
        write_jsonl(captures, log)
        seen = []

        def on_keyframe(tree, event, report):
            priors = [f for s in tree.sensors() for f in tree.factors_referencing(s)
                      if tree.node(f).payload.kind == PRIOR_BLOCK]
            seen.append((len(priors), tree.check_consistency()))

        monkeypatch.setattr(arbor.cli, "replay", functools.partial(replay, on_keyframe=on_keyframe))
        assert main(["run", "--config", str(config), "--log", str(log),
                     "--out", str(tmp_path / "est.jsonl")]) == 0
        assert len(seen) > 5
        assert seen == [(1, [])] * len(seen)

    def test_data_error_exit_code(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('{"t": 0.0, "sensor": "ghost", "data": [0, 0]}\n')
        est = tmp_path / "est.jsonl"
        assert main(["run", "--config", str(DATA / "demo_config.yaml"),
                     "--log", str(log), "--out", str(est)]) == 3

    @pytest.mark.parametrize("sensor, data", [
        ("rb0", [[5]]),      # a scan entry without a bearing
        ("rb0", "abc"),      # scan data that is not a list of entries
        ("odom0", "abc"),    # wheel ticks that are not numbers
        ("odom0", [0.1]),    # one wheel tick where the model needs two
        ("odom0", None),     # a line that is not JSON at all
        ("odom0", "12"),     # a string, not a list of wheel ticks
        ("odom0", {"1": 0.1, "2": 0.1}),  # an object, not a list
        ("odom0", [10**400, 0.0]),  # a tick too large for a float
        ("odom0", [float("nan"), 0.0]),  # written as NaN, which JSON readers accept
        ("odom0", [float("inf"), 0.0]),  # written as Infinity
        pytest.param("odom0", Timestamp("1.0"), id="t_string"),
        pytest.param("odom0", Timestamp(True), id="t_boolean"),
        pytest.param("odom0", Timestamp(10**400), id="t_too_large"),  # no float holds it
        # values that float() and int() read although they are not JSON numbers
        pytest.param("odom0", ["0.13", "0.15"], id="ticks_strings"),
        pytest.param("odom0", [True, False], id="ticks_booleans"),
        pytest.param("odom0", [1e308, 1e308], id="ticks_overflow"),
        pytest.param("rb0", [[0, "1.0", 0.1]], id="range_string"),
        pytest.param("rb0", [[0, 1.0, True]], id="bearing_boolean"),
        pytest.param("rb0", [[0.5, 1.0, 0.1]], id="id_fraction"),  # int() made it 0
        pytest.param("rb0", [[True, 1.0, 0.1]], id="id_boolean"),
        pytest.param("rb0", [{"a": 1.0, "b": 0.1}], id="entry_object"),  # was a KeyError
    ])
    def test_malformed_record_exit_code(self, small_logs, tmp_path, capsys, sensor, data):
        lines = small_logs[0].read_text().splitlines()
        records = [json.loads(line) for line in lines]
        k = [i for i, rec in enumerate(records) if rec["sensor"] == sensor][10]
        if data is None:
            lines[k] = lines[k][:-1]
        elif isinstance(data, Timestamp):
            # the record at t=1.0, so that the value read as a float (1.0)
            # keeps the log in time order
            k = next(i for i, rec in enumerate(records)
                     if rec["sensor"] == sensor and rec["t"] == 1.0)
            lines[k] = json.dumps({**records[k], "t": data.value})
        else:
            lines[k] = json.dumps({**records[k], "data": data})
        log = tmp_path / "log.jsonl"
        log.write_text("\n".join(lines) + "\n")
        est = tmp_path / "est.jsonl"
        assert main(["run", "--config", str(DATA / "demo_config.yaml"),
                     "--log", str(log), "--out", str(est)]) == 3
        err = capsys.readouterr().err
        assert "bad" in err and "Traceback" not in err
        if isinstance(data, Timestamp):
            assert f"line {k + 1}:" in err

    @pytest.mark.parametrize("make_line, as_loads", [
        pytest.param(lambda line: line + " " + line, True, id="two_objects"),
        pytest.param(lambda line: line + " trailing", True, id="trailing_text"),
        pytest.param(lambda line: "\ufeff" + line, False, id="bom"),
        pytest.param(lambda line: "[" + line + "]", False, id="array"),
        pytest.param(lambda line: "12", False, id="bare_number"),
    ])
    def test_malformed_line_exit_code(self, small_logs, tmp_path, capsys, make_line, as_loads):
        """A line that is not exactly one JSON object is a bad record named by
        its line number; trailing data is reported where json.loads reports it."""
        lines = small_logs[0].read_text().splitlines()
        k = 10
        lines[k] = make_line(lines[k])
        log = tmp_path / "log.jsonl"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["run", "--config", str(DATA / "demo_config.yaml"),
                     "--log", str(log), "--out", str(tmp_path / "est.jsonl")]) == 3
        err = capsys.readouterr().err
        assert f"bad record at line {k + 1}:" in err and "Traceback" not in err
        if as_loads:
            with pytest.raises(json.JSONDecodeError, match="Extra data") as exc:
                json.loads(lines[k])
            assert str(exc.value) in err

    @pytest.mark.parametrize("rng", [0.0, -0.5])
    def test_nonpositive_range_exit_code(self, small_logs, tmp_path, capsys, rng):
        # a range sensor reports no return at a non-positive range; such an
        # entry used to build a landmark behind the sensor
        lines = small_logs[0].read_text().splitlines()
        k = [i for i, line in enumerate(lines) if json.loads(line)["sensor"] == "rb0"][10]
        rec = json.loads(lines[k])
        rec["data"][0][1] = rng
        lines[k] = json.dumps(rec)
        log = tmp_path / "log.jsonl"
        log.write_text("\n".join(lines) + "\n")
        est = tmp_path / "est.jsonl"
        assert main(["run", "--config", str(DATA / "demo_config.yaml"),
                     "--log", str(log), "--out", str(est)]) == 3
        err = capsys.readouterr().err
        assert "non-positive range" in err and str(rec["data"][0]) in err
        assert "Traceback" not in err

    def test_print_tree_flag(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text("")
        est = tmp_path / "est.jsonl"
        assert main(["run", "--config", str(DATA / "demo_config.yaml"),
                     "--log", str(log), "--out", str(est), "--print-tree"]) == 0
        out = capsys.readouterr().out
        assert "Problem#0" in out and "Sensor#" in out

    def test_failed_run_prints_no_tree(self, small_logs, tmp_path, capsys):
        """--print-tree prints the tree of a successful run only."""
        log, _ = small_logs
        assert main(["run", "--config", str(DATA / "demo_config.yaml"), "--log", str(log),
                     "--out", str(tmp_path / "est.jsonl"),
                     "--truth", str(tmp_path / "missing" / "t.jsonl"), "--print-tree"]) == 3
        assert capsys.readouterr().out == ""


def _set_tick(rec, rng, value):
    rec["data"][int(rng.integers(2))] = value


def _set_scan_value(rec, rng, value):
    if rec["data"]:
        entry = rec["data"][int(rng.integers(len(rec["data"])))]
        entry[1 + int(rng.integers(2))] = value


def _set_scan_range(rec, rng):
    if rec["data"]:
        rec["data"][int(rng.integers(len(rec["data"])))][-2] = float(rng.choice([0.0, -0.5]))


def _scan_entry_arity(rec, rng):
    if rec["data"]:
        entry = rec["data"][int(rng.integers(len(rec["data"])))]
        entry[:] = entry[:1] if rng.uniform() < 0.5 else entry + [0.0]


# kind -> (sensor of the mutated record or None for any, mutation of its dict)
LOG_MUTATIONS = {
    "odom_long": ("odom0", lambda rec, rng: rec["data"].append(0.0)),
    "odom_short": ("odom0", lambda rec, rng: rec["data"].pop()),
    "odom_string": ("odom0", lambda rec, rng: _set_tick(rec, rng, "x")),
    "odom_nan": ("odom0", lambda rec, rng: _set_tick(rec, rng, float("nan"))),
    "odom_inf": ("odom0", lambda rec, rng: _set_tick(rec, rng, float("inf"))),
    "scan_entry_arity": ("rb0", _scan_entry_arity),
    "scan_string": ("rb0", lambda rec, rng: _set_scan_value(rec, rng, "far")),
    "scan_nan": ("rb0", lambda rec, rng: _set_scan_value(rec, rng, float("nan"))),
    "scan_inf": ("rb0", lambda rec, rng: _set_scan_value(rec, rng, float("-inf"))),
    "scan_empty": ("rb0", lambda rec, rng: rec.update(data=[])),
    "data_null": (None, lambda rec, rng: rec.update(data=None)),
    "t_backwards": (None, lambda rec, rng: rec.update(t=rec["t"] - rng.uniform(0.01, 1.0))),
    "t_nan": (None, lambda rec, rng: rec.update(t=float("nan"))),
    "unknown_sensor": (None, lambda rec, rng: rec.update(sensor="ghost")),
    "scan_range_nonpositive": ("rb0", _set_scan_range),
}


class TestLogFuzz:
    """Seeded mutations of a demo log prefix: every replay ends in exit code
    0, 2 or 3, never a traceback, and leaves a consistent tree behind."""

    PREFIX = 400
    PER_KIND = 5

    @pytest.fixture(scope="class")
    def demo_lines(self):
        captures, _ = simulate(load_scenario((DATA / "demo_scenario.yaml").read_text()))
        return [json.dumps({"t": c.t, "sensor": c.sensor, "data": c.data})
                for c in captures[:self.PREFIX]]

    def _mutants(self, lines):
        rng = np.random.default_rng(2024)
        records = [json.loads(line) for line in lines]
        for kind, (sensor, mutate) in LOG_MUTATIONS.items():
            rows = [i for i, r in enumerate(records) if sensor in (None, r["sensor"])]
            for _ in range(self.PER_KIND):
                k = rows[int(rng.integers(len(rows)))]
                out = list(lines)
                rec = json.loads(lines[k])
                mutate(rec, rng)
                out[k] = json.dumps(rec)
                yield kind, out
        for kind, edit in (("t_duplicate", lambda out, k: out.insert(k, out[k])),
                           ("truncated_line", lambda out, k: out.__setitem__(k, out[k][:-2]))):
            for _ in range(self.PER_KIND):
                out = list(lines)
                edit(out, 1 + int(rng.integers(len(lines) - 1)))
                yield kind, out

    def test_mutated_logs(self, demo_lines, tmp_path, capsys, monkeypatch):
        apps = []

        def recording_replay(app, *args, **kwargs):
            apps.append(app)
            return replay(app, *args, **kwargs)

        monkeypatch.setattr(arbor.cli, "replay", recording_replay)
        log, est = tmp_path / "log.jsonl", tmp_path / "est.jsonl"
        for kind, lines in self._mutants(demo_lines):
            log.write_text("\n".join(lines) + "\n")
            code = main(["run", "--config", str(DATA / "demo_config.yaml"),
                         "--log", str(log), "--out", str(est)])
            err = capsys.readouterr().err
            assert code in (0, 2, 3), kind
            assert "Traceback" not in err, kind
            assert apps[-1].tree.check_consistency() == [], kind


# each key of a committed config or scenario is set in turn to each of these
BAD_VALUES = ([1.0, 2.0], {"a": 1.0}, "text", True, math.nan, -1, 0, 1e-310, 1e300, None)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _key_paths(node, sections, path=()):
    """The key path of every leaf of a parsed YAML document as the parameter
    server flattens it, and with ``sections`` of every mapping or nested list."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list) and any(isinstance(v, (dict, list)) for v in node):
        children = enumerate(node)
    else:
        yield path
        return
    if sections and path:
        yield path
    for k, v in children:
        yield from _key_paths(v, sections, path + (k,))


def _yaml_mutants(text, sections):
    """(dotted key, YAML text) with that key set to each bad value."""
    doc = yaml.safe_load(text)
    for path in _key_paths(doc, sections):
        for value in BAD_VALUES:
            mutant = copy.deepcopy(doc)
            parent = functools.reduce(lambda node, k: node[k], path[:-1], mutant)
            parent[path[-1]] = value
            yield ".".join(map(str, path)), yaml.dump(mutant, Dumper=_DUMPER)


class TestInputProperties:
    """Every key of the committed configs and scenarios, set to each bad value
    in turn, builds or loads, or is a ConfigError naming the key (a
    scenario's section by a key under it); never any other exception."""

    # together these four hold every config key
    CONFIGS = ("demo_config.yaml", "calib_config.yaml", "loop_config_on.yaml",
               "window_remove_config.yaml")

    def test_mutated_configs(self):
        cases = 0
        for config in self.CONFIGS:
            for key, text in _yaml_mutants((DATA / config).read_text(), False):
                cases += 1
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", ConfigWarning)
                        auto_setup(parse_config(text))
                except ConfigError as exc:
                    message = str(exc)
                    # a renamed sensor leaves its processor's reference dangling
                    renamed = (key.startswith("sensors.") and key.endswith(".name")
                               and ".sensor references unknown sensor" in message)
                    assert key in message or renamed, (config, key, message)
        assert cases > 1000

    def test_mutated_scenarios(self):
        cases = 0
        for scenario in sorted(DATA.glob("*_scenario.yaml")):
            for key, text in _yaml_mutants(scenario.read_text(), True):
                cases += 1
                try:
                    load_scenario(text)
                except ConfigError as exc:
                    assert key in str(exc), (scenario.name, key, str(exc))
        assert cases > 1000
