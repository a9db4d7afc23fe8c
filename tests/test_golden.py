"""The reference replays' estimate files, compared byte for byte.

Each case simulates a ``tests/data`` scenario at its committed seed, replays
the log with its config, and compares the estimate file with the committed
one under ``tests/golden/``.  Two cases reshape a scenario and a config the
way the benchmark's ``highrate_window`` and ``selfcal_window`` workloads do,
with the changes written here.  A change that moves an estimate on purpose
regenerates the files with ``python tests/regenerate_golden.py`` and records
the largest change it reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest
import yaml

from arbor.runner import build_application, replay
from arbor.sim import load_scenario, simulate, write_jsonl

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

# a range-bearing sensor mounted off the robot's origin, so that the
# Jacobian terms through the mount's lever arm are exercised
MOUNT = [0.25, -0.1, 0.6]


def highrate_shape(scenario) -> None:
    """100 Hz odometry with noisy ticks and scans, seen through MOUNT, for
    30 s."""
    scenario.duration = 30.0
    scenario.odometry.rate, scenario.odometry.tick_std = 100.0, 0.002
    rb = scenario.range_bearing
    rb.range_std, rb.bearing_std, rb.extrinsic = 0.02, 0.01, tuple(MOUNT)
    # landmark 9 passes 0.11 m from the sensor at t = 5.4 s, where a noisy
    # range could go negative; every other one stays 0.26 m or more away
    scenario.landmarks = [lm for lm in scenario.landmarks if lm[0] != 9]


class Case(NamedTuple):
    scenario: str  # in tests/data
    config: str    # in tests/data
    # edits the loaded scenario in place
    shape: Optional[Callable] = None
    # (dotted key, value) pairs set in the config; list items by index
    config_changes: tuple = ()


CASES = {
    "demo": Case("demo_scenario.yaml", "demo_config.yaml"),
    "calib": Case("calib_scenario.yaml", "calib_config.yaml"),
    "loop_on": Case("loop_scenario.yaml", "loop_config_on.yaml"),
    "loop_off": Case("loop_scenario.yaml", "loop_config_off.yaml"),
    "window_fix": Case("window_scenario.yaml", "window_fix_config.yaml"),
    "window_remove": Case("window_scenario.yaml", "window_remove_config.yaml"),
    "highrate": Case("window_scenario.yaml", "window_remove_config.yaml", highrate_shape, (
        ("sensors.0.noise.tick_std", 0.002),
        ("sensors.1.extrinsic.state", MOUNT),
    )),
    "selfcal": Case("calib_scenario.yaml", "calib_config.yaml", config_changes=(
        ("problem.tree_manager", {"type": "fix_oldest", "n_frames": 5}),
    )),
}


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}_est.jsonl"


def changed_config(text: str, changes) -> str:
    """The YAML ``text`` with each (dotted key, value) of ``changes`` set."""
    data = yaml.safe_load(text)
    for key, value in changes:
        *parents, last = key.split(".")
        node = data
        for part in parents:
            node = node[int(part) if isinstance(node, list) else part]
        node[int(last) if isinstance(node, list) else last] = value
    return yaml.safe_dump(data)


def estimate_file(name: str, directory: Path) -> Path:
    """Simulate case ``name``'s scenario, replay it, and return the estimate
    file written in ``directory``."""
    case = CASES[name]
    scenario = load_scenario((DATA / case.scenario).read_text())
    if case.shape is not None:
        case.shape(scenario)
    log = directory / f"{name}_log.jsonl"
    write_jsonl(simulate(scenario)[0], log)
    config = DATA / case.config
    if case.config_changes:
        config = directory / f"{name}_config.yaml"
        config.write_text(changed_config((DATA / case.config).read_text(), case.config_changes))
    out = directory / f"{name}_est.jsonl"
    replay(build_application(config), log, out_path=out)
    return out


def largest_difference(expected: str, actual: str) -> str:
    """The largest difference between two estimate files, in words."""
    old = [json.loads(line) for line in expected.splitlines()]
    new = [json.loads(line) for line in actual.splitlines()]
    if len(old) != len(new):
        return f"{len(new)} records instead of {len(old)}"
    for k, (a, b) in enumerate(zip(old, new)):
        if (a["t"], a["sensor"], len(a["data"])) != (b["t"], b["sensor"], len(b["data"])):
            return f"record {k} is {b['sensor']} at t={b['t']}, not {a['sensor']} at t={a['t']}"
    worst, k = max((abs(x - y), k) for k, (a, b) in enumerate(zip(old, new))
                   for x, y in zip(a["data"], b["data"]))
    return f"largest difference {worst:.3g}, in record {k}"


@pytest.mark.parametrize("name", list(CASES))
def test_estimates_match_golden(name, tmp_path):
    expected = golden_path(name).read_text()
    actual = estimate_file(name, tmp_path).read_text()
    assert actual == expected, f"{name}: {largest_difference(expected, actual)}"
