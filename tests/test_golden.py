"""The reference replays' estimate files, compared byte for byte.

Each case simulates a ``tests/data`` scenario at its committed seed, replays
the log with its config, and compares the estimate file with the committed
one under ``tests/golden/``.  A change that moves an estimate on purpose
regenerates the files with ``python tests/regenerate_golden.py`` and records
the largest change it reports.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from arbor.runner import build_application, replay
from arbor.sim import load_scenario, simulate, write_jsonl

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

# case name -> (scenario, config), both in tests/data
CASES = {
    "demo": ("demo_scenario.yaml", "demo_config.yaml"),
    "calib": ("calib_scenario.yaml", "calib_config.yaml"),
    "loop_on": ("loop_scenario.yaml", "loop_config_on.yaml"),
    "loop_off": ("loop_scenario.yaml", "loop_config_off.yaml"),
    "window_fix": ("window_scenario.yaml", "window_fix_config.yaml"),
    "window_remove": ("window_scenario.yaml", "window_remove_config.yaml"),
}


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}_est.jsonl"


def estimate_file(name: str, directory: Path) -> Path:
    """Simulate case ``name``'s scenario, replay it, and return the estimate
    file written in ``directory``."""
    scenario, config = CASES[name]
    log = directory / f"{name}_log.jsonl"
    write_jsonl(simulate(load_scenario((DATA / scenario).read_text()))[0], log)
    out = directory / f"{name}_est.jsonl"
    replay(build_application(DATA / config), log, out_path=out)
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
