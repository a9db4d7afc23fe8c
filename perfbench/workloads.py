"""The benchmark's workloads: inputs, run shape and the checks each must pass.

Every workload replays logs made by ``arbor.sim`` from a scenario and a
config kept in ``perfbench/workloads/``.  The landmark field of each scenario
is written out as a fixed list, so the seed drives only the sensor noise and
the problem keeps its shape from seed to seed.

A cycle replays the reference log (made from the scenario's own seed) and
``seeded_logs`` logs made from the run's ``--seed``.  A run replays whole
cycles only, so every run attempts the same mix of operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"

# seeded log i of a run with --seed n is simulated with seed n + SEED_STRIDE * i
SEED_STRIDE = 100_003


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded_logs: int
    # latency percentile reported as kf_latency_tail_ms; chosen so that one
    # cycle leaves at least ten samples above it
    tail_pct: float
    # ATE ceiling of every replay, in meters (the README gives the reason)
    ate_ceiling_m: float
    # every intrinsic component within this relative error of the truth
    calib_rel_tol: Optional[float] = None
    # at least one relative-pose factor in the final tree
    needs_loop_closure: bool = False
    # at most this many live frames after any keyframe
    window_frames: Optional[int] = None

    @property
    def scenario_path(self) -> Path:
        return WORKLOAD_DIR / f"{self.name}_scenario.yaml"

    @property
    def config_path(self) -> Path:
        return WORKLOAD_DIR / f"{self.name}_config.yaml"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loop",
            why="full batch with loop closure: factor evaluation, the dense "
                "solve and the loop closer's scan grow with history",
            seeded_logs=4,
            tail_pct=95.0,
            ate_ceiling_m=0.1,
            needs_loop_closure=True,
        ),
        Workload(
            name="selfcal_window",
            why="online wheel self-calibration under fix_oldest: active "
                "problem fixed, factor count and sync cost grow with history",
            seeded_logs=1,
            tail_pct=88.0,
            ate_ceiling_m=0.1,
            calib_rel_tol=0.01,
        ),
        Workload(
            name="highrate_window",
            why="100 Hz odometry under remove_with_prior: bounded problem, "
                "front-end and window manager dominate",
            seeded_logs=2,
            tail_pct=97.0,
            ate_ceiling_m=1.0,
            window_frames=5,
        ),
    )
}
