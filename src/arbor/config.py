"""YAML configuration: creator registries and auto-setup.

A YAML file describing the whole setup (sensors, processors, solver, window
manager, initial state, optional map) is read by :func:`checks.read_yaml`,
the reader scenarios share, into a parameter server of dotted keys whose
typed reads check every value and name its key.  Factories registered per
category turn server subtrees into live objects, so a new sensor or
processor type only needs a creator registration.  A sensor creator also
hangs the priors on its calibration blocks (``intrinsic.sigma``,
``extrinsic.sigma``) on its own Sensor node.  ``auto_setup`` assembles the
full problem: the hardware branch, the first frame with its prior, the
initial map, the processor pipeline, and the solver options.

Keys the setup never reads are reported as warnings, not errors, so configs
stay forward compatible.  A mapping or a nested list where the setup reads a
value is a ConfigError naming its key.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import tree as T
from .checks import ParameterServer, as_number, read_yaml
from .errors import ConfigError, ContractError
from .factors import PRIOR_BLOCK, PRIOR_POSE, Factor
from .manifold import ANGLE, StateBlock
from .processors import (
    LandmarkTracker,
    LoopCloser,
    MotionProcessor,
    Pipeline,
    ProcessorInfo,
    RawIdInfo,
    SensorInfo,
)
from .solver import SolverOptions


class ConfigWarning(UserWarning):
    pass


def parse_config(text: str) -> ParameterServer:
    """Parse configuration YAML into a flat parameter server with typed scalars."""
    return read_yaml(text, "configuration")


class CreatorRegistry:
    """Per-category factories mapping type names to creator callables."""

    def __init__(self):
        self._creators: dict = {}

    def register(self, category: str, type_name: str, creator):
        key = (category, type_name)
        if key in self._creators:
            raise ContractError(f"{category} creator {type_name!r} already registered")
        self._creators[key] = creator

    def names(self, category: str):
        return sorted(name for cat, name in self._creators if cat == category)

    def create(self, category: str, type_name: str, *args, key: str | None = None, **kwargs):
        """Call the creator registered for ``type_name``; an unknown name is a
        ConfigError naming ``key``, the config key it was read from, if given."""
        if (category, type_name) not in self._creators:
            raise ConfigError(
                f"unknown {category} type {type_name!r}{f' at {key}' if key else ''}; "
                f"registered: {', '.join(self.names(category)) or '(none)'}"
            )
        return self._creators[(category, type_name)](*args, **kwargs)


# ----------------------------------------------------------------------
# built-in creators

def _pose_blocks_from(server, prefix):
    state = server.numbers(f"{prefix}.state", 3, [0.0, 0.0, 0.0])
    fixed = server.flag(f"{prefix}.fixed", True)
    blocks = {
        "ext_p": StateBlock(np.array(state[:2]), fixed=fixed),
        "ext_o": StateBlock(np.array([state[2]]), ANGLE, fixed=fixed),
    }
    sigma = server.get(f"{prefix}.sigma", None)
    if sigma is not None:
        pair = sigma if isinstance(sigma, list) and len(sigma) == 2 else [sigma, sigma]
        sigma = tuple(as_number(f"{prefix}.sigma", v) for v in pair)
    return blocks, sigma


def _add_prior(tree, sensor, kind, names, sigmas):
    """Hang a prior on ``sensor`` pinning its blocks ``names`` at their values,
    with one sigma per block; none without sigmas or with the blocks fixed."""
    blocks = [tree.block(sensor, name) for name in names]
    if sigmas is None or blocks[0].fixed:
        return
    tree.add_factor(sensor, Factor(
        kind=kind,
        z=np.concatenate([block.values for block in blocks]),
        sqrt_info=np.diag(np.concatenate([np.full(block.tangent_dim, 1.0 / sigma)
                                          for block, sigma in zip(blocks, sigmas)])),
        constrained=[(sensor, name) for name in names],
    ))


def _create_diff_drive(tree, server, prefix):
    name = server.text(f"{prefix}.name")
    blocks, ext_sigma = _pose_blocks_from(server, f"{prefix}.extrinsic")
    blocks["intrinsic"] = StateBlock(np.array(server.numbers(f"{prefix}.intrinsic.state", 3,
                                                             bound=">")),
                                     fixed=server.flag(f"{prefix}.intrinsic.fixed", True))
    noise = {"tick_std": server.number(f"{prefix}.noise.tick_std")}
    info = SensorInfo(name, "diff_drive", noise)
    sensor = tree.add_sensor(info, blocks)
    sigma = server.number(f"{prefix}.intrinsic.sigma", None)
    _add_prior(tree, sensor, PRIOR_BLOCK, ["intrinsic"], None if sigma is None else [sigma])
    _add_prior(tree, sensor, PRIOR_POSE, ["ext_p", "ext_o"], ext_sigma)
    return sensor, info


def _create_range_bearing(tree, server, prefix):
    name = server.text(f"{prefix}.name")
    blocks, ext_sigma = _pose_blocks_from(server, f"{prefix}.extrinsic")
    noise = {
        "range_std": server.number(f"{prefix}.noise.range_std"),
        "bearing_std": server.number(f"{prefix}.noise.bearing_std"),
    }
    info = SensorInfo(name, "range_bearing_2d", noise)
    sensor = tree.add_sensor(info, blocks)
    _add_prior(tree, sensor, PRIOR_POSE, ["ext_p", "ext_o"], ext_sigma)
    return sensor, info


def _create_motion_processor(server, prefix, name, sensor_id, sensor_name, info):
    return MotionProcessor(
        name, sensor_id, sensor_name,
        time_tolerance=server.number(f"{prefix}.time_tolerance", bound=">="),
        tick_std=info.noise["tick_std"],
        max_dist=server.number(f"{prefix}.keyframe.max_dist", None),
        max_angle=server.number(f"{prefix}.keyframe.max_angle", None),
        max_time=server.number(f"{prefix}.keyframe.max_time", None),
    )


def _create_tracker(server, prefix, name, sensor_id, sensor_name, info):
    key = f"{prefix}.association"
    try:
        return LandmarkTracker(
            name, sensor_id, sensor_name,
            time_tolerance=server.number(f"{prefix}.time_tolerance", bound=">="),
            range_std=info.noise["range_std"],
            bearing_std=info.noise["bearing_std"],
            min_tracks=server.number(f"{prefix}.keyframe.min_tracks", None, integer=True),
            gate=server.number(f"{prefix}.gate", 0.5),
            association=server.text(key, "gate"),
            max_unseen_frames=server.number(f"{prefix}.assoc_max_unseen", None,
                                            bound=">=", integer=True),
        )
    except ContractError as exc:  # the constructor's check of the mode
        raise ConfigError(f"{key}: {exc}") from exc


def _create_loop_closer(server, prefix, name, sensor_id, sensor_name, _info):
    return LoopCloser(
        name, sensor_id, sensor_name,
        radius=server.number(f"{prefix}.loop.radius"),
        min_frame_gap=server.number(f"{prefix}.loop.min_frame_gap", integer=True),
        min_shared_landmarks=server.number(f"{prefix}.loop.min_shared_landmarks",
                                           integer=True),
        sigma_p=server.number(f"{prefix}.loop.sigma_p", 0.05),
        sigma_o=server.number(f"{prefix}.loop.sigma_o", 0.02),
    )


def _manager_window(variant, server, prefix):
    key = f"{prefix}.n_frames"
    try:
        return T.WindowPolicy(variant, server.number(key, integer=True))
    except ContractError as exc:  # the policy's check of the window size
        raise ConfigError(f"{key}: {exc}") from exc


def _manager_none(server, prefix):
    return None


def default_registry() -> CreatorRegistry:
    reg = CreatorRegistry()
    reg.register("sensor", "diff_drive", _create_diff_drive)
    reg.register("sensor", "range_bearing_2d", _create_range_bearing)
    reg.register("processor", "motion_diff_drive", _create_motion_processor)
    reg.register("processor", "tracker_landmark_2d", _create_tracker)
    reg.register("processor", "loop_closure_2d", _create_loop_closer)
    for variant in (T.FIX_OLDEST, T.REMOVE_WITH_PRIOR):
        reg.register("tree_manager", variant, partial(_manager_window, variant))
    reg.register("tree_manager", "none", _manager_none)
    return reg


# ----------------------------------------------------------------------
# auto-setup

@dataclass
class Application:
    """Everything auto-setup produces, ready for the runner."""

    tree: T.ProblemTree
    pipeline: Pipeline
    sensors: dict          # name -> (NodeId, SensorInfo)
    solver_options: SolverOptions
    window_policy: Optional[T.WindowPolicy]
    first_frame: T.NodeId


def auto_setup(server: ParameterServer, registry: CreatorRegistry | None = None) -> Application:
    """Build the configured problem from a parameter server.

    Creates sensors (with their calibration priors) and processor nodes
    under Hardware, the first frame with its pose prior under Trajectory,
    optional initial landmarks under Map, wires the processor pipeline, and
    returns the solver options and window policy.  The resulting tree
    always passes the consistency check.
    """
    registry = registry or default_registry()
    dimension = server.number("problem.dimension", integer=True)
    if dimension != 2:
        raise ConfigError(f"problem.dimension must be 2, got {dimension}")

    tree = T.ProblemTree()

    sensors: dict = {}
    for i in range(max(server.count("sensors"), 1)):  # no entry: sensors.0.type is missing
        prefix = f"sensors.{i}"
        key = f"{prefix}.type"
        sensor_id, info = registry.create("sensor", server.text(key), tree, server, prefix,
                                          key=key)
        if info.name in sensors:
            raise ConfigError(f"duplicate sensor name {info.name!r}")
        sensors[info.name] = (sensor_id, info)

    processors = []
    for i in range(max(server.count("processors"), 1)):
        prefix = f"processors.{i}"
        key = f"{prefix}.type"
        type_name = server.text(key)
        name = server.text(f"{prefix}.name")
        sensor_name = server.text(f"{prefix}.sensor")
        if sensor_name not in sensors:
            raise ConfigError(f"{prefix}.sensor references unknown sensor {sensor_name!r}")
        sensor_id, info = sensors[sensor_name]
        processors.append(registry.create("processor", type_name, server, prefix,
                                          name, sensor_id, sensor_name, info, key=key))
        tree.add_processor(ProcessorInfo(name, type_name, sensor_id))

    key = "problem.tree_manager.type"
    window_policy = registry.create("tree_manager", server.text(key, "none"),
                                    server, "problem.tree_manager", key=key)

    options = SolverOptions(
        max_iterations=server.number("solver.max_iterations", integer=True),
        lambda_init=server.number("solver.lambda_init", 1e-4),
        tol_dx=server.number("solver.tol_dx", 1e-10, bound=">="),
        tol_grad=server.number("solver.tol_grad", 1e-12, bound=">="),
    )

    p0 = server.numbers("problem.first_frame.p", 2)
    o0 = server.number("problem.first_frame.o", bound=None)
    sigma_p = server.number("problem.first_frame.sigma_p")
    sigma_o = server.number("problem.first_frame.sigma_o")
    first = tree.add_frame(0.0, (*p0, o0))
    tree.add_pose_prior(first, tree.sensors()[0],
                        np.diag([1.0 / sigma_p, 1.0 / sigma_p, 1.0 / sigma_o]))

    n_landmarks = server.count("map.landmarks")
    for i in range(n_landmarks):
        prefix = f"map.landmarks.{i}"
        raw_id = server.number(f"{prefix}.id", None, bound=None, integer=True)
        p = server.numbers(f"{prefix}.p", 2)
        tree.add_landmark(np.array(p), RawIdInfo(raw_id),
                          fixed=server.flag(f"{prefix}.fixed", False))

    pipeline = Pipeline(tree, processors)
    pipeline.initialize(first)

    for key in server.unconsumed():
        warnings.warn(f"unknown config key ignored: {key}", ConfigWarning, stacklevel=2)

    violations = tree.check_consistency()
    if violations:
        raise ConfigError(f"auto-setup produced an inconsistent tree: {violations}")

    return Application(
        tree=tree,
        pipeline=pipeline,
        sensors=sensors,
        solver_options=options,
        window_policy=window_policy,
        first_frame=first,
    )
