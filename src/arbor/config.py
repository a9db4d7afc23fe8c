"""YAML configuration: parameter server, creator registries, auto-setup.

A YAML file describing the whole setup (sensors, processors, solver, window
manager, initial state, optional map) is flattened into a parameter server
of dotted keys.  Factories registered per category turn server subtrees
into live objects, so a new sensor or processor type only needs a creator
registration.  A sensor creator also hangs the priors on its calibration
blocks (``intrinsic.sigma``, ``extrinsic.sigma``) on its own Sensor node.
``auto_setup`` assembles the full problem: the hardware branch, the first
frame with its prior, the initial map, the processor pipeline, and the
solver options.

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
from .checks import as_flag, as_number, as_numbers, as_text, load_yaml
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

_MISSING = object()


class ConfigWarning(UserWarning):
    pass


def _flatten(prefix: str, value, out: dict, expanded: dict):
    """Dotted keys of the leaves into ``out``; each mapping or nested list
    that was split into them, by its own key, into ``expanded``."""
    if isinstance(value, dict):
        expanded[prefix] = value
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out, expanded)
    elif isinstance(value, list) and value and any(isinstance(v, (dict, list)) for v in value):
        expanded[prefix] = value
        for i, v in enumerate(value):
            _flatten(f"{prefix}.{i}", v, out, expanded)
    else:
        out[prefix] = value


class ParameterServer:
    """Flat dotted-key view of a parsed configuration.

    Reads are tracked so auto-setup can warn about keys it never consumed.
    Reading a key whose value was a mapping or a nested list (``expanded``,
    as :func:`_flatten` records it) is a ConfigError: a value belongs there.
    """

    def __init__(self, flat: dict, expanded: dict):
        self._flat = dict(flat)
        self._expanded = expanded
        self._consumed: set = set()

    def get(self, key: str, default=None):
        if key in self._flat:
            self._consumed.add(key)
            return self._flat[key]
        self._check_not_expanded(key)
        return default

    def require(self, key: str):
        if key not in self._flat:
            self._check_not_expanded(key)
            raise ConfigError(f"missing mandatory config key: {key}")
        self._consumed.add(key)
        return self._flat[key]

    def _check_not_expanded(self, key: str):
        if key in self._expanded:
            raise ConfigError(f"{key} must be a value or a list of values, "
                              f"got {self._expanded[key]!r}")

    def count(self, prefix: str) -> int:
        """Number of entries of the list split under a dotted prefix."""
        entries = self._expanded.get(prefix, ())
        if isinstance(entries, dict):
            raise ConfigError(f"{prefix} must be a list, got {entries!r}")
        return len(entries)

    def unconsumed(self):
        return sorted(k for k in self._flat if k not in self._consumed)


def parse_config(text: str) -> ParameterServer:
    """Parse YAML text into a flat parameter server with typed scalars."""
    data = load_yaml(text)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top level of the configuration must be a mapping")
    flat: dict = {}
    expanded: dict = {}
    _flatten("", data, flat, expanded)
    return ParameterServer(flat, expanded)


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

def _positive(server, key, default=_MISSING, zero_ok=False, integer=False):
    """A scalar that must be finite and > 0 (>= 0 with ``zero_ok``).

    With ``integer`` it must also be integral and is returned as an int.
    An absent key whose default is None reads as None.
    """
    value = server.require(key) if default is _MISSING else server.get(key, default)
    if value is None and default is None:
        return None
    return as_number(key, value, ">=" if zero_ok else ">", integer)


def _flag(server, key, default):
    return as_flag(key, server.get(key, default))


def _text(server, key):
    return as_text(key, server.require(key))


def _pose_blocks_from(server, prefix):
    state = as_numbers(f"{prefix}.state", server.get(f"{prefix}.state", [0.0, 0.0, 0.0]), 3)
    fixed = _flag(server, f"{prefix}.fixed", True)
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
    name = _text(server, f"{prefix}.name")
    blocks, ext_sigma = _pose_blocks_from(server, f"{prefix}.extrinsic")
    key = f"{prefix}.intrinsic.state"
    blocks["intrinsic"] = StateBlock(np.array(as_numbers(key, server.require(key), 3, ">")),
                                     fixed=_flag(server, f"{prefix}.intrinsic.fixed", True))
    noise = {"tick_std": _positive(server, f"{prefix}.noise.tick_std")}
    info = SensorInfo(name, "diff_drive", noise)
    sensor = tree.add_sensor(info, blocks)
    sigma = _positive(server, f"{prefix}.intrinsic.sigma", None)
    _add_prior(tree, sensor, PRIOR_BLOCK, ["intrinsic"], None if sigma is None else [sigma])
    _add_prior(tree, sensor, PRIOR_POSE, ["ext_p", "ext_o"], ext_sigma)
    return sensor, info


def _create_range_bearing(tree, server, prefix):
    name = _text(server, f"{prefix}.name")
    blocks, ext_sigma = _pose_blocks_from(server, f"{prefix}.extrinsic")
    noise = {
        "range_std": _positive(server, f"{prefix}.noise.range_std"),
        "bearing_std": _positive(server, f"{prefix}.noise.bearing_std"),
    }
    info = SensorInfo(name, "range_bearing_2d", noise)
    sensor = tree.add_sensor(info, blocks)
    _add_prior(tree, sensor, PRIOR_POSE, ["ext_p", "ext_o"], ext_sigma)
    return sensor, info


def _create_motion_processor(server, prefix, name, sensor_id, sensor_name, info):
    return MotionProcessor(
        name, sensor_id, sensor_name,
        time_tolerance=_positive(server, f"{prefix}.time_tolerance", zero_ok=True),
        tick_std=info.noise["tick_std"],
        max_dist=_positive(server, f"{prefix}.keyframe.max_dist", None),
        max_angle=_positive(server, f"{prefix}.keyframe.max_angle", None),
        max_time=_positive(server, f"{prefix}.keyframe.max_time", None),
    )


def _create_tracker(server, prefix, name, sensor_id, sensor_name, info):
    key = f"{prefix}.association"
    try:
        return LandmarkTracker(
            name, sensor_id, sensor_name,
            time_tolerance=_positive(server, f"{prefix}.time_tolerance", zero_ok=True),
            range_std=info.noise["range_std"],
            bearing_std=info.noise["bearing_std"],
            min_tracks=_positive(server, f"{prefix}.keyframe.min_tracks", None, integer=True),
            gate=_positive(server, f"{prefix}.gate", 0.5),
            association=as_text(key, server.get(key, "gate")),
            max_unseen_frames=_positive(server, f"{prefix}.assoc_max_unseen", None,
                                        zero_ok=True, integer=True),
        )
    except ContractError as exc:  # the constructor's check of the mode
        raise ConfigError(f"{key}: {exc}") from exc


def _create_loop_closer(server, prefix, name, sensor_id, sensor_name, _info):
    return LoopCloser(
        name, sensor_id, sensor_name,
        radius=_positive(server, f"{prefix}.loop.radius"),
        min_frame_gap=_positive(server, f"{prefix}.loop.min_frame_gap", integer=True),
        min_shared_landmarks=_positive(server, f"{prefix}.loop.min_shared_landmarks",
                                       integer=True),
        sigma_p=_positive(server, f"{prefix}.loop.sigma_p", 0.05),
        sigma_o=_positive(server, f"{prefix}.loop.sigma_o", 0.02),
    )


def _manager_window(variant, server, prefix):
    key = f"{prefix}.n_frames"
    try:
        return T.WindowPolicy(variant, _positive(server, key, integer=True))
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
    dimension = _positive(server, "problem.dimension", integer=True)
    if dimension != 2:
        raise ConfigError(f"problem.dimension must be 2, got {dimension}")

    tree = T.ProblemTree()

    n_sensors = server.count("sensors")
    if n_sensors == 0:
        raise ConfigError("missing mandatory config key: sensors.0.type")
    sensors: dict = {}
    for i in range(n_sensors):
        prefix = f"sensors.{i}"
        key = f"{prefix}.type"
        sensor_id, info = registry.create("sensor", _text(server, key), tree, server, prefix,
                                          key=key)
        if info.name in sensors:
            raise ConfigError(f"duplicate sensor name {info.name!r}")
        sensors[info.name] = (sensor_id, info)

    n_procs = server.count("processors")
    if n_procs == 0:
        raise ConfigError("missing mandatory config key: processors.0.type")
    processors = []
    for i in range(n_procs):
        prefix = f"processors.{i}"
        key = f"{prefix}.type"
        type_name = _text(server, key)
        name = _text(server, f"{prefix}.name")
        sensor_name = _text(server, f"{prefix}.sensor")
        if sensor_name not in sensors:
            raise ConfigError(f"{prefix}.sensor references unknown sensor {sensor_name!r}")
        sensor_id, info = sensors[sensor_name]
        processors.append(registry.create("processor", type_name, server, prefix,
                                          name, sensor_id, sensor_name, info, key=key))
        tree.add_processor(ProcessorInfo(name, type_name, sensor_id))

    key = "problem.tree_manager.type"
    window_policy = registry.create("tree_manager", as_text(key, server.get(key, "none")),
                                    server, "problem.tree_manager", key=key)

    options = SolverOptions(
        max_iterations=_positive(server, "solver.max_iterations", integer=True),
        lambda_init=_positive(server, "solver.lambda_init", 1e-4),
        tol_dx=_positive(server, "solver.tol_dx", 1e-10, zero_ok=True),
        tol_grad=_positive(server, "solver.tol_grad", 1e-12, zero_ok=True),
    )

    p0 = as_numbers("problem.first_frame.p", server.require("problem.first_frame.p"), 2)
    o0 = as_number("problem.first_frame.o", server.require("problem.first_frame.o"), None)
    sigma_p = _positive(server, "problem.first_frame.sigma_p")
    sigma_o = _positive(server, "problem.first_frame.sigma_o")
    first = tree.add_frame(0.0, (*p0, o0))
    tree.add_pose_prior(first, tree.sensors()[0],
                        np.diag([1.0 / sigma_p, 1.0 / sigma_p, 1.0 / sigma_o]))

    n_landmarks = server.count("map.landmarks")
    for i in range(n_landmarks):
        prefix = f"map.landmarks.{i}"
        raw_id = server.get(f"{prefix}.id", None)
        if raw_id is not None:
            raw_id = as_number(f"{prefix}.id", raw_id, None, integer=True)
        p = as_numbers(f"{prefix}.p", server.require(f"{prefix}.p"), 2)
        tree.add_landmark(np.array(p), RawIdInfo(raw_id),
                          fixed=_flag(server, f"{prefix}.fixed", False))

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
