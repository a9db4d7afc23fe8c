import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from arbor import checks
from arbor import tree as T
from arbor.config import (
    ConfigWarning,
    CreatorRegistry,
    ParameterServer,
    auto_setup,
    default_registry,
    parse_config,
)
from arbor.errors import ConfigError, ContractError
from arbor.factors import PRIOR_BLOCK, PRIOR_POSE
from arbor.processors import LandmarkTracker, LoopCloser, MotionProcessor

DATA = Path(__file__).parent / "data"
DEMO = (DATA / "demo_config.yaml").read_text()


def as_dict(server: ParameterServer) -> dict:
    """The server's flat key map (test utility)."""
    return dict(server._flat)


def emit(server: ParameterServer) -> str:
    """Rebuild nested YAML from the flat key map (test utility)."""
    root: dict = {}
    for key, value in as_dict(server).items():
        parts = key.split(".")
        cursor = root
        for a, b in zip(parts, parts[1:]):
            cursor = cursor.setdefault(a, {})
        cursor[parts[-1]] = value

    def listify(node):
        if not isinstance(node, dict):
            return node
        node = {k: listify(v) for k, v in node.items()}
        if node and all(k.isdigit() for k in node):
            return [node[str(i)] for i in range(len(node))]
        return node

    return yaml.safe_dump(listify(root))


class TestParseConfig:
    def test_nested_mapping_flattened(self):
        server = parse_config("solver: {max_iterations: 20}")
        assert as_dict(server) == {"solver.max_iterations": 20}
        assert isinstance(server.get("solver.max_iterations"), int)

    def test_sequence_index_flattening(self):
        server = parse_config("sensors: [{name: odom0}]")
        assert as_dict(server) == {"sensors.0.name": "odom0"}

    def test_scalar_list_stays_whole(self):
        server = parse_config("first: {p: [1.0, 2.0]}")
        assert as_dict(server) == {"first.p": [1.0, 2.0]}

    def test_malformed_yaml_names_line(self):
        bad = "solver:\n  max_iterations: 20\n bad_indent: 1\n"
        with pytest.raises(ConfigError, match="invalid YAML") as err:
            parse_config(bad)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("bad, line", [
        ("a: 1\nb:\n\tc: 2\n", 3),
        ('a: 1\nb: "open\nc: 2\n', 4),
        ("a: [1, 2\nb: 3\n", 2),
    ], ids=["tab", "unterminated_string", "open_flow_sequence"])
    def test_syntax_error_names_line(self, bad, line):
        with pytest.raises(ConfigError, match=f"^invalid YAML at line {line}: "):
            parse_config(bad)

    def test_parsed_by_libyaml_when_built_with_it(self):
        # the C parser reads a workload config about eight times faster
        assert not yaml.__with_libyaml__ or issubclass(checks._StrictLoader, yaml.CSafeLoader)

    def test_duplicate_key_conflict(self):
        with pytest.raises(ConfigError, match="duplicate key") as err:
            parse_config("a: 1\na: 2\n")
        assert "a" in str(err.value)

    def test_typed_scalars(self):
        server = parse_config("a: true\nb: 1.5\nc: 7\nd: text\n")
        assert server.get("a") is True
        assert server.get("b") == 1.5
        assert server.get("c") == 7
        assert server.get("d") == "text"

    def test_round_trip_through_emit(self):
        server = parse_config(DEMO)
        again = parse_config(emit(server))
        assert as_dict(again) == as_dict(server)


class TestRegistry:
    def test_create_diff_drive_sensor(self):
        server = parse_config(DEMO)
        tr = T.ProblemTree()
        sensor_id, info = default_registry().create(
            "sensor", "diff_drive", tr, server, "sensors.0")
        assert info.name == "odom0"
        np.testing.assert_allclose(tr.block(sensor_id, "intrinsic").values,
                                   [0.1, 0.1, 0.5])

    def test_unknown_type_lists_names(self):
        with pytest.raises(ConfigError, match="unknown processor type") as err:
            default_registry().create("processor", "no_such")
        msg = str(err.value)
        assert "no_such" in msg
        for name in ("motion_diff_drive", "tracker_landmark_2d", "loop_closure_2d"):
            assert name in msg

    def test_duplicate_registration(self):
        reg = CreatorRegistry()
        reg.register("sensor", "x", lambda: None)
        with pytest.raises(ContractError, match="already registered"):
            reg.register("sensor", "x", lambda: None)


class TestAutoSetup:
    def test_demo_builds_expected_tree(self):
        app = auto_setup(parse_config(DEMO))
        assert len(app.tree.sensors()) == 2
        assert len(app.tree.children(app.tree.hardware_id, T.PROCESSOR)) == 2
        assert len(app.tree.frames()) == 1
        priors = [f for f in app.tree.factors_referencing(app.first_frame)
                  if app.tree.node(f).payload.kind == PRIOR_POSE]
        assert len(priors) == 1
        assert app.tree.check_consistency() == []
        assert isinstance(app.pipeline.processors[0], MotionProcessor)
        assert isinstance(app.pipeline.processors[1], LandmarkTracker)
        assert app.window_policy is None
        assert app.solver_options.max_iterations == 25

    def test_intrinsic_prior_hangs_on_its_sensor(self):
        app = auto_setup(parse_config((DATA / "calib_config.yaml").read_text()))
        tree = app.tree
        odom_id, _ = app.sensors["odom0"]
        (prior,) = tree.factors_referencing(odom_id)
        payload = tree.node(prior).payload
        assert payload.kind == PRIOR_BLOCK and payload.constrained == [(odom_id, "intrinsic")]
        np.testing.assert_array_equal(payload.sqrt_info, np.eye(3) / 0.05)
        feature = tree.node(prior).parent
        assert tree.node(feature).parent == odom_id
        assert tree.children(odom_id) == [feature] and tree.children(feature) == [prior]
        # the first frame's prior capture holds only its pose prior
        (capture,) = tree.children(app.first_frame, T.CAPTURE)
        kinds = [tree.node(f).payload.kind for feat in tree.children(capture)
                 for f in tree.children(feat)]
        assert kinds == [PRIOR_POSE]

    def test_missing_mandatory_key_named(self):
        broken = DEMO.replace("max_iterations: 25", "iterations: 25")
        with pytest.raises(ConfigError) as err:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                auto_setup(parse_config(broken))
        assert "solver.max_iterations" in str(err.value)

    def test_fixed_landmarks(self):
        text = DEMO + (
            "map:\n"
            "  landmarks:\n"
            "    - {id: 0, p: [1.0, 2.0], fixed: true}\n"
            "    - {id: 1, p: [3.0, 4.0], fixed: true}\n"
            "    - {id: 1152921504606846977, p: [5.0, 6.0], fixed: true}\n"
        )
        app = auto_setup(parse_config(text))
        landmarks = app.tree.children(app.tree.map_id, T.LANDMARK)
        assert len(landmarks) == 3
        assert all(app.tree.block(lm, "p").fixed for lm in landmarks)
        # trackers in id mode know the configured landmarks, by their exact
        # ids (2**60 + 1 has no float of its own)
        tracker = app.pipeline.processors[1]
        assert set(tracker._by_raw_id) == {0, 1, 2**60 + 1}

    def test_fixed_flags_reflected(self):
        app = auto_setup(parse_config(DEMO))
        odom_id, _ = app.sensors["odom0"]
        assert app.tree.block(odom_id, "intrinsic").fixed
        assert app.tree.block(odom_id, "ext_p").fixed
        unfixed = DEMO.replace("intrinsic: {state: [0.1, 0.1, 0.5], fixed: true}",
                               "intrinsic: {state: [0.1, 0.1, 0.5], fixed: false}")
        app2 = auto_setup(parse_config(unfixed))
        odom_id, _ = app2.sensors["odom0"]
        assert not app2.tree.block(odom_id, "intrinsic").fixed

    def test_setup_is_deterministic(self):
        a = auto_setup(parse_config(DEMO))
        b = auto_setup(parse_config(DEMO))
        assert a.tree.print_tree() == b.tree.print_tree()

    def test_unknown_sensor_binding(self):
        broken = DEMO.replace("sensor: rb0", "sensor: ghost")
        with pytest.raises(ConfigError, match="references unknown sensor"):
            auto_setup(parse_config(broken))

    def test_unknown_extra_key_warns(self):
        text = DEMO + "extra_novelty: {knob: 1}\n"
        with pytest.warns(ConfigWarning, match="extra_novelty"):
            auto_setup(parse_config(text))

    def test_wrong_dimension(self):
        with pytest.raises(ConfigError):
            auto_setup(parse_config(DEMO.replace("dimension: 2", "dimension: 3")))

    def test_loop_closer_created(self):
        text = DEMO + (
            "  - name: loop\n"
            "    type: loop_closure_2d\n"
            "    sensor: rb0\n"
            "    time_tolerance: 0.005\n"
            "    loop: {radius: 1.0, min_frame_gap: 10, min_shared_landmarks: 3}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConfigWarning)
            app = auto_setup(parse_config(text))
        assert isinstance(app.pipeline.processors[2], LoopCloser)
