import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arbor import tree as T
from arbor.errors import ContractError, NotFoundError
from arbor.factors import PRIOR_BLOCK, PRIOR_POSE, RANGE_BEARING, Factor
from arbor.manifold import ANGLE, EUCLIDEAN, StateBlock, normalize_angle
from arbor.processors import sensor_extrinsic
from arbor.solver import SolverProblem, sync

SRC = Path(__file__).resolve().parent.parent / "src"


def make_tree_with_sensor():
    tr = T.ProblemTree()
    sensor = tr.add_sensor(None, {"intrinsic": StateBlock(np.array([0.1, 0.1, 0.5]))})
    return tr, sensor


def add_frame(tr, t, x=0.0, y=0.0, theta=0.0, fixed=False):
    frame = tr.add_frame(t, (x, y, theta))
    for block in tr.node(frame).state_blocks.values():
        block.fixed = fixed
    return frame


def add_observation(tr, sensor, frame, landmark, t):
    """Capture -> Feature -> range-bearing Factor against a landmark."""
    cap = tr.add_capture(frame, t, sensor)
    factor = Factor(RANGE_BEARING, np.array([1.0, 0.0]), np.eye(2),
                    constrained=[(frame, "p"), (frame, "o"),
                                 (sensor, "intrinsic"), (sensor, "intrinsic"),
                                 (landmark, "p")])
    fid = tr.add_factor(cap, factor)
    return cap, tr.node(fid).parent, fid


class TestEmplace:
    """What the builders check and record when they place a node."""

    def test_frame_emits_block_notifications(self):
        tr = T.ProblemTree()
        tr.drain_notifications()
        frame = add_frame(tr, 0.0)
        notes = tr.drain_notifications()
        assert [n.action for n in notes] == [T.ADD_BLOCK, T.ADD_BLOCK]
        assert {n.target for n in notes} == {(frame, "p"), (frame, "o")}

    def test_capture_sensor_reference_queryable_both_ends(self):
        tr, sensor = make_tree_with_sensor()
        frame = add_frame(tr, 0.0)
        cap = tr.add_capture(frame, 0.0, sensor)
        assert tr.node(cap).refs == (sensor,)
        assert cap in tr._incoming[sensor]

    def test_illegal_parent_kind(self):
        tr, sensor = make_tree_with_sensor()
        frame = add_frame(tr, 0.0)
        cap = tr.add_capture(frame, 0.0, sensor)
        prior = Factor(PRIOR_POSE, np.zeros(3), np.eye(3),
                       constrained=[(frame, "p"), (frame, "o")])
        with pytest.raises(ContractError, match="is not a Frame"):
            tr.add_capture(sensor, 0.0, sensor)  # a capture goes under a Frame
        with pytest.raises(ContractError, match="is not a Sensor"):
            tr.add_capture(frame, 0.0, frame)  # ... and refers to a Sensor
        with pytest.raises(ContractError, match="is not a Capture"):
            tr.add_factor(frame, prior)  # a factor goes under a Capture
        with pytest.raises(ContractError, match="is not a Frame"):
            tr.add_block_to_frame(cap, "v", StateBlock(np.zeros(2)))
        assert tr.children(frame) == [cap] and tr.check_consistency() == []

    def test_unknown_parent(self):
        tr, sensor = make_tree_with_sensor()
        with pytest.raises(NotFoundError):
            tr.add_capture(T.NodeId(T.FRAME, 999), 0.0, sensor)
        frame = add_frame(tr, 0.0)
        with pytest.raises(NotFoundError):
            tr.add_capture(frame, 0.0, T.NodeId(T.SENSOR, 999))

    def test_factor_referencing_blockless_node(self):
        tr, sensor = make_tree_with_sensor()
        frame = add_frame(tr, 0.0)
        cap = tr.add_capture(frame, 0.0, sensor)
        tr.drain_notifications()
        for constrained in ([(cap, "p")],                    # capture owns no blocks
                            [(frame, "p"), (frame, "v")],    # frame has no block v
                            [(T.NodeId(T.LANDMARK, 999), "p")]):
            with pytest.raises(ContractError, match="constrains missing block"):
                tr.add_factor(cap, Factor(PRIOR_BLOCK, np.zeros(2), np.eye(2),
                                          constrained=constrained))
        assert tr.children(cap) == [] and tr.drain_notifications() == []

    def test_indices_monotonic_never_reused(self):
        tr = T.ProblemTree()
        f1 = add_frame(tr, 0.0)
        tr.remove(f1)
        f2 = add_frame(tr, 1.0)
        assert f2.index > f1.index


class TestBuilders:
    def test_add_frame_blocks(self):
        tr = T.ProblemTree()
        tr.drain_notifications()
        frame = tr.add_frame(1.5, (1.0, -2.0, 0.3))
        node = tr.node(frame)
        assert node.parent == tr.trajectory_id and node.timestamp == 1.5
        assert [(name, b.kind) for name, b in node.state_blocks.items()] == \
            [("p", EUCLIDEAN), ("o", ANGLE)]
        np.testing.assert_array_equal(np.array(tr.frame_pose(frame)), [1.0, -2.0, 0.3])
        assert tr.drain_notifications() == [T.Notification(T.ADD_BLOCK, (frame, "p")),
                                            T.Notification(T.ADD_BLOCK, (frame, "o"))]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [0, 1, 2], ids=["x", "y", "theta"])
    def test_add_frame_rejects_non_finite_pose(self, k, bad):
        tr = T.ProblemTree()
        tr.drain_notifications()
        before = tr.print_tree()
        pose = [1.0, -2.0, 0.3]
        pose[k] = bad
        with pytest.raises(ContractError, match="finite"):
            tr.add_frame(1.5, tuple(pose))
        assert tr.print_tree() == before and tr.frames() == []
        assert tr.drain_notifications() == []

    def test_pose_reader_bit_for_bit(self):
        """One reader serves a frame's pose and a sensor's mount, with the
        bits the two readers it replaced gave."""
        tr = T.ProblemTree()
        sensor = tr.add_sensor(None, {"ext_p": StateBlock(np.array([0.25, -0.1])),
                                      "ext_o": StateBlock(np.array([0.6]), ANGLE)})
        frames = [tr.add_frame(0.0, (0.1 + 0.2, -1.0 / 3.0, 3.0)),
                  tr.add_frame(1.0, (1e-300, -0.0, -math.pi))]

        def bits(pose):
            assert all(type(v) is float for v in pose)
            return [v.hex() for v in pose]

        for frame in frames:
            # the frame reader built a validated pose, wrapping the heading
            # again, and its consumers unpacked (*p.tolist(), theta)
            blocks = tr.node(frame).state_blocks
            old = (*blocks["p"].values.copy().tolist(),
                   normalize_angle(float(blocks["o"].values[0])))
            assert bits(tr.frame_pose(frame)) == bits(old)
        blocks = tr.node(sensor).state_blocks
        old = (*blocks["ext_p"].values.tolist(), float(blocks["ext_o"].values[0]))
        assert bits(old) == bits((0.25, -0.1, 0.6))
        assert bits(sensor_extrinsic(tr, sensor)) == bits(old)
        assert bits(tr.frame_pose(sensor, "ext_p", "ext_o")) == bits(old)

    def test_add_capture_and_factor(self):
        tr, sensor = make_tree_with_sensor()
        frame = tr.add_frame(0.0, (0.0, 0.0, 0.0))
        landmark = tr.add_landmark(np.array([1.0, 0.0]))
        cap = tr.add_capture(frame, 0.1, sensor)
        assert tr.node(cap).parent == frame and tr.node(cap).timestamp == 0.1
        assert tr.node(cap).refs == (sensor,)
        factor = Factor(RANGE_BEARING, np.array([1.0, 0.0]), np.eye(2),
                        constrained=[(frame, "p"), (frame, "o"), (landmark, "p")])
        fid = tr.add_factor(cap, factor, feature="obs")
        feature = tr.node(fid).parent
        assert tr.node(fid).payload is factor
        assert tr.node(fid).refs == (frame, landmark)
        assert tr.node(feature).parent == cap and tr.node(feature).payload == "obs"
        assert tr.check_consistency() == []

    def test_add_pose_prior(self):
        tr, sensor = make_tree_with_sensor()
        frame = tr.add_frame(2.0, (1.0, -1.0, 0.5))
        cap = tr.add_pose_prior(frame, sensor, np.eye(3) * 4.0)
        assert tr.node(cap).parent == frame and tr.node(cap).timestamp == 2.0
        assert tr.node(cap).refs == (sensor,)
        (fid,) = tr.factors_referencing(frame)
        assert tr.node(tr.node(fid).parent).parent == cap
        prior = tr.node(fid).payload
        assert prior.kind == PRIOR_POSE
        np.testing.assert_array_equal(prior.z, np.array(tr.frame_pose(frame)))
        assert prior.constrained == [(frame, "p"), (frame, "o")]
        np.testing.assert_array_equal(prior.sqrt_info, np.eye(3) * 4.0)
        assert tr.check_consistency() == []


class TestAddBlock:
    def test_dynamic_block(self):
        tr = T.ProblemTree()
        frame = add_frame(tr, 0.0)
        tr.drain_notifications()
        tr.add_block_to_frame(frame, "v", StateBlock(np.zeros(2)))
        assert set(tr.node(frame).state_blocks) == {"p", "o", "v"}
        notes = tr.drain_notifications()
        assert notes == [T.Notification(T.ADD_BLOCK, (frame, "v"))]

    def test_duplicate_name(self):
        tr = T.ProblemTree()
        frame = add_frame(tr, 0.0)
        with pytest.raises(ContractError, match="already has a block named"):
            tr.add_block_to_frame(frame, "p", StateBlock(np.zeros(2)))


class TestRemove:
    def test_recursive_removal_notifications(self):
        tr, sensor = make_tree_with_sensor()
        landmark = tr.add_landmark(np.array([1.0, 0.0]))
        frame = add_frame(tr, 0.0)
        cap = tr.add_capture(frame, 0.0, sensor)
        for _ in range(2):
            factor = Factor(PRIOR_POSE, np.zeros(3), np.eye(3),
                            constrained=[(frame, "p"), (frame, "o")])
            tr.add_factor(cap, factor)
        tr.drain_notifications()
        tr.remove(frame)
        notes = tr.drain_notifications()
        assert sum(n.action == T.REMOVE_FACTOR for n in notes) == 2
        removed_blocks = {n.target for n in notes if n.action == T.REMOVE_BLOCK}
        assert (frame, "p") in removed_blocks and (frame, "o") in removed_blocks
        assert frame not in tr
        assert cap not in tr

    def test_removing_landmark_removes_referencing_factor(self):
        tr, sensor = make_tree_with_sensor()
        landmark = tr.add_landmark(np.array([1.0, 0.0]))
        f1 = add_frame(tr, 0.0)
        f2 = add_frame(tr, 1.0)
        _, _, factor1 = add_observation(tr, sensor, f1, landmark, 0.0)
        _, _, factor2 = add_observation(tr, sensor, f2, landmark, 1.0)
        assert len(tr.factors_referencing(landmark)) == 2
        tr.remove(landmark)
        assert factor1 not in tr and factor2 not in tr
        assert f1 in tr and f2 in tr
        assert tr.check_consistency() == []

    def test_removing_sensor_removes_its_captures(self):
        tr, sensor = make_tree_with_sensor()
        frame = add_frame(tr, 0.0)
        cap = tr.add_capture(frame, 0.0, sensor)
        tr.remove(sensor)
        assert cap not in tr
        assert frame in tr
        assert tr.check_consistency() == []

    def test_branch_roots_protected(self):
        tr = T.ProblemTree()
        for root in (tr.problem_id, tr.hardware_id, tr.trajectory_id, tr.map_id):
            with pytest.raises(ContractError, match="cannot remove branch root"):
                tr.remove(root)

    def test_unknown_node(self):
        tr = T.ProblemTree()
        with pytest.raises(NotFoundError):
            tr.remove(T.NodeId(T.FRAME, 12345))


class TestNotifications:
    def test_empty_queue(self):
        tr = T.ProblemTree()
        assert tr.drain_notifications() == []

    def test_add_then_remove_cancels(self):
        # the queue keeps both halves; they cancel in the solver's mirror
        tr, sensor = make_tree_with_sensor()
        landmark = tr.add_landmark(np.zeros(2))
        problem = SolverProblem()
        sync(problem, tr)
        before = dict(problem.blocks)
        frame = add_frame(tr, 0.0)
        add_observation(tr, sensor, frame, landmark, 0.0)
        tr.remove(frame)
        sync(problem, tr)
        assert problem.blocks == before
        assert problem.factors == {} and problem.stacks == {}
        for key, entry in problem.blocks.items():
            assert entry.block is tr.block(*key)

    def test_fifo_order(self):
        tr = T.ProblemTree()
        frame = add_frame(tr, 0.0)
        cap_feats = []
        notes = tr.drain_notifications()
        assert [n.action for n in notes] == [T.ADD_BLOCK, T.ADD_BLOCK]
        tr.add_block_to_frame(frame, "v", StateBlock(np.zeros(2)))
        tr.add_block_to_frame(frame, "w", StateBlock(np.zeros(1)))
        notes = tr.drain_notifications()
        assert [n.target[1] for n in notes] == ["v", "w"]


class TestConsistency:
    def _demo_tree(self):
        tr, sensor = make_tree_with_sensor()
        landmark = tr.add_landmark(np.array([1.0, 2.0]))
        f1 = add_frame(tr, 0.0)
        f2 = add_frame(tr, 1.0)
        add_observation(tr, sensor, f1, landmark, 0.0)
        add_observation(tr, sensor, f2, landmark, 1.0)
        return tr, landmark

    def test_fresh_tree_clean(self):
        tr, _ = self._demo_tree()
        assert tr.check_consistency() == []

    def test_severed_child_link_reported(self):
        tr, _ = self._demo_tree()
        frame = tr.frames()[0]
        tr.node(tr.trajectory_id).children.remove(frame)
        violations = tr.check_consistency()
        assert len(violations) == 1
        assert str(frame) in violations[0] and str(tr.trajectory_id) in violations[0]

    def test_dangling_factor_reference_reported(self):
        tr, landmark = self._demo_tree()
        # force-remove the landmark behind the tree's back
        del tr._nodes[landmark]
        tr.node(tr.map_id).children.remove(landmark)
        violations = tr.check_consistency()
        assert violations and all(str(landmark) in v for v in violations)


class TestWindow:
    def _windowed_tree(self, n_frames):
        tr, sensor = make_tree_with_sensor()
        for k in range(4):
            add_frame(tr, float(k), x=float(k))
        return tr, sensor

    def test_fix_oldest(self):
        tr, _ = self._windowed_tree(3)
        tr.enforce_window(T.WindowPolicy(T.FIX_OLDEST, 3))
        frames = tr.frames()
        assert len(frames) == 4
        oldest = tr.node(frames[0])
        assert all(b.fixed for b in oldest.state_blocks.values())
        assert not any(b.fixed for b in tr.node(frames[-1]).state_blocks.values())

    def test_fix_oldest_preserves_values(self):
        tr, _ = self._windowed_tree(3)
        before = {f: np.array(tr.frame_pose(f)) for f in tr.frames()}
        tr.enforce_window(T.WindowPolicy(T.FIX_OLDEST, 3))
        for f, pose in before.items():
            np.testing.assert_array_equal(np.array(tr.frame_pose(f)), pose)

    def test_remove_with_prior(self):
        tr, _ = self._windowed_tree(3)
        tr.enforce_window(T.WindowPolicy(T.REMOVE_WITH_PRIOR, 3))
        frames = tr.frames()
        assert len(frames) == 3
        priors = [fid for fid in tr.factors_referencing(frames[0])
                  if tr.node(fid).payload.kind == PRIOR_POSE]
        assert len(priors) == 1
        # prior pins the survivor at its current estimate
        np.testing.assert_allclose(tr.node(priors[0]).payload.z,
                                   np.array(tr.frame_pose(frames[0])))
        assert tr.check_consistency() == []

    def test_remove_with_prior_idempotent(self):
        tr, _ = self._windowed_tree(3)
        policy = T.WindowPolicy(T.REMOVE_WITH_PRIOR, 3)
        tr.enforce_window(policy)
        add_frame(tr, 5.0)
        tr.enforce_window(policy)
        frames = tr.frames()
        assert len(frames) == 3
        priors = [fid for fid in tr.factors_referencing(frames[0])
                  if tr.node(fid).payload.kind == PRIOR_POSE]
        assert len(priors) == 1

    @pytest.mark.parametrize("survivor_pinned", [False, True])
    def test_remove_with_prior_keeps_sensor_priors(self, survivor_pinned):
        tr, sensor = self._windowed_tree(3)
        frames = tr.frames()
        tr.add_pose_prior(frames[0], sensor, np.eye(3))
        calib_prior = Factor(PRIOR_BLOCK, np.array([0.1, 0.1, 0.5]), np.eye(3),
                             constrained=[(sensor, "intrinsic")])
        prior = tr.add_factor(sensor, calib_prior)
        feature = tr.node(prior).parent
        if survivor_pinned:
            tr.add_pose_prior(frames[1], sensor, np.eye(3))
        tr.drain_notifications()
        tr.enforce_window(T.WindowPolicy(T.REMOVE_WITH_PRIOR, 3))
        assert frames[0] not in tr
        # the prior hangs on its sensor: the window leaves it where it was
        assert tr.factors_referencing(sensor) == [prior]
        assert tr.node(prior).payload is calib_prior
        assert tr.node(prior).parent == feature and tr.node(feature).parent == sensor
        assert prior not in {n.target for n in tr.drain_notifications()}
        assert tr.check_consistency() == []

    def test_sensor_prior_constrains_only_its_sensor(self):
        tr, sensor = self._windowed_tree(3)
        frame = tr.frames()[0]
        prior = Factor(PRIOR_POSE, np.zeros(3), np.eye(3),
                       constrained=[(frame, "p"), (frame, "o")])
        tr.drain_notifications()
        with pytest.raises(ContractError, match="constrains only its blocks"):
            tr.add_factor(sensor, prior)
        assert tr.children(sensor) == [] and tr.drain_notifications() == []

    def test_remove_with_prior_returns_stale_frames(self):
        tr, _ = self._windowed_tree(2)
        stale = tr.frames()[:2]
        before = [(fid, tr.node(fid).timestamp, list(tr.frame_pose(fid)))
                  for fid in stale]
        removed = tr.enforce_window(T.WindowPolicy(T.REMOVE_WITH_PRIOR, 2))
        assert [(fid, t, list(pose)) for fid, t, pose in removed] == before
        assert not any(fid in tr for fid in stale)

    def test_fix_oldest_returns_nothing(self):
        tr, _ = self._windowed_tree(2)
        assert tr.enforce_window(T.WindowPolicy(T.FIX_OLDEST, 2)) == []

    def test_last_created_prior_wins_under_any_hash_seed(self):
        # the survivor inherits the sqrt_info of the newest pose prior on
        # the removed frame, whatever the string hashes of this process
        script = (
            "import numpy as np\n"
            "from arbor import tree as T\n"
            "from arbor.manifold import StateBlock\n"
            "tr = T.ProblemTree()\n"
            "sensor = tr.add_sensor(None, {'intrinsic': StateBlock(np.ones(3))})\n"
            "frames = [tr.add_frame(float(k), (k, 0.0, 0.0)) for k in range(3)]\n"
            "for scale in (2.0, 7.0):\n"
            "    tr.add_pose_prior(frames[0], sensor, scale * np.eye(3))\n"
            "tr.enforce_window(T.WindowPolicy(T.REMOVE_WITH_PRIOR, 2))\n"
            "(prior,) = tr.factors_referencing(frames[1])\n"
            "print(tr.node(prior).payload.sqrt_info[0, 0])\n")
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True).stdout
            assert float(out) == 7.0, f"PYTHONHASHSEED={seed}"

    def test_under_capacity_no_change(self):
        tr, _ = self._windowed_tree(10)
        before = tr.print_tree()
        tr.enforce_window(T.WindowPolicy(T.FIX_OLDEST, 10))
        assert tr.print_tree() == before

    def test_newest_never_removed(self):
        tr, _ = self._windowed_tree(2)
        newest = tr.frames()[-1]
        tr.enforce_window(T.WindowPolicy(T.REMOVE_WITH_PRIOR, 2))
        assert newest in tr


class TestPrintTree:
    def test_empty_problem_skeleton(self):
        tr = T.ProblemTree()
        lines = tr.print_tree().strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("Problem#0")
        assert lines[1].strip().startswith("Hardware#")
        assert lines[2].strip().startswith("Trajectory#")
        assert lines[3].strip().startswith("Map#")

    def test_deterministic(self):
        tr, sensor = make_tree_with_sensor()
        landmark = tr.add_landmark(np.zeros(2))
        frame = add_frame(tr, 0.25)
        add_observation(tr, sensor, frame, landmark, 0.25)
        assert tr.print_tree() == tr.print_tree()

    def test_removed_ids_absent(self):
        tr, sensor = make_tree_with_sensor()
        frame = add_frame(tr, 0.0)
        tr.remove(frame)
        assert str(frame) not in tr.print_tree()

    def test_fixed_blocks_marked(self):
        tr = T.ProblemTree()
        add_frame(tr, 0.0, fixed=True)
        assert "p(fixed)" in tr.print_tree()


class TestNotificationConservation:
    def test_randomized_sequences(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            tr, sensor = make_tree_with_sensor()
            live_blocks, live_factors = set(), set()

            def consume():
                for n in tr.drain_notifications():
                    if n.action == T.ADD_BLOCK:
                        live_blocks.add(n.target)
                    elif n.action == T.REMOVE_BLOCK:
                        live_blocks.discard(n.target)
                    elif n.action == T.ADD_FACTOR:
                        live_factors.add(n.target)
                    else:
                        live_factors.discard(n.target)

            consume()
            landmarks, frames = [], []
            for step in range(120):
                roll = rng.uniform()
                if roll < 0.35 or not frames:
                    frames.append(add_frame(tr, float(step)))
                elif roll < 0.55:
                    landmarks.append(tr.add_landmark(rng.uniform(-5, 5, 2)))
                elif roll < 0.75 and landmarks:
                    frame = frames[int(rng.integers(len(frames)))]
                    lm = landmarks[int(rng.integers(len(landmarks)))]
                    add_observation(tr, sensor, frame, lm, tr.node(frame).timestamp)
                elif roll < 0.9 and frames:
                    victim = frames.pop(int(rng.integers(len(frames))))
                    tr.remove(victim)
                elif landmarks:
                    victim = landmarks.pop(int(rng.integers(len(landmarks))))
                    tr.remove(victim)
                if step % 7 == 0:
                    consume()
                assert tr.check_consistency() == []
            consume()

            tree_blocks = {(nid, name) for nid, node in tr._nodes.items()
                           for name in node.state_blocks}
            tree_factors = {nid for nid in tr._nodes if nid.kind == T.FACTOR}
            assert live_blocks == tree_blocks
            assert live_factors == tree_factors
