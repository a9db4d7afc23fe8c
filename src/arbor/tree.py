"""The problem tree: node hierarchy, references, notifications.

The tree has a fixed top layout (Problem with Hardware, Trajectory, and Map
branches) under which processors grow the estimation problem: sensors and
processors under Hardware, frames/captures/features/factors under
Trajectory, landmarks under Map.  A prior on a sensor's own blocks hangs on
the sensor (Sensor -> Feature -> Factor), so removing frames leaves it be.
Parent/child links are bidirectional.  A node's ``refs`` knit the tree into
a factor graph: a capture refers to the sensor that produced it, a factor to
every node whose state blocks appear in its residual.  Nodes enter only
through the builders ``add_sensor``, ``add_processor``, ``add_landmark``,
``add_frame``, ``add_capture``, ``add_factor`` and ``add_pose_prior``, so
each kind's place and references are known to this module alone.

Structural changes are queued as notifications so a solver can mirror the
set of live state blocks and factors without walking the tree: an add
carries the state block or factor it announces, a remove only its target.
A window manager bounds the number of active frames by fixing or removing
the oldest ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import factors as factors_mod
from .errors import ContractError, NotFoundError
from .manifold import ANGLE, StateBlock

PROBLEM = "Problem"
HARDWARE = "Hardware"
TRAJECTORY = "Trajectory"
MAP = "Map"
SENSOR = "Sensor"
PROCESSOR = "Processor"
FRAME = "Frame"
CAPTURE = "Capture"
FEATURE = "Feature"
FACTOR = "Factor"
LANDMARK = "Landmark"

_BRANCH_ROOTS = (PROBLEM, HARDWARE, TRAJECTORY, MAP)

ADD_BLOCK = "add_block"
REMOVE_BLOCK = "remove_block"
ADD_FACTOR = "add_factor"
REMOVE_FACTOR = "remove_factor"

FIX_OLDEST = "fix_oldest"
REMOVE_WITH_PRIOR = "remove_with_prior"

# sigma (m and rad) of a window prior that has no removed prior to inherit
WINDOW_PRIOR_SIGMA = 1.0


@dataclass(frozen=True)
class NodeId:
    kind: str
    index: int

    def __post_init__(self):
        # hashed on every tree lookup; cache it
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"{self.kind}#{self.index}"


@dataclass(frozen=True)
class Notification:
    action: str
    target: object  # (NodeId, block name) for blocks, NodeId for factors
    item: object = field(default=None, compare=False)  # an add's StateBlock or Factor


@dataclass
class WindowPolicy:
    """Sliding-window policy over trajectory frames.

    ``fix_oldest`` freezes frames beyond the newest n as constants;
    ``remove_with_prior`` removes them and pins the oldest survivor with a
    unary prior at its current estimate.  Priors on sensor blocks hang on
    their sensor, so no window touches them.  ``n_frames`` must stay above
    the number of frames a processor may lag behind the newest keyframe, or
    the removal variant can pull a pre-integration origin out from under it.
    """

    variant: str
    n_frames: int

    def __post_init__(self):
        if self.variant not in (FIX_OLDEST, REMOVE_WITH_PRIOR):
            raise ContractError(f"unknown window variant {self.variant!r}")
        if self.n_frames < 2:
            raise ContractError("window needs n_frames >= 2")


@dataclass
class TreeNode:
    id: NodeId
    parent: Optional[NodeId]
    children: list = field(default_factory=list)
    state_blocks: dict = field(default_factory=dict)
    timestamp: Optional[float] = None
    payload: object = None
    refs: tuple = ()  # a capture's sensor; the owners of a factor's blocks


class ProblemTree:
    """Mutable problem tree with notification queue and consistency checks."""

    def __init__(self):
        self._nodes: dict[NodeId, TreeNode] = {}
        self._next_index = 0
        self._notifications: list[Notification] = []
        self._incoming: dict[NodeId, dict] = {}  # target -> its referrers, in creation order
        self.problem_id = self._new_node(PROBLEM, None)
        self.hardware_id = self._new_node(HARDWARE, self.problem_id)
        self.trajectory_id = self._new_node(TRAJECTORY, self.problem_id)
        self.map_id = self._new_node(MAP, self.problem_id)

    # ------------------------------------------------------------------
    # construction

    def _new_node(self, kind, parent_id, **kw) -> NodeId:
        """Link a new node to its parent and its refs; queue its notifications."""
        node_id = NodeId(kind, self._next_index)
        self._next_index += 1
        node = self._nodes[node_id] = TreeNode(id=node_id, parent=parent_id, **kw)
        if parent_id is not None:
            self._nodes[parent_id].children.append(node_id)
        for target in node.refs:
            self._incoming.setdefault(target, {})[node_id] = None
        for name, block in node.state_blocks.items():
            self._notifications.append(Notification(ADD_BLOCK, (node_id, name), block))
        if kind == FACTOR:
            self._notifications.append(Notification(ADD_FACTOR, node_id, node.payload))
        return node_id

    def _expect(self, node_id: NodeId, *kinds: str) -> TreeNode:
        node = self.node(node_id)
        if node_id.kind not in kinds:
            raise ContractError(f"{node_id} is not a {' or a '.join(kinds)}")
        return node

    def add_sensor(self, info, blocks: dict) -> NodeId:
        """A Hardware sensor with payload ``info`` and state ``blocks`` by name."""
        return self._new_node(SENSOR, self.hardware_id, payload=info, state_blocks=dict(blocks))

    def add_processor(self, info) -> NodeId:
        """A Hardware processor with payload ``info``."""
        return self._new_node(PROCESSOR, self.hardware_id, payload=info)

    def add_landmark(self, p, info=None, fixed=False) -> NodeId:
        """A Map landmark at ``p`` (block ``p``) with payload ``info``."""
        return self._new_node(LANDMARK, self.map_id, payload=info,
                              state_blocks={"p": StateBlock(p, fixed=fixed)})

    def add_frame(self, t: float, pose: tuple) -> NodeId:
        """A Trajectory frame at t holding ``pose`` (x, y, theta) as blocks
        ``p`` and ``o``."""
        x, y, theta = pose
        return self._new_node(FRAME, self.trajectory_id, timestamp=t, state_blocks={
            "p": StateBlock((x, y)), "o": StateBlock(theta, ANGLE)})

    def add_capture(self, frame: NodeId, t: float, sensor: NodeId) -> NodeId:
        """A capture taken at t by ``sensor``, under ``frame``."""
        self._expect(frame, FRAME)
        self._expect(sensor, SENSOR)
        return self._new_node(CAPTURE, frame, timestamp=t, refs=(sensor,))

    def add_factor(self, parent: NodeId, factor, feature=None) -> NodeId:
        """A feature with payload ``feature`` under ``parent``, and ``factor`` under it.

        The parent is a capture, or a sensor for a prior on the sensor's own
        blocks.  Every constrained block must exist; the factor refers to
        their owners, each once, in order.
        """
        self._expect(parent, CAPTURE, SENSOR)
        if parent.kind == SENSOR and any(target != parent for target, _ in factor.constrained):
            raise ContractError(f"a factor under {parent} constrains only its blocks")
        for target, name in factor.constrained:
            owner = self._nodes.get(target)
            if owner is None or name not in owner.state_blocks:
                raise ContractError(f"factor constrains missing block {target}.{name}")
        owners = tuple(dict.fromkeys(target for target, _name in factor.constrained))
        return self._new_node(FACTOR, self._new_node(FEATURE, parent, payload=feature),
                              payload=factor, refs=owners)

    def add_pose_prior(self, frame: NodeId, sensor: NodeId, sqrt_info) -> NodeId:
        """Pin ``frame`` at its current pose; returns the prior's capture."""
        capture = self.add_capture(frame, self._nodes[frame].timestamp, sensor)
        self.add_factor(capture, factors_mod.Factor(
            factors_mod.PRIOR_POSE, np.array(self.frame_pose(frame)), sqrt_info,
            constrained=[(frame, "p"), (frame, "o")]))
        return capture

    def add_block_to_frame(self, frame: NodeId, name: str, block: StateBlock):
        """Attach a state block to an existing frame (dynamic block growth)."""
        node = self._expect(frame, FRAME)
        if name in node.state_blocks:
            raise ContractError(f"frame {frame} already has a block named {name!r}")
        node.state_blocks[name] = block
        self._notifications.append(Notification(ADD_BLOCK, (frame, name), block))

    # ------------------------------------------------------------------
    # access

    def node(self, node_id: NodeId) -> TreeNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NotFoundError(f"unknown node {node_id}") from None

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def children(self, node_id: NodeId, kind=None) -> list:
        out = self.node(node_id).children
        if kind is None:
            return list(out)
        return [c for c in out if c.kind == kind]

    def frames(self) -> list:
        return self.children(self.trajectory_id, FRAME)

    def sensors(self) -> list:
        return self.children(self.hardware_id, SENSOR)

    def block(self, node_id: NodeId, name: str) -> StateBlock:
        node = self.node(node_id)
        try:
            return node.state_blocks[name]
        except KeyError:
            raise NotFoundError(f"{node_id} has no block named {name!r}") from None

    def block_values(self, node_ids, name: str) -> np.ndarray:
        """Values of block ``name`` of each node, one row per node."""
        try:
            return np.array([self._nodes[i].state_blocks[name].values for i in node_ids])
        except KeyError:
            raise NotFoundError(f"some node of {list(node_ids)} has no block {name!r}") from None

    def frame_pose(self, node_id: NodeId, p: str = "p", o: str = "o") -> tuple:
        """(x, y, theta) as floats from the position block ``p`` and the
        heading block ``o`` of ``node_id``: a frame's pose, or a sensor's
        mount on the robot from its blocks ``ext_p`` and ``ext_o``."""
        blocks = self.node(node_id).state_blocks
        return (*blocks[p].values.tolist(), float(blocks[o].values[0]))

    def factors_referencing(self, node_id: NodeId) -> list:
        """Factor nodes that constrain a block of node_id, oldest first."""
        return [src for src in self._incoming.get(node_id, ()) if src.kind == FACTOR]

    # ------------------------------------------------------------------
    # removal

    def _subtree(self, node_id: NodeId) -> list:
        out = [node_id]
        for child in self._nodes[node_id].children:
            out.extend(self._subtree(child))
        return out

    def remove(self, node_id: NodeId):
        """Remove a node, its subtree, and any factor left dangling by it.

        Branch roots are protected.  Factors elsewhere in the tree that
        refer to a removed node go too, as do captures of a removed sensor,
        so no reference can dangle.
        """
        node = self.node(node_id)
        if node.id.kind in _BRANCH_ROOTS:
            raise ContractError(f"cannot remove branch root {node_id}")

        # referrers (captures, factors) own no blocks and nobody refers to
        # them, so one pass over the subtree finds everything that goes
        doomed = set(self._subtree(node_id))
        for target in list(doomed):
            for src in self._incoming.get(target, ()):
                if src not in doomed:
                    doomed.update(self._subtree(src))

        # deterministic order: by node index
        for nid in sorted(doomed, key=lambda n: n.index):
            victim = self._nodes[nid]
            if nid.kind == FACTOR:
                self._notifications.append(Notification(REMOVE_FACTOR, nid))
            for name in victim.state_blocks:
                self._notifications.append(Notification(REMOVE_BLOCK, (nid, name)))

        for nid in doomed:
            victim = self._nodes.pop(nid)
            for target in victim.refs:
                self._incoming.get(target, {}).pop(nid, None)
            if victim.parent not in doomed:  # only the protected Problem root has none
                self._nodes[victim.parent].children.remove(nid)
            self._incoming.pop(nid, None)

    # ------------------------------------------------------------------
    # notifications

    def drain_notifications(self) -> list:
        """Pending notifications in the order they were queued."""
        out, self._notifications = self._notifications, []
        return out

    # ------------------------------------------------------------------
    # consistency

    def check_consistency(self) -> list:
        """Structural violations as strings; empty means healthy."""
        violations = []
        seen_children = set()
        for nid, node in self._nodes.items():
            if node.parent is not None:
                parent = self._nodes.get(node.parent)
                if parent is None:
                    violations.append(f"{nid} has unknown parent {node.parent}")
                elif nid not in parent.children:
                    violations.append(f"{nid} not listed by its parent {node.parent}")
            for child in node.children:
                if child in seen_children:
                    violations.append(f"{child} appears under two parents")
                seen_children.add(child)
                child_node = self._nodes.get(child)
                if child_node is None:
                    violations.append(f"{nid} lists unknown child {child}")
                elif child_node.parent != nid:
                    violations.append(f"{child} does not point back to {nid}")
            for target in node.refs:
                if target not in self._nodes:
                    violations.append(f"{nid} references removed node {target}")
            if nid.kind == FACTOR:
                for target, name in node.payload.constrained:
                    if target in self._nodes and name not in self._nodes[target].state_blocks:
                        violations.append(f"{nid} constrains missing block {target}.{name}")
        return violations

    # ------------------------------------------------------------------
    # window manager

    def enforce_window(self, policy: WindowPolicy) -> list:
        """Apply the sliding-window policy; call after each new keyframe.

        Returns the removed frames as (frame, t, pose) at their last
        estimate, oldest first; ``fix_oldest`` removes none.
        """
        frames = self.frames()
        if len(frames) <= policy.n_frames:
            return []
        stale = frames[: len(frames) - policy.n_frames]
        if policy.variant == FIX_OLDEST:
            for fid in stale:
                for block in self._nodes[fid].state_blocks.values():
                    block.fixed = True
            return []

        inherited_sqrt_info = np.eye(3) / WINDOW_PRIOR_SIGMA
        for fid in stale:
            for factor_id in self.factors_referencing(fid):
                payload = self._nodes[factor_id].payload
                if payload.kind == factors_mod.PRIOR_POSE:
                    inherited_sqrt_info = payload.sqrt_info.copy()
        removed = [(fid, self._nodes[fid].timestamp, self.frame_pose(fid)) for fid in stale]
        for fid in stale:
            self.remove(fid)

        survivor = self.frames()[0]
        if not any(self._nodes[factor_id].payload.kind == factors_mod.PRIOR_POSE
                   for factor_id in self.factors_referencing(survivor)):
            sensors = self.sensors()
            if not sensors:
                raise ContractError("window prior needs at least one sensor for its capture")
            self.add_pose_prior(survivor, sensors[0], inherited_sqrt_info)
        return removed

    # ------------------------------------------------------------------
    # diagnostics

    def print_tree(self) -> str:
        """Deterministic indented listing of the whole tree."""
        lines = []
        self._print_node(self.problem_id, 0, lines)
        return "\n".join(lines) + "\n"

    def _print_node(self, node_id: NodeId, depth: int, lines: list):
        node = self._nodes[node_id]
        parts = [f"{'  ' * depth}{node_id}"]
        label = getattr(node.payload, "tree_label", None)
        if callable(label):
            label = label()
        if label:
            parts.append(str(label))
        elif isinstance(node.payload, factors_mod.Factor):
            parts.append(f"[{node.payload.kind}]")
        if node.timestamp is not None:
            parts.append(f"t={node.timestamp:.6f}")
        if node.state_blocks:
            blocks = ", ".join(
                name + ("(fixed)" if b.fixed else "")
                for name, b in node.state_blocks.items()
            )
            parts.append(f"blk: {blocks}")
        refs = node.refs
        if isinstance(node.payload, factors_mod.Factor):
            refs = [f"{nid}.{name}" for nid, name in node.payload.constrained]
        if refs:
            parts.append("-> " + ", ".join(map(str, refs)))
        lines.append(" ".join(parts))
        for child in node.children:
            self._print_node(child, depth + 1, lines)
