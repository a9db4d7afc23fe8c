"""Only ``arbor.tree`` constructs tree nodes.

Every other module, tests included, grows the tree through the
``ProblemTree`` builders (``add_sensor``, ``add_processor``,
``add_landmark``, ``add_frame``, ``add_capture``, ``add_factor``,
``add_pose_prior``), never through the private constructor ``_new_node``,
and the tree has no generic public ``emplace`` beside them.
"""

import ast
from pathlib import Path

from arbor.tree import ProblemTree

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src" / "arbor"
PRIVATE_CONSTRUCTOR = "_new_node"


def constructor_uses(source: str) -> list:
    """Line numbers that reach the private constructor, by attribute or by name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == PRIVATE_CONSTRUCTOR:
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value == PRIVATE_CONSTRUCTOR:
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_sees_each_spelling():
    source = ("tree._new_node(T.FRAME, tree.trajectory_id)\n"
              "self.tree._new_node(kind=FACTOR, parent_id=feature)\n"
              "ProblemTree._new_node(tree, 'Capture', frame)\n"
              "getattr(tree, '_new_node')(T.LANDMARK, tree.map_id)\n"
              "build = tree._new_node\n"
              "tree.add_landmark(p)\n")
    assert constructor_uses(source) == [1, 2, 3, 4, 5]


def test_only_tree_emplaces_frames_and_measurements():
    modules = sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
    assert modules
    offenders = [f"{path.name}:{line}"
                 for path in modules if path.name not in ("tree.py", Path(__file__).name)
                 for line in constructor_uses(path.read_text())]
    assert offenders == []
    assert not hasattr(ProblemTree, "emplace")
