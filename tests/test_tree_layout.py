"""Only ``arbor.tree`` lays out frames, captures, features and factors.

Every other module grows the trajectory branch through the
``ProblemTree.add_frame``/``add_capture``/``add_factor``/``add_pose_prior``
methods, never by emplacing those node kinds itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "arbor"
LAID_OUT_BY_TREE = {"FRAME", "CAPTURE", "FEATURE", "FACTOR"}


def _kind_name(arg):
    if isinstance(arg, ast.Attribute):
        return arg.attr
    if isinstance(arg, ast.Name):
        return arg.id
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value.upper()
    return None


def layout_emplaces(source: str) -> list:
    """Line numbers of ``emplace`` calls whose kind is one the tree lays out."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emplace"):
            continue
        kinds = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "kind"]
        if any(_kind_name(k) in LAID_OUT_BY_TREE for k in kinds):
            lines.append(node.lineno)
    return lines


def test_guard_sees_each_spelling():
    source = ("tree.emplace(T.FRAME, tr.trajectory_id)\n"
              "tree.emplace(kind=FACTOR, parent=feature)\n"
              "tree.emplace('Capture', frame)\n"
              "tree.emplace(T.LANDMARK, tree.map_id)\n")
    assert layout_emplaces(source) == [1, 2, 3]


def test_only_tree_emplaces_frames_and_measurements():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    offenders = [f"{path.name}:{line}"
                 for path in modules if path.name != "tree.py"
                 for line in layout_emplaces(path.read_text())]
    assert offenders == []
