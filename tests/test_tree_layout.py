"""Only ``arbor.tree`` constructs tree nodes; the solver only drains it.

Every other module, tests included, grows the tree through the
``ProblemTree`` builders (``add_sensor``, ``add_processor``,
``add_landmark``, ``add_frame``, ``add_capture``, ``add_factor``,
``add_pose_prior``), never through the private constructor ``_new_node``,
and the tree has no generic public ``emplace`` beside them.

``arbor.solver`` reads nothing from the tree but its notification stream:
``sync`` is its one function that takes the tree, and all it does with it is
call ``drain_notifications``.

``Pipeline`` drives every processor through the ``Processor`` protocol alone:
it probes no type or attribute, and ``config.auto_setup`` names no processor
class, so a new processor type needs no edit to either.

``config.auto_setup`` adds no factor and names no prior kind: a sensor's
calibration priors are its creator's business and hang on the sensor.
"""

import ast
from pathlib import Path

from arbor import factors as F
from arbor import processors as P
from arbor.tree import ProblemTree

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src" / "arbor"
PRIVATE_CONSTRUCTOR = "_new_node"
SOLVER_ENTRY, SOLVER_TREE_CALL = "sync", "drain_notifications"


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


def solver_tree_uses(source: str) -> list:
    """Line numbers where ``tree`` is used other than as
    ``tree.drain_notifications``, or is a parameter of a function other
    than ``sync``."""
    module = ast.parse(source)
    lines = []
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            if getattr(node, "name", None) != SOLVER_ENTRY and any(
                    a.arg == "tree" for a in params):
                lines.append(node.lineno)
    allowed = {id(node.value) for node in ast.walk(module)
               if isinstance(node, ast.Attribute) and node.attr == SOLVER_TREE_CALL}
    lines += [node.lineno for node in ast.walk(module)
              if isinstance(node, ast.Name) and node.id == "tree" and id(node) not in allowed]
    return sorted(lines)


def test_solver_guard_sees_each_use():
    source = ("def sync(problem, tree):\n"
              "    notes = tree.drain_notifications()\n"
              "    block = tree.block(node, 'p')\n"
              "    node = getattr(tree, 'node')(target)\n"
              "    alias = tree\n"
              "def _table(problem, tree):\n"
              "    return None\n"
              "lm_solve = lambda problem, *, tree=None: None\n"
              "def helper(problem, **tree):\n"
              "    return problem\n")
    assert solver_tree_uses(source) == [3, 4, 5, 6, 8, 9]


def test_solver_reads_the_tree_only_through_notifications():
    assert solver_tree_uses((SRC / "solver.py").read_text()) == []


TYPE_PROBES = ("isinstance", "issubclass", "type", "hasattr", "getattr", "__class__")
PROCESSOR_CLASSES = sorted(name for name, obj in vars(P).items()
                           if isinstance(obj, type) and issubclass(obj, P.Processor))


def _definition(source: str, name: str):
    (node,) = [n for n in ast.parse(source).body
               if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
    return node


def names_used(source: str, definition: str, names) -> list:
    """Line numbers inside the top-level class or function ``definition``
    that name one of ``names``: as a name, an attribute or a string."""
    names = set(names)
    return sorted({node.lineno for node in ast.walk(_definition(source, definition))
                   if (isinstance(node, ast.Name) and node.id in names)
                   or (isinstance(node, ast.Attribute) and node.attr in names)
                   or (isinstance(node, ast.Constant) and node.value in names)})


def test_pipeline_guard_sees_each_spelling():
    source = ("class Pipeline:\n"
              "    def dispatch(self, proc):\n"
              "        if isinstance(proc, LandmarkTracker): pass\n"
              "        if hasattr(proc, 'process_capture'): pass\n"
              "        name = getattr(proc, 'sensor_name', None)\n"
              "        probe = builtins.getattr\n"
              "        if issubclass(type(proc), MotionProcessor): pass\n"
              "        if proc.__class__ is LoopCloser: pass\n"
              "        proc.process_capture(self.tree, 0.0, None)\n"
              "def helper(x):\n"
              "    return isinstance(x, int)\n")
    assert names_used(source, "Pipeline", TYPE_PROBES) == [3, 4, 5, 6, 7, 8]


def test_pipeline_probes_no_processor_type():
    assert names_used((SRC / "processors.py").read_text(), "Pipeline", TYPE_PROBES) == []


def test_auto_setup_guard_sees_each_spelling():
    assert {"Processor", "MotionProcessor", "LandmarkTracker", "LoopCloser"} <= set(
        PROCESSOR_CLASSES)
    source = ("def auto_setup(server, processors):\n"
              "    for proc in processors:\n"
              "        if isinstance(proc, LandmarkTracker): pass\n"
              "        if type(proc) is P.MotionProcessor: pass\n"
              "        if issubclass(type(proc), (Processor, LoopCloser)): pass\n"
              "        if type(proc).__name__ == 'LandmarkTracker': pass\n"
              "    return processors\n"
              "def helper(proc):\n"
              "    return isinstance(proc, LandmarkTracker)\n")
    assert names_used(source, "auto_setup", PROCESSOR_CLASSES) == [3, 4, 5, 6]


def test_auto_setup_names_no_processor_class():
    assert names_used((SRC / "config.py").read_text(), "auto_setup", PROCESSOR_CLASSES) == []


PRIOR_NAMES = ("add_factor", "PRIOR_BLOCK", "PRIOR_POSE", F.PRIOR_BLOCK, F.PRIOR_POSE)


def test_auto_setup_prior_guard_sees_each_spelling():
    assert (F.PRIOR_BLOCK, F.PRIOR_POSE) == ("prior_block", "prior_pose")
    source = ("def auto_setup(server, tree, sensor):\n"
              "    tree.add_factor(sensor, prior)\n"
              "    prior = Factor(kind=PRIOR_BLOCK, z=z, sqrt_info=w, constrained=c)\n"
              "    prior = Factor(F.PRIOR_POSE, z, w, c)\n"
              "    prior = Factor('prior_block', z, w, c)\n"
              "    build = getattr(tree, 'add_factor')\n"
              "    tree.add_pose_prior(first, sensor, w)\n"
              "    return tree\n"
              "def helper(tree, sensor):\n"
              "    tree.add_factor(sensor, prior)\n")
    assert names_used(source, "auto_setup", PRIOR_NAMES) == [2, 3, 4, 5, 6]


def test_auto_setup_adds_no_sensor_prior():
    assert names_used((SRC / "config.py").read_text(), "auto_setup", PRIOR_NAMES) == []
