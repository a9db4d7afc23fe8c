"""Every class in ``arbor.errors`` is raised, and each one outside the four
families is told apart by some handler.

A class that the package never raises (itself or through a subclass) is dead.
Besides the base ``EstimationError`` and the families ``ConfigError``,
``ContractError``, ``RecordFormatError`` and ``SolveError``, a class earns its
place only when a handler in ``src/arbor`` names it: an ``except`` clause or a
``contextlib.suppress`` call.  Anything else is a message, not a type.
"""

import ast
from pathlib import Path

from arbor import errors

SRC = Path(__file__).parent.parent / "src" / "arbor"
FAMILIES = {"EstimationError", "ConfigError", "ContractError", "RecordFormatError", "SolveError"}
CLASSES = {name: obj for name, obj in vars(errors).items()
           if isinstance(obj, type) and issubclass(obj, errors.EstimationError)}


def _class_name(node):
    """The name spelled by ``X``, ``errors.X`` or the call ``X(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def raised_and_caught(source: str):
    """(names raised, names caught by ``except`` or ``suppress``) in ``source``."""
    raised, caught = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised.add(_class_name(node.exc))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(_class_name(t) for t in types)
        elif isinstance(node, ast.Call) and _class_name(node.func) == "suppress":
            caught.update(_class_name(a) for a in node.args)
    return raised - {None}, caught - {None}


def package_uses():
    raised, caught = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        r, c = raised_and_caught(path.read_text())
        raised |= r
        caught |= c
    return raised, caught


def test_guard_sees_each_spelling():
    source = ("raise FooError('x')\n"
              "raise errors.BarError('y') from exc\n"
              "raise BazError\n"
              "try:\n"
              "    pass\n"
              "except (AError, errors.BError) as exc:\n"
              "    raise\n"
              "except CError:\n"
              "    pass\n"
              "with contextlib.suppress(DError, errors.EError):\n"
              "    pass\n"
              "with suppress(FError):\n"
              "    pass\n"
              "report(GError)\n")
    assert raised_and_caught(source) == (
        {"FooError", "BarError", "BazError"},
        {"AError", "BError", "CError", "DError", "EError", "FError"})


def test_every_error_class_is_raised():
    raised, _ = package_uses()
    raised_classes = [CLASSES[name] for name in raised if name in CLASSES]
    unraised = [name for name, cls in CLASSES.items()
                if not any(issubclass(r, cls) for r in raised_classes)]
    assert unraised == []


def test_every_class_outside_the_families_is_caught_by_name():
    assert FAMILIES <= set(CLASSES)
    _, caught = package_uses()
    assert sorted(set(CLASSES) - FAMILIES - caught) == []
