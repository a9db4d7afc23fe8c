"""The package imports only the standard library and its declared dependencies."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "arbor"
DECLARED = {"numpy", "yaml"}


def test_imports_are_stdlib_or_declared():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in DECLARED:
                    foreign.append(f"{path.name}: {name}")
    assert foreign == []
