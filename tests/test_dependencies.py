"""The package imports only the standard library and its declared dependencies,
and the simulator stays apart from the estimator."""

import ast
import os
import subprocess
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


def test_simulator_imports_no_estimator_module():
    # the simulator is the oracle the estimator is tested against, and
    # perfbench/run.py imports it: a fresh interpreter that imports it loads
    # no module of the package but these
    code = ("import sys, arbor.sim, arbor.checks; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'arbor'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout.split()
    assert out == ["arbor", "arbor.checks", "arbor.errors", "arbor.sim"]
