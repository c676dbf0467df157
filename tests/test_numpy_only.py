"""The package depends on numpy alone: no module imports scipy, so a CLI
process never pays for loading it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    modules = sorted((SRC / "crossrep").rglob("*.py"))
    assert modules
    assert [p.name for p in modules if "scipy" in _imported_roots(p)] == []


def test_cli_import_loads_no_scipy_module():
    code = (
        "import crossrep.cli, sys; "
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
