"""No analysis draws a random number.  Every path over a ``GroupAction``
reads its classes from ``reps._classes``, and the generic splitter of a
plain representation, ``reps._pieces``, and the generic equivalence
witness, ``reps.covariant_equivalence``, read along the fixed matrices of
``reps._probes``, so a seed changes no output.  Only the input generators
of ``sampling`` take a caller's generator, and they do not create one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "crossrep"


def _draws(path: Path) -> list[str]:
    """The functions of a module that call ``np.random.default_rng`` (or
    ``numpy.random.default_rng``), one entry per call."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call) and ast.unparse(child.func) in ("np.random.default_rng",
                                                                           "numpy.random.default_rng"):
                found.append(where)
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_default_rng_is_called_nowhere():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    calls = {(p.name, where) for p in modules for where in _draws(p)}
    assert calls == set()


def test_no_module_imports_default_rng_by_name():
    # a bare default_rng(...) call would escape the attribute match above
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy"):
                assert "default_rng" not in {alias.name for alias in node.names}, path.name
