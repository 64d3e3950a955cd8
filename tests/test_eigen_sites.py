"""Where the package calls a symmetric eigensolver: one ``eigh``, for a
pair's eigenvectors, and ``eigvalsh`` only where eigenvalues alone are
read, so that a second eigen route cannot come back unnoticed."""

import ast
from collections import defaultdict
from pathlib import Path

import hybridgibbs

SOURCES = sorted(Path(hybridgibbs.__file__).parent.glob("*.py"))


def eigen_call_sites():
    """{solver name: {(module, enclosing class and function)}} over every
    call of ``eigh`` or ``eigvalsh`` in the package, however it is bound."""
    sites = defaultdict(set)

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("eigh", "eigvalsh"):
                    sites[name].add((module, ".".join(scope)))
            visit(child, module, inner)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return sites


def test_eigensolvers_are_called_at_their_three_sites():
    assert SOURCES
    assert eigen_call_sites() == {
        "eigh": {("spectral", "ReversiblePair._eigs")},
        "eigvalsh": {("spectral", "stacked_summaries"), ("bounds", "_scan_gap")},
    }
