"""Where the package calls dense linear algebra: one ``eigh``, for a pair's
eigenvectors, ``eigvalsh`` only where eigenvalues alone are read, and each
of ``cholesky``, ``solve`` and ``svd`` at the functions that need it, so
that a second route, or a new dense site, cannot come in unnoticed.  No
site calls the non-symmetric ``eig``: every pair carries its stationary
law, and its spectrum comes from the symmetrized kernel.  Nor does any
site call ``matrix_power``: a kernel's powers come from its spectrum.  Both
stay in DENSE so that a call of either fails the test."""

import ast
from collections import defaultdict
from pathlib import Path

import hybridgibbs

SOURCES = sorted(Path(hybridgibbs.__file__).parent.glob("*.py"))
DENSE = {"eigh", "eigvalsh", "eig", "cholesky", "solve", "svd", "matrix_power"}


def linalg_call_sites():
    """{function name: {(module, enclosing class and function)}} over every
    call of a function in DENSE, however it is bound, and of any attribute
    of a ``linalg`` module, such as ``np.linalg.qr``."""
    sites = defaultdict(set)

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                owner = getattr(func, "value", None)
                in_linalg = "linalg" in (getattr(owner, "attr", None), getattr(owner, "id", None))
                if name in DENSE or in_linalg:
                    sites[name].add((module, ".".join(scope)))
            visit(child, module, inner)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return sites


def test_dense_linalg_is_called_at_its_sites():
    assert SOURCES
    assert linalg_call_sites() == {
        "eigh": {("spectral", "ReversiblePair._eigs")},
        "eigvalsh": {("spectral", "stacked_summaries"), ("bounds", "_scan_gap")},
        "cholesky": {("spectral", "asymptotic_variance")},
        "solve": {("spectral", "_cholesky_solve")},
        "svd": {("spectral", "ReversiblePair._eigs")},
    }
