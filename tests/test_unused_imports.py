"""No module of the package imports a name it never reads.  ``__init__.py``
is left out: its imports are the public surface it re-exports."""

import ast
from pathlib import Path

import hybridgibbs

SOURCES = sorted(Path(hybridgibbs.__file__).parent.glob("*.py"))


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    names = (node for node in ast.walk(tree) if isinstance(node, ast.Name))
    read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    assert modules
    found = {p.name: unused_imports(ast.parse(p.read_text(encoding="utf-8"))) for p in modules}
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_a_stale_import_is_found():
    tree = ast.parse("import numpy as np\nfrom .errors import A, B\nB(np.zeros(1))\n")
    assert unused_imports(tree) == [(2, "A")]
