"""jsonschema loads at the first config validation, not when the package or
the CLI is imported.

Each check runs in a fresh interpreter, since ``sys.modules`` of the test
process already holds jsonschema.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hybridgibbs

SRC = Path(hybridgibbs.__file__).resolve().parent.parent


def fresh(code):
    """Run ``code`` in a new interpreter; returns the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bare_import_never_loads_jsonschema():
    code = """
import json, sys
import hybridgibbs
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "jsonschema")))
"""
    assert fresh(code) == []


def test_cli_without_a_config_never_loads_jsonschema():
    code = """
import json, sys
from hybridgibbs.cli import main
main(["list-demos"])
try:
    main(["--help"])
except SystemExit:
    pass
print(json.dumps("jsonschema" in sys.modules))
"""
    assert fresh(code) is False


def test_first_validation_in_a_fresh_process_names_the_schema_error():
    code = """
import json, sys
from hybridgibbs import HybridGibbsError, canonicalize
assert "jsonschema" not in sys.modules
out = []
for data in ({"model": {"kind": "explicit"}, "bogus": 1},
             {"model": {"kind": "random", "sizes": [2, "x"], "seed": 1}}):
    try:
        canonicalize(data)
    except HybridGibbsError as exc:
        out.append([type(exc).__name__, str(exc)])
print(json.dumps(out))
"""
    assert fresh(code) == [
        ["SchemaError", "at <root>: Additional properties are not allowed ('bogus' was unexpected)"],
        ["SchemaError", "at model/sizes/1: 'x' is not of type 'integer'"],
    ]
