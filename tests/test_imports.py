"""numpy is the package's only runtime dependency: with jsonschema
unimportable, the package, the CLI and every config path run, and a
rejected config is still a named SchemaError, which the config interpreter
words itself.

Each check runs in a fresh interpreter, since ``sys.modules`` of the test
process already holds jsonschema.  There, ``sys.modules["jsonschema"] =
None`` makes every import of jsonschema fail, so each test both runs
its path without jsonschema and finds no jsonschema module loaded.
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


# Prepended to each fresh interpreter's code: any import of jsonschema fails,
# and ``loaded()`` lists the jsonschema modules that nonetheless loaded.
BLOCKED = """
import contextlib, io, json, sys
sys.modules["jsonschema"] = None
def loaded():
    return sorted(m for m, mod in sys.modules.items()
                  if m.split(".")[0] == "jsonschema" and mod is not None)
"""


def test_bare_import_never_loads_jsonschema():
    code = BLOCKED + """
import hybridgibbs
print(json.dumps(loaded()))
"""
    assert fresh(code) == []


def test_cli_without_a_config_never_loads_jsonschema():
    code = BLOCKED + """
from hybridgibbs.cli import main
main(["list-demos"])
try:
    main(["--help"])
except SystemExit:
    pass
print(json.dumps(loaded()))
"""
    assert fresh(code) == []


def test_valid_configs_never_load_jsonschema(tmp_path):
    """Every demo config, configs shaped like the benchmark's three suite
    workloads (a 40 x 40 random-scan joint, an 8 x 8 x 8 joint with
    Metropolis steps, and 300 slice levels), a demo run and a ``check``."""
    code = BLOCKED + f"""
from hybridgibbs.config import canonicalize, serialize
from hybridgibbs.cli import main
from hybridgibbs.demos import demo_config, list_demos
lazy = {{"rule": "lazy", "epsilon": 0.3}}
configs = [demo_config(name) for name in list_demos()] + [
    {{"model": {{"kind": "random", "sizes": [40, 40], "seed": 3}},
     "approximator": {{"default": lazy, "overrides": {{}}}}, "t": [2, 4], "seed": 3}},
    {{"model": {{"kind": "random", "sizes": [8, 8, 8], "seed": 3}},
     "approximator": {{"default": {{"rule": "metropolis_rw", "radius": 1}}}}, "seed": 3}},
    {{"model": {{"kind": "slice", "density": [1.0 + k / 300 for k in range(300)],
               "level_kernels": [lazy] * 300}}, "suite": ["slice"], "t": [2], "seed": 3}},
]
for data in configs:
    canonicalize(data)
demo = main(["demo", "two-coin", "--run"])
path = {str(tmp_path / "two-coin.json")!r}
with open(path, "w") as fh:
    fh.write(serialize(canonicalize(demo_config("two-coin"))))
check = main(["check", path, "--out", {str(tmp_path / "out")!r}])
print(json.dumps([demo, check, loaded()]))
"""
    assert fresh(code) == [0, 0, []]


def test_rejected_config_without_jsonschema_is_a_named_error(tmp_path):
    """A rejected config is a SchemaError naming its path, through the
    Python API and through the CLI, which exits 2."""
    code = BLOCKED + f"""
from hybridgibbs.cli import main
from hybridgibbs.config import canonicalize
from hybridgibbs.errors import SchemaError
bad = {{"model": {{"kind": "random", "sizes": [2, "x"], "seed": 1}}}}
try:
    canonicalize(bad)
    rejected = None
except SchemaError as exc:
    rejected = str(exc)
bad_path = {str(tmp_path / "bad.json")!r}
with open(bad_path, "w") as fh:
    json.dump(bad, fh)
err = io.StringIO()
with contextlib.redirect_stderr(err):
    bad_status = main(["check", bad_path])
print(json.dumps([rejected, bad_status, err.getvalue(), loaded()]))
"""
    message = "at model/sizes/1: 'x' is not of type 'integer'"
    assert fresh(code) == [message, 2, f"error: {message}\n", []]


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
