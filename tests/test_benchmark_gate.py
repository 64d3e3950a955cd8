"""The benchmark's correctness gate, run as part of the test suite.

``perfbench/`` gates every benchmark run against ``perfbench/reference.json``:
the certified report names, statuses and values of its first operations at
seed 0. This test runs that gate at one BLAS thread on operations 0-3 of
``block-small``, 0-1 of ``rscan-dense`` and 0 of ``slice-levels``, so that
the stacked conditional arithmetic is pinned on several models; on
``slice-levels`` at two threads as well; and the benchmark tracer's own
self-check, so that a change which would fail the benchmark fails here
first. It only reads ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Arguments: the reference file, then workloads as NAME or NAME:COUNT, which
# gates operations 0 to COUNT - 1 of that workload.
GATE = """
import json, sys
import workloads
with open(sys.argv[1]) as fh:
    reference = json.load(fh)
found = []
for arg in sys.argv[2:]:
    name, _, count = arg.partition(":")
    for index in range(int(count or 1)):
        prep = workloads.Prepared(name, workloads.DEFAULT_SEED, index)
        _, _, _, certified, xval = workloads.run_op(prep)
        rec = workloads.record(prep, certified, xval)
        ref = reference[name][index]
        found += [f"{name}/{index}: {p}" for p in workloads.problems(prep, rec, xval, ref)]
print("\\n".join(found))
sys.exit(1 if found else 0)
"""


def run_pinned(*args, threads=1):
    """Run Python with the benchmark's import path and ``threads`` BLAS
    threads, one unless given.

    The thread pin is part of what the reference means. Several batteries
    hold an eigenspace of dimension above one (block-small's exact chain has
    343 zero eigenvalues among 512), where LAPACK returns an arbitrary
    basis, and that basis changes with the BLAS thread count. So the least
    slack function, and the lhs/rhs reported at it, differ between one and
    two threads; reference.json was written at one thread, as the benchmark
    runs. Slice reports read no battery, so they hold at two threads too.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    env.pop("HYBRIDGIBBS_STATE_CAP", None)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_first_operations_match_the_benchmark_reference():
    proc = run_pinned(
        "-c",
        GATE,
        str(PERFBENCH / "reference.json"),
        "rscan-dense:2",
        "block-small:4",
        "slice-levels",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_slice_levels_matches_the_reference_at_two_threads():
    proc = run_pinned("-c", GATE, str(PERFBENCH / "reference.json"), "slice-levels", threads=2)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_selfcheck_passes():
    proc = run_pinned(str(PERFBENCH / "selfcheck.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck ok" in proc.stdout
