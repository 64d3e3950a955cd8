"""hybridgibbs benchmark: time to a certified report, peak memory and stepper
throughput on four seeded workloads, with an outside-in layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src``.
Prints the environment, one line per metric with its unit, and, as the last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones.

The workload runs in its own process (``worker.py``) with the BLAS thread
count pinned. Set-up time is measured over several fresh processes and
reported as the median.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("rscan-dense", "block-small", "slice-levels", "sim-walk")

BLAS_THREADS = 1
SETUP_PROBES = 9  # fresh processes that only set up, after one discarded warm-up
# Times are reported at a fixed machine speed: each is scaled by
# REF_PROBE_S / (seconds of the worker's speed probe around it). 8 ms is the
# probe's time on the 2-core VM this was written on when it ran fast.
REF_PROBE_S = 0.008
DEADLINE_S = 170.0  # the whole command must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "certify_s": "s",
    "sim_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"_per_s": "1/s", "_frac": "fraction", "_mb": "MB", "_n3": "n3", "_s": "s"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("HYBRIDGIBBS_STATE_CAP", None)
    return env


def spawn(args, started, timeout):
    """Run the worker; returns (spawn time, its JSON result)."""
    remaining = DEADLINE_S - (time.perf_counter() - started)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        timeout=min(timeout, remaining),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def at_ref_speed(seconds, probes):
    return [s * REF_PROBE_S / p for s, p in zip(seconds, probes)]


def upper_percentile(values):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def describe(name, value, unit, values=None, note=""):
    line = f"{name:<32} {value:>14.6g} {unit:<10}"
    if values is not None:
        line += f" median of {len(values)}"
        up = upper_percentile(values)
        if up is not None:
            line += f", p{up[0]} {up[1]:.6g}"
    print(line + (f"  {note}" if note else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "hybridgibbs" / "__init__.py").is_file():
        print(f"error: no hybridgibbs sources under {SRC}", file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups, setup_probes = [], []
        for probe in range(SETUP_PROBES + 1):
            t0, probe_out = spawn([*base, "--setup-only"], started, 60)
            if probe:  # the first one may compile bytecode
                setups.append(probe_out["ready"] - t0)
                setup_probes.append(probe_out["probe_s"])
        t0, out = spawn(
            [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)], started, DEADLINE_S
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(out["ready"] - t0)
    setup_probes.append(out["setup_probe_s"])

    print("env " + json.dumps(out["env"], sort_keys=True))
    attempted, failed = out["attempted"], out["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations, {failed} failed")
    samples = out["samples"]
    if not samples["certify_s"] or (args.trace and not out["layers"]):
        print("error: no operation completed", file=sys.stderr)
        return 1
    probes = samples["probe_s"]
    setup = at_ref_speed(setups, setup_probes)
    certify = at_ref_speed(samples["certify_s"], probes)
    rates = [n / s for n, s in zip(samples["steps"], at_ref_speed(samples["simulate_s"], probes))]
    e2e = {
        "setup_s": statistics.median(setup),
        "certify_s": statistics.median(certify),
        "sim_steps_per_s": statistics.median(rates),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    describe("setup_s", e2e["setup_s"], "s", setup, "set-ups, at reference speed")
    describe("certify_s", e2e["certify_s"], "s", certify, "operations, at reference speed")
    describe("sim_steps_per_s", e2e["sim_steps_per_s"], "1/s", rates, "operations, at reference speed")
    describe("peak_rss_mb", e2e["peak_rss_mb"], "MB")
    wall_rates = [n / s for n, s in zip(samples["steps"], samples["simulate_s"])]
    describe("setup_wall_s", statistics.median(setups), "s", setups, "wall clock")
    describe("certify_wall_s", statistics.median(samples["certify_s"]), "s", samples["certify_s"], "wall clock")
    describe("sim_wall_steps_per_s", statistics.median(wall_rates), "1/s", wall_rates, "wall clock")
    describe("probe_s", statistics.median(probes), "s", probes,
             f"speed probe; reference {REF_PROBE_S} s")
    describe("failed_frac", failed / attempted, "fraction", note=f"{failed} of {attempted} operations")
    describe("xval_outside_3se", out["xval_outside_3se"], "count",
             note="statistical test, not counted as a failure")

    if args.trace:
        layers = out["layers"]
        metrics = {name: statistics.median(s[name] for s in layers) for name in layers[0]}
        traced = at_ref_speed(samples["traced_certify_s"], samples["traced_probe_s"])
        metrics["trace.overhead_frac"] = statistics.median(traced) / e2e["certify_s"] - 1.0
        for name, value in metrics.items():
            describe(name, value, layer_unit(name), note=f"median of {len(layers)} traced operations")
        sizes = {int(n): c for n, c in out["eig_sizes_first_traced_op"].items()}
        shown = dict(sorted(sizes.items())[-6:])
        print(f"eigensolves of the first traced operation: {sum(sizes.values())} at "
              f"{len(sizes)} sizes; the largest sizes {json.dumps(shown)}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"env": out["env"], "layers": layers,
                       "eig_sizes": out["eig_sizes_first_traced_op"],
                       "tree": out["tree_first_traced_op"]}, fh, indent=1, sort_keys=True)
        print(f"span tree of the first traced operation written to {path.relative_to(ROOT)}")
    else:
        metrics = e2e
    units = END_TO_END if not args.trace else {name: layer_unit(name) for name in metrics}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
