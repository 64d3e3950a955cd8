"""Self-check of the benchmark's tracer at tiny sizes; exits 1 on a failure.

    python3 perfbench/selfcheck.py

Checks that every module binding of a public function is wrapped, that the
tracer records a span in every layer, that one
``spectral_summary`` of a generic n-state pair counts exactly one solve of
size n, that every count repeats exactly across two runs with the same
seed, and that uninstalling puts every original function back.
"""

import inspect
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import hybridgibbs  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from worker import MEASURE  # noqa: E402
from hybridgibbs import bounds, spectral  # noqa: E402
from hybridgibbs.randomgen import random_probvec, random_reversible_kernel  # noqa: E402

LAZY = {"rule": "lazy", "epsilon": 0.3}


def tiny_configs(seed):
    density = (np.arange(6) + 1.0) / 7.0
    return [
        {"model": {"kind": "random", "sizes": [3, 3], "seed": seed},
         "approximator": {"default": LAZY, "overrides": {}}, "t": [2], "seed": seed},
        {"model": {"kind": "random", "sizes": [2, 2, 2], "seed": seed},
         "approximator": {"default": {"rule": "metropolis_rw", "radius": 1}, "overrides": {}},
         "t": [2], "seed": seed},
        {"model": {"kind": "slice", "density": density.tolist(), "level_kernels": [LAZY] * 6},
         "suite": ["slice"], "t": [2], "seed": seed},
    ]


def tiny_run(tracer, seed):
    """Everything the workloads do, at tiny sizes, under the tracer."""
    tracer.reset()
    for data in tiny_configs(seed):
        config = hybridgibbs.canonicalize(data)
        hybridgibbs.run_suite(config).to_json()
        if config.is_slice:
            rev = hybridgibbs.slice_exact(config.build_slice_model())
        else:
            rev = hybridgibbs.exact_random_scan(config.build_joint(), config.selection())
        hybridgibbs.cross_validate_variance(rev, np.arange(rev.n, dtype=float), 10**4, seed)
    counts = (dict(tracer.calls), dict(tracer.eig_sizes), len(tracer.eig_inputs),
              dict(tracer.measured), len(tracer.spans))
    return counts, {span[1] for span in tracer.spans}


def unwrapped_bindings():
    """Bindings of public layer functions, in the package or in the
    benchmark's workloads, that still hold the original."""
    out = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name.startswith(tr.PACKAGE) or module is workloads):
            continue
        for attr, obj in vars(module).items():
            home = getattr(obj, "__module__", "") or ""
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and home.startswith(tr.PACKAGE + ".")
                    and home.split(".")[-1] in tr.LAYERS and not hasattr(obj, "__wrapped__")):
                out.append(f"{mod_name}.{attr}")
    return out


def main():
    errors = []
    originals = (bounds.spectral_summary, np.linalg.eigh)
    tracer = tr.Tracer(MEASURE)
    tracer.install()
    try:
        missed = unwrapped_bindings()
        if missed:
            errors.append(f"{len(missed)} bindings not wrapped, such as {missed[:5]}")
        first, layers = tiny_run(tracer, 5)
        if not any(span[0] == "suite.run_suite" for span in tracer.spans):
            errors.append("no span for run_suite called through the package namespace")
        second, _ = tiny_run(tracer, 5)
        missing = set(tr.LAYERS) | {"linalg"}
        missing -= layers
        if missing:
            errors.append(f"no span recorded in layers {sorted(missing)}")
        if first != second:
            errors.append("counts differ between two runs with the same seed")

        n = 7
        w = random_probvec(11, n)
        rev = spectral.check_reversibility(random_reversible_kernel(12, w), w)
        tracer.reset()
        hybridgibbs.spectral_summary(rev)
        if dict(tracer.eig_sizes) != {n: 1}:
            errors.append(f"spectral_summary at n={n} counted solves {dict(tracer.eig_sizes)}")
    finally:
        tracer.uninstall()
    if (bounds.spectral_summary, np.linalg.eigh) != originals:
        errors.append("uninstall left a wrapper in place")
    for err in errors:
        print("selfcheck FAILED:", err)
    if not errors:
        print(f"selfcheck ok: {len(layers)} layers traced, counts repeat exactly")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
