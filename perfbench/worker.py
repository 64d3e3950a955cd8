"""One workload process: set up, run timed operations until the deadline,
check every output, and print the raw samples as one JSON line.

``run.py`` starts this process with the BLAS thread count pinned and
``src`` on ``PYTHONPATH``; set-up time is measured from that start, so the
imports below are part of it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer as tr
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Per-layer counts read from call results rather than call counts.
MEASURE = {"bounds.function_battery": lambda result: result[0].shape[1]}
LARGE_N = 256  # eigensolves at least this size count as large
PROBE_LOOPS = 200_000


def load_reference(workload, seed):
    if seed != workloads.DEFAULT_SEED:
        return []
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, [])


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def layer_sample(tracer, spans, certify_spans, steps, certify_s, rec):
    """Per-layer figures of one traced operation (prepare, certify, simulate)."""
    self_s = tr.self_s_by_layer(spans)
    calls = tracer.calls
    sizes = tracer.eig_sizes
    solves = sum(sizes.values())
    walk_s = self_s.get("_stepper_py", 0.0)
    certify_self = sum(tr.self_s_by_layer(certify_spans).values())
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in tr.LAYERS if layer != "_stepper_py"}
    out.update(
        {
            "space.conditional_calls": calls["space.conditional"],
            "approximators.kernels_built": calls["approximators.kernel_for_target"],
            "gibbs.kernels_built": len(tr.entries(spans, "gibbs")),
            "slicemodel.kernels_built": calls["slicemodel.slice_exact"] + calls["slicemodel.slice_hybrid"],
            "slicemodel.peak_alloc_mb": 0.0,
            "spectral.reversibility_checks": calls["spectral.check_reversibility"],
            "spectral.summaries": calls["spectral.spectral_summary"],
            "linalg.eig_s": self_s.get("linalg", 0.0),
            "linalg.eig_calls": solves,
            "linalg.eig_calls_large": sum(c for n, c in sizes.items() if n >= LARGE_N),
            "linalg.eig_work_n3": sum(c * n**3 for n, c in sizes.items()),
            "linalg.eig_unique_frac": len(tracer.eig_inputs) / solves if solves else 0.0,
            "bounds.approx_quality_calls": calls["bounds.approx_quality"],
            "bounds.battery_columns": tracer.measured["bounds.function_battery"],
            "suite.to_json_s": tr.inclusive_s(spans, "suite.RunReport.to_json"),
            "suite.hypothesis_unmet": sum(r[1] == "hypothesis_unmet" for r in rec["reports"]),
            "stepper_py.walk_s": walk_s,
            "stepper_py.steps_per_s": steps / walk_s if walk_s else 0.0,
            "trace.certify_s": certify_s,
            "trace.unattributed_frac": 1.0 - certify_self / certify_s,
            "trace.tracer_s": tracer.trace_s,
        }
    )
    return out


def probe_s():
    """Seconds of a fixed pure-Python loop: the machine's speed right now.

    No hybridgibbs code runs in it, so a change to the program cannot change
    the probe.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i & 7
    return time.perf_counter() - t0


def alloc_peak_mb(tracer, prep):
    """Rerun the operation, untimed, with tracemalloc inside the slice builders."""
    tracer.install()
    tracer.reset()
    tracer.track_alloc = True
    try:
        workloads.run_op(prep)
    finally:
        tracer.track_alloc = False
        tracer.uninstall()
    return tracer.alloc_peak / 2**20


def traced_op(tracer, workload, seed, index):
    """Prepare and run one operation under the tracer.

    Returns (prep, run_op's result, record, layer sample, span tree, solves by size).
    """
    tracer.install()
    tracer.reset()
    try:
        prep = workloads.Prepared(workload, seed, index)
        marks = [len(tracer.spans)]
        result = workloads.run_op(prep, mark=lambda: marks.append(len(tracer.spans)))
    finally:
        tracer.uninstall()
    certify_s, _, steps, certified, xval = result
    rec = workloads.record(prep, certified, xval)
    spans = tracer.spans
    certify_spans = spans[marks[0]:marks[1]] if len(marks) > 1 else spans[marks[0]:]
    sample = layer_sample(tracer, spans, certify_spans, steps, certify_s, rec)
    tree, sizes = tr.tree(spans), dict(sorted(tracer.eig_sizes.items()))
    if sample["slicemodel.kernels_built"]:
        sample["slicemodel.peak_alloc_mb"] = alloc_peak_mb(tracer, prep)
    return prep, result, rec, sample, tree, sizes


def run(args):
    ref = load_reference(args.workload, args.seed)
    first = workloads.Prepared(args.workload, args.seed, 0)
    ready = time.perf_counter()
    setup_probe = probe_s()
    if args.setup_only:
        return {"ready": ready, "probe_s": setup_probe}
    tracer = None
    if args.trace:
        tracer = tr.Tracer(MEASURE)
    # A traced run alternates untraced and traced operations, so that the
    # tracing overhead is measured in the same process.
    min_ops = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    samples = {key: [] for key in ("certify_s", "simulate_s", "steps", "probe_s",
                                   "traced_certify_s", "traced_probe_s")}
    env = environment()
    # One CPU, so that the speed probes run where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env["cpus_used"] = len(os.sched_getaffinity(0))
    layers, tree, sizes = [], {}, {}
    failed = xval_outside = index = 0
    while index < min_ops or time.perf_counter() < deadline:
        xval = None
        try:
            before = probe_s()
            if tracer is not None and index % 2 == 1:
                prep, result, rec, sample, op_tree, op_sizes = traced_op(
                    tracer, args.workload, args.seed, index
                )
                layers.append(sample)
                samples["traced_certify_s"].append(result[0])
                samples["traced_probe_s"].append((before + probe_s()) / 2)
                tree, sizes = tree or op_tree, sizes or op_sizes
            else:
                prep = first if index == 0 else workloads.Prepared(args.workload, args.seed, index)
                result = workloads.run_op(prep)
                samples["probe_s"].append((before + probe_s()) / 2)
                rec = workloads.record(prep, result[3], result[4])
                samples["certify_s"].append(result[0])
                samples["simulate_s"].append(result[1])
                samples["steps"].append(result[2])
            xval = result[4]
            found = workloads.problems(prep, rec, xval, ref[index] if index < len(ref) else None)
        except Exception:
            traceback.print_exc()
            found = ["exception"]
        if found:
            failed += 1
            print(f"operation {index} failed: {found}", file=sys.stderr)
        if xval is not None and xval.status == "fail":
            xval_outside += 1
        index += 1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "ready": ready,
        "setup_probe_s": setup_probe,
        "attempted": index,
        "failed": failed,
        "xval_outside_3se": xval_outside,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "samples": samples,
        "layers": layers,
        "eig_sizes_first_traced_op": sizes,
        "tree_first_traced_op": tree,
        "env": env,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
