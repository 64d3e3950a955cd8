"""Outside-in tracer: spans around calls into hybridgibbs, with no edit to it.

``Tracer.install()`` replaces every public function of the modules in
``LAYERS``, and every public method of their public classes, by a wrapper
that records a span. The replacement is made at every module binding of the
package, because ``bounds``, ``suite`` and ``gibbs`` import names with
``from .spectral import ...`` and patching only the defining module would miss
their calls. The dense eigensolvers of ``numpy.linalg`` and ``scipy.linalg``
are wrapped as the layer ``linalg``; each solve is counted by matrix size and
by a hash of its input. ``uninstall()`` puts every original back.

A span's self time is its duration minus the durations of its child spans.
Work the tracer itself adds inside a span (hashing eigensolver inputs,
starting tracemalloc) is counted in ``trace_s`` and left out of the span's
self time, so it does not inflate a real layer.
"""

import functools
import hashlib
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "hybridgibbs"
LAYERS = (
    "config",
    "space",
    "randomgen",
    "approximators",
    "gibbs",
    "slicemodel",
    "spectral",
    "bounds",
    "suite",
    "simulate",
    "_stepper_py",
)
EIG_FUNCTIONS = ("eigh", "eigvalsh", "eig", "eigvals")
# Builders whose allocation peak is taken with tracemalloc.
ALLOC_TRACED = ("slicemodel.slice_exact", "slicemodel.slice_hybrid", "slicemodel.level_kernel_norms")

_NAME, _LAYER, _PARENT, _T0, _T1, _CHILD = range(6)


class Tracer:
    """Records spans while installed; one instance per process."""

    def __init__(self, measure=None):
        """``measure`` maps a span name to a function of the call's result whose
        values are summed into ``measured[name]``."""
        self._measure = dict(measure or {})
        self._patches = []
        # tracemalloc slows every allocation, so the allocation peak is taken
        # in a separate pass with this set, never in the pass that is timed.
        self.track_alloc = False
        self._stack = []
        self.reset()

    def reset(self):
        """Forget the spans and counts recorded so far."""
        self.spans = []
        self.calls = Counter()
        self.measured = Counter()
        self.eig_sizes = Counter()
        self.eig_inputs = set()
        self.trace_s = 0.0
        self.alloc_peak = 0

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS]
        importlib.import_module(f"{PACKAGE}.cli")  # so that its bindings are replaced too
        replacements = {}
        for module in modules:
            layer = module.__name__.split(".")[-1]
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
                elif inspect.isclass(obj):
                    for meth_name, meth in sorted(vars(obj).items()):
                        if meth_name.startswith("_") or not inspect.isfunction(meth):
                            continue
                        name = f"{layer}.{attr}.{meth_name}"
                        self._patch(obj, meth_name, meth, self._wrap(meth, name, layer))
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, obj, hit[1])
        self._install_linalg()

    def _install_linalg(self):
        import numpy.linalg

        targets = [("numpy.linalg", numpy.linalg)]
        try:
            import scipy.linalg
        except ImportError:
            pass
        else:
            targets.append(("scipy.linalg", scipy.linalg))
        for prefix, module in targets:
            for fn_name in EIG_FUNCTIONS:
                fn = getattr(module, fn_name, None)
                if fn is not None:
                    self._patch(module, fn_name, fn, self._wrap_eig(fn, f"{prefix}.{fn_name}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- spans --------------------------------------------------------------

    def _enter(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = [name, layer, parent, 0.0, 0.0, 0.0]
        self._stack.append(span)
        return span

    def _leave(self, span, t0, t1):
        self._stack.pop()
        span[_T0], span[_T1] = t0, t1
        if self._stack:
            self._stack[-1][_CHILD] += t1 - t0
        self.spans.append(span)

    def _charge_tracer(self, seconds):
        """Exclude tracer work done inside the current span from its self time."""
        self.trace_s += seconds
        if self._stack:
            self._stack[-1][_CHILD] += seconds

    def _wrap(self, fn, name, layer):
        tracer = self
        alloc = name in ALLOC_TRACED
        measure = self._measure.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    span = tracer._enter(name, layer)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(span, t0, time.perf_counter())
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            outer_alloc = alloc and tracer.track_alloc and not tracemalloc.is_tracing()
            if outer_alloc:
                s0 = time.perf_counter()
                tracemalloc.start()
                tracer._charge_tracer(time.perf_counter() - s0)
            span = tracer._enter(name, layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if outer_alloc:
                    tracer.alloc_peak = max(tracer.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                    t2 = time.perf_counter()
                    tracer._leave(span, t0, t1)
                    tracer._charge_tracer(t2 - t1)
                else:
                    tracer._leave(span, t0, t1)
            if measure is not None:
                tracer.measured[name] += measure(result)
            return result

        return traced

    def _wrap_eig(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            h0 = time.perf_counter()
            arr = np.ascontiguousarray(a)
            n = int(arr.shape[-1])
            digest = hashlib.sha1(arr).digest()
            tracer._charge_tracer(time.perf_counter() - h0)
            tracer.calls[name] += 1
            tracer.eig_sizes[n] += 1
            tracer.eig_inputs.add((arr.shape, arr.dtype.str, digest))
            span = tracer._enter(name, "linalg")
            t0 = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._leave(span, t0, time.perf_counter())

        return traced


# -- summaries of a list of spans ------------------------------------------


def self_s_by_layer(spans):
    out = defaultdict(float)
    for span in spans:
        out[span[_LAYER]] += (span[_T1] - span[_T0]) - span[_CHILD]
    return dict(out)


def inclusive_s(spans, name):
    """Seconds inside spans called ``name`` (which must not call itself)."""
    return sum(span[_T1] - span[_T0] for span in spans if span[_NAME] == name)


def entries(spans, layer):
    """Spans of ``layer`` entered from outside it: one per call into the layer."""
    return [
        span
        for span in spans
        if span[_LAYER] == layer and (span[_PARENT] is None or span[_PARENT][_LAYER] != layer)
    ]


def tree(spans):
    """Spans folded by call path: {"a > b > c": [count, inclusive_s, self_s]}."""
    out = {}
    for span in spans:
        path = []
        node = span
        while node is not None:
            path.append(node[_NAME])
            node = node[_PARENT]
        entry = out.setdefault(" > ".join(reversed(path)), [0, 0.0, 0.0])
        incl = span[_T1] - span[_T0]
        entry[0] += 1
        entry[1] += incl
        entry[2] += incl - span[_CHILD]
    return out
