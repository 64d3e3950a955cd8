"""Orchestration: build the kernels a config asks for, run the checkers,
assemble a deterministic RunReport.

Reports are sorted by name and serialized with sorted keys, so identical
configs produce byte-identical JSON up to the timing section.  A check whose
mathematical hypotheses fail for the model at hand contributes a
hypothesis_unmet report rather than an error; genuine input problems
(malformed config, inapplicable explicit suite) surface as exceptions mapped
to exit code 2 by the CLI.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .bounds import Analysis
from .errors import (
    DegenerateConstants,
    HybridGibbsError,
    MissingLevelKernel,
    NoSpectralGap,
    PreconditionUnmet,
    ZeroSelectionProb,
    positive_int,
)
from .spectral import spectral_summary


@dataclass(frozen=True, eq=False)
class RunReport:
    fingerprint: str
    config: dict
    kernels: dict
    quality: dict
    reports: tuple
    timing: dict
    versions: dict

    @property
    def failed(self):
        return [r for r in self.reports if r.status == "fail"]

    def exit_status(self):
        return 1 if self.failed else 0

    def to_dict(self, include_timing=True):
        out = {
            "fingerprint": self.fingerprint,
            "config": self.config,
            "kernels": self.kernels,
            "quality": self.quality,
            "reports": [r.to_dict() for r in self.reports],
            "versions": self.versions,
        }
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_json(self, include_timing=True):
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2) + "\n"

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check", "lhs", "rhs", "slack", "status"])
        for r in self.reports:
            writer.writerow([r.name, repr(r.lhs), repr(r.rhs), repr(r.slack), r.status])
        return buf.getvalue()


def _guarded(analysis, name, fn):
    """Run a check of ``analysis``; hypothesis failures become
    hypothesis_unmet reports under the analysis's tolerance and fingerprint."""
    try:
        return fn()
    except (NoSpectralGap, DegenerateConstants, PreconditionUnmet, ZeroSelectionProb) as exc:
        return [analysis.report(name, 0.0, 0.0, {"hypothesis": str(exc)}, hypothesis_ok=False)]


def run_suite(config, suites=None, t_values=None, tol=None):
    """Run the configured check suites and assemble a RunReport.

    ``suites`` may be a list of suite names (strict: the first inapplicable
    suite, in the given order, is an error), the string "all" (lenient:
    inapplicable suites are skipped), or None to follow the config's own
    selection with the same semantics.  A name outside ``config.SUITES``, a
    ``tol`` that is not finite and positive, or an inapplicable strict suite
    is an error raised before any kernel is built.  ``t_values`` (default:
    the config's) run once each, in increasing order.
    """
    start = time.perf_counter()
    requested = suites if suites is not None else config.data["suite"]
    lenient = requested == "all"
    from .config import SUITES

    suites = list(SUITES) if lenient else list(requested)
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise HybridGibbsError(
            f"unknown suite {unknown[0]!r}; expected 'all' or names from {', '.join(SUITES)}"
        )
    t_values = t_values if t_values is not None else config.t_values
    t_values = sorted({positive_int(t, "t") for t in t_values})
    tol = tol if tol is not None else config.tol
    settings = {"tol": tol, "seed": config.seed, "fingerprint": config.fingerprint}
    if config.is_slice:
        analysis = Analysis(config.build_slice_model(), **settings)
    else:
        joint = config.build_joint()
        analysis = Analysis(joint, config.selection(), config.approximator_spec(), **settings)
    selected = []
    for s in suites:
        error = _inapplicable(s, analysis)
        if error is None:
            selected.append(s)
        elif not lenient:
            raise error
    reports = []
    for s in selected:
        for name, suffix, check in _checks(s, analysis, config, t_values):
            reports += [replace(r, name=r.name + suffix) for r in _guarded(analysis, name, check)]
    # The summaries come after the checks: a slice model's checks decompose
    # the level kernels that have no closed form, which set the peak memory,
    # before any slice chain is held.
    return _finish(config, _summaries(analysis, selected), _quality(analysis), reports, start)


def _inapplicable(suite, analysis):
    """The error that a strict selection of ``suite`` raises on the model of
    ``analysis``, or None where the suite applies."""
    if analysis.is_slice:
        if suite != "slice":
            return HybridGibbsError(f"suite {suite!r} does not apply to slice models")
        if analysis.source.level_kernels is None:
            return MissingLevelKernel("suite 'slice' needs the model's level_kernels")
        return None
    n = analysis.source.space.ncoords
    if suite == "slice":
        return HybridGibbsError("suite 'slice' requires a slice model")
    if suite == "da" and n != 2:
        return HybridGibbsError("suite 'da' requires exactly two coordinates")
    if suite == "block" and n < 3:
        return HybridGibbsError("suite 'block' requires at least three coordinates")
    if suite == "supplement" and not analysis.uniform_selection:
        return HybridGibbsError("suite 'supplement' requires uniform selection probabilities")
    return None


def _checks(suite, analysis, config, t_values):
    """Each check call of ``suite`` as (name, suffix, call): ``name`` is the
    hypothesis_unmet report that stands for the call when its hypotheses
    fail, and ``suffix``, the call's parameters, qualifies the name of every
    report of the call, since distinct t values or block-size pairs reuse a
    name."""
    a, trials = analysis, config.trials
    if suite == "random-scan":
        yield "dirichlet-sandwich", "", partial(a.dirichlet_sandwich, trials=trials)
        yield "gap-sandwich", "", a.gap_sandwich
        yield "variance-sandwich", "", partial(a.variance_sandwich, trials=8)
    elif suite == "da":
        yield "da-gap-sandwich", "", a.da_gap_sandwich
        for t in t_values:
            yield "da-tstep", f"-t{t}", partial(a.da_tstep, t, trials=trials)
            yield "da-variance-tstep", f"-t{t}", partial(a.da_variance_tstep, t)
    elif suite == "block":
        for ell in range(2, a.source.space.ncoords):
            for m in range(1, ell):
                yield "block-comparison", f"-l{ell}m{m}", partial(
                    a.block_comparison, ell, m, trials=trials
                )
    elif suite == "selection":
        p_alt = config.selection_alt() or [i + 1.0 for i in range(a.source.space.ncoords)]
        yield "selection-reweighting", "", partial(a.selection_reweighting, p_alt)
    elif suite == "supplement":
        for t in t_values:
            yield "uniform-power", f"-t{t}", partial(a.uniform_tstep_bound, t)
    elif suite == "slice":
        for t in t_values:
            yield "slice-tstep", f"-t{t}", partial(a.slice_tstep, t)


def _summaries(analysis, selected):
    """Spectral summaries of the chains the run reports, keyed as in
    ``RunReport.kernels``: the exact and hybrid chain of the model, and those
    of the selected DA and block suites."""
    a = analysis
    if a.is_slice:
        pairs = {"slice_exact": a.S}
        if a.source.level_kernels is not None:
            pairs["slice_hybrid"] = a.Sh
    else:
        pairs = {"random_scan_exact": a.T, "random_scan_hybrid": a.Th}
        if "da" in selected:
            pairs.update(da_exact=a.S, da_hybrid=a.Sh)
        if "block" in selected:
            for ell in range(2, a.source.space.ncoords):
                pairs[f"block_scan_l{ell}"] = a.block(ell)
    return {key: spectral_summary(pair).to_dict() for key, pair in pairs.items()}


def _quality(analysis):
    """The aggregate approximation quality of a joint's random-scan chain;
    empty for a slice model."""
    if analysis.is_slice:
        return {}
    qual = analysis.quality
    worst = {key: getattr(qual, key) for key in ("max_norm", "ratio_min", "ratio_max", "all_psd")}
    return dict(worst, n_conditionals=len(qual.per_conditional))


def _finish(config, kernels, quality, reports, start):
    return RunReport(
        fingerprint=config.fingerprint,
        config=config.data,
        kernels=dict(sorted(kernels.items())),
        quality=quality,
        reports=tuple(sorted(reports, key=lambda r: r.name)),
        timing={"seconds": time.perf_counter() - start},
        versions={"hybridgibbs": __version__, "numpy": np.__version__},
    )
