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
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .bounds import Analysis
from .errors import (
    DegenerateConstants,
    HybridGibbsError,
    MissingLevelKernel,
    NoSpectralGap,
    PreconditionUnmet,
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
    except (NoSpectralGap, DegenerateConstants, PreconditionUnmet) as exc:
        return [analysis.report(name, 0.0, 0.0, {"hypothesis": str(exc)}, hypothesis_ok=False)]


def run_suite(config, suites=None, t_values=None, tol=None):
    """Run the configured check suites and assemble a RunReport.

    ``suites`` may be a list of suite names (strict: inapplicable suites are
    errors), the string "all" (lenient: inapplicable suites are skipped), or
    None to follow the config's own selection with the same semantics.  A
    name outside ``config.SUITES``, or a ``tol`` that is not finite and
    positive, is an error raised before any kernel is built.  ``t_values``
    (default: the config's) run once each, in increasing order.
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
    tol = float(tol) if tol is not None else config.tol
    if not (math.isfinite(tol) and tol > 0.0):
        raise HybridGibbsError(f"tol must be finite and positive, got {tol!r}")
    settings = {"tol": tol, "seed": config.seed, "fingerprint": config.fingerprint}
    trials = config.trials
    kernels = {}
    quality = {}
    reports = []

    if config.is_slice:
        model = config.build_slice_model()
        for s in suites:
            if s != "slice" and not lenient:
                raise HybridGibbsError(f"suite {s!r} does not apply to slice models")
        if "slice" in suites and model.level_kernels is None and not lenient:
            raise MissingLevelKernel("suite 'slice' needs the model's level_kernels")
        analysis = Analysis(model, **settings)
        # The checks come first: they decompose the level kernels that have
        # no closed form, which set the peak memory, before any slice chain
        # is held.
        if "slice" in suites and model.level_kernels is not None:
            for t in t_values:
                reports.extend(
                    _guarded(analysis, f"slice-tstep-t{t}", lambda t=t: analysis.slice_tstep(t))
                )
        kernels["slice_exact"] = spectral_summary(analysis.S).to_dict()
        if model.level_kernels is not None:
            kernels["slice_hybrid"] = spectral_summary(analysis.Sh).to_dict()
        return _finish(config, kernels, quality, reports, start)

    joint = config.build_joint()
    p = config.selection()
    n = joint.space.ncoords

    analysis = Analysis(joint, p, config.approximator_spec(), **settings)
    kernels["random_scan_exact"] = spectral_summary(analysis.T).to_dict()
    kernels["random_scan_hybrid"] = spectral_summary(analysis.Th).to_dict()
    qual = analysis.quality
    quality = {
        "max_norm": qual.max_norm,
        "ratio_min": qual.ratio_min,
        "ratio_max": qual.ratio_max,
        "all_psd": qual.all_psd,
        "n_conditionals": len(qual.per_conditional),
    }

    for s in suites:
        if s == "random-scan":
            reports.extend(analysis.dirichlet_sandwich(trials=trials))
            reports.extend(analysis.gap_sandwich())
            reports.extend(
                _guarded(
                    analysis, "variance-sandwich", lambda: analysis.variance_sandwich(trials=8)
                )
            )
        elif s == "da":
            if n != 2:
                if lenient:
                    continue
                raise HybridGibbsError("suite 'da' requires exactly two coordinates")
            kernels["da_exact"] = spectral_summary(analysis.S).to_dict()
            kernels["da_hybrid"] = spectral_summary(analysis.Sh).to_dict()
            reports.extend(analysis.da_gap_sandwich())
            for t in t_values:
                reports.extend(
                    _guarded(
                        analysis, f"da-tstep-t{t}", lambda t=t: analysis.da_tstep(t, trials=trials)
                    )
                )
                reports.extend(
                    _guarded(
                        analysis,
                        f"da-variance-tstep-t{t}",
                        lambda t=t: analysis.da_variance_tstep(t),
                    )
                )
        elif s == "block":
            if n < 3:
                if lenient:
                    continue
                raise HybridGibbsError("suite 'block' requires at least three coordinates")
            for ell in range(2, n):
                kernels[f"block_scan_l{ell}"] = spectral_summary(analysis.block(ell)).to_dict()
                for m in range(1, ell):
                    reports.extend(analysis.block_comparison(ell, m, trials=trials))
        elif s == "selection":
            p_alt = config.selection_alt()
            if p_alt is None:
                p_alt = [i + 1.0 for i in range(n)]
            reports.extend(
                _guarded(
                    analysis,
                    "selection-reweighting",
                    lambda: analysis.selection_reweighting(p_alt),
                )
            )
        elif s == "supplement":
            if not analysis.uniform_selection:
                if lenient:
                    continue
                raise HybridGibbsError(
                    "suite 'supplement' requires uniform selection probabilities"
                )
            for t in t_values:
                reports.extend(
                    _guarded(
                        analysis, f"uniform-power-t{t}", lambda t=t: analysis.uniform_tstep_bound(t)
                    )
                )
        elif s == "slice":
            if lenient:
                continue
            raise HybridGibbsError("suite 'slice' requires a slice model")
    return _finish(config, kernels, quality, reports, start)


def _finish(config, kernels, quality, reports, start):
    # Distinct t values or block-size pairs reuse a report name; qualify
    # names with their parameters, then sort.
    renamed = []
    for r in reports:
        w = r.witness if isinstance(r.witness, dict) else {}
        if "t" in w:
            r = replace(r, name=f"{r.name}-t{w['t']}")
        elif "ell" in w and "m" in w:
            r = replace(r, name=f"{r.name}-l{w['ell']}m{w['m']}")
        renamed.append(r)
    renamed.sort(key=lambda r: r.name)
    elapsed = time.perf_counter() - start
    return RunReport(
        fingerprint=config.fingerprint,
        config=config.data,
        kernels=dict(sorted(kernels.items())),
        quality=quality,
        reports=tuple(renamed),
        timing={"seconds": elapsed},
        versions={"hybridgibbs": __version__, "numpy": np.__version__},
    )
