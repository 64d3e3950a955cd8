"""Certification of the comparison inequalities between exact and hybrid chains.

Every ``check_*`` function computes both sides of one family of inequalities
exactly (dense spectra, exact Dirichlet forms, exact conditional averages) and
returns a list of BoundReports, one per atomic inequality, each carrying the
worst observed slack and a witness for where it occurred.

Test-function batteries consist of the full eigenbasis of the relevant
symmetrized kernel plus seeded random mean-zero vectors: the extremal
functions for any spectral statement are eigenvectors, while the random draws
guard against indexing mistakes.  All batteries are normalized to unit norm in
L2 of the stationary distribution so slacks are on a common scale.
"""

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .approximators import EXACT_SPEC, Exact, make_approximator
from .errors import (
    CrossCheckFailure,
    DegenerateConstants,
    DominationViolated,
    InvalidBlockSize,
    InvalidSpec,
    NonUniformSelection,
    NoSpectralGap,
    PreconditionUnmet,
    ZeroSelectionProb,
)
from .gibbs import (
    block_random_scan,
    da_exact,
    da_hybrid,
    exact_random_scan,
    hybrid_random_scan,
    inner_block_kernel,
)
from .report import fingerprint_bytes, make_report
from .slicemodel import SliceModel, level_summaries, slice_exact, slice_hybrid
from .space import conditional, marginal, selection_probs
from .spectral import (
    _sym_eigs,
    dirichlet_ratio_extrema,
    spectral_summary,
    variances,
)

DEFAULT_TOL = 1e-9
DEFAULT_TRIALS = 64


def model_fingerprint(source, spec=None):
    """Stable fingerprint of a model (joint or slice) plus approximator spec."""
    if isinstance(source, SliceModel):
        chunks = [b"slice", np.ascontiguousarray(source.density).tobytes()]
        if source.level_kernels is not None:
            for entry in source.level_kernels:
                if hasattr(entry, "describe"):
                    chunks.append(json.dumps(entry.describe(), sort_keys=True).encode())
                else:
                    chunks.append(np.ascontiguousarray(entry, dtype=float).tobytes())
    else:
        chunks = [
            repr(source.space.sizes).encode(),
            np.ascontiguousarray(source.weights).tobytes(),
        ]
    if spec is not None:
        chunks.append(json.dumps(spec.describe(), sort_keys=True).encode())
    return fingerprint_bytes(*chunks)


# ---------------------------------------------------------------------------
# Approximation quality
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ApproxQuality:
    """Aggregated quality of the per-conditional approximating kernels.

    ``per_conditional`` maps (coordinate, complement tuple) to a dict with the
    kernel's operator norm, Dirichlet-ratio extremes and psd flag.  The
    aggregates are the worst cases: ``max_norm`` bounds every norm from above,
    ``ratio_min``/``ratio_max`` sandwich every Dirichlet ratio.
    """

    per_conditional: dict
    max_norm: float
    ratio_min: float
    ratio_max: float
    all_psd: bool

    def __post_init__(self):
        if not (-1e-12 <= self.max_norm <= 1.0 + 1e-9):
            raise CrossCheckFailure(f"aggregate norm {self.max_norm} outside [0, 1]")
        if self.ratio_min > self.ratio_max + 1e-12:
            raise CrossCheckFailure("ratio_min exceeds ratio_max")
        if self.ratio_min < 1.0 - self.max_norm - 1e-9:
            raise CrossCheckFailure("Rayleigh consistency fails: ratio_min < 1 - max_norm")
        if self.ratio_max > 1.0 + self.max_norm + 1e-9:
            raise CrossCheckFailure("Rayleigh consistency fails: ratio_max > 1 + max_norm")


def approx_quality(joint, spec, coords=None):
    """Spectral quality of every approximating kernel along the support.

    Enumerates (i, y) over ``coords`` (default: all coordinates) and all
    complement configurations with positive marginal mass.  Exact rules
    contribute norm 0 and ratios (1, 1) without an eigendecomposition, since
    the independence kernel annihilates mean-zero functions.
    """
    space = joint.space
    if coords is None:
        coords = tuple(range(space.ncoords))
    table = {}
    for i in coords:
        rule = spec.rule_for(i)
        for y in space.complement_configs((i,)):
            idx = space.subspace_indices((i,), y)
            if joint.weights[idx].sum() <= 0.0:
                continue
            if isinstance(rule, Exact):
                entry = {"norm": 0.0, "ratio_min": 1.0, "ratio_max": 1.0, "psd": True}
            else:
                summ = spectral_summary(make_approximator(joint, spec, i, y))
                entry = {
                    "norm": summ.operator_norm,
                    "ratio_min": 1.0 - summ.lambda_max,
                    "ratio_max": 1.0 - summ.lambda_min,
                    "psd": summ.psd,
                }
            table[(i, y)] = entry
    if not table:
        raise InvalidSpec("no supported conditionals found")
    norms = [e["norm"] for e in table.values()]
    rmins = [e["ratio_min"] for e in table.values()]
    rmaxs = [e["ratio_max"] for e in table.values()]
    return ApproxQuality(
        per_conditional=table,
        max_norm=float(max(norms)),
        ratio_min=float(min(rmins)),
        ratio_max=float(max(rmaxs)),
        all_psd=bool(all(e["psd"] for e in table.values())),
    )


# ---------------------------------------------------------------------------
# Norm-domination profiles and their power averages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NormProfile:
    """Per-z (or per-level) upper bounds on the inner kernels' operator norms."""

    values: np.ndarray
    kind: str  # "per_z" for two-block joints, "per_level" for slice models
    derivation: str  # "exact" or "supplied"

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-9):
            raise InvalidSpec("norm bounds must lie in [0, 1]")
        v = np.clip(v, 0.0, 1.0)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def _level_profile(summaries):
    """Exact per-level profile from the level kernels' spectral summaries."""
    values = [s.operator_norm for s in summaries]
    return NormProfile(values=values, kind="per_level", derivation="exact")


def _exact_inner_norms(source, spec=None):
    if isinstance(source, SliceModel):
        return np.array([s.operator_norm for s in level_summaries(source)]), "per_level"
    if spec is None:
        raise InvalidSpec("an approximator spec is required for joint models")
    d2 = source.space.sizes[1]
    vals = np.zeros(d2)
    qual = approx_quality(source, spec, coords=(0,))
    for (_i, y), entry in qual.per_conditional.items():
        vals[y[0]] = entry["norm"]
    return vals, "per_z"


def exact_norm_profile(source, spec=None):
    """Profile built from the exact per-kernel operator norms."""
    vals, kind = _exact_inner_norms(source, spec)
    return NormProfile(values=vals, kind=kind, derivation="exact")


def dominating_norm_profile(source, values, spec=None):
    """User-supplied profile, validated to dominate the exact norms."""
    exact_vals, kind = _exact_inner_norms(source, spec)
    v = np.asarray(values, dtype=float)
    if v.shape != exact_vals.shape:
        raise InvalidSpec(
            f"profile has length {v.size}, expected {exact_vals.size}"
        )
    bad = np.flatnonzero(v < exact_vals - 1e-10)
    if bad.size:
        k = int(bad[0])
        raise DominationViolated(
            f"profile value {v[k]:.12f} at position {k} is below the exact "
            f"kernel norm {exact_vals[k]:.12f}"
        )
    return NormProfile(values=v, kind=kind, derivation="supplied")


def mean_power_bound(source, profile, t):
    """Worst conditional average of the profile's t-th power.

    For a two-block joint this is max over supported y of
    sum_z P(z | y) * profile(z)^t; for a slice model the z-average is the
    exact piecewise-constant integral over the height interval.
    """
    return _power_bound(source, profile, t, power=1)


def rms_power_bound(source, profile, t):
    """Root-mean version of the power bound (uses the 2t-th power).

    Always at least the mean power bound, which is asserted here: the mean
    bound being the sharper of the two is exactly why it is preferred.
    """
    rms = _power_bound(source, profile, t, power=2)
    mean = _power_bound(source, profile, t, power=1)
    if mean > rms + 1e-12:
        raise CrossCheckFailure(
            f"mean power bound {mean:.15f} exceeds rms power bound {rms:.15f}"
        )
    return rms


def _power_bound(source, profile, t, power):
    t = int(t)
    if t < 1:
        raise ValueError("t must be a positive integer")
    g = profile.values ** (power * t)
    if isinstance(source, SliceModel):
        if profile.kind != "per_level":
            raise InvalidSpec("slice models need a per-level profile")
        if g.shape != source.levels.shape:
            raise InvalidSpec(f"profile has length {g.size}, expected {source.nlevels}")
        # y lies in G_1..G_k where density(y) = v_k, and its height interval
        # covers each of their level intervals whole: a prefix sum over levels.
        prefix = np.cumsum(np.diff(source.levels, prepend=0.0) * g)
        top = np.searchsorted(source.levels, source.density)
        worst = float(np.max(prefix[top] / source.density))
    else:
        if profile.kind != "per_z":
            raise InvalidSpec("two-block joints need a per-z profile")
        m1 = marginal(source, (0,)).weights
        worst = 0.0
        for y in range(source.space.sizes[0]):
            if m1[y] <= 0.0:
                continue
            cond2 = conditional(source, 1, (y,)).weights
            worst = max(worst, float(cond2 @ g))
    return worst ** (1.0 / power)


# ---------------------------------------------------------------------------
# Test-function batteries and quadratic forms
# ---------------------------------------------------------------------------


def function_battery(rev, trials=DEFAULT_TRIALS, seed=0):
    """Unit-norm mean-zero test functions: full eigenbasis plus random draws.

    Returns (F, labels) where F has one function per column, supported on the
    non-null states of the pair, each with unit stationary-L2 norm.
    """
    keep, _dropped, ws, d, vals, vecs, k0, _asym = _sym_eigs(rev)
    n = rev.n
    cols = []
    labels = []
    for k in range(vals.size):
        if k == k0:
            continue
        full = np.zeros(n)
        full[keep] = vecs[:, k] / d
        cols.append(full)
        labels.append({"kind": "eigenvector", "index": int(k)})
    rng = np.random.Generator(np.random.Philox(int(seed)))
    for j in range(int(trials)):
        g = rng.standard_normal(keep.size)
        g -= float(ws @ g)
        nrm = float(np.sqrt(ws @ (g * g)))
        if nrm < 1e-12:
            continue
        full = np.zeros(n)
        full[keep] = g / nrm
        cols.append(full)
        labels.append({"kind": "random", "draw": int(j)})
    if not cols:
        raise PreconditionUnmet("the mean-zero subspace is empty")
    return np.column_stack(cols), labels


def quadratic_forms(rev, F):
    """Per-column <f, K f> and |f|^2 in the stationary inner product."""
    w = rev.stationary.weights
    K = rev.kernel.matrix
    quad = np.einsum("i,ij,ij->j", w, F, K @ F)
    norms = np.einsum("i,ij,ij->j", w, F, F)
    return quad, norms


def dirichlet_forms(rev, F):
    quad, norms = quadratic_forms(rev, F)
    return norms - quad


def _worst(slack):
    i = int(np.argmin(slack))
    return i, float(slack[i])


# ---------------------------------------------------------------------------
# Random-scan checks
# ---------------------------------------------------------------------------


def check_dirichlet_sandwich(
    joint, p=None, spec=None, trials=DEFAULT_TRIALS, seed=0, tol=DEFAULT_TOL, fingerprint=""
):
    """Certify c1 * E_exact(f) <= E_hybrid(f) <= c2 * E_exact(f).

    The constants are the exact Dirichlet-ratio extremes of the approximating
    kernels; the battery is the eigenbasis of the exact chain plus ``trials``
    random mean-zero functions.
    """
    spec = spec if spec is not None else EXACT_SPEC
    fingerprint = fingerprint or model_fingerprint(joint, spec)
    qual = approx_quality(joint, spec)
    T = exact_random_scan(joint, p)
    Th = hybrid_random_scan(joint, p, spec)
    F, labels = function_battery(T, trials=trials, seed=seed)
    e_exact = dirichlet_forms(T, F)
    e_hybrid = dirichlet_forms(Th, F)
    i, _ = _worst(e_hybrid - qual.ratio_min * e_exact)
    j, _ = _worst(qual.ratio_max * e_exact - e_hybrid)
    return [
        make_report(
            "dirichlet-sandwich-lower",
            qual.ratio_min * e_exact[i],
            e_hybrid[i],
            tol,
            witness={"f": labels[i], "ratio_min": qual.ratio_min},
            fingerprint=fingerprint,
        ),
        make_report(
            "dirichlet-sandwich-upper",
            e_hybrid[j],
            qual.ratio_max * e_exact[j],
            tol,
            witness={"f": labels[j], "ratio_max": qual.ratio_max},
            fingerprint=fingerprint,
        ),
    ]


def check_gap_sandwich(joint, p=None, spec=None, tol=DEFAULT_TOL, fingerprint=""):
    """Certify (1-C)(1-|T|) <= 1-|T_hybrid| <= (1+C)(1-|T|).

    When every approximating kernel is psd the upper bound tightens to
    1-|T| itself.
    """
    spec = spec if spec is not None else EXACT_SPEC
    fingerprint = fingerprint or model_fingerprint(joint, spec)
    qual = approx_quality(joint, spec)
    gap_exact = spectral_summary(exact_random_scan(joint, p)).gap
    gap_hybrid = spectral_summary(hybrid_random_scan(joint, p, spec)).gap
    C = qual.max_norm
    upper = gap_exact if qual.all_psd else (1.0 + C) * gap_exact
    return [
        make_report(
            "gap-sandwich-lower",
            (1.0 - C) * gap_exact,
            gap_hybrid,
            tol,
            witness={"max_norm": C},
            fingerprint=fingerprint,
        ),
        make_report(
            "gap-sandwich-upper",
            gap_hybrid,
            upper,
            tol,
            witness={"max_norm": C, "psd_tightened": qual.all_psd},
            fingerprint=fingerprint,
        ),
    ]


def check_variance_sandwich(
    joint,
    p=None,
    spec=None,
    f=None,
    trials=8,
    seed=0,
    tol=DEFAULT_TOL,
    fingerprint="",
):
    """Certify the asymptotic-variance sandwich between exact and hybrid chains.

    For mean-zero f:  var_hybrid(f) lies between
    var_exact(f)/c2 + (1/c2 - 1)|f|^2 and var_exact(f)/c1 + (1/c1 - 1)|f|^2.
    Requires a positive exact gap and nondegenerate constants.
    """
    spec = spec if spec is not None else EXACT_SPEC
    fingerprint = fingerprint or model_fingerprint(joint, spec)
    qual = approx_quality(joint, spec)
    c1, c2 = qual.ratio_min, qual.ratio_max
    if c1 <= 1e-12:
        raise DegenerateConstants("the lower Dirichlet-ratio constant vanishes")
    if c2 >= 2.0 - 1e-12:
        raise DegenerateConstants("the upper Dirichlet-ratio constant reaches 2")
    T = exact_random_scan(joint, p)
    if spectral_summary(T).operator_norm >= 1.0 - 1e-12:
        raise NoSpectralGap("the exact chain has no spectral gap")
    Th = hybrid_random_scan(joint, p, spec)
    if f is not None:
        F = np.column_stack([np.asarray(f, dtype=float)])
        labels = [{"kind": "supplied"}]
    else:
        F, labels = function_battery(T, trials=trials, seed=seed)
    w = T.stationary.weights
    F = F - w @ F
    norms2 = np.einsum("i,ij,ij->j", w, F, F)
    var_exact = variances(T, F)
    var_hybrid = variances(Th, F)
    low = var_exact / c2 + (1.0 / c2 - 1.0) * norms2
    high = var_exact / c1 + (1.0 / c1 - 1.0) * norms2
    i, _ = _worst(var_hybrid - low)
    j, _ = _worst(high - var_hybrid)
    return [
        make_report(
            "variance-sandwich-lower",
            low[i],
            var_hybrid[i],
            tol,
            witness={"f": labels[i], "ratio_max": c2},
            fingerprint=fingerprint,
        ),
        make_report(
            "variance-sandwich-upper",
            var_hybrid[j],
            high[j],
            tol,
            witness={"f": labels[j], "ratio_min": c1},
            fingerprint=fingerprint,
        ),
    ]


# ---------------------------------------------------------------------------
# Data-augmentation checks
# ---------------------------------------------------------------------------


def _da_kernels(source, spec):
    """Exact and hybrid marginal chains plus inner-kernel psd flags."""
    if isinstance(source, SliceModel):
        summaries = level_summaries(source)
        S = slice_exact(source)
        Sh = slice_hybrid(source)
        profile = _level_profile(summaries)
        psd_flags = [s.psd for s in summaries]
    else:
        if spec is None:
            raise InvalidSpec("an approximator spec is required for joint models")
        S = da_exact(source)
        Sh = da_hybrid(source, spec)
        profile = exact_norm_profile(source, spec)
        qual = approx_quality(source, spec, coords=(0,))
        psd_flags = [e["psd"] for e in qual.per_conditional.values()]
    return S, Sh, profile, psd_flags


def check_da_gap_sandwich(joint, spec, tol=DEFAULT_TOL, fingerprint=""):
    """Certify (1-C)(1-|S|) <= 1-|S_hybrid| <= (1+C)(1-|S|) for the two-block
    marginal chain, with the psd tightening of the upper bound."""
    fingerprint = fingerprint or model_fingerprint(joint, spec)
    qual = approx_quality(joint, spec, coords=(0,))
    gap_exact = spectral_summary(da_exact(joint)).gap
    gap_hybrid = spectral_summary(da_hybrid(joint, spec)).gap
    C = qual.max_norm
    upper = gap_exact if qual.all_psd else (1.0 + C) * gap_exact
    return [
        make_report(
            "da-gap-sandwich-lower",
            (1.0 - C) * gap_exact,
            gap_hybrid,
            tol,
            witness={"max_norm": C},
            fingerprint=fingerprint,
        ),
        make_report(
            "da-gap-sandwich-upper",
            gap_hybrid,
            upper,
            tol,
            witness={"max_norm": C, "psd_tightened": qual.all_psd},
            fingerprint=fingerprint,
        ),
    ]


def check_da_tstep(
    source,
    spec=None,
    t=2,
    trials=DEFAULT_TRIALS,
    seed=0,
    tol=DEFAULT_TOL,
    fingerprint="",
    profile=None,
):
    """Certify the t-step comparison for (hybrid) data augmentation.

    Functional part, over the eigenbasis of the hybrid chain plus random f:
    0 <= (<f, S_hybrid f>)^t <= <f, S f> + a_t, where a_t is the worst
    conditional average of the t-th power of the inner-norm profile.
    Spectral part: t * (1 - |S_hybrid|) >= 1 - |S_hybrid|^t >= 1 - |S| - a_t.
    Needs t even or all inner kernels psd.
    """
    t = int(t)
    if t < 1:
        raise ValueError("t must be a positive integer")
    fingerprint = fingerprint or model_fingerprint(source, spec)
    S, Sh, exact_profile, psd_flags = _da_kernels(source, spec)
    if t % 2 == 1 and not all(psd_flags):
        raise PreconditionUnmet(
            "odd t needs every inner kernel positive semi-definite"
        )
    profile = profile if profile is not None else exact_profile
    a_t = mean_power_bound(source, profile, t)
    F, labels = function_battery(Sh, trials=trials, seed=seed)
    quad_h, norms_h = quadratic_forms(Sh, F)
    quad_s, _ = quadratic_forms(S, F)
    lhs_all = (quad_h / norms_h) ** t
    rhs_all = quad_s / norms_h + a_t
    i, _ = _worst(rhs_all - lhs_all)
    norm_s = spectral_summary(S).operator_norm
    norm_h = spectral_summary(Sh).operator_norm
    reports = [
        make_report(
            "da-tstep-functional",
            lhs_all[i],
            rhs_all[i],
            tol,
            witness={"t": t, "alpha": a_t, "f": labels[i], "min_lhs": float(lhs_all.min())},
            fingerprint=fingerprint,
        ),
        make_report(
            "da-tstep-bernoulli",
            1.0 - norm_h**t,
            t * (1.0 - norm_h),
            tol,
            witness={"t": t, "hybrid_norm": norm_h},
            fingerprint=fingerprint,
        ),
        make_report(
            "da-tstep-gap-lower",
            1.0 - norm_s - a_t,
            1.0 - norm_h**t,
            tol,
            witness={"t": t, "alpha": a_t, "exact_norm": norm_s},
            fingerprint=fingerprint,
        ),
    ]
    return reports


def check_da_variance_tstep(
    source, spec=None, t=2, trials=16, seed=0, tol=DEFAULT_TOL, fingerprint=""
):
    """Certify var_hybrid(f) <= 2t var_exact(f) + (2t-1) |f|^2 for the
    two-block marginal chains, under the hypothesis that the t-step power
    average a_t is at most half the exact gap.  When the hypothesis fails the
    single returned report carries status hypothesis_unmet."""
    t = int(t)
    fingerprint = fingerprint or model_fingerprint(source, spec)
    S, Sh, profile, _psd = _da_kernels(source, spec)
    summ_s = spectral_summary(S)
    if summ_s.operator_norm >= 1.0 - 1e-12:
        raise NoSpectralGap("the exact marginal chain has no spectral gap")
    if t % 2 == 1 and not summ_s.psd:
        raise PreconditionUnmet("odd t needs the exact marginal chain psd")
    a_t = mean_power_bound(source, profile, t)
    half_gap = (1.0 - summ_s.operator_norm) / 2.0
    if a_t > half_gap:
        return [
            make_report(
                "da-variance-tstep",
                a_t,
                half_gap,
                tol,
                witness={"t": t, "hypothesis": "alpha exceeds half the exact gap"},
                fingerprint=fingerprint,
                hypothesis_ok=False,
            )
        ]
    if spectral_summary(Sh).operator_norm >= 1.0 - 1e-12:
        raise NoSpectralGap("the hybrid marginal chain has no spectral gap")
    F, labels = function_battery(Sh, trials=trials, seed=seed)
    w = S.stationary.weights
    F = F - w @ F
    norms2 = np.einsum("i,ij,ij->j", w, F, F)
    v_exact = variances(S, F)
    v_hybrid = variances(Sh, F)
    bound = 2.0 * t * v_exact + (2.0 * t - 1.0) * norms2
    i, _ = _worst(bound - v_hybrid)
    return [
        make_report(
            "da-variance-tstep",
            v_hybrid[i],
            bound[i],
            tol,
            witness={"t": t, "alpha": a_t, "f": labels[i]},
            fingerprint=fingerprint,
        )
    ]


# ---------------------------------------------------------------------------
# Block comparison
# ---------------------------------------------------------------------------


def check_block_comparison(
    joint, ell, m, trials=DEFAULT_TRIALS, seed=0, tol=DEFAULT_TOL, fingerprint=""
):
    """Compare block random scans touching ell versus m coordinates (m < ell).

    The m-scan is the ell-scan with each block conditional replaced by an
    inner random scan, so with c1 the worst inner Dirichlet-ratio minimum:
    c1 (1 - |T_ell|) <= 1 - |T_m| <= 1 - |T_ell|, the same chain holds for
    Dirichlet forms, and the variances are ordered when both gaps are
    positive.
    """
    n = joint.space.ncoords
    ell = int(ell)
    m = int(m)
    if not 1 <= m < ell <= n - 1:
        raise InvalidBlockSize(
            f"need 1 <= m < l <= {n - 1}, got (l, m) = ({ell}, {m})"
        )
    fingerprint = fingerprint or model_fingerprint(joint)
    T_ell = block_random_scan(joint, ell)
    T_m = block_random_scan(joint, m)
    c1 = np.inf
    c1_at = None
    for coords in combinations(range(n), ell):
        for y in joint.space.complement_configs(coords):
            idx = joint.space.subspace_indices(coords, y)
            if joint.weights[idx].sum() <= 0.0:
                continue
            inner = inner_block_kernel(joint, coords, y, m)
            rmin, _rmax = dirichlet_ratio_extrema(inner)
            if rmin < c1:
                c1 = rmin
                c1_at = {"block": list(coords), "complement": list(y)}
    gap_ell = spectral_summary(T_ell).gap
    gap_m = spectral_summary(T_m).gap
    F, labels = function_battery(T_ell, trials=trials, seed=seed)
    e_ell = dirichlet_forms(T_ell, F)
    e_m = dirichlet_forms(T_m, F)
    i, _ = _worst(e_m - c1 * e_ell)
    j, _ = _worst(e_ell - e_m)
    reports = [
        make_report(
            "block-gap-lower",
            c1 * gap_ell,
            gap_m,
            tol,
            witness={"c1": float(c1), "c1_at": c1_at, "ell": ell, "m": m},
            fingerprint=fingerprint,
        ),
        make_report(
            "block-gap-upper",
            gap_m,
            gap_ell,
            tol,
            witness={"ell": ell, "m": m},
            fingerprint=fingerprint,
        ),
        make_report(
            "block-dirichlet-lower",
            c1 * e_ell[i],
            e_m[i],
            tol,
            witness={"f": labels[i], "c1": float(c1), "ell": ell, "m": m},
            fingerprint=fingerprint,
        ),
        make_report(
            "block-dirichlet-upper",
            e_m[j],
            e_ell[j],
            tol,
            witness={"f": labels[j], "ell": ell, "m": m},
            fingerprint=fingerprint,
        ),
    ]
    if gap_ell > 1e-12 and gap_m > 1e-12:
        v_ell = variances(T_ell, F)
        v_m = variances(T_m, F)
        k, _ = _worst(v_m - v_ell)
        reports.append(
            make_report(
                "block-variance-order",
                v_ell[k],
                v_m[k],
                tol,
                witness={"f": labels[k], "ell": ell, "m": m},
                fingerprint=fingerprint,
            )
        )
    else:
        reports.append(
            make_report(
                "block-variance-order",
                0.0,
                0.0,
                tol,
                witness={"hypothesis": "a block chain has no spectral gap", "ell": ell, "m": m},
                fingerprint=fingerprint,
                hypothesis_ok=False,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Selection-probability and uniform-selection power bounds
# ---------------------------------------------------------------------------


def check_selection_reweighting(joint, p, p_alt, spec, tol=DEFAULT_TOL, fingerprint=""):
    """Certify how spectral gaps transfer between selection-probability vectors.

    With b the exact gap ratio of the exact chains, the hybrid gaps satisfy
    gap_hybrid(p) >= b (1-C)/(1+C) gap_hybrid(p'), tightened to b (1-C) when
    every approximating kernel is psd; and the min-ratio reweighting
    inequality holds for the exact and hybrid pairs alike.
    """
    n = joint.space.ncoords
    sel = selection_probs(p, n)
    sel_alt = selection_probs(p_alt, n)
    if np.any(sel.p <= 0.0) or np.any(sel_alt.p <= 0.0):
        raise ZeroSelectionProb("selection probabilities must be strictly positive")
    fingerprint = fingerprint or model_fingerprint(joint, spec)
    qual = approx_quality(joint, spec)
    C = qual.max_norm
    gap_t = spectral_summary(exact_random_scan(joint, sel)).gap
    gap_t_alt = spectral_summary(exact_random_scan(joint, sel_alt)).gap
    gap_h = spectral_summary(hybrid_random_scan(joint, sel, spec)).gap
    gap_h_alt = spectral_summary(hybrid_random_scan(joint, sel_alt, spec)).gap
    r = float(np.min(sel.p / sel_alt.p))
    reports = [
        make_report(
            "selection-minratio-exact",
            r * gap_t_alt,
            gap_t,
            tol,
            witness={"min_ratio": r},
            fingerprint=fingerprint,
        ),
        make_report(
            "selection-minratio-hybrid",
            r * gap_h_alt,
            gap_h,
            tol,
            witness={"min_ratio": r},
            fingerprint=fingerprint,
        ),
    ]
    if gap_t_alt <= 1e-14:
        reports.insert(
            0,
            make_report(
                "selection-hybrid-transfer",
                0.0,
                gap_h,
                tol,
                witness={"hypothesis": "reference exact chain has no gap"},
                fingerprint=fingerprint,
                hypothesis_ok=False,
            ),
        )
        return reports
    b = gap_t / gap_t_alt
    factor = b * (1.0 - C) if qual.all_psd else b * (1.0 - C) / (1.0 + C)
    reports.insert(
        0,
        make_report(
            "selection-hybrid-transfer",
            factor * gap_h_alt,
            gap_h,
            tol,
            witness={"b": float(b), "max_norm": C, "psd_tightened": qual.all_psd},
            fingerprint=fingerprint,
        ),
    )
    return reports


def check_uniform_tstep_bound(joint, p=None, spec=None, t=1, tol=DEFAULT_TOL, fingerprint=""):
    """Certify the coarse uniform-selection power bound
    1 - |T_hybrid| >= n^{-(t-1)} (1 - |T| - C^t), and that the one-step
    sandwich lower bound dominates it whenever 1 - |T| - C^t >= 0."""
    n = joint.space.ncoords
    if n < 2:
        raise PreconditionUnmet("the power bound needs at least two coordinates")
    sel = selection_probs(p, n)
    if np.abs(sel.p - 1.0 / n).max() > 1e-12:
        raise NonUniformSelection("this bound is stated for uniform selection")
    t = int(t)
    if t < 1:
        raise ValueError("t must be a positive integer")
    spec = spec if spec is not None else EXACT_SPEC
    fingerprint = fingerprint or model_fingerprint(joint, spec)
    qual = approx_quality(joint, spec)
    C = qual.max_norm
    norm_t = spectral_summary(exact_random_scan(joint, sel)).operator_norm
    gap_h = spectral_summary(hybrid_random_scan(joint, sel, spec)).gap
    raw = 1.0 - norm_t - C**t
    power_bound = raw / n ** (t - 1)
    sandwich_bound = (1.0 - C) * (1.0 - norm_t)
    return [
        make_report(
            "uniform-power-lower",
            power_bound,
            gap_h,
            tol,
            witness={"t": t, "max_norm": C},
            fingerprint=fingerprint,
        ),
        make_report(
            "uniform-power-dominated",
            power_bound,
            sandwich_bound,
            tol,
            witness={"t": t, "nontrivial": bool(raw >= 0.0)},
            fingerprint=fingerprint,
            hypothesis_ok=bool(raw >= 0.0),
        ),
    ]


# ---------------------------------------------------------------------------
# Slice checks
# ---------------------------------------------------------------------------


def check_slice_tstep(model, t, tol=DEFAULT_TOL, fingerprint="", profile=None):
    """Certify (1 - |S| - a_t)/t <= 1 - |S_hybrid| <= 1 - |S| for a slice model.

    The tightened upper bound needs every per-level kernel psd; otherwise the
    upper half falls back to the one-step sandwich (1 + C)(1 - |S|).  The
    looser rms-based lower bound is certified alongside, together with the
    ordering a_t <= b_t that makes the mean-based bound the sharper one.
    """
    t = int(t)
    if t < 1:
        raise ValueError("t must be a positive integer")
    fingerprint = fingerprint or model_fingerprint(model)
    summaries = level_summaries(model)
    all_psd = all(s.psd for s in summaries)
    if t % 2 == 1 and not all_psd:
        raise PreconditionUnmet("odd t needs every per-level kernel psd")
    S = slice_exact(model)
    Sh = slice_hybrid(model)
    profile = profile if profile is not None else _level_profile(summaries)
    a_t = mean_power_bound(model, profile, t)
    b_t = rms_power_bound(model, profile, t)
    gap_exact = spectral_summary(S).gap
    gap_hybrid = spectral_summary(Sh).gap
    worst_norm = max(s.operator_norm for s in summaries)
    upper = gap_exact if all_psd else (1.0 + worst_norm) * gap_exact
    return [
        make_report(
            "slice-tstep-lower",
            (gap_exact - a_t) / t,
            gap_hybrid,
            tol,
            witness={"t": t, "alpha": a_t},
            fingerprint=fingerprint,
        ),
        make_report(
            "slice-tstep-upper",
            gap_hybrid,
            upper,
            tol,
            witness={"t": t, "psd_tightened": all_psd},
            fingerprint=fingerprint,
        ),
        make_report(
            "slice-tstep-lower-rms",
            (gap_exact - b_t) / t,
            gap_hybrid,
            tol,
            witness={"t": t, "beta": b_t},
            fingerprint=fingerprint,
        ),
        make_report(
            "slice-power-bound-order",
            a_t,
            b_t,
            1e-12,
            witness={"t": t},
            fingerprint=fingerprint,
        ),
    ]
