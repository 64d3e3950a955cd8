"""Certification of the comparison inequalities between exact and hybrid chains.

Every check computes both sides of one family of inequalities exactly (dense
spectra, exact Dirichlet forms, exact conditional averages) and returns a list
of BoundReports, one per atomic inequality, each carrying the worst observed
slack and a witness for where it occurred.  The checks are methods of an
``Analysis``, which builds each kernel of a model once and decomposes it
once.

Test-function batteries consist of the full eigenbasis of the relevant
symmetrized kernel plus seeded random mean-zero vectors: the extremal
functions for any spectral statement are eigenvectors, while the random draws
guard against indexing mistakes.  All batteries are normalized to unit norm in
L2 of the stationary distribution so slacks are on a common scale.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .approximators import EXACT_SPEC, Exact, Lazy, make_approximator
from .errors import (
    CrossCheckFailure,
    DegenerateConstants,
    DimensionMismatch,
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
    NULL_MASS,
    _sym_eigs,
    dirichlet_ratio_extrema,
    eigvals_summary,
    memoize,
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
    return _aggregate(table)


def _aggregate(table):
    """ApproxQuality over a per-conditional table."""
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


def dominating_norm_profile(source, values, spec=None):
    """User-supplied profile, validated to dominate the exact norms."""
    exact_vals, kind = Analysis(source, spec=spec).inner_norms()
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


def _two_coordinate_scan_gap(p, eps, da_gap):
    """Spectral gap of a two-coordinate random-scan chain, from the gap of
    the exact DA chain.

    The chain updates coordinate i with probability p_i by
    eps_i I + (1 - eps_i) P_i, where P_i is the projection that redraws it
    from its conditional (eps_i = 0 for an exact update).  It is
    c I + a_0 P_0 + a_1 P_1 with c = sum p_i eps_i and a_i = p_i (1 - eps_i).
    By the two-subspace theorem (Halmos, Trans. AMS 144, 1969) each DA
    eigenvalue 1 - g on mean-zero functions gives the pair
    c + (s +- sqrt(s^2 - 4 a_0 a_1 g)) / 2 with s = a_0 + a_1; the other
    eigenvalues, c + a_i and c, lie below the largest pair.  The gap is
    therefore 2 a_0 a_1 g / (s + sqrt(s^2 - 4 a_0 a_1 g)) at the DA gap g.
    This holds when both coordinates take at least two values and no
    state is null; elsewhere the theorem's subspaces change.
    """
    a0, a1 = np.asarray(p, dtype=float) * (1.0 - np.asarray(eps, dtype=float))
    s = a0 + a1
    num = 2.0 * a0 * a1 * da_gap
    return float(num / (s + np.sqrt(max(s * s - 2.0 * num, 0.0))))


def _gap_sandwich(name, exact, hybrid, qual, tol, fingerprint):
    """Reports ``name``-lower/-upper: (1-C)(1-|exact|) <= 1-|hybrid| <=
    (1+C)(1-|exact|) with C = ``qual.max_norm``, the upper bound tightened
    to 1-|exact| when every approximating kernel is psd."""
    gap_exact = spectral_summary(exact).gap
    gap_hybrid = spectral_summary(hybrid).gap
    C = qual.max_norm
    upper = gap_exact if qual.all_psd else (1.0 + C) * gap_exact
    return [
        make_report(
            f"{name}-lower",
            (1.0 - C) * gap_exact,
            gap_hybrid,
            tol,
            witness={"max_norm": C},
            fingerprint=fingerprint,
        ),
        make_report(
            f"{name}-upper",
            gap_hybrid,
            upper,
            tol,
            witness={"max_norm": C, "psd_tightened": qual.all_psd},
            fingerprint=fingerprint,
        ),
    ]


# ---------------------------------------------------------------------------
# The shared analysis of one model
# ---------------------------------------------------------------------------


class Analysis:
    """The kernels, decompositions and approximation quality that the checks
    on one model read.

    ``source`` is a joint distribution or a SliceModel; ``p`` and ``spec`` are
    the random-scan selection probabilities and the approximator spec of a
    joint.  The data-augmentation (DA) pair of a joint is its two-block
    marginal chains, that of a slice model its slice chains.  Each kernel is
    built on first use and memoized, so it is decomposed at most once, and
    everything lives as long as this object.  ``run_suite`` builds one
    Analysis per run; a single check is ``Analysis(source, p, spec).<check>()``.
    """

    def __init__(self, source, p=None, spec=None):
        self.source = source
        self.spec = spec
        self.is_slice = isinstance(source, SliceModel)
        if not self.is_slice:
            self.sel = selection_probs(p, source.space.ncoords)
        self._coord_quality = {}
        self._blocks = {}

    # -- kernels and their quality -------------------------------------------

    @property
    def scan_spec(self):
        """The spec of the random-scan chains: Exact when none was given."""
        return self.spec if self.spec is not None else EXACT_SPEC

    @property
    def uniform_selection(self):
        """Whether every selection probability is within 1e-12 of 1/n."""
        return bool(np.abs(self.sel.p - 1.0 / self.sel.n).max() <= 1e-12)

    def _da_spec(self):
        if self.spec is None:
            raise InvalidSpec("an approximator spec is required for joint models")
        return self.spec

    @cached_property
    def T(self):
        """The exact random-scan pair."""
        return memoize(exact_random_scan(self.source, self.sel))

    @cached_property
    def Th(self):
        """The hybrid random-scan pair."""
        return memoize(hybrid_random_scan(self.source, self.sel, self.scan_spec))

    def _coordinate_quality(self, i):
        """ApproxQuality of coordinate ``i``'s conditionals, computed once."""
        if i not in self._coord_quality:
            self._coord_quality[i] = approx_quality(self.source, self.scan_spec, coords=(i,))
        return self._coord_quality[i]

    @cached_property
    def quality(self):
        """ApproxQuality over every coordinate, for the random-scan checks."""
        table = {}
        for i in range(self.source.space.ncoords):
            table.update(self._coordinate_quality(i).per_conditional)
        return _aggregate(table)

    @cached_property
    def da_quality(self):
        """ApproxQuality of the first coordinate's conditionals: the inner
        kernels of the DA chain of a joint."""
        self._da_spec()
        return self._coordinate_quality(0)

    @cached_property
    def levels(self):
        """Spectral summary of each level kernel of a slice model."""
        return level_summaries(self.source)

    @cached_property
    def S(self):
        """The exact DA pair."""
        if self.is_slice:
            return memoize(slice_exact(self.source))
        return memoize(da_exact(self.source))

    @cached_property
    def Sh(self):
        """The hybrid DA pair."""
        if self.is_slice:
            return memoize(slice_hybrid(self.source))
        return memoize(da_hybrid(self.source, self._da_spec()))

    def inner_norms(self):
        """Exact operator norms of the DA chain's inner kernels, with their
        profile kind: per level of a slice model, per z of a joint."""
        if self.is_slice:
            return np.array([s.operator_norm for s in self.levels]), "per_level"
        if self.source.space.ncoords != 2:
            raise DimensionMismatch(
                "the DA chain's inner kernels need a joint of exactly two "
                f"coordinates, got {self.source.space.ncoords}"
            )
        vals = np.zeros(self.source.space.sizes[1])
        for (_i, y), entry in self.da_quality.per_conditional.items():
            vals[y[0]] = entry["norm"]
        return vals, "per_z"

    @cached_property
    def inner_profile(self):
        """The exact norm profile of the DA chain's inner kernels."""
        vals, kind = self.inner_norms()
        return NormProfile(values=vals, kind=kind, derivation="exact")

    def _inner_all_psd(self):
        if self.is_slice:
            return all(s.psd for s in self.levels)
        return self.da_quality.all_psd

    def block(self, ell):
        """The block random-scan pair updating ``ell`` coordinates.

        Under uniform selection the one-coordinate block chain adds the same
        updates with the same weights in the same order as the exact random
        scan, so it is that pair, bit for bit.
        """
        if ell not in self._blocks:
            n = self.source.space.ncoords
            if ell == 1 and np.all(self.sel.p == 1.0 / n):
                self._blocks[ell] = self.T
            else:
                self._blocks[ell] = memoize(block_random_scan(self.source, ell))
        return self._blocks[ell]

    # -- random-scan checks ---------------------------------------------------

    def dirichlet_sandwich(self, trials=DEFAULT_TRIALS, seed=0, tol=DEFAULT_TOL, fingerprint=""):
        """Certify c1 * E_exact(f) <= E_hybrid(f) <= c2 * E_exact(f).

        The constants are the exact Dirichlet-ratio extremes of the
        approximating kernels; the battery is the eigenbasis of the exact
        chain plus ``trials`` random mean-zero functions.
        """
        fingerprint = fingerprint or model_fingerprint(self.source, self.scan_spec)
        qual = self.quality
        F, labels = function_battery(self.T, trials=trials, seed=seed)
        e_exact = dirichlet_forms(self.T, F)
        e_hybrid = dirichlet_forms(self.Th, F)
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

    def gap_sandwich(self, tol=DEFAULT_TOL, fingerprint=""):
        """Certify the gap sandwich of ``_gap_sandwich`` between the exact
        and hybrid random-scan chains T and T_hybrid."""
        fingerprint = fingerprint or model_fingerprint(self.source, self.scan_spec)
        return _gap_sandwich("gap-sandwich", self.T, self.Th, self.quality, tol, fingerprint)

    def variance_sandwich(self, f=None, trials=8, seed=0, tol=DEFAULT_TOL, fingerprint=""):
        """Certify the asymptotic-variance sandwich between exact and hybrid
        chains.

        For mean-zero f:  var_hybrid(f) lies between
        var_exact(f)/c2 + (1/c2 - 1)|f|^2 and var_exact(f)/c1 + (1/c1 - 1)|f|^2.
        Requires a positive exact gap and nondegenerate constants.
        """
        fingerprint = fingerprint or model_fingerprint(self.source, self.scan_spec)
        qual = self.quality
        c1, c2 = qual.ratio_min, qual.ratio_max
        if c1 <= 1e-12:
            raise DegenerateConstants("the lower Dirichlet-ratio constant vanishes")
        if c2 >= 2.0 - 1e-12:
            raise DegenerateConstants("the upper Dirichlet-ratio constant reaches 2")
        T = self.T
        if spectral_summary(T).operator_norm >= 1.0 - 1e-12:
            raise NoSpectralGap("the exact chain has no spectral gap")
        if f is not None:
            F = np.column_stack([np.asarray(f, dtype=float)])
            labels = [{"kind": "supplied"}]
        else:
            F, labels = function_battery(T, trials=trials, seed=seed)
        w = T.stationary.weights
        F = F - w @ F
        norms2 = np.einsum("i,ij,ij->j", w, F, F)
        var_exact = variances(T, F)
        var_hybrid = variances(self.Th, F)
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

    # -- data-augmentation checks ---------------------------------------------

    def da_gap_sandwich(self, tol=DEFAULT_TOL, fingerprint=""):
        """Certify the gap sandwich of ``_gap_sandwich`` between the exact
        and hybrid DA chains S and S_hybrid."""
        fingerprint = fingerprint or model_fingerprint(self.source, self.spec)
        return _gap_sandwich("da-gap-sandwich", self.S, self.Sh, self.da_quality, tol, fingerprint)

    def da_tstep(
        self, t=2, trials=DEFAULT_TRIALS, seed=0, tol=DEFAULT_TOL, fingerprint="", profile=None
    ):
        """Certify the t-step comparison for (hybrid) data augmentation.

        Functional part, over the eigenbasis of the hybrid chain plus random
        f: 0 <= (<f, S_hybrid f>)^t <= <f, S f> + a_t, where a_t is the worst
        conditional average of the t-th power of the inner-norm profile.
        Spectral part: t * (1 - |S_hybrid|) >= 1 - |S_hybrid|^t >= 1 - |S| - a_t.
        Needs t even or all inner kernels psd.
        """
        t = int(t)
        if t < 1:
            raise ValueError("t must be a positive integer")
        fingerprint = fingerprint or model_fingerprint(self.source, self.spec)
        if t % 2 == 1 and not self._inner_all_psd():
            raise PreconditionUnmet(
                "odd t needs every inner kernel positive semi-definite"
            )
        profile = profile if profile is not None else self.inner_profile
        a_t = mean_power_bound(self.source, profile, t)
        S, Sh = self.S, self.Sh
        F, labels = function_battery(Sh, trials=trials, seed=seed)
        quad_h, norms_h = quadratic_forms(Sh, F)
        quad_s, _ = quadratic_forms(S, F)
        lhs_all = (quad_h / norms_h) ** t
        rhs_all = quad_s / norms_h + a_t
        i, _ = _worst(rhs_all - lhs_all)
        norm_s = spectral_summary(S).operator_norm
        norm_h = spectral_summary(Sh).operator_norm
        return [
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

    def da_variance_tstep(self, t=2, trials=16, seed=0, tol=DEFAULT_TOL, fingerprint=""):
        """Certify var_hybrid(f) <= 2t var_exact(f) + (2t-1) |f|^2 for the
        two-block marginal chains, under the hypothesis that the t-step power
        average a_t is at most half the exact gap.  When the hypothesis fails
        the single returned report carries status hypothesis_unmet."""
        t = int(t)
        fingerprint = fingerprint or model_fingerprint(self.source, self.spec)
        S, Sh = self.S, self.Sh
        summ_s = spectral_summary(S)
        if summ_s.operator_norm >= 1.0 - 1e-12:
            raise NoSpectralGap("the exact marginal chain has no spectral gap")
        if t % 2 == 1 and not summ_s.psd:
            raise PreconditionUnmet("odd t needs the exact marginal chain psd")
        a_t = mean_power_bound(self.source, self.inner_profile, t)
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

    # -- block comparison -----------------------------------------------------

    def block_comparison(self, ell, m, trials=DEFAULT_TRIALS, seed=0, tol=DEFAULT_TOL, fingerprint=""):
        """Compare block random scans touching ell versus m coordinates (m < ell).

        The m-scan is the ell-scan with each block conditional replaced by an
        inner random scan, so with c1 the worst inner Dirichlet-ratio minimum:
        c1 (1 - |T_ell|) <= 1 - |T_m| <= 1 - |T_ell|, the same chain holds for
        Dirichlet forms, and the variances are ordered when both gaps are
        positive.
        """
        joint = self.source
        n = joint.space.ncoords
        ell = int(ell)
        m = int(m)
        if not 1 <= m < ell <= n - 1:
            raise InvalidBlockSize(
                f"need 1 <= m < l <= {n - 1}, got (l, m) = ({ell}, {m})"
            )
        fingerprint = fingerprint or model_fingerprint(joint)
        T_ell = self.block(ell)
        T_m = self.block(m)
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

    # -- selection-probability and uniform-selection power bounds -------------

    def _closed_form_scan_gaps(self, sel):
        """Gaps of the exact and hybrid random-scan chains under ``sel`` from
        ``_two_coordinate_scan_gap``, each None where the formula does not
        cover the chain.

        It covers a joint of two coordinates, each taking at least two
        values, whose weights all reach NULL_MASS; the hybrid chain also
        needs every rule to be Exact or Lazy(eps) with eps < 1.  Each call
        checks the formula at this analysis's own selection probabilities
        against the decomposed pairs T and Th.
        """
        joint = self.source
        if (
            joint.space.ncoords != 2
            or min(joint.space.sizes) < 2
            or np.any(joint.weights < NULL_MASS)
        ):
            return None, None
        chains = [("exact", (0.0, 0.0), self.T)]
        eps = []
        for i in range(2):
            rule = self.scan_spec.rule_for(i)
            if isinstance(rule, Exact):
                eps.append(0.0)
            elif isinstance(rule, Lazy) and rule.epsilon < 1.0:
                eps.append(float(rule.epsilon))
        if len(eps) == 2:
            chains.append(("hybrid", tuple(eps), self.Th))
        da_gap = spectral_summary(self.S).gap
        gaps = [None, None]
        for k, (name, chain_eps, pair) in enumerate(chains):
            own = _two_coordinate_scan_gap(self.sel.p, chain_eps, da_gap)
            decomposed = spectral_summary(pair).gap
            if abs(own - decomposed) > 1e-10:
                raise CrossCheckFailure(
                    f"the {name} random-scan gap {decomposed:.12e} differs from "
                    f"its closed form {own:.12e} in the DA gap"
                )
            gaps[k] = _two_coordinate_scan_gap(sel.p, chain_eps, da_gap)
        return tuple(gaps)

    def selection_reweighting(self, p_alt, tol=DEFAULT_TOL, fingerprint=""):
        """Certify how spectral gaps transfer from the selection probabilities
        ``p_alt`` to this analysis's own.

        With b the exact gap ratio of the exact chains, the hybrid gaps
        satisfy gap_hybrid(p) >= b (1-C)/(1+C) gap_hybrid(p'), tightened to
        b (1-C) when every approximating kernel is psd; and the min-ratio
        reweighting inequality holds for the exact and hybrid pairs alike.
        Only the gaps under ``p_alt`` are read: from the DA gap where
        ``_closed_form_scan_gaps`` covers the chain, otherwise from the
        spectrum of the chain built under ``p_alt``.
        """
        joint = self.source
        sel = self.sel
        sel_alt = selection_probs(p_alt, joint.space.ncoords)
        if np.any(sel.p <= 0.0) or np.any(sel_alt.p <= 0.0):
            raise ZeroSelectionProb("selection probabilities must be strictly positive")
        fingerprint = fingerprint or model_fingerprint(joint, self.spec)
        qual = self.quality
        C = qual.max_norm
        gap_t = spectral_summary(self.T).gap
        gap_h = spectral_summary(self.Th).gap
        gap_t_alt, gap_h_alt = self._closed_form_scan_gaps(sel_alt)
        if gap_t_alt is None:
            gap_t_alt = eigvals_summary(exact_random_scan(joint, sel_alt)).gap
        if gap_h_alt is None:
            gap_h_alt = eigvals_summary(hybrid_random_scan(joint, sel_alt, self.scan_spec)).gap
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

    def uniform_tstep_bound(self, t=1, tol=DEFAULT_TOL, fingerprint=""):
        """Certify the coarse uniform-selection power bound
        1 - |T_hybrid| >= n^{-(t-1)} (1 - |T| - C^t), and that the one-step
        sandwich lower bound dominates it whenever 1 - |T| - C^t >= 0."""
        n = self.source.space.ncoords
        if n < 2:
            raise PreconditionUnmet("the power bound needs at least two coordinates")
        if not self.uniform_selection:
            raise NonUniformSelection("this bound is stated for uniform selection")
        t = int(t)
        if t < 1:
            raise ValueError("t must be a positive integer")
        fingerprint = fingerprint or model_fingerprint(self.source, self.scan_spec)
        C = self.quality.max_norm
        norm_t = spectral_summary(self.T).operator_norm
        gap_h = spectral_summary(self.Th).gap
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

    # -- slice checks ---------------------------------------------------------

    def slice_tstep(self, t, tol=DEFAULT_TOL, fingerprint="", profile=None):
        """Certify (1 - |S| - a_t)/t <= 1 - |S_hybrid| <= 1 - |S| for a slice
        model.

        The tightened upper bound needs every per-level kernel psd; otherwise
        the upper half falls back to the one-step sandwich (1 + C)(1 - |S|).
        The looser rms-based lower bound is certified alongside, together with
        the ordering a_t <= b_t that makes the mean-based bound the sharper one.
        """
        t = int(t)
        if t < 1:
            raise ValueError("t must be a positive integer")
        model = self.source
        fingerprint = fingerprint or model_fingerprint(model)
        all_psd = self._inner_all_psd()
        if t % 2 == 1 and not all_psd:
            raise PreconditionUnmet("odd t needs every per-level kernel psd")
        profile = profile if profile is not None else self.inner_profile
        a_t = mean_power_bound(model, profile, t)
        b_t = rms_power_bound(model, profile, t)
        gap_exact = spectral_summary(self.S).gap
        gap_hybrid = spectral_summary(self.Sh).gap
        worst_norm = max(s.operator_norm for s in self.levels)
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
