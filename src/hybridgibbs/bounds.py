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
from functools import cached_property, wraps
from itertools import combinations

import numpy as np

from .approximators import EXACT_SPEC, Exact, Lazy, checked_spec
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
    SpaceTooLarge,
    ZeroSelectionProb,
    as_tuple,
    instance_of,
    positive_int,
    positive_tol,
)
from .gibbs import (
    SOURCES,
    ConditionalTable,
    _check_two_block,
    _conditionals,
    _hybrid_marginal_chain,
    _inner_kernels,
    _scan_chain,
    _scan_root,
    _two_block_parts,
    block_random_scan,
    block_scans,
    da_exact,
    has_gram_root,
)
from .randomgen import rng_from
from .report import fingerprint_bytes, make_report
from .slicemodel import SliceModel, _level_pairs
from .space import JointDistribution, ProductSpace, selection_probs, slices, state_cap
from .spectral import (
    ReversiblePair,
    _floats,
    _steps,
    affine,
    as_values,
    checked_stack,
    eigvals_summary,
    gram_factor,
    spectral_summary,
    stacked_summaries,
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
    spec = checked_spec(spec)
    space = instance_of(joint, JointDistribution, "joint").space
    coords = range(space.ncoords) if coords is None else as_tuple(coords, "coords")
    table = {}
    for i in coords:
        table.update(_table_quality(ConditionalTable(joint, i), spec))
    return _aggregate(table)


def _table_quality(table, spec):
    """Entries of every live conditional of a ConditionalTable, keyed
    (i, y) in order, from the table's verified stack of kernels by
    ``stacked_summaries``."""
    i, rule = table.i, spec.rule_for(table.i)
    keys = [(i, y) for y in table.configs]
    if isinstance(rule, Exact):
        return {key: _lazy_entry(0.0) for key in keys}
    summaries = stacked_summaries(table.kernels(rule), table.targets)
    return {key: _entry(summ) for key, summ in zip(keys, summaries)}


def _entry(summ):
    """The ApproxQuality entry of a kernel's SpectralSummary."""
    return {
        "norm": summ.operator_norm,
        "ratio_min": 1.0 - summ.lambda_max,
        "ratio_max": 1.0 - summ.lambda_min,
        "psd": summ.psd,
    }


def _lazy_entry(eps):
    """The entry of a Lazy(eps) kernel with at least two states: eps on
    every mean-zero function.  Exact is eps = 0, and so is one state, by
    ``spectral._summary``'s convention."""
    return {"norm": eps, "ratio_min": 1.0 - eps, "ratio_max": 1.0 - eps, "psd": True}


def _epsilon(rule):
    """The eps of a Lazy(eps) or Exact (eps = 0) rule; None for another
    rule, an explicit matrix or no kernel."""
    if isinstance(rule, Exact):
        return 0.0
    return float(rule.epsilon) if isinstance(rule, Lazy) else None


def _level_epsilons(model):
    """Per level of a slice model, the eps of its kernel, as ``_epsilon``."""
    return [_epsilon(r) for r in model.level_kernels or (None,) * model.nlevels]


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
        v = np.array(_floats(self.values, InvalidSpec, "norm bounds"))
        if not np.all((v >= -1e-12) & (v <= 1.0 + 1e-9)):
            raise InvalidSpec("norm bounds must be finite and lie in [0, 1]")
        v = np.clip(v, 0.0, 1.0)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def dominating_norm_profile(source, values, spec=None):
    """User-supplied profile, validated to dominate the exact norms."""
    exact_vals, kind = Analysis(source, spec=spec).inner_norms()
    v = _floats(values, InvalidSpec, "norm bounds")
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
    """Worst conditional average of the profile's t-th power: the max over
    supported y of sum_z P(z | y) * profile(z)^t, where z is the second
    block of a two-block joint or the level of a slice model (see
    ``gibbs._two_block_parts``).
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
    profile = instance_of(profile, NormProfile, "profile")
    t = positive_int(t, "t")
    g = profile.values ** _steps(power * t)
    kind = "per_level" if isinstance(source, SliceModel) else "per_z"
    m1, fwd = _two_block_parts(source)[:2]
    if profile.kind != kind or g.shape != fwd.shape[1:]:
        raise InvalidSpec(
            f"{profile.kind} profile has length {g.size}, expected {fwd.shape[1]} "
            f"{kind} values"
        )
    # One row at a time: a matrix-vector product may sum in another order.
    worst = 0.0
    for y in np.flatnonzero(m1.weights > 0.0):
        worst = max(worst, float(fwd[y] @ g))
    return worst ** (1.0 / power)


# ---------------------------------------------------------------------------
# Test-function batteries and quadratic forms
# ---------------------------------------------------------------------------


def function_battery(rev, trials=DEFAULT_TRIALS, seed=0):
    """Unit-norm mean-zero test functions: full eigenbasis plus random draws.

    Returns (F, labels) where F, one array written in place, has one function
    per column, supported on the pair's non-null states, of unit L2(w) norm.
    """
    keep, _dropped, ws, d, vals, vecs, _asym = instance_of(rev, ReversiblePair, "rev")._eigs
    m = vals.size - 1
    width = m + positive_int(trials, "trials", low=0)
    if width > state_cap():
        raise SpaceTooLarge(f"a battery of {width} functions exceeds the cap of {state_cap()}")
    F = np.zeros((rev.n, width))
    F[keep, :m] = vecs[:, :m] / d[:, None]
    index, columns = _mean_zero_unit_eigenspace(vals, vecs, d)
    F[np.ix_(keep, index)] = columns / d[:, None]
    labels = [{"kind": "eigenvector", "index": k} for k in range(m)]
    rng = rng_from(seed)
    for j in range(F.shape[1] - m):
        g = rng.standard_normal(keep.size)
        g -= float(ws @ g)
        nrm = float(np.sqrt(ws @ (g * g)))
        if nrm >= 1e-12:
            F[keep, len(labels)] = g / nrm
            labels.append({"kind": "random", "draw": j})
    if not labels:
        raise PreconditionUnmet("the mean-zero subspace is empty")
    return F[:, : len(labels)], labels


def _mean_zero_unit_eigenspace(vals, vecs, d):
    """Mean-zero replacements for the columns of a repeated eigenvalue 1.

    When more than one eigenvalue lies within 1e-9 of the stationary one,
    the last, LAPACK's basis of that eigenspace need not be orthogonal to
    sqrt(ws) = d.  Then d is projected out of the cluster and what is left
    is re-orthonormalized; returned are the cluster's indices but the last
    and the new columns, one per index.  A simple eigenvalue 1 returns no
    index, so its battery is unchanged.
    """
    cluster = np.flatnonzero(np.abs(vals - vals[-1]) <= 1e-9)
    if cluster.size < 2:
        return cluster[:0], vecs[:, :0]
    V = vecs[:, cluster]
    V = V - np.outer(d, d @ V)
    basis = np.linalg.svd(V, full_matrices=False)[0][:, : cluster.size - 1]
    return cluster[:-1], basis


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


def _variance_pair(exact, hybrid, F):
    """Centre the columns of F in place under the exact pair's stationary
    distribution, so that no second copy of a battery is held; return their
    squared norms and their asymptotic variances under the exact and the
    hybrid pair."""
    w = exact.stationary.weights
    F -= w @ F
    norms2 = np.einsum("i,ij,ij->j", w, F, F)
    return norms2, variances(exact, F), variances(hybrid, F)


def _scan_gap(joint, p, eps, table):
    """Spectral gap of the random-scan chain that updates coordinate i with
    probability p_i by eps_i I + (1 - eps_i) P_i, where P_i redraws it from
    its conditional (eps_i = 0 for an exact update), with the conditionals
    of ``table(i)``, a ConditionalTable whose slices are all live.

    The chain is c I + B B^T with c = sum p_i eps_i and B the factor of the
    Gram root (``gibbs._scan_root``) at the weights a_i = p_i (1 - eps_i).
    It is psd, so its gap is 1 - c - mu_2, with mu_2 the second eigenvalue
    of the Gram matrix B^T B, whose order is sum_i n / d_i; its top
    eigenvalue, 1 - c, is the stationary one.  When that order is below n,
    B B^T is singular, so mu_2 is at least 0.
    """
    B = gram_factor(_scan_root(joint, p * (1.0 - eps), table))
    mu = np.linalg.eigvalsh(B.T @ B)
    return float(1.0 - p @ eps - mu[:-1].max(initial=0.0))


# ---------------------------------------------------------------------------
# The shared analysis of one model
# ---------------------------------------------------------------------------


def _only_for(is_slice):
    """Mark an Analysis member that only a slice model (``is_slice``) or only
    a joint has: on the other kind of source it raises DimensionMismatch
    naming the member."""
    need = "a slice model" if is_slice else "a joint distribution"

    def mark(member):
        @wraps(member)
        def checked(self, *args, **kwargs):
            if self.is_slice != is_slice:
                raise DimensionMismatch(f"{member.__name__} needs {need}")
            return member(self, *args, **kwargs)

        return checked

    return mark


# The random-scan and block chains need coordinates; the slice bound reads
# the level sets of a slice model.
_joint_only = _only_for(False)
_slice_only = _only_for(True)


class Analysis:
    """The kernels, decompositions and approximation quality that the checks
    on one model read, and the settings of the run that certifies it.

    ``source`` is a joint distribution or a SliceModel; ``p`` and ``spec`` are
    the random-scan selection probabilities and the approximator spec of a
    joint; a slice model takes neither, since its level kernels are its
    approximators.  The data-augmentation (DA) pair is the exact and hybrid
    two-block marginal chains, for a slice model its slice chains.  Each
    kernel is built on first use and kept; each pair keeps its own
    decomposition, so it is decomposed at most once.  Every report is
    certified at ``tol`` and stamped with ``fingerprint`` (by default the
    model's and spec's), and every random test-function battery is drawn
    from ``seed``; a check takes only its mathematical arguments.
    ``run_suite`` builds one Analysis per run; a single check is
    ``Analysis(source, p, spec).<check>()``.
    """

    def __init__(self, source, p=None, spec=None, tol=DEFAULT_TOL, seed=0, fingerprint=""):
        self.source = instance_of(source, SOURCES, "source")
        self.spec = spec if spec is None else checked_spec(spec)
        self.is_slice = isinstance(source, SliceModel)
        if not self.is_slice:
            self.sel = selection_probs(p, source.space.ncoords)
        elif p is not None or spec is not None:
            raise DimensionMismatch(
                "a slice model takes no selection probabilities and no spec: it has "
                "no coordinates to select, and its level kernels are the approximators"
            )
        self.tol = positive_tol(tol)
        self.seed = seed
        self.fingerprint = fingerprint or model_fingerprint(source, spec)
        self._tables = {}
        self._coord_quality = {}
        self._blocks = {}

    def report(self, name, lhs, rhs, witness, hypothesis_ok=True):
        """A report certified at this run's tolerance, with its fingerprint."""
        return make_report(
            name,
            lhs,
            rhs,
            self.tol,
            witness=witness,
            fingerprint=self.fingerprint,
            hypothesis_ok=hypothesis_ok,
        )

    def _at_worst(self, name, lhs, rhs, labels, **witness):
        """The report ``name`` at the battery function of least slack
        rhs - lhs (the first such column), witnessed by its label ``f``."""
        i = int(np.argmin(rhs - lhs))
        return self.report(name, lhs[i], rhs[i], {"f": labels[i], **witness})

    # -- kernels and their quality -------------------------------------------

    @property
    def scan_spec(self):
        """The spec of the random-scan chains: Exact when none was given."""
        return self.spec if self.spec is not None else EXACT_SPEC

    @property
    @_joint_only
    def uniform_selection(self):
        """Whether every selection probability is within 1e-12 of 1/n."""
        return bool(np.abs(self.sel.weights - 1.0 / self.sel.n).max() <= 1e-12)

    def _table(self, i):
        """Coordinate ``i``'s ConditionalTable, built once: every chain and
        quality entry of the joint reads its conditionals from it."""
        if i not in self._tables:
            self._tables[i] = ConditionalTable(self.source, i)
        return self._tables[i]

    @cached_property
    @_joint_only
    def T(self):
        """The exact random-scan pair."""
        return _scan_chain(self.source, self.sel, EXACT_SPEC, self._table)

    @cached_property
    @_joint_only
    def Th(self):
        """The hybrid random-scan pair: the exact one, T, when every rule
        is Exact."""
        spec = self.scan_spec
        if spec.all_exact(self.sel.n):
            return self.T
        return _scan_chain(self.source, self.sel, spec, self._table)

    def _coordinate_quality(self, i):
        """ApproxQuality of coordinate ``i``'s conditionals, computed once."""
        if i not in self._coord_quality:
            self._coord_quality[i] = _aggregate(_table_quality(self._table(i), self.scan_spec))
        return self._coord_quality[i]

    @cached_property
    @_joint_only
    def quality(self):
        """ApproxQuality over every coordinate, for the random-scan checks."""
        table = {}
        for i in range(self.source.space.ncoords):
            table.update(self._coordinate_quality(i).per_conditional)
        return _aggregate(table)

    @cached_property
    def da_quality(self):
        """ApproxQuality of the DA chain's inner kernels: the first
        coordinate's conditionals of a two-coordinate joint (NotTwoBlock for
        any other), the level kernels of a slice model.  Level k's entry is
        keyed (0, (k,)), the point given level k, as a joint's entry is keyed
        (0, (z,)); a Lazy or Exact level's entry is in closed form, and any
        other level's is read from ``_level_walk``."""
        if not self.is_slice:
            checked_spec(self.spec)
            _check_two_block(self.source)
            return self._coordinate_quality(0)
        table = {}
        model = self.source
        for k, (members, eps) in enumerate(zip(model.level_sets, _level_epsilons(model))):
            if eps is None:
                entry = self._level_walk[0][k]
            else:
                entry = _lazy_entry(eps if members.size > 1 else 0.0)
            table[(0, (k,))] = entry
        return _aggregate(table)

    @cached_property
    def _level_walk(self):
        """(entries, Sh) of a slice model, from one pass over its levels: each level
        kernel is built and verified once, gives its quality entry from its
        eigenvalues alone where it has no closed form, and is added into S_h and dropped."""
        model, entries = self.source, {}
        def inner():
            for (k, members, pair), eps in zip(_level_pairs(model), _level_epsilons(model)):
                if eps is None:
                    entries[k] = _entry(eigvals_summary(pair))
                yield k, members, pair.kernel.matrix
        return entries, _hybrid_marginal_chain(model, inner())

    @cached_property
    def S(self):
        """The exact DA pair."""
        return da_exact(self.source)

    @cached_property
    def Sh(self):
        """The hybrid DA pair.

        When every level kernel of a slice model is Lazy(eps) for one eps
        (Exact is eps = 0), the hybrid chain is eps I + (1 - eps) S, since
        the level law of each point sums to one; it is then ``affine`` on
        S, with no eigensolve, unless S drops a null state.  A joint's inner
        kernels are read from its first coordinate's ConditionalTable.
        """
        if self.is_slice:
            eps = set(_level_epsilons(self.source))
            if len(eps) == 1 and None not in eps and not spectral_summary(self.S).dropped_states:
                return affine(self.S, eps.pop())
            return self._level_walk[1]
        inner = _inner_kernels(self.source, self.spec, self._table(0))
        return _hybrid_marginal_chain(self.source, inner)

    def inner_norms(self):
        """Exact operator norms of the DA chain's inner kernels, with their
        profile kind: per level of a slice model, per z of a joint."""
        entries = self.da_quality.per_conditional
        if self.is_slice:
            width, kind = self.source.nlevels, "per_level"
        else:
            width, kind = self.source.space.sizes[1], "per_z"
        vals = np.zeros(width)
        for (_i, z), entry in entries.items():
            vals[z[0]] = entry["norm"]
        return vals, kind

    @cached_property
    def inner_profile(self):
        """The exact norm profile of the DA chain's inner kernels."""
        vals, kind = self.inner_norms()
        return NormProfile(values=vals, kind=kind, derivation="exact")

    @_joint_only
    def block(self, ell):
        """The block random-scan pair updating ``ell`` coordinates.

        Under uniform selection the one-coordinate block chain adds the same
        updates with the same weights in the same order as the exact random
        scan, so it is that pair, bit for bit.
        """
        ell = positive_int(ell, "block size")
        if ell not in self._blocks:
            n = self.source.space.ncoords
            if ell == 1 and np.all(self.sel.weights == 1.0 / n):
                self._blocks[ell] = self.T
            else:
                self._blocks[ell] = block_random_scan(self.source, ell)
        return self._blocks[ell]

    def _gap_sandwich(self, name, exact, hybrid, qual):
        """Reports ``name``-lower/-upper: (1-C)(1-|exact|) <= 1-|hybrid| <=
        (1+C)(1-|exact|) with C = ``qual.max_norm``, the upper bound tightened
        to 1-|exact| when every approximating kernel is psd."""
        gap_exact = spectral_summary(exact).gap
        gap_hybrid = spectral_summary(hybrid).gap
        C = qual.max_norm
        upper = gap_exact if qual.all_psd else (1.0 + C) * gap_exact
        return [
            self.report(f"{name}-lower", (1.0 - C) * gap_exact, gap_hybrid, {"max_norm": C}),
            self.report(
                f"{name}-upper",
                gap_hybrid,
                upper,
                {"max_norm": C, "psd_tightened": qual.all_psd},
            ),
        ]

    # -- random-scan checks ---------------------------------------------------

    @_joint_only
    def dirichlet_sandwich(self, trials=DEFAULT_TRIALS):
        """Certify c1 * E_exact(f) <= E_hybrid(f) <= c2 * E_exact(f).

        The constants are the exact Dirichlet-ratio extremes of the
        approximating kernels; the battery is the eigenbasis of the exact
        chain plus ``trials`` random mean-zero functions.
        """
        qual = self.quality
        F, labels = function_battery(self.T, trials=trials, seed=self.seed)
        e_exact = dirichlet_forms(self.T, F)
        e_hybrid = dirichlet_forms(self.Th, F)
        c1, c2 = qual.ratio_min, qual.ratio_max
        return [
            self._at_worst(
                "dirichlet-sandwich-lower", c1 * e_exact, e_hybrid, labels, ratio_min=c1
            ),
            self._at_worst(
                "dirichlet-sandwich-upper", e_hybrid, c2 * e_exact, labels, ratio_max=c2
            ),
        ]

    @_joint_only
    def gap_sandwich(self):
        """Certify the gap sandwich of ``_gap_sandwich`` between the exact
        and hybrid random-scan chains T and T_hybrid."""
        return self._gap_sandwich("gap-sandwich", self.T, self.Th, self.quality)

    @_joint_only
    def variance_sandwich(self, f=None, trials=8):
        """Certify the asymptotic-variance sandwich between exact and hybrid
        chains.

        For mean-zero f:  var_hybrid(f) lies between
        var_exact(f)/c2 + (1/c2 - 1)|f|^2 and var_exact(f)/c1 + (1/c1 - 1)|f|^2.
        Requires nondegenerate constants and a gap of both chains, which
        ``variances`` checks.
        """
        qual = self.quality
        c1, c2 = qual.ratio_min, qual.ratio_max
        if c1 <= 1e-12:
            raise DegenerateConstants("the lower Dirichlet-ratio constant vanishes")
        if c2 >= 2.0 - 1e-12:
            raise DegenerateConstants("the upper Dirichlet-ratio constant reaches 2")
        T = self.T
        if f is not None:
            F = np.array(as_values(f, T.n)[:, None])  # a copy: it is centred in place
            labels = [{"kind": "supplied"}]
        else:
            F, labels = function_battery(T, trials=trials, seed=self.seed)
        norms2, var_exact, var_hybrid = _variance_pair(T, self.Th, F)
        low = var_exact / c2 + (1.0 / c2 - 1.0) * norms2
        high = var_exact / c1 + (1.0 / c1 - 1.0) * norms2
        return [
            self._at_worst("variance-sandwich-lower", low, var_hybrid, labels, ratio_max=c2),
            self._at_worst("variance-sandwich-upper", var_hybrid, high, labels, ratio_min=c1),
        ]

    # -- data-augmentation checks ---------------------------------------------

    def da_gap_sandwich(self):
        """Certify the gap sandwich of ``_gap_sandwich`` between the exact
        and hybrid DA chains S and S_hybrid."""
        return self._gap_sandwich("da-gap-sandwich", self.S, self.Sh, self.da_quality)

    def _tstep_preamble(self, t, profile):
        """(t, profile, a_t) of a t-step check: ``t`` read as a count, odd t
        only when every inner kernel is psd, the profile by default the exact
        inner-norm profile, and a_t its mean power bound."""
        t = positive_int(t, "t")
        if t % 2 == 1 and not self.da_quality.all_psd:
            raise PreconditionUnmet("odd t needs every inner kernel positive semi-definite")
        profile = profile if profile is not None else self.inner_profile
        return t, profile, mean_power_bound(self.source, profile, t)

    def da_tstep(self, t=2, trials=DEFAULT_TRIALS, profile=None):
        """Certify the t-step comparison for (hybrid) data augmentation.

        Functional part, over the eigenbasis of the hybrid chain plus random
        f: 0 <= (<f, S_hybrid f>)^t <= <f, S f> + a_t, where a_t is the worst
        conditional average of the t-th power of the inner-norm profile.
        Spectral part: t * (1 - |S_hybrid|) >= 1 - |S_hybrid|^t >= 1 - |S| - a_t.
        Needs t even or all inner kernels psd.
        """
        t, _, a_t = self._tstep_preamble(t, profile)
        tf = _steps(t)
        S, Sh = self.S, self.Sh
        F, labels = function_battery(Sh, trials=trials, seed=self.seed)
        quad_h, norms_h = quadratic_forms(Sh, F)
        quad_s, _ = quadratic_forms(S, F)
        lhs_all = (quad_h / norms_h) ** tf
        rhs_all = quad_s / norms_h + a_t
        norm_s = spectral_summary(S).operator_norm
        norm_h = spectral_summary(Sh).operator_norm
        # t (1 - |S_hybrid|) is 0 at a norm of 1 for every t, inf t included.
        bernoulli = tf * (1.0 - norm_h) if norm_h != 1.0 else 0.0
        return [
            self._at_worst(
                "da-tstep-functional",
                lhs_all,
                rhs_all,
                labels,
                t=t,
                alpha=a_t,
                min_lhs=float(lhs_all.min()),
            ),
            self.report(
                "da-tstep-bernoulli",
                1.0 - norm_h**tf,
                bernoulli,
                {"t": t, "hybrid_norm": norm_h},
            ),
            self.report(
                "da-tstep-gap-lower",
                1.0 - norm_s - a_t,
                1.0 - norm_h**tf,
                {"t": t, "alpha": a_t, "exact_norm": norm_s},
            ),
        ]

    def da_variance_tstep(self, t=2, trials=16):
        """Certify var_hybrid(f) <= 2t var_exact(f) + (2t-1) |f|^2 for the
        two-block marginal chains, under the hypothesis that the t-step power
        average a_t is at most half the exact gap.  When the hypothesis fails
        the single returned report carries status hypothesis_unmet; the
        hybrid chain's gap is checked by ``variances``."""
        t = positive_int(t, "t")
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
                self.report(
                    "da-variance-tstep",
                    a_t,
                    half_gap,
                    {"t": t, "hypothesis": "alpha exceeds half the exact gap"},
                    hypothesis_ok=False,
                )
            ]
        F, labels = function_battery(Sh, trials=trials, seed=self.seed)
        norms2, v_exact, v_hybrid = _variance_pair(S, Sh, F)
        tf = _steps(t)
        bound = 2.0 * tf * v_exact + (2.0 * tf - 1.0) * norms2
        return [self._at_worst("da-variance-tstep", v_hybrid, bound, labels, t=t, alpha=a_t)]

    # -- block comparison -----------------------------------------------------

    @_joint_only
    def block_comparison(self, ell, m, trials=DEFAULT_TRIALS):
        """Compare block random scans touching ell versus m coordinates (m < ell).

        The m-scan is the ell-scan with each block conditional replaced by an
        inner random scan, so with c1 the worst inner Dirichlet-ratio minimum:
        c1 (1 - |T_ell|) <= 1 - |T_m| <= 1 - |T_ell|, the same chain holds for
        Dirichlet forms, and the variances are ordered when both gaps are
        positive.  The inner scans of the live slices of each ell-block are
        built, verified and read as one stack; c1_at is the first
        least ratio in (block, complement) order.
        """
        joint = self.source
        space, n = joint.space, joint.space.ncoords
        ell = positive_int(ell, "ell")
        m = positive_int(m, "m")
        if not 1 <= m < ell <= n - 1:
            raise InvalidBlockSize(
                f"need 1 <= m < l <= {n - 1}, got (l, m) = ({ell}, {m})"
            )
        T_ell = self.block(ell)
        T_m = self.block(m)
        c1, c1_at = np.inf, None
        for coords in combinations(range(n), ell):
            live, w = _conditionals(slices(space, coords, joint.weights)[1])
            configs = [y for y, ok in zip(space.complement_configs(coords), live) if ok]
            inner = block_scans(ProductSpace([space.sizes[c] for c in coords]), w, m)
            K = checked_stack(inner, w)
            for y, summ in zip(configs, stacked_summaries(K, w)):
                rmin = 1.0 - summ.lambda_max
                if rmin < c1:
                    c1 = rmin
                    c1_at = {"block": list(coords), "complement": list(y)}
        gap_ell = spectral_summary(T_ell).gap
        gap_m = spectral_summary(T_m).gap
        F, labels = function_battery(T_ell, trials=trials, seed=self.seed)
        e_ell = dirichlet_forms(T_ell, F)
        e_m = dirichlet_forms(T_m, F)
        reports = [
            self.report(
                "block-gap-lower",
                c1 * gap_ell,
                gap_m,
                {"c1": float(c1), "c1_at": c1_at, "ell": ell, "m": m},
            ),
            self.report("block-gap-upper", gap_m, gap_ell, {"ell": ell, "m": m}),
            self._at_worst(
                "block-dirichlet-lower", c1 * e_ell, e_m, labels, c1=float(c1), ell=ell, m=m
            ),
            self._at_worst("block-dirichlet-upper", e_m, e_ell, labels, ell=ell, m=m),
        ]
        if gap_ell > 1e-12 and gap_m > 1e-12:
            v_ell = variances(T_ell, F)
            v_m = variances(T_m, F)
            reports.append(
                self._at_worst("block-variance-order", v_ell, v_m, labels, ell=ell, m=m)
            )
        else:
            reports.append(
                self.report(
                    "block-variance-order",
                    0.0,
                    0.0,
                    {"hypothesis": "a block chain has no spectral gap", "ell": ell, "m": m},
                    hypothesis_ok=False,
                )
            )
        return reports

    # -- selection-probability and uniform-selection power bounds -------------

    def _gap_under(self, sel, spec, pair):
        """The gap of the random-scan chain of ``spec``'s rules under the
        selection probabilities ``sel``.

        ``_scan_gap`` gives it where ``has_gram_root`` holds and every rule
        is Exact or Lazy; it is then checked at this analysis's own
        selection probabilities against the decomposed ``pair``.  Otherwise
        it is read from the spectrum of the chain built under ``sel``.
        """
        joint = self.source
        eps = [_epsilon(spec.rule_for(i)) for i in range(joint.space.ncoords)]
        if None in eps or not has_gram_root(joint):
            return eigvals_summary(_scan_chain(joint, sel, spec, self._table)).gap
        eps = np.array(eps)
        own = _scan_gap(joint, self.sel.weights, eps, self._table)
        decomposed = spectral_summary(pair).gap
        if abs(own - decomposed) > 1e-10:
            raise CrossCheckFailure(
                f"the random-scan gap {decomposed:.12e} differs from its Gram "
                f"matrix's {own:.12e}"
            )
        return _scan_gap(joint, sel.weights, eps, self._table)

    @_joint_only
    def selection_reweighting(self, p_alt):
        """Certify how spectral gaps transfer from the selection probabilities
        ``p_alt`` to this analysis's own.

        With b the exact gap ratio of the exact chains, the hybrid gaps
        satisfy gap_hybrid(p) >= b (1-C)/(1+C) gap_hybrid(p'), tightened to
        b (1-C) when every approximating kernel is psd; and the min-ratio
        reweighting inequality holds for the exact and hybrid pairs alike.
        The gaps under ``p_alt`` are read by ``_gap_under``.
        """
        joint = self.source
        sel = self.sel
        sel_alt = selection_probs(p_alt, joint.space.ncoords)
        if np.any(sel.weights <= 0.0) or np.any(sel_alt.weights <= 0.0):
            raise ZeroSelectionProb("selection probabilities must be strictly positive")
        qual = self.quality
        C = qual.max_norm
        gap_t = spectral_summary(self.T).gap
        gap_h = spectral_summary(self.Th).gap
        gap_t_alt = self._gap_under(sel_alt, EXACT_SPEC, self.T)
        if self.Th is self.T:
            gap_h_alt = gap_t_alt
        else:
            gap_h_alt = self._gap_under(sel_alt, self.scan_spec, self.Th)
        # A subnormal p_alt overflows the ratio to inf, which never wins the min.
        with np.errstate(over="ignore"):
            r = float(np.min(sel.weights / sel_alt.weights))
        reports = [
            self.report("selection-minratio-exact", r * gap_t_alt, gap_t, {"min_ratio": r}),
            self.report("selection-minratio-hybrid", r * gap_h_alt, gap_h, {"min_ratio": r}),
        ]
        if gap_t_alt <= 1e-14:
            transfer = self.report(
                "selection-hybrid-transfer",
                0.0,
                gap_h,
                {"hypothesis": "reference exact chain has no gap"},
                hypothesis_ok=False,
            )
        else:
            b = gap_t / gap_t_alt
            factor = b * (1.0 - C) if qual.all_psd else b * (1.0 - C) / (1.0 + C)
            transfer = self.report(
                "selection-hybrid-transfer",
                factor * gap_h_alt,
                gap_h,
                {"b": float(b), "max_norm": C, "psd_tightened": qual.all_psd},
            )
        return [transfer] + reports

    @_joint_only
    def uniform_tstep_bound(self, t=1):
        """Certify the coarse uniform-selection power bound
        1 - |T_hybrid| >= n^{-(t-1)} (1 - |T| - C^t), and that the one-step
        sandwich lower bound dominates it whenever 1 - |T| - C^t >= 0."""
        n = self.source.space.ncoords
        if n < 2:
            raise PreconditionUnmet("the power bound needs at least two coordinates")
        if not self.uniform_selection:
            raise NonUniformSelection("this bound is stated for uniform selection")
        t = positive_int(t, "t")
        C = self.quality.max_norm
        norm_t = spectral_summary(self.T).operator_norm
        gap_h = spectral_summary(self.Th).gap
        raw = 1.0 - norm_t - C ** _steps(t)
        # n^(t-1) overflows a float beyond t = 1024 on two coordinates; the
        # bound is then 0.
        with np.errstate(over="ignore"):
            power_bound = raw / np.float64(n) ** _steps(t - 1)
        sandwich_bound = (1.0 - C) * (1.0 - norm_t)
        return [
            self.report("uniform-power-lower", power_bound, gap_h, {"t": t, "max_norm": C}),
            self.report(
                "uniform-power-dominated",
                power_bound,
                sandwich_bound,
                {"t": t, "nontrivial": bool(raw >= 0.0)},
                hypothesis_ok=bool(raw >= 0.0),
            ),
        ]

    # -- slice checks ---------------------------------------------------------

    @_slice_only
    def slice_tstep(self, t, profile=None):
        """Certify (1 - |S| - a_t)/t <= 1 - |S_hybrid| <= 1 - |S| for a slice
        model.

        The tightened upper bound needs every per-level kernel psd; otherwise
        the upper half falls back to the one-step sandwich (1 + C)(1 - |S|).
        The looser rms-based lower bound is certified alongside, together with
        the ordering a_t <= b_t (``rms_power_bound``'s cross-check), at the
        fixed tolerance 1e-12.  Each bound is computed once.
        """
        t, profile, a_t = self._tstep_preamble(t, profile)
        tf = _steps(t)
        b_t = _power_bound(self.source, profile, t, power=2)
        all_psd = self.da_quality.all_psd
        gap_exact = spectral_summary(self.S).gap
        gap_hybrid = spectral_summary(self.Sh).gap
        upper = gap_exact if all_psd else (1.0 + self.da_quality.max_norm) * gap_exact
        return [
            self.report(
                "slice-tstep-lower", (gap_exact - a_t) / tf, gap_hybrid, {"t": t, "alpha": a_t}
            ),
            self.report("slice-tstep-upper", gap_hybrid, upper, {"t": t, "psd_tightened": all_psd}),
            self.report(
                "slice-tstep-lower-rms", (gap_exact - b_t) / tf, gap_hybrid, {"t": t, "beta": b_t}
            ),
            make_report(
                "slice-power-bound-order",
                a_t,
                b_t,
                1e-12,
                witness={"t": t},
                fingerprint=self.fingerprint,
            ),
        ]
