"""Exact spectral analysis of reversible kernels on finite state spaces.

The unit of analysis is a ReversiblePair: a row-stochastic matrix together
with a verified stationary distribution.  The spectral quantities (operator
norm on mean-zero functions, absolute gap, Dirichlet forms, asymptotic
variance) come from the symmetrized matrix A = D^{1/2} K D^{-1/2} with
D = diag of the stationary weights: from its dense eigendecomposition, or
for a single asymptotic variance from one linear solve with it; A is symmetric
exactly when detailed balance holds, and is symmetrized defensively to absorb
floating-point residue.  States carrying stationary mass below NULL_MASS are
dropped before analysis: the mean-zero L2 theory is blind to null sets.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CrossCheckFailure,
    DimensionMismatch,
    InvalidDistribution,
    InvalidKernel,
    NonUniqueStationary,
    NoSpectralGap,
    NotReversible,
    PreconditionUnmet,
    SingularStationary,
    ZeroFunction,
)
from .report import make_report

NULL_MASS = 1e-14
REVERSIBILITY_TOL = 1e-10
PSD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProbVec:
    """Probability weights over a finite state set.

    Input may be unnormalized; it is validated (finite, nonnegative, positive
    total mass) and normalized on construction.  The stored array is
    read-only.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise InvalidDistribution("weights must be a nonempty 1-d vector")
        if not np.all(np.isfinite(w)):
            raise InvalidDistribution("weights must be finite")
        if np.any(w < 0):
            raise InvalidDistribution("weights must be nonnegative")
        total = w.sum()
        if total <= 0:
            raise InvalidDistribution("total mass must be positive")
        w /= total
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.weights.size

    @property
    def support(self):
        return np.flatnonzero(self.weights > 0.0)


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """A row-stochastic nonnegative matrix."""

    matrix: np.ndarray

    def __init__(self, matrix, row_tol=1e-12):
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise InvalidKernel("kernel must be a nonempty square matrix")
        if not np.all(np.isfinite(m)):
            raise InvalidKernel("kernel entries must be finite")
        if np.any(m < -1e-15):
            raise InvalidKernel("kernel entries must be nonnegative")
        np.maximum(m, 0.0, out=m)
        rows = m.sum(axis=1)
        worst = np.abs(rows - 1.0).max()
        if worst > row_tol:
            raise InvalidKernel(
                f"row sums deviate from 1 by {worst:.3e} (tolerance {row_tol:.1e})"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class FunctionVec:
    """A real-valued observable over the state set."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("function values must be a nonempty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def centered(self, dist):
        """Mean-zero projection of the function against the given weights."""
        return center(self.values, dist)


def as_values(f, n):
    """Coerce a FunctionVec or array-like into a validated float vector."""
    if isinstance(f, FunctionVec):
        v = f.values
    else:
        v = np.asarray(f, dtype=np.float64)
    if v.ndim != 1 or v.size != n:
        raise DimensionMismatch(f"expected a function over {n} states, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("function values must be finite")
    return v


def center(f, dist):
    """Subtract the mean of f under dist."""
    w = dist.weights if isinstance(dist, ProbVec) else np.asarray(dist, dtype=float)
    v = np.asarray(f, dtype=np.float64)
    return v - float(w @ v)


@dataclass(frozen=True, eq=False)
class ReversiblePair:
    """A kernel paired with a stationary distribution it is reversible for.

    Construction verifies detailed balance to within ``tol`` (default 1e-10,
    absolute on the probability-flow products) and stationarity of the weight
    vector to within 1e-10; the worst detailed-balance defect is recorded.
    """

    kernel: StochasticKernel
    stationary: ProbVec
    tol: float = REVERSIBILITY_TOL
    reversibility_defect: float = field(init=False)
    # None, or the dict where ``memoize`` lets this pair keep its spectra.
    _memo: dict = field(init=False, default=None, repr=False)

    def __post_init__(self):
        K = self.kernel.matrix
        w = self.stationary.weights
        if w.size != K.shape[0]:
            raise DimensionMismatch("kernel and stationary distribution sizes differ")
        flows = w[:, None] * K
        gap = np.abs(flows - flows.T)
        defect = float(gap.max())
        if defect > self.tol:
            x, y = np.unravel_index(int(gap.argmax()), gap.shape)
            raise NotReversible(
                f"detailed balance fails at states ({x}, {y}) with defect "
                f"{defect:.3e} > {self.tol:.1e}",
                pair=(int(x), int(y)),
                defect=defect,
            )
        resid = float(np.abs(w @ K - w).max())
        if resid > 1e-10:
            raise NotReversible(
                f"weights are not stationary: residual {resid:.3e}", defect=defect
            )
        object.__setattr__(self, "reversibility_defect", defect)

    @property
    def n(self):
        return self.kernel.n


def check_reversibility(kernel, stationary, tol=REVERSIBILITY_TOL):
    """Pair a kernel with a stationary distribution, verifying detailed balance.

    Raises NotReversible (carrying the worst-violating state pair and the
    defect) when max |w(x)K(x,y) - w(y)K(y,x)| exceeds ``tol``.
    """
    if not isinstance(kernel, StochasticKernel):
        kernel = StochasticKernel(kernel)
    if not isinstance(stationary, ProbVec):
        stationary = ProbVec(np.asarray(stationary, dtype=float))
    return ReversiblePair(kernel=kernel, stationary=stationary, tol=tol)


def stationary_distribution(kernel):
    """Unique stationary distribution of a stochastic matrix.

    Computed as the left eigenvector for eigenvalue 1.  Raises
    NonUniqueStationary when the eigenvalue-1 left eigenspace has dimension
    greater than one (eigenvalues within 1e-8 of 1 are counted as one).
    """
    if not isinstance(kernel, StochasticKernel):
        kernel = StochasticKernel(kernel)
    K = kernel.matrix
    vals, vecs = np.linalg.eig(K.T)
    close = np.flatnonzero(np.abs(vals - 1.0) < 1e-8)
    if close.size != 1:
        raise NonUniqueStationary(
            f"eigenvalue-1 left eigenspace has dimension {close.size}"
        )
    v = np.real(vecs[:, close[0]])
    if v.sum() < 0:
        v = -v
    v = np.maximum(v, 0.0)
    dist = ProbVec(v)
    resid = float(np.abs(dist.weights @ K - dist.weights).max())
    if resid > 1e-10:
        raise NonUniqueStationary(
            f"left fixed point residual {resid:.3e} exceeds 1e-10"
        )
    return dist


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Spectral quantities of a reversible kernel on mean-zero functions.

    ``eigenvalues`` is the full spectrum on the mean-zero subspace, ascending.
    ``gap`` is defined as ``1.0 - operator_norm`` so the identity holds
    exactly in floating point.  ``dropped_states`` lists states removed for
    carrying stationary mass below NULL_MASS; ``max_asymmetry`` records the
    symmetrization residue of D^{1/2} K D^{-1/2}.
    """

    operator_norm: float
    gap: float
    lambda_max: float
    lambda_min: float
    psd: bool
    eigenvalues: np.ndarray
    dropped_states: tuple = ()
    max_asymmetry: float = 0.0

    def to_dict(self):
        return {
            "operator_norm": float(self.operator_norm),
            "gap": float(self.gap),
            "lambda_max": float(self.lambda_max),
            "lambda_min": float(self.lambda_min),
            "psd": bool(self.psd),
            "n_eigenvalues": int(self.eigenvalues.size),
            "dropped_states": list(self.dropped_states),
            "max_asymmetry": float(self.max_asymmetry),
        }


def _restrict(rev):
    """Restrict a pair to its non-null support; renormalize rows and weights.

    States below NULL_MASS are dropped when the restriction stays closed
    (rows leak at most 1e-9).  Models with a huge dynamic range can carry
    genuine, reachable mass below the threshold; for those the restriction
    falls back to dropping exact zeros only, which is always closed for a
    valid reversible pair.
    """
    w = rev.stationary.weights
    K = rev.kernel.matrix
    for keep in (np.flatnonzero(w >= NULL_MASS), np.flatnonzero(w > 0.0)):
        if keep.size == 0:
            raise SingularStationary("no state carries positive stationary mass")
        Ks = K[np.ix_(keep, keep)]
        rows = Ks.sum(axis=1)
        if np.abs(rows - 1.0).max() <= 1e-9:
            dropped = tuple(sorted(set(range(w.size)) - set(keep.tolist())))
            ws = w[keep] / w[keep].sum()
            Ks /= rows[:, None]
            return keep, dropped, ws, Ks
    raise InvalidKernel(
        "support is not closed: rows leak more than 1e-9 mass to zero-mass states"
    )


def memoize(rev):
    """Let ``rev`` keep its decomposition and summary once computed.

    The object that owns the pair (``bounds.Analysis``) turns this on, so that
    every check it runs reads one decomposition.  Other pairs keep nothing, so
    a decomposition lives no longer than the object that asked for it.
    """
    object.__setattr__(rev, "_memo", {})
    return rev


def _symmetrized(rev):
    """Restricted, symmetrized kernel: (keep, dropped, ws, d, A, asym).

    A = (M + M^T)/2 for M = D^{1/2} K D^{-1/2} on the support, and asym is
    max |M - M^T|.  M is the restricted kernel scaled in place, and one n x n
    buffer holds first |M - M^T|, then A.
    """
    keep, dropped, ws, M = _restrict(rev)
    d = np.sqrt(ws)
    M *= d[:, None]
    M /= d[None, :]
    A = np.subtract(M, M.T)
    np.abs(A, out=A)
    asym = float(A.max())
    np.add(M, M.T, out=A)
    A /= 2.0
    return keep, dropped, ws, d, A, asym


def _sym_eigs(rev):
    """Symmetrized eigendecomposition on the support.

    Returns (keep, dropped, ws, sqrt_ws, vals, vecs, k0, asym) where column
    ``k0`` of ``vecs`` is the stationary direction, identified by maximal
    overlap with sqrt(ws) rather than by eigenvalue proximity to 1.  A
    memoized pair (see ``memoize``) computes this once.
    """
    memo = rev._memo
    if memo is not None and "eigs" in memo:
        return memo["eigs"]
    keep, dropped, ws, d, A, asym = _symmetrized(rev)
    vals, vecs = np.linalg.eigh(A)
    k0 = int(np.argmax(np.abs(vecs.T @ d)))
    eigs = keep, dropped, ws, d, vals, vecs, k0, asym
    if memo is not None:
        memo["eigs"] = eigs
    return eigs


def _summary(rest, dropped, asym):
    """SpectralSummary from the ascending mean-zero spectrum ``rest``.

    For the degenerate one-state support the mean-zero subspace is empty; the
    summary then reports norm 0, gap 1 and extreme eigenvalues 0 by
    convention.
    """
    if rest.size == 0:
        return SpectralSummary(
            operator_norm=0.0,
            gap=1.0,
            lambda_max=0.0,
            lambda_min=0.0,
            psd=True,
            eigenvalues=rest,
            dropped_states=dropped,
            max_asymmetry=asym,
        )
    lam_min = float(rest[0])
    lam_max = float(rest[-1])
    norm = max(abs(lam_max), abs(lam_min))
    gap = 1.0 - norm
    # Cross-check against the min-formula for the gap in terms of Dirichlet
    # ratios: 1 - norm = min(1 + lam_min, 1 - lam_max).
    alt = min(1.0 + lam_min, 1.0 - lam_max)
    if abs(alt - gap) > 1e-9:
        raise CrossCheckFailure(
            f"gap formulas disagree: {gap:.12e} vs {alt:.12e}"
        )
    return SpectralSummary(
        operator_norm=norm,
        gap=gap,
        lambda_max=lam_max,
        lambda_min=lam_min,
        psd=bool(lam_min >= -PSD_TOL),
        eigenvalues=rest,
        dropped_states=dropped,
        max_asymmetry=asym,
    )


def spectral_summary(rev):
    """Operator norm, gap and mean-zero spectrum of a reversible pair, from
    its eigendecomposition; a memoized pair computes it once."""
    memo = rev._memo
    if memo is not None and "summary" in memo:
        return memo["summary"]
    _keep, dropped, _ws, _d, vals, _vecs, k0, asym = _sym_eigs(rev)
    summ = _summary(np.delete(vals, k0), dropped, asym)
    if memo is not None:
        memo["summary"] = summ
    return summ


def eigvals_summary(rev):
    """``spectral_summary`` from eigenvalues alone, for a pair whose
    eigenvectors nothing reads: one ``eigvalsh``, and nothing is kept.

    Subtracting 3 d d^T moves the stationary eigenvalue (A d = d, |d| = 1)
    to -2, below the rest of the spectrum, which lies in [-1, 1]; the
    minimum is dropped.
    """
    _keep, dropped, _ws, d, A, asym = _symmetrized(rev)
    A -= np.outer(3.0 * d, d)
    vals = np.linalg.eigvalsh(A)
    if vals.size > 1 and vals[1] - vals[0] < 0.5:
        raise CrossCheckFailure(
            f"the shifted stationary eigenvalue {vals[0]:.6f} is not isolated"
        )
    return _summary(vals[1:], dropped, asym)


def dirichlet_form(rev, f):
    """Dirichlet form (1/2) sum_{x,y} w(x) K(x,y) (f(x) - f(y))^2.

    The double-sum and the inner-product formula |f0|^2 - <f0, K f0> are both
    computed and cross-checked.
    """
    K = rev.kernel.matrix
    w = rev.stationary.weights
    v = as_values(f, rev.n)
    diff = v[:, None] - v[None, :]
    double_sum = 0.5 * float(np.sum(w[:, None] * K * diff * diff))
    f0 = center(v, w)
    inner = float(w @ (f0 * f0)) - float(w @ (f0 * (K @ f0)))
    scale = max(1.0, float(w @ (f0 * f0)))
    if abs(double_sum - inner) > 1e-10 * scale:
        raise CrossCheckFailure(
            f"Dirichlet formulas disagree: {double_sum:.15e} vs {inner:.15e}"
        )
    return double_sum


def dirichlet_ratio_extrema(rev):
    """Extremes of E(f)/|f|^2 over mean-zero f: (1 - lam_max, 1 - lam_min)."""
    s = spectral_summary(rev)
    return 1.0 - s.lambda_max, 1.0 - s.lambda_min


def variances(rev, F):
    """Asymptotic variance of time-averages of every column of F.

    Equals 2 <f0, (I-K)^{-1} f0> - |f0|^2 on the mean-zero part f0 of each
    column, evaluated on the eigenbasis of the symmetrized kernel.  This is
    the route for the n-column test-function batteries of the checks, whose
    pairs already hold their decomposition; one column with nothing held
    costs less through ``asymptotic_variance``.  Requires a positive
    spectral gap.
    """
    keep, _dropped, ws, d, vals, vecs, k0, _asym = _sym_eigs(rev)
    rest = np.delete(vals, k0)
    norm = float(np.abs(rest).max()) if rest.size else 0.0
    if norm >= 1.0 - 1e-12:
        raise NoSpectralGap(f"operator norm {norm:.12f} leaves no spectral gap")
    Fk = F[keep]
    Fk = Fk - ws @ Fk
    coef = vecs.T @ (d[:, None] * Fk)
    coef[k0, :] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (1.0 + vals) / (1.0 - vals)
    ratios[k0] = 0.0
    return ratios @ (coef * coef)


def asymptotic_variance(rev, f):
    """Asymptotic variance of time-averages of f along the chain, from one
    linear solve and no eigendecomposition: the one-column traffic of
    simulation cross-validation, on pairs that hold no decomposition.

    With A the symmetrized kernel on the support, d = sqrt(ws) its
    stationary direction and g = d * f0, the variance is 2 g^T x - g^T g
    where (I - A + d d^T) x = g.  As in ``variances``, an operator norm of
    at least 1 - 1e-12 on mean-zero functions raises NoSpectralGap: the
    check is that (1 - 1e-12) I - A + d d^T and (1 - 1e-12) I + A both have
    a Cholesky factor.
    """
    keep, _dropped, ws, d, A, _asym = _symmetrized(rev)
    v = as_values(f, rev.n)[keep]
    g = d * (v - float(ws @ v))
    margin = 1e-12
    diag = np.diag_indices_from(A)
    B = np.outer(d, d)
    B -= A
    try:
        B[diag] += 1.0 - margin
        np.linalg.cholesky(B)
        A[diag] += 1.0 - margin
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise NoSpectralGap(
            "operator norm on mean-zero functions is at least 1 - 1e-12: "
            "no spectral gap"
        ) from None
    del A  # one n x n buffer fewer while the solve factors its copy of B
    B[diag] += margin
    x = np.linalg.solve(B, g)
    return 2.0 * float(g @ x) - float(g @ g)


def t_step(kernel, t):
    """The t-step kernel K^t (matrix power), re-verified row-stochastic."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    if not isinstance(kernel, StochasticKernel):
        kernel = StochasticKernel(kernel)
    m = np.linalg.matrix_power(kernel.matrix, int(t))
    return StochasticKernel(m, row_tol=1e-10)


def spectral_jensen_check(rev, f, t, tol=1e-10, fingerprint=""):
    """Certify (<f0,K f0>/|f0|^2)^t <= <f0, K^t f0>/|f0|^2.

    Holds for even t by convexity of x -> x^t on the spectrum, and for odd t
    when the kernel is positive semi-definite; otherwise the hypothesis is
    unmet and PreconditionUnmet is raised.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    if t % 2 != 0:
        if not spectral_summary(rev).psd:
            raise PreconditionUnmet(
                "odd t requires a positive semi-definite kernel"
            )
    K = rev.kernel.matrix
    w = rev.stationary.weights
    v = as_values(f, rev.n)
    f0 = center(v, w)
    nrm2 = float(w @ (f0 * f0))
    if nrm2 <= (1e-14 * (1.0 + float(np.abs(v).max()))) ** 2:
        raise ZeroFunction("function is constant on the support")
    g = f0.copy()
    for _ in range(int(t)):
        g = K @ g
    lhs = (float(w @ (f0 * (K @ f0))) / nrm2) ** int(t)
    rhs = float(w @ (f0 * g)) / nrm2
    # Nonnegativity of the lhs is part of the claim; fold it into the slack
    # by reporting the violated side when it is the binding one.
    if lhs < -tol:
        return make_report(
            "spectral-jensen",
            0.0,
            lhs,
            tol,
            witness={"t": int(t), "side": "nonnegativity"},
            fingerprint=fingerprint,
        )
    return make_report(
        "spectral-jensen",
        lhs,
        rhs,
        tol,
        witness={"t": int(t), "side": "upper"},
        fingerprint=fingerprint,
    )
