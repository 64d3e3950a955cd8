"""Exact spectral analysis of reversible kernels on finite state spaces.

The unit of analysis is a ReversiblePair: a row-stochastic matrix together
with a verified stationary distribution.  The spectral quantities (operator
norm on mean-zero functions, absolute gap, asymptotic variance) come from
the symmetrized matrix A = D^{1/2} K D^{-1/2} with D = diag of the
stationary weights: from its dense eigendecomposition, or for a single
asymptotic variance from one Cholesky factor; A is symmetric exactly when
detailed balance holds, and is symmetrized defensively to absorb
floating-point residue.  States carrying stationary mass below NULL_MASS are
dropped before analysis: the mean-zero L2 theory is blind to null sets.
"""

import reprlib
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CrossCheckFailure,
    DimensionMismatch,
    InvalidArgument,
    InvalidDistribution,
    InvalidKernel,
    NoSpectralGap,
    NotReversible,
    PreconditionUnmet,
    SingularStationary,
    ZeroFunction,
    instance_of,
    positive_int,
    positive_tol,
)
from .report import make_report

NULL_MASS = 1e-14
REVERSIBILITY_TOL = 1e-10
PSD_TOL = 1e-9
UNIT_TOL = 1e-12  # a modulus of at least 1 - UNIT_TOL is 1: no spectral gap
# Rows of each pair whose detailed-balance defects are taken at once, so
# that the check of a (Y, d, d) stack holds no (Y, d, d) temporary for d
# above it.
_ROW_BLOCK = 64
# Side of the square blocks in which a kernel is symmetrized in place, and
# rows of the variance's matrix built at once.
_SYM_BLOCK = 128


def _floats(value, error, what):
    """``value`` as a float array, not copied where it already is one.  A
    value that does not convert to real numbers (a string, a dict, a ragged
    list, complex numbers) raises ``error``, naming it."""
    try:
        a = np.asarray(value)
        if a.dtype.kind in "biufO":  # not text, bytes or complex numbers
            return a.astype(np.float64, copy=False)
    except (TypeError, ValueError):  # a ragged list, or an object that is no number
        pass
    raise error(f"{what} must be numbers, got {reprlib.repr(value)}")


@dataclass(frozen=True, eq=False)
class ProbVec:
    """Probability weights over a finite state set.

    Input may be unnormalized; it is validated (finite, nonnegative, positive
    total mass) and normalized on construction.  A ProbVec passes through
    as is: the same array, not normalized again.  The stored array is
    read-only.
    """

    weights: np.ndarray

    def __post_init__(self):
        if isinstance(self.weights, ProbVec):
            object.__setattr__(self, "weights", self.weights.weights)
            return
        w = _floats(self.weights, InvalidDistribution, "weights")
        if w.ndim != 1 or w.size == 0:
            raise InvalidDistribution("weights must be a nonempty 1-d vector")
        if not np.all(np.isfinite(w)):
            raise InvalidDistribution("weights must be finite")
        if np.any(w < 0):
            raise InvalidDistribution("weights must be nonnegative")
        with np.errstate(over="ignore"):
            if not np.isfinite(w.sum()):  # it overflows: scale by the largest weight first
                w = w / w.max()
        total = w.sum()
        if total <= 0:
            raise InvalidDistribution("total mass must be positive")
        w = w / total
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self):
        return self.weights.size


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """A row-stochastic nonnegative matrix.  A StochasticKernel passes
    through as is: the same read-only matrix."""

    matrix: np.ndarray

    def __init__(self, matrix):
        if isinstance(matrix, StochasticKernel):
            object.__setattr__(self, "matrix", matrix.matrix)
            return
        m = np.array(_floats(matrix, InvalidKernel, "kernel entries"))
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise InvalidKernel("kernel must be a nonempty square matrix")
        m = _verified(m[None], rows=True)[0][0]
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class FunctionVec:
    """A real-valued observable over the state set, read by ``as_values``."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(as_values(self.values))
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def as_values(f, n=None):
    """A FunctionVec's values, or an array-like as a float vector, not copied
    where it already is one.  A value that does not convert to floats, or
    has one that is not finite, raises InvalidArgument.  Given ``n``, a
    value that is not a vector over n states raises DimensionMismatch;
    without it, a value that is not a nonempty 1-d vector raises
    InvalidArgument."""
    v = f.values if isinstance(f, FunctionVec) else _floats(f, InvalidArgument, "function values")
    if n is None:
        if v.ndim != 1 or v.size == 0:
            raise InvalidArgument(f"f must be a nonempty 1-d vector, got shape {v.shape}")
    elif v.ndim != 1 or v.size != n:
        raise DimensionMismatch(f"expected a function over {n} states, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidArgument("function values must be finite")
    return v


@dataclass(frozen=True, eq=False)
class ReversiblePair:
    """A kernel paired with a stationary distribution it is reversible for.

    Construction verifies detailed balance within REVERSIBILITY_TOL (on
    the probability flows) and stationarity within 1e-10, and records the
    worst defect.  The pair keeps its decomposition and summary from first use.
    An exact random-scan pair also carries its Gram root, set where
    ``gibbs._scan_chain`` builds it, and None on any other pair: the
    (cols, vals) arrays that ``gram_factor`` expands into B, where the
    symmetrized kernel is B B^T.
    """

    kernel: StochasticKernel
    stationary: ProbVec
    reversibility_defect: float = field(init=False)
    _root: tuple = field(init=False, default=None, repr=False)

    def __post_init__(self):
        K, w = self.kernel.matrix, self.stationary.weights
        if w.size != K.shape[0]:
            raise DimensionMismatch("kernel and stationary distribution sizes differ")
        defect = _verified(K[None], w[None])[1][0]
        object.__setattr__(self, "reversibility_defect", float(defect))

    @property
    def n(self):
        return self.kernel.n

    @cached_property
    def _eigs(self):
        """Symmetrized eigendecomposition on the support, from one eigh:
        (keep, dropped, ws, sqrt_ws, vals, vecs, asym).  The last eigenvalue
        and column are the stationary ones (see ``_summary``): the other
        columns are orthogonal to d = sqrt(ws).  LAPACK's basis of a
        repeated eigenvalue 1 is arbitrary within its eigenspace (Parlett,
        The Symmetric Eigenvalue Problem), so where more than one eigenvalue
        reaches 1 - UNIT_TOL, the last column becomes d and the cluster's
        others an orthonormal basis of its complement of d: one SVD of the
        cluster with d projected out, and d projected out of its columns
        once more.  A simple eigenvalue 1 leaves LAPACK's arrays untouched.
        """
        keep, dropped, ws, d, A, asym = _symmetrized(self)
        vals, vecs = np.linalg.eigh(A)
        k = np.count_nonzero(vals >= 1.0 - UNIT_TOL)  # the trailing cluster
        if k > 1:
            V = vecs[:, -k:] - np.outer(d, d @ vecs[:, -k:])
            U = np.linalg.svd(V, full_matrices=False)[0][:, :-1]
            vecs[:, -k:-1] = U - np.outer(d, d @ U)
            vecs[:, -1] = d
        return keep, dropped, ws, d, vals, vecs, asym

    @cached_property
    def _spectrum(self):
        """What ``spectral_summary`` returns."""
        _keep, dropped, _ws, _d, vals, _vecs, asym = self._eigs
        return _summary(vals[:-1], dropped, asym)


def checked_stack(K, w):
    """``check_reversibility`` on a stack of pairs (K[y], w[y]) with ``w``
    normalized, at once: K clamped at 0, not to be written to.  Each check
    raises its named error for the first pair that fails it."""
    return _verified(K, w, rows=True)[0]


def _verified(K, w=None, rows=False):
    """The one kernel check, on a (Y, d, d) stack K.  Given ``rows``, every
    entry is finite and at least -1e-15 (then clamped at 0) and each row
    sums to 1 within 1e-12.  Given (Y, d) weights ``w``, each pair
    (K[y], w[y]) holds detailed balance within REVERSIBILITY_TOL and w[y]
    is stationary within 1e-10.  The checks run in that order, each raising
    its named error for the first slice that fails it.  Returns the clamped
    stack, not to be written to, and each pair's detailed-balance defect."""
    if rows:
        if not np.isfinite(K).all():
            raise InvalidKernel("kernel entries must be finite")
        if (K < -1e-15).any():
            raise InvalidKernel("kernel entries must be nonnegative")
        # Clamping changes nothing, not even the sign of a zero, where no
        # entry has its sign bit set; then K itself is returned.
        K = np.maximum(K, 0.0) if np.signbit(K).any() else K
        sums = np.abs(K.sum(axis=2) - 1.0).max(axis=1)
        for worst in sums[sums > 1e-12][:1]:  # the first failing slice, if any
            raise InvalidKernel(f"row sums deviate from 1 by {worst:.3e} (tolerance 1.0e-12)")
    if w is None:
        return K, None
    # The gap is symmetric in (x, z): each block of rows x needs only the
    # columns z >= its first row.
    defect = np.zeros(len(K))
    for start in range(0, K.shape[1], _ROW_BLOCK):
        rows, cols = slice(start, start + _ROW_BLOCK), slice(start, None)
        defect = np.maximum(defect, _flow_gap(K, w, rows, cols).max(axis=(1, 2)))
    for y in np.flatnonzero(defect > REVERSIBILITY_TOL)[:1]:
        gap = _flow_gap(K[y : y + 1], w[y : y + 1], slice(None), slice(None))[0]
        x, z = np.unravel_index(int(gap.argmax()), gap.shape)
        raise NotReversible(
            f"detailed balance fails at states ({x}, {z}) with defect "
            f"{defect[y]:.3e} > {REVERSIBILITY_TOL:.1e}",
            pair=(int(x), int(z)),
            defect=float(defect[y]),
        )
    resid = np.abs(np.matmul(w[:, None, :], K)[:, 0, :] - w).max(axis=1)
    for y in np.flatnonzero(resid > 1e-10)[:1]:
        message = f"weights are not stationary: residual {resid[y]:.3e}"
        raise NotReversible(message, defect=float(defect[y]))
    return K, defect


def _flow_gap(K, w, rows, cols):
    """|w(x)K(x, z) - w(z)K(z, x)| of each pair (K[y], w[y]) of a stack, for
    the states x in the slice ``rows`` and z in the slice ``cols``."""
    flows = w[:, rows, None] * K[:, rows, cols]
    return np.abs(flows - w[:, None, cols] * K[:, cols, rows].transpose(0, 2, 1))


def check_reversibility(kernel, stationary):
    """Pair a kernel with a stationary distribution, verifying detailed balance.

    Raises NotReversible (carrying the worst-violating state pair and the
    defect) when max |w(x)K(x,y) - w(y)K(y,x)| exceeds REVERSIBILITY_TOL.
    """
    return ReversiblePair(kernel=StochasticKernel(kernel), stationary=ProbVec(stationary))


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


def _restrict(K, w):
    """Restrict the kernel K of a pair with stationary weights w to its
    non-null support; renormalize rows and weights.

    States below NULL_MASS are dropped when the restriction stays closed
    (rows leak at most 1e-9).  Models with a huge dynamic range can carry
    genuine, reachable mass below the threshold; for those the restriction
    falls back to dropping exact zeros only, which is always closed for a
    valid reversible pair.
    """
    for keep in (np.flatnonzero(w >= NULL_MASS), np.flatnonzero(w > 0.0)):
        if keep.size == 0:
            raise SingularStationary("no state carries positive stationary mass")
        # A copy is the same matrix as the gather and much cheaper.
        Ks = K.copy() if keep.size == w.size else K[np.ix_(keep, keep)]
        rows = Ks.sum(axis=1)
        if np.abs(rows - 1.0).max() <= 1e-9:
            dropped = tuple(sorted(set(range(w.size)) - set(keep.tolist())))
            return keep, dropped, _renormalize(Ks, rows, w[keep]), Ks
    raise InvalidKernel(
        "support is not closed: rows leak more than 1e-9 mass to zero-mass states"
    )


def _renormalize(Ks, rows, wk):
    """Divide the rows of the restricted kernel(s) ``Ks`` by their sums
    ``rows`` in place; return the restricted weights ``wk`` renormalized.
    Works on one matrix or a stack, with the same arithmetic."""
    Ks /= rows[..., None]
    return wk / wk.sum(axis=-1, keepdims=True)


def _symmetrized(rev):
    """Restricted, symmetrized kernel: (keep, dropped, ws, d, A, asym).

    A = (M + M^T)/2 for M = D^{1/2} K D^{-1/2} on the support, and asym is
    max |M - M^T|.
    """
    keep, dropped, ws, M = _restrict(rev.kernel.matrix, rev.stationary.weights)
    d, A, asym = _symmetrize(M, ws)
    return keep, dropped, ws, d, A, float(asym)


def _symmetrize(M, ws):
    """(d, A, asym) of ``_symmetrized`` for one restricted kernel M or a
    stack of them, with the same arithmetic: M is scaled, then symmetrized
    in place, so A is M's own buffer.  Each pair of mirrored blocks is read
    once, into one block-sized buffer that holds first their |M - M^T|,
    then their mean."""
    d = np.sqrt(ws)
    M *= d[..., :, None]
    M /= d[..., None, :]
    n = M.shape[-1]
    asym = np.zeros(M.shape[:-2])
    buf = np.empty(M.shape[:-2] + (min(n, _SYM_BLOCK),) * 2)
    for i in range(0, n, _SYM_BLOCK):
        for j in range(i, n, _SYM_BLOCK):
            upper = M[..., i : i + _SYM_BLOCK, j : j + _SYM_BLOCK]
            lower = np.swapaxes(M[..., j : j + _SYM_BLOCK, i : i + _SYM_BLOCK], -1, -2)
            b = buf[..., : upper.shape[-2], : upper.shape[-1]]
            np.subtract(upper, lower, out=b)
            np.abs(b, out=b)
            asym = np.maximum(asym, b.max(axis=(-2, -1)))
            np.add(upper, lower, out=b)
            b /= 2.0
            upper[...] = b
            if j != i:  # a diagonal block's mean is symmetric: written once
                lower[...] = b
    return d, M, asym


def stacked_summaries(K, w):
    """``spectral_summary`` of each pair (K[y], w[y]) of a stack that
    ``checked_stack`` passed, from eigenvalues alone.  The pairs whose
    weights all reach NULL_MASS drop no state: they are restricted and
    symmetrized as one batch and read by one stacked ``eigvalsh``.  Any
    other pair is restricted and read on its own."""
    whole = w.min(axis=1) >= NULL_MASS
    M = K[whole]
    batches = [(np.flatnonzero(whole), M, _renormalize(M, M.sum(axis=2), w[whole]), ())]
    for y in np.flatnonzero(~whole):
        _keep, dropped, ws, My = _restrict(K[y], w[y])
        batches.append(([y], My[None], ws[None], dropped))
    summaries = [None] * len(w)
    for ys, M, ws, dropped in batches:
        _d, A, asym = _symmetrize(M, ws)
        for y, vals, a in zip(ys, np.linalg.eigvalsh(A), asym):
            summaries[y] = _summary(vals[:-1], dropped, float(a))
    return summaries


def affine(base, c):
    """The pair c I + (1 - c) K of a pair K that drops no null state, for
    0 <= c <= 1, paired with K's stationary distribution.

    The matrix is verified like any other pair.  Its decomposition is
    read from K's: the same eigenvectors, not copied, the stationary one
    still last and the others orthogonal to it whichever eigenvalues c
    takes to 1, and eigenvalues c + (1 - c) lambda; its symmetrization
    residue is (1 - c) times K's.  So the new pair's spectral quantities
    cost no eigensolve.  A dropped state would be renormalized on a
    different restriction, so it raises InvalidKernel.
    """
    keep, dropped, ws, d, vals, vecs, asym = base._eigs
    if dropped:
        raise InvalidKernel(
            f"an affine pair needs a base that drops no state, got {len(dropped)} dropped"
        )
    M = (1.0 - c) * base.kernel.matrix
    M[np.diag_indices_from(M)] += c
    rev = check_reversibility(M, base.stationary)
    eigs = keep, dropped, ws, d, c + (1.0 - c) * vals, vecs, (1.0 - c) * asym
    object.__setattr__(rev, "_eigs", eigs)
    return rev


def _summary(rest, dropped, asym):
    """SpectralSummary from the ascending mean-zero spectrum ``rest``: the
    symmetrized kernel's spectrum without its top eigenvalue.  That one is
    the stationary eigenvalue, since the spectrum of a reversible
    stochastic kernel lies in [-1, 1] and A d = d for d = sqrt(ws).

    For the degenerate one-state support the mean-zero subspace is empty; the
    summary then reports norm 0, gap 1 and extreme eigenvalues 0 by
    convention.
    """
    lam_min, lam_max = (float(rest[0]), float(rest[-1])) if rest.size else (0.0, 0.0)
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
    its eigendecomposition; the pair computes it once."""
    return instance_of(rev, ReversiblePair, "rev")._spectrum


def eigvals_summary(rev):
    """``spectral_summary`` from eigenvalues alone, for a pair whose
    eigenvectors nothing reads: ``stacked_summaries`` of a stack of one,
    and nothing is kept."""
    rev = instance_of(rev, ReversiblePair, "rev")
    return stacked_summaries(rev.kernel.matrix[None], rev.stationary.weights[None])[0]


def variances(rev, F):
    """Asymptotic variance of time-averages of every column of F.

    Equals 2 <f0, (I-K)^{-1} f0> - |f0|^2 on the mean-zero part f0 of each
    column, evaluated on the eigenbasis of the symmetrized kernel.  This is
    the route for the n-column test-function batteries of the checks, whose
    pairs already hold their decomposition; one column with nothing held
    costs less through ``asymptotic_variance``.  F is read, not written: one
    copy is centred and scaled in place.  Requires a positive spectral gap.
    """
    keep, _dropped, ws, d, vals, vecs, _asym = rev._eigs
    norm = rev._spectrum.operator_norm
    if norm >= 1.0 - UNIT_TOL:
        raise NoSpectralGap(f"operator norm {norm:.12f} leaves no spectral gap")
    Fk = F[keep]
    Fk -= ws @ Fk
    Fk *= d[:, None]
    coef = vecs.T @ Fk
    coef[-1, :] = 0.0
    coef *= coef
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (1.0 + vals) / (1.0 - vals)
    ratios[-1] = 0.0
    return ratios @ coef


def _cholesky_solve(L, b):
    """Solve L L^T x = b for a lower-triangular L by blocked forward and
    back substitution: a small dense solve on each diagonal block and
    matrix-vector products elsewhere, O(n^2) in all."""
    block = 128
    x = np.array(b, dtype=np.float64)
    starts = range(0, x.size, block)
    for s in starts:
        e = s + block
        x[s:e] = np.linalg.solve(L[s:e, s:e], x[s:e])
        x[e:] -= L[e:, s:e] @ x[s:e]
    for s in reversed(starts):
        e = s + block
        x[s:e] = np.linalg.solve(L[s:e, s:e].T, x[s:e])
        x[:s] -= L[s:e, :s].T @ x[s:e]
    return x


def gram_factor(root):
    """The n x r factor B of a Gram root (cols, vals), two (k, n) arrays:
    B[x, cols[i, x]] = vals[i, x], and zero elsewhere."""
    cols, vals = root
    rows = np.arange(cols.shape[1])
    B = np.zeros((rows.size, int(cols.max()) + 1))
    for c, v in zip(cols, vals):
        B[rows, c] = v
    return B


def asymptotic_variance(rev, f):
    """Asymptotic variance of time-averages of f along the chain, from one
    Cholesky factor and no eigendecomposition: the one-column traffic of
    simulation cross-validation, on pairs that hold no decomposition.

    With A the symmetrized kernel on the support, d = sqrt(ws) its
    stationary direction and g = d * f0, the variance is 2 g^T x - g^T g
    where (I - A + d d^T) x = g.  As in ``variances``, an operator norm of
    at least 1 - UNIT_TOL on mean-zero functions raises NoSpectralGap.  The
    upper edge is certified by the Cholesky factor L of a matrix M minus
    UNIT_TOL I, which also solves M y = b: substitution with L, then one step
    of iterative refinement against M itself.  M is taken in one of two
    ways.

    - A pair with a Gram root (an exact random-scan chain, A = B B^T with
      B of order n x r, r < n; see ``gram_factor``) takes the r x r matrix
      M = I - G + u u^T, with G = B^T B and u = B^T d, so that |u| = 1 and
      G u = u, and b = B^T g.  Then x = g + B y and the variance is
      g^T g + 2 b^T y.  M has the spectrum of I - A + d d^T off the
      eigenvalues 1 of either, so its factor certifies the same edge.  The
      lower edge holds since B B^T is psd.
    - Any other pair takes M = I - A + d d^T, built in A's buffer, and
      b = g.  Its lower edge needs lambda_min(A) > -1 + UNIT_TOL.  Gershgorin's
      discs for the similar matrix D^{-1/2} A D^{1/2} (A is nonnegative)
      bound it below by min_i 2 A_ii - (A d)_i / d_i, one matrix-vector
      product; only where that bound falls short by 1e-9, as for a chain
      with a zero diagonal entry, must (1 - UNIT_TOL) I + A have a Cholesky
      factor too, taken on a copy that is freed before M is built.
    """
    v = as_values(f, instance_of(rev, ReversiblePair, "rev").n)
    root = rev._root
    if root is None:
        keep, _dropped, ws, d, A, _asym = _symmetrized(rev)
        v = v[keep]
    else:
        ws = rev.stationary.weights
        d = np.sqrt(ws)
    g = d * (v - float(ws @ v))
    try:
        if root is None:
            b, c = g, -float(g @ g)
            diag = np.diag_indices_from(A)
            low = float(np.min(2.0 * A[diag] - (A @ d) / d))
            if not (np.isfinite(low) and low > -1.0 + UNIT_TOL + 1e-9):
                C = A.copy()
                C[diag] += 1.0 - UNIT_TOL
                np.linalg.cholesky(C)
                del C
            M = A  # d d^T - A, a block of rows at a time
            for s in range(0, M.shape[0], _SYM_BLOCK):
                rows = slice(s, s + _SYM_BLOCK)
                np.subtract(np.outer(d[rows], d), M[rows], out=M[rows])
        else:
            B = gram_factor(root)
            b, c = B.T @ g, float(g @ g)
            u = B.T @ d
            M = np.outer(u, u)  # u u^T - B^T B
            M -= B.T @ B
        diag = np.diag_indices_from(M)
        M[diag] += 1.0 - UNIT_TOL
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise NoSpectralGap(
            f"operator norm on mean-zero functions is at least 1 - {UNIT_TOL:.0e}: "
            "no spectral gap"
        ) from None
    M[diag] += UNIT_TOL
    y = _cholesky_solve(L, b)
    y += _cholesky_solve(L, b - M @ y)
    return 2.0 * float(b @ y) + c


def _steps(t):
    """A step count as a float: +inf past the largest float, so that x ** t
    is 0 below 1 and 1 at 1, and x / t is 0."""
    return float(t) if t <= sys.float_info.max else np.inf


def _powers(x, t):
    """x ** t for an integer t >= 1 on the eigenvalues x of a reversible
    kernel: |x| to the power ``_steps(t)``, a negative x's sign from t's
    parity, so that (-1) ** t is never a NaN, and |x| >= 1 - UNIT_TOL, the
    unit rule, held at 1: LAPACK returns a reducible kernel's repeated unit
    eigenvalue up to 1e-15 below 1."""
    p = np.where(np.abs(x) < 1.0 - UNIT_TOL, np.abs(x), 1.0) ** _steps(t)
    return np.where(x < 0.0, -p, p) if t % 2 else p


def _kernel_power(K, w, t):
    """K ** t for K reversible for w: D^{-1/2} V Lambda^t V^T D^{1/2} on the
    support (Levin, Peres & Wilmer, Markov Chains and Mixing Times, 12.1),
    the identity on a dropped state's row.  The stationary direction d is
    taken out of V and added back exactly: no eigenvalue near 1 moves a row."""
    keep, _dropped, _ws, d, vals, vecs, _asym = check_reversibility(K, w)._eigs
    U = vecs - np.outer(d, d @ vecs)
    P = np.eye(len(K))
    P[np.ix_(keep, keep)] = ((U * _powers(vals, t)) @ U.T + np.outer(d, d)) * d / d[:, None]
    return P


def spectral_jensen_check(rev, f, t, tol=1e-10, fingerprint=""):
    """Certify (<f0,K f0>/|f0|^2)^t <= <f0, K^t f0>/|f0|^2.

    Holds for even t by convexity of x -> x^t on the spectrum, and for odd t
    when the kernel is positive semi-definite; otherwise the hypothesis is
    unmet and PreconditionUnmet is raised.  ``tol`` must be finite and
    positive.  Both sides are read from the pair's one decomposition: with
    c = V^T (d * f0) on the support less its last, stationary coefficient,
    the rhs is sum_k lambda_k^t c_k^2 / sum_k c_k^2 for any t and the lhs
    the plain t-th power of that mean at t = 1, each eigenvalue read through
    ``_powers``: a function in a repeated unit eigenspace reads 1 on each
    side.  That lhs >= 0 needs no check of its own: for even t it is an even
    power, and for odd t it is the t-th power of a Rayleigh quotient of a
    kernel that ``psd`` admitted, so it is at least -PSD_TOL^t up to
    rounding; to test it against ``tol`` would test psd again, with a
    tighter tolerance than ``psd`` itself.
    """
    rev = instance_of(rev, ReversiblePair, "rev")
    t = positive_int(t, "t")
    tol = positive_tol(tol)
    if t % 2 != 0:
        if not spectral_summary(rev).psd:
            raise PreconditionUnmet(
                "odd t requires a positive semi-definite kernel"
            )
    w = rev.stationary.weights
    v = as_values(f, rev.n)
    f0 = v - float(w @ v)
    nrm2 = float(w @ (f0 * f0))
    if nrm2 <= (1e-14 * (1.0 + float(np.abs(v).max()))) ** 2:
        raise ZeroFunction("function is constant on the support")
    keep, _dropped, _ws, d, vals, vecs, _asym = rev._eigs
    c = vecs.T @ (d * f0[keep])
    c[-1] = 0.0
    c *= c
    mass = float(c.sum())
    q = float(_powers(vals, 1) @ c) / mass
    lhs = float(np.copysign(min(abs(q), 1.0) ** _steps(t), q if t % 2 else 1.0))
    rhs = float(_powers(vals, t) @ c) / mass
    return make_report(
        "spectral-jensen",
        lhs,
        rhs,
        tol,
        witness={"t": t, "side": "upper"},
        fingerprint=fingerprint,
    )
