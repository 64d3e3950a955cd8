"""Chain simulation and cross-validation of the exact spectral quantities.

Random numbers come from numpy's Philox generator, a named, seedable,
counter-based generator with cheap stream splitting (``Generator.spawn`` /
``Philox.jumped``): identical (seed, kernel, start) triples reproduce
trajectories bit-exactly across runs, since the stepper consumes a uniform
stream drawn up front.
"""

import os
from dataclasses import dataclass

import numpy as np

from . import _stepper_py
from .errors import (
    CrossCheckFailure,
    DimensionMismatch,
    InvalidDistribution,
    InvalidStart,
    NotAbsolutelyContinuous,
    SpaceTooLarge,
    TooFewBatches,
    instance_of,
    positive_int,
)
from .randomgen import rng_from
from .report import fingerprint_bytes, make_report
from .spectral import ProbVec, ReversiblePair, as_values, asymptotic_variance, eigvals_summary


def kernel_fingerprint(rev):
    # hashlib reads a C-contiguous array's buffer in place: no bytes copy.
    return fingerprint_bytes(
        np.ascontiguousarray(rev.kernel.matrix),
        np.ascontiguousarray(rev.stationary.weights),
    )


def _check_fits(need, what):
    """Raises SpaceTooLarge, naming ``what``, when its ``need`` bytes would
    take more than half the physical memory; a system that reports none is
    not checked."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    if pages > 0 and size > 0 and 2 * need > pages * size:
        raise SpaceTooLarge(
            f"{what} needs {need} bytes, over half the {pages * size} bytes of physical memory"
        )


def _check_path_fits(steps):
    """``_check_fits`` for a path of ``steps`` steps: a uniform and a state
    a step, 8 bytes each, and the start."""
    _check_fits((steps + 1) * 16, f"a path of {steps} steps")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A simulated path: state indices (start included), seed, kernel id."""

    states: np.ndarray
    seed: int
    fingerprint: str

    @property
    def steps(self):
        return self.states.size - 1


@dataclass(frozen=True)
class VarianceEstimate:
    estimate: float
    standard_error: float
    batch: int
    batches: int


def simulate(rev, start, steps, seed):
    """Simulate ``steps`` transitions by per-row inverse-CDF sampling.

    ``start`` is a state index or a distribution (ProbVec / weight vector) to
    draw the initial state from; drawing it takes the first uniform of the
    stream, so the transitions then use the uniforms after it.  A path too
    long for half the physical memory raises SpaceTooLarge before any draw.
    """
    steps = positive_int(steps, "steps")
    _check_path_fits(steps)
    n = instance_of(rev, ReversiblePair, "rev").n
    rng = rng_from(seed)
    if isinstance(start, (bool, np.bool_)):
        raise InvalidStart(f"start must be a state index or a distribution, got {start!r}")
    if isinstance(start, (int, np.integer)):
        s0 = int(start)
        if not 0 <= s0 < n:
            raise InvalidStart(f"start index {s0} out of range [0, {n})")
    else:
        try:
            w = ProbVec(start).weights
        except InvalidDistribution as exc:
            raise InvalidStart(f"bad start distribution: {exc}") from exc
        if w.size != n:
            raise InvalidStart(f"start distribution has length {w.size}, expected {n}")
        cdf = np.cumsum(w)
        u0 = rng.random()
        s0 = int(min(np.searchsorted(cdf, u0, side="right"), n - 1))
    uniforms = rng.random(steps)
    cumulative = np.ascontiguousarray(np.cumsum(rev.kernel.matrix, axis=1))
    states = _stepper_py.walk(cumulative, uniforms, s0)
    return Trajectory(states=states, seed=int(seed), fingerprint=kernel_fingerprint(rev))


def batch_means_variance(traj, f, batch):
    """Batch-means estimate of the asymptotic variance of f along the path.

    Uses nonoverlapping batches of the post-start samples; the estimate is
    batch * sample variance of the batch means, its standard error the usual
    chi-square spread sqrt(2/(B-1)) times the estimate.  Neither the path
    nor f is written: the path's values of f are gathered into one copy.
    """
    batch = positive_int(batch, "batch")
    values = as_values(f)
    if values.size <= traj.states.max():
        raise DimensionMismatch(f"f has length {values.size}; the path visits {traj.states.max()}")
    values = values[traj.states[1:]]  # a copy: it is centred in place
    nb = values.size // batch
    if nb < 20:
        raise TooFewBatches(
            f"{values.size} samples give {nb} batches of {batch}; need at least 20"
        )
    used = values[: nb * batch]
    used -= used.mean()
    means = used.reshape(nb, batch).mean(axis=1)
    est = batch * float(np.var(means, ddof=1))
    se = est * np.sqrt(2.0 / (nb - 1))
    return VarianceEstimate(estimate=est, standard_error=float(se), batch=batch, batches=nb)


def cross_validate_variance(rev, f, steps, seed, batch=None, fingerprint=""):
    """Compare the batch-means estimate against the exact asymptotic variance.

    Passes when the two agree within three standard errors.  The start state
    is drawn from the stationary distribution.
    """
    v = as_values(f, instance_of(rev, ReversiblePair, "rev").n)
    traj = simulate(rev, rev.stationary, steps, seed)
    return _cross_validate(rev, v, traj, batch, fingerprint)


def _cross_validate(rev, f, traj, batch=None, fingerprint=""):
    """``cross_validate_variance`` on an existing trajectory ``traj`` of
    ``rev`` from its stationary start."""
    exact = asymptotic_variance(rev, f)
    steps, seed = traj.steps, traj.seed
    if batch is None:
        batch = max(1, int(np.sqrt(steps)))
    est = batch_means_variance(traj, f, batch)
    return make_report(
        "simulation-cross-validation",
        abs(est.estimate - exact),
        3.0 * est.standard_error,
        0.0,
        witness={
            "exact": float(exact),
            "estimate": est.estimate,
            "standard_error": est.standard_error,
            "batch": est.batch,
            "batches": est.batches,
            "steps": steps,
            "seed": seed,
        },
        fingerprint=fingerprint or traj.fingerprint,
    )


@dataclass(frozen=True, eq=False)
class MixingCurve:
    distances: np.ndarray  # distance at t = 0 .. tmax
    fitted_rate: float
    operator_norm: float


def mixing_curve(rev, mu0, tmax):
    """Exact stationary-L2 distances of mu0 K^t from the stationary law.

    Distances come from the density formula |d(mu K^t)/d(omega) - 1|; the
    decay rate is fitted on the tail of the log curve and verified not to
    exceed the operator norm.  The sum runs over the states the spectral
    routines keep: those not in ``eigvals_summary``'s ``dropped_states``.
    A curve whose tmax + 1 distances, 8 bytes each, exceed half the
    physical memory raises SpaceTooLarge before anything is allocated.
    """
    tmax = positive_int(tmax, "tmax")
    _check_fits((tmax + 1) * 8, f"a mixing curve of {tmax} steps")
    w = instance_of(rev, ReversiblePair, "rev").stationary.weights
    mu = ProbVec(mu0).weights
    if mu.size != rev.n:
        raise DimensionMismatch("initial distribution has the wrong length")
    summary = eigvals_summary(rev)
    keep = np.ones(rev.n, dtype=bool)
    keep[list(summary.dropped_states)] = False
    bad = (mu > 0.0) & ~keep
    if np.any(bad):
        raise NotAbsolutelyContinuous(
            f"initial mass on stationary-null states {np.flatnonzero(bad).tolist()}"
        )
    K = rev.kernel.matrix
    dists = np.empty(tmax + 1)
    for t in range(tmax + 1):
        diff = mu[keep] - w[keep]
        dists[t] = np.sqrt(float(np.sum(diff * diff / w[keep])))
        if t < tmax:
            mu = mu @ K
    norm = summary.operator_norm
    rate = _fit_tail_rate(dists)
    if rate > norm + 1e-6:
        raise CrossCheckFailure(
            f"fitted decay rate {rate:.9f} exceeds the operator norm {norm:.9f}"
        )
    return MixingCurve(distances=dists, fitted_rate=rate, operator_norm=norm)


def _fit_tail_rate(dists):
    # Distances below ~1e-7 of the start lose relative accuracy to the
    # accumulated rounding of the mu @ K recursion and would bias the slope.
    floor = max(1e-7 * dists[0], 1e-290)
    usable = [(t, d) for t, d in enumerate(dists) if t >= 1 and d > floor]
    if len(usable) < 2:
        return 0.0
    tail = usable[-10:]
    ts = np.array([t for t, _ in tail], dtype=float)
    logs = np.log([d for _, d in tail])
    slope = np.polyfit(ts, logs, 1)[0]
    return float(np.exp(slope))


# States per write of write_trajectory: the text of one chunk is a few MiB.
_TRAJECTORY_CHUNK = 1 << 16


def write_trajectory(traj, path):
    """Text export: a header with seed and kernel fingerprint, then one state
    index per line."""
    with open(path, "w") as fh:
        fh.write(f"# seed={traj.seed} kernel={traj.fingerprint}\n")
        for i in range(0, traj.states.size, _TRAJECTORY_CHUNK):
            fh.write("\n".join(map(str, traj.states[i : i + _TRAJECTORY_CHUNK].tolist())) + "\n")
