"""The benchmark's workloads: seeded inputs, timed operations, correctness gates.

Every timed operation gets a fresh input derived from the run seed and the
operation's index, so no two operations of a run see the same model. The
program receives only the generated config dicts or arrays, through the
public API.

Each operation has two timed parts, the two things a user does with a model:

* certify -- what ``hybridgibbs check`` costs after set-up: ``run_suite``
  followed by ``RunReport.to_json``. On ``sim-walk`` the certified report is
  the cross-validation report of ``cross_validate_variance``.
* simulate -- what ``hybridgibbs simulate`` costs after set-up: one
  ``cross_validate_variance`` call (trajectory, batch means, exact variance)
  on the model's exact chain, the command's default kernel. On ``sim-walk``
  this is the same call as the certify part.
"""

import json
import time

import numpy as np

# Called as attributes, never imported by name, so that the tracer's
# wrappers at the package bindings are the functions that run.
import hybridgibbs as hg
from hybridgibbs import randomgen

DEFAULT_SEED = 0
SLICE_POINTS = 300
SIM_WALK_STATES = 64
SIM_WALK_STEPS = 10**6
SUITE_SIM_STEPS = 3 * 10**5
REL_TOL = 1e-12
EXACT_VARIANCE_TOL = 1e-9


def op_seed(seed, index):
    """Model seed of operation ``index`` in a run with seed ``seed``."""
    state = np.random.SeedSequence([seed % 2**63, index]).generate_state(1)[0]
    return int(state >> 1)


def _lazy(eps):
    return {"rule": "lazy", "epsilon": eps}


def _rscan_dense(s):
    return {
        "model": {"kind": "random", "sizes": [40, 40], "seed": s},
        "approximator": {"default": _lazy(0.3), "overrides": {}},
        "suite": "all",
        "t": [2, 4],
        "seed": s,
    }


def _block_small(s):
    return {
        "model": {"kind": "random", "sizes": [8, 8, 8], "seed": s},
        "approximator": {"default": {"rule": "metropolis_rw", "radius": 1}, "overrides": {}},
        "suite": "all",
        "seed": s,
    }


def _slice_levels(s):
    rng = np.random.Generator(np.random.Philox(s))
    density = rng.random(SLICE_POINTS) + 0.05
    while np.unique(density).size < SLICE_POINTS:
        density = rng.random(SLICE_POINTS) + 0.05
    return {
        "model": {
            "kind": "slice",
            "density": density.tolist(),
            "level_kernels": [_lazy(0.3)] * SLICE_POINTS,
        },
        "suite": ["slice"],
        "t": [2],
        "seed": s,
    }


SUITE_CONFIGS = {
    "rscan-dense": _rscan_dense,
    "block-small": _block_small,
    "slice-levels": _slice_levels,
}
WORKLOADS = tuple(SUITE_CONFIGS) + ("sim-walk",)


def close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def exact_variance_by_solve(rev, f):
    """Asymptotic variance from the fundamental matrix, with no eigensolve.

    sigma^2 = 2 <f0, g> - <f0, f0> in L2(pi), where (I - K + 1 pi^T) g = f0.
    An independent reference for the eigenbasis formula the program uses.
    """
    K = rev.kernel.matrix
    w = rev.stationary.weights
    f0 = f - float(w @ f)
    g = np.linalg.solve(np.eye(w.size) - K + np.outer(np.ones(w.size), w), f0)
    return 2.0 * float(w @ (f0 * g)) - float(w @ (f0 * f0))


class Prepared:
    """The input of one operation, built before its timer starts."""

    def __init__(self, workload, seed, index):
        self.seed = op_seed(seed, index)
        if workload == "sim-walk":
            rng = np.random.Generator(np.random.Philox(self.seed))
            w = randomgen.random_probvec(rng, SIM_WALK_STATES)
            self.rev = hg.check_reversibility(randomgen.random_reversible_kernel(rng, w), w)
            self.f = np.arange(SIM_WALK_STATES, dtype=float)
            self.config = None
            return
        self.config = hg.canonicalize(SUITE_CONFIGS[workload](self.seed))
        if self.config.is_slice:
            self.rev = hg.slice_exact(self.config.build_slice_model())
            self.f = np.arange(self.rev.n, dtype=float)
        else:
            joint = self.config.build_joint()
            self.rev = hg.exact_random_scan(joint, self.config.selection())
            self.f = (np.arange(joint.n) % joint.space.sizes[0]).astype(float)


def run_op(prep, mark=None):
    """Run one operation; returns (certify_s, simulate_s, steps, certified, xval).

    ``certified`` is the serialized certified report and ``xval`` the
    cross-validation report. On ``sim-walk`` one call is both parts;
    elsewhere ``mark`` is called between the two.
    """
    steps = SIM_WALK_STEPS if prep.config is None else SUITE_SIM_STEPS
    t0 = time.perf_counter()
    if prep.config is None:
        xval = hg.cross_validate_variance(prep.rev, prep.f, steps, prep.seed)
        certified = json.dumps(xval.to_dict(), sort_keys=True)
        t1 = time.perf_counter()
        return t1 - t0, t1 - t0, steps, certified, xval
    certified = hg.run_suite(prep.config).to_json()
    t1 = time.perf_counter()
    if mark is not None:
        mark()
    xval = hg.cross_validate_variance(prep.rev, prep.f, steps, prep.seed)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, steps, certified, xval


def record(prep, certified, xval):
    """The values the correctness gate compares against a stored reference."""
    if prep.config is None:
        reports = [json.loads(certified)]
    else:
        reports = json.loads(certified)["reports"]
    return {
        "reports": [[r["name"], r["status"], r["lhs"], r["rhs"]] for r in reports],
        "exact": xval.witness["exact"],
        "estimate": xval.witness["estimate"],
    }


def problems(prep, rec, xval, reference):
    """Reasons the operation failed; empty when it passed the gate.

    A ``fail`` status fails the operation. The 3-standard-error status of the
    simulation cross-validation is a statistical test and does not. The exact
    variance must match an independent solve, and a second simulation with
    the same kernel and seed must reproduce the trajectory bit for bit. For
    the default seed the record must also match the stored reference.
    """
    out = []
    for name, status, _lhs, _rhs in rec["reports"]:
        if status == "fail" and name != "simulation-cross-validation":
            out.append(f"{name}: status fail")
    solved = exact_variance_by_solve(prep.rev, prep.f)
    if not close(rec["exact"], solved, EXACT_VARIANCE_TOL):
        out.append(f"exact variance {rec['exact']!r} != solve {solved!r}")
    traj = hg.simulate(prep.rev, prep.rev.stationary, xval.witness["steps"], prep.seed)
    again = hg.batch_means_variance(traj, prep.f, xval.witness["batch"]).estimate
    if again != rec["estimate"]:
        out.append(f"batch-means estimate not reproduced: {again!r} vs {rec['estimate']!r}")
    prefix = hg.simulate(prep.rev, prep.rev.stationary, 1000, prep.seed).states
    if not np.array_equal(prefix, traj.states[:1001]):
        out.append("trajectory prefix not reproduced")
    if reference is not None:
        out.extend(compare(rec, reference))
    return out


def compare(rec, ref):
    """Differences between a record and its reference (names, statuses, values)."""
    out = []
    got = {r[0]: r for r in rec["reports"]}
    want = {r[0]: r for r in ref["reports"]}
    if sorted(got) != sorted(want):
        out.append(f"report names differ: {sorted(set(got) ^ set(want))}")
    for name in sorted(set(got) & set(want)):
        _, status, lhs, rhs = got[name]
        _, ref_status, ref_lhs, ref_rhs = want[name]
        if name == "simulation-cross-validation":
            continue  # its lhs/rhs are the estimate and the standard error, checked below
        if status != ref_status:
            out.append(f"{name}: status {status} != reference {ref_status}")
        if not (close(lhs, ref_lhs) and close(rhs, ref_rhs)):
            out.append(f"{name}: lhs/rhs ({lhs!r}, {rhs!r}) != reference ({ref_lhs!r}, {ref_rhs!r})")
    for key in ("exact", "estimate"):
        if not close(rec[key], ref[key]):
            out.append(f"{key} {rec[key]!r} != reference {ref[key]!r}")
    return out
