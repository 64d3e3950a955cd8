"""Metamorphic tests: relabelling a model changes no certified number.

Permuting the coordinates of a joint, with its sizes, weights, selection
probabilities and approximator overrides permuted the same way, relabels the
states of every chain, so spectra, approximation quality and gap reports
must not move, and each marginal only has its axes permuted. Permuting the
points of a slice model, with its explicit level kernels reindexed,
relabels the slice chains the same way. These guard the mixed-radix codec,
the Fortran-order reshapes of the joint's weights and the level-set
bookkeeping. Scaling a model's unnormalized weights, factors or density by
a power of two changes no bit of any report or kernel summary, since every
distribution is normalized before it is used.

Battery reports are left out: their witnesses are eigenvectors, and where an
eigenvalue repeats LAPACK picks an arbitrary basis, which a relabelling may
change.
"""

import json
from itertools import combinations, permutations

import numpy as np
import pytest

from hybridgibbs import (
    Analysis,
    ApproximatorSpec,
    Exact,
    ExplicitMatrix,
    Lazy,
    MetropolisIndep,
    MetropolisRW,
    SliceModel,
    canonicalize,
    demo_config,
    joint_from_weights,
    run_suite,
)
from hybridgibbs.randomgen import random_joint, random_mixed_spec, random_slice_model, rng_from
from hybridgibbs.space import marginal
from hybridgibbs.spectral import spectral_summary

TOL = 1e-10
CASES = [((3, 5), perm) for perm in [(1, 0)]] + [
    ((2, 3, 4), perm) for perm in permutations(range(3)) if perm != (0, 1, 2)
]


def permute_joint(joint, perm):
    """The joint whose coordinate k is coordinate ``perm[k]`` of ``joint``."""
    W = joint.weights.reshape(joint.space.sizes, order="F")
    sizes = tuple(joint.space.sizes[c] for c in perm)
    return joint_from_weights(sizes, np.transpose(W, perm).ravel(order="F"))


def permute_spec(spec, perm):
    """``spec`` for the permuted joint: overrides follow their coordinate,
    and explicit tables are rekeyed by coordinate and complement values."""
    default = spec.default
    if isinstance(default, ExplicitMatrix):
        tables = {}
        n = len(perm)
        for (i, y), table in default.tables.items():
            values = dict(zip([c for c in range(n) if c != i], y))
            k = perm.index(i)
            tables[(k, tuple(values[perm[c]] for c in range(n) if c != k))] = table
        default = ExplicitMatrix(tables)
    overrides = {perm.index(i): rule for i, rule in spec.overrides.items()}
    return ApproximatorSpec(default=default, overrides=overrides)


def rule_spec(seed, sizes):
    """A default rule and one override per coordinate, drawn from the rules
    that act on one coordinate's values alone."""
    rng = rng_from(seed)
    rules = [
        lambda d: Exact(),
        lambda d: Lazy(float(rng.uniform(0.0, 0.9))),
        lambda d: MetropolisRW(1),
        lambda d: MetropolisIndep(tuple(rng.random(d) + 0.1)),
    ]
    overrides = {i: rules[int(rng.integers(len(rules)))](d) for i, d in enumerate(sizes)}
    return ApproximatorSpec(default=Lazy(0.5), overrides=overrides)


def close(a, b):
    return np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))) <= TOL


@pytest.mark.parametrize("kind", ["rules", "explicit"])
@pytest.mark.parametrize("sizes, perm", CASES, ids=[f"{s}-{p}" for s, p in CASES])
def test_permuting_coordinates_changes_no_spectrum_quality_or_gap(sizes, perm, kind):
    seed = 7 * len(sizes) + sum(perm)
    joint = random_joint(seed, sizes=sizes)
    if kind == "rules":
        spec = rule_spec(seed, sizes)
    else:
        spec = random_mixed_spec(seed, joint)
    p = rng_from(seed + 1).random(len(sizes)) + 0.2
    a = Analysis(joint, p, spec)
    b = Analysis(permute_joint(joint, perm), p[list(perm)], permute_spec(spec, perm))
    for chain in ("T", "Th"):
        want = spectral_summary(getattr(a, chain)).eigenvalues
        got = spectral_summary(getattr(b, chain)).eigenvalues
        assert close(want, got), chain
    for name in ("max_norm", "ratio_min", "ratio_max"):
        assert close(getattr(a.quality, name), getattr(b.quality, name)), name
    assert a.quality.all_psd == b.quality.all_psd
    assert len(a.quality.per_conditional) == len(b.quality.per_conditional)
    for want, got in zip(a.gap_sandwich(), b.gap_sandwich()):
        assert (want.name, want.status) == (got.name, got.status)
        assert close([want.lhs, want.rhs], [got.lhs, got.rhs]), want.name


@pytest.mark.parametrize("sizes, perm", CASES, ids=[f"{s}-{p}" for s, p in CASES])
def test_permuting_coordinates_permutes_every_marginal(sizes, perm):
    joint = random_joint(3 + sum(perm), sizes=sizes)
    moved = permute_joint(joint, perm)
    n = len(sizes)
    for r in range(1, n):
        for keep in combinations(range(n), r):
            new_keep = sorted(perm.index(c) for c in keep)
            want = marginal(joint, keep).weights.reshape([sizes[c] for c in keep], order="F")
            axes = [keep.index(perm[k]) for k in new_keep]
            got = marginal(moved, new_keep).weights.reshape(
                [moved.space.sizes[k] for k in new_keep], order="F"
            )
            assert close(np.transpose(want, axes), got), keep


def permute_slice(model, sigma):
    """The slice model whose point x is point ``sigma[x]`` of ``model``; an
    explicit level kernel is reindexed to the new order of its level set."""
    density = model.density[sigma]
    moved = SliceModel(density)
    kernels = []
    for old, new, entry in zip(model.level_sets, moved.level_sets, model.level_kernels):
        if isinstance(entry, np.ndarray):
            pos = np.searchsorted(old, sigma[new])
            entry = entry[np.ix_(pos, pos)]
        kernels.append(entry)
    return SliceModel(density, tuple(kernels))


def tie_permutation(rng, density):
    """A permutation that moves points only among points of equal density."""
    sigma = np.arange(density.size)
    for v in np.unique(density):
        members = np.flatnonzero(density == v)
        sigma[members] = rng.permutation(members)
    return sigma


@pytest.mark.parametrize("within_ties", [True, False], ids=["equal-density", "any"])
@pytest.mark.parametrize("seed", range(8))
def test_permuting_points_changes_no_slice_report(seed, within_ties):
    model = random_slice_model(seed, max_points=7)
    rng = rng_from(seed + 100)
    if within_ties:
        sigma = tie_permutation(rng, model.density)
    else:
        sigma = rng.permutation(model.n)
    moved = permute_slice(model, sigma)
    if within_ties:
        assert np.array_equal(moved.density, model.density)
    t = 2
    for want, got in zip(Analysis(model).slice_tstep(t), Analysis(moved).slice_tstep(t)):
        assert (want.name, want.status) == (got.name, got.status)
        assert close([want.lhs, want.rhs], [got.lhs, got.rhs]), want.name


SCALE_CONFIGS = {
    "spike-slab-toy": demo_config("spike-slab-toy"),
    "two-point-slice": demo_config("two-point-slice"),
    "three-coin-block": demo_config("three-coin-block"),
    "five-point-slice": {
        "model": {
            "kind": "slice",
            "density": [0.3, 1.7, 0.9, 2.4, 1.1],
            "level_kernels": [
                {"rule": "lazy", "epsilon": 0.4},
                {"rule": "metropolis_rw", "radius": 1},
                {"rule": "metropolis_indep", "proposal": "uniform"},
                {"rule": "metropolis_rw", "radius": 1},
                {"rule": "lazy", "epsilon": 0.1},
            ],
        },
        "suite": ["slice"],
    },
    "metropolis-rw-3x2x2": {
        "model": {
            "kind": "explicit",
            "sizes": [3, 2, 2],
            "weights": (rng_from(7).random(12) + 0.05).tolist(),
        },
        "approximator": {"default": {"rule": "metropolis_rw", "radius": 1}, "overrides": {}},
        "suite": "all",
    },
}


def scaled(config, factor):
    """``config`` with its model's weights, factors or density times ``factor``."""
    model = dict(config["model"])
    for key in ("weights", "density"):
        if key in model:
            model[key] = [factor * v for v in model[key]]
    if "factors" in model:
        model["factors"] = [[factor * v for v in f] for f in model["factors"]]
    return {**config, "model": model}


def certified(config):
    """(fingerprint, the JSON of every report and kernel summary of a run
    with the reports' fingerprints left out)."""
    out = run_suite(canonicalize(config)).to_dict(include_timing=False)
    for report in out["reports"]:
        report.pop("fingerprint")
    body = {key: out[key] for key in ("kernels", "quality", "reports")}
    return out["fingerprint"], json.dumps(body, sort_keys=True)


@pytest.mark.parametrize("name", sorted(SCALE_CONFIGS))
def test_scaling_the_weights_changes_no_bit_of_any_report(name):
    config = SCALE_CONFIGS[name]
    fingerprint, want = certified(config)
    for factor in (2.0**-7, 2.0**9):
        moved, got = certified(scaled(config, factor))
        assert moved != fingerprint
        assert got == want, factor
