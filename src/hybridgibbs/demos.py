"""Builtin demo models.

Each entry returns a configuration dict ready for canonicalization.  The
spike-and-slab toy is a fully discretized Bayesian-regression-style joint:
two regression coefficients on 5-point grids, two binary inclusion flags and
a 3-point grid for the inclusion probability (300 states), with a random-walk
Metropolis approximation on the coefficient coordinates and exact draws
elsewhere.
"""

import numpy as np

from .errors import InvalidArgument

_BETA_GRID = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_Q_GRID = np.array([0.25, 0.5, 0.75])
_SLAB_VAR = 2.0
_SPIKE_VAR = 0.25
_TARGET = np.array([0.8, -0.4])
_LIK_SCALE = 0.35


def _two_coin():
    return {
        "model": {"kind": "product", "factors": [[0.5, 0.5], [0.5, 0.5]]},
        "approximator": {"default": {"rule": "lazy", "epsilon": 0.25}, "overrides": {}},
        "suite": ["random-scan", "da", "selection", "supplement"],
    }


def _three_coin_block():
    return {
        "model": {"kind": "product", "factors": [[0.5, 0.5]] * 3},
        "suite": ["random-scan", "block", "supplement"],
    }


def _two_point_slice():
    return {
        "model": {
            "kind": "slice",
            "density": [2.0, 1.0],
            "level_kernels": [
                {"rule": "lazy", "epsilon": 0.5},
                {"rule": "lazy", "epsilon": 0.9},
            ],
        },
        "suite": ["slice"],
        "t": [2, 4, 8, 16],
    }


def _spike_slab_weights():
    """Unnormalized posterior over (beta1, beta2, z1, z2, q), coordinate 1 fastest."""
    weights = []
    for q in _Q_GRID:
        for z2 in (0, 1):
            for z1 in (0, 1):
                for b2 in _BETA_GRID:
                    for b1 in _BETA_GRID:
                        loglik = -0.5 * _LIK_SCALE * (
                            (b1 - _TARGET[0]) ** 2 + (b2 - _TARGET[1]) ** 2
                        )
                        logprior = 0.0
                        for b, z in ((b1, z1), (b2, z2)):
                            tau = _SLAB_VAR if z else _SPIKE_VAR
                            logprior += -0.5 * b * b / tau - 0.5 * np.log(tau)
                        logprior += (z1 + z2) * np.log(q) + (2 - z1 - z2) * np.log(1 - q)
                        weights.append(float(np.exp(loglik + logprior)))
    # The innermost loop varies beta1, so the list is already in codec order.
    return weights


def _spike_slab_toy():
    return {
        "model": {
            "kind": "explicit",
            "sizes": [5, 5, 2, 2, 3],
            "weights": _spike_slab_weights(),
        },
        "approximator": {
            "default": {"rule": "exact"},
            "overrides": {
                "0": {"rule": "metropolis_rw", "radius": 1},
                "1": {"rule": "metropolis_rw", "radius": 1},
            },
        },
        "suite": ["random-scan"],
    }


def _random():
    return {
        "model": {"kind": "random", "sizes": [3, 3], "seed": 2024},
        "approximator": {"default": {"rule": "lazy", "epsilon": 0.3}, "overrides": {}},
        "suite": ["random-scan", "da", "selection", "supplement"],
    }


DEMOS = {
    "two-coin": _two_coin,
    "three-coin-block": _three_coin_block,
    "two-point-slice": _two_point_slice,
    "spike-slab-toy": _spike_slab_toy,
    "random": _random,
}


def list_demos():
    return sorted(DEMOS)


def demo_config(name):
    if name not in DEMOS:
        raise InvalidArgument(f"unknown demo {name!r}; available: {', '.join(list_demos())}")
    return DEMOS[name]()
