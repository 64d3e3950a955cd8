"""Shared test fixtures."""

import math
from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def eig_counts(monkeypatch):
    """Count dense ``np.linalg`` calls by matrix size: the eigensolvers
    ``eigh`` and ``eigvalsh``, and ``cholesky`` and ``solve``.

    ``eig_counts["eigh"][n]`` is the number of n x n matrices that ``eigh``
    has decomposed so far, likewise for the other three names; a stacked
    call counts each matrix of its stack.  Clear the counters to start
    again.
    """
    counts = {name: Counter() for name in ("eigh", "eigvalsh", "cholesky", "solve")}
    for name, counter in counts.items():
        solve = getattr(np.linalg, name)

        def counting(a, *args, _solve=solve, _counter=counter, **kwargs):
            shape = np.shape(a)
            _counter[shape[-1]] += math.prod(shape[:-2])
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts
