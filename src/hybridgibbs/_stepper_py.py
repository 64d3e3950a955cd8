"""The trajectory stepper: per-row inverse-CDF sampling from a uniform stream.

The next state is the smallest column j with cum[state, j] > u, clamped to
the last column.  That column is always one where the row's cumulative sum
rises (or column 0), because adding 0.0 never changes a float; so each row
keeps only those columns, plus the clamp target n - 1 as a sentinel after
its last value, and ``bisect_right`` on the kept values picks the same state
as on the full row.  A row that rises at every column shares one column
list, so memory follows the kernel's nonzeros.  Plain lists avoid numpy call
overhead in the sequential loop.  The uniforms and the states are read and
written through memoryviews of their float64 and int64 arrays, so a path
holds 16 bytes a step and no Python object per step.
"""

from bisect import bisect_right

import numpy as np


def _sparse_rows(cum):
    """Per row, the cumulative values where the row rises and the columns
    they select, the latter followed by the sentinel n - 1."""
    n = cum.shape[1]
    rises = np.empty(cum.shape, dtype=bool)
    rises[:, 0] = True
    np.greater(cum[:, 1:], cum[:, :-1], out=rises[:, 1:])
    counts = rises.sum(axis=1)
    full = list(range(n)) + [n - 1]
    vals, nexts = [], []
    for row, keep, count in zip(cum, rises, counts.tolist()):
        if count == n:
            vals.append(row.tolist())
            nexts.append(full)
        else:
            cols = np.flatnonzero(keep)
            vals.append(row[cols].tolist())
            nexts.append(cols.tolist() + [n - 1])
    return vals, nexts


def walk(cumulative, uniforms, start):
    vals, nexts = _sparse_rows(np.asarray(cumulative, dtype=np.float64))
    us = memoryview(np.ascontiguousarray(uniforms, dtype=np.float64))
    out = np.empty(len(us) + 1, dtype=np.int64)
    states = memoryview(out)
    state = int(start)
    states[0] = state
    for t, u in enumerate(us, 1):
        state = nexts[state][bisect_right(vals[state], u)]
        states[t] = state
    return out
