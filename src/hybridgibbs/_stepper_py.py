"""The trajectory stepper: per-row inverse-CDF sampling from a uniform stream.

The next state is the smallest column j with cum[state, j] > u, clamped to
the last column. ``bisect_right`` on plain lists returns exactly that index
and avoids numpy call overhead in the sequential loop.
"""

from bisect import bisect_right

import numpy as np


def walk(cumulative, uniforms, start):
    rows = [row.tolist() for row in np.asarray(cumulative, dtype=np.float64)]
    us = np.asarray(uniforms, dtype=np.float64).tolist()
    last = len(rows[0]) - 1
    out = np.empty(len(us) + 1, dtype=np.int64)
    state = int(start)
    out[0] = state
    for t, u in enumerate(us):
        j = bisect_right(rows[state], u)
        state = j if j <= last else last
        out[t + 1] = state
    return out
