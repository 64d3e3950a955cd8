"""The trajectory stepper: per-row inverse-CDF sampling from a uniform stream.

The rule: the next state is the smallest column j with cum[state, j] > u,
clamped to the last column.  That column is always one where the row's
cumulative sum rises (or column 0), because adding 0.0 never changes a
float; so each row keeps only those columns.  Two tables of one width, one
more than the widest kept row, hold the kept values padded with +inf and
the columns they select padded with the clamp target n - 1.  The step takes
the column of the first kept value above u, which is what ``bisect_right``
finds, so the tables' memory follows the kernel's nonzeros.

A path is cut into chunks of ``_CHUNK`` steps that advance in lockstep:

1. Every chunk starts from a guess, the path's start, and all chunks take
   each step together, through one vectorized lookup.  The lookup reads a
   guide table of G buckets per row.  Bucket floor(u·G) is exact, and its
   entry, the count of kept values below the bucket's left edge, is a lower
   bound on ``bisect_right``.  A forward scan while the kept value is <= u
   then ends on the column that ``bisect_right`` picks.  A lockstep step
   costs the longest scan among its lanes, so G follows the chain: the
   power of two at or above ``_FINE`` times the widest kept row, halved
   while the table's n · (G + 1) entries exceed ``_GUIDE`` (512 KiB), but
   never below the power of two at or above the widest row.  A dense
   64-state chain gets 512 buckets and about 2 scan passes a step, where
   64 buckets took about 6.
2. Repair rounds re-run, all at once, every chunk whose true start (the
   previous chunk's end) differs from the state it ran from.  Two copies of
   the chain driven by the same uniforms stay together once they meet, so a
   re-run lane stops at the first step whose new state equals the state
   already written there: from that step on the two paths agree.
3. The scalar loop, ``bisect_right`` on views of each row's kept values,
   re-runs in order each chunk that still ran from a wrong state, and takes
   the steps after the last whole chunk.

Rounds end after ``_ROUNDS``, once fewer than ``_FEW`` chunks need one (the
scalar loop is then cheaper), or once a round's lanes mostly fail to merge.
The lockstep pass itself stops, and leaves the whole path to the scalar
loop, once its forward scans have moved some lane more than ``_SCANS``
times a step: a chain whose rows crowd many kept values into one bucket
makes each lockstep step cost tens of vectorized passes.  The costliest
case left is a chain whose copies rarely meet while its scans stay under
that bound: the lockstep pass is then spent and the scalar loop takes the
path as well.  At 10^5 steps on one core of a 2-core VM, against a scalar
loop over per-row lists, a 5-cycle took 1.8× its time and a 7-cycle with
0.2% uniform jumps 2.1–2.3×, the worst measured.  Every path is the one the scalar loop alone gives, bit for
bit.  The lockstep buffers are allocated once per call, and the uniforms
and states are the only arrays as long as the path, so a path holds 16
bytes a step.
"""

from bisect import bisect_right

import numpy as np

_CHUNK = 256  # steps per chunk
_BLOCK = 8  # steps per block of the first pass, copied step-major
_ROUNDS = 3  # repair rounds at most
_FEW = 32  # below this many lanes, a lockstep step costs more than their scalar steps
_PROBE = 32  # a round that has merged under a quarter of its lanes by this step stops
_SCANS = 8  # the first pass stops past this many forward-scan passes a step
_FINE = 16  # guide buckets per kept value of the widest row, at most
_GUIDE = 1 << 16  # guide entries at most, unless buckets as wide as the widest row need more


class _Rows:
    """Each row's kept cumulative values, padded with +inf, and the columns
    they select, padded with the clamp target n - 1: flat n × width tables,
    row r at r * width."""

    def __init__(self, cum):
        m, n = cum.shape
        # Compared as one flat run, then column 0 of each row set: about 3×
        # faster than row by row, and ``flatnonzero`` 8× faster than 2-d
        # ``nonzero`` at n=1600.
        flat = cum.ravel()
        rises = np.empty(flat.size, dtype=bool)
        np.greater(flat[1:], flat[:-1], out=rises[1:])
        rises[::n] = True
        self.counts = counts = np.count_nonzero(rises.reshape(m, n), axis=1)
        self.width = width = int(counts.max()) + 1
        kept = np.flatnonzero(rises)
        del rises
        # Row r's k-th kept column goes to slot r * width + k.
        slots = np.repeat(np.arange(0, m * width, width) - (np.cumsum(counts) - counts), counts)
        slots += np.arange(kept.size)
        self.values = np.full(m * width, np.inf)
        self.values[slots] = flat[kept]
        self.nexts = np.full(m * width, n - 1, dtype=np.int64)
        self.nexts[slots] = kept % n
        self.visited = [None] * m

    def row(self, r):
        """Views of row r's kept values and of its columns with the
        sentinel, kept for the row's next visit."""
        a = r * self.width
        b = a + int(self.counts[r])
        row = self.visited[r] = (memoryview(self.values)[a:b], memoryview(self.nexts)[a : b + 1])
        return row


def _buckets(n, widest):
    """The guide's bucket count G for n rows: the power of two at or above
    ``_FINE`` times the widest kept row, halved while the n · (G + 1)
    entries exceed ``_GUIDE``, but never below the power of two at or above
    the widest row."""
    least = 1 << (widest - 1).bit_length()
    g = least * _FINE
    while g > least and n * (g + 1) > _GUIDE:
        g >>= 1
    return g


class _Lookup:
    """The inverse-CDF step of many lanes at once, into buffers allocated once."""

    def __init__(self, rows, lanes):
        self.values, self.nexts = rows.values, rows.nexts
        n, width = rows.counts.size, rows.width
        self.buckets = g = _buckets(n, int(rows.counts.max()))
        # A kept value v lies below a bucket's left edge b / G exactly when
        # floor(v * G) < b, since G is a power of two; the padding falls in
        # bucket G, which no draw reaches.  Row r's G + 1 counts start at
        # r * (G + 1), offset by the row's start in the tables.
        keys = np.floor(rows.values * g)
        np.add(keys, 1, out=keys)
        np.clip(keys, 0, g, out=keys)
        keys = keys.astype(np.intp).reshape(n, width)
        keys += np.arange(0, n * (g + 1), g + 1)[:, None]
        guide = np.bincount(keys.ravel(), minlength=n * (g + 1)).reshape(n, g + 1)
        del keys
        np.cumsum(guide, axis=1, out=guide)
        guide += np.arange(0, n * width, width)[:, None]
        self.guide = guide.ravel()
        self._flat = np.empty(lanes, dtype=np.intp)
        self._at = np.empty(lanes, dtype=np.intp)
        self._kept = np.empty(lanes)
        self._passed = np.empty(lanes, dtype=bool)

    def bucket(self, us, out):
        """Each draw's guide bucket floor(u * G), for u in [0, 1)."""
        np.multiply(us, self.buckets, out=out, casting="unsafe")

    def __call__(self, states, buckets, us, out):
        """Writes to ``out`` the next state of each lane, from its state, its
        uniform and that uniform's bucket, and returns how many times the
        forward scan moved some lane."""
        m = states.size
        flat, at, kept, passed = self._flat[:m], self._at[:m], self._kept[:m], self._passed[:m]
        np.multiply(states, self.buckets + 1, out=flat)
        np.add(flat, buckets, out=flat)
        self.guide.take(flat, out=at, mode="clip")
        scans = 0
        while True:
            self.values.take(at, out=kept, mode="clip")
            np.less_equal(kept, us, out=passed)
            if not passed.any():
                break
            np.add(at, passed, out=at)
            scans += 1
        self.nexts.take(at, out=out, mode="clip")
        return scans


def _first_pass(look, us, out, chunks):
    """Runs every chunk from the path's start, all chunks together, and
    returns the state each chunk ran from; or None once the forward scans
    have passed more than ``_SCANS`` times a step, when the scalar loop is
    the cheaper way."""
    # The path is chunk-major; a block of steps is copied step-major, so that
    # each lockstep step reads and writes contiguous rows.  Each copy goes
    # through a chunk-major contiguous buffer, about 3× cheaper than one
    # strided copy across the path.
    L, B = _CHUNK, _BLOCK
    path_us = us[: chunks * L].reshape(chunks, L)
    path = out[1 : chunks * L + 1].reshape(chunks, L)
    block_us = np.empty((chunks, B))
    u = np.empty((B, chunks))
    buckets = np.empty((B, chunks), dtype=np.intp)
    block = buckets.reshape(chunks, B)  # the buckets' buffer, once they are spent
    x = np.empty((B, chunks), dtype=np.int64)
    ran_from = np.full(chunks, out[0])
    prev = ran_from
    scans = 0
    for k in range(0, L, B):
        np.copyto(block_us, path_us[:, k : k + B])
        np.copyto(u, block_us.T)
        look.bucket(u, buckets)
        for j in range(B):
            scans += look(prev, buckets[j], u[j], x[j])
            prev = x[j]
        if scans > _SCANS * (k + B):
            return None
        np.copyto(block, x.T)
        np.copyto(path[:, k : k + B], block)
    return ran_from


def _repair(look, us, out, ran_from):
    """Re-runs, in rounds, the chunks that ran from a state other than the
    previous chunk's end, all of a round's chunks together."""
    L, chunks = _CHUNK, ran_from.size
    pos, spare_pos, lane, spare_lane = (np.empty(chunks, dtype=np.intp) for _ in range(4))
    state, nxt, old = (np.empty(chunks, dtype=np.int64) for _ in range(3))
    u = np.empty(chunks)
    buckets = np.empty(chunks, dtype=np.intp)
    moved = np.empty(chunks, dtype=bool)
    for _ in range(_ROUNDS):
        stale = np.flatnonzero(ran_from != out[: chunks * L : L])
        lanes = m = stale.size
        if lanes < _FEW:
            return
        lane[:m] = stale
        np.multiply(stale, L, out=pos[:m])
        out.take(pos[:m], out=state[:m])
        ran_from[stale] = state[:m]
        for k in range(1, L + 1):
            us.take(pos[:m], out=u[:m])
            look.bucket(u[:m], buckets[:m])
            look(state[:m], buckets[:m], u[:m], nxt[:m])
            pos[:m] += 1
            out.take(pos[:m], out=old[:m])
            out.put(pos[:m], nxt[:m])
            np.not_equal(nxt[:m], old[:m], out=moved[:m])
            live = int(np.count_nonzero(moved[:m]))
            if k == _PROBE and 4 * (lanes - live) < lanes:
                # The lanes mostly fail to merge.  Those still apart hold a
                # new prefix and an old rest: the scalar loop re-runs them.
                ran_from[lane[:m][moved[:m]]] = -1
                return
            if live < m:
                np.compress(moved[:m], pos[:m], out=spare_pos[:live])
                np.compress(moved[:m], lane[:m], out=spare_lane[:live])
                np.compress(moved[:m], nxt[:m], out=state[:live])
                pos, spare_pos, lane, spare_lane, m = spare_pos, pos, spare_lane, lane, live
            else:
                state, nxt = nxt, state
            if not live:
                break
        if 2 * m > lanes:
            return


def _scalar(rows, us, states, a, b):
    """Steps a + 1 .. b of the path from state ``states[a]``, by bisect."""
    visited = rows.visited
    state = states[a]
    for t, u in enumerate(us[a:b], a + 1):
        row = visited[state]
        if row is None:
            row = rows.row(state)
        vals, nexts = row
        state = nexts[bisect_right(vals, u)]
        states[t] = state


def walk(cumulative, uniforms, start):
    """The path of states from ``start``, one step per uniform."""
    rows = _Rows(np.ascontiguousarray(cumulative, dtype=np.float64))
    us = np.ascontiguousarray(uniforms, dtype=np.float64)
    # A lockstep step reads each draw's bucket floor(u * G), so the lockstep
    # passes take draws in [0, 1), as a uniform stream's are; the scalar
    # loop takes any others.
    lockstep = us.size >= _FEW * _CHUNK and 0.0 <= us.min() and us.max() < 1.0
    chunks = us.size // _CHUNK if lockstep else 0
    out = np.empty(us.size + 1, dtype=np.int64)
    out[0] = start
    ran_from = []
    if chunks:
        look = _Lookup(rows, chunks)
        ran_from = _first_pass(look, us, out, chunks)
        if ran_from is None:
            chunks, ran_from = 0, []
        else:
            _repair(look, us, out, ran_from)
            ran_from = ran_from.tolist()
    states, umv = memoryview(out), memoryview(us)
    for c, began in enumerate(ran_from):
        if began != states[c * _CHUNK]:
            _scalar(rows, umv, states, c * _CHUNK, (c + 1) * _CHUNK)
    _scalar(rows, umv, states, chunks * _CHUNK, us.size)
    return out
