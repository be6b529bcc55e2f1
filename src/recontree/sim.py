"""Forward birth-death simulation, pruning, and exact conditioned samplers.

Samplers:

* :func:`sample_yule_given_n`       -- pure birth, fixed tip count (forward
  construction stopped just before the next speciation event),
* :func:`sample_given_n_age`        -- fixed n and MRCA age x1, drawing the
  n-2 free speciation times by inverse CDF and attaching a coalescent
  topology (uniform random pair merged at each event, backward in time),
* :func:`sample_given_age`          -- fixed x1 only; the tip count is the
  sum of two independent geometric counts, one per root child,
* :func:`sample_rejection_given_age` -- the brute-force oracle: forward
  simulation of both root-child lineages for duration x1, accepted only if
  each leaves at least one sampled extant descendant.

All samplers take a numpy ``Generator`` (or an :class:`RngStream`);
identical seeds give bit-identical output.

Batch samplers (``batch_*``) draw many trees at once as a
:class:`TreeBatch` of arrays.  Each is the same-stream twin of a per-tree
sampler: tree by tree it makes exactly the random draws the per-tree
sampler makes, in the same order, followed by each requested extractor
draw (an ``integers(bound)`` call whose bound depends only on the tree's
tip count).  Everything else -- inverse CDFs, sorting, topology attachment
-- runs over the whole batch in numpy, so a batch holds the same trees,
node numbering included, as the per-tree sampler would return on the same
stream.  The per-tree samplers are the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .kernel import Params, RawParams, p0, yule_rate
from .tree import EXTANT, EXTINCT, INTERNAL, FullTree, ReconTree

__all__ = [
    "RngStream",
    "ExtinctRun",
    "RejectionStats",
    "simulate_forward",
    "reconstruct",
    "sample_yule_given_n",
    "sample_given_n_age",
    "sample_given_age",
    "sample_rejection_given_age",
    "TreeBatch",
    "BATCH_NODES",
    "batch_yule_given_n",
    "batch_given_n_age",
    "batch_given_age",
    "batch_rejection_given_age",
]


@dataclass(frozen=True)
class RngStream:
    """Reproducible substream: (seed, stream_id) -> independent generator."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id])


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


class ExtinctRun(RuntimeError):
    """All lineages died before the end of the run."""


def simulate_forward(raw: RawParams, duration: float, rng) -> FullTree:
    """Gillespie simulation of the birth-death process with sampling.

    Starts from a single lineage (the stem) and runs for ``duration``.
    Each extant tip at the present is independently flagged sampled with
    probability f.
    """
    if not duration > 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    rng = as_generator(rng)
    lh, mh, f = raw.lambda_hat, raw.mu_hat, raw.f
    total_rate_per = lh + mh
    p_birth = lh / total_rate_per
    present = float(duration)
    full = FullTree(parent=[-1], btime=[0.0], etime=[math.nan], kind=[EXTANT])
    parent, btime, etime, kind = full.parent, full.btime, full.etime, full.kind
    active = [0]
    t = 0.0
    exponential, random, integers = rng.exponential, rng.random, rng.integers
    while True:
        t += exponential(1.0 / (total_rate_per * len(active)))
        if t >= present:
            break
        birth = mh == 0.0 or random() < p_birth
        i = int(integers(len(active)))
        lin = active[i]
        etime[lin] = t
        if birth:  # the lineage splits into two new rows
            kind[lin] = INTERNAL
            parent += (lin, lin)
            btime += (t, t)
            etime += (math.nan, math.nan)
            kind += (EXTANT, EXTANT)
            active[i] = len(parent) - 2
            active.append(len(parent) - 1)
        else:
            kind[lin] = EXTINCT
            active[i] = active[-1]
            active.pop()
            if not active:
                raise ExtinctRun("all lineages went extinct before the present")
    full.present = present
    full.sampled = [False] * len(parent)
    for lin in active:
        etime[lin] = present
        full.sampled[lin] = bool(f >= 1.0 or rng.random() < f)
    return full


def reconstruct(full: FullTree) -> Optional[ReconTree]:
    """Prune to the tree on sampled extant tips.

    Drops extinct and unsampled lineages and the stem above the MRCA,
    suppressing pass-through nodes by summing lengths.  Returns None when
    fewer than 2 tips are sampled.
    """
    m = full.n_lineages
    counts = [0] * m
    children: list = [[] for _ in range(m)]
    for i in range(m - 1, -1, -1):
        if full.kind[i] == EXTANT and full.sampled[i]:
            counts[i] += 1
        par = full.parent[i]
        if par >= 0:
            counts[par] += counts[i]
            children[par].append(i)
    total = counts[0]  # lineage 0 is the stem
    if total < 2:
        return None

    rc = [
        [c for c in reversed(children[i]) if counts[c] > 0] for i in range(m)
    ]

    # descend through unary chains to the MRCA of the sampled tips
    cur = 0
    while len(rc[cur]) == 1:
        cur = rc[cur][0]

    n = total
    times = np.zeros(2 * n - 1)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    ch = np.full((n - 1, 2), -1, dtype=np.int64)
    next_leaf = 0
    next_internal = n
    # stack of (lineage, recon_parent, slot)
    stack = [(cur, -1, 0)]
    while stack:
        lin, rpar, slot = stack.pop()
        while True:
            kids = rc[lin]
            if not kids:  # sampled extant tip
                node = next_leaf
                next_leaf += 1
                break
            if len(kids) == 1:
                lin = kids[0]
                continue
            node = next_internal
            next_internal += 1
            times[node] = full.present - full.etime[lin]
            stack.append((kids[1], node, 1))
            stack.append((kids[0], node, 0))
            break
        parent[node] = rpar
        if rpar >= 0:
            ch[rpar - n, slot] = node
    return ReconTree(times, parent, children=ch, validate=False)


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")


def _check_x1(x1: float) -> None:
    if not x1 > 0:
        raise ValueError(f"x1 must be > 0, got {x1}")


def sample_yule_given_n(n: int, lam: Union[float, Params], rng) -> ReconTree:
    """Exact pure-birth sampler conditioned on n tips.

    Waiting time between the (i-1)-th and i-th speciation is Exp(i lam);
    the process stops just before the (n+1)-th speciation, and the
    splitting lineage at each event is chosen uniformly.
    """
    lam = yule_rate(lam)
    _check_n(n)
    rng = as_generator(rng)
    # waits w_i ~ Exp(i lam) for i = 2..n; the last is the post-n stretch
    w = rng.exponential(1.0, size=n - 1) / (lam * np.arange(2, n + 1))
    cum = np.cumsum(w)
    present = cum[-1]
    times = np.zeros(2 * n - 1)
    times[n] = present                      # first split (the root)
    times[n + 1:] = present - cum[:-1]      # splits 2..n-1
    parent = [-1] * (2 * n - 1)
    active = [n, n]
    if n > 2:
        for k, u in enumerate(rng.random(n - 2).tolist(), start=2):
            j = int(u * k)
            v = n + k - 1
            parent[v] = active[j]
            active[j] = v
            active.append(v)
    parent[:n] = active
    return ReconTree(times, parent, validate=False)


def _speciation_time_inverse_cdf(y, x1: float, p: Params):
    """Inverse of G(s|x1) = p0(s)/p0(x1): exact closed form."""
    q = np.asarray(y, dtype=float) * p0(x1, p)
    if p.is_critical:
        return q / (1.0 - p.lam * q)
    d = p.lam - p.mu
    return (np.log1p(-p.mu * q) - np.log1p(-p.lam * q)) / d


def sample_given_n_age(n: int, x1: float, p: Params, rng) -> ReconTree:
    """Exact sampler conditioned on n tips and MRCA age x1."""
    _check_n(n)
    _check_x1(x1)
    rng = as_generator(rng)
    times = np.zeros(2 * n - 1)
    times[n] = x1
    if n > 2:
        draws = _speciation_time_inverse_cdf(rng.random(n - 2), x1, p)
        times[n + 1:] = np.sort(draws)[::-1]  # x_2 > ... > x_{n-1}
    parent = [-1] * (2 * n - 1)
    # coalescent attachment: merge a uniform random pair at each split age,
    # most recent (node 2n-2, smallest age) first
    active = list(range(n))
    u = rng.random((n - 1, 2)).tolist()
    for v, (a, b) in zip(range(2 * n - 2, n - 1, -1), u):
        size = len(active)
        i = int(a * size)
        j = int(b * (size - 1))
        if j >= i:
            j += 1
        parent[active[i]] = v
        parent[active[j]] = v
        lo, hi = (i, j) if i < j else (j, i)
        active[hi] = active[-1]
        active.pop()
        active[lo] = v
    return ReconTree(times, parent, validate=False)


# largest mean tip count sample_given_age accepts; its draws stay far below
# the memory of one machine (P(n > 20 * MAX_MEAN_TIPS) < 1e-8)
MAX_MEAN_TIPS = 10**6


def _geometric_count(u: float, ratio: float) -> int:
    """Inversion sampling of P(G = g) = (1-ratio) ratio^{g-1}, g >= 1."""
    if ratio <= 0.0:
        return 1
    return max(1, math.ceil(math.log(u) / math.log(ratio)))


def _given_age_ratio(x1: float, p: Params) -> float:
    """The ratio lam*p0(x1) of the per-side geometric tip counts, checked."""
    _check_x1(x1)
    ratio = p.lam * p0(x1, p)
    if (1.0 - ratio) * MAX_MEAN_TIPS < 2.0:  # the mean tip count is 2/(1 - ratio)
        raise ValueError(f"x1={x1} with lam={p.lam}, mu={p.mu} gives a mean tip "
                         f"count above {MAX_MEAN_TIPS:.0e}; use a smaller x1")
    return ratio


def sample_given_age(x1: float, p: Params, rng) -> ReconTree:
    """Exact sampler conditioned on the MRCA age x1 alone.

    The tip count is G1 + G2 with G1, G2 independent geometric counts with
    ratio lam*p0(x1) (one per root-child lineage), then delegates to
    :func:`sample_given_n_age`.
    """
    ratio = _given_age_ratio(x1, p)
    rng = as_generator(rng)
    n = _geometric_count(rng.random(), ratio) + _geometric_count(rng.random(), ratio)
    return sample_given_n_age(n, x1, p, rng)


@dataclass
class RejectionStats:
    attempts: int = 0
    accepted: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else float("nan")


def sample_rejection_given_age(
    x1: float,
    raw: RawParams,
    rng,
    max_attempts: int = 10_000_000,
    stats: Optional[RejectionStats] = None,
) -> ReconTree:
    """Forward-simulation oracle conditioned on MRCA age x1.

    Runs both root-child lineages forward for duration x1 and accepts only
    when each has at least one sampled extant descendant, which makes x1
    exactly the MRCA age of the sampled tips.  Raises when ``max_attempts``
    is exhausted, reporting the estimated acceptance rate.
    """
    _check_x1(x1)
    rng = as_generator(rng)
    if stats is None:
        stats = RejectionStats()
    for _ in range(max_attempts):
        stats.attempts += 1
        try:
            side_a = simulate_forward(raw, x1, rng)
        except ExtinctRun:
            continue
        if side_a.sampled_tip_count() < 1:
            continue
        try:
            side_b = simulate_forward(raw, x1, rng)
        except ExtinctRun:
            continue
        if side_b.sampled_tip_count() < 1:
            continue
        stats.accepted += 1
        # join the sides under lineage 0, a zero-length stand-in for the
        # stem that carries the MRCA split; side b's parents shift past side a
        shift = 1 + side_a.n_lineages
        tree = reconstruct(FullTree(
            parent=[-1, *(p + 1 if p >= 0 else 0 for p in side_a.parent),
                    *(p + shift if p >= 0 else 0 for p in side_b.parent)],
            btime=[0.0, *side_a.btime, *side_b.btime],
            etime=[0.0, *side_a.etime, *side_b.etime],
            kind=[INTERNAL, *side_a.kind, *side_b.kind],
            sampled=[False, *side_a.sampled, *side_b.sampled],
            present=x1,
        ))
        assert tree is not None
        return tree
    raise RuntimeError(
        f"no acceptance within {max_attempts} attempts "
        f"(estimated acceptance rate {stats.acceptance_rate:.3g})"
    )


# ---------------------------------------------------------------------------
# Batch samplers
# ---------------------------------------------------------------------------

# nodes per block of a batch sampler: whatever the reps, a block's arrays take
# a few MB, and since building a block draws nothing, blocks move no draw
BATCH_NODES = 1 << 16

# an extractor's per-tree draw: the bound of its integers() call, given n
DrawBound = Callable[[int], int]


@dataclass(frozen=True)
class TreeBatch:
    """R trees with one tip count n, as arrays of shape (R, 2n-1).

    Row i holds the ``times`` and ``parent`` of one tree, numbered as the
    per-tree sampler numbers its :class:`ReconTree`.  ``draws[i]`` holds the
    tree's extractor draws in the order they were requested, and
    ``index[i]`` the tree's position in the sampler's stream.  ``children``
    (R, n-1, 2) is given only where a tree's child table is not the one
    :class:`ReconTree` derives (each node's children in ascending order).
    """

    times: np.ndarray
    parent: np.ndarray
    draws: np.ndarray
    index: np.ndarray
    children: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return (self.times.shape[1] + 1) // 2

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def root(self) -> np.ndarray:
        """The root of each row: its one node with parent -1."""
        return self.parent.argmin(axis=1)

    def child_table(self) -> np.ndarray:
        """(R, n-1, 2): the children of internal node n+k in row i at [i, k]."""
        if self.children is not None:
            return self.children
        order = np.argsort(self.parent, axis=1, kind="stable")  # as ReconTree
        return order[:, 1:].reshape(len(self), self.n - 1, 2)

    def tree(self, i: int) -> ReconTree:
        kids = None if self.children is None else self.children[i]
        return ReconTree(self.times[i], self.parent[i], children=kids, validate=False)


def _blocks(reps: int, n: int) -> Iterator[tuple]:
    """(start, stop) of each block of ``reps`` trees with n tips."""
    step = max(1, BATCH_NODES // (2 * n - 1))
    for start in range(0, reps, step):
        yield start, min(start + step, reps)


def _per_tree(count: int, fills: list, bounds: list, ints) -> np.ndarray:
    """Make each tree's draws in the per-tree sampler's order.

    For tree i, ``fill(out=a[i])`` for each (fill, a) in ``fills``, then
    ``ints(b)`` for each extractor bound b; returns the (count, len(bounds))
    table of extractor draws.
    """
    if len(fills) == 1 and not bounds:  # consecutive rows: one call
        fill, a = fills[0]
        fill(out=a)
        return np.empty((count, 0), dtype=np.int64)
    picks = []
    for i in range(count):
        for fill, a in fills:
            fill(out=a[i])
        picks += [ints(b) for b in bounds]
    return np.array(picks, dtype=np.int64).reshape(count, len(bounds))


def _yule_trees(w: np.ndarray, u: np.ndarray, n: int) -> tuple:
    """:func:`sample_yule_given_n` over rows of waits w and uniforms u."""
    count = w.shape[0]
    cum = np.cumsum(w, axis=1)
    times = np.zeros((count, 2 * n - 1))
    times[:, n] = cum[:, -1]
    times[:, n + 1:] = cum[:, -1:] - cum[:, :-1]
    parent = np.full((count, 2 * n - 1), -1, dtype=np.int64)
    active = np.full((count, n), n, dtype=np.int64)  # first k live before split k
    rows = np.arange(count)
    for k in range(2, n):
        j = (u[:, k - 2] * k).astype(np.int64)
        v = n + k - 1
        parent[rows, v] = active[rows, j]
        active[rows, j] = v
        active[:, k] = v
    parent[:, :n] = active
    return times, parent


def _given_n_age_trees(u: np.ndarray, n: int, x1: float, p: Params) -> tuple:
    """:func:`sample_given_n_age` over rows of its 3n-4 uniforms."""
    count = u.shape[0]
    times = np.zeros((count, 2 * n - 1))
    times[:, n] = x1
    if n > 2:
        draws = _speciation_time_inverse_cdf(u[:, :n - 2], x1, p)
        times[:, n + 1:] = np.sort(draws, axis=1)[:, ::-1]
    pairs = u[:, n - 2:]  # (a, b) per split, most recent first
    parent = np.full((count, 2 * n - 1), -1, dtype=np.int64)
    active = np.tile(np.arange(n), (count, 1))  # first `size` live at each split
    rows = np.arange(count)
    for s in range(n - 1):
        size, v = n - s, 2 * n - 2 - s
        i = (pairs[:, 2 * s] * size).astype(np.int64)
        j = (pairs[:, 2 * s + 1] * (size - 1)).astype(np.int64)
        j += j >= i
        parent[rows, active[rows, i]] = v
        parent[rows, active[rows, j]] = v
        active[rows, np.maximum(i, j)] = active[:, size - 1]
        active[rows, np.minimum(i, j)] = v
    return times, parent


def _bucketed(reps: int, draw_tree: Callable, draws: Sequence[DrawBound], ints,
              build: Callable) -> Iterator[TreeBatch]:
    """Blocks of trees with random tip counts, one batch per tip count.

    ``draw_tree()`` makes one tree's draws and returns (n, payload); the
    tree's extractor draws follow at once.  ``build(n, payloads)`` returns
    the (times, parent) or (times, parent, children) arrays of the trees
    with n tips.
    """
    start = 0
    while start < reps:
        ns, payloads, picks, nodes = [], [], [], 0
        while start + len(ns) < reps and nodes < BATCH_NODES:
            n, payload = draw_tree()
            ns.append(n)
            payloads.append(payload)
            picks += [ints(d(n)) for d in draws]
            nodes += 2 * n - 1
        ns = np.array(ns)
        picks = np.array(picks, dtype=np.int64).reshape(len(ns), len(draws))
        for n in np.unique(ns).tolist():
            sel = np.flatnonzero(ns == n)
            times, parent, *children = build(n, [payloads[i] for i in sel])
            yield TreeBatch(times, parent, picks[sel], start + sel, *children)
        start += len(ns)


def batch_yule_given_n(n: int, lam: Union[float, Params], reps: int, rng,
                       draws: Sequence[DrawBound] = ()) -> Iterator[TreeBatch]:
    """Batch twin of :func:`sample_yule_given_n`: ``reps`` trees in blocks."""
    lam = yule_rate(lam)
    _check_n(n)
    rng = as_generator(rng)
    bounds = [d(n) for d in draws]
    rates = lam * np.arange(2, n + 1)

    def blocks():
        for start, stop in _blocks(reps, n):
            e = np.empty((stop - start, n - 1))
            u = np.empty((stop - start, n - 2))
            # standard_exponential is the per-tree exponential(1.0) bit for bit
            fills = [(rng.standard_exponential, e)] + ([(rng.random, u)] if n > 2 else [])
            picks = _per_tree(stop - start, fills, bounds, rng.integers)
            yield TreeBatch(*_yule_trees(e / rates, u, n), picks, np.arange(start, stop))

    return blocks()


def batch_given_n_age(n: int, x1: float, p: Params, reps: int, rng,
                      draws: Sequence[DrawBound] = ()) -> Iterator[TreeBatch]:
    """Batch twin of :func:`sample_given_n_age`: ``reps`` trees in blocks."""
    _check_n(n)
    _check_x1(x1)
    rng = as_generator(rng)
    bounds = [d(n) for d in draws]

    def blocks():
        for start, stop in _blocks(reps, n):
            u = np.empty((stop - start, 3 * n - 4))  # random(n-2), random((n-1, 2))
            picks = _per_tree(stop - start, [(rng.random, u)], bounds, rng.integers)
            yield TreeBatch(*_given_n_age_trees(u, n, x1, p), picks, np.arange(start, stop))

    return blocks()


def batch_given_age(x1: float, p: Params, reps: int, rng,
                    draws: Sequence[DrawBound] = ()) -> Iterator[TreeBatch]:
    """Batch twin of :func:`sample_given_age`; one batch per drawn n."""
    ratio = _given_age_ratio(x1, p)
    rng = as_generator(rng)
    rand = rng.random

    def draw_tree():
        n = _geometric_count(rand(), ratio) + _geometric_count(rand(), ratio)
        return n, rand(3 * n - 4)  # the uniforms of sample_given_n_age

    return _bucketed(reps, draw_tree, draws, rng.integers,
                     lambda n, rows: _given_n_age_trees(np.array(rows), n, x1, p))


def batch_rejection_given_age(
    x1: float, raw: RawParams, reps: int, rng,
    draws: Sequence[DrawBound] = (), stats: Optional[RejectionStats] = None,
) -> Iterator[TreeBatch]:
    """The rejection oracle as a batch sampler; one batch per tip count.

    Calls :func:`sample_rejection_given_age` once per tree and stacks the
    trees it returns, with their child tables (which :func:`reconstruct`
    orders by descent, not by node number).
    """
    _check_x1(x1)
    rng = as_generator(rng)

    def draw_tree():
        t = sample_rejection_given_age(x1, raw, rng, stats=stats)
        return t.n, t

    return _bucketed(reps, draw_tree, draws, rng.integers,
                     lambda n, trees: tuple(np.array([getattr(t, a) for t in trees])
                                            for a in ("times", "parent", "children")))
