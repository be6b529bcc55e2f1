"""Forward birth-death simulation, pruning, and exact conditioned samplers.

Each conditioning scenario has one exact sampler, a batch sampler that
draws ``reps`` trees as :class:`TreeBatch` blocks of arrays:

* :func:`batch_yule_given_n` -- pure birth, fixed tip count (forward
  construction stopped just before the next speciation event),
* :func:`batch_given_n_age`  -- fixed n and MRCA age x1, drawing the n-2
  free speciation times by inverse CDF and attaching a coalescent topology
  (uniform random pair merged at each event, backward in time),
* :func:`batch_given_age`    -- fixed x1 only; the tip count is the sum of
  two independent geometric counts, one per root-child lineage.

:func:`sample_yule_given_n`, :func:`sample_given_n_age` and
:func:`sample_given_age` return one :class:`ReconTree`: each is its batch
sampler's batch of one.  :func:`sample_rejection_given_age` is the
brute-force oracle -- forward simulation of both root-child lineages for
duration x1, accepted only if each leaves at least one sampled extant
descendant -- and shares no code with the exact samplers;
:func:`batch_rejection_given_age` stacks its trees.

A batch sampler makes its random draws tree by tree: each tree's own draws,
then each requested reader draw (an ``integers(bound)`` call whose
bound depends only on the tree's tip count).  Everything else -- inverse
CDFs, sorting, topology attachment -- runs per block, so the trees on a
stream, node numbering included, do not depend on how they are split into
blocks; a batch of one draws the same tree as the first row of a batch of
a thousand.  A block with fewer than :data:`LOCKSTEP_ROWS` rows attaches
its topology row by row on Python lists; a larger one runs a numpy loop
over all rows in lockstep.  Both give the same trees.

All samplers take a numpy ``Generator`` (or an :class:`RngStream`);
identical seeds give bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

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
    "tree_stream",
    "BATCH_NODES",
    "LOCKSTEP_ROWS",
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


def _speciation_time_inverse_cdf(y, x1: float, p: Params):
    """Inverse of G(s|x1) = p0(s)/p0(x1): exact closed form."""
    q = np.asarray(y, dtype=float) * p0(x1, p)
    if p.is_critical:
        return q / (1.0 - p.lam * q)
    d = p.lam - p.mu
    return (np.log1p(-p.mu * q) - np.log1p(-p.lam * q)) / d


# largest mean tip count the given-x1 sampler accepts; its draws stay far below
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
# Exact samplers
# ---------------------------------------------------------------------------

# nodes per block of a batch sampler: whatever the reps, a block's arrays take
# a few MB, and since building a block draws nothing, blocks move no draw
BATCH_NODES = 1 << 16

# blocks with fewer rows attach their topology row by row on Python lists;
# larger ones run one numpy loop over all rows in lockstep, whose per-split
# overhead pays off only over several rows (timed at n = 6 to 1000: the row
# path is faster below 16 rows, the lockstep loop from about 24)
LOCKSTEP_ROWS = 16

# a reader's per-tree draw: the bound of its integers() call, given n
DrawBound = Callable[[int], int]


@dataclass(frozen=True)
class TreeBatch:
    """R trees with one tip count n, as arrays of shape (R, 2n-1).

    Row i holds the ``times`` and ``parent`` of one tree, numbered as its
    :class:`ReconTree` is.  ``draws[i]`` holds the tree's reader draws in
    the order they were requested, and ``index[i]`` the tree's position in
    the sampler's stream.  ``children`` (R, n-1, 2) is given only where a
    tree's child table is not the one :class:`ReconTree` derives (each
    node's children in ascending order).
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


def tree_stream(batches: Iterable[TreeBatch]) -> Iterator[ReconTree]:
    """The trees of a batch sampler as ReconTrees, in the order drawn.

    A block's batches come one after another and cover its stream positions,
    so at most one block is held back at a time.
    """
    pending, k = {}, 0
    for b in batches:
        for row, j in enumerate(b.index.tolist()):
            pending[j] = (b, row)
        while k in pending:
            held, row = pending.pop(k)
            yield held.tree(row)
            k += 1


def _blocks(reps: int, n: int) -> Iterator[tuple]:
    """(start, stop) of each block of ``reps`` trees with n tips."""
    step = max(1, BATCH_NODES // (2 * n - 1))
    for start in range(0, reps, step):
        yield start, min(start + step, reps)


def _per_tree(count: int, fills: list, bounds: list, ints) -> np.ndarray:
    """Make each tree's draws, tree by tree.

    For tree i, ``fill(out=a[i])`` for each (fill, a) in ``fills``, then
    ``ints(b)`` for each reader bound b; returns the (count, len(bounds))
    table of reader draws.
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


def _yule_parent(u: list, n: int) -> list:
    """One Yule tree's parents: split k splits live lineage int(u[k-2] * k)."""
    parent = [-1] * (2 * n - 1)
    active = [n, n]
    for k, x in enumerate(u, start=2):
        j = int(x * k)
        v = n + k - 1
        parent[v] = active[j]
        active[j] = v
        active.append(v)
    parent[:n] = active
    return parent


def _yule_trees(w: np.ndarray, u: np.ndarray, n: int) -> tuple:
    """Yule trees from rows of waits w (n-1 each) and uniforms u (n-2 each)."""
    count = w.shape[0]
    cum = np.cumsum(w, axis=1)
    times = np.zeros((count, 2 * n - 1))
    times[:, n] = cum[:, -1]                        # first split (the root)
    times[:, n + 1:] = cum[:, -1:] - cum[:, :-1]    # splits 2..n-1
    if count < LOCKSTEP_ROWS:
        parent = np.array([_yule_parent(row, n) for row in u.tolist()], dtype=np.int64)
        return times, parent
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


def _coalescent_parent(pairs: list, n: int) -> list:
    """One tree's parents: each split merges a uniform pair of live nodes."""
    parent = [-1] * (2 * n - 1)
    active = list(range(n))
    for v, a, b in zip(range(2 * n - 2, n - 1, -1), pairs[0::2], pairs[1::2]):
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
    return parent


def _given_n_age_trees(u: np.ndarray, n: int, x1: float, p: Params) -> tuple:
    """Trees given (n, x1) from rows of 3n-4 uniforms: n-2 split ages, then
    the (a, b) pair of each split, most recent (node 2n-2) first."""
    count = u.shape[0]
    times = np.zeros((count, 2 * n - 1))
    times[:, n] = x1
    if n > 2:
        draws = _speciation_time_inverse_cdf(u[:, :n - 2], x1, p)
        times[:, n + 1:] = np.sort(draws, axis=1)[:, ::-1]  # x_2 > ... > x_{n-1}
    pairs = u[:, n - 2:]
    if count < LOCKSTEP_ROWS:
        parent = np.array([_coalescent_parent(row, n) for row in pairs.tolist()],
                          dtype=np.int64)
        return times, parent
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
    tree's reader draws follow at once.  ``build(n, payloads)`` returns
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
    """``reps`` pure-birth trees conditioned on n tips.

    Waiting time between the (i-1)-th and i-th speciation is Exp(i lam);
    the process stops just before the (n+1)-th speciation, and the
    splitting lineage at each event is chosen uniformly.  Per tree: n-1
    standard exponentials, then n-2 uniforms.
    """
    lam = yule_rate(lam)
    _check_n(n)
    rng = as_generator(rng)
    bounds = [d(n) for d in draws]
    rates = lam * np.arange(2, n + 1)

    def blocks():
        for start, stop in _blocks(reps, n):
            e = np.empty((stop - start, n - 1))
            u = np.empty((stop - start, n - 2))
            fills = [(rng.standard_exponential, e)] + ([(rng.random, u)] if n > 2 else [])
            picks = _per_tree(stop - start, fills, bounds, rng.integers)
            yield TreeBatch(*_yule_trees(e / rates, u, n), picks, np.arange(start, stop))

    return blocks()


def batch_given_n_age(n: int, x1: float, p: Params, reps: int, rng,
                      draws: Sequence[DrawBound] = ()) -> Iterator[TreeBatch]:
    """``reps`` trees conditioned on n tips and MRCA age x1.

    The n-2 free speciation times are drawn by inverse CDF and a coalescent
    topology is attached: a uniform random pair merged at each split age,
    backward in time.  Per tree: 3n-4 uniforms.
    """
    _check_n(n)
    _check_x1(x1)
    rng = as_generator(rng)
    bounds = [d(n) for d in draws]

    def blocks():
        for start, stop in _blocks(reps, n):
            u = np.empty((stop - start, 3 * n - 4))
            picks = _per_tree(stop - start, [(rng.random, u)], bounds, rng.integers)
            yield TreeBatch(*_given_n_age_trees(u, n, x1, p), picks, np.arange(start, stop))

    return blocks()


def batch_given_age(x1: float, p: Params, reps: int, rng,
                    draws: Sequence[DrawBound] = ()) -> Iterator[TreeBatch]:
    """``reps`` trees conditioned on the MRCA age x1 alone; one batch per n.

    The tip count is G1 + G2 with G1, G2 independent geometric counts with
    ratio lam*p0(x1), one per root-child lineage; the tree is then drawn
    given (n, x1) as :func:`batch_given_n_age` draws it.  Per tree: two
    uniforms, then 3n-4.
    """
    ratio = _given_age_ratio(x1, p)
    rng = as_generator(rng)
    rand = rng.random

    def draw_tree():
        n = _geometric_count(rand(), ratio) + _geometric_count(rand(), ratio)
        return n, rand(3 * n - 4)

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


# the single-tree entry points: each is its batch sampler's batch of one

def sample_yule_given_n(n: int, lam: Union[float, Params], rng) -> ReconTree:
    """One tree of :func:`batch_yule_given_n`."""
    return next(tree_stream(batch_yule_given_n(n, lam, 1, rng)))


def sample_given_n_age(n: int, x1: float, p: Params, rng) -> ReconTree:
    """One tree of :func:`batch_given_n_age`."""
    return next(tree_stream(batch_given_n_age(n, x1, p, 1, rng)))


def sample_given_age(x1: float, p: Params, rng) -> ReconTree:
    """One tree of :func:`batch_given_age`."""
    return next(tree_stream(batch_given_age(x1, p, 1, rng)))
