"""Forward birth-death simulation, pruning, exact conditioned samplers and
brute-force oracles.

Each conditioning scenario (a key of :data:`SCENARIOS`) has one exact
sampler, a batch sampler that draws ``reps`` trees as :class:`TreeBatch` blocks:

* :func:`batch_yule_given_n` -- pure birth, fixed tip count (exponential
  waits between speciation events, stopped just before the next one),
* :func:`batch_given_n_age`  -- fixed n and MRCA age x1, drawing the n-2
  free speciation times by inverse CDF,
* :func:`batch_given_age`    -- fixed x1 only; the tip count is the sum of
  two independent geometric counts, one per root-child lineage.

Every batch has one layout: tips 0..n-1 at age 0, the root at node n, and
nodes n+1..2n-2 in non-increasing age, so node n+k-1 is the k-th split.  The
readers in :mod:`recontree.mc` index its :attr:`TreeBatch.lengths`, the edge
above each node.  :func:`rows_in_order` yields each tree's ``(batch, row)``
in the order drawn; :func:`tree_stream` builds a :class:`ReconTree` from
each, and ``recontree simulate`` writes each with :meth:`TreeBatch.newick`,
from the batch's ``children`` and ``lengths`` tables, the text
:func:`recontree.tree.to_newick` gives its ReconTree.

In every scenario the ranked topology is uniform and independent of the
node ages, and one builder attaches it (:func:`_merge_trees`).  It reads
the tree backward in time as n-1 merges of live nodes, each given by two
positions lo < hi.  Each sampler turns its draws into these positions
before the builder runs.  The Yule sampler undoes its forward splits:
split k took the lineage at position int(u*k) and put its children there
and at the new last position k, so it is the merge (int(u*k), k).  The
given-(n, x1) sampler merges a uniform pair of the live nodes.

:func:`sample_yule_given_n`, :func:`sample_given_n_age` and
:func:`sample_given_age` return one :class:`ReconTree`: each is its batch
sampler's batch of one.

Two brute-force oracles draw the given-x1 law from the raw rates
(lambda_hat, mu_hat, f), which checks the incomplete-sampling transform.
Both simulate the two root-child lineages (the *sides*) forward for
duration x1 and accept when each side leaves at least one sampled extant
descendant; an *attempt* is one pair of sides, and :class:`RejectionStats`
counts attempts and acceptances.  Neither shares sampling code with the
exact samplers:

* :func:`batch_forward_given_age` runs a block of sides in lockstep as
  arrays.  The ``transform_equivalence`` check and ``recontree simulate
  --scenario rejection-given-age`` draw from it.
* :func:`sample_rejection_given_age` runs one pair at a time with scalar
  draws (:func:`simulate_forward`, then :func:`reconstruct`) and returns
  one :class:`ReconTree`.  It is the independent reference the tests hold
  the lockstep oracle to; the benchmark's tracer looks it and its two
  helpers up by name, so they keep their names.

At lambda_hat=2, mu_hat=0.5, f=0.5, x1=1 (acceptance rate 0.455), the
per-tree oracle took 200-230 µs per accepted tree and the lockstep oracle
about 30 µs (3.0 s for 10^5 trees), on a 2-core x86-64 VM with numpy 2.4.

The exact samplers draw, tree after tree, each tree's own draws, then each
requested reader draw (an ``integers(bound)`` call whose bound depends only
on the tree's tip count).  The Yule sampler makes these calls itself,
filling each tree's rows: how many words numpy's ziggurat takes for an
exponential cannot be told from outside.  The given-(n, x1) and given-x1
samplers replay them instead (:class:`_Replay`): a block draws its words
with one ``random_raw`` call, reads each tree's doubles and reader draws
from them as the Generator's calls would, and leaves the bit generator in
the state those calls leave.  Both run one block loop,
:func:`_replayed_batches`: a given-x1 tree is a given-(n, x1) tree after
two head doubles, whose geometric counts give its n.  A block is read
one of two ways.  Either all its trees are read as arrays: given (n, x1)
each tree's offset is closed form, given x1 a chain of list lookups over a
tip-count table finds it, and one vectorized Lemire test reads every
reader half.  Or, where a half is rejected or a bound lies outside
[1, 2^32], the Generator's own calls draw the block from its first word.
Either way the block's tip counts (given (n, x1), all n) pick its reader
bounds and split it into one batch per tip count.  A tip count that reads
a zero double raises as :func:`_geometric_count` does.  The replay
follows PCG64, which ``default_rng`` and :class:`RngStream` give; these
two samplers refuse any other bit generator before a draw.  The digests pinned by
``tests/test_same_samples.py`` are the contract with numpy's stream: a
numpy that changed how its Generator turns words into doubles or
integers would move them.  Everything else -- inverse CDFs, sorting, merge
positions, topology attachment -- runs per block, so the trees on a
stream, node numbering included, do not depend on how they are split into
blocks; a batch of one draws the same tree as the first row of a batch of
a thousand.  Every sampler that takes x1 checks it with the laws' guard,
:func:`recontree.kernel._check_age`.  The builder attaches a block with
fewer than :data:`LOCKSTEP_ROWS` rows row by row on Python lists, and a
larger one in one numpy loop over all rows in lockstep.  Both give the
same trees.  The lockstep oracle instead draws block by block, so its trees
depend on ``reps`` and :data:`FORWARD_NODES`: the first k trees of
``simulate --scenario rejection-given-age --reps 10`` are not those of
``--reps 100``.

On the same VM, in CPU time, 2000 trees given (n=6, x1=2) with three
readers took 1 ms read as arrays (12 ms walked), and 2000 given x1=1.5
(lam=1, mu=0.4) with two readers 4.2 ms (15 ms); one tree alone takes
about 50 µs given (n, x1) and 75 µs given x1 (see README).

All samplers take a numpy ``Generator`` (or an :class:`RngStream`);
identical seeds give bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .kernel import Params, RawParams, _at_least, _check_age, p0, transform_params, yule_rate
from .tree import (EXTANT, EXTINCT, INTERNAL, FullTree, ReconTree, _children, _edge_lengths,
                   _newick, _tip_labels)

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
    "rows_in_order",
    "tree_stream",
    "BATCH_NODES",
    "LOCKSTEP_ROWS",
    "batch_yule_given_n",
    "batch_given_n_age",
    "batch_given_age",
    "FORWARD_NODES",
    "MAX_ATTEMPTS",
    "batch_forward_given_age",
    "SCENARIOS",
]


@dataclass(frozen=True)
class RngStream:
    """Reproducible substream: (seed, stream_id) -> independent generator."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id])


def as_generator(rng) -> np.random.Generator:
    """``rng`` as a numpy Generator; anything but a Generator or an
    :class:`RngStream` is refused before it draws."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy Generator or an RngStream, "
                         f"got {type(rng).__name__}")
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


def _speciation_time_inverse_cdf(y, x1: float, p: Params):
    """Inverse of G(s|x1) = p0(s)/p0(x1): exact closed form.  s solves
    p0(s) = q, q = y p0(x1): s = (log1p(-mu q) - log1p(-lam q)) / d, d = lam - mu,
    or, where that difference cancels (d near 0), -log1p(-d z)/d with
    z = q/(1 - mu q), which is z itself at mu = lam."""
    q = np.asarray(y, dtype=float) * p0(x1, p)
    d = p.lam - p.mu
    if p.is_critical:
        z = q / (1.0 - p.mu * q)
        return -np.log1p(-d * z) / d if d else z
    return (np.log1p(-p.mu * q) - np.log1p(-p.lam * q)) / d


# largest tip count the samplers accept: n itself given n or (n, x1), where a
# one-tree block at n = 10^6 peaks near 250 MB, and the mean count given x1,
# whose draws stay far below the memory of one machine
# (P(n > 20 * MAX_MEAN_TIPS) < 1e-8)
MAX_MEAN_TIPS = 10**6


def _check_tips(n: int):
    _at_least("n", n, 2)
    if n > MAX_MEAN_TIPS:
        raise ValueError(f"n must be <= {MAX_MEAN_TIPS:.0e}, got {n}")


def _geometric_count(u: float, ratio: float) -> int:
    """Inversion sampling of P(G = g) = (1-ratio) ratio^{g-1}, g >= 1."""
    if ratio <= 0.0:
        return 1
    return max(1, math.ceil(math.log(u) / math.log(ratio)))


# |q - round(q)| / q below this marks a quotient q = log(u) / log(ratio)
# whose ceiling np.log, a few ulps off math.log at some u, could move
TIE_GAP = 2.0 ** -40

# the tip-count table's entry for u = 0: any tip count with it is below 2
ZERO_DOUBLE = -1 << 40


def _tip_counts(u: np.ndarray, ratio: float) -> list:
    """:func:`_geometric_count` of each u, as a list of ints, with
    :data:`ZERO_DOUBLE` where u = 0: the count refuses it, so a sampler that
    reads one as a count raises through :func:`_geometric_count`.

    One ``np.log`` pass; the entries whose quotient lies within
    :data:`TIE_GAP` of an integer are recomputed through
    :func:`_geometric_count` and its ``math.log``.  ``ratio`` lies in
    [0, 1), as :func:`_given_age_ratio` leaves it; at 0 (lam p0(x1)
    underflowed) every count is 1, as :func:`_geometric_count` gives.
    """
    if not ratio:
        return [1] * u.size
    with np.errstate(divide="ignore", invalid="ignore"):  # u = 0 gives q = inf
        q = np.log(u) / math.log(ratio)
        tie = ~(np.abs(q - np.rint(q)) > TIE_GAP * q)  # and u = 0
    counts = np.maximum(np.ceil(np.where(tie, 1.0, q)), 1.0).astype(np.int64).tolist()
    for i in np.flatnonzero(tie).tolist():
        counts[i] = _geometric_count(u.item(i), ratio) if u[i] else ZERO_DOUBLE
    return counts


def _given_age_ratio(x1: float, p: Params) -> float:
    """The ratio lam*p0(x1) of the per-side geometric tip counts, checked."""
    ratio = p.lam * _check_age(x1, p)
    if (1.0 - ratio) * MAX_MEAN_TIPS < 2.0:  # the mean tip count is 2/(1 - ratio)
        raise ValueError(f"x1={x1} with lam={p.lam}, mu={p.mu} gives a mean tip "
                         f"count above {MAX_MEAN_TIPS:.0e}; use a smaller x1")
    return ratio


@dataclass
class RejectionStats:
    """Counts of a rejection oracle.  An attempt is one pair of sides (the two
    root-child lineages run forward for x1); it is accepted when both sides
    leave a sampled extant descendant."""

    attempts: int = 0
    accepted: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else float("nan")


# the per-tree rejection oracle gives up after this many attempts at one tree,
# and the lockstep forward oracle once a block ends this many attempts after
# its last acceptance
MAX_ATTEMPTS = 10_000_000


def sample_rejection_given_age(
    x1: float,
    raw: RawParams,
    rng,
    stats: Optional[RejectionStats] = None,
) -> ReconTree:
    """Forward-simulation oracle conditioned on MRCA age x1, one tree.

    Runs both root-child lineages forward for duration x1 and accepts only
    when each has at least one sampled extant descendant, which makes x1
    exactly the MRCA age of the sampled tips.  Raises after
    :data:`MAX_ATTEMPTS` attempts, reporting the estimated acceptance rate.

    This is the scalar reference for :func:`batch_forward_given_age`, which
    every caller in the package uses; the tests compare the two laws.  The
    benchmark's tracer looks this name up, so it stays as it is.
    """
    _check_age(x1, transform_params(raw))
    rng = as_generator(rng)
    if stats is None:
        stats = RejectionStats()
    for _ in range(MAX_ATTEMPTS):
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
        f"no acceptance within {MAX_ATTEMPTS} attempts "
        f"(estimated acceptance rate {stats.acceptance_rate:.3g})"
    )


# ---------------------------------------------------------------------------
# Exact samplers
# ---------------------------------------------------------------------------

# nodes per block of a batch sampler: whatever the reps, a block's arrays take
# a few MB, and since building a block draws nothing, blocks move no draw
BATCH_NODES = 1 << 16

# blocks with fewer rows attach their topology row by row on Python lists;
# larger ones run one numpy loop over all rows in lockstep, whose per-merge
# overhead pays off only over several rows (timed at n = 6, 20 and 200: the
# row path is faster below about 12, 16 and 20 rows)
LOCKSTEP_ROWS = 16

# a reader's per-tree draw: the bound of its integers() call, given n
DrawBound = Callable[[int], int]


@dataclass(frozen=True)
class TreeBatch:
    """R trees with one tip count n, as arrays of shape (R, 2n-1).

    Row i holds the ``times`` and ``parent`` of one tree, numbered as its
    :class:`ReconTree` is: tips 0..n-1 at age 0, the root at node n, then
    n+1..2n-2 in non-increasing age (node n+k-1 is the k-th split).  Readers
    index ``lengths``.  ``draws[i]`` holds the tree's reader draws in the
    order requested, and ``index[i]`` its stream position.
    """

    times: np.ndarray
    parent: np.ndarray
    draws: np.ndarray
    index: np.ndarray

    @property
    def n(self) -> int:
        return (self.times.shape[1] + 1) // 2

    def __len__(self) -> int:
        return self.times.shape[0]

    @cached_property
    def lengths(self) -> np.ndarray:
        """(R, 2n-1): the edge above each node, 0 at the root; computed once per batch."""
        return _edge_lengths(self.times, self.parent, self.n)

    @cached_property
    def children(self) -> np.ndarray:
        """(R, n-1, 2): the two children of node n+k at [:, k], in ascending node
        order (:func:`recontree.tree._children`); computed once per batch."""
        return _children(self.parent)

    @cached_property
    def labels(self) -> list:
        return _tip_labels(self.n)

    def tree(self, i: int) -> ReconTree:
        return ReconTree(self.times[i], self.parent[i], children=self.children[i], validate=False)

    def newick(self, i: int) -> str:
        """Row i as Newick text, the text of ``to_newick(self.tree(i))``, written
        from the batch's ``children`` and ``lengths`` tables."""
        n = self.n
        return _newick(n, self.labels, self.children[i].tolist(), self.lengths[i].tolist(), n)


def rows_in_order(batches: Iterable[TreeBatch]) -> Iterator[tuple]:
    """``(batch, row)`` of each tree of a batch sampler, in the order drawn.

    A block's batches come one after another and cover its stream positions,
    so at most one block is held back at a time.
    """
    pending, k = {}, 0
    for b in batches:
        for row, j in enumerate(b.index.tolist()):
            pending[j] = (b, row)
        while k in pending:
            yield pending.pop(k)
            k += 1


def tree_stream(batches: Iterable[TreeBatch]) -> Iterator[ReconTree]:
    """The trees of a batch sampler as ReconTrees, in the order drawn."""
    return (b.tree(row) for b, row in rows_in_order(batches))


def _pcg64(rng) -> np.random.Generator:
    """``rng`` as a Generator on PCG64, the bit generator whose words
    :class:`_Replay` replays; any other is refused before anything is drawn."""
    rng = as_generator(rng)
    if type(rng.bit_generator) is not np.random.PCG64:
        raise ValueError(f"the given-(n, x1) and given-x1 samplers replay PCG64 draws; "
                         f"got {type(rng.bit_generator).__name__}")
    return rng


def _as_doubles(words: np.ndarray) -> np.ndarray:
    """The doubles numpy's Generator makes from raw 64-bit words."""
    return (words >> 11) * 2.0 ** -53


class _Replay:
    """A PCG64 Generator's draws, replayed from buffers of its raw 64-bit words.

    numpy's Generator makes a double from one word w as (w >> 11) 2^-53.
    ``integers(b)`` draws nothing for b = 1; for 1 < b <= 2^32 it takes
    Lemire's method (Lemire, ACM TOMACS 29, 2019) on 32-bit halves: the low
    half of a new word, with the high half held in the bit generator's state
    (``has_uint32``, ``uinteger``) for the next half drawn, and another half
    after each rejection.  Doubles leave the held half alone.

    ``held`` and ``half`` start as the half held before the block, read once
    here with the rest of the state (``random_raw`` leaves it alone).  A
    block reads all its trees as arrays (:func:`_read_halves`), and
    :meth:`finish` then leaves the bit generator where the Generator's own
    calls would have: the words used consumed and the held half, even a used
    one, as they left it.  Where that read cannot, :meth:`rewind` puts the
    state back, for the Generator's own calls to draw the block.
    """

    def __init__(self, rng: np.random.Generator, size: int):
        self.bits = rng.bit_generator
        self.state = self.bits.state
        self.held, self.half = self.state["has_uint32"], self.state["uinteger"]
        self.words = self.bits.random_raw(size)

    def need(self, end: int):
        """Draw on until the buffer holds ``end`` words."""
        if end > self.words.size:
            more = self.bits.random_raw(max(end - self.words.size, self.words.size))
            self.words = np.concatenate((self.words, more))

    def doubles(self, at: np.ndarray, width: int) -> np.ndarray:
        """(len(at), width) doubles, row i from the ``width`` words at at[i]:
        one slice where the rows lie end to end, as one row does."""
        first, last = at.item(0), at.item(-1)
        if last - first == (len(at) - 1) * width:
            words = self.words[first:last + width].reshape(len(at), width)
        else:
            words = self.words[at[:, None] + np.arange(width)]
        return _as_doubles(words)

    def rewind(self):
        """Put back the state the block started from, held half included."""
        self.bits.state = self.state

    def finish(self, used: int):
        """Leave the bit generator after the first ``used`` words."""
        now = self.state["has_uint32"], self.state["uinteger"]  # the half it holds
        if used < self.words.size:
            self.bits.advance(used - self.words.size)  # give back the words not used
            now = (0, 0)  # advance() clears the held half
        if (self.held, self.half) != now:
            state = self.bits.state
            state["has_uint32"], state["uinteger"] = self.held, self.half
            self.bits.state = state


def _read_halves(r: _Replay, offsets: np.ndarray, bounds: np.ndarray) -> Optional[np.ndarray]:
    """The reader draws of a block's trees, read from ``r``'s words as arrays.

    Tree i draws one 32-bit half for each bound above 1 in ``bounds[i]``
    (uint64, none above 2^32), taking its new words from ``offsets[i]`` on.
    Number the block's halves j = 0, 1, ... in draw order, and let
    k = j - H0, where H0 is ``r.held`` at the start.  Half j < H0 is the
    held half ``r.half``.  Half k >= 0 is the low half of a new word when k
    is even, and the high half of the same word as half k - 1 when k is odd.
    So a tree that starts holding a half (H0 plus the halves before it is
    odd) takes it first, from the word of the half just before; its other
    halves are the low and high halves of its own words in turn.

    One Lemire test, (x b) mod 2^32 < 2^32 mod b, checks every half.  If
    none is rejected, returns the draws, shaped like ``bounds``, and sets
    ``r.held`` and ``r.half`` to the held half they leave; otherwise
    returns None and leaves ``r`` as it was.
    """
    picks = np.zeros(bounds.shape, dtype=np.int64)
    rows, cols = np.nonzero(bounds > 1)
    if not rows.size:
        return picks
    h = np.bincount(rows, minlength=len(offsets))  # halves per tree
    before = np.cumsum(h) - h
    held0 = r.held
    k = np.arange(rows.size) - before[rows]  # the tree's own halves
    k -= (held0 + before[rows]) & 1  # the half it starts holding is -1
    at = offsets[rows] + (k >> 1)
    held = np.flatnonzero(k < 0)[held0:]
    at[held] = at[held - 1]  # the word whose low half came just before
    if held0:
        at[0] = 0  # any word: the value is r.half
    x = r.words[at]
    x = np.where(k & 1, x >> 32, x & 0xFFFFFFFF)
    if held0:
        x[0] = r.half
    b = bounds[rows, cols]
    m = x * b  # below 2^64: x < 2^32 and b <= 2^32
    if ((m & 0xFFFFFFFF) < np.uint64(1 << 32) % b).any():
        return None
    picks[rows, cols] = m >> 32
    if rows.size > held0:
        r.held, r.half = (held0 + rows.size) & 1, int(r.words[at[-1]]) >> 32
    else:
        r.held = 0
    return picks


def _merge_parent(lo: list, hi: list, n: int) -> list:
    """One tree's parents from its merge positions (see :func:`_merge_trees`)."""
    parent = [-1] * (2 * n - 1)
    live = list(range(n))
    for v, a, b in zip(range(2 * n - 2, n - 1, -1), lo, hi):
        parent[live[a]] = parent[live[b]] = v
        live[b] = live[-1]
        live.pop()
        live[a] = v
    return parent


def _merge_trees(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Parents of R trees built backward in time from merge positions.

    ``lo`` and ``hi`` are laid out (n-1, R): merge s of row r joins the live
    nodes at positions lo[s, r] < hi[s, r] into node 2n-2-s, which takes
    position lo; the last live node then moves to position hi.  Tips 0..n-1
    start at positions 0..n-1, and the last merge, (0, 1), makes the root n.
    """
    count = lo.shape[1]
    if count < LOCKSTEP_ROWS:
        return np.array([_merge_parent(a, b, n) for a, b in zip(lo.T.tolist(), hi.T.tolist())],
                        dtype=np.int64)
    # flat arrays: ``live`` (n, R) holds the index in ``parent`` of each live
    # node, and position p of row r sits at live[p * R + r]
    width, rows = 2 * n - 1, np.arange(count)
    first = rows * width
    parent = np.full(count * width, -1, dtype=np.int64)
    live = (np.arange(n)[:, None] + first).ravel()
    lo, hi = lo * count + rows, hi * count + rows
    for s in range(n - 1):
        a, b, v, last = lo[s], hi[s], 2 * n - 2 - s, (n - 1 - s) * count
        parent[live[a]] = v
        parent[live[b]] = v
        live[b] = live[last:last + count]
        live[a] = first + v
    return parent.reshape(count, width)


def _yule_trees(w: np.ndarray, u: np.ndarray, n: int) -> tuple:
    """Yule trees from rows of waits w (n-1 each) and uniforms u (n-2 each).

    Split k = 2..n-1 puts the two children of the lineage at position
    int(u[k-2] * k) at that position and at the new last position k.
    Undone, it is merge n-1-k of positions (int(u[k-2] * k), k).
    """
    count = w.shape[0]
    cum = np.cumsum(w, axis=1)
    times = np.zeros((count, 2 * n - 1))
    times[:, n] = cum[:, -1]                        # first split (the root)
    times[:, n + 1:] = cum[:, -1:] - cum[:, :-1]    # splits 2..n-1
    k = np.arange(n - 1, 0, -1)[:, None]            # the split undone by each merge
    lo = np.zeros((n - 1, count))                   # the root merge is (0, 1)
    np.multiply(u.T[::-1], k[:-1], out=lo[:-1])
    return times, _merge_trees(lo.astype(np.int64), np.broadcast_to(k, lo.shape), n)


def _given_n_age_trees(u: np.ndarray, n: int, x1: float, p: Params) -> tuple:
    """Trees given (n, x1) from rows of 3n-4 uniforms: n-2 split ages, then
    the (a, b) pair of each merge, most recent (node 2n-2) first.  Among the
    n-s live nodes, merge s joins positions int(a (n-s)) and the
    int(b (n-s-1))-th of the others."""
    count = u.shape[0]
    times = np.zeros((count, 2 * n - 1))
    times[:, n] = x1
    if n > 2:
        draws = _speciation_time_inverse_cdf(u[:, :n - 2], x1, p)
        times[:, n + 1:] = np.sort(draws, axis=1)[:, ::-1]  # x_2 > ... > x_{n-1}
    size = np.arange(n, 1, -1)[:, None]
    i = (np.ascontiguousarray(u[:, n - 2::2].T) * size).astype(np.int64)
    j = (np.ascontiguousarray(u[:, n - 1::2].T) * (size - 1)).astype(np.int64)
    j += j >= i
    return times, _merge_trees(np.minimum(i, j), np.maximum(i, j), n)


def batch_yule_given_n(n: int, lam: Union[float, Params], reps: int, rng,
                       draws: Sequence[DrawBound] = ()) -> Iterator[TreeBatch]:
    """``reps`` pure-birth trees conditioned on n tips.

    Waiting time between the (i-1)-th and i-th speciation is Exp(i lam);
    the process stops just before the (n+1)-th speciation, and the
    splitting lineage at each event is chosen uniformly.  Per tree: n-1
    standard exponentials, then n-2 uniforms, each filled into its row by
    the Generator's own calls, then its reader draws.
    """
    lam = yule_rate(lam)
    _check_tips(n)
    _at_least("reps", reps, 0)
    rng = as_generator(rng)
    bounds = [int(d(n)) for d in draws]
    step = max(1, BATCH_NODES // (2 * n - 1))
    rate = lam * np.arange(2, n + 1)

    def blocks():
        for start in range(0, reps, step):
            count = min(step, reps - start)
            e, u = np.empty((count, n - 1)), np.empty((count, n - 2))
            fills = [(rng.standard_exponential, e)] + [(rng.random, u)] * int(n > 2)
            picks, ints = [], rng.integers
            for i in range(count):
                for fill, a in fills:
                    fill(out=a[i])
                picks += [ints(b) for b in bounds]
            picks = np.array(picks, dtype=np.int64).reshape(count, len(bounds))
            yield TreeBatch(*_yule_trees(e / rate, u, n), picks, np.arange(start, start + count))

    return blocks()


def _replayed_batches(head: int, n: Optional[int], x1: float, p: Params, reps: int, rng,
                      draws: Sequence[DrawBound]) -> Iterator[TreeBatch]:
    """The batches of ``reps`` trees given x1, replayed (:class:`_Replay`);
    the arguments are checked when called, before anything is drawn.

    A tree with m tips takes ``head`` words, then 3m-4 doubles, then its
    reader draws, h of them halves: from held half H, (h - H + 1) // 2 new
    words.  The next tree starts there, holding (H + h) mod 2.  m is ``n``,
    or, for n None, g(o) + g(o+1), the counts of the tree's two head doubles
    at words o and o+1 (:func:`_tip_counts`, one table over the buffer).

    A block holds about :data:`BATCH_NODES` nodes and is read in one of two
    ways.  As arrays: all its trees' offsets, then all their reader halves
    in one read (:func:`_read_halves`).  Given n the offsets are closed
    form: tree i starts at word floor((1 - H0 + i (2 w + h)) / 2), with
    w = head + 3n - 4 and H0 the half held at the block's start; otherwise
    a chain of list lookups of each tip count's step finds them.  Or, where
    a half is rejected or a bound lies outside [1, 2^32], the whole block
    is walked from its first word by the Generator's own calls.  Either way
    its tip counts pick its reader bounds and split it into one batch each.
    """
    if n is None:
        ratio = _given_age_ratio(x1, p)
    else:
        _check_age(x1, p)
        _check_tips(n)
    _at_least("reps", reps, 0)
    rng = _pcg64(rng)
    # per tip count m: its reader bounds, and the chain's step (the words to
    # the next tree when holding no half and when holding one, the parity of
    # its halves), or None where the block is walked
    bounds, steps = {}, {}

    def spec(m: int) -> Optional[tuple]:
        bounds[m] = b = [int(d(m)) for d in draws]
        h = sum(v > 1 for v in b)
        w = head + 3 * m - 4
        walk = not all(1 <= v <= 1 << 32 for v in b)
        steps[m] = None if walk else (w + (h + 1) // 2, w + h // 2, h & 1)
        return steps[m]

    if n is None:
        mean = 2.0 / (1.0 - ratio)  # the mean tip count
        trees = BATCH_NODES / (2.0 * mean - 1.0) + 1.0  # trees per block, about
        # words per tree, about, and 5% more: the words of a block of thousands of
        # trees vary by a few percent, and growing the buffer tabulates it again
        words = 1.05 * (3.0 * mean - 2.0 + (len(draws) + 1) // 2)
    else:
        spec(n)
        trees = max(1, BATCH_NODES // (2 * n - 1))
        s = 2 * (head + 3 * n - 4) + sum(b > 1 for b in bounds[n])  # a tree, in halves

    def chain(r: _Replay, left: int) -> Optional[tuple]:
        """Given x1: the first word of each tree's doubles, its tip count and
        the word after the block, by lookups in the block's tip-count table;
        None where the block is walked.  A count that reads a zero double
        raises as :func:`_geometric_count` does."""
        g, at, m, o, held, nodes = [], [], [], 0, r.held, 0
        while len(at) < left and nodes < BATCH_NODES:
            if o + 2 > len(g):
                r.need(o + 2)
                g += _tip_counts(_as_doubles(r.words[len(g):]), ratio)
            v = g[o] + g[o + 1]
            if v < 2:  # a zero double (ZERO_DOUBLE): the count refuses it
                _geometric_count(0.0, ratio)
            try:
                step = steps[v]
            except KeyError:
                step = spec(v)
            if step is None:
                return None
            at.append(o + head)
            m.append(v)
            o += step[held]
            held ^= step[2]
            nodes += 2 * v - 1
        return np.array(at, dtype=np.int64), np.array(m, dtype=np.int64), o

    def walk(r: _Replay, left: int) -> tuple:
        """The block's trees from its first word, by the Generator's own calls:
        each tree's tip count, its reader draws, and its doubles as a row."""
        r.rewind()
        m, picks, rows, nodes = [], [], [], 0
        while len(m) < left and nodes < BATCH_NODES:
            v = n or sum(_geometric_count(u, ratio) for u in rng.random(head).tolist())
            if v not in bounds:
                spec(v)
            m.append(v)
            nodes += 2 * v - 1
            rows.append(rng.random(3 * v - 4))
            picks.append([int(rng.integers(b)) for b in bounds[v]])
        return (np.array(m, dtype=np.int64),
                np.array(picks, dtype=np.int64).reshape(len(m), len(draws)), rows)

    def blocks():
        start = 0
        while start < reps:
            if n is None:
                # the first tree's two count words, then the words expected after
                # them; a block of one tree then draws its doubles exactly
                r = _Replay(rng, head + int((min(reps - start, trees) - 1) * words))
                left = reps - start
                read = chain(r, left)
            else:  # the block's words exactly, unless a half is held
                left = min(reps - start, trees)
                r = _Replay(rng, (left * s + 1) // 2)
                first = 2 * head + 1 - r.held
                read = steps[n] and (np.arange(first, first + left * s, s) // 2,
                                     np.full(left, n), (first + left * s) // 2 - head)
            picks = rows = None
            if read:
                at, m, o = read
                r.need(o)
                sizes, where = np.unique(m, return_inverse=True)  # each tree's reader bounds
                picks = _read_halves(r, at + 3 * m - 4, np.array(
                    [bounds[v] for v in sizes.tolist()], dtype=np.uint64)[where])
            if picks is None:  # a rejected half or a bound outside [1, 2^32]
                m, picks, rows = walk(r, left)  # no finish: its calls left the Generator in place
            else:
                r.finish(o)
            order = np.argsort(m, kind="stable")  # one batch per tip count
            for sel in np.split(order, np.flatnonzero(np.diff(m[order])) + 1):
                v = int(m[sel[0]])
                u = (r.doubles(at[sel], 3 * v - 4) if rows is None
                     else np.array([rows[i] for i in sel.tolist()]))
                times, parent = _given_n_age_trees(u, v, x1, p)
                yield TreeBatch(times, parent, picks[sel], start + sel)
            start += len(picks)

    return blocks()


def batch_given_n_age(n: int, x1: float, p: Params, reps: int, rng,
                      draws: Sequence[DrawBound] = ()) -> Iterator[TreeBatch]:
    """``reps`` trees conditioned on n tips and MRCA age x1.

    The n-2 free speciation times are drawn by inverse CDF and a coalescent
    topology is attached: a uniform random pair merged at each split age,
    backward in time.  Per tree: 3n-4 uniforms, then its reader draws.
    """
    return _replayed_batches(0, n, x1, p, reps, rng, draws)


def batch_given_age(x1: float, p: Params, reps: int, rng,
                    draws: Sequence[DrawBound] = ()) -> Iterator[TreeBatch]:
    """``reps`` trees conditioned on the MRCA age x1 alone.

    The tip count is G1 + G2 with G1, G2 independent geometric counts with
    ratio lam*p0(x1), one per root-child lineage; the tree is then drawn
    given (n, x1) as :func:`batch_given_n_age` draws it.  Per tree: two
    uniforms, then 3n-4, then its reader draws: a given-(n, x1) tree after
    two head doubles, read by the same block loop.
    """
    return _replayed_batches(2, None, x1, p, reps, rng, draws)


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


# ---------------------------------------------------------------------------
# Lockstep forward oracle
# ---------------------------------------------------------------------------

# node budget of one block of the lockstep forward oracle: a block runs as
# many sides as are expected to log this many nodes.  At c07's rates that is
# about 800 pairs, and c07's memory peak at 1000 trees stays near the 0.9 MB
# of the per-tree oracle; 1 << 17 ran 10^5 trees about 1.6x as fast but
# peaked near 3 MB at 1000 trees
FORWARD_NODES = 1 << 14


def _forward_sides(sides: int, x1: float, raw: RawParams, rng) -> tuple:
    """Run ``sides`` stems forward for duration x1, all in lockstep.

    Each step makes one ``standard_exponential`` call over the sides still
    alive, then one ``random`` call (birth or death) and one ``random`` call
    (which lineage) over those whose next event falls before x1; the
    sampled flags of the extant lineages are drawn at the end, side by
    side.  Returns the node log: stems are nodes 0..sides-1, and birth i (in
    the order made) splits node ``split[i]`` of side ``row[i]`` at time
    ``when[i]`` into nodes sides+2i and sides+2i+1.  Also returns the
    births per step, the sampled extant nodes with their sides, and the
    node count.
    """
    lh, total = raw.lambda_hat, raw.lambda_hat + raw.mu_hat
    # the sides still alive: ids, clocks, lineage counts, rows of ``active``
    row = np.arange(sides)
    t = np.zeros(sides)
    k = np.ones(sides, dtype=np.int64)
    at = np.arange(sides)
    # a row of ``active`` holds the nodes of one side's lineages in its first
    # columns; ``owner`` is that side, and ``held`` its lineage count once
    # it reached x1 (0 while it runs, or if it died out)
    active = np.zeros((sides, 8), dtype=np.int64)
    active[:, 0] = row
    owner = np.arange(sides)
    held = np.zeros(sides, dtype=np.int64)
    ended, log, nodes = [], [], sides

    def keep_ended():
        h = held > 0
        ended.append((np.repeat(owner[h], held[h]),
                      active[h][np.arange(active.shape[1]) < held[h, None]]))

    while row.size:
        t += rng.standard_exponential(row.size) / (total * k)
        go = t < x1
        if not go.all():  # these sides reach x1
            held[at[~go]] = k[~go]
            row, t, k, at = row[go], t[go], k[go], at[go]
        birth = rng.random(row.size) * total < lh
        j = (rng.random(row.size) * k).astype(np.int64)
        node = active[at, j]
        b = np.flatnonzero(birth)
        if b.size:
            if k[b].max() >= active.shape[1]:  # widen, keeping live rows only
                keep_ended()
                active = np.concatenate((active[at], np.zeros_like(active[at])), axis=1)
                owner, held, at = row, np.zeros(row.size, dtype=np.int64), np.arange(row.size)
            kids = nodes + 2 * np.arange(b.size)
            active[at[b], j[b]] = kids
            active[at[b], k[b]] = kids + 1
            k[b] += 1
            nodes += 2 * b.size
        log.append((node[b], t[b], row[b]))
        d = np.flatnonzero(~birth)
        k[d] -= 1
        active[at[d], j[d]] = active[at[d], k[d]]
        alive = k > 0
        if not alive.all():  # these sides died out
            row, t, k, at = row[alive], t[alive], k[alive], at[alive]
    keep_ended()
    side, extant = (np.concatenate(a) for a in zip(*ended))
    order = np.argsort(side, kind="stable")
    flags = rng.random(extant.size) < raw.f
    split, when, row = (np.concatenate(a) for a in zip(*log))
    steps = np.array([len(s) for s, _, _ in log], dtype=np.int64)
    return split, when, row, steps, extant[order][flags], side[order][flags], nodes


def _forward_trees(sides: int, x1: float, split, when, row, steps, sampled,
                   sampled_row, nodes: int, need: int) -> tuple:
    """Reconstruct the forward sides of a block and join them in pairs.

    Sides 2i and 2i+1 form pair i, accepted when both leave a sampled
    extant lineage.  Returns the indices of the first ``need`` accepted
    pairs, their tip counts n, and their trees as flat ``times``/``parent``
    arrays (tree after tree, 2n-1 nodes each, in the layout of
    :class:`TreeBatch`).
    """
    # node-sized arrays hold counts and tree-local ids, far below 2^31; int32
    # halves them, which keeps a block's peak below the other verify checks'
    counts = np.zeros(nodes, dtype=np.int32)  # sampled extant descendants
    counts[sampled] = 1
    kid = sides + 2 * np.arange(split.size)  # the first child of each birth
    ends = np.cumsum(steps)
    for a, b in zip((ends - steps)[::-1].tolist(), ends[::-1].tolist()):
        # a parent splits once, and its children only later
        counts[split[a:b]] = counts[kid[a:b]] + counts[kid[a:b] + 1]
    kept = (counts[kid] > 0) & (counts[kid + 1] > 0)  # splits the tree keeps
    side_n = counts[:sides]
    pairs = np.flatnonzero((side_n[0::2] > 0) & (side_n[1::2] > 0))[:need]
    rank = np.full(sides // 2, -1, dtype=np.int64)
    rank[pairs] = np.arange(pairs.size)
    n = side_n[2 * pairs] + side_n[2 * pairs + 1]

    # number the kept nodes of the accepted pairs tree by tree: n sampled
    # tips, the root n, then the n-2 kept splits oldest first
    node = np.concatenate((sampled, split[kept]))
    age = np.concatenate((np.zeros(sampled.size), x1 - when[kept]))
    inner = np.repeat((False, True), (sampled.size, kept.sum()))
    tree = rank[np.concatenate((sampled_row, row[kept])) // 2]
    mine = tree >= 0
    node, age, inner, tree = node[mine], age[mine], inner[mine], tree[mine]
    order = np.lexsort((node, -age, inner, tree))
    node, age, inner, tree = node[order], age[order], inner[order], tree[order]
    first = np.cumsum(2 * n - 2) - (2 * n - 2)
    local = np.arange(node.size) - first[tree] + inner
    at = np.full(nodes, -1, dtype=np.int32)
    at[node] = local
    # each node's nearest numbered ancestor, -1 below the root; this
    # collapses the unary chains
    up = np.full(nodes, -1, dtype=np.int32)
    for a, b in zip((ends - steps).tolist(), ends.tolist()):
        v = split[a:b]
        u = np.where(at[v] >= 0, at[v], up[v])
        up[kid[a:b]] = u
        up[kid[a:b] + 1] = u

    start = np.cumsum(2 * n - 1) - (2 * n - 1)
    times = np.zeros(int((2 * n - 1).sum()))
    parent = np.empty(times.size, dtype=np.int64)
    times[start[tree] + local] = age
    parent[start[tree] + local] = np.where(up[node] >= 0, up[node], n[tree])
    times[start + n] = x1
    parent[start + n] = -1
    return pairs, n, start, times, parent


def batch_forward_given_age(
    x1: float, raw: RawParams, reps: int, rng,
    draws: Sequence[DrawBound] = (), stats: Optional[RejectionStats] = None,
) -> Iterator[TreeBatch]:
    """The lockstep forward oracle: ``reps`` trees given MRCA age x1.

    The brute-force law of :func:`sample_rejection_given_age`, drawn as
    arrays: a block runs its sides forward for x1 in lockstep
    (:func:`_forward_sides`), prunes each to its sampled extant tips and
    pairs sides (2i, 2i+1), accepting a pair when both sides are non-empty
    (:func:`_forward_trees`).  Then each reader makes one ``integers`` call
    over the block's accepted trees.  Blocks are drawn until ``reps`` pairs
    are accepted; an attempt is one pair, counted up to the last accepted
    one.  A block holds at most :data:`FORWARD_NODES` expected nodes and
    about 1.1 times the pairs still needed at the acceptance rate seen so
    far, so the trees drawn depend on ``reps``.  Refuses, before any draw,
    rates whose acceptance rate (f (1 - mu p0(x1)))^2 in the transformed
    rates is below 1/:data:`MAX_ATTEMPTS`, and raises ``RuntimeError`` when
    a block ends :data:`MAX_ATTEMPTS` or more pairs after the last
    acceptance.  Shares no sampling code with the exact samplers.
    """
    p = transform_params(raw)
    q = _check_age(x1, p)
    _at_least("reps", reps, 0)
    # a side keeps a sampled extant lineage with probability f (1 - mu p0(x1))
    rate = (raw.f * (1.0 - p.mu * q)) ** 2
    if rate * MAX_ATTEMPTS < 1.0:
        raise ValueError(f"x1={x1} with lambda_hat={raw.lambda_hat}, mu_hat={raw.mu_hat}, "
                         f"f={raw.f} gives an acceptance rate of {rate:.3g}, below "
                         f"1/{MAX_ATTEMPTS}")
    growth = (raw.lambda_hat - raw.mu_hat) * x1
    if growth > math.log(MAX_MEAN_TIPS):  # e^growth lineages per side on average
        raise ValueError(f"x1={x1} with lambda_hat={raw.lambda_hat}, mu_hat={raw.mu_hat} "
                         f"gives a mean lineage count per side above "
                         f"{MAX_MEAN_TIPS:.0e}; use a smaller x1")
    _given_age_ratio(x1, p)  # its trees follow batch_given_age's law, and take its bound
    # a side logs its stem and two nodes per birth
    births = raw.lambda_hat * (x1 if growth == 0 else x1 * math.expm1(growth) / growth)
    most = max(1, int(FORWARD_NODES // (2 * (1 + 2 * births))))  # pairs per block
    rng = as_generator(rng)
    if stats is None:
        stats = RejectionStats()

    def blocks():
        tried = done = failing = 0  # pairs drawn, accepted, since the last acceptance
        while done < reps:
            need = reps - done
            guess = (done + 1) / (tried + 2)  # the acceptance rate, 1/2 at first
            count = min(most, math.ceil(1.1 * need / guess) + 16)
            pairs, n, start, times, parent = _forward_trees(
                2 * count, x1, *_forward_sides(2 * count, x1, raw, rng), need)
            used = int(pairs[-1]) + 1 if pairs.size == need else count
            failing = used - 1 - int(pairs[-1]) if pairs.size else failing + used
            tried += used
            done += pairs.size
            stats.attempts += used
            stats.accepted += pairs.size
            if failing >= MAX_ATTEMPTS:
                raise RuntimeError(
                    f"no acceptance within {failing} attempts "
                    f"(estimated acceptance rate {stats.acceptance_rate:.3g})")
            if not pairs.size:
                continue
            sizes, where = np.unique(n, return_inverse=True)
            picks = np.empty((pairs.size, len(draws)), dtype=np.int64)
            for c, d in enumerate(draws):
                picks[:, c] = rng.integers(np.array([d(v) for v in sizes.tolist()])[where])
            for v in sizes.tolist():
                sel = np.flatnonzero(n == v)
                at = start[sel, None] + np.arange(2 * v - 1)
                yield TreeBatch(times[at], parent[at], picks[sel], done - pairs.size + sel)
            del times, parent  # not held while the next block is drawn

    return blocks()


# scenario -> (batch sampler, the flags it takes before the rates, which are raw
# for the rejection oracle); callers look each sampler up by name at call time
SCENARIOS = {
    "given-n": ("batch_yule_given_n", ("n",)),
    "given-n-age": ("batch_given_n_age", ("n", "x1")),
    "given-age": ("batch_given_age", ("x1",)),
    "rejection-given-age": ("batch_forward_given_age", ("x1",)),
}
