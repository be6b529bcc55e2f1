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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .kernel import Params, RawParams, p0
from .tree import EXTANT, EXTINCT, INTERNAL, FullTree, ReconTree

__all__ = [
    "RngStream",
    "StopRule",
    "ExtinctRun",
    "RejectionStats",
    "simulate_forward",
    "reconstruct",
    "sample_yule_given_n",
    "sample_given_n_age",
    "sample_given_age",
    "sample_rejection_given_age",
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


_DURATION = "duration"
_COUNT = "before_speciation_count"


@dataclass(frozen=True)
class StopRule:
    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in (_DURATION, _COUNT):
            raise ValueError(f"unknown stop rule {self.kind!r}")
        if not self.value > 0:
            raise ValueError("stop rule argument must be positive")

    @classmethod
    def duration(cls, t: float) -> "StopRule":
        return cls(_DURATION, float(t))

    @classmethod
    def before_speciation_count(cls, m: int) -> "StopRule":
        """Stop just before the m-th speciation event (origin counts as the
        first), leaving m-1 extant lineages under pure birth."""
        if int(m) != m or m < 2:
            raise ValueError(f"speciation count must be an int >= 2, got {m}")
        return cls(_COUNT, float(m))


class ExtinctRun(RuntimeError):
    """All lineages died before the stop rule was reached."""


def simulate_forward(raw: RawParams, stop: StopRule, rng) -> FullTree:
    """Gillespie simulation of the birth-death process with sampling.

    Starts from a single lineage (the stem).  Each extant tip at the
    present is independently flagged sampled with probability f.
    """
    rng = as_generator(rng)
    lh, mh, f = raw.lambda_hat, raw.mu_hat, raw.f
    total_rate_per = lh + mh
    p_birth = lh / total_rate_per
    t_stop = stop.value if stop.kind == _DURATION else math.inf
    count_stop = stop.value if stop.kind == _COUNT else math.inf
    full = FullTree(parent=[-1], btime=[0.0], etime=[math.nan], kind=[EXTANT])
    parent, btime, etime, kind = full.parent, full.btime, full.etime, full.kind
    active = [0]
    t = 0.0
    spec_count = 1  # the origin of the initial lineage counts as the first
    exponential, random, integers = rng.exponential, rng.random, rng.integers
    while True:
        t += exponential(1.0 / (total_rate_per * len(active)))
        if t >= t_stop:
            present = t_stop
            break
        birth = mh == 0.0 or random() < p_birth
        if birth:
            spec_count += 1
            if spec_count == count_stop:
                present = t
                break
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
                raise ExtinctRun("all lineages went extinct before the stop rule")
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


def sample_yule_given_n(n: int, lam: Union[float, Params], rng) -> ReconTree:
    """Exact pure-birth sampler conditioned on n tips.

    Waiting time between the (i-1)-th and i-th speciation is Exp(i lam);
    the process stops just before the (n+1)-th speciation, and the
    splitting lineage at each event is chosen uniformly.
    """
    if isinstance(lam, Params):
        if not lam.is_yule:
            raise ValueError("sample_yule_given_n requires mu = 0")
        lam = lam.lam
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
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
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not x1 > 0:
        raise ValueError(f"x1 must be > 0, got {x1}")
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


def sample_given_age(x1: float, p: Params, rng) -> ReconTree:
    """Exact sampler conditioned on the MRCA age x1 alone.

    The tip count is G1 + G2 with G1, G2 independent geometric counts with
    ratio lam*p0(x1) (one per root-child lineage), then delegates to
    :func:`sample_given_n_age`.
    """
    if not x1 > 0:
        raise ValueError(f"x1 must be > 0, got {x1}")
    ratio = p.lam * p0(x1, p)
    if (1.0 - ratio) * MAX_MEAN_TIPS < 2.0:  # the mean tip count is 2/(1 - ratio)
        raise ValueError(f"x1={x1} with lam={p.lam}, mu={p.mu} gives a mean tip "
                         f"count above {MAX_MEAN_TIPS:.0e}; use a smaller x1")
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
    if not x1 > 0:
        raise ValueError(f"x1 must be > 0, got {x1}")
    rng = as_generator(rng)
    stop = StopRule.duration(x1)
    if stats is None:
        stats = RejectionStats()
    for _ in range(max_attempts):
        stats.attempts += 1
        try:
            side_a = simulate_forward(raw, stop, rng)
        except ExtinctRun:
            continue
        if side_a.sampled_tip_count() < 1:
            continue
        try:
            side_b = simulate_forward(raw, stop, rng)
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
