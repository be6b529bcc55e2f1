"""The exact samplers' replay of PCG64 words against the Generator's own calls.

``batch_given_n_age`` and ``batch_given_age`` draw a block's words with one
``random_raw`` call and read each tree's doubles and reader draws from them
as numpy's Generator would (``sim._Replay``).  These tests hold the replay
to the scalar calls it stands for: the same trees (``random(3n - 4)`` per
given-(n, x1) tree, two more doubles before it given x1), the same picks,
and the same ``bit_generator.state`` afterwards, held half included.  A
block is read as arrays, or, where a half is rejected or a bound passes
2^32, walked whole by the Generator's own calls from the block's first
word; the first class drives both scenarios through both.  The tests
below it also put the first rejected reader half at chosen trees, drive
given-x1 streams through walked and array-read blocks, and hold the
given-x1 tip-count table to ``_geometric_count`` at near-ties and at a
zero double, which raises in the chain that reads it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recontree import mc, sim
from recontree.kernel import Params
from recontree.tree import ReconTree

from test_same_samples import READERS, per_tree_collect

# integers(3 * 2**30) rejects a 32-bit half with probability 1/4, and
# integers(3 * 2**61) a whole word with probability 1/4
REJECTING_32, REJECTING_64 = 3 * 2**30, 3 * 2**61

# the given-x1 stream: mean tip count 35, about 105 words a tree
X1, P = 4.0, Params(1.0, 0.4)
STREAM_TREES = 10_000


def _start(seed: int, held: str) -> np.random.Generator:
    """A PCG64 Generator holding no half, a fresh half, or a used (stale) one."""
    rng = np.random.default_rng(seed)
    for _ in range({"none": 0, "held": 1, "stale": 2}[held]):
        rng.integers(2)
    return rng


def _scalar_given_n_age(rng, count: int, n: int, bounds: list) -> tuple:
    """What the replay stands for: per tree, ``random(3n - 4)``, then one
    ``integers(b)`` per bound; returns the trees' times and parents, built
    from those doubles, and the reader draws."""
    u, picks = np.empty((count, 3 * n - 4)), []
    for i in range(count):
        u[i] = rng.random(3 * n - 4)
        picks.append([int(rng.integers(b)) for b in bounds])
    return (*sim._given_n_age_trees(u, n, X1, P), picks)


def _replayed_given_n_age(rng, count: int, n: int, bounds: list) -> tuple:
    """The same from ``batch_given_n_age``, one constant-bound reader per bound."""
    readers = [lambda m, b=b: b for b in bounds]
    batches = list(sim.batch_given_n_age(n, X1, P, count, rng, readers))
    assert np.concatenate([b.index for b in batches]).tolist() == list(range(count))
    return (np.concatenate([b.times for b in batches]),
            np.concatenate([b.parent for b in batches]),
            np.concatenate([b.draws for b in batches]).tolist())


def _assert_same_block(seed: int, held: str, count: int, n: int, bounds: list):
    ref, rng = _start(seed, held), _start(seed, held)
    want_times, want_parent, want_picks = _scalar_given_n_age(ref, count, n, bounds)
    times, parent, picks = _replayed_given_n_age(rng, count, n, bounds)
    assert np.array_equal(times, want_times) and np.array_equal(parent, want_parent)
    assert picks == want_picks
    assert rng.bit_generator.state == ref.bit_generator.state


def _assert_same_given_age(seed: int, held: str, count: int, bounds: list):
    """``batch_given_age`` against the Generator's own calls, tree by tree:
    the same trees, picks and state afterwards (``bounds`` are callables of n)."""
    ref, rng = _start(seed, held), _start(seed, held)
    want = _scalar_given_age_stream(ref, count, bounds)
    got = list(sim.rows_in_order(sim.batch_given_age(X1, P, count, rng, bounds)))
    assert len(got) == len(want)
    for (b, row), (times, parent, picks) in zip(got, want):
        assert np.array_equal(b.times[row], times) and np.array_equal(b.parent[row], parent)
        assert b.draws[row].tolist() == picks
    assert rng.bit_generator.state == ref.bit_generator.state


class TestBlockReplay:
    # 300 examples: at the default 100, two given-x1 examples started from a
    # stale half
    @settings(max_examples=300)
    @given(scenario=st.sampled_from(["given (n, x1)", "given x1"]),
           seed=st.integers(0, 2**32 - 1),
           held=st.sampled_from(["none", "held", "stale"]),
           count=st.integers(1, 12),
           n=st.integers(2, 11),
           big=st.integers(2, 10**6),
           kinds=st.lists(st.sampled_from(["1", "2", "n", "big", "rejecting", "rejecting64",
                                           "rejecting64 at 3k"]), max_size=3),
           nodes=st.sampled_from([7, 60, sim.BATCH_NODES]))
    def test_block_equals_scalar_calls(self, scenario, seed, held, count, n, big, kinds, nodes):
        # at 7 and 60 nodes a block holds 1 to 20 given-(n, x1) trees (one
        # given-x1 tree), so the calls span blocks; given x1, "n" is each
        # tree's own tip count, and a 3k-tip tree alone walks its block
        readers = [lambda m, k=k: {"1": 1, "2": 2, "n": m, "big": big, "rejecting": REJECTING_32,
                                   "rejecting64": REJECTING_64,
                                   "rejecting64 at 3k": REJECTING_64 if m % 3 == 0 else m}[k]
                   for k in kinds]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "BATCH_NODES", nodes)
            if scenario == "given x1":
                _assert_same_given_age(seed, held, count, readers)
            else:
                _assert_same_block(seed, held, count, n, [r(n) for r in readers])

    @pytest.mark.parametrize("held", ["none", "held", "stale"])
    def test_rejections_past_the_first_buffer(self, held):
        # three rejecting readers per tree draw past the buffer the block
        # first takes (about 1/3 more halves than it planned for)
        _assert_same_block(7, held, 500, 3, [REJECTING_32] * 3)

    @pytest.mark.parametrize("bound, message", [(0, "high <= 0"),
                                                (2**63 + 1, "out of bounds for int64")])
    def test_bad_bound_raises_as_integers_does(self, bound, message):
        with pytest.raises(ValueError, match=message):
            np.random.default_rng(1).integers(bound)
        with pytest.raises(ValueError, match=message):
            list(sim.batch_given_n_age(3, X1, P, 2, np.random.default_rng(1),
                                       [lambda m: bound]))


def _scalar_given_age_tree(rng) -> ReconTree:
    """One given-x1 tree from the Generator's own calls: two doubles for the
    tip count, then ``random(3n - 4)``."""
    ratio = sim._given_age_ratio(X1, P)
    n = sim._geometric_count(rng.random(), ratio) + sim._geometric_count(rng.random(), ratio)
    times, parent = sim._given_n_age_trees(rng.random((1, 3 * n - 4)), n, X1, P)
    return ReconTree(times[0], parent[0], validate=False)


@pytest.fixture(scope="module")
def scalar_stream():
    extractors = {ex.__name__: ex for ex in READERS if ex.__name__ != "extract_random_interior"}
    rng = sim.RngStream(2402, 0).generator()
    values = per_tree_collect(_scalar_given_age_tree, extractors, STREAM_TREES, rng)
    return extractors, values, rng.bit_generator.state


@pytest.mark.parametrize("nodes", [sim.BATCH_NODES, 7], ids=["default", "tiny"])
def test_given_age_stream_equals_scalar_calls(scalar_stream, nodes, monkeypatch):
    monkeypatch.setattr(sim, "BATCH_NODES", nodes)
    extractors, want, want_state = scalar_stream
    rng = sim.RngStream(2402, 0).generator()
    got = mc.collect(lambda reps, r, draws: sim.batch_given_age(X1, P, reps, r, draws),
                     {k: READERS[ex] for k, ex in extractors.items()}, STREAM_TREES, rng)
    for k in extractors:
        assert np.array_equal(got[k], want[k]), k
    assert rng.bit_generator.state == want_state
    # at least 3n - 2 doubles a tree: the stream covers more than 10^6 words
    assert (3 * want["extract_leaf_count"] - 2).sum() > 10**6


@pytest.mark.parametrize("draw", [
    lambda rng: sim.batch_given_n_age(5, 1.0, P, 10, rng),
    lambda rng: sim.batch_given_age(1.0, P, 10, rng),
    lambda rng: sim.sample_given_n_age(5, 1.0, P, rng),
    lambda rng: sim.sample_given_age(1.0, P, rng),
], ids=["batch_given_n_age", "batch_given_age", "sample_given_n_age", "sample_given_age"])
def test_other_bit_generators_are_refused_before_any_draw(draw):
    rng, untouched = (np.random.Generator(np.random.MT19937(5)) for _ in range(2))
    with pytest.raises(ValueError, match="replay PCG64 draws; got MT19937"):
        draw(rng)
    state, before = rng.bit_generator.state["state"], untouched.bit_generator.state["state"]
    assert state["pos"] == before["pos"] and np.array_equal(state["key"], before["key"])


# -- the walk: a rejected half anywhere in a block makes the whole block
# walked draw by draw, from its first word

MASK = 0xFFFFFFFF


def _first_rejection(seed: int, held: str, count: int, width: int, bounds: list):
    """The first tree of a block whose reader half Lemire rejects, found from
    raw words as numpy takes them (bounds in [1, 2^32]), or None."""
    rng = _start(seed, held)
    state = rng.bit_generator.state
    has, half = state["has_uint32"], state["uinteger"]
    words = rng.bit_generator.random_raw(count * (width + len(bounds))).tolist()
    pos = 0
    for t in range(count):
        pos += width
        for b in bounds:
            if b == 1:
                continue
            if has:
                x, has = half, 0
            else:
                x, half, has = words[pos] & MASK, words[pos] >> 32, 1
                pos += 1
            if (x * b) & MASK < (1 << 32) % b:
                return t
    return None


@pytest.mark.parametrize("held", ["none", "held", "stale"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bounds", [[REJECTING_32], [6, REJECTING_32, 15]], ids=["one", "three"])
def test_first_rejection_anywhere_in_the_block(held, where, bounds):
    count, width = 9, 5  # n = 3: 3n - 4 = 5 doubles a tree
    target = {"first": 0, "middle": count // 2, "last": count - 1}[where]
    seed = next(s for s in range(10_000)
                if _first_rejection(s, held, count, width, bounds) == target)
    _assert_same_block(seed, held, count, 3, bounds)


def _scalar_given_age_stream(rng, reps: int, bounds) -> list:
    """Each given-x1 tree from the Generator's own calls, with its reader draws."""
    ratio = sim._given_age_ratio(X1, P)
    out = []
    for _ in range(reps):
        n = sim._geometric_count(rng.random(), ratio) + sim._geometric_count(rng.random(), ratio)
        times, parent = sim._given_n_age_trees(rng.random((1, 3 * n - 4)), n, X1, P)
        out.append((times[0], parent[0], [int(rng.integers(b(n))) for b in bounds]))
    return out


@pytest.mark.parametrize("held", ["none", "held", "stale"])
@pytest.mark.parametrize("nodes", [sim.BATCH_NODES, 500], ids=["default", "small"])
def test_given_age_stream_with_a_rejecting_reader(held, nodes, monkeypatch):
    # a reader of bound 3 * 2^30 rejects a quarter of its halves, so almost
    # every block is walked; the pendant reader's bound n never passes 2^32
    monkeypatch.setattr(sim, "BATCH_NODES", nodes)
    bounds = [lambda n: REJECTING_32, lambda n: n, lambda n: 1]
    ref, rng = _start(11, held), _start(11, held)
    want = _scalar_given_age_stream(ref, 400, bounds)
    got = list(sim.rows_in_order(sim.batch_given_age(X1, P, 400, rng, bounds)))
    assert len(got) == len(want)
    for (b, row), (times, parent, picks) in zip(got, want):
        assert np.array_equal(b.times[row], times) and np.array_equal(b.parent[row], parent)
        assert b.draws[row].tolist() == picks
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("held", ["none", "held", "stale"])
@pytest.mark.parametrize("nodes", [sim.BATCH_NODES, 500, 7], ids=["default", "small", "tiny"])
def test_given_age_stream_walks_only_the_blocks_it_must(held, nodes, monkeypatch):
    # a bound above 2^32 for a tree of 7k tips only: a block holding one is
    # walked whole, and the blocks around it are read as arrays
    monkeypatch.setattr(sim, "BATCH_NODES", nodes)
    bounds = [lambda n: n, lambda n: REJECTING_64 if n % 7 == 0 else 2, lambda n: n - 1]
    walked = []

    class Walking(np.random.Generator):
        """Records the bound of each integers() call: only a walk makes one."""

        def integers(self, high):
            walked.append(high)
            return super().integers(high)

    ref, rng = _start(13, held), Walking(_start(13, held).bit_generator)
    want = _scalar_given_age_stream(ref, 400, bounds)
    assert any(len(times) % 14 == 13 for times, _, _ in want)  # 2n - 1 nodes, n = 7k
    reads, read_halves = [], sim._read_halves
    monkeypatch.setattr(sim, "_read_halves", lambda *a: reads.append(read_halves(*a)) or reads[-1])
    got = list(sim.rows_in_order(sim.batch_given_age(X1, P, 400, rng, bounds)))
    assert len(got) == len(want)
    for (b, row), (times, parent, picks) in zip(got, want):
        assert np.array_equal(b.times[row], times) and np.array_equal(b.parent[row], parent)
        assert b.draws[row].tolist() == picks
    assert rng.bit_generator.state == ref.bit_generator.state
    assert REJECTING_64 in walked
    if nodes < sim.BATCH_NODES:  # 400 trees take several blocks, not all walked
        assert any(r is not None for r in reads)


# -- the given-x1 tip-count table against _geometric_count and its math.log

def _crafted_ties() -> list:
    """(ratio, u) pairs whose quotient log(u) / log(ratio) lies at or within a
    few ulps of an integer: u = ratio^k and its neighbours, and ratios built
    from u where np.log(u) and math.log(u) differ."""
    cases = []
    for ratio in (0.5, 0.3, 0.77, 0.9, 0.123, 1 - 1e-3, 1 - 2e-6):
        us = []
        for k in range(1, 120):
            u = ratio ** k
            for _ in range(3):
                u = np.nextafter(u, 0.0)
            for _ in range(7):
                us.append(float(u))
                u = np.nextafter(u, 1.0)
        cases.append((ratio, [u for u in us if 0.0 < u < 1.0]))
    u = np.random.default_rng(5).random(4000)
    differ = u[np.log(u) != np.array([math.log(v) for v in u.tolist()])][:40].tolist()
    for v in differ:
        for k in range(1, 25):
            r = math.exp(math.log(v) / k)
            for ratio in (np.nextafter(r, 0.0), r, np.nextafter(r, 1.0)):
                if 0.0 < ratio < 1.0:
                    cases.append((float(ratio), [v]))
    return cases


def test_tip_count_table_equals_geometric_count_at_ties():
    moved = 0
    for ratio, us in _crafted_ties():
        # pad to a long array: np.log may take another code path on short ones
        pad = np.random.default_rng(len(us)).random(64).tolist()
        u = np.array(us + pad)
        assert sim._tip_counts(u, ratio) == [sim._geometric_count(v, ratio) for v in u.tolist()]
        raw = np.maximum(np.ceil(np.log(u) / math.log(ratio)), 1).astype(int).tolist()
        moved += raw != [sim._geometric_count(v, ratio) for v in u.tolist()]
    # where this numpy's log differs from math.log, some crafted ceiling moves
    u = np.random.default_rng(5).random(4000)
    if (np.log(u) != np.array([math.log(v) for v in u.tolist()])).any():
        assert moved > 0


def test_tip_count_table_marks_a_zero_double():
    ratio = sim._given_age_ratio(X1, P)
    assert sim._tip_counts(np.array([0.0, 0.5, 0.0]), ratio)[::2] == [sim.ZERO_DOUBLE] * 2


def _zeroed(at: int, after_first: bool, length: int) -> type:
    """A replay whose first buffer holds ``length`` zero words from offset
    ``at``, counted from the second tree's first word when ``after_first``
    (a block with no readers)."""

    class Zeroed(sim._Replay):
        def __init__(self, rng, size):
            super().__init__(rng, size)
            ratio = sim._given_age_ratio(X1, P)
            u = (self.words[:2] >> 11) * 2.0 ** -53
            n = sum(sim._geometric_count(v, ratio) for v in u.tolist())
            first = at + (3 * n - 2) * after_first
            self.need(first + length + 2)
            self.words[first:first + length] = 0

    return Zeroed


@pytest.mark.parametrize("zero, raises", [
    ((2, False, 10), False),   # the first tree's doubles: never read as a count
    ((0, False, 1), True),     # the first tree's first count word
    ((1, True, 1), True),      # the second tree's second count word
], ids=["doubles", "first-count", "second-count"])
def test_zero_double_raises_only_where_a_count_reads_it(zero, raises, monkeypatch):
    monkeypatch.setattr(sim, "_Replay", _zeroed(*zero))
    draw = lambda: list(sim.batch_given_age(X1, P, 2, sim.RngStream(3, 0).generator()))
    if not raises:
        assert sum(len(b) for b in draw()) == 2
        return
    with pytest.raises(ValueError) as want:
        sim._geometric_count(0.0, sim._given_age_ratio(X1, P))
    with pytest.raises(ValueError) as got:
        draw()
    assert str(got.value) == str(want.value)
