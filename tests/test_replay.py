"""The exact samplers' replay of PCG64 words against the Generator's own calls.

``batch_given_n_age`` and ``batch_given_age`` draw a block's words with one
``random_raw`` call and read each tree's doubles and reader draws from them
as numpy's Generator would (``sim._Replay``).  These tests hold the replay
to the scalar calls it stands for: the same doubles, the same picks, and
the same ``bit_generator.state`` afterwards, held half included.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from recontree import mc, sim
from recontree.kernel import Params
from recontree.tree import ReconTree

from test_same_samples import READERS, per_tree_collect

# integers(3 * 2**30) rejects a 32-bit half with probability 1/4, and
# integers(3 * 2**61) a whole word with probability 1/4
REJECTING_32, REJECTING_64 = 3 * 2**30, 3 * 2**61


def _start(seed: int, held: str) -> np.random.Generator:
    """A PCG64 Generator holding no half, a fresh half, or a used (stale) one."""
    rng = np.random.default_rng(seed)
    for _ in range({"none": 0, "held": 1, "stale": 2}[held]):
        rng.integers(2)
    return rng


def _scalar_block(rng, count: int, width: int, bounds: list) -> tuple:
    """What the replay stands for: per tree, ``random(width)``, then one
    ``integers(b)`` per bound."""
    u, picks = np.empty((count, width)), []
    for i in range(count):
        u[i] = rng.random(width)
        picks += [int(rng.integers(b)) for b in bounds]
    return u, picks


class TestBlockReplay:
    @given(seed=st.integers(0, 2**32 - 1),
           held=st.sampled_from(["none", "held", "stale"]),
           count=st.integers(1, 12),
           width=st.integers(0, 30),
           n=st.integers(2, 10**6),
           kinds=st.lists(st.sampled_from(["1", "2", "n", "rejecting", "rejecting64"]),
                          max_size=3))
    def test_block_equals_scalar_calls(self, seed, held, count, width, n, kinds):
        bounds = [{"1": 1, "2": 2, "n": n, "rejecting": REJECTING_32,
                   "rejecting64": REJECTING_64}[k] for k in kinds]
        ref = _start(seed, held)
        want_u, want_picks = _scalar_block(ref, count, width, bounds)
        rng = _start(seed, held)
        (u,), picks = sim._given_n_age_block(width, rng, count, bounds)
        assert u.shape == (count, width)
        assert np.array_equal(u, want_u)
        assert picks == want_picks
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("held", ["none", "held", "stale"])
    def test_rejections_past_the_first_buffer(self, held):
        # three rejecting readers per tree draw past the buffer the block
        # first takes (about 1/3 more halves than it planned for)
        bounds = [REJECTING_32] * 3
        ref, rng = _start(7, held), _start(7, held)
        want_u, want_picks = _scalar_block(ref, 500, 4, bounds)
        (u,), picks = sim._given_n_age_block(4, rng, 500, bounds)
        assert np.array_equal(u, want_u) and picks == want_picks
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("bound, message", [(0, "high <= 0"),
                                                (2**63 + 1, "out of bounds for int64")])
    def test_bad_bound_raises_as_integers_does(self, bound, message):
        with pytest.raises(ValueError, match=message):
            np.random.default_rng(1).integers(bound)
        with pytest.raises(ValueError, match=message):
            sim._given_n_age_block(3, np.random.default_rng(1), 2, [bound])


# the given-x1 stream: mean tip count 35, about 105 words a tree
X1, P = 4.0, Params(1.0, 0.4)
STREAM_TREES = 10_000


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
