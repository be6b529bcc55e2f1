"""Same seed, same samples: the sampler streams and verify statistics are pinned.

``tests/golden/verify-stats.json`` holds, for fixed seeds,

* every field of every ``verify_suite(reps=1000, seed=20260824)`` report
  except ``wall_time_s`` (KS statistics, moments, atom fractions,
  ``n_samples`` and pass flags), plus the rejection oracle's counts in
  ``transform_equivalence``;
* a sha256 digest of ``times``/``parent``/``children`` over 200 trees from
  each sampler configuration, and the rejection oracle's attempt count.

Each batch sampler (``sim.batch_*``) must reproduce its per-tree twin's
digest on the same stream, and ``mc.collect`` over batches and readers must
return exactly what the per-tree loop over samplers and ``extract_*``
functions returns, with the generator left in the same state.

Any change to a sampler's random stream, to a tree's node numbering or to a
statistic shows up here as an exact mismatch.  Regenerate the file only
when samples are meant to change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_same_samples.py
"""

import hashlib
import json
import pathlib
from functools import partial

import numpy as np
import pytest

from recontree import mc, sim
from recontree.kernel import Params, RawParams

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify-stats.json"

VERIFY_SEED = 20260824
VERIFY_REPS = 1000
TREES = 200

# name -> (per-tree sampler taking an rng, its batch twin, stream id); every
# stream uses seed 20260824
SAMPLERS = {
    "yule_given_n[n=2]": (lambda r: sim.sample_yule_given_n(2, 1.0, r),
                          partial(sim.batch_yule_given_n, 2, 1.0), 1),
    "yule_given_n[n=20]": (lambda r: sim.sample_yule_given_n(20, 1.0, r),
                           partial(sim.batch_yule_given_n, 20, 1.0), 2),
}
for _i, _n in enumerate((3, 6, 1000)):
    for _j, _mu in enumerate((0.0, 0.5, 1.0, -0.5)):
        SAMPLERS[f"given_n_age[n={_n},mu={_mu}]"] = (
            lambda r, n=_n, p=Params(1.0, _mu): sim.sample_given_n_age(n, 2.0, p, r),
            partial(sim.batch_given_n_age, _n, 2.0, Params(1.0, _mu)),
            10 + 4 * _i + _j,
        )
SAMPLERS["given_age[x1=1.5,mu=0.4]"] = (
    lambda r: sim.sample_given_age(1.5, Params(1.0, 0.4), r),
    partial(sim.batch_given_age, 1.5, Params(1.0, 0.4)), 30)
SAMPLERS["given_age[x1=1,mu=0]"] = (
    lambda r: sim.sample_given_age(1.0, Params(1.0, 0.0), r),
    partial(sim.batch_given_age, 1.0, Params(1.0, 0.0)), 31)

REJECTION = {
    "rejection_given_age[2,0.5,0.5,x1=1]": (RawParams(2.0, 0.5, 0.5), 1.0, 40),
    "rejection_given_age[1,0.3,1,x1=1.5]": (RawParams(1.0, 0.3, 1.0), 1.5, 41),
}

# per-tree extractor -> its reader
READERS = {
    mc.extract_random_pendant: mc.read_random_pendant,
    mc.extract_random_interior: mc.read_random_interior,
    mc.extract_random_root_edge: mc.read_random_root_edge,
    mc.extract_diversity: mc.read_diversity,
    mc.extract_leaf_count: mc.read_leaf_count,
}


def _digest(trees) -> str:
    h = hashlib.sha256()
    for t in trees:
        for a in (t.times, t.parent, t.children):
            h.update(a.tobytes())
    return h.hexdigest()


def sampler_digests() -> dict:
    out = {}
    for name, (draw, _, sid) in SAMPLERS.items():
        rng = sim.RngStream(VERIFY_SEED, sid).generator()
        out[name] = {"sha256": _digest(draw(rng) for _ in range(TREES))}
    for name, (raw, x1, sid) in REJECTION.items():
        rng = sim.RngStream(VERIFY_SEED, sid).generator()
        stats = sim.RejectionStats()
        trees = [sim.sample_rejection_given_age(x1, raw, rng, stats=stats)
                 for _ in range(TREES)]
        out[name] = {"sha256": _digest(trees), "attempts": stats.attempts}
    return out


def _stream_order(batches, count) -> list:
    """The trees of a batch sampler as ReconTrees, in the order drawn."""
    trees = [None] * count
    for b in batches:
        for i, k in enumerate(b.index.tolist()):
            trees[k] = b.tree(i)
    return trees


def batch_digests() -> dict:
    out = {}
    for name, (_, batch, sid) in SAMPLERS.items():
        rng = sim.RngStream(VERIFY_SEED, sid).generator()
        out[name] = {"sha256": _digest(_stream_order(batch(TREES, rng), TREES))}
    for name, (raw, x1, sid) in REJECTION.items():
        rng = sim.RngStream(VERIFY_SEED, sid).generator()
        stats = sim.RejectionStats()
        batches = sim.batch_rejection_given_age(x1, raw, TREES, rng, stats=stats)
        out[name] = {"sha256": _digest(_stream_order(batches, TREES)),
                     "attempts": stats.attempts}
    return out


def per_tree_collect(draw, extractors: dict, reps: int, rng) -> dict:
    """The per-tree loop that ``mc.collect`` replaces: the reference."""
    out = {name: np.empty(reps) for name in extractors}
    for i in range(reps):
        t = draw(rng)
        for name, ex in extractors.items():
            out[name][i] = ex(t, rng)
    return out


def _extractors(name: str) -> dict:
    """Every extractor that applies to each tree of the configuration."""
    fixed_n = name.startswith(("yule", "given_n_age")) and "n=2]" not in name
    return {ex.__name__: ex for ex in READERS
            if fixed_n or ex is not mc.extract_random_interior}


def verify_reports() -> list:
    reports = mc.verify_suite(mc.VerifyConfig(reps=VERIFY_REPS, seed=VERIFY_SEED))
    out = []
    for r in reports:
        d = r.to_dict()
        del d["wall_time_s"]
        out.append(d)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_sampler_streams_match_golden(golden):
    assert sampler_digests() == golden["samplers"]


def test_batch_streams_match_golden(golden):
    assert batch_digests() == golden["samplers"]


def _assert_same_reads(draw, batch, name, sid):
    extractors = _extractors(name)
    ref_rng = sim.RngStream(VERIFY_SEED, sid).generator()
    ref = per_tree_collect(draw, extractors, TREES, ref_rng)
    rng = sim.RngStream(VERIFY_SEED, sid).generator()
    got = mc.collect(batch, {k: READERS[ex] for k, ex in extractors.items()}, TREES, rng)
    for k in extractors:
        assert np.array_equal(got[k], ref[k]), k
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_readers_match_extractors(name):
    draw, batch, sid = SAMPLERS[name]
    _assert_same_reads(draw, batch, name, sid)


@pytest.mark.parametrize("name", list(REJECTION))
def test_rejection_adapter_matches_oracle(name):
    raw, x1, sid = REJECTION[name]
    _assert_same_reads(lambda r: sim.sample_rejection_given_age(x1, raw, r),
                       partial(sim.batch_rejection_given_age, x1, raw), name, sid)


@pytest.mark.parametrize("name", ["yule_given_n[n=20]", "given_n_age[n=6,mu=0.5]",
                                  "given_age[x1=1.5,mu=0.4]"])
def test_blocks_keep_the_stream(name, monkeypatch):
    # blocks of one or a few trees draw exactly what one block draws
    monkeypatch.setattr(sim, "BATCH_NODES", 7)
    draw, batch, sid = SAMPLERS[name]
    _assert_same_reads(draw, batch, name, sid)
    blocks = list(batch(TREES, sim.RngStream(VERIFY_SEED, sid).generator()))
    assert len(blocks) >= TREES // 4


def test_verify_statistics_match_golden(golden):
    assert verify_reports() == golden["verify"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {"samplers": sampler_digests(), "verify": verify_reports()}, indent=1,
    ) + "\n")
