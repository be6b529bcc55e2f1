"""Same seed, same samples: the sampler streams and verify statistics are pinned.

``tests/golden/verify-stats.json`` holds, for fixed seeds,

* every field of every ``verify_suite(reps=1000, seed=20260824)`` report
  except ``wall_time_s`` (KS statistics, moments, atom fractions,
  ``n_samples`` and pass flags), plus the rejection oracle's counts in
  ``transform_equivalence``;
* a sha256 digest of ``times``/``parent``/``children`` over 200 trees from
  each sampler configuration, and the attempt counts of the per-tree
  rejection oracle and of the lockstep forward oracle
  (``sim.batch_forward_given_age``, one 200-tree call) at each of its
  configurations.

Each single-tree sampler (``sim.sample_*``, a batch of one) and its batch
sampler (``sim.batch_*``, 200 trees in one call) must reproduce the digest
on the same stream, through either topology path (row by row, or numpy
lockstep over a block's rows).  ``mc.collect`` over batches and readers
must return exactly what a loop over single trees and the per-tree
``extract_*`` functions below returns, with the generator left in the same
state.

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

# name -> (single-tree sampler taking an rng, its batch sampler, stream id);
# every stream uses seed 20260824
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


# Per-tree extractors: each reads from one ReconTree what its reader reads
# from every row of a TreeBatch, with the same draw.

def extract_random_pendant(t, rng) -> float:
    return float(t.times[t.parent[int(rng.integers(t.n))]])  # leaf ages are 0


def extract_random_interior(t, rng) -> float:
    v = t.n + int(rng.integers(t.n - 2))  # an internal node, skipping the root
    v += v >= t.root
    return float(t.times[t.parent[v]] - t.times[v])


def extract_random_root_edge(t, rng) -> float:
    root = t.root
    c = t.children_of(root)[int(rng.integers(2))]
    return float(t.times[root] - t.times[c])


def extract_diversity(t, rng) -> float:
    return float(t.edge_lengths().sum())


def extract_leaf_count(t, rng) -> float:
    return float(t.n)


# per-tree extractor -> its reader
READERS = {
    extract_random_pendant: mc.read_random_pendant,
    extract_random_interior: mc.read_random_interior,
    extract_random_root_edge: mc.read_random_root_edge,
    extract_diversity: mc.read_diversity,
    extract_leaf_count: mc.read_leaf_count,
}


def _digest(trees) -> str:
    h = hashlib.sha256()
    for t in trees:
        for a in (t.times, t.parent, t.children):
            h.update(a.tobytes())
    return h.hexdigest()


def _stream(sid: int) -> np.random.Generator:
    return sim.RngStream(VERIFY_SEED, sid).generator()


def single_digests(names) -> dict:
    """Digests of TREES calls of each configuration's single-tree sampler."""
    out = {}
    for name in names:
        draw, _, sid = SAMPLERS[name]
        rng = _stream(sid)
        out[name] = {"sha256": _digest(draw(rng) for _ in range(TREES))}
    return out


def batch_digests(names) -> dict:
    """Digests of one TREES-tree call of each configuration's batch sampler."""
    out = {}
    for name in names:
        _, batch, sid = SAMPLERS[name]
        out[name] = {"sha256": _digest(sim.tree_stream(batch(TREES, _stream(sid))))}
    return out


def rejection_digests() -> dict:
    """Digests of TREES calls of the per-tree rejection oracle at each
    rejection configuration, with its attempt count."""
    out = {}
    for name, (raw, x1, sid) in REJECTION.items():
        rng, stats = _stream(sid), sim.RejectionStats()
        trees = [sim.sample_rejection_given_age(x1, raw, rng, stats=stats)
                 for _ in range(TREES)]
        out[name] = {"sha256": _digest(trees), "attempts": stats.attempts}
    return out


def forward_digests() -> dict:
    """Digests of one TREES-tree call of the lockstep forward oracle at each
    rejection configuration, with its attempt count."""
    out = {}
    for name, (raw, x1, sid) in REJECTION.items():
        stats = sim.RejectionStats()
        trees = sim.tree_stream(
            sim.batch_forward_given_age(x1, raw, TREES, _stream(sid), stats=stats))
        out[name.replace("rejection", "forward", 1)] = {"sha256": _digest(trees),
                                                        "attempts": stats.attempts}
    return out


def per_tree_collect(draw, extractors: dict, reps: int, rng) -> dict:
    """A loop over single trees and extractors: the reference for ``mc.collect``."""
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
            if fixed_n or ex is not extract_random_interior}


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
    assert {**single_digests(SAMPLERS), **rejection_digests(),
            **forward_digests()} == golden["samplers"]


def test_batch_streams_match_golden(golden):
    got = {**batch_digests(SAMPLERS), **forward_digests()}
    assert got == {name: golden["samplers"][name] for name in got}


def _assert_same_reads(draw, batch, name, sid):
    extractors = _extractors(name)
    ref_rng = _stream(sid)
    ref = per_tree_collect(draw, extractors, TREES, ref_rng)
    rng = _stream(sid)
    got = mc.collect(batch, {k: READERS[ex] for k, ex in extractors.items()}, TREES, rng)
    for k in extractors:
        assert np.array_equal(got[k], ref[k]), k
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_readers_match_extractors(name):
    draw, batch, sid = SAMPLERS[name]
    _assert_same_reads(draw, batch, name, sid)


@pytest.mark.parametrize("name", ["yule_given_n[n=20]", "given_n_age[n=6,mu=0.5]",
                                  "given_age[x1=1.5,mu=0.4]"])
def test_blocks_keep_the_stream(name, monkeypatch):
    # blocks of one or a few trees draw exactly what one block draws
    monkeypatch.setattr(sim, "BATCH_NODES", 7)
    draw, batch, sid = SAMPLERS[name]
    _assert_same_reads(draw, batch, name, sid)
    blocks = list(batch(TREES, _stream(sid)))
    assert len(blocks) >= TREES // 4


# a block of one row through the lockstep loop costs about 20 ms at n=1000, so
# the single-tree samplers at n=1000 are checked on the row path only; the
# lockstep loop still sees one-row blocks in the given-x1 buckets
SLOW_SINGLE_LOCKSTEP = [name for name in SAMPLERS if "n=1000" in name]


@pytest.mark.parametrize("rows", [0, 10**9], ids=["lockstep", "row_by_row"])
def test_both_attachment_paths_match_golden(rows, golden, monkeypatch):
    # every block, a batch of one included, attaches its topology one way
    monkeypatch.setattr(sim, "LOCKSTEP_ROWS", rows)
    want = golden["samplers"]
    single = [name for name in SAMPLERS if rows or name not in SLOW_SINGLE_LOCKSTEP]
    assert single_digests(single) == {name: want[name] for name in single}
    assert batch_digests(SAMPLERS) == {name: want[name] for name in SAMPLERS}


def test_verify_statistics_match_golden(golden):
    assert verify_reports() == golden["verify"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {"samplers": {**single_digests(SAMPLERS), **rejection_digests(),
                      **forward_digests()},
         "verify": verify_reports()}, indent=1,
    ) + "\n")
