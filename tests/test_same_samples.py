"""Same seed, same samples: the sampler streams and verify statistics are pinned.

``tests/golden/verify-stats.json`` holds, for fixed seeds,

* every field of every ``verify_suite(reps=1000, seed=20260824)`` report
  except ``wall_time_s`` (KS statistics, moments, atom fractions,
  ``n_samples`` and pass flags), plus the rejection oracle's counts in
  ``transform_equivalence``;
* a sha256 digest of ``times``/``parent``/``children`` over 200 trees from
  each sampler configuration, and the rejection oracle's attempt count.

Any change to a sampler's random stream, to a tree's node numbering or to a
statistic shows up here as an exact mismatch.  Regenerate the file only
when samples are meant to change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_same_samples.py
"""

import hashlib
import json
import pathlib

import pytest

from recontree import mc, sim
from recontree.kernel import Params, RawParams

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify-stats.json"

VERIFY_SEED = 20260824
VERIFY_REPS = 1000
TREES = 200

# name -> (sampler taking an rng, stream id); every stream uses seed 20260824
SAMPLERS = {
    "yule_given_n[n=2]": (lambda r: sim.sample_yule_given_n(2, 1.0, r), 1),
    "yule_given_n[n=20]": (lambda r: sim.sample_yule_given_n(20, 1.0, r), 2),
}
for _i, _n in enumerate((3, 6, 1000)):
    for _j, _mu in enumerate((0.0, 0.5, 1.0, -0.5)):
        SAMPLERS[f"given_n_age[n={_n},mu={_mu}]"] = (
            lambda r, n=_n, p=Params(1.0, _mu): sim.sample_given_n_age(n, 2.0, p, r),
            10 + 4 * _i + _j,
        )
SAMPLERS["given_age[x1=1.5,mu=0.4]"] = (
    lambda r: sim.sample_given_age(1.5, Params(1.0, 0.4), r), 30)
SAMPLERS["given_age[x1=1,mu=0]"] = (
    lambda r: sim.sample_given_age(1.0, Params(1.0, 0.0), r), 31)

REJECTION = {
    "rejection_given_age[2,0.5,0.5,x1=1]": (RawParams(2.0, 0.5, 0.5), 1.0, 40),
    "rejection_given_age[1,0.3,1,x1=1.5]": (RawParams(1.0, 0.3, 1.0), 1.5, 41),
}


def _digest(trees) -> str:
    h = hashlib.sha256()
    for t in trees:
        for a in (t.times, t.parent, t.children):
            h.update(a.tobytes())
    return h.hexdigest()


def sampler_digests() -> dict:
    out = {}
    for name, (draw, sid) in SAMPLERS.items():
        rng = sim.RngStream(VERIFY_SEED, sid).generator()
        out[name] = {"sha256": _digest(draw(rng) for _ in range(TREES))}
    for name, (raw, x1, sid) in REJECTION.items():
        rng = sim.RngStream(VERIFY_SEED, sid).generator()
        stats = sim.RejectionStats()
        trees = [sim.sample_rejection_given_age(x1, raw, rng, stats=stats)
                 for _ in range(TREES)]
        out[name] = {"sha256": _digest(trees), "attempts": stats.attempts}
    return out


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


def test_verify_statistics_match_golden(golden):
    assert verify_reports() == golden["verify"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {"samplers": sampler_digests(), "verify": verify_reports()}, indent=1,
    ) + "\n")
