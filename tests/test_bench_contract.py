"""The benchmark's tracer must install over the live package.

``benchmarks/run.py`` always runs its reference unit under
``benchmarks/tracer.Tracer``, whose ``install()`` looks up every traced name
with ``getattr``.  Deleting or renaming one of those names (say
``sim.reconstruct``) breaks every benchmark workload, so it fails here too.
"""

import importlib.util
import pathlib

import recontree
from recontree import cli, dists, kernel, mc, sim, tree

TRACER = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    modules = {"kernel": kernel, "dists": dists, "sim": sim, "tree": tree,
               "mc": mc, "cli": cli, "recontree": recontree}
    owners = (*modules.values(), tree.ReconTree, dists.MixedDist)
    before = [dict(vars(o)) for o in owners]
    parse, prune = tree.from_newick, sim.reconstruct
    tracer = load_tracer().Tracer(modules, spans=False)
    try:
        tracer.install()
        assert tree.from_newick.__wrapped__ is parse
        assert sim.reconstruct.__wrapped__ is prune
    finally:
        tracer.uninstall()
    for owner, old in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in old.items()), owner.__name__
