"""The benchmark must run over the live package.

``benchmarks/run.py`` always runs its reference unit under
``benchmarks/tracer.Tracer``, whose ``install()`` looks up every traced name
with ``getattr``.  Deleting or renaming one of those names (say
``sim.reconstruct``) breaks every benchmark workload, so it fails here too.
The workloads also call recontree directly (``laws`` calls
``dists.speciation_time_pdf``), so one unit of each must run and pass its
gates.
"""

import importlib.util
import pathlib

import pytest

import recontree
from recontree import cli, dists, kernel, mc, sim, tree

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")


def test_tracer_installs_and_restores_every_binding():
    modules = {"kernel": kernel, "dists": dists, "sim": sim, "tree": tree,
               "mc": mc, "cli": cli, "recontree": recontree}
    owners = (*modules.values(), tree.ReconTree, dists.MixedDist)
    before = [dict(vars(o)) for o in owners]
    parse, prune = tree.from_newick, sim.reconstruct
    tracer = load("tracer").Tracer(modules, spans=False)
    try:
        tracer.install()
        assert tree.from_newick.__wrapped__ is parse
        assert sim.reconstruct.__wrapped__ is prune
    finally:
        tracer.uninstall()
    for owner, old in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in old.items()), owner.__name__


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_unit_passes_every_gate(name, tmp_path):
    # statistical and known-defect outcomes may fail on a correct program
    w = workloads.WORKLOADS[name](1, str(tmp_path))
    failed = [o for o in w.check(w.run()) if o.kind == workloads.GATE and not o.ok]
    assert not failed
