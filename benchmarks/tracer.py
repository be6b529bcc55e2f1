"""In-memory tracer that wraps recontree's public functions from outside.

Installing a :class:`Tracer` replaces every binding of a traced function
with a wrapper: the defining module, every module that imported the
function by name (``dists.p0``, ``sim.p0``, ``mc.prob_n_given_age``,
``cli.to_newick``, ...) and the package namespace.  Calls between library
functions go through module globals, so internal calls such as
``sample_given_age`` -> ``sample_given_n_age`` are traced too.  It also
patches ``ReconTree.__init__``, ``MixedDist.mean``/``total_mass`` and the
pdf/cdf callables of every ``MixedDist`` built while it is installed.
Nothing under ``src/`` is edited, and :meth:`Tracer.uninstall` restores
every binding.

Two modes share one set of wrappers:

* ``spans=False`` counts calls and sizes only (no clock reads), for the
  untimed reference unit that supplies the exact counts;
* ``spans=True`` records one span per call (name, start, end, parent id,
  size) in preallocated-style arrays; nothing is written until the run ends.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

# families whose outermost call is counted once (a tree sampled by
# sample_given_age through sample_given_n_age is one tree; a pdf that
# calls another pdf evaluates its points once)
NO_FAMILY, SAMPLER, LAW_EVAL = 0, 1, 2

LAW_BUILDERS = ("pendant_dist_given_n", "interior_dist_yule",
                "pendant_dist_given_n_age", "pendant_dist_given_age")
SAMPLERS = ("sample_yule_given_n", "sample_given_n_age", "sample_given_age",
            "sample_rejection_given_age")
ROOT = "bench.step"


def _tips(args, result):
    return result.n, 0


def _written(args, result):
    return len(result), args[0].n


def _parsed(args, result):
    return len(args[0]), result.n


def _points(args, result):
    return (int(np.size(args[0])) if args else 0), 0


def _dists_group(name: str) -> tuple:
    if name in LAW_BUILDERS:
        return "dists.law_build", NO_FAMILY, None
    if name == "root_edge_limit_constant":
        return "dists.quad", NO_FAMILY, None
    if any(t in name for t in ("pdf", "cdf", "survival", "mgf")) or name == "speciation_kernel":
        return "dists.law_eval", LAW_EVAL, _points
    return "dists.closed_form", NO_FAMILY, None


def traced_functions(modules: dict) -> list:
    """(module, attribute, span name, group, family, size_fn) to wrap.

    ``group`` is the per-layer metric the span's self time goes to; None
    leaves it in its module total only.
    """
    kernel, dists, sim, tree, mc, cli = (modules[k] for k in
                                         ("kernel", "dists", "sim", "tree", "mc", "cli"))
    out = []
    for name in ("p0", "p1", "prob_n_given_age"):
        out.append((kernel, name, f"kernel.{name}", f"kernel.{name}", NO_FAMILY, None))
    out.append((kernel, "transform_params", "kernel.transform_params", None, NO_FAMILY, None))
    for name in dists.__all__:
        obj = getattr(dists, name)
        if inspect.isfunction(obj):
            group, family, size_fn = _dists_group(name)
            out.append((dists, name, f"dists.{name}", group, family, size_fn))
    for name in SAMPLERS:
        out.append((sim, name, f"sim.{name}", f"sim.{name}", SAMPLER, _tips))
    for name in ("simulate_forward", "reconstruct"):
        out.append((sim, name, f"sim.{name}", f"sim.{name}", NO_FAMILY, None))
    out.append((tree, "to_newick", "tree.to_newick", "tree.to_newick", NO_FAMILY, _written))
    out.append((tree, "from_newick", "tree.from_newick", "tree.from_newick", NO_FAMILY, _parsed))
    for name in ("estimate", "collect", "compare", "compare_two_sample", "chi_square_counts"):
        out.append((mc, name, f"mc.{name}", f"mc.{name}", NO_FAMILY, None))
    for name in mc.__all__:
        if name.startswith("extract_"):
            out.append((mc, name, f"mc.{name}", "mc.extract", NO_FAMILY, None))
    out.append((mc, "verify_suite", "mc.verify_suite", None, NO_FAMILY, None))
    out.append((cli, "main", "cli.main", "cli.main", NO_FAMILY, None))
    return out


class Tracer:
    def __init__(self, modules: dict, spans: bool):
        self.modules = modules
        self.spans = spans
        self.names: list = []
        self.groups: list = []
        self._ids: dict = {}
        self._patches: list = []
        self._stack = [-1]
        self._depth = [0, 0, 0]
        self.reset()

    # -- bookkeeping -------------------------------------------------------

    def reset(self):
        """Drop recorded spans and counts; keep the installed wrappers."""
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_size = array("q")
        self.s_aux = array("q")
        self.s_outer = array("b")
        n = len(self.names)
        self.calls = [0] * n
        self.size = [0] * n
        self.aux = [0] * n
        self.outer_calls = [0] * n
        self.outer_size = [0] * n

    def _name_id(self, name: str, group) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
            for col in (self.calls, self.size, self.aux, self.outer_calls, self.outer_size):
                col.append(0)
        return nid

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, group, family=NO_FAMILY, size_fn=None):
        nid = self._name_id(name, group)
        stack, depth = self._stack, self._depth
        perf = time.perf_counter
        tracer = self

        if self.spans:
            def traced(*args, **kwargs):
                sid = len(tracer.s_name)
                tracer.s_name.append(nid)
                tracer.s_parent.append(stack[-1])
                tracer.s_size.append(0)
                tracer.s_aux.append(0)
                tracer.s_outer.append(family != NO_FAMILY and depth[family] == 0)
                tracer.s_end.append(0.0)
                depth[family] += 1
                stack.append(sid)
                tracer.s_start.append(perf())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.s_end[sid] = perf()
                    stack.pop()
                    depth[family] -= 1
                if size_fn is not None:
                    tracer.s_size[sid], tracer.s_aux[sid] = size_fn(args, result)
                return result
        else:
            def traced(*args, **kwargs):
                outer = family and depth[family] == 0
                tracer.calls[nid] += 1
                if outer:
                    tracer.outer_calls[nid] += 1
                depth[family] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    depth[family] -= 1
                if size_fn is not None:
                    s, a = size_fn(args, result)
                    tracer.size[nid] += s
                    tracer.aux[nid] += a
                    if outer:
                        tracer.outer_size[nid] += s
                return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = self.modules
        originals = {}
        for mod, attr, name, group, family, size_fn in traced_functions(mods):
            fn = getattr(mod, attr)
            originals[id(fn)] = self.wrap(fn, name, group, family, size_fn)
        # every binding of a traced function, in every recontree module
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

        recon = mods["tree"].ReconTree
        self._patch(recon, "__init__", self.wrap(recon.__init__, "tree.ReconTree_init",
                                                 "tree.ReconTree_init"))
        mixed = mods["dists"].MixedDist
        for attr in ("mean", "total_mass"):
            self._patch(mixed, attr, self.wrap(mixed.__dict__[attr], f"dists.MixedDist.{attr}",
                                               "dists.quad"))
        post_init = mixed.__dict__["__post_init__"]
        pdf_wrap = lambda f: self.wrap(f, "dists.MixedDist.pdf", "dists.law_eval", LAW_EVAL, _points)
        cdf_wrap = lambda f: self.wrap(f, "dists.MixedDist.cdf", "dists.law_eval", LAW_EVAL, _points)

        def traced_post_init(dist):
            post_init(dist)
            object.__setattr__(dist, "pdf", pdf_wrap(dist.pdf))
            object.__setattr__(dist, "cdf", cdf_wrap(dist.cdf))

        self._patch(mixed, "__post_init__", traced_post_init)
        self.reset()

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def root(self, fn):
        """Wrap one step of the benchmark's unit of work as a root span."""
        return self.wrap(fn, ROOT, "bench")

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        """Calls and sizes per span name (exact at a fixed seed)."""
        if self.spans:
            n = len(self.names)
            names = np.frombuffer(self.s_name, dtype=np.int32)
            size = np.frombuffer(self.s_size, dtype=np.int64)
            aux = np.frombuffer(self.s_aux, dtype=np.int64)
            outer = np.frombuffer(self.s_outer, dtype=np.int8).astype(bool)
            calls = np.bincount(names, minlength=n)
            sizes = np.bincount(names, weights=size, minlength=n)
            auxs = np.bincount(names, weights=aux, minlength=n)
            ocalls = np.bincount(names[outer], minlength=n)
            osize = np.bincount(names[outer], weights=size[outer], minlength=n)
            cols = (calls, sizes, auxs, ocalls, osize)
        else:
            cols = (self.calls, self.size, self.aux, self.outer_calls, self.outer_size)
        out = {}
        for i, name in enumerate(self.names):
            if name == ROOT:
                continue
            c, s, a, oc, os_ = (int(col[i]) for col in cols)
            if c:
                out[name] = {"calls": c, "size": s, "aux": a, "outer_calls": oc, "outer_size": os_}
        return out

    def self_times(self):
        """(span durations, self times, name ids) of the recorded spans.

        A span's self time is its duration minus its children's durations;
        spans nest strictly because the benchmark runs in one thread.
        """
        start = np.frombuffer(self.s_start, dtype=np.float64)
        end = np.frombuffer(self.s_end, dtype=np.float64)
        parent = np.frombuffer(self.s_parent, dtype=np.int32)
        names = np.frombuffer(self.s_name, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur, dur - child, names

    def span_table(self) -> dict:
        """The recorded spans as arrays, for writing out when the run ends."""
        return {
            "name": np.frombuffer(self.s_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.s_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.s_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.s_end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.s_size, dtype=np.int64).copy(),
            "aux": np.frombuffer(self.s_aux, dtype=np.int64).copy(),
            "names": np.array(self.names),
        }
