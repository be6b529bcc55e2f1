"""The four benchmark workloads.

Each workload turns the benchmark seed into fixed inputs in its
constructor (its set-up).  ``steps`` lists the calls into recontree's
public entry points that make up one unit of work, in order; a step may
use the result of an earlier one.  The same inputs are replayed in every
unit, so each unit's outputs must match the first unit's exactly;
``check`` verifies those first outputs in full, outside the timed region.

Every check yields an :class:`Outcome` of one of three kinds:

* ``gate``: must pass; a failure makes the run incorrect;
* ``statistical``: a Monte Carlo gate at the 99% level, which a correct
  program fails at about that rate; counted, never re-seeded;
* ``known_defect``: a property the program claims but does not yet meet
  at this version; counted.  These are: ``newick_exact_times``
  (``from_newick`` rebuilds ages from summed branch lengths, a few ulps
  off, although ``to_newick`` promises an exact round trip),
  ``cli_verify_json`` (``recontree verify`` cannot encode numpy bools in
  its report) and the three ``EDGE_POINTS`` of ROADMAP item 5.

All three kinds count into ``failed``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
from typing import NamedTuple

import numpy as np

from recontree import cli, dists, kernel, mc, sim, tree
from recontree.kernel import Params

GATE, STATISTICAL, KNOWN_DEFECT = "gate", "statistical", "known_defect"

# law-evaluation points that ROADMAP item 5 reproduced as defects
EDGE_POINTS = ("pendant_given_age_x1_70", "pendant_given_age_x1_1e-8",
               "speciation_time_pdf_n_2000")


class Outcome(NamedTuple):
    name: str
    ok: bool
    kind: str
    detail: str = ""


def outcome(name: str, ok, kind: str, detail: str = "") -> Outcome:
    return Outcome(name, bool(ok), kind, detail)


class Workload:
    # "large" when the working set is near that of a 10^4-tip tree; selects
    # the calibration piece the unit's steps are timed against
    working_set = "small"

    def steps(self) -> list:
        """[(label, callable)] making up one unit of work, in order.

        The callables look recontree's functions up when called, never
        when built, so that the tracer's wrappers are the ones called."""
        raise NotImplementedError

    def collect(self, step_outputs: list):
        """The unit's output from its steps' return values."""
        return step_outputs

    def run(self):
        return self.collect([fn() for _, fn in self.steps()])

    def probes(self) -> list:
        """Untimed extra checks, run once after the reference unit."""
        return []


def derive_seed(seed: int, *labels) -> int:
    """Independent 63-bit input seed for one labelled use of the run seed."""
    text = ":".join(str(x) for x in (seed, *labels)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little") >> 1


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _quiet_main(argv) -> int:
    """Run the CLI with its stderr status lines discarded."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _same_tree(t, u) -> tuple:
    """Walk t and u together in child order: (topology and labels agree,
    number of internal ages that differ, largest age difference)."""
    stack = [(t.root, u.root)]
    diff, worst = 0, 0.0
    while stack:
        a, b = stack.pop()
        if (a < t.n) != (b < u.n):
            return False, diff, worst
        if a < t.n:
            if t.labels[a] != u.labels[b]:
                return False, diff, worst
            continue
        if t.times[a] != u.times[b]:
            diff += 1
            worst = max(worst, abs(t.times[a] - u.times[b]))
        for ca, cb in zip(t.children_of(a), u.children_of(b)):
            stack.append((int(ca), int(cb)))
    return True, diff, worst


# ---------------------------------------------------------------------------
# verify: the Monte Carlo suite, time to a verified answer
# ---------------------------------------------------------------------------

class Verify(Workload):
    """All 13 checks of ``mc.verify_suite`` at a fixed reps and seed.

    Each step is one named check, run as ``recontree verify --check``
    runs it (same stream ids, so the same samples as the full suite).
    The steps call the library entry point that ``recontree verify`` wraps:
    the CLI itself cannot write its report at this version (see
    ``cli_verify_json``), which a separate untimed probe records.
    """

    name = "verify"
    why = "time to a verified answer: samplers, rejection oracle and per-tree MC loop; no Newick"
    reps = 1000

    def __init__(self, seed: int, workdir: str):
        self.seed = derive_seed(seed, self.name)
        self.seeds = [self.seed]
        self.workdir = workdir

    def config(self, checks=()):
        return mc.VerifyConfig(checks=checks, reps=self.reps, seed=self.seed)

    def _check(self, name):
        return mc.verify_suite(self.config((name,)))

    def steps(self):
        return [(name, functools.partial(self._check, name)) for name in mc.CHECK_NAMES]

    @staticmethod
    def _summary(reports):
        return [(r.check, bool(r.passed), r.n_samples,
                 None if r.ks is None else float(r.ks.stat),
                 [float(m.empirical) for m in r.moments],
                 None if r.atom is None else float(r.atom.empirical_fraction))
                for r in reports]

    def fingerprint(self, outputs) -> str:
        return _digest(self._summary([r for step in outputs for r in step]))

    def output_counts(self, outputs, trace_counts) -> dict:
        trees = sum(c["outer_calls"] for k, c in trace_counts.items()
                    if k.startswith("sim.sample_"))
        tips = sum(c["outer_size"] for k, c in trace_counts.items()
                   if k.startswith("sim.sample_"))
        return {"reports": sum(map(len, outputs)), "trees": trees, "tips": tips,
                "bytes_written": 0}

    def check(self, outputs) -> list:
        reports = [r for step in outputs for r in step]
        out = []
        covered = {r.check.split(":")[0] for r in reports}
        missing = sorted(set(mc.CHECK_NAMES) - covered)
        out.append(outcome("suite_covers_all_checks", not missing, GATE,
                           f"missing {missing}" if missing else ""))
        for r in reports:
            # sampled checks are 99%-level gates; numeric identities must hold
            kind = STATISTICAL if r.n_samples > 0 else GATE
            out.append(outcome(r.check, r.passed, kind))
        return out

    def probes(self) -> list:
        path = os.path.join(self.workdir, "verify_probe.json")
        argv = ["verify", "--check", "yule_pendant_n", "--reps", str(self.reps),
                "--seed", str(self.seed), "-o", path]
        try:
            code = _quiet_main(argv)
            with open(path) as fh:
                payload = json.load(fh)
            ok = code == (0 if payload["pass"] else 1) and len(payload["reports"]) == 1
            return [outcome("cli_verify_json", ok, KNOWN_DEFECT)]
        except Exception as exc:  # the probe records any failure of the CLI path
            return [outcome("cli_verify_json", False, KNOWN_DEFECT,
                            f"{type(exc).__name__}: {exc}")]


# ---------------------------------------------------------------------------
# simulate: many small trees streamed as NDJSON
# ---------------------------------------------------------------------------

class Simulate(Workload):
    """``recontree simulate`` over the four scenarios, written to files."""

    name = "simulate"
    why = "many small trees through the CLI: per-tree sampler, to_newick and JSON cost; no mc or dists"
    reps = 300
    scenarios = (
        ("given-n", ["--scenario", "given-n", "--lam", "1", "--n", "20"]),
        ("given-n-age", ["--scenario", "given-n-age", "--lam", "1", "--mu", "0.5",
                         "--n", "20", "--x1", "2"]),
        ("given-age", ["--scenario", "given-age", "--lam", "1", "--mu", "0.4",
                       "--x1", "1.5"]),
        ("rejection-given-age", ["--scenario", "rejection-given-age", "--lam-hat", "2",
                                 "--mu-hat", "0.5", "--f", "0.5", "--x1", "1"]),
    )

    def __init__(self, seed: int, workdir: str):
        self.argvs, self.paths, self.seeds = [], [], []
        for label, args in self.scenarios:
            path = os.path.join(workdir, f"simulate-{label}.ndjson")
            self.seeds.append(derive_seed(seed, self.name, label))
            self.argvs.append(["simulate", *args, "--reps", str(self.reps), "--seed",
                               str(self.seeds[-1]), "-o", path])
            self.paths.append(path)

    @staticmethod
    def _simulate(argv, path):
        cli.main(argv)
        return path

    def steps(self):
        return [(label, functools.partial(self._simulate, argv, path))
                for (label, _), argv, path in zip(self.scenarios, self.argvs, self.paths)]

    def fingerprint(self, paths) -> str:
        return _digest(*(_read(p) for p in paths))

    def _records(self, path):
        with open(path) as fh:
            lines = fh.read().splitlines()
        return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]

    def output_counts(self, paths, trace_counts) -> dict:
        trees = tips = 0
        for path in paths:
            _, recs = self._records(path)
            trees += len(recs)
            tips += sum(r["n"] for r in recs)
        return {"trees": trees, "tips": tips, "bytes_written": _file_bytes(paths)}

    def check(self, paths) -> list:
        out = []
        for (label, _), path in zip(self.scenarios, paths):
            manifest, recs = self._records(path)
            out.append(outcome(f"{label}:record_count",
                               len(recs) == self.reps == manifest["manifest"]["count"], GATE))
            for rec in recs:
                tag = f"{label}:{rec['id']}"
                try:
                    u = tree.from_newick(rec["newick"])
                except ValueError as exc:
                    out.append(outcome(f"{tag}:parse", False, GATE, str(exc)))
                    continue
                close = abs(u.mrca_age - rec["x1"]) <= 1e-12 * rec["x1"]
                out.append(outcome(f"{tag}:n_x1", u.n == rec["n"] and close, GATE,
                                   f"n {u.n}/{rec['n']} x1 {u.mrca_age!r}/{rec['x1']!r}"))
                out.append(outcome(f"{tag}:newick_exact_times", u.mrca_age == rec["x1"],
                                   KNOWN_DEFECT, f"x1 {u.mrca_age!r} vs {rec['x1']!r}"))
        return out


# ---------------------------------------------------------------------------
# large_trees: O(n) paths at n = 10^4
# ---------------------------------------------------------------------------

class LargeTrees(Workload):
    """Given-(n, x1) trees at n = 10^4, written and read back as Newick."""

    name = "large_trees"
    why = "few trees of 10^4 tips: per-tip cost of coalescent attachment, Newick writer and parser"
    working_set = "large"
    n = 10_000
    count = 3
    x1 = 10.0
    params = Params(lam=1.0, mu=0.5)

    def __init__(self, seed: int, workdir: str):
        self.seeds = [derive_seed(seed, self.name, i) for i in range(self.count)]
        self._trees, self._texts = {}, {}

    def _sample(self, i):
        rng = np.random.default_rng(self.seeds[i])
        self._trees[i] = sim.sample_given_n_age(self.n, self.x1, self.params, rng)

    def _write(self, i):
        self._texts[i] = tree.to_newick(self._trees[i])

    def _read(self, i):
        return self._trees[i], self._texts[i], tree.from_newick(self._texts[i])

    def steps(self):
        return [(f"{stage.__name__[1:]}{i}", functools.partial(stage, i))
                for i in range(self.count) for stage in (self._sample, self._write, self._read)]

    def collect(self, step_outputs: list) -> list:
        return [out for out in step_outputs if out is not None]

    def fingerprint(self, trees) -> str:
        return _digest(*(part for t, text, u in trees
                         for part in (t.times.tobytes(), t.parent.tobytes(), text.encode(),
                                      u.times.tobytes(), u.parent.tobytes())))

    def output_counts(self, trees, trace_counts) -> dict:
        return {"trees": len(trees), "tips": sum(t.n for t, _, _ in trees),
                "newick_bytes": sum(len(text) for _, text, _ in trees), "bytes_written": 0}

    def check(self, trees) -> list:
        out = []
        for i, (t, _, u) in enumerate(trees):
            same, diff, worst = _same_tree(t, u)
            close = same and worst <= 1e-12 * t.mrca_age
            out.append(outcome(f"tree{i}:round_trip", close, GATE,
                               f"topology {same}, largest age error {worst:.3g}"))
            out.append(outcome(f"tree{i}:newick_exact_times", same and diff == 0, KNOWN_DEFECT,
                               f"{diff} of {t.n - 1} internal ages differ"))
        return out


# ---------------------------------------------------------------------------
# laws: analytic evaluation only
# ---------------------------------------------------------------------------

REGIMES = (("yule", 0.0), ("subcritical", 0.5), ("critical", 1.0), ("negative_mu", -0.5))


class Laws(Workload):
    """Every law of ``recontree density`` in four regimes, plus ``expect``,
    the given-x1 mixture identity and closed-form versus quadrature means."""

    name = "laws"
    why = "pure law evaluation, no sampling: kernel and dists, which verify barely touches"
    grid_points = 400
    mixture_points = 50
    mixture_max_n = 500
    draws = 3  # parameter draws per regime

    def __init__(self, seed: int, workdir: str):
        self.seeds = [derive_seed(seed, self.name)]
        rng = np.random.default_rng(self.seeds[0])
        self.density = []   # (argv, path, support_end or None)
        self.expect = []    # (argv, path)
        self.points = []    # (regime label, n, x1, k, Params)
        self.mixtures = []  # (regime label, x1, Params)
        self.draw_steps = []  # (tag, CLI argvs, point) for one parameter draw
        for label, mu in REGIMES:
            p = Params(lam=1.0, mu=mu)
            rates = ["--lam", "1", f"--mu={mu}"]
            for d in range(self.draws):
                n = int(rng.integers(4, 31))
                k = int(rng.integers(2, n))
                x1 = float(np.round(rng.uniform(0.5, 3.0), 6))
                self.points.append((label, n, x1, k, p))
                if d == 0:
                    # the n <= 500 truncation leaves a tail of order r^500,
                    # r = lam p0(x1); x1 <= 1.5 keeps it below 1e-30 for mu >= -0.5
                    self.mixtures.append((label, float(np.round(rng.uniform(0.5, 1.5), 6)), p))
                tag = f"{label}-{d}"
                grid_x1 = f"0:{x1}:{self.grid_points}"
                grid_inf = f"0:8:{self.grid_points}"
                specs = [
                    (["--law", "pendant", "--scenario", "given-n", "--grid", grid_inf], None),
                    (["--law", "pendant", "--scenario", "given-n-age", "--n", str(n),
                      "--x1", str(x1), "--grid", grid_x1], x1),
                    (["--law", "pendant", "--scenario", "given-age", "--x1", str(x1),
                      "--grid", grid_x1], x1),
                    (["--law", "speciation-time", "--n", str(n), "--k", str(k),
                      "--x1", str(x1), "--grid", grid_x1], x1),
                ]
                if mu == 0.0:
                    specs += [
                        (["--law", "interior", "--grid", grid_inf], None),
                        (["--law", "root-edge", "--scenario", "given-n", "--n", str(n),
                          "--grid", grid_inf], None),
                        (["--law", "root-edge", "--scenario", "given-age", "--x1", str(x1),
                          "--grid", grid_x1], x1),
                        (["--law", "hypoexp", "--k", str(k), "--grid", grid_inf], None),
                        (["--law", "diversity", "--n", str(n), "--grid", f"0:{4 * n}:"
                          f"{self.grid_points}"], None),
                    ]
                for j, (args, end) in enumerate(specs):
                    path = os.path.join(workdir, f"density-{tag}-{j}.csv")
                    self.density.append((["density", *rates, *args, "-o", path], path, end))
                path = os.path.join(workdir, f"expect-{tag}.json")
                self.expect.append((["expect", *rates, "--n", str(n), "--x1", str(x1),
                                     "--format", "json", "-o", path], path))
                argvs = [argv for argv, _, _ in self.density[-len(specs):]]
                self.draw_steps.append((tag, argvs + [self.expect[-1][0]], (label, n, x1, p)))

    # -- the unit of work --------------------------------------------------

    def _draw(self, argvs, point):
        """Densities and expectations of one parameter draw, then its masses
        and means."""
        for argv in argvs:
            cli.main(argv)
        return self._point(*point)

    def _point(self, label, n, x1, p):
        tag = f"{label}:n={n},x1={x1}"
        law_nx = dists.pendant_dist_given_n_age(n, x1, p)
        return {
            f"mass:pendant_n:{tag}": dists.pendant_dist_given_n(p).total_mass(),
            f"mass:pendant_n_age:{tag}": law_nx.total_mass(),
            f"mass:pendant_age:{tag}": dists.pendant_dist_given_age(x1, p).total_mass(),
            f"mean:pendant_n_age:{tag}": (dists.pendant_mean_given_n_age(n, x1, p),
                                          law_nx.mean()),
        }

    @staticmethod
    def _means_given_n():
        out = {}
        for label, mu in REGIMES:
            p = Params(lam=1.0, mu=mu)
            out[f"mean:pendant_n:{label}"] = (dists.pendant_mean_given_n(p),
                                              dists.pendant_dist_given_n(p).mean())
        return out

    def _mixture(self, label, x1, p):
        return {f"mixture:{label}:x1={x1}": self._mixture_gap(x1, p)}

    def _mixture_gap(self, x1, p):
        law = dists.pendant_dist_given_age(x1, p)
        grid = np.linspace(x1 * 1e-3, x1 * (1.0 - 1e-3), self.mixture_points)
        mix = np.zeros_like(grid)
        for n in range(3, self.mixture_max_n + 1):
            mix += (kernel.prob_n_given_age(n, x1, p)
                    * dists.pendant_dist_given_n_age(n, x1, p).pdf(grid))
        return float(np.max(np.abs(mix - law.pdf(grid))))

    @staticmethod
    def _edge_points():
        """ROADMAP item 5 points, evaluated like any other law."""
        p = Params(lam=1.0, mu=0.4)
        out = {}
        for label, fn in (
            ("pendant_given_age_x1_70",
             lambda: dists.pendant_dist_given_age(70.0, p).total_mass()),
            ("pendant_given_age_x1_1e-8",
             lambda: dists.pendant_dist_given_age(1e-8, p).total_mass()),
            ("speciation_time_pdf_n_2000",
             lambda: float(np.sum(dists.speciation_time_pdf(
                 np.linspace(0.1, 0.9, 9), 1000, 2000, 1.0, Params(lam=1.0, mu=0.5))))),
        ):
            try:
                out[label] = float(fn())
            except (ValueError, ArithmeticError) as exc:
                out[label] = f"{type(exc).__name__}: {exc}"
        return out

    def steps(self):
        part = functools.partial
        out = [(f"draw:{tag}", part(self._draw, argvs, point))
               for tag, argvs, point in self.draw_steps]
        out.append(("means_given_n", self._means_given_n))
        out += [(f"mixture:{label}", part(self._mixture, label, x1, p))
                for label, x1, p in self.mixtures]
        out.append(("edge_points", self._edge_points))
        return out

    def collect(self, step_outputs: list) -> dict:
        """The steps' values merged; the CLI steps leave their output in files."""
        values = {}
        for out in step_outputs:
            values.update(out or {})
        return values

    # -- checks --------------------------------------------------------------

    def _csv(self, path):
        with open(path) as fh:
            lines = fh.read().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        atom = 0.0
        if rows and rows[-1][1] == "atom":
            atom = float(rows.pop()[2])
        arr = np.array([[float(x) for x in r] for r in rows]).reshape(-1, 3)
        return arr, atom

    def fingerprint(self, values) -> str:
        files = [_read(path) for _, path, _ in self.density] + [_read(p) for _, p in self.expect]
        return _digest(sorted(values.items()), *files)

    def output_counts(self, values, trace_counts) -> dict:
        rows = sum(self._csv(path)[0].shape[0] for _, path, _ in self.density)
        expect_values = 0
        for _, path in self.expect:
            with open(path) as fh:
                expect_values += len(json.load(fh)["values"])
        scalars = sum(2 if isinstance(v, tuple) else 1 for k, v in values.items()
                      if not k.startswith("mixture:") and k not in EDGE_POINTS)
        mixture = len(self.mixtures) * self.mixture_points * (self.mixture_max_n - 1)
        paths = [p for _, p, _ in self.density] + [p for _, p in self.expect]
        return {"points": rows + expect_values + scalars + mixture,
                "grid_points": rows, "bytes_written": _file_bytes(paths)}

    def check(self, values) -> list:
        out = []
        for argv, path, end in self.density:
            arr, atom = self._csv(path)
            s, pdf, cdf = arr.T
            label = " ".join(argv[1:-2])
            # the CSV keeps 12 significant digits, hence the 1e-11 on the bounds
            problems = []
            if not np.all(np.isfinite(arr)) or not math.isfinite(atom):
                problems.append("non-finite value")
            if np.any(pdf < 0):
                problems.append("negative pdf")
            if np.any(np.diff(cdf) < 0):
                problems.append("cdf not monotone")
            if np.any(cdf < -1e-11) or np.any(cdf > 1.0 - atom + 1e-11):
                problems.append("cdf outside [0, 1-atom]")
            if end is not None and (s.size == 0 or s[-1] > end):
                problems.append("grid past the support")
            out.append(outcome(f"density:{label}", not problems, GATE, "; ".join(problems)))
        for argv, path in self.expect:
            with open(path) as fh:
                vals = json.load(fh)["values"]
            bad = [k for k, v in vals.items() if not math.isfinite(v)]
            out.append(outcome(f"expect:{' '.join(argv[1:-4])}", not bad, GATE, f"{bad}"))
        for key, v in values.items():
            if key in EDGE_POINTS:
                continue
            if key.startswith("mass:"):
                out.append(outcome(key, abs(v - 1.0) <= 1e-8, GATE, f"{v!r}"))
            elif key.startswith("mean:"):
                closed, quad = v
                out.append(outcome(key, abs(closed - quad) <= 1e-6 * abs(quad), GATE,
                                   f"closed {closed!r} quadrature {quad!r}"))
            elif key.startswith("mixture:"):
                out.append(outcome(key, v <= 1e-6, GATE, f"max density gap {v:.3g}"))
        for key in ("pendant_given_age_x1_70", "pendant_given_age_x1_1e-8"):
            v = values[key]
            ok = isinstance(v, float) and abs(v - 1.0) <= 1e-8
            out.append(outcome(key, ok, KNOWN_DEFECT, f"{v!r}"))
        v = values["speciation_time_pdf_n_2000"]
        out.append(outcome("speciation_time_pdf_n_2000", isinstance(v, float) and
                           math.isfinite(v) and v >= 0, KNOWN_DEFECT, f"{v!r}"))
        return out


WORKLOADS = {w.name: w for w in (Verify, Simulate, LargeTrees, Laws)}
