"""One benchmark workload in a fresh interpreter; prints one JSON result line.

``run.py`` starts this script as a child process with single-threaded
BLAS/OpenMP settings.  With ``--setup-probe`` it only imports recontree
and builds the workload's inputs, and reports how long that took.
Otherwise it:

1. runs one untimed reference unit under the counting tracer, which gives
   the exact counts, and checks its outputs in full;
2. runs units with tracing off for ``--seconds`` (a closed loop: one
   caller, each unit starts when the previous one has returned), timing
   every step against calibration pieces run beside it, and checks that
   every unit reproduces the reference output;
3. with ``--trace 1``, runs traced units for another ``--seconds``,
   derives per-layer self times from the spans, and writes the spans of
   the first traced unit when the run ends.

Times are rescaled to a reference speed because this kind of shared host
changes speed by up to 2x within minutes (see ``ref_wall``).
"""

import time


def interpreter_calibration() -> float:
    """Duration of a fixed piece of pure-Python work (about 4 ms), used to
    rescale the set-up time, which is mostly module loading; the fastest of
    three, so that a garbage collection does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        table = {}
        for i in range(6_000):
            key = f"name{i % 977}.{i}"
            table[key] = (i, key.upper(), [i, i + 1])
        sorted(table.items(), key=lambda kv: kv[1][1])
        best = min(best, time.perf_counter() - t0)
    return best


_CALIBRATION_BEFORE = interpreter_calibration()
_T0 = time.perf_counter()  # before any import of numpy, scipy or recontree

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys

import numpy as np

from tracer import ROOT as ROOT_SPAN

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "benchmarks")
# set-up times are rescaled to a host on which interpreter_calibration takes this long
INTERPRETER_REF_S = 0.004

# ROADMAP per-call baselines (µs), as (span, tree size or None for any, low, high)
BASELINES = (
    ("sim.sample_yule_given_n", 20, 49, 49),
    ("sim.sample_given_n_age", 20, 45, 60),
    ("sim.sample_given_age", None, 57, 57),
    ("sim.sample_rejection_given_age", None, 242, 242),
    ("tree.to_newick", 20, 130, 131),
    ("tree.from_newick", 20, 290, 290),
    ("tree.to_newick", 10_000, 52_000, 73_000),
    ("tree.from_newick", 10_000, 170_000, 267_000),
    ("mc.extract_random_pendant", None, 3, 8),
    ("mc.extract_random_interior", None, 3, 8),
    ("mc.extract_random_root_edge", None, 3, 8),
    ("mc.extract_diversity", None, 3, 8),
    ("mc.extract_leaf_count", None, 3, 8),
)


def import_program():
    """Import recontree from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "recontree", "__init__.py")):
        raise SystemExit(f"recontree sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import recontree
    from recontree import cli, dists, kernel, mc, sim, tree
    if not os.path.abspath(recontree.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported recontree from {recontree.__file__}, not {SRC}")
    return recontree, {"kernel": kernel, "dists": dists, "sim": sim, "tree": tree,
                       "mc": mc, "cli": cli, "recontree": recontree}


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "recontree"), BENCH_DIR):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def calibration() -> float:
    """Duration of a fixed piece of work shaped like recontree's code: small
    numpy arrays, list bookkeeping, float formatting and one mid-size sort
    (about 4 ms).  It never calls recontree, so program changes leave it be."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(60):
        w = rng.exponential(1.0, size=19) / np.arange(2, 21)
        times = np.zeros(39)
        times[20:] = np.cumsum(w)[::-1]
        parent = np.full(39, -1, dtype=np.int64)
        active = list(range(20))
        for k, u in enumerate(rng.random(19)):
            i = int(u * len(active))
            parent[active[i]] = 20 + k
            active[i] = active[-1]
            active.pop()
        ",".join(repr(float(x)) for x in times[parent])
    np.sort(rng.random(20_000))
    return time.perf_counter() - t0


def large_calibration() -> float:
    """Duration of a fixed piece of work shaped like Newick I/O on a 10^4-tip
    tree: a 200 kB string of 10 000 float reprs, split, parsed and sorted
    (15-30 ms), for the workload whose working set is that large."""
    values = np.random.default_rng(0).random(10_000)
    t0 = time.perf_counter()
    text = ",".join(repr(float(x)) for x in values)
    parsed = [float(x) for x in text.split(",")]
    sorted(zip(parsed, range(len(parsed))))
    return time.perf_counter() - t0


# calibration piece per workload working set, with its reference duration:
# rescaled times are those of a host on which the piece takes that long
CALIBRATIONS = {"small": (calibration, 0.004), "large": (large_calibration, 0.016)}


def run_round(steps, calibration) -> tuple:
    """One unit of work, step by step, with a calibration piece before the
    first step and after every step.  Returns (step outputs, step
    durations, step durations over the mean of the two calibrations beside
    the step)."""
    outs, durations, ratios = [], [], []
    before = calibration()
    for _, fn in steps:
        t0 = time.perf_counter()
        outs.append(fn())
        durations.append(time.perf_counter() - t0)
        after = calibration()
        ratios.append(durations[-1] / ((before + after) / 2.0))
        before = after
    return outs, durations, ratios


def ref_wall(per_step_ratios: list, reference_s: float) -> float:
    """Wall time of one unit at the reference speed.

    The shared host's effective CPU speed swings by up to 2x within
    minutes, so a unit's raw time says more about the neighbours than about
    the program.  Each step is timed against calibration pieces run right
    before and after it; the median of that ratio over the run, summed over
    the steps and scaled by ``reference_s``, is the unit's time on a host
    where the calibration piece takes ``reference_s``.
    """
    return reference_s * sum(statistics.median(r) for r in per_step_ratios)


def timed_rounds(w, steps, seconds: float, reference: str, after_round=None,
                 min_rounds: int = 3) -> tuple:
    """Closed loop: one unit after another for ``seconds`` (at least
    ``min_rounds``).  Returns (per-step durations, per-step calibrated
    ratios, raw unit durations, number of units whose output differs from
    the reference)."""
    per_step = [[] for _ in steps]
    per_step_ratios = [[] for _ in steps]
    units, mismatches = [], 0
    begin = time.perf_counter()
    while len(units) < min_rounds or time.perf_counter() - begin < seconds:
        outs, durations, ratios = run_round(steps, CALIBRATIONS[w.working_set][0])
        for i, (d, r) in enumerate(zip(durations, ratios)):
            per_step[i].append(d)
            per_step_ratios[i].append(r)
        units.append(sum(durations))
        output = w.collect(outs)
        mismatches += w.fingerprint(output) != reference
        if after_round is not None:
            after_round()
    return per_step, per_step_ratios, units, mismatches


def per_layer(units: list, check_walls: dict, traced_wall: float, untraced_wall: float,
              bytes_written: int) -> dict:
    """Per-layer metrics: self times as medians over the traced units; counts,
    equal in every unit, as they are."""
    m = {}
    for key in units[0]:
        values = [u[key] for u in units]
        m[key] = statistics.median(values) if key.endswith("_s") else values[0]
    rejection = m.get("sim.sample_rejection_given_age.calls", 0)
    m["sim.rejection.forward_runs_per_tree"] = (
        m.get("sim.simulate_forward.calls", 0) / rejection if rejection else 0.0)
    m.update({f"mc.check.{name}.wall_s": wall for name, wall in check_walls.items()})
    m["cli.bytes_written"] = bytes_written
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    m["trace.unaccounted_frac"] = max(u["trace.unaccounted_frac"] for u in units)
    return m


def unit_layers(tracer) -> dict:
    """Self times and counts of one traced unit, keyed by metric name."""
    dur, self_t, names = tracer.self_times()
    n = len(tracer.names)
    by_name = np.bincount(names, weights=self_t, minlength=n)
    out = {}
    for i, name in enumerate(tracer.names):
        group = tracer.groups[i]
        module = name.split(".")[0]
        if group is not None:
            out[f"{group}.self_s"] = out.get(f"{group}.self_s", 0.0) + by_name[i]
        if module != "bench":
            out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + by_name[i]
    for name, c in tracer.counts().items():
        group = tracer.groups[tracer.names.index(name)]
        if group is None:
            continue
        out[f"{group}.calls"] = out.get(f"{group}.calls", 0) + c["calls"]
        if group.startswith("sim.sample_"):
            out[f"{group}.tips"] = out.get(f"{group}.tips", 0) + c["size"]
        elif group in ("tree.to_newick", "tree.from_newick"):
            out[f"{group}.bytes"] = out.get(f"{group}.bytes", 0) + c["size"]
        elif group == "dists.law_eval":
            out["dists.law_eval.points"] = out.get("dists.law_eval.points", 0) + c["outer_size"]
    roots = names == tracer.names.index(ROOT_SPAN)
    wall = float(dur[roots].sum())
    out["trace.unaccounted_frac"] = abs(float(self_t.sum()) - wall) / wall
    return out


def baseline_notes(tracer) -> list:
    """Traced per-call times (span duration, children included) against ROADMAP."""
    table = tracer.span_table()
    dur = table["end"] - table["start"]
    notes = []
    for span, size, low, high in BASELINES:
        if span not in tracer.names:
            continue
        sel = table["name"] == tracer.names.index(span)
        if size is not None:
            tips = table["aux"] if span.startswith("tree.") else table["size"]
            sel &= tips == size
        if not np.any(sel):
            continue
        per_call = float(np.median(dur[sel])) * 1e6
        ratio = per_call / high if per_call > high else per_call / low
        flag = "GAP>2x" if ratio > 2.0 or ratio < 0.5 else "ok"
        where = f"n={size}" if size is not None else "all sizes"
        notes.append({"span": span, "where": where, "calls": int(sel.sum()),
                      "traced_median_us": round(per_call, 2),
                      "baseline_us": f"{low}-{high}" if low != high else f"{low}",
                      "ratio": round(ratio, 3), "flag": flag})
    return notes


def environment(recontree, seed, derived) -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "recontree": recontree.__version__,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
        "derived_seeds": derived,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine_settings_changed": "none",
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def compare_counts(workload: str, seed: int, counts: dict) -> str:
    """Store exact counts per (code, workload, seed); report any change."""
    path = os.path.join(OUT_DIR, "counts", f"{source_digest()}-{workload}-{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        return "same as previous run" if previous == counts else "DIFFERENT from previous run"
    with open(path, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return "first run at this seed"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args()

    recontree, modules = import_program()
    import workloads
    from tracer import Tracer

    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        w = cls(args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            calib = (_CALIBRATION_BEFORE + interpreter_calibration()) / 2.0
            print(json.dumps({"setup_raw_s": setup_s,
                              "setup_s": setup_s * INTERPRETER_REF_S / calib}))
            return 0
        result = measure(args, recontree, modules, workloads, Tracer, w)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def measure(args, recontree, modules, workloads, Tracer, w) -> dict:
    steps = w.steps()
    # 1. reference unit: counting tracer, full output checks, untimed
    counter = Tracer(modules, spans=False)
    counter.install()
    try:
        ref_out = w.run()
    finally:
        counter.uninstall()
    trace_counts = counter.counts()
    reference = w.fingerprint(ref_out)
    outcomes = w.check(ref_out) + w.probes()
    exact = {"output": w.output_counts(ref_out, trace_counts), "calls": trace_counts}
    del ref_out

    # 2. timed units, tracing off
    per_step, ratios, units, mismatches = timed_rounds(w, steps, args.seconds, reference)
    result = {
        "workload": w.name,
        "wall_ref_s": ref_wall(ratios, CALIBRATIONS[w.working_set][1]),
        "units": units,
        "steps": len(steps),
        "exact_counts": exact,
        "exact_counts_vs_previous": compare_counts(w.name, args.seed, exact),
    }

    # 3. traced units: every step is a root span
    if args.trace:
        tracer = Tracer(modules, spans=True)
        traced_steps = [(label, tracer.root(fn)) for label, fn in steps]
        layers_per_unit, first = [], {}
        count_mismatches = 0

        def after_round():
            nonlocal count_mismatches
            count_mismatches += tracer.counts() != trace_counts
            layers_per_unit.append(unit_layers(tracer))
            if not first:
                first["spans"] = tracer.span_table()
                first["notes"] = baseline_notes(tracer)
            tracer.reset()

        tracer.install()
        try:
            _, traced_ratios, _, traced_mismatches = timed_rounds(
                w, traced_steps, args.seconds, reference, after_round, min_rounds=2)
        finally:
            tracer.uninstall()
        mismatches += traced_mismatches
        outcomes.append(workloads.outcome("traced_counts_match_reference",
                                          count_mismatches == 0, workloads.GATE,
                                          f"{count_mismatches} traced units differ"))
        check_walls = {}
        if w.name == "verify":  # its steps are the named checks
            check_walls = {label: statistics.median(d) for (label, _), d in zip(steps, per_step)}
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{w.name}-seed{args.seed}.npz")
        np.savez_compressed(spans_path, **first["spans"])
        layers = per_layer(layers_per_unit, check_walls,
                           ref_wall(traced_ratios, CALIBRATIONS[w.working_set][1]),
                           result["wall_ref_s"], exact["output"]["bytes_written"])
        outcomes.append(workloads.outcome(
            "trace_self_times_sum_to_wall", layers["trace.unaccounted_frac"] < 1e-9,
            workloads.GATE, f"{layers['trace.unaccounted_frac']:.3g}"))
        result.update({"per_layer": layers, "traced_units": len(layers_per_unit),
                       "baseline": first["notes"],
                       "spans_file": os.path.relpath(spans_path, ROOT),
                       "spans": len(first["spans"]["name"])})

    gate_ok = all(o.ok for o in outcomes if o.kind == workloads.GATE)
    result.update({
        "correct": gate_ok and mismatches == 0
                   and result["exact_counts_vs_previous"] != "DIFFERENT from previous run",
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "unit_mismatches": mismatches,
        "failures": [o._asdict() for o in outcomes if not o.ok][:50],
        "failures_by_kind": {k: sum(1 for o in outcomes if not o.ok and o.kind == k)
                             for k in (workloads.GATE, workloads.STATISTICAL,
                                       workloads.KNOWN_DEFECT)},
        "environment": environment(recontree, args.seed, w.seeds),
    })
    return result


if __name__ == "__main__":
    sys.exit(main())
