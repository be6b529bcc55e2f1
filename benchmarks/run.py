"""recontree benchmark: one workload per invocation.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``verify``, ``simulate``, ``large_trees``
and ``laws``.  The run is a closed loop with one caller in one thread.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run.  The human-readable
report comes first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The workload itself runs in a child interpreter (``worker.py``) with
single-threaded BLAS/OpenMP; ``setup_s`` is the median over fresh child
interpreters of importing recontree and building the workload's inputs.
Nothing here changes a machine setting.  Scratch files, exact counts and
spans go to ``.bench_build/benchmarks`` in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("verify", "simulate", "large_trees", "laws")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def unit_summary(d: list) -> str:
    """Median, quartiles and the highest percentile with 10 units above it."""
    q1, med, q3 = (statistics.quantiles(d, n=4, method="inclusive") if len(d) > 1
                   else (d[0], d[0], d[0]))
    text = f"{med:>12.6g} s median per unit [q1 {q1:.6g}, q3 {q3:.6g}"
    if len(d) > 10:
        pct = 100 * (len(d) - 10) // len(d)
        text += f", p{pct} {sorted(d)[len(d) - 11]:.6g}"
    return text + f"; {len(d)} units]"


def report(args, res: dict, spec: dict):
    env = res["environment"]
    out = print
    out(f"recontree benchmark  workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    out(f"  environment: nproc={env['nproc']} (affinity {env['affinity_cpus']}), "
        f"cpu={env['cpu_model']}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, recontree {env['recontree']}")
    out(f"  commit: {env['git_commit']}  sources: {env['source_digest']}  "
        f"input seeds: {env['derived_seeds']}")
    out(f"  settings: one caller, closed loop, one thread; child env {env['thread_env']}; "
        f"machine settings changed: {env['machine_settings_changed']}")
    counts = res["exact_counts"]["output"]
    out(f"end-to-end (tracing off; {len(res['units'])} units of {res['steps']} steps):")
    for m in spec["end_to_end"]:
        if m["name"] in res:
            out(f"  {m['name']:<16} {fmt(res[m['name']]):>12} {m['unit']}")
    out(f"  {'wall_s':<16} {unit_summary(res['units'])}")
    if "setup_raw_s" in res:
        out(f"  {'setup_raw_s':<16} {fmt(res['setup_raw_s']):>12} s median unscaled")
    for item in ("trees", "tips", "points"):
        if counts.get(item):
            out(f"  {item + '_per_s':<16} {fmt(counts[item] / res['wall_ref_s']):>12} 1/s "
                f"({counts[item]} {item} per unit over wall_ref_s)")
    out(f"  failed_frac      {res['failed'] / res['attempted']:>12.6g} "
        f"({res['failed']} of {res['attempted']} checked operations; by kind "
        f"{res['failures_by_kind']})")
    for f in res["failures"][:12]:
        out(f"    failed [{f['kind']}] {f['name']} {f['detail']}".rstrip())
    if len(res["failures"]) > 12:
        out(f"    ... {res['failed'] - 12} more")
    out(f"  correct: {res['correct']} (unit output mismatches: {res['unit_mismatches']})")
    out(f"exact counts per unit ({res['exact_counts_vs_previous']}):")
    out(f"  outputs: {json.dumps(counts, sort_keys=True)}")
    calls = res["exact_counts"]["calls"]
    out("  calls: " + ", ".join(f"{k}={v['calls']}" for k, v in sorted(calls.items())))
    if args.trace:
        layers = res["per_layer"]
        out(f"per-layer (traced units: {res['traced_units']}; "
            f"spans of the first written to {res['spans_file']}, {res['spans']} spans):")
        for m in spec["per_layer"]:
            out(f"  {m['name']:<46} {fmt(layers.get(m['name'], 0)):>14} {m['unit']}")
        out("baseline check (traced per-call median vs ROADMAP; children and tracing included):")
        for note in res["baseline"]:
            out(f"  {note['span']:<34} {note['where']:<10} {note['traced_median_us']:>12} us"
                f" vs {note['baseline_us']:>13} us  x{note['ratio']:<6} {note['flag']}"
                f"  ({note['calls']} calls)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "recontree", "__init__.py")):
        print("benchmark: recontree sources (src/recontree) not found in this checkout",
              file=sys.stderr)
        return 1
    spec = load_spec()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    res = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    CHILD_TIMEOUT_S)
    if args.trace:
        # a layer the workload never enters reports 0
        metrics = {m["name"]: {"value": res["per_layer"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        probes = [run_child(base + ["--setup-probe"], 60) for _ in range(SETUP_PROBES)]
        res["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        res["setup_raw_s"] = statistics.median(p["setup_raw_s"] for p in probes)
        metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    report(args, res, spec)
    print(json.dumps({"correct": bool(res["correct"]), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
