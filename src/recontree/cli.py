"""Command-line interface.

Subcommands:

* ``density``  -- evaluate a closed-form law on a grid, written as CSV
  (columns s, pdf, cdf, plus a final atom row for mixed laws),
* ``simulate`` -- stream conditioned trees as NDJSON or Newick,
* ``verify``   -- run the Monte Carlo verification suite, JSON report,
* ``expect``   -- print the table of closed-form expectations.

Rates are given either transformed (``--lam``/``--mu``, complete sampling)
or raw (``--lam-hat``/``--mu-hat``/``--f``); mixing both forms is an
error.  Every output embeds the parameter set and the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import secrets
import sys
from typing import Optional

import numpy as np

from . import dists, mc, sim
from .kernel import Params, RawParams, _positive_finite, transform_params

SEED_ENV = "RECONTREE_SEED"


def _seed(args) -> int:
    """``--seed``, else $RECONTREE_SEED, else a fresh random seed: an integer >= 0."""
    if args.seed is not None:
        flag, value = "--seed", args.seed
    else:
        flag, value = SEED_ENV, os.environ.get(SEED_ENV, secrets.randbits(48))
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{flag} must be an integer >= 0, got {value!r}")
    return seed


def _add_param_args(sub):
    sub.add_argument("--lam", "--lambda", dest="lam", type=float, default=None,
                     help="speciation rate (transformed / complete sampling)")
    sub.add_argument("--mu", type=float, default=None,
                     help="extinction rate (transformed; may be negative)")
    sub.add_argument("--lam-hat", "--lambda-hat", dest="lam_hat", type=float,
                     default=None, help="raw speciation rate")
    sub.add_argument("--mu-hat", type=float, default=None,
                     help="raw extinction rate")
    sub.add_argument("--f", type=float, default=None,
                     help="sampling probability in (0, 1]")


def _resolve_params(args) -> tuple[Params, Optional[RawParams]]:
    has_raw = any(v is not None for v in (args.lam_hat, args.mu_hat, args.f))
    has_trans = any(v is not None for v in (args.lam, args.mu))
    if has_raw and has_trans:
        raise ValueError("supply either raw (--lam-hat/--mu-hat/--f) or "
                         "transformed (--lam/--mu) rates, not both")
    if has_raw:
        raw = RawParams(
            lambda_hat=args.lam_hat if args.lam_hat is not None else 1.0,
            mu_hat=args.mu_hat if args.mu_hat is not None else 0.0,
            f=args.f if args.f is not None else 1.0,
        )
        return transform_params(raw), raw
    lam = args.lam if args.lam is not None else 1.0
    mu = args.mu if args.mu is not None else 0.0
    return Params(lam=lam, mu=mu), None


# the most points a --grid may ask for, so that each array over the grid
# stays within 8 MB
MAX_GRID_POINTS = 10**6


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be min:max:points, got {spec!r}")
    lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
    if pts < 2:
        raise ValueError("grid needs at least 2 points")
    if pts > MAX_GRID_POINTS:
        raise ValueError(f"grid takes at most {MAX_GRID_POINTS:.0e} points, got {pts}")
    if not math.inf > hi > lo >= 0:
        raise ValueError("grid must satisfy 0 <= min < max < inf")
    return np.linspace(lo, hi, pts)


def _open_out(path):
    """Context manager yielding the output stream; never closes stdout."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _params_label(p: Params, raw: Optional[RawParams]) -> str:
    if raw is not None:
        return (f"lam_hat={raw.lambda_hat} mu_hat={raw.mu_hat} f={raw.f} "
                f"(transformed lam={p.lam} mu={p.mu})")
    return f"lam={p.lam} mu={p.mu}"


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

# (law, scenario) -> (dists constructor, required flags, header format).
# A law under scenario None takes no scenario.  Each constructor takes the
# flags in order, then p; it is looked up by name on ``dists`` when called,
# so that wrappers installed on ``dists`` (profilers, tracers) see the build.
_DENSITY_LAWS = {
    ("pendant", "given-n"): ("pendant_dist_given_n", (), "pendant | n"),
    ("pendant", "given-n-age"): ("pendant_dist_given_n_age", ("n", "x1"),
                                 "pendant | n={n}, x1={x1}"),
    ("pendant", "given-age"): ("pendant_dist_given_age", ("x1",), "pendant | x1={x1}"),
    ("interior", "given-n"): ("interior_dist_yule", (), "interior | n (pure birth)"),
    ("root-edge", "given-n"): ("root_edge_dist_given_n", ("n",),
                               "root edge | n={n} (pure birth)"),
    ("root-edge", "given-age"): ("root_edge_dist_given_age", ("x1",),
                                 "root edge | x1={x1} (pure birth)"),
    ("speciation-time", None): ("speciation_time_dist", ("k", "n", "x1"),
                                "speciation time k={k} | n={n}, x1={x1}"),
    ("hypoexp", None): ("hypoexp_dist", ("k",), "hypoexponential k={k}"),
    ("diversity", "given-n"): ("diversity_dist_given_n", ("n",),
                               "diversity | n={n} (pure birth)"),
}


def _density_law(args, p: Params):
    """Return (MixedDist, description) for the requested law/scenario."""
    entry = (_DENSITY_LAWS.get((args.law, args.scenario))
             or _DENSITY_LAWS.get((args.law, None)))
    if entry is None:
        scenarios = [s for law, s in _DENSITY_LAWS if law == args.law]
        raise ValueError(f"--law {args.law} takes --scenario {' or '.join(scenarios)}")
    name, flags, header = entry
    for flag in flags:
        _require(getattr(args, flag), f"--{flag}")
    law = getattr(dists, name)(*(getattr(args, f) for f in flags), p)
    return law, header.format(**vars(args))


def _require(value, flag):
    if value is None:
        raise ValueError(f"{flag} is required for this law/scenario")


def cmd_density(args) -> int:
    p, raw = _resolve_params(args)
    if args.x1 is not None:
        _positive_finite("x1", args.x1)
    law, desc = _density_law(args, p)
    grid = _parse_grid(args.grid)
    if math.isfinite(law.support_end):
        grid = grid[grid <= law.support_end]
    pdf = np.asarray(law.pdf(grid), dtype=float).tolist()
    cdf = np.asarray(law.cdf(grid), dtype=float).tolist()
    with _open_out(args.output) as out:
        out.write(f"# law: {desc}; {_params_label(p, raw)}\ns,pdf,cdf\n")
        out.write("".join(map("%.12g,%.12g,%.12g\n".__mod__, zip(grid.tolist(), pdf, cdf))))
        if law.atom_weight > 0.0:
            out.write(f"{law.support_end:.12g},atom,{law.atom_weight:.12g}\n")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    p, raw = _resolve_params(args)
    seed = _seed(args)
    if args.stream_id < 0:
        raise ValueError(f"--stream-id must be >= 0, got {args.stream_id}")
    stream = sim.RngStream(seed, args.stream_id)
    rng = stream.generator()
    scen = args.scenario

    if args.reps < 0:
        raise ValueError(f"--reps must be >= 0, got {args.reps}")
    if scen == "given-n":
        _require(args.n, "--n")
        batches = sim.batch_yule_given_n(args.n, p, args.reps, rng)
    elif scen == "given-n-age":
        _require(args.n, "--n")
        _require(args.x1, "--x1")
        batches = sim.batch_given_n_age(args.n, args.x1, p, args.reps, rng)
    elif scen == "given-age":
        _require(args.x1, "--x1")
        batches = sim.batch_given_age(args.x1, p, args.reps, rng)
    elif scen == "rejection-given-age":
        _require(args.x1, "--x1")
        if raw is None:
            raw = RawParams(lambda_hat=p.lam, mu_hat=max(p.mu, 0.0), f=1.0)
            if p.mu < 0:
                raise ValueError("rejection simulation needs raw parameters")
        batches = sim.batch_forward_given_age(args.x1, raw, args.reps, rng)
    else:
        raise ValueError(f"unknown scenario {scen!r}")

    manifest = {
        "params": {"lam": p.lam, "mu": p.mu},
        "scenario": scen,
        "seed": seed,
        "stream_id": args.stream_id,
        "count": args.reps,
    }
    if raw is not None:
        manifest["raw_params"] = {
            "lambda_hat": raw.lambda_hat, "mu_hat": raw.mu_hat, "f": raw.f,
        }
    rows = sim.rows_in_order(batches)
    # every argument is checked, and nothing is drawn yet
    with _open_out(args.output) as out:
        if args.format == "ndjson":
            out.write(json.dumps({"manifest": manifest}) + "\n")
            # each record is the text json.dumps gives its dict {id, newick, n,
            # x1, seed, stream_id}: ints and a finite float print as their repr,
            # and only the Newick text could need escaping
            tail = f', "seed": {seed}, "stream_id": {args.stream_id}}}\n'
            for i, (b, row) in enumerate(rows):
                n = b.n
                out.write(f'{{"id": {i}, "newick": {json.dumps(b.newick(row))}, "n": {n}, '
                          f'"x1": {float(b.times[row, n])!r}{tail}')
        else:  # newick
            out.write(f"[{json.dumps(manifest)}]\n")
            for b, row in rows:
                out.write(b.newick(row) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    seed = _seed(args)
    checks = tuple(args.check) if args.check else ()
    cfg = mc.VerifyConfig(checks=checks, reps=args.reps, seed=seed)
    reports = mc.verify_suite(cfg)
    payload = {
        "seed": seed,
        "reps": args.reps,
        "reports": [r.to_dict() for r in reports],
        "pass": all(r.passed for r in reports),
    }
    with _open_out(args.output) as out:
        json.dump(payload, out, indent=2)
        out.write("\n")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check}", file=sys.stderr)
    return 0 if payload["pass"] else 1


# ---------------------------------------------------------------------------
# expect
# ---------------------------------------------------------------------------

# (label format, dists function, argument names, pure birth only), in output
# order; looked up on ``dists`` when called, as for _DENSITY_LAWS
_EXPECT_MEANS = (
    ("E[pendant | n]", "pendant_mean_given_n", ("p",), False),
    ("E[pendant | n={n}, x1={x1}]", "pendant_mean_given_n_age", ("n", "x1", "p"), False),
    ("E[pendant | x1={x1}]", "pendant_mean_given_age", ("x1", "p"), False),
    ("E[root edge | n={n}]", "root_edge_mean_given_n", ("n", "p"), True),
    ("E[root edge | x1={x1}]", "root_edge_mean_given_age", ("x1", "p"), True),
    ("E[diversity | n={n}]", "diversity_mean_given_n", ("n", "p"), True),
    ("E[diversity | n={n}, x1={x1}]", "diversity_mean_given_n_age", ("n", "x1", "p"), True),
    ("E[diversity | x1={x1}]", "diversity_mean_given_age", ("x1", "p"), True),
    ("root-edge limit constant c", "root_edge_limit_constant", (), False),
)


def cmd_expect(args) -> int:
    p, raw = _resolve_params(args)
    n = args.n if args.n is not None else 10
    x1 = args.x1 if args.x1 is not None else 1.0
    _positive_finite("x1", x1)
    values = {"n": n, "x1": x1, "p": p}
    rows = [
        (label.format(**values), getattr(dists, name)(*(values[a] for a in names)))
        for label, name, names, yule_only in _EXPECT_MEANS
        if p.is_yule or not yule_only
    ]
    with _open_out(args.output) as out:
        if args.format == "json":
            json.dump({
                "params": {"lam": p.lam, "mu": p.mu}, "n": n, "x1": x1,
                "values": {k: v for k, v in rows},
            }, out, indent=2)
            out.write("\n")
        else:
            out.write(f"# {_params_label(p, raw)}; n={n}, x1={x1}\n")
            width = max(len(k) for k, _ in rows)
            for k, v in rows:
                out.write(f"{k:<{width}}  {v:.10g}\n")
    return 0


# ---------------------------------------------------------------------------

@functools.cache  # built once per process; each parse_args returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recontree",
        description="Branch-length and diversity laws for reconstructed "
                    "birth-death trees, with conditioned samplers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    d = subs.add_parser("density", help="evaluate a law on a grid (CSV)")
    _add_param_args(d)
    d.add_argument("--law", required=True,
                   choices=list(dict.fromkeys(law for law, _ in _DENSITY_LAWS)))
    d.add_argument("--scenario", default="given-n",
                   choices=["given-n", "given-n-age", "given-age"])
    d.add_argument("--n", type=int, default=None)
    d.add_argument("--k", type=int, default=None)
    d.add_argument("--x1", type=float, default=None)
    d.add_argument("--grid", required=True, help="min:max:points")
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_density)

    s = subs.add_parser("simulate", help="sample conditioned trees")
    _add_param_args(s)
    s.add_argument("--scenario", required=True,
                   choices=["given-n", "given-n-age", "given-age",
                            "rejection-given-age"])
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--x1", type=float, default=None)
    s.add_argument("--reps", type=int, default=1)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--stream-id", type=int, default=0)
    s.add_argument("--format", default="ndjson", choices=["ndjson", "newick"])
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=cmd_simulate)

    v = subs.add_parser("verify", help="run the Monte Carlo verification suite")
    v.add_argument("--check", action="append", default=None,
                   help="run a single named check (repeatable)")
    v.add_argument("--reps", type=int, default=100_000)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("-o", "--output", default=None)
    v.set_defaults(func=cmd_verify)

    e = subs.add_parser("expect", help="print closed-form expectations")
    _add_param_args(e)
    e.add_argument("--n", type=int, default=None)
    e.add_argument("--x1", type=float, default=None)
    e.add_argument("--format", default="text", choices=["text", "json"])
    e.add_argument("-o", "--output", default=None)
    e.set_defaults(func=cmd_expect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here at the latest
        return code
    except BrokenPipeError:
        # the reader closed stdout (``recontree simulate | head``): end quietly
        # with 128 + SIGPIPE, and let the flush at exit write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    # bad arguments, rejected parameters, a result past the float range, unwritable -o
    except (ValueError, OverflowError, OSError) as exc:
        print(f"recontree {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
