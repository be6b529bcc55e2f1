"""Command-line interface.

Subcommands:

* ``density``  -- evaluate a law of ``dists.LAWS`` on a grid, written as CSV
  (columns s, pdf, cdf, plus a final atom row for mixed laws),
* ``simulate`` -- stream conditioned trees as NDJSON or Newick,
* ``verify``   -- run the Monte Carlo verification suite, JSON report,
* ``expect``   -- print the means of ``dists.LAWS`` and the limit constant.

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
from .kernel import Params, RawParams, _check_age, _positive_finite, transform_params

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

def _density_law(args, p: Params):
    """(MixedDist, description) of the asked-for ``dists.LAWS`` row (scenario None takes
    any --scenario); the constructor is looked up on ``dists`` when called, for tracers."""
    rows = [row for row in dists.LAWS if row.law == args.law and row.dist]
    row = next((r for r in rows if r.scenario in (args.scenario, None)), None)
    if row is None:
        raise ValueError(f"--law {args.law} takes --scenario "
                         f"{' or '.join(r.scenario for r in rows)}")
    law = getattr(dists, row.dist)(*_require(args, row.args), p)
    return law, row.header.format(**vars(args))


def _require(args, flags) -> list:
    """The values of the named flags, each of which must be given."""
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(f"--{flag} is required for this law/scenario")
    return [getattr(args, flag) for flag in flags]


def cmd_density(args) -> int:
    p, raw = _resolve_params(args)
    if args.x1 is not None:
        _positive_finite("x1", args.x1)
        _check_age(args.x1, p, args.n if args.n is not None else 2, name="--x1")
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
    name, flags = sim.SCENARIOS[scen]
    values = _require(args, flags)
    rates = p
    if scen == "rejection-given-age":
        if raw is None:
            if p.mu < 0:
                raise ValueError("rejection simulation needs raw parameters")
            raw = RawParams(lambda_hat=p.lam, mu_hat=p.mu, f=1.0)
        rates = raw
    batches = getattr(sim, name)(*values, rates, args.reps, rng)

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
    cfg = mc.VerifyConfig(checks=tuple(args.check or ()), reps=args.reps, seed=seed)
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

def cmd_expect(args) -> int:
    p, raw = _resolve_params(args)
    n = args.n if args.n is not None else 10
    x1 = args.x1 if args.x1 is not None else 1.0
    _positive_finite("x1", x1)
    _check_age(x1, p, n, name="--x1")
    values = {"n": n, "x1": x1}
    # every mean of ``dists.LAWS`` that takes no --k, labelled by its header
    rows = [
        (f"E[{row.header.removesuffix(' (pure birth)')}]".format(**values),
         getattr(dists, row.mean)(*(values[a] for a in row.args), p))
        for row in dists.LAWS
        if row.mean and "k" not in row.args and (p.is_yule or not row.pure_birth)
    ]
    rows.append(("root-edge limit constant c", dists.root_edge_limit_constant()))
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
    served = [row for row in dists.LAWS if row.dist]
    d.add_argument("--law", required=True, choices=list(dict.fromkeys(r.law for r in served)))
    d.add_argument("--scenario", default="given-n",
                   choices=list(dict.fromkeys(r.scenario for r in served if r.scenario)))
    d.add_argument("--n", type=int, default=None)
    d.add_argument("--k", type=int, default=None)
    d.add_argument("--x1", type=float, default=None)
    d.add_argument("--grid", required=True, help="min:max:points")
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_density)

    s = subs.add_parser("simulate", help="sample conditioned trees")
    _add_param_args(s)
    s.add_argument("--scenario", required=True, choices=list(sim.SCENARIOS))
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
