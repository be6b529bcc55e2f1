"""The exact conditioned samplers and the forward-simulation oracle.

Demonstrates the three direct samplers (fixed n; fixed n and MRCA age;
fixed age alone), reproducible seeding, Newick round trips, and the
lockstep forward-simulation oracle (``batch_forward_given_age``) that
validates the sampling-fraction transformation
(lam = f*lam_hat, mu = mu_hat - lam_hat*(1-f)).

Run:  python demos/conditioned_samplers.py
"""

import numpy as np
from scipy import stats

from recontree import (
    Params,
    RawParams,
    RngStream,
    from_newick,
    sample_given_age,
    sample_given_n_age,
    sample_yule_given_n,
    to_newick,
    transform_params,
)
from recontree.sim import (
    RejectionStats,
    batch_forward_given_age,
    batch_given_age,
    tree_stream,
)


def direct_samplers():
    print("=== direct samplers ===")
    t = sample_yule_given_n(5, 1.0, RngStream(42, 0))
    print(f"fixed n=5 (pure birth):       {to_newick(t)}")

    p = Params(lam=1.0, mu=0.5)
    t = sample_given_n_age(5, 2.0, p, RngStream(42, 1))
    print(f"fixed n=5, x1=2 (mu=0.5):     {to_newick(t)}")
    print(f"  speciation times (oldest first): "
          f"{np.round(np.sort(t.times[t.n:])[::-1], 3)}")

    t = sample_given_age(2.0, p, RngStream(42, 2))
    print(f"fixed x1=2 alone:             n came out as {t.n}")

    # identical stream -> identical tree, different stream -> different
    a = to_newick(sample_yule_given_n(5, 1.0, RngStream(42, 0)))
    b = to_newick(sample_yule_given_n(5, 1.0, RngStream(42, 3)))
    print(f"\nsame (seed, stream) reproduces exactly: "
          f"{a == to_newick(sample_yule_given_n(5, 1.0, RngStream(42, 0)))}")
    print(f"different stream differs: {a != b}")


def newick_round_trip():
    print("\n=== Newick round trip ===")
    t = sample_yule_given_n(8, 1.0, RngStream(7, 0))
    s = to_newick(t)
    u = from_newick(s)
    print(f"serialized:   {s[:60]}...")
    print(f"round trip exact: {to_newick(u) == s}")


def rejection_oracle():
    print("\n=== rejection oracle vs transformed direct sampler ===")
    raw = RawParams(lambda_hat=2.0, mu_hat=0.5, f=0.5)
    p = transform_params(raw)
    print(f"raw (lam_hat={raw.lambda_hat}, mu_hat={raw.mu_hat}, f={raw.f}) "
          f"-> transformed (lam={p.lam}, mu={p.mu})")
    x1, reps = 1.0, 4000
    stats_rej = RejectionStats()
    rng = RngStream(9, 0).generator()
    rejected = np.array([t.n for t in tree_stream(
        batch_forward_given_age(x1, raw, reps, rng, stats=stats_rej))])
    rng = RngStream(9, 1).generator()
    direct = np.array([t.n for t in tree_stream(batch_given_age(x1, p, reps, rng))])
    print(f"rejection acceptance rate: {stats_rej.acceptance_rate:.3f}")
    print(f"mean n: rejection {rejected.mean():.3f}  direct {direct.mean():.3f}")
    res = stats.ks_2samp(rejected, direct)
    print(f"two-sample KS on n: p = {res.pvalue:.3f} "
          f"(the two samplers draw from the same law)")


if __name__ == "__main__":
    direct_samplers()
    newick_round_trip()
    rejection_oracle()
