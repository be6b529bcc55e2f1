"""Root-edge length and diversity laws for pure-birth trees.

Shows the fair-coin root-edge density given n, its survival function
given (n, x1) with the large-n constant c = 0.8158..., and the gamma law
of diversity (total branch length) given n, each checked against the
exact samplers.

Run:  python demos/root_edge_and_diversity.py
"""

import math
from functools import partial

import numpy as np

from recontree import Params, RngStream, dists, mc, sim

LAM = 1.0
REPS = 20_000


def read_trees(batch_sampler, reader, rng):
    """One statistic of each of REPS trees, in the order the trees are drawn."""
    return mc.collect(batch_sampler, {"value": reader}, REPS, rng)["value"]


def root_edge_given_n():
    print("=== root edge given n (fair coin between the two root children) ===")
    for n in (2, 4, 10):
        rng = RngStream(10 + n, 0).generator()
        samples = read_trees(partial(sim.batch_yule_given_n, n, LAM),
                             mc.read_random_root_edge, rng)
        mean = dists.root_edge_mean_given_n(n, LAM)
        print(f"  n={n:3d}: sample mean {samples.mean():.4f}  "
              f"analytic (1-1/n)/lam = {mean:.4f}")
    print("  (for n=2 both root edges span the whole tree: Exp(2*lam))")


def limit_constant():
    print("\n=== the large-n root-edge constant ===")
    c = dists.root_edge_limit_constant()
    print(f"  c = int_0^inf (1-e^-x)/(x(2+x)) dx = {c:.10f}")
    print("  With lam at its ML value ln(n/2)/x1 the expected root edge")
    print("  approaches c/lam; the survival curve converges to (1-e^-w)/w:")
    n, x1 = 1_000_000, 1.0
    lam = math.log(n / 2) / x1
    for l in (0.1, 0.3, 0.5):
        exact = dists.root_edge_survival_given_n_age(l, n, x1, lam)
        w = 2.0 * math.expm1(lam * l)
        asym = -math.expm1(-w) / w
        print(f"    l={l:.1f}: exact {exact:.6f}  asymptotic {asym:.6f}")


def diversity():
    print("\n=== diversity (sum of all edge lengths) given n ===")
    n = 10
    rng = RngStream(20, 0).generator()
    samples = read_trees(partial(sim.batch_yule_given_n, n, LAM), mc.read_diversity, rng)
    print(f"  n={n}: gamma(shape {n - 1}, rate {LAM})")
    print(f"  sample mean {samples.mean():.3f}  analytic {n - 1}")
    print(f"  sample var  {samples.var(ddof=1):.3f}  analytic {n - 1}")
    ks = mc.ks_one_sample(np.sort(samples), dists.diversity_dist_given_n(n, LAM).cdf)
    print(f"  KS distance to gamma CDF: {ks:.4f} "
          f"(99% threshold {1.6276 / math.sqrt(REPS):.4f})")

    x1 = 1.0
    p = Params(LAM, 0.0)
    rng = RngStream(21, 0).generator()
    samples = read_trees(partial(sim.batch_given_age, x1, p), mc.read_diversity, rng)
    print(f"\n  given only x1={x1}: sample mean {samples.mean():.4f}  "
          f"analytic 2(e^(lam x1)-1)/lam = "
          f"{dists.diversity_mean_given_age(x1, LAM):.4f}")


if __name__ == "__main__":
    root_edge_given_n()
    limit_constant()
    diversity()
