"""Pendant-edge length laws under the three conditioning scenarios.

Walks through the pendant-edge distribution (the edge above a randomly
chosen tip) when we condition on (i) the tip count n, (ii) both n and the
MRCA age x1, and (iii) x1 alone, overlaying Monte Carlo histograms from
the exact samplers on the closed-form densities.

Run:  python demos/pendant_edge_laws.py
"""

from functools import partial

import numpy as np

from recontree import Params, RngStream, dists, mc, prob_n_given_age, sim

LAM, MU = 1.0, 0.5
P = Params(LAM, MU)
REPS = 20_000


def pendant_samples(batch_sampler, rng):
    """The length of a uniformly chosen pendant edge of each of REPS trees."""
    readers = {"pendant": mc.read_random_pendant}
    return mc.collect(batch_sampler, readers, REPS, rng)["pendant"]


def histogram_vs_density(samples, pdf, edges, mass=1.0):
    """Print a crude side-by-side comparison on a fixed grid."""
    counts, _ = np.histogram(samples, bins=edges)
    widths = np.diff(edges)
    emp = counts / counts.sum() / widths * mass
    mids = 0.5 * (edges[:-1] + edges[1:])
    print(f"  {'s':>6} {'empirical':>10} {'analytic':>10}")
    for m, e, a in zip(mids, emp, pdf(mids)):
        print(f"  {m:6.3f} {e:10.4f} {a:10.4f}")


def scenario_given_n():
    print("\n=== scenario (i): conditioned on n ===")
    print("The law is the same for every n; with extinction it is")
    print("2*lam*p1(s)*(1 - lam*p0(s)), reducing to Exp(2*lam) when mu=0.\n")
    rng = RngStream(1, 0).generator()
    # pure birth so we can use the fixed-n sampler
    samples = pendant_samples(partial(sim.batch_yule_given_n, 20, LAM), rng)
    edges = np.linspace(0.0, 2.5, 11)
    histogram_vs_density(samples, lambda s: 2 * LAM * np.exp(-2 * LAM * s), edges)
    print(f"\n  sample mean {samples.mean():.4f}  "
          f"analytic {dists.pendant_mean_given_n(Params(LAM, 0.0)):.4f}")


def scenario_given_n_age():
    n, x1 = 6, 2.0
    print(f"\n=== scenario (ii): conditioned on n={n} and x1={x1} ===")
    law = dists.pendant_dist_given_n_age(n, x1, P)
    print(f"Mixed law: atom of mass 2/(n(n-1)) = {law.atom_weight:.4f} at s = x1")
    print("(a pendant edge attached directly to the root spans the full age).\n")
    rng = RngStream(2, 0).generator()
    samples = pendant_samples(partial(sim.batch_given_n_age, n, x1, P), rng)
    at_atom = np.abs(samples - x1) <= 1e-9 * x1
    edges = np.linspace(0.0, x1, 9)
    histogram_vs_density(samples[~at_atom], law.pdf, edges,
                         mass=1.0 - law.atom_weight)
    print(f"\n  atom fraction {at_atom.mean():.4f}  analytic {law.atom_weight:.4f}")
    print(f"  sample mean {samples.mean():.4f}  "
          f"analytic {dists.pendant_mean_given_n_age(n, x1, P):.4f}")


def scenario_given_age():
    x1 = 1.5
    print(f"\n=== scenario (iii): conditioned on x1={x1} alone ===")
    print("Marginalizing the tip count gives another mixed law; its density")
    print("is the p_n(x1)-weighted mixture of the scenario (ii) densities:\n")
    law = dists.pendant_dist_given_age(x1, P)
    grid = np.linspace(0.1, 1.4, 6)
    # one row of p_n(x1) times the given-(n, x1) density per n, summed in n order
    ns = np.arange(3, 400)
    end, _, amp, edge, slope, _ = dists._pendant_coefs_given_n_age(ns[:, None], x1, P)
    pdfs = dists._pendant_pdf(grid, end, amp, edge, slope, P)
    mixture = np.add.reduce(prob_n_given_age(ns, x1, P)[:, None] * pdfs, axis=0)
    for s, d, m in zip(grid, law.pdf(grid), mixture):
        print(f"  s={s:.2f}  closed form {d:.6f}  mixture {m:.6f}")
    rng = RngStream(3, 0).generator()
    samples = pendant_samples(partial(sim.batch_given_age, x1, P), rng)
    at_atom = np.abs(samples - x1) <= 1e-9 * x1
    print(f"\n  atom fraction {at_atom.mean():.4f}  analytic {law.atom_weight:.4f}")
    print(f"  sample mean {samples.mean():.4f}  "
          f"analytic {dists.pendant_mean_given_age(x1, P):.4f}")


if __name__ == "__main__":
    print(f"pendant-edge laws at lam={LAM}, mu={MU} ({REPS} trees per scenario)")
    scenario_given_n()
    scenario_given_n_age()
    scenario_given_age()
