"""Branch-length and diversity laws for reconstructed birth-death trees.

Closed-form densities, survival functions, expectations and MGFs for
pendant edges, interior edges, root edges and diversity under three
conditioning scenarios (tip count n, MRCA age x1, or both), together with
exact conditioned samplers and a Monte Carlo harness that cross-validates
every law against simulation.
"""

from .kernel import Params, RawParams, p0, p1, prob_n_given_age, transform_params
from .sim import RngStream, sample_given_age, sample_given_n_age, sample_yule_given_n
from .tree import ReconTree, from_newick, to_newick

__all__ = [
    "Params",
    "RawParams",
    "p0",
    "p1",
    "prob_n_given_age",
    "transform_params",
    "RngStream",
    "sample_yule_given_n",
    "sample_given_n_age",
    "sample_given_age",
    "ReconTree",
    "to_newick",
    "from_newick",
]

__version__ = "0.1.0"
