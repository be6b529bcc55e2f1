"""The kernel's special functions against 50-digit mpmath, with scipy as a
second reference at the same points and to the same budget.

A regularized incomplete gamma, a binomial tail or a density whose true
value is t is held to |f - t| <= 64 eps (1 + |ln t|) t, eps = 2^-52: a few
ulps of an exponent of size |ln t|, which scipy's own functions also meet
(they reach about 41 of the 64 units, the kernel about 8).  A true value
below the smallest normal float needs only an f within it.  exprel is held
to 2 ulps.
"""

import math
import sys

import numpy as np
import pytest

from recontree import dists, kernel, mc
from recontree.cli import main
from recontree.kernel import Params

mpmath = pytest.importorskip("mpmath")
special = pytest.importorskip("scipy.special")
stats = pytest.importorskip("scipy.stats")

EPS = 2.0 ** -52
UNITS = 64


def within(f, t) -> bool:
    """f within the module's budget of the true value t."""
    t = mpmath.mpf(t)
    if t < sys.float_info.min:
        return abs(float(f)) <= sys.float_info.min
    return abs(mpmath.mpf(float(f)) - t) <= UNITS * EPS * (1 + abs(mpmath.log(t))) * t


def gamma_pq(a: float, x: float) -> tuple:
    """The regularized P(a, x) and Q(a, x) to 50 digits, the smaller one
    computed and the other as 1 minus it."""
    with mpmath.workdps(50):
        if x == 0.0:
            return mpmath.mpf(0), mpmath.mpf(1)
        if x < a:
            p = mpmath.gammainc(a, 0, x, regularized=True)
            return p, 1 - p
        q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        return 1 - q, q


def x_grid(a: float) -> list:
    """0, tiny x, a +- up to 10 sqrt(a), far past a, and up to the largest float."""
    root = math.sqrt(a)
    xs = {0.0, 1e-300, 1e-100, 1e-10, 1e-3, 0.5, 1.0, a, a + 1.0, 2.0 * a, 10.0 * a,
          50.0 * a + 100.0, 1e3 * a + 700.0, 1e10, 1e100, 1e300, sys.float_info.max}
    xs |= {a + k * root for k in (-10, -8, -5, -3, -2, -1, -0.5, -0.1, 0.1, 0.5, 1, 2, 3, 5,
                                  8, 10)}
    return sorted(x for x in xs if x >= 0.0)


@pytest.mark.parametrize("x", [-1e300, -1e10, -745.0, -30.0, -1.0, -0.5, -1e-5, -1e-16,
                               -1e-17, -1e-300, 0.0, 1e-300, 1e-20, 1e-16, 1e-8, 1e-5, 0.1,
                               0.5, 1.0, 2.0, 30.0, 700.0, 709.0])
def test_exprel_within_2_ulps(x):
    with mpmath.workdps(50):
        t = mpmath.expm1(x) / x if x else mpmath.mpf(1)
    for f in (kernel._exprel(x), special.exprel(x)):
        assert abs(mpmath.mpf(float(f)) - t) <= 2 * EPS * t, (x, f)
    assert kernel._exprel(np.array([0.0, -1e-17])).tolist() == [1.0, 1.0]


# the half-integer shapes from 20.5 on reach the finite sum's longer runs, its density
# past _DIRECT and, above 200, Temme's expansion (mpmath's own reference does not
# converge at a = 10000.5)
@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 9.0, 20.5, 29.0, 60.5, 61.5, 199.5, 250.5,
                               399.0, 1000.5, 1e4, 1e6])
def test_incomplete_gamma(a):
    xs = x_grid(a)
    p, q = kernel._gamma_pq(a, np.array(xs))
    for x, pk, qk in zip(xs, p, q):
        tp, tq = gamma_pq(a, x)
        assert within(pk, tp) and within(qk, tq), (a, x, pk, qk)
        assert kernel._gamma_pq(a, x) == (pk, qk)  # a float gives the array's values
        # scipy's igam is up to 4e-6 off at a = 10^6, x = a - 5 sqrt(a) (10^9 units
        # of the budget): there mpmath is the only reference
        if a <= 1e4:
            assert within(special.gammainc(a, x), tp) and within(special.gammaincc(a, x), tq)


@pytest.mark.parametrize("df", range(1, 121))
def test_chi_square_p_value(df):
    # x = df + 2 is the first point of the finite sum above a + 1, a = df/2
    root = math.sqrt(2.0 * df)
    for x in (0.0, 1e-10, 0.01, 0.5, 1.0, df / 2, df - 1.0, df, df + 1.0, df + 2.0, 2.0 * df,
              df + 5 * root, 3.0 * df + 20.0, 100.0, 400.0, 1400.0, 1e5, 1e300):
        t = gamma_pq(df / 2, x / 2)[1]
        assert within(kernel._gamma_pq(df / 2, x / 2)[1], t), (df, x)
        assert within(special.chdtrc(df, x), t), (df, x)


@pytest.mark.parametrize("n", [3, 6, 30, 2000])
def test_binomial_tail_is_the_speciation_incomplete_beta(n):
    # speciation_time_cdf's I_G(n-k, k-1) = P(Binomial(n-2, G) >= n-k)
    m = n - 2
    for k in sorted({2, 3, n // 2, n - 2, n - 1} & set(range(2, n))):
        j = n - k
        xs = [0.0, 1e-300, 1e-20, 1e-3, j / (m + 1), 0.5, 0.999, 1.0 - 1e-12, 1.0,
              *np.linspace(0.01, 0.99, 25)]
        got = kernel._binomial_tail(j, m, np.array(xs))
        for x, f in zip(xs, got):
            with mpmath.workdps(50):
                t = mpmath.betainc(j, m - j + 1, 0, x, regularized=True)
            assert within(f, t) and within(special.betainc(j, m - j + 1, x), t), (n, k, x)


@pytest.mark.parametrize("k", [2, 3, 500, 1000, 1500, 1998, 1999])
def test_speciation_time_pdf_at_n_2000(k):
    n, x1, p = 2000, 1.0, Params(1.0, 0.5)
    s = np.linspace(0.0, x1, 41)
    got = dists.speciation_time_pdf(s, k, n, x1, p)
    g, G = dists.speciation_kernel(s, x1, p)
    reference = stats.beta.pdf(G, n - k, k - 1) * g
    for gk, Gk, f, r in zip(g, G, got, reference):
        with mpmath.workdps(50):
            G_ = mpmath.mpf(Gk)
            t = (n - 2) * mpmath.binomial(n - 3, k - 2) * G_ ** (n - k - 1) * (1 - G_) ** (k - 2) * gk
        assert within(f, t) and within(r, t), (k, Gk)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_diversity_law_at_n_1e6(lam):
    # scipy.stats.gamma is up to 10^9 units of the budget off here: mpmath alone
    n = 10**6
    a = n - 1.0
    law = dists.diversity_dist_given_n(n, lam)
    for x in x_grid(a):
        d = x / lam
        with mpmath.workdps(50):
            x_ = mpmath.mpf(min(d * lam, sys.float_info.max))
            pdf = lam * mpmath.exp((a - 1) * mpmath.log(x_) - x_ - mpmath.loggamma(a)) if x_ else 0
        assert within(law.pdf(d), pdf) and within(law.cdf(d), gamma_pq(a, float(x_))[0]), x


def test_limit_constant_is_the_nearest_double():
    with mpmath.workdps(50):
        c = (mpmath.euler + mpmath.log(2) + mpmath.e ** 2 * mpmath.e1(2)) / 2
        integral = mpmath.quad(lambda x: -mpmath.expm1(-x) / (x * (2 + x)), [0, 1, mpmath.inf])
        assert abs(c - integral) < mpmath.mpf(10) ** -40
    assert dists.root_edge_limit_constant() == float(c)


def test_temme_coefficients_are_the_known_rationals():
    # Temme (1979) / DiDonato & Morris (1986): C_0 = -1/3 + eta/12 - 2 eta^2/135
    # + eta^3/864 - ..., C_1 = -1/540 - eta/288 + ..., C_2 = 25/6048 + ...
    d = kernel._temme_table()
    known = [d[0, 0], d[0, 1], d[0, 2], d[0, 3], d[1, 0], d[1, 1], d[2, 0]]
    want = [-1 / 3, 1 / 12, -2 / 135, 1 / 864, -1 / 540, -1 / 288, 25 / 6048]
    assert known == pytest.approx(want, rel=4 * EPS, abs=0.0)


def test_callers_pass_the_shapes_the_finite_sums_serve(monkeypatch, tmp_path):
    # _gamma_pq sums Q down to g(1) or erfc(sqrt x), so it serves integer and
    # half-integer shapes a >= 1/2 only, and _gamma_density shapes a >= 1
    pq, density = [], []

    def record(shapes, f):
        def call(a, x):
            shapes.append(a)
            return f(a, x)
        return call

    for module in (dists, mc):
        monkeypatch.setattr(module, "_gamma_pq", record(pq, kernel._gamma_pq))
    for module in (dists, kernel):
        monkeypatch.setattr(module, "_gamma_density", record(density, kernel._gamma_density))
    mc.verify_suite(mc.VerifyConfig(reps=1000, seed=20260824))
    for n in (2, 5, 10**6):
        assert main(["density", "--law", "diversity", "--n", str(n), "--grid", f"0:{3 * n}:20",
                     "-o", str(tmp_path / f"{n}.csv")]) == 0
    assert pq and density
    assert all(2 * a == int(2 * a) and a >= 0.5 for a in pq), sorted(set(pq))
    assert all(a >= 1 for a in density), sorted(set(density))
