"""nmqem's closed forms against arbitrary-precision oracles that share no
code with the package: mpmath's Si, and an mpmath quadrature of the bath
correlator."""

import math
import random

import pytest

from nmqem import kernel
from nmqem.kernel import KernelParams, k_printed, k_quadrature, si_standard

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 30

# (gamma0, delta0, wc_ts, u): both sides of x = wc_ts u = 1/2 (where the Si
# integral and Si leave their small-x polynomials) and of x = 4 (once the
# switch from Si's series to its continued fraction, now the node of a cell
# of Si's table), the two inputs where the earlier nested quadrature missed
# its 1e-10 tolerance, then x just above 4, and x = 40, above the table's top,
# where the continued fraction is shallow.
KERNEL_CASES = [
    (1.0, 0.5, 10.0, 0.049),
    (1.0, 0.5, 10.0, 0.051),
    (1.0, 0.5, 10.0, 0.399),
    (1.0, 0.5, 10.0, 0.401),
    (1.0, 0.5, 10.0, 1.0),
    (0.7, 0.3, 10.0, 1e-6),
    (2.0, 1.0, 0.5, 3.0),
    (0.1, 0.2, 10.45, 0.24008),
    (6.7e-5, 0.3, 10.75, 0.964),
    (0.4, 1.5, 10.0, 0.40001),
    (1.0, 0.5, 10.0, 4.0),
]


def oracle_quadrature(g0, d0, wc, u):
    """int_0^u ds int_0^s dsigma c(sigma) = int_0^u (u - s) c(s) ds with the
    correlator c = (pi g0 / 2) sin(wc s)/s + i d0 d/ds[sin(wc s)/(wc s)]."""
    g0, d0, wc, u = (mpmath.mpf(v) for v in (g0, d0, wc, u))

    def c_im(s):
        x = wc * s
        if x < mpmath.mpf("1e-8"):
            return -d0 * wc * (x / 3 - x**3 / 30)
        return -d0 * (mpmath.sin(x) / (wc * s * s) - mpmath.cos(x) / s)

    nodes = mpmath.linspace(0, u, int(wc * u / mpmath.pi) + 2)
    re = mpmath.quad(lambda s: (u - s) * mpmath.pi * g0 / 2 * wc * mpmath.sinc(wc * s), nodes)
    im = mpmath.quad(lambda s: (u - s) * c_im(s), nodes)
    return float(re), float(im)


def oracle_printed(g0, d0, wc, u):
    """The printed form with its inner integral done by mpmath quadrature."""
    g0, d0, wc, u = (mpmath.mpf(v) for v in (g0, d0, wc, u))
    inner = mpmath.quad(lambda s: mpmath.si(wc * s) - mpmath.pi / 2, [0, u])
    re = 2 / mpmath.pi * g0 * (mpmath.pi / 2 * wc * u + inner)
    return float(re), float(d0 * (u - mpmath.si(wc * u) / wc))


@pytest.mark.parametrize("case", KERNEL_CASES)
@pytest.mark.parametrize(
    "evaluator, oracle",
    [(k_printed, oracle_printed), (k_quadrature, oracle_quadrature)],
    ids=["printed", "quadrature"],
)
def test_kernel_against_mpmath(case, evaluator, oracle):
    g0, d0, wc, u = case
    k = evaluator(KernelParams(g0, d0, wc), u)
    re, im = oracle(g0, d0, wc, u)
    assert abs(k.real - re) <= 1e-12
    assert abs(k.imag - im) <= 1e-12


def test_si_against_mpmath():
    worst = 0.0
    for i in range(1, 5001):
        x = 50.0 * i / 5000 - 0.00123  # off the grid of round numbers
        worst = max(worst, abs(si_standard(x) - float(mpmath.si(x))))
    assert worst <= 1e-15


def test_si_continued_fraction_against_mpmath():
    # dense just above 4, where the fixed depth is largest, and log-uniform
    # up to 1e15; si_standard reads the table below its top at 16.5, so the
    # continued fraction, which gives the table's nodes from 4 on, is also
    # checked on its own
    rng = random.Random(15)
    xs = [4.0 + 0.1 * i / 2000 for i in range(1, 2001)]
    xs += [math.exp(rng.uniform(math.log(4.0), math.log(1e15))) for _ in range(2000)]
    for si in (si_standard, kernel._si_continued_fraction):
        worst = max(abs(si(x) - float(mpmath.si(x))) for x in xs)
        assert worst <= 1e-15, si


def test_si_cells_against_mpmath_taylor():
    # each cell's coefficients against mpmath's Taylor coefficients of Si
    # about its node j: the node within an ulp, and the rest moving Si at
    # the cell's edge |h| = 1/2 by at most 2^-55, half an ulp of Si(1/2)
    assert kernel._SI_DEGREE == 16
    for j in range(1, len(kernel._SI_CELLS)):
        ours = kernel._SI_CELLS[j][::-1]  # lowest power first
        exact = mpmath.taylor(mpmath.si, j, kernel._SI_DEGREE)
        assert len(ours) == len(exact)
        assert abs(ours[0] - exact[0]) <= math.ulp(ours[0]), j
        drift = sum(abs(c - e) * mpmath.mpf(2) ** -n for n, (c, e) in enumerate(zip(ours, exact)) if n)
        assert drift <= 2.0 ** -55, j


@pytest.mark.parametrize(
    "tail, first, f",
    [
        (kernel._SI_SMALL, 1, mpmath.si),
        (kernel._F_SMALL, 2, lambda x: x * mpmath.si(x) + mpmath.cos(x) - 1),
    ],
    ids=["si", "si_integral"],
)
def test_small_x_series_against_mpmath_taylor(tail, first, f):
    # the coefficients past the first term of x + x^3 P(x^2) (Si) and of
    # x^2/2 + x^4 Q(x^2) (its integral), each within half an ulp
    exact = mpmath.taylor(f, 0, first + 2 * len(tail))
    for n, c in enumerate(tail[::-1], start=1):
        e = exact[first + 2 * n]
        assert abs(c - e) <= 0.5 * math.ulp(c), n


def test_im_k_keeps_its_relative_precision_at_small_x():
    # Im k = delta0 (u - Si(x) / wc') at x = wc' u cancels as x -> 0, so below
    # x = 1/2 both readings take the bracket from Si's series, -u x^2 P(x^2);
    # against mpmath at 60 digits it keeps 1e-14 relative down to x = 1e-12
    rng = random.Random(32)
    with mpmath.workdps(60):
        for _ in range(500):
            x = math.exp(rng.uniform(math.log(1e-12), math.log(0.5)))
            wc = rng.choice((0.5, 3.0, 10.0, 10.45))
            u = x / wc
            p = KernelParams(1.0, 0.5, wc)
            exact = mpmath.mpf(0.5) * (u - mpmath.si(mpmath.mpf(wc) * u) / wc)
            for evaluator, sign in ((k_printed, 1), (k_quadrature, -1)):
                im = evaluator(p, u).imag
                assert abs(im - sign * exact) <= 1e-14 * abs(exact), (evaluator.__name__, x, wc)
