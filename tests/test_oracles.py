"""nmqem's closed forms against arbitrary-precision oracles that share no
code with the package: mpmath's Si, and an mpmath quadrature of the bath
correlator."""

import math
import random

import pytest

from nmqem.kernel import KernelParams, k_printed, k_quadrature, si_standard

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 30

# (gamma0, delta0, wc_ts, u): both sides of x = wc_ts u = 1/2 (series switch
# of the Si integral) and of x = 4 (series switch of Si), the two inputs where
# the earlier nested quadrature missed its 1e-10 tolerance, then x just above
# 4, where Si's continued fraction is deepest, and x = 40, where it is shallow.
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
    assert worst <= 2e-15


def test_si_continued_fraction_against_mpmath():
    # dense just above the switch at 4, where the fixed depth is largest, and
    # log-uniform over the rest of the continued fraction's range up to 1e15
    rng = random.Random(15)
    xs = [4.0 + 0.1 * i / 2000 for i in range(1, 2001)]
    xs += [math.exp(rng.uniform(math.log(4.0), math.log(1e15))) for _ in range(2000)]
    worst = max(abs(si_standard(x) - float(mpmath.si(x))) for x in xs)
    assert worst <= 2e-15
